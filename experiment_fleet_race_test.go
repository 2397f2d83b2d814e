package muxwise

import (
	"reflect"
	"sync"
	"testing"
)

// fleetChaosExperiment builds the end-to-end lifecycle stress: a fleet
// under the backlog autoscaler that loses a replica mid-run.
func fleetChaosExperiment() (*Experiment, *Trace) {
	dep := Deployment{
		Hardware: "A100", GPUs: 1, Model: "Llama-8B",
		SLO: SLO{TTFT: Second, TBT: 50 * Millisecond},
	}
	exp := NewExperiment(
		WithDeployment(dep),
		WithFleet(ReplicaSpec{Engine: "MuxWise", Count: 3}),
		WithRouter("adaptive-ttft"),
		WithAutoscaler("backlog"),
		WithColdStart(5*Second),
		WithScaleBounds(1, 6),
		WithEvents(FleetEvent{At: 40 * Second, Kind: "fail", Replica: 0}),
	)
	return exp, MixedBursty(31, 40, 2)
}

// TestExperimentFleetChaosNoGhostMetrics replays an autoscaled fleet
// through a mid-run replica failure and checks the books still balance:
// the failed replica's metrics freeze at the crash instant, its
// re-dispatched requests are recorded exactly once fleet-wide, and no
// ghost simulation work leaks into the merged rollup. (metrics.Merge
// panics on a duplicated request ID, so a clean run is itself evidence
// the re-dispatch withdrew the dead replica's records.)
//
// The CI race job runs this under -race together with
// TestExperimentFleetChaosConcurrentRuns, which exercises the same
// lifecycle from concurrent goroutines.
func TestExperimentFleetChaosNoGhostMetrics(t *testing.T) {
	exp, trace := fleetChaosExperiment()
	rep, err := exp.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	fleet := rep.Fleet
	if fleet == nil {
		t.Fatal("fleet experiment reported no fleet detail")
	}
	if fleet.Failures != 1 {
		t.Fatalf("failures = %d, want exactly the scheduled crash", fleet.Failures)
	}

	var failed *ClusterReplicaResult
	finishedSum := 0
	for i := range fleet.Replicas {
		r := &fleet.Replicas[i]
		finishedSum += r.Result.Summary.Finished
		if r.State.String() == "failed" {
			failed = r
		}
	}
	if failed == nil {
		t.Fatal("no replica reported the failed state")
	}
	if failed.DownAt != 40*Second {
		t.Fatalf("failed replica went down at %v, want the scheduled 40s", failed.DownAt)
	}
	// Frozen at the crash: the dead engine keeps simulating queued work,
	// but nothing after DownAt may appear in its summary.
	if got := failed.Result.Summary.Makespan; got != failed.DownAt {
		t.Fatalf("failed replica summary extends to %v after its %v crash (ghost metrics)", got, failed.DownAt)
	}
	// E2E latencies are bounded by the span the replica was alive.
	if q := failed.Result.Summary.E2E; q.N > 0 && Time(q.Max*float64(Second)) > failed.DownAt {
		t.Fatalf("failed replica reports an E2E sample of %.2fs, longer than its %v life", q.Max, failed.DownAt)
	}

	// Every arrival is recorded exactly once fleet-wide, and per-replica
	// completions sum to the merged view — nothing double-counted by the
	// re-dispatch, nothing lost by the freeze.
	if rep.Summary.Requests != trace.Len() {
		t.Fatalf("fleet recorded %d requests, trace offered %d", rep.Summary.Requests, trace.Len())
	}
	if finishedSum != rep.Summary.Finished {
		t.Fatalf("per-replica completions sum to %d, merged summary says %d", finishedSum, rep.Summary.Finished)
	}
	if fleet.Rec.Unfinished() != rep.Summary.Requests-rep.Summary.Finished {
		t.Fatal("merged recorder's unfinished count disagrees with the summary")
	}
	if within := fleet.Rec.WithinSLO(rep.SLO); within > rep.Summary.Finished {
		t.Fatalf("%d requests within SLO but only %d finished", within, rep.Summary.Finished)
	}
}

// TestExperimentFleetChaosConcurrentRuns fans the same chaos experiment
// across goroutines — the pattern Sweep and Goodput use — asserting the
// runs are independent and byte-deterministic. Under -race this covers
// concurrent fleet construction, autoscaler ticks, failure handling and
// recorder merges.
func TestExperimentFleetChaosConcurrentRuns(t *testing.T) {
	exp, _ := fleetChaosExperiment()
	const runs = 4
	reports := make([]*Report, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine generates its own trace here; Run never
			// writes its trace, so sharing one is also safe (see
			// TestConcurrentRunsShareOneTrace). Only WithPoissonArrivals
			// and WithProfileArrivals rewrite a trace, in place.
			reports[i], errs[i] = exp.Run(MixedBursty(31, 40, 2))
		}()
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
	}
	ref := reports[0]
	for i := 1; i < runs; i++ {
		got := reports[i]
		if got.Summary != ref.Summary {
			t.Fatalf("run %d summary diverged from run 0:\n%+v\n%+v", i, got.Summary, ref.Summary)
		}
		if got.Attainment != ref.Attainment {
			t.Fatalf("run %d attainment %v, run 0 %v", i, got.Attainment, ref.Attainment)
		}
		if got.Fleet.Failures != ref.Fleet.Failures || len(got.Fleet.Replicas) != len(ref.Fleet.Replicas) {
			t.Fatalf("run %d fleet shape diverged", i)
		}
	}
}

// TestConcurrentRunsShareOneTrace replays one Conversation trace from 4
// goroutines at once on a MuxWise engine and 4 more on the chaos fleet.
// Later turns hit the prefixes earlier turns published, so every run's
// KV pools hold subslices of the same request page lists: the pools keep
// published pages by reference. Under -race a write to the shared trace
// fails the test, and each report must equal the serial run's.
func TestConcurrentRunsShareOneTrace(t *testing.T) {
	newTrace := func() *Trace {
		return Conversation(31, 40).WithProfileArrivals(31, ConversationProfile(2))
	}
	dep := Deployment{Hardware: "A100", GPUs: 1, Model: "Llama-8B"}
	fleet, _ := fleetChaosExperiment()
	exps := []*Experiment{NewExperiment(WithDeployment(dep), WithEngine("MuxWise")), fleet}
	type outcome struct {
		Summary    Summary
		Attainment float64
		MissCauses MissBreakdown
		CacheHit   []float64
	}
	run := func(exp *Experiment, trace *Trace) (outcome, error) {
		rep, err := exp.Run(trace)
		if err != nil {
			return outcome{}, err
		}
		o := outcome{Summary: rep.Summary, Attainment: rep.Attainment, MissCauses: rep.MissCauses}
		if rep.Engine != nil {
			o.CacheHit = append(o.CacheHit, rep.Engine.CacheHit)
		}
		if rep.Fleet != nil {
			for _, r := range rep.Fleet.Replicas {
				o.CacheHit = append(o.CacheHit, r.Result.CacheHit)
			}
		}
		return o, nil
	}
	trace := newTrace()
	want := make([]outcome, len(exps))
	for e, exp := range exps {
		var err error
		if want[e], err = run(exp, newTrace()); err != nil {
			t.Fatal(err)
		}
	}
	if want[0].CacheHit[0] == 0 {
		t.Fatal("the engine run had no prefix hits, so its pool referenced no shared pages")
	}
	const goroutines = 4
	got := make([][]outcome, len(exps))
	errs := make([][]error, len(exps))
	var wg sync.WaitGroup
	for e, exp := range exps {
		got[e] = make([]outcome, goroutines)
		errs[e] = make([]error, goroutines)
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[e][g], errs[e][g] = run(exp, trace)
			}()
		}
	}
	wg.Wait()
	for e := range exps {
		for g := range goroutines {
			if errs[e][g] != nil {
				t.Fatalf("experiment %d, goroutine %d: %v", e, g, errs[e][g])
			}
			if !reflect.DeepEqual(got[e][g], want[e]) {
				t.Fatalf("experiment %d, goroutine %d on the shared trace:\n%+v\nserial run:\n%+v", e, g, got[e][g], want[e])
			}
		}
	}
	if !reflect.DeepEqual(trace.Requests, newTrace().Requests) {
		t.Fatal("the runs changed the trace they shared")
	}
}

// TestFinishedReportsReadConcurrently reads two finished reports, the
// chaos fleet's (one replica recorder frozen at its crash) and one
// engine's, from 8 goroutines at once: Summarize on the fleet recorder
// and on every replica recorder, TBTAttainment and Rollup. Each read
// must equal the single-goroutine one, taken after them. Summaries
// select the TBT quantiles from the log in place, so a read that wrote
// to the recorder would race here; the CI race job fails this test if
// one does.
func TestFinishedReportsReadConcurrently(t *testing.T) {
	exp, trace := fleetChaosExperiment()
	fleetRep, err := exp.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	dep := Deployment{Hardware: "A100", GPUs: 1, Model: "Llama-8B"}
	engineRep, err := NewExperiment(WithDeployment(dep), WithEngine("MuxWise")).
		Run(ShareGPT(3, 60).WithPoissonArrivals(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	type source struct {
		rec *Recorder
		rep *Report
	}
	srcs := []source{{fleetRep.Fleet.Rec, fleetRep}, {engineRep.Engine.Rec, engineRep}}
	for _, r := range fleetRep.Fleet.Replicas {
		srcs = append(srcs, source{r.Result.Rec, fleetRep})
	}
	type reading struct {
		Summary    Summary
		Attainment float64
		Windows    []MetricsWindow
	}
	read := func() []reading {
		out := make([]reading, len(srcs))
		for i, src := range srcs {
			end, slo := src.rep.Summary.Makespan, src.rep.SLO.TBT
			out[i] = reading{
				Summary:    src.rec.Summarize("read", end),
				Attainment: src.rec.TBTAttainment(slo),
				Windows:    src.rec.Rollup([]Time{0, end / 3, end / 2, end}, slo),
			}
		}
		return out
	}
	const readers = 8
	got := make([][]reading, readers)
	var wg sync.WaitGroup
	for g := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = read()
		}()
	}
	wg.Wait()
	want := read()
	for g := range readers {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("reader %d disagrees with the single-goroutine read:\n%+v\n%+v", g, got[g], want)
		}
	}
}
