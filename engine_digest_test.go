package muxwise

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"testing"

	"muxwise/internal/gpu"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
)

// engineRunDigest is the sha256 of everything TestEngineRunDigest's runs
// leave behind.
const engineRunDigest = "d3e76fdac0ce3813970074cae816c8b880cfb11c3d23308c5ff19ea448535973"

// digestWriter feeds a run's results into a hash in a fixed binary or
// JSON form.
type digestWriter struct {
	t *testing.T
	h hash.Hash
}

func (w digestWriter) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		w.h.Write(b[:])
	}
}

func (w digestWriter) floats(vs ...float64) {
	for _, v := range vs {
		w.ints(int64(math.Float64bits(v)))
	}
}

func (w digestWriter) json(v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		w.t.Fatal(err)
	}
	w.h.Write(raw)
}

// result hashes one engine instance's result: every request's record,
// the summary, every device's Stats and the partition timeline.
func (w digestWriter) result(res *serve.Result) {
	for _, r := range res.Rec.Records() {
		done := int64(0)
		if r.Done {
			done = 1
		}
		w.ints(int64(r.ID), int64(r.Arrival), int64(r.FirstToken), int64(r.Finished),
			int64(r.Tokens), int64(r.MaxGap), done)
	}
	w.json(res.Summary)
	for _, d := range res.Devices {
		w.devices(d)
	}
	if tl := res.Timeline; tl != nil {
		for i := range tl.Changes() {
			at, dec, pre := tl.Point(i)
			w.ints(int64(at), int64(dec), int64(pre))
		}
	}
}

func (w digestWriter) devices(d gpu.Stats) {
	w.ints(d.Kernels)
	w.floats(d.SMUtil, d.ComputeUtil, d.BWUtil, d.Util, d.ActiveSeconds, d.LaunchSeconds)
}

// report hashes a run's report: its engine or every fleet replica, the
// miss causes and the event loop's counters in their evented form.
func (w digestWriter) report(rep *Report) {
	w.json(rep.Summary)
	w.json(rep.MissCauses)
	switch {
	case rep.Engine != nil:
		w.result(rep.Engine)
	case rep.Fleet != nil:
		for i := range rep.Fleet.Replicas {
			w.result(&rep.Fleet.Replicas[i].Result)
		}
	}
	w.json(evented(loopOf(rep)))
}

// loopOf returns the event loop's counters of a run.
func loopOf(rep *Report) sim.LoopStats {
	if rep.Fleet != nil {
		return rep.Fleet.Loop
	}
	return rep.Engine.Loop
}

// evented returns ls as the run would have counted it with every folded
// event dispatched: each fold is one more scheduled and fired event.
func evented(ls sim.LoopStats) sim.LoopStats {
	ls.Fired += ls.Folded
	ls.Scheduled += ls.Folded
	ls.Folded = 0
	return ls
}

// TestEngineRunDigest pins, by one sha256, every request's record
// (arrival, first token, finish, tokens, worst gap), the summary, the
// miss causes, every device's Stats, the partition timeline and the event
// loop's counters of every engine under both cost models, on ShareGPT
// (one A100, Llama-8B) and Conversation (eight A100s, Llama-70B), each at
// a light and a loaded rate, plus the bursty drain-and-migrate fleet and
// a LoongServe run on OpenThoughts whose decode group grows past one TP
// slice, so that its coasted iterations carry a weight-replica surcharge.
// Changes to how the simulator reaches its results, rather than to the
// results, must leave it alone; folded events count as the scheduled and
// fired events they stand for. With -v it logs each run's own digest and
// folded event count, so two trees' logs name the runs that moved.
func TestEngineRunDigest(t *testing.T) {
	type run struct {
		label string
		trace func() *Trace
		exp   func() *Experiment
	}
	var runs []run
	a100x1 := Deployment{Hardware: "A100", GPUs: 1, Model: "Llama-8B"}
	a100x8 := Deployment{Hardware: "A100", GPUs: 8, Model: "Llama-70B"}
	traces := []struct {
		name  string
		dep   Deployment
		trace func() *Trace
	}{
		{"sharegpt/rate=4", a100x1, func() *Trace { return ShareGPT(7, 200).WithPoissonArrivals(7, 4) }},
		{"sharegpt/rate=16", a100x1, func() *Trace { return ShareGPT(7, 200).WithPoissonArrivals(7, 16) }},
		{"conversation/scale=0.2", a100x8, func() *Trace {
			return Conversation(7, 60).WithProfileArrivals(7, ConversationProfile(0.2))
		}},
		{"conversation/scale=1", a100x8, func() *Trace {
			return Conversation(7, 60).WithProfileArrivals(7, ConversationProfile(1))
		}},
	}
	for _, tr := range traces {
		for _, cost := range CostModels() {
			for _, eng := range Engines() {
				runs = append(runs, run{
					label: fmt.Sprintf("%s/%s/%s", tr.name, cost, eng),
					trace: tr.trace,
					exp: func() *Experiment {
						return NewExperiment(WithDeployment(tr.dep), WithEngine(eng), WithCostModel(cost))
					},
				})
			}
		}
	}
	runs = append(runs, run{
		label: "bursty-fleet",
		trace: func() *Trace { return MixedBursty(7, 12, 2) },
		exp: func() *Experiment {
			const coldStart = 15 * Second
			return NewExperiment(
				WithDeployment(a100x1),
				WithFleet(ReplicaSpec{Engine: "MuxWise", Count: 3}),
				WithAutoscaler("backlog"),
				WithScaleBounds(2, 5),
				WithColdStart(coldStart),
				WithEvents(
					FleetEvent{At: 20 * Second, Kind: "spawn"},
					FleetEvent{At: 40 * Second, Kind: "drain", Replica: 0},
				),
				WithMigration(),
			)
		},
	})
	runs = append(runs, run{
		label: "openthoughts/rate=20/LoongServe",
		trace: func() *Trace { return OpenThoughts(7, 300).WithPoissonArrivals(7, 20) },
		exp:   func() *Experiment { return NewExperiment(WithDeployment(a100x8), WithEngine("LoongServe")) },
	})

	all := sha256.New()
	for _, r := range runs {
		rep, err := r.exp().Run(r.trace())
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		one := sha256.New()
		digestWriter{t, one}.report(rep)
		sum := one.Sum(nil)
		t.Logf("%s %s folded=%d", r.label, hex.EncodeToString(sum), loopOf(rep).Folded)
		all.Write(sum)
	}
	if got := hex.EncodeToString(all.Sum(nil)); got != engineRunDigest {
		t.Errorf("engine run digest = %s, want %s (run with -v for each run's digest)", got, engineRunDigest)
	}
}
