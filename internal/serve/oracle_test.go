package serve_test

import (
	"fmt"
	"testing"

	"muxwise"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
)

// oracleRun is one run of TestCoastMatchesHandler. A run with wantErr
// set must fail to resolve instead.
type oracleRun struct {
	label   string
	trace   func() *muxwise.Trace
	exp     func() *muxwise.Experiment
	wantErr bool
}

// oracleRuns returns the seven engines under both cost models on the
// traces TestEngineRunDigest pins and on two inputs under pressure:
// Llama-70B on two A100s, whose 41k-token pool turns admissions away (and
// which SGLang-PD, splitting it into one-A100 instances with no pool each,
// must reject), and ShareGPT at 400 req/s, where LoongServe's and
// SGLang-PD's decode batches reach MaxBatch. Then SGLang-PD on four A100s,
// whose decode pool makes finished prefills wait to hand off, and the
// bursty fleet.
func oracleRuns() []oracleRun {
	a100x1 := muxwise.Deployment{Hardware: "A100", GPUs: 1, Model: "Llama-8B"}
	a100x8 := muxwise.Deployment{Hardware: "A100", GPUs: 8, Model: "Llama-70B"}
	traces := []struct {
		name  string
		dep   muxwise.Deployment
		trace func() *muxwise.Trace
	}{
		{"sharegpt/rate=4", a100x1, func() *muxwise.Trace { return muxwise.ShareGPT(7, 200).WithPoissonArrivals(7, 4) }},
		{"sharegpt/rate=16", a100x1, func() *muxwise.Trace { return muxwise.ShareGPT(7, 200).WithPoissonArrivals(7, 16) }},
		{"conversation/scale=0.2", a100x8, func() *muxwise.Trace {
			return muxwise.Conversation(7, 60).WithProfileArrivals(7, muxwise.ConversationProfile(0.2))
		}},
		{"conversation/scale=1", a100x8, func() *muxwise.Trace {
			return muxwise.Conversation(7, 60).WithProfileArrivals(7, muxwise.ConversationProfile(1))
		}},
		{"small-pool", muxwise.Deployment{Hardware: "A100", GPUs: 2, Model: "Llama-70B"},
			func() *muxwise.Trace { return muxwise.ShareGPT(3, 200).WithPoissonArrivals(3, 12) }},
		{"max-batch", a100x1, func() *muxwise.Trace { return muxwise.ShareGPT(5, 1500).WithPoissonArrivals(5, 400) }},
	}
	var runs []oracleRun
	for _, tr := range traces {
		for _, cost := range muxwise.CostModels() {
			for _, eng := range muxwise.Engines() {
				runs = append(runs, oracleRun{
					label: fmt.Sprintf("%s/%s/%s", tr.name, cost, eng),
					trace: tr.trace,
					exp: func() *muxwise.Experiment {
						return muxwise.NewExperiment(muxwise.WithDeployment(tr.dep), muxwise.WithEngine(eng), muxwise.WithCostModel(cost))
					},
					wantErr: tr.name == "small-pool" && eng == "SGLang-PD",
				})
			}
		}
	}
	return append(runs,
		oracleRun{
			label: "handoff/SGLang-PD",
			trace: func() *muxwise.Trace { return muxwise.ShareGPT(9, 300).WithPoissonArrivals(9, 6) },
			exp: func() *muxwise.Experiment {
				return muxwise.NewExperiment(muxwise.WithDeployment(muxwise.Deployment{Hardware: "A100", GPUs: 4, Model: "Llama-70B"}),
					muxwise.WithEngine("SGLang-PD"))
			},
		},
		oracleRun{
			label: "bursty-fleet",
			trace: func() *muxwise.Trace { return muxwise.MixedBursty(7, 12, 2) },
			exp: func() *muxwise.Experiment {
				return muxwise.NewExperiment(
					muxwise.WithDeployment(a100x1),
					muxwise.WithFleet(muxwise.ReplicaSpec{Engine: "MuxWise", Count: 3}),
					muxwise.WithAutoscaler("backlog"),
					muxwise.WithScaleBounds(2, 5),
					muxwise.WithColdStart(15*muxwise.Second),
					muxwise.WithEvents(
						muxwise.FleetEvent{At: 20 * muxwise.Second, Kind: "spawn"},
						muxwise.FleetEvent{At: 40 * muxwise.Second, Kind: "drain", Replica: 0},
					),
					muxwise.WithMigration(),
				)
			},
		},
	)
}

// outcome returns everything a run leaves behind but its loop counters,
// printed with exact floats: the summary, the miss causes and, for the
// engine or each fleet replica, every request's record, the summary,
// every device's Stats, the prefix-cache hit rate and the partition
// timeline. It returns the loop counters apart.
func outcome(rep *muxwise.Report) (string, sim.LoopStats) {
	out := fmt.Sprintf("%+v %+v", rep.Summary, rep.MissCauses)
	if rep.Fleet == nil {
		return out + result(rep.Engine), rep.Engine.Loop
	}
	for i := range rep.Fleet.Replicas {
		out += result(&rep.Fleet.Replicas[i].Result)
	}
	return out, rep.Fleet.Loop
}

// result prints one engine instance's part of outcome.
func result(res *muxwise.Result) string {
	out := fmt.Sprintf("%+v %+v %+v %v", res.Rec.Records(), res.Summary, res.Devices, res.CacheHit)
	if tl := res.Timeline; tl != nil {
		for i := range tl.Changes() {
			at, dec, pre := tl.Point(i)
			out += fmt.Sprint(at, dec, pre)
		}
	}
	return out
}

// coastMatches runs r with coasting on and off and fails unless both
// end alike and count the same events, each folded iteration once in
// Folded instead of once in Scheduled and in Fired, or, for a run with
// wantErr set, unless both fail. It returns the folds.
func coastMatches(t *testing.T, r oracleRun) (folded int64) {
	t.Helper()
	var got [2]string
	var loop [2]sim.LoopStats
	for i, off := range []bool{false, true} {
		restore := serve.SetNoCoast(off)
		rep, err := r.exp().Run(r.trace())
		restore()
		switch {
		case r.wantErr && err == nil:
			t.Fatalf("%s: ran with coasting off=%v, want a deployment error", r.label, off)
		case r.wantErr:
			continue
		case err != nil:
			t.Fatalf("%s: %v", r.label, err)
		}
		got[i], loop[i] = outcome(rep)
	}
	if r.wantErr {
		return 0
	}
	on, off := loop[0], loop[1]
	if got[0] != got[1] {
		t.Errorf("%s: coasting moved the run's results", r.label)
	}
	if off.Folded != 0 || on.Fired+on.Folded != off.Fired || on.Scheduled+on.Folded != off.Scheduled ||
		on.Canceled != off.Canceled || on.MaxPending != off.MaxPending {
		t.Errorf("%s: loop counters %+v coasting, %+v through the handler", r.label, on, off)
	}
	return on.Folded
}

// TestCoastMatchesHandler is coasting's oracle: every run ends exactly as
// it does with every decode boundary sent to the engine's handler, and the
// event loop counts the same events, each coasted iteration that folded
// counting once in Folded instead of once in Scheduled and in Fired.
func TestCoastMatchesHandler(t *testing.T) {
	var folded int64
	for _, r := range oracleRuns() {
		n := coastMatches(t, r)
		if !r.wantErr {
			t.Logf("%s: %d events folded", r.label, n)
		}
		folded += n
	}
	if folded == 0 {
		t.Fatal("no run folded an iteration")
	}
}

// fuzzDeployments span KV pools from none per SGLang-PD instance
// (Llama-70B on two GPUs, whose 140 GB of weights fill one GPU's memory,
// so resolution rejects SGLang-PD there: noHalfPool) through a 41k-token
// pool to roomy ones.
var fuzzDeployments = []struct {
	dep        muxwise.Deployment
	noHalfPool bool
}{
	{muxwise.Deployment{Hardware: "A100", GPUs: 1, Model: "Llama-8B"}, false},
	{muxwise.Deployment{Hardware: "A100", GPUs: 2, Model: "Llama-70B"}, true},
	{muxwise.Deployment{Hardware: "H100", GPUs: 2, Model: "Llama-70B"}, true},
	{muxwise.Deployment{Hardware: "A100", GPUs: 4, Model: "Llama-70B"}, false},
	{muxwise.Deployment{Hardware: "H100", GPUs: 1, Model: "Llama-8B"}, false},
	{muxwise.Deployment{Hardware: "A100", GPUs: 8, Model: "Llama-70B"}, false},
}

// FuzzCoastMatchesHandler is TestCoastMatchesHandler over drawn inputs:
// the trace shape (ShareGPT, LooGLE, Conversation or Tool&Agent), its
// seed and arrival rate, the deployment and so the KV pool size, the
// engine and the cost model. A deployment that resolution rejects must be
// rejected with coasting on and off alike.
func FuzzCoastMatchesHandler(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint16(120), uint64(1))
	f.Add(uint8(2), uint8(1), uint8(3), uint8(1), uint16(40), uint64(7))
	f.Add(uint8(1), uint8(5), uint8(4), uint8(0), uint16(10), uint64(3))
	f.Fuzz(func(t *testing.T, shape, pool, engine, cost uint8, rate uint16, seed uint64) {
		d := fuzzDeployments[int(pool)%len(fuzzDeployments)]
		dep := d.dep
		eng := muxwise.Engines()[int(engine)%len(muxwise.Engines())]
		cm := muxwise.CostModels()[int(cost)%len(muxwise.CostModels())]
		perSec := 0.5 + float64(rate%400)/10
		r := oracleRun{
			label: fmt.Sprintf("shape %d, %s on %d %s, %s, %s, %.1f req/s, seed %d",
				shape%4, dep.Model, dep.GPUs, dep.Hardware, eng, cm, perSec, seed),
			trace: func() *muxwise.Trace {
				switch shape % 4 {
				case 0:
					return muxwise.ShareGPT(seed, 40).WithPoissonArrivals(seed, perSec)
				case 1:
					return muxwise.LooGLE(seed, 6).WithPoissonArrivals(seed, perSec/10)
				case 2:
					return muxwise.Conversation(seed, 8).WithPoissonArrivals(seed, perSec)
				}
				return muxwise.ToolAgent(seed, 8).WithPoissonArrivals(seed, perSec)
			},
			exp: func() *muxwise.Experiment {
				return muxwise.NewExperiment(muxwise.WithDeployment(dep), muxwise.WithEngine(eng), muxwise.WithCostModel(cm))
			},
			wantErr: d.noHalfPool && eng == "SGLang-PD",
		}
		coastMatches(t, r)
	})
}
