package main

import (
	"fmt"
	"math"

	"muxwise"
)

// workload is one benchmark input family. Probe i of a run takes variant
// i % len(variants) and trace seed k = i / len(variants), so a run is a
// variants × seeds grid filled in order and every prefix of it covers
// all variants.
type workload struct {
	name     string
	dep      muxwise.Deployment
	variants []string
	// build makes probe (seed, variant)'s trace and experiment.
	build func(seed uint64, variant int) (*muxwise.Trace, *muxwise.Experiment)
}

// probe is one Experiment.Run with its input, generated just before it.
type probe struct {
	label string
	trace *muxwise.Trace
	exp   *muxwise.Experiment
	dep   muxwise.Deployment
}

// probeSeed derives probe seed k of a run. Runs with different seeds
// draw disjoint probe seeds while k stays below 1000.
func probeSeed(seed uint64, k int) uint64 { return seed*1000 + uint64(k) + 1 }

// probe builds probe i of the run with the given seed.
func (w *workload) probe(seed uint64, i int) probe {
	nv := len(w.variants)
	ps := probeSeed(seed, i/nv)
	tr, exp := w.build(ps, i%nv)
	return probe{
		label: fmt.Sprintf("%s/%s/seed=%d", w.name, w.variants[i%nv], ps),
		trace: tr,
		exp:   exp,
		dep:   w.dep,
	}
}

// probesPerSecond sizes runs: each workload's probes take about 100 ms
// on a 2-core x86 host, so --seconds s measures about s seconds. The
// count depends on nothing but the arguments, so two commits always do
// identical work however fast they run.
const probesPerSecond = 10

// probes returns how many probes a run of the given length makes:
// seconds × probesPerSecond, rounded up to whole passes over the
// variants so every variant runs equally often.
func (w *workload) probes(seconds int) int {
	nv := len(w.variants)
	passes := int(math.Ceil(float64(seconds) * probesPerSecond / float64(nv)))
	return max(passes, 1) * nv
}

// workloads returns the four benchmark workloads in their fixed order.
// quick shrinks every probe's input for the smoke test; the benchmark
// itself always runs full size.
func workloads(quick bool) []*workload {
	size := func(full, small int) int {
		if quick {
			return small
		}
		return full
	}
	a100x1 := muxwise.Deployment{Hardware: "A100", GPUs: 1, Model: "Llama-8B"}

	shareReqs := size(1000, 150)
	rates := []float64{8, 12, 16, 20}
	share := &workload{
		name:     "sharegpt-engine",
		dep:      a100x1,
		variants: []string{"rate=8", "rate=12", "rate=16", "rate=20"},
		build: func(seed uint64, v int) (*muxwise.Trace, *muxwise.Experiment) {
			tr := muxwise.ShareGPT(seed, shareReqs).WithPoissonArrivals(seed, rates[v])
			return tr, muxwise.NewExperiment(muxwise.WithDeployment(a100x1), muxwise.WithEngine("MuxWise"))
		},
	}

	h100x2 := muxwise.Deployment{Hardware: "H100", GPUs: 2, Model: "Llama-8B"}
	loogleReqs := size(200, 16)
	loogleRates := []float64{0.5, 1, 2}
	loogle := &workload{
		name:     "loogle-roofline",
		dep:      h100x2,
		variants: []string{"rate=0.5", "rate=1", "rate=2"},
		build: func(seed uint64, v int) (*muxwise.Trace, *muxwise.Experiment) {
			tr := muxwise.LooGLE(seed, loogleReqs).WithPoissonArrivals(seed, loogleRates[v])
			return tr, muxwise.NewExperiment(muxwise.WithDeployment(h100x2),
				muxwise.WithEngine("MuxWise"), muxwise.WithCostModel(muxwise.CostRoofline))
		},
	}

	sessions := size(60, 8)
	scales := []float64{1, 2, 4}
	const coldStart = 15 * muxwise.Second
	fleet := &workload{
		name:     "bursty-fleet",
		dep:      a100x1,
		variants: []string{"scale=1", "scale=2", "scale=4"},
		build: func(seed uint64, v int) (*muxwise.Trace, *muxwise.Experiment) {
			tr := muxwise.MixedBursty(seed, sessions, scales[v])
			// A rolling drain of replica 0 at 40% of the arrival span,
			// behind a replacement spawned early enough to be ready by
			// then, as the frontier's drain-migrate condition does.
			drainAt := muxwise.Time(float64(span(tr)) * 0.4)
			spawnAt := max(drainAt-coldStart-2*muxwise.Second, 0)
			return tr, muxwise.NewExperiment(
				muxwise.WithDeployment(a100x1),
				muxwise.WithFleet(muxwise.ReplicaSpec{Engine: "MuxWise", Count: 3}),
				muxwise.WithAutoscaler("backlog"),
				muxwise.WithScaleBounds(2, 5),
				muxwise.WithColdStart(coldStart),
				muxwise.WithEvents(
					muxwise.FleetEvent{At: spawnAt, Kind: "spawn"},
					muxwise.FleetEvent{At: drainAt, Kind: "drain", Replica: 0},
				),
				muxwise.WithMigration(),
			)
		},
	}

	a100x8 := muxwise.Deployment{Hardware: "A100", GPUs: 8, Model: "Llama-70B"}
	convSessions := size(150, 24)
	engines := muxwise.Engines()
	conv := &workload{
		name:     "conversation-baselines",
		dep:      a100x8,
		variants: engines,
		build: func(seed uint64, v int) (*muxwise.Trace, *muxwise.Experiment) {
			tr := muxwise.Conversation(seed, convSessions).
				WithProfileArrivals(seed, muxwise.ConversationProfile(0.3))
			return tr, muxwise.NewExperiment(muxwise.WithDeployment(a100x8), muxwise.WithEngine(engines[v]))
		},
	}
	return []*workload{share, loogle, fleet, conv}
}

// workloadByName finds a workload by its fixed name.
func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads(false) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// span is the trace's arrival span: the offered window goodput is
// measured over.
func span(tr *muxwise.Trace) muxwise.Time {
	var s muxwise.Time
	for _, r := range tr.Requests {
		s = max(s, r.Arrival)
	}
	return s
}
