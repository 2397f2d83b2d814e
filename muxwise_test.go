package muxwise_test

import (
	"slices"
	"strings"
	"testing"

	"muxwise"
)

func dep8B() muxwise.Deployment {
	return muxwise.Deployment{Hardware: "A100", GPUs: 8, Model: "Llama-8B"}
}

// serve runs one engine on the deployment.
func serve(engine string, dep muxwise.Deployment, trace *muxwise.Trace) (*muxwise.Report, error) {
	return muxwise.NewExperiment(muxwise.WithDeployment(dep), muxwise.WithEngine(engine)).Run(trace)
}

func TestServeQuickstart(t *testing.T) {
	trace := muxwise.ShareGPT(1, 200).WithPoissonArrivals(1, 5)
	rep, err := serve("MuxWise", dep8B(), trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine == nil || rep.Fleet != nil {
		t.Fatal("engine experiment should report Engine detail only")
	}
	if rep.Engine.Summary != rep.Summary {
		t.Fatal("Report.Summary should be the engine's summary")
	}
	if rep.Summary.Finished != 200 {
		t.Fatalf("finished %d/200", rep.Summary.Finished)
	}
	if rep.Summary.TTFT.P99 <= 0 {
		t.Fatal("no TTFT recorded")
	}
}

func TestServeAllEngines(t *testing.T) {
	trace := muxwise.ShareGPT(2, 60).WithPoissonArrivals(2, 2)
	for _, name := range muxwise.Engines() {
		rep, err := serve(name, dep8B(), trace)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Summary.Finished == 0 {
			t.Errorf("%s finished nothing", name)
		}
	}
}

// TestEnginesOrder pins the engine table: every engine the paper
// compares, in this order. The order is observable — benchmark
// workloads and goldens iterate Engines() — so a reorder must be
// deliberate.
func TestEnginesOrder(t *testing.T) {
	want := []string{"MuxWise", "Chunked", "NanoFlow", "LoongServe", "SGLang-PD", "WindServe", "Temporal"}
	if got := muxwise.Engines(); !slices.Equal(got, want) {
		t.Fatalf("Engines() = %q, want %q", got, want)
	}
}

func TestServeUnknowns(t *testing.T) {
	trace := muxwise.ShareGPT(3, 5).WithPoissonArrivals(3, 1)
	if _, err := serve("vLLM", dep8B(), trace); err == nil {
		t.Error("unknown engine should error")
	}
	if _, err := serve("MuxWise", muxwise.Deployment{Hardware: "TPUv5", Model: "Llama-8B"}, trace); err == nil {
		t.Error("unknown hardware should error")
	}
	if _, err := serve("MuxWise", muxwise.Deployment{Hardware: "A100", Model: "GPT-5"}, trace); err == nil {
		t.Error("unknown model should error")
	}
}

// Llama-70B's weights fill one A100 and leave no KV pool. Resolving that
// deployment, or a fleet with such a replica or spawn shape, is an error
// rather than a run in which no request finishes.
func TestModelThatDoesNotFitIsRejected(t *testing.T) {
	trace := muxwise.Conversation(4, 5).WithPoissonArrivals(4, 1)
	roomy := muxwise.Deployment{Hardware: "A100", Model: "Llama-70B"}
	tight := roomy
	tight.GPUs = 1
	oneGPU := &muxwise.ReplicaSpec{Engine: "MuxWise", GPUs: 1}
	for name, opts := range map[string][]muxwise.Option{
		"engine": {muxwise.WithDeployment(tight), muxwise.WithEngine("Chunked")},
		"fleet":  {muxwise.WithDeployment(tight), muxwise.WithFleet(muxwise.ReplicaSpec{Engine: "MuxWise", GPUs: 8})},
		"replica": {muxwise.WithDeployment(roomy),
			muxwise.WithFleet(muxwise.ReplicaSpec{Engine: "MuxWise"}, *oneGPU)},
		"spawn": {muxwise.WithDeployment(roomy), muxwise.WithFleet(muxwise.ReplicaSpec{Engine: "MuxWise"}),
			muxwise.WithEvents(muxwise.FleetEvent{At: muxwise.Second, Kind: "spawn", Spec: oneGPU})},
	} {
		_, err := muxwise.NewExperiment(opts...).Run(trace)
		if err == nil || !strings.Contains(err.Error(), "does not fit 1 A100") {
			t.Errorf("%s: Run error = %v, want Llama-70B rejected on 1 A100", name, err)
		}
	}
}

// SGLang-PD splits its GPUs into a prefill and a decode instance, each
// with its own KV pool. Llama-70B fits two A100s as one group, but not
// the one-A100 halves SGLang-PD makes of them: resolving SGLang-PD there,
// alone or as a fleet replica, is an error, while an engine that runs the
// group whole still runs.
func TestSplitInstancesMustFit(t *testing.T) {
	trace := muxwise.ShareGPT(3, 10).WithPoissonArrivals(3, 2)
	two := muxwise.Deployment{Hardware: "A100", GPUs: 2, Model: "Llama-70B"}
	for name, opts := range map[string][]muxwise.Option{
		"engine":  {muxwise.WithDeployment(two), muxwise.WithEngine("SGLang-PD")},
		"replica": {muxwise.WithDeployment(two), muxwise.WithFleet(muxwise.ReplicaSpec{Engine: "SGLang-PD"})},
	} {
		_, err := muxwise.NewExperiment(opts...).Run(trace)
		if err == nil || !strings.Contains(err.Error(), "1-GPU instances SGLang-PD splits 2 A100") {
			t.Errorf("%s: Run error = %v, want Llama-70B rejected on SGLang-PD's 1-A100 instances", name, err)
		}
	}
	rep, err := muxwise.NewExperiment(muxwise.WithDeployment(two), muxwise.WithEngine("MuxWise")).Run(trace)
	if err != nil {
		t.Fatalf("MuxWise on 2 A100s: %v", err)
	}
	if rep.Summary.Requests == 0 {
		t.Fatal("MuxWise on 2 A100s recorded no requests")
	}
}

func TestDefaultSLOs(t *testing.T) {
	// Zero SLO fields resolve to the paper's per-model defaults; the run
	// should proceed without error.
	trace := muxwise.Conversation(4, 20).WithPoissonArrivals(4, 1)
	rep, err := serve("MuxWise", muxwise.Deployment{Hardware: "A100", Model: "Llama-70B"}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Requests == 0 {
		t.Fatal("no requests recorded")
	}
	if rep.SLO.TBT != 100*muxwise.Millisecond || rep.SLO.TTFT != muxwise.Second {
		t.Fatalf("resolved SLO %+v, want the large-model default (TTFT 1 s, TBT 100 ms)", rep.SLO)
	}
}

func TestGoodputAPI(t *testing.T) {
	mk := func(rate float64) *muxwise.Trace {
		return muxwise.ShareGPT(5, 120).WithPoissonArrivals(5, rate)
	}
	exp := muxwise.NewExperiment(muxwise.WithDeployment(dep8B()), muxwise.WithWorkload(mk))
	g, err := exp.With(muxwise.WithEngine("MuxWise")).Goodput(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g < 0.5 {
		t.Fatalf("goodput %v below the probe floor", g)
	}
	pts, err := exp.With(muxwise.WithEngine("Chunked")).Sweep(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("empty sweep")
	}
}
