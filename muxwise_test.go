package muxwise_test

import (
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
