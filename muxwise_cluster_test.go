package muxwise_test

import (
	"testing"

	"muxwise"
)

// fleetShapes is the test fleet: three MuxWise replicas plus a two-GPU
// SGLang-PD prefill replica, on single-A100 Llama-8B deployments.
func fleetShapes() []muxwise.ReplicaSpec {
	return []muxwise.ReplicaSpec{
		{Engine: "MuxWise", Count: 3},
		{Engine: "SGLang-PD", Count: 1, GPUs: 2, Role: "prefill"},
	}
}

// fleetOf runs the given shapes on the test deployment; opts add to it.
func fleetOf(shapes []muxwise.ReplicaSpec, opts ...muxwise.Option) *muxwise.Experiment {
	return muxwise.NewExperiment(
		muxwise.WithDeployment(muxwise.Deployment{Hardware: "A100", GPUs: 1, Model: "Llama-8B"}),
		muxwise.WithFleet(shapes...),
	).With(opts...)
}

// fleet runs the test fleet behind router; opts add to it.
func fleet(router string, opts ...muxwise.Option) *muxwise.Experiment {
	return fleetOf(fleetShapes(), muxwise.WithRouter(router)).With(opts...)
}

func clusterTrace() *muxwise.Trace {
	conv := muxwise.Conversation(31, 20).WithProfileArrivals(31, muxwise.ConversationProfile(0.12))
	tool := muxwise.ToolAgent(32, 20).WithProfileArrivals(32, muxwise.ToolAgentProfile(0.12))
	return muxwise.MixTraces("mixed", conv, tool)
}

func TestServeClusterPolicies(t *testing.T) {
	tr := clusterTrace()
	for _, router := range muxwise.RouterPolicies() {
		rep, err := fleet(router).Run(tr)
		if err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		if rep.Fleet == nil || rep.Engine != nil {
			t.Fatalf("%s: fleet experiment should report Fleet detail only", router)
		}
		if rep.Fleet.Summary != rep.Summary {
			t.Fatalf("%s: Report.Summary should be the fleet summary", router)
		}
		if rep.Summary.Requests != tr.Len() {
			t.Fatalf("%s: fleet saw %d of %d requests", router, rep.Summary.Requests, tr.Len())
		}
		if len(rep.Fleet.Replicas) != 4 {
			t.Fatalf("%s: %d replicas, want 4", router, len(rep.Fleet.Replicas))
		}
	}
}

func TestServeClusterErrors(t *testing.T) {
	tr := muxwise.ShareGPT(1, 5).WithPoissonArrivals(1, 1)
	if _, err := fleet("random").Run(tr); err == nil {
		t.Error("unknown router should error")
	}
	bad := fleetShapes()
	bad[0].Engine = "vLLM"
	if _, err := fleetOf(bad).Run(tr); err == nil {
		t.Error("unknown engine should error")
	}
	bad = fleetShapes()
	bad[0].Role = "embedding"
	if _, err := fleetOf(bad).Run(tr); err == nil {
		t.Error("unknown role should error")
	}
}

func TestFleetLifecycleAPI(t *testing.T) {
	tr := clusterTrace()
	rep, err := fleet("prefix-affinity",
		muxwise.WithEvents(
			muxwise.FleetEvent{At: 30 * muxwise.Second, Kind: "fail", Replica: 0},
			muxwise.FleetEvent{At: 60 * muxwise.Second, Kind: "spawn",
				Spec: &muxwise.ReplicaSpec{Engine: "MuxWise", Hardware: "H100"}},
		),
		muxwise.WithColdStart(10*muxwise.Second),
	).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Fleet
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1", res.Failures)
	}
	if len(res.Replicas) != 5 {
		t.Fatalf("%d replicas, want 5 (4 initial + 1 spawned)", len(res.Replicas))
	}
	if res.Replicas[0].State.String() != "failed" {
		t.Fatalf("replica 0 state %v, want failed", res.Replicas[0].State)
	}
	spawned := res.Replicas[4]
	if spawned.Hardware != "H100-80G" || spawned.ReadyAt != 70*muxwise.Second {
		t.Fatalf("spawned replica hw %q ready at %v, want H100-80G at 70s", spawned.Hardware, spawned.ReadyAt)
	}
	if len(res.Epochs) < 3 || len(res.Events) == 0 {
		t.Fatalf("epochs %d, events %d; want the lifecycle reported", len(res.Epochs), len(res.Events))
	}
	if res.Summary.Finished != tr.Len() {
		t.Fatalf("finished %d of %d", res.Summary.Finished, tr.Len())
	}
}

func TestFleetLifecycleErrors(t *testing.T) {
	tr := muxwise.ShareGPT(1, 5).WithPoissonArrivals(1, 1)
	if _, err := fleet("round-robin", muxwise.WithAutoscaler("magic")).Run(tr); err == nil {
		t.Error("unknown autoscaler should error")
	}
	if _, err := fleet("round-robin", muxwise.WithEvents(muxwise.FleetEvent{Kind: "explode"})).Run(tr); err == nil {
		t.Error("unknown event kind should error")
	}
	bad := fleetShapes()
	bad[0].Hardware = "TPU"
	if _, err := fleetOf(bad, muxwise.WithRouter("round-robin")).Run(tr); err == nil {
		t.Error("unknown hardware should error")
	}
}

func TestClusterSweepAPI(t *testing.T) {
	mk := func(rate float64) *muxwise.Trace {
		return muxwise.ShareGPT(6, 60).WithPoissonArrivals(6, rate)
	}
	exp := fleet("least-tokens", muxwise.WithWorkload(mk))
	pts, err := exp.Sweep(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 || pts[0].Rate != 0.5 {
		t.Fatalf("cluster sweep points wrong: %+v", pts)
	}
	g, err := exp.Goodput(0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g <= 0 {
		t.Fatalf("fleet goodput %v, want > 0", g)
	}
	if g2, err := exp.Goodput(0.25, 1); err != nil || g2 != g {
		t.Fatalf("fleet goodput not deterministic: %v vs (%v, %v)", g, g2, err)
	}
}
