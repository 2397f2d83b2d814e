package muxwise_test

import (
	"errors"
	"testing"

	"muxwise"
)

// TestAdaptiveTTFTBeatsLeastTokensGoodput is the headline result of the
// plugin seam: on the Fig. 13 bursty Conversation profile, the learned
// adaptive-ttft router sustains a higher burst scale than static
// least-tokens on a heterogeneous A100+H100 fleet. Least-tokens balances
// outstanding work evenly — blind to both the sessions' KV locality and
// the H100's speed — while adaptive-ttft keeps sessions on their cache
// and shifts cold traffic toward the replica whose observed TTFT is
// lower, so it rides the bursts the static policy drowns in.
func TestAdaptiveTTFTBeatsLeastTokensGoodput(t *testing.T) {
	base := muxwise.NewExperiment(
		muxwise.WithDeployment(muxwise.Deployment{
			Hardware: "A100", GPUs: 1, Model: "Llama-8B",
			SLO: muxwise.SLO{TTFT: muxwise.Second, TBT: 50 * muxwise.Millisecond},
		}),
		muxwise.WithFleet(
			muxwise.ReplicaSpec{Engine: "MuxWise", Count: 1, Hardware: "A100"},
			muxwise.ReplicaSpec{Engine: "MuxWise", Count: 1, Hardware: "H100"},
		),
		muxwise.WithWorkload(func(scale float64) *muxwise.Trace {
			return muxwise.Conversation(17, 80).
				WithProfileArrivals(17, muxwise.ConversationProfile(scale))
		}),
	)
	adaptive, err := base.With(muxwise.WithRouter("adaptive-ttft")).Goodput(2, 16)
	if err != nil {
		t.Fatalf("adaptive-ttft goodput: %v", err)
	}
	static, err := base.With(muxwise.WithRouter("least-tokens")).Goodput(2, 16)
	if err != nil {
		t.Fatalf("least-tokens goodput: %v", err)
	}
	if adaptive <= static {
		t.Fatalf("adaptive-ttft goodput %.3f should beat least-tokens %.3f on the bursty Conversation profile",
			adaptive, static)
	}
	t.Logf("bursty Conversation goodput scale: adaptive-ttft %.2f vs least-tokens %.2f (%.2fx)",
		adaptive, static, adaptive/static)
}

func TestGoodputRangeValidation(t *testing.T) {
	mk := func(rate float64) *muxwise.Trace {
		return muxwise.ShareGPT(5, 30).WithPoissonArrivals(5, rate)
	}
	engine := muxwise.NewExperiment(muxwise.WithDeployment(dep8B()), muxwise.WithEngine("MuxWise"),
		muxwise.WithWorkload(mk))
	// Invalid ranges error out instead of silently returning 0.
	if _, err := engine.Goodput(2, 1); err == nil {
		t.Error("lo > hi should error")
	}
	if _, err := engine.Goodput(-1, 1); err == nil {
		t.Error("negative lo should error")
	}
	cluster := fleet("least-tokens", muxwise.WithWorkload(mk))
	if _, err := cluster.Goodput(3, 2); err == nil {
		t.Error("cluster lo > hi should error")
	}

	// A range that never meets the SLO is not an error-free zero: it is
	// ErrNoFeasibleRate, distinguishable with errors.Is.
	impossible := muxwise.WithSLO(muxwise.SLO{TTFT: muxwise.Second, TBT: muxwise.Time(1)})
	g, err := engine.With(impossible).Goodput(0.5, 2)
	if !errors.Is(err, muxwise.ErrNoFeasibleRate) {
		t.Errorf("infeasible range: got (%v, %v), want ErrNoFeasibleRate", g, err)
	}
	g, err = cluster.With(impossible).Goodput(0.5, 2)
	if !errors.Is(err, muxwise.ErrNoFeasibleRate) {
		t.Errorf("infeasible cluster range: got (%v, %v), want ErrNoFeasibleRate", g, err)
	}
}

func TestExperimentOptionErrors(t *testing.T) {
	dep := muxwise.WithDeployment(dep8B())
	shape := muxwise.ReplicaSpec{Engine: "MuxWise"}
	tr := muxwise.ShareGPT(1, 3).WithPoissonArrivals(1, 1)
	cases := []struct {
		name string
		exp  *muxwise.Experiment
	}{
		{"engine and fleet", muxwise.NewExperiment(dep, muxwise.WithEngine("MuxWise"), muxwise.WithFleet(shape))},
		{"neither engine nor fleet", muxwise.NewExperiment(dep)},
		{"no deployment", muxwise.NewExperiment(muxwise.WithEngine("MuxWise"))},
		{"router without fleet", muxwise.NewExperiment(dep, muxwise.WithEngine("MuxWise"), muxwise.WithRouter("round-robin"))},
		{"autoscaler without fleet", muxwise.NewExperiment(dep, muxwise.WithEngine("MuxWise"), muxwise.WithAutoscaler("backlog"))},
		{"empty engine", muxwise.NewExperiment(dep, muxwise.WithEngine(""))},
		{"bad epoch width", muxwise.NewExperiment(dep, muxwise.WithEngine("MuxWise"), muxwise.WithEpochs(0))},
		// A non-positive cold start is an error, not the 15 s default.
		{"zero cold start", muxwise.NewExperiment(dep, muxwise.WithFleet(shape), muxwise.WithColdStart(0))},
		{"negative cold start", muxwise.NewExperiment(dep, muxwise.WithFleet(shape), muxwise.WithColdStart(-5*muxwise.Second))},
		{"unknown router", muxwise.NewExperiment(dep, muxwise.WithFleet(shape), muxwise.WithRouter("nope"))},
	}
	for _, c := range cases {
		if _, err := c.exp.Run(tr); err == nil {
			t.Errorf("%s: Run should error", c.name)
		}
	}
	// Sweep and Goodput without a workload are errors too.
	ok := muxwise.NewExperiment(dep, muxwise.WithEngine("MuxWise"))
	if _, err := ok.Sweep(1); err == nil {
		t.Error("Sweep without WithWorkload should error")
	}
	if _, err := ok.Goodput(0.5, 1); err == nil {
		t.Error("Goodput without WithWorkload should error")
	}
}

// TestExperimentRejectsHostileGPUCounts: a GPU count past MaxGPUs is a
// Run error for a single engine, a fleet's deployment and a replica
// shape. Unbounded, HBM capacity × GPUs overflowed int64 and every
// request was reported unfinished with no error.
func TestExperimentRejectsHostileGPUCounts(t *testing.T) {
	const hostile = 1_000_000_000
	big := dep8B()
	big.GPUs = hostile
	tr := muxwise.ShareGPT(1, 3).WithPoissonArrivals(1, 1)
	cases := []struct {
		name string
		exp  *muxwise.Experiment
	}{
		{"engine deployment", muxwise.NewExperiment(muxwise.WithDeployment(big), muxwise.WithEngine("MuxWise"))},
		{"fleet deployment", muxwise.NewExperiment(muxwise.WithDeployment(big), muxwise.WithFleet(muxwise.ReplicaSpec{Engine: "MuxWise"}))},
		{"replica shape", muxwise.NewExperiment(muxwise.WithDeployment(dep8B()),
			muxwise.WithFleet(muxwise.ReplicaSpec{Engine: "MuxWise", GPUs: hostile}))},
	}
	for _, c := range cases {
		if _, err := c.exp.Run(tr); err == nil {
			t.Errorf("%s: %d GPUs should be a Run error (limit %d)", c.name, hostile, muxwise.MaxGPUs)
		}
	}
}

// Regression: WithEpochs built one window bound per width up to the
// makespan with no limit, so a 1 ns width on a seconds-long run asked
// for billions of bounds. A width just past MaxWindows is now a Run
// error, on engines and fleets alike.
func TestExperimentEpochWindowLimit(t *testing.T) {
	tr := muxwise.ShareGPT(1, 3).WithPoissonArrivals(1, 1)
	for _, deploy := range []muxwise.Option{
		muxwise.WithEngine("MuxWise"),
		muxwise.WithFleet(muxwise.ReplicaSpec{Engine: "MuxWise"}),
	} {
		rep, err := muxwise.NewExperiment(muxwise.WithDeployment(dep8B()), deploy).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		width := (rep.Summary.Makespan - 1) / muxwise.MaxWindows
		if _, err := muxwise.NewExperiment(muxwise.WithDeployment(dep8B()), deploy, muxwise.WithEpochs(width)).Run(tr); err == nil {
			t.Errorf("a %v width over a %v run should exceed %d windows", width, rep.Summary.Makespan, muxwise.MaxWindows)
		}
	}
}

func TestExperimentEpochWindows(t *testing.T) {
	trace := muxwise.ShareGPT(4, 40).WithPoissonArrivals(4, 2)
	rep, err := muxwise.NewExperiment(
		muxwise.WithDeployment(dep8B()),
		muxwise.WithEngine("MuxWise"),
		muxwise.WithEpochs(5*muxwise.Second),
	).Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) < 2 {
		t.Fatalf("expected multiple 5s windows over a ~20s run, got %d", len(rep.Windows))
	}
	arrivals := 0
	for i, w := range rep.Windows {
		arrivals += w.Arrivals
		if i > 0 && w.From != rep.Windows[i-1].To {
			t.Fatalf("window %d not contiguous: [%v, %v] after [%v, %v]",
				i, w.From, w.To, rep.Windows[i-1].From, rep.Windows[i-1].To)
		}
	}
	if arrivals != rep.Summary.Requests {
		t.Fatalf("windows cover %d arrivals of %d", arrivals, rep.Summary.Requests)
	}
	if last := rep.Windows[len(rep.Windows)-1].To; last != rep.Summary.Makespan {
		t.Fatalf("windows end at %v, makespan %v", last, rep.Summary.Makespan)
	}
}
