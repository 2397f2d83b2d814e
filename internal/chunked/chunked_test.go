package chunked

import (
	"testing"

	"muxwise/internal/gpu"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

func env70B(tbt sim.Time) *serve.Env {
	return &serve.Env{
		Sim: sim.New(), Spec: gpu.A100(), GPUs: 8, Arch: model.Llama70B(),
		SLO:         metrics.SLO{TTFT: sim.Second, TBT: tbt},
		Rec:         metrics.NewRecorder(),
		ReserveFrac: 0.1, MaxBatch: 256,
	}
}

// The token budget tuned for a 100 ms TBT SLO on Llama-70B must land
// near 256 (§2.3.2 / Fig. 6a), and a loose SLO admits far larger budgets.
func TestBudgetTuning(t *testing.T) {
	strict := BudgetFor(env70B(100 * sim.Millisecond))
	if strict < 128 || strict > 512 {
		t.Fatalf("strict budget = %d, want ≈256", strict)
	}
	loose := BudgetFor(env70B(600 * sim.Millisecond))
	if loose < 4096 {
		t.Fatalf("loose budget = %d, want ≥4096", loose)
	}
	if loose <= strict {
		t.Fatal("looser SLO must admit a larger budget")
	}
}

func cfg70B() serve.Config {
	return serve.Config{
		Spec: gpu.A100(), GPUs: 8, Arch: model.Llama70B(),
		SLO: metrics.SLO{TTFT: sim.Second, TBT: 100 * sim.Millisecond},
	}
}

func TestServesTrace(t *testing.T) {
	tr := workload.ShareGPT(1, 100).WithPoissonArrivals(1, 1)
	res := serve.Run(New, cfg70B(), tr)
	if res.Summary.Finished != 100 {
		t.Fatalf("finished %d/100", res.Summary.Finished)
	}
	if res.Summary.TTFT.Avg <= 0 {
		t.Fatal("no TTFT recorded")
	}
}

// Chunking splits long prefills: TTFT for a long input spans several
// iterations, and every token gap stays ≈ one fused-iteration latency.
func TestChunkingBoundsTBT(t *testing.T) {
	tr := workload.LooGLE(2, 20).WithPoissonArrivals(2, 0.1)
	res := serve.Run(New, cfg70B(), tr)
	if res.Summary.Finished != 20 {
		t.Fatalf("finished %d/20", res.Summary.Finished)
	}
	// Without reuse pressure, short-context decode gaps obey the budget
	// target: they must sit well below an unchunked 30K prefill (~4s).
	if res.Summary.TBT.P99 > 0.5 {
		t.Fatalf("p99 TBT %.3fs — chunking is not bounding iteration time", res.Summary.TBT.P99)
	}
}

// The §2.3.2 failure mode: long *reused* context inflates every fused
// iteration (KV re-reads), so TBT attainment collapses versus a
// no-reuse workload at equal rate.
func TestReusedContextHurtsTBT(t *testing.T) {
	run := func(tr *workload.Trace) float64 {
		res := serve.Run(New, cfg70B(), tr)
		return res.Rec.TBTAttainment(100 * sim.Millisecond)
	}
	fresh := run(workload.ShareGPT(3, 150).WithPoissonArrivals(3, 1.5))
	multi := run(workload.ToolAgent(3, 120).WithPoissonArrivals(3, 0.6))
	if !(multi < fresh) {
		t.Fatalf("reused context should hurt attainment: fresh %.3f vs multi-turn %.3f", fresh, multi)
	}
}

func TestPrefixCacheAcrossTurns(t *testing.T) {
	cfg := cfg70B()
	s := sim.New()
	rec := metrics.NewRecorder()
	env := &serve.Env{
		Sim: s, Spec: cfg.Spec, GPUs: cfg.GPUs, Arch: cfg.Arch,
		SLO: cfg.SLO, Rec: rec, ReserveFrac: 0.1, MaxBatch: 256,
	}
	e := NewWithBudget(env, 512)
	tr := workload.Conversation(4, 40).WithPoissonArrivals(4, 0.5)
	for _, r := range tr.Requests {
		r := r
		rec.Arrive(r.ID, r.Arrival, r.InputTokens)
		s.At(r.Arrival, func() { e.Submit(r) })
	}
	s.Run()
	if hr := e.CachePools()[0].Stats().HitRate(); hr < 0.2 {
		t.Fatalf("radix hit rate %.3f, want ≥0.2 on multi-turn trace", hr)
	}
}

func TestNameAndOverride(t *testing.T) {
	e := NewWithBudget(env70B(100*sim.Millisecond), 256)
	if e.Name() != "Chunked" {
		t.Fatalf("Name = %q", e.Name())
	}
	e.SetName("Custom")
	if e.Name() != "Custom" {
		t.Fatalf("Name override = %q", e.Name())
	}
	if e.Budget() != 256 {
		t.Fatalf("Budget = %d", e.Budget())
	}
}
