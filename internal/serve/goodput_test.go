package serve

import (
	"sync/atomic"
	"testing"

	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// countingTrace wraps smallTrace with a goroutine-safe probe counter.
func countingTrace(calls *atomic.Int64) func(rate float64) *workload.Trace {
	return func(rate float64) *workload.Trace {
		calls.Add(1)
		return smallTrace(20)
	}
}

func TestGoodputInfeasibleLo(t *testing.T) {
	var calls atomic.Int64
	g := Goodput(fakeFactory(10*sim.Millisecond, 200*sim.Millisecond), testCfg(),
		countingTrace(&calls), 0.5, 8)
	if g != 0 {
		t.Fatalf("goodput = %v, want 0 when the floor rate already fails", g)
	}
	if calls.Load() != 1 {
		t.Fatalf("infeasible lo should stop after one probe, ran %d", calls.Load())
	}
}

func TestGoodputFullyFeasibleHi(t *testing.T) {
	var calls atomic.Int64
	// 10ms gaps always meet the 50ms TBT SLO: every bisection step
	// passes, so the answer converges to the ceiling.
	g := Goodput(fakeFactory(10*sim.Millisecond, 10*sim.Millisecond), testCfg(),
		countingTrace(&calls), 1, 10)
	if g < 9.0 {
		t.Fatalf("goodput = %v, want ≈hi when every rate is feasible", g)
	}
	if calls.Load() > 8 {
		t.Fatalf("bisection ran %d probes, want ≤ 8 (1 floor + 7 steps)", calls.Load())
	}
}

func TestGoodputResolutionBound(t *testing.T) {
	// Engine passing exactly below rate 50 over [1, 100]: bisection must
	// land within the 2%-of-hi resolution of the true threshold.
	var current atomic.Int64 // rate × 1000
	f := func(env *Env) Engine {
		gap := 10 * sim.Millisecond
		if current.Load() >= 50_000 {
			gap = 200 * sim.Millisecond
		}
		return &fakeEngine{Base: NewBase("fake", nil), env: env, delay: 10 * sim.Millisecond, gap: gap}
	}
	mk := func(rate float64) *workload.Trace {
		current.Store(int64(rate * 1000))
		return smallTrace(20)
	}
	g := Goodput(f, testCfg(), mk, 1, 100)
	if g < 48 || g >= 50 {
		t.Fatalf("goodput = %v, want within [48, 50) (2%% of hi below the threshold)", g)
	}
}

func TestSweepParallelDeterministic(t *testing.T) {
	mk := func(rate float64) *workload.Trace { return smallTrace(20) }
	rates := []float64{1, 2, 3, 4, 5, 6}
	f := fakeFactory(10*sim.Millisecond, 10*sim.Millisecond)
	a := Sweep(f, testCfg(), mk, rates)
	b := Sweep(f, testCfg(), mk, rates)
	if len(a) != len(rates) || len(a) != len(b) {
		t.Fatalf("sweep lengths %d/%d, want %d", len(a), len(b), len(rates))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallel sweep not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Rate != rates[i] {
			t.Fatalf("sweep order broken: point %d has rate %v", i, a[i].Rate)
		}
	}
}

func TestSweepEarlyStopMatchesSequentialRule(t *testing.T) {
	// Failing engine: the ordered results must truncate two points after
	// the first miss, exactly like the sequential sweep did.
	mk := func(rate float64) *workload.Trace { return smallTrace(20) }
	pts := Sweep(fakeFactory(10*sim.Millisecond, 80*sim.Millisecond), testCfg(), mk,
		[]float64{1, 2, 3, 4, 5})
	if len(pts) != 2 {
		t.Fatalf("sweep kept %d points, want 2 (stop at second miss)", len(pts))
	}
}
