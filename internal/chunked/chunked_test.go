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
		Config: serve.Config{
			Spec: gpu.A100(), GPUs: 8, Arch: model.Llama70B(),
			SLO: metrics.SLO{TTFT: sim.Second, TBT: tbt},
		},
		Sim: sim.New(), Rec: metrics.NewRecorder(),
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

// budgetTable is BudgetFor's budget per catalog GPU and catalog model,
// at TP 1, 2, 4 and 8, each at TBT targets of 45, 50 and 100 ms.
var budgetTable = map[string][4][3]int{
	"A100-80G/Llama-8B":         {{256, 256, 512}, {512, 512, 1024}, {1024, 1024, 2048}, {2048, 2048, 4096}},
	"A100-80G/CodeLlama-34B":    {{64, 64, 128}, {64, 64, 256}, {128, 128, 512}, {256, 256, 1024}},
	"A100-80G/Llama-70B":        {{64, 64, 64}, {64, 64, 64}, {64, 64, 128}, {64, 64, 256}},
	"A100-80G/Qwen3-235B-A22B":  {{64, 64, 64}, {64, 64, 64}, {64, 64, 512}, {512, 512, 1024}},
	"H100-80G/Llama-8B":         {{1024, 1024, 2048}, {2048, 2048, 4096}, {4096, 4096, 8192}, {4096, 8192, 8192}},
	"H100-80G/CodeLlama-34B":    {{128, 128, 512}, {256, 256, 1024}, {512, 512, 2048}, {1024, 1024, 2048}},
	"H100-80G/Llama-70B":        {{64, 64, 128}, {64, 64, 256}, {128, 128, 512}, {256, 256, 1024}},
	"H100-80G/Qwen3-235B-A22B":  {{64, 64, 64}, {64, 64, 1024}, {1024, 1024, 2048}, {2048, 2048, 4096}},
	"H200-141G/Llama-8B":        {{1024, 1024, 2048}, {2048, 2048, 4096}, {4096, 4096, 8192}, {4096, 8192, 8192}},
	"H200-141G/CodeLlama-34B":   {{128, 128, 512}, {256, 256, 1024}, {512, 512, 2048}, {1024, 1024, 2048}},
	"H200-141G/Llama-70B":       {{64, 64, 128}, {64, 64, 256}, {128, 128, 512}, {256, 256, 1024}},
	"H200-141G/Qwen3-235B-A22B": {{64, 64, 512}, {512, 512, 1024}, {1024, 1024, 2048}, {2048, 2048, 4096}},
	"B200-180G/Llama-8B":        {{2048, 2048, 4096}, {4096, 4096, 8192}, {8192, 8192, 8192}, {8192, 8192, 8192}},
	"B200-180G/CodeLlama-34B":   {{256, 512, 1024}, {512, 1024, 2048}, {1024, 2048, 4096}, {2048, 2048, 4096}},
	"B200-180G/Llama-70B":       {{128, 128, 512}, {256, 256, 1024}, {512, 512, 2048}, {1024, 1024, 2048}},
	"B200-180G/Qwen3-235B-A22B": {{64, 64, 1024}, {1024, 1024, 2048}, {2048, 2048, 4096}, {4096, 4096, 8192}},
}

// TestBudgetTable pins the tuned budget of every catalog deployment, so a
// change to how BudgetFor prices its representative fused iteration
// shows as a moved budget.
func TestBudgetTable(t *testing.T) {
	tbts := [3]sim.Time{45 * sim.Millisecond, 50 * sim.Millisecond, 100 * sim.Millisecond}
	for _, spec := range gpu.Catalog() {
		for _, arch := range model.Catalog() {
			key := spec.Name + "/" + arch.Name
			want, ok := budgetTable[key]
			if !ok {
				t.Errorf("%s: no pinned budgets", key)
				continue
			}
			for i, tp := range []int{1, 2, 4, 8} {
				for j, tbt := range tbts {
					env := &serve.Env{Config: serve.Config{Spec: spec, GPUs: tp, Arch: arch, SLO: metrics.SLO{TBT: tbt}}}
					if got := BudgetFor(env); got != want[i][j] {
						t.Errorf("%s tp=%d TBT %v: budget %d, want %d", key, tp, tbt, got, want[i][j])
					}
				}
			}
		}
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
	env := &serve.Env{Config: cfg, Sim: s, Rec: rec}
	e := NewWithBudget(env, 512)
	tr := workload.Conversation(4, 40).WithPoissonArrivals(4, 0.5)
	for _, r := range tr.Requests {
		r := r
		rec.Arrive(r.ID, r.Arrival, r.InputTokens)
		s.AtFunc(r.Arrival, func(any) { e.Submit(r) }, nil)
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
