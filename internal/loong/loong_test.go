package loong

import (
	"testing"

	"muxwise/internal/gpu"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

func cfg(arch model.Arch, tbt sim.Time) serve.Config {
	return serve.Config{
		Spec: gpu.A100(), GPUs: 8, Arch: arch,
		SLO: metrics.SLO{TTFT: sim.Second, TBT: tbt},
	}
}

func TestServesTrace(t *testing.T) {
	tr := workload.ShareGPT(1, 120).WithPoissonArrivals(1, 1)
	res := serve.Run(New, cfg(model.Llama70B(), 100*sim.Millisecond), tr)
	if res.Summary.Finished != 120 {
		t.Fatalf("finished %d/120", res.Summary.Finished)
	}
}

func TestBaseTPFollowsModelSize(t *testing.T) {
	env := &serve.Env{
		Sim: sim.New(), Spec: gpu.A100(), GPUs: 8, Arch: model.Llama70B(),
		Rec: metrics.NewRecorder(), ReserveFrac: 0.1, MaxBatch: 256,
	}
	if e := New(env).(*Engine); e.baseTP != 4 {
		t.Fatalf("70B baseTP = %d, want 4", e.baseTP)
	}
	env.Arch = model.Llama8B()
	if e := New(env).(*Engine); e.baseTP != 2 {
		t.Fatalf("8B baseTP = %d, want 2", e.baseTP)
	}
}

// The paper's core criticism: LoongServe releases KV on scale-down, so a
// follow-up turn recomputes the entire context. The recorder's prefill
// token count therefore equals the full input sum, unlike cache-reusing
// engines.
func TestMultiTurnRecompute(t *testing.T) {
	tr := workload.Conversation(2, 40).WithPoissonArrivals(2, 0.3)
	var wantPrefill int64
	for _, r := range tr.Requests {
		wantPrefill += int64(r.InputTokens)
	}
	res := serve.Run(New, cfg(model.Llama70B(), 100*sim.Millisecond), tr)
	if res.Summary.PrefillTokens != wantPrefill {
		t.Fatalf("prefill tokens = %d, want full recompute %d", res.Summary.PrefillTokens, wantPrefill)
	}
}

// Elastic scale-up: long-input requests grab multi-GPU prefill groups
// wider than the base TP when GPUs are free.
func TestElasticPrefillGroups(t *testing.T) {
	env := &serve.Env{
		Sim: sim.New(), Spec: gpu.A100(), GPUs: 8, Arch: model.Llama70B(),
		SLO: metrics.SLO{TTFT: sim.Second, TBT: 100 * sim.Millisecond},
		Rec: metrics.NewRecorder(), ReserveFrac: 0.1, MaxBatch: 256,
	}
	e := New(env).(*Engine)
	r := &workload.Request{ID: 0, InputTokens: 60000, OutputTokens: 4}
	env.Rec.Arrive(0, 0, r.InputTokens)
	env.Sim.At(0, func() { e.Submit(r) })
	env.Sim.Run()
	maxTP := 0
	for _, d := range e.Devices() {
		if d.TP > maxTP {
			maxTP = d.TP
		}
	}
	if maxTP <= e.baseTP {
		t.Fatalf("max group width %d never exceeded base TP %d for a 60K prefill", maxTP, e.baseTP)
	}
	sum := env.Rec.Summarize("loong", env.Sim.Now())
	if sum.Finished != 1 {
		t.Fatalf("finished %d/1", sum.Finished)
	}
}

func TestGPUAccountingInvariant(t *testing.T) {
	env := &serve.Env{
		Sim: sim.New(), Spec: gpu.A100(), GPUs: 8, Arch: model.Llama8B(),
		SLO: metrics.SLO{TTFT: sim.Second, TBT: 50 * sim.Millisecond},
		Rec: metrics.NewRecorder(), ReserveFrac: 0.1, MaxBatch: 256,
	}
	e := New(env).(*Engine)
	tr := workload.ToolAgent(5, 40).WithPoissonArrivals(5, 2)
	for _, r := range tr.Requests {
		r := r
		env.Rec.Arrive(r.ID, r.Arrival, r.InputTokens)
		env.Sim.At(r.Arrival, func() {
			e.Submit(r)
			if e.free < 0 || e.free+e.decodeGs > e.total {
				t.Fatalf("GPU accounting broken: free=%d decode=%d total=%d", e.free, e.decodeGs, e.total)
			}
		})
	}
	env.Sim.Run()
	sum := env.Rec.Summarize("loong", env.Sim.Now())
	if sum.Finished != sum.Requests {
		t.Fatalf("finished %d/%d", sum.Finished, sum.Requests)
	}
}
