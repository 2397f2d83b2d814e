package core

import (
	"testing"

	"muxwise/internal/estimator"
	"muxwise/internal/gpu"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// MuxWise must generalise to newer GPUs and the MoE model (§4.2.4).
func TestQwenOnH200(t *testing.T) {
	cfg := serve.Config{
		Spec: gpu.H200(), GPUs: 8, Arch: model.Qwen235B(),
		SLO: metrics.SLO{TTFT: sim.Second, TBT: 100 * sim.Millisecond},
	}
	tr := workload.Conversation(31, 60).WithPoissonArrivals(31, 0.5)
	res := serve.Run(New, cfg, tr)
	if res.Summary.Unstable {
		t.Fatalf("unstable: finished %d/%d", res.Summary.Finished, res.Summary.Requests)
	}
	if att := res.Rec.TBTAttainment(cfg.SLO.TBT); att < 0.99 {
		t.Fatalf("Qwen-235B TBT attainment %.3f", att)
	}
}

func TestLlama70BOnH100(t *testing.T) {
	cfg := serve.Config{
		Spec: gpu.H100(), GPUs: 8, Arch: model.Llama70B(),
		SLO: metrics.SLO{TTFT: sim.Second, TBT: 100 * sim.Millisecond},
	}
	tr := workload.ToolAgent(32, 60).WithPoissonArrivals(32, 0.6)
	res := serve.Run(New, cfg, tr)
	if res.Summary.Unstable {
		t.Fatalf("unstable on H100")
	}
	// H100's 7 partition configurations must be addressable.
	if got := len(cfg.Spec.PartitionSizes()); got != 7 {
		t.Fatalf("H100 configs = %d, want 7", got)
	}
}

// The decode batch must never exceed MaxBatch even under floods.
func TestMaxBatchHonored(t *testing.T) {
	cfg := serve.Config{
		Spec: gpu.A100(), GPUs: 8, Arch: model.Llama8B(),
		SLO:      metrics.SLO{TTFT: sim.Second, TBT: 50 * sim.Millisecond},
		MaxBatch: 16,
	}
	s := sim.New()
	rec := metrics.NewRecorder()
	env := &serve.Env{
		Sim: s, Spec: cfg.Spec, GPUs: cfg.GPUs, Arch: cfg.Arch,
		SLO: cfg.SLO, Rec: rec, ReserveFrac: 0.1, MaxBatch: cfg.MaxBatch,
	}
	e := NewWithOptions(env, DefaultOptions())
	tr := workload.ShareGPT(33, 100).WithPoissonArrivals(33, 100) // flood
	for _, r := range tr.Requests {
		r := r
		rec.Arrive(r.ID, r.Arrival, r.InputTokens)
		s.At(r.Arrival, func() {
			e.Submit(r)
			if got := e.inflight(); got > cfg.MaxBatch {
				t.Fatalf("inflight %d exceeds MaxBatch %d", got, cfg.MaxBatch)
			}
		})
	}
	s.Run()
	sum := rec.Summarize("mux", s.Now())
	if sum.Finished != sum.Requests {
		t.Fatalf("finished %d/%d", sum.Finished, sum.Requests)
	}
}

// Full-cache-hit follow-up turns still prefill at least one token and
// must complete without corrupting pool accounting.
func TestFullCacheHitTurn(t *testing.T) {
	cfg := cfg8B()
	s := sim.New()
	rec := metrics.NewRecorder()
	env := &serve.Env{
		Sim: s, Spec: cfg.Spec, GPUs: cfg.GPUs, Arch: cfg.Arch,
		SLO: cfg.SLO, Rec: rec, ReserveFrac: 0.1, MaxBatch: 256,
	}
	e := NewWithOptions(env, DefaultOptions())
	first := &workload.Request{
		ID: 0, Session: 1, Turn: 0, InputTokens: 512, OutputTokens: 4,
		Pages: pages(9, 32), AllPages: pages(9, 32),
	}
	// Second turn covers exactly the same pages (output folded in).
	second := &workload.Request{
		ID: 1, Session: 1, Turn: 1, Arrival: 10 * sim.Second,
		InputTokens: 512, ReusedTokens: 512, OutputTokens: 4,
		Pages: pages(9, 32), AllPages: pages(9, 32),
	}
	for _, r := range []*workload.Request{first, second} {
		r := r
		rec.Arrive(r.ID, r.Arrival, r.InputTokens)
		s.At(r.Arrival, func() { e.Submit(r) })
	}
	s.Run()
	sum := rec.Summarize("mux", s.Now())
	if sum.Finished != 2 {
		t.Fatalf("finished %d/2", sum.Finished)
	}
	if free := e.CachePools()[0].Free(); free < 0 {
		t.Fatalf("pool accounting corrupted: free = %d", free)
	}
	if e.CachePools()[0].Reserved() != 0 {
		t.Fatalf("leaked reservations: %d", e.CachePools()[0].Reserved())
	}
}

// Requests with a single output token finish at prefill completion.
func TestSingleTokenOutput(t *testing.T) {
	tr := &workload.Trace{Name: "one-token"}
	tr.Requests = append(tr.Requests, &workload.Request{
		ID: 0, InputTokens: 256, OutputTokens: 1,
		Pages: pages(5, 16), AllPages: pages(5, 17),
	})
	res := serve.Run(New, cfg8B(), tr)
	if res.Summary.Finished != 1 {
		t.Fatalf("finished %d/1", res.Summary.Finished)
	}
	if res.Summary.TBT.N != 0 {
		t.Fatalf("TBT samples = %d for a 1-token request, want 0", res.Summary.TBT.N)
	}
}

// Zero-arrival burst: all requests at t=0 must still drain.
func TestSimultaneousBurst(t *testing.T) {
	tr := &workload.Trace{Name: "burst"}
	for i := 0; i < 40; i++ {
		tr.Requests = append(tr.Requests, &workload.Request{
			ID: i, Session: i, InputTokens: 800, OutputTokens: 30,
			Pages:    pages(uint64(100+i), 50),
			AllPages: pages(uint64(100+i), 52),
		})
	}
	res := serve.Run(New, cfg8B(), tr)
	if res.Summary.Finished != 40 {
		t.Fatalf("finished %d/40", res.Summary.Finished)
	}
}

// Regression: a prefill batch that completes its in-flight layers while
// preempted must leave the queue — a finished zombie re-entering the
// active slot wedged the prefill stream permanently under high-rate
// multi-turn load (seed 8201 at 8 req/s reproduced it).
func TestPreemptedJobCompletionNoWedge(t *testing.T) {
	tr := workload.ToolAgent(201, 700).WithPoissonArrivals(8201, 8)
	res := serve.Run(New, cfg8B(), tr)
	if res.Summary.Finished != res.Summary.Requests {
		t.Fatalf("finished %d/%d — prefill stream wedged",
			res.Summary.Finished, res.Summary.Requests)
	}
}

// The contention guard must receive runtime observations during serving.
func TestGuardRuntimeRefinement(t *testing.T) {
	cfg := cfg8B()
	s := sim.New()
	rec := metrics.NewRecorder()
	env := &serve.Env{
		Sim: s, Spec: cfg.Spec, GPUs: cfg.GPUs, Arch: cfg.Arch,
		SLO: cfg.SLO, Rec: rec, ReserveFrac: 0.1, MaxBatch: 256,
	}
	e := NewWithOptions(env, DefaultOptions())
	fitted := e.est.(*estimator.Estimator)
	before := fitted.Guard().Cells()
	tr := workload.ToolAgent(34, 30).WithPoissonArrivals(34, 3)
	for _, r := range tr.Requests {
		r := r
		rec.Arrive(r.ID, r.Arrival, r.InputTokens)
		s.At(r.Arrival, func() { e.Submit(r) })
	}
	s.Run()
	// Cells can only grow (Observe adds unseen cells).
	if fitted.Guard().Cells() < before {
		t.Fatal("guard lost cells during serving")
	}
}
