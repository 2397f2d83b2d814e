package core

import (
	"testing"

	"muxwise/internal/estimator"
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
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

// The decode batch must never exceed serve.MaxBatch even under floods,
// and a flood well above the cap must actually reach it.
func TestMaxBatchHonored(t *testing.T) {
	cfg := serve.Config{
		Spec: gpu.A100(), GPUs: 8, Arch: model.Llama8B(),
		SLO: metrics.SLO{TTFT: sim.Second, TBT: 50 * sim.Millisecond},
	}
	s := sim.New()
	rec := metrics.NewRecorder()
	env := &serve.Env{Config: cfg, Sim: s, Rec: rec}
	e := NewWithOptions(env, DefaultOptions())
	tr := workload.ShareGPT(33, 1000).WithPoissonArrivals(33, 1000) // flood
	peak := 0
	for _, r := range tr.Requests {
		r := r
		rec.Arrive(r.ID, r.Arrival, r.InputTokens)
		s.AtFunc(r.Arrival, func(any) {
			e.Submit(r)
			got := e.inflight()
			if got > serve.MaxBatch {
				t.Fatalf("inflight %d exceeds MaxBatch %d", got, serve.MaxBatch)
			}
			peak = max(peak, got)
		}, nil)
	}
	s.Run()
	if peak != serve.MaxBatch {
		t.Fatalf("peak inflight %d, want the flood to fill MaxBatch %d", peak, serve.MaxBatch)
	}
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
	env := &serve.Env{Config: cfg, Sim: s, Rec: rec}
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
		s.AtFunc(r.Arrival, func(any) { e.Submit(r) }, nil)
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
	env := &serve.Env{Config: cfg, Sim: s, Rec: rec}
	e := NewWithOptions(env, DefaultOptions())
	fitted := e.est.(*estimator.Estimator)
	before := fitted.Guard().Cells()
	tr := workload.ToolAgent(34, 30).WithPoissonArrivals(34, 3)
	for _, r := range tr.Requests {
		r := r
		rec.Arrive(r.ID, r.Arrival, r.InputTokens)
		s.AtFunc(r.Arrival, func(any) { e.Submit(r) }, nil)
	}
	s.Run()
	// Cells can only grow (Observe adds unseen cells).
	if fitted.Guard().Cells() < before {
		t.Fatal("guard lost cells during serving")
	}
}

// An arrival that joins a paused job which was already priced makes the
// job's cached T_P stale; the join must drop the cache with the layer
// kernel, so that whenever the cache names the job at the prefill
// partition's present size, it equals a fresh PrefillPhase. The join of
// a paused job is the existing, golden-pinned batching rule of enqueue.
func TestPausedJobJoinRepricesTP(t *testing.T) {
	s := sim.New()
	rec := metrics.NewRecorder()
	env := &serve.Env{Config: cfg70B(), Sim: s, Rec: rec}
	e := NewWithOptions(env, DefaultOptions())
	submit := func(id, input int) *workload.Request {
		r := &workload.Request{
			ID: id, Arrival: s.Now(), InputTokens: input, OutputTokens: 4,
			Pages:    pages(uint64(id+1), kvcache.PageCount(input, kvcache.DefaultPageTokens)),
			AllPages: pages(uint64(id+1), kvcache.PageCount(input+4, kvcache.DefaultPageTokens)),
		}
		rec.Arrive(r.ID, r.Arrival, r.InputTokens)
		e.pending.Push(r)
		return r
	}
	coherent := func(when string) {
		t.Helper()
		if e.layerOf == nil || e.layerSMs != e.prefillP.SMs() {
			return
		}
		if fresh := e.est.PrefillPhase(e.layerOf.seqs, e.layerSMs); e.layerTP != fresh {
			t.Fatalf("%s: cached T_P %v, fresh PrefillPhase %v", when, e.layerTP, fresh)
		}
	}

	s.AtFunc(0, func(any) {
		submit(0, 16000)
		e.admitPending()
		e.schedule()
	}, nil)
	s.RunUntil(200 * sim.Millisecond)
	long := e.active
	if long == nil || long.layersDone == 0 || e.layerOf != long || e.layerSMs == 0 {
		t.Fatalf("the long job is not running priced layers at %v", s.Now())
	}
	coherent("before the join")

	// A short arrival preempts the long job, and a second one, admitted
	// in the same pass, joins the paused long job behind it.
	submit(1, 100)
	submit(2, 200)
	e.admitPending()
	if e.queue.Len() != 2 || !e.queue.At(0).isPreemptor || e.queue.At(1) != long || len(long.reqs) != 2 {
		t.Fatalf("want the preemptor then the paused long job holding 2 requests; queue has %d jobs", e.queue.Len())
	}
	coherent("after the join")
	e.schedule()

	repriced := false
	for step := sim.Time(1); s.Pending() > 0; step++ {
		s.RunUntil(200*sim.Millisecond + step*sim.Millisecond)
		coherent("after the resume")
		repriced = repriced || (e.layerOf == long && e.layerSMs > 0)
	}
	if !repriced {
		t.Fatal("the paused long job never resumed")
	}
	if sum := rec.Summarize("mux", s.Now()); sum.Finished != 3 {
		t.Fatalf("finished %d/3", sum.Finished)
	}
}

// A job recycled through the pool with a different batch is priced
// afresh. The layer kernel and T_P are cached by job pointer, so a
// release that left layerOf naming the recycled job would hand the new
// batch the old batch's price.
func TestRecycledJobRepriced(t *testing.T) {
	env := &serve.Env{Config: cfg8B(), Sim: sim.New(), Rec: metrics.NewRecorder()}
	e := NewWithOptions(env, DefaultOptions())
	e.reconfigure(0) // prefill owns the device
	take := func(seqs ...model.Seq) *prefillJob {
		j := e.jobs.Get()
		j.eng = e
		j.seqs = append(j.seqs, seqs...)
		e.price(j)
		return j
	}
	long := take(model.Seq{New: 8000}, model.Seq{New: 4000, Reused: 2000})
	e.releaseJob(long)
	short := take(model.Seq{New: 100})
	if short != long {
		t.Fatal("the pool did not hand out the released job again")
	}
	cost := env.Arch.PrefillLayer(short.seqs, env.GPUs, true)
	if want := gpu.NewKernel("prefill-layer", gpu.Prefill, cost, env.Spec.LayerLaunch); e.layer != want {
		t.Fatalf("the recycled job runs layer kernel %+v, want %+v", e.layer, want)
	}
	if want := e.est.PrefillPhase(short.seqs, e.prefillP.SMs()); e.layerTP != want {
		t.Fatalf("the recycled job's T_P is %v, want %v", e.layerTP, want)
	}
}
