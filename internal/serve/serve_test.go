package serve

import (
	"testing"

	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

func pages(stream uint64, n int) []kvcache.PageID {
	out := make([]kvcache.PageID, n)
	for i := range out {
		out[i] = kvcache.PageID(stream<<32 | uint64(i))
	}
	return out
}

func req(id int, input, output int) *workload.Request {
	p := pages(uint64(id), kvcache.PageCount(input, 16))
	all := pages(uint64(id), kvcache.PageCount(input+output, 16))
	return &workload.Request{
		ID: id, InputTokens: input, OutputTokens: output,
		Pages: p, AllPages: all,
	}
}

func TestAdmitReservesAndPins(t *testing.T) {
	pool := kvcache.New(10000, 16)
	r := req(1, 1000, 100)
	run := Admit(pool, r, r.OutputTokens)
	if run == nil {
		t.Fatal("admission failed with ample pool")
	}
	if run.CachedTokens != 0 {
		t.Fatalf("cached = %d on cold pool", run.CachedTokens)
	}
	if pool.Reserved() != 1100 {
		t.Fatalf("reserved = %d, want 1100", pool.Reserved())
	}
	run.Complete(pool)
	if pool.Reserved() != 0 {
		t.Fatalf("reserved after complete = %d", pool.Reserved())
	}
	// Second identical request hits the published KV.
	run2 := Admit(pool, r, r.OutputTokens)
	if run2 == nil {
		t.Fatal("second admission failed")
	}
	if run2.CachedTokens < 900 {
		t.Fatalf("cached = %d, want ≈1000 after publish", run2.CachedTokens)
	}
}

func TestAdmitFailsWhenFull(t *testing.T) {
	pool := kvcache.New(500, 16)
	if run := Admit(pool, req(1, 1000, 100), 100); run != nil {
		t.Fatal("admission should fail when KV cannot fit")
	}
}

func TestAbortReleasesWithoutPublishing(t *testing.T) {
	pool := kvcache.New(10000, 16)
	r := req(2, 800, 50)
	run := Admit(pool, r, r.OutputTokens)
	run.Abort(pool)
	if pool.Reserved() != 0 {
		t.Fatalf("reserved after abort = %d", pool.Reserved())
	}
	if got := Admit(pool, r, r.OutputTokens); got.CachedTokens != 0 {
		t.Fatalf("abort must not publish KV; cached = %d", got.CachedTokens)
	}
}

func TestRunningProgress(t *testing.T) {
	run := &Running{R: req(3, 100, 10), CachedTokens: 40}
	if got := run.PrefillRemaining(); got != 60 {
		t.Fatalf("PrefillRemaining = %d, want 60", got)
	}
	run.PrefilledTokens = 60
	if got := run.PrefillRemaining(); got != 0 {
		t.Fatalf("PrefillRemaining = %d, want 0", got)
	}
	if run.CtxTokens() != 100 {
		t.Fatalf("CtxTokens = %d", run.CtxTokens())
	}
	run.Generated = 10
	if !run.DecodeDone() {
		t.Fatal("DecodeDone should be true")
	}
}

func TestBatchStep(t *testing.T) {
	rec := metrics.NewRecorder()
	var b Batch
	a := &Running{R: req(1, 10, 2), Generated: 1}
	c := &Running{R: req(2, 10, 5), Generated: 1}
	rec.Arrive(1, 0, 10)
	rec.Arrive(2, 0, 10)
	b.Add(a)
	b.Add(c)
	fin := b.StepInto(sim.Second, rec, nil)
	if len(fin) != 1 || fin[0] != a {
		t.Fatalf("finished = %v, want request 1", fin)
	}
	if b.Size() != 1 {
		t.Fatalf("batch size = %d, want 1", b.Size())
	}
	if got := b.TotalCtx(); got != 12 {
		t.Fatalf("TotalCtx = %d, want 12", got)
	}
}

// fakeEngine serves requests with fixed synthetic latencies so the runner
// and goodput helpers can be tested in isolation.
type fakeEngine struct {
	Base
	env   *Env
	delay sim.Time
	gap   sim.Time
}

func (f *fakeEngine) Submit(r *workload.Request) {
	at := f.env.Sim.Now() + f.delay
	for i := 0; i < r.OutputTokens; i++ {
		i := i
		f.env.Sim.At(at+sim.Time(i)*f.gap, func() {
			f.env.Rec.Token(r.ID, f.env.Sim.Now())
			if i == r.OutputTokens-1 {
				f.env.Rec.Finish(r.ID, f.env.Sim.Now())
			}
		})
	}
}

func fakeFactory(delay, gap sim.Time) Factory {
	return func(env *Env) Engine {
		return &fakeEngine{Base: NewBase("fake", nil), env: env, delay: delay, gap: gap}
	}
}

func testCfg() Config {
	return Config{
		Spec: gpu.A100(), GPUs: 1, Arch: model.Llama8B(),
		SLO: metrics.SLO{TTFT: sim.Second, TBT: 50 * sim.Millisecond},
	}
}

func smallTrace(n int) *workload.Trace {
	tr := &workload.Trace{Name: "small"}
	for i := 0; i < n; i++ {
		r := req(i, 100, 5)
		r.Arrival = sim.Time(i) * 100 * sim.Millisecond
		tr.Requests = append(tr.Requests, r)
	}
	return tr
}

func TestRunnerBasics(t *testing.T) {
	res := Run(fakeFactory(20*sim.Millisecond, 10*sim.Millisecond), testCfg(), smallTrace(10))
	if res.Summary.Requests != 10 || res.Summary.Finished != 10 {
		t.Fatalf("requests/finished = %d/%d", res.Summary.Requests, res.Summary.Finished)
	}
	if got := res.Summary.TTFT.Avg; got < 0.019 || got > 0.021 {
		t.Fatalf("TTFT avg = %v, want 20ms", got)
	}
	if got := res.Summary.TBT.Avg; got < 0.009 || got > 0.011 {
		t.Fatalf("TBT avg = %v, want 10ms", got)
	}
}

func TestRunnerDeterministic(t *testing.T) {
	a := Run(fakeFactory(time20(), 10*sim.Millisecond), testCfg(), smallTrace(20)).Summary
	b := Run(fakeFactory(time20(), 10*sim.Millisecond), testCfg(), smallTrace(20)).Summary
	if a.TTFT != b.TTFT || a.TBT != b.TBT {
		t.Fatal("runner not deterministic")
	}
}

func time20() sim.Time { return 20 * sim.Millisecond }

func TestPoolTokensHelper(t *testing.T) {
	env := Env{Spec: gpu.A100(), Arch: model.Llama8B(), ReserveFrac: 0.1}
	one := env.PoolTokens(1)
	eight := env.PoolTokens(8)
	if one <= 0 || eight <= one*7 {
		t.Fatalf("pool tokens scaling wrong: 1 GPU %d, 8 GPUs %d", one, eight)
	}
}

func TestProbeAndSweep(t *testing.T) {
	mk := func(rate float64) *workload.Trace { return smallTrace(20) }
	// Fast engine: 10ms TBT < 50ms SLO → meets.
	p := Probe(fakeFactory(10*sim.Millisecond, 10*sim.Millisecond), testCfg(), mk, 1)
	if p.Attainment < 0.99 || p.Unstable {
		t.Fatalf("fast engine should meet SLO: %+v", p)
	}
	// Slow engine: 80ms gaps violate.
	p2 := Probe(fakeFactory(10*sim.Millisecond, 80*sim.Millisecond), testCfg(), mk, 1)
	if p2.Attainment > 0.01 {
		t.Fatalf("slow engine attainment = %v, want ≈0", p2.Attainment)
	}
	pts := Sweep(fakeFactory(10*sim.Millisecond, 80*sim.Millisecond), testCfg(), mk, []float64{1, 2, 3, 4, 5})
	if len(pts) > 3 {
		t.Fatalf("sweep should stop after repeated misses, got %d points", len(pts))
	}
}

func TestGoodputBisection(t *testing.T) {
	// Engine whose token gap grows with offered rate: passes below
	// rate≈2.5, fails above.
	mk := func(rate float64) *workload.Trace { return smallTrace(20) }
	factory := func(rate *float64) Factory {
		return func(env *Env) Engine {
			gap := sim.Time(float64(20*sim.Millisecond) * *rate)
			return &fakeEngine{Base: NewBase("fake", nil), env: env, delay: 10 * sim.Millisecond, gap: gap}
		}
	}
	var current float64
	f := func(env *Env) Engine { return factory(&current)(env) }
	mkTrack := func(rate float64) *workload.Trace {
		current = rate
		return mk(rate)
	}
	g := Goodput(f, testCfg(), mkTrack, 0.5, 8)
	if g < 1.5 || g > 3.0 {
		t.Fatalf("goodput = %v, want ≈2.5 (gap crosses 50ms there)", g)
	}
	// Engine failing even at the floor → 0.
	bad := Goodput(fakeFactory(10*sim.Millisecond, 200*sim.Millisecond), testCfg(), mk, 0.5, 8)
	if bad != 0 {
		t.Fatalf("failing engine goodput = %v, want 0", bad)
	}
}

// TestAdmitNext checks the shared admission step: the MaxBatch cap and a
// full pool leave the pending head in place, a success pops it, and
// reserveOutput decides whether the output tokens join the reservation.
func TestAdmitNext(t *testing.T) {
	s := sim.New()
	rec := metrics.NewRecorder()
	env := &Env{Sim: s, Rec: rec, MaxBatch: 2}
	pool := kvcache.New(1500, 16)
	var pending Queue[*workload.Request]
	for id := 1; id <= 2; id++ {
		rec.Arrive(id, 0, 1000)
		pending.Push(req(id, 1000, 100))
	}
	if run := env.AdmitNext(&pending, 2, pool, true); run != nil || pending.Len() != 2 {
		t.Fatal("a full batch must not admit")
	}
	run := env.AdmitNext(&pending, 0, pool, true)
	if run == nil || run.R.ID != 1 || run.ReservedTokens != 1100 || pending.Len() != 1 {
		t.Fatalf("first admission: run %+v, pending %d", run, pending.Len())
	}
	if run := env.AdmitNext(&pending, 1, pool, true); run != nil || pending.Front().ID != 2 {
		t.Fatal("a full pool must leave the head pending")
	}
	run = env.AdmitNext(&pending, 1, kvcache.New(1500, 16), false)
	if run == nil || run.ReservedTokens != 1000 || pending.Len() != 0 {
		t.Fatalf("input-only admission: run %+v", run)
	}
	if env.AdmitNext(&pending, 0, pool, true) != nil {
		t.Fatal("an empty queue admits nothing")
	}
}

// TestDecodeStreamHoldsUntilBoundary checks that requests joining while
// an iteration runs wait for the boundary, and join at once otherwise.
func TestDecodeStreamHoldsUntilBoundary(t *testing.T) {
	rec := metrics.NewRecorder()
	var d DecodeStream
	a := &Running{R: req(1, 10, 3), Generated: 1}
	b := &Running{R: req(2, 10, 3), Generated: 1}
	rec.Arrive(1, 0, 10)
	rec.Arrive(2, 0, 10)
	d.Join(a)
	if d.Size() != 1 || d.Held() != 0 {
		t.Fatal("an idle stream takes a joining request at once")
	}
	d.Running = true
	d.Join(b)
	if d.Size() != 1 || d.Held() != 1 {
		t.Fatal("a running stream must park a joining request")
	}
	if fin := d.Step(sim.Second, rec); len(fin) != 0 || d.Running || a.Generated != 2 || b.Generated != 1 {
		t.Fatal("Step must credit only the batch and end the iteration")
	}
	d.FoldHeld()
	if d.Size() != 2 || d.Held() != 0 {
		t.Fatalf("FoldHeld left batch %d, held %d", d.Size(), d.Held())
	}
}
