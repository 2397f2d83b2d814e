package serve

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"muxwise/internal/arena"
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
	run := new(Env).Admit(pool, r, r.OutputTokens)
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
	run2 := new(Env).Admit(pool, r, r.OutputTokens)
	if run2 == nil {
		t.Fatal("second admission failed")
	}
	if run2.CachedTokens < 900 {
		t.Fatalf("cached = %d, want ≈1000 after publish", run2.CachedTokens)
	}
}

func TestAdmitFailsWhenFull(t *testing.T) {
	pool := kvcache.New(500, 16)
	if run := new(Env).Admit(pool, req(1, 1000, 100), 100); run != nil {
		t.Fatal("admission should fail when KV cannot fit")
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
	var b DecodeStream
	a := &Running{R: req(1, 10, 2), Generated: 1}
	c := &Running{R: req(2, 10, 5), Generated: 1}
	rec.Arrive(1, 0, 10)
	rec.Arrive(2, 0, 10)
	b.Add(a)
	b.Add(c)
	launched(&b)
	fin := b.step(sim.Second, rec)
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

// launched marks an iteration launched on the whole batch, as begin does,
// so that the next step steps every member.
func launched(d *DecodeStream) { d.size = len(d.reqs) }

// TotalCtx is a running sum: after every Add, FirstToken-then-Add, launch
// and step of a random program it equals the brute-force sum of the
// members' CtxTokens, and the batch holds exactly the requests a
// reference list says it should: the launched members that did not
// finish, then the requests added since the launch, in order. A step
// finishes exactly the launched members that are done and leaves every
// late joiner's token count alone.
func TestBatchTotalCtxMatchesSum(t *testing.T) {
	for seed := range uint64(50) {
		rng := rand.New(rand.NewPCG(seed, 0xba7c4))
		rec := metrics.NewRecorder()
		var b DecodeStream
		var ref []*Running
		id, inFlight := 0, -1 // inFlight: ref[:inFlight] launched; -1 while idle
		for op := range 200 {
			switch rng.IntN(4) {
			case 0: // a migrated request joins with no token yet
				rec.Arrive(id, 0, 1)
				r := &Running{R: req(id, 1+rng.IntN(4000), 1+rng.IntN(8))}
				b.Add(r)
				ref = append(ref, r)
			case 1: // a finished prefill emits its first token, then joins
				rec.Arrive(id, 0, 1)
				r := &Running{R: req(id, 1+rng.IntN(4000), 1+rng.IntN(8))}
				if !FirstToken(rec, r, sim.Time(op)) {
					b.Add(r)
					ref = append(ref, r)
				}
			case 2: // an iteration launches on the batch
				if inFlight < 0 {
					launched(&b)
					inFlight = len(ref)
				}
			case 3: // its boundary
				if inFlight < 0 {
					break
				}
				late := make([]int, len(ref)-inFlight)
				for i, r := range ref[inFlight:] {
					late[i] = r.Generated
				}
				fin := b.step(sim.Time(op), rec)
				var wantFin []*Running
				keep := ref[:0]
				for i, r := range ref {
					switch {
					case i >= inFlight && r.Generated != late[i-inFlight]:
						t.Fatalf("seed %d op %d: a late joiner took a token from the iteration it missed", seed, op)
					case i < inFlight && r.DecodeDone():
						wantFin = append(wantFin, r)
					default:
						keep = append(keep, r)
					}
				}
				if !slices.Equal(fin, wantFin) {
					t.Fatalf("seed %d op %d: %d finished, want the %d launched members that are done", seed, op, len(fin), len(wantFin))
				}
				ref, inFlight = keep, -1
			}
			id++
			want := 0
			for _, r := range ref {
				want += r.CtxTokens()
			}
			if got := b.TotalCtx(); got != want {
				t.Fatalf("seed %d op %d: TotalCtx = %d, brute-force sum = %d", seed, op, got, want)
			}
			if !slices.Equal(b.reqs, ref) {
				t.Fatalf("seed %d op %d: batch holds %d requests, reference %d, or in another order", seed, op, len(b.reqs), len(ref))
			}
		}
	}
}

// A steady-state decode step allocates nothing, requests joining and
// finishing included: the batch, the stream's member lists and its
// iteration log reuse their capacity. The TBT log adds a block every
// 8,192 runs, which AllocsPerRun's per-call count rounds away.
func TestBatchStepAllocatesNothing(t *testing.T) {
	const batch, n = 32, 4096
	rec := metrics.NewRecorder()
	reqs := make([]*Running, n)
	for id := range reqs {
		rec.Arrive(id, 0, 100)
		reqs[id] = &Running{R: req(id, 100, 50+id%50)}
	}
	var b DecodeStream
	next, now := 0, sim.Time(0)
	step := func() {
		now += sim.Millisecond
		for ; b.Size() < batch && next < n; next++ {
			FirstToken(rec, reqs[next], now)
			b.Add(reqs[next])
		}
		launched(&b)
		b.step(now, rec)
	}
	for range 500 {
		step()
	}
	if got := testing.AllocsPerRun(1000, step); got != 0 {
		t.Fatalf("a decode step allocates %v times", got)
	}
	if next == n {
		t.Fatal("the request pool ran dry; the steps measured an idle batch")
	}
}

// BenchmarkBatchStep is one decode step through DecodeStream.step, recorder
// included, at batch 25 (the mean batch of a ShareGPT engine run) and
// 256. Every finished request is replaced by a new arrival that emits
// its first token and joins at the next step. ns/op is per step, ns/token
// per member-step; a fresh recorder every 4,096 steps bounds memory.
func BenchmarkBatchStep(b *testing.B) {
	for _, batch := range []int{25, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			const perRecorder = 1 << 12
			var (
				rec *metrics.Recorder
				bt  DecodeStream
				id  int
			)
			admit := func(r *Running, now sim.Time) {
				id++
				r.R.ID, r.R.OutputTokens = id, 50+id%150
				rec.Arrive(id, now, r.R.InputTokens)
				FirstToken(rec, r, now)
				bt.Add(r)
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				k := i % perRecorder
				now := sim.Time(k+1) * 20 * sim.Millisecond
				if k == 0 {
					rec, bt = metrics.NewRecorder(), DecodeStream{}
					for range batch {
						admit(&Running{R: &workload.Request{InputTokens: 100}}, now)
					}
				}
				launched(&bt)
				for _, r := range bt.step(now, rec) {
					admit(r, now)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/token")
		})
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
		f.env.Sim.AtFunc(at+sim.Time(i)*f.gap, func(any) {
			f.env.Rec.Token(r.ID, f.env.Sim.Now())
			if i == r.OutputTokens-1 {
				f.env.Rec.Finish(r.ID, f.env.Sim.Now())
			}
		}, nil)
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
	env := Env{Config: Config{Spec: gpu.A100(), Arch: model.Llama8B()}}
	one := env.PoolTokens(1)
	eight := env.PoolTokens(8)
	if one <= 0 || eight <= one*7 {
		t.Fatalf("pool tokens scaling wrong: 1 GPU %d, 8 GPUs %d", one, eight)
	}
}

func TestProbeAndSweep(t *testing.T) {
	mk := func(rate float64) *workload.Trace { return smallTrace(20) }
	// Fast engine: 10ms TBT < 50ms SLO → meets.
	p := probe(fakeFactory(10*sim.Millisecond, 10*sim.Millisecond), testCfg(), mk)(1)
	if p.Attainment < 0.99 || p.Unstable {
		t.Fatalf("fast engine should meet SLO: %+v", p)
	}
	// Slow engine: 80ms gaps violate.
	p2 := probe(fakeFactory(10*sim.Millisecond, 80*sim.Millisecond), testCfg(), mk)(1)
	if p2.Attainment > 0.01 {
		t.Fatalf("slow engine attainment = %v, want ≈0", p2.Attainment)
	}
	pts := SweepBy(probe(fakeFactory(10*sim.Millisecond, 80*sim.Millisecond), testCfg(), mk), []float64{1, 2, 3, 4, 5})
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
	g, _ := GoodputBy(probe(f, testCfg(), mkTrack), 0.5, 8)
	if g < 1.5 || g > 3.0 {
		t.Fatalf("goodput = %v, want ≈2.5 (gap crosses 50ms there)", g)
	}
	// Engine failing even at the floor → 0.
	bad, ok := GoodputBy(probe(fakeFactory(10*sim.Millisecond, 200*sim.Millisecond), testCfg(), mk), 0.5, 8)
	if ok || bad != 0 {
		t.Fatalf("failing engine goodput = (%v, %v), want (0, false)", bad, ok)
	}
}

// TestAdmitNext checks the shared admission step: the MaxBatch cap and a
// full pool leave the pending head in place, a success pops it, and
// reserveOutput decides whether the output tokens join the reservation.
func TestAdmitNext(t *testing.T) {
	s := sim.New()
	rec := metrics.NewRecorder()
	env := &Env{Sim: s, Rec: rec}
	pool := kvcache.New(1500, 16)
	var pending arena.Queue[*workload.Request]
	for id := 1; id <= 2; id++ {
		rec.Arrive(id, 0, 1000)
		pending.Push(req(id, 1000, 100))
	}
	if run := env.AdmitNext(&pending, MaxBatch, pool, true); run != nil || pending.Len() != 2 {
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

// TestDecodeStreamLateJoiner checks that a request added while an
// iteration runs counts in Size and TotalCtx at once, takes no token from
// that iteration and decodes from the next, after the kept members.
func TestDecodeStreamLateJoiner(t *testing.T) {
	s := sim.New()
	env := &Env{Config: Config{Spec: gpu.A100(), GPUs: 1, Arch: model.Llama8B()}, Sim: s, Rec: metrics.NewRecorder()}
	part := gpu.NewDevice(s, env.Spec, 1, "decode").Partition(env.Spec.SMs, "decode")
	var d DecodeStream
	var bounds []sim.Time
	d.Bind(env, func(_ any, _ []*Running) {
		bounds = append(bounds, s.Now())
		if d.Size() > 0 {
			d.Launch(part, 1, 0)
		}
	}, func(any) bool { return false }, nil)
	a := &Running{R: req(1, 10, 3), Generated: 1}
	b := &Running{R: req(2, 10, 3), Generated: 1}
	env.Rec.Arrive(1, 0, 10)
	env.Rec.Arrive(2, 0, 10)
	env.Rec.Token(1, 0)
	env.Rec.Token(2, 0)
	d.Add(a)
	d.Launch(part, 1, 0)
	s.AtFunc(1, func(any) {
		d.Add(b)
		if !d.Running || d.Size() != 2 || d.TotalCtx() != 22 {
			t.Errorf("mid-iteration: running %v, size %d, ctx %d; want a late joiner counted at once", d.Running, d.Size(), d.TotalCtx())
		}
	}, nil)
	s.RunUntil(1)
	if _, size, _ := d.InFlight(); size != 1 {
		t.Fatalf("the iteration launched with %d members, want 1", size)
	}
	s.Run()
	if len(bounds) != 3 {
		t.Fatalf("%d boundaries, want 3 (a decodes twice, b from the second iteration)", len(bounds))
	}
	got := func(id int) metrics.Record {
		for _, r := range env.Rec.Records() {
			if r.ID == id {
				return r
			}
		}
		t.Fatalf("no record of request %d", id)
		return metrics.Record{}
	}
	if ra, rb := got(1), got(2); ra.Finished != bounds[1] || rb.Finished != bounds[2] || rb.Tokens != 3 {
		t.Fatalf("a finished at %v, b at %v with %d tokens; want %v and %v with 3 (boundaries %v)",
			ra.Finished, rb.Finished, rb.Tokens, bounds[1], bounds[2], bounds)
	}
}
