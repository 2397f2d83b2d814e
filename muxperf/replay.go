package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"time"

	"muxwise"
	"muxwise/internal/cluster"
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/obs"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
)

// The layer replays time calls into one layer's exported API with inputs
// taken from the traced probes, so a layer's host cost is measured apart
// from everything around it. Per-call timings include one clock read
// (tens of ns); both commits of a comparison pay it alike.

// replays accumulates the per-probe replays (kvcache, router, recorder,
// rollup, Chrome export); the whole-run ones return their metric
// directly.
type replays struct {
	matchNs, insertNs   time.Duration
	matches             int
	evictions           int64
	kvRequests          int
	pickNs, constructNs time.Duration
	picks, constructs   int
	pickMallocs         uint64
	tokenNs             time.Duration
	tokens              int
	rollupNs            time.Duration
	rollups             int
	chromeNs            time.Duration
	chromeEvents        int
}

// routerCandidates is the replica count of the router replay: the
// bursty-fleet workload's initial fleet.
const routerCandidates = 3

// constructsPerProbe times router construction this many times per
// probe; one construction is too short to time alone.
const constructsPerProbe = 100

// kvcache runs a probe's requests through a fresh pool of the engine's
// capacity in arrival order: match the prompt's pages, reserve the
// request's new KV, release it and publish the full context, as
// admission and completion do.
func (r *replays) kvcache(tr *muxwise.Trace, capacity int64) {
	pool := kvcache.New(capacity, kvcache.DefaultPageTokens)
	for _, req := range tr.Requests {
		start := time.Now()
		hit := pool.MatchTokens(req.Pages, req.InputTokens)
		r.matchNs += time.Since(start)
		need := int64(req.InputTokens - hit + req.OutputTokens)
		if pool.Reserve(need) {
			pool.Release(need)
		}
		start = time.Now()
		pool.Insert(req.AllPages)
		r.insertNs += time.Since(start)
	}
	r.matches += tr.Len()
	r.kvRequests += tr.Len()
	r.evictions += pool.Stats().Evictions
}

// router replays a probe's arrivals through the default prefix-affinity
// policy over a static candidate set. The policy is built outside the
// pick timer: construction is timed on its own.
func (r *replays) router(tr *muxwise.Trace) error {
	cands := make([]*cluster.Replica, routerCandidates)
	for i := range cands {
		cands[i] = &cluster.Replica{ID: i, Name: fmt.Sprintf("replay-%d", i)}
	}
	policy := cluster.Policies()[cluster.PrefixAffinityPolicy]
	var rt cluster.Router
	start := time.Now()
	for i := 0; i < constructsPerProbe; i++ {
		rt = policy()
	}
	r.constructNs += time.Since(start)
	r.constructs += constructsPerProbe

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	for _, req := range tr.Requests {
		if rt.Pick(req, cluster.FleetView{Now: req.Arrival, Candidates: cands}) == nil {
			return fmt.Errorf("router replay: no replica picked for request %d", req.ID)
		}
	}
	r.pickNs += time.Since(start)
	runtime.ReadMemStats(&after)
	r.pickMallocs += after.Mallocs - before.Mallocs
	r.picks += tr.Len()
	return nil
}

// recorder replays a probe's token stream through a fresh
// metrics.Recorder: each request arrives, emits its output tokens 20 ms
// apart and finishes.
func (r *replays) recorder(tr *muxwise.Trace) {
	rec := metrics.NewRecorder()
	start := time.Now()
	for _, req := range tr.Requests {
		rec.Arrive(req.ID, req.Arrival, req.InputTokens)
		at := req.Arrival + 100*sim.Millisecond
		for k := 0; k < req.OutputTokens; k++ {
			rec.Token(req.ID, at)
			at += 20 * sim.Millisecond
		}
		rec.Finish(req.ID, at)
		r.tokens += req.OutputTokens
	}
	r.tokenNs += time.Since(start)
}

// rollupSink keeps the rollup results alive so the calls are not elided.
var rollupSink struct {
	s metrics.Summary
	d metrics.MissBreakdown
	n int
}

// rollup times the end-of-run rollups on a probe's own recorder.
func (r *replays) rollup(rep *muxwise.Report) {
	rec := recorder(rep)
	start := time.Now()
	rollupSink.s = rec.Summarize(rep.Summary.Name, rep.Summary.Makespan)
	rollupSink.d = rec.Diagnose(rep.SLO, metrics.DiagnoseAux{})
	rollupSink.n = rec.WithinSLO(rep.SLO)
	r.rollupNs += time.Since(start)
	r.rollups++
}

// chrome times the Chrome trace export of a probe's flight recording.
func (r *replays) chrome(fr *obs.Tracer) error {
	start := time.Now()
	err := fr.WriteChromeTrace(io.Discard)
	r.chromeNs += time.Since(start)
	r.chromeEvents += fr.Len()
	return err
}

func (r *replays) metrics(m map[string]float64) {
	m["kvcache.ns_per_match"] = perOp(r.matchNs, r.matches)
	m["kvcache.ns_per_insert"] = perOp(r.insertNs, r.matches)
	m["kvcache.evictions_per_req"] = ratio(float64(r.evictions), float64(r.kvRequests))
	m["cluster.ns_per_pick"] = perOp(r.pickNs, r.picks)
	m["cluster.allocs_per_pick"] = ratio(float64(r.pickMallocs), float64(r.picks))
	m["cluster.construct_us"] = perOp(r.constructNs, r.constructs) / 1e3
	m["metrics.ns_per_token"] = perOp(r.tokenNs, r.tokens)
	m["metrics.rollup_ms_per_probe"] = perOp(r.rollupNs, r.rollups) / 1e6
	m["obs.chrome_ns_per_event"] = perOp(r.chromeNs, r.chromeEvents)
}

// perOp is nanoseconds per operation, 0 when nothing ran.
func perOp(d time.Duration, ops int) float64 {
	return ratio(float64(d.Nanoseconds()), float64(ops))
}

// simReplayEvents is how many events the event-loop replay fires.
const simReplayEvents = 1_000_000

// simReplay is the event-loop replay's state: a heap held at a fixed
// pending depth, where each fired event schedules its successor and, at
// the workload's cancel ratio, one pending event is canceled and
// rescheduled.
type simReplay struct {
	s       *sim.Sim
	rng     *rand.Rand
	slots   []simSlot
	cancels float64 // cancellations owed per fired event
	owed    float64
	fired   int
}

type simSlot struct {
	r *simReplay
	h sim.Handle
}

func (r *simReplay) schedule(sl *simSlot) {
	sl.h = r.s.AtFunc(r.s.Now()+1+sim.Time(r.rng.Int64N(int64(sim.Millisecond))), simFire, sl)
}

func simFire(arg any) {
	sl := arg.(*simSlot)
	r := sl.r
	r.fired++
	if r.fired >= simReplayEvents {
		r.s.Stop()
		return
	}
	r.schedule(sl)
	for r.owed += r.cancels; r.owed >= 1; r.owed-- {
		victim := &r.slots[r.rng.IntN(len(r.slots))]
		r.s.Cancel(victim.h)
		r.schedule(victim)
	}
}

// simNsPerEvent replays schedule, fire and cancel on a fresh sim.Sim at
// the given pending depth and cancel fraction (canceled / scheduled),
// returning host nanoseconds per fired event.
func simNsPerEvent(seed uint64, depth int, cancelFrac float64) float64 {
	depth = max(depth, 1)
	cancelFrac = min(cancelFrac, 0.9)
	r := &simReplay{
		s:       sim.New(),
		rng:     rand.New(rand.NewPCG(seed, 1)),
		slots:   make([]simSlot, depth),
		cancels: cancelFrac / (1 - cancelFrac),
	}
	for i := range r.slots {
		r.slots[i] = simSlot{r: r}
		r.schedule(&r.slots[i])
	}
	start := time.Now()
	r.s.Run()
	return perOp(time.Since(start), r.fired)
}

// gpuReplayKernels is how many kernels the device replay completes.
const gpuReplayKernels = 100_000

// gpuReplay chains kernels on two co-running partitions of a fresh
// device: decode iterations on one, prefill layers on the other, each
// relaunching on completion.
type gpuReplay struct {
	part    *gpu.Partition
	kernels []gpu.Kernel
	next    int
	done    *int
	stop    func()
}

func gpuDone(arg any) {
	g := arg.(*gpuReplay)
	*g.done++
	if *g.done >= gpuReplayKernels {
		g.stop()
		return
	}
	g.launch()
}

func (g *gpuReplay) launch() {
	g.part.LaunchFn(g.kernels[g.next%len(g.kernels)], gpuDone, g)
	g.next++
}

// gpuNsPerKernel returns host nanoseconds per completed kernel. Kernel
// shapes come from the traced decode and prefill spans, costed by the
// model layer before the timer starts.
func gpuNsPerKernel(spec gpu.Spec, tp int, arch model.Arch, decodes []decodeTuple, prefills []prefillTuple) float64 {
	decodeSMs := coRunSMs(spec, decodes)
	var dk, pk []gpu.Kernel
	for _, d := range decodes {
		c := arch.DecodeIterTotals(d.ctx, d.bs, tp)
		dk = append(dk, gpu.Kernel{Label: "decode", Kind: gpu.Decode, FLOPs: c.FLOPs, Bytes: c.Bytes,
			CommBytes: c.CommBytes, Tokens: c.Tokens, Launch: spec.GraphLaunch})
	}
	for _, p := range prefills {
		c := arch.PrefillLayer([]model.Seq{{New: p.newTokens, Reused: p.reused}}, tp, true)
		pk = append(pk, gpu.Kernel{Label: "prefill-layer", Kind: gpu.Prefill, FLOPs: c.FLOPs, Bytes: c.Bytes,
			CommBytes: c.CommBytes, Tokens: c.Tokens, Launch: spec.LayerLaunch})
	}
	s := sim.New()
	dev := gpu.NewDevice(s, spec, tp, "replay")
	done := 0
	streams := []*gpuReplay{
		{part: dev.Partition(decodeSMs, "decode"), kernels: dk, done: &done, stop: s.Stop},
		{part: dev.Partition(spec.SMs-decodeSMs, "prefill"), kernels: pk, done: &done, stop: s.Stop},
	}
	start := time.Now()
	for _, g := range streams {
		g.launch()
	}
	s.Run()
	return perOp(time.Since(start), done)
}

// coRunSMs is the decode partition the traced iterations used most often
// while sharing the device, or the middle of the partition menu when
// they never shared it.
func coRunSMs(spec gpu.Spec, decodes []decodeTuple) int {
	counts := map[int]int{}
	for _, d := range decodes {
		if d.sms > 0 && d.sms < spec.SMs {
			counts[d.sms]++
		}
	}
	best, bestN := 0, 0
	for sms, n := range counts {
		if n > bestN || n == bestN && sms < best {
			best, bestN = sms, n
		}
	}
	if best == 0 {
		sizes := spec.PartitionSizes()
		best = sizes[len(sizes)/2]
	}
	return best
}

// costCalls is how many times each cost-model query is replayed.
const costCalls = 200_000

var costSink sim.Time

// costNs replays traced decode and prefill shapes through a cost model,
// returning ns per DecodeWorst and per PrefillPhase call. Decode shapes
// pair with prefill shapes round-robin, as a co-running batch would; the
// prefill runs on the SMs its decode partner leaves, or on the whole
// device when the decode held all of it.
func costNs(m serve.CostModel, smsTotal int, decodes []decodeTuple, prefills []prefillTuple) (decodeWorst, prefillPhase float64) {
	seqs := make([]model.Seq, 1)
	start := time.Now()
	for i := 0; i < costCalls; i++ {
		d, p := decodes[i%len(decodes)], prefills[i%len(prefills)]
		costSink += m.DecodeWorst(d.ctx, d.bs, d.sms, p.newTokens, p.reused)
	}
	decodeWorst = perOp(time.Since(start), costCalls)
	start = time.Now()
	for i := 0; i < costCalls; i++ {
		d, p := decodes[i%len(decodes)], prefills[i%len(prefills)]
		seqs[0] = model.Seq{New: p.newTokens, Reused: p.reused}
		sms := smsTotal - d.sms
		if sms <= 0 {
			sms = smsTotal
		}
		costSink += m.PrefillPhase(seqs, sms)
	}
	prefillPhase = perOp(time.Since(start), costCalls)
	return decodeWorst, prefillPhase
}

// withFallbackShapes guarantees the cost and device replays at least one
// shape each: a workload whose traced probes never decoded or prefilled
// on a MuxWise engine still gets a representative query.
func withFallbackShapes(spec gpu.Spec, decodes []decodeTuple, prefills []prefillTuple) ([]decodeTuple, []prefillTuple) {
	if len(decodes) == 0 {
		decodes = []decodeTuple{{bs: 8, ctx: 8 * 1024, sms: coRunSMs(spec, nil)}}
	}
	if len(prefills) == 0 {
		prefills = []prefillTuple{{newTokens: 1024}}
	}
	return decodes, prefills
}
