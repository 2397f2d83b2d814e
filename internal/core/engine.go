// Package core implements MuxWise: intra-GPU prefill-decode multiplexing
// (§3). The engine couples three modules:
//
//   - the bubble-less multiplex engine (§3.2): prefill executes layer by
//     layer on its own SM partition while decode iterations run as CUDA
//     graphs on the complementary partition; query-based synchronization
//     merges finished prefills into the decode batch at iteration
//     boundaries without stalling either stream, and layer granularity
//     enables preemption of ultra-long prefills;
//   - the contention-tolerant estimator (§3.3), supplying worst-case
//     decode latencies (solo prediction × contention-guard factor);
//   - the SLO-aware dispatcher (§3.4): at every decode iteration boundary
//     and prefill batch completion it reserves the best-fit (smallest)
//     decode partition whose worst-case TBT meets the SLO and gives all
//     remaining SMs to prefill.
//
// Options toggle the bubble-less mechanisms for the Fig. 19/20 ablations.
package core

import (
	"muxwise/internal/arena"
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/model"
	"muxwise/internal/obs"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// Options select engine variants for ablation studies.
type Options struct {
	// LayerWise executes prefill as per-layer piecewise CUDA graphs
	// (§3.2.3). When false, prefill launches as one monolithic phase
	// whose host launch blocks other launches and which cannot be
	// preempted or reclaimed.
	LayerWise bool
	// QuerySync merges finished prefills at decode iteration boundaries
	// by polling CUDA events. When false, the next decode iteration
	// blocks until the in-flight prefill phase completes.
	QuerySync bool
	// Preemption lets a short prefill batch preempt an ultra-long one at
	// a layer boundary when queueing would violate its TTFT SLO (§3.4.2).
	Preemption bool
	// NoGuard disables the contention guard: the dispatcher sizes the
	// decode partition from solo-run predictions alone, risking SLO
	// violations from bandwidth contention (§3.3's motivation).
	NoGuard bool
}

// DefaultOptions enables every mechanism, the shipping configuration.
func DefaultOptions() Options {
	return Options{LayerWise: true, QuerySync: true, Preemption: true}
}

// maxPrefillBatchTokens caps the new tokens bundled into one prefill
// batch, mirroring SGLang's max prefill budget.
const maxPrefillBatchTokens = 16384

// jobCap is a new prefill job's room for requests. Few batches outgrow
// it, so the engine's recycled jobs seldom grow their slices.
const jobCap = 8

// prefillJob is one prefill batch progressing layer by layer. It carries
// its engine so per-layer completion callbacks can be scheduled through
// the closure-free gpu.LaunchFn with the job itself as the argument.
// Jobs are recycled through the engine's pool (see releaseJob), so a job
// keeps the capacity of its reqs and seqs from one batch to the next.
type prefillJob struct {
	eng  *Engine
	reqs []*serve.Running
	seqs []model.Seq

	layersDone  int
	layersInAir int
	isPreemptor bool
	arrival     sim.Time
}

// newTokens returns the batch's total new context tokens.
func (j *prefillJob) newTokens() int {
	t := 0
	for _, s := range j.seqs {
		t += s.New
	}
	return t
}

// reusedTokens returns the batch's total reused context tokens.
func (j *prefillJob) reusedTokens() int {
	t := 0
	for _, s := range j.seqs {
		t += s.Reused
	}
	return t
}

// Engine is the MuxWise serving engine for one tensor-parallel instance.
type Engine struct {
	serve.Base
	env  *serve.Env
	opts Options

	decodeP  *gpu.Partition
	prefillP *gpu.Partition
	pool     *kvcache.Pool
	est      serve.CostModel

	decode serve.DecodeStream
	// solo memoizes DecodeSolo for one (ctx, bs, sms): pumpPrefill asks
	// for the running iteration's at every layer boundary.
	solo    sim.Time
	soloFor [3]int

	active   *prefillJob              // job whose layers are executing
	layer    gpu.Kernel               // per-layer kernel of layerOf, priced once from its seqs
	layerTP  sim.Time                 // T_P: PrefillPhase(layerOf.seqs, layerSMs)
	layerSMs int                      // prefill partition size layerTP was priced at; 0 when unpriced
	layerOf  *prefillJob              // nil once enqueue appends to that job
	queue    arena.Queue[*prefillJob] // admitted jobs waiting for the prefill stream
	merging  []*prefillJob            // prefill-complete jobs awaiting a decode boundary
	merged   int                      // merging[:merged] have merged at this boundary
	jobs     arena.Pool[prefillJob]   // merged jobs, for enqueue to reuse
	pending  arena.Queue[*workload.Request]

	configs   []int
	curConfig int

	// prefillSpan tracks whether a flight-recorder span is open for the
	// active prefill job (invariant while tracing: open ⇔ active != nil).
	prefillSpan bool
}

// track names the engine's flight-recorder track for one stream.
func (e *Engine) track(stream string) string { return e.env.Label + "/" + stream }

// New builds a MuxWise engine with default options.
func New(env *serve.Env) serve.Engine { return NewWithOptions(env, DefaultOptions()) }

// NewWithOptions builds a MuxWise engine with explicit ablation options.
func NewWithOptions(env *serve.Env, opts Options) *Engine {
	dev := gpu.NewDevice(env.Sim, env.Spec, env.GPUs, "muxwise")
	// A prefill job keeps up to a phase of layers in flight beside the
	// decode iteration.
	dev.ReserveRuns(env.Arch.Layers + 1)
	e := &Engine{
		env:  env,
		opts: opts,
		pool: kvcache.New(env.PoolTokens(env.GPUs), kvcache.DefaultPageTokens),
		// The fitted default arrives forked: this engine refines the
		// contention guard online, and concurrent sweep probes must not
		// share mutable guard state.
		est: env.Cost(),
	}
	e.Base = serve.NewBase(name(opts), []*gpu.Device{dev}, e.pool)
	e.configs = env.Spec.PartitionSizes()
	e.curConfig = env.Spec.SMs
	e.decodeP = dev.Partition(env.Spec.SMs, "decode")
	e.prefillP = dev.Partition(0, "prefill")
	e.Timeline().Record(0, env.Spec.SMs, 0)
	e.soloFor = [3]int{-1}
	e.decode.Bind(env, decodeDone, decodeQuiet, e)
	e.decode.TraceSpans("decode")
	return e
}

// name labels an ablation variant.
func name(opts Options) string {
	switch {
	case !opts.LayerWise && !opts.QuerySync:
		return "MuxWise w/o B&Q"
	case !opts.LayerWise:
		return "MuxWise w/o B"
	case !opts.Preemption:
		return "MuxWise w/o P"
	default:
		return "MuxWise"
	}
}

// DecodePartition exposes the decode green context for bubble accounting.
func (e *Engine) DecodePartition() *gpu.Partition { return e.decodeP }

// PrefillPartition exposes the prefill green context.
func (e *Engine) PrefillPartition() *gpu.Partition { return e.prefillP }

// Submit implements serve.Engine.
func (e *Engine) Submit(r *workload.Request) {
	e.pending.Push(r)
	e.admitPending()
	e.schedule()
}

// hasPrefillWork reports whether any prefill batch needs compute.
func (e *Engine) hasPrefillWork() bool { return e.active != nil || e.queue.Len() > 0 }

// admitPending admits as many queued arrivals as the KV pool allows,
// forming prefill jobs.
func (e *Engine) admitPending() {
	for {
		run := e.env.AdmitNext(&e.pending, e.inflight(), e.pool, true)
		if run == nil {
			return // pool full or batch full; retry on completion
		}
		e.enqueue(run)
	}
}

// inflight counts requests holding batch slots. A merged job's requests
// are in the decode batch, so only the merge list's unmerged tail counts.
func (e *Engine) inflight() int {
	n := e.decode.Size()
	if e.active != nil {
		n += len(e.active.reqs)
	}
	for i := 0; i < e.queue.Len(); i++ {
		n += len(e.queue.At(i).reqs)
	}
	for _, j := range e.merging[e.merged:] {
		n += len(j.reqs)
	}
	return n
}

// enqueue wraps an admitted request into a prefill job, batching it with
// the most recent waiting job when the token budget allows, and applies
// the preemption policy.
func (e *Engine) enqueue(run *serve.Running) {
	seq := run.PrefillSeq()
	if n := e.queue.Len(); n > 0 {
		last := e.queue.At(n - 1)
		if !last.isPreemptor && last.newTokens()+seq.New <= maxPrefillBatchTokens {
			last.reqs = append(last.reqs, run)
			last.seqs = append(last.seqs, seq)
			if last == e.layerOf {
				e.layerOf = nil
			}
			return
		}
	}
	job := e.jobs.Get()
	if job.eng == nil { // the pool had no job to recycle
		*job = prefillJob{eng: e, reqs: make([]*serve.Running, 0, jobCap), seqs: make([]model.Seq, 0, jobCap)}
	}
	job.reqs = append(job.reqs, run)
	job.seqs = append(job.seqs, seq)
	job.arrival = e.env.Sim.Now()
	e.queue.Push(job)
	e.maybePreempt(job)
}

// deadline returns a prefill batch's TTFT deadline: the SLO target plus a
// slack proportional to the batch's own full-device service demand, so an
// 80K-token prefill is not judged by a chatbot deadline (the per-token
// TTFT view of §4.4.3).
func (e *Engine) deadline(j *prefillJob) sim.Time {
	own := e.est.PrefillPhase(j.seqs, e.env.Spec.SMs)
	return j.arrival + e.env.SLO.TTFT + sim.Time(1.2*float64(own))
}

// maybePreempt moves job to the head of the prefill stream if waiting
// would violate its TTFT deadline, the active job tolerates the pause,
// and no preemption is already in force (§3.4.2, non-recursive).
func (e *Engine) maybePreempt(job *prefillJob) {
	if !e.opts.Preemption || !e.opts.LayerWise {
		return
	}
	a := e.active
	last := e.queue.Len() - 1
	if a == nil || a.isPreemptor || last < 0 || e.queue.At(last) != job {
		return
	}
	if e.env.SLO.TTFT <= 0 {
		return
	}
	now := e.env.Sim.Now()
	prefSMs := e.prefillSMs()
	if prefSMs <= 0 {
		prefSMs = e.env.Spec.SMs - e.configs[len(e.configs)/2]
	}
	// Wait if not preempting: remaining layers of the active job plus
	// everything queued ahead.
	rem := e.est.PrefillPhase(a.seqs, prefSMs)
	aRem := sim.Time(float64(rem) * float64(e.env.Arch.Layers-a.layersDone) / float64(e.env.Arch.Layers))
	wait := aRem
	for i := 0; i < last; i++ {
		wait += e.est.PrefillPhase(e.queue.At(i).seqs, prefSMs)
	}
	own := e.est.PrefillPhase(job.seqs, prefSMs)
	if now+wait+own <= e.deadline(job) {
		return // queueing meets the deadline; no preemption needed
	}
	// The pause must be tolerable for the active job: either it still
	// meets its own deadline, or the preemptor is short relative to the
	// active job's remaining work (the "short preempts long" pattern of
	// §3.4.2 — a long job is barely delayed by a short one, while the
	// converse would wreck the short request's TTFT).
	meetsOwn := now+own+aRem <= e.deadline(a)
	short := own*2 <= aRem
	if !meetsOwn && !short {
		return
	}
	job.isPreemptor = true
	// Pause the active job: it re-enters the queue right behind the
	// preemptor and later resumes from layersDone.
	e.queue.Remove(job)
	e.queue.PushFront(a)
	e.queue.PushFront(job)
	e.active = nil // in-air layers drain, then the preemptor runs
	if e.prefillSpan {
		e.prefillSpan = false
		e.env.Trace.End(now, e.track("prefill"), "prefill", traceArg("outcome", "preempted"))
	}
}

// traceArg builds one flight-recorder annotation; a tiny alias so emit
// sites stay on one line.
func traceArg(k string, v any) obs.Arg { return obs.Arg{Key: k, Val: v} }

// prefillSMs returns the SMs the prefill partition would own under the
// current split.
func (e *Engine) prefillSMs() int {
	if e.decode.Size() == 0 && !e.decode.Running {
		return e.env.Spec.SMs
	}
	return e.env.Spec.SMs - e.curConfig
}

// schedule is the dispatcher entry point, invoked at arrivals, decode
// iteration boundaries, and prefill completions.
func (e *Engine) schedule() {
	e.startDecode()
	e.pumpPrefill()
}

// chooseConfig picks the smallest decode partition whose worst-case TBT
// meets the SLO given the co-running prefill shape.
func (e *Engine) chooseConfig() int {
	if !e.hasPrefillWork() {
		return e.env.Spec.SMs // no prefill: decode owns the device
	}
	bs := e.decode.Size()
	totalCtx := e.decode.TotalCtx()
	pNew, pReused := 0, 0
	if e.active != nil {
		pNew, pReused = e.active.newTokens(), e.active.reusedTokens()
	} else if e.queue.Len() > 0 {
		pNew, pReused = e.queue.Front().newTokens(), e.queue.Front().reusedTokens()
	}
	margin := e.env.Spec.GraphLaunch + sim.Millisecond
	for _, cfg := range e.configs {
		worst := e.est.DecodeWorst(totalCtx, bs, cfg, pNew, pReused)
		if e.opts.NoGuard {
			worst = e.est.DecodeSolo(totalCtx, bs, cfg)
		}
		if worst+margin <= e.env.SLO.TBT {
			return cfg
		}
	}
	return e.configs[len(e.configs)-1]
}

// reconfigure applies a partition split, recording the timeline. Sizes
// take effect for kernels that begin executing afterwards.
func (e *Engine) reconfigure(decodeSMs int) {
	prefillSMs := e.env.Spec.SMs - decodeSMs
	if e.env.Trace != nil && decodeSMs != e.curConfig {
		e.env.Trace.Counter(e.env.Sim.Now(), e.track("decode"), "sm-partition",
			traceArg("decode", decodeSMs), traceArg("prefill", prefillSMs))
	}
	e.curConfig = decodeSMs
	e.decodeP.SetSMs(decodeSMs)
	e.prefillP.SetSMs(prefillSMs)
	e.Timeline().Record(e.env.Sim.Now(), decodeSMs, prefillSMs)
}

// startDecode launches the next decode iteration if one is due.
func (e *Engine) startDecode() {
	if e.decode.Running || e.decode.Size() == 0 {
		return
	}
	// Without query-based synchronization the next iteration blocks
	// until the in-flight prefill phase completes (§3.2.3): the merge
	// requires a synchronous join with the prefill stream.
	if !e.opts.QuerySync && e.active != nil {
		return // resumed by prefill completion
	}
	e.reconfigure(e.chooseConfig())
	e.decode.Launch(e.decodeP, e.env.GPUs, 0)
}

// decodeSolo predicts a decode iteration of bs requests over ctx context
// tokens on the current decode partition, running alone.
func (e *Engine) decodeSolo(ctx, bs int) sim.Time {
	if key := [3]int{ctx, bs, e.curConfig}; key != e.soloFor {
		e.solo, e.soloFor = e.est.DecodeSolo(ctx, bs, e.curConfig), key
	}
	return e.solo
}

// decodeDone is the bound boundary handler of decode iterations.
func decodeDone(arg any, finished []*serve.Running) { arg.(*Engine).onDecodeDone(finished) }

// decodeQuiet is the decode stream's quiet predicate: the boundary only
// launches the next iteration on the whole device when no prefill is
// active or queued and decode already owns every SM. Then none awaits a
// merge either: finishPrefill queues a merge only while an iteration runs
// beside a prefill partition with SMs, and the iteration's split holds
// until its boundary, so a merge list is non-empty only while decode holds
// fewer than all SMs.
func decodeQuiet(arg any) bool {
	e := arg.(*Engine)
	return e.active == nil && e.queue.Len() == 0 && e.curConfig == e.env.Spec.SMs
}

// onDecodeDone ends one decode iteration whose batch the stream has
// stepped: refine the guard, release the finished requests, merge
// finished prefills (query sync), and continue.
func (e *Engine) onDecodeDone(finished []*serve.Running) {
	now := e.env.Sim.Now()
	// Runtime refinement of the contention guard (§3.3.2): observed
	// iteration latency over predicted solo, both of the iteration as
	// it launched. The partition has not changed since.
	if e.active != nil {
		start, bs, ctx := e.decode.InFlight()
		if solo := e.decodeSolo(ctx, bs); solo > 0 {
			actual := now - start - e.env.Spec.GraphLaunch
			slow := float64(actual) / float64(solo)
			e.est.ObserveSlowdown(e.active.newTokens(), e.active.reusedTokens(),
				bs, ctx, e.curConfig, slow)
		}
	}

	for _, r := range finished {
		r.Complete(e.pool)
	}
	// Query-based synchronization: fold in prefills that completed while
	// the iteration ran.
	for i, j := range e.merging {
		e.merged = i + 1
		e.mergeJob(j)
	}
	for _, j := range e.merging {
		e.releaseJob(j)
	}
	clear(e.merging)
	e.merging, e.merged = e.merging[:0], 0
	if len(finished) > 0 {
		e.admitPending()
	}
	e.schedule()
}

// mergeJob emits first tokens for the job's requests and moves the
// still-generating ones into the decode batch, then admits arrivals into
// the slots its finished requests left. A job on the merge list must be
// outside inflight's count first (merged). The caller releases the job
// once nothing refers to it.
func (e *Engine) mergeJob(j *prefillJob) {
	now := e.env.Sim.Now()
	for i, r := range j.reqs {
		e.env.Rec.PrefillDone(j.seqs[i].New)
		if serve.FirstToken(e.env.Rec, r, now) {
			r.Complete(e.pool)
			continue
		}
		e.decode.Add(r)
	}
	e.admitPending()
}

// releaseJob returns a merged job to the pool. Every layer of a merged job
// has retired, so no kernel holds it as its callback argument, and it has
// left the active slot and the queue. Its reqs and seqs keep their
// capacity, and the layer price cached for it is dropped: the next job
// that reuses the pointer must be priced afresh.
func (e *Engine) releaseJob(j *prefillJob) {
	if e.layerOf == j {
		e.layerOf = nil
	}
	clear(j.reqs)
	*j = prefillJob{eng: e, reqs: j.reqs[:0], seqs: j.seqs[:0]}
	e.jobs.Release(j)
}

// pumpPrefill keeps the prefill stream fed with layer launches. It runs
// at every layer boundary, so it prices nothing that has not changed
// since the last one: the layer kernel and T_P come from price, and T_d
// from the running decode iteration.
func (e *Engine) pumpPrefill() {
	for e.active == nil && e.queue.Len() > 0 {
		j := e.queue.Pop()
		if j.layersDone >= e.env.Arch.Layers {
			continue // completed while preempted; finishPrefill owns it
		}
		e.active = j
	}
	j := e.active
	if j == nil {
		return
	}
	if e.env.Trace != nil && !e.prefillSpan {
		e.prefillSpan = true
		e.env.Trace.Begin(e.env.Sim.Now(), e.track("prefill"), "prefill",
			traceArg("reqs", len(j.reqs)), traceArg("new_tokens", j.newTokens()),
			traceArg("reused_tokens", j.reusedTokens()), traceArg("preemptor", j.isPreemptor))
	}
	// The prefill partition only has SMs after a reconfiguration. It
	// takes the whole device when decode is idle — or when decode is
	// deliberately blocked on the prefill phase (the w/o query-sync
	// ablation serializes the phases, so prefill must not starve).
	if !e.decode.Running && (e.decode.Size() == 0 || !e.opts.QuerySync) {
		e.reconfigure(0)
	}
	if e.prefillP.SMs() <= 0 {
		return // wait for the next decode boundary to obtain a share
	}
	if !e.opts.LayerWise {
		e.launchWholePhase(j)
		return
	}
	e.price(j)
	// Target in-flight layers: enough to cover one decode iteration
	// (N_PL = ceil(T_d·N_T / T_P), §3.4.2), at least 2 for pipelining.
	// While an iteration runs, neither the batch nor curConfig changes
	// before its boundary, so its launch-time prediction is T_d.
	nTarget := 2
	if e.decode.Size() > 0 {
		bs, ctx := e.decode.Size(), e.decode.TotalCtx()
		if e.decode.Running {
			_, bs, ctx = e.decode.InFlight()
		}
		td := e.decodeSolo(ctx, bs)
		if tp := e.layerTP; tp > 0 {
			n := int(float64(td)*float64(e.env.Arch.Layers)/float64(tp)) + 1
			if n > nTarget {
				nTarget = n
			}
		}
	}
	for j.layersInAir < nTarget && j.layersDone+j.layersInAir < e.env.Arch.Layers {
		e.launchLayer(j)
	}
}

// price makes e.layer and e.layerTP current for j on the prefill
// partition's present size, which must be positive. Every layer of a job
// costs the same, so the kernel is priced once per job (again only after
// a preemption switched jobs or an arrival joined it), and T_P once per
// job and partition size.
func (e *Engine) price(j *prefillJob) {
	if e.layerOf != j {
		cost := e.env.Arch.PrefillLayer(j.seqs, e.env.GPUs, true)
		e.layer = gpu.NewKernel("prefill-layer", gpu.Prefill, cost, e.env.Spec.LayerLaunch)
		e.layerOf = j
		e.layerSMs = 0
	}
	if sms := e.prefillP.SMs(); sms != e.layerSMs {
		e.layerTP = e.est.PrefillPhase(j.seqs, sms)
		e.layerSMs = sms
	}
}

// launchLayer issues one prefill layer kernel, priced by price.
func (e *Engine) launchLayer(j *prefillJob) {
	j.layersInAir++
	e.prefillP.LaunchFn(e.layer, layerDone, j)
}

// layerDone is the bound completion callback for prefill layer kernels.
func layerDone(arg any) {
	j := arg.(*prefillJob)
	j.eng.onLayerDone(j)
}

// launchWholePhase issues a single monolithic prefill kernel (the
// non-layer-wise ablation). Its host launch costs Layers·LayerLaunch and
// blocks every later launch behind it.
func (e *Engine) launchWholePhase(j *prefillJob) {
	if j.layersInAir > 0 {
		return
	}
	j.layersInAir = e.env.Arch.Layers
	e.prefillP.LaunchFn(e.env.PrefillPhaseKernel(j.seqs, e.env.GPUs), wholePhaseDone, j)
}

// wholePhaseDone is the bound completion callback for monolithic prefill
// phases (the non-layer-wise ablation).
func wholePhaseDone(arg any) {
	j := arg.(*prefillJob)
	j.layersInAir = 0
	j.layersDone = j.eng.env.Arch.Layers
	j.eng.finishPrefill(j)
}

// onLayerDone advances a job by one layer.
func (e *Engine) onLayerDone(j *prefillJob) {
	j.layersInAir--
	j.layersDone++
	if j.layersDone >= e.env.Arch.Layers {
		e.finishPrefill(j)
		return
	}
	e.pumpPrefill()
}

// finishPrefill completes a prefill batch: merge immediately when the
// decode stream is idle, otherwise wait for the iteration boundary. The
// job may still sit in the queue when it completes while preempted (its
// in-flight layers drained after it was paused) — it must leave the
// queue too, or a finished zombie would later occupy the active slot.
func (e *Engine) finishPrefill(j *prefillJob) {
	if e.active == j {
		e.active = nil
		if e.prefillSpan {
			e.prefillSpan = false
			e.env.Trace.End(e.env.Sim.Now(), e.track("prefill"), "prefill",
				traceArg("outcome", "done"))
		}
	}
	e.queue.Remove(j)
	if e.decode.Running {
		e.merging = append(e.merging, j)
		e.pumpPrefill() // next job can use the prefill partition meanwhile
		return
	}
	e.mergeJob(j)
	e.releaseJob(j)
	e.schedule()
}
