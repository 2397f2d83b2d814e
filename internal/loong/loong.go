// Package loong implements the LoongServe-style dynamic disaggregation
// baseline (§2.3.1, §4.1): elastic sequence parallelism scales the GPU
// group per request phase — prefill grabs as many free GPUs as its
// sequence length warrants, decode consolidates onto the fewest GPUs
// whose memory holds the active KV. The two structural properties the
// paper criticises are modelled faithfully: scale-down releases KV
// immediately, so *no* cross-request reuse survives (multi-turn context
// is recomputed from scratch), and sequence-parallel replication streams
// the model weights once per SP slice during decode.
package loong

import (
	"muxwise/internal/arena"
	"muxwise/internal/gpu"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/workload"
)

// prefillTokensPerGPU sizes elastic prefill groups: one GPU per this many
// input tokens.
const prefillTokensPerGPU = 8192

// Engine is the dynamic-disaggregation baseline.
type Engine struct {
	serve.Base
	env *serve.Env

	baseTP     int // tensor parallelism inside each SP slice
	total      int
	free       int
	decodeGs   int // GPUs currently in the decode group
	decodePart map[int]*gpu.Partition

	// Admission reserves each request's full context (its
	// ReservedTokens) against the cluster-wide capacity.
	capTokensPerGPU int64
	reservedTokens  int64

	decode  serve.DecodeStream
	queue   arena.Queue[*pjob]
	pending arena.Queue[*workload.Request]
	jobs    arena.Pool[pjob] // migrated jobs, for admit to reuse
}

// pjob is one request's prefill, from admission until its KV lands in
// the decode group, where mergeAfterMigrate recycles it.
type pjob struct {
	eng  *Engine
	run  *serve.Running
	gpus int
}

// New builds a LoongServe-style engine. Model parallelism follows the
// paper's configuration: TP=4 per slice for large models, TP=2 for small.
func New(env *serve.Env) serve.Engine {
	baseTP := 2
	if env.Arch.Params() > 30e9 {
		baseTP = 4
	}
	baseTP = min(baseTP, env.GPUs)
	perGPU := float64(env.Spec.HBMCapacity)*(1-serve.ReserveFrac) - env.Arch.WeightBytes()/float64(baseTP)
	e := &Engine{
		Base:            serve.NewBase("LoongServe", nil),
		env:             env,
		baseTP:          baseTP,
		total:           env.GPUs,
		free:            env.GPUs,
		decodePart:      map[int]*gpu.Partition{},
		capTokensPerGPU: max(0, int64(perGPU/env.Arch.KVBytesPerToken())),
	}
	e.decode.Bind(env, decodeDone, decodeQuiet, e)
	return e
}

// Submit implements serve.Engine.
func (e *Engine) Submit(r *workload.Request) {
	e.pending.Push(r)
	e.admit()
	e.schedule()
}

// admit checks cluster-wide KV capacity; LoongServe has no prefix cache,
// so admission just reserves memory for the request's full context.
func (e *Engine) admit() {
	for e.pending.Len() > 0 {
		if e.decode.Size()+e.queue.Len() >= serve.MaxBatch {
			return
		}
		r := e.pending.Front()
		need := int64(r.InputTokens + r.OutputTokens)
		if e.reservedTokens+need > e.capTokensPerGPU*int64(e.total) {
			return
		}
		e.env.Admitted(r.ID)
		e.pending.Pop()
		e.reservedTokens += need
		// CachedTokens stays 0: no reuse.
		run := e.env.NewRunning(r)
		run.ReservedTokens = need
		job := e.jobs.Get()
		*job = pjob{eng: e, run: run}
		e.queue.Push(job)
	}
}

func (e *Engine) schedule() {
	// An idle decode group returns its GPUs to the elastic pool — the
	// scale-to-zero flexibility Fig. 4b illustrates.
	if e.decode.Size() == 0 && !e.decode.Running && e.decodeGs > 0 {
		e.free += e.decodeGs
		e.decodeGs = 0
	}
	e.startPrefills()
	e.startDecode()
}

// roundUpTP rounds a GPU count up to a multiple of the TP slice width.
func (e *Engine) roundUpTP(g int) int {
	if g < e.baseTP {
		return e.baseTP
	}
	if rem := g % e.baseTP; rem != 0 {
		g += e.baseTP - rem
	}
	return g
}

// prefillGPUs returns the elastic group a queued job would get now: the
// TP slices its input warrants, cut to the whole slices free. Below
// baseTP the job cannot start.
func (e *Engine) prefillGPUs(job *pjob) int {
	g := e.roundUpTP((job.run.R.InputTokens + prefillTokensPerGPU - 1) / prefillTokensPerGPU)
	if g > e.free {
		g = e.roundUpTP(e.free) // roundUp may exceed free; check below
		if g > e.free {
			g -= e.baseTP
		}
	}
	return g
}

// startPrefills elastically assigns free GPUs to queued prefill jobs.
func (e *Engine) startPrefills() {
	for e.queue.Len() > 0 {
		job := e.queue.Front()
		g := e.prefillGPUs(job)
		if g < e.baseTP {
			return // no capacity; wait for a release
		}
		e.queue.Pop()
		e.free -= g
		job.gpus = g
		e.launchPrefill(job)
	}
}

// launchPrefill runs the job's whole prefill phase on a fresh elastic
// group of job.gpus GPUs. The full context is recomputed (Reused = 0).
func (e *Engine) launchPrefill(job *pjob) {
	dev := gpu.NewDevice(e.env.Sim, e.env.Spec, job.gpus, "loong-prefill")
	e.AddDevice(dev)
	k := e.env.PrefillPhaseKernel([]model.Seq{{New: job.run.R.InputTokens}}, job.gpus)
	dev.Partition(e.env.Spec.SMs, "prefill").LaunchFn(k, prefillDone, job)
}

// prefillDone / mergeAfterMigrate / decodeDone / decodeQuiet are the
// engine's bound callbacks: the pjob or engine rides as the argument, so
// steady-state scheduling allocates no closures.
func prefillDone(arg any) { j := arg.(*pjob); j.eng.onPrefillDone(j) }

func mergeAfterMigrate(arg any) {
	j := arg.(*pjob)
	e, run := j.eng, j.run
	e.jobs.Release(j) // its KV has landed: no event holds the job any more
	e.onMigrated(run)
}

func decodeDone(arg any, finished []*serve.Running) { arg.(*Engine).onDecodeDone(finished) }

// decodeQuiet is the decode stream's quiet predicate: no queued prefill
// can start, and the decode group keeps its size, so the next iteration
// runs on the same group.
func decodeQuiet(arg any) bool {
	e := arg.(*Engine)
	return (e.queue.Len() == 0 || e.prefillGPUs(e.queue.Front()) < e.baseTP) && e.groupSize() == e.decodeGs
}

// onPrefillDone releases the elastic group and migrates the KV into the
// decode group.
func (e *Engine) onPrefillDone(job *pjob) {
	e.free += job.gpus
	run := job.run
	e.env.Rec.PrefillDone(run.R.InputTokens)
	// Freed GPUs may unblock queued prefills or a starved decode group
	// before the KV migration completes.
	defer e.schedule()
	e.env.Sim.AfterFunc(e.env.KVTransferDelay(run.R.InputTokens, job.gpus), mergeAfterMigrate, job)
}

// onMigrated lands a prefilled request in the decode group once its KV
// migration completes.
func (e *Engine) onMigrated(run *serve.Running) {
	if serve.FirstToken(e.env.Rec, run, e.env.Sim.Now()) {
		e.release(run)
	} else {
		e.decode.Add(run)
	}
	e.schedule()
}

// release returns a finished request's KV reservation and admits what
// now fits.
func (e *Engine) release(run *serve.Running) {
	e.reservedTokens -= run.ReservedTokens
	e.admit()
}

// resizeDecodeGroup consolidates the decode group to groupSize GPUs.
func (e *Engine) resizeDecodeGroup() {
	gs := e.groupSize()
	e.free -= gs - e.decodeGs
	e.decodeGs = gs
}

// groupSize returns the decode group size that holds the active decode
// KV on the fewest GPUs: it grows by at most the free GPUs, in whole TP
// slices, and shrinks to fit.
func (e *Engine) groupSize() int {
	kvTokens := int64(e.decode.TotalCtx())
	need := e.baseTP
	if e.capTokensPerGPU > 0 {
		need = e.roundUpTP(int((kvTokens + e.capTokensPerGPU - 1) / e.capTokensPerGPU))
	}
	if need < e.baseTP {
		need = e.baseTP
	}
	if grow := need - e.decodeGs; grow > e.free {
		return e.decodeGs + (e.free/e.baseTP)*e.baseTP
	}
	return need
}

// decodePartition returns the persistent full-SM stream of the decode
// device for the current group size.
func (e *Engine) decodePartition() *gpu.Partition {
	if p, ok := e.decodePart[e.decodeGs]; ok {
		return p
	}
	d := gpu.NewDevice(e.env.Sim, e.env.Spec, e.decodeGs, "loong-decode")
	p := d.Partition(e.env.Spec.SMs, "decode")
	e.decodePart[e.decodeGs] = p
	e.AddDevice(d)
	return p
}

// startDecode runs the next iteration on the elastic decode group.
func (e *Engine) startDecode() {
	if e.decode.Running || e.decode.Size() == 0 {
		return
	}
	e.resizeDecodeGroup()
	if e.decodeGs < e.baseTP {
		return // every GPU is in a prefill group; retried on release
	}
	// Sequence parallelism replicates weights across slices: each SP
	// slice beyond the first streams the full (TP-sharded) weights again.
	replicas := float64(e.decodeGs/e.baseTP-1) * e.env.Arch.WeightBytes()
	e.decode.Launch(e.decodePartition(), e.decodeGs, replicas)
}

func (e *Engine) onDecodeDone(finished []*serve.Running) {
	for _, r := range finished {
		e.release(r)
	}
	e.schedule()
}
