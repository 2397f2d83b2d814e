// Package pdsep implements the SGLang-PD baseline (§4.1): static
// disaggregation with a prefill instance and a decode instance at a 1:1
// GPU ratio (tensor parallelism halved per instance). Unlike DistServe,
// KV caches are shared across phases and requests: the prefill instance
// keeps a radix cache, and finished prefills migrate their KV to the
// decode instance over NVLink. The structural weaknesses the paper
// exploits are faithfully present: each instance owns only half the KV
// pool (lower hit rate, Fig. 5), the split is static (decode idles while
// prefill queues under bursts, and vice versa), and every prefill pays a
// KV migration.
package pdsep

import (
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/workload"
)

// Engine is the static-disaggregation baseline.
type Engine struct {
	serve.Base
	env *serve.Env

	tp           int // GPUs per instance
	pPart, dPart *gpu.Partition
	pPool, dPool *kvcache.Pool

	// A request's ReservedTokens holds its prefill-pool reservation until
	// the prefill publishes its KV, then its decode-pool reservation.
	decode serve.DecodeStream // holds migrated requests until a boundary

	queue   serve.Queue[*serve.Running] // waiting for the prefill instance
	handoff serve.Queue[*handoffReq]    // prefill done, waiting for decode pool space
	pending serve.Queue[*workload.Request]

	// inFlight is the prefill batch on the device, empty when the
	// prefill instance is idle; seqScratch is reused per batch.
	inFlight   []*serve.Running
	seqScratch []model.Seq
}

type handoffReq struct {
	eng *Engine
	run *serve.Running
}

// New builds an SGLang-PD engine with P:D = 1:1.
func New(env *serve.Env) serve.Engine {
	half := max(1, env.GPUs/2)
	pDev := gpu.NewDevice(env.Sim, env.Spec, half, "prefill-instance")
	dDev := gpu.NewDevice(env.Sim, env.Spec, half, "decode-instance")
	e := &Engine{
		env:   env,
		tp:    half,
		pPart: pDev.Partition(env.Spec.SMs, "prefill"),
		dPart: dDev.Partition(env.Spec.SMs, "decode"),
		pPool: kvcache.New(env.PoolTokens(half), kvcache.DefaultPageTokens),
		dPool: kvcache.New(env.PoolTokens(half), kvcache.DefaultPageTokens),
	}
	// Prefix lookups happen on the prefill side only; the decode pool
	// holds per-request KV, so it adds no hit/miss samples.
	e.Base = serve.NewBase("SGLang-PD", []*gpu.Device{pDev, dDev}, e.pPool, e.dPool)
	return e
}

// Submit implements serve.Engine.
func (e *Engine) Submit(r *workload.Request) {
	e.pending.Push(r)
	e.admit()
	e.schedule()
}

// admit reserves prefill-side KV for the input only; output KV lives on
// the decode instance.
func (e *Engine) admit() {
	for {
		inflight := e.decode.Size() + e.queue.Len() + e.handoff.Len() + e.decode.Held()
		run := e.env.AdmitNext(&e.pending, inflight, e.pPool, false)
		if run == nil {
			return
		}
		e.queue.Push(run)
	}
}

func (e *Engine) schedule() {
	e.startPrefill()
	e.tryHandoff()
	if !e.decode.Running && e.decode.Size() > 0 {
		e.decode.Launch(e.env, e.dPart, e.tp, 0, decodeDone, e)
	}
}

// maxPrefillBatchTokens caps a prefill batch, matching SGLang's budget.
const maxPrefillBatchTokens = 16384

// startPrefill runs the next batch of queued requests on the prefill
// instance (SGLang batches prefills up to its token budget).
func (e *Engine) startPrefill() {
	if len(e.inFlight) > 0 || e.queue.Len() == 0 {
		return
	}
	batch := e.inFlight[:0]
	seqs := e.seqScratch[:0]
	tokens := 0
	for e.queue.Len() > 0 {
		seq := e.queue.Front().PrefillSeq()
		if len(batch) > 0 && tokens+seq.New > maxPrefillBatchTokens {
			break
		}
		batch = append(batch, e.queue.Pop())
		seqs = append(seqs, seq)
		tokens += seq.New
	}
	e.inFlight, e.seqScratch = batch, seqs
	e.pPart.LaunchFn(e.env.PrefillPhaseKernel(seqs, e.tp), prefillBatchDone, e)
}

// prefillBatchDone / migrated / decodeDone are the engine's bound
// callbacks: the engine or handoff record rides as the event argument,
// so steady-state scheduling allocates no closures.
func prefillBatchDone(arg any) {
	e := arg.(*Engine)
	for i, run := range e.inFlight {
		e.onPrefillDone(run)
		e.inFlight[i] = nil
	}
	e.inFlight = e.inFlight[:0]
	e.schedule()
}

func migrated(arg any) { h := arg.(*handoffReq); h.eng.onMigrated(h.run) }

func decodeDone(arg any) { arg.(*Engine).onDecodeDone() }

// onPrefillDone publishes the input KV into the prefill radix cache and
// queues the request for migration to the decode instance.
func (e *Engine) onPrefillDone(run *serve.Running) {
	e.env.Rec.PrefillDone(run.R.InputTokens - run.CachedTokens)
	// The input KV is now cached on the prefill side for future turns.
	e.pPool.Unpin(run.R.Pages, run.PinnedPages)
	e.pPool.Release(run.ReservedTokens)
	e.pPool.Insert(run.R.Pages)
	e.handoff.Push(&handoffReq{eng: e, run: run})
}

// tryHandoff migrates completed prefills into the decode instance when
// its pool has room: KV crosses NVLink, then the request joins the batch
// at the next decode boundary.
func (e *Engine) tryHandoff() {
	for e.handoff.Len() > 0 {
		h := e.handoff.Front()
		need := int64(h.run.R.InputTokens + h.run.R.OutputTokens)
		if !e.dPool.Reserve(need) {
			return // decode pool full: prefill stalls (§4.3 OpenThoughts)
		}
		e.handoff.Pop()
		h.run.ReservedTokens = need
		e.env.Sim.AfterFunc(e.env.KVTransferDelay(h.run.R.InputTokens, e.tp), migrated, h)
	}
}

// onMigrated lands a request on the decode instance once its KV has
// crossed NVLink. First token is delivered after migration.
func (e *Engine) onMigrated(run *serve.Running) {
	if serve.FirstToken(e.env.Rec, run, e.env.Sim.Now()) {
		e.dPool.Release(run.ReservedTokens)
		e.admit()
	} else {
		e.decode.Join(run)
	}
	e.schedule()
}

func (e *Engine) onDecodeDone() {
	finished := e.decode.Step(e.env.Sim.Now(), e.env.Rec)
	for _, r := range finished {
		e.dPool.Release(r.ReservedTokens)
	}
	e.decode.FoldHeld()
	if len(finished) > 0 {
		e.admit()
	}
	e.schedule()
}
