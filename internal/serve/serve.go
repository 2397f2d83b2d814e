// Package serve defines the pieces every serving engine shares: the
// engine interface, the runtime view of a request, the trace runner that
// couples a workload to an engine on a simulated cluster, and the engine
// skeleton — Base (Name, Timeline, Devices, CachePools), the Queue ring
// FIFO, the Env.AdmitNext admission step, the DecodeStream decode loop
// and the FirstToken/NewKernel helpers — so that each engine package
// keeps only its scheduling decisions: which partition or GPU group runs
// what, when prefill and decode take turns, how prefills batch or chunk,
// and where KV lives.
package serve

import (
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/obs"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// Env is everything an engine needs to build itself.
type Env struct {
	Sim  *sim.Sim
	Spec gpu.Spec
	GPUs int // physical GPUs available to the engine
	Arch model.Arch
	SLO  metrics.SLO
	Rec  *metrics.Recorder

	// ReserveFrac of HBM is withheld from the KV pool for activations,
	// CUDA graphs and allocator slack.
	ReserveFrac float64

	// MaxBatch caps the decode batch size (SGLang default-style).
	MaxBatch int

	// CostModel names the step-time estimator engines resolve through
	// Cost(): "fitted" (default) or "roofline".
	CostModel string

	// Trace is the flight recorder, nil when tracing is off. Engines
	// emitting their own spans (scheduler phases, partition counters)
	// read it directly; request lifecycle events flow through Rec.
	Trace *obs.Tracer

	// Label names the instance's trace track (set by NewInstance).
	Label string
}

// Admitted records on the metrics recorder that the engine just
// accepted request id out of its arrival queue — every engine calls
// this at its serve.Admit (or equivalent) success path so SLO misses
// can be split into queue-wait vs prefill time.
func (e *Env) Admitted(id int) { e.Rec.Admitted(id, e.Sim.Now()) }

// PoolTokens returns the KV pool capacity for an instance spanning gpus
// devices, given the env's model and reserve fraction.
func (e *Env) PoolTokens(gpus int) int64 {
	return e.Arch.KVPoolTokens(int64(gpus)*e.Spec.HBMCapacity, e.ReserveFrac)
}

// Engine is a serving scheduler under test.
type Engine interface {
	Name() string
	// Submit delivers a request at its arrival time (called by the
	// runner from inside the simulation).
	Submit(r *workload.Request)
	// Timeline returns the engine's partition timeline if it keeps one.
	Timeline() *metrics.Timeline
	// Devices exposes the engine's logical devices for utilization
	// accounting.
	Devices() []*gpu.Device
	// CachePools exposes the engine's KV pools, the prefix-lookup pool
	// first, so the runner and the cluster rollups can report cache-hit
	// rates without knowing engine internals. Engines without a prefix
	// cache return none.
	CachePools() []*kvcache.Pool
}

// Factory builds an engine inside a prepared environment.
type Factory func(env *Env) Engine

// Running is a request in flight: admission state plus decode progress.
type Running struct {
	R *workload.Request

	// CachedTokens is the prefix-cache hit measured at admission.
	CachedTokens int
	// PinnedPages counts radix pages pinned for the request's lifetime.
	PinnedPages int
	// ReservedTokens is pool space reserved for new KV (input miss +
	// output).
	ReservedTokens int64

	// Generated counts decode tokens produced so far.
	Generated int
	// PrefilledTokens tracks chunked progress through the new context.
	PrefilledTokens int

	// RecSlot caches the request's record in the engine's recorder for
	// the per-token calls of Batch.StepInto.
	RecSlot metrics.Slot
}

// CtxTokens returns the current attended context length.
func (r *Running) CtxTokens() int { return r.R.InputTokens + r.Generated }

// DecodeDone reports whether all output tokens have been generated.
func (r *Running) DecodeDone() bool { return r.Generated >= r.R.OutputTokens }

// PrefillRemaining returns new-context tokens not yet prefilled.
func (r *Running) PrefillRemaining() int {
	rem := r.R.InputTokens - r.CachedTokens - r.PrefilledTokens
	if rem < 0 {
		return 0
	}
	return rem
}

// Admit performs cache lookup, pinning and pool reservation for a
// request, reserving the prompt tokens the prefix cache missed plus extra
// (the output tokens, for engines that decode in the same pool). It
// returns nil when the pool cannot hold the reservation (the caller
// should queue and retry after a completion frees space).
func Admit(pool *kvcache.Pool, r *workload.Request, extra int) *Running {
	hit := pool.MatchTokens(r.Pages, r.InputTokens)
	hitPages := hit / pool.PageTokens()
	need := int64(r.InputTokens - hit + extra)
	if !pool.Reserve(need) {
		// Lookup statistics stand: the lookup really happened; only the
		// reservation failed.
		return nil
	}
	pool.Pin(r.Pages, hitPages)
	return &Running{
		R:              r,
		CachedTokens:   hit,
		PinnedPages:    hitPages,
		ReservedTokens: need,
	}
}

// Complete publishes the finished request's KV into the pool and releases
// its pins and reservation.
func (r *Running) Complete(pool *kvcache.Pool) {
	pool.Unpin(r.R.Pages, r.PinnedPages)
	pool.Release(r.ReservedTokens)
	pool.Insert(r.R.AllPages)
}

// Abort releases admission state without publishing KV (used by engines
// that drop work on reconfiguration, e.g. LoongServe scale-down).
func (r *Running) Abort(pool *kvcache.Pool) {
	pool.Unpin(r.R.Pages, r.PinnedPages)
	pool.Release(r.ReservedTokens)
}

// Batch is a decode batch.
type Batch struct {
	Reqs []*Running
}

// Size returns the batch size.
func (b *Batch) Size() int { return len(b.Reqs) }

// CtxsInto fills dst (reusing its capacity) with the per-request attended
// context lengths for the cost model and returns it. The cost model reads
// the slice synchronously and never retains it.
func (b *Batch) CtxsInto(dst []int) []int {
	dst = dst[:0]
	for _, r := range b.Reqs {
		dst = append(dst, r.CtxTokens())
	}
	return dst
}

// TotalCtx returns the summed context length of the batch.
func (b *Batch) TotalCtx() int {
	t := 0
	for _, r := range b.Reqs {
		t += r.CtxTokens()
	}
	return t
}

// Add appends a request to the batch.
func (b *Batch) Add(r *Running) { b.Reqs = append(b.Reqs, r) }

// StepInto credits one generated token to every request at time now and
// removes the requests that finished, appending them to dst (reusing its
// capacity, so per-iteration stepping does not allocate).
func (b *Batch) StepInto(now sim.Time, rec *metrics.Recorder, dst []*Running) []*Running {
	finished := dst[:0]
	keep := b.Reqs[:0]
	for _, r := range b.Reqs {
		r.Generated++
		rec.TokenSlot(&r.RecSlot, r.R.ID, now)
		if r.DecodeDone() {
			rec.Finish(r.R.ID, now)
			finished = append(finished, r)
		} else {
			keep = append(keep, r)
		}
	}
	b.Reqs = keep
	return finished
}
