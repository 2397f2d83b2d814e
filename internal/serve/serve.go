// Package serve defines the pieces every serving engine shares: the
// engine interface, the runtime view of a request, the trace runner that
// couples a workload to an engine on a simulated cluster, and the engine
// skeleton — Base (Name, Timeline, Devices, CachePools), the Queue ring
// FIFO, the Env.AdmitNext admission step, the DecodeStream decode loop
// and the FirstToken helper — so that each engine package keeps only its
// scheduling decisions: which partition or GPU group runs what, when
// prefill and decode take turns, how prefills batch or chunk, and where
// KV lives.
package serve

import (
	"muxwise/internal/arena"
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/metrics"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// Env is everything an engine needs to build itself: the deployment it
// serves (the embedded Config), the simulator it runs in and the
// recorder its requests report to.
type Env struct {
	Config
	Sim *sim.Sim
	Rec *metrics.Recorder

	// Label names the instance's trace track (set by NewInstance).
	Label string

	// runs holds the engine's in-flight records (see NewRunning).
	runs arena.Arena[Running]
}

// NewRunning returns a fresh in-flight record for r, otherwise zero. The
// record comes from the environment's arena: it is never copied or
// recycled, so the engine may hold it for as long as it likes.
func (e *Env) NewRunning(r *workload.Request) *Running {
	run := e.runs.New()
	run.R = r
	return run
}

// Admitted records on the metrics recorder that the engine just
// accepted request id out of its arrival queue — every engine calls
// this at its Admit (or equivalent) success path so SLO misses
// can be split into queue-wait vs prefill time.
func (e *Env) Admitted(id int) { e.Rec.Admitted(id, e.Sim.Now()) }

// PoolTokens returns the KV pool capacity for an instance spanning gpus
// devices, given the config's model and the ReserveFrac withheld.
func (c *Config) PoolTokens(gpus int) int64 {
	return c.Arch.KVPoolTokens(int64(gpus)*c.Spec.HBMCapacity, ReserveFrac)
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

	// member is the request's place in its DecodeStream's token stream.
	member metrics.Member
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
// should queue and retry after a completion frees space), and otherwise
// a record from NewRunning.
func (e *Env) Admit(pool *kvcache.Pool, r *workload.Request, extra int) *Running {
	hit := pool.MatchTokens(r.Pages, r.InputTokens)
	hitPages := hit / pool.PageTokens()
	need := int64(r.InputTokens - hit + extra)
	if !pool.Reserve(need) {
		// Lookup statistics stand: the lookup really happened; only the
		// reservation failed.
		return nil
	}
	pool.Pin(r.Pages, hitPages)
	run := e.NewRunning(r)
	run.CachedTokens, run.PinnedPages, run.ReservedTokens = hit, hitPages, need
	return run
}

// Complete publishes the finished request's KV into the pool and releases
// its pins and reservation.
func (r *Running) Complete(pool *kvcache.Pool) {
	pool.Unpin(r.R.Pages, r.PinnedPages)
	pool.Release(r.ReservedTokens)
	pool.Insert(r.R.AllPages)
}
