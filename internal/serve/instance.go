package serve

import (
	"muxwise/internal/kvcache"
	"muxwise/internal/metrics"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// Instance is one engine embedded in a simulation it does not own. It
// bundles the engine with its environment, whose private recorder
// (Rec) and trace label (Label) it promotes, so several instances (a
// replica fleet) can share a single deterministic event loop. Run is a
// thin wrapper over a single Instance.
type Instance struct {
	*Env
	Eng Engine
}

// NewInstance builds an engine inside the shared simulator s. An empty
// label names the instance after its engine.
func NewInstance(s *sim.Sim, f Factory, cfg Config, label string) *Instance {
	env := &Env{Config: cfg, Sim: s, Rec: metrics.NewRecorder(), Label: label}
	inst := &Instance{Env: env, Eng: f(env)}
	if label == "" {
		env.Label = inst.Eng.Name()
	}
	env.Rec.SetTrace(cfg.Trace, env.Label)
	return inst
}

// Submit records the request's arrival and delivers it to the engine.
// It must be called from inside the simulation at the arrival time (or
// later, when a fleet controller re-dispatches a request off a failed
// replica: the recorder keeps the original arrival, so the failover
// latency shows up in TTFT).
func (i *Instance) Submit(r *workload.Request) {
	if i.Rec.Halted() {
		return
	}
	i.Rec.Arrive(r.ID, r.Arrival, r.InputTokens)
	i.Eng.Submit(r)
}

// Open returns the IDs of in-flight (arrived, unfinished) requests in
// arrival order — what a drain or failure must surface for re-dispatch.
func (i *Instance) Open() []int { return i.Rec.OpenIDs() }

// Halt freezes the instance at the current instant: the recorder stops
// accepting samples and Submit becomes a no-op. The engine's already
// scheduled simulation events still fire (there is no way to revoke a
// crashed replica's pending callbacks without every engine's
// cooperation), but none of that ghost work can reach the metrics. The
// caller snapshots Result and CacheStats at the halt instant; later
// reads of either would include ghost activity.
func (i *Instance) Halt() { i.Rec.Halt() }

// Abort withdraws one in-flight request from the instance's metrics so
// it can be re-dispatched to another replica under the same ID. The
// engine keeps simulating the request (its KV stays until completion
// publishes or eviction reclaims it), but tokens it emits after the
// abort are discarded by the recorder. Reports whether an in-flight
// record was removed.
func (i *Instance) Abort(id int) bool { return i.Rec.Abort(id) }

// PreloadKV publishes externally streamed KV pages into the pool the
// engine's admission matches against — the first reported cache pool,
// which is the prefix-lookup side for every engine here (the sole pool
// of aggregated engines, the prefill pool of disaggregated ones). The
// cluster's KV-migration path calls this at stream-arrival time so the
// migrated session's next turn admits as a cache hit instead of paying
// a re-prefill. Returns pages actually inserted (capacity may evict or
// truncate); a halted instance or a pool-less engine accepts nothing.
// The pool keeps the pages by reference, so they must not change
// afterwards (the migration path passes the session's trace pages).
func (i *Instance) PreloadKV(pages []kvcache.PageID) int {
	pools := i.Eng.CachePools()
	if i.Rec.Halted() || len(pages) == 0 || len(pools) == 0 {
		return 0
	}
	return pools[0].Insert(pages)
}

// PeekKV reports how many leading pages of the sequence the engine's
// matching pool still holds, and the pool's page granularity in tokens,
// without touching recency or statistics. KV migration uses it to clamp
// what a drain can stream to what the pool physically retains — evicted
// KV cannot be migrated.
func (i *Instance) PeekKV(pages []kvcache.PageID) (matched, pageTokens int) {
	pools := i.Eng.CachePools()
	if len(pools) == 0 {
		return 0, 0
	}
	return pools[0].Peek(pages), pools[0].PageTokens()
}

// CacheStats aggregates cache statistics across the engine's pools; it
// returns zeros when the engine exposes none.
func (i *Instance) CacheStats() kvcache.Stats {
	var agg kvcache.Stats
	for _, p := range i.Eng.CachePools() {
		agg.Add(p.Stats())
	}
	return agg
}

// CacheHit returns the token-weighted prefix-cache hit rate across the
// engine's pools, or 0 when the engine exposes none.
func (i *Instance) CacheHit() float64 { return i.CacheStats().HitRate() }

// Result snapshots the instance's run result at simulation time now.
func (i *Instance) Result(now sim.Time) Result {
	res := Result{
		Summary:  i.Rec.Summarize(i.Label, now),
		Timeline: i.Eng.Timeline(),
		Rec:      i.Rec,
		CacheHit: i.CacheHit(),
	}
	for _, d := range i.Eng.Devices() {
		res.Devices = append(res.Devices, d.Stats())
	}
	return res
}
