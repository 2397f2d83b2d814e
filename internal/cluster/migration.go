package cluster

import (
	"slices"

	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/obs"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// KV migration on graceful takedowns. Without it, every drain, retire
// and autoscaler scale-down strands the KV of the sessions pinned to
// the leaving replica: their next turn re-sticks elsewhere and repays a
// full re-prefill (the behavior PR 2 charged through the cache-hit
// machinery, and still the fallback). With migration enabled, the
// leaving replica streams each in-flight session's KV to the replica
// its traffic re-routes to, at the modeled interconnect cost
// (kvcache.TransferTime over the gpu.LinkBetween the two shapes): the
// destination's token load carries the in-transit KV until it lands,
// the pages then publish into the destination's prefix pool so the
// session's next turn admits as a cache hit, and affinity routers are
// told to re-pin the session to its new KV holder. A crash is not
// graceful: FailReplica never streams, and it kills any stream still in
// flight through the crashed replica — half-migrated KV does not
// survive, those sessions fall back to the re-prefill penalty.

// MigrationStats aggregates a run's KV-migration accounting. Token
// conservation holds at every instant: DrainKVTokens (in-flight session
// KV observed at graceful takedowns) equals MigratedTokens (delivered)
// + CanceledTokens (lost to a crash mid-stream) + RePrefillTokens
// (never streamed: no routable target) + UndeliveredTokens (still on
// the wire when the run ended).
type MigrationStats struct {
	// Streams counts KV streams started; Completed/Canceled split their
	// outcomes. Fallbacks counts sessions that could not stream at all.
	Streams   int
	Completed int
	Canceled  int
	Fallbacks int

	// MigratedTokens is KV delivered to destinations; CanceledTokens
	// was lost mid-stream to a crash; RePrefillTokens never streamed
	// and repays a full re-prefill; UndeliveredTokens is still in
	// flight at the end of the run.
	MigratedTokens    int64
	CanceledTokens    int64
	RePrefillTokens   int64
	UndeliveredTokens int64

	// DrainKVTokens is the in-flight session KV observed at graceful
	// takedown instants — the conservation total.
	DrainKVTokens int64

	// Stall sums the stream latencies (handoff + transfer) of every
	// started stream — the time migrated sessions spent waiting on the
	// wire instead of recomputing prefill.
	Stall sim.Time
}

// sessionKV is one session's entry in the cluster's KV-holder map: the
// replica whose pool holds the session's context KV, and the token span,
// pages and segments of the latest completed turn there — what a
// graceful takedown of that replica streams out. A session has at most
// one holder; a newer holder replaces the entry.
type sessionKV struct {
	holder int // replica ID
	tokens int64
	pages  []kvcache.PageID
	segs   []workload.Segment
}

// trackKV records, at turn completion, that rep's pool now holds the
// session's context KV (Complete published AllPages there), replacing
// any previous holder — if the session hopped replicas, that copy is
// stale for routing purposes. Only ready replicas claim holdership: a
// draining replica's finishing turns were already streamed out at the
// drain instant, and their completions must not steal the session back
// from the stream's destination. No-op while migration is disabled,
// keeping the legacy fleet byte-identical.
func (c *Cluster) trackKV(rep *Replica, req *workload.Request) {
	if !c.migrate || rep.State != StateReady {
		return
	}
	c.kv[req.Session] = sessionKV{
		holder: rep.ID,
		tokens: int64(req.InputTokens + req.OutputTokens),
		pages:  req.AllPages,
		segs:   req.Segments,
	}
}

// releaseKV detaches one session from rep's holdings (ownership passes
// to a stream or dies with a crash).
func (c *Cluster) releaseKV(rep *Replica, session int) {
	if kv, ok := c.kv[session]; ok && kv.holder == rep.ID {
		delete(c.kv, session)
	}
}

// forgetKV drops every session holding still attached to a replica that
// left the fleet — whatever was not streamed out is gone.
func (c *Cluster) forgetKV(rep *Replica) {
	for session, kv := range c.kv {
		if kv.holder == rep.ID {
			delete(c.kv, session)
		}
	}
}

// migration is one KV stream. Its record comes from the cluster's pool
// and returns there when the stream's landing event fires, whether the
// stream landed or a takedown canceled it first: only then is no event
// left that holds it.
type migration struct {
	id       int // stream index, correlates the flight-recorder span
	session  int
	src, dst int // replica IDs
	tokens   int64
	pages    []kvcache.PageID   // the pages that stream
	segs     []workload.Segment // the session's content; pages lead it
	// req, when set, is a re-dispatched in-flight request held back
	// until its KV lands (an immediate retire); nil for drain streams
	// whose request finishes in place on the source.
	req *workload.Request

	canceled bool
}

// migrationTarget picks where a leaving replica's session KV streams:
// the least-loaded routable replica, preferring replicas of the
// source's role so the migrated pins do not fight role-aware routing
// (a drained prefill replica's sessions land on another prefill
// replica, not in the decode pool). Falls back to any routable replica
// when the role has no other member.
func (c *Cluster) migrationTarget(src *Replica) *Replica {
	cands := c.Routable()
	var best *Replica
	for _, rep := range cands {
		if rep.Role == src.Role && (best == nil || lighter(rep, best)) {
			best = rep
		}
	}
	if best != nil {
		return best
	}
	return leastLoaded(cands)
}

// migrateKV starts one KV stream from src. tokens/pages cover the
// session context being moved, pages being the leading pages of segs;
// req, when non-nil, is a re-dispatched request held until the stream
// lands. Returns false when no stream could start (no routable target):
// the caller falls back to the re-prefill path. Every call adds to the
// conservation total.
func (c *Cluster) migrateKV(src *Replica, session int, tokens int64, pages []kvcache.PageID, segs []workload.Segment, req *workload.Request) bool {
	c.migStats.DrainKVTokens += tokens
	dst := c.migrationTarget(src)
	if dst == nil {
		c.migStats.Fallbacks++
		c.migStats.RePrefillTokens += tokens
		return false
	}
	link := gpu.LinkBetween(src.Inst.Env.Spec, dst.Inst.Env.Spec)
	d := kvcache.TransferTime(tokens, c.kvBytesPerToken, link)
	m := c.migPool.Get()
	*m = migration{id: c.migStats.Streams, session: session, src: src.ID, dst: dst.ID, tokens: tokens, pages: pages, segs: segs, req: req}
	c.migs = append(c.migs, m)
	c.migStats.Streams++
	c.migStats.Stall += d
	if c.trace != nil {
		c.trace.AsyncBegin(c.Sim.Now(), "migration", "kv-migration", int64(m.id), "kv-stream",
			obs.Arg{Key: "session", Val: session},
			obs.Arg{Key: "src", Val: src.Name},
			obs.Arg{Key: "dst", Val: dst.Name},
			obs.Arg{Key: "tokens", Val: tokens},
			obs.Arg{Key: "bytes", Val: int64(float64(tokens) * c.kvBytesPerToken)},
			obs.Arg{Key: "link", Val: link.Class.String()},
			obs.Arg{Key: "eta_ms", Val: d.Milliseconds()},
			obs.Arg{Key: "holds_request", Val: req != nil})
	}
	if req != nil {
		c.heldReqs[req.ID] = true
	}

	// The in-transit KV counts against the destination's token load
	// from the moment the stream is committed, so routers see the
	// capacity it is about to occupy; on arrival it moves into the
	// destination's prefix pool (real capacity, eviction pressure).
	dst.outTokens += tokens
	dst.migTokens += tokens
	src.kvOut += tokens
	if req != nil {
		c.migHeld++
	}
	c.record(LogEntry{Kind: LogMigrate, Replica: src.Name, Dst: dst.Name,
		Session: session, Count: tokens, Link: link.Class, Dur: d})
	c.Sim.AfterFunc(d, c.finishFn, m)
	return true
}

// finishMigration lands one stream: the pages publish into the
// destination's prefix pool, the router re-pins the session, and a held
// re-dispatched request finally submits — to the KV holder when it is
// still routable, through the router otherwise.
func (c *Cluster) finishMigration(m *migration) {
	if m.canceled {
		// cancelMigrations settled the stream already.
		c.migPool.Release(m)
		return
	}
	i := slices.Index(c.migs, m)
	c.migs = slices.Delete(c.migs, i, i+1)
	dst := c.Replicas[m.dst]
	dst.outTokens -= m.tokens
	dst.migTokens -= m.tokens
	dst.kvIn += m.tokens
	dst.Inst.PreloadKV(m.pages)
	c.migStats.Completed++
	c.migStats.MigratedTokens += m.tokens
	// The destination is the session's KV holder now — unless a turn
	// that arrived mid-stream already re-homed it elsewhere, in which
	// case the newer holder wins.
	if _, ok := c.kv[m.session]; !ok && dst.State == StateReady {
		c.kv[m.session] = sessionKV{holder: dst.ID, tokens: m.tokens, pages: m.pages, segs: m.segs}
	}
	if mo, ok := c.Router.(MigrationObserver); ok {
		mo.SessionMigrated(m.session, m.src, m.dst, m.segs, len(m.pages))
	}
	c.record(LogEntry{Kind: LogArrived, Replica: c.Replicas[m.src].Name, Dst: dst.Name,
		Session: m.session, Count: m.tokens})
	if c.trace != nil {
		c.trace.AsyncEnd(c.Sim.Now(), "migration", "kv-migration", int64(m.id), "kv-stream",
			obs.Arg{Key: "outcome", Val: "delivered"})
	}
	if m.req != nil {
		c.migHeld--
		if dst.routable() {
			dst.submit(m.req)
		} else {
			c.Submit(m.req)
		}
	}
	c.migPool.Release(m)
}

// cancelMigrations kills the streams a takedown invalidates: every
// stream into the dead replica (the destination vanished), and — when
// the takedown is a crash — every stream out of it (half-migrated KV
// does not survive; the sessions repay the full re-prefill). A graceful
// retire of the source leaves its outbound streams running: the drain
// holds the instance up until its data has left.
func (c *Cluster) cancelMigrations(rep *Replica, srcCrashed bool) {
	for _, m := range c.migs {
		if m.dst != rep.ID && !(srcCrashed && m.src == rep.ID) {
			continue
		}
		m.canceled = true
		dst := c.Replicas[m.dst]
		if !dst.down() {
			// A downed destination already had its counters reset by its
			// own takedown; subtracting would leave them negative.
			dst.outTokens -= m.tokens
			dst.migTokens -= m.tokens
		}
		c.migStats.Canceled++
		c.migStats.CanceledTokens += m.tokens
		c.record(LogEntry{Kind: LogCanceled, Replica: c.Replicas[m.src].Name, Dst: dst.Name,
			Session: m.session, Count: m.tokens})
		if c.trace != nil {
			c.trace.AsyncEnd(c.Sim.Now(), "migration", "kv-migration", int64(m.id), "kv-stream",
				obs.Arg{Key: "outcome", Val: "canceled"})
		}
		if m.req != nil {
			// The held request lost its stream: re-dispatch it now; it
			// pays the re-prefill wherever the router places it.
			c.migHeld--
			c.Submit(m.req)
		}
	}
	c.migs = slices.DeleteFunc(c.migs, func(m *migration) bool { return m.canceled })
}

// drainMigrations streams the session KV of a replica entering drain:
// first the in-flight sessions (their requests finish in place; what
// streams is the full context KV, input plus the output the in-flight
// turn is producing, overlapping the tail of the decode), then every
// idle session whose latest turn completed here. Either way the
// session's next turn — which re-routes immediately, the draining
// replica being unroutable — finds its KV warm at the destination.
func (c *Cluster) drainMigrations(rep *Replica) {
	if !c.migrate {
		return
	}
	seen := c.drainSeen
	clear(seen)
	for _, id := range rep.Inst.Open() {
		req, ok := rep.reqs[id]
		if !ok || seen[req.Session] {
			continue
		}
		seen[req.Session] = true
		c.releaseKV(rep, req.Session)
		c.migrateKV(rep, req.Session, int64(req.InputTokens+req.OutputTokens), req.AllPages, req.Segments, nil)
	}
	c.sweepSessionKV(rep)
}

// sweepSessionKV streams every idle session holding off a replica, in
// session order for determinism. What streams is clamped to the prefix
// the pool still physically holds — evicted KV cannot be migrated, and
// a fully evicted session has nothing to stream (its next turn was
// going to re-prefill under the baseline too). Sessions that cannot
// stream for want of a routable target are charged as re-prefill
// fallbacks.
func (c *Cluster) sweepSessionKV(rep *Replica) {
	ids := c.sweepIDs[:0]
	for session, kv := range c.kv {
		if kv.holder == rep.ID {
			ids = append(ids, session)
		}
	}
	slices.Sort(ids)
	c.sweepIDs = ids
	for _, session := range ids {
		kv := c.kv[session]
		delete(c.kv, session)
		matched, pageTokens := rep.Inst.PeekKV(kv.pages)
		if matched <= 0 {
			continue
		}
		held, n := int64(matched*pageTokens), len(kv.pages)
		if held < kv.tokens {
			n = matched
		} else {
			held = kv.tokens
		}
		c.migrateKV(rep, session, held, kv.pages[:n], kv.segs, nil)
	}
}

// undeliveredTokens sums the KV still on the wire (streams neither
// landed nor canceled) — the conservation remainder at run end.
func (c *Cluster) undeliveredTokens() int64 {
	var n int64
	for _, m := range c.migs {
		n += m.tokens
	}
	return n
}
