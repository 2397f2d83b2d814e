package cluster

import (
	"sort"

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

// sessionKV is the context KV a replica's pool holds for one session:
// the token span and pages of its latest completed turn.
type sessionKV struct {
	tokens int64
	pages  []kvcache.PageID
}

// trackKV records, at turn completion, that rep's pool now holds the
// session's context KV (Complete published AllPages there). The
// previous holder — if the session hopped replicas — is released: its
// copy is stale for routing purposes. Only ready replicas claim
// holdership: a draining replica's finishing turns were already
// streamed out at the drain instant, and their completions must not
// steal the session back from the stream's destination. No-op while
// migration is disabled, keeping the legacy fleet byte-identical.
func (c *Cluster) trackKV(rep *Replica, req *workload.Request) {
	if !c.migrate || rep.State != StateReady {
		return
	}
	if prev, ok := c.kvHolder[req.Session]; ok && prev != rep.ID {
		delete(c.Replicas[prev].sessions, req.Session)
	}
	c.kvHolder[req.Session] = rep.ID
	rep.sessions[req.Session] = sessionKV{
		tokens: int64(req.InputTokens + req.OutputTokens),
		pages:  req.AllPages,
	}
}

// releaseKV detaches one session from rep's holdings (ownership passes
// to a stream or dies with a crash).
func (c *Cluster) releaseKV(rep *Replica, session int) {
	delete(rep.sessions, session)
	if c.kvHolder[session] == rep.ID {
		delete(c.kvHolder, session)
	}
}

// forgetKV drops every session holding still attached to a replica that
// left the fleet — whatever was not streamed out is gone.
func (c *Cluster) forgetKV(rep *Replica) {
	for session := range rep.sessions {
		if c.kvHolder[session] == rep.ID {
			delete(c.kvHolder, session)
		}
	}
	rep.sessions = map[int]sessionKV{}
}

// migration is one in-flight KV stream.
type migration struct {
	id       int // stream index, correlates the flight-recorder span
	session  int
	src, dst int // replica IDs
	tokens   int64
	pages    []kvcache.PageID
	// req, when set, is a re-dispatched in-flight request held back
	// until its KV lands (an immediate retire); nil for drain streams
	// whose request finishes in place on the source.
	req *workload.Request

	done, canceled bool
}

// MigrationObserver is implemented by routers that track
// session→replica affinity. SessionMigrated fires when a session's KV
// finished streaming to a new holder: the router should re-pin the
// session (if it still points at the source) and advertise the pages on
// the destination, so the session's next turn follows its KV instead of
// re-prefilling somewhere cold.
type MigrationObserver interface {
	SessionMigrated(session, from, to int, pages []kvcache.PageID)
}

// hwOf resolves a replica's hardware shape (per-shape override or the
// deployment base).
func (c *Cluster) hwOf(rep *Replica) gpu.Spec {
	if rep.Spec.Hardware.Name != "" {
		return rep.Spec.Hardware
	}
	return c.base.Spec
}

// migrationTarget picks where a leaving replica's session KV streams:
// the least-loaded routable replica, preferring replicas of the
// source's role so the migrated pins do not fight role-aware routing
// (a drained prefill replica's sessions land on another prefill
// replica, not in the decode pool). Falls back to any routable replica
// when the role has no other member.
func (c *Cluster) migrationTarget(src *Replica) *Replica {
	cands := c.Routable()
	var sameRole []*Replica
	for _, rep := range cands {
		if rep.Role == src.Role {
			sameRole = append(sameRole, rep)
		}
	}
	if len(sameRole) > 0 {
		return leastLoaded(sameRole)
	}
	return leastLoaded(cands)
}

// migrateKV starts one KV stream from src. tokens/pages cover the
// session context being moved; req, when non-nil, is a re-dispatched
// request held until the stream lands. Returns false when no stream
// could start (no routable target): the caller falls back to the
// re-prefill path. Every call adds to the conservation total.
func (c *Cluster) migrateKV(src *Replica, session int, tokens int64, pages []kvcache.PageID, req *workload.Request) bool {
	c.migStats.DrainKVTokens += tokens
	dst := c.migrationTarget(src)
	if dst == nil {
		c.migStats.Fallbacks++
		c.migStats.RePrefillTokens += tokens
		return false
	}
	link := gpu.LinkBetween(c.hwOf(src), c.hwOf(dst))
	d := kvcache.TransferTime(tokens, c.kvBytesPerToken, link)
	m := &migration{id: len(c.migs), session: session, src: src.ID, dst: dst.ID, tokens: tokens, pages: pages, req: req}
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
	c.logf("kv-migrate session %d %s -> %s (%d tokens over %v, %v)",
		session, src.Name, dst.Name, tokens, link.Class, d)
	c.Sim.After(d, func() { c.finishMigration(m) })
	return true
}

// finishMigration lands one stream: the pages publish into the
// destination's prefix pool, the router re-pins the session, and a held
// re-dispatched request finally submits — to the KV holder when it is
// still routable, through the router otherwise.
func (c *Cluster) finishMigration(m *migration) {
	if m.canceled {
		return
	}
	m.done = true
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
	if _, ok := c.kvHolder[m.session]; !ok && dst.State == StateReady {
		c.kvHolder[m.session] = dst.ID
		dst.sessions[m.session] = sessionKV{tokens: m.tokens, pages: m.pages}
	}
	if mo, ok := c.Router.(MigrationObserver); ok {
		mo.SessionMigrated(m.session, m.src, m.dst, m.pages)
	}
	c.logf("kv-arrived session %d at %s (%d tokens)", m.session, dst.Name, m.tokens)
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
}

// cancelMigrations kills the streams a takedown invalidates: every
// stream into the dead replica (the destination vanished), and — when
// the takedown is a crash — every stream out of it (half-migrated KV
// does not survive; the sessions repay the full re-prefill). A graceful
// retire of the source leaves its outbound streams running: the drain
// holds the instance up until its data has left.
func (c *Cluster) cancelMigrations(rep *Replica, srcCrashed bool) {
	for _, m := range c.migs {
		if m.done || m.canceled {
			continue
		}
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
		c.logf("kv-migration canceled session %d %s -> %s (%d tokens re-prefill)",
			m.session, c.Replicas[m.src].Name, dst.Name, m.tokens)
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
	seen := map[int]bool{}
	for _, id := range rep.Inst.Open() {
		req, ok := rep.reqs[id]
		if !ok || seen[req.Session] {
			continue
		}
		seen[req.Session] = true
		c.releaseKV(rep, req.Session)
		c.migrateKV(rep, req.Session, int64(req.InputTokens+req.OutputTokens), req.AllPages, nil)
	}
	c.sweepSessionKV(rep)
	c.forgetKV(rep)
}

// sweepSessionKV streams every idle session holding off a replica, in
// session order for determinism. What streams is clamped to the prefix
// the pool still physically holds — evicted KV cannot be migrated, and
// a fully evicted session has nothing to stream (its next turn was
// going to re-prefill under the baseline too). Sessions that cannot
// stream for want of a routable target are charged as re-prefill
// fallbacks.
func (c *Cluster) sweepSessionKV(rep *Replica) {
	ids := make([]int, 0, len(rep.sessions))
	for session := range rep.sessions {
		ids = append(ids, session)
	}
	sort.Ints(ids)
	for _, session := range ids {
		kv := rep.sessions[session]
		c.releaseKV(rep, session)
		matched, pageTokens := rep.Inst.PeekKV(kv.pages)
		if matched <= 0 {
			continue
		}
		held := int64(matched * pageTokens)
		pages := kv.pages
		if held < kv.tokens {
			pages = pages[:matched]
		} else {
			held = kv.tokens
		}
		c.migrateKV(rep, session, held, pages, nil)
	}
}

// undeliveredTokens sums the KV still on the wire (streams neither
// landed nor canceled) — the conservation remainder at run end.
func (c *Cluster) undeliveredTokens() int64 {
	var n int64
	for _, m := range c.migs {
		if !m.done && !m.canceled {
			n += m.tokens
		}
	}
	return n
}
