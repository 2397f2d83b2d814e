package cluster

// The pre-pipeline router monoliths, preserved verbatim (renamed) as
// the reference implementations for the pipeline-equivalence suite:
// each composition must replay the MixedBursty trace with placements
// identical to its monolith, so the frontier goldens and
// TestTraceDeterminism cannot drift across the refactor. round-robin is
// the one deliberate divergence — but only when the fleet resizes
// mid-run (the positional-cursor bug); on a static fleet it too must
// match.

import (
	"testing"

	"muxwise/internal/cluster/epp"
	"muxwise/internal/core"
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// ---- legacy round-robin (positional cursor) ----

type legacyRoundRobin struct{ next int }

func (p *legacyRoundRobin) Name() string { return RoundRobinPolicy }

func (p *legacyRoundRobin) Pick(r *workload.Request, view FleetView) *Replica {
	rep := view.Candidates[p.next%len(view.Candidates)]
	p.next++
	return rep
}

// ---- legacy least-tokens ----

type legacyLeastTokens struct{}

func (legacyLeastTokens) Name() string { return LeastTokensPolicy }

func (legacyLeastTokens) Pick(r *workload.Request, view FleetView) *Replica {
	return leastLoaded(view.Candidates)
}

// ---- legacy shared affinity machinery ----

const legacyMaxIndexedPages = 1 << 18

// legacyPrefixIndex is the slice-reslicing FIFO whose eviction pinned
// the backing array (order = order[1:]).
type legacyPrefixIndex struct {
	pages map[kvcache.PageID]struct{}
	order []kvcache.PageID
}

func newLegacyPrefixIndex() *legacyPrefixIndex {
	return &legacyPrefixIndex{pages: map[kvcache.PageID]struct{}{}}
}

func (ix *legacyPrefixIndex) match(pages []kvcache.PageID) int {
	n := 0
	for _, pg := range pages {
		if _, ok := ix.pages[pg]; !ok {
			break
		}
		n++
	}
	return n
}

func (ix *legacyPrefixIndex) add(pages []kvcache.PageID) {
	for _, pg := range pages {
		if _, ok := ix.pages[pg]; ok {
			continue
		}
		if len(ix.order) >= legacyMaxIndexedPages {
			old := ix.order[0]
			ix.order = ix.order[1:]
			delete(ix.pages, old)
		}
		ix.pages[pg] = struct{}{}
		ix.order = append(ix.order, pg)
	}
}

func legacyOverloaded(rep *Replica, fleet []*Replica) bool {
	var total int64
	for _, r := range fleet {
		total += r.outTokens
	}
	mean := total / int64(len(fleet))
	const slack = 8192
	return rep.outTokens > 2*mean+slack
}

type legacyAffinity struct {
	sessions map[int]int
	index    map[int]*legacyPrefixIndex
}

func newLegacyAffinity() *legacyAffinity {
	return &legacyAffinity{sessions: map[int]int{}, index: map[int]*legacyPrefixIndex{}}
}

func (a *legacyAffinity) sticky(r *workload.Request, fleet []*Replica) *Replica {
	id, ok := a.sessions[r.Session]
	if !ok {
		return nil
	}
	for _, rep := range fleet {
		if rep.ID == id {
			return rep
		}
	}
	return nil
}

func (a *legacyAffinity) replicaDown(id int) {
	for session, rep := range a.sessions {
		if rep == id {
			delete(a.sessions, session)
		}
	}
	delete(a.index, id)
}

func (a *legacyAffinity) migrated(session, from, to int, pages []kvcache.PageID) {
	if cur, ok := a.sessions[session]; !ok || cur == from {
		a.sessions[session] = to
	}
	ix := a.index[to]
	if ix == nil {
		ix = newLegacyPrefixIndex()
		a.index[to] = ix
	}
	ix.add(pages)
}

func (a *legacyAffinity) divert(r *workload.Request, fleet []*Replica, hot *Replica) *Replica {
	cands := make([]*Replica, 0, len(fleet)-1)
	for _, rep := range fleet {
		if rep != hot {
			cands = append(cands, rep)
		}
	}
	if len(cands) == 0 {
		return hot
	}
	return a.score(r, cands)
}

func (a *legacyAffinity) score(r *workload.Request, cands []*Replica) *Replica {
	var best *Replica
	bestMatch := -1
	for _, rep := range cands {
		m := 0
		if ix := a.index[rep.ID]; ix != nil {
			m = ix.match(r.Pages)
		}
		switch {
		case m > bestMatch:
			best, bestMatch = rep, m
		case m == bestMatch && rep.outTokens < best.outTokens:
			best = rep
		}
	}
	return best
}

func (a *legacyAffinity) record(r *workload.Request, rep *Replica) {
	a.sessions[r.Session] = rep.ID
	ix := a.index[rep.ID]
	if ix == nil {
		ix = newLegacyPrefixIndex()
		a.index[rep.ID] = ix
	}
	ix.add(r.AllPages)
}

// ---- legacy prefix-affinity ----

type legacyPrefixAffinity struct{ aff *legacyAffinity }

func (p *legacyPrefixAffinity) Name() string { return PrefixAffinityPolicy }

func (p *legacyPrefixAffinity) ReplicaDown(id int) { p.aff.replicaDown(id) }

func (p *legacyPrefixAffinity) SessionMigrated(session, from, to int, pages []kvcache.PageID) {
	p.aff.migrated(session, from, to, pages)
}

func (p *legacyPrefixAffinity) Pick(r *workload.Request, view FleetView) *Replica {
	fleet := view.Candidates
	rep := p.aff.sticky(r, fleet)
	switch {
	case rep == nil:
		rep = p.aff.score(r, fleet)
	case legacyOverloaded(rep, fleet):
		rep = p.aff.divert(r, fleet, rep)
	}
	p.aff.record(r, rep)
	return rep
}

// ---- legacy pd-split ----

type legacyPDSplit struct {
	aff       *legacyAffinity
	threshold int
}

func (p *legacyPDSplit) Name() string { return PDSplitPolicy }

func (p *legacyPDSplit) ReplicaDown(id int) { p.aff.replicaDown(id) }

func (p *legacyPDSplit) SessionMigrated(session, from, to int, pages []kvcache.PageID) {
	p.aff.migrated(session, from, to, pages)
}

func legacyByRole(fleet []*Replica, want func(Role) bool) []*Replica {
	var out []*Replica
	for _, rep := range fleet {
		if want(rep.Role) {
			out = append(out, rep)
		}
	}
	if len(out) == 0 {
		return fleet
	}
	return out
}

func legacyWithout(cands []*Replica, hot *Replica) []*Replica {
	if hot == nil {
		return cands
	}
	out := make([]*Replica, 0, len(cands))
	for _, rep := range cands {
		if rep != hot {
			out = append(out, rep)
		}
	}
	return out
}

func legacyDivertPool(pool, fleet []*Replica, hot *Replica) []*Replica {
	if out := legacyWithout(pool, hot); len(out) > 0 {
		return out
	}
	if out := legacyWithout(fleet, hot); len(out) > 0 {
		return out
	}
	return pool
}

func (p *legacyPDSplit) Pick(r *workload.Request, view FleetView) *Replica {
	fleet := view.Candidates
	sticky := p.aff.sticky(r, fleet)
	var rep *Replica
	switch {
	case sticky != nil && !legacyOverloaded(sticky, fleet):
		rep = sticky
	case r.InputTokens >= p.threshold:
		pool := legacyByRole(fleet, func(ro Role) bool { return ro == RolePrefill })
		rep = leastLoaded(legacyDivertPool(pool, fleet, sticky))
	default:
		pool := legacyByRole(fleet, func(ro Role) bool { return ro != RolePrefill })
		rep = leastLoaded(legacyDivertPool(pool, fleet, sticky))
	}
	p.aff.record(r, rep)
	return rep
}

// ---- legacy adaptive-ttft ----

const (
	legacyAdaptiveAlpha     = 0.2
	legacyAdaptiveTTFTFloor = 0.005
	legacyAdaptiveLoadScale = 8192
)

type legacyAdaptiveTTFT struct {
	aff  *legacyAffinity
	ewma map[int]float64
}

func (p *legacyAdaptiveTTFT) Name() string { return AdaptiveTTFTPolicy }

func (p *legacyAdaptiveTTFT) ObserveTTFT(replica int, ttft sim.Time) {
	v := ttft.Seconds()
	if old, ok := p.ewma[replica]; ok {
		v = old + legacyAdaptiveAlpha*(v-old)
	}
	p.ewma[replica] = v
}

func (p *legacyAdaptiveTTFT) ReplicaDown(id int) {
	p.aff.replicaDown(id)
	delete(p.ewma, id)
}

func (p *legacyAdaptiveTTFT) SessionMigrated(session, from, to int, pages []kvcache.PageID) {
	p.aff.migrated(session, from, to, pages)
}

func (p *legacyAdaptiveTTFT) score(rep *Replica) float64 {
	base := legacyAdaptiveTTFTFloor
	if v, ok := p.ewma[rep.ID]; ok && v > base {
		base = v
	}
	return base * (1 + float64(rep.outTokens)/legacyAdaptiveLoadScale)
}

func (p *legacyAdaptiveTTFT) best(cands []*Replica) *Replica {
	var best *Replica
	var bestScore float64
	for _, rep := range cands {
		s := p.score(rep)
		if best == nil || s < bestScore ||
			(s == bestScore && rep.outTokens < best.outTokens) {
			best, bestScore = rep, s
		}
	}
	return best
}

func (p *legacyAdaptiveTTFT) Pick(r *workload.Request, view FleetView) *Replica {
	fleet := view.Candidates
	if len(fleet) == 0 {
		return nil
	}
	rep := p.aff.sticky(r, fleet)
	switch {
	case rep == nil:
		rep = p.best(fleet)
	case legacyOverloaded(rep, fleet):
		if cands := legacyWithout(fleet, rep); len(cands) > 0 {
			rep = p.best(cands)
		}
	}
	p.aff.record(r, rep)
	return rep
}

// ---- the equivalence suite ----

// legacyPolicies pairs each built-in name with its monolith reference.
func legacyPolicies() map[string]Policy {
	return map[string]Policy{
		RoundRobinPolicy:  func() Router { return &legacyRoundRobin{} },
		LeastTokensPolicy: func() Router { return legacyLeastTokens{} },
		PrefixAffinityPolicy: func() Router {
			return &legacyPrefixAffinity{aff: newLegacyAffinity()}
		},
		PDSplitPolicy: func() Router {
			return &legacyPDSplit{aff: newLegacyAffinity(), threshold: epp.DefaultPDSplitTokens}
		},
		AdaptiveTTFTPolicy: func() Router {
			return &legacyAdaptiveTTFT{aff: newLegacyAffinity(), ewma: map[int]float64{}}
		},
	}
}

// roleCfg builds a mixed-role fleet so pd-split's pools are real: two
// general MuxWise replicas, one prefill-tagged, one decode-tagged.
func roleCfg(policy Policy) Config {
	cfg := fleetCfg(policy, 2)
	cfg.Replicas = append(cfg.Replicas,
		ReplicaSpec{Engine: "MuxWise", Factory: core.New, Count: 1, Role: RolePrefill},
		ReplicaSpec{Engine: "MuxWise", Factory: core.New, Count: 1, Role: RoleDecode, Hardware: gpu.H100()},
	)
	return cfg
}

// assertSameRun fails unless the two results placed every request on
// the same replica and rolled up to identical summaries.
func assertSameRun(t *testing.T, name string, legacy, composed Result) {
	t.Helper()
	if legacy.Summary != composed.Summary {
		t.Fatalf("%s: summary diverged\nlegacy:   %+v\ncomposed: %+v", name, legacy.Summary, composed.Summary)
	}
	lw, cw := replicaOf(legacy), replicaOf(composed)
	if len(lw) != len(cw) {
		t.Fatalf("%s: request counts diverged: %d vs %d", name, len(lw), len(cw))
	}
	diverged := 0
	for id, want := range lw {
		if cw[id] != want {
			diverged++
			if diverged <= 3 {
				t.Errorf("%s: request %d placed on %s, monolith placed it on %s", name, id, cw[id], want)
			}
		}
	}
	if diverged > 0 {
		t.Fatalf("%s: %d of %d placements diverged from the monolith", name, diverged, len(lw))
	}
}

// TestCompositionsMatchLegacyMonoliths replays the MixedBursty trace on
// a static mixed-role fleet: every built-in composition must place
// every request exactly where its pre-pipeline monolith did.
func TestCompositionsMatchLegacyMonoliths(t *testing.T) {
	legacies := legacyPolicies()
	for _, name := range PolicyNames() {
		legacy, ok := legacies[name]
		if !ok {
			continue // not a built-in (e.g. registered by another test)
		}
		composed := Policies()[name]
		tr := mixedTrace(29, 24, 0.14)
		lres, err := Run(roleCfg(legacy), tr)
		if err != nil {
			t.Fatalf("%s legacy: %v", name, err)
		}
		cres, err := Run(roleCfg(composed), mixedTrace(29, 24, 0.14))
		if err != nil {
			t.Fatalf("%s composed: %v", name, err)
		}
		assertSameRun(t, name, lres, cres)
	}
}

// TestCompositionsMatchLegacyUnderFleetEvents repeats the equivalence
// replay with lifecycle churn — a mid-run spawn, a drain and a failure
// — exercising the observer fan-out (ReplicaDown, re-dispatch,
// re-stick). round-robin is excluded: its resize behaviour is the bug
// the ring-order picker fixes (see TestRoundRobinFairAcrossResize).
func TestCompositionsMatchLegacyUnderFleetEvents(t *testing.T) {
	legacies := legacyPolicies()
	events := &FleetConfig{Events: []FleetEvent{
		{At: 20 * sim.Second, Kind: SpawnReplica},
		{At: 45 * sim.Second, Kind: FailReplica, Replica: 1},
		{At: 70 * sim.Second, Kind: DrainReplica, Replica: 0},
	}}
	for _, name := range PolicyNames() {
		legacy, ok := legacies[name]
		if !ok || name == RoundRobinPolicy {
			continue
		}
		composed := Policies()[name]
		run := func(p Policy) Result {
			cfg := roleCfg(p)
			cfg.Fleet = events
			res, err := Run(cfg, mixedTrace(31, 24, 0.14))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		assertSameRun(t, name, run(legacy), run(composed))
	}
}
