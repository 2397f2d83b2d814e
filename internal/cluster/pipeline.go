package cluster

import "muxwise/internal/cluster/epp"

// The built-in router policies are epp compositions: each constructor
// below assembles filter → scorer → picker profiles over shared
// affinity / EWMA state instead of hand-rolling a Pick method.
// TestPlacementDigests pins every built-in's placements on the
// MixedBursty trace, static and under fleet churn, against
// testdata/placements.json, so a change to a tie-break or to affinity
// state shows up there by policy and replica.

// Pipeline is a composed endpoint-picker routing *Replica — the
// instantiation of epp.Pipeline the fleet runs. It implements Router and
// every observer interface, fanning each signal out to its stages.
type Pipeline = epp.Pipeline[*Replica]

// PipelineProfile is one filter → scorer → picker chain over *Replica.
type PipelineProfile = epp.Profile[*Replica]

// tier wraps a single scorer as one weight-1 lexicographic tier.
func tier(s epp.Scorer[*Replica]) []epp.Weighted[*Replica] {
	return []epp.Weighted[*Replica]{{Scorer: s, Weight: 1}}
}

// loadTiers is least-outstanding-tokens with an in-flight tie-break —
// the scorer form of the leastLoaded helper (final ties fall to the
// picker's lowest-ID rule).
func loadTiers() [][]epp.Weighted[*Replica] {
	return [][]epp.Weighted[*Replica]{
		tier(epp.LeastTokens[*Replica]()),
		tier(epp.LeastRequests[*Replica]()),
	}
}

// RoundRobin cycles through the fleet in replica-ID ring order. Unlike
// the historical positional cursor (next % len against a changing
// length), the ring stays fair when the fleet resizes mid-run: a spawn
// or drain never repeats or starves a replica across the boundary.
func RoundRobin() Router {
	return epp.New(RoundRobinPolicy, nil,
		[]PipelineProfile{{Name: "all", Picker: epp.RoundRobin[*Replica]()}})
}

// LeastTokens routes to the replica with the fewest outstanding
// (in-flight input+output) tokens, breaking ties by in-flight requests
// then lowest ID.
func LeastTokens() Router {
	return epp.New(LeastTokensPolicy, nil,
		[]PipelineProfile{{Name: "all", Scorers: loadTiers()}})
}

// PrefixAffinity keeps multi-turn sessions sticky to the replica holding
// their KV, scores cold requests by approximate prefix-cache match, and
// falls back to least-outstanding-tokens — the EPP prefix-cache scorer.
// Composition: an affinity classifier picks sticky / divert / cold;
// sticky narrows to the holder, divert drops the overloaded holder, and
// both scored profiles rank by prefix match then load.
func PrefixAffinity() Router {
	aff := epp.NewAffinity[*Replica]()
	prefixTiers := [][]epp.Weighted[*Replica]{
		tier(epp.PrefixMatch(aff)),
		tier(epp.LeastTokens[*Replica]()),
	}
	profiles := []PipelineProfile{
		{Name: "sticky", Filters: []epp.Filter[*Replica]{epp.StickySession(aff)}},
		{Name: "divert", Filters: []epp.Filter[*Replica]{epp.Divert(aff, false)}, Scorers: prefixTiers},
		{Name: "cold", Scorers: prefixTiers},
	}
	cl := epp.NewAffinityClassifier(aff, 0, 1, 2)
	return epp.New(PrefixAffinityPolicy, cl, profiles, aff)
}

// PDSplit implements the EPP P/D lifecycle decision: sessions stay on
// the replica holding their KV (the aggregated path, with an overload
// guard), while cold or diverted requests are classified by prompt
// length — long prefills take the split path to prefill-role replicas,
// short ones join the aggregated pool. A session opened by a long
// prefill therefore lives on its prefill-heavy replica, mirroring the
// per-request aggregation-vs-disaggregation choice of the unified P/D
// routing literature. A threshold ≤ 0 selects the default (4096 prompt
// tokens). Composition: a P/D classifier in front of role-filtered,
// divert-widened, load-scored pools.
func PDSplit(threshold int) Router {
	aff := epp.NewAffinity[*Replica]()
	profiles := []PipelineProfile{
		{Name: "sticky", Filters: []epp.Filter[*Replica]{epp.StickySession(aff)}},
		{Name: "split", Filters: []epp.Filter[*Replica]{
			epp.KeepRoles[*Replica](RolePrefill),
			epp.Divert(aff, true),
		}, Scorers: loadTiers()},
		{Name: "aggregated", Filters: []epp.Filter[*Replica]{
			epp.KeepRoles[*Replica](RoleGeneral, RoleDecode),
			epp.Divert(aff, true),
		}, Scorers: loadTiers()},
	}
	cl := epp.NewPDClassifier(aff, threshold, 0, 1, 2)
	return epp.New(PDSplitPolicy, cl, profiles, aff)
}
