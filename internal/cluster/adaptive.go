package cluster

import (
	"muxwise/internal/cluster/epp"
)

// AdaptiveTTFT is the reference learned policy shipped through the
// plugin seam: it keeps multi-turn sessions sticky to their KV holder
// (like prefix-affinity) but scores cold and diverted requests by an
// EWMA of each replica's observed TTFT, inflated by its outstanding
// load. The TTFT signal arrives through TTFTObserver as first tokens
// are emitted, so a replica that slows down — saturated, cold-started,
// or simply on weaker hardware — loses traffic within a dozen requests,
// and a fast replica earns a proportionally deeper queue.
//
// Composition: the same affinity classifier as prefix-affinity
// (sticky / divert / cold), with the scored profiles ranking by the
// learned TTFT prediction then least outstanding tokens. The TTFT
// scorer doubles as the pipeline's TTFTObserver/DownObserver state, so
// observations and replica deaths reach it through the ordinary
// observer fan-out.
func AdaptiveTTFT() Router {
	aff := epp.NewAffinity[*Replica]()
	learned := epp.NewTTFTScorer[*Replica]()
	ttftTiers := [][]epp.Weighted[*Replica]{
		tier(learned),
		tier(epp.LeastTokens[*Replica]()),
	}
	profiles := []PipelineProfile{
		{Name: "sticky", Filters: []epp.Filter[*Replica]{epp.StickySession(aff)}},
		{Name: "divert", Filters: []epp.Filter[*Replica]{epp.Divert(aff, false)}, Scorers: ttftTiers},
		{Name: "cold", Scorers: ttftTiers},
	}
	cl := epp.NewAffinityClassifier(aff, 0, 1, 2)
	return epp.New(AdaptiveTTFTPolicy, cl, profiles, aff, learned)
}
