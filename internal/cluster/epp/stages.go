package epp

import (
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// OverloadSlack (tokens) is the absolute slack in the overload guard,
// so near-idle fleets never trigger it.
const OverloadSlack = 8192

// Overloaded reports whether the endpoint carries more than twice the
// fleet-mean outstanding tokens (plus slack). Affinity compositions
// break stickiness past this point — the EPP's load-aware guard against
// hot-spotting a popular session.
func Overloaded[E Endpoint](e E, fleet []E) bool {
	var total int64
	for _, rep := range fleet {
		total += rep.OutstandingTokens()
	}
	mean := total / int64(len(fleet))
	return e.OutstandingTokens() > 2*mean+OverloadSlack
}

// ---- filters ----

// roleFilter keeps candidates whose role is in the keep set, falling
// back to the full set when no candidate qualifies — a pool that holds
// nothing routable is useless, so prefer off-role endpoints over
// dropping the request.
type roleFilter[E Endpoint] struct {
	keep [3]bool
	name string
}

// KeepRoles keeps candidates matching any of the given roles.
func KeepRoles[E Endpoint](roles ...Role) Filter[E] {
	f := &roleFilter[E]{name: "role"}
	for _, r := range roles {
		if r >= 0 && int(r) < len(f.keep) {
			f.keep[r] = true
			f.name += ":" + r.String()
		}
	}
	return f
}

func (f *roleFilter[E]) Name() string { return f.name }

func (f *roleFilter[E]) Filter(r *workload.Request, view View[E], cands []E, out []E) []E {
	for _, e := range cands {
		role := e.EndpointRole()
		if role >= 0 && int(role) < len(f.keep) && f.keep[role] {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		out = append(out, cands...)
	}
	return out
}

// stickyFilter narrows to the candidate holding the request's session
// KV; a request with no reachable holder passes through unchanged.
type stickyFilter[E Endpoint] struct{ aff *Affinity[E] }

// StickySession narrows to the session's KV holder when it is present
// in the candidate set.
func StickySession[E Endpoint](aff *Affinity[E]) Filter[E] {
	return &stickyFilter[E]{aff: aff}
}

func (f *stickyFilter[E]) Name() string { return "sticky-session" }

func (f *stickyFilter[E]) Filter(r *workload.Request, view View[E], cands []E, out []E) []E {
	if e, ok := f.aff.StickyIn(r, cands); ok {
		return append(out, e)
	}
	return append(out, cands...)
}

// divertFilter sheds a request off its session's holder: the candidate
// set minus the holder, so an overload guard can re-score the rest of
// the pool without the hot endpoint winning on its own cached pages.
// With widen set, an emptied pool retries against the full view
// (off-role endpoints beat re-pinning the hot one); either way an
// emptied result falls back to the incoming set, because a divert that
// cannot shed load is a no-op.
type divertFilter[E Endpoint] struct {
	aff   *Affinity[E]
	widen bool
}

// Divert drops the session's current holder from the candidates.
func Divert[E Endpoint](aff *Affinity[E], widen bool) Filter[E] {
	return &divertFilter[E]{aff: aff, widen: widen}
}

func (f *divertFilter[E]) Name() string { return "divert" }

func (f *divertFilter[E]) Filter(r *workload.Request, view View[E], cands []E, out []E) []E {
	id, ok := f.aff.Holder(r.Session)
	if !ok {
		return append(out, cands...)
	}
	base := len(out)
	for _, e := range cands {
		if e.EndpointID() != id {
			out = append(out, e)
		}
	}
	if len(out) > base {
		return out
	}
	if f.widen {
		for _, e := range view.Candidates {
			if e.EndpointID() != id {
				out = append(out, e)
			}
		}
		if len(out) > base {
			return out
		}
	}
	return append(out, cands...)
}

// ---- scorers ----

// leastTokensScorer prefers the smallest outstanding token load.
type leastTokensScorer[E Endpoint] struct{}

// LeastTokens scores by negated outstanding (input+output) tokens.
func LeastTokens[E Endpoint]() Scorer[E] { return leastTokensScorer[E]{} }

func (leastTokensScorer[E]) Name() string { return "least-tokens" }

func (leastTokensScorer[E]) Score(r *workload.Request, view View[E], cands []E, out []float64) {
	for i, e := range cands {
		out[i] = -float64(e.OutstandingTokens())
	}
}

// leastRequestsScorer prefers the fewest in-flight requests.
type leastRequestsScorer[E Endpoint] struct{}

// LeastRequests scores by negated in-flight request count.
func LeastRequests[E Endpoint]() Scorer[E] { return leastRequestsScorer[E]{} }

func (leastRequestsScorer[E]) Name() string { return "least-requests" }

func (leastRequestsScorer[E]) Score(r *workload.Request, view View[E], cands []E, out []float64) {
	for i, e := range cands {
		out[i] = -float64(e.InFlight())
	}
}

// prefixScorer scores by approximate prefix-cache match.
type prefixScorer[E Endpoint] struct{ aff *Affinity[E] }

// PrefixMatch scores each candidate by how many leading radix pages of
// the request its index advertises.
func PrefixMatch[E Endpoint](aff *Affinity[E]) Scorer[E] { return &prefixScorer[E]{aff: aff} }

func (s *prefixScorer[E]) Name() string { return "prefix-match" }

func (s *prefixScorer[E]) Score(r *workload.Request, view View[E], cands []E, out []float64) {
	for i, e := range cands {
		out[i] = float64(s.aff.Match(e.EndpointID(), r.Segments, len(r.Pages)))
	}
}

// sessionScorer scores the session's holder 1, everyone else 0 — a soft
// stickiness for weighted blends (the hard form is StickySession).
type sessionScorer[E Endpoint] struct{ aff *Affinity[E] }

// SessionMatch scores the session's current KV holder above the rest.
func SessionMatch[E Endpoint](aff *Affinity[E]) Scorer[E] { return &sessionScorer[E]{aff: aff} }

func (s *sessionScorer[E]) Name() string { return "session-match" }

func (s *sessionScorer[E]) Score(r *workload.Request, view View[E], cands []E, out []float64) {
	id, ok := s.aff.Holder(r.Session)
	for i, e := range cands {
		if ok && e.EndpointID() == id {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
}

// TTFT EWMA scorer constants.
const (
	// ttftAlpha is the EWMA smoothing factor: ~the last dozen
	// observations dominate an endpoint's learned first-token latency,
	// fast enough to track a Fig. 13 burst and slow enough to ride out
	// one outlier.
	ttftAlpha = 0.2
	// TTFTFloor (seconds) keeps predictions positive and makes
	// never-observed endpoints maximally attractive, so compositions
	// explore every endpoint before trusting the learned ranking.
	TTFTFloor = 0.005
	// ttftLoadScale (tokens) converts outstanding work into a latency
	// multiplier: an endpoint carrying this many outstanding tokens is
	// expected to double its observed TTFT. It deliberately matches
	// OverloadSlack so the two mechanisms agree on what "loaded" means.
	ttftLoadScale = 8192
)

// TTFTScorer learns each endpoint's first-token latency as an EWMA fed
// through TTFTObserver, and scores by the negated load-inflated
// prediction — the learned half of the adaptive-ttft composition. It
// forgets a downed endpoint's EWMA (a respawned ID starts over).
type TTFTScorer[E Endpoint] struct {
	ewma map[int]float64 // endpoint ID -> learned TTFT, seconds
}

// NewTTFTScorer builds an empty learned-TTFT scorer.
func NewTTFTScorer[E Endpoint]() *TTFTScorer[E] {
	return &TTFTScorer[E]{ewma: map[int]float64{}}
}

func (s *TTFTScorer[E]) Name() string { return "ttft-ewma" }

// ObserveTTFT implements TTFTObserver.
func (s *TTFTScorer[E]) ObserveTTFT(replica int, ttft sim.Time) {
	v := ttft.Seconds()
	if old, ok := s.ewma[replica]; ok {
		v = old + ttftAlpha*(v-old)
	}
	s.ewma[replica] = v
}

// ReplicaDown implements DownObserver.
func (s *TTFTScorer[E]) ReplicaDown(id int) { delete(s.ewma, id) }

// Learned returns the endpoint's raw EWMA, if any observation seeded it.
func (s *TTFTScorer[E]) Learned(id int) (float64, bool) {
	v, ok := s.ewma[id]
	return v, ok
}

// Predict returns the TTFT a request routed to e would see: the learned
// EWMA (floored, so unseen endpoints win and get explored) scaled up by
// the endpoint's outstanding work.
func (s *TTFTScorer[E]) Predict(e E) float64 {
	base := TTFTFloor
	if v, ok := s.ewma[e.EndpointID()]; ok && v > base {
		base = v
	}
	return base * (1 + float64(e.OutstandingTokens())/ttftLoadScale)
}

func (s *TTFTScorer[E]) Score(r *workload.Request, view View[E], cands []E, out []float64) {
	for i, e := range cands {
		out[i] = -s.Predict(e)
	}
}

// ---- pickers ----

// maxScorePicker takes the lexicographically best score row, breaking
// full ties toward the first candidate (candidates arrive in ID order,
// so the lowest ID).
type maxScorePicker[E Endpoint] struct{}

// MaxScore returns the deterministic max-score picker.
func MaxScore[E Endpoint]() Picker[E] { return maxScorePicker[E]{} }

func (maxScorePicker[E]) Name() string { return "max-score" }

func (maxScorePicker[E]) Pick(r *workload.Request, cands []E, scores [][]float64) E {
	best := 0
	for i := 1; i < len(cands); i++ {
		for _, row := range scores {
			if row[i] > row[best] {
				best = i
				break
			}
			if row[i] < row[best] {
				break
			}
		}
	}
	return cands[best]
}

// roundRobinPicker cycles the candidate ring by stable endpoint ID: the
// next pick is the lowest ID above the last one served, wrapping to the
// lowest present. On a static fleet this is exactly index order; when
// the fleet resizes mid-run the ring stays fair — a positional cursor
// (next % len against a changing length) skews, repeating or starving
// endpoints across the resize.
type roundRobinPicker[E Endpoint] struct{ last int }

// RoundRobin returns a stateful ring-order picker. It ignores scores.
func RoundRobin[E Endpoint]() Picker[E] { return &roundRobinPicker[E]{last: -1} }

func (p *roundRobinPicker[E]) Name() string { return "round-robin" }

func (p *roundRobinPicker[E]) Pick(r *workload.Request, cands []E, scores [][]float64) E {
	for _, e := range cands {
		if e.EndpointID() > p.last {
			p.last = e.EndpointID()
			return e
		}
	}
	e := cands[0]
	p.last = e.EndpointID()
	return e
}

// ---- classifiers ----

// AffinityClassifier routes each request down one of three profiles:
// Sticky when the session's KV holder is reachable and healthy, Divert
// when the holder is reachable but overloaded, and Cold otherwise. It
// is the profile-selection half shared by the prefix-affinity and
// adaptive-ttft compositions.
type AffinityClassifier[E Endpoint] struct {
	aff                  *Affinity[E]
	sticky, divert, cold int
}

// NewAffinityClassifier builds the three-way sticky/divert/cold
// classifier over the given affinity state and profile indexes.
func NewAffinityClassifier[E Endpoint](aff *Affinity[E], sticky, divert, cold int) *AffinityClassifier[E] {
	return &AffinityClassifier[E]{aff: aff, sticky: sticky, divert: divert, cold: cold}
}

func (c *AffinityClassifier[E]) Name() string { return "affinity" }

func (c *AffinityClassifier[E]) Classify(r *workload.Request, view View[E]) int {
	e, ok := c.aff.StickyIn(r, view.Candidates)
	if !ok {
		return c.cold
	}
	if Overloaded(e, view.Candidates) {
		return c.divert
	}
	return c.sticky
}

// DefaultPDSplitTokens is the new-context length past which a request
// counts as long-prefill and takes the split path.
const DefaultPDSplitTokens = 4096

// PDClassifier is the paper's per-request aggregation-vs-disaggregation
// decision as a pre-request stage: sessions whose KV holder is healthy
// stay on it (the aggregated path, whatever the holder's role — the
// cache-hit estimate says serving anywhere else re-prefills the whole
// context), while cold or diverted requests are classified by the
// prefill work they will actually pay: prompts at or past the threshold
// take the Split profile (prefill-role pool), shorter ones the
// Aggregated profile.
type PDClassifier[E Endpoint] struct {
	aff                       *Affinity[E]
	threshold                 int
	sticky, split, aggregated int
}

// NewPDClassifier builds the P/D classifier; a threshold ≤ 0 selects
// DefaultPDSplitTokens.
func NewPDClassifier[E Endpoint](aff *Affinity[E], threshold, sticky, split, aggregated int) *PDClassifier[E] {
	if threshold <= 0 {
		threshold = DefaultPDSplitTokens
	}
	return &PDClassifier[E]{aff: aff, threshold: threshold,
		sticky: sticky, split: split, aggregated: aggregated}
}

func (c *PDClassifier[E]) Name() string { return "pd-split" }

func (c *PDClassifier[E]) Classify(r *workload.Request, view View[E]) int {
	if e, ok := c.aff.StickyIn(r, view.Candidates); ok && !Overloaded(e, view.Candidates) {
		return c.sticky
	}
	if r.InputTokens >= c.threshold {
		return c.split
	}
	return c.aggregated
}
