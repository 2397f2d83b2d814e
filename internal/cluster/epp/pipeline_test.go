package epp

import (
	"testing"

	"muxwise/internal/kvcache"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// ep is a minimal Endpoint for pipeline unit tests.
type ep struct {
	id   int
	role Role
	out  int64
	reqs int
}

func (e *ep) EndpointID() int          { return e.id }
func (e *ep) EndpointRole() Role       { return e.role }
func (e *ep) OutstandingTokens() int64 { return e.out }
func (e *ep) InFlight() int            { return e.reqs }

func fleet(n int) []*ep {
	out := make([]*ep, n)
	for i := range out {
		out[i] = &ep{id: i}
	}
	return out
}

func vw(cands []*ep) View[*ep] { return View[*ep]{Candidates: cands} }

func req(id, session int) *workload.Request {
	return &workload.Request{ID: id, Session: session, InputTokens: 100, OutputTokens: 10}
}

func pages(ids ...uint64) []kvcache.PageID {
	out := make([]kvcache.PageID, len(ids))
	for i, id := range ids {
		out[i] = kvcache.PageID(id)
	}
	return out
}

// withPages gives a request the pages ids, as AllPages and segments.
func withPages(r *workload.Request, ids ...uint64) *workload.Request {
	r.AllPages = pages(ids...)
	r.Segments = workload.PageSegments(r.AllPages)
	return r
}

func TestPipelineEmptyViewReturnsZero(t *testing.T) {
	p := New("t", nil, []Profile[*ep]{{Name: "all"}})
	if got := p.Pick(req(0, 0), vw(nil)); got != nil {
		t.Fatalf("empty view picked %v, want nil", got)
	}
}

// fixedScorer scores each candidate by a per-ID table (default 0).
type fixedScorer struct{ byID map[int]float64 }

func (s *fixedScorer) Name() string { return "fixed" }
func (s *fixedScorer) Score(r *workload.Request, view View[*ep], cands []*ep, out []float64) {
	for i, e := range cands {
		out[i] = s.byID[e.id]
	}
}

func TestScorerTiersAreLexicographic(t *testing.T) {
	// Tier 1 ties endpoints 1 and 2 above 0; tier 2 must break the tie
	// toward 2 without letting 0's huge tier-2 score matter.
	tier1 := &fixedScorer{byID: map[int]float64{0: 0, 1: 5, 2: 5}}
	tier2 := &fixedScorer{byID: map[int]float64{0: 1000, 1: 0, 2: 1}}
	p := New("t", nil, []Profile[*ep]{{
		Scorers: [][]Weighted[*ep]{
			{{Scorer: tier1, Weight: 1}},
			{{Scorer: tier2, Weight: 1}},
		},
	}})
	if got := p.Pick(req(0, 0), vw(fleet(3))); got.id != 2 {
		t.Fatalf("picked %d, want 2 (tier-2 tie-break, not tier-2 dominance)", got.id)
	}
}

func TestWeightedTierBlends(t *testing.T) {
	// One tier, two weighted scorers: 2*a + 1*b. Endpoint 0: 2*1+4=6;
	// endpoint 1: 2*2+1=5 — the blend must pick 0 even though b alone
	// prefers it and a alone prefers 1.
	a := &fixedScorer{byID: map[int]float64{0: 1, 1: 2}}
	b := &fixedScorer{byID: map[int]float64{0: 4, 1: 1}}
	p := New("t", nil, []Profile[*ep]{{
		Scorers: [][]Weighted[*ep]{{
			{Scorer: a, Weight: 2},
			{Scorer: b, Weight: 1},
		}},
	}})
	if got := p.Pick(req(0, 0), vw(fleet(2))); got.id != 0 {
		t.Fatalf("picked %d, want the weighted-sum winner 0", got.id)
	}
}

func TestMaxScoreTiesGoToLowestID(t *testing.T) {
	p := New("t", nil, []Profile[*ep]{{
		Scorers: [][]Weighted[*ep]{{{Scorer: &fixedScorer{}, Weight: 1}}},
	}})
	if got := p.Pick(req(0, 0), vw(fleet(4))); got.id != 0 {
		t.Fatalf("all-tied pick %d, want lowest ID 0", got.id)
	}
}

// dropAll is a filter that always empties the candidate set.
type dropAll struct{}

func (dropAll) Name() string { return "drop-all" }
func (dropAll) Filter(r *workload.Request, view View[*ep], cands []*ep, out []*ep) []*ep {
	return out
}

func TestEmptyFilterResultIsSkipped(t *testing.T) {
	// A filter that would strand the request degrades to a no-op; the
	// following role filter still sees the full set.
	p := New("t", nil, []Profile[*ep]{{
		Filters: []Filter[*ep]{dropAll{}, KeepRoles[*ep](RolePrefill)},
	}})
	reps := fleet(3)
	reps[2].role = RolePrefill
	if got := p.Pick(req(0, 0), vw(reps)); got.id != 2 {
		t.Fatalf("picked %d, want the prefill endpoint 2", got.id)
	}
}

func TestKeepRolesFallsBackWhenPoolEmpty(t *testing.T) {
	p := New("t", nil, []Profile[*ep]{{
		Filters: []Filter[*ep]{KeepRoles[*ep](RoleDecode)},
	}})
	// No decode endpoints: the pool falls back to everyone, lowest ID
	// wins.
	if got := p.Pick(req(0, 0), vw(fleet(2))); got.id != 0 {
		t.Fatalf("picked %d, want fallback to the full set", got.id)
	}
}

func TestRoundRobinPickerRingOrder(t *testing.T) {
	p := New("t", nil, []Profile[*ep]{{Picker: RoundRobin[*ep]()}})
	reps := fleet(3)
	want := []int{0, 1, 2, 0, 1}
	for i, w := range want {
		if got := p.Pick(req(i, 0), vw(reps)); got.id != w {
			t.Fatalf("pick %d = %d, want %d", i, got.id, w)
		}
	}
	// Drop ID 1: the ring continues from the last-served ID.
	shrunk := []*ep{reps[0], reps[2]}
	for i, w := range []int{2, 0, 2} {
		if got := p.Pick(req(10+i, 0), vw(shrunk)); got.id != w {
			t.Fatalf("post-drain pick %d = %d, want %d", i, got.id, w)
		}
	}
}

func TestAffinityRecordsPicksAndForgets(t *testing.T) {
	aff := NewAffinity[*ep]()
	p := New("t", NewAffinityClassifier(aff, 0, 1, 2), []Profile[*ep]{
		{Name: "sticky", Filters: []Filter[*ep]{StickySession(aff)}},
		{Name: "divert", Filters: []Filter[*ep]{Divert(aff, false)},
			Scorers: [][]Weighted[*ep]{{{Scorer: LeastTokens[*ep](), Weight: 1}}}},
		{Name: "cold",
			Scorers: [][]Weighted[*ep]{{{Scorer: LeastTokens[*ep](), Weight: 1}}}},
	}, aff)
	reps := fleet(3)
	reps[0].out = 50 // cold pick must go to 1 (least loaded tie → lowest)

	turn := func(n int) *workload.Request {
		return withPages(req(n, 7), 1, 2, 3)
	}
	home := p.Pick(turn(0), vw(reps))
	if home.id != 1 {
		t.Fatalf("cold pick went to %d, want least-loaded 1", home.id)
	}
	if id, ok := aff.Holder(7); !ok || id != 1 {
		t.Fatalf("Holder(7) = %d,%v after pick, want 1", id, ok)
	}
	if p.Pick(turn(1), vw(reps)) != home {
		t.Fatal("healthy session must stay sticky")
	}
	// Overload the holder: the divert profile sheds the session.
	home.out = 1 << 20
	if got := p.Pick(turn(2), vw(reps)); got == home {
		t.Fatal("overloaded holder must shed the session")
	}
	// The dead holder's pins and index vanish together.
	aff.ReplicaDown(2)
	if id, ok := aff.Holder(7); ok && id == 2 {
		t.Fatal("ReplicaDown left the session pinned to the dead endpoint")
	}
	if aff.Match(2, workload.PageSegments(pages(1, 2, 3)), 3) != 0 {
		t.Fatal("ReplicaDown left the dead endpoint's prefix index advertising pages")
	}
}

func TestAffinityMigrationRehomesPin(t *testing.T) {
	aff := NewAffinity[*ep]()
	reps := fleet(2)
	r := withPages(req(0, 3), 10, 11)
	aff.Picked(r, reps[0])
	aff.SessionMigrated(3, 0, 1, r.Segments, 2)
	if id, _ := aff.Holder(3); id != 1 {
		t.Fatalf("pin did not follow the KV: holder %d, want 1", id)
	}
	if aff.Match(1, r.Segments, 2) != 2 {
		t.Fatal("destination index must advertise the migrated pages")
	}
	// A newer pin wins over a stale migration completion.
	aff.Picked(req(1, 3), reps[0])
	aff.SessionMigrated(3, 1, 0, nil, 0) // from matches? no: current pin is 0 already
	aff.SessionMigrated(3, 1, 1, nil, 0) // stale: pin is 0, from is 1 — must not move
	if id, _ := aff.Holder(3); id != 0 {
		t.Fatalf("stale migration moved the pin to %d, want 0", id)
	}
}

func TestTTFTScorerLearnsAndForgets(t *testing.T) {
	s := NewTTFTScorer[*ep]()
	e := &ep{id: 4}
	// Unseen: prediction is the floor.
	if got := s.Predict(e); got != TTFTFloor {
		t.Fatalf("cold prediction %v, want floor %v", got, TTFTFloor)
	}
	s.ObserveTTFT(4, 2*sim.Second)
	if v, ok := s.Learned(4); !ok || v <= 0 {
		t.Fatalf("Learned(4) = %v,%v after observation", v, ok)
	}
	if got := s.Predict(e); got <= TTFTFloor {
		t.Fatalf("slow endpoint prediction %v should exceed the floor", got)
	}
	// Load inflates the prediction.
	base := s.Predict(e)
	e.out = 1 << 20
	if got := s.Predict(e); got <= base {
		t.Fatalf("loaded prediction %v should exceed idle %v", got, base)
	}
	s.ReplicaDown(4)
	if _, ok := s.Learned(4); ok {
		t.Fatal("ReplicaDown should forget the EWMA")
	}
}

// TestPrefixIndexRingStaysBounded is the eviction-leak regression test:
// the historical FIFO (order = order[1:]) kept the backing array of
// every page ever appended alive; the ring buffer's capacity must stay
// at the limit through sustained eviction, while FIFO semantics
// (oldest out first) hold. Every page here is a one-page run of its own
// stream, the ring's worst case: one run per held page.
func TestPrefixIndexRingStaysBounded(t *testing.T) {
	const limit = 64
	ix := NewPrefixIndex(limit)
	has := func(pg uint64) bool { return ix.Match(workload.PageSegments(pages(pg)), 1) == 1 }
	for start := uint64(0); start < 100*limit; start += 8 {
		ix.Add(workload.PageSegments(pages(start, start+1, start+2, start+3, start+4, start+5, start+6, start+7)), 8)
	}
	if ix.Len() != limit {
		t.Fatalf("index holds %d pages, want the limit %d", ix.Len(), limit)
	}
	if c := ix.RingCap(); c > limit {
		t.Fatalf("ring capacity %d grew past the limit %d: eviction is pinning memory again", c, limit)
	}
	// FIFO: the newest `limit` pages are present, everything older gone.
	last := uint64(100*limit - 1)
	if !has(last) {
		t.Fatal("newest page missing from the index")
	}
	if has(0) {
		t.Fatal("oldest page should have been evicted")
	}
	for pg := last; pg > last-limit; pg-- {
		if !has(pg) {
			t.Fatalf("page %d inside the window was evicted", pg)
		}
	}
}

func TestPDClassifierRoutesByThresholdAndStickiness(t *testing.T) {
	aff := NewAffinity[*ep]()
	c := NewPDClassifier(aff, 0, 0, 1, 2) // default threshold
	reps := fleet(3)
	long := req(0, 9)
	long.InputTokens = DefaultPDSplitTokens
	short := req(1, 9)
	short.InputTokens = DefaultPDSplitTokens - 1

	if got := c.Classify(long, vw(reps)); got != 1 {
		t.Fatalf("long cold prompt classified %d, want split (1)", got)
	}
	if got := c.Classify(short, vw(reps)); got != 2 {
		t.Fatalf("short cold prompt classified %d, want aggregated (2)", got)
	}
	aff.Picked(long, reps[0])
	if got := c.Classify(long, vw(reps)); got != 0 {
		t.Fatalf("healthy pinned session classified %d, want sticky (0)", got)
	}
	reps[0].out = 1 << 20 // overload the holder: back to the length rule
	if got := c.Classify(long, vw(reps)); got != 1 {
		t.Fatalf("overloaded holder classified %d, want split (1)", got)
	}
}

func TestPipelineObserverFanOutDedupes(t *testing.T) {
	// A TTFT scorer appearing in two profiles and as explicit state must
	// receive each observation exactly once.
	s := NewTTFTScorer[*ep]()
	tiers := [][]Weighted[*ep]{{{Scorer: s, Weight: 1}}}
	p := New("t", nil, []Profile[*ep]{
		{Name: "a", Scorers: tiers},
		{Name: "b", Scorers: tiers},
	}, s)
	p.ObserveTTFT(0, sim.Second)
	v, ok := s.Learned(0)
	if !ok {
		t.Fatal("observation did not reach the scorer")
	}
	if want := 1.0; v != want {
		t.Fatalf("EWMA %v after one observation, want %v (double delivery?)", v, want)
	}
}
