package workload

import (
	"bytes"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"muxwise/internal/kvcache"
	"muxwise/internal/sim"
)

func TestDistFit(t *testing.T) {
	cases := []struct{ min, mean, max float64 }{
		{4, 226, 1024},
		{3380, 30000, 81000},
		{1, 342, 2000},
		{684, 8374, 32000},
	}
	rng := rand.New(rand.NewPCG(1, 1))
	for _, c := range cases {
		d := NewDist(c.min, c.mean, c.max)
		var sum float64
		n := 40000
		for i := 0; i < n; i++ {
			v := d.Sample(rng)
			if v < c.min || v > c.max {
				t.Fatalf("sample %v outside [%v,%v]", v, c.min, c.max)
			}
			sum += v
		}
		got := sum / float64(n)
		if math.Abs(got-c.mean)/c.mean > 0.05 {
			t.Errorf("dist(%v,%v,%v): sample mean %.1f, want ≈%.0f", c.min, c.mean, c.max, got, c.mean)
		}
	}
}

func TestDistConst(t *testing.T) {
	d := Const(243)
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 10; i++ {
		if got := d.Sample(rng); got != 243 {
			t.Fatalf("const sample = %v", got)
		}
	}
}

func TestDistBadParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for mean outside (min,max)")
		}
	}()
	NewDist(10, 5, 100)
}

// Table 1 reproduction: every generator must land near the published
// min/mean/max statistics.
func TestTable1Statistics(t *testing.T) {
	type row struct {
		name                       string
		tr                         *Trace
		inMean, outMean, reuseMean float64
		inMin, inMax               int
	}
	rows := []row{
		{"ShareGPT", ShareGPT(1, 8000), 226, 195, 0, 4, 1024},
		{"LooGLE", LooGLE(1, 4000), 30000, 15, 0, 3380, 81000},
		{"OpenThoughts", OpenThoughts(1, 4000), 709, 8374, 243, 311, 4633},
		{"Conversation", Conversation(1, 6000), 7538, 342, 4496, 891, 123000},
		{"Tool&Agent", ToolAgent(1, 6000), 8596, 182, 4905, 891, 123000},
	}
	for _, r := range rows {
		s := r.tr.Stats()
		check := func(metric string, got int, want float64, tol float64) {
			if want == 0 {
				if got != 0 {
					t.Errorf("%s %s = %d, want 0", r.name, metric, got)
				}
				return
			}
			if math.Abs(float64(got)-want)/want > tol {
				t.Errorf("%s %s = %d, want ≈%.0f (±%.0f%%)", r.name, metric, got, want, tol*100)
			}
		}
		check("input mean", s.InMean, r.inMean, 0.15)
		check("output mean", s.OutMean, r.outMean, 0.15)
		check("reuse mean", s.ReuseMean, r.reuseMean, 0.20)
		if s.InMin < r.inMin {
			t.Errorf("%s input min %d below bound %d", r.name, s.InMin, r.inMin)
		}
		if s.InMax > r.inMax {
			t.Errorf("%s input max %d above bound %d", r.name, s.InMax, r.inMax)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := Conversation(42, 100)
	b := Conversation(42, 100)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Requests {
		x, y := a.Requests[i], b.Requests[i]
		if x.InputTokens != y.InputTokens || x.OutputTokens != y.OutputTokens ||
			x.ReusedTokens != y.ReusedTokens || len(x.Pages) != len(y.Pages) {
			t.Fatalf("request %d differs between identical seeds", i)
		}
	}
	c := Conversation(43, 100)
	same := true
	for i := range a.Requests {
		if i >= c.Len() || a.Requests[i].InputTokens != c.Requests[i].InputTokens {
			same = false
			break
		}
	}
	if same && a.Len() == c.Len() {
		t.Fatal("different seeds produced identical traces")
	}
}

// Lookup finds every built-in workload in any case, a multi-turn one with
// its own Fig. 13 shape, and nothing else.
func TestLookupBuiltins(t *testing.T) {
	for _, name := range strings.Split(Names(), ", ") {
		w, ok := Lookup(strings.ToUpper(name))
		if !ok || w.Name != name {
			t.Fatalf("Lookup(%q) = %q, %v", strings.ToUpper(name), w.Name, ok)
		}
		tr := w.Generate(1, 4)
		if tr.Len() == 0 || w.Profile != nil && w.Profile(1).Name != tr.Name {
			t.Fatalf("%s: %d requests of %q", name, tr.Len(), tr.Name)
		}
	}
	if _, ok := Lookup("mixed"); ok {
		t.Fatal("Lookup resolved a workload that is not built in")
	}
}

// Multi-turn page sequences must be strict prefixes of later turns in the
// same session — that is what makes the radix cache effective.
func TestMultiTurnPrefixProperty(t *testing.T) {
	tr := ToolAgent(5, 200)
	lastPages := map[int][]uint64{}
	for _, r := range tr.Requests {
		pages := make([]uint64, len(r.Pages))
		for i, p := range r.Pages {
			pages[i] = uint64(p)
		}
		if prev, ok := lastPages[r.Session]; ok {
			if len(prev) > len(pages) {
				t.Fatalf("session %d turn %d: context shrank", r.Session, r.Turn)
			}
			for i := range prev {
				if prev[i] != pages[i] {
					t.Fatalf("session %d turn %d: page %d diverged from earlier turn", r.Session, r.Turn, i)
				}
			}
		}
		lastPages[r.Session] = pages
	}
}

// Pages must be exactly the input's prefix of AllPages, capped at its
// length so an append to Pages cannot write into AllPages — on every
// generator and on a trace loaded from JSONL.
func TestAllPagesExtendInput(t *testing.T) {
	var buf bytes.Buffer
	if err := ToolAgent(2, 20).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSONL(&buf, "loaded")
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Trace{ShareGPT(2, 50), LooGLE(2, 10), OpenThoughts(2, 30),
		Conversation(2, 20), ToolAgent(2, 20), loaded} {
		for _, r := range tr.Requests {
			in := kvcache.PageCount(r.InputTokens, PageTokens)
			all := kvcache.PageCount(r.InputTokens+r.OutputTokens, PageTokens)
			if len(r.Pages) != in || len(r.AllPages) != all {
				t.Fatalf("%s req %d: %d/%d pages, want %d/%d", tr.Name, r.ID, len(r.Pages), len(r.AllPages), in, all)
			}
			if !slices.Equal(r.Pages, r.AllPages[:in]) {
				t.Fatalf("%s req %d: AllPages not an extension of Pages", tr.Name, r.ID)
			}
			if cap(r.Pages) != len(r.Pages) {
				t.Fatalf("%s req %d: cap(Pages) %d != len %d", tr.Name, r.ID, cap(r.Pages), len(r.Pages))
			}
		}
	}
}

func TestOpenThoughtsSharedPrompt(t *testing.T) {
	tr := OpenThoughts(3, 10)
	first := tr.Requests[0].Pages
	for _, r := range tr.Requests[1:] {
		for i := 0; i < 15; i++ { // 243 tokens / 16 per page = 15.2 pages
			if r.Pages[i] != first[i] {
				t.Fatalf("request %d does not share the system prompt pages", r.ID)
			}
		}
		if r.ReusedTokens != 243 {
			t.Fatalf("request %d reused = %d, want 243", r.ID, r.ReusedTokens)
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	tr := ShareGPT(7, 2000).WithPoissonArrivals(7, 10)
	var last sim.Time
	for i, r := range tr.Requests {
		if r.Arrival < last {
			t.Fatalf("arrivals not sorted at %d", i)
		}
		last = r.Arrival
	}
	makespan := tr.Requests[len(tr.Requests)-1].Arrival.Seconds()
	rate := float64(len(tr.Requests)) / makespan
	if math.Abs(rate-10)/10 > 0.1 {
		t.Fatalf("achieved rate %.2f req/s, want ≈10", rate)
	}
}

func TestArrivalsPreserveTurnOrder(t *testing.T) {
	tr := Conversation(9, 300).WithPoissonArrivals(9, 5)
	lastArrival := map[int]sim.Time{}
	lastTurn := map[int]int{}
	for _, r := range tr.Requests {
		if prev, ok := lastArrival[r.Session]; ok {
			if r.Arrival < prev {
				t.Fatalf("session %d: turn %d arrives before turn %d", r.Session, r.Turn, lastTurn[r.Session])
			}
			if r.Turn <= lastTurn[r.Session] {
				t.Fatalf("session %d: turn order violated (%d after %d)", r.Session, r.Turn, lastTurn[r.Session])
			}
		}
		lastArrival[r.Session] = r.Arrival
		lastTurn[r.Session] = r.Turn
	}
}

// Figure 13 reproduction: the bursty profiles must show large one-minute
// spikes (the paper reports up to 13× within a minute).
func TestBurstyProfileShape(t *testing.T) {
	for _, p := range []RateProfile{ConversationProfile(1), ToolAgentProfile(1)} {
		perMin := p.RatePerMinute()
		if len(perMin) != 20 {
			t.Fatalf("%s: %d minutes, want 20", p.Name, len(perMin))
		}
		lo, hi := math.Inf(1), 0.0
		for _, v := range perMin {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if hi/lo < 3 {
			t.Errorf("%s: peak/base = %.1f, want bursty (≥3×)", p.Name, hi/lo)
		}
		if p.Peak <= 0 {
			t.Errorf("%s: nonpositive peak", p.Name)
		}
	}
}

func TestProfileArrivalsWithinWindow(t *testing.T) {
	p := ToolAgentProfile(2)
	tr := ToolAgent(11, 3000).WithProfileArrivals(11, p)
	if tr.Len() == 0 {
		t.Fatal("no arrivals generated")
	}
	for _, r := range tr.Requests {
		if r.Arrival > p.Duration {
			t.Fatalf("arrival %v beyond profile window %v", r.Arrival, p.Duration)
		}
	}
	// Empirical spike: more arrivals near t=620s than in a quiet window.
	countIn := func(lo, hi float64) int {
		n := 0
		for _, r := range tr.Requests {
			if s := r.Arrival.Seconds(); s >= lo && s < hi {
				n++
			}
		}
		return n
	}
	if burst, quiet := countIn(590, 650), countIn(940, 1000); burst <= quiet {
		t.Errorf("burst window %d arrivals ≤ quiet window %d", burst, quiet)
	}
}

// Regression: WithProfileArrivals spun forever on a NaN or +Inf profile
// scale, and a negative one put every request at t=0. A peak rate that is
// not positive and finite must yield an empty trace.
func TestProfileArrivalsRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		done := make(chan int, 1)
		go func() {
			done <- Conversation(1, 5).WithProfileArrivals(1, ConversationProfile(scale)).Len()
		}()
		select {
		case n := <-done:
			if n != 0 {
				t.Errorf("scale %v: %d arrivals, want none", scale, n)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("scale %v: WithProfileArrivals did not return within 10s", scale)
		}
	}
}

func TestMix(t *testing.T) {
	a := ShareGPT(1, 50).WithPoissonArrivals(1, 1)
	b := LooGLE(2, 50).WithPoissonArrivals(2, 1)
	m := Mix("mixed", a, b)
	if m.Len() != 100 {
		t.Fatalf("mixed len = %d, want 100", m.Len())
	}
	var last sim.Time
	for i, r := range m.Requests {
		if r.ID != i {
			t.Fatalf("IDs not renumbered at %d", i)
		}
		if r.Arrival < last {
			t.Fatalf("mixed trace not time-sorted")
		}
		last = r.Arrival
	}
	sessions := map[int]string{}
	for _, r := range m.Requests {
		if ds, ok := sessions[r.Session]; ok && ds != r.Dataset {
			t.Fatalf("session %d spans datasets %s and %s", r.Session, ds, r.Dataset)
		}
		sessions[r.Session] = r.Dataset
	}
}

// Property: censored-lognormal fit hits the requested mean for random
// well-formed parameter triples.
func TestPropertyDistMeanFit(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	f := func(a, b, c uint16) bool {
		vals := []float64{float64(a%5000) + 1, float64(b%5000) + 1, float64(c%5000) + 1}
		lo := math.Min(vals[0], math.Min(vals[1], vals[2]))
		hi := math.Max(vals[0], math.Max(vals[1], vals[2]))
		if hi-lo < 10 {
			return true
		}
		mean := lo + (hi-lo)*0.3
		d := NewDist(lo, mean, hi)
		var sum float64
		n := 20000
		for i := 0; i < n; i++ {
			sum += d.Sample(rng)
		}
		return math.Abs(sum/float64(n)-mean)/mean < 0.08
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkConversationGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Conversation(uint64(i), 200)
	}
}
