package workload

import (
	"math"
	"sort"
	"testing"

	"muxwise/internal/sim"
)

// FuzzPoissonArrivals drives WithPoissonArrivals over arbitrary seeds,
// trace sizes and rates — zero, tiny, negative, NaN and infinite ones
// included — on a multi-turn trace. Whatever the rate, the result must
// pass checkArrivals.
func FuzzPoissonArrivals(f *testing.F) {
	for _, rate := range []float64{1.5, 0, 1e-12, math.NaN(), -2, math.Inf(1)} {
		f.Add(uint64(7), 12, rate)
	}
	f.Add(uint64(1), 200, 0.01)

	f.Fuzz(func(t *testing.T, seed uint64, n int, rate float64) {
		if n < 0 {
			n = -n
		}
		tr := Conversation(seed, n%201)
		in := len(tr.Requests)
		checkArrivals(t, tr.WithPoissonArrivals(seed, rate), in, MaxArrival)
	})
}

// FuzzProfileArrivals is FuzzPoissonArrivals for WithProfileArrivals:
// the Conversation or Tool&Agent profile at an arbitrary scale, the
// NaN, infinite, negative and overflowing ones included. The result must
// pass checkArrivals within the profile window.
func FuzzProfileArrivals(f *testing.F) {
	for _, scale := range []float64{0.5, 0, -1, 1e-300, 1e300, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(uint64(7), 12, false, scale)
	}
	f.Add(uint64(1), 200, true, 3.0)

	f.Fuzz(func(t *testing.T, seed uint64, n int, tool bool, scale float64) {
		if n < 0 {
			n = -n
		}
		tr, p := Conversation(seed, n%201), ConversationProfile(scale)
		if tool {
			tr, p = ToolAgent(seed, n%201), ToolAgentProfile(scale)
		}
		in := len(tr.Requests)
		checkArrivals(t, tr.WithProfileArrivals(seed, p), in, p.Duration)
	})
}

// checkArrivals fails t unless tr is a trace the runners accept: every
// arrival in [0, limit], arrivals non-decreasing, IDs 0..len-1, each
// session's turns arriving in turn order, and at most in requests, the
// number that went in.
func checkArrivals(t *testing.T, tr *Trace, in int, limit sim.Time) {
	t.Helper()
	if len(tr.Requests) > in {
		t.Fatalf("%d requests out of %d in", len(tr.Requests), in)
	}
	type turn struct {
		turn int
		at   sim.Time
	}
	sessions := map[int][]turn{}
	var prev sim.Time
	for i, r := range tr.Requests {
		if r.Arrival < 0 || r.Arrival > limit {
			t.Fatalf("request %d arrives at %v, outside [0, %v]", i, r.Arrival, limit)
		}
		if r.Arrival < prev {
			t.Fatalf("request %d arrives at %v, before its predecessor at %v", i, r.Arrival, prev)
		}
		prev = r.Arrival
		if r.ID != i {
			t.Fatalf("request at index %d has ID %d", i, r.ID)
		}
		sessions[r.Session] = append(sessions[r.Session], turn{r.Turn, r.Arrival})
	}
	for s, turns := range sessions {
		sort.Slice(turns, func(i, j int) bool { return turns[i].turn < turns[j].turn })
		for i := 1; i < len(turns); i++ {
			if turns[i].at < turns[i-1].at {
				t.Fatalf("session %d turn %d arrives at %v, before turn %d at %v",
					s, turns[i].turn, turns[i].at, turns[i-1].turn, turns[i-1].at)
			}
		}
	}
}
