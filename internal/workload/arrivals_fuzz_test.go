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
// be a trace the runners accept: every arrival in [0, MaxArrival],
// arrivals non-decreasing, IDs 0..len-1, each session's turns arriving
// in turn order, and never more requests than went in.
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
		tr = tr.WithPoissonArrivals(seed, rate)
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
			if r.Arrival < 0 || r.Arrival > MaxArrival {
				t.Fatalf("rate %v: request %d arrives at %v, outside [0, %v]", rate, i, r.Arrival, MaxArrival)
			}
			if r.Arrival < prev {
				t.Fatalf("rate %v: request %d arrives at %v, before its predecessor at %v", rate, i, r.Arrival, prev)
			}
			prev = r.Arrival
			if r.ID != i {
				t.Fatalf("rate %v: request at index %d has ID %d", rate, i, r.ID)
			}
			sessions[r.Session] = append(sessions[r.Session], turn{r.Turn, r.Arrival})
		}
		for s, turns := range sessions {
			sort.Slice(turns, func(i, j int) bool { return turns[i].turn < turns[j].turn })
			for i := 1; i < len(turns); i++ {
				if turns[i].at < turns[i-1].at {
					t.Fatalf("rate %v: session %d turn %d arrives at %v, before turn %d at %v",
						rate, s, turns[i].turn, turns[i].at, turns[i-1].turn, turns[i-1].at)
				}
			}
		}
	})
}
