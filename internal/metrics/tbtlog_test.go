package metrics

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"muxwise/internal/sim"
)

// TestSortRunsMatchesSortFunc checks sortRuns against a comparison sort:
// the same gap sequence, and for every gap the same multiset of n.
func TestSortRunsMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	runsOf := func(gaps ...sim.Time) []gapRun {
		runs := make([]gapRun, len(gaps))
		for i, g := range gaps {
			runs[i] = gapRun{gap: g, n: 1 + rng.IntN(9)}
		}
		return runs
	}
	random := func(n int, gap func() sim.Time) []gapRun {
		gaps := make([]sim.Time, n)
		for i := range gaps {
			gaps[i] = gap()
		}
		return runsOf(gaps...)
	}
	repeat := func(n int, g sim.Time) []sim.Time {
		gaps := make([]sim.Time, n)
		for i := range gaps {
			gaps[i] = g
		}
		return gaps
	}
	ms := func() sim.Time { return 5*sim.Millisecond + sim.Time(rng.Int64N(int64(50*sim.Millisecond))) }
	cases := map[string][]gapRun{
		"empty":        runsOf(),
		"one":          runsOf(7),
		"cutoff-1":     random(insertionCutoff-1, ms),
		"cutoff":       random(insertionCutoff, ms),
		"cutoff+1":     random(insertionCutoff+1, ms),
		"all-equal":    runsOf(repeat(1000, 3*sim.Millisecond)...),
		"two-distinct": random(1000, func() sim.Time { return sim.Time(1+rng.IntN(2)) * sim.Millisecond }),
		"extremes": random(1000, func() sim.Time {
			return []sim.Time{0, 1 << 62, math.MaxInt64, 1}[rng.IntN(4)]
		}),
		"negative": append(random(200, ms), runsOf(-1, math.MinInt64)...),
		"wide":     random(1+rng.IntN(100_000), func() sim.Time { return sim.Time(rng.Int64()) }),
		"ms":       random(1+rng.IntN(100_000), ms),
		"few":      random(1+rng.IntN(100_000), func() sim.Time { return sim.Time(rng.IntN(40)) << 20 }),
	}
	for i := range 8 {
		cases[fmt.Sprintf("random-%d", i)] = random(rng.IntN(100_001), ms)
	}
	for name, runs := range cases {
		want := slices.Clone(runs)
		slices.SortFunc(want, func(a, b gapRun) int { return cmp.Compare(a.gap, b.gap) })
		sortRuns(runs)
		for i := range runs {
			if runs[i].gap != want[i].gap {
				t.Fatalf("%s: gap %d is %d, want %d", name, i, runs[i].gap, want[i].gap)
			}
		}
		for i := 0; i < len(runs); {
			j := i + 1
			for j < len(runs) && runs[j].gap == runs[i].gap {
				j++
			}
			got, exp := ns(runs[i:j]), ns(want[i:j])
			if !slices.Equal(got, exp) {
				t.Fatalf("%s: gap %d has n %v, want %v", name, runs[i].gap, got, exp)
			}
			i = j
		}
	}
}

// ns returns the sorted n of runs.
func ns(runs []gapRun) []int {
	out := make([]int, len(runs))
	for i, run := range runs {
		out[i] = run.n
	}
	slices.Sort(out)
	return out
}
