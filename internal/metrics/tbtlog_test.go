package metrics

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"muxwise/internal/sim"
)

// lenBucket is monotone in the gap, at every bit length's edges and at
// random gaps.
func TestLenBucketMonotone(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	gaps := []sim.Time{math.MinInt64, -1 << 40, -1, 0, 1, sim.MaxTime - 1, sim.MaxTime}
	for e := 1; e < 63; e++ {
		gaps = append(gaps, 1<<e-1, 1<<e, 1<<e+1)
	}
	for range 10_000 {
		gaps = append(gaps, sim.Time(rng.Uint64()))
	}
	slices.Sort(gaps)
	for i, g := range gaps {
		if b := lenBucket(g); b < 0 || b > 64 || i > 0 && b < lenBucket(gaps[i-1]) {
			t.Fatalf("gap %d in bucket %d, gap %d in %d", g, b, gaps[max(i-1, 0)], lenBucket(gaps[max(i-1, 0)]))
		}
	}
}

// runQuantiles over a log of weighted runs, emptied runs among them, equals the reference over the expanded
// samples, for every shape of gaps: all equal, two values, extremes,
// negative, the full int64 range, and millisecond gaps.
func TestRunQuantilesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	random := func(n int, gap func() sim.Time) []sim.Time {
		gaps := make([]sim.Time, n)
		for i := range gaps {
			gaps[i] = gap()
		}
		return gaps
	}
	ms := func() sim.Time { return 5*sim.Millisecond + sim.Time(rng.Int64N(int64(50*sim.Millisecond))) }
	cases := map[string][]sim.Time{
		"empty":        nil,
		"one":          {7},
		"two":          random(2, ms),
		"all-equal":    slices.Repeat([]sim.Time{3 * sim.Millisecond}, 1000),
		"two-distinct": random(1000, func() sim.Time { return sim.Time(1+rng.IntN(2)) * sim.Millisecond }),
		"extremes": random(1000, func() sim.Time {
			return []sim.Time{0, 1 << 62, math.MaxInt64, 1}[rng.IntN(4)]
		}),
		"negative": append(random(200, ms), -1, math.MinInt64),
		"wide":     random(1+rng.IntN(20_000), func() sim.Time { return sim.Time(rng.Int64()) }),
		"few":      random(1+rng.IntN(20_000), func() sim.Time { return sim.Time(rng.IntN(40)) << 20 }),
	}
	for i := range 8 {
		cases[fmt.Sprintf("ms-%d", i)] = random(rng.IntN(20_001), ms)
	}
	for name, gaps := range cases {
		var log blockLog[tbtRun]
		var samples []sim.Time
		for _, g := range gaps {
			n := int32(rng.IntN(5))
			log.push(tbtRun{gap: g, n: n})
			for range n {
				samples = append(samples, g)
			}
		}
		before := fmt.Sprint(log)
		if got, want := runQuantiles(&log), refQuantiles(samples); !sameBits(got, want) {
			t.Fatalf("%s: %+v, reference %+v", name, got, want)
		}
		if fmt.Sprint(log) != before {
			t.Fatalf("%s: runQuantiles wrote to its runs", name)
		}
	}
}
