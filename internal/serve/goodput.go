package serve

import "muxwise/internal/par"

// RatePoint is one sample of a load sweep.
type RatePoint struct {
	Rate       float64 // offered req/s
	Attainment float64 // fraction of TBT samples within SLO
	P99TTFT    float64 // seconds
	P99TBT     float64 // seconds
	Unstable   bool
	TokensPerS float64
	Util       float64
}

// meets reports whether the point satisfies the goodput criterion used
// throughout §4: stable and ≥99% of TBT samples within the SLO.
func (p RatePoint) meets() bool { return !p.Unstable && p.Attainment >= 0.99 }

// SweepBy probes each rate with the given probe function and keeps the
// points up to two past the first SLO miss (the paper stops testing once
// a system becomes unstable, §4.2.3).
//
// Probes run concurrently — each is an independent deterministic
// simulation — but the returned slice is identical to a sequential
// sweep: points stay in rate order and the early-stop truncation is
// applied to the ordered results. The probe function must therefore be
// safe to call from multiple goroutines. Probes launch in geometrically
// growing waves (2, 4, 8, ... capped by the worker pool) so a sweep
// that fails at the low rates does not pay for the saturated high-rate
// simulations past the cutoff — the slowest probes of the whole sweep —
// even on machines with more cores than rates.
func SweepBy(probe func(rate float64) RatePoint, rates []float64) []RatePoint {
	pts := make([]RatePoint, 0, len(rates))
	for wave := 2; len(pts) < len(rates); wave *= 2 {
		start := len(pts)
		end := min(start+min(wave, par.Workers(len(rates))), len(rates))
		pts = append(pts, par.RunIndexed(end-start, func(i int) RatePoint {
			return probe(rates[start+i])
		})...)
		// Replay the sequential early-stop rule on the ordered prefix.
		misses := 0
		for i, p := range pts {
			if !p.meets() {
				misses++
				if misses >= 2 {
					return pts[:i+1]
				}
			}
		}
	}
	return pts
}

// GoodputBy finds the highest offered rate (within [lo, hi]) whose probe
// meets the SLO criterion, by bisection to a 2% relative resolution.
// Bisection is inherently sequential: each probe decides the next rate.
// The second result distinguishes "the floor rate lo already misses the
// criterion" (false) from a feasible range (true): callers must not
// conflate an infeasible range with a goodput of 0 req/s.
func GoodputBy(probe func(rate float64) RatePoint, lo, hi float64) (float64, bool) {
	if !probe(lo).meets() {
		return 0, false
	}
	best := lo
	for i := 0; i < 7 && hi-lo > 0.02*hi; i++ {
		mid := (lo + hi) / 2
		if probe(mid).meets() {
			best, lo = mid, mid
		} else {
			hi = mid
		}
	}
	return best, true
}
