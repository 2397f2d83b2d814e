package main

import (
	"math"
	"sort"
)

// nearestRank returns the p-quantile of an ascending sample by the
// nearest-rank method, the rule internal/metrics uses for tail latencies.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailPercentile is the highest of p90, p99 and p99.9 that leaves at
// least ten samples beyond it in a sample of n, or p50 when none does:
// a tail percentile is reported only where the sample supports it.
func tailPercentile(n int) float64 {
	best := 0.5
	for _, p := range []float64{0.9, 0.99, 0.999} {
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile by the
// "exclusive" method of Python's statistics.quantiles(data, n=4), so the
// spreads this benchmark reports match the ones its acceptance uses.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// hist is a log-bucketed histogram with 0.1% relative resolution. Pooled
// TBT samples run to tens of millions per workload, too many to keep;
// the histogram keeps their quantiles within 0.1% in bounded memory.
type hist struct {
	counts []uint64
	n      uint64
}

const (
	histMin  = 1e-7 // seconds; smaller samples share the lowest bucket
	histStep = 1.001
)

var histLogStep = math.Log(histStep)

func (h *hist) add(v float64) {
	b := 0
	if v > histMin {
		b = int(math.Log(v/histMin)/histLogStep) + 1
	}
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, b+1-len(h.counts))...)
	}
	h.counts[b]++
	h.n++
}

// quantile returns the nearest-rank p-quantile, interpolated linearly
// by rank inside its bucket as histogram quantile estimators do, so it is
// off by at most one bucket width (0.1%).
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(p*float64(h.n))), 1)
	var seen uint64
	for b, c := range h.counts {
		if seen+c < rank {
			seen += c
			continue
		}
		lo, hi := 0.0, histMin
		if b > 0 {
			lo = histMin * math.Pow(histStep, float64(b-1))
			hi = lo * histStep
		}
		return lo + (hi-lo)*float64(rank-seen)/float64(c)
	}
	return 0
}

// median returns the middle value (the upper middle for even counts).
func median(v []float64) float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	return nearestRank(d, 0.5)
}
