package main

import (
	"math"
	"strings"
	"testing"
)

// TestTailPercentile pins the reporting rule: the highest percentile
// with at least ten samples beyond it, so a run of 100 probes supports
// p90 and nothing higher.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// Nearest rank: with 100 samples, p90 is the 90th smallest, leaving
	// exactly ten beyond it.
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := nearestRank(v, 0.9); got != 90 {
		t.Errorf("nearestRank(1..100, 0.9) = %g, want 90", got)
	}
}

// TestProbeLinePrintsN checks the measured pass states its sample count
// next to the percentiles it reports.
func TestProbeLinePrintsN(t *testing.T) {
	line := probeLine(12.5, 20.25, 102)
	for _, want := range []string{"p50=12.500", "p90=20.250", "n=102", "p90)"} {
		if !strings.Contains(line, want) {
			t.Errorf("probe line %q lacks %q", line, want)
		}
	}
}

// TestQuartilesMatchPython checks the spread the benchmark reports uses
// Python's statistics.quantiles(data, n=4) "exclusive" method, the one
// its acceptance is computed with.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(v)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g %g %g, want 1 2 4", q1, med, q3)
	}
}

// TestHistQuantile checks the pooled-sample histogram stays within its
// 0.1% resolution of the exact nearest-rank quantile.
func TestHistQuantile(t *testing.T) {
	var h hist
	var exact []float64
	for i := 1; i <= 5000; i++ {
		v := 0.001 * math.Pow(1.0013, float64(i)) // 1 ms .. ~670 ms
		h.add(v)
		exact = append(exact, v)
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		want := nearestRank(exact, p)
		if got := h.quantile(p); math.Abs(got-want)/want > 0.001 {
			t.Errorf("p%g: hist %g, exact %g", p*100, got, want)
		}
	}
}
