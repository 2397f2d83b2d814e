package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestVerdict covers the four outcomes of the comparison rules.
func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	for _, c := range []struct {
		name           string
		parent, change []float64
		lower          bool
		bound          float64
		want           string
	}{
		{"gain: 10/10 wins, medians apart by more than the IQR", parent, faster, true, 0.1, "improved"},
		{"nine pairs are too few for a gain", parent[:9], faster[:9], true, 0.1, "unchanged"},
		{"worse than the bound", parent, scaled(parent, 1.2), true, 0.1, "regressed"},
		{"higher is better: a lower median regresses", parent, scaled(parent, 0.8), false, 0.1, "regressed"},
		{"within the bound", parent, scaled(parent, 1.02), true, 0.1, "unchanged"},
		{"parent spread wider than the bound", []float64{50, 150, 60, 140, 100, 55, 145, 100, 70, 130}, parent, true, 0.1, "unresolved"},
	} {
		if got, _, _ := verdict(c.parent, c.change, c.lower, c.bound, true); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func scaled(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

// TestReadRuns parses concatenated benchmark output: each JSON result
// belongs to the workload its header line names.
func TestReadRuns(t *testing.T) {
	out := strings.Join([]string{
		"muxperf: workload=sharegpt-engine seed=1 seconds=10 trace=0",
		"sim_req_per_s 100 req/s",
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"sim_req_per_s":{"value":100,"unit":"req/s"}}}`,
		"muxperf: workload=bursty-fleet seed=1 seconds=10 trace=1",
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"cluster.ns_per_pick":{"value":7,"unit":"ns"}}}`,
	}, "\n")
	path := filepath.Join(t.TempDir(), "runs.txt")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := readRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := series(rs["sharegpt-engine trace=0"], "sim_req_per_s"); len(got) != 1 || got[0] != 100 {
		t.Errorf("sharegpt-engine runs = %v", got)
	}
	if got := series(rs["bursty-fleet trace=1"], "cluster.ns_per_pick"); len(got) != 1 || got[0] != 7 {
		t.Errorf("bursty-fleet traced runs = %v", got)
	}
}
