package vet_test

import (
	"strings"
	"testing"

	"muxwise/internal/vet"
	"muxwise/internal/vet/vettest"
)

func TestWallclock(t *testing.T) {
	vettest.Run(t, "testdata/wallclock", []*vet.Analyzer{vet.Wallclock},
		"muxwise/internal/core",
		"muxwise/cmd/muxtool",
	)
}

func TestMapRange(t *testing.T) {
	vettest.Run(t, "testdata/maprange", []*vet.Analyzer{vet.MapRange},
		"muxwise/internal/metrics",
		"muxwise/internal/cluster",
	)
}

func TestHotClosure(t *testing.T) {
	vettest.Run(t, "testdata/hotclosure", []*vet.Analyzer{vet.HotClosure},
		"muxwise/internal/gpu",
		"muxwise/internal/model",
	)
}

func TestPoolSafety(t *testing.T) {
	vettest.Run(t, "testdata/poolsafety", []*vet.Analyzer{vet.PoolSafety},
		"muxwise/internal/sim",
		"muxwise/internal/cluster",
		"muxwise/internal/core",
	)
}

func TestTraceWrite(t *testing.T) {
	vettest.Run(t, "testdata/tracewrite", []*vet.Analyzer{vet.TraceWrite},
		"muxwise/internal/workload",
		"muxwise/internal/serve",
	)
}

// TestDirectives proves the exemption semantics end to end: a
// well-formed directive suppresses exactly one diagnostic on exactly
// one line for exactly one analyzer, and a directive missing its
// reason suppresses nothing and is itself an error.
func TestDirectives(t *testing.T) {
	vettest.Run(t, "testdata/directive",
		[]*vet.Analyzer{vet.Wallclock, vet.MapRange, vet.Directive},
		"muxwise/internal/core",
	)
}

func TestRoster(t *testing.T) {
	want := []string{"wallclock", "maprange", "hotclosure", "poolsafety", "tracewrite", "directive"}
	got := vet.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
		if line, _, _ := strings.Cut(a.Doc, "\n"); strings.TrimSpace(line) == "" {
			t.Errorf("analyzer %q has an empty one-line doc", a.Name)
		}
	}
}

func TestClassification(t *testing.T) {
	cases := []struct {
		path          string
		critical, hot bool
	}{
		{"muxwise", true, false},
		{"muxwise/internal/sim", true, true},
		{"muxwise/internal/gpu", true, true},
		{"muxwise/internal/metrics", true, true},
		{"muxwise/internal/kvcache", true, true},
		{"muxwise/internal/par", true, true},
		{"muxwise/internal/frontier", true, false},
		{"muxwise/internal/roofline", true, true},
		{"muxwise/internal/model", true, true},
		{"muxwise/internal/cluster", true, false},
		{"muxwise/internal/cluster/epp", true, true},
		{"muxwise/internal/serve", true, true},
		{"muxwise/internal/core", true, true},
		{"muxwise/internal/arena", true, true},
		{"muxwise/cmd/muxtool", false, false},
		{"muxwise/internal/vet", false, false},
		{"fmt", false, false},
	}
	for _, c := range cases {
		if got := vet.IsSimCritical(c.path); got != c.critical {
			t.Errorf("IsSimCritical(%q) = %v, want %v", c.path, got, c.critical)
		}
		if got := vet.IsHotPath(c.path); got != c.hot {
			t.Errorf("IsHotPath(%q) = %v, want %v", c.path, got, c.hot)
		}
	}
}
