package frontier

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// -update rewrites the committed goldens from the current run:
//
//	go test ./internal/frontier -update
//
// Inspect the diff before committing — the goldens pin the
// reproduction's physics, so an unexplained shift is a regression, not
// noise.
var update = flag.Bool("update", false, "rewrite testdata/frontier goldens from this run")

// -frontier-report writes the run's full canonical report to a file —
// CI uploads it as the per-commit trajectory artifact without paying
// for a second sweep outside the test binary.
var reportOut = flag.String("frontier-report", "", "also write the canonical FrontierReport JSON here")

// The quick matrix runs once and is shared by every test in the package.
var (
	quickOnce sync.Once
	quickRep  *Report
	quickErr  error
)

func quickReport(t *testing.T) *Report {
	t.Helper()
	quickOnce.Do(func() {
		quickRep, quickErr = Run(Default(true))
	})
	if quickErr != nil {
		t.Fatalf("frontier quick matrix: %v", quickErr)
	}
	return quickRep
}

func goldenPath(condition string) string {
	return filepath.Join("testdata", "frontier", condition+".golden.json")
}

// The roofline matrix (Llama-70B on B200 — no fitted profile exists for
// either half of that pair) also runs once and is shared.
var (
	rooflineOnce sync.Once
	rooflineRep  *Report
	rooflineErr  error
)

func rooflineReport(t *testing.T) *Report {
	t.Helper()
	rooflineOnce.Do(func() {
		rooflineRep, rooflineErr = Run(Roofline(true))
	})
	if rooflineErr != nil {
		t.Fatalf("roofline quick matrix: %v", rooflineErr)
	}
	return rooflineRep
}

// TestRooflineGolden pins the analytical-cost-model frontier: every cell
// of the B200/Llama-70B sweep, a point in hardware×model space that is
// reachable only through -cost-model roofline. The golden guards both
// the roofline physics and the cost-model plumbing end to end
// (experiment options → serve.Config → every replica in the fleet).
func TestRooflineGolden(t *testing.T) {
	rep := rooflineReport(t)
	if rep.Grid.CostModel != "roofline" {
		t.Fatalf("grid cost model %q, want roofline", rep.Grid.CostModel)
	}
	if len(rep.Cells) == 0 {
		t.Fatal("roofline sweep produced no cells")
	}
	for _, c := range rep.Cells {
		if c.Offered == 0 {
			t.Errorf("%s: no requests offered", c.key())
		}
	}
	checkGolden(t, rep, goldenPath("roofline"))
}

// TestGolden pins every cell, frontier leader and crossover point of the
// quick matrix byte for byte against the committed per-condition goldens.
func TestGolden(t *testing.T) {
	rep := quickReport(t)
	if *reportOut != "" {
		if err := rep.WriteFile(*reportOut); err != nil {
			t.Fatalf("write -frontier-report: %v", err)
		}
	}
	for _, cond := range rep.Grid.Conditions {
		t.Run(cond, func(t *testing.T) {
			checkGolden(t, rep.Filter(cond), goldenPath(cond))
		})
	}
}

// checkGolden compares rep's canonical encoding with the golden at path
// byte for byte, or rewrites the golden under -update.
func checkGolden(t *testing.T, rep *Report, path string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells)", path, len(rep.Cells))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("load golden (run with -update to regenerate): %v", err)
	}
	diffs := goldenDiffs(rep, want)
	for _, d := range diffs {
		t.Errorf("%s", d)
	}
	if len(diffs) > 0 {
		t.Logf("%s moved; if the shift is intentional, regenerate with -update", path)
	}
}

// goldenDiffs returns nothing when rep's canonical encoding equals the
// golden bytes want. Otherwise it names each cell that moved, by key,
// and says whether the frontiers moved, so a failure points somewhere.
func goldenDiffs(rep *Report, want []byte) []string {
	var got bytes.Buffer
	if err := rep.WriteJSON(&got); err != nil {
		return []string{err.Error()}
	}
	if bytes.Equal(got.Bytes(), want) {
		return nil
	}
	var old Report
	if err := json.Unmarshal(want, &old); err != nil {
		return []string{fmt.Sprintf("golden does not parse: %v", err)}
	}
	var diffs []string
	if rep.Schema != old.Schema || rep.Name != old.Name || !reflect.DeepEqual(rep.Grid, old.Grid) {
		diffs = append(diffs, fmt.Sprintf("header moved: got %s %s %+v, golden %s %s %+v",
			rep.Schema, rep.Name, rep.Grid, old.Schema, old.Name, old.Grid))
	}
	for _, c := range rep.Cells {
		o, ok := old.Cell(c.Condition, c.Router, c.Composition, c.Scale)
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("cell %s: not in golden", c.key()))
		case !reflect.DeepEqual(c, *o):
			diffs = append(diffs, fmt.Sprintf("cell %s moved:\n got    %+v\n golden %+v", c.key(), c, *o))
		}
	}
	for _, c := range old.Cells {
		if _, ok := rep.Cell(c.Condition, c.Router, c.Composition, c.Scale); !ok {
			diffs = append(diffs, fmt.Sprintf("cell %s: in golden but not produced", c.key()))
		}
	}
	switch {
	case !reflect.DeepEqual(rep.Frontiers, old.Frontiers):
		diffs = append(diffs, fmt.Sprintf("frontiers moved:\n got    %+v\n golden %+v", rep.Frontiers, old.Frontiers))
	case len(diffs) == 0:
		diffs = append(diffs, "bytes differ from the golden, though every cell and frontier decodes equal")
	default:
		diffs = append(diffs, "frontiers unchanged (leaders and crossovers)")
	}
	return diffs
}

// TestGoldenCatchesDrift moves one cell of each committed golden by the
// smallest step a report can show (1e-6 on a float, 1 on a count) and
// requires the golden check to name that cell each time.
func TestGoldenCatchesDrift(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "frontier", "*.golden.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no goldens found: %v", err)
	}
	for _, path := range paths {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, move := range []struct {
			field string
			apply func(*Cell)
		}{
			{"goodput", func(c *Cell) { c.Goodput = round(c.Goodput + 1e-6) }},
			{"attainment", func(c *Cell) { c.Attainment = round(c.Attainment + 1e-6) }},
			{"within_slo", func(c *Cell) { c.WithinSLO++ }},
		} {
			rep, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if diffs := goldenDiffs(rep, want); len(diffs) > 0 {
				t.Fatalf("%s read back unmoved: %v", path, diffs)
			}
			c := &rep.Cells[len(rep.Cells)/2]
			move.apply(c)
			named := false
			for _, d := range goldenDiffs(rep, want) {
				named = named || strings.HasPrefix(d, "cell "+c.key()+" moved")
			}
			if !named {
				t.Errorf("%s: %s of cell %s moved and the golden check did not name it", path, move.field, c.key())
			}
		}
	}
}

// TestGoldenRoundTrip checks the canonical encoding is stable: a report
// written, re-read and written again gives the same bytes.
func TestGoldenRoundTrip(t *testing.T) {
	rep := quickReport(t)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "roundtrip.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := back.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("canonical JSON is not byte-stable across a write/read/write cycle")
	}
}

// TestPaperShape asserts the acceptance shape on the steady-state
// frontier, for every router: the aggregated baseline leads at the
// lowest burst scale, a disaggregated or mixed fleet leads at the
// highest, and the extracted crossover sits strictly inside the grid.
func TestPaperShape(t *testing.T) {
	rep := quickReport(t)
	scales := rep.Grid.Scales
	lo, hi := scales[0], scales[len(scales)-1]
	base := rep.Grid.Baseline
	for _, router := range rep.Grid.Routers {
		t.Run(router, func(t *testing.T) {
			f, ok := rep.Frontier(Steady, router)
			if !ok {
				t.Fatalf("no steady frontier for router %s", router)
			}
			leaders := map[float64]string{}
			for _, l := range f.Leaders {
				leaders[l.Scale] = l.Composition
			}
			if got := leaders[lo]; got != base {
				t.Errorf("at burst scale %g the leader is %s, want the %s baseline", lo, got, base)
			}
			if got := leaders[hi]; got == base || got == "" {
				t.Errorf("at burst scale %g the leader is %q, want a disaggregated/mixed fleet to overtake %s", hi, got, base)
			}
			if f.Crossover <= lo || f.Crossover > hi {
				t.Errorf("crossover scale %g outside the swept grid (%g, %g]", f.Crossover, lo, hi)
			}
		})
	}
}

// TestMigrationFrontier pins the drain-vs-drain-migrate contrast the
// migration condition exists to expose: across the whole grid, and on
// the aggregated composition in particular (where a whole session's KV
// lives on one replica, so a drain strands the most), streaming KV at
// the modeled interconnect cost delivers strictly more within-SLO
// requests than repaying re-prefills. Individual cells may go either
// way — at saturation, routing perturbation is the same order as the
// re-prefill cost — which is exactly why the assertion is on the sums.
func TestMigrationFrontier(t *testing.T) {
	rep := quickReport(t)
	sum := func(cond, comp string) int {
		total := 0
		for _, c := range rep.Cells {
			if c.Condition == cond && (comp == "" || c.Composition == comp) {
				total += c.WithinSLO
			}
		}
		return total
	}
	for _, comp := range []string{"", "aggregated"} {
		label := comp
		if label == "" {
			label = "all compositions"
		}
		base, mig := sum(Drain, comp), sum(DrainMigrate, comp)
		t.Logf("%s: within-SLO drain %d vs drain-migrate %d", label, base, mig)
		if mig <= base {
			t.Errorf("%s: migration within-SLO total %d not strictly above the re-prefill drain total %d",
				label, mig, base)
		}
	}
	// The two drain conditions replay identical traces and fleets, so
	// the offered counts must agree cell for cell.
	for _, c := range rep.Cells {
		if c.Condition != Drain {
			continue
		}
		m, ok := rep.Cell(DrainMigrate, c.Router, c.Composition, c.Scale)
		if !ok {
			t.Fatalf("no drain-migrate twin for %s", c.key())
		}
		if m.Offered != c.Offered || m.GPUs != c.GPUs {
			t.Errorf("%s: drain and drain-migrate disagree on offered/gpus (%d/%d vs %d/%d)",
				c.key(), c.Offered, c.GPUs, m.Offered, m.GPUs)
		}
	}
}

// TestMatrixValidate exercises the sweep-time configuration errors.
func TestMatrixValidate(t *testing.T) {
	base := Default(true)
	cases := []struct {
		name string
		mut  func(*Matrix)
	}{
		{"no compositions", func(m *Matrix) { m.Compositions = nil }},
		{"no routers", func(m *Matrix) { m.Routers = nil }},
		{"no conditions", func(m *Matrix) { m.Conditions = nil }},
		{"no scales", func(m *Matrix) { m.Scales = nil }},
		{"zero sessions", func(m *Matrix) { m.Sessions = 0 }},
		{"negative scale", func(m *Matrix) { m.Scales = []float64{-1} }},
		{"duplicate scale", func(m *Matrix) { m.Scales = []float64{2, 0.5, 2} }},
		{"unknown condition", func(m *Matrix) { m.Conditions = []string{"chaos"} }},
		{"duplicate composition", func(m *Matrix) {
			m.Compositions = append(m.Compositions, m.Compositions[0])
		}},
		{"baseline not configured", func(m *Matrix) { m.Baseline = "nope" }},
		{"unnamed composition", func(m *Matrix) { m.Compositions[0].Name = "" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := base
			m.Compositions = append([]Composition(nil), base.Compositions...)
			tc.mut(&m)
			if _, err := Run(m); err == nil {
				t.Fatalf("Run accepted an invalid matrix (%s)", tc.name)
			}
		})
	}
}

// TestMissAttribution: in every cell the diagnostics account for the
// goodput gap exactly — Misses equals Offered − WithinSLO — and at
// least 95% of those misses land on a concrete cause (the Other bucket
// is the attribution residue).
func TestMissAttribution(t *testing.T) {
	rep := quickReport(t)
	for _, c := range rep.Cells {
		mc := c.MissCauses
		if want := c.Offered - c.WithinSLO; mc.Misses != want {
			t.Errorf("%s: miss_causes.misses %d, want offered−within_slo = %d",
				c.key(), mc.Misses, want)
		}
		if mc.Misses == 0 {
			continue
		}
		if rate := mc.AttributionRate(); rate < 0.95 {
			t.Errorf("%s: only %.1f%% of %d misses attributed (%s)",
				c.key(), rate*100, mc.Misses, mc.String())
		}
	}
}

// TestScalesCanonicalOrder: the grid is swept sorted ascending no
// matter how the matrix lists it — "smallest crossover scale" reads off
// grid order, so ordering is semantics.
func TestScalesCanonicalOrder(t *testing.T) {
	m := Default(true)
	m.Scales = []float64{4, 0.5, 2}
	got := m.withDefaults().Scales
	want := []float64{0.5, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("scales %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scales %v, want %v", got, want)
		}
	}
}

// TestCrossoverZeroTie: a scale where neither the baseline nor any
// challenger delivered a single within-SLO request is not a crossover —
// the challenger must actually produce goodput to overtake.
func TestCrossoverZeroTie(t *testing.T) {
	mkCell := func(comp string, scale, perGPU float64) Cell {
		return Cell{Condition: Steady, Router: "least-tokens", Composition: comp,
			Scale: scale, GoodputPerGPU: perGPU}
	}
	rep := &Report{
		Grid: Grid{
			Compositions: []string{"agg", "dis"},
			Baseline:     "agg",
			Conditions:   []string{Steady},
			Routers:      []string{"least-tokens"},
			Scales:       []float64{1, 2},
		},
		Cells: []Cell{
			mkCell("agg", 1, 0), mkCell("dis", 1, 0), // dead tie: no crossover
			mkCell("agg", 2, 0.1), mkCell("dis", 2, 0.4),
		},
	}
	rep.extractFrontiers("agg")
	f, ok := rep.Frontier(Steady, "least-tokens")
	if !ok {
		t.Fatal("no frontier extracted")
	}
	if f.Crossover != 2 {
		t.Fatalf("crossover %g, want 2 (the 0-vs-0 tie at scale 1 must not count)", f.Crossover)
	}
}

// TestFilter checks the per-condition golden granularity keeps only its
// condition's cells and frontiers.
func TestFilter(t *testing.T) {
	rep := quickReport(t)
	for _, cond := range rep.Grid.Conditions {
		f := rep.Filter(cond)
		if len(f.Grid.Conditions) != 1 || f.Grid.Conditions[0] != cond {
			t.Fatalf("Filter(%q) grid conditions = %v", cond, f.Grid.Conditions)
		}
		if len(f.Cells) == 0 {
			t.Fatalf("Filter(%q) dropped every cell", cond)
		}
		for _, c := range f.Cells {
			if c.Condition != cond {
				t.Fatalf("Filter(%q) kept cell %s", cond, c.key())
			}
		}
		for _, fr := range f.Frontiers {
			if fr.Condition != cond {
				t.Fatalf("Filter(%q) kept frontier %s/%s", cond, fr.Condition, fr.Router)
			}
		}
	}
}
