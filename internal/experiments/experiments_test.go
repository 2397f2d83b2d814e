package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"muxwise"
)

// -update rewrites the paper-table golden from the current run:
//
//	go test ./internal/experiments -run TestRegistryRunsQuick -update
//
// Inspect the diff before committing: the golden pins the reproduced
// paper tables, so an unexplained shift is a regression, not noise.
var update = flag.Bool("update", false, "rewrite testdata/paper_tables.json from this run")

// paperTablesPath is the golden of every registered experiment's
// quick-scale tables: `muxbench -run all -quick -json` for the built-in
// registry, without the timings.
var paperTablesPath = filepath.Join("testdata", "paper_tables.json")

// paperTables is one experiment's entry in the golden.
type paperTables struct {
	ID     string
	Paper  string
	Tables []Table
}

// Every registered experiment must run at quick scale, produce rows, and
// reproduce its committed tables cell for cell.
func TestRegistryRunsQuick(t *testing.T) {
	reg := Registry()
	got := make([]paperTables, len(reg))
	for i, e := range reg {
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(Opts{Quick: true})
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tbl := range tables {
				if tbl.ID == "" || tbl.Title == "" || len(tbl.Columns) == 0 {
					t.Errorf("%s: incomplete table metadata %+v", e.ID, tbl)
				}
				if tbl.ID != "fig18-burst" && len(tbl.Rows) == 0 {
					t.Errorf("%s table %s has no rows", e.ID, tbl.ID)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Columns) {
						t.Errorf("%s table %s: row width %d != %d columns", e.ID, tbl.ID, len(row), len(tbl.Columns))
					}
				}
			}
			got[i] = paperTables{ID: e.ID, Paper: e.Paper, Tables: tables}
		})
	}
	if *update {
		for i, g := range got {
			if g.ID == "" {
				t.Fatalf("-update needs every experiment; %s did not run", reg[i].ID)
			}
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paperTablesPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d experiments)", paperTablesPath, len(got))
		return
	}
	raw, err := os.ReadFile(paperTablesPath)
	if err != nil {
		t.Fatalf("load golden (run with -update to regenerate): %v", err)
	}
	var want []paperTables
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decode %s: %v", paperTablesPath, err)
	}
	byID := make(map[string]paperTables, len(want))
	for _, w := range want {
		byID[w.ID] = w
	}
	for _, g := range got {
		if g.ID == "" {
			continue // filtered out by -run
		}
		w, ok := byID[g.ID]
		if !ok {
			t.Errorf("%s: no entry in %s", g.ID, paperTablesPath)
			continue
		}
		delete(byID, g.ID)
		for _, d := range diffTables(g, w) {
			t.Errorf("%s: %s", g.ID, d)
		}
	}
	if len(got) == len(want) && len(byID) > 0 {
		t.Errorf("%s holds %d experiments missing from the registry", paperTablesPath, len(byID))
	}
	if t.Failed() {
		t.Logf("if the shift is intentional, regenerate with -update")
	}
}

// diffTables lists where got departs from the golden entry want: paper
// label, table count, and per table its metadata and every differing row.
func diffTables(got, want paperTables) []string {
	var out []string
	if got.Paper != want.Paper {
		out = append(out, fmt.Sprintf("paper %q, golden %q", got.Paper, want.Paper))
	}
	if len(got.Tables) != len(want.Tables) {
		return append(out, fmt.Sprintf("%d tables, golden %d", len(got.Tables), len(want.Tables)))
	}
	for i, g := range got.Tables {
		w := want.Tables[i]
		if g.ID != w.ID || g.Title != w.Title || !slices.Equal(g.Columns, w.Columns) || !slices.Equal(g.Notes, w.Notes) {
			out = append(out, fmt.Sprintf("table %d: %s %q %q notes %q, golden %s %q %q notes %q",
				i, g.ID, g.Title, g.Columns, g.Notes, w.ID, w.Title, w.Columns, w.Notes))
		}
		if len(g.Rows) != len(w.Rows) {
			out = append(out, fmt.Sprintf("table %d (%s): %d rows, golden %d", i, g.ID, len(g.Rows), len(w.Rows)))
			continue
		}
		for r := range g.Rows {
			if !slices.Equal(g.Rows[r], w.Rows[r]) {
				out = append(out, fmt.Sprintf("table %d (%s) row %d: %q, golden %q", i, g.ID, r, g.Rows[r], w.Rows[r]))
			}
		}
	}
	return out
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig14"); !ok {
		t.Fatal("fig14 missing from registry")
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("fig99 unexpectedly found")
	}
}

func TestTableFprint(t *testing.T) {
	tbl := Table{ID: "x", Title: "t", Columns: []string{"a", "bb"}, Notes: []string{"n"}}
	tbl.Add("1", "2")
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fprint output missing %q:\n%s", want, out)
		}
	}
}

// parse extracts a float from a table cell, tolerating suffixes.
func parse(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimRight(cell, "×*% ")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cannot parse cell %q: %v", cell, err)
	}
	return v
}

// The headline ordering of Fig. 14 (70B, Conversation): MuxWise has the
// best P99 TTFT of the five systems, and the chunking-based systems
// violate the TBT SLO while MuxWise and the disaggregated systems hold it.
func TestFig14Ordering(t *testing.T) {
	tbl := fig14Cell(Opts{Quick: true}, config70B(), "Conversation", scale70B, 103)
	vals := map[string][]string{}
	for _, row := range tbl.Rows {
		vals[row[0]] = row
	}
	mux := parse(t, vals["MuxWise"][1])
	for _, sys := range []string{"Chunked", "NanoFlow", "LoongServe", "SGLang-PD"} {
		if v := parse(t, vals[sys][1]); v <= mux {
			t.Errorf("p99 TTFT: %s %.2fs not worse than MuxWise %.2fs", sys, v, mux)
		}
	}
	if att := parse(t, vals["MuxWise"][3]); att < 99 {
		t.Errorf("MuxWise TBT attainment %.1f%% below target", att)
	}
	if att := parse(t, vals["Chunked"][3]); att >= 99 {
		t.Errorf("Chunked attainment %.1f%% — expected SLO failure on long-reuse trace", att)
	}
	if att := parse(t, vals["SGLang-PD"][3]); att < 99 {
		t.Errorf("SGLang-PD attainment %.1f%% — static decode reservation should hold TBT", att)
	}
}

// MuxWise's goodput must strictly beat chunked-prefill on the Tool&Agent
// sweep (the abstract's 2.20× average claim, in miniature).
func TestGoodputBeatsChunked(t *testing.T) {
	mk := poissonToolAgent(202, 80)
	rates := []float64{0.1, 0.2, 0.3, 0.4}
	best := func(name string) float64 {
		pts, err := engine(config70B(), name, muxwise.WithWorkload(mk)).Sweep(rates...)
		if err != nil {
			t.Fatal(err)
		}
		b := 0.0
		for _, p := range pts {
			if !p.Unstable && p.Attainment >= 0.99 {
				b = p.Rate
			}
		}
		return b
	}
	gm := best("MuxWise")
	gc := best("Chunked")
	if gm <= gc {
		t.Fatalf("MuxWise goodput %.2f not above chunked %.2f", gm, gc)
	}
}

// The cache-pool experiment must show the monotone capacity → hit-rate
// relationship that motivates aggregated serving.
func TestFig5Monotone(t *testing.T) {
	tables := Fig5(Opts{Quick: true})
	prev := -1.0
	for _, row := range tables[0].Rows {
		v := parse(t, row[1])
		if v < prev-0.02 {
			t.Fatalf("hit rate not monotone in capacity: %v", tables[0].Rows)
		}
		prev = v
	}
}

// Fig. 6a's dilemma in numbers: the saturating budget (4K) must cost
// several times the TBT SLO, while 256 stays within it.
func TestFig6Dilemma(t *testing.T) {
	arch, spec := config70B().Arch, config70B().Spec
	lat256 := fusedIterLatency(arch, spec, 256, 32, 1024, 0, 1024)
	lat4k := fusedIterLatency(arch, spec, 4096, 32, 1024, 0, 1024)
	if lat256 > 0.1 {
		t.Errorf("budget 256 latency %.3fs exceeds the 100ms SLO", lat256)
	}
	if lat4k < 0.4 || lat4k > 0.7 {
		t.Errorf("budget 4K latency %.3fs, want ≈0.5s (paper: 505ms)", lat4k)
	}
}
