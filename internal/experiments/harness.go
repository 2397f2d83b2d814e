// Package experiments reproduces every table and figure of the paper's
// evaluation (§2 motivation and §4). Each experiment returns Tables whose
// rows mirror the series the paper plots, so the output can be compared
// against the publication shape for shape: `muxbench -list` names every
// experiment and the paper table or figure it regenerates, and the
// README shows how to run them. Runs, sweeps and goodput searches go
// through the public muxwise.Experiment API; testdata/paper_tables.json
// pins the quick-scale tables.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"muxwise"
	"muxwise/internal/gpu"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
)

// Opts controls experiment scale.
type Opts struct {
	// Quick shrinks traces and sweeps for benchmark/CI runs; full runs
	// reproduce the paper-scale series.
	Quick bool
}

// Size picks between full and quick scale — experiments (and external
// harnesses like internal/frontier) size traces and sweeps through it so
// -quick shrinks every axis consistently.
func (o Opts) Size(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Table is one reproduced artifact (a figure series or table).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Add appends a formatted row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Addf appends a row of values, formatting floats with %.3g.
func (t *Table) Addf(cells ...any) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			parts[i] = v
		case float64:
			parts[i] = fmt.Sprintf("%.3g", v)
		case int:
			parts[i] = fmt.Sprintf("%d", v)
		default:
			parts[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, parts)
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	head := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		head[i] = pad(c, widths[i])
	}
	fmt.Fprintln(w, strings.Join(head, "  "))
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			wd := 0
			if i < len(widths) {
				wd = widths[i]
			}
			cells[i] = pad(c, wd)
		}
		fmt.Fprintln(w, strings.Join(cells, "  "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Experiment is a runnable reproduction unit.
type Experiment struct {
	ID    string
	Paper string // which table/figure it regenerates
	Run   func(Opts) []Table
}

// Registry returns all experiments keyed by ID.
func Registry() []Experiment {
	return []Experiment{
		{"tab1", "Table 1 (workload statistics)", Table1},
		{"tab2", "Table 2 / Eq. 1-2 (predictor accuracy)", Table2},
		{"fig3", "Figure 3 (phase demands vs reused length)", Fig3},
		{"fig5", "Figure 5 (cache hit rate vs pool capacity)", Fig5},
		{"fig6", "Figure 6 (chunked-prefill dilemma)", Fig6},
		{"fig11", "Figure 11 (contention slowdown)", Fig11},
		{"fig13", "Figure 13 (bursty trace shapes)", Fig13},
		{"fig14", "Figure 14 (P99 TTFT/TBT, real-world traces)", Fig14},
		{"tab34", "Tables 3-4 (other latency metrics)", Tables34},
		{"fig15", "Figure 15 (SLO attainment vs rate, goodput)", Fig15},
		{"tab5", "Table 5 (throughput and GPU utilization)", Table5},
		{"fig16", "Figure 16 (H100/H200, Qwen-235B)", Fig16},
		{"fig17", "Figure 17 (synthetic workload sweeps)", Fig17},
		{"fig18", "Figure 18 (compute partition timeline)", Fig18},
		{"fig19", "Figure 19 (bubble-less engine ablation)", Fig19},
		{"sec442", "§4.4.2 (compute-stream bubble ratio)", Sec442},
		{"fig20", "Figure 20 (preemptive scheduling CDF)", Fig20},
		{"sec431", "§4.3.1 (single GPU, short requests)", Sec431},
		{"sec45", "§4.5 (PD-multiplexing overheads)", Sec45},
		{"sec6", "§6 (WindServe / temporal-only comparisons)", Sec6},
		{"routers", "router-policy goodput on bursty Conversation (beyond the paper)", Routers},
	}
}

// Find looks an experiment up by ID in the given list — callers that
// extend the registry (muxbench appends the frontier sweep) share the
// one lookup path.
func Find(list []Experiment, id string) (Experiment, bool) {
	for _, e := range list {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ByID finds an experiment in the built-in registry.
func ByID(id string) (Experiment, bool) { return Find(Registry(), id) }

// fig14Systems is the five-system comparison order used in §4.2.
var fig14Systems = []string{"MuxWise", "Chunked", "NanoFlow", "LoongServe", "SGLang-PD"}

// config8B and config70B are the standard §4 deployments.
func config8B() serve.Config {
	return serve.Config{
		Spec: gpu.A100(), GPUs: 8, Arch: model.Llama8B(),
		SLO: metrics.SLO{TTFT: 500 * sim.Millisecond, TBT: 50 * sim.Millisecond},
	}
}

func config70B() serve.Config {
	return serve.Config{
		Spec: gpu.A100(), GPUs: 8, Arch: model.Llama70B(),
		SLO: metrics.SLO{TTFT: sim.Second, TBT: 100 * sim.Millisecond},
	}
}

func ms(v float64) string  { return fmt.Sprintf("%.1f", v*1e3) }
func sec(v float64) string { return fmt.Sprintf("%.2f", v) }

// engine runs the named engine on cfg's hardware, model and SLO through
// the public API.
func engine(cfg serve.Config, name string, opts ...muxwise.Option) *muxwise.Experiment {
	dep := muxwise.Deployment{Hardware: cfg.Spec.Name, GPUs: cfg.GPUs, Model: cfg.Arch.Name, SLO: cfg.SLO}
	return muxwise.NewExperiment(muxwise.WithDeployment(dep), muxwise.WithEngine(name)).With(opts...)
}

// must unwraps a muxwise.Experiment result. Every experiment here is
// configured from the built-in catalogs, so an error is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// goodput searches exp's goodput over [lo, hi]; 0 means even lo misses
// the §4 criterion.
func goodput(exp *muxwise.Experiment, lo, hi float64) float64 {
	g, err := exp.Goodput(lo, hi)
	if errors.Is(err, muxwise.ErrNoFeasibleRate) {
		return 0
	}
	return must(g, err)
}
