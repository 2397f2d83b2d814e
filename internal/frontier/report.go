package frontier

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"muxwise"
)

// Schema versions the report layout; bump it when a field changes
// meaning so stale goldens fail loudly instead of silently comparing
// different physics.
const Schema = "muxwise/frontier/v1"

// precision is the fixed decimal precision every float in a canonical
// report is rounded to, so reports marshal byte-identically across runs
// and platforms.
const precision = 1e6

// round fixes a float to the report precision.
func round(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*precision) / precision
}

// roundAll fixes a slice of floats to the report precision.
func roundAll(vs []float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = round(v)
	}
	return out
}

// Grid echoes the swept axes so a report is self-describing and a golden
// diff against a changed matrix fails on the grid, not cell by cell.
type Grid struct {
	Compositions []string  `json:"compositions"`
	Baseline     string    `json:"baseline"`
	Conditions   []string  `json:"conditions"`
	Routers      []string  `json:"routers"`
	Scales       []float64 `json:"scales"`
	Sessions     int       `json:"sessions"`
	Seed         uint64    `json:"seed"`
	// CostModel names the step-time estimator the sweep ran under; empty
	// means the fitted default (omitted so pre-existing goldens stay
	// byte-identical).
	CostModel string `json:"cost_model,omitempty"`
}

// Cell is one point of the sweep: a composition serving the Fig. 13 mix
// at one burst scale under one condition and router.
type Cell struct {
	Condition   string  `json:"condition"`
	Router      string  `json:"router"`
	Composition string  `json:"composition"`
	Scale       float64 `json:"scale"`

	// GPUs is the initial fleet's device total; GPUSeconds integrates
	// the devices actually provisioned over the offered window (they
	// differ under failures and autoscaling).
	GPUs       int     `json:"gpus"`
	GPUSeconds float64 `json:"gpu_seconds"`

	// Offered counts trace requests; OfferedRate is over the arrival
	// span. WithinSLO counts requests that finished with TTFT and every
	// TBT inside the SLO — the goodput numerator.
	Offered     int     `json:"offered"`
	OfferedRate float64 `json:"offered_rate"`
	WithinSLO   int     `json:"within_slo"`

	// Goodput is within-SLO requests per second; GoodputPerGPU
	// normalises by GPU-seconds — the frontier's y-axis.
	Goodput       float64 `json:"goodput"`
	GoodputPerGPU float64 `json:"goodput_per_gpu"`

	// Attainment is the run's TBT-sample attainment (the §4 criterion's
	// ingredient); CacheHit the fleet prefix-cache hit rate.
	Attainment float64 `json:"attainment"`
	CacheHit   float64 `json:"cache_hit"`

	Unstable bool `json:"unstable"`
	Failures int  `json:"failures"`

	// MissCauses attributes every SLO miss of the cell to a cause
	// (queue-wait, slow prefill, TBT violation, migration stall, crash,
	// unfinished). Its Misses total always equals Offered − WithinSLO.
	MissCauses muxwise.MissBreakdown `json:"miss_causes"`
}

// key returns the cell's canonical identity.
func (c Cell) key() string {
	return fmt.Sprintf("%s/%s/%s@%g", c.Condition, c.Router, c.Composition, c.Scale)
}

// Leader is the composition with the highest goodput-per-GPU at one
// burst scale of a frontier.
type Leader struct {
	Scale         float64 `json:"scale"`
	Composition   string  `json:"composition"`
	GoodputPerGPU float64 `json:"goodput_per_gpu"`
}

// Frontier is the per-(condition, router) reduction of the sweep: the
// leading composition at every burst scale and the crossover point — the
// smallest scale at which a non-baseline composition's goodput-per-GPU
// reaches the baseline's (0 when the baseline is never overtaken).
type Frontier struct {
	Condition string   `json:"condition"`
	Router    string   `json:"router"`
	Leaders   []Leader `json:"leaders"`
	Crossover float64  `json:"crossover_scale"`
}

// Report is the canonical result of a frontier sweep: cells sorted by
// (condition, router, composition, scale), every float fixed to report
// precision, and the frontier reductions extracted — ready to diff
// against a committed golden.
type Report struct {
	Schema    string     `json:"schema"`
	Name      string     `json:"name"`
	Grid      Grid       `json:"grid"`
	Cells     []Cell     `json:"cells"`
	Frontiers []Frontier `json:"frontiers"`
}

// canonicalize sorts the cells into golden order.
func (r *Report) canonicalize() {
	sort.Slice(r.Cells, func(i, j int) bool {
		a, b := r.Cells[i], r.Cells[j]
		if a.Condition != b.Condition {
			return a.Condition < b.Condition
		}
		if a.Router != b.Router {
			return a.Router < b.Router
		}
		if a.Composition != b.Composition {
			return a.Composition < b.Composition
		}
		return a.Scale < b.Scale
	})
}

// extractFrontiers reduces the cells to per-(condition, router) leader
// tracks and crossover points against the baseline composition.
func (r *Report) extractFrontiers(baseline string) {
	r.Frontiers = nil
	for _, cond := range r.Grid.Conditions {
		for _, router := range r.Grid.Routers {
			f := Frontier{Condition: cond, Router: router}
			for _, scale := range r.Grid.Scales {
				base, baseOK := r.Cell(cond, router, baseline, scale)
				var lead *Cell
				var challenger *Cell
				for i := range r.Cells {
					c := &r.Cells[i]
					if c.Condition != cond || c.Router != router || c.Scale != scale {
						continue
					}
					if lead == nil || c.GoodputPerGPU > lead.GoodputPerGPU {
						lead = c
					}
					if c.Composition != baseline &&
						(challenger == nil || c.GoodputPerGPU > challenger.GoodputPerGPU) {
						challenger = c
					}
				}
				if lead == nil {
					continue
				}
				f.Leaders = append(f.Leaders, Leader{
					Scale:         scale,
					Composition:   lead.Composition,
					GoodputPerGPU: lead.GoodputPerGPU,
				})
				// A crossover needs the challenger to actually deliver:
				// a 0-vs-0 tie (nothing met the SLO anywhere) is not the
				// baseline being overtaken.
				if f.Crossover == 0 && baseOK && challenger != nil &&
					challenger.GoodputPerGPU > 0 &&
					challenger.GoodputPerGPU >= base.GoodputPerGPU {
					f.Crossover = scale
				}
			}
			r.Frontiers = append(r.Frontiers, f)
		}
	}
}

// Cell looks up one cell by identity.
func (r *Report) Cell(cond, router, comp string, scale float64) (*Cell, bool) {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Condition == cond && c.Router == router &&
			c.Composition == comp && c.Scale == scale {
			return c, true
		}
	}
	return nil, false
}

// Frontier looks up one (condition, router) frontier.
func (r *Report) Frontier(cond, router string) (*Frontier, bool) {
	for i := range r.Frontiers {
		f := &r.Frontiers[i]
		if f.Condition == cond && f.Router == router {
			return f, true
		}
	}
	return nil, false
}

// Filter returns a copy of the report restricted to one condition (the
// per-condition golden granularity).
func (r *Report) Filter(condition string) *Report {
	out := &Report{Schema: r.Schema, Name: r.Name, Grid: r.Grid}
	out.Grid.Conditions = []string{condition}
	for _, c := range r.Cells {
		if c.Condition == condition {
			out.Cells = append(out.Cells, c)
		}
	}
	for _, f := range r.Frontiers {
		if f.Condition == condition {
			out.Frontiers = append(out.Frontiers, f)
		}
	}
	return out
}

// WriteJSON emits the canonical indented JSON encoding.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the canonical encoding to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a report written by WriteFile (a committed golden).
func ReadFile(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("frontier: %s: %w", path, err)
	}
	return &r, nil
}
