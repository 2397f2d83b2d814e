package frontier

import (
	"fmt"
	"os"

	"muxwise/internal/experiments"
)

// Tables renders the report as muxbench-style ASCII tables: one
// goodput-per-GPU grid (scales × compositions) per condition and router,
// with the crossover scale in the notes.
func Tables(r *Report) []experiments.Table {
	var out []experiments.Table
	for _, cond := range r.Grid.Conditions {
		for _, router := range r.Grid.Routers {
			t := experiments.Table{
				ID:      "frontier",
				Title:   fmt.Sprintf("goodput-per-GPU (req/s/GPU), %s, router=%s", cond, router),
				Columns: []string{"burst-scale"},
			}
			for _, comp := range r.Grid.Compositions {
				t.Columns = append(t.Columns, comp)
			}
			t.Columns = append(t.Columns, "leader")
			for _, scale := range r.Grid.Scales {
				row := []string{fmt.Sprintf("%g", scale)}
				for _, comp := range r.Grid.Compositions {
					c, ok := r.Cell(cond, router, comp, scale)
					if !ok {
						row = append(row, "n/a")
						continue
					}
					mark := ""
					if c.Unstable {
						mark = "*"
					}
					row = append(row, fmt.Sprintf("%.4f%s", c.GoodputPerGPU, mark))
				}
				leader := "n/a"
				if f, ok := r.Frontier(cond, router); ok {
					for _, l := range f.Leaders {
						if l.Scale == scale {
							leader = l.Composition
						}
					}
				}
				row = append(row, leader)
				t.Add(row...)
			}
			if f, ok := r.Frontier(cond, router); ok {
				if f.Crossover > 0 {
					t.Notes = append(t.Notes, fmt.Sprintf(
						"crossover at burst scale %g: %s overtaken on goodput/GPU", f.Crossover, r.Grid.Baseline))
				} else {
					t.Notes = append(t.Notes, fmt.Sprintf("no crossover: %s leads at every swept scale", r.Grid.Baseline))
				}
			}
			t.Notes = append(t.Notes, "* fleet unstable at that scale (backlog after arrivals stop)")
			out = append(out, t)
		}
	}
	return out
}

// BenchExperiment adapts the reference matrix to the muxbench registry.
// A non-empty reportPath additionally writes the canonical FrontierReport
// JSON there (the CI trajectory artifact). A sweep or report-write
// failure exits non-zero: muxbench's Run seam has no error channel, and
// a green CI step with no report would silently break the goodput
// trajectory this experiment exists to record.
func BenchExperiment(reportPath string) experiments.Experiment {
	return experiments.Experiment{
		ID:    "frontier",
		Paper: "Fig. 13 goodput-per-GPU frontier (aggregated vs disaggregated vs mixed, beyond the paper)",
		Run: func(o experiments.Opts) []experiments.Table {
			rep, err := Run(Default(o.Quick))
			if err != nil {
				fmt.Fprintf(os.Stderr, "frontier: %v\n", err)
				os.Exit(1)
			}
			if reportPath != "" {
				if err := rep.WriteFile(reportPath); err != nil {
					fmt.Fprintf(os.Stderr, "frontier: write report: %v\n", err)
					os.Exit(1)
				}
			}
			return Tables(rep)
		},
	}
}

// RooflineBenchExperiment sweeps the Roofline matrix: Llama-70B on B200,
// a hardware point that has no fitted profile and is reachable only
// through the analytical cost model (docs/roofline.md). Same exit
// discipline as BenchExperiment.
func RooflineBenchExperiment() experiments.Experiment {
	return experiments.Experiment{
		ID:    "roofline",
		Paper: "beyond the paper: analytical roofline frontier — Llama-70B on B200 with no fitted profile",
		Run: func(o experiments.Opts) []experiments.Table {
			rep, err := Run(Roofline(o.Quick))
			if err != nil {
				fmt.Fprintf(os.Stderr, "roofline: %v\n", err)
				os.Exit(1)
			}
			return Tables(rep)
		},
	}
}
