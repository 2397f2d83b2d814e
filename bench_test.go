package muxwise_test

// One benchmark per reproduced table and figure. Each runs the
// corresponding experiment at quick scale so `go test -bench=.` exercises
// the full harness; `cmd/muxbench -run all` produces the paper-scale
// numbers, and internal/experiments/testdata/paper_tables.json pins the
// quick-scale ones.

import (
	"testing"

	"muxwise/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		tables := e.Run(experiments.Opts{Quick: true})
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
		for _, t := range tables {
			if t.ID != "fig18-burst" && len(t.Rows) == 0 {
				b.Fatalf("%s table %s has no rows", id, t.ID)
			}
		}
	}
}

func BenchmarkTable1(b *testing.B)      { benchExperiment(b, "tab1") }
func BenchmarkEstimator(b *testing.B)   { benchExperiment(b, "tab2") }
func BenchmarkFig3(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkFig5(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig11(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig13(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkTables34(b *testing.B)    { benchExperiment(b, "tab34") }
func BenchmarkFig15(b *testing.B)       { benchExperiment(b, "fig15") }
func BenchmarkTable5(b *testing.B)      { benchExperiment(b, "tab5") }
func BenchmarkFig16(b *testing.B)       { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)       { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)       { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)       { benchExperiment(b, "fig19") }
func BenchmarkBubbles(b *testing.B)     { benchExperiment(b, "sec442") }
func BenchmarkFig20(b *testing.B)       { benchExperiment(b, "fig20") }
func BenchmarkSec431(b *testing.B)      { benchExperiment(b, "sec431") }
func BenchmarkOverheads(b *testing.B)   { benchExperiment(b, "sec45") }
func BenchmarkRelatedWork(b *testing.B) { benchExperiment(b, "sec6") }
