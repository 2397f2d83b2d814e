// Command frontierplot renders the canonical FrontierReport JSON (the
// artifact the frontier-golden CI job emits per commit) into charts a
// human can read without downloading anything: ASCII frontier panels on
// stdout, an optional SVG for the artifact bundle, and a -summary mode
// that prints a GitHub-flavored markdown digest of the goodput leaders
// and crossover scales — piped into $GITHUB_STEP_SUMMARY so the goodput
// trend is visible on every commit.
//
//	frontierplot -in frontier-report.json
//	frontierplot -in frontier-report.json -svg frontier.svg
//	frontierplot -in frontier-report.json -summary >> "$GITHUB_STEP_SUMMARY"
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"muxwise"
	"muxwise/internal/frontier"
)

func main() {
	in := flag.String("in", "frontier-report.json", "canonical FrontierReport JSON to render")
	svg := flag.String("svg", "", "also write an SVG frontier chart here")
	summary := flag.Bool("summary", false, "print a markdown goodput-leaders digest instead of ASCII panels")
	flag.Parse()

	rep, err := frontier.ReadFile(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "frontierplot:", err)
		os.Exit(1)
	}
	if *summary {
		writeMarkdown(os.Stdout, rep)
	} else {
		writeASCII(os.Stdout, rep)
	}
	if *svg != "" {
		f, err := os.Create(*svg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "frontierplot:", err)
			os.Exit(1)
		}
		writeSVG(f, rep)
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "frontierplot:", err)
			os.Exit(1)
		}
	}
}

// markers assigns each composition a stable single-rune plot marker
// (first distinct letter, falling back to digits).
func markers(comps []string) map[string]rune {
	out := map[string]rune{}
	used := map[rune]bool{}
	for i, c := range comps {
		m := rune('0' + i%10)
		for _, r := range c {
			if !used[r] {
				m = r
				break
			}
		}
		used[m] = true
		out[c] = m
	}
	return out
}

// maxValue returns the highest goodput-per-GPU in one panel.
func maxValue(rep *frontier.Report, cond, router string) float64 {
	m := 0.0
	for _, c := range rep.Cells {
		if c.Condition == cond && c.Router == router && c.GoodputPerGPU > m {
			m = c.GoodputPerGPU
		}
	}
	return m
}

const (
	asciiRows = 12
	colWidth  = 9
)

// writeASCII renders one goodput-per-GPU panel per (condition, router).
func writeASCII(w io.Writer, rep *frontier.Report) {
	marks := markers(rep.Grid.Compositions)
	fmt.Fprintf(w, "%s — goodput per GPU (req/s/GPU) across Fig. 13 burst scales\n", rep.Name)
	fmt.Fprint(w, "legend:")
	for _, comp := range rep.Grid.Compositions {
		fmt.Fprintf(w, " %c=%s", marks[comp], comp)
	}
	fmt.Fprintln(w, "  (*=overlap)")
	for _, cond := range rep.Grid.Conditions {
		for _, router := range rep.Grid.Routers {
			top := maxValue(rep, cond, router)
			if top <= 0 {
				top = 1
			}
			fmt.Fprintf(w, "\ncondition=%s router=%s\n", cond, router)
			grid := make([][]rune, asciiRows)
			for i := range grid {
				grid[i] = []rune(strings.Repeat(" ", len(rep.Grid.Scales)*colWidth))
			}
			for si, scale := range rep.Grid.Scales {
				for _, comp := range rep.Grid.Compositions {
					c, ok := rep.Cell(cond, router, comp, scale)
					if !ok {
						continue
					}
					row := asciiRows - 1 - int(math.Round(c.GoodputPerGPU/top*float64(asciiRows-1)))
					col := si*colWidth + colWidth/2
					if grid[row][col] != ' ' {
						grid[row][col] = '*'
					} else {
						grid[row][col] = marks[comp]
					}
				}
			}
			for i, line := range grid {
				label := "      "
				switch i {
				case 0:
					label = fmt.Sprintf("%6.3f", top)
				case asciiRows - 1:
					label = fmt.Sprintf("%6.3f", 0.0)
				}
				fmt.Fprintf(w, "%s |%s\n", label, string(line))
			}
			fmt.Fprintf(w, "       +%s\n        ", strings.Repeat("-", len(rep.Grid.Scales)*colWidth))
			for _, scale := range rep.Grid.Scales {
				fmt.Fprintf(w, "%-*g", colWidth, scale)
			}
			fmt.Fprintln(w)
			if f, ok := rep.Frontier(cond, router); ok && f.Crossover > 0 {
				fmt.Fprintf(w, "        crossover at burst scale %g\n", f.Crossover)
			}
		}
	}
}

// writeMarkdown prints the $GITHUB_STEP_SUMMARY digest: per condition, a
// leaders table over (router × scale), crossovers, and — when both drain
// conditions are present — the migration-vs-re-prefill goodput delta.
func writeMarkdown(w io.Writer, rep *frontier.Report) {
	fmt.Fprintf(w, "### %s — goodput-per-GPU frontier\n\n", rep.Name)
	fmt.Fprintf(w, "Grid: %d compositions × %d conditions × %d routers × %d burst scales (%d sessions/workload, seed %d).\n\n",
		len(rep.Grid.Compositions), len(rep.Grid.Conditions), len(rep.Grid.Routers),
		len(rep.Grid.Scales), rep.Grid.Sessions, rep.Grid.Seed)
	for _, cond := range rep.Grid.Conditions {
		fmt.Fprintf(w, "#### %s\n\n", cond)
		fmt.Fprint(w, "| router |")
		for _, scale := range rep.Grid.Scales {
			fmt.Fprintf(w, " leader @%g |", scale)
		}
		fmt.Fprintln(w, " crossover | miss causes |")
		fmt.Fprint(w, "|---|")
		for range rep.Grid.Scales {
			fmt.Fprint(w, "---|")
		}
		fmt.Fprintln(w, "---|---|")
		for _, router := range rep.Grid.Routers {
			f, ok := rep.Frontier(cond, router)
			if !ok {
				continue
			}
			fmt.Fprintf(w, "| %s |", router)
			for _, scale := range rep.Grid.Scales {
				cell := "—"
				for _, l := range f.Leaders {
					if l.Scale == scale {
						cell = fmt.Sprintf("%s (%.3f)", l.Composition, l.GoodputPerGPU)
					}
				}
				fmt.Fprintf(w, " %s |", cell)
			}
			if f.Crossover > 0 {
				fmt.Fprintf(w, " %g |", f.Crossover)
			} else {
				fmt.Fprint(w, " none |")
			}
			fmt.Fprintf(w, " %s |\n", missCauses(rep, cond, router).String())
		}
		fmt.Fprintln(w)
	}
	writeMigrationDelta(w, rep)
}

// missCauses aggregates the SLO-miss diagnostics of every cell of one
// (condition, router) panel — the digest's per-row attribution readout.
func missCauses(rep *frontier.Report, cond, router string) muxwise.MissBreakdown {
	var b muxwise.MissBreakdown
	for _, c := range rep.Cells {
		if c.Condition == cond && c.Router == router {
			b = b.Add(c.MissCauses)
		}
	}
	return b
}

// writeMigrationDelta summarises drain vs drain-migrate when the report
// carries both — the per-commit readout of the KV-migration win.
func writeMigrationDelta(w io.Writer, rep *frontier.Report) {
	var drain, migrate int
	var have int
	for _, c := range rep.Cells {
		switch c.Condition {
		case frontier.Drain:
			drain += c.WithinSLO
			have |= 1
		case frontier.DrainMigrate:
			migrate += c.WithinSLO
			have |= 2
		}
	}
	if have != 3 {
		return
	}
	fmt.Fprintf(w, "**KV migration on drains:** %d within-SLO requests vs %d under re-prefill (%+d across the grid).\n\n",
		migrate, drain, migrate-drain)
}

// SVG layout constants.
const (
	panelW   = 300
	panelH   = 220
	padLeft  = 52
	padRight = 16
	padTop   = 34
	padBot   = 40
	legendH  = 28
)

// palette holds color-blind-safe series colors (Okabe–Ito).
var palette = []string{"#0072B2", "#E69F00", "#009E73", "#CC79A7", "#56B4E9", "#D55E00"}

// writeSVG renders the report as a grid of SVG panels: conditions down,
// routers across, one polyline per composition.
func writeSVG(w io.Writer, rep *frontier.Report) {
	cols := len(rep.Grid.Routers)
	rows := len(rep.Grid.Conditions)
	width := cols * panelW
	height := rows*panelH + legendH
	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="system-ui, sans-serif" font-size="11">`+"\n",
		width, height, width, height)
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="#ffffff"/>`+"\n", width, height)

	// Legend.
	x := 8
	for i, comp := range rep.Grid.Compositions {
		color := palette[i%len(palette)]
		fmt.Fprintf(w, `<rect x="%d" y="9" width="14" height="3" fill="%s"/>`+"\n", x, color)
		fmt.Fprintf(w, `<text x="%d" y="15" fill="#333">%s</text>`+"\n", x+18, comp)
		x += 18 + 7*len(comp) + 16
	}

	for ci, cond := range rep.Grid.Conditions {
		for ri, router := range rep.Grid.Routers {
			ox := ri * panelW
			oy := legendH + ci*panelH
			top := maxValue(rep, cond, router)
			if top <= 0 {
				top = 1
			}
			plotW := panelW - padLeft - padRight
			plotH := panelH - padTop - padBot
			px := func(si int) float64 {
				if len(rep.Grid.Scales) == 1 {
					return float64(ox + padLeft + plotW/2)
				}
				return float64(ox+padLeft) + float64(si)/float64(len(rep.Grid.Scales)-1)*float64(plotW)
			}
			py := func(v float64) float64 {
				return float64(oy+padTop) + (1-v/top)*float64(plotH)
			}
			fmt.Fprintf(w, `<text x="%d" y="%d" fill="#111" font-weight="600">%s · %s</text>`+"\n",
				ox+padLeft, oy+20, cond, router)
			// Axes.
			fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999"/>`+"\n",
				ox+padLeft, oy+padTop, ox+padLeft, oy+panelH-padBot)
			fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999"/>`+"\n",
				ox+padLeft, oy+panelH-padBot, ox+panelW-padRight, oy+panelH-padBot)
			fmt.Fprintf(w, `<text x="%d" y="%d" fill="#666" text-anchor="end">%.3f</text>`+"\n",
				ox+padLeft-4, oy+padTop+4, top)
			fmt.Fprintf(w, `<text x="%d" y="%d" fill="#666" text-anchor="end">0</text>`+"\n",
				ox+padLeft-4, oy+panelH-padBot+4)
			for si, scale := range rep.Grid.Scales {
				fmt.Fprintf(w, `<text x="%.1f" y="%d" fill="#666" text-anchor="middle">%g</text>`+"\n",
					px(si), oy+panelH-padBot+16, scale)
			}
			fmt.Fprintf(w, `<text x="%d" y="%d" fill="#666" text-anchor="middle">burst scale</text>`+"\n",
				ox+padLeft+plotW/2, oy+panelH-8)
			// Series.
			for compIdx, comp := range rep.Grid.Compositions {
				color := palette[compIdx%len(palette)]
				type point struct{ x, y float64 }
				var pts []point
				for si, scale := range rep.Grid.Scales {
					c, ok := rep.Cell(cond, router, comp, scale)
					if !ok {
						continue
					}
					pts = append(pts, point{px(si), py(c.GoodputPerGPU)})
				}
				if len(pts) > 1 {
					coords := make([]string, len(pts))
					for i, p := range pts {
						coords[i] = fmt.Sprintf("%.1f,%.1f", p.x, p.y)
					}
					fmt.Fprintf(w, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
						strings.Join(coords, " "), color)
				}
				for _, p := range pts {
					fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n", p.x, p.y, color)
				}
			}
		}
	}
	fmt.Fprintln(w, `</svg>`)
}
