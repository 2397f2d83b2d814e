package experiments

import (
	"fmt"

	"muxwise"
	"muxwise/internal/par"
	"muxwise/internal/serve"
	"muxwise/internal/workload"
)

// realTrace builds the scaled real-world trace for a (model, workload)
// cell of Fig. 14.
func realTrace(name string, scale float64, sessions int, seed uint64) *workload.Trace {
	var tr *workload.Trace
	var p workload.RateProfile
	switch name {
	case "Conversation":
		tr = workload.Conversation(seed, sessions)
		p = workload.ConversationProfile(scale)
	default:
		tr = workload.ToolAgent(seed, sessions)
		p = workload.ToolAgentProfile(scale)
	}
	return tr.WithProfileArrivals(seed, p)
}

// fig14Cell runs the five systems on one (model, workload) combination.
func fig14Cell(o Opts, cfg serve.Config, wl string, scale float64, seed uint64) Table {
	t := Table{
		ID:      "fig14",
		Title:   fmt.Sprintf("P99 TTFT/TBT, %s on %s", cfg.Arch.Name, wl),
		Columns: []string{"system", "p99 TTFT(s)", "p99 TBT(ms)", "TBT attain%", "state"},
	}
	sessions := o.Size(1200, 120)
	rows := par.RunIndexed(len(fig14Systems), func(i int) []string {
		name := fig14Systems[i]
		res := must(engine(cfg, name).Run(realTrace(wl, scale, sessions, seed)))
		state := "stable"
		if res.Summary.Unstable {
			state = "UNSTABLE"
		}
		return []string{name,
			sec(res.Summary.TTFT.P99),
			ms(res.Summary.TBT.P99),
			fmt.Sprintf("%.1f", res.Attainment*100),
			state}
	})
	for _, row := range rows {
		t.Add(row...)
	}
	return t
}

// Fig14 reproduces Figure 14: P99 TTFT and TBT for Llama-8B and
// Llama-70B on the Conversation and Tool&Agent real-world traces across
// the five systems.
func Fig14(o Opts) []Table {
	cells := []struct {
		cfg   serve.Config
		wl    string
		scale float64
		seed  uint64
	}{
		{config8B(), "Conversation", scale8B, 101},
		{config8B(), "Tool&Agent", scale8B, 102},
		{config70B(), "Conversation", scale70B, 103},
		{config70B(), "Tool&Agent", scale70B, 104},
	}
	if o.Quick {
		cells = cells[2:3]
	}
	var out []Table
	for _, c := range cells {
		tbl := fig14Cell(o, c.cfg, c.wl, c.scale, c.seed)
		tbl.Notes = append(tbl.Notes,
			"paper: MuxWise avg p99-TTFT speedups 3.57×/5.98×/4.65×/1.66× vs Chunked/NanoFlow/LoongServe/SGLang-PD;",
			"MuxWise and disaggregated systems meet TBT SLO, chunked-prefill and NanoFlow mostly fail")
		out = append(out, tbl)
	}
	return out
}

// Tables34 reproduces Tables 3-4: average and P50 of TTFT, TBT, E2E and
// TPOT for Llama-70B on both real-world workloads.
func Tables34(o Opts) []Table {
	var out []Table
	cells := []struct {
		wl   string
		id   string
		seed uint64
	}{
		{"Conversation", "tab3", 103},
		{"Tool&Agent", "tab4", 104},
	}
	if o.Quick {
		cells = cells[:1]
	}
	sessions := o.Size(1200, 120)
	for _, c := range cells {
		t := Table{
			ID:      c.id,
			Title:   fmt.Sprintf("other metrics, Llama-70B on %s", c.wl),
			Columns: []string{"system", "TTFT avg/p50 (s)", "TBT avg/p50 (ms)", "E2E avg/p50 (s)", "TPOT avg/p50 (ms)"},
		}
		rows := par.RunIndexed(len(fig14Systems), func(i int) []string {
			name := fig14Systems[i]
			res := must(engine(config70B(), name).Run(realTrace(c.wl, scale70B, sessions, c.seed)))
			s := res.Summary
			return []string{name,
				fmt.Sprintf("%.1f/%.1f", s.TTFT.Avg, s.TTFT.P50),
				fmt.Sprintf("%.1f/%.1f", s.TBT.Avg*1e3, s.TBT.P50*1e3),
				fmt.Sprintf("%.1f/%.1f", s.E2E.Avg, s.E2E.P50),
				fmt.Sprintf("%.1f/%.1f", s.TPOT.Avg*1e3, s.TPOT.P50*1e3)}
		})
		for _, row := range rows {
			t.Add(row...)
		}
		t.Notes = append(t.Notes, "paper Table 3/4: MuxWise leads every metric (one near-tie on P50 TBT in Table 4)")
		out = append(out, t)
	}
	return out
}

// poissonToolAgent builds the §4.2.3 workload: Tool&Agent requests with
// Poisson arrival timestamps at a given rate.
func poissonToolAgent(seed uint64, sessions int) func(rate float64) *workload.Trace {
	return func(rate float64) *workload.Trace {
		return workload.ToolAgent(seed, sessions).WithPoissonArrivals(seed+uint64(rate*1e3), rate)
	}
}

// Fig15 reproduces Figure 15: TBT SLO attainment under increasing
// Poisson rates, and the goodput ratios the abstract headlines.
func Fig15(o Opts) []Table {
	var out []Table
	cases := []struct {
		cfg   serve.Config
		rates []float64
		seed  uint64
	}{
		{config8B(), []float64{2, 4, 6, 8, 10, 12, 16, 20}, 201},
		{config70B(), []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.1}, 202},
	}
	if o.Quick {
		cases = cases[1:]
		cases[0].rates = []float64{0.1, 0.3}
	}
	sessions := o.Size(700, 80)
	for _, c := range cases {
		t := Table{
			ID:      "fig15",
			Title:   fmt.Sprintf("SLO attainment vs rate, %s on Tool&Agent (TBT %v)", c.cfg.Arch.Name, c.cfg.SLO.TBT),
			Columns: append([]string{"system"}, rateCols(c.rates)...),
		}
		good := Table{
			ID:      "fig15-goodput",
			Title:   fmt.Sprintf("goodput (max rate with 99%%-ile SLO), %s", c.cfg.Arch.Name),
			Columns: []string{"system", "goodput(req/s)", "vs MuxWise"},
		}
		goodputs := map[string]float64{}
		type sweepRow struct {
			row  []string
			best float64
		}
		results := par.RunIndexed(len(fig14Systems), func(idx int) sweepRow {
			name := fig14Systems[idx]
			exp := engine(c.cfg, name, muxwise.WithWorkload(poissonToolAgent(c.seed, sessions)))
			pts := must(exp.Sweep(c.rates...))
			row := []string{name}
			best := 0.0
			for i := range c.rates {
				if i < len(pts) {
					p := pts[i]
					cell := fmt.Sprintf("%.1f", p.Attainment*100)
					if p.Unstable {
						cell += "*"
					}
					row = append(row, cell)
					if !p.Unstable && p.Attainment >= 0.99 {
						best = p.Rate
					}
				} else {
					row = append(row, "-")
				}
			}
			return sweepRow{row, best}
		})
		for i, r := range results {
			t.Add(r.row...)
			goodputs[fig14Systems[i]] = r.best
		}
		for _, name := range fig14Systems {
			ratio := "n/a"
			if goodputs[name] > 0 {
				ratio = fmt.Sprintf("%.2f×", goodputs["MuxWise"]/goodputs[name])
			}
			good.Add(name, fmt.Sprintf("%.2f", goodputs[name]), ratio)
		}
		t.Notes = append(t.Notes, "* marks unstable runs (paper stops testing there)")
		good.Notes = append(good.Notes,
			"paper: 8B goodput gains 2.6×/5.2×/2.0×/1.3×; 70B 3.06×/-/2.62×/1.62× (NanoFlow never meets 70B SLO)")
		out = append(out, t, good)
	}
	return out
}

func rateCols(rates []float64) []string {
	out := make([]string, len(rates))
	for i, r := range rates {
		out[i] = fmt.Sprintf("@%.2g", r)
	}
	return out
}

// Table5 reproduces Table 5: token throughput and GPU utilization at each
// system's goodput operating point on Tool&Agent.
func Table5(o Opts) []Table {
	var out []Table
	cases := []struct {
		cfg  serve.Config
		seed uint64
	}{
		{config8B(), 201},
		{config70B(), 202},
	}
	if o.Quick {
		cases = cases[1:]
	}
	sessions := o.Size(700, 80)
	for _, c := range cases {
		t := Table{
			ID:      "tab5",
			Title:   fmt.Sprintf("token throughput and GPU utilization at goodput, %s", c.cfg.Arch.Name),
			Columns: []string{"system", "rate(req/s)", "token/s", "GPU util%"},
		}
		lo, hi := 0.1, 22.0
		if c.cfg.Arch.Params() > 30e9 {
			lo, hi = 0.05, 1.4
		}
		if o.Quick {
			hi = lo * 4
		}
		rows := par.RunIndexed(len(fig14Systems), func(i int) []string {
			name := fig14Systems[i]
			mk := poissonToolAgent(c.seed, sessions)
			exp := engine(c.cfg, name, muxwise.WithWorkload(mk))
			g := goodput(exp, lo, hi)
			if g == 0 {
				return []string{name, "0", "-", "-"}
			}
			res := must(exp.Run(mk(g)))
			devs := res.Engine.Devices
			utilCell := fmt.Sprintf("%.1f", res.Engine.MeanUtil()*100)
			if name == "SGLang-PD" && len(devs) == 2 {
				utilCell = fmt.Sprintf("P(%.1f)/D(%.1f)", devs[0].Util*100, devs[1].Util*100)
			}
			return []string{name, fmt.Sprintf("%.2f", g),
				fmt.Sprintf("%.0f", res.Summary.TokensPerSecond), utilCell}
		})
		for _, row := range rows {
			t.Add(row...)
		}
		t.Notes = append(t.Notes,
			"paper (70B): MuxWise 7430 tok/s @84.0%; Chunked 2269 @66.1; LoongServe 2936 @70.1; SGLang-PD 4538 @P67.1/D81.9")
		out = append(out, t)
	}
	return out
}
