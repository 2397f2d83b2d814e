package experiments

import (
	"fmt"

	"muxwise"
	"muxwise/internal/core"
	"muxwise/internal/par"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// syntheticTrace builds one of the §4.3 workloads with Poisson arrivals.
func syntheticTrace(kind string, seed uint64, n int) func(rate float64) *workload.Trace {
	return func(rate float64) *workload.Trace {
		var tr *workload.Trace
		switch kind {
		case "ShareGPT":
			tr = workload.ShareGPT(seed, n)
		case "LooGLE":
			tr = workload.LooGLE(seed, n/4)
		default:
			tr = workload.OpenThoughts(seed, n/4)
		}
		return tr.WithPoissonArrivals(seed+uint64(rate*1e3), rate)
	}
}

// Fig17 reproduces Figure 17: P99 TTFT and TBT on the three synthetic
// workloads (Llama-70B) under gradually increasing Poisson rates.
func Fig17(o Opts) []Table {
	var out []Table
	cases := []struct {
		kind  string
		rates []float64
		seed  uint64
	}{
		{"ShareGPT", []float64{1, 2, 3, 4, 6, 8}, 401},
		{"LooGLE", []float64{0.05, 0.1, 0.15, 0.2, 0.3}, 402},
		{"OpenThoughts", []float64{0.1, 0.2, 0.3, 0.5, 0.7}, 403},
	}
	if o.Quick {
		cases = cases[:1]
		cases[0].rates = []float64{1, 3}
	}
	n := o.Size(1600, 160)
	for _, c := range cases {
		t := Table{
			ID:      "fig17",
			Title:   fmt.Sprintf("Llama-70B on synthetic %s", c.kind),
			Columns: []string{"system", "rate", "p99 TTFT(s)", "p99 TBT(ms)", "attain%"},
		}
		sweeps := par.RunIndexed(len(fig14Systems), func(i int) []muxwise.RatePoint {
			exp := engine(config70B(), fig14Systems[i], muxwise.WithWorkload(syntheticTrace(c.kind, c.seed, n)))
			return must(exp.Sweep(c.rates...))
		})
		for i, pts := range sweeps {
			for _, p := range pts {
				state := ""
				if p.Unstable {
					state = "*"
				}
				t.Add(fig14Systems[i], fmt.Sprintf("%.2g%s", p.Rate, state),
					sec(p.P99TTFT), ms(p.P99TBT),
					fmt.Sprintf("%.1f", p.Attainment*100))
			}
		}
		t.Notes = append(t.Notes,
			"paper goodput gains — ShareGPT: 1.9×/1.73×/9.5×/1.46×; LooGLE: 1.71×/2×/1.33×/2×; OpenThoughts: 2× (LoongServe never meets SLO)")
		out = append(out, t)
	}
	return out
}

// Fig18 reproduces Figure 18: the compute partition split MuxWise
// chooses for each workload, plus the §4.4.1 burst observation.
func Fig18(o Opts) []Table {
	t := Table{
		ID:      "fig18",
		Title:   "mean SM share chosen by the dispatcher (Llama-70B)",
		Columns: []string{"workload", "prefill share%", "decode share%", "distinct configs"},
	}
	n := o.Size(800, 100)
	cases := []struct {
		kind string
		rate float64
		seed uint64
	}{
		{"LooGLE", 0.15, 411},
		{"ShareGPT", 4.0, 412},
		{"OpenThoughts", 0.6, 413},
	}
	if o.Quick {
		cases = cases[1:2]
	}
	type share struct {
		name    string
		prefill float64
	}
	var shares []share
	mux := engine(config70B(), "MuxWise")
	for _, c := range cases {
		res := must(mux.Run(syntheticTrace(c.kind, c.seed, n)(c.rate)))
		tl := res.Engine.Timeline
		dec, pre := tl.MeanSharesActive(res.Summary.Makespan, config70B().Spec.SMs)
		t.Add(c.kind,
			fmt.Sprintf("%.1f", pre*100),
			fmt.Sprintf("%.1f", dec*100),
			fmt.Sprintf("%d", tl.DistinctConfigs()))
		shares = append(shares, share{c.kind, pre})
	}
	t.Notes = append(t.Notes, "paper: prefill share LooGLE > ShareGPT > OpenThoughts (measured over multiplexed intervals)")

	// §4.4.1: bursty traces activate many configurations within 30 s.
	burst := Table{
		ID:      "fig18-burst",
		Title:   "partition reconfigurations under the bursty Tool&Agent trace",
		Columns: []string{"window", "configs active"},
	}
	if !o.Quick {
		res := must(mux.Run(realTrace("Tool&Agent", scale70B*1.5, o.Size(900, 100), 414)))
		maxIn30 := 0
		for at := sim.Time(0); at < res.Summary.Makespan; at += 15 * sim.Second {
			if c := res.Engine.Timeline.ConfigsWithin(at, at+30*sim.Second); c > maxIn30 {
				maxIn30 = c
			}
		}
		burst.Add("max configs in any 30s window", fmt.Sprintf("%d", maxIn30))
		burst.Notes = append(burst.Notes, "paper: all six configurations activated within 30s during a burst")
	}
	return []Table{t, burst}
}

// mixTrace builds the Fig. 20 workload: 50% ShareGPT + 50% LooGLE at a
// given total Poisson rate.
func mixTrace(seed uint64, n int, rate float64) *workload.Trace {
	return workload.Mix("ShareGPT+LooGLE",
		workload.ShareGPT(seed, n/2).WithPoissonArrivals(seed, rate/2),
		workload.LooGLE(seed+1, n/2).WithPoissonArrivals(seed+1, rate/2))
}

// Fig20 reproduces Figure 20: the CDF of TTFT per token with and without
// preemptive scheduling on the ShareGPT+LooGLE mix at 0.5 req/s.
func Fig20(o Opts) []Table {
	t := Table{
		ID:      "fig20",
		Title:   "TTFT per token with/without preemption (ShareGPT+LooGLE 50/50, 0.5 req/s, Llama-70B)",
		Columns: []string{"variant", "p50(ms/tok)", "p90(ms/tok)", "p99(ms/tok)"},
	}
	n := o.Size(600, 80)
	variants := []struct {
		name string
		opts core.Options
	}{
		{"with preemption", core.DefaultOptions()},
		{"w/o preemption", core.Options{LayerWise: true, QuerySync: true, Preemption: false}},
	}
	p99 := map[string]float64{}
	for _, v := range variants {
		v := v
		f := func(env *serve.Env) serve.Engine { return core.NewWithOptions(env, v.opts) }
		res := serve.Run(f, config70B(), mixTrace(420, n, 0.5))
		q := res.Summary.TTFTPerToken
		t.Add(v.name, ms(q.P50), ms(q.P90), ms(q.P99))
		p99[v.name] = q.P99
	}
	if base := p99["w/o preemption"]; base > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("p99 speedup %.2f× (paper: 1.96×)", base/p99["with preemption"]))
	}
	return []Table{t}
}
