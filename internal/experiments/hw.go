package experiments

import (
	"fmt"

	"muxwise/internal/gpu"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
)

// Fig16 reproduces Figure 16: MuxWise vs chunked-prefill on H100 servers
// (Llama-8B/70B) and an H200 server (Qwen3-235B-A22B), on both
// real-world workloads. Disaggregation baselines are infeasible for the
// MoE model, as in the paper.
func Fig16(o Opts) []Table {
	cases := []struct {
		spec  gpu.Spec
		arch  model.Arch
		slo   metrics.SLO
		scale float64
		seed  uint64
	}{
		{gpu.H100(), model.Llama8B(), metrics.SLO{TTFT: 500 * sim.Millisecond, TBT: 50 * sim.Millisecond}, 6.0, 301},
		{gpu.H100(), model.Llama70B(), metrics.SLO{TTFT: sim.Second, TBT: 100 * sim.Millisecond}, 0.8, 302},
		{gpu.H200(), model.Qwen235B(), metrics.SLO{TTFT: sim.Second, TBT: 100 * sim.Millisecond}, 4.0, 303},
	}
	if o.Quick {
		cases = cases[2:]
	}
	sessions := o.Size(1000, 100)
	var out []Table
	for _, c := range cases {
		for _, wl := range []string{"Conversation", "Tool&Agent"} {
			t := Table{
				ID:      "fig16",
				Title:   fmt.Sprintf("%s, %s on %s", c.spec.Name, c.arch.Name, wl),
				Columns: []string{"system", "p99 TTFT(s)", "p99 TBT(ms)"},
			}
			cfg := serve.Config{Spec: c.spec, GPUs: 8, Arch: c.arch, SLO: c.slo}
			for _, name := range []string{"MuxWise", "Chunked"} {
				res := must(engine(cfg, name).Run(realTrace(wl, c.scale, sessions, c.seed)))
				t.Add(res.Summary.Name, sec(res.Summary.TTFT.P99), ms(res.Summary.TBT.P99))
			}
			t.Notes = append(t.Notes, "paper: avg 2.28× p99-TTFT and 1.81× p99-TBT speedups across these cells")
			out = append(out, t)
		}
	}
	return out
}
