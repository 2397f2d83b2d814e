package experiments

import (
	"fmt"
	"math"

	"muxwise/internal/estimator"
	"muxwise/internal/gpu"
	"muxwise/internal/model"
)

// Fig11 reproduces Figure 11: decode slowdown under contention across
// multiplexing configurations, models and GPUs.
func Fig11(o Opts) []Table {
	var out []Table
	cases := []struct {
		spec gpu.Spec
		arch model.Arch
	}{
		{gpu.A100(), model.Llama8B()},
		{gpu.A100(), model.Llama70B()},
		{gpu.H100(), model.Llama8B()},
		{gpu.H100(), model.Llama70B()},
	}
	if o.Quick {
		cases = cases[:2]
	}
	prefCtx := [][2]int{{1024, 0}, {8192, 8192}, {32768, 32768}, {2048, 126976}}
	decCtx := []int{1024, 8192, 65536, 131072}
	bss := []int{8, 64}
	if o.Quick {
		prefCtx = prefCtx[:2]
		decCtx = decCtx[:2]
		bss = bss[:1]
	}
	for _, c := range cases {
		t := Table{
			ID:      "fig11",
			Title:   fmt.Sprintf("decode slowdown, %s %s", c.spec.Name, c.arch.Name),
			Columns: []string{"decodeSMs", "min%", "mean%", "max%"},
		}
		for _, sms := range c.spec.PartitionSizes() {
			minS, maxS, sum, n := math.Inf(1), 0.0, 0.0, 0
			for _, pc := range prefCtx {
				for _, dc := range decCtx {
					for _, bs := range bss {
						f := estimator.CoRunSlowdown(c.spec, 8, c.arch, sms, bs, dc, pc[0], pc[1])
						s := (f - 1) * 100
						minS = math.Min(minS, s)
						maxS = math.Max(maxS, s)
						sum += s
						n++
					}
				}
			}
			t.Addf(sms, minS, sum/float64(n), maxS)
		}
		t.Notes = append(t.Notes, "paper: slowdown ranges ~0-30% and varies with the partition split")
		out = append(out, t)
	}
	return out
}

// Table2 validates the Eq. 1/2 predictors (the paper reports 8.16% and
// 8.84% maximum deviation; the analytic simulator admits an exact fit).
func Table2(o Opts) []Table {
	t := Table{
		ID:      "tab2",
		Title:   "solo-run predictor maximum deviation (Eq. 1/2 features)",
		Columns: []string{"model", "prefill max dev %", "decode max dev %", "guard max factor", "guard cells"},
	}
	archs := []model.Arch{model.Llama8B(), model.Llama70B()}
	if o.Quick {
		archs = archs[:1]
	}
	for _, a := range archs {
		e := estimator.New(gpu.A100(), 8, a)
		pre, dec := e.MaxDeviation()
		t.Add(a.Name,
			fmt.Sprintf("%.2f", pre*100),
			fmt.Sprintf("%.2f", dec*100),
			fmt.Sprintf("%.3f", e.Guard().MaxFactor()),
			fmt.Sprintf("%d", e.Guard().Cells()))
	}
	t.Notes = append(t.Notes,
		"paper: 8.16% prefill / 8.84% decode on real hardware; the analytic substrate fits exactly",
		"paper: contention guard max slowdown ≤1.2 (A100) / ≤1.3 (H100)")
	return []Table{t}
}
