package experiments

import (
	"fmt"

	"muxwise/internal/estimator"
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/model"
	"muxwise/internal/workload"
)

// Fig3 reproduces Figure 3: compute (GPU-equivalents) and KV cache
// demanded by each phase under SLO constraints as reused context grows.
func Fig3(o Opts) []Table {
	spec := gpu.A100()
	arch := model.Llama70B()
	kvGB := func(tokens int) float64 { return float64(tokens) * arch.KVBytesPerToken() / 1e9 }

	// gpuEquiv finds the compute demand in GPU-equivalents: the smallest
	// per-GPU SM allocation meeting the latency target (4-SM scan, as in
	// the paper's best-fit partition-ratio search), extrapolating past
	// the 8-GPU server when even the full device misses the target (the
	// paper's Fig. 3 y-axis runs to 10 GPUs).
	gpuEquiv := func(latency func(sms int) float64, target float64) float64 {
		for sms := 4; sms <= spec.SMs; sms += 4 {
			if latency(sms) <= target {
				return float64(sms) / float64(spec.SMs) * 8
			}
		}
		return latency(spec.SMs) / target * 8
	}

	pre := Table{
		ID:      "fig3a",
		Title:   "prefill demand vs reused length (bs=1, new=2K, TTFT 400ms)",
		Columns: []string{"reused(K)", "GPU-equiv", "KV(GB)"},
	}
	reuses := []int{0, 12500, 25000, 50000, 75000, 100000}
	if o.Quick {
		reuses = []int{0, 50000, 100000}
	}
	for _, r := range reuses {
		seqs := []model.Seq{{New: 2048, Reused: r}}
		gpus := gpuEquiv(func(sms int) float64 {
			return estimator.MeasurePrefillSolo(spec, 8, arch, sms, seqs)
		}, 0.4)
		pre.Addf(fmt.Sprintf("%d", r/1000), gpus, kvGB(r+2048))
	}

	dec := Table{
		ID:      "fig3b",
		Title:   "decode demand vs total reused length (bs=32, TBT 100ms)",
		Columns: []string{"reused(K)", "GPU-equiv", "KV(GB)"},
	}
	totals := []int{50000, 100000, 150000, 200000, 250000}
	if o.Quick {
		totals = []int{50000, 250000}
	}
	for _, total := range totals {
		per := total / 32
		gpus := gpuEquiv(func(sms int) float64 {
			return estimator.MeasureDecodeSolo(spec, 8, arch, sms, 32, per)
		}, 0.1)
		dec.Addf(fmt.Sprintf("%d", total/1000), gpus, kvGB(total))
	}
	pre.Notes = append(pre.Notes, "paper: prefill demand grows with reuse; decode demand is less sensitive")
	return []Table{pre, dec}
}

// Fig5 reproduces Figure 5: LRU cache hit rate against KV pool capacity
// for the two multi-turn traces.
func Fig5(o Opts) []Table {
	t := Table{
		ID:      "fig5",
		Title:   "cache hit rate vs KV pool capacity (tokens), LRU",
		Columns: []string{"capacity", "Conversation", "Tool&Agent"},
	}
	sessions := o.Size(4000, 400)
	traces := []*workload.Trace{
		workload.Conversation(50, sessions).WithPoissonArrivals(50, 1),
		workload.ToolAgent(51, sessions).WithPoissonArrivals(51, 1),
	}
	capacities := []int64{1e5, 1e6, 1e7, 1e8, 1e9}
	if o.Quick {
		capacities = []int64{1e5, 1e7, 1e9}
	}
	for _, capTok := range capacities {
		row := []string{fmt.Sprintf("%.0e", float64(capTok))}
		for _, tr := range traces {
			pool := kvcache.New(capTok, kvcache.DefaultPageTokens)
			for _, r := range tr.Requests {
				pool.MatchTokens(r.Pages, r.InputTokens)
				pool.Insert(r.AllPages)
			}
			row = append(row, fmt.Sprintf("%.3f", pool.Stats().HitRate()))
		}
		t.Add(row...)
	}
	t.Notes = append(t.Notes,
		"paper: hit rate climbs from ~0 to ~0.55-0.6; halving the pool costs hit rate (36.6% -> 4.2% cited for disaggregation)")
	return []Table{t}
}

// fusedIterLatency prices one chunked-prefill fused iteration run solo
// on the simulated device (full 8×A100, Llama-70B).
func fusedIterLatency(arch model.Arch, spec gpu.Spec, budget, bs, decCtx, chunkPrior, chunkReused int) float64 {
	chunk := model.Seq{New: max(budget-bs, 0), Prior: chunkPrior, Reused: chunkReused}
	table := arch.DecodeTable(8)
	cost := table.Fused(chunk, bs*decCtx, bs)
	return gpu.SoloTime(spec, 8, spec.SMs, gpu.NewKernel("fused-iter", gpu.Prefill, cost, spec.GraphLaunch)).Seconds()
}

// Fig6 reproduces Figure 6: the chunked-prefill dilemma. (a) latency vs
// token budget with the saturation knee near 4K/505 ms; (b) latency vs
// the chunk's reused context at a fixed 512 budget.
func Fig6(o Opts) []Table {
	arch := model.Llama70B()
	spec := gpu.A100()

	a := Table{
		ID:      "fig6a",
		Title:   "fused-iteration latency vs token budget (decode bs=32, reused 1K)",
		Columns: []string{"budget", "latency(ms)"},
	}
	budgets := []int{128, 256, 512, 1024, 2048, 4096}
	if o.Quick {
		budgets = []int{256, 4096}
	}
	for _, b := range budgets {
		lat := fusedIterLatency(arch, spec, b, 32, 1024, 0, 1024)
		a.Addf(b, lat*1e3)
	}
	a.Notes = append(a.Notes, "paper: saturation at (4K, 505ms); SLO-compliant budget ~256 for 100ms TBT")

	b := Table{
		ID:      "fig6b",
		Title:   "fused-iteration latency vs chunk reused context (budget 512)",
		Columns: []string{"reused(K)", "bs=8", "bs=64"},
	}
	reuses := []int{1024, 4096, 16384, 65536}
	if o.Quick {
		reuses = []int{1024, 65536}
	}
	for _, r := range reuses {
		l8 := fusedIterLatency(arch, spec, 512, 8, 1024, 0, r)
		l64 := fusedIterLatency(arch, spec, 512, 64, 1024, 0, r)
		b.Add(fmt.Sprintf("%d", r/1024), ms(l8), ms(l64))
	}
	b.Notes = append(b.Notes, "paper: TBT rises noticeably once reused context exceeds 4K")
	return []Table{a, b}
}
