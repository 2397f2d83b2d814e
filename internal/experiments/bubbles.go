package experiments

import (
	"fmt"

	"muxwise/internal/chunked"
	"muxwise/internal/core"
	"muxwise/internal/gpu"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// Sec442 reproduces the §4.4.2 bubble-ratio measurement: the fraction of
// the compute stream's active window not occupied by any kernel, averaged
// over MuxWise's two concurrent streams, against chunked-prefill's single
// stream, at goodput-level load on Tool&Agent (Llama-8B).
func Sec442(o Opts) []Table {
	t := Table{
		ID:      "sec442",
		Title:   "compute-stream bubble ratio at goodput load (Llama-8B, Tool&Agent)",
		Columns: []string{"system", "bubble ratio%", "streams"},
	}
	sessions := o.Size(400, 60)
	rate := 10.0
	if o.Quick {
		rate = 2.0
	}
	// run replays the Tool&Agent trace to completion on a fresh engine.
	run := func(f serve.Factory) serve.Engine {
		s := sim.New()
		inst := serve.NewInstance(s, f, config8B(), "")
		tr := workload.ToolAgent(442, sessions).WithPoissonArrivals(442, rate)
		serve.ScheduleArrivals(s, tr.Requests, inst.Submit)
		s.Run()
		return inst.Eng
	}

	// MuxWise: average the decode and prefill green contexts.
	mux := run(core.New).(*core.Engine)
	win := mux.Devices()[0].Stats().ActiveSeconds
	ratio := (bubbleRatio(mux.DecodePartition(), win) + bubbleRatio(mux.PrefillPartition(), win)) / 2
	t.Add("MuxWise", fmt.Sprintf("%.1f", ratio*100), "2 (decode+prefill)")

	// Chunked: one fused stream.
	ch := run(chunked.New).(*chunked.Engine)
	win = ch.Devices()[0].Stats().ActiveSeconds
	t.Add("Chunked", fmt.Sprintf("%.1f", bubbleRatio(ch.Partition(), win)*100), "1 (fused)")
	t.Notes = append(t.Notes,
		"paper: MuxWise 7.7% vs chunked 4.5%; the extra bubbles appear when all prefill layers",
		"complete during pure-decode stretches and do not hurt goodput (§4.4.2)")
	return []Table{t}
}

// bubbleRatio is 1 − busy/window for one stream over the device's active
// window, clamped to [0, 1].
func bubbleRatio(p *gpu.Partition, window float64) float64 {
	if window <= 0 {
		return 0
	}
	r := 1 - p.Busy()/window
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}
