// Partitions: watch the SLO-aware dispatcher at work (the Fig. 18 view).
// Serves three workloads with opposite prefill/decode balances and prints
// the SM split MuxWise settles on for each.
//
//	go run ./examples/partitions
package main

import (
	"fmt"

	"muxwise"
)

func main() {
	dep := muxwise.Deployment{
		Hardware: "A100",
		GPUs:     8,
		Model:    "Llama-70B",
		SLO:      muxwise.SLO{TTFT: muxwise.Second, TBT: 100 * muxwise.Millisecond},
	}

	cases := []struct {
		name  string
		trace *muxwise.Trace
	}{
		// Ultra-long inputs, near-empty outputs: prefill-dominated.
		{"LooGLE", muxwise.LooGLE(21, 60).WithPoissonArrivals(21, 0.08)},
		// Moderate both ways.
		{"ShareGPT", muxwise.ShareGPT(22, 500).WithPoissonArrivals(22, 2.0)},
		// Short inputs, very long reasoning outputs: decode-dominated.
		{"OpenThoughts", muxwise.OpenThoughts(23, 80).WithPoissonArrivals(23, 0.25)},
	}

	fmt.Println("mean SM shares chosen by the dispatcher (Llama-70B, 8×A100):")
	fmt.Printf("%-14s %10s %10s %10s\n", "workload", "prefill%", "decode%", "splits")
	for _, c := range cases {
		rep, err := muxwise.NewExperiment(muxwise.WithDeployment(dep), muxwise.WithEngine("MuxWise")).Run(c.trace)
		if err != nil {
			panic(err)
		}
		res := rep.Engine
		dec, pre := res.Timeline.MeanSharesActive(res.Summary.Makespan, 108)
		fmt.Printf("%-14s %9.1f%% %9.1f%% %10d\n",
			c.name, pre*100, dec*100, res.Timeline.DistinctConfigs())
	}
	fmt.Println("\npaper (Fig. 18): prefill share ranks LooGLE > ShareGPT > OpenThoughts;")
	fmt.Println("the same binary serves all three because partitions reconfigure at runtime.")
}
