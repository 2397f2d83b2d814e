// Cluster: serve the Fig. 13 bursty Conversation + Tool&Agent mix on a
// fleet of replicas and compare router policies — the instance-assignment
// layer above the paper's single-engine multiplexing. Session-affine
// routing keeps multi-turn KV on the replica that cached it, so its
// prefix-cache hit rate (and TTFT tail) beats load-blind round-robin.
//
// The second half injects a replica failure mid-run: the fleet
// controller re-dispatches the in-flight requests, sticky sessions
// re-stick elsewhere, and the epoch after the failure pays the KV
// re-prefill penalty — visible as a cache-hit drop in the before/after
// comparison.
//
//	go run ./examples/cluster
package main

import (
	"fmt"

	"muxwise"
)

func main() {
	// Mixed bursty traffic: both Fig. 13 profiles interleaved.
	mk := func() *muxwise.Trace { return muxwise.MixedBursty(21, 60, 0.25) }

	// A config-only policy: the same filter → scorer → picker pipeline
	// the built-ins are made of, composed from a spec string and
	// registered under a short name — it shows up in RouterPolicies()
	// and the comparison below like any built-in.
	composed, err := muxwise.ComposedRouter("epp:scorers=prefix:2,least-tokens:1")
	if err != nil {
		panic(err)
	}
	if err := muxwise.RegisterRouter("prefix-weighted", composed); err != nil {
		panic(err)
	}

	base := muxwise.Deployment{
		Hardware: "A100", GPUs: 1, Model: "Llama-8B",
		SLO: muxwise.SLO{TTFT: muxwise.Second, TBT: 50 * muxwise.Millisecond},
	}
	exp := muxwise.NewExperiment(
		muxwise.WithDeployment(base),
		muxwise.WithFleet(
			muxwise.ReplicaSpec{Engine: "MuxWise", Count: 6},
			muxwise.ReplicaSpec{Engine: "SGLang-PD", Count: 2, GPUs: 2, Role: "prefill"},
		),
	)

	fmt.Printf("fleet: 6×MuxWise + 2×SGLang-PD(prefill), %d requests of mixed bursty traffic\n\n", mk().Len())
	fmt.Printf("%-16s %9s %9s %8s %8s\n", "router", "p99TTFT", "p99TBT", "attain%", "cache%")

	hits := map[string]float64{}
	for _, router := range muxwise.RouterPolicies() {
		report, err := exp.With(muxwise.WithRouter(router)).Run(mk())
		if err != nil {
			panic(err)
		}
		res := report.Fleet
		hits[router] = res.CacheHit
		fmt.Printf("%-16s %8.2fs %7.1fms %8.1f %8.1f\n",
			router,
			res.Summary.TTFT.P99,
			res.Summary.TBT.P99*1e3,
			report.Attainment*100,
			res.CacheHit*100)
	}

	fmt.Printf("\nsession affinity recovered %.1f%% prefix-cache hits vs %.1f%% under round-robin —\n",
		hits["prefix-affinity"]*100, hits["round-robin"]*100)
	fmt.Println("multi-turn sessions stay on the replica holding their KV (llm-d EPP-style scoring)")

	// ---- failure injection: before/after goodput on the same trace ----

	// Crash replica 0 in the thick of the arrivals (the 55th-percentile
	// arrival instant lands inside a Fig. 13 burst), while sessions are
	// pinned to it. A healthy control run marks an epoch boundary at the
	// same instant, so the post-failure window compares like for like —
	// a plain before/after split would be confounded by session warm-up.
	trace := mk()
	mid := trace.Requests[len(trace.Requests)*55/100].Arrival

	run := func(events ...muxwise.FleetEvent) muxwise.ClusterResult {
		report, err := exp.With(
			muxwise.WithRouter("prefix-affinity"),
			muxwise.WithEvents(events...),
		).Run(mk())
		if err != nil {
			panic(err)
		}
		return *report.Fleet
	}
	healthy := run(muxwise.FleetEvent{At: mid, Kind: "mark"})
	failed := run(muxwise.FleetEvent{At: mid, Kind: "fail", Replica: 0})

	fmt.Printf("\nfailure injection: MuxWise-0 crashes at %v (prefix-affinity router)\n", mid)
	for _, ev := range failed.Events {
		fmt.Printf("  %v\n", ev)
	}

	// afterEpoch returns the rollup of the window opened at mid.
	afterEpoch := func(res muxwise.ClusterResult) *muxwise.ClusterEpoch {
		for i := range res.Epochs {
			if res.Epochs[i].From >= mid {
				return &res.Epochs[i]
			}
		}
		return nil
	}
	h, f := afterEpoch(healthy), afterEpoch(failed)
	fmt.Printf("\ngoodput over the post-%v window, healthy fleet vs failed fleet:\n", mid)
	fmt.Printf("%-18s %8s %9s %9s %8s %8s\n",
		"fleet", "arrivals", "p99TTFT", "p99TBT", "attain%", "cache%")
	for _, row := range []struct {
		name string
		ep   *muxwise.ClusterEpoch
	}{{"8 replicas", h}, {"7 after crash", f}} {
		fmt.Printf("%-18s %8d %8.2fs %7.1fms %8.1f %8.1f\n",
			row.name, row.ep.Window.Arrivals, row.ep.Window.TTFT.P99,
			row.ep.Window.TBT.P99*1e3, row.ep.Attainment*100, row.ep.CacheHit*100)
	}
	fmt.Printf("\nthe crash costs %.1f points of cache hit in the epoch after it —\n",
		(h.CacheHit-f.CacheHit)*100)
	fmt.Println("every session pinned to the dead replica re-prefills its context wherever")
	fmt.Println("it re-sticks: the KV-migration penalty of losing an affinity replica")
}
