// Command muxbench regenerates the paper's tables and figures from the
// simulator and prints paper-comparable rows.
//
// Usage:
//
//	muxbench -list
//	muxbench -run fig14            # one experiment
//	muxbench -run all              # everything (minutes)
//	muxbench -run fig15 -quick     # reduced scale
//	muxbench -run fig15 -json      # machine-readable tables
//	muxbench -run routers          # fleet router goodput (beyond the paper)
//	muxbench -run frontier         # goodput-per-GPU frontier (Fig. 13 scales)
//	muxbench -run frontier -frontier-report out.json
//	                               # ...also write the canonical FrontierReport
//	muxbench -replay               # 100-replica / 1M-request stress replay
//	muxbench -replay -replay-replicas 10 -replay-requests 100000
//	                               # ...reduced scale
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"muxwise/internal/experiments"
	"muxwise/internal/frontier"
)

// jsonResult is one experiment's machine-readable output: the reproduced
// tables (rate points, summaries) plus timing, for the
// benchmark-trajectory tooling.
type jsonResult struct {
	ID      string
	Paper   string
	Seconds float64
	Tables  []experiments.Table
}

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	run := flag.String("run", "", "experiment ID to run, or 'all'")
	quick := flag.Bool("quick", false, "reduced scale (CI-sized traces and sweeps)")
	asJSON := flag.Bool("json", false, "write results as JSON instead of tables")
	frontierReport := flag.String("frontier-report", "",
		"when the frontier experiment runs, also write its canonical FrontierReport JSON here")
	replay := flag.Bool("replay", false,
		"run the stress replay: many independent replicas shard-parallel over reused per-worker arenas")
	replayReplicas := flag.Int("replay-replicas", 100, "with -replay: replica count")
	replayRequests := flag.Int("replay-requests", 1_000_000, "with -replay: total requests across all replicas")
	replayRate := flag.Float64("replay-rate", 8, "with -replay: per-replica arrival rate (req/s)")
	flag.Parse()

	if *replay {
		if err := runReplay(os.Stdout, *replayReplicas, *replayRequests, *replayRate); err != nil {
			fmt.Fprintln(os.Stderr, "muxbench:", err)
			os.Exit(1)
		}
		return
	}

	// The frontier sweep lives in internal/frontier, which builds on
	// internal/experiments' Opts and Table, so it joins the registry
	// here. Both run on the public muxwise.Experiment API.
	registry := append(experiments.Registry(),
		frontier.BenchExperiment(*frontierReport),
		frontier.RooflineBenchExperiment())

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, e := range registry {
			fmt.Printf("  %-8s %s\n", e.ID, e.Paper)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id> or -run all")
		}
		return
	}

	opts := experiments.Opts{Quick: *quick}
	var todo []experiments.Experiment
	if *run == "all" {
		todo = registry
	} else {
		e, ok := experiments.Find(registry, *run)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *run)
			os.Exit(1)
		}
		todo = []experiments.Experiment{e}
	}

	var results []jsonResult
	for _, e := range todo {
		start := time.Now()
		if !*asJSON {
			fmt.Printf("### %s — %s\n\n", e.ID, e.Paper)
		}
		tables := e.Run(opts)
		elapsed := time.Since(start).Seconds()
		if *asJSON {
			results = append(results, jsonResult{ID: e.ID, Paper: e.Paper, Seconds: elapsed, Tables: tables})
			continue
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, elapsed)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
