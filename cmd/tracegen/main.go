// Command tracegen emits a generated workload trace as JSON lines, one
// request per line, for inspection or external replay. The "mixed"
// workload is the bursty Fig. 13 Conversation + Tool&Agent interleaving
// the cluster tooling replays.
//
//	tracegen -workload conversation -n 100 -rate 1 > trace.jsonl
//	tracegen -workload mixed -n 60 -scale 0.25 > mixed.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"muxwise"
	"muxwise/internal/workload"
)

func main() {
	wl := flag.String("workload", "sharegpt", workload.Names()+", mixed")
	n := flag.Int("n", 100, "requests (single-turn) or sessions (multi-turn)")
	rate := flag.Float64("rate", 1, "Poisson arrival rate, req/s (0 = bursty Fig.13 profile)")
	scale := flag.Float64("scale", 1, "profile scale when -rate 0")
	seed := flag.Uint64("seed", 1, "random seed")
	stats := flag.Bool("stats", false, "print Table 1 statistics instead of requests")
	flag.Parse()

	if strings.ToLower(*wl) == "mixed" {
		// The bursty Conversation + Tool&Agent mix the cluster tooling
		// replays: always profile-paced, -rate is ignored.
		emit(muxwise.MixedBursty(*seed, *n, *scale), *stats)
		return
	}

	w, ok := workload.Lookup(*wl)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (have %s, mixed)\n", *wl, workload.Names())
		os.Exit(1)
	}
	trace := w.Generate(*seed, *n)
	if *rate > 0 {
		trace = trace.WithPoissonArrivals(*seed, *rate)
	} else {
		// Single-turn workloads take the Conversation shape.
		profile := muxwise.ConversationProfile
		if w.Profile != nil {
			profile = w.Profile
		}
		trace = trace.WithProfileArrivals(*seed, profile(*scale))
	}
	emit(trace, *stats)
}

// emit writes the trace as JSON lines (or its Table 1 statistics).
func emit(trace *muxwise.Trace, stats bool) {
	if stats {
		fmt.Println(trace.Name, trace.Stats())
		return
	}
	if err := trace.WriteJSONL(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
