package main

import (
	"fmt"
	"io"
	"time"

	"muxwise"
	"muxwise/internal/par"
	"muxwise/internal/sim"
)

// replayDeployment is the fixed per-replica shape of the stress replay:
// one A100 serving Llama-8B on ShareGPT, the shape muxperf's
// sharegpt-engine workload benchmarks one engine at.
func replayDeployment() muxwise.Option {
	return muxwise.WithDeployment(muxwise.Deployment{
		Hardware: "A100", GPUs: 1, Model: "Llama-8B",
	})
}

// replayArena is one worker's reusable state for the replay wave. Trace
// generation — token sampling and page-identity hashing for every
// request — is the expensive, arrival-independent part, so each worker
// does it once; each replica then restores the canonical request order
// and re-stamps arrivals with its own seed. Replica i's run therefore
// depends only on (generation seed, arrival seed i+1), never on which
// worker executed it, keeping the replay deterministic under any
// worker count.
type replayArena struct {
	trace *muxwise.Trace
	base  []*muxwise.Request
}

func newReplayArena(perReplica int) *replayArena {
	tr := muxwise.ShareGPT(1, perReplica)
	return &replayArena{
		trace: tr,
		base:  append([]*muxwise.Request(nil), tr.Requests...),
	}
}

// replicaResult is the per-replica slice of the aggregate report.
type replicaResult struct {
	loop     sim.LoopStats
	requests int
	unstable bool
	err      error
}

// runReplica replays one replica's load through a fresh engine over the
// worker's reused trace.
func (a *replayArena) runReplica(seed uint64, rate float64) replicaResult {
	// Arrival stamping sorts the request slice in place; restoring the
	// generated order first makes the stamp a pure function of the seed.
	copy(a.trace.Requests, a.base)
	a.trace.WithPoissonArrivals(seed, rate)
	rep, err := muxwise.NewExperiment(replayDeployment(), muxwise.WithEngine("MuxWise")).Run(a.trace)
	if err != nil {
		return replicaResult{err: err}
	}
	return replicaResult{
		loop:     rep.Engine.Loop,
		requests: rep.Summary.Requests,
		unstable: rep.Summary.Unstable,
	}
}

// runReplay drives the CI-feasible stress replay: `replicas` independent
// single-engine simulations of `requests/replicas` requests each,
// shard-parallel across worker waves with one reused arena per worker,
// reporting fleet-wide events/sec and the aggregated LoopStats.
func runReplay(w io.Writer, replicas, requests int, rate float64) error {
	if replicas < 1 || requests < replicas {
		return fmt.Errorf("replay needs replicas >= 1 and requests >= replicas (got %d, %d)", replicas, requests)
	}
	perReplica := requests / replicas

	start := time.Now()
	results := par.RunArena(replicas,
		func() *replayArena { return newReplayArena(perReplica) },
		func(i int, a *replayArena) replicaResult {
			return a.runReplica(uint64(i)+1, rate)
		})
	wall := time.Since(start)

	var agg sim.LoopStats
	var reqs, unstable int
	for _, r := range results {
		if r.err != nil {
			return r.err
		}
		agg.Fired += r.loop.Fired
		agg.Scheduled += r.loop.Scheduled
		agg.Canceled += r.loop.Canceled
		agg.Folded += r.loop.Folded
		if r.loop.MaxPending > agg.MaxPending {
			agg.MaxPending = r.loop.MaxPending
		}
		reqs += r.requests
		if r.unstable {
			unstable++
		}
	}

	fmt.Fprintf(w, "### replay: %d replicas x %d requests (%d total)\n\n", replicas, perReplica, reqs)
	fmt.Fprintf(w, "| metric | value |\n|---|---|\n")
	fmt.Fprintf(w, "| workers | %d |\n", par.Workers(replicas))
	fmt.Fprintf(w, "| wall time | %.1fs |\n", wall.Seconds())
	fmt.Fprintf(w, "| requests/sec | %.0f |\n", float64(reqs)/wall.Seconds())
	fmt.Fprintf(w, "| events/sec | %.0f |\n", float64(agg.Fired)/wall.Seconds())
	fmt.Fprintf(w, "| events fired | %d |\n", agg.Fired)
	fmt.Fprintf(w, "| events scheduled | %d |\n", agg.Scheduled)
	fmt.Fprintf(w, "| events canceled | %d |\n", agg.Canceled)
	fmt.Fprintf(w, "| iterations folded | %d |\n", agg.Folded)
	fmt.Fprintf(w, "| max pending (any replica) | %d |\n", agg.MaxPending)
	fmt.Fprintf(w, "| unstable replicas | %d |\n", unstable)
	fmt.Fprintln(w)
	return nil
}
