package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"time"

	"muxwise"
	"muxwise/internal/cluster"
	"muxwise/internal/metrics"
	"muxwise/internal/sim"
)

// outcome is one probe's measured and checked result.
type outcome struct {
	offered int
	// wall is Run's host time in reference milliseconds (see calib.go);
	// scale is the reference-time factor measured next to it.
	wall           float64
	scale          float64
	mallocs, bytes uint64
	within         int
	gpuSeconds     float64
	// summary is the canonical encoding of the run's Summary and miss
	// causes: the bytes digests and traced-vs-untraced checks compare.
	summary []byte
	rep     *muxwise.Report
	err     error // Run's error or the first failed check
}

// runProbe runs one probe for measurement. Before it, a collection
// gives every probe the same clean heap and the calibration kernel
// measures the machine's current speed.
func runProbe(p probe) outcome {
	runtime.GC()
	return runChecked(p, refScale(calibrate()))
}

// runChecked runs one probe and checks its report; scale converts its
// wall time to reference time. The trace is already generated, and only
// Experiment.Run sits between the clock reads; the MemStats reads
// bracketing it stop the world, so they stay outside the timer too.
func runChecked(p probe, scale float64) outcome {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rep, err := p.exp.Run(p.trace)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	o := outcome{
		offered: p.trace.Len(),
		wall:    float64(wall.Nanoseconds()) / 1e6 * scale,
		scale:   scale,
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		rep:     rep,
		err:     err,
	}
	if err != nil {
		o.err = fmt.Errorf("%s: %w", p.label, err)
		return o
	}
	o.within = recorder(rep).WithinSLO(rep.SLO)
	o.gpuSeconds = gpuSeconds(rep, p.dep, span(p.trace))
	o.summary, o.err = canonical(rep)
	if o.err == nil {
		o.err = check(rep, o.offered, o.within)
	}
	if o.err != nil {
		o.err = fmt.Errorf("%s: %w", p.label, o.err)
	}
	return o
}

// recorder returns the run's (fleet-merged) latency recorder.
func recorder(rep *muxwise.Report) *metrics.Recorder {
	if rep.Fleet != nil {
		return rep.Fleet.Rec
	}
	return rep.Engine.Rec
}

// loopStats returns the run's event-loop counters.
func loopStats(rep *muxwise.Report) sim.LoopStats {
	if rep.Fleet != nil {
		return rep.Fleet.Loop
	}
	return rep.Engine.Loop
}

// canonical encodes what two runs of the same input must agree on.
func canonical(rep *muxwise.Report) ([]byte, error) {
	return json.Marshal(struct {
		Summary    muxwise.Summary
		MissCauses muxwise.MissBreakdown
	}{rep.Summary, rep.MissCauses})
}

// check verifies the conservation identities every run must satisfy:
// every offered request is either within SLO or an attributed miss; the
// event loop's scheduled events are fired, canceled or still pending;
// and on fleets every drained KV token is migrated, canceled, re-prefilled
// or still on the wire.
func check(rep *muxwise.Report, offered, within int) error {
	if got := offered - rep.MissCauses.Misses; got != within {
		return fmt.Errorf("offered %d - misses %d = %d, but %d requests are within SLO",
			offered, rep.MissCauses.Misses, got, within)
	}
	ls := loopStats(rep)
	if pending := ls.Scheduled - ls.Fired - ls.Canceled; pending < 0 || pending > int64(ls.MaxPending) {
		return fmt.Errorf("event loop: scheduled %d - fired %d - canceled %d = %d pending, outside [0, max pending %d]",
			ls.Scheduled, ls.Fired, ls.Canceled, pending, ls.MaxPending)
	}
	if rep.Fleet != nil {
		m := rep.Fleet.Migration
		if sum := m.MigratedTokens + m.CanceledTokens + m.RePrefillTokens + m.UndeliveredTokens; sum != m.DrainKVTokens {
			return fmt.Errorf("migration: drained %d KV tokens but migrated+canceled+re-prefilled+undelivered = %d",
				m.DrainKVTokens, sum)
		}
	}
	return nil
}

// gpuSeconds integrates the GPUs provisioned over the offered window
// [0, span]. A single engine holds its devices throughout; a fleet
// replica charges from readiness until it went down or the window ended,
// the way the goodput frontier counts them.
func gpuSeconds(rep *muxwise.Report, dep muxwise.Deployment, span muxwise.Time) float64 {
	if rep.Fleet == nil {
		return float64(dep.GPUs) * span.Seconds()
	}
	var total float64
	for _, r := range rep.Fleet.Replicas {
		if r.State == cluster.StateStarting {
			continue // spawned but never ready: served nothing
		}
		to := span
		if r.DownAt > 0 && r.DownAt < to {
			to = r.DownAt
		}
		if r.ReadyAt < to {
			total += float64(r.GPUs) * (to - r.ReadyAt).Seconds()
		}
	}
	return total
}

// tally pools probe outcomes into a run's end-to-end numbers.
type tally struct {
	probes, failed int
	firstErr       error
	requests       int
	walls          []float64 // reference ms, per probe
	mallocs, bytes uint64
	within         int
	gpuSeconds     float64
	ttft, tbt      hist
	digest         hash.Hash
	ttftBuf        []float64
}

func newTally() *tally { return &tally{digest: sha256.New()} }

// add folds one outcome in; base marks a probe of the workload's first
// variant, whose latency samples the TTFT and TBT quantiles pool.
// Failed probes count too: a broken run should move the numbers.
func (t *tally) add(o outcome, base bool) {
	t.probes++
	if o.err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = o.err
		}
	}
	if o.rep == nil {
		return
	}
	t.requests += o.offered
	t.walls = append(t.walls, o.wall)
	t.mallocs += o.mallocs
	t.bytes += o.bytes
	t.within += o.within
	t.gpuSeconds += o.gpuSeconds
	t.digest.Write(o.summary)
	if !base {
		return
	}
	rec := recorder(o.rep)
	t.ttftBuf = rec.AppendTTFTSince(t.ttftBuf[:0], 0)
	for _, v := range t.ttftBuf {
		t.ttft.add(v)
	}
	for _, v := range rec.TBTSamples() {
		t.tbt.add(v)
	}
}
