package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"muxwise"
	"muxwise/internal/cluster"
)

// TestGoodputPerGPU checks goodput on a hand-built fleet report: a
// replica up for the whole window, one spawned late and drained early,
// and one that never became ready.
func TestGoodputPerGPU(t *testing.T) {
	s := muxwise.Second
	rep := &muxwise.Report{Fleet: &muxwise.ClusterResult{Replicas: []muxwise.ClusterReplicaResult{
		{GPUs: 1, State: cluster.StateReady},
		{GPUs: 2, State: cluster.StateRetired, ReadyAt: 10 * s, DownAt: 30 * s},
		{GPUs: 4, State: cluster.StateStarting, ReadyAt: 35 * s},
	}}}
	// 1 GPU × 40 s + 2 GPUs × 20 s; the starting replica served nothing.
	if got := gpuSeconds(rep, muxwise.Deployment{GPUs: 1}, 40*s); got != 80 {
		t.Errorf("fleet GPU-seconds = %g, want 80", got)
	}
	single := &muxwise.Report{Engine: &muxwise.Result{}}
	if got := gpuSeconds(single, muxwise.Deployment{GPUs: 8}, 40*s); got != 320 {
		t.Errorf("single-engine GPU-seconds = %g, want 320", got)
	}
	tl := newTally()
	tl.within, tl.gpuSeconds, tl.requests = 60, 80, 100
	tl.walls = []float64{10}
	if got := endToEndMetrics(tl)["goodput_per_gpu"]; got != 0.75 {
		t.Errorf("goodput_per_gpu = %g, want 60/80 = 0.75", got)
	}
}

// quickProbe runs probe 0 of a quick workload and returns its outcome,
// which has passed every check.
func quickProbe(t *testing.T, name string) outcome {
	t.Helper()
	for _, w := range workloads(true) {
		if w.name == name {
			o := runProbe(w.probe(1, 0))
			if o.err != nil {
				t.Fatal(o.err)
			}
			return o
		}
	}
	t.Fatalf("no workload %q", name)
	return outcome{}
}

// TestDoctoredReportFails breaks each conservation identity in turn; the
// check must catch it, and a run with a failed probe must exit non-zero.
func TestDoctoredReportFails(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		doctor   func(*muxwise.Report)
		want     string
	}{
		{"misses", "sharegpt-engine", func(r *muxwise.Report) { r.MissCauses.Misses++ }, "within SLO"},
		{"event loop", "sharegpt-engine", func(r *muxwise.Report) { r.Engine.Loop.Canceled = r.Engine.Loop.Scheduled }, "event loop"},
		{"migration", "bursty-fleet", func(r *muxwise.Report) { r.Fleet.Migration.DrainKVTokens++ }, "migration"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := quickProbe(t, c.workload)
			c.doctor(o.rep)
			err := check(o.rep, o.offered, o.within)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("doctored report: err = %v, want one mentioning %q", err, c.want)
			}
			tl := newTally()
			o.err = err
			tl.add(o, true)
			res := report(endToEndMetrics(tl), endToEnd, tl.probes, tl.failed)
			if res.Correct || res.Failed != 1 || exitCode(res) == 0 {
				t.Errorf("failed probe reported correct=%v failed=%d exit=%d", res.Correct, res.Failed, exitCode(res))
			}
		})
	}
}

// TestQuickSmoke runs every workload at smoke size through the measured
// and traced passes: no probe may fail a check, and for each workload's
// first probe the traced and untraced summaries must be byte-identical.
func TestQuickSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads(true) {
		p := w.probe(1, 0)
		plain := runProbe(p)
		fr := muxwise.NewFlightRecorder()
		p = w.probe(1, 0)
		p.exp = p.exp.With(muxwise.WithTrace(fr))
		traced := runProbe(p)
		if plain.err != nil || traced.err != nil {
			t.Fatalf("%s: %v / %v", w.name, plain.err, traced.err)
		}
		if fr.Len() == 0 {
			t.Errorf("%s: flight recorder captured nothing", w.name)
		}
		if !bytes.Equal(plain.summary, traced.summary) {
			t.Errorf("%s: traced summary differs from untraced", w.name)
		}

		if tl := measured(w, 1, len(w.variants)); tl.failed > 0 {
			t.Errorf("%s measured pass: %v", w.name, tl.firstErr)
		}
		m, attempted, failed, err := tracedPass(w, 1, newHostSpans())
		if err != nil || failed > 0 || attempted == 0 {
			t.Errorf("%s traced pass: attempted %d failed %d: %v", w.name, attempted, failed, err)
		}
		var share float64
		for _, l := range cpuLayers {
			share += m[l+".cpu_share"]
		}
		if math.Abs(share-1) > 1e-9 {
			t.Errorf("%s: cpu shares sum to %g", w.name, share)
		}
	}
	t.Logf("smoke run took %v", time.Since(start))
}
