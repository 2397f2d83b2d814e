package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRuns is how many child processes time set-up; setup_s is their
// median, since one process start is too noisy to gate on.
const setupRuns = 7

// endToEnd lists the end-to-end metrics with their units, in print order.
// [host] metrics time the simulator process; [sim] metrics are the
// simulated outcome, deterministic for a given seed.
var endToEnd = []metricDef{
	{"sim_req_per_s", "req/s", true},        // [host] simulated requests per probe wall second
	{"probe_ms_p50", "ms", true},            // [host] median probe wall time
	{"probe_ms_p90", "ms", true},            // [host] p90 probe wall time
	{"allocs_per_req", "allocs/req", false}, // [host] heap allocations inside Run per request
	{"bytes_per_req", "B/req", false},       // [host] heap bytes inside Run per request
	{"peak_rss_mb", "MB", false},            // [host] process peak resident set
	{"setup_s", "s", true},                  // [host] process start to first measured probe
	{"goodput_per_gpu", "req/s/GPU", false}, // [sim] within-SLO requests per provisioned GPU-second
	{"ttft_p50_ms", "ms", false},            // [sim] time to first token at base load
	{"tbt_p50_ms", "ms", false},             // [sim] time between tokens at base load
	{"tbt_p99_ms", "ms", false},             // [sim]
}

// measured runs the untraced pass: one warm-up probe, which pays the
// one-time cost-model set-up, then n probes back to back on this
// goroutine, each input generated just before its probe.
func measured(w *workload, seed uint64, n int) *tally {
	runProbe(w.probe(seed, 0))
	t := newTally()
	for i := 0; i < n; i++ {
		t.add(runProbe(w.probe(seed, i)), i%len(w.variants) == 0)
	}
	return t
}

// endToEndMetrics reduces a measured pass to its metrics; setup_s comes
// from separate processes and is added by the caller.
func endToEndMetrics(t *tally) map[string]float64 {
	walls := append([]float64(nil), t.walls...)
	sort.Float64s(walls)
	var wallMs float64
	for _, w := range walls {
		wallMs += w
	}
	reqs := float64(max(t.requests, 1))
	m := map[string]float64{
		"sim_req_per_s":   reqs / (wallMs / 1e3),
		"probe_ms_p50":    nearestRank(walls, 0.5),
		"probe_ms_p90":    nearestRank(walls, 0.9),
		"allocs_per_req":  float64(t.mallocs) / reqs,
		"bytes_per_req":   float64(t.bytes) / reqs,
		"peak_rss_mb":     peakRSSMB(),
		"ttft_p50_ms":     t.ttft.quantile(0.5) * 1e3,
		"tbt_p50_ms":      t.tbt.quantile(0.5) * 1e3,
		"tbt_p99_ms":      t.tbt.quantile(0.99) * 1e3,
		"goodput_per_gpu": ratio(float64(t.within), t.gpuSeconds),
	}
	return m
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupChild is the body of a set-up timing child: generate the first
// input, run the warm-up probe, report ready. Everything a measured run
// does before its first timed probe happens here, in a fresh process,
// so one-time work such as the fitted estimator's profiling is paid.
func setupChild(w *workload, seed uint64) error {
	p := w.probe(seed, 0)
	if _, err := p.exp.Run(p.trace); err != nil {
		return err
	}
	_, err := fmt.Println("ready")
	return err
}

// setupSeconds times set-up in fresh child processes, from just before
// the exec to the child's ready line, each in reference time by a
// calibration run just before it, and returns the median.
func setupSeconds(w *workload, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < setupRuns; i++ {
		scale := refScale(calibrate())
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10), "--setup-child")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, readErr := bufio.NewReader(out).ReadString('\n')
		elapsed := time.Since(start).Seconds() * scale
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		if readErr != nil || strings.TrimSpace(line) != "ready" {
			return 0, fmt.Errorf("set-up child did not report ready (%q, %v)", line, readErr)
		}
		times = append(times, elapsed)
	}
	return median(times), nil
}
