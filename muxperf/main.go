package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a reported metric. hostTime marks a time the
// simulator process took, reported in reference time (see calib.go).
type metricDef struct {
	name, unit string
	hostTime   bool
}

// result is the JSON object every run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: sharegpt-engine, loogle-roofline, bursty-fleet, conversation-baselines, or all")
	seed := flag.Uint64("seed", 1, "seed every probe input derives from")
	seconds := flag.Int("seconds", 10, "run length: the measured pass runs about 10 probes a second, in whole passes over the workload's variants")
	trace := flag.Int("trace", 0, "0: measured pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	spansOut := flag.String("spans", ".bench_build/muxperf-spans.json", "where the traced pass writes its host-time spans (Chrome trace JSON)")
	compare := flag.Bool("compare", false, "compare two files of recorded runs: muxperf --compare PARENT CHANGE")
	setupOnly := flag.Bool("setup-child", false, "internal: time one set-up in a fresh process")
	flag.Parse()
	// Probes run back to back on one goroutine; one P keeps the
	// collector's work on the measured thread, where it is paid for,
	// instead of on whatever a second core is doing.
	runtime.GOMAXPROCS(1)

	if *compare {
		if flag.NArg() != 2 {
			fatalf("--compare takes two files: the parent's runs and the change's")
		}
		regressed, err := runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *name == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatalf("%v", err)
	}
	if *setupOnly {
		if err := setupChild(w, *seed); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}

	fmt.Printf("muxperf: workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	var res result
	if *trace == 1 {
		res, err = traceRun(w, *seed, *spansOut)
	} else {
		res, err = measuredRun(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "muxperf:", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fatalf("%v", jerr)
	}
	fmt.Println(string(line))
	os.Exit(exitCode(res))
}

// exitCode fails the command when any probe failed its checks.
func exitCode(res result) int {
	if res.Correct {
		return 0
	}
	return 1
}

// probeLine states the probe wall-time percentiles with their sample
// count and the highest percentile that count supports.
func probeLine(p50, p90 float64, n int) string {
	return fmt.Sprintf("probe_ms: p50=%.3f p90=%.3f n=%d (highest percentile with >=10 samples beyond it: p%g)",
		p50, p90, n, 100*tailPercentile(n))
}

// measuredRun is the end-to-end pass.
func measuredRun(w *workload, seed uint64, seconds int) (result, error) {
	setup, err := setupSeconds(w, seed)
	if err != nil {
		fatalf("%v", err)
	}
	n := w.probes(seconds)
	t := measured(w, seed, n)
	m := endToEndMetrics(t)
	m["setup_s"] = setup

	fmt.Println(probeLine(m["probe_ms_p50"], m["probe_ms_p90"], len(t.walls)))
	fmt.Printf("probe_fail_frac: %g (%d of %d probes)\n", ratio(float64(t.failed), float64(t.probes)), t.failed, t.probes)
	fmt.Printf("digest: sha256:%s\n", hex.EncodeToString(t.digest.Sum(nil)))
	res := report(m, endToEnd, t.probes, t.failed)
	printMetrics(res, endToEnd)
	return res, t.firstErr
}

// traceRun is the per-layer pass.
func traceRun(w *workload, seed uint64, spansOut string) (result, error) {
	spans := newHostSpans()
	m, attempted, failed, err := tracedPass(w, seed, spans)
	if werr := spans.write(spansOut); werr != nil && err == nil {
		err = werr
	}
	res := report(m, perLayer, attempted, failed)
	res.Correct = res.Correct && err == nil
	printMetrics(res, perLayer)
	return res, err
}

// report builds the result object over every metric of the list.
func report(m map[string]float64, list []metricDef, attempted, failed int) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range list {
		res.Metrics[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	return res
}

// printMetrics prints every metric of the list by name and unit.
func printMetrics(res result, list []metricDef) {
	for _, d := range list {
		fmt.Printf("%-40s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
}

// runAll re-executes the benchmark once per workload, so each runs in
// its own process and peak_rss_mb stays per workload.
func runAll(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	for _, w := range workloads(false) {
		cmd := exec.Command(exe, append(append([]string(nil), args...), "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "muxperf: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "muxperf: "+format+"\n", args...)
	os.Exit(2)
}
