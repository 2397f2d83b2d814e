// Command muxsim runs one serving simulation and prints its metrics as
// JSON.
//
//	muxsim -engine MuxWise -model Llama-70B -hw A100 -gpus 8 \
//	       -workload toolagent -n 300 -rate 0.4 -tbt 100ms
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"muxwise"
	"muxwise/internal/workload"
)

func main() {
	engine := flag.String("engine", "MuxWise", "engine: "+strings.Join(muxwise.Engines(), ", "))
	mdl := flag.String("model", "Llama-8B", "model name")
	hw := flag.String("hw", "A100", "hardware: A100, H100, H200, B200")
	gpus := flag.Int("gpus", 8, "number of GPUs")
	wl := flag.String("workload", "sharegpt", "workload: "+workload.Names())
	traceFile := flag.String("trace", "", "replay a JSONL trace file instead of generating a workload")
	n := flag.Int("n", 500, "requests (single-turn) or sessions (multi-turn)")
	rate := flag.Float64("rate", 2, "Poisson arrival rate, req/s")
	seed := flag.Uint64("seed", 1, "random seed")
	ttft := flag.Duration("ttft", time.Second, "TTFT SLO")
	tbt := flag.Duration("tbt", 100*time.Millisecond, "TBT SLO")
	flag.Parse()
	if math.IsNaN(*rate) {
		fmt.Fprintln(os.Stderr, "muxsim: -rate must be a number")
		os.Exit(2)
	}

	var trace *muxwise.Trace
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		trace, err = muxwise.ReadTraceJSONL(f, *traceFile)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		*wl = *traceFile
	} else {
		w, ok := workload.Lookup(*wl)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n", *wl, workload.Names())
			os.Exit(1)
		}
		trace = w.Generate(*seed, *n).WithPoissonArrivals(*seed, *rate)
	}

	dep := muxwise.Deployment{
		Hardware: *hw, GPUs: *gpus, Model: *mdl,
		SLO: muxwise.SLO{
			TTFT: muxwise.FromDuration(*ttft),
			TBT:  muxwise.FromDuration(*tbt),
		},
	}

	exp := muxwise.NewExperiment(
		muxwise.WithDeployment(dep),
		muxwise.WithEngine(*engine),
	)
	report, err := exp.Run(trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	out := struct {
		Engine     string
		Workload   string
		Rate       float64
		Summary    muxwise.Summary
		Attainment float64
		MeanUtil   float64
	}{
		Engine:     *engine,
		Workload:   *wl,
		Rate:       *rate,
		Summary:    report.Summary,
		Attainment: report.Attainment,
		MeanUtil:   report.Engine.MeanUtil(),
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
