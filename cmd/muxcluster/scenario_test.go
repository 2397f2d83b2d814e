package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"muxwise"
)

// -update rewrites the scenario golden from the current run:
//
//	go test ./cmd/muxcluster -run TestScenarioGolden -update
var updateScenarios = flag.Bool("update", false, "rewrite testdata/scenarios.json from this run")

// TestScenarioGolden pins how muxcluster wires its fleet scenarios: each
// case runs one scenario the way main does with the default flags
// (A100, one GPU per replica, Llama-8B, 1 s / 50 ms SLO, prefix-affinity,
// the mixed bursty trace) and compares the JSON row — summary, misses,
// migration accounting, per-replica rollups, fleet events and epochs —
// against testdata/scenarios.json byte for byte.
func TestScenarioGolden(t *testing.T) {
	def := scenarioOpts{
		failAt: time.Minute, drainAt: time.Minute, minReps: 1, maxReps: 8,
		coldStart: 15 * time.Second, autoscaler: "backlog",
	}
	with := func(f func(*scenarioOpts)) scenarioOpts {
		o := def
		f(&o)
		return o
	}
	cases := []struct {
		name     string
		replicas string // empty: the -replicas default, flag unset
		sc       scenarioOpts
	}{
		{"failure", "2xMuxWise", with(func(o *scenarioOpts) { o.name, o.failAt = "failure", 45*time.Second })},
		{"drain", "2xMuxWise", with(func(o *scenarioOpts) { o.name, o.drainAt = "drain", 45*time.Second })},
		{"drain-migration", "2xMuxWise", with(func(o *scenarioOpts) {
			o.name, o.drainAt, o.migration = "drain", 45*time.Second, true
		})},
		{"autoscale", "1xMuxWise", with(func(o *scenarioOpts) { o.name, o.maxReps = "autoscale", 4 })},
		{"hetero", "", with(func(o *scenarioOpts) { o.name = "hetero" })},
	}
	trace, err := buildTrace("mixed", 1, 30, 0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	slo := muxwise.SLO{TTFT: muxwise.Second, TBT: 50 * muxwise.Millisecond}
	got := map[string]routerRow{}
	for _, c := range cases {
		spec := c.replicas
		if spec == "" {
			spec = "4xMuxWise"
		}
		specs, err := parseReplicas(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts, err := scenarioOptions("A100", specs, c.replicas != "", c.sc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		opts = append(opts,
			muxwise.WithDeployment(muxwise.Deployment{Hardware: "A100", GPUs: 1, Model: "Llama-8B", SLO: slo}),
			muxwise.WithRouter("prefix-affinity"),
		)
		report, err := muxwise.NewExperiment(opts...).Run(trace)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = rowOf("prefix-affinity", *report.Fleet, slo.TBT)
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	path := filepath.Join("testdata", "scenarios.json")
	if *updateScenarios {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(out, want) {
		var w map[string]routerRow
		if err := json.Unmarshal(want, &w); err != nil {
			t.Fatalf("golden unreadable: %v", err)
		}
		for _, c := range cases {
			g, _ := json.Marshal(got[c.name])
			e, _ := json.Marshal(w[c.name])
			if !bytes.Equal(g, e) {
				t.Errorf("scenario %s drifted:\n got %s\nwant %s", c.name, g, e)
			}
		}
		t.Fatal("scenario output differs from testdata/scenarios.json")
	}
}
