package muxwise

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"muxwise/internal/kvcache"
	"muxwise/internal/serve"
)

// -update rewrites the per-engine goldens from the current run:
//
//	go test . -run TestEngineGolden -update
var updateEngineGolden = flag.Bool("update", false, "rewrite testdata/engines and testdata/traces.json goldens from this run")

// engineGolden is what the per-engine golden pins for one engine: the
// digest TestTraceDeterminism compares (Summary, Attainment,
// MissCauses) plus the statistics of every KV pool the engine reports.
type engineGolden struct {
	Engine     string
	Summary    Summary
	Attainment float64
	MissCauses MissBreakdown
	Pools      []kvcache.Stats
}

// runEngineGolden replays trace on the named engine exactly as
// Experiment.Run does, capturing the engine's KV pools on the way.
func runEngineGolden(t *testing.T, name string, dep Deployment, trace *Trace) engineGolden {
	t.Helper()
	r, err := NewExperiment(WithDeployment(dep), WithEngine(name)).resolve()
	if err != nil {
		t.Fatal(err)
	}
	var pools []*kvcache.Pool
	build := r.factory
	res := serve.Run(func(env *serve.Env) serve.Engine {
		eng := build(env)
		pools = eng.CachePools()
		return eng
	}, r.cfg, trace)
	g := engineGolden{
		Engine:     name,
		Summary:    res.Summary,
		Attainment: res.Rec.TBTAttainment(r.slo.TBT),
		MissCauses: res.Diagnostics,
	}
	for _, p := range pools {
		g.Pools = append(g.Pools, p.Stats())
	}
	return g
}

// TestEngineGolden pins every engine's output byte for byte on two small
// traces: single-turn ShareGPT on one A100 with Llama-8B, and multi-turn
// Conversation (prefix reuse) on eight A100s with Llama-70B. Scheduling
// refactors must leave these files untouched.
func TestEngineGolden(t *testing.T) {
	cases := []struct {
		name  string
		dep   Deployment
		trace func() *Trace
	}{
		{"sharegpt-llama8b-1xa100",
			Deployment{Hardware: "A100", GPUs: 1, Model: "Llama-8B"},
			func() *Trace { return ShareGPT(1, 300).WithPoissonArrivals(1, 14) }},
		{"conversation-llama70b-8xa100",
			Deployment{Hardware: "A100", GPUs: 8, Model: "Llama-70B"},
			func() *Trace {
				return Conversation(1, 150).WithProfileArrivals(1, ConversationProfile(0.5))
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got []engineGolden
			for _, name := range Engines() {
				got = append(got, runEngineGolden(t, name, c.dep, c.trace()))
			}
			raw, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			raw = append(raw, '\n')
			path := filepath.Join("testdata", "engines", c.name+".json")
			if *updateEngineGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("load golden (run with -update to regenerate): %v", err)
			}
			if bytes.Equal(raw, want) {
				return
			}
			var old []engineGolden
			if err := json.Unmarshal(want, &old); err != nil {
				t.Fatal(err)
			}
			for i, g := range got {
				if i >= len(old) || !reflect.DeepEqual(g, old[i]) {
					t.Errorf("%s moved against %s", g.Engine, path)
				}
			}
			t.Errorf("engine outputs moved; if intentional, regenerate with -update\ngot:\n%s", raw)
		})
	}
}
