package main

import (
	"slices"
	"strings"
	"testing"
	"time"

	"muxwise"
)

// TestParseReplicasBoundsFleetSize is the hostile-size regression test:
// counts and GPU counts past the library's limits are parse errors, so
// muxcluster never starts building a fleet for them. Unbounded,
// 50000000xMuxWise crashed out of memory and 1xMuxWise@1000000000
// overflowed the device memory and reported every request unfinished.
func TestParseReplicasBoundsFleetSize(t *testing.T) {
	for _, spec := range []string{
		"50000000xMuxWise",
		"1xMuxWise@1000000000",
		"10001xMuxWise",
		"1xMuxWise@1025",
		"9999xMuxWise,2xChunked",
		"10000xMuxWise,MuxWise",
		"9223372036854775807xMuxWise",
	} {
		if got, err := parseReplicas(spec); err == nil {
			t.Errorf("parseReplicas(%q) = %+v, want an error", spec, got)
		}
	}
	got, err := parseReplicas("9999xMuxWise,1xChunked@1024")
	if err != nil {
		t.Fatalf("fleet at the limits rejected: %v", err)
	}
	if got[0].Count+got[1].Count != muxwise.MaxReplicas || got[1].GPUs != muxwise.MaxGPUs {
		t.Fatalf("parsed %+v, want %d replicas with %d GPUs on the last", got, muxwise.MaxReplicas, muxwise.MaxGPUs)
	}
}

// TestScenarioOptionsRejectsNonPositiveColdStart: -cold-start 0 used to
// spawn with the 15 s default, and a negative one placed the drain
// scenario's replacement spawn after the drain it should precede.
func TestScenarioOptionsRejectsNonPositiveColdStart(t *testing.T) {
	specs := []muxwise.ReplicaSpec{{Engine: "MuxWise", Count: 2}}
	for _, d := range []time.Duration{0, -5 * time.Second} {
		for _, name := range []string{"drain", "autoscale"} {
			o := scenarioOpts{name: name, drainAt: 45 * time.Second, minReps: 1, maxReps: 4,
				coldStart: d, autoscaler: "backlog"}
			if _, err := scenarioOptions("A100", specs, true, o); err == nil {
				t.Errorf("scenario %s with -cold-start %v accepted", name, d)
			}
		}
	}
}

func TestReplicasGrammarStatesBounds(t *testing.T) {
	for _, want := range []string{"at most 10000 replicas", "from 1 to 1024"} {
		if !strings.Contains(replicasGrammar, want) {
			t.Errorf("grammar help does not state %q:\n%s", want, replicasGrammar)
		}
	}
}

// FuzzParseReplicas: any -replicas string either errors or yields shapes
// the library accepts — a known engine and role, a count of at least
// one, at most MaxReplicas replicas in all, and at most MaxGPUs GPUs per
// replica. It never panics.
func FuzzParseReplicas(f *testing.F) {
	known := muxwise.Engines()
	f.Fuzz(func(t *testing.T, spec string) {
		got, err := parseReplicas(spec)
		if err != nil {
			if got != nil {
				t.Fatalf("error %v came with shapes %+v", err, got)
			}
			return
		}
		if len(got) == 0 {
			t.Fatal("accepted a spec with no shapes")
		}
		total := 0
		for _, rs := range got {
			if rs.Count < 1 || rs.GPUs < 0 || rs.GPUs > muxwise.MaxGPUs {
				t.Fatalf("shape %+v out of bounds", rs)
			}
			if !slices.Contains(known, rs.Engine) {
				t.Fatalf("unknown engine %q accepted", rs.Engine)
			}
			switch rs.Role {
			case "", "general", "prefill", "decode":
			default:
				t.Fatalf("unknown role %q accepted", rs.Role)
			}
			total += rs.Count
		}
		if total > muxwise.MaxReplicas {
			t.Fatalf("accepted %d replicas, limit %d", total, muxwise.MaxReplicas)
		}
	})
}

// TestGoodputRejectsUnknownWorkload: -goodput with an unknown -workload
// panicked inside the search's trace builder; it must be an error, named
// before any probe runs.
func TestGoodputRejectsUnknownWorkload(t *testing.T) {
	base := muxwise.NewExperiment(muxwise.WithFleet(muxwise.ReplicaSpec{Engine: "MuxWise", Count: 2}))
	err := runGoodput("1:2", []string{"round-robin"}, base, "bogus", 1, 4, true)
	if err == nil || !strings.Contains(err.Error(), `unknown workload "bogus"`) {
		t.Fatalf("runGoodput with workload bogus = %v, want an unknown-workload error", err)
	}
}
