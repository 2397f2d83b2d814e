package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"muxwise/internal/core"
	"muxwise/internal/gpu"
	"muxwise/internal/sim"
)

// -update rewrites the placement golden from the current run:
//
//	go test ./internal/cluster -run TestPlacementDigests -update
//
// The golden pins every built-in router's placements; a diff means a
// routing decision moved, so inspect it before committing.
var updatePlacements = flag.Bool("update", false, "rewrite testdata/placements.json from this run")

// placement is one golden case: a digest of where every request went
// plus the run's summary, and the per-replica request counts that make
// a drift readable.
type placement struct {
	Digest   string         `json:"digest"`
	Requests map[string]int `json:"requests"`
}

// placementOf digests res: SHA-256 over the (request ID, replica name)
// pairs in ID order, then the %#v of the fleet summary.
func placementOf(res Result) placement {
	where := replicaOf(res)
	ids := make([]int, 0, len(where))
	counts := map[string]int{}
	for id, name := range where {
		ids = append(ids, id)
		counts[name]++
	}
	slices.Sort(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%d %s\n", id, where[id])
	}
	fmt.Fprintf(h, "%#v", res.Summary)
	return placement{Digest: hex.EncodeToString(h.Sum(nil)), Requests: counts}
}

// TestPlacementDigests pins the placements of every built-in router and
// one free-form composition on a mixed-role fleet (roleCfg), replaying
// the MixedBursty trace in two subtests: "static", on a fixed fleet, and
// "churn", under lifecycle events — a mid-run spawn, a failure and a
// drain — which exercise the observer fan-out (ReplicaDown, re-dispatch,
// re-stick). The golden was generated while the pipeline-equivalence
// suite still ran, so every pair it compared against the pre-pipeline
// routers stays pinned.
func TestPlacementDigests(t *testing.T) {
	composed := "epp:filters=sticky;scorers=prefix,ttft-ewma"
	policies := builtinPolicies()
	p, err := ParseComposition(composed)
	if err != nil {
		t.Fatal(err)
	}
	policies[composed] = p
	path := filepath.Join("testdata", "placements.json")
	var raw []byte
	want := map[string]placement{}
	if !*updatePlacements {
		if raw, err = os.ReadFile(path); err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("golden unreadable: %v", err)
		}
	}
	scenarios := []struct {
		name  string
		fleet *FleetConfig
		seed  uint64
	}{
		{"static", nil, 29},
		{"churn", &FleetConfig{Events: []FleetEvent{
			{At: 20 * sim.Second, Kind: SpawnReplica},
			{At: 45 * sim.Second, Kind: FailReplica, Replica: 1},
			{At: 70 * sim.Second, Kind: DrainReplica, Replica: 0},
		}}, 31},
	}
	got := map[string]placement{}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for name, policy := range policies {
				cfg := roleCfg(policy)
				cfg.Fleet = sc.fleet
				res, err := Run(cfg, mixedTrace(sc.seed, 24, 0.14))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got[sc.name+"/"+name] = placementOf(res)
			}
			if !*updatePlacements {
				comparePlacements(t, sc.name+"/", got, want)
			}
		})
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if *updatePlacements {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(out, raw) {
		t.Fatal("placements differ from testdata/placements.json")
	}
}

// comparePlacements reports every case under prefix whose digest
// differs between got and the golden want, naming each replica whose
// request count moved, and every case present on one side only.
func comparePlacements(t *testing.T, prefix string, got, want map[string]placement) {
	t.Helper()
	cases := maps.Clone(got)
	maps.Copy(cases, want)
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		g, inGot := got[name]
		w, inWant := want[name]
		switch {
		case !inWant:
			t.Errorf("%s: not in the golden", name)
			continue
		case !inGot:
			t.Errorf("%s: in the golden but not run", name)
			continue
		case g.Digest == w.Digest:
			continue
		}
		reps := maps.Clone(g.Requests)
		maps.Copy(reps, w.Requests)
		moved := false
		for _, rep := range slices.Sorted(maps.Keys(reps)) {
			if g.Requests[rep] != w.Requests[rep] {
				moved = true
				t.Errorf("%s: %s served %d requests, golden %d", name, rep, g.Requests[rep], w.Requests[rep])
			}
		}
		if !moved {
			t.Errorf("%s: per-replica counts held but placements or the summary moved", name)
		}
	}
}

// roleCfg builds a mixed-role fleet so pd-split's pools are real: two
// general MuxWise replicas, one prefill-tagged, one decode-tagged.
func roleCfg(policy Policy) Config {
	cfg := fleetCfg(policy, 2)
	cfg.Replicas = append(cfg.Replicas,
		ReplicaSpec{Engine: "MuxWise", Factory: core.New, Count: 1, Role: RolePrefill},
		ReplicaSpec{Engine: "MuxWise", Factory: core.New, Count: 1, Role: RoleDecode, Hardware: gpu.H100()},
	)
	return cfg
}
