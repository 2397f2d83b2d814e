package muxwise

import (
	"encoding/json"
	"fmt"
	"testing"

	"muxwise/internal/obs"
)

// TestWithMigrationEndToEnd drives KV migration through the public
// Experiment surface: a rolling drain with WithMigration must deliver
// KV (ClusterResult.Migration, Summary counters), and the identical
// experiment without it must stay on the re-prefill-only path.
func TestWithMigrationEndToEnd(t *testing.T) {
	trace := func() *Trace { return MixedBursty(8, 30, 0.2) }
	base := NewExperiment(
		WithDeployment(Deployment{
			Hardware: "A100", GPUs: 1, Model: "Llama-8B",
			SLO: SLO{TTFT: Second, TBT: 50 * Millisecond},
		}),
		WithFleet(ReplicaSpec{Engine: "MuxWise", Count: 3}),
		WithRouter("prefix-affinity"),
		WithColdStart(5*Second),
		WithEvents(
			FleetEvent{At: 35 * Second, Kind: "spawn"},
			FleetEvent{At: 40 * Second, Kind: "drain", Replica: 0},
		),
	)

	plain, err := base.Run(trace())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fleet.Migration != (MigrationStats{}) {
		t.Fatalf("migration disabled but stats non-zero: %+v", plain.Fleet.Migration)
	}
	if plain.Summary.MigratedKVTokens != 0 {
		t.Fatalf("migration disabled but summary reports %d migrated tokens", plain.Summary.MigratedKVTokens)
	}

	rep, err := base.With(WithMigration()).Run(trace())
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Fleet.Migration
	if m.Streams == 0 || m.MigratedTokens == 0 {
		t.Fatalf("WithMigration drained fleet streamed nothing: %+v", m)
	}
	if rep.Summary.MigratedKVTokens != m.MigratedTokens {
		t.Fatalf("summary migrated tokens %d != stats %d", rep.Summary.MigratedKVTokens, m.MigratedTokens)
	}
	if rep.Summary.MigrationStallSeconds <= 0 {
		t.Fatal("summary migration stall not populated")
	}
	if got := m.MigratedTokens + m.CanceledTokens + m.RePrefillTokens + m.UndeliveredTokens; got != m.DrainKVTokens {
		t.Fatalf("public-API run breaks KV conservation: %d accounted, %d observed", got, m.DrainKVTokens)
	}
	var in int64
	for _, r := range rep.Fleet.Replicas {
		in += r.KVMigratedIn
	}
	if in != m.MigratedTokens {
		t.Fatalf("per-replica migrated-in sum %d != delivered total %d", in, m.MigratedTokens)
	}
}

// TestWithMigrationRequiresFleet: migration is a fleet lifecycle option.
func TestWithMigrationRequiresFleet(t *testing.T) {
	_, err := NewExperiment(
		WithDeployment(Deployment{Hardware: "A100", GPUs: 1, Model: "Llama-8B"}),
		WithEngine("MuxWise"),
		WithMigration(),
	).Run(MixedBursty(1, 4, 0.1))
	if err == nil {
		t.Fatal("WithMigration on a single-engine experiment did not error")
	}
}

// TestRetireMidRun retires two replicas of a three-replica fleet while
// they serve, 2 ms apart, through the public "retire" fleet event, with
// KV migration off and on. A retire re-dispatches the replica's
// in-flight requests; with migration on, each is held until its input
// KV streams to a survivor. Streams toward the second replica are
// canceled by its retire, and their held requests re-prefill on the
// third. The run must conserve the migrated KV, deliver or re-prefill
// every held request (each held stream lands or is canceled, both
// happen, and every offered request finishes), count Misses as offered
// minus within-SLO, and read the same traced and untraced.
func TestRetireMidRun(t *testing.T) {
	for _, migrate := range []bool{false, true} {
		t.Run(fmt.Sprintf("migrate=%v", migrate), func(t *testing.T) {
			exp := NewExperiment(
				WithDeployment(Deployment{
					Hardware: "A100", GPUs: 1, Model: "Llama-8B",
					SLO: SLO{TTFT: Second, TBT: 50 * Millisecond},
				}),
				WithFleet(ReplicaSpec{Engine: "MuxWise", Count: 3}),
				WithRouter("prefix-affinity"),
				WithEvents(
					FleetEvent{At: 5 * Second, Kind: "retire", Replica: 0},
					FleetEvent{At: 5*Second + 2*Millisecond, Kind: "retire", Replica: 1},
				),
			)
			if migrate {
				exp = exp.With(WithMigration())
			}
			trace := func() *Trace { return ShareGPT(1, 200).WithPoissonArrivals(1, 12) }
			offered := trace().Len()
			plain, err := exp.Run(trace())
			if err != nil {
				t.Fatal(err)
			}
			fr := NewFlightRecorder()
			traced, err := exp.With(WithTrace(fr)).Run(trace())
			if err != nil {
				t.Fatal(err)
			}
			summary := func(rep *Report) string {
				raw, err := json.Marshal(struct {
					Summary    Summary
					Attainment float64
					MissCauses MissBreakdown
					Migration  MigrationStats
				}{rep.Summary, rep.Attainment, rep.MissCauses, rep.Fleet.Migration})
				if err != nil {
					t.Fatal(err)
				}
				return string(raw)
			}
			if got, want := summary(traced), summary(plain); got != want {
				t.Fatalf("tracing changed the run:\n  traced: %s\n  plain:  %s", got, want)
			}

			var redispatched int
			held := map[int64]bool{} // kv-stream IDs holding a request
			ended := map[int64]string{}
			for _, ev := range fr.Events() {
				args := map[string]any{}
				for _, a := range ev.Args {
					args[a.Key] = a.Val
				}
				switch {
				case ev.Track == "fleet" && ev.Name == "retire":
					redispatched += args["redispatched"].(int)
				case ev.Name == "kv-stream" && ev.Ph == obs.PhaseAsyncBegin && args["holds_request"] == true:
					held[ev.ID] = true
				case ev.Name == "kv-stream" && ev.Ph == obs.PhaseAsyncEnd:
					ended[ev.ID] = args["outcome"].(string)
				}
			}
			if redispatched == 0 {
				t.Fatal("the retires found no request in flight")
			}
			for _, r := range plain.Fleet.Replicas[:2] {
				if state := r.State.String(); state != "retired" {
					t.Fatalf("%s ends %s, want retired", r.Name, state)
				}
			}

			m := plain.Fleet.Migration
			if got := m.MigratedTokens + m.CanceledTokens + m.RePrefillTokens + m.UndeliveredTokens; got != m.DrainKVTokens {
				t.Fatalf("KV not conserved: %d accounted, %d observed", got, m.DrainKVTokens)
			}
			if !migrate && (m != MigrationStats{} || len(held) > 0) {
				t.Fatalf("migration off, but %d held streams and stats %+v", len(held), m)
			}
			if migrate && len(held) == 0 {
				t.Fatalf("migration on, but none of the %d re-dispatched requests was held", redispatched)
			}
			outcomes := map[string]int{}
			for id := range held {
				outcomes[ended[id]]++
			}
			if migrate && (outcomes["delivered"] == 0 || outcomes["canceled"] == 0 || len(outcomes) != 2) {
				t.Fatalf("held streams ended %v, want some delivered, some canceled and no other", outcomes)
			}
			if s := plain.Summary; s.Requests != offered || s.Finished != offered {
				t.Fatalf("%d of %d offered requests recorded, %d finished", s.Requests, offered, s.Finished)
			}
			if want := offered - plain.Fleet.Rec.WithinSLO(plain.SLO); plain.MissCauses.Misses != want {
				t.Fatalf("Misses = %d, want offered %d − within-SLO = %d", plain.MissCauses.Misses, offered, want)
			}
		})
	}
}
