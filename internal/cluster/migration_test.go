package cluster

import (
	"slices"
	"strings"
	"testing"

	"muxwise/internal/core"
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// drainHeavyCfg is the migration suite's reference scenario: a rolling
// restart of a 4-replica MuxWise fleet. Each wave spawns a replacement
// (ready just as its predecessor leaves, so capacity never dips) and
// drains an original replica — exactly the shape where stranded session
// KV matters, because every drained replica's multi-turn sessions
// re-route and would otherwise repay a full re-prefill on their next
// turn. With capacity held constant, the only difference between the
// re-prefill baseline and the migration run is how that KV moves.
func drainHeavyCfg(policy Policy, migrate bool) Config {
	cfg := Config{
		Base: serve.Config{
			Spec: gpu.A100(), GPUs: 1, Arch: model.Llama8B(),
			SLO: metrics.SLO{TTFT: sim.Second, TBT: 50 * sim.Millisecond},
		},
		Replicas: []ReplicaSpec{{Engine: "MuxWise", Factory: core.New, Count: 4}},
		Policy:   policy,
		Fleet: &FleetConfig{
			ColdStart: 5 * sim.Second,
			Events: []FleetEvent{
				{At: 35 * sim.Second, Kind: SpawnReplica},
				{At: 40 * sim.Second, Kind: DrainReplica, Replica: 0},
				{At: 75 * sim.Second, Kind: SpawnReplica},
				{At: 80 * sim.Second, Kind: DrainReplica, Replica: 1},
				{At: 115 * sim.Second, Kind: SpawnReplica},
				{At: 120 * sim.Second, Kind: DrainReplica, Replica: 2},
			},
		},
	}
	if migrate {
		cfg.Migration = true
	}
	return cfg
}

// conservation checks the migration token invariant on a finished run.
func conservation(t *testing.T, res Result) {
	t.Helper()
	m := res.Migration
	got := m.MigratedTokens + m.CanceledTokens + m.RePrefillTokens + m.UndeliveredTokens
	if got != m.DrainKVTokens {
		t.Errorf("KV not conserved: migrated %d + canceled %d + re-prefill %d + undelivered %d = %d, want drain-time in-flight KV %d",
			m.MigratedTokens, m.CanceledTokens, m.RePrefillTokens, m.UndeliveredTokens, got, m.DrainKVTokens)
	}
}

// TestMigrationConservation: for every graceful takedown, the in-flight
// KV observed at the drain instant is fully accounted for — migrated,
// canceled (crash mid-stream), fallen back to re-prefill, or still on
// the wire — across seeds and routers. Run under -race in CI.
func TestMigrationConservation(t *testing.T) {
	for _, policy := range []Policy{PrefixAffinity, AdaptiveTTFT, LeastTokens} {
		name := policy().Name()
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				res, err := Run(drainHeavyCfg(policy, true), mixedTrace(seed, 40, 0.3))
				if err != nil {
					t.Fatal(err)
				}
				conservation(t, res)
				if res.Migration.Streams == 0 {
					t.Errorf("seed %d: drain-heavy run started no KV streams", seed)
				}
				if res.Migration.MigratedTokens == 0 {
					t.Errorf("seed %d: no KV delivered", seed)
				}
			}
		})
	}
}

// TestMigrationDisabledIsInert: Config.Migration false keeps the
// re-prefill-only behavior — no streams, no counters, no held requests.
func TestMigrationDisabledIsInert(t *testing.T) {
	res, err := Run(drainHeavyCfg(PrefixAffinity, false), mixedTrace(1, 40, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Migration != (MigrationStats{}) {
		t.Fatalf("migration disabled but stats non-zero: %+v", res.Migration)
	}
}

// TestMigrationBeatsRePrefill: on the drain-heavy rolling-restart
// scenario, streaming KV at the modeled NVLink cost must strictly beat
// repaying re-prefills on per-request SLO goodput — the
// transfer-vs-recompute tradeoff landing on the transfer side when the
// link is fast. The claim is pinned on the prefix-affinity router (the
// EPP-style default, and the seam SessionMigrated re-pins through):
// per seed the migration run is never worse, and across seeds it is
// strictly better. Learned routers also benefit on net but their
// exploration noise is of the same order as the per-seed margin, so
// they are exercised by the conservation suite instead.
func TestMigrationBeatsRePrefill(t *testing.T) {
	for _, policy := range []Policy{PrefixAffinity} {
		name := policy().Name()
		t.Run(name, func(t *testing.T) {
			slo := metrics.SLO{TTFT: sim.Second, TBT: 50 * sim.Millisecond}
			var baseTotal, migTotal int
			for seed := uint64(5); seed <= 9; seed++ {
				trace := func() *workload.Trace { return mixedTrace(seed, 60, 0.2) }
				base, err := Run(drainHeavyCfg(policy, false), trace())
				if err != nil {
					t.Fatal(err)
				}
				mig, err := Run(drainHeavyCfg(policy, true), trace())
				if err != nil {
					t.Fatal(err)
				}
				baseGood := mustWithinSLO(t, base, slo)
				migGood := mustWithinSLO(t, mig, slo)
				baseTotal += baseGood
				migTotal += migGood
				t.Logf("seed %d: within-SLO re-prefill %d vs migration %d; cache hit %.3f vs %.3f; migrated %d tokens, stall %v",
					seed, baseGood, migGood, base.CacheHit, mig.CacheHit,
					mig.Migration.MigratedTokens, mig.Migration.Stall)
				if mig.Migration.MigratedTokens == 0 {
					t.Errorf("seed %d: migration run delivered no KV", seed)
				}
				if migGood < baseGood {
					t.Errorf("seed %d: migration within-SLO goodput %d regressed below re-prefill baseline %d",
						seed, migGood, baseGood)
				}
			}
			if migTotal <= baseTotal {
				t.Errorf("migration within-SLO goodput %d not strictly above re-prefill baseline %d across seeds",
					migTotal, baseTotal)
			}
		})
	}
}

// mustWithinSLO counts per-request SLO conformance on a run.
func mustWithinSLO(t *testing.T, res Result, slo metrics.SLO) int {
	t.Helper()
	return res.Rec.WithinSLO(slo)
}

// TestFailDuringMigrationRePrefills is the crash-consistency guard: a
// replica that fails while its drain streams are still on the wire
// loses that KV — the streams cancel, nothing lands at the
// destination, and the sessions are charged the full re-prefill. The
// scenario is built by hand so the crash instant provably sits inside
// the stream's handoff window.
func TestFailDuringMigrationRePrefills(t *testing.T) {
	s := sim.New()
	cfg := drainHeavyCfg(PrefixAffinity, true)
	cfg.Fleet = nil
	cfg.Replicas[0].Count = 3
	c, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pages := make([]kvcache.PageID, 520)
	for i := range pages {
		pages[i] = kvcache.PageID(i + 1)
	}
	req := withSegs(&workload.Request{
		ID: 1, Session: 9, Arrival: 0,
		InputTokens: 8000, OutputTokens: 320,
		Pages:    pages[:500],
		AllPages: pages,
	})
	s.AtFunc(0, func(any) { c.Replicas[0].submit(req) }, nil)
	// Drain while the request is in flight: the replica stays draining
	// (not retired) and one stream is on the wire. The crash lands 2 ms
	// later, inside the 8 ms handoff window.
	s.AtFunc(sim.Second, func(any) {
		c.Drain(c.Replicas[0])
		if got := c.migStats.Streams; got != 1 {
			t.Fatalf("drain started %d streams, want 1", got)
		}
		if c.Replicas[0].State != StateDraining {
			t.Fatalf("source state %v, want draining", c.Replicas[0].State)
		}
	}, nil)
	s.AtFunc(sim.Second+2*sim.Millisecond, func(any) { c.Fail(c.Replicas[0]) }, nil)
	s.RunUntil(600 * sim.Second)

	m := c.migStats
	m.UndeliveredTokens = c.undeliveredTokens()
	if m.Canceled != 1 {
		t.Errorf("crash canceled %d of 1 in-progress streams; half-migrated KV must not survive", m.Canceled)
	}
	if m.MigratedTokens != 0 {
		t.Errorf("%d KV tokens landed from a replica that crashed mid-stream", m.MigratedTokens)
	}
	if m.CanceledTokens != m.DrainKVTokens {
		t.Errorf("canceled %d tokens, want the full drain-time KV %d re-prefilled", m.CanceledTokens, m.DrainKVTokens)
	}
	if got := m.MigratedTokens + m.CanceledTokens + m.RePrefillTokens + m.UndeliveredTokens; got != m.DrainKVTokens {
		t.Errorf("KV not conserved after crash: %d accounted, %d observed", got, m.DrainKVTokens)
	}
	for _, rep := range c.Replicas {
		if rep.kvIn != 0 {
			t.Errorf("replica %s reports %d migrated-in tokens after the source crashed", rep.Name, rep.kvIn)
		}
		if rep.migTokens != 0 {
			t.Errorf("replica %s still carries %d in-transit tokens after the cancel", rep.Name, rep.migTokens)
		}
	}
}

// TestFailedDestinationDropsInTransitKV: a replica that crashes while a
// drain stream is still on the wire toward it stops counting that KV —
// outstanding tokens include in-transit KV, so both counters of the
// dead replica read zero. Same hand-built scenario as
// TestFailDuringMigrationRePrefills, but the crash hits the stream's
// destination instead of its source.
func TestFailedDestinationDropsInTransitKV(t *testing.T) {
	s := sim.New()
	cfg := drainHeavyCfg(PrefixAffinity, true)
	cfg.Fleet = nil
	cfg.Replicas[0].Count = 3
	c, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pages := make([]kvcache.PageID, 520)
	for i := range pages {
		pages[i] = kvcache.PageID(i + 1)
	}
	req := withSegs(&workload.Request{
		ID: 1, Session: 9, Arrival: 0,
		InputTokens: 8000, OutputTokens: 320,
		Pages:    pages[:500],
		AllPages: pages,
	})
	s.AtFunc(0, func(any) { c.Replicas[0].submit(req) }, nil)
	var dst *Replica
	s.AtFunc(sim.Second, func(any) {
		c.Drain(c.Replicas[0])
		if len(c.migs) != 1 {
			t.Fatalf("drain started %d streams, want 1", len(c.migs))
		}
		dst = c.Replicas[c.migs[0].dst]
		if dst.MigratingTokens() == 0 {
			t.Fatal("stream destination carries no in-transit KV")
		}
	}, nil)
	s.AtFunc(sim.Second+2*sim.Millisecond, func(any) { c.Fail(dst) }, nil)
	s.RunUntil(600 * sim.Second)

	if dst.State != StateFailed {
		t.Fatalf("destination state %v, want failed", dst.State)
	}
	if c.migStats.Canceled != 1 {
		t.Errorf("destination crash canceled %d of 1 streams", c.migStats.Canceled)
	}
	if got := dst.MigratingTokens(); got != 0 {
		t.Errorf("failed destination still counts %d in-transit tokens", got)
	}
	if got := dst.OutstandingTokens(); got != 0 {
		t.Errorf("failed destination still counts %d outstanding tokens", got)
	}
}

// TestMigrationOccupancy: while a stream is on the wire the destination
// carries the in-transit KV in its token load, and it drops off on
// arrival — the router-visible occupancy the issue's accounting demands.
func TestMigrationOccupancy(t *testing.T) {
	s := sim.New()
	cfg := drainHeavyCfg(PrefixAffinity, true)
	cfg.Fleet = nil
	c, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pages := make([]kvcache.PageID, 260)
	for i := range pages {
		pages[i] = kvcache.PageID(i + 1)
	}
	req := withSegs(&workload.Request{
		ID: 1, Session: 9, Arrival: 0,
		InputTokens: 4096, OutputTokens: 64,
		Pages:    pages[:256],
		AllPages: pages,
	})
	var before, during, after int64
	s.AtFunc(0, func(any) { c.Replicas[0].submit(req) }, nil)
	s.AtFunc(sim.Second, func(any) {
		before = c.Replicas[1].OutstandingTokens() + c.Replicas[2].OutstandingTokens() + c.Replicas[3].OutstandingTokens()
		c.Drain(c.Replicas[0])
		during = c.Replicas[1].MigratingTokens() + c.Replicas[2].MigratingTokens() + c.Replicas[3].MigratingTokens()
	}, nil)
	s.AtFunc(sim.Second+sim.Millisecond, func(any) {
		after = c.Replicas[1].MigratingTokens() + c.Replicas[2].MigratingTokens() + c.Replicas[3].MigratingTokens()
	}, nil)
	s.RunUntil(600 * sim.Second)
	if before != 0 {
		t.Fatalf("idle destinations carried %d outstanding tokens before the drain", before)
	}
	want := int64(req.InputTokens + req.OutputTokens)
	if during != want {
		t.Errorf("in-transit KV %d not counted against the destination at stream start (want %d)", during, want)
	}
	if after != want {
		t.Errorf("in-transit KV %d during 8 ms handoff window, want %d", after, want)
	}
	if got := c.migStats.MigratedTokens; got != want {
		t.Errorf("delivered %d tokens, want %d", got, want)
	}
	var landed int64
	for _, rep := range c.Replicas[1:] {
		landed += rep.MigratingTokens()
	}
	if landed != 0 {
		t.Errorf("in-transit counter %d after arrival, want 0", landed)
	}
}

// logLines renders a fleet log one "<time> <message>" line per entry.
func logLines(events []LogEntry) []string {
	out := make([]string, len(events))
	for i, ev := range events {
		out[i] = ev.String()
	}
	return out
}

// TestFleetLogText pins the rendered fleet log of a hand-built run that
// writes every kind of entry: a drain streams an in-flight and an idle
// session, the in-flight stream's destination crashes mid-stream, a
// replica spawns and turns ready, the drain completes, and a retire
// streams a held request and an idle session. The lines are the text
// the log printed when it was still formatted at write time.
func TestFleetLogText(t *testing.T) {
	s := sim.New()
	cfg := drainHeavyCfg(PrefixAffinity, true)
	cfg.Fleet = nil
	cfg.Replicas[0].Count = 3
	c, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id, session, in, out int) *workload.Request {
		return withSegs(&workload.Request{
			ID: id, Session: session,
			InputTokens: in, OutputTokens: out,
			Pages:    pdPages(uint64(session), in),
			AllPages: pdPages(uint64(session), in+out),
		})
	}
	s.AtFunc(0, func(any) {
		c.Replicas[0].submit(mk(1, 9, 8000, 320))
		c.Replicas[0].submit(mk(2, 5, 256, 8))
	}, nil)
	var dst *Replica
	s.AtFunc(sim.Second, func(any) {
		c.Drain(c.Replicas[0])
		dst = c.Replicas[c.migs[0].dst]
	}, nil)
	s.AtFunc(sim.Second+2*sim.Millisecond, func(any) { c.Fail(dst) }, nil)
	s.AtFunc(2*sim.Second, func(any) { c.Spawn(c.Replicas[0].Spec, 5*sim.Second) }, nil)
	s.AtFunc(50*sim.Second, func(any) { c.Replicas[2].submit(mk(3, 11, 2048, 4000)) }, nil)
	s.AtFunc(60*sim.Second, func(any) { c.Retire(c.Replicas[2]) }, nil)
	s.RunUntil(600 * sim.Second)

	want := []string{
		"1.000s drain MuxWise-0 (1 in flight)",
		"1.000s kv-migrate session 9 MuxWise-0 -> MuxWise-1 (8320 tokens over nvlink, 9.818ms)",
		"1.000s kv-migrate session 5 MuxWise-0 -> MuxWise-2 (264 tokens over nvlink, 8.058ms)",
		"1.002s kv-migration canceled session 9 MuxWise-0 -> MuxWise-1 (8320 tokens re-prefill)",
		"1.002s fail MuxWise-1 (0 in-flight re-dispatched)",
		"1.008s kv-arrived session 5 at MuxWise-2 (264 tokens)",
		"2.000s spawn MuxWise-3 (cold start 5.000s)",
		"3.530s drained MuxWise-0 (0 in-flight re-dispatched)",
		"7.000s ready MuxWise-3",
		"60.000s retire MuxWise-2 (1 in-flight re-dispatched)",
		"60.000s kv-migrate session 11 MuxWise-2 -> MuxWise-3 (2048 tokens over nvlink, 8.447ms)",
		"60.000s kv-migrate session 5 MuxWise-2 -> MuxWise-3 (264 tokens over nvlink, 8.058ms)",
		"60.008s kv-arrived session 5 at MuxWise-3 (264 tokens)",
		"60.008s kv-arrived session 11 at MuxWise-3 (2048 tokens)",
	}
	if got := logLines(c.log); !slices.Equal(got, want) {
		t.Fatalf("fleet log:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
