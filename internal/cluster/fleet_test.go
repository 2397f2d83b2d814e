package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"muxwise/internal/core"
	"muxwise/internal/gpu"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// longTrace builds requests with long decodes arriving in a tight burst,
// so a failure injected shortly after the burst is guaranteed to catch
// requests in flight.
func longTrace(n int, gap sim.Time, output int) *workload.Trace {
	return burstTrace(n, gap, 800, output)
}

func burstTrace(n int, gap sim.Time, input, output int) *workload.Trace {
	tr := &workload.Trace{Name: "burst"}
	for i := 0; i < n; i++ {
		tr.Requests = append(tr.Requests, withSegs(&workload.Request{
			ID: i, Session: i, Arrival: sim.Time(i) * gap,
			InputTokens: input, OutputTokens: output,
			Pages:    pdPages(uint64(i), input),
			AllPages: pdPages(uint64(i), input+output),
		}))
	}
	return tr
}

// sessionTrace builds multi-turn sessions: warm turns before splitAt,
// follow-up turns after, each turn's context the full session history.
func sessionTrace(sessions, warmTurns, tailTurns int, gap sim.Time) *workload.Trace {
	tr := &workload.Trace{Name: "sessions"}
	id := 0
	turns := warmTurns + tailTurns
	for s := 0; s < sessions; s++ {
		ctx := 0
		for turn := 0; turn < turns; turn++ {
			const newTok, out = 600, 64
			input := ctx + newTok
			at := sim.Time(turn)*sim.Time(sessions)*gap + sim.Time(s)*gap
			tr.Requests = append(tr.Requests, withSegs(&workload.Request{
				ID: id, Session: s, Turn: turn, Arrival: at,
				InputTokens: input, ReusedTokens: ctx, OutputTokens: out,
				Pages:    pdPages(uint64(s), input),
				AllPages: pdPages(uint64(s), input+out),
			}))
			id++
			ctx = input + out
		}
	}
	return tr
}

// fleetRun runs cfg with the given fleet script.
func fleetRun(t *testing.T, cfg Config, fc *FleetConfig, tr *workload.Trace) Result {
	t.Helper()
	cfg.Fleet = fc
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFailureRedispatchesInFlight(t *testing.T) {
	// 2k output tokens decode for minutes: failing at 20s catches every
	// request routed to replica 0 still in flight.
	tr := longTrace(8, sim.Second, 2000)
	failAt := 20 * sim.Second
	res := fleetRun(t, fleetCfg(RoundRobin, 2),
		&FleetConfig{Events: []FleetEvent{{At: failAt, Kind: FailReplica, Replica: 0}}}, tr)

	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1", res.Failures)
	}
	failed := res.Replicas[0]
	if failed.State != StateFailed || failed.DownAt != failAt {
		t.Fatalf("replica 0 state %v down at %v, want failed at %v", failed.State, failed.DownAt, failAt)
	}
	// Every request finished despite the crash: the in-flight ones were
	// re-dispatched to replica 1.
	if res.Summary.Finished != tr.Len() {
		t.Fatalf("finished %d of %d after failure", res.Summary.Finished, tr.Len())
	}
	if res.Unrouted != 0 {
		t.Fatalf("unrouted = %d, want 0", res.Unrouted)
	}
	// The failed replica keeps only requests it completed before the
	// crash; every in-flight one moved to the survivor, with no request
	// lost or duplicated.
	kept := len(failed.Result.Rec.IDs())
	moved := failed.Requests - kept
	if moved <= 0 {
		t.Fatalf("no in-flight requests to re-dispatch (assigned %d, completed %d); failure tested nothing",
			failed.Requests, kept)
	}
	if failed.Result.Rec.Unfinished() != 0 {
		t.Fatalf("failed replica still holds %d unfinished requests", failed.Result.Rec.Unfinished())
	}
	if got := len(res.Replicas[1].Result.Rec.IDs()); got != tr.Len()-kept {
		t.Fatalf("survivor holds %d requests, want %d", got, tr.Len()-kept)
	}
	// The re-dispatch is visible in the fleet log.
	found := false
	for _, ev := range res.Events {
		if ev.At == failAt &&
			strings.Contains(ev.Msg(), fmt.Sprintf("fail %s (%d in-flight re-dispatched)", failed.Name, moved)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("fleet log missing re-dispatch entry for %d moved requests: %+v", moved, res.Events)
	}
	// Re-dispatched requests keep their original arrival, so the
	// failover latency shows in TTFT of the merged view.
	if res.Summary.Requests != tr.Len() {
		t.Fatalf("merged requests %d, want %d (no duplicates, no losses)", res.Summary.Requests, tr.Len())
	}
}

func TestFailureReSticksSessionsAndChargesReprefill(t *testing.T) {
	// Warm 3 turns per session, crash one replica, then 3 more turns.
	tr := sessionTrace(8, 3, 3, 2*sim.Second)
	// Fail between warm and tail turns: after the 3rd round of turns.
	failAt := 3*8*2*sim.Second + sim.Second
	mk := func() Config { return fleetCfg(PrefixAffinity, 2) }

	healthy := fleetRun(t, mk(),
		&FleetConfig{Events: []FleetEvent{{At: failAt, Kind: MarkEpoch}}}, tr)
	failed := fleetRun(t, mk(),
		&FleetConfig{Events: []FleetEvent{{At: failAt, Kind: FailReplica, Replica: 0}}}, tr)

	// Every post-failure arrival must land off the dead replica.
	where := replicaOf(failed)
	deadName := failed.Replicas[0].Name
	for _, r := range tr.Requests {
		if r.Arrival >= failAt && where[r.ID] == deadName {
			t.Fatalf("request %d (arrival %v) routed to dead replica %s", r.ID, r.Arrival, deadName)
		}
	}
	// Sessions formerly pinned to the dead replica re-stick: each lives
	// on exactly one replica after the failure.
	perSession := map[int]map[string]bool{}
	for _, r := range tr.Requests {
		if r.Arrival < failAt {
			continue
		}
		if perSession[r.Session] == nil {
			perSession[r.Session] = map[string]bool{}
		}
		perSession[r.Session][where[r.ID]] = true
	}
	for s, reps := range perSession {
		if len(reps) != 1 {
			t.Fatalf("session %d spread over %d replicas after failure", s, len(reps))
		}
	}
	// The re-prefill penalty: in the aligned post-failure epoch, the
	// failed fleet's cache-hit rate must drop below the healthy fleet's
	// (the dead replica's sessions arrive cold wherever they re-stuck).
	epochAfter := func(res Result) Epoch {
		for _, ep := range res.Epochs {
			if ep.From >= failAt {
				return ep
			}
		}
		t.Fatalf("no epoch after %v in %+v", failAt, res.Epochs)
		return Epoch{}
	}
	h, f := epochAfter(healthy), epochAfter(failed)
	if f.CacheHit >= h.CacheHit {
		t.Fatalf("post-failure cache hit %.3f did not drop below healthy %.3f", f.CacheHit, h.CacheHit)
	}
	if h.CacheHit == 0 {
		t.Fatal("healthy post-epoch cache hit is zero; the warm-up phase is broken")
	}
	// Both runs still finish everything.
	if failed.Summary.Finished != tr.Len() {
		t.Fatalf("failure run finished %d of %d", failed.Summary.Finished, tr.Len())
	}
}

func TestFailureRunIsDeterministic(t *testing.T) {
	mkTrace := func() *workload.Trace { return mixedTrace(17, 15, 0.15) }
	failAt := 60 * sim.Second
	run := func() Result {
		return fleetRun(t, fleetCfg(PrefixAffinity, 3),
			&FleetConfig{Events: []FleetEvent{{At: failAt, Kind: FailReplica, Replica: 1}}}, mkTrace())
	}
	a, b := run(), run()
	// Byte-identical reports: summaries, per-replica routing, epochs and
	// the fleet log all render identically.
	if as, bs := fmt.Sprintf("%+v", a.Summary), fmt.Sprintf("%+v", b.Summary); as != bs {
		t.Fatalf("summaries differ:\n%s\n%s", as, bs)
	}
	if as, bs := fmt.Sprintf("%+v", a.Epochs), fmt.Sprintf("%+v", b.Epochs); as != bs {
		t.Fatalf("epochs differ:\n%s\n%s", as, bs)
	}
	if as, bs := logLines(a.Events), logLines(b.Events); !slices.Equal(as, bs) {
		t.Fatalf("fleet logs differ:\n%s\n%s", strings.Join(as, "\n"), strings.Join(bs, "\n"))
	}
	for i := range a.Replicas {
		if a.Replicas[i].Requests != b.Replicas[i].Requests {
			t.Fatalf("replica %d routed %d vs %d", i, a.Replicas[i].Requests, b.Replicas[i].Requests)
		}
	}
}

func TestDrainFinishesInPlaceThenRetires(t *testing.T) {
	tr := longTrace(6, sim.Second, 2000)
	drainAt := 8 * sim.Second
	res := fleetRun(t, fleetCfg(RoundRobin, 2),
		&FleetConfig{Events: []FleetEvent{{At: drainAt, Kind: DrainReplica, Replica: 0}}}, tr)

	drained := res.Replicas[0]
	if drained.State != StateRetired {
		t.Fatalf("drained replica state %v, want retired", drained.State)
	}
	if drained.DownAt <= drainAt {
		t.Fatalf("drained replica retired at %v, want after the drain at %v (in-flight finished in place)",
			drained.DownAt, drainAt)
	}
	// Unlike a failure, a drain keeps its in-flight requests: everything
	// routed there before the drain completes there.
	if got := len(drained.Result.Rec.IDs()); got != drained.Requests {
		t.Fatalf("drained replica completed %d of its %d requests", got, drained.Requests)
	}
	if res.Summary.Finished != tr.Len() {
		t.Fatalf("finished %d of %d", res.Summary.Finished, tr.Len())
	}
	// Nothing arrives on a draining replica.
	where := replicaOf(res)
	for _, r := range tr.Requests {
		if r.Arrival >= drainAt && where[r.ID] == drained.Name {
			t.Fatalf("request %d arrived on draining replica", r.ID)
		}
	}
}

func TestSpawnColdStartAndPendingFlush(t *testing.T) {
	// A one-replica fleet fails at 5s; a replacement spawns at 10s with a
	// 5s cold start. Requests arriving in the gap queue and flush.
	tr := longTrace(10, 2*sim.Second, 64)
	res := fleetRun(t, fleetCfg(RoundRobin, 1), &FleetConfig{
		Events: []FleetEvent{
			{At: 5 * sim.Second, Kind: FailReplica, Replica: 0},
			{At: 10 * sim.Second, Kind: SpawnReplica},
		},
		ColdStart: 5 * sim.Second,
	}, tr)

	if len(res.Replicas) != 2 {
		t.Fatalf("%d replicas, want 2 (initial + spawned)", len(res.Replicas))
	}
	spawned := res.Replicas[1]
	if spawned.ReadyAt != 15*sim.Second {
		t.Fatalf("spawned replica ready at %v, want 15s (10s spawn + 5s cold start)", spawned.ReadyAt)
	}
	if res.Summary.Finished != tr.Len() || res.Unrouted != 0 {
		t.Fatalf("finished %d of %d, unrouted %d; pending flush broken",
			res.Summary.Finished, tr.Len(), res.Unrouted)
	}
	// Between them, the failed original and the replacement account for
	// the whole trace.
	kept := len(res.Replicas[0].Result.Rec.IDs())
	if got := len(spawned.Result.Rec.IDs()); got != tr.Len()-kept {
		t.Fatalf("spawned replica served %d, want %d (trace %d minus %d completed pre-crash)",
			got, tr.Len()-kept, tr.Len(), kept)
	}
	if spawned.Requests == 0 {
		t.Fatal("spawned replica took no traffic")
	}
}

func TestBacklogAutoscalerSpawnsUnderPressure(t *testing.T) {
	// One replica, sustained arrivals far beyond it: the scaler must
	// grow the fleet, and the replicas it adds must absorb the later
	// arrivals (requests route at arrival, so new capacity only helps
	// traffic still to come).
	tr := longTrace(60, 500*sim.Millisecond, 600)
	res := fleetRun(t, fleetCfg(LeastTokens, 1), &FleetConfig{
		Scaler:    BacklogScaler{},
		ColdStart: 3 * sim.Second,
		Max:       6,
	}, tr)

	if len(res.Replicas) <= 1 {
		t.Fatal("autoscaler never spawned despite backlog")
	}
	if len(res.Replicas) > 6 {
		t.Fatalf("autoscaler spawned %d replicas, cap is 6", len(res.Replicas))
	}
	if res.Summary.Finished != tr.Len() {
		t.Fatalf("finished %d of %d", res.Summary.Finished, tr.Len())
	}
	tookTraffic := false
	for _, rep := range res.Replicas[1:] {
		if rep.Requests > 0 {
			tookTraffic = true
		}
	}
	if !tookTraffic {
		t.Fatal("no spawned replica took traffic")
	}
	// Determinism of the scaling trajectory.
	res2 := fleetRun(t, fleetCfg(LeastTokens, 1), &FleetConfig{
		Scaler:    BacklogScaler{},
		ColdStart: 3 * sim.Second,
		Max:       6,
	}, longTrace(60, 500*sim.Millisecond, 600))
	if len(res2.Replicas) != len(res.Replicas) {
		t.Fatalf("autoscaler non-deterministic: %d vs %d replicas", len(res.Replicas), len(res2.Replicas))
	}
}

func TestTTFTAutoscalerReactsToTail(t *testing.T) {
	// Prefill-heavy burst: 16k-token prompts queue behind each other on
	// one replica, so the TTFT tail blows well past the 500 ms target.
	tr := burstTrace(20, 100*sim.Millisecond, 16000, 100)
	res := fleetRun(t, fleetCfg(LeastTokens, 1), &FleetConfig{
		Scaler:    TTFTScaler{Target: 500 * sim.Millisecond},
		ColdStart: 3 * sim.Second,
		Max:       4,
	}, tr)
	if len(res.Replicas) <= 1 {
		t.Fatal("ttft autoscaler never spawned despite a blown TTFT tail")
	}
	if res.Summary.Finished != tr.Len() {
		t.Fatalf("finished %d of %d", res.Summary.Finished, tr.Len())
	}
}

func TestHeterogeneousFleetUsesPerShapeCosts(t *testing.T) {
	cfg := Config{
		Base: serve.Config{
			Spec: gpu.A100(), GPUs: 1, Arch: model.Llama8B(),
			SLO: metrics.SLO{TTFT: sim.Second, TBT: 50 * sim.Millisecond},
		},
		Replicas: []ReplicaSpec{
			{Engine: "MuxWise", Factory: core.New, Count: 1},
			{Engine: "MuxWise", Factory: core.New, Count: 1, Hardware: gpu.H100()},
		},
		Policy: RoundRobin,
	}
	tr := longTrace(12, sim.Second, 300)
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Finished != tr.Len() {
		t.Fatalf("finished %d of %d", res.Summary.Finished, tr.Len())
	}
	a100, h100 := res.Replicas[0].Result, res.Replicas[1].Result
	if len(a100.Devices) == 0 || len(h100.Devices) == 0 {
		t.Fatal("missing device stats")
	}
	// Same engine, same per-replica request mix (round-robin), but the
	// H100 shape must run its share faster than the A100 shape.
	if h100.Summary.TBT.Avg >= a100.Summary.TBT.Avg {
		t.Fatalf("H100 avg TBT %.4fs not faster than A100 %.4fs — per-shape cost model not applied",
			h100.Summary.TBT.Avg, a100.Summary.TBT.Avg)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	base := fleetCfg(RoundRobin, 2)
	bad := func(fc FleetConfig) error {
		cfg := base
		cfg.Fleet = &fc
		_, err := Run(cfg, &workload.Trace{})
		return err
	}
	if err := bad(FleetConfig{Events: []FleetEvent{{At: 0, Kind: FailReplica, Replica: 7}}}); err == nil {
		t.Error("out-of-range event target should error")
	}
	if err := bad(FleetConfig{Events: []FleetEvent{{At: -sim.Second, Kind: MarkEpoch}}}); err == nil {
		t.Error("negative event time should error")
	}
	if err := bad(FleetConfig{Events: []FleetEvent{{At: 0, Kind: EventKind(99)}}}); err == nil {
		t.Error("unknown event kind should error")
	}
	if err := bad(FleetConfig{Min: 5, Max: 2}); err == nil {
		t.Error("min > max should error")
	}
	// A spawn raises the valid target range for later events.
	if err := bad(FleetConfig{Events: []FleetEvent{
		{At: sim.Second, Kind: SpawnReplica},
		{At: 2 * sim.Second, Kind: DrainReplica, Replica: 2},
	}}); err != nil {
		t.Errorf("drain of a spawned replica should validate: %v", err)
	}
	// Validation follows firing order, not list order: the fail below
	// fires before either spawn, when only replicas 0-1 exist.
	if err := bad(FleetConfig{Events: []FleetEvent{
		{At: 60 * sim.Second, Kind: SpawnReplica},
		{At: 30 * sim.Second, Kind: SpawnReplica},
		{At: 10 * sim.Second, Kind: FailReplica, Replica: 2},
	}}); err == nil {
		t.Error("fail firing before any spawn should error")
	}
	if err := bad(FleetConfig{Events: []FleetEvent{
		{At: 60 * sim.Second, Kind: SpawnReplica},
		{At: 30 * sim.Second, Kind: SpawnReplica},
		{At: 40 * sim.Second, Kind: FailReplica, Replica: 2},
	}}); err != nil {
		t.Errorf("fail of the 30s spawn at 40s should validate: %v", err)
	}
}

// TestValidateBoundsFleetSize is the hostile-size regression test: a
// replica count or GPU count past the library's limits must fail
// validation, before any replica is built. Unbounded, 50M replicas
// crash the process out of memory and 1e9 GPUs overflow the int64
// device memory, leaving every request silently unfinished.
func TestValidateBoundsFleetSize(t *testing.T) {
	const hostile = 1_000_000_000
	spawn := func(spec ReplicaSpec) *FleetConfig {
		return &FleetConfig{Events: []FleetEvent{{At: sim.Second, Kind: SpawnReplica, Spec: spec}}}
	}
	shape := ReplicaSpec{Engine: "MuxWise", Factory: core.New}
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"replica count", func(c *Config) { c.Replicas[0].Count = 50_000_000 }},
		{"fleet total", func(c *Config) {
			c.Replicas[0].Count = MaxReplicas
			c.Replicas = append(c.Replicas, shape)
		}},
		{"replica GPUs", func(c *Config) { c.Replicas[0].GPUs = hostile }},
		{"deployment GPUs", func(c *Config) { c.Base.GPUs = hostile }},
		{"spawned count", func(c *Config) { c.Fleet = spawn(ReplicaSpec{Count: MaxReplicas}) }},
		{"spawned GPUs", func(c *Config) { c.Fleet = spawn(ReplicaSpec{GPUs: hostile}) }},
		{"autoscaler ceiling", func(c *Config) { c.Fleet = &FleetConfig{Max: hostile} }},
	}
	for _, tc := range cases {
		cfg := fleetCfg(RoundRobin, 1)
		tc.edit(&cfg)
		if err := validate(cfg); err == nil {
			t.Errorf("%s: hostile size validated", tc.name)
		}
	}
	// The limits themselves are accepted.
	cfg := fleetCfg(RoundRobin, MaxReplicas)
	cfg.Base.GPUs = serve.MaxGPUs
	cfg.Replicas[0].GPUs = serve.MaxGPUs
	cfg.Fleet = &FleetConfig{Max: MaxReplicas}
	if err := validate(cfg); err != nil {
		t.Errorf("fleet at the limits rejected: %v", err)
	}
}

func TestParseRoleRoundTrips(t *testing.T) {
	for _, role := range []Role{RoleGeneral, RolePrefill, RoleDecode} {
		got, err := ParseRole(role.String())
		if err != nil {
			t.Fatalf("ParseRole(%q): %v", role.String(), err)
		}
		if got != role {
			t.Fatalf("ParseRole(%q) = %v, want %v", role.String(), got, role)
		}
	}
	if r, err := ParseRole(""); err != nil || r != RoleGeneral {
		t.Fatalf("ParseRole(\"\") = %v, %v; want general", r, err)
	}
	if _, err := ParseRole("embedding"); err == nil {
		t.Fatal("unknown role should error")
	}
}

// degenerate Pick inputs: a single-replica fleet leaves policies no
// choice, and an all-overloaded fleet must still pick someone.
func TestPickDegenerateFleets(t *testing.T) {
	req := func(n int) *workload.Request {
		return withSegs(&workload.Request{ID: n, Session: 1, Turn: n,
			InputTokens: 9000, OutputTokens: 64,
			Pages: pdPages(3, 9000), AllPages: pdPages(3, 9064)})
	}
	for name, policy := range Policies() {
		single := bareFleet(RoleGeneral)
		r := policy()
		for i := 0; i < 3; i++ {
			if got := r.Pick(req(i), view(single)); got != single[0] {
				t.Fatalf("%s: single-replica fleet picked %v", name, got)
			}
		}
		// All replicas drowning: stickiness and role preferences aside,
		// Pick must return a live candidate, deterministically.
		hot := bareFleet(RoleGeneral, RolePrefill, RoleDecode)
		for _, rep := range hot {
			rep.outTokens = 1 << 30
			rep.reqs = map[int]*workload.Request{}
			for i := 0; i < 99; i++ {
				rep.reqs[i] = req(i)
			}
		}
		r = policy()
		first := r.Pick(req(0), view(hot))
		if first == nil {
			t.Fatalf("%s: all-overloaded fleet returned nil", name)
		}
		r2 := policy()
		if again := r2.Pick(req(0), view(hot)); again != first {
			t.Fatalf("%s: all-overloaded pick not deterministic", name)
		}
	}
}
