package cluster

import (
	"fmt"
	"testing"

	"muxwise/internal/core"
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/pdsep"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// mixedTrace builds the Conversation+Tool&Agent bursty mix of Fig. 13 at
// a reduced scale.
func mixedTrace(seed uint64, sessions int, scale float64) *workload.Trace {
	conv := workload.Conversation(seed, sessions).
		WithProfileArrivals(seed, workload.ConversationProfile(scale))
	tool := workload.ToolAgent(seed+1, sessions).
		WithProfileArrivals(seed+1, workload.ToolAgentProfile(scale))
	return workload.Mix("Conversation+Tool&Agent", conv, tool)
}

func fleetCfg(policy Policy, replicas int) Config {
	return Config{
		Base: serve.Config{
			Spec: gpu.A100(), GPUs: 1, Arch: model.Llama8B(),
			SLO: metrics.SLO{TTFT: sim.Second, TBT: 50 * sim.Millisecond},
		},
		Replicas: []ReplicaSpec{{Engine: "MuxWise", Factory: core.New, Count: replicas}},
		Policy:   policy,
	}
}

// replicaOf maps every request ID to the replica that served it.
func replicaOf(res Result) map[int]string {
	out := map[int]string{}
	for _, rep := range res.Replicas {
		for _, id := range rep.Result.Rec.IDs() {
			out[id] = rep.Name
		}
	}
	return out
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Config{Policy: RoundRobin}, &workload.Trace{}); err == nil {
		t.Fatal("expected error for empty fleet")
	}
	cfg := fleetCfg(nil, 2)
	if _, err := Run(cfg, &workload.Trace{}); err == nil {
		t.Fatal("expected error for missing policy")
	}
	cfg = fleetCfg(RoundRobin, 1)
	cfg.Replicas[0].Factory = nil
	if _, err := Run(cfg, &workload.Trace{}); err == nil {
		t.Fatal("expected error for nil factory")
	}
}

func TestRoundRobinSpread(t *testing.T) {
	tr := mixedTrace(7, 20, 0.12)
	res, err := Run(fleetCfg(RoundRobin, 4), tr)
	if err != nil {
		t.Fatal(err)
	}
	total, minA, maxA := 0, tr.Len(), 0
	for _, rep := range res.Replicas {
		total += rep.Requests
		minA = min(minA, rep.Requests)
		maxA = max(maxA, rep.Requests)
	}
	if total != tr.Len() {
		t.Fatalf("routed %d of %d requests", total, tr.Len())
	}
	if maxA-minA > 1 {
		t.Fatalf("round-robin spread uneven: min %d max %d", minA, maxA)
	}
}

func TestLeastTokensBalancesLoad(t *testing.T) {
	tr := mixedTrace(11, 20, 0.12)
	res, err := Run(fleetCfg(LeastTokens, 4), tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range res.Replicas {
		if rep.Requests == 0 {
			t.Fatalf("least-tokens left replica %s idle", rep.Name)
		}
	}
	if res.Summary.Finished != res.Summary.Requests {
		t.Fatalf("finished %d of %d", res.Summary.Finished, res.Summary.Requests)
	}
}

func TestRouterDeterminism(t *testing.T) {
	tr1 := mixedTrace(3, 15, 0.1)
	tr2 := mixedTrace(3, 15, 0.1)
	for name, policy := range Policies() {
		a, err := Run(fleetCfg(policy, 3), tr1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(fleetCfg(policy, 3), tr2)
		if err != nil {
			t.Fatal(err)
		}
		if a.Summary.TTFT != b.Summary.TTFT || a.Summary.TBT != b.Summary.TBT {
			t.Fatalf("%s: non-deterministic summary", name)
		}
		for i := range a.Replicas {
			if a.Replicas[i].Requests != b.Replicas[i].Requests {
				t.Fatalf("%s: non-deterministic routing on %s: %d vs %d",
					name, a.Replicas[i].Name, a.Replicas[i].Requests, b.Replicas[i].Requests)
			}
		}
	}
}

// TestAffinityBeatsRoundRobin is the headline fleet experiment: on the
// same mixed multi-turn trace, session affinity must produce a different
// deterministic outcome than round-robin and win on cache-hit rate.
func TestAffinityBeatsRoundRobin(t *testing.T) {
	mk := func() *workload.Trace { return mixedTrace(5, 25, 0.15) }
	rr, err := Run(fleetCfg(RoundRobin, 4), mk())
	if err != nil {
		t.Fatal(err)
	}
	aff, err := Run(fleetCfg(PrefixAffinity, 4), mk())
	if err != nil {
		t.Fatal(err)
	}
	if rr.CacheHit >= aff.CacheHit {
		t.Fatalf("prefix affinity cache hit %.3f should beat round-robin %.3f",
			aff.CacheHit, rr.CacheHit)
	}
	same := true
	for i := range rr.Replicas {
		if rr.Replicas[i].Requests != aff.Replicas[i].Requests {
			same = false
		}
	}
	if same && rr.Summary.TTFT == aff.Summary.TTFT {
		t.Fatal("policies produced identical routing and latency")
	}
}

func TestSessionStickiness(t *testing.T) {
	tr := mixedTrace(9, 25, 0.15)
	res, err := Run(fleetCfg(PrefixAffinity, 4), tr)
	if err != nil {
		t.Fatal(err)
	}
	where := replicaOf(res)
	perSession := map[int]map[string]bool{}
	for _, r := range tr.Requests {
		if perSession[r.Session] == nil {
			perSession[r.Session] = map[string]bool{}
		}
		perSession[r.Session][where[r.ID]] = true
	}
	sticky, multi := 0, 0
	for _, reps := range perSession {
		if len(reps) == 1 {
			sticky++
		} else {
			multi++
		}
	}
	if sticky < 4*(sticky+multi)/5 {
		t.Fatalf("only %d/%d sessions stayed on one replica", sticky, sticky+multi)
	}
}

// pdPages builds a page stream like the workload generator's.
// withSegs gives a hand-built request the segments of its AllPages.
func withSegs(r *workload.Request) *workload.Request {
	r.Segments = workload.PageSegments(r.AllPages)
	return r
}

func pdPages(stream uint64, tokens int) []kvcache.PageID {
	n := kvcache.PageCount(tokens, workload.PageTokens)
	out := make([]kvcache.PageID, n)
	for i := range out {
		out[i] = kvcache.PageID(stream<<20 | uint64(i))
	}
	return out
}

// pdTrace crafts cold long-prefill singletons plus short multi-turn
// sessions, with page streams like the workload generator's.
func pdTrace() *workload.Trace {
	tr := &workload.Trace{Name: "pd-synthetic"}
	id := 0
	mkPages := pdPages
	at := sim.Time(0)
	for s := 0; s < 8; s++ {
		// Long cold request: must take the split path.
		long := withSegs(&workload.Request{
			ID: id, Session: s, Arrival: at,
			InputTokens: 9000, OutputTokens: 64,
			Pages:    mkPages(uint64(s), 9000),
			AllPages: mkPages(uint64(s), 9064),
		})
		id++
		at += 2 * sim.Second
		// Short session: two turns on the aggregated path.
		first := withSegs(&workload.Request{
			ID: id, Session: 100 + s, Turn: 0, Arrival: at,
			InputTokens: 600, OutputTokens: 128,
			Pages:    mkPages(uint64(100+s), 600),
			AllPages: mkPages(uint64(100+s), 728),
		})
		id++
		at += 2 * sim.Second
		second := withSegs(&workload.Request{
			ID: id, Session: 100 + s, Turn: 1, Arrival: at,
			InputTokens: 1000, ReusedTokens: 728, OutputTokens: 128,
			Pages:    mkPages(uint64(100+s), 1000),
			AllPages: mkPages(uint64(100+s), 1128),
		})
		id++
		at += 2 * sim.Second
		tr.Requests = append(tr.Requests, long, first, second)
	}
	return tr
}

func TestPDSplitRouting(t *testing.T) {
	cfg := Config{
		Base: serve.Config{
			Spec: gpu.A100(), GPUs: 1, Arch: model.Llama8B(),
			SLO: metrics.SLO{TTFT: sim.Second, TBT: 50 * sim.Millisecond},
		},
		Replicas: []ReplicaSpec{
			{Engine: "MuxWise", Factory: core.New, Count: 2},
			{Engine: "SGLang-PD", Factory: pdsep.New, Count: 1, GPUs: 2, Role: RolePrefill},
		},
		Policy: func() Router { return PDSplit(4096) },
	}
	tr := pdTrace()
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	prefillReps := map[string]bool{}
	for _, rep := range res.Replicas {
		if rep.Role == RolePrefill {
			prefillReps[rep.Name] = true
		}
	}
	where := replicaOf(res)
	for _, r := range tr.Requests {
		coldLong := r.Turn == 0 && r.InputTokens >= 4096
		if coldLong && !prefillReps[where[r.ID]] {
			t.Fatalf("long request %d landed on %s, want a prefill replica", r.ID, where[r.ID])
		}
		if !coldLong && prefillReps[where[r.ID]] {
			t.Fatalf("short request %d landed on prefill replica %s", r.ID, where[r.ID])
		}
	}
	// Follow-up turns stay sticky to the replica holding their session KV.
	for _, r := range tr.Requests {
		if r.Turn != 1 {
			continue
		}
		for _, first := range tr.Requests {
			if first.Session == r.Session && first.Turn == 0 {
				if where[r.ID] != where[first.ID] {
					t.Fatalf("session %d moved from %s to %s", r.Session, where[first.ID], where[r.ID])
				}
			}
		}
	}
}

// bareFleet builds replicas with no engines — router Pick only reads
// load counters, so policies can be unit-tested without simulation.
func bareFleet(roles ...Role) []*Replica {
	fleet := make([]*Replica, len(roles))
	for i, role := range roles {
		fleet[i] = &Replica{ID: i, Name: fmt.Sprintf("rep-%d", i), Role: role}
	}
	return fleet
}

// view wraps a bare fleet in the read-only context Pick receives.
func view(fleet []*Replica) FleetView { return FleetView{Candidates: fleet} }

func TestAffinityDivertsOffOverloadedReplica(t *testing.T) {
	fleet := bareFleet(RoleGeneral, RoleGeneral, RoleGeneral)
	router := PrefixAffinity()
	turn := func(n int) *workload.Request {
		return withSegs(&workload.Request{ID: n, Session: 7, Turn: n,
			InputTokens: 1000, OutputTokens: 100,
			Pages: pdPages(42, 1000), AllPages: pdPages(42, 1100)})
	}
	home := router.Pick(turn(0), view(fleet))
	if router.Pick(turn(1), view(fleet)) != home {
		t.Fatal("session should stay sticky while the replica is healthy")
	}
	// Overload the home replica: the next turn must divert even though
	// only the home replica has the session's pages indexed.
	home.outTokens = 1 << 20
	if got := router.Pick(turn(2), view(fleet)); got == home {
		t.Fatal("overloaded sticky replica must not win on its own cached pages")
	}
}

func TestPDSplitSessionsFollowTheirKV(t *testing.T) {
	fleet := bareFleet(RoleGeneral, RoleGeneral, RolePrefill)
	router := PDSplit(4096)
	turn := func(n, input, reused int) *workload.Request {
		return withSegs(&workload.Request{ID: n, Session: 3, Turn: n,
			InputTokens: input, ReusedTokens: reused, OutputTokens: 64,
			Pages: pdPages(9, input), AllPages: pdPages(9, input+64)})
	}
	home := router.Pick(turn(0, 9000, 0), view(fleet))
	if home.Role != RolePrefill {
		t.Fatalf("long cold prefill routed to %s, want the prefill replica", home.Name)
	}
	// The follow-up turn's KV lives on the prefill replica; a healthy
	// holder keeps its session (no KV migration in the fleet model).
	if got := router.Pick(turn(1, 9500, 9064), view(fleet)); got != home {
		t.Fatalf("healthy session moved off its KV holder to %s", got.Name)
	}
	// Once the holder is overloaded, a short diverted turn is a cold
	// short prefill: it must join the aggregated pool, not the holder.
	home.outTokens = 1 << 20
	got := router.Pick(turn(2, 1000, 0), view(fleet))
	if got == home || got.Role == RolePrefill {
		t.Fatalf("diverted short turn routed to %s, want an aggregated replica", got.Name)
	}
}

func TestPDSplitDivertWidensPastHotPool(t *testing.T) {
	// The aggregated pool is a single replica: once it overloads, the
	// divert must shed load to the idle prefill replicas rather than
	// re-pinning the session to the hot one.
	fleet := bareFleet(RoleGeneral, RolePrefill, RolePrefill)
	router := PDSplit(4096)
	turn := func(n int) *workload.Request {
		return withSegs(&workload.Request{ID: n, Session: 5, Turn: n,
			InputTokens: 800, OutputTokens: 64,
			Pages: pdPages(5, 800), AllPages: pdPages(5, 864)})
	}
	home := router.Pick(turn(0), view(fleet))
	if home.Role != RoleGeneral {
		t.Fatalf("cold short request routed to %s, want the aggregated replica", home.Name)
	}
	home.outTokens = 1 << 20
	if got := router.Pick(turn(1), view(fleet)); got == home {
		t.Fatal("divert re-pinned the session to the overloaded replica")
	}
}

// TestClusterSweepAndGoodput drives the serve sweep machinery with a
// probe over cluster.Run, judging each rate on the merged fleet view.
func TestClusterSweepAndGoodput(t *testing.T) {
	mk := func(rate float64) *workload.Trace {
		return workload.ShareGPT(21, 40).WithPoissonArrivals(21, rate)
	}
	cfg := fleetCfg(LeastTokens, 2)
	probe := func(rate float64) serve.RatePoint {
		res, err := Run(cfg, mk(rate))
		if err != nil {
			t.Errorf("rate %v: %v", rate, err)
			return serve.RatePoint{}
		}
		return serve.RatePoint{
			Rate:       rate,
			Attainment: res.Rec.TBTAttainment(cfg.Base.SLO.TBT),
			P99TTFT:    res.Summary.TTFT.P99,
			P99TBT:     res.Summary.TBT.P99,
			Unstable:   res.Summary.Unstable,
			TokensPerS: res.Summary.TokensPerSecond,
			Util:       res.MeanUtil(),
		}
	}
	pts := serve.SweepBy(probe, []float64{0.5, 1})
	if len(pts) == 0 || pts[0].Rate != 0.5 {
		t.Fatalf("sweep points wrong: %+v", pts)
	}
	g, feasible := serve.GoodputBy(probe, 0.25, 1)
	if !feasible || g <= 0 {
		t.Fatalf("two-replica fleet should sustain the floor rate, got %v (feasible=%v)", g, feasible)
	}
	if g2, _ := serve.GoodputBy(probe, 0.25, 1); g != g2 {
		t.Fatalf("goodput not deterministic: %v vs %v", g, g2)
	}
}

func TestMergedSummaryCountsFleetWide(t *testing.T) {
	tr := mixedTrace(13, 10, 0.1)
	res, err := Run(fleetCfg(RoundRobin, 3), tr)
	if err != nil {
		t.Fatal(err)
	}
	perReplica := 0
	for _, rep := range res.Replicas {
		perReplica += rep.Result.Summary.Requests
	}
	if res.Summary.Requests != perReplica || res.Summary.Requests != tr.Len() {
		t.Fatalf("merged requests %d, per-replica sum %d, trace %d",
			res.Summary.Requests, perReplica, tr.Len())
	}
}
