package cluster

import (
	"testing"

	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// coldReq builds a cold single-turn request with a distinct session, so
// stickiness never masks the scoring decision under test.
func coldReq(n int) *workload.Request {
	return withSegs(&workload.Request{ID: n, Session: 1000 + n,
		InputTokens: 800, OutputTokens: 64,
		Pages: pdPages(uint64(200+n), 800), AllPages: pdPages(uint64(200+n), 864)})
}

// observer extracts the TTFT-learning seam from a router; the adaptive
// composition exposes it through the pipeline's observer fan-out.
func observer(t *testing.T, r Router) TTFTObserver {
	t.Helper()
	obs, ok := r.(TTFTObserver)
	if !ok {
		t.Fatalf("%s does not implement TTFTObserver", r.Name())
	}
	return obs
}

func TestAdaptiveTTFTFollowsObservedLatency(t *testing.T) {
	fleet := bareFleet(RoleGeneral, RoleGeneral)
	r := AdaptiveTTFT()
	obs := observer(t, r)

	// Replica 0 has been slow, replica 1 fast: cold traffic must go to 1.
	for i := 0; i < 5; i++ {
		obs.ObserveTTFT(0, 2*sim.Second)
		obs.ObserveTTFT(1, 50*sim.Millisecond)
	}
	if got := r.Pick(coldReq(0), view(fleet)); got != fleet[1] {
		t.Fatalf("cold request routed to %s, want the learned-fast replica", got.Name)
	}

	// The fast replica's advantage shrinks as its queue grows: pile
	// enough outstanding work on it and the slow-but-idle replica wins.
	fleet[1].outTokens = 1 << 20
	if got := r.Pick(coldReq(1), view(fleet)); got != fleet[0] {
		t.Fatal("load inflation should overcome a stale fast EWMA")
	}
}

func TestAdaptiveTTFTExploresUnseenReplicas(t *testing.T) {
	fleet := bareFleet(RoleGeneral, RoleGeneral)
	r := AdaptiveTTFT()
	// Only replica 0 has ever been observed, and it was fast — but the
	// never-observed replica 1 scores at the floor and must be explored.
	observer(t, r).ObserveTTFT(0, 100*sim.Millisecond)
	if got := r.Pick(coldReq(0), view(fleet)); got != fleet[1] {
		t.Fatal("unseen replica should be explored before trusting the ranking")
	}
}

func TestAdaptiveTTFTEmptyFleet(t *testing.T) {
	r := AdaptiveTTFT()
	// A direct Pick on an empty candidate set must return nil, not panic
	// — the cluster queues arrivals in that state, but the plugin seam
	// does not promise callers a non-empty view.
	if got := r.Pick(coldReq(0), view(nil)); got != nil {
		t.Fatalf("empty fleet picked %v, want nil", got)
	}
	// The nil pick must not have pinned the session to anything: the
	// next pick with a live fleet routes normally.
	fleet := bareFleet(RoleGeneral)
	if got := r.Pick(coldReq(0), view(fleet)); got != fleet[0] {
		t.Fatal("pick after an empty-fleet miss should route to the live replica")
	}
}

func TestAdaptiveTTFTAllDrainingCandidates(t *testing.T) {
	// The cluster only offers StateReady candidates, but a policy must
	// tolerate any candidate set handed through the seam — e.g. a
	// harness replaying a drain storm. Every pick must land inside the
	// given set without panicking.
	fleet := bareFleet(RoleGeneral, RoleGeneral)
	for _, rep := range fleet {
		rep.State = StateDraining
	}
	r := AdaptiveTTFT()
	got := r.Pick(coldReq(0), view(fleet))
	if got != fleet[0] && got != fleet[1] {
		t.Fatalf("pick returned %v, want a candidate", got)
	}
}

func TestAdaptiveTTFTSingleColdReplica(t *testing.T) {
	// One never-observed replica: the EWMA state is empty, outstanding
	// load is zero, and the pick must still land — the floor keeps the
	// prediction positive and finite with no observations at all.
	fleet := bareFleet(RoleGeneral)
	r := AdaptiveTTFT()
	if got := r.Pick(coldReq(0), view(fleet)); got != fleet[0] {
		t.Fatal("single cold replica must win its own fleet")
	}
	// A zero-TTFT observation (first token at arrival) seeds the EWMA at
	// zero; the floor must keep the prediction positive and the pick
	// stable.
	observer(t, r).ObserveTTFT(0, 0)
	if got := r.Pick(coldReq(1), view(fleet)); got != fleet[0] {
		t.Fatal("zero-seeded EWMA must not unroute the only replica")
	}
}

func TestAdaptiveTTFTSticksAndObservesDown(t *testing.T) {
	fleet := bareFleet(RoleGeneral, RoleGeneral, RoleGeneral)
	r := AdaptiveTTFT()
	obs := observer(t, r)
	turn := func(n int) *workload.Request {
		return withSegs(&workload.Request{ID: n, Session: 7, Turn: n,
			InputTokens: 1000, OutputTokens: 100,
			Pages: pdPages(42, 1000), AllPages: pdPages(42, 1100)})
	}
	home := r.Pick(turn(0), view(fleet))
	if r.Pick(turn(1), view(fleet)) != home {
		t.Fatal("session should stay sticky while the replica is healthy")
	}
	// Make the home replica's learned latency terrible: stickiness must
	// still hold — only overload breaks affinity, not a bad EWMA.
	obs.ObserveTTFT(home.ID, 30*sim.Second)
	if r.Pick(turn(2), view(fleet)) != home {
		t.Fatal("a slow EWMA alone must not move a healthy session")
	}
	// Overloading the holder diverts the session off it.
	home.outTokens = 1 << 20
	if got := r.Pick(turn(3), view(fleet)); got == home {
		t.Fatal("overloaded sticky replica must shed the session")
	}
	// ReplicaDown forgets both the sessions and the learned latency:
	// after the crash, a fresh cold request sees the (revived) ID as
	// never-observed again — the terrible EWMA must not linger.
	home.outTokens = 0
	r.(FleetObserver).ReplicaDown(home.ID)
	if got := r.Pick(coldReq(90), view(fleet)); got != fleet[0] {
		t.Fatalf("forgotten EWMA should leave all replicas at the floor (lowest ID wins), got %s", got.Name)
	}
}
