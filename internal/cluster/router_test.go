package cluster

// Regression tests for the three router bugs fixed by the pipeline
// refactor: round-robin panicked with a mod-by-zero on an empty
// candidate view, prefix-affinity nil-dereferenced when its scorer saw
// no candidates, and a positional round-robin cursor skewed across
// fleet resizes. Placements on full traces are pinned separately by
// TestPlacementDigests (testdata/placements.json).

import (
	"slices"
	"testing"

	"muxwise/internal/workload"
)

// TestPoliciesSurviveEmptyView is the satellite table test: every
// registered policy must return nil — not panic — on an empty candidate
// view, leave no state behind (the nil pick must not pin the session),
// and still route normally on the next live view. Single-candidate
// views must always pick that candidate. Parity with PR 4's
// adaptive-ttft empty-fleet guard, now guaranteed centrally by
// Pipeline.Pick.
func TestPoliciesSurviveEmptyView(t *testing.T) {
	req := func(n int) *workload.Request {
		return withSegs(&workload.Request{ID: n, Session: 5, Turn: n,
			InputTokens: 6000, OutputTokens: 64,
			Pages: pdPages(9, 6000), AllPages: pdPages(9, 6064)})
	}
	for _, name := range PolicyNames() {
		r := Policies()[name]()
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%s: Pick panicked on empty view: %v", name, p)
				}
			}()
			if got := r.Pick(req(0), view(nil)); got != nil {
				t.Fatalf("%s: empty view picked %v, want nil", name, got)
			}
			if got := r.Pick(req(1), view([]*Replica{})); got != nil {
				t.Fatalf("%s: empty non-nil view picked %v, want nil", name, got)
			}
		}()
		// The empty-view miss must not have pinned session state: the
		// same session now routes onto the single live replica.
		single := bareFleet(RoleGeneral)
		for i := 2; i < 5; i++ {
			if got := r.Pick(req(i), view(single)); got != single[0] {
				t.Fatalf("%s: single-candidate view picked %v, want the only replica", name, got)
			}
		}
		// And the view can empty again mid-run (drain storm) without
		// upsetting the now-populated affinity/EWMA state.
		if got := r.Pick(req(5), view(nil)); got != nil {
			t.Fatalf("%s: empty view after live picks picked %v, want nil", name, got)
		}
		if got := r.Pick(req(6), view(single)); got != single[0] {
			t.Fatalf("%s: recovery pick after drain storm went to %v", name, got)
		}
	}
}

// pickSeq routes n sequential single-turn requests and returns the
// replica IDs picked, in order.
func pickSeq(r Router, fleet []*Replica, from, n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		rep := r.Pick(coldReq(from+i), view(fleet))
		out = append(out, rep.ID)
	}
	return out
}

// TestRoundRobinFairAcrossResize is the cursor-skew regression test:
// with the positional cursor (next % len against a changing length) a
// spawn shifts every later pick one slot back — serving the same
// replica twice in a row across the boundary — and a drain double-
// serves an early replica while the newest one starves. The ring-order
// picker keys the cursor to the stable replica ID instead.
func TestRoundRobinFairAcrossResize(t *testing.T) {
	r := RoundRobin()
	fleet := bareFleet(RoleGeneral, RoleGeneral, RoleGeneral)

	// Static prefix: identical to the historical sequence 0,1,2,0,1...
	if got := pickSeq(r, fleet, 0, 5); !slices.Equal(got, []int{0, 1, 2, 0, 1}) {
		t.Fatalf("static fleet sequence %v, want 0 1 2 0 1", got)
	}

	// Spawn replica 3 mid-cycle (the cursor just served ID 1). A
	// positional cursor (next=5) would compute 5%4 and serve ID 1
	// again, back to back; the ring continues to ID 2.
	grown := append(fleet, &Replica{ID: 3, Name: "rep-3", Role: RoleGeneral})
	got := pickSeq(r, grown, 10, 8)
	if got[0] == 1 {
		t.Fatalf("pick after spawn repeated replica 1 back to back (positional cursor skew): %v", got)
	}
	if want := []int{2, 3, 0, 1, 2, 3, 0, 1}; !slices.Equal(got, want) {
		t.Fatalf("post-spawn ring sequence %v, want %v", got, want)
	}

	// Drain replica 1 mid-cycle: the ring just served ID 1, so the next
	// pick must be ID 2 — a positional cursor lands back on an
	// already-served replica while ID 3's share shrinks.
	shrunk := []*Replica{grown[0], grown[2], grown[3]} // IDs 0, 2, 3
	got = pickSeq(r, shrunk, 20, 6)
	if want := []int{2, 3, 0, 2, 3, 0}; !slices.Equal(got, want) {
		t.Fatalf("post-drain ring sequence %v, want %v", got, want)
	}

	// Over any full post-resize window the spread stays perfectly even.
	counts := map[int]int{}
	for _, id := range got {
		counts[id]++
	}
	for _, rep := range shrunk {
		if counts[rep.ID] != 2 {
			t.Fatalf("post-drain spread uneven: %v", counts)
		}
	}
}

// TestPoliciesObserveTheFleet: the cluster finds a router's observers
// by type assertion, so a policy that stopped implementing one would
// silently lose replica-down, TTFT or migration feedback. Every
// built-in and an epp: composition must implement all three.
func TestPoliciesObserveTheFleet(t *testing.T) {
	policies := builtinPolicies()
	composed, err := ParseComposition("epp:filters=sticky;scorers=prefix,ttft-ewma")
	if err != nil {
		t.Fatal(err)
	}
	policies["composed"] = composed
	for name, p := range policies {
		r := p()
		if _, ok := r.(FleetObserver); !ok {
			t.Errorf("%s does not implement FleetObserver", name)
		}
		if _, ok := r.(TTFTObserver); !ok {
			t.Errorf("%s does not implement TTFTObserver", name)
		}
		if _, ok := r.(MigrationObserver); !ok {
			t.Errorf("%s does not implement MigrationObserver", name)
		}
	}
}
