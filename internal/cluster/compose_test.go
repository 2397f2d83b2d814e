package cluster

import (
	"math"
	"strings"
	"testing"

	"muxwise/internal/workload"
)

func TestParseCompositionRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"least-tokens",                      // missing prefix
		"epp:",                              // empty composition
		"epp:scorers",                       // clause without =
		"epp:profiles=two",                  // unknown clause
		"epp:filters=healthy",               // unknown filter
		"epp:filters=role:tpu",              // unknown role
		"epp:filters=role:",                 // empty role list
		"epp:scorers=goodput",               // unknown scorer
		"epp:scorers=prefix:0",              // weight must be positive
		"epp:scorers=prefix:-2",             // negative weight
		"epp:scorers=prefix:fast",           // non-numeric weight
		"epp:picker=random",                 // unknown picker
		"epp:scorers=least-tokens;picker=x", // valid clause then bad one
	} {
		if _, err := ParseComposition(spec); err == nil {
			t.Errorf("ParseComposition(%q) accepted a bad spec", spec)
		}
	}
}

// Non-finite weights would turn every weighted score into NaN, so
// max-score would route every request to the first candidate.
func TestParseCompositionRejectsNonFiniteWeights(t *testing.T) {
	for _, w := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "1e999"} {
		spec := "epp:scorers=least-tokens:" + w
		if _, err := ParseComposition(spec); err == nil {
			t.Errorf("ParseComposition(%q) accepted a non-finite weight", spec)
		}
	}
}

// FuzzParseComposition feeds arbitrary specs to the parser. A spec must
// either fail to parse or yield only positive finite weights and a
// router that honors the empty-view and singleton-view contracts. The
// committed corpus under testdata/fuzz/FuzzParseComposition replays on
// every go test run.
func FuzzParseComposition(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := parsePlan(spec)
		if err != nil {
			return
		}
		for _, s := range plan.scorers {
			if !(s.weight > 0) || math.IsInf(s.weight, 0) {
				t.Fatalf("%q: accepted weight %v for %s", spec, s.weight, s.name)
			}
		}
		r := plan.policy()()
		if r.Name() != spec {
			t.Fatalf("composed router named %q, want the spec %q", r.Name(), spec)
		}
		if got := r.Pick(coldReq(0), view(nil)); got != nil {
			t.Fatalf("%q: empty view picked %v", spec, got)
		}
		single := bareFleet(RoleGeneral)
		if got := r.Pick(coldReq(1), view(single)); got != nil && got != single[0] {
			t.Fatalf("%q: singleton view picked %v", spec, got)
		}
	})
}

func TestParseCompositionAcceptsGrammar(t *testing.T) {
	for _, spec := range []string{
		"epp:scorers=least-tokens",
		"epp:scorers=prefix:2,least-tokens:1",
		"epp:scorers=prefix:2.5,session,ttft-ewma:0.25,least-requests",
		"epp:filters=role:prefill|decode,sticky,divert-widen;scorers=least-tokens",
		"epp:picker=round-robin",
		"epp: filters=sticky ; scorers= prefix , least-tokens ",
	} {
		p, err := ParseComposition(spec)
		if err != nil {
			t.Fatalf("ParseComposition(%q): %v", spec, err)
		}
		r := p()
		if r.Name() != spec {
			t.Fatalf("composed router named %q, want the spec %q", r.Name(), spec)
		}
		// Every composition honors the empty-view contract and lands on
		// the only candidate of a singleton view.
		if got := r.Pick(coldReq(0), view(nil)); got != nil {
			t.Fatalf("%q: empty view picked %v", spec, got)
		}
		single := bareFleet(RoleGeneral)
		if got := r.Pick(coldReq(1), view(single)); got != single[0] {
			t.Fatalf("%q: singleton view picked %v", spec, got)
		}
	}
}

func TestComposedPrefixWeightBeatsLoad(t *testing.T) {
	p, err := ParseComposition("epp:scorers=prefix:2,least-tokens:1")
	if err != nil {
		t.Fatal(err)
	}
	r := p()
	fleet := bareFleet(RoleGeneral, RoleGeneral)

	// Route a warm-up onto replica 1 (replica 0 is busy); the pick
	// records its pages in replica 1's prefix index.
	fleet[0].outTokens = 100
	warm := &workload.Request{ID: 0, Session: 50, InputTokens: 800, OutputTokens: 64,
		Pages: pdPages(9, 800), AllPages: pdPages(9, 864)}
	if got := r.Pick(warm, view(fleet)); got != fleet[1] {
		t.Fatalf("warm-up routed to %s, want the idle replica", got.Name)
	}

	// A different session sharing the prefix must ride the cache even
	// though replica 1 now carries slightly more load — the weighted
	// blend is 2*match - outstanding, not a lexicographic tie-break.
	fleet[0].outTokens = 5
	fleet[1].outTokens = 6
	probe := &workload.Request{ID: 1, Session: 51, InputTokens: 800, OutputTokens: 64,
		Pages: pdPages(9, 800), AllPages: pdPages(9, 864)}
	if got := r.Pick(probe, view(fleet)); got != fleet[1] {
		t.Fatal("weighted prefix score should outweigh a small load gap")
	}
}

func TestComposedRoundRobinPicker(t *testing.T) {
	p, err := ParseComposition("epp:picker=round-robin")
	if err != nil {
		t.Fatal(err)
	}
	r := p()
	fleet := bareFleet(RoleGeneral, RoleGeneral, RoleGeneral)
	for i, want := range []int{0, 1, 2, 0} {
		if got := r.Pick(coldReq(i), view(fleet)); got.ID != want {
			t.Fatalf("pick %d went to %d, want %d", i, got.ID, want)
		}
	}
}

func TestComposedRoleFilterNarrowsThePool(t *testing.T) {
	p, err := ParseComposition("epp:filters=role:prefill|decode;scorers=least-tokens")
	if err != nil {
		t.Fatal(err)
	}
	r := p()
	fleet := bareFleet(RoleGeneral, RolePrefill, RoleDecode)
	fleet[0].outTokens = 0 // idle, but filtered out by role
	fleet[1].outTokens = 10
	fleet[2].outTokens = 20
	if got := r.Pick(coldReq(0), view(fleet)); got != fleet[1] {
		t.Fatalf("picked %s, want the least-loaded prefill/decode replica", got.Name)
	}
}

func TestComposedStickyFilterPinsSessions(t *testing.T) {
	p, err := ParseComposition("epp:filters=sticky;scorers=least-tokens")
	if err != nil {
		t.Fatal(err)
	}
	r := p()
	fleet := bareFleet(RoleGeneral, RoleGeneral)
	turn := func(n int) *workload.Request {
		return &workload.Request{ID: n, Session: 7, Turn: n,
			InputTokens: 1000, OutputTokens: 100,
			Pages: pdPages(42, 1000), AllPages: pdPages(42, 1100)}
	}
	fleet[0].outTokens = 100
	home := r.Pick(turn(0), view(fleet))
	if home != fleet[1] {
		t.Fatalf("first turn routed to %s, want the idle replica", home.Name)
	}
	// Load shifts the other way, but the pin holds (the single-profile
	// composition has no overload classifier — stickiness is absolute).
	fleet[0].outTokens = 0
	fleet[1].outTokens = 100
	if r.Pick(turn(1), view(fleet)) != home {
		t.Fatal("sticky composition should hold the session on its home replica")
	}
}

func TestComposedPolicyBuildsFreshStatePerRouter(t *testing.T) {
	p, err := ParseComposition("epp:filters=sticky;scorers=least-tokens")
	if err != nil {
		t.Fatal(err)
	}
	fleet := bareFleet(RoleGeneral, RoleGeneral)
	turn := func(n int) *workload.Request {
		return &workload.Request{ID: n, Session: 3, Turn: n,
			InputTokens: 500, OutputTokens: 50,
			Pages: pdPages(8, 500), AllPages: pdPages(8, 550)}
	}
	fleet[0].outTokens = 100
	first := p()
	if got := first.Pick(turn(0), view(fleet)); got != fleet[1] {
		t.Fatalf("first router pinned session to %s, want rep-1", got.Name)
	}
	// A second router from the same policy must not inherit the pin:
	// with the load reversed, the same session routes to replica 0.
	fleet[0].outTokens = 0
	fleet[1].outTokens = 100
	second := p()
	if picked := second.Pick(turn(1), view(fleet)); picked != fleet[0] {
		t.Fatal("second router inherited session state from the first")
	}
}

func TestResolvePolicySelectsNamesAndSpecs(t *testing.T) {
	if _, err := ResolvePolicy(LeastTokensPolicy); err != nil {
		t.Fatalf("registered name failed to resolve: %v", err)
	}
	if _, err := ResolvePolicy("epp:scorers=prefix:2,least-tokens:1"); err != nil {
		t.Fatalf("inline spec failed to resolve: %v", err)
	}
	if _, err := ResolvePolicy("epp:scorers=goodput"); err == nil {
		t.Fatal("bad inline spec resolved without error")
	}
	_, err := ResolvePolicy("no-such-router")
	if err == nil {
		t.Fatal("unknown name resolved without error")
	}
	if !strings.Contains(err.Error(), CompositionPrefix) {
		t.Fatalf("unknown-name error should mention composition specs: %v", err)
	}
}

// TestComposedRouterRunsDeterministically replays the same trace twice
// through a full cluster run behind an inline spec: composed pipelines
// must be as replayable as the built-ins.
func TestComposedRouterRunsDeterministically(t *testing.T) {
	p, err := ParseComposition("epp:filters=sticky;scorers=prefix,least-tokens")
	if err != nil {
		t.Fatal(err)
	}
	cfg := roleCfg(p)
	a, err := Run(cfg, mixedTrace(37, 24, 0.14))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, mixedTrace(37, 24, 0.14))
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "composed", a, b)
}
