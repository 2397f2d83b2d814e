package muxwise_test

import (
	"slices"
	"sync"
	"testing"

	"muxwise"
)

// leastInFlight is a minimal custom router for registry tests.
type leastInFlight struct{}

func (leastInFlight) Name() string { return "test-least-in-flight" }

func (leastInFlight) Pick(r *muxwise.Request, view muxwise.FleetView) *muxwise.FleetReplica {
	best := view.Candidates[0]
	for _, rep := range view.Candidates[1:] {
		if rep.InFlight() < best.InFlight() {
			best = rep
		}
	}
	return best
}

// holdScaler is a minimal custom autoscaler for registry tests.
type holdScaler struct{}

func (holdScaler) Name() string                       { return "test-hold" }
func (holdScaler) Decide(s muxwise.FleetSnapshot) int { return 0 }

// registryTestSetup registers the test policies exactly once: the
// registry is process-global and rejects duplicates, so repeated
// in-process runs (go test -count=2) must not re-register.
var (
	registryTestSetup                  sync.Once
	testRouterRegErr, testScalerRegErr error
)

func registerTestPolicies() {
	registryTestSetup.Do(func() {
		testRouterRegErr = muxwise.RegisterRouter("test-least-in-flight",
			func() muxwise.Router { return leastInFlight{} })
		testScalerRegErr = muxwise.RegisterAutoscaler("test-hold",
			func() muxwise.Autoscaler { return holdScaler{} })
	})
}

// TestRegistriesMatchPolicies checks the advertised policy lists against
// what deployments actually accept — including names registered at
// runtime — in both directions.
func TestRegistriesMatchPolicies(t *testing.T) {
	registerTestPolicies()
	if testRouterRegErr != nil {
		t.Fatalf("RegisterRouter: %v", testRouterRegErr)
	}
	if testScalerRegErr != nil {
		t.Fatalf("RegisterAutoscaler: %v", testScalerRegErr)
	}

	routers := muxwise.RouterPolicies()
	if !slices.IsSorted(routers) {
		t.Errorf("RouterPolicies() not sorted: %v", routers)
	}
	for _, want := range []string{"adaptive-ttft", "least-tokens", "pd-split",
		"prefix-affinity", "round-robin", "test-least-in-flight"} {
		if !slices.Contains(routers, want) {
			t.Errorf("RouterPolicies() = %v, missing %q", routers, want)
		}
	}
	scalers := muxwise.AutoscalerPolicies()
	for _, want := range []string{"backlog", "ttft", "test-hold"} {
		if !slices.Contains(scalers, want) {
			t.Errorf("AutoscalerPolicies() = %v, missing %q", scalers, want)
		}
	}

	// Every advertised name must be accepted end to end, and nothing else.
	tr := muxwise.ShareGPT(1, 5).WithPoissonArrivals(1, 1)
	for _, name := range routers {
		if _, err := fleet(name).Run(tr); err != nil {
			t.Errorf("advertised router %q rejected: %v", name, err)
		}
	}
	if _, err := fleet("not-a-router").Run(tr); err == nil {
		t.Error("unadvertised router accepted")
	}
	for _, name := range scalers {
		if _, err := fleet("round-robin", muxwise.WithAutoscaler(name)).Run(tr); err != nil {
			t.Errorf("advertised autoscaler %q rejected: %v", name, err)
		}
	}
	if _, err := fleet("round-robin", muxwise.WithAutoscaler("not-a-scaler")).Run(tr); err == nil {
		t.Error("unadvertised autoscaler accepted")
	}
}

// dupTestSetup seeds the duplicate-registration probes once per
// process (see registryTestSetup).
var (
	dupTestSetup               sync.Once
	dupRouterErr, dupScalerErr error
)

func TestRegisterRejectsDuplicatesAndNils(t *testing.T) {
	mkRouter := func() muxwise.Router { return leastInFlight{} }
	mkScaler := func() muxwise.Autoscaler { return holdScaler{} }
	dupTestSetup.Do(func() {
		dupRouterErr = muxwise.RegisterRouter("test-dup-router", mkRouter)
		dupScalerErr = muxwise.RegisterAutoscaler("test-dup-scaler", mkScaler)
	})

	if dupRouterErr != nil {
		t.Fatalf("first registration failed: %v", dupRouterErr)
	}
	if err := muxwise.RegisterRouter("test-dup-router", mkRouter); err == nil {
		t.Error("duplicate router registration should fail loudly")
	}
	if err := muxwise.RegisterRouter("least-tokens", mkRouter); err == nil {
		t.Error("shadowing a built-in router should fail loudly")
	}
	if err := muxwise.RegisterRouter("", mkRouter); err == nil {
		t.Error("empty router name should fail")
	}
	if err := muxwise.RegisterRouter("test-nil-router", nil); err == nil {
		t.Error("nil router constructor should fail")
	}

	if dupScalerErr != nil {
		t.Fatalf("first registration failed: %v", dupScalerErr)
	}
	if err := muxwise.RegisterAutoscaler("test-dup-scaler", mkScaler); err == nil {
		t.Error("duplicate autoscaler registration should fail loudly")
	}
	if err := muxwise.RegisterAutoscaler("backlog", mkScaler); err == nil {
		t.Error("shadowing a built-in autoscaler should fail loudly")
	}
	if err := muxwise.RegisterAutoscaler("", mkScaler); err == nil {
		t.Error("empty autoscaler name should fail")
	}
	if err := muxwise.RegisterAutoscaler("test-nil-scaler", nil); err == nil {
		t.Error("nil autoscaler constructor should fail")
	}
}
