package cluster

import (
	"fmt"

	"muxwise/internal/cluster/epp"
	"muxwise/internal/workload"
)

// The router vocabulary is epp's, instantiated over *Replica: a
// composed *Pipeline is itself a Router and implements every observer
// below; the cluster finds a router's observers by type assertion.
type (
	// FleetView is the read-only context a Router sees at every
	// arrival: the instant and the routable candidates in ID order. The
	// slice is rebuilt per arrival; key remembered state by Replica.ID.
	FleetView = epp.View[*Replica]
	// FleetObserver hears ReplicaDown when a replica fails or retires:
	// its KV is gone, so sessions pinned there must re-stick.
	FleetObserver = epp.DownObserver
	// TTFTObserver hears each request's TTFT against the replica that
	// served it, at the instant the first token is emitted.
	TTFTObserver = epp.TTFTObserver
	// MigrationObserver hears SessionMigrated when a session's KV
	// finished streaming to a new holder, so the pin can follow the KV.
	MigrationObserver = epp.MigrationObserver
)

// Router picks a replica for each arriving request. Pick is called from
// inside the simulation in deterministic arrival order, so stateful
// policies (cursors, session maps, prefix indexes) stay reproducible.
//
// With a lifecycle-managed fleet the candidate set changes between
// calls: replicas spawn, drain and fail mid-run, so policies must key
// any internal state by Replica.ID (stable for the life of a run), never
// by position in the slice, and must tolerate a remembered replica being
// absent from the current candidates.
//
// Pick must return nil (not panic) on an empty candidate view: the
// cluster queues arrivals while nothing is routable, and the plugin
// seam does not promise callers a non-empty view. The built-in policies
// are all *Pipeline compositions (see pipeline.go), which guarantee this
// centrally.
type Router interface {
	Name() string
	Pick(r *workload.Request, view FleetView) *Replica
}

// Policy constructs a fresh router. Routers keep per-run state, so every
// simulation (each probe of a sweep, each bisection step) needs its own.
type Policy func() Router

// Policy names.
const (
	RoundRobinPolicy     = "round-robin"
	LeastTokensPolicy    = "least-tokens"
	PrefixAffinityPolicy = "prefix-affinity"
	PDSplitPolicy        = "pd-split"
	AdaptiveTTFTPolicy   = "adaptive-ttft"
)

// builtinPolicies returns the built-in router policies by name. Every
// built-in is a filter → scorer → picker composition; see pipeline.go.
func builtinPolicies() map[string]Policy {
	return map[string]Policy{
		RoundRobinPolicy:     RoundRobin,
		LeastTokensPolicy:    LeastTokens,
		PrefixAffinityPolicy: PrefixAffinity,
		PDSplitPolicy:        func() Router { return PDSplit(0) },
		AdaptiveTTFTPolicy:   AdaptiveTTFT,
	}
}

var policyRegistry = newRegistry("router policy", builtinPolicies)

// RegisterPolicy adds a router policy to the registry under name, making
// it selectable wherever built-in names are (deployments, sweeps, CLIs).
// Registering an empty name, a nil constructor, or a name already taken
// (built-in or registered) is an error.
func RegisterPolicy(name string, p Policy) error {
	if p == nil {
		return fmt.Errorf("cluster: nil constructor for router policy %q", name)
	}
	return policyRegistry.add(name, p)
}

// Policies returns every available router policy by name: the built-ins
// plus everything added through RegisterPolicy. The map is a copy.
func Policies() map[string]Policy { return policyRegistry.all() }

// PolicyNames returns the available policy names in deterministic order.
func PolicyNames() []string { return policyRegistry.names() }

// leastLoaded returns the candidate with the fewest outstanding tokens
// (ties: fewest in-flight requests, then lowest ID). The routing
// policies express this as scorer tiers; the migration planner still
// calls it directly when choosing a takedown destination.
func leastLoaded(cands []*Replica) *Replica {
	var best *Replica
	for _, rep := range cands {
		if best == nil || lighter(rep, best) {
			best = rep
		}
	}
	return best
}

// lighter reports whether a carries strictly less load than b: fewer
// outstanding tokens, then fewer requests in flight.
func lighter(a, b *Replica) bool {
	return a.outTokens < b.outTokens ||
		(a.outTokens == b.outTokens && a.InFlight() < b.InFlight())
}
