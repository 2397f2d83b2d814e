package cluster

import (
	"fmt"

	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// FleetView is the read-only context a Router sees at every arrival:
// the instant and the routable candidates. Policies that learn from
// latency observe it through TTFTObserver. User-supplied policies
// receive exactly this view — nothing in it lets them mutate the fleet.
type FleetView struct {
	// Now is the simulation instant of the routing decision.
	Now sim.Time
	// Candidates are the routable replicas in ID order. The slice is a
	// scratch buffer rebuilt per arrival; policies must not retain it
	// (key remembered state by Replica.ID instead).
	Candidates []*Replica
}

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
// are all epp.Pipeline compositions (see NewPipelineRouter), which
// guarantee this centrally.
type Router interface {
	Name() string
	Pick(r *workload.Request, view FleetView) *Replica
}

// FleetObserver is implemented by routers that keep per-replica state.
// The cluster calls ReplicaDown when a replica fails or retires so the
// router can unpin its sessions and drop its prefix index — the KV held
// there is gone, and the next turn of every affected session pays a full
// re-prefill on whichever replica it re-sticks to.
type FleetObserver interface {
	ReplicaDown(id int)
}

// TTFTObserver is implemented by routers that learn from observed
// latency. The cluster reports each request's TTFT against the replica
// that served it, at the instant the first token is emitted — the signal
// the adaptive-ttft policy folds into its per-replica EWMA.
type TTFTObserver interface {
	ObserveTTFT(replica int, ttft sim.Time)
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
		if best == nil ||
			rep.outTokens < best.outTokens ||
			(rep.outTokens == best.outTokens && rep.inFlight < best.inFlight) {
			best = rep
		}
	}
	return best
}
