// Package epp is the composable endpoint-picker pipeline behind the
// fleet routers: llm-d's EPP decomposition (filter → scorer → picker,
// with an optional pre-request classifier choosing between profiles)
// expressed over this repo's deterministic simulation.
//
// A routing decision flows through one Profile:
//
//   - Filters narrow the candidate set (role pools, session stickiness,
//     shedding an overloaded holder). A filter that would empty the set
//     is skipped, so a pipeline can always place a request somewhere.
//   - Scorers assign each surviving candidate a float score, higher is
//     better. Scorers are arranged in tiers: within a tier, weighted
//     scores sum; across tiers, comparison is lexicographic (a later
//     tier only breaks ties left by the earlier ones). Single-scorer
//     tiers give exact tie-break chains without floating-point
//     epsilon games.
//   - The Picker turns scores into one endpoint. MaxScore (the default)
//     takes the lexicographically best row and breaks remaining ties
//     toward the first candidate — candidates arrive in ID order, so
//     that is the lowest ID. RoundRobin ignores scores and cycles the
//     candidate ring by stable endpoint ID.
//
// The paper's per-request aggregation-vs-disaggregation choice is a
// Classifier: it inspects the request (prompt length, session
// cache-hit estimate) and selects which profile — aggregated pool or
// split pool — handles it.
//
// Pipelines are generic over the Endpoint they route across, so the
// package has no dependency on the cluster's replica type (the cluster
// instantiates it with *cluster.Replica). Everything here runs inside
// the deterministic event loop: no wall clock, no unseeded randomness,
// no map-order-dependent decisions.
package epp

import (
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// Role marks what an endpoint is specialised for. The pd-split
// composition steers long-prefill requests to RolePrefill endpoints;
// role-blind compositions ignore it. cluster.Role aliases this type so
// pipeline stages and fleet specs share one vocabulary.
type Role int

const (
	// RoleGeneral endpoints take any request.
	RoleGeneral Role = iota
	// RolePrefill endpoints are provisioned for prefill-heavy traffic
	// (e.g. disaggregated engines with a dedicated prefill instance).
	RolePrefill
	// RoleDecode endpoints are provisioned for decode-heavy traffic.
	RoleDecode
)

// String renders the role.
func (r Role) String() string {
	switch r {
	case RolePrefill:
		return "prefill"
	case RoleDecode:
		return "decode"
	default:
		return "general"
	}
}

// Endpoint is what a pipeline routes across: a stable identity plus the
// load counters the built-in scorers read. The cluster's *Replica
// implements it; unit tests use lightweight fakes.
type Endpoint interface {
	comparable
	// EndpointID is the stable identity state is keyed by — never key
	// by position in the candidate slice, which changes as the fleet
	// controller mutates the fleet.
	EndpointID() int
	// EndpointRole tags what the endpoint is specialised for.
	EndpointRole() Role
	// OutstandingTokens is the endpoint's in-flight input+output token
	// load.
	OutstandingTokens() int64
	// InFlight is the endpoint's in-flight request count.
	InFlight() int
}

// View is the read-only context a pipeline sees at each arrival.
type View[E Endpoint] struct {
	// Now is the simulation instant of the routing decision.
	Now sim.Time
	// Candidates are the routable endpoints in ID order. The slice is a
	// scratch buffer rebuilt per arrival; stages must not retain it.
	Candidates []E
}

// Filter narrows the candidate set. Implementations append survivors to
// out (which arrives empty with reusable capacity) and return it; a
// filter that keeps everything appends all of cands. Returning an empty
// slice rejects the filter: the pipeline keeps the pre-filter set, so a
// too-strict stage degrades to a no-op instead of stranding the
// request.
type Filter[E Endpoint] interface {
	Name() string
	Filter(r *workload.Request, view View[E], cands []E, out []E) []E
}

// Scorer assigns each candidate a score, higher is better. Score must
// write out[i] for every i < len(cands); out arrives unzeroed.
type Scorer[E Endpoint] interface {
	Name() string
	Score(r *workload.Request, view View[E], cands []E, out []float64)
}

// Weighted pairs a scorer with its weight inside a tier.
type Weighted[E Endpoint] struct {
	Scorer Scorer[E]
	Weight float64
}

// Picker selects one endpoint from the filtered candidates. scores
// holds one row per scorer tier (scores[t][i] is candidate i's tier-t
// score); it is nil when the profile has no scorers or only one
// candidate survived filtering. cands is never empty.
type Picker[E Endpoint] interface {
	Name() string
	Pick(r *workload.Request, cands []E, scores [][]float64) E
}

// Classifier is the pre-request stage: it inspects the arriving request
// and selects which profile routes it, by index into the pipeline's
// profile list. An out-of-range result falls back to profile 0.
type Classifier[E Endpoint] interface {
	Name() string
	Classify(r *workload.Request, view View[E]) int
}

// DownObserver is implemented by stages and state that key anything by
// endpoint ID: ReplicaDown fires when an endpoint fails or retires so
// the state can be forgotten (the KV held there is gone).
type DownObserver interface {
	ReplicaDown(id int)
}

// TTFTObserver is implemented by stages that learn from observed
// latency: each request's first-token latency is reported against the
// endpoint that served it, at the instant the token is emitted.
type TTFTObserver interface {
	ObserveTTFT(replica int, ttft sim.Time)
}

// MigrationObserver is implemented by stages that track session →
// endpoint affinity: SessionMigrated fires when a session's KV finished
// streaming to a new holder, so the pin can follow the KV. The first n
// pages of segs are what landed there.
type MigrationObserver interface {
	SessionMigrated(session, from, to int, segs []workload.Segment, n int)
}

// PickObserver is implemented by state that records routing decisions —
// the shared Affinity pins sessions and indexes pages this way. Picked
// fires after every successful pick, including sticky re-picks.
type PickObserver[E Endpoint] interface {
	Picked(r *workload.Request, picked E)
}
