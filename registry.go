package muxwise

import (
	"muxwise/internal/cluster"
	"muxwise/internal/metrics"
)

// The plugin seam: the router and autoscaler interfaces the fleet
// simulation consults are public, so policies that learn from observed
// behavior — the kind DistServe and MuxServe frame goodput optimization
// around — can be built outside this module and registered by name.
type (
	// Router picks a replica for each arriving request. Pick is called
	// in deterministic arrival order with a read-only FleetView; key any
	// remembered state by FleetReplica.ID, never by slice position.
	Router = cluster.Router
	// RouterPolicy constructs a fresh Router; every simulation (each
	// sweep probe, each bisection step) gets its own.
	RouterPolicy = cluster.Policy
	// FleetView is the read-only context a Router sees at each arrival:
	// the decision instant and the routable candidates.
	FleetView = cluster.FleetView
	// FleetReplica is one replica as routers see it: identity, role and
	// load counters.
	FleetReplica = cluster.Replica
	// FleetObserver is implemented by routers that keep per-replica
	// state; ReplicaDown fires when a replica fails or retires.
	FleetObserver = cluster.FleetObserver
	// TTFTObserver is implemented by routers that learn from latency:
	// every first token is reported against the replica that served it.
	TTFTObserver = cluster.TTFTObserver
	// MigrationObserver is implemented by routers that track
	// session→replica affinity: SessionMigrated fires when a session's
	// KV finished streaming to a new holder, so the pin can follow the
	// KV instead of the next turn paying a cold re-prefill.
	MigrationObserver = cluster.MigrationObserver
	// MigrationStats aggregates a fleet run's KV-migration accounting
	// (ClusterResult.Migration).
	MigrationStats = cluster.MigrationStats
	// Autoscaler decides fleet scale from a FleetSnapshot on a cadence.
	Autoscaler = cluster.Autoscaler
	// FleetSnapshot is what an Autoscaler observes each tick: replica
	// counts per lifecycle state, the fleet backlog, and the TTFT tail
	// of the trailing six ticks.
	FleetSnapshot = cluster.FleetSnapshot
	// ReplicaRole tags what a FleetReplica is specialised for.
	ReplicaRole = cluster.Role
	// MetricsSnapshot is a windowed rollup of recent observations.
	MetricsSnapshot = metrics.Snapshot
	// MetricsWindow is one time-bounded rollup of a run's samples.
	MetricsWindow = metrics.Window
	// Recorder collects latency samples during a run (read-only for
	// callers; exposed through Result.Rec and ClusterResult.Rec).
	Recorder = metrics.Recorder
)

// Replica roles, for role-aware routers.
const (
	RoleGeneral = cluster.RoleGeneral
	RolePrefill = cluster.RolePrefill
	RoleDecode  = cluster.RoleDecode
)

// RegisterRouter adds a router policy to the registry under name,
// making it selectable everywhere built-in names are: WithRouter and the
// muxcluster CLI. Registering an
// empty name, a nil constructor, or a name already taken fails loudly
// with an error.
func RegisterRouter(name string, p RouterPolicy) error {
	return cluster.RegisterPolicy(name, p)
}

// RegisterAutoscaler adds an autoscaler constructor to the registry
// under name, making it selectable everywhere built-in names are:
// WithAutoscaler and the muxcluster CLI.
// Registering an empty name, a nil constructor, or a name already taken
// fails loudly with an error.
func RegisterAutoscaler(name string, mk func() Autoscaler) error {
	return cluster.RegisterScaler(name, mk)
}

// RouterPolicies lists every selectable router policy name — built-ins
// plus everything added through RegisterRouter — in sorted order.
// Anywhere one of these names is accepted, an inline "epp:" composition
// spec (see ComposedRouter) is too.
func RouterPolicies() []string { return cluster.PolicyNames() }

// ComposedRouter builds a router policy from an inline filter → scorer
// → picker composition spec — the same EPP-style pipeline the built-in
// policies are made of, assembled from config instead of code:
//
//	epp:scorers=prefix:2,least-tokens:1
//	epp:filters=role:prefill,divert-widen;scorers=least-tokens
//	epp:picker=round-robin
//
// Filters (comma-separated, in order): role:<name|name...>, sticky,
// divert, divert-widen. Scorers: name[:weight] pairs forming one
// weighted tier — prefix, session, least-tokens, least-requests,
// ttft-ewma — with remaining ties broken toward the lowest replica ID.
// Picker: max-score (default) or round-robin.
//
// The returned policy can be registered under a short name with
// RegisterRouter, and every router-name seam (WithRouter, the muxcluster
// -router flag) also accepts the spec string directly.
func ComposedRouter(spec string) (RouterPolicy, error) { return cluster.ParseComposition(spec) }

// AutoscalerPolicies lists every selectable autoscaler name — built-ins
// plus everything added through RegisterAutoscaler — in sorted order.
func AutoscalerPolicies() []string { return cluster.ScalerNames() }
