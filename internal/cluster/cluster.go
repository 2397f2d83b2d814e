// Package cluster simulates a fleet of serving-engine replicas behind a
// pluggable request router, inside one deterministic event loop.
//
// The paper's MuxWise engine multiplexes prefill and decode within a
// single GPU group; a production deployment runs many such groups behind
// an endpoint picker that decides, per request, which replica should
// take it. That instance-assignment decision — prompt length, prefix
// cache-hit probability, per-pod load, aggregated vs disaggregated path
// (llm-d's EPP lifecycle) — is what this package models: N replicas,
// homogeneous or mixed (e.g. 6× MuxWise + 2× SGLang-PD), each a full
// serve.Instance embedded in a shared sim, with the Router consulted at
// every arrival.
//
// The fleet is lifecycle-managed, not fixed at construction: a
// FleetController processes scheduled events (SpawnReplica with a
// cold-start delay, DrainReplica, FailReplica, RetireReplica) and
// optional autoscaler policies inside the same event loop. A failing
// replica surfaces its in-flight requests for re-dispatch; the sessions
// pinned to it lose their KV and pay a full re-prefill on whichever
// replica they re-stick to — the KV-migration penalty, charged through
// the ordinary cache-hit machinery.
//
// Fleet-wide metrics reuse the single-instance machinery: per-replica
// recorders are merged (metrics.Merge) into one Summary, which the
// root package's rate probes judge by the same §4 goodput criterion
// (stable, ≥99% of TBT samples within SLO). Runs with fleet events
// additionally report per-epoch rollups: one metrics.Window plus a
// cache-hit rate per interval between fleet mutations.
package cluster

import (
	"fmt"

	"muxwise/internal/arena"
	"muxwise/internal/cluster/epp"
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/metrics"
	"muxwise/internal/obs"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// Role marks what a replica is specialised for. The pd-split router
// steers long-prefill requests to RolePrefill replicas; the other
// policies ignore roles. It aliases the pipeline package's Role so epp
// stages and fleet specs share one vocabulary.
type Role = epp.Role

const (
	// RoleGeneral replicas take any request.
	RoleGeneral = epp.RoleGeneral
	// RolePrefill replicas are provisioned for prefill-heavy traffic
	// (e.g. disaggregated engines with a dedicated prefill instance).
	RolePrefill = epp.RolePrefill
	// RoleDecode replicas are provisioned for decode-heavy traffic.
	RoleDecode = epp.RoleDecode
)

// ParseRole parses a role name; the empty string is RoleGeneral.
func ParseRole(s string) (Role, error) {
	switch s {
	case "", "general":
		return RoleGeneral, nil
	case "prefill":
		return RolePrefill, nil
	case "decode":
		return RoleDecode, nil
	}
	return RoleGeneral, fmt.Errorf("cluster: unknown role %q", s)
}

// State is a replica's position in its lifecycle.
type State int

const (
	// StateStarting replicas are spawned but still cold-starting
	// (loading weights, warming graphs); they take no traffic.
	StateStarting State = iota
	// StateReady replicas are serving and routable.
	StateReady
	// StateDraining replicas finish their in-flight requests but take no
	// new ones; an emptied draining replica retires automatically.
	StateDraining
	// StateFailed replicas crashed: their in-flight requests were
	// re-dispatched and their KV (and metrics past the failure) is gone.
	StateFailed
	// StateRetired replicas were decommissioned gracefully.
	StateRetired
)

// String renders the state.
func (s State) String() string {
	switch s {
	case StateStarting:
		return "starting"
	case StateReady:
		return "ready"
	case StateDraining:
		return "draining"
	case StateFailed:
		return "failed"
	case StateRetired:
		return "retired"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ReplicaSpec describes one shape of replica in the fleet.
type ReplicaSpec struct {
	// Engine is the display name ("MuxWise", "SGLang-PD", ...).
	Engine string
	// Factory builds the engine.
	Factory serve.Factory
	// Count is how many replicas of this shape to run (default 1).
	Count int
	// GPUs overrides the per-replica device count (default Base.GPUs).
	GPUs int
	// Hardware overrides the per-replica GPU spec (zero Name means
	// Base.Spec) — heterogeneous fleets mix A100 and H100 shapes behind
	// one router, each replica costed by its own spec.
	Hardware gpu.Spec
	// Role tags the replica for role-aware routers.
	Role Role
}

// Config describes a cluster deployment.
type Config struct {
	// Base carries the per-replica hardware, model, SLO and runner
	// knobs; ReplicaSpec.GPUs/Hardware override Base per shape.
	Base serve.Config
	// Replicas lists the initial fleet shapes in deployment order.
	Replicas []ReplicaSpec
	// Policy constructs the router; each run gets a fresh one (routers
	// keep state such as session maps and round-robin cursors).
	Policy Policy
	// Fleet optionally scripts lifecycle events and attaches an
	// autoscaler. Nil runs the initial fleet unchanged, exactly as
	// before.
	Fleet *FleetConfig
	// Migration enables KV streaming on graceful takedowns (drain,
	// retire, autoscaler scale-down) at the modeled interconnect cost:
	// Base.Arch.KVBytesPerToken per token plus kvcache.DefaultHandoff per
	// stream. False keeps the re-prefill-only behavior.
	Migration bool
}

// Replica is one engine instance plus the load bookkeeping routers
// score on.
type Replica struct {
	ID   int
	Name string
	Role Role
	Spec ReplicaSpec
	Inst *serve.Instance

	// State is the lifecycle position; ReadyAt/DownAt bracket the span
	// the replica served traffic (DownAt is zero while up).
	State   State
	ReadyAt sim.Time
	DownAt  sim.Time

	outTokens int64
	assigned  int
	reqs      map[int]*workload.Request // in-flight, by request ID

	// migTokens is in-transit migrated KV counted in outTokens until it
	// lands; kvIn/kvOut total the KV tokens this replica received/sent
	// over its life.
	migTokens   int64
	kvIn, kvOut int64

	// frozen* snapshot the replica's result and cache stats at the
	// instant it went down, excluding any ghost simulation work after.
	frozenResult *serve.Result
	frozenCache  *kvcache.Stats
}

// EndpointID implements epp.Endpoint: the stable identity pipeline
// stages key their state by.
func (r *Replica) EndpointID() int { return r.ID }

// EndpointRole implements epp.Endpoint.
func (r *Replica) EndpointRole() Role { return r.Role }

// InFlight returns how many routed requests have not finished: the
// size of the in-flight request map, which submit fills, completion
// empties and a takedown clears for re-dispatch.
func (r *Replica) InFlight() int { return len(r.reqs) }

// OutstandingTokens returns the input+output tokens of in-flight
// requests plus any in-transit migrated KV — the
// least-outstanding-tokens load signal.
func (r *Replica) OutstandingTokens() int64 { return r.outTokens }

// MigratingTokens returns the in-transit migrated KV currently counted
// against this replica's token load.
func (r *Replica) MigratingTokens() int64 { return r.migTokens }

// Assigned returns how many requests the router sent here in total.
func (r *Replica) Assigned() int { return r.assigned }

// routable reports whether the router may pick this replica.
func (r *Replica) routable() bool { return r.State == StateReady }

// down reports whether the replica has left the fleet for good.
func (r *Replica) down() bool { return r.State == StateFailed || r.State == StateRetired }

// submit routes a request into the replica at (or after) its arrival.
func (r *Replica) submit(req *workload.Request) {
	r.assigned++
	r.outTokens += int64(req.InputTokens + req.OutputTokens)
	r.reqs[req.ID] = req
	r.Inst.Submit(req)
}

// finish is the completion callback wired into the instance recorder.
func (r *Replica) finish(id int) {
	req, ok := r.reqs[id]
	if !ok {
		return
	}
	delete(r.reqs, id)
	r.outTokens -= int64(req.InputTokens + req.OutputTokens)
}

// result snapshots the replica's serve result, preferring the frozen
// view captured at the instant it went down.
func (r *Replica) result(now sim.Time) serve.Result {
	if r.frozenResult != nil {
		return *r.frozenResult
	}
	return r.Inst.Result(now)
}

// cacheStats returns cache statistics, frozen at down-time for dead
// replicas so ghost work cannot leak into fleet rollups.
func (r *Replica) cacheStats() kvcache.Stats {
	if r.frozenCache != nil {
		return *r.frozenCache
	}
	return r.Inst.CacheStats()
}

// LogKind names what a fleet log entry records.
type LogKind uint8

const (
	// LogSpawn: a replica was added and is cold-starting.
	LogSpawn LogKind = iota
	// LogReady: a replica joined the routable set.
	LogReady
	// LogDrain: a replica stopped taking new work.
	LogDrain
	// LogDrained, LogFail and LogRetire: a replica left the fleet once
	// its drain emptied, by a crash, or by an immediate retire.
	LogDrained
	LogFail
	LogRetire
	// LogMigrate: a KV stream started.
	LogMigrate
	// LogArrived: a KV stream landed at its destination.
	LogArrived
	// LogCanceled: a takedown killed a KV stream on the wire.
	LogCanceled
)

// String renders the kind as the word its log line starts with.
func (k LogKind) String() string {
	switch k {
	case LogSpawn:
		return "spawn"
	case LogReady:
		return "ready"
	case LogDrain:
		return "drain"
	case LogDrained:
		return "drained"
	case LogFail:
		return "fail"
	case LogRetire:
		return "retire"
	case LogMigrate:
		return "kv-migrate"
	case LogArrived:
		return "kv-arrived"
	case LogCanceled:
		return "kv-migration canceled"
	}
	return fmt.Sprintf("log(%d)", int(k))
}

// LogEntry is one timestamped fleet lifecycle event. It keeps the
// event's fields as they are; Msg renders the text only when the log is
// read, so a run that never reads its log formats nothing.
type LogEntry struct {
	At   sim.Time
	Kind LogKind
	// Link is a stream's interconnect class.
	Link gpu.LinkClass
	// Replica names the replica the event happened to, or a KV stream's
	// source; Dst names a stream's destination.
	Replica, Dst string
	// Session is a stream's session.
	Session int
	// Count is a stream's KV tokens, or the requests in flight at a
	// drain or re-dispatched at a takedown.
	Count int64
	// Dur is a spawn's cold start, or a stream's transfer time.
	Dur sim.Time
}

// Msg renders the entry's message.
func (e LogEntry) Msg() string {
	switch e.Kind {
	case LogSpawn:
		return fmt.Sprintf("spawn %s (cold start %v)", e.Replica, e.Dur)
	case LogReady:
		return "ready " + e.Replica
	case LogDrain:
		return fmt.Sprintf("drain %s (%d in flight)", e.Replica, e.Count)
	case LogDrained, LogFail, LogRetire:
		return fmt.Sprintf("%v %s (%d in-flight re-dispatched)", e.Kind, e.Replica, e.Count)
	case LogMigrate:
		return fmt.Sprintf("kv-migrate session %d %s -> %s (%d tokens over %v, %v)",
			e.Session, e.Replica, e.Dst, e.Count, e.Link, e.Dur)
	case LogArrived:
		return fmt.Sprintf("kv-arrived session %d at %s (%d tokens)", e.Session, e.Dst, e.Count)
	case LogCanceled:
		return fmt.Sprintf("kv-migration canceled session %d %s -> %s (%d tokens re-prefill)",
			e.Session, e.Replica, e.Dst, e.Count)
	}
	return e.Kind.String()
}

// String renders the entry as "<time> <message>".
func (e LogEntry) String() string { return e.At.String() + " " + e.Msg() }

// epochMark opens a fleet epoch: the instant, what changed, and
// snapshots of the fleet state needed for per-epoch deltas.
type epochMark struct {
	at       sim.Time
	label    string
	ready    int
	cache    kvcache.Stats
	migrated int64    // cumulative migrated KV tokens at the mark
	migStall sim.Time // cumulative migration stall at the mark
}

// Cluster is a replica fleet sharing one simulator. Replicas holds every
// replica ever created, in spawn order; IDs are stable indexes into it.
type Cluster struct {
	Sim      *sim.Sim
	Replicas []*Replica
	Router   Router

	base    serve.Config
	nameSeq map[string]int

	// pending holds requests that arrived while no replica was routable;
	// they flush, in order, as soon as one becomes ready.
	pending []*workload.Request

	// routableBuf is the scratch slice Routable rebuilds per arrival.
	routableBuf []*Replica

	// ttftScratch pools per-tick TTFT samples across replicas (TTFTTail).
	ttftScratch []float64

	log   []LogEntry
	marks []epochMark

	// KV migration state: whether it is enabled, the model's per-token
	// wire size, the streams on the wire in start order, running
	// totals, how many re-dispatched requests are held on the wire
	// right now, and the context KV each live session's holder keeps
	// for it (maintained only when migration is enabled).
	migrate         bool
	kvBytesPerToken float64
	migs            []*migration
	migStats        MigrationStats
	migHeld         int
	kv              map[int]sessionKV

	// migPool recycles stream records, and finishFn is the one bound
	// callback that lands them. drainSeen and sweepIDs are
	// drainMigrations' and sweepSessionKV's scratch, reused across
	// takedowns.
	migPool   arena.Pool[migration]
	finishFn  func(any)
	drainSeen map[int]bool
	sweepIDs  []int

	// trace is the flight recorder (nil when tracing is off); fleet
	// lifecycle, router picks and migration streams are emitted here.
	// crashedReqs / heldReqs remember which requests were ever aborted
	// off a failed replica or held on a KV-migration stream — the
	// diagnostics rollup attributes their SLO misses to those causes.
	trace       *obs.Tracer
	crashedReqs map[int]bool
	heldReqs    map[int]bool
}

// MaxReplicas bounds a fleet's size: the initial replicas, every
// replica spawned by a fleet event, and the autoscaler's ceiling. Each
// replica is a whole simulated engine, so the bound turns a hostile
// count into an error instead of an out-of-memory crash.
const MaxReplicas = 10000

// validate checks the config without constructing any engine.
func validate(cfg Config) error {
	if len(cfg.Replicas) == 0 {
		return fmt.Errorf("cluster: no replicas configured")
	}
	if cfg.Policy == nil {
		return fmt.Errorf("cluster: no router policy configured")
	}
	if cfg.Base.GPUs > serve.MaxGPUs {
		return fmt.Errorf("cluster: %d GPUs per replica exceeds the limit of %d", cfg.Base.GPUs, serve.MaxGPUs)
	}
	initial := 0
	for _, spec := range cfg.Replicas {
		if spec.Factory == nil {
			return fmt.Errorf("cluster: replica spec %q has no factory", spec.Engine)
		}
		n, err := checkShape(spec)
		if err != nil {
			return err
		}
		if initial += n; initial > MaxReplicas {
			return fmt.Errorf("cluster: fleet of more than %d replicas", MaxReplicas)
		}
	}
	if cfg.Fleet != nil {
		if err := cfg.Fleet.validate(initial); err != nil {
			return err
		}
	}
	return nil
}

// checkShape bounds one replica shape's count and GPUs and returns how
// many replicas it adds (a count ≤ 0 means one).
func checkShape(spec ReplicaSpec) (int, error) {
	if spec.Count > MaxReplicas {
		return 0, fmt.Errorf("cluster: %d %s replicas exceeds the limit of %d", spec.Count, spec.Engine, MaxReplicas)
	}
	if spec.GPUs > serve.MaxGPUs {
		return 0, fmt.Errorf("cluster: %d GPUs per %s replica exceeds the limit of %d", spec.GPUs, spec.Engine, serve.MaxGPUs)
	}
	return max(spec.Count, 1), nil
}

// New expands the config into a fleet inside the shared simulator s. The
// initial replicas are ready at time zero; cfg.Fleet events and
// autoscaling are attached by Run, which owns the whole lifecycle of a
// trace replay.
func New(s *sim.Sim, cfg Config) (*Cluster, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	c := &Cluster{
		Sim: s, Router: cfg.Policy(), base: cfg.Base,
		nameSeq: map[string]int{}, kv: map[int]sessionKV{},
		migrate: cfg.Migration, kvBytesPerToken: cfg.Base.Arch.KVBytesPerToken(),
		trace:       cfg.Base.Trace,
		crashedReqs: map[int]bool{}, heldReqs: map[int]bool{},
		drainSeen: map[int]bool{},
	}
	c.finishFn = func(arg any) { c.finishMigration(arg.(*migration)) }
	for _, spec := range cfg.Replicas {
		count := spec.Count
		if count <= 0 {
			count = 1
		}
		for i := 0; i < count; i++ {
			rep := c.addReplica(spec)
			rep.State = StateReady
		}
	}
	c.mark("start")
	if c.trace != nil {
		c.trace.Counter(0, "fleet", "replicas", obs.Arg{Key: "ready", Val: c.countState(StateReady)})
	}
	return c, nil
}

// Config returns the serving config of one replica of this shape: base
// with the shape's GPU count and hardware applied.
func (s *ReplicaSpec) Config(base serve.Config) serve.Config {
	if s.GPUs > 0 {
		base.GPUs = s.GPUs
	}
	if s.Hardware.Name != "" {
		base.Spec = s.Hardware
	}
	return base
}

// addReplica constructs one replica (in StateStarting) and appends it to
// the fleet.
func (c *Cluster) addReplica(spec ReplicaSpec) *Replica {
	base := spec.Config(c.base)
	seq := c.nameSeq[spec.Engine]
	c.nameSeq[spec.Engine] = seq + 1
	rep := &Replica{
		ID:    len(c.Replicas),
		Name:  fmt.Sprintf("%s-%d", spec.Engine, seq),
		Role:  spec.Role,
		Spec:  spec,
		State: StateStarting,
		reqs:  map[int]*workload.Request{},
	}
	rep.Inst = serve.NewInstance(c.Sim, spec.Factory, base, rep.Name)
	rep.Inst.Rec.OnFinish = func(id int, at sim.Time) {
		req := rep.reqs[id]
		rep.finish(id)
		if req != nil {
			c.trackKV(rep, req)
		}
		if rep.State == StateDraining && rep.InFlight() == 0 {
			c.retireDrained(rep)
		}
	}
	if obs, ok := c.Router.(TTFTObserver); ok {
		rep.Inst.Rec.OnFirstToken = func(id int, ttft sim.Time) {
			obs.ObserveTTFT(rep.ID, ttft)
		}
	}
	c.Replicas = append(c.Replicas, rep)
	return rep
}

// Replica returns the replica with the given ID, or nil.
func (c *Cluster) Replica(id int) *Replica {
	if id < 0 || id >= len(c.Replicas) {
		return nil
	}
	return c.Replicas[id]
}

// Routable returns the replicas the router may currently pick, in ID
// order. The slice is a scratch buffer valid until the next call — it
// is rebuilt on every arrival, so callers (routers) must not retain it.
func (c *Cluster) Routable() []*Replica {
	out := c.routableBuf[:0]
	for _, rep := range c.Replicas {
		if rep.routable() {
			out = append(out, rep)
		}
	}
	c.routableBuf = out
	return out
}

// countState returns how many replicas are in the given state.
func (c *Cluster) countState(s State) int {
	n := 0
	for _, rep := range c.Replicas {
		if rep.State == s {
			n++
		}
	}
	return n
}

// record stamps e with the current instant and appends it to the fleet
// log.
func (c *Cluster) record(e LogEntry) {
	e.At = c.Sim.Now()
	c.log = append(c.log, e)
}

// note records one fleet transition of a replica and, when tracing,
// emits a fleet-track instant named by e's kind (the replica, then
// args) plus a fresh sample of the ready-replica counter.
func (c *Cluster) note(e LogEntry, args ...obs.Arg) {
	c.record(e)
	if c.trace == nil {
		return
	}
	now := c.Sim.Now()
	c.trace.Instant(now, "fleet", e.Kind.String(), append([]obs.Arg{{Key: "replica", Val: e.Replica}}, args...)...)
	c.trace.Counter(now, "fleet", "replicas", obs.Arg{Key: "ready", Val: c.countState(StateReady)})
}

// mark opens a new fleet epoch at the current instant.
func (c *Cluster) mark(label string) {
	c.marks = append(c.marks, epochMark{
		at:       c.Sim.Now(),
		label:    label,
		ready:    c.countState(StateReady),
		cache:    c.aggCache(),
		migrated: c.migStats.MigratedTokens,
		migStall: c.migStats.Stall,
	})
}

// aggCache sums cache statistics across the fleet, using down replicas'
// frozen snapshots.
func (c *Cluster) aggCache() kvcache.Stats {
	var agg kvcache.Stats
	for _, rep := range c.Replicas {
		agg.Add(rep.cacheStats())
	}
	return agg
}

// Submit routes one request to the replica the router picks. It must be
// called from inside the simulation, at the request's arrival time or
// later (re-dispatch). When no replica is routable the request queues
// and flushes as soon as one becomes ready; it returns nil in that case.
func (c *Cluster) Submit(r *workload.Request) *Replica {
	cands := c.Routable()
	if len(cands) == 0 {
		if c.trace != nil {
			c.trace.Instant(c.Sim.Now(), "router", "queued-unrouted",
				obs.Arg{Key: "req", Val: r.ID}, obs.Arg{Key: "session", Val: r.Session})
		}
		c.pending = append(c.pending, r)
		return nil
	}
	rep := c.Router.Pick(r, FleetView{Now: c.Sim.Now(), Candidates: cands})
	if rep == nil || !rep.routable() {
		rep = cands[0]
	}
	if c.trace != nil {
		// One pick record per placement, carrying each candidate's load
		// score at decision time so the choice is explainable post hoc.
		args := make([]obs.Arg, 0, len(cands)+3)
		args = append(args,
			obs.Arg{Key: "req", Val: r.ID},
			obs.Arg{Key: "input_tokens", Val: r.InputTokens},
			obs.Arg{Key: "picked", Val: rep.Name})
		for _, cand := range cands {
			args = append(args, obs.Arg{
				Key: cand.Name,
				Val: fmt.Sprintf("%dtok/%dreq", cand.outTokens, cand.InFlight()),
			})
		}
		c.trace.Instant(c.Sim.Now(), "router", "pick", args...)
	}
	rep.submit(r)
	return rep
}

// flushPending re-submits queued requests once a replica becomes ready.
func (c *Cluster) flushPending() {
	if len(c.pending) == 0 {
		return
	}
	queued := c.pending
	c.pending = nil
	for _, r := range queued {
		c.Submit(r)
	}
}

// Spawn adds a replica of the given shape. With a positive coldStart the
// replica joins in StateStarting and becomes routable coldStart later
// (weight loading, graph capture); with zero it is ready immediately.
func (c *Cluster) Spawn(spec ReplicaSpec, coldStart sim.Time) *Replica {
	rep := c.addReplica(spec)
	if coldStart <= 0 {
		c.makeReady(rep)
		return rep
	}
	c.note(LogEntry{Kind: LogSpawn, Replica: rep.Name, Dur: coldStart},
		obs.Arg{Key: "cold_start_ms", Val: coldStart.Milliseconds()})
	c.Sim.AfterFunc(coldStart, func(any) { c.makeReady(rep) }, nil)
	return rep
}

// makeReady promotes a starting replica into the routable set.
func (c *Cluster) makeReady(rep *Replica) {
	if rep.State != StateStarting {
		return // failed or retired while cold-starting
	}
	rep.State = StateReady
	rep.ReadyAt = c.Sim.Now()
	c.mark("ready " + rep.Name)
	c.note(LogEntry{Kind: LogReady, Replica: rep.Name})
	c.flushPending()
}

// Drain stops routing new work to the replica; its in-flight requests
// run to completion, after which it retires automatically.
func (c *Cluster) Drain(rep *Replica) {
	if rep == nil || rep.down() || rep.State == StateDraining {
		return
	}
	if rep.State == StateStarting {
		// Never served: retire on the spot.
		c.takeDown(rep, StateRetired, LogRetire)
		return
	}
	rep.State = StateDraining
	c.mark("drain " + rep.Name)
	c.note(LogEntry{Kind: LogDrain, Replica: rep.Name, Count: int64(rep.InFlight())},
		obs.Arg{Key: "in_flight", Val: rep.InFlight()})
	// The draining replica left the routable set, so its sessions
	// re-route from this instant on; stream their KV after it.
	c.drainMigrations(rep)
	if rep.InFlight() == 0 {
		c.retireDrained(rep)
	}
}

// retireDrained completes a drain once the replica empties.
func (c *Cluster) retireDrained(rep *Replica) {
	c.takeDown(rep, StateRetired, LogDrained)
}

// Fail crashes the replica: its in-flight requests are re-dispatched to
// the rest of the fleet, every session pinned to it loses its KV (the
// re-prefill shows up as cache misses on the new holders), and its
// metrics freeze at the failure instant.
func (c *Cluster) Fail(rep *Replica) {
	if rep == nil || rep.down() {
		return
	}
	c.takeDown(rep, StateFailed, LogFail)
}

// Retire decommissions the replica immediately, re-dispatching any
// in-flight requests. (Use Drain for a graceful hand-off that lets them
// finish in place.)
func (c *Cluster) Retire(rep *Replica) {
	if rep == nil || rep.down() {
		return
	}
	c.takeDown(rep, StateRetired, LogRetire)
}

// takeDown removes a replica from the fleet: halt its instance, abort
// and collect its in-flight requests, notify the router, and re-dispatch
// the survivors. Everything happens at one simulation instant, so a run
// with the same seed replays byte-identically.
func (c *Cluster) takeDown(rep *Replica, state State, kind LogKind) {
	now := c.Sim.Now()
	rep.Inst.Halt()

	// Surface in-flight requests (arrival order) and withdraw them from
	// the dead recorder so they can re-arrive elsewhere under the same ID.
	var redispatch []*workload.Request
	outcome := "redispatch"
	if state == StateFailed {
		outcome = "crash"
	}
	for _, id := range rep.Inst.Open() {
		req, ok := rep.reqs[id]
		if !ok {
			continue
		}
		rep.Inst.Abort(id)
		// Close the aborted request's span here (the recorder has no
		// notion of "now"); re-dispatch opens a fresh span for the same
		// ID on the surviving replica's track.
		if c.trace != nil {
			c.trace.AsyncEnd(now, rep.Name, "request", int64(id), "request",
				obs.Arg{Key: "outcome", Val: outcome})
		}
		if state == StateFailed {
			c.crashedReqs[id] = true
		}
		redispatch = append(redispatch, req)
	}
	rep.outTokens = 0
	rep.migTokens = 0
	rep.reqs = map[int]*workload.Request{}

	// Freeze the replica's view after the aborts: its summary holds only
	// work it completed, and later ghost events cannot move it.
	res := rep.Inst.Result(now)
	cs := rep.Inst.CacheStats()
	rep.frozenResult, rep.frozenCache = &res, &cs
	rep.State = state
	rep.DownAt = now

	// The router must forget the replica before re-dispatch, or sticky
	// sessions would re-pin to the corpse.
	if obs, ok := c.Router.(FleetObserver); ok {
		obs.ReplicaDown(rep.ID)
	}
	// Streams through the dead replica die with it: a vanished
	// destination cannot accept, and a crashed source loses even the
	// KV it was mid-stream on — those sessions repay the re-prefill.
	c.cancelMigrations(rep, state == StateFailed)
	c.mark(kind.String() + " " + rep.Name)
	c.note(LogEntry{Kind: kind, Replica: rep.Name, Count: int64(len(redispatch))},
		obs.Arg{Key: "redispatched", Val: len(redispatch)})
	graceful := c.migrate && state != StateFailed
	for _, req := range redispatch {
		// A graceful retire streams each re-dispatched request's input
		// KV to the target and holds the request until it lands; a
		// crash (or a fleet with nowhere to stream) re-dispatches
		// immediately and the request re-prefills where it re-sticks.
		if graceful {
			c.releaseKV(rep, req.Session)
			if c.migrateKV(rep, req.Session, int64(req.InputTokens), req.Pages, req.Segments, req) {
				continue
			}
		}
		c.Submit(req)
	}
	if graceful {
		// Idle sessions whose KV lives here stream out too — their next
		// turn re-routes and would otherwise pay the full re-prefill.
		c.sweepSessionKV(rep)
	}
	c.forgetKV(rep)
}

// Unfinished sums arrived-but-incomplete requests across the fleet,
// including requests queued for want of a routable replica and
// requests held mid-migration while their KV is on the wire.
func (c *Cluster) Unfinished() int {
	n := len(c.pending) + c.migHeld
	for _, rep := range c.Replicas {
		n += rep.Inst.Rec.Unfinished()
	}
	return n
}

// TTFTTail pools TTFT samples observed at or after from across the
// fleet and summarises them — the sliding-window tail signal the
// TTFT-target autoscaler watches.
func (c *Cluster) TTFTTail(from sim.Time) metrics.Quantiles {
	c.ttftScratch = c.ttftScratch[:0]
	for _, rep := range c.Replicas {
		c.ttftScratch = rep.Inst.Rec.AppendTTFTSince(c.ttftScratch, from)
	}
	return metrics.QuantilesInPlace(c.ttftScratch)
}

// Snapshot assembles the trailing-window metrics view autoscalers
// observe: first-token latencies emitted inside the window plus the
// current fleet-wide backlog. A window of zero (or one reaching past
// the start) opens the window at time zero.
func (c *Cluster) Snapshot(window sim.Time) metrics.Snapshot {
	now := c.Sim.Now()
	from := now - window
	if window <= 0 || from < 0 {
		from = 0
	}
	return metrics.Snapshot{
		From:    from,
		To:      now,
		TTFT:    c.TTFTTail(from),
		Backlog: c.Unfinished(),
	}
}

// ReplicaResult is the per-replica rollup of a cluster run.
type ReplicaResult struct {
	Name     string
	Engine   string
	Hardware string
	GPUs     int // devices this replica occupied
	Role     Role
	State    State
	ReadyAt  sim.Time
	DownAt   sim.Time // zero if the replica was still up at the end
	Requests int      // requests routed to this replica
	CacheHit float64
	Result   serve.Result

	// KVMigratedIn/Out total the KV tokens this replica received and
	// sent through migration streams.
	KVMigratedIn, KVMigratedOut int64
}

// Epoch is the rollup of one fleet epoch: the interval between two
// consecutive fleet mutations (spawn-ready, drain, fail, retire).
type Epoch struct {
	From, To sim.Time
	// Label names the event that opened the epoch ("start",
	// "fail MuxWise-0", "ready MuxWise-4", ...).
	Label string
	// Ready is the routable replica count when the epoch opened.
	Ready int
	// Window carries the epoch's latency rollup (arrivals, TTFT/TBT
	// quantiles, completions).
	Window metrics.Window
	// Attainment is the epoch's TBT SLO attainment.
	Attainment float64
	// CacheHit is the fleet prefix-cache hit rate over lookups made
	// inside the epoch (not cumulative) — the KV re-prefill penalty of a
	// failure is visible as a dip here.
	CacheHit float64
	// MigratedTokens is KV delivered by migration streams inside the
	// epoch; MigrationStall the stream latency committed inside it.
	MigratedTokens int64
	MigrationStall sim.Time
}

// Result aggregates a cluster run: the fleet-wide summary over merged
// per-replica recorders, plus the per-replica rollups.
type Result struct {
	Router   string
	Summary  metrics.Summary
	Rec      *metrics.Recorder // merged fleet view (read-only)
	Replicas []ReplicaResult
	CacheHit float64 // fleet token-weighted prefix-cache hit rate

	// Epochs holds per-epoch rollups for lifecycle-managed runs (nil
	// when the fleet never changed).
	Epochs []Epoch
	// Events is the timestamped fleet lifecycle log.
	Events []LogEntry
	// Failures counts replicas that failed mid-run.
	Failures int
	// Unrouted counts requests that never found a routable replica.
	Unrouted int
	// Migration aggregates the run's KV-migration accounting (zero when
	// migration is disabled or the fleet never drained).
	Migration MigrationStats

	// Diagnostics attributes every SLO miss of the run to a cause:
	// queue-wait, slow prefill, TBT violation, migration stall, crash,
	// or unfinished work (including never-routed requests).
	Diagnostics metrics.MissBreakdown
	// Loop snapshots the event loop's perf counters for the run.
	Loop sim.LoopStats
}

// MeanUtil averages blended GPU utilization across all replica devices.
func (r Result) MeanUtil() float64 {
	var sum float64
	n := 0
	for _, rep := range r.Replicas {
		for _, d := range rep.Result.Devices {
			sum += d.Util
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// epochs assembles per-epoch rollups from the marks collected during the
// run. Static fleets (a single "start" mark) report none.
func (c *Cluster) epochs(rec *metrics.Recorder, end sim.Time, tbtSLO sim.Time) []Epoch {
	if len(c.marks) < 2 {
		return nil
	}
	// Coalesce marks sharing an instant (e.g. two replicas ready at the
	// same tick): the last one carries the settled fleet state.
	var marks []epochMark
	for _, m := range c.marks {
		if m.at > end {
			break
		}
		if n := len(marks); n > 0 && marks[n-1].at == m.at {
			m.label = marks[n-1].label + " + " + m.label
			marks[n-1] = m
			continue
		}
		marks = append(marks, m)
	}
	bounds := make([]sim.Time, 0, len(marks)+1)
	for _, m := range marks {
		bounds = append(bounds, m.at)
	}
	if last := bounds[len(bounds)-1]; last < end {
		bounds = append(bounds, end)
	} else if len(bounds) < 2 {
		return nil
	}
	wins := rec.Rollup(bounds, tbtSLO)
	final := c.aggCache()
	out := make([]Epoch, len(wins))
	for i := range wins {
		next := final
		if i+1 < len(marks) {
			next = marks[i+1].cache
		}
		prev := marks[i].cache
		delta := kvcache.Stats{
			HitTokens:  next.HitTokens - prev.HitTokens,
			MissTokens: next.MissTokens - prev.MissTokens,
		}
		nextMig, nextStall := c.migStats.MigratedTokens, c.migStats.Stall
		if i+1 < len(marks) {
			nextMig, nextStall = marks[i+1].migrated, marks[i+1].migStall
		}
		out[i] = Epoch{
			From:           wins[i].From,
			To:             wins[i].To,
			Label:          marks[i].label,
			Ready:          marks[i].ready,
			Window:         wins[i],
			Attainment:     wins[i].Attainment(),
			CacheHit:       delta.HitRate(),
			MigratedTokens: nextMig - marks[i].migrated,
			MigrationStall: nextStall - marks[i].migStall,
		}
	}
	return out
}

// Run replays the trace against a fresh fleet built from cfg. The run is
// fully deterministic: arrivals, routing decisions, fleet lifecycle
// events and every replica's engine all execute in one event loop keyed
// by (time, seq).
func Run(cfg Config, trace *workload.Trace) (Result, error) {
	s := sim.New()
	c, err := New(s, cfg)
	if err != nil {
		return Result{}, err
	}

	lastArrival := serve.LastArrival(trace.Requests)
	if cfg.Fleet != nil {
		attachFleet(c, *cfg.Fleet, lastArrival)
	}
	serve.ScheduleArrivals(s, trace.Requests, func(r *workload.Request) { c.Submit(r) })
	// Fleet-level stability probe, mirroring serve.Run.
	backlog := 0
	s.AtFunc(lastArrival+30*sim.Second, func(any) { backlog = c.Unfinished() }, nil)
	s.RunUntil(lastArrival + serve.Horizon)

	res := Result{Router: c.Router.Name(), Failures: c.countState(StateFailed), Events: c.log, Unrouted: len(c.pending)}
	recs := make([]*metrics.Recorder, 0, len(c.Replicas))
	for _, rep := range c.Replicas {
		rr := rep.result(s.Now())
		res.Replicas = append(res.Replicas, ReplicaResult{
			Name:          rep.Name,
			Engine:        rep.Spec.Engine,
			Hardware:      rep.Inst.Env.Spec.Name,
			GPUs:          rep.Inst.Env.GPUs,
			Role:          rep.Role,
			State:         rep.State,
			ReadyAt:       rep.ReadyAt,
			DownAt:        rep.DownAt,
			Requests:      rep.Assigned(),
			CacheHit:      rr.CacheHit,
			Result:        rr,
			KVMigratedIn:  rep.kvIn,
			KVMigratedOut: rep.kvOut,
		})
		recs = append(recs, rep.Inst.Rec)
	}
	res.Rec = metrics.Merge(recs...)
	res.Summary = res.Rec.Summarize("cluster/"+c.Router.Name(), s.Now())
	serve.ApplyBacklog(&res.Summary, backlog)
	res.CacheHit = c.aggCache().HitRate()
	res.Epochs = c.epochs(res.Rec, s.Now(), cfg.Base.SLO.TBT)
	res.Migration = c.migStats
	res.Migration.UndeliveredTokens = c.undeliveredTokens()
	res.Summary.MigratedKVTokens = res.Migration.MigratedTokens
	res.Summary.MigrationStallSeconds = res.Migration.Stall.Seconds()
	res.Diagnostics = res.Rec.Diagnose(cfg.Base.SLO, metrics.DiagnoseAux{
		Crashed:    c.crashedReqs,
		Held:       c.heldReqs,
		Unrouted:   len(c.pending),
		InFlightKV: c.migHeld,
	})
	res.Loop = s.Stats()
	return res, nil
}
