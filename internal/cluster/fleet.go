package cluster

import (
	"fmt"
	"sort"

	"muxwise/internal/metrics"
	"muxwise/internal/obs"
	"muxwise/internal/sim"
)

// EventKind names a scheduled fleet lifecycle transition.
type EventKind int

const (
	// SpawnReplica adds a replica of FleetEvent.Spec; it becomes
	// routable after its cold-start delay.
	SpawnReplica EventKind = iota
	// DrainReplica stops new traffic to the target; in-flight requests
	// finish in place, then it retires.
	DrainReplica
	// FailReplica crashes the target: in-flight requests re-dispatch and
	// its KV is lost (sessions pay a re-prefill wherever they re-stick).
	FailReplica
	// RetireReplica decommissions the target immediately, re-dispatching
	// its in-flight requests.
	RetireReplica
	// MarkEpoch opens a new reporting epoch without changing the fleet —
	// it aligns epoch boundaries across runs (e.g. a healthy baseline
	// against a failure run at the same instant).
	MarkEpoch
)

// String renders the event kind.
func (k EventKind) String() string {
	switch k {
	case SpawnReplica:
		return "spawn"
	case DrainReplica:
		return "drain"
	case FailReplica:
		return "fail"
	case RetireReplica:
		return "retire"
	case MarkEpoch:
		return "mark"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// FleetEvent is one scheduled lifecycle transition, processed inside the
// deterministic event loop at At.
type FleetEvent struct {
	At   sim.Time
	Kind EventKind
	// Replica targets drain/fail/retire by ID (its index in spawn
	// order: the initial fleet occupies 0..n-1).
	Replica int
	// Spec is the shape to spawn; a nil Factory borrows the first
	// configured replica shape. Spec.Count > 1 spawns that many
	// replicas at once, each with its own cold start.
	Spec ReplicaSpec
}

// FleetSnapshot is what an autoscaler observes each cadence tick: the
// per-state replica counts plus a rollup of the trailing six cadences.
type FleetSnapshot struct {
	Now sim.Time
	// Ready/Starting/Draining count replicas per lifecycle state.
	Ready, Starting, Draining int
	// Metrics is the trailing-window rollup: TTFT quantiles over first
	// tokens observed inside the window, and the fleet-wide backlog
	// (arrived-but-unfinished requests, including any queued for want of
	// a routable replica) at the tick instant.
	Metrics metrics.Snapshot
}

// Backlog returns the fleet-wide backlog at the tick instant.
func (s FleetSnapshot) Backlog() int { return s.Metrics.Backlog }

// Autoscaler decides fleet scale from merged metrics on a cadence.
// Decide returns how many replicas to add (positive), drain (negative),
// or 0 to hold. The controller clamps decisions to [Min, Max].
type Autoscaler interface {
	Name() string
	Decide(s FleetSnapshot) int
}

// builtinScalers returns the built-in autoscaler constructors by name.
func builtinScalers() map[string]func() Autoscaler {
	return map[string]func() Autoscaler{
		"backlog": func() Autoscaler { return BacklogScaler{} },
		"ttft":    func() Autoscaler { return TTFTScaler{} },
	}
}

var scalerRegistry = newRegistry("autoscaler", builtinScalers)

// RegisterScaler adds an autoscaler constructor to the registry under
// name. Registering an empty name, a nil constructor, or a name already
// taken (built-in or registered) is an error.
func RegisterScaler(name string, mk func() Autoscaler) error {
	if mk == nil {
		return fmt.Errorf("cluster: nil constructor for autoscaler %q", name)
	}
	return scalerRegistry.add(name, mk)
}

// Scalers returns every available autoscaler constructor by name: the
// built-ins plus everything added through RegisterScaler. The map is a
// copy.
func Scalers() map[string]func() Autoscaler { return scalerRegistry.all() }

// ScalerNames returns the available autoscaler names in deterministic
// order.
func ScalerNames() []string { return scalerRegistry.names() }

// Backlog thresholds of BacklogScaler, in arrived-but-unfinished
// requests per ready or starting replica.
const (
	backlogHi = 8
	backlogLo = 1
)

// BacklogScaler scales on arrived-but-unfinished requests per routable
// replica: spawn at backlogHi or more, drain at backlogLo or fewer.
type BacklogScaler struct{}

// Name implements Autoscaler.
func (b BacklogScaler) Name() string { return "backlog" }

// Decide implements Autoscaler.
func (b BacklogScaler) Decide(s FleetSnapshot) int {
	n := s.Ready + s.Starting
	if n == 0 {
		if s.Backlog() > 0 {
			return 1
		}
		return 0
	}
	switch per := s.Backlog() / n; {
	case per >= backlogHi:
		return 1
	case per <= backlogLo && s.Starting == 0 && s.Draining == 0:
		return -1
	}
	return 0
}

// TTFTScaler scales on the trailing-window P99 TTFT: spawn above Target,
// drain when the tail sits below Target/4 with no backlog pressure. The
// zero value targets 1 s.
type TTFTScaler struct {
	Target sim.Time
}

// Name implements Autoscaler.
func (t TTFTScaler) Name() string { return "ttft" }

// Decide implements Autoscaler.
func (t TTFTScaler) Decide(s FleetSnapshot) int {
	target := t.Target
	if target <= 0 {
		target = sim.Second
	}
	switch tail, p99 := target.Seconds(), s.Metrics.TTFT.P99; {
	case p99 > tail:
		return 1
	case p99 < tail/4 && s.Starting == 0 && s.Draining == 0 &&
		s.Backlog() <= s.Ready:
		return -1
	}
	return 0
}

// FleetConfig scripts lifecycle events and attaches an autoscaler to a
// cluster run.
type FleetConfig struct {
	// Events are applied at their scheduled instants.
	Events []FleetEvent

	// Scaler, when set, observes the fleet every Cadence and emits
	// spawn/drain decisions; it spawns the first configured replica
	// shape.
	Scaler Autoscaler
	// Cadence is the autoscaler observation interval (default 5 s). Each
	// snapshot summarises the TTFT samples of the trailing six cadences.
	Cadence sim.Time
	// ColdStart is the spawn-to-ready delay of every spawn (default
	// 15 s — weight loading plus CUDA-graph capture).
	ColdStart sim.Time
	// Min and Max bound the autoscaler's fleet size, counting ready +
	// starting replicas (defaults: 1 and 64). Scheduled events are not
	// clamped.
	Min, Max int
}

// withDefaults resolves zero-valued knobs.
func (fc FleetConfig) withDefaults() FleetConfig {
	if fc.Cadence <= 0 {
		fc.Cadence = 5 * sim.Second
	}
	if fc.ColdStart <= 0 {
		fc.ColdStart = 15 * sim.Second
	}
	if fc.Min <= 0 {
		fc.Min = 1
	}
	if fc.Max <= 0 {
		fc.Max = 64
	}
	return fc
}

// validate rejects configurations that cannot be scheduled. initial is
// the starting fleet size; event targets beyond it must have been
// spawned by an earlier event. Replica IDs are assigned in firing
// order, so events are checked sorted by (At, list position) — exactly
// the order the simulator dispatches them in.
func (fc FleetConfig) validate(initial int) error {
	if fc.Min > 0 && fc.Max > 0 && fc.Min > fc.Max {
		return fmt.Errorf("cluster: fleet min %d exceeds max %d", fc.Min, fc.Max)
	}
	if fc.Min > MaxReplicas || fc.Max > MaxReplicas {
		return fmt.Errorf("cluster: fleet bounds %d..%d exceed the limit of %d replicas", fc.Min, fc.Max, MaxReplicas)
	}
	order := make([]int, len(fc.Events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return fc.Events[order[a]].At < fc.Events[order[b]].At
	})
	spawned := initial
	for _, i := range order {
		ev := fc.Events[i]
		if ev.At < 0 {
			return fmt.Errorf("cluster: fleet event %d at negative time %v", i, ev.At)
		}
		switch ev.Kind {
		case SpawnReplica:
			n, err := checkShape(ev.Spec)
			if err != nil {
				return err
			}
			if spawned += n; spawned > MaxReplicas {
				return fmt.Errorf("cluster: fleet events spawn past the limit of %d replicas", MaxReplicas)
			}
		case DrainReplica, FailReplica, RetireReplica:
			if ev.Replica < 0 || ev.Replica >= spawned {
				return fmt.Errorf("cluster: fleet event %d (%v at %v) targets replica %d, but only %d exist by then",
					i, ev.Kind, ev.At, ev.Replica, spawned)
			}
		case MarkEpoch:
		default:
			return fmt.Errorf("cluster: fleet event %d has unknown kind %d", i, int(ev.Kind))
		}
	}
	return nil
}

// FleetController applies scheduled fleet events and autoscaler
// decisions inside the cluster's event loop.
type FleetController struct {
	c           *Cluster
	cfg         FleetConfig
	lastArrival sim.Time
}

// attachFleet wires a controller into the cluster before the run starts.
// Controller events are scheduled before arrivals, so a fleet event and
// an arrival at the same instant apply the fleet change first.
func attachFleet(c *Cluster, cfg FleetConfig, lastArrival sim.Time) *FleetController {
	fc := &FleetController{c: c, cfg: cfg.withDefaults(), lastArrival: lastArrival}
	for _, ev := range fc.cfg.Events {
		ev := ev
		c.Sim.At(ev.At, func() { fc.apply(ev) })
	}
	if fc.cfg.Scaler != nil {
		c.Sim.AtFunc(fc.cfg.Cadence, fleetTick, fc)
	}
	return fc
}

// spawnSpec resolves the shape a spawn uses, preserving the requested
// count when it borrows the first replica's shape.
func (fc *FleetController) spawnSpec(spec ReplicaSpec) ReplicaSpec {
	if spec.Factory == nil {
		base := fc.c.Replicas[0].Spec
		base.Count = spec.Count
		return base
	}
	return spec
}

// apply executes one scheduled event.
func (fc *FleetController) apply(ev FleetEvent) {
	switch ev.Kind {
	case SpawnReplica:
		spec := fc.spawnSpec(ev.Spec)
		for range max(spec.Count, 1) {
			fc.c.Spawn(spec, fc.cfg.ColdStart)
		}
	case DrainReplica:
		fc.c.Drain(fc.c.Replica(ev.Replica))
	case FailReplica:
		fc.c.Fail(fc.c.Replica(ev.Replica))
	case RetireReplica:
		fc.c.Retire(fc.c.Replica(ev.Replica))
	case MarkEpoch:
		fc.c.mark("mark")
	}
}

// snapshot assembles the autoscaler's view of the fleet.
func (fc *FleetController) snapshot() FleetSnapshot {
	return FleetSnapshot{
		Now:      fc.c.Sim.Now(),
		Ready:    fc.c.countState(StateReady),
		Starting: fc.c.countState(StateStarting),
		Draining: fc.c.countState(StateDraining),
		Metrics:  fc.c.Snapshot(6 * fc.cfg.Cadence),
	}
}

// drainCandidate picks the replica a scale-in drains: the least-loaded
// ready replica, preferring the newest on ties so scale-in mirrors
// scale-out.
func (fc *FleetController) drainCandidate() *Replica {
	var best *Replica
	for _, rep := range fc.c.Replicas {
		if rep.State != StateReady {
			continue
		}
		if best == nil || rep.outTokens < best.outTokens ||
			(rep.outTokens == best.outTokens && rep.ID > best.ID) {
			best = rep
		}
	}
	return best
}

// tick runs one autoscaler observation, then re-arms itself while the
// run still has arrivals or unfinished work (so an idle tail does not
// stretch the makespan by empty ticks).
func (fc *FleetController) tick() {
	c := fc.c
	snap := fc.snapshot()
	d := fc.cfg.Scaler.Decide(snap)
	if c.trace != nil {
		// Record the decision with the signal that triggered it, so a
		// scale-up seen in the trace is attributable to the backlog or
		// TTFT tail the scaler observed at this tick.
		c.trace.Instant(c.Sim.Now(), "fleet", "autoscale",
			obs.Arg{Key: "scaler", Val: fc.cfg.Scaler.Name()},
			obs.Arg{Key: "decision", Val: d},
			obs.Arg{Key: "backlog", Val: snap.Metrics.Backlog},
			obs.Arg{Key: "p99_ttft_ms", Val: snap.Metrics.TTFT.P99 * 1e3},
			obs.Arg{Key: "ready", Val: snap.Ready},
			obs.Arg{Key: "starting", Val: snap.Starting},
			obs.Arg{Key: "draining", Val: snap.Draining})
	}
	size := snap.Ready + snap.Starting
	for ; d > 0 && size < fc.cfg.Max; d-- {
		c.Spawn(fc.spawnSpec(ReplicaSpec{}), fc.cfg.ColdStart)
		size++
	}
	for ; d < 0 && size > fc.cfg.Min; d++ {
		rep := fc.drainCandidate()
		if rep == nil {
			break
		}
		c.Drain(rep)
		size--
	}
	if c.Sim.Now() < fc.lastArrival || c.Unfinished() > 0 {
		c.Sim.AfterFunc(fc.cfg.Cadence, fleetTick, fc)
	}
}

// fleetTick is the bound re-arm callback: the controller rides as the
// event argument, so a run's thousands of ticks share zero closures.
func fleetTick(arg any) { arg.(*FleetController).tick() }
