// Package muxwise is a discrete-event reproduction of "Towards
// High-Goodput LLM Serving with Prefill-decode Multiplexing" (ASPLOS
// 2026). It provides the MuxWise serving engine — intra-GPU
// prefill-decode multiplexing on SM partitions — together with the five
// baseline systems the paper compares against, the workload generators of
// its evaluation, and a benchmark harness that regenerates every table
// and figure.
//
// # Quick start
//
// Everything runs through one composable runner, the Experiment:
//
//	trace := muxwise.ShareGPT(1, 500).WithPoissonArrivals(1, 5)
//	dep := muxwise.Deployment{
//		Hardware: "A100", GPUs: 8, Model: "Llama-8B",
//		SLO: muxwise.SLO{TTFT: 500 * muxwise.Millisecond, TBT: 50 * muxwise.Millisecond},
//	}
//	exp := muxwise.NewExperiment(muxwise.WithDeployment(dep), muxwise.WithEngine("MuxWise"))
//	report, err := exp.Run(trace)
//	fmt.Println(report.Summary.TTFT, report.Summary.TBT)
//
// Engines are selected by name: "MuxWise", "Chunked", "NanoFlow",
// "LoongServe", "SGLang-PD", "WindServe", "Temporal". Everything runs on
// a deterministic simulator — no GPU required.
//
// # Clusters
//
// WithFleet scales the same simulation to a replica fleet behind an
// EPP-style request router (round-robin, least-tokens, prefix-affinity,
// pd-split, adaptive-ttft):
//
//	exp := muxwise.NewExperiment(
//		muxwise.WithDeployment(dep),
//		muxwise.WithFleet(
//			muxwise.ReplicaSpec{Engine: "MuxWise", Count: 6},
//			muxwise.ReplicaSpec{Engine: "SGLang-PD", Count: 2, Role: "prefill"},
//		),
//		muxwise.WithRouter("pd-split"),
//	)
//	report, err := exp.Run(trace)
//
// Routers and autoscalers are pluggable: implement Router or Autoscaler
// against the read-only FleetView/FleetSnapshot and register the policy
// by name (RegisterRouter, RegisterAutoscaler) to use it anywhere a
// built-in name works. The "adaptive-ttft" policy — per-replica EWMA of
// observed TTFT — is the reference learned router built on that seam.
package muxwise

import (
	"fmt"
	"time"

	"muxwise/internal/chunked"
	"muxwise/internal/cluster"
	"muxwise/internal/core"
	"muxwise/internal/gpu"
	"muxwise/internal/loong"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/nanoflow"
	"muxwise/internal/pdsep"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
	"muxwise/internal/temporal"
	"muxwise/internal/windserve"
	"muxwise/internal/workload"
)

// Time is simulated time in nanoseconds (layout-compatible with
// time.Duration).
type Time = sim.Time

// Re-exported time units for SLO construction.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Size limits: a deployment or replica shape spans at most MaxGPUs
// devices, and a fleet — initial replicas, scheduled spawns and the
// autoscaler's ceiling — holds at most MaxReplicas replicas; both are
// checked before anything is built. WithEpochs cuts a run into at most
// MaxWindows reporting windows, checked once the run's makespan is known.
const (
	MaxGPUs     = serve.MaxGPUs
	MaxReplicas = cluster.MaxReplicas
	MaxWindows  = 100_000
)

// FromDuration converts a wall-clock duration to simulated time.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Core types re-exported from the internal packages.
type (
	// SLO holds the TTFT and TBT latency targets.
	SLO = metrics.SLO
	// Summary aggregates a run's latency statistics.
	Summary = metrics.Summary
	// Quantiles is a latency distribution summary.
	Quantiles = metrics.Quantiles
	// Trace is a generated request trace.
	Trace = workload.Trace
	// Request is a single trace entry.
	Request = workload.Request
	// Segment is a run of one content stream's pages; a Request's
	// Segments describe its AllPages in order.
	Segment = workload.Segment
	// Result couples a run's summary with engine accounting.
	Result = serve.Result
	// RatePoint is one sample of a load sweep.
	RatePoint = serve.RatePoint
	// Arch describes an LLM architecture.
	Arch = model.Arch
	// GPUSpec describes GPU hardware.
	GPUSpec = gpu.Spec
)

// Workload generators (Table 1 statistics).
var (
	// ShareGPT generates chatbot requests.
	ShareGPT = workload.ShareGPT
	// LooGLE generates long-context understanding requests.
	LooGLE = workload.LooGLE
	// OpenThoughts generates reasoning requests with a shared prompt.
	OpenThoughts = workload.OpenThoughts
	// Conversation generates multi-turn chatbot sessions.
	Conversation = workload.Conversation
	// ToolAgent generates multi-turn tool/agent sessions.
	ToolAgent = workload.ToolAgent
	// MixTraces interleaves traces by arrival time.
	MixTraces = workload.Mix
	// ConversationProfile is the bursty Fig. 13 Conversation rate shape.
	ConversationProfile = workload.ConversationProfile
	// ToolAgentProfile is the bursty Fig. 13 Tool&Agent rate shape.
	ToolAgentProfile = workload.ToolAgentProfile
	// ReadTraceJSONL loads a trace written by Trace.WriteJSONL.
	ReadTraceJSONL = workload.ReadJSONL
	// PageSegments gives a hand-built Request's pages their segments.
	PageSegments = workload.PageSegments
)

// MixedBursty builds the Fig. 13 bursty Conversation + Tool&Agent mix
// the cluster tooling replays: the given number of sessions of each
// workload, profile-paced at the given burst scale (Tool&Agent seeded
// at seed+1). muxcluster, tracegen and the cluster example all replay
// exactly this trace.
func MixedBursty(seed uint64, sessions int, scale float64) *Trace {
	conv := Conversation(seed, sessions).
		WithProfileArrivals(seed, ConversationProfile(scale))
	tool := ToolAgent(seed+1, sessions).
		WithProfileArrivals(seed+1, ToolAgentProfile(scale))
	return MixTraces("Conversation+Tool&Agent", conv, tool)
}

// Deployment describes the simulated serving hardware and model.
type Deployment struct {
	// Hardware names a GPU spec: "A100", "H100", "H200", or "B200".
	Hardware string
	// GPUs is the number of devices (tensor-parallel width for
	// aggregated engines); zero means 8, a negative count is an error.
	GPUs int
	// Model names an architecture: "Llama-8B", "Llama-70B",
	// "Qwen3-235B-A22B", or "CodeLlama-34B".
	Model string
	// SLO sets the latency targets; zero values use per-model defaults
	// (1 s TTFT; 50 ms TBT for small models, 100 ms for large, per
	// §4.1), and a negative target is an error.
	SLO SLO
}

// config resolves the deployment into a serve.Config.
func (d Deployment) config() (serve.Config, error) {
	spec, ok := gpu.SpecByName(d.Hardware)
	if !ok {
		return serve.Config{}, fmt.Errorf("muxwise: unknown hardware %q", d.Hardware)
	}
	arch, ok := model.ByName(d.Model)
	if !ok {
		return serve.Config{}, fmt.Errorf("muxwise: unknown model %q", d.Model)
	}
	gpus := d.GPUs
	if gpus == 0 {
		gpus = 8
	}
	if gpus < 0 || gpus > MaxGPUs {
		return serve.Config{}, fmt.Errorf("muxwise: %d GPUs is outside [1, %d]", gpus, MaxGPUs)
	}
	slo := d.SLO
	if slo.TTFT < 0 || slo.TBT < 0 {
		return serve.Config{}, fmt.Errorf("muxwise: SLO targets TTFT %v and TBT %v must not be negative", slo.TTFT, slo.TBT)
	}
	if slo.TBT == 0 {
		slo.TBT = 100 * sim.Millisecond
		if arch.Params() < 30e9 {
			slo.TBT = 50 * sim.Millisecond
		}
	}
	if slo.TTFT == 0 {
		slo.TTFT = sim.Second
	}
	cfg := serve.Config{Spec: spec, GPUs: gpus, Arch: arch, SLO: slo}
	return cfg, fits(cfg)
}

// fits rejects a serving shape whose model weights leave no room for a
// KV pool: every engine on it would finish no request.
func fits(cfg serve.Config) error {
	if cfg.PoolTokens(cfg.GPUs) <= 0 {
		return fmt.Errorf("muxwise: %s does not fit %d %s GPUs: its weights leave no room for a KV cache",
			cfg.Arch.Name, cfg.GPUs, cfg.Spec.Name)
	}
	return nil
}

// engineEntry is one row of the engine table.
type engineEntry struct {
	name    string
	factory serve.Factory
	// instanceGPUs, for an engine that splits its GPUs into instances
	// with a KV pool each, gives the GPUs of one instance.
	instanceGPUs func(gpus int) int
}

// fitsInstances rejects a serving shape that fits passed whole but
// whose model weights leave no room for a KV pool on one of e's
// instances.
func (e engineEntry) fitsInstances(cfg serve.Config) error {
	if e.instanceGPUs == nil {
		return nil
	}
	if gpus := e.instanceGPUs(cfg.GPUs); cfg.PoolTokens(gpus) <= 0 {
		return fmt.Errorf("muxwise: %s does not fit the %d-GPU instances %s splits %d %s GPUs into: its weights leave no room for a KV cache",
			cfg.Arch.Name, gpus, e.name, cfg.GPUs, cfg.Spec.Name)
	}
	return nil
}

// engines is the engine table: every servable engine by name, in
// Engines() order.
var engines = []engineEntry{
	{name: "MuxWise", factory: core.New},
	{name: "Chunked", factory: chunked.New},
	{name: "NanoFlow", factory: nanoflow.New},
	{name: "LoongServe", factory: loong.New},
	{name: "SGLang-PD", factory: pdsep.New, instanceGPUs: pdsep.InstanceGPUs},
	{name: "WindServe", factory: windserve.New},
	{name: "Temporal", factory: temporal.New},
}

// Engines lists the available engine names.
func Engines() []string {
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.name
	}
	return names
}

// engineByName resolves an engine name.
func engineByName(name string) (engineEntry, error) {
	for _, e := range engines {
		if e.name == name {
			return e, nil
		}
	}
	return engineEntry{}, fmt.Errorf("muxwise: unknown engine %q (have %v)", name, Engines())
}

// Cluster types re-exported from internal/cluster.
type (
	// ClusterResult aggregates a fleet run: the merged fleet summary,
	// per-replica rollups, and — for lifecycle-managed fleets — the
	// per-epoch rollups and the fleet event log.
	ClusterResult = cluster.Result
	// ClusterReplicaResult is one replica's rollup in a ClusterResult.
	ClusterReplicaResult = cluster.ReplicaResult
	// ClusterEpoch is one fleet epoch's rollup (the interval between
	// consecutive fleet mutations).
	ClusterEpoch = cluster.Epoch
	// FleetLogEntry is one timestamped fleet lifecycle event, kept as
	// typed fields: its Msg method renders the message, and String the
	// time followed by the message.
	FleetLogEntry = cluster.LogEntry
)

// ReplicaSpec describes one shape of replica in a fleet (WithFleet).
type ReplicaSpec struct {
	// Engine names the serving engine, see Engines().
	Engine string
	// Count is how many replicas of this shape to run (zero means 1).
	Count int
	// GPUs overrides the deployment's per-replica device count (zero
	// inherits it).
	GPUs int
	// Hardware overrides the deployment's GPU spec for this shape
	// ("A100", "H100", "H200", "B200"); empty inherits the deployment. Mixing
	// shapes builds a heterogeneous fleet, each replica costed by its
	// own hardware model.
	Hardware string
	// Role is "", "general", "prefill", or "decode"; the pd-split
	// router steers long-prefill requests to prefill-role replicas.
	Role string
}

// spec resolves the public replica spec against the engine and hardware
// registries and checks that the model fits the replica it gives on
// base's deployment.
func (rs ReplicaSpec) spec(base serve.Config) (cluster.ReplicaSpec, error) {
	if rs.Count < 0 {
		return cluster.ReplicaSpec{}, fmt.Errorf("muxwise: %s replica count %d is negative", rs.Engine, rs.Count)
	}
	if rs.GPUs < 0 || rs.GPUs > MaxGPUs {
		return cluster.ReplicaSpec{}, fmt.Errorf("muxwise: %d GPUs per %s replica is outside [0, %d]", rs.GPUs, rs.Engine, MaxGPUs)
	}
	eng, err := engineByName(rs.Engine)
	if err != nil {
		return cluster.ReplicaSpec{}, err
	}
	role, err := cluster.ParseRole(rs.Role)
	if err != nil {
		return cluster.ReplicaSpec{}, err
	}
	out := cluster.ReplicaSpec{
		Engine: rs.Engine, Factory: eng.factory, Count: rs.Count, GPUs: rs.GPUs, Role: role,
	}
	if rs.Hardware != "" {
		spec, ok := gpu.SpecByName(rs.Hardware)
		if !ok {
			return cluster.ReplicaSpec{}, fmt.Errorf("muxwise: unknown hardware %q", rs.Hardware)
		}
		out.Hardware = spec
	}
	cfg := out.Config(base)
	if err := fits(cfg); err != nil {
		return cluster.ReplicaSpec{}, err
	}
	return out, eng.fitsInstances(cfg)
}

// FleetEvent schedules one fleet lifecycle transition inside a cluster
// run's deterministic event loop.
type FleetEvent struct {
	// At is when the event applies.
	At Time
	// Kind is "spawn", "drain", "fail", "retire", or "mark" (an epoch
	// boundary with no fleet change, for aligning reports across runs).
	Kind string
	// Replica targets drain/fail/retire by ID: replicas are numbered in
	// spawn order, the initial fleet first.
	Replica int
	// Spec is the shape a spawn adds; nil borrows the first configured
	// replica shape.
	Spec *ReplicaSpec
}

// fleetConfig resolves the experiment's fleet lifecycle options
// (WithEvents, WithAutoscaler, WithColdStart, WithScaleBounds); spawned
// replicas run on base's deployment.
func (e *Experiment) fleetConfig(base serve.Config) (*cluster.FleetConfig, error) {
	fc := &cluster.FleetConfig{ColdStart: e.coldStart, Min: e.minReps, Max: e.maxReps}
	if e.autoscaler != "" {
		mk, ok := cluster.Scalers()[e.autoscaler]
		if !ok {
			return nil, fmt.Errorf("muxwise: unknown autoscaler %q (have %v)", e.autoscaler, AutoscalerPolicies())
		}
		fc.Scaler = mk()
	}
	for _, ev := range e.events {
		out := cluster.FleetEvent{At: ev.At, Replica: ev.Replica}
		switch ev.Kind {
		case "spawn":
			out.Kind = cluster.SpawnReplica
		case "drain":
			out.Kind = cluster.DrainReplica
		case "fail":
			out.Kind = cluster.FailReplica
		case "retire":
			out.Kind = cluster.RetireReplica
		case "mark":
			out.Kind = cluster.MarkEpoch
		default:
			return nil, fmt.Errorf("muxwise: unknown fleet event kind %q (want spawn, drain, fail, retire, mark)", ev.Kind)
		}
		if ev.Spec != nil {
			spec, err := ev.Spec.spec(base)
			if err != nil {
				return nil, err
			}
			out.Spec = spec
		}
		fc.Events = append(fc.Events, out)
	}
	return fc, nil
}

// clusterConfig resolves a fleet deployment into a cluster.Config: dep
// supplies the per-replica hardware, model and SLO (its GPUs field is the
// per-replica default), replicas the fleet shapes and router the policy
// (empty selects prefix-affinity).
func clusterConfig(dep Deployment, replicas []ReplicaSpec, router string) (cluster.Config, error) {
	base, err := dep.config()
	if err != nil {
		return cluster.Config{}, err
	}
	if router == "" {
		router = cluster.PrefixAffinityPolicy
	}
	policy, err := cluster.ResolvePolicy(router)
	if err != nil {
		return cluster.Config{}, fmt.Errorf("muxwise: %w", err)
	}
	cfg := cluster.Config{Base: base, Policy: policy}
	for _, rs := range replicas {
		spec, err := rs.spec(base)
		if err != nil {
			return cluster.Config{}, err
		}
		cfg.Replicas = append(cfg.Replicas, spec)
	}
	return cfg, nil
}
