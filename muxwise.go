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

	"muxwise/internal/cluster"
	"muxwise/internal/experiments"
	"muxwise/internal/gpu"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
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
	// aggregated engines).
	GPUs int
	// Model names an architecture: "Llama-8B", "Llama-70B",
	// "Qwen3-235B-A22B", or "CodeLlama-34B".
	Model string
	// SLO sets the latency targets; zero values use per-model defaults
	// (50 ms TBT for small models, 100 ms for large, per §4.1).
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
	if gpus <= 0 {
		gpus = 8
	}
	if gpus > MaxGPUs {
		return serve.Config{}, fmt.Errorf("muxwise: %d GPUs exceeds the limit of %d", gpus, MaxGPUs)
	}
	slo := d.SLO
	if slo.TBT == 0 {
		slo.TBT = 100 * sim.Millisecond
		if arch.Params() < 30e9 {
			slo.TBT = 50 * sim.Millisecond
		}
	}
	if slo.TTFT == 0 {
		slo.TTFT = sim.Second
	}
	return serve.Config{Spec: spec, GPUs: gpus, Arch: arch, SLO: slo}, nil
}

// Engines lists the available engine names.
func Engines() []string {
	return []string{"MuxWise", "Chunked", "NanoFlow", "LoongServe", "SGLang-PD", "WindServe", "Temporal"}
}

// factory resolves an engine name.
func factory(engine string) (serve.Factory, error) {
	f, ok := experiments.Baselines()[engine]
	if !ok {
		return nil, fmt.Errorf("muxwise: unknown engine %q (have %v)", engine, Engines())
	}
	return f, nil
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
	// FleetLogEntry is one timestamped fleet lifecycle message.
	FleetLogEntry = cluster.LogEntry
)

// ReplicaSpec describes one shape of replica in a fleet (WithFleet).
type ReplicaSpec struct {
	// Engine names the serving engine, see Engines().
	Engine string
	// Count is how many replicas of this shape to run (default 1).
	Count int
	// GPUs overrides the deployment's per-replica device count.
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
// registries.
func (rs ReplicaSpec) spec() (cluster.ReplicaSpec, error) {
	f, err := factory(rs.Engine)
	if err != nil {
		return cluster.ReplicaSpec{}, err
	}
	role, err := cluster.ParseRole(rs.Role)
	if err != nil {
		return cluster.ReplicaSpec{}, err
	}
	out := cluster.ReplicaSpec{
		Engine: rs.Engine, Factory: f, Count: rs.Count, GPUs: rs.GPUs, Role: role,
	}
	if rs.Hardware != "" {
		spec, ok := gpu.SpecByName(rs.Hardware)
		if !ok {
			return cluster.ReplicaSpec{}, fmt.Errorf("muxwise: unknown hardware %q", rs.Hardware)
		}
		out.Hardware = spec
	}
	return out, nil
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
	// ColdStart overrides the fleet-wide spawn-to-ready delay for this
	// spawn (zero means the FleetOptions default).
	ColdStart Time
}

// FleetOptions attaches lifecycle events and autoscaling to a fleet
// (WithFleetOptions).
type FleetOptions struct {
	// Events are scheduled fleet transitions.
	Events []FleetEvent
	// Autoscaler is "", "backlog", or "ttft".
	Autoscaler string
	// TargetTTFT is the "ttft" autoscaler's P99 target (default 1 s).
	TargetTTFT Time
	// Cadence is the autoscaler observation interval (default 5 s).
	Cadence Time
	// ColdStart is the spawn-to-ready delay (default 15 s).
	ColdStart Time
	// Spawn is the shape the autoscaler adds; nil borrows the first
	// configured replica shape.
	Spawn *ReplicaSpec
	// MinReplicas and MaxReplicas bound the autoscaler (defaults 1, 64).
	MinReplicas, MaxReplicas int
	// Migration enables KV streaming on graceful takedowns (drain,
	// retire, autoscaler scale-down): instead of repaying a full
	// re-prefill, a leaving replica's in-flight sessions stream their KV
	// to the replica their traffic re-routes to, at the modeled
	// interconnect cost (NVLink within a hardware shape, PCIe across
	// shapes). Failures still lose their KV — including streams caught
	// mid-flight by the crash.
	Migration bool
	// MigrationHandoff overrides the fixed per-session stream setup
	// latency (default 8 ms).
	MigrationHandoff Time
}

// fleetConfig resolves the public fleet options.
func (fo *FleetOptions) fleetConfig() (*cluster.FleetConfig, error) {
	if fo == nil {
		return nil, nil
	}
	fc := &cluster.FleetConfig{
		Cadence:   fo.Cadence,
		ColdStart: fo.ColdStart,
		Min:       fo.MinReplicas,
		Max:       fo.MaxReplicas,
	}
	if fo.Autoscaler != "" {
		mk, ok := cluster.Scalers()[fo.Autoscaler]
		if !ok {
			return nil, fmt.Errorf("muxwise: unknown autoscaler %q (have %v)", fo.Autoscaler, AutoscalerPolicies())
		}
		sc := mk()
		// The TTFT target flows through the plugin seam: any scaler —
		// built-in or registered — that implements TTFTTargeted gets it.
		if tt, ok := sc.(cluster.TTFTTargeted); ok && fo.TargetTTFT > 0 {
			sc = tt.WithTarget(fo.TargetTTFT)
		}
		fc.Scaler = sc
	}
	if fo.Spawn != nil {
		spec, err := fo.Spawn.spec()
		if err != nil {
			return nil, err
		}
		fc.Spawn = spec
	}
	for _, ev := range fo.Events {
		out := cluster.FleetEvent{At: ev.At, Replica: ev.Replica, ColdStart: ev.ColdStart}
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
			spec, err := ev.Spec.spec()
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
// per-replica default), replicas the fleet shapes, router the policy
// (empty selects prefix-affinity) and fleet the optional lifecycle
// options.
func clusterConfig(dep Deployment, replicas []ReplicaSpec, router string, fleet *FleetOptions) (cluster.Config, error) {
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
		spec, err := rs.spec()
		if err != nil {
			return cluster.Config{}, err
		}
		cfg.Replicas = append(cfg.Replicas, spec)
	}
	cfg.Fleet, err = fleet.fleetConfig()
	if err != nil {
		return cluster.Config{}, err
	}
	if fleet != nil {
		cfg.Migration = cluster.MigrationConfig{
			Enabled: fleet.Migration,
			Handoff: fleet.MigrationHandoff,
		}
	}
	return cfg, nil
}
