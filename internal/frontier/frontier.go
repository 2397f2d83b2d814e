// Package frontier sweeps the goodput-per-GPU frontier of Fig. 13: the
// paper's headline claim that aggregated serving wins at low burst
// scales while disaggregated and mixed P/D fleets overtake it as bursts
// grow. It is a scenario-matrix engine — fleet composition × burst
// scale × operating condition × router policy — where every cell replays
// the same Fig. 13 bursty Conversation + Tool&Agent mix through one
// muxwise.Experiment and reports DistServe-style SLO goodput normalised
// by the GPU-seconds the fleet actually provisioned.
//
// The output is a canonical, deterministic Report (sorted cells,
// fixed-precision floats, crossover-point extraction) built for golden
// regression testing: committed testdata goldens pin every cell's
// goodput, the per-(condition, router) frontier leaders, and the
// crossover burst scale, so a change that silently shifts the
// reproduction's physics fails `go test ./internal/frontier`.
package frontier

import (
	"fmt"
	"sort"

	"muxwise"
	"muxwise/internal/cluster"
	"muxwise/internal/experiments"
	"muxwise/internal/par"
	"muxwise/internal/sim"
)

// Composition is one fleet shape under comparison. GPU totals are
// derived from the replica specs at run time (including autoscaled
// spawns), so compositions of different sizes compare fairly on the
// per-GPU axis.
type Composition struct {
	// Name keys the composition in cells and goldens ("aggregated",
	// "disaggregated", "mixed", ...).
	Name string
	// Replicas is the initial fleet.
	Replicas []muxwise.ReplicaSpec
}

// Condition names for Matrix.Conditions.
const (
	// Steady runs the fleet unchanged end to end.
	Steady = "steady"
	// Failure crashes replica 0 mid-run (at failFrac of the arrival
	// span): in-flight work re-dispatches and its KV is re-prefilled
	// wherever sessions re-stick.
	Failure = "failure"
	// Autoscale attaches the backlog autoscaler with a cold-start delay,
	// letting the fleet grow by maxSpawn replicas under burst pressure.
	Autoscale = "autoscale"
	// Drain rolls replica 0 out gracefully mid-run (a replacement
	// spawns first, so capacity holds): its sessions re-route and repay
	// a full KV re-prefill on their next turn — the re-prefill
	// baseline.
	Drain = "drain"
	// DrainMigrate is the same rolling drain with KV migration enabled:
	// the leaving replica streams its sessions' KV to the re-routed
	// target at the modeled interconnect cost. Contrast with Drain to
	// read the transfer-vs-recompute tradeoff off the frontier.
	DrainMigrate = "drain-migrate"
)

// The operating conditions' fixed settings.
const (
	// failFrac places the Failure condition's crash as a fraction of the
	// arrival span.
	failFrac = 0.4
	// drainFrac places the Drain/DrainMigrate conditions' rolling drain
	// as a fraction of the arrival span; the replacement spawns
	// coldStart earlier so it is ready at the drain instant.
	drainFrac = 0.4
	// coldStart is the spawn-to-ready delay of every spawn.
	coldStart = 15 * muxwise.Second
	// maxSpawn bounds how many replicas the autoscaler may add on top of
	// the initial fleet.
	maxSpawn = 2
)

// Matrix describes one frontier sweep. The zero value is not runnable;
// start from Default.
type Matrix struct {
	// Name labels the sweep in the report.
	Name string
	// Deployment is the per-replica hardware/model/SLO base.
	Deployment muxwise.Deployment
	// Compositions are the fleet shapes under comparison. Baseline names
	// the aggregated reference the crossover is extracted against.
	Compositions []Composition
	Baseline     string
	// Routers, Conditions and Scales are the remaining sweep axes.
	Routers    []string
	Conditions []string
	Scales     []float64
	// Sessions sizes the Fig. 13 mixed trace (per workload).
	Sessions int
	// Seed drives trace generation.
	Seed uint64
	// CostModel selects the step-time estimator for every cell: "" or
	// "fitted" for the paper's profiled planes, "roofline" for the
	// analytical datasheet model (required for shapes with no profile,
	// e.g. B200 or Llama-70B compositions).
	CostModel string
}

// Default returns the reference Fig. 13 frontier matrix: an aggregated
// 2-GPU MuxWise fleet against 4-GPU disaggregated and mixed P/D fleets,
// across burst scales, conditions and routers. quick shrinks the trace
// and the scale grid to the CI-sized sweep the committed goldens pin.
func Default(quick bool) Matrix {
	o := experiments.Opts{Quick: quick}
	scales := []float64{0.5, 1, 2, 4, 8}
	if quick {
		scales = []float64{0.5, 2, 4}
	}
	return Matrix{
		Name: "fig13-frontier",
		Deployment: muxwise.Deployment{
			Hardware: "A100", GPUs: 1, Model: "Llama-8B",
			SLO: muxwise.SLO{TTFT: muxwise.Second, TBT: 50 * muxwise.Millisecond},
		},
		Compositions: []Composition{
			{Name: "aggregated", Replicas: []muxwise.ReplicaSpec{
				{Engine: "MuxWise", Count: 2},
			}},
			{Name: "disaggregated", Replicas: []muxwise.ReplicaSpec{
				{Engine: "SGLang-PD", Count: 2, Role: "prefill"},
				{Engine: "SGLang-PD", Count: 2, Role: "decode"},
			}},
			{Name: "mixed", Replicas: []muxwise.ReplicaSpec{
				{Engine: "MuxWise", Count: 2},
				{Engine: "SGLang-PD", Count: 1, Role: "prefill"},
				{Engine: "SGLang-PD", Count: 1, Role: "decode"},
			}},
		},
		Baseline:   "aggregated",
		Routers:    []string{"least-tokens", "pd-split", "adaptive-ttft"},
		Conditions: []string{Steady, Failure, Autoscale, Drain, DrainMigrate},
		Scales:     scales,
		Sessions:   o.Size(150, 60),
		Seed:       11,
	}
}

// Roofline returns the frontier matrix the fitted estimator cannot
// sweep: Llama-70B on next-generation hardware, priced by the analytical
// roofline cost model (internal/roofline). An aggregated 2×B200 MuxWise
// fleet is compared against a disaggregated B200 P/D split and an
// H200-based aggregated fleet of the same replica count, answering the
// ROADMAP's H200/B200-composition and 70B-SLO questions on the same
// goodput-per-GPU axis as Default. quick shrinks the trace and scale grid
// to the CI-sized sweep the committed golden pins.
func Roofline(quick bool) Matrix {
	o := experiments.Opts{Quick: quick}
	scales := []float64{0.5, 1, 2, 4}
	if quick {
		scales = []float64{0.5, 2}
	}
	return Matrix{
		Name: "roofline-b200-70b",
		Deployment: muxwise.Deployment{
			Hardware: "B200", GPUs: 2, Model: "Llama-70B",
			SLO: muxwise.SLO{TTFT: 2 * muxwise.Second, TBT: 100 * muxwise.Millisecond},
		},
		Compositions: []Composition{
			{Name: "aggregated", Replicas: []muxwise.ReplicaSpec{
				{Engine: "MuxWise", Count: 2},
			}},
			{Name: "disaggregated", Replicas: []muxwise.ReplicaSpec{
				{Engine: "SGLang-PD", Count: 2, Role: "prefill"},
				{Engine: "SGLang-PD", Count: 2, Role: "decode"},
			}},
			{Name: "aggregated-h200", Replicas: []muxwise.ReplicaSpec{
				{Engine: "MuxWise", Count: 2, Hardware: "H200"},
			}},
		},
		Baseline:   "aggregated",
		Routers:    []string{"least-tokens"},
		Conditions: []string{Steady},
		Scales:     scales,
		Sessions:   o.Size(120, 40),
		Seed:       17,
		CostModel:  muxwise.CostRoofline,
	}
}

// withDefaults resolves an empty baseline and puts the scale grid in
// canonical ascending order — crossover extraction reads "smallest
// scale" off the grid's iteration order, so the order is semantics, not
// presentation.
func (m Matrix) withDefaults() Matrix {
	scales := append([]float64(nil), m.Scales...)
	sort.Float64s(scales)
	m.Scales = scales
	if m.Baseline == "" && len(m.Compositions) > 0 {
		m.Baseline = m.Compositions[0].Name
	}
	return m
}

// validate rejects matrices that cannot be swept.
func (m Matrix) validate() error {
	if len(m.Compositions) == 0 || len(m.Routers) == 0 ||
		len(m.Conditions) == 0 || len(m.Scales) == 0 {
		return fmt.Errorf("frontier: matrix needs at least one composition, router, condition and scale")
	}
	if m.Sessions <= 0 {
		return fmt.Errorf("frontier: matrix needs a positive session count")
	}
	names := map[string]bool{}
	for _, c := range m.Compositions {
		if c.Name == "" || len(c.Replicas) == 0 {
			return fmt.Errorf("frontier: composition %q needs a name and replicas", c.Name)
		}
		if names[c.Name] {
			return fmt.Errorf("frontier: duplicate composition %q", c.Name)
		}
		names[c.Name] = true
	}
	if !names[m.Baseline] {
		return fmt.Errorf("frontier: baseline %q is not a configured composition", m.Baseline)
	}
	for _, cond := range m.Conditions {
		switch cond {
		case Steady, Failure, Autoscale, Drain, DrainMigrate:
		default:
			return fmt.Errorf("frontier: unknown condition %q (want %s, %s, %s, %s, %s)",
				cond, Steady, Failure, Autoscale, Drain, DrainMigrate)
		}
	}
	// validate runs after withDefaults, so the grid is already sorted
	// ascending and duplicates sit adjacent.
	for i, s := range m.Scales {
		if s <= 0 {
			return fmt.Errorf("frontier: burst scale %g must be positive", s)
		}
		if i > 0 && s == m.Scales[i-1] {
			return fmt.Errorf("frontier: duplicate burst scale %g", s)
		}
	}
	return nil
}

// initialCount returns how many replicas a composition starts with.
func initialCount(c Composition) int {
	n := 0
	for _, rs := range c.Replicas {
		n += max(rs.Count, 1)
	}
	return n
}

// cellKey orders a sweep's cells canonically.
type cellKey struct {
	cond, router, comp string
	scale              float64
}

// Run sweeps the whole matrix and assembles the canonical report. Every
// cell is an independent deterministic simulation, so cells fan out
// across CPUs without changing a single byte of the result.
func Run(m Matrix) (*Report, error) {
	m = m.withDefaults()
	if err := m.validate(); err != nil {
		return nil, err
	}

	var keys []cellKey
	for _, cond := range m.Conditions {
		for _, router := range m.Routers {
			for _, comp := range m.Compositions {
				for _, s := range m.Scales {
					keys = append(keys, cellKey{cond, router, comp.Name, s})
				}
			}
		}
	}
	comps := map[string]Composition{}
	for _, c := range m.Compositions {
		comps[c.Name] = c
	}

	type outcome struct {
		cell Cell
		err  error
	}
	results := par.RunIndexed(len(keys), func(i int) outcome {
		k := keys[i]
		cell, err := m.runCell(comps[k.comp], k.cond, k.router, k.scale)
		return outcome{cell: cell, err: err}
	})
	rep := &Report{
		Schema: Schema,
		Name:   m.Name,
		Grid: Grid{
			Compositions: compositionNames(m.Compositions),
			Baseline:     m.Baseline,
			Conditions:   append([]string(nil), m.Conditions...),
			Routers:      append([]string(nil), m.Routers...),
			Scales:       roundAll(m.Scales),
			Sessions:     m.Sessions,
			Seed:         m.Seed,
			CostModel:    m.CostModel,
		},
	}
	for _, o := range results {
		if o.err != nil {
			return nil, o.err
		}
		rep.Cells = append(rep.Cells, o.cell)
	}
	rep.canonicalize()
	rep.extractFrontiers(m.Baseline)
	return rep, nil
}

// compositionNames lists composition names in configuration order.
func compositionNames(comps []Composition) []string {
	out := make([]string, len(comps))
	for i, c := range comps {
		out[i] = c.Name
	}
	return out
}

// runCell replays one (composition, condition, router, scale) cell and
// reduces it to the report row.
func (m Matrix) runCell(comp Composition, cond, router string, scale float64) (Cell, error) {
	// Each cell regenerates its trace: traces carry mutable per-request
	// state (IDs, arrival bookkeeping), so concurrent cells must not
	// share one. Generation is seeded, so every cell at a scale replays
	// byte-identical arrivals over the identical offered window —
	// compositions and routers compare on the same span.
	trace := muxwise.MixedBursty(m.Seed, m.Sessions, scale)
	var span sim.Time
	for _, r := range trace.Requests {
		if r.Arrival > span {
			span = r.Arrival
		}
	}
	if span <= 0 {
		return Cell{}, fmt.Errorf("frontier: scale %g trace has no arrival span (sessions %d)", scale, m.Sessions)
	}
	opts := []muxwise.Option{
		muxwise.WithDeployment(m.Deployment),
		muxwise.WithFleet(comp.Replicas...),
		muxwise.WithRouter(router),
	}
	if m.CostModel != "" {
		opts = append(opts, muxwise.WithCostModel(m.CostModel))
	}
	switch cond {
	case Failure:
		failAt := muxwise.Time(float64(span) * failFrac)
		opts = append(opts, muxwise.WithEvents(muxwise.FleetEvent{
			At: failAt, Kind: "fail", Replica: 0,
		}))
	case Autoscale:
		opts = append(opts,
			muxwise.WithAutoscaler("backlog"),
			muxwise.WithColdStart(coldStart),
			muxwise.WithScaleBounds(1, initialCount(comp)+maxSpawn),
		)
	case Drain, DrainMigrate:
		// A rolling drain of replica 0: the replacement (same shape)
		// spawns coldStart plus a short lead ahead, so it is routable
		// when its predecessor leaves and capacity never dips — the two
		// conditions then differ only in how the drained replica's
		// session KV moves.
		drainAt := muxwise.Time(float64(span) * drainFrac)
		spawnAt := drainAt - coldStart - 2*muxwise.Second
		if spawnAt < 0 {
			spawnAt = 0
		}
		spec := comp.Replicas[0]
		spec.Count = 1
		opts = append(opts,
			muxwise.WithColdStart(coldStart),
			muxwise.WithEvents(
				muxwise.FleetEvent{At: spawnAt, Kind: "spawn", Spec: &spec},
				muxwise.FleetEvent{At: drainAt, Kind: "drain", Replica: 0},
			),
		)
		if cond == DrainMigrate {
			opts = append(opts, muxwise.WithMigration())
		}
	}
	rep, err := muxwise.NewExperiment(opts...).Run(trace)
	if err != nil {
		return Cell{}, fmt.Errorf("frontier: %s/%s/%s@%g: %w", cond, router, comp.Name, scale, err)
	}
	fleet := rep.Fleet

	within := fleet.Rec.WithinSLO(rep.SLO)
	gpuSeconds := gpuSeconds(fleet.Replicas, span)
	spanSec := span.Seconds()
	goodput := float64(within) / spanSec
	perGPU := 0.0
	if gpuSeconds > 0 {
		perGPU = float64(within) / gpuSeconds
	}
	return Cell{
		Condition:     cond,
		Router:        router,
		Composition:   comp.Name,
		Scale:         round(scale),
		GPUs:          fleetGPUs(fleet.Replicas[:initialCount(comp)]),
		Offered:       trace.Len(),
		OfferedRate:   round(float64(trace.Len()) / spanSec),
		WithinSLO:     within,
		Goodput:       round(goodput),
		GoodputPerGPU: round(perGPU),
		Attainment:    round(rep.Attainment),
		CacheHit:      round(fleet.CacheHit),
		Unstable:      rep.Summary.Unstable,
		Failures:      fleet.Failures,
		GPUSeconds:    round(gpuSeconds),
		MissCauses:    rep.MissCauses,
	}, nil
}

// fleetGPUs totals the devices of a run's initial fleet.
func fleetGPUs(initial []muxwise.ClusterReplicaResult) int {
	total := 0
	for _, rep := range initial {
		total += rep.GPUs
	}
	return total
}

// gpuSeconds integrates provisioned devices over the offered window
// [0, span]: every replica charges its GPUs for the overlap of its
// serving interval with the window, so an autoscaled spawn charges from
// readiness and a failed replica stops charging at its crash. For a
// static fleet this reduces to totalGPUs × span.
func gpuSeconds(replicas []muxwise.ClusterReplicaResult, span sim.Time) float64 {
	var total float64
	for _, rep := range replicas {
		if rep.State == cluster.StateStarting {
			continue // spawned but never ready: served nothing
		}
		from := rep.ReadyAt
		to := span
		if rep.DownAt > 0 && rep.DownAt < to {
			to = rep.DownAt
		}
		if from >= to {
			continue
		}
		total += float64(rep.GPUs) * (to - from).Seconds()
	}
	return total
}
