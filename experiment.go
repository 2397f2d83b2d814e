package muxwise

import (
	"errors"
	"fmt"

	"muxwise/internal/cluster"
	"muxwise/internal/serve"
)

// ErrNoFeasibleRate is returned by goodput searches when no rate in the
// probed range meets the §4 goodput criterion (stable, ≥99% of TBT
// samples within the SLO). It describes the workload/deployment pair,
// not a failed run, and is distinguishable with errors.Is — unlike the
// old behavior of silently reporting a goodput of 0 req/s.
var ErrNoFeasibleRate = errors.New("muxwise: no rate in range meets the goodput criterion")

// Experiment is the composable runner behind every muxwise entry point:
// one deployment (a single engine or a routed replica fleet) plus the
// probing methods the paper's evaluation is built from. Configure it
// with functional options, then Run a trace, Sweep offered rates, or
// search Goodput:
//
//	exp := muxwise.NewExperiment(
//	    muxwise.WithDeployment(dep),
//	    muxwise.WithFleet(muxwise.ReplicaSpec{Engine: "MuxWise", Count: 4}),
//	    muxwise.WithRouter("adaptive-ttft"),
//	)
//	report, err := exp.Run(trace)
//
// A zero Experiment is not usable; construct with NewExperiment.
// Experiments are cheap descriptions — every Run/Sweep/Goodput builds
// fresh engines and routers, so one Experiment can probe repeatedly and
// deterministically.
type Experiment struct {
	dep      Deployment
	depSet   bool
	slo      *SLO // WithSLO override, applied over dep at resolve time
	engine   string
	fleetSet bool
	replicas []ReplicaSpec
	router   string
	epochs   Time
	mk       func(rate float64) *Trace
	trace    *FlightRecorder
	cost     string
	errs     []error

	// Fleet lifecycle: WithEvents, WithAutoscaler, WithColdStart,
	// WithScaleBounds and WithMigration, one field each.
	events           []FleetEvent
	autoscaler       string
	coldStart        Time
	minReps, maxReps int
	migration        bool
}

// Option configures an Experiment.
type Option func(*Experiment)

// NewExperiment builds an experiment from options. Option errors are
// deferred: they surface from the first Run, Sweep, or Goodput call.
func NewExperiment(opts ...Option) *Experiment {
	e := &Experiment{}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// With returns a copy of the experiment with further options applied —
// the base stays untouched, so one deployment can fan out into per-router
// or per-autoscaler variants.
func (e *Experiment) With(opts ...Option) *Experiment {
	c := *e
	c.replicas = append([]ReplicaSpec(nil), e.replicas...)
	c.events = append([]FleetEvent(nil), e.events...)
	c.errs = append([]error(nil), e.errs...)
	for _, opt := range opts {
		opt(&c)
	}
	return &c
}

// failf records a deferred option error.
func (e *Experiment) failf(format string, args ...any) {
	e.errs = append(e.errs, fmt.Errorf("muxwise: "+format, args...))
}

// WithDeployment sets the hardware, model, per-replica GPU count, and
// SLO baseline.
func WithDeployment(dep Deployment) Option {
	return func(e *Experiment) { e.dep, e.depSet = dep, true }
}

// WithSLO overrides the deployment's latency targets. The override
// survives a later WithDeployment, so option order cannot silently
// change which SLO a run is judged against.
func WithSLO(slo SLO) Option {
	return func(e *Experiment) { e.slo = &slo }
}

// WithEngine runs a single instance of the named engine (see Engines()).
// Mutually exclusive with WithFleet.
func WithEngine(name string) Option {
	return func(e *Experiment) {
		if name == "" {
			e.failf("WithEngine: empty engine name")
			return
		}
		e.engine = name
	}
}

// WithFleet runs a replica fleet of the given shapes behind a request
// router. Mutually exclusive with WithEngine.
func WithFleet(replicas ...ReplicaSpec) Option {
	return func(e *Experiment) {
		e.fleetSet = true
		e.replicas = append(e.replicas, replicas...)
	}
}

// WithRouter selects the fleet's routing policy by name — a built-in or
// anything added through RegisterRouter (see RouterPolicies()). Empty
// keeps the default, prefix-affinity.
func WithRouter(name string) Option {
	return func(e *Experiment) { e.router = name }
}

// WithCostModel selects the step-time estimator engines schedule
// against: "fitted" (default) is the paper's offline-profiled
// max-of-two-planes model with the co-run slowdown guard, available only
// for the hand-profiled (model, GPU) pairs; "roofline" is the analytical
// datasheet model (internal/roofline) that covers any model on any GPU —
// the only way to run B200-class hardware. See CostModels() for the
// recognised names and docs/roofline.md for the model and its validation.
func WithCostModel(name string) Option {
	return func(e *Experiment) {
		if !serve.ValidCostModel(name) {
			e.failf("WithCostModel: unknown cost model %q (have %v)", name, serve.CostModels())
			return
		}
		e.cost = name
	}
}

// CostModels returns the cost model names WithCostModel accepts.
func CostModels() []string { return serve.CostModels() }

// Cost model names accepted by WithCostModel.
const (
	// CostFitted is the paper's offline-profiled estimator (the default).
	CostFitted = serve.CostFitted
	// CostRoofline is the analytical datasheet model: any model on any
	// GPU, no profiling.
	CostRoofline = serve.CostRoofline
)

// WithAutoscaler attaches the named autoscaler to the fleet — a built-in
// or anything added through RegisterAutoscaler (see AutoscalerPolicies()).
func WithAutoscaler(name string) Option {
	return func(e *Experiment) {
		if name == "" {
			e.failf("WithAutoscaler: empty autoscaler name")
			return
		}
		e.autoscaler = name
	}
}

// WithEvents schedules fleet lifecycle events (spawn, drain, fail,
// retire, mark) inside the run's deterministic loop.
func WithEvents(events ...FleetEvent) Option {
	return func(e *Experiment) { e.events = append(e.events, events...) }
}

// WithScaleBounds bounds the autoscaler's fleet size (defaults 1, 64).
func WithScaleBounds(minReplicas, maxReplicas int) Option {
	return func(e *Experiment) {
		e.minReps, e.maxReps = minReplicas, maxReplicas
	}
}

// WithColdStart sets the spawn-to-ready delay of every spawned replica
// (default 15 s). The delay must be positive.
func WithColdStart(d Time) Option {
	return func(e *Experiment) {
		if d <= 0 {
			e.failf("WithColdStart: cold start %v must be positive", d)
			return
		}
		e.coldStart = d
	}
}

// WithMigration enables KV migration on graceful takedowns: drains,
// retires and autoscaler scale-downs stream each in-flight session's KV
// to the replica its traffic re-routes to — priced by the modeled
// interconnect (NVLink inside a hardware shape, PCIe across shapes) —
// instead of letting the session repay a full re-prefill there.
// Failures still lose their KV, including streams the crash catches
// mid-flight. Requires a fleet (WithFleet).
func WithMigration() Option {
	return func(e *Experiment) { e.migration = true }
}

// WithEpochs slices every Run into fixed-width reporting windows of the
// given width, rolled up in Report.Windows — per-interval arrivals, TTFT
// and TBT quantiles, and TBT SLO attainment. A run is cut into at most
// MaxWindows windows: Run returns an error when its makespan needs more
// windows of this width.
func WithEpochs(width Time) Option {
	return func(e *Experiment) {
		if width <= 0 {
			e.failf("WithEpochs: width %v must be positive", width)
			return
		}
		e.epochs = width
	}
}

// WithWorkload sets the trace generator Sweep and Goodput probe with.
// Probes may run concurrently, so mk must be safe to call from multiple
// goroutines — return a fresh trace per call.
func WithWorkload(mk func(rate float64) *Trace) Option {
	return func(e *Experiment) {
		if mk == nil {
			e.failf("WithWorkload: nil trace generator")
			return
		}
		e.mk = mk
	}
}

// Report is the unified result of Experiment.Run.
type Report struct {
	// Summary is the run's headline latency rollup (fleet-merged for
	// fleet experiments).
	Summary Summary
	// SLO is the resolved latency target the run was judged against.
	SLO SLO
	// Attainment is the fraction of TBT samples within the SLO — the §4
	// goodput criterion's per-run ingredient.
	Attainment float64
	// Engine holds the single-engine detail; nil for fleet experiments.
	Engine *Result
	// Fleet holds the fleet detail (per-replica rollups, lifecycle
	// epochs, event log); nil for single-engine experiments.
	Fleet *ClusterResult
	// Windows holds the fixed-width rollups requested with WithEpochs.
	Windows []MetricsWindow
	// MissCauses attributes every SLO miss of the run to a cause
	// (queue-wait, slow prefill, TBT violation, migration stall, crash,
	// unfinished) — the decision-attributed goodput diagnostics.
	MissCauses MissBreakdown
}

// resolved is an experiment lowered onto the internal runners.
type resolved struct {
	factory serve.Factory  // single-engine mode
	cfg     serve.Config   // single-engine mode
	cluster cluster.Config // fleet mode
	isFleet bool
	slo     SLO
}

// fleetActive reports whether any lifecycle option was configured;
// plain fleets run without a fleet controller.
func (e *Experiment) fleetActive() bool {
	return len(e.events) > 0 || e.autoscaler != "" || e.coldStart != 0 ||
		e.minReps != 0 || e.maxReps != 0 || e.migration
}

// resolve validates the experiment and lowers it onto the internal
// configuration types without running anything.
func (e *Experiment) resolve() (resolved, error) {
	if len(e.errs) > 0 {
		return resolved{}, errors.Join(e.errs...)
	}
	if e.engine != "" && e.fleetSet {
		return resolved{}, fmt.Errorf("muxwise: WithEngine and WithFleet are mutually exclusive")
	}
	if e.engine == "" && !e.fleetSet {
		return resolved{}, fmt.Errorf("muxwise: configure an engine (WithEngine) or a fleet (WithFleet)")
	}
	if !e.depSet {
		return resolved{}, fmt.Errorf("muxwise: no deployment configured (WithDeployment)")
	}
	dep := e.dep
	if e.slo != nil {
		dep.SLO = *e.slo
	}
	if e.engine != "" {
		if e.router != "" {
			return resolved{}, fmt.Errorf("muxwise: WithRouter requires a fleet (WithFleet)")
		}
		if e.fleetActive() {
			return resolved{}, fmt.Errorf("muxwise: fleet lifecycle options require a fleet (WithFleet)")
		}
		f, err := factory(e.engine)
		if err != nil {
			return resolved{}, err
		}
		cfg, err := dep.config()
		if err != nil {
			return resolved{}, err
		}
		cfg.CostModel = e.cost
		return resolved{factory: f, cfg: cfg.WithDefaults(), slo: cfg.SLO}, nil
	}
	cfg, err := clusterConfig(dep, e.replicas, e.router)
	if err != nil {
		return resolved{}, err
	}
	if e.fleetActive() {
		if cfg.Fleet, err = e.fleetConfig(); err != nil {
			return resolved{}, err
		}
		cfg.Migration = e.migration
	}
	cfg.Base.CostModel = e.cost
	cfg.Base = cfg.Base.WithDefaults()
	return resolved{cluster: cfg, isFleet: true, slo: cfg.Base.SLO}, nil
}

// windows builds the fixed-width rollups requested with WithEpochs.
func (e *Experiment) windows(rec *Recorder, makespan Time, tbtSLO Time) ([]MetricsWindow, error) {
	if e.epochs <= 0 || makespan <= 0 {
		return nil, nil
	}
	n := (makespan-1)/e.epochs + 1
	if n > MaxWindows {
		return nil, fmt.Errorf("muxwise: WithEpochs: width %v cuts the %v run into %d windows, more than the limit of %d",
			e.epochs, makespan, n, MaxWindows)
	}
	bounds := make([]Time, 1, n+1)
	for t := e.epochs; t < makespan; t += e.epochs {
		bounds = append(bounds, t)
	}
	bounds = append(bounds, makespan)
	return rec.RollupSLO(bounds, tbtSLO), nil
}

// Run replays the trace against a fresh instance of the experiment's
// deployment and reports the unified result. Runs are deterministic for
// a given configuration and trace.
func (e *Experiment) Run(trace *Trace) (*Report, error) {
	r, err := e.resolve()
	if err != nil {
		return nil, err
	}
	if trace == nil {
		return nil, fmt.Errorf("muxwise: Run: nil trace")
	}
	if r.isFleet {
		// The flight recorder rides only on Run: Sweep and Goodput
		// probe concurrently with a shared config, where a single
		// recorder would interleave unrelated runs.
		r.cluster.Base.Trace = e.trace
		res, err := cluster.Run(r.cluster, trace)
		if err != nil {
			return nil, err
		}
		wins, err := e.windows(res.Rec, res.Summary.Makespan, r.slo.TBT)
		if err != nil {
			return nil, err
		}
		return &Report{
			Summary:    res.Summary,
			SLO:        r.slo,
			Attainment: res.Rec.TBTAttainment(r.slo.TBT),
			Fleet:      &res,
			Windows:    wins,
			MissCauses: res.Diagnostics,
		}, nil
	}
	r.cfg.Trace = e.trace
	res := serve.Run(r.factory, r.cfg, trace)
	wins, err := e.windows(res.Rec, res.Summary.Makespan, r.slo.TBT)
	if err != nil {
		return nil, err
	}
	return &Report{
		Summary:    res.Summary,
		SLO:        r.slo,
		Attainment: res.Rec.TBTAttainment(r.slo.TBT),
		Engine:     &res,
		Windows:    wins,
		MissCauses: res.Diagnostics,
	}, nil
}

// workload returns the configured trace generator or an error.
func (e *Experiment) workload() (func(rate float64) *Trace, error) {
	if e.mk == nil {
		return nil, fmt.Errorf("muxwise: no workload configured (WithWorkload)")
	}
	return e.mk, nil
}

// Sweep probes each offered rate (req/s) with the configured workload,
// stopping shortly after the deployment first misses the §4 SLO
// criterion. Probes run concurrently but the points are identical to a
// sequential sweep.
func (e *Experiment) Sweep(rates ...float64) ([]RatePoint, error) {
	r, err := e.resolve()
	if err != nil {
		return nil, err
	}
	mk, err := e.workload()
	if err != nil {
		return nil, err
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("muxwise: Sweep: no rates given")
	}
	if r.isFleet {
		return cluster.Sweep(r.cluster, mk, rates)
	}
	return serve.Sweep(r.factory, r.cfg, mk, rates), nil
}

// Goodput finds the highest request rate (req/s, within [lo, hi]) at
// which the deployment sustains the §4 goodput criterion on the
// configured workload — the paper's headline metric. An invalid range
// (lo < 0, lo > hi, or NaN) is an error; a valid range in which even
// the floor rate misses the criterion returns ErrNoFeasibleRate.
func (e *Experiment) Goodput(lo, hi float64) (float64, error) {
	r, err := e.resolve()
	if err != nil {
		return 0, err
	}
	mk, err := e.workload()
	if err != nil {
		return 0, err
	}
	if !(lo >= 0 && hi >= lo) {
		return 0, fmt.Errorf("muxwise: Goodput: invalid rate range [%g, %g]: want 0 <= lo <= hi", lo, hi)
	}
	var g float64
	var feasible bool
	if r.isFleet {
		g, feasible, err = cluster.Goodput(r.cluster, mk, lo, hi)
		if err != nil {
			return 0, err
		}
	} else {
		g, feasible = serve.GoodputBy(func(rate float64) RatePoint {
			return serve.Probe(r.factory, r.cfg, mk, rate)
		}, lo, hi)
	}
	if !feasible {
		return 0, ErrNoFeasibleRate
	}
	return g, nil
}
