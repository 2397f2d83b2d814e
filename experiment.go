package muxwise

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"muxwise/internal/cluster"
	"muxwise/internal/serve"
	"muxwise/internal/workload"
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

// WithScaleBounds bounds the autoscaler's fleet size (defaults 1, 64;
// a zero bound keeps its default). A negative bound is an error.
func WithScaleBounds(minReplicas, maxReplicas int) Option {
	return func(e *Experiment) {
		if minReplicas < 0 || maxReplicas < 0 {
			e.failf("WithScaleBounds: bounds %d..%d must not be negative", minReplicas, maxReplicas)
			return
		}
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
	if e.engine != "" {
		if e.router != "" {
			return resolved{}, fmt.Errorf("muxwise: WithRouter requires a fleet (WithFleet)")
		}
		if e.fleetActive() {
			return resolved{}, fmt.Errorf("muxwise: fleet lifecycle options require a fleet (WithFleet)")
		}
		eng, err := engineByName(e.engine)
		if err != nil {
			return resolved{}, err
		}
		cfg, err := e.dep.config()
		if err != nil {
			return resolved{}, err
		}
		if err := eng.fitsInstances(cfg); err != nil {
			return resolved{}, err
		}
		cfg.CostModel = e.cost
		return resolved{factory: eng.factory, cfg: cfg, slo: cfg.SLO}, nil
	}
	cfg, err := clusterConfig(e.dep, e.replicas, e.router)
	if err != nil {
		return resolved{}, err
	}
	if e.fleetActive() {
		if cfg.Fleet, err = e.fleetConfig(cfg.Base); err != nil {
			return resolved{}, err
		}
		cfg.Migration = e.migration
	}
	cfg.Base.CostModel = e.cost
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
	return rec.Rollup(bounds, tbtSLO), nil
}

// Run replays the trace against a fresh instance of the experiment's
// deployment and reports the unified result. Runs are deterministic for
// a given configuration and trace.
func (e *Experiment) Run(trace *Trace) (*Report, error) {
	r, err := e.resolve()
	if err != nil {
		return nil, err
	}
	return e.run(r, trace, true)
}

// run is the one run path of Run, Sweep and Goodput: it replays the
// trace against a fresh engine or fleet of the resolved deployment.
// Only Run passes traced, which attaches the flight recorder and rolls
// up the WithEpochs windows: rate probes run concurrently with a shared
// config, where a single recorder would interleave unrelated runs.
func (e *Experiment) run(r resolved, trace *Trace, traced bool) (*Report, error) {
	if trace == nil {
		return nil, fmt.Errorf("muxwise: Run: nil trace")
	}
	for _, req := range trace.Requests {
		if req.Arrival < 0 || req.Arrival > workload.MaxArrival {
			return nil, fmt.Errorf("muxwise: Run: request %d arrives at %v, outside [0, %v]", req.ID, req.Arrival, workload.MaxArrival)
		}
		if err := req.CheckSegments(); err != nil {
			return nil, fmt.Errorf("muxwise: Run: request %d: %w", req.ID, err)
		}
	}
	var fr *FlightRecorder
	if traced {
		fr = e.trace
	}
	rep := &Report{SLO: r.slo}
	var rec *Recorder
	if r.isFleet {
		r.cluster.Base.Trace = fr
		res, err := cluster.Run(r.cluster, trace)
		if err != nil {
			return nil, err
		}
		rep.Summary, rep.MissCauses, rep.Fleet, rec = res.Summary, res.Diagnostics, &res, res.Rec
	} else {
		r.cfg.Trace = fr
		res := serve.Run(r.factory, r.cfg, trace)
		rep.Summary, rep.MissCauses, rep.Engine, rec = res.Summary, res.Diagnostics, &res, res.Rec
	}
	rep.Attainment = rec.TBTAttainment(r.slo.TBT)
	if traced {
		var err error
		if rep.Windows, err = e.windows(rec, rep.Summary.Makespan, r.slo.TBT); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// prober resolves the experiment into the rate probe Sweep and Goodput
// search with: one run of the configured workload at the offered rate.
// Probes may run concurrently, so failures are collected rather than
// returned: the second result reports the first one once the probes
// are done, and a failed run never masquerades as a zero-attainment
// point.
func (e *Experiment) prober() (func(rate float64) RatePoint, func() error, error) {
	r, err := e.resolve()
	if err != nil {
		return nil, nil, err
	}
	if e.mk == nil {
		return nil, nil, fmt.Errorf("muxwise: no workload configured (WithWorkload)")
	}
	var mu sync.Mutex
	var firstErr error
	probe := func(rate float64) RatePoint {
		rep, err := e.run(r, e.mk(rate), false)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return RatePoint{}
		}
		p := RatePoint{
			Rate:       rate,
			Attainment: rep.Attainment,
			P99TTFT:    rep.Summary.TTFT.P99,
			P99TBT:     rep.Summary.TBT.P99,
			Unstable:   rep.Summary.Unstable,
			TokensPerS: rep.Summary.TokensPerSecond,
		}
		if rep.Fleet != nil {
			p.Util = rep.Fleet.MeanUtil()
		} else {
			p.Util = rep.Engine.MeanUtil()
		}
		return p
	}
	return probe, func() error { return firstErr }, nil
}

// Sweep probes each offered rate (req/s) with the configured workload,
// stopping shortly after the deployment first misses the §4 SLO
// criterion. Every rate must be positive and finite. Probes run
// concurrently but the points are identical to a sequential sweep.
func (e *Experiment) Sweep(rates ...float64) ([]RatePoint, error) {
	probe, errOf, err := e.prober()
	if err != nil {
		return nil, err
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("muxwise: Sweep: no rates given")
	}
	for _, rate := range rates {
		if !(rate > 0 && rate <= math.MaxFloat64) {
			return nil, fmt.Errorf("muxwise: Sweep: invalid rate %g: want a positive, finite req/s", rate)
		}
	}
	pts := serve.SweepBy(probe, rates)
	if err := errOf(); err != nil {
		return nil, err
	}
	return pts, nil
}

// Goodput finds the highest request rate (req/s, within [lo, hi]) at
// which the deployment sustains the §4 goodput criterion on the
// configured workload — the paper's headline metric. An invalid range
// (lo < 0, lo > hi, an infinite bound, or NaN) is an error; a valid
// range in which even the floor rate misses the criterion returns
// ErrNoFeasibleRate.
func (e *Experiment) Goodput(lo, hi float64) (float64, error) {
	probe, errOf, err := e.prober()
	if err != nil {
		return 0, err
	}
	if !(lo >= 0 && hi >= lo && hi <= math.MaxFloat64) {
		return 0, fmt.Errorf("muxwise: Goodput: invalid rate range [%g, %g]: want 0 <= lo <= hi, both finite", lo, hi)
	}
	g, feasible := serve.GoodputBy(probe, lo, hi)
	if err := errOf(); err != nil {
		return 0, err
	}
	if !feasible {
		return 0, ErrNoFeasibleRate
	}
	return g, nil
}
