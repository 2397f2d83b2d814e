package serve

import (
	"muxwise/internal/gpu"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/obs"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// MaxGPUs bounds the devices one engine instance may span. Device
// memory is HBMCapacity × GPUs bytes in an int64, and the bound keeps
// that product far from overflow on every catalogued GPU.
const MaxGPUs = 1024

// Config describes a serving deployment for a run.
type Config struct {
	Spec gpu.Spec
	GPUs int
	Arch model.Arch
	SLO  metrics.SLO

	// ReserveFrac of HBM withheld from KV pools (default 0.10).
	ReserveFrac float64
	// MaxBatch caps decode batch size (default 256).
	MaxBatch int
	// Horizon bounds the simulation beyond the last arrival (default
	// 30 simulated minutes). Runs hitting the horizon with unfinished
	// requests are summarised as unstable.
	Horizon sim.Time

	// CostModel selects the step-time estimator: "fitted" (default, the
	// paper's offline-profiled planes) or "roofline" (analytical, any
	// model on any GPU).
	CostModel string

	// Trace, when non-nil, records the run's flight-recorder events.
	// Tracing is purely observational: results are byte-identical with
	// it on or off.
	Trace *obs.Tracer
}

// WithDefaults resolves zero-valued knobs to their documented defaults.
func (c Config) WithDefaults() Config {
	if c.ReserveFrac == 0 {
		c.ReserveFrac = 0.10
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 256
	}
	if c.Horizon == 0 {
		c.Horizon = 30 * 60 * sim.Second
	}
	return c
}

// Result couples the metrics summary with engine-side accounting.
type Result struct {
	Summary  metrics.Summary
	Timeline *metrics.Timeline
	Devices  []gpu.Stats
	CacheHit float64
	Rec      *metrics.Recorder
	// TBT is Rec's sorted TBT gaps as Summary used them, for a fleet
	// summary to merge instead of re-sorting.
	TBT metrics.SortedTBT `json:"-"`

	// Diagnostics attributes every SLO miss to a cause (set by Run;
	// zero on bare Instance snapshots).
	Diagnostics metrics.MissBreakdown
	// Loop snapshots the event loop's perf counters for the run.
	Loop sim.LoopStats
}

// Run replays the trace against a fresh engine built by factory and
// returns the aggregated result. The run is fully deterministic.
func Run(factory Factory, cfg Config, trace *workload.Trace) Result {
	cfg = cfg.WithDefaults()
	s := sim.New()
	inst := NewInstance(s, factory, cfg, "")

	ScheduleArrivals(s, trace.Requests, inst.Submit)
	lastArrival := LastArrival(trace.Requests)
	// Stability probe: a keeping-up system holds only its in-flight
	// requests shortly after arrivals stop; a saturated one has a queue.
	backlog := 0
	s.At(lastArrival+30*sim.Second, func() { backlog = inst.Rec.Unfinished() })
	s.RunUntil(lastArrival + cfg.Horizon)

	res := inst.Result(s.Now())
	ApplyBacklog(&res.Summary, backlog)
	res.Diagnostics = inst.Rec.Diagnose(cfg.SLO, metrics.DiagnoseAux{})
	res.Loop = s.Stats()
	return res
}

// ScheduleArrivals schedules submit(r) at r.Arrival for every request,
// as one sim stream: the event heap holds only the next arrival, not the
// whole trace, yet dispatch order and loop counters are those of one
// event per request scheduled in slice order. Arrival times must not
// change until the request is submitted.
func ScheduleArrivals(s *sim.Sim, reqs []*workload.Request, submit func(*workload.Request)) {
	s.AtStream(len(reqs),
		func(i int) sim.Time { return reqs[i].Arrival },
		func(i int) { submit(reqs[i]) })
}

// LastArrival returns the latest arrival time in reqs, or 0 when empty.
func LastArrival(reqs []*workload.Request) sim.Time {
	var last sim.Time
	for _, r := range reqs {
		last = max(last, r.Arrival)
	}
	return last
}

// ApplyBacklog records the stability-probe backlog on the summary and
// applies the shared instability verdict: a backlog that is both >10
// requests and >2% of all arrivals marks the run as not keeping up.
// The single-instance and cluster runners share this rule so their
// "UNSTABLE" verdicts always agree.
func ApplyBacklog(s *metrics.Summary, backlog int) {
	s.Backlog = backlog
	if backlog > 10 && backlog*50 > s.Requests {
		s.Unstable = true
	}
}

// MeanUtil averages the blended utilization across the engine's devices.
func (r Result) MeanUtil() float64 {
	if len(r.Devices) == 0 {
		return 0
	}
	var sum float64
	for _, d := range r.Devices {
		sum += d.Util
	}
	return sum / float64(len(r.Devices))
}
