package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"time"

	"muxwise"
	"muxwise/internal/estimator"
	"muxwise/internal/gpu"
	"muxwise/internal/model"
	"muxwise/internal/obs"
	"muxwise/internal/roofline"
	"muxwise/internal/sim"
)

const (
	// tracedProbes re-run with a flight recorder, each alternating with
	// an untraced repeat of the same input.
	tracedProbes = 10
	// profiledProbes run untraced under the CPU profiler.
	profiledProbes = 30
	// profileHz is the CPU profiler's sampling rate.
	profileHz = 1000
)

// perLayer lists the per-layer metrics with their units, in print order.
// doc.go maps each to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"workload.gen_ms_per_probe", "ms", true},
	{"sim.events_per_req", "events/req", false},
	{"sim.cancel_frac", "ratio", false},
	{"sim.max_pending", "events", false},
	{"sim.ns_per_event", "ns", true},
	{"gpu.kernels_per_req", "kernels/req", false},
	{"gpu.sm_util", "ratio", false},
	{"gpu.launch_frac", "ratio", false},
	{"gpu.ns_per_kernel", "ns", true},
	{"estimator.ns_per_decode_worst", "ns", true},
	{"estimator.ns_per_prefill_phase", "ns", true},
	{"estimator.setup_ms", "ms", true},
	{"roofline.ns_per_decode_worst", "ns", true},
	{"roofline.ns_per_prefill_phase", "ns", true},
	{"core.decode_iters_per_req", "iters/req", false},
	{"core.decode_bs_mean", "reqs", false},
	{"core.decode_iter_ms_p99", "ms", false},
	{"core.prefill_ms_p99", "ms", false},
	{"core.preempt_frac", "ratio", false},
	{"core.partition_changes_per_min", "1/min", false},
	{"serve.queue_ms_p50", "ms", false},
	{"serve.queue_ms_p99", "ms", false},
	{"kvcache.hit_rate", "ratio", false},
	{"kvcache.ns_per_match", "ns", true},
	{"kvcache.ns_per_insert", "ns", true},
	{"kvcache.evictions_per_req", "pages/req", false},
	{"metrics.ns_per_token", "ns", true},
	{"metrics.rollup_ms_per_probe", "ms", true},
	{"metrics.miss.queued_too_long_frac", "ratio", false},
	{"metrics.miss.slow_prefill_frac", "ratio", false},
	{"metrics.miss.tbt_violation_frac", "ratio", false},
	{"metrics.miss.migration_stall_frac", "ratio", false},
	{"metrics.miss.crash_frac", "ratio", false},
	{"metrics.miss.unfinished_frac", "ratio", false},
	{"cluster.ns_per_pick", "ns", true},
	{"cluster.allocs_per_pick", "allocs", false},
	{"cluster.construct_us", "us", true},
	{"cluster.session_stay_frac", "ratio", false},
	{"cluster.migration_tokens_per_req", "tokens/req", false},
	{"cluster.migration_stall_ms_per_stream", "ms", false},
	{"obs.trace_overhead", "ratio", false},
	{"obs.events_per_req", "events/req", false},
	{"obs.chrome_ns_per_event", "ns", true},
	{"runtime.gc_cpu_frac", "ratio", false},
}

// init appends one cpu_share metric per profiled layer.
func init() {
	for _, l := range cpuLayers {
		perLayer = append(perLayer, metricDef{l + ".cpu_share", "ratio", false})
	}
}

// hostSpans records the benchmark's own host-time spans on a flight
// recorder, timestamped in host nanoseconds since the pass began. Spans
// nest on one track, so each span's parent is the span enclosing it.
type hostSpans struct {
	tr    *obs.Tracer
	start time.Time
}

func newHostSpans() *hostSpans { return &hostSpans{tr: obs.New(), start: time.Now()} }

func (h *hostSpans) now() sim.Time { return sim.Time(time.Since(h.start).Nanoseconds()) }

// span runs fn inside a named span.
func (h *hostSpans) span(name string, fn func()) {
	h.tr.Begin(h.now(), "muxperf", name)
	fn()
	h.tr.End(h.now(), "muxperf", name)
}

// write exports the spans as Chrome trace JSON.
func (h *hostSpans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := h.tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPass measures the per-layer metrics of a workload:
//
//  1. it times the fitted estimator's one-time set-up for the workload's
//     deployment, before anything else in the process can pay it;
//  2. it re-runs the first tracedProbes probes with a flight recorder,
//     alternating with untraced repeats, checking the two agree, and
//     reads the simulated layer counts off the recordings; the
//     per-probe layer replays run on the same inputs;
//  3. it CPU-profiles profiledProbes untraced probes and charges each
//     sample to its innermost muxwise/internal layer;
//  4. it runs the whole-run replays (event loop, device, cost models).
//
// It returns the metrics and how many probe runs were checked and failed.
func tracedPass(w *workload, seed uint64, spans *hostSpans) (m map[string]float64, attempted, failed int, err error) {
	m = map[string]float64{}
	spec, _ := gpu.SpecByName(w.dep.Hardware)
	arch, _ := model.ByName(w.dep.Model)
	tp := w.dep.GPUs

	spans.span("estimator.setup", func() {
		start := time.Now()
		estimator.New(spec, tp, arch)
		m["estimator.setup_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	})
	spans.span("warm-up", func() { runProbe(w.probe(seed, 0)) })

	var firstErr error
	record := func(o outcome) {
		attempted++
		if o.err != nil {
			failed++
			if firstErr == nil {
				firstErr = o.err
			}
		}
	}
	var layers simLayers
	var rp replays
	var tracedWall, plainWall float64
	var scales []float64
	// Each engine instance's KV pool spans the deployment's GPUs, less
	// serve.Config's default 10% reserve.
	capacity := arch.KVPoolTokens(int64(tp)*spec.HBMCapacity, 0.10)
	for i := 0; i < tracedProbes; i++ {
		spans.span(fmt.Sprintf("probe %d", i), func() {
			fr := obs.New()
			var traced, plain outcome
			var tracedInput *muxwise.Trace
			runTraced := func() {
				p := w.probe(seed, i)
				p.exp = p.exp.With(muxwise.WithTrace(fr))
				tracedInput = p.trace
				spans.span("Experiment.Run traced", func() { traced = runProbe(p) })
			}
			runPlain := func() {
				p := w.probe(seed, i)
				spans.span("Experiment.Run", func() { plain = runProbe(p) })
			}
			// Alternate which side runs first so warm caches favor neither.
			if i%2 == 0 {
				runTraced()
				runPlain()
			} else {
				runPlain()
				runTraced()
			}
			if traced.err == nil && plain.err == nil && !bytes.Equal(traced.summary, plain.summary) {
				traced.err = fmt.Errorf("probe %d: tracing changed the run's summary", i)
			}
			record(traced)
			record(plain)
			if traced.rep == nil || plain.rep == nil {
				return
			}
			tracedWall += traced.wall
			plainWall += plain.wall
			scales = append(scales, traced.scale, plain.scale)
			layers.add(traced.rep, fr, tracedInput)
			spans.span("rollup", func() { rp.rollup(plain.rep) })
			spans.span("replay kvcache", func() { rp.kvcache(tracedInput, capacity) })
			spans.span("replay router", func() {
				if err := rp.router(tracedInput); err != nil && firstErr == nil {
					firstErr = err
				}
			})
			spans.span("replay recorder", func() { rp.recorder(tracedInput) })
			spans.span("replay chrome", func() {
				if err := rp.chrome(fr); err != nil && firstErr == nil {
					firstErr = err
				}
			})
		})
	}
	layers.metrics(m)
	rp.metrics(m)
	m["obs.trace_overhead"] = ratio(tracedWall, plainWall)

	spans.span("cpu-profile", func() {
		shares, gen, gc, perr := profile(w, seed, record)
		if perr != nil {
			if firstErr == nil {
				firstErr = perr
			}
			return
		}
		m["workload.gen_ms_per_probe"] = gen
		m["runtime.gc_cpu_frac"] = gc
		for _, l := range cpuLayers {
			m[l+".cpu_share"] = shares[l]
		}
	})

	decodes, prefills := withFallbackShapes(spec, layers.decodes, layers.prefills)
	spans.span("replay sim", func() {
		m["sim.ns_per_event"] = simNsPerEvent(seed, layers.maxPending, m["sim.cancel_frac"])
	})
	spans.span("replay gpu", func() {
		m["gpu.ns_per_kernel"] = gpuNsPerKernel(spec, tp, arch, decodes, prefills)
	})
	spans.span("replay estimator", func() {
		est := estimator.New(spec, tp, arch).Fork()
		m["estimator.ns_per_decode_worst"], m["estimator.ns_per_prefill_phase"] = costNs(est, spec.SMs, decodes, prefills)
	})
	spans.span("replay roofline", func() {
		rl := roofline.New(spec, tp, arch)
		m["roofline.ns_per_decode_worst"], m["roofline.ns_per_prefill_phase"] = costNs(rl, spec.SMs, decodes, prefills)
	})
	scale := median(scales)
	for _, d := range perLayer {
		if d.hostTime {
			m[d.name] *= scale
		}
	}
	return m, attempted, failed, firstErr
}

// profile CPU-profiles profiledProbes untraced probes (inputs generated
// inside the window, as the measured pass does) and returns the layer
// shares, the mean input generation time in ms, and GC's share of busy
// CPU over the window. The probes run without the forced collection and
// calibration kernel of runProbe, which would otherwise show up as
// runtime CPU.
func profile(w *workload, seed uint64, record func(outcome)) (shares map[string]float64, genMs, gcFrac float64, err error) {
	cpu := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	read := func() (gc, busy float64) {
		rtmetrics.Read(cpu)
		return cpu[0].Value.Float64(), cpu[1].Value.Float64() - cpu[2].Value.Float64()
	}
	runtime.GC()
	// 30 probes at pprof's default 100 Hz give a few hundred samples,
	// too few to resolve a 1% share. Setting the rate first makes the
	// profiler sample at profileHz; StartCPUProfile then reports (on
	// stderr) that it cannot reset it. Shares are ratios, so the stale
	// period in the profile header does not matter.
	runtime.SetCPUProfileRate(profileHz)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, 0, err
	}
	gc0, busy0 := read()
	var gen time.Duration
	for i := tracedProbes; i < tracedProbes+profiledProbes; i++ {
		start := time.Now()
		p := w.probe(seed, i)
		gen += time.Since(start)
		record(runChecked(p, 1))
	}
	gc1, busy1 := read()
	pprof.StopCPUProfile()
	shares, err = cpuShares(buf.Bytes())
	return shares, float64(gen.Nanoseconds()) / 1e6 / profiledProbes, ratio(gc1-gc0, busy1-busy0), err
}
