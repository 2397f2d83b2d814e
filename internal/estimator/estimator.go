package estimator

import (
	"fmt"
	"math"
	"sync"

	"muxwise/internal/gpu"
	"muxwise/internal/model"
	"muxwise/internal/sim"
)

// Estimator combines the solo-run predictor with the contention guard for
// one (LLM, machine) pair — the paper's one-time offline profiling
// artefact (§3.3.2).
type Estimator struct {
	Spec gpu.Spec
	TP   int
	Arch model.Arch

	// Per partition-size latency models, indexed by decode/prefill SMs
	// per GPU over [0, Spec.SMs]. Each entry holds the model fitted for
	// the nearest profiled configuration (see snapTable). Each model is
	// the max of a memory-regime and a compute-regime plane over the
	// Eq. 1/2 features, fitted on samples labelled by which roofline side
	// bound them during profiling (real systems label with perf
	// counters, as in GPUlet/HSM).
	decodeTheta  []planes
	prefillTheta []planes

	guard *Guard
}

// planes is a max-of-two-planes latency model. Either side may be nil
// when profiling saw only one regime for the configuration.
type planes struct {
	mem, comp []float64
}

// predict evaluates the model on a feature row.
func (p planes) predict(features []float64) float64 {
	var m, c float64
	if p.mem != nil {
		m = dot(features, p.mem)
	}
	if p.comp != nil {
		c = dot(features, p.comp)
	}
	return math.Max(m, c)
}

// profileCache memoises offline profiling per (spec, tp, arch): repeated
// engine construction in goodput sweeps must not re-pay it, matching the
// paper's "one-time effort per LLM–machine pair". Entries hold a
// sync.Once so concurrent first users (parallel sweep probes) profile
// exactly once instead of racing through the grid side by side.
var profileCache sync.Map // key string → *cacheEntry

type cacheEntry struct {
	once sync.Once
	est  *Estimator
}

// New returns the estimator for the given deployment, running the
// offline profiling on first use. The returned estimator is shared and
// must be treated as read-only; engines that refine the contention
// guard online must work on a Fork.
func New(spec gpu.Spec, tp int, arch model.Arch) *Estimator {
	key := fmt.Sprintf("%s/%d/%s", spec.Name, tp, arch.Name)
	v, _ := profileCache.LoadOrStore(key, &cacheEntry{})
	ce := v.(*cacheEntry)
	ce.once.Do(func() {
		e := &Estimator{Spec: spec, TP: tp, Arch: arch}
		e.profileSolo()
		e.guard = profileGuard(spec, tp, arch, e)
		ce.est = e
	})
	if ce.est == nil {
		// A prior profiling attempt panicked past a recover; fail here,
		// at the source, instead of handing out a nil estimator.
		panic("estimator: offline profiling previously failed for " + key)
	}
	return ce.est
}

// Fork returns a per-run view of the estimator: the fitted latency
// models are shared read-only, but the contention guard is cloned so
// one run's online refinement never leaks into another. Concurrent
// sweep probes would otherwise race on the shared guard map and make
// results depend on goroutine interleaving.
func (e *Estimator) Fork() *Estimator {
	cp := *e
	cp.guard = e.guard.clone()
	return &cp
}

// Configs returns the candidate decode partition sizes plus the full
// device.
func (e *Estimator) Configs() []int {
	return append(e.Spec.PartitionSizes(), e.Spec.SMs)
}

// MeasureDecodeSolo runs one decode iteration solo on a fresh simulated
// device and returns its latency in seconds (including graph launch) —
// the probe the offline profiling and the motivation experiments share.
func MeasureDecodeSolo(spec gpu.Spec, tp int, arch model.Arch, sms, bs, ctxPerReq int) float64 {
	return measureDecode(spec, tp, arch, sms, bs, ctxPerReq)
}

// MeasurePrefillSolo runs a full layer-wise prefill phase solo and
// returns its latency in seconds.
func MeasurePrefillSolo(spec gpu.Spec, tp int, arch model.Arch, sms int, seqs []model.Seq) float64 {
	return measurePrefill(spec, tp, arch, sms, seqs)
}

// CoRunSlowdown measures the decode slowdown factor (co-run latency over
// solo latency) for one multiplexing configuration — the Fig. 11 probe.
func CoRunSlowdown(spec gpu.Spec, tp int, arch model.Arch, decSM, bs, dCtx, pNew, pReused int) float64 {
	solo := measureDecode(spec, tp, arch, decSM, bs, dCtx)
	co := measureDecodeCoRun(spec, tp, arch, decSM, spec.SMs-decSM, bs, dCtx, pNew, pReused)
	if solo <= 0 {
		return 1
	}
	f := co / solo
	if f < 1 {
		f = 1
	}
	return f
}

// measureDecode runs one decode iteration solo on a fresh simulated
// device and returns its latency in seconds (including graph launch).
func measureDecode(spec gpu.Spec, tp int, arch model.Arch, sms, bs, ctxPerReq int) float64 {
	s := sim.New()
	d := gpu.NewDevice(s, spec, tp, "profile")
	p := d.Partition(sms, "decode")
	ctxs := make([]int, bs)
	for i := range ctxs {
		ctxs[i] = ctxPerReq
	}
	c := arch.DecodeIter(ctxs, tp)
	var done sim.Time
	p.Launch(gpu.Kernel{
		Kind: gpu.Decode, FLOPs: c.FLOPs, Bytes: c.Bytes, CommBytes: c.CommBytes,
		Tokens: c.Tokens, Launch: spec.GraphLaunch,
	}, func() { done = s.Now() })
	s.Run()
	return done.Seconds()
}

// measurePrefill runs a full layer-wise prefill phase solo and returns
// its latency in seconds.
func measurePrefill(spec gpu.Spec, tp int, arch model.Arch, sms int, seqs []model.Seq) float64 {
	s := sim.New()
	d := gpu.NewDevice(s, spec, tp, "profile")
	p := d.Partition(sms, "prefill")
	layer := arch.PrefillLayer(seqs, tp, true)
	var done sim.Time
	for i := 0; i < arch.Layers; i++ {
		last := i == arch.Layers-1
		p.Launch(gpu.Kernel{
			Kind: gpu.Prefill, FLOPs: layer.FLOPs, Bytes: layer.Bytes,
			CommBytes: layer.CommBytes, Tokens: layer.Tokens, Launch: spec.LayerLaunch,
		}, func() {
			if last {
				done = s.Now()
			}
		})
	}
	s.Run()
	return done.Seconds()
}

// decodeFeatures builds the Eq. 2 feature row [Σr, bs, 1].
func decodeFeatures(totalCtx, bs int) []float64 {
	return []float64{float64(totalCtx), float64(bs), 1}
}

// prefillFeatures builds the Eq. 1 feature row [Σn², Σnᵢrᵢ, Σn, Σr, 1].
// (The Σr term is the cross term the launch-efficiency curve introduces;
// it vanishes on hardware where efficiency is flat.)
func prefillFeatures(seqs []model.Seq) []float64 {
	var n2, nr, n, r float64
	for _, s := range seqs {
		sn := float64(s.New)
		n2 += sn * sn
		nr += sn * float64(s.Reused+s.Prior)
		n += sn
		r += float64(s.Reused + s.Prior)
	}
	return []float64{n2, nr, n, r, 1}
}

// memoryBound reports which roofline side binds a kernel of the given
// cost on sms SMs — the label a real profiler reads from perf counters.
func (e *Estimator) memoryBound(c model.Cost, kind gpu.Kind, sms int) bool {
	frac := float64(sms) / float64(e.Spec.SMs)
	mfu := e.Spec.MFUDecode
	if kind == gpu.Prefill {
		mfu = e.Spec.PrefillMFU(e.Spec.MFUPrefill, c.Tokens, frac, e.TP)
	}
	computeT := c.FLOPs / (frac * e.Spec.TensorFLOPS * float64(e.TP) * mfu)
	memT := c.Bytes / e.Spec.BandwidthCap(frac, e.Spec.HBMBandwidth*float64(e.TP))
	return memT >= computeT
}

// fitRegimes fits the memory/compute planes from labelled samples. A
// regime seen fewer than 6 times borrows the pooled fit.
func fitRegimes(x [][]float64, y []float64, isMem []bool) planes {
	var mx, cx [][]float64
	var my, cy []float64
	for i := range x {
		if isMem[i] {
			mx = append(mx, x[i])
			my = append(my, y[i])
		} else {
			cx = append(cx, x[i])
			cy = append(cy, y[i])
		}
	}
	pooled := FitRelative(x, y)
	p := planes{mem: pooled, comp: pooled}
	if len(mx) >= 6 {
		if th := FitRelative(mx, my); th != nil {
			p.mem = th
		}
	}
	if len(cx) >= 6 {
		if th := FitRelative(cx, cy); th != nil {
			p.comp = th
		}
	}
	return p
}

// profileSolo fits the Eq. 1/2 models per partition configuration and
// builds the SM-indexed lookup tables from them.
func (e *Estimator) profileSolo() {
	bss := []int{1, 2, 4, 8, 16, 32, 64, 128, 192, 256}
	ctxs := []int{512, 2048, 8192, 32768, 131072}
	news := []int{256, 512, 2048, 8192, 32768}
	reuses := []int{0, 2048, 8192, 32768, 131072}

	configs := e.Configs()
	decode := make([]planes, len(configs))
	prefill := make([]planes, len(configs))
	for ci, sms := range configs {
		var dx [][]float64
		var dy []float64
		var dm []bool
		for _, bs := range bss {
			for _, ctx := range ctxs {
				lat := measureDecode(e.Spec, e.TP, e.Arch, sms, bs, ctx)
				dx = append(dx, decodeFeatures(bs*ctx, bs))
				dy = append(dy, lat)
				dctxs := make([]int, bs)
				for i := range dctxs {
					dctxs[i] = ctx
				}
				dm = append(dm, e.memoryBound(e.Arch.DecodeIter(dctxs, e.TP), gpu.Decode, sms))
			}
		}
		decode[ci] = fitRegimes(dx, dy, dm)

		var px [][]float64
		var py []float64
		var pm []bool
		for _, n := range news {
			for _, r := range reuses {
				if n+r > 160000 {
					continue
				}
				seqs := []model.Seq{{New: n, Reused: r}}
				lat := measurePrefill(e.Spec, e.TP, e.Arch, sms, seqs)
				px = append(px, prefillFeatures(seqs))
				py = append(py, lat)
				pm = append(pm, e.memoryBound(e.Arch.PrefillLayer(seqs, e.TP, true), gpu.Prefill, sms))
			}
		}
		prefill[ci] = fitRegimes(px, py, pm)
	}
	e.decodeTheta = snapTable(configs, decode, e.Spec.SMs)
	e.prefillTheta = snapTable(configs, prefill, e.Spec.SMs)
}

// snapTable returns a table of length sms+1 whose entry k is the model
// fitted for the profiled configuration nearest to k SMs, equal
// distances going to the smaller configuration. configs must be
// ascending, lie in [0, sms] and include sms, as Configs does.
func snapTable(configs []int, fits []planes, sms int) []planes {
	tab := make([]planes, sms+1)
	c := 0
	for k := range tab {
		// Move to the next configuration once it is strictly nearer.
		for c+1 < len(configs) && configs[c+1]-k < k-configs[c] {
			c++
		}
		tab[k] = fits[c]
	}
	return tab
}

// lookup returns the model for an SM count, clamped to [0, Spec.SMs]:
// no profiled configuration lies outside that range, so the clamp
// picks the same nearest configuration as the unclamped count.
func lookup(tab []planes, sms int) planes {
	return tab[min(max(sms, 0), len(tab)-1)]
}

// DecodeSolo predicts the solo-run latency of a decode iteration with the
// given total context, batch size and decode partition size.
func (e *Estimator) DecodeSolo(totalCtx, bs, sms int) sim.Time {
	lat := lookup(e.decodeTheta, sms).predict(decodeFeatures(totalCtx, bs))
	if lat < 0 {
		lat = 0
	}
	return sim.FromSeconds(lat)
}

// PrefillPhase predicts the solo-run latency of a full layer-wise prefill
// phase for the batch on the given prefill partition size.
func (e *Estimator) PrefillPhase(seqs []model.Seq, sms int) sim.Time {
	lat := lookup(e.prefillTheta, sms).predict(prefillFeatures(seqs))
	if lat < 0 {
		lat = 0
	}
	return sim.FromSeconds(lat)
}

// DecodeWorst returns the worst-case decode latency under contention with
// a prefill batch of the given shape: solo prediction times the guard's
// maximum slowdown factor for the grid cell (§3.3.2).
func (e *Estimator) DecodeWorst(totalCtx, bs, sms, prefillNew, prefillReused int) sim.Time {
	solo := e.DecodeSolo(totalCtx, bs, sms)
	f := e.guard.Factor(prefillNew, prefillReused, bs, totalCtx, sms)
	return sim.Time(float64(solo) * f)
}

// Guard exposes the contention guard (for runtime refinement).
func (e *Estimator) Guard() *Guard { return e.guard }

// ObserveSlowdown refines the contention guard with a runtime slowdown
// measurement (actual / predicted-solo) — the cost-model seam's
// online-refinement hook.
func (e *Estimator) ObserveSlowdown(prefillNew, prefillReused, bs, totalCtx, sms int, slowdown float64) {
	e.guard.Observe(prefillNew, prefillReused, bs, totalCtx, sms, slowdown)
}

// MaxDeviation evaluates predictor accuracy across a validation grid,
// returning the maximum relative deviation for prefill and decode — the
// quantities the paper reports as 8.16% and 8.84%.
func (e *Estimator) MaxDeviation() (prefill, decode float64) {
	for _, sms := range []int{e.Configs()[0], e.Spec.SMs} {
		for _, bs := range []int{3, 12, 48, 160} {
			for _, ctx := range []int{1024, 12288, 65536} {
				actual := measureDecode(e.Spec, e.TP, e.Arch, sms, bs, ctx)
				pred := e.DecodeSolo(bs*ctx, bs, sms).Seconds()
				if dev := math.Abs(pred-actual) / actual; dev > decode {
					decode = dev
				}
			}
		}
		for _, n := range []int{384, 3000, 12000} {
			for _, r := range []int{0, 5000, 60000} {
				seqs := []model.Seq{{New: n, Reused: r}}
				actual := measurePrefill(e.Spec, e.TP, e.Arch, sms, seqs)
				pred := e.PrefillPhase(seqs, sms).Seconds()
				if dev := math.Abs(pred-actual) / actual; dev > prefill {
					prefill = dev
				}
			}
		}
	}
	return prefill, decode
}
