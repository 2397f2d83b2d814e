// Package roofline implements an analytical step-time estimator for any
// model.Arch × gpu.Spec pair: no offline profiling, just the architecture's
// exact FLOP/byte counts (internal/model) and the GPU's datasheet rates
// (gpu.Spec). Each kernel's time is the classic roofline maximum
//
//	max( FLOPs / (TensorFLOPS·TP·MFU·smFraction),
//	     bytes / effectiveBandwidth,
//	     commBytes / NVLinkBandwidth )
//
// with the same partition semantics the simulated device applies: compute
// scales with the SM fraction, bandwidth is capped at
// smFraction/BWSaturationFrac of peak (a kernel on few SMs cannot absorb
// full HBM bandwidth), and prefill efficiency follows the SatTokensPerSM
// saturation curve so small chunks stay launch/efficiency-bound and the
// paper's knees survive. A full prefill phase is the host-launch pipeline
// of per-layer kernels: Layers·max(exec, LayerLaunch) + min(exec,
// LayerLaunch). Mixed prefill/decode (chunked, SARATHI-style) iterations
// combine both phases' work in a single kernel whose streams again drain
// by max — see FusedStep.
//
// The regime-labelling difference from internal/estimator: the fitted
// estimator uses the roofline only to *label* each profiled sample as
// memory- or compute-bound, then fits a max-of-two-planes regression per
// regime and answers queries from the planes; the roofline model *is* the
// bound — it computes both sides directly from first principles and
// returns the max, so it needs no profiling grid and extrapolates to any
// (model, GPU) pair, at the price of trusting the datasheet MFU terms
// instead of measured latencies. Contention is analytic too: DecodeWorst
// water-fills HBM bandwidth between the decode partition and the
// complementary prefill partition instead of consulting a profiled
// slowdown grid (estimator.Guard), so ObserveSlowdown is a no-op here.
package roofline

import (
	"math"

	"muxwise/internal/gpu"
	"muxwise/internal/model"
	"muxwise/internal/sim"
)

// Model is the analytical roofline estimator for one (LLM, machine) pair.
// It is stateless and read-only after construction: the same instance may
// be shared across engines and goroutines.
type Model struct {
	Spec gpu.Spec
	TP   int
	Arch model.Arch
}

// New returns the roofline model for the given deployment. Unlike
// estimator.New there is no offline profiling to run or cache: the model
// is ready immediately for any spec and architecture.
func New(spec gpu.Spec, tp int, arch model.Arch) *Model {
	if tp < 1 {
		tp = 1
	}
	return &Model{Spec: spec, TP: tp, Arch: arch}
}

// Configs returns the candidate decode partition sizes plus the full
// device, mirroring estimator.Configs.
func (m *Model) Configs() []int {
	return append(m.Spec.PartitionSizes(), m.Spec.SMs)
}

// clampSMs keeps a partition size inside [1, SMs]: a degenerate 0-SM
// request is treated as the smallest schedulable partition rather than a
// division by zero.
func (m *Model) clampSMs(sms int) int {
	if sms < 1 {
		return 1
	}
	if sms > m.Spec.SMs {
		return m.Spec.SMs
	}
	return sms
}

// rates returns the solo compute (FLOP/s) and memory (bytes/s) service
// rates of a kernel of the given kind and new-token count on sms SMs per
// GPU — the exact rates the simulated device grants a lone kernel.
func (m *Model) rates(kind gpu.Kind, tokens, sms int) (crate, brate float64) {
	frac := float64(sms) / float64(m.Spec.SMs)
	mfu := m.Spec.MFUDecode
	if kind == gpu.Prefill {
		mfu = m.Spec.PrefillMFU(m.Spec.MFUPrefill, tokens, frac, m.TP)
	}
	crate = frac * m.Spec.TensorFLOPS * float64(m.TP) * mfu
	return crate, m.Spec.BandwidthCap(frac, m.Spec.HBMBandwidth*float64(m.TP))
}

// execSeconds is the roofline max over the three sub-streams (compute,
// HBM, interconnect) for one kernel running solo on sms SMs.
func (m *Model) execSeconds(c model.Cost, kind gpu.Kind, sms int) float64 {
	crate, brate := m.rates(kind, c.Tokens, m.clampSMs(sms))
	t := 0.0
	if c.FLOPs > 0 {
		t = c.FLOPs / crate
	}
	if c.Bytes > 0 {
		if bt := c.Bytes / brate; bt > t {
			t = bt
		}
	}
	if c.CommBytes > 0 {
		if ct := c.CommBytes / m.Spec.NVLinkBandwidth; ct > t {
			t = ct
		}
	}
	return t
}

// KernelTime returns the solo execution time of one kernel of the given
// cost and kind on sms SMs per GPU, excluding host launch latency.
func (m *Model) KernelTime(c model.Cost, kind gpu.Kind, sms int) sim.Time {
	return sim.FromSeconds(m.execSeconds(c, kind, sms))
}

// DecodeSolo predicts the solo-run latency of one decode iteration with
// the given total attended context, batch size and decode partition size,
// including the CUDA-graph launch.
func (m *Model) DecodeSolo(totalCtx, bs, sms int) sim.Time {
	c := m.Arch.DecodeIterTotals(totalCtx, bs, m.TP)
	return m.Spec.GraphLaunch + sim.FromSeconds(m.execSeconds(c, gpu.Decode, sms))
}

// PrefillPhase predicts the solo-run latency of a full layer-wise prefill
// phase for the batch on the given prefill partition size. Per-layer
// kernels pipeline against the serialized host launcher: with per-layer
// execution time E and launch latency L, layer i finishes at
// max((i+1)·L, finish(i−1)) + E, which telescopes to
// Layers·max(E, L) + min(E, L).
func (m *Model) PrefillPhase(seqs []model.Seq, sms int) sim.Time {
	if m.Arch.Layers <= 0 {
		return 0
	}
	layer := m.Arch.PrefillLayer(seqs, m.TP, true)
	e := m.execSeconds(layer, gpu.Prefill, sms)
	l := m.Spec.LayerLaunch.Seconds()
	n := float64(m.Arch.Layers)
	return sim.FromSeconds(n*math.Max(e, l) + math.Min(e, l))
}

// DecodeWorst returns the worst-case decode latency under spatial
// multiplexing with a prefill batch of the given shape. Contention is
// analytic, not profiled: the decode partition's bandwidth demand
// water-fills the group's HBM bandwidth against the complementary prefill
// partition's demand (max-min fair, each capped by its own SM-limited
// absorption), and the decode launch budgets one worst-case wait behind an
// in-flight prefill layer launch on the serialized host thread.
func (m *Model) DecodeWorst(totalCtx, bs, sms, prefillNew, prefillReused int) sim.Time {
	sms = m.clampSMs(sms)
	c := m.Arch.DecodeIterTotals(totalCtx, bs, m.TP)
	crate, brate := m.rates(gpu.Decode, c.Tokens, sms)
	launch := m.Spec.GraphLaunch
	preSM := m.Spec.SMs - sms
	if preSM > 0 && prefillNew+prefillReused > 0 {
		launch += m.Spec.LayerLaunch
		bw := m.Spec.HBMBandwidth * float64(m.TP)
		fracP := float64(preSM) / float64(m.Spec.SMs)
		capP := m.Spec.BandwidthCap(fracP, bw)
		if brate+capP > bw {
			// Oversubscribed HBM: max-min fair shares, each side still
			// capped by its own absorption limit.
			fair := bw / 2
			switch {
			case capP <= fair:
				brate = bw - capP
			case brate <= fair:
				// Decode's own cap is below the fair share: no slowdown.
			default:
				brate = fair
			}
		}
	}
	t := 0.0
	if c.FLOPs > 0 {
		t = c.FLOPs / crate
	}
	if c.Bytes > 0 {
		if bt := c.Bytes / brate; bt > t {
			t = bt
		}
	}
	if c.CommBytes > 0 {
		if ct := c.CommBytes / m.Spec.NVLinkBandwidth; ct > t {
			t = ct
		}
	}
	return launch + sim.FromSeconds(t)
}

// FusedStep predicts one chunked-prefill iteration that fuses a prefill
// chunk with a decode batch (SARATHI-style): both phases' FLOPs and bytes
// land in a single kernel whose compute, memory and interconnect streams
// drain concurrently, so the mixed batch costs the max of its rooflines
// rather than their sum — the chunked-prefill overlap the paper measures.
func (m *Model) FusedStep(chunk model.Seq, decodeCtxs []int, sms int) sim.Time {
	c := m.Arch.FusedChunkIter(chunk, decodeCtxs, m.TP)
	kind := gpu.Decode
	if chunk.New > 0 {
		kind = gpu.Prefill
	}
	return m.Spec.GraphLaunch + sim.FromSeconds(m.execSeconds(c, kind, sms))
}

// ObserveSlowdown is a no-op: the roofline's contention model is analytic
// (see DecodeWorst), so there is no guard grid to refine at runtime.
func (m *Model) ObserveSlowdown(prefillNew, prefillReused, bs, totalCtx, sms int, slowdown float64) {
}

// Regime identifies which roofline term bounds a kernel.
type Regime int

const (
	// Compute: the tensor-core stream drains last.
	Compute Regime = iota
	// Memory: the HBM stream drains last.
	Memory
	// Comm: the TP-collective interconnect stream drains last.
	Comm
)

// String implements fmt.Stringer.
func (r Regime) String() string {
	switch r {
	case Compute:
		return "compute"
	case Memory:
		return "memory"
	default:
		return "comm"
	}
}

// RegimeOf reports which sub-stream bounds a kernel of the given cost and
// kind on sms SMs — the label the fitted estimator derives to pick a
// regression plane, computed here as the model's direct output.
func (m *Model) RegimeOf(c model.Cost, kind gpu.Kind, sms int) Regime {
	crate, brate := m.rates(kind, c.Tokens, m.clampSMs(sms))
	ct := c.FLOPs / crate
	mt := c.Bytes / brate
	xt := 0.0
	if c.CommBytes > 0 {
		xt = c.CommBytes / m.Spec.NVLinkBandwidth
	}
	if mt >= ct && mt >= xt {
		return Memory
	}
	if ct >= xt {
		return Compute
	}
	return Comm
}
