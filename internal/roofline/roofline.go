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
// of per-layer kernels the simulated device runs (gpu.LayerPipeline).
//
// The regime-labelling difference from internal/estimator: the fitted
// estimator uses the roofline only to *label* each profiled sample as
// memory- or compute-bound, then fits a max-of-two-planes regression per
// regime and answers queries from the planes; the roofline model *is* the
// bound — it computes both sides directly from first principles and
// returns the max, so it needs no profiling grid and extrapolates to any
// (model, GPU) pair, at the price of trusting the datasheet MFU terms
// instead of measured latencies. Contention is analytic too: DecodeWorst
// splits HBM bandwidth between the decode partition and the complementary
// prefill partition as the device splits a running pair's
// (gpu.SplitBandwidth) instead of consulting a profiled slowdown grid
// (estimator.Guard), so ObserveSlowdown is a no-op here.
package roofline

import (
	"muxwise/internal/gpu"
	"muxwise/internal/model"
	"muxwise/internal/sim"
)

// Model is the analytical roofline estimator for one (LLM, machine) pair.
// It is stateless and read-only after construction by New: the same
// instance may be shared across engines and goroutines.
type Model struct {
	Spec gpu.Spec
	TP   int
	Arch model.Arch

	decode model.DecodeTable // Arch's decode costs at TP
}

// New returns the roofline model for the given deployment. Unlike
// estimator.New there is no offline profiling to run or cache: the model
// is ready immediately for any spec and architecture.
func New(spec gpu.Spec, tp int, arch model.Arch) *Model {
	if tp < 1 {
		tp = 1
	}
	m := &Model{Spec: spec, TP: tp, Arch: arch}
	m.decode = m.Arch.DecodeTable(tp)
	return m
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

// execSeconds is the roofline time of one kernel running solo on sms
// SMs, at the exact rates the simulated device grants a lone kernel.
func (m *Model) execSeconds(c model.Cost, kind gpu.Kind, sms int) float64 {
	crate, brate := m.Spec.SoloRates(kind, c.Tokens, m.clampSMs(sms), m.TP)
	return m.seconds(c, crate, brate)
}

// seconds is the roofline max over the three sub-streams (compute at
// crate FLOP/s, HBM at brate bytes/s, interconnect at NVLink bandwidth).
func (m *Model) seconds(c model.Cost, crate, brate float64) float64 {
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

// DecodeSolo predicts the solo-run latency of one decode iteration with
// the given total attended context, batch size and decode partition size,
// including the CUDA-graph launch.
func (m *Model) DecodeSolo(totalCtx, bs, sms int) sim.Time {
	c := m.decode.Iter(totalCtx, bs)
	return m.Spec.GraphLaunch + sim.FromSeconds(m.execSeconds(c, gpu.Decode, sms))
}

// PrefillPhase predicts the solo-run latency of a full layer-wise prefill
// phase for the batch on the given prefill partition size: its per-layer
// kernels pipeline against the serialized host launcher as on the device
// (gpu.LayerPipeline), each taking its roofline time, at least 1 ns as a
// device retires a kernel.
func (m *Model) PrefillPhase(seqs []model.Seq, sms int) sim.Time {
	if m.Arch.Layers <= 0 {
		return 0
	}
	layer := m.Arch.PrefillLayer(seqs, m.TP, true)
	e := max(sim.FromSeconds(m.execSeconds(layer, gpu.Prefill, sms)), 1)
	return gpu.LayerPipeline(m.Arch.Layers, m.Spec.LayerLaunch, e)
}

// DecodeWorst returns the worst-case decode latency under spatial
// multiplexing with a prefill batch of the given shape. Contention is
// analytic, not profiled: the decode partition's bandwidth demand and the
// complementary prefill partition's, each capped by its own SM-limited
// absorption, split the group's HBM bandwidth as a running pair's do on
// the device (gpu.SplitBandwidth), and the decode launch budgets one
// worst-case wait behind an in-flight prefill layer launch on the
// serialized host thread.
func (m *Model) DecodeWorst(totalCtx, bs, sms, prefillNew, prefillReused int) sim.Time {
	sms = m.clampSMs(sms)
	c := m.decode.Iter(totalCtx, bs)
	crate, brate := m.Spec.SoloRates(gpu.Decode, c.Tokens, sms, m.TP)
	launch := m.Spec.GraphLaunch
	if preSM := m.Spec.SMs - sms; preSM > 0 && prefillNew+prefillReused > 0 {
		launch += m.Spec.LayerLaunch
		bw := m.Spec.HBMBandwidth * float64(m.TP)
		capP := m.Spec.BandwidthCap(float64(preSM)/float64(m.Spec.SMs), bw)
		brate, _, _ = gpu.SplitBandwidth(brate, capP, bw)
	}
	return launch + sim.FromSeconds(m.seconds(c, crate, brate))
}

// ObserveSlowdown is a no-op: the roofline's contention model is analytic
// (see DecodeWorst), so there is no guard grid to refine at runtime.
func (m *Model) ObserveSlowdown(prefillNew, prefillReused, bs, totalCtx, sms int, slowdown float64) {
}
