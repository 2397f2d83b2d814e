package roofline_test

import (
	"math"
	"testing"

	"muxwise/internal/estimator"
	"muxwise/internal/gpu"
	"muxwise/internal/model"
	"muxwise/internal/roofline"
)

// relErr returns |got−want|/want (want > 0).
func relErr(got, want float64) float64 {
	return math.Abs(got-want) / want
}

// The roofline closed forms are derived from the simulated device's fluid
// model, so against a solo run on a fresh device they should be exact up
// to event-time quantization. This band is the tentpole's ground-truth
// check: the analytical model reproduces the simulator it replaces the
// profiler of.
const simBand = 1e-3

// TestDecodeSoloMatchesSimulator compares the analytical decode iteration
// time against a measured solo run on the simulated device, across
// hardware, tensor parallelism, partition sizes, batch sizes and context
// lengths — the same axes the fitted estimator profiles.
func TestDecodeSoloMatchesSimulator(t *testing.T) {
	specs := []gpu.Spec{gpu.A100(), gpu.H100(), gpu.B200()}
	arch := model.Llama8B()
	for _, spec := range specs {
		for _, tp := range []int{1, 2} {
			m := roofline.New(spec, tp, arch)
			cfgs := m.Configs()
			for _, sms := range []int{cfgs[0], spec.SMs} {
				for _, bs := range []int{1, 12, 160} {
					for _, ctx := range []int{1024, 65536} {
						got := m.DecodeSolo(bs*ctx, bs, sms).Seconds()
						want := estimator.MeasureDecodeSolo(spec, tp, arch, sms, bs, ctx)
						if e := relErr(got, want); e > simBand {
							t.Errorf("%s tp=%d sms=%d bs=%d ctx=%d: roofline %.6gs vs simulator %.6gs (rel %.2e)",
								spec.Name, tp, sms, bs, ctx, got, want, e)
						}
					}
				}
			}
		}
	}
}

// TestPrefillPhaseMatchesSimulator compares the analytical layer-pipeline
// prefill time against a measured solo phase on the simulated device.
func TestPrefillPhaseMatchesSimulator(t *testing.T) {
	specs := []gpu.Spec{gpu.A100(), gpu.H100(), gpu.B200()}
	arch := model.Llama8B()
	for _, spec := range specs {
		for _, tp := range []int{1, 2} {
			m := roofline.New(spec, tp, arch)
			cfgs := m.Configs()
			for _, sms := range []int{spec.SMs - cfgs[0], spec.SMs} {
				for _, n := range []int{384, 3000, 12000} {
					for _, r := range []int{0, 60000} {
						seqs := []model.Seq{{New: n, Reused: r}}
						got := m.PrefillPhase(seqs, sms).Seconds()
						want := estimator.MeasurePrefillSolo(spec, tp, arch, sms, seqs)
						if e := relErr(got, want); e > simBand {
							t.Errorf("%s tp=%d sms=%d n=%d r=%d: roofline %.6gs vs simulator %.6gs (rel %.2e)",
								spec.Name, tp, sms, n, r, got, want, e)
						}
					}
				}
			}
		}
	}
}

// TestFusedStepMatchesDirectCost pins the chunked-prefill fusion: one
// kernel carrying both phases' work, timed by the max of its streams.
func TestFusedStepMatchesDirectCost(t *testing.T) {
	spec := gpu.A100()
	arch := model.Llama8B()
	m := roofline.New(spec, 1, arch)
	chunk := model.Seq{New: 512, Prior: 1024, Reused: 2048}
	const totalCtx, bs = 1000 + 4000 + 9000, 3
	c := arch.FusedChunkIter(chunk, totalCtx, bs, 1)
	want := spec.GraphLaunch + m.KernelTime(c, gpu.Prefill, spec.SMs)
	if got := m.FusedStep(chunk, totalCtx, bs, spec.SMs); got != want {
		t.Fatalf("FusedStep %v != GraphLaunch + KernelTime %v", got, want)
	}
	// A pure-decode "chunk" (New=0) must time with the flat decode MFU.
	cd := arch.FusedChunkIter(model.Seq{}, totalCtx, bs, 1)
	wantD := spec.GraphLaunch + m.KernelTime(cd, gpu.Decode, spec.SMs)
	if got := m.FusedStep(model.Seq{}, totalCtx, bs, spec.SMs); got != wantD {
		t.Fatalf("decode-only FusedStep %v != %v", got, wantD)
	}
}

// fittedBand is the documented tolerance for roofline-vs-fitted agreement
// on the profiled A100/H100 grid (docs/roofline.md "Validation"). The
// fitted planes are a max-of-two-planes regression over simulator-measured
// samples; the roofline matches those samples near-exactly, so this band
// is effectively the fitted model's own fit residual.
const fittedBand = 0.15

// TestFittedAgreementDecode sweeps the fitted estimator's validation grid
// on the two profiled GPUs and checks the roofline's decode predictions
// stay inside the documented band.
func TestFittedAgreementDecode(t *testing.T) {
	for _, spec := range []gpu.Spec{gpu.A100(), gpu.H100()} {
		arch := model.Llama8B()
		fitted := estimator.New(spec, 1, arch)
		m := roofline.New(spec, 1, arch)
		worst := 0.0
		for _, sms := range []int{m.Configs()[0], spec.SMs} {
			for _, bs := range []int{3, 12, 48, 160} {
				for _, ctx := range []int{1024, 12288, 65536} {
					got := m.DecodeSolo(bs*ctx, bs, sms).Seconds()
					want := fitted.DecodeSolo(bs*ctx, bs, sms).Seconds()
					e := relErr(got, want)
					if e > worst {
						worst = e
					}
					if e > fittedBand {
						t.Errorf("%s sms=%d bs=%d ctx=%d: roofline %.6gs vs fitted %.6gs (rel %.1f%%)",
							spec.Name, sms, bs, ctx, got, want, e*100)
					}
				}
			}
		}
		t.Logf("%s decode: worst roofline-vs-fitted deviation %.1f%%", spec.Name, worst*100)
	}
}

// TestFittedAgreementPrefill is the prefill half of the validation grid.
func TestFittedAgreementPrefill(t *testing.T) {
	for _, spec := range []gpu.Spec{gpu.A100(), gpu.H100()} {
		arch := model.Llama8B()
		fitted := estimator.New(spec, 1, arch)
		m := roofline.New(spec, 1, arch)
		worst := 0.0
		for _, sms := range []int{spec.SMs - m.Configs()[0], spec.SMs} {
			for _, n := range []int{384, 3000, 12000} {
				for _, r := range []int{0, 5000, 60000} {
					seqs := []model.Seq{{New: n, Reused: r}}
					got := m.PrefillPhase(seqs, sms).Seconds()
					want := fitted.PrefillPhase(seqs, sms).Seconds()
					e := relErr(got, want)
					if e > worst {
						worst = e
					}
					if e > fittedBand {
						t.Errorf("%s sms=%d n=%d r=%d: roofline %.6gs vs fitted %.6gs (rel %.1f%%)",
							spec.Name, sms, n, r, got, want, e*100)
					}
				}
			}
		}
		t.Logf("%s prefill: worst roofline-vs-fitted deviation %.1f%%", spec.Name, worst*100)
	}
}

// TestDecodeWorstBounds: contention can only slow decode down, and the
// analytic waterfill can at most halve the decode partition's bandwidth,
// which bounds the slowdown by the guard's own physics (×2 on the memory
// term plus one extra layer launch).
func TestDecodeWorstBounds(t *testing.T) {
	spec := gpu.A100()
	m := roofline.New(spec, 1, model.Llama8B())
	for _, sms := range m.Configs() {
		for _, bs := range []int{4, 64} {
			solo := m.DecodeSolo(bs*4096, bs, sms)
			worst := m.DecodeWorst(bs*4096, bs, sms, 8000, 0)
			if worst < solo {
				t.Errorf("sms=%d bs=%d: DecodeWorst %v below DecodeSolo %v", sms, bs, worst, solo)
			}
			ceiling := 2*(solo-spec.GraphLaunch) + spec.GraphLaunch + spec.LayerLaunch
			if worst > ceiling {
				t.Errorf("sms=%d bs=%d: DecodeWorst %v above the 2× memory ceiling %v", sms, bs, worst, ceiling)
			}
		}
	}
	// With no prefill running (or the full device held by decode) the
	// worst case collapses to solo.
	if got, want := m.DecodeWorst(4096, 4, spec.SMs, 8000, 0), m.DecodeSolo(4096, 4, spec.SMs); got != want {
		t.Errorf("full-device DecodeWorst %v != DecodeSolo %v", got, want)
	}
	if got, want := m.DecodeWorst(4096, 4, 36, 0, 0), m.DecodeSolo(4096, 4, 36); got != want {
		t.Errorf("idle-prefill DecodeWorst %v != DecodeSolo %v", got, want)
	}
}

// TestRegimeOf pins the regime labels on canonical shapes: small-batch
// decode streams weights (memory-bound), a large prefill chunk on a full
// device is compute-bound, and a synthetic all-comm kernel labels Comm.
func TestRegimeOf(t *testing.T) {
	spec := gpu.A100()
	arch := model.Llama8B()
	m := roofline.New(spec, 1, arch)
	dec := arch.DecodeIterTotals(4*2048, 4, 1)
	if r := m.RegimeOf(dec, gpu.Decode, spec.SMs); r != roofline.Memory {
		t.Errorf("small-batch decode regime = %v, want memory", r)
	}
	pre := arch.PrefillLayer([]model.Seq{{New: 8192}}, 1, true)
	if r := m.RegimeOf(pre, gpu.Prefill, spec.SMs); r != roofline.Compute {
		t.Errorf("8k prefill chunk regime = %v, want compute", r)
	}
	comm := model.Cost{FLOPs: 1, Bytes: 1, CommBytes: 1e12, Tokens: 1}
	if r := m.RegimeOf(comm, gpu.Decode, spec.SMs); r != roofline.Comm {
		t.Errorf("all-comm kernel regime = %v, want comm", r)
	}
	for i, want := range map[roofline.Regime]string{
		roofline.Compute: "compute", roofline.Memory: "memory", roofline.Comm: "comm",
	} {
		if got := i.String(); got != want {
			t.Errorf("Regime(%d).String() = %q, want %q", int(i), got, want)
		}
	}
}

// TestConfigsMirrorsEstimator: both cost models must offer the engine the
// same partition menu, or a cost-model switch would change scheduling
// decisions for reasons other than predicted time.
func TestConfigsMirrorsEstimator(t *testing.T) {
	spec := gpu.H100()
	arch := model.Llama8B()
	rl := roofline.New(spec, 1, arch).Configs()
	fit := estimator.New(spec, 1, arch).Configs()
	if len(rl) != len(fit) {
		t.Fatalf("config menus differ: roofline %v vs fitted %v", rl, fit)
	}
	for i := range rl {
		if rl[i] != fit[i] {
			t.Fatalf("config menus differ: roofline %v vs fitted %v", rl, fit)
		}
	}
}

// BenchmarkPredict times the roofline's per-step predictions for the
// Llama-70B on 2xH100 shape: a ~30k-token prefill phase and a 64-request
// decode iteration, solo and beside that prefill.
func BenchmarkPredict(b *testing.B) {
	m := roofline.New(gpu.H100(), 2, model.Llama70B())
	seqs := []model.Seq{{New: 30000, Reused: 2048}}
	sms := m.Configs()[2]
	b.Run("PrefillPhase", func(b *testing.B) {
		for b.Loop() {
			m.PrefillPhase(seqs, sms)
		}
	})
	b.Run("DecodeSolo", func(b *testing.B) {
		for b.Loop() {
			m.DecodeSolo(64*8192, 64, sms)
		}
	})
	b.Run("DecodeWorst", func(b *testing.B) {
		for b.Loop() {
			m.DecodeWorst(64*8192, 64, sms, 30000, 2048)
		}
	})
}
