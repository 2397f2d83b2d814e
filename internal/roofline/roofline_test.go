package roofline_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// TestDecodeSoloMatchesSimulator compares the analytical decode iteration
// time against a measured solo run on the simulated device, across
// hardware, tensor parallelism, partition sizes, batch sizes and context
// lengths — the same axes the fitted estimator profiles. The roofline
// prices kernels with the device's own rates and formulas, so it is
// exact: the seconds compared are those of the same sim.Time.
func TestDecodeSoloMatchesSimulator(t *testing.T) {
	specs := []gpu.Spec{gpu.A100(), gpu.H100(), gpu.B200()}
	arch := model.Llama8B()
	for _, spec := range specs {
		for _, tp := range []int{1, 2} {
			m := roofline.New(spec, tp, arch)
			for _, sms := range []int{spec.PartitionSizes()[0], spec.SMs} {
				for _, bs := range []int{1, 12, 160} {
					for _, ctx := range []int{1024, 65536} {
						got := m.DecodeSolo(bs*ctx, bs, sms).Seconds()
						if want := estimator.MeasureDecodeSolo(spec, tp, arch, sms, bs, ctx); got != want {
							t.Errorf("%s tp=%d sms=%d bs=%d ctx=%d: roofline %vs vs simulator %vs",
								spec.Name, tp, sms, bs, ctx, got, want)
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
			for _, sms := range []int{spec.SMs - spec.PartitionSizes()[0], spec.SMs} {
				for _, n := range []int{384, 3000, 12000} {
					for _, r := range []int{0, 60000} {
						seqs := []model.Seq{{New: n, Reused: r}}
						got := m.PrefillPhase(seqs, sms).Seconds()
						if want := estimator.MeasurePrefillSolo(spec, tp, arch, sms, seqs); got != want {
							t.Errorf("%s tp=%d sms=%d n=%d r=%d: roofline %vs vs simulator %vs",
								spec.Name, tp, sms, n, r, got, want)
						}
					}
				}
			}
		}
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
		for _, sms := range []int{spec.PartitionSizes()[0], spec.SMs} {
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
		for _, sms := range []int{spec.SMs - spec.PartitionSizes()[0], spec.SMs} {
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
	for _, sms := range append(spec.PartitionSizes(), spec.SMs) {
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

// predictionDigest is the sha256 of TestPredictionDigest's grid.
const predictionDigest = "7dfbeec50e1c536f1eede18e5263c6df5f93bce31f480bc9ca0870f25c8a440b"

// TestPredictionDigest hashes DecodeSolo and DecodeWorst for every
// catalog GPU × catalog model × TP ∈ {1, 2, 4, 8}, at every SM count from
// 0 to the whole device (partition sizes and the rest alike), over
// decode batch × per-request context shapes and prefill shapes from none
// to a 30k-token phase. Any change to the roofline's decode arithmetic or
// to the bandwidth split it shares with the device, down to one rounding,
// moves it.
func TestPredictionDigest(t *testing.T) {
	type prefill struct{ new, reused int }
	prefills := []prefill{{0, 0}, {0, 4096}, {1, 0}, {512, 0}, {8192, 2048}, {30000, 0}}
	h := sha256.New()
	var buf []byte
	put := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	n := 0
	for _, spec := range gpu.Catalog() {
		for _, arch := range model.Catalog() {
			for _, tp := range []int{1, 2, 4, 8} {
				m := roofline.New(spec, tp, arch)
				for sms := 0; sms <= spec.SMs; sms++ {
					buf = buf[:0]
					for _, bs := range []int{1, 8, 64, 256} {
						for _, ctx := range []int{256, 4096, 32768} {
							put(int64(m.DecodeSolo(bs*ctx, bs, sms)))
							for _, p := range prefills {
								put(int64(m.DecodeWorst(bs*ctx, bs, sms, p.new, p.reused)))
							}
							n += 1 + len(prefills)
						}
					}
					h.Write(buf)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != predictionDigest {
		t.Errorf("prediction digest over %d predictions = %s, want %s", n, got, predictionDigest)
	}
}

// BenchmarkPredict times the roofline's per-step predictions for the
// Llama-70B on 2xH100 shape: a ~30k-token prefill phase and a 64-request
// decode iteration, solo and beside that prefill.
func BenchmarkPredict(b *testing.B) {
	m := roofline.New(gpu.H100(), 2, model.Llama70B())
	seqs := []model.Seq{{New: 30000, Reused: 2048}}
	sms := m.Spec.PartitionSizes()[2]
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
