package roofline_test

import (
	"math"
	"testing"

	"muxwise/internal/estimator"
	"muxwise/internal/gpu"
	"muxwise/internal/model"
	"muxwise/internal/roofline"
	"muxwise/internal/sim"
)

// TestMoEArch: the MoE byte/FLOP accounting (router + active experts,
// batch-dependent expert coverage) must flow through the roofline exactly
// as it does through the simulated device — Qwen-235B is the catalog's
// only MoE entry and the shape most likely to break a closed form.
func TestMoEArch(t *testing.T) {
	spec := gpu.H200()
	arch := model.Qwen235B()
	for _, tp := range []int{1, 8} {
		m := roofline.New(spec, tp, arch)
		for _, bs := range []int{1, 32, 256} {
			got := m.DecodeSolo(bs*4096, bs, spec.SMs).Seconds()
			want := estimator.MeasureDecodeSolo(spec, tp, arch, spec.SMs, bs, 4096)
			if got != want {
				t.Errorf("tp=%d bs=%d: MoE decode roofline %vs vs simulator %vs", tp, bs, got, want)
			}
		}
		seqs := []model.Seq{{New: 4096}}
		got := m.PrefillPhase(seqs, spec.SMs).Seconds()
		want := estimator.MeasurePrefillSolo(spec, tp, arch, spec.SMs, seqs)
		if got != want {
			t.Errorf("tp=%d: MoE prefill roofline %vs vs simulator %vs", tp, got, want)
		}
	}
	// A tiny decode batch streams only its activated experts; a huge one
	// covers every expert. The roofline must preserve that gap.
	m := roofline.New(spec, 1, arch)
	smallPerTok := m.DecodeSolo(4096, 1, spec.SMs).Seconds()
	bigPerTok := m.DecodeSolo(512*4096, 512, spec.SMs).Seconds() / 512
	if bigPerTok >= smallPerTok {
		t.Errorf("MoE batching gains lost: %.6gs/token at bs=512 vs %.6gs/token at bs=1",
			bigPerTok, smallPerTok)
	}
}

// TestTPCollectiveBytes: tensor parallelism adds ring all-reduce traffic
// that the interconnect stream must carry — and a TP group must never be
// predicted faster than the interconnect allows.
func TestTPCollectiveBytes(t *testing.T) {
	spec := gpu.A100()
	arch := model.Llama70B()
	for _, tp := range []int{2, 4, 8} {
		c := arch.DecodeIterTotals(64*8192, 64, tp)
		if c.CommBytes <= 0 {
			t.Fatalf("tp=%d: no collective bytes in the decode iteration", tp)
		}
		m := roofline.New(spec, tp, arch)
		floor := spec.GraphLaunch + sim.FromSeconds(c.CommBytes/spec.NVLinkBandwidth)
		if got := m.DecodeSolo(64*8192, 64, spec.SMs); got < floor {
			t.Errorf("tp=%d: DecodeSolo %v below the interconnect floor %v", tp, got, floor)
		}
		got := m.DecodeSolo(64*8192, 64, spec.SMs).Seconds()
		want := estimator.MeasureDecodeSolo(spec, tp, arch, spec.SMs, 64, 8192)
		if got != want {
			t.Errorf("tp=%d: decode roofline %vs vs simulator %vs", tp, got, want)
		}
	}
	if c := arch.DecodeIterTotals(8192, 1, 1); c.CommBytes != 0 {
		t.Errorf("tp=1 decode carries %g collective bytes, want 0", c.CommBytes)
	}
}

// TestDegeneratePartitions: partition sizes outside [1, SMs] — including
// the 0- and 1-SM corners a scheduler bug could request — must clamp, stay
// finite, and preserve "fewer SMs is never faster".
func TestDegeneratePartitions(t *testing.T) {
	spec := gpu.A100()
	arch := model.Llama8B()
	m := roofline.New(spec, 1, arch)
	seqs := []model.Seq{{New: 2048}}
	for _, sms := range []int{-5, 0, 1, spec.SMs, spec.SMs + 100} {
		d := m.DecodeSolo(8*2048, 8, sms)
		p := m.PrefillPhase(seqs, sms)
		for _, v := range []sim.Time{d, p} {
			if v <= 0 || math.IsInf(v.Seconds(), 0) || math.IsNaN(v.Seconds()) {
				t.Fatalf("sms=%d: degenerate time %v", sms, v)
			}
		}
	}
	if m.DecodeSolo(8*2048, 8, 0) != m.DecodeSolo(8*2048, 8, 1) {
		t.Error("sms=0 does not clamp to the 1-SM partition")
	}
	if m.DecodeSolo(8*2048, 8, spec.SMs+100) != m.DecodeSolo(8*2048, 8, spec.SMs) {
		t.Error("sms>SMs does not clamp to the full device")
	}
	one := m.PrefillPhase(seqs, 1)
	full := m.PrefillPhase(seqs, spec.SMs)
	if one < full {
		t.Errorf("1-SM prefill %v faster than full-device %v", one, full)
	}
	// Degenerate batch shapes: empty work must not go negative or NaN.
	if got := m.DecodeSolo(0, 0, spec.SMs); got != spec.GraphLaunch {
		t.Errorf("empty decode batch = %v, want bare graph launch %v", got, spec.GraphLaunch)
	}
	if got := m.PrefillPhase(nil, spec.SMs); got < 0 {
		t.Errorf("empty prefill phase = %v", got)
	}
	if got := (&roofline.Model{Spec: spec}).PrefillPhase(seqs, spec.SMs); got != 0 {
		t.Errorf("zero-layer arch prefill = %v, want 0", got)
	}
}

// TestMonotoneInTokens is the property check: predicted time is
// non-decreasing in batch tokens, for decode batch size, decode context
// and prefill chunk size alike.
func TestMonotoneInTokens(t *testing.T) {
	for _, spec := range []gpu.Spec{gpu.A100(), gpu.B200()} {
		for _, arch := range []model.Arch{model.Llama8B(), model.Qwen235B()} {
			m := roofline.New(spec, 1, arch)
			for _, sms := range []int{spec.PartitionSizes()[0], spec.SMs} {
				prev := sim.Time(0)
				for bs := 1; bs <= 512; bs *= 2 {
					cur := m.DecodeSolo(bs*2048, bs, sms)
					if cur < prev {
						t.Errorf("%s/%s sms=%d: decode time shrank at bs=%d (%v < %v)",
							spec.Name, arch.Name, sms, bs, cur, prev)
					}
					prev = cur
				}
				prev = 0
				for ctx := 256; ctx <= 262144; ctx *= 4 {
					cur := m.DecodeSolo(ctx*16, 16, sms)
					if cur < prev {
						t.Errorf("%s/%s sms=%d: decode time shrank at ctx=%d", spec.Name, arch.Name, sms, ctx)
					}
					prev = cur
				}
				prev = 0
				for n := 64; n <= 65536; n *= 4 {
					cur := m.PrefillPhase([]model.Seq{{New: n}}, sms)
					if cur < prev {
						t.Errorf("%s/%s sms=%d: prefill time shrank at n=%d", spec.Name, arch.Name, sms, n)
					}
					prev = cur
				}
			}
		}
	}
}

// TestNeverBelowComputeBound: no prediction may beat the ideal tensor-core
// bound FLOPs/(TensorFLOPS·TP) — MFU ≤ 1 and smFraction ≤ 1 by
// construction, so breaking this floor means the rate math is wrong.
func TestNeverBelowComputeBound(t *testing.T) {
	for _, spec := range []gpu.Spec{gpu.A100(), gpu.H100(), gpu.H200(), gpu.B200()} {
		for _, arch := range []model.Arch{model.Llama8B(), model.Llama70B(), model.Qwen235B()} {
			for _, tp := range []int{1, 4} {
				m := roofline.New(spec, tp, arch)
				peak := spec.TensorFLOPS * float64(tp)
				for _, sms := range []int{1, spec.PartitionSizes()[0], spec.SMs} {
					for _, bs := range []int{1, 64} {
						c := arch.DecodeIterTotals(bs*4096, bs, tp)
						got := m.DecodeSolo(bs*4096, bs, sms)
						if floor := spec.GraphLaunch + sim.FromSeconds(c.FLOPs/peak); got < floor {
							t.Errorf("%s/%s tp=%d sms=%d bs=%d: decode %v below compute floor %v",
								spec.Name, arch.Name, tp, sms, bs, got, floor)
						}
					}
					seqs := []model.Seq{{New: 8192}}
					layer := arch.PrefillLayer(seqs, tp, true)
					got := m.PrefillPhase(seqs, sms)
					floor := sim.FromSeconds(float64(arch.Layers) * layer.FLOPs / peak)
					if got < floor {
						t.Errorf("%s/%s tp=%d sms=%d: prefill %v below compute floor %v",
							spec.Name, arch.Name, tp, sms, got, floor)
					}
				}
			}
		}
	}
}

// TestObserveSlowdownIsInert: the analytic contention model has no runtime
// state; feeding it observations must not change any prediction.
func TestObserveSlowdownIsInert(t *testing.T) {
	spec := gpu.A100()
	m := roofline.New(spec, 1, model.Llama8B())
	before := m.DecodeWorst(64*2048, 64, 52, 9000, 1000)
	m.ObserveSlowdown(9000, 1000, 64, 64*2048, 52, 3.7)
	if after := m.DecodeWorst(64*2048, 64, 52, 9000, 1000); after != before {
		t.Fatalf("ObserveSlowdown mutated the model: %v -> %v", before, after)
	}
}
