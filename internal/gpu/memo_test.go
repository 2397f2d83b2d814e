package gpu

import (
	"testing"

	"muxwise/internal/model"
	"muxwise/internal/sim"
)

// handoff is MuxWise's layer-by-layer prefill beside a decode iteration
// on one A100: a decode kernel on 60 SMs that outlasts every layer, and
// layers identical prefill layers of Llama-8B queued on the other 48 SMs.
// Both kernels' bandwidth caps together exceed the device's bandwidth, so
// the waterfill saturates and each layer's weights drain before its
// compute: a layer costs a drain event and a retirement that starts the
// next layer.
type handoff struct {
	s        *sim.Sim
	d        *Device
	at       []sim.Time // each layer's retirement
	passes   []int64    // RatePasses in each layer's completion callback
	decodeAt sim.Time   // the decode kernel's retirement
}

func runHandoff(layers int) *handoff {
	spec, arch := A100(), model.Llama8B()
	h := &handoff{s: sim.New()}
	h.d = NewDevice(h.s, spec, 1, "handoff")
	dec := NewKernel("decode", Decode, arch.DecodeIterTotals(64*1024, 64, 1), spec.GraphLaunch)
	dec.Bytes *= 1e4
	h.d.Partition(60, "decode").LaunchFn(dec, func(any) { h.decodeAt = h.s.Now() }, nil)
	layer := NewKernel("layer", Prefill, arch.PrefillLayer([]model.Seq{{New: 2048}}, 1, true), spec.LayerLaunch)
	pre := h.d.Partition(48, "prefill")
	done := func(any) {
		h.at = append(h.at, h.s.Now())
		h.passes = append(h.passes, h.d.RatePasses())
	}
	for range layers {
		pre.LaunchFn(layer, done, nil)
	}
	h.s.Run()
	return h
}

// In MuxWise's layer handoff the running set (decode, layer) repeats:
// the first layer's start and its weights' drain under the saturated
// waterfill each run an occupancy pass, and every later layer's start and
// drain hit the memo. The timeline is the one the pass gives at every
// step.
func TestHandoffHitsMemo(t *testing.T) {
	const layers = 4
	restore := SetNoRateMemo(false)
	h := runHandoff(layers)
	restore()
	if len(h.at) != layers || h.decodeAt <= h.at[layers-1] {
		t.Fatalf("layers retired at %v, the decode kernel at %v: want %d layers, all before the decode kernel", h.at, h.decodeAt, layers)
	}
	if !h.d.rates.sets[0].saturated && !h.d.rates.sets[1].saturated {
		t.Fatal("the decode kernel and a layer do not saturate the waterfill")
	}
	for i, p := range h.passes {
		if p != 2 {
			t.Fatalf("after layer %d: %d occupancy passes, want 2 (the first layer's start and drain)", i, p)
		}
	}
	defer SetNoRateMemo(true)()
	ref := runHandoff(layers)
	for i := range layers {
		if h.at[i] != ref.at[i] {
			t.Fatalf("layer %d retired at %v with the memo, %v through the pass", i, h.at[i], ref.at[i])
		}
	}
	if got, want := ref.passes[layers-1], int64(2*layers); got != want {
		t.Fatalf("memo off: %d passes over %d layers, want %d", got, layers, want)
	}
}

// BenchmarkCoRunHandoff times a decode kernel beside a queue of
// identical prefill layers under a saturated waterfill, per layer, with
// the rate memo on and off: each layer is one drain and one retirement
// that starts the next layer, both repeats of the set before.
func BenchmarkCoRunHandoff(b *testing.B) {
	const layers = 256
	for _, memo := range []bool{true, false} {
		name := "memo"
		if !memo {
			name = "nomemo"
		}
		b.Run(name, func(b *testing.B) {
			defer SetNoRateMemo(!memo)()
			for b.Loop() {
				if h := runHandoff(layers); h.decodeAt <= h.at[layers-1] {
					b.Fatalf("the decode kernel retired at %v, before the last layer at %v", h.decodeAt, h.at[layers-1])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*layers), "ns/layer")
		})
	}
}
