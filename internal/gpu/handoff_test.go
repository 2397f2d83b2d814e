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
	at       []sim.Time // each layer's retirement
	decodeAt sim.Time   // the decode kernel's retirement
}

func runHandoff(layers int) *handoff {
	spec, arch := A100(), model.Llama8B()
	h := &handoff{s: sim.New()}
	d := NewDevice(h.s, spec, 1, "handoff")
	dec := NewKernel("decode", Decode, arch.DecodeIterTotals(64*1024, 64, 1), spec.GraphLaunch)
	dec.Bytes *= 1e4
	d.Partition(60, "decode").LaunchFn(dec, func(any) { h.decodeAt = h.s.Now() }, nil)
	layer := NewKernel("layer", Prefill, arch.PrefillLayer([]model.Seq{{New: 2048}}, 1, true), spec.LayerLaunch)
	pre := d.Partition(48, "prefill")
	done := func(any) { h.at = append(h.at, h.s.Now()) }
	for range layers {
		pre.LaunchFn(layer, done, nil)
	}
	h.s.Run()
	return h
}

// BenchmarkCoRunHandoff times a decode kernel beside a queue of
// identical prefill layers under a saturated waterfill, per layer: each
// layer is one drain and one retirement that starts the next layer, and
// each of the two prices the running pair.
func BenchmarkCoRunHandoff(b *testing.B) {
	const layers = 256
	for b.Loop() {
		if h := runHandoff(layers); h.decodeAt <= h.at[layers-1] {
			b.Fatalf("the decode kernel retired at %v, before the last layer at %v", h.decodeAt, h.at[layers-1])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*layers), "ns/layer")
}
