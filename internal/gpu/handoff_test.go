package gpu

import (
	"testing"

	"muxwise/internal/model"
	"muxwise/internal/sim"
)

// chain is MuxWise's layer-by-layer prefill beside a decode iteration
// on one A100, in steady state: a decode kernel on 60 SMs, relaunched
// whenever it retires, and identical prefill layers of Llama-8B on the
// other 48 SMs, where each retiring layer launches the next from its
// completion callback, as the MuxWise engine does, so two layers are
// always in the air. Both kernels' bandwidth caps together exceed the
// device's bandwidth, so the waterfill saturates and each layer's
// weights drain before its compute: a layer costs a drain event and a
// retirement that starts the next layer. Every layer retirement stops
// the simulator, so one Run advances the chain by one layer.
type chain struct {
	s             *sim.Sim
	dec, pre      *Partition
	decode, layer Kernel
	layers        int // layers retired
}

func newChain() *chain {
	spec, arch := A100(), model.Llama8B()
	c := &chain{s: sim.New()}
	d := NewDevice(c.s, spec, 1, "handoff")
	c.dec, c.pre = d.Partition(60, "decode"), d.Partition(48, "prefill")
	c.decode = NewKernel("decode", Decode, arch.DecodeIterTotals(64*1024, 64, 1), spec.GraphLaunch)
	c.decode.Bytes *= 1e4
	c.layer = NewKernel("layer", Prefill, arch.PrefillLayer([]model.Seq{{New: 2048}}, 1, true), spec.LayerLaunch)
	c.dec.LaunchFn(c.decode, chainDecodeDone, c)
	for range 2 {
		c.pre.LaunchFn(c.layer, chainLayerDone, c)
	}
	return c
}

func chainDecodeDone(arg any) {
	c := arg.(*chain)
	c.dec.LaunchFn(c.decode, chainDecodeDone, c)
}

func chainLayerDone(arg any) {
	c := arg.(*chain)
	c.layers++
	c.pre.LaunchFn(c.layer, chainLayerDone, c)
	c.s.Stop()
}

// BenchmarkCoRunHandoff times one prefill layer of a steady-state chain
// beside a decode kernel under a saturated waterfill: a drain and a
// retirement that launches the next layer, each pricing the running
// pair. Set-up stays outside the timer, and a layer allocates nothing.
func BenchmarkCoRunHandoff(b *testing.B) {
	c := newChain()
	b.ReportAllocs()
	for b.Loop() {
		c.s.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.layers), "ns/layer")
}

// A partition that never idles keeps its queue bounded: each launch
// lands behind the runs the retirements advance past, and once warm the
// queue reuses its storage rather than growing by one slot per launch. A
// layer allocates nothing, so a queue that grew per launch would show in
// the allocation count of a window as long as the warm-up.
func TestLaunchChainQueueBounded(t *testing.T) {
	const window = 10_000
	c := newChain()
	layers := func() {
		for end := c.layers + window; c.layers < end; {
			c.s.Run()
			if n := c.pre.QueueLen(); n > 2 {
				t.Fatalf("after %d layers the prefill partition holds %d kernels, want at most 2", c.layers, n)
			}
		}
	}
	layers()
	if allocs := testing.AllocsPerRun(1, layers); allocs != 0 {
		t.Fatalf("%d layers after warm-up allocated %v times, want 0", window, allocs)
	}
	if c.dec.QueueLen() != 1 {
		t.Fatalf("the decode partition holds %d kernels, want 1", c.dec.QueueLen())
	}
}
