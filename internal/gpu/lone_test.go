package gpu

import (
	"math"
	"math/rand/v2"
	"testing"

	"muxwise/internal/model"
	"muxwise/internal/sim"
)

// loneDevice is a device of tp spec GPUs, at time 0 on a fresh simulator,
// with k started alone on a partition of sms SMs, before any rate is set.
// Its last waterfill is marked saturated so that setting the rates must
// clear the flag.
func loneDevice(spec Spec, tp, sms int, k Kernel) *Device {
	d := NewDevice(sim.New(), spec, tp, "lone")
	r := &run{part: d.Partition(sms, "p"), k: k}
	r.load(&d.Spec, d.TP, sms)
	d.running = append(d.running, r)
	d.saturated = true
	return d
}

// The closed forms a kernel alone on the device takes (setRates, soonest
// and progress on a running set of one) equal the general bodies they
// skip (setRatesN, soonestN and advanceN) bit for bit: every rate, the
// saturation flag, the deadline, the work left, the partition's busy time
// and the accounting integrals, before and after partial progress.
// Kernels are random over every kind, with and without an MFU override
// and with zero FLOPs, bytes or interconnect bytes, on 0 to SMs SMs of 1
// to 8 GPUs.
func TestLoneMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 7))
	work := func() float64 {
		if rng.IntN(4) == 0 {
			return 0
		}
		return math.Exp(rng.Float64() * 42) // up to ~1.7e18
	}
	specs := []Spec{A100(), H100(), B200()}
	bits := func(d *Device) [10]uint64 {
		r := d.running[0]
		return [10]uint64{math.Float64bits(r.crate), math.Float64bits(r.brate), math.Float64bits(r.commRate),
			math.Float64bits(r.remC), math.Float64bits(r.remB), math.Float64bits(r.remComm),
			math.Float64bits(r.part.busy), math.Float64bits(d.smInt), math.Float64bits(d.computeInt), math.Float64bits(d.bwInt)}
	}
	for i := range 20000 {
		spec := specs[rng.IntN(len(specs))]
		tp := 1 + rng.IntN(8)
		sms := rng.IntN(spec.SMs + 1)
		k := Kernel{Kind: Kind(rng.IntN(3)), FLOPs: work(), Bytes: work(), CommBytes: work(), Tokens: rng.IntN(16384)}
		if rng.IntN(4) == 0 {
			k.MFU = rng.Float64()
		}
		lone, general := loneDevice(spec, tp, sms, k), loneDevice(spec, tp, sms, k)
		for step := range 3 {
			lone.setRates()
			general.setRatesN()
			if bits(lone) != bits(general) || lone.saturated != general.saturated {
				t.Fatalf("case %d step %d (%s×%d, %d SMs, %+v): lone rates %v saturated %v, general %v saturated %v",
					i, step, spec.Name, tp, sms, k, bits(lone), lone.saturated, bits(general), general.saturated)
			}
			at, want := lone.soonest(0), general.soonestN(0)
			if at != want {
				t.Fatalf("case %d step %d (%s×%d, %d SMs, %+v): lone deadline %v, general %v", i, step, spec.Name, tp, sms, k, at, want)
			}
			// Progress by up to 1.5× the time to retirement, so some
			// steps drain a sub-stream past zero. The lone device
			// progresses from a start dt before its clock; the general
			// one takes the same steps through advanceN.
			elapsed := sim.Time(rng.Float64() * 1.5 * float64(min(at, sim.Second)))
			dt := elapsed.Seconds()
			lone.lastAt = -elapsed
			lone.progress()
			if dt > 0 {
				smSum, flopsUsed, moved := general.advanceN(dt)
				general.smInt += min(1, smSum) * dt
				general.computeInt += flopsUsed / general.TotalFLOPS() * dt
				general.bwInt += moved / general.TotalBandwidth()
			}
			if bits(lone) != bits(general) {
				t.Fatalf("case %d step %d (%s×%d, %d SMs, %+v), dt %v: lone progress %v, general %v",
					i, step, spec.Name, tp, sms, k, dt, bits(lone), bits(general))
			}
		}
	}
}

// BenchmarkDeviceIdleDecode chains Llama-70B decode iterations from
// their completion callbacks on an otherwise idle A100×8, the way an
// engine's decode loop runs at low load: every launch takes the deferred
// start of an idle device and every retirement is a lone one.
func BenchmarkDeviceIdleDecode(b *testing.B) {
	const iters = 1000
	spec, arch := A100(), model.Llama70B()
	iter := NewKernel("decode", Decode, arch.DecodeIterTotals(16*2048, 16, 8), spec.GraphLaunch)
	type chain struct {
		p    *Partition
		left int
	}
	var step func(any)
	step = func(arg any) {
		if c := arg.(*chain); c.left > 0 {
			c.left--
			c.p.LaunchFn(iter, step, c)
		}
	}
	for b.Loop() {
		s := sim.New()
		d := NewDevice(s, spec, 8, "bench")
		step(&chain{p: d.Partition(60, "decode"), left: iters})
		s.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters), "ns/kernel")
}
