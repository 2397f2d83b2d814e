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

// randKernel draws a kernel of any kind, with and without an MFU
// override, whose FLOPs, bytes and interconnect bytes are each zero a
// quarter of the time and otherwise up to ~1.7e18.
func randKernel(rng *rand.Rand) Kernel {
	work := func() float64 {
		if rng.IntN(4) == 0 {
			return 0
		}
		return math.Exp(rng.Float64() * 42)
	}
	k := Kernel{Kind: Kind(rng.IntN(3)), FLOPs: work(), Bytes: work(), CommBytes: work(), Tokens: rng.IntN(16384)}
	if rng.IntN(4) == 0 {
		k.MFU = rng.Float64()
	}
	return k
}

// The closed forms a kernel alone on the device takes (setRates, soonest
// and progress on a running set of one) equal the general bodies they
// skip (ratePass, soonestN and advanceN) bit for bit: every rate, the
// saturation flag, the deadline, the work left, the partition's busy time
// and the accounting integrals, before and after partial progress.
// Kernels are random (randKernel) on 0 to SMs SMs of 1 to 8 GPUs.
func TestLoneMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 7))
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
		k := randKernel(rng)
		lone, general := loneDevice(spec, tp, sms, k), loneDevice(spec, tp, sms, k)
		for step := range 3 {
			lone.setRates()
			general.ratePass()
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

// pairDevice is loneDevice with k[1] started after k[0], on a second
// partition of sms[1] SMs.
func pairDevice(spec Spec, tp int, sms [2]int, k [2]Kernel) *Device {
	d := loneDevice(spec, tp, sms[0], k[0])
	r := &run{part: d.Partition(sms[1], "q"), k: k[1]}
	r.load(&d.Spec, d.TP, sms[1])
	d.running = append(d.running, r)
	return d
}

// The closed forms a pair of running kernels takes (setRates, soonest and
// progress on a running set of two) equal the general bodies (ratePass,
// soonestN and advanceN) bit for bit: both kernels' rates, the saturation
// flag and the deadline, before and after progress steps that drain one
// kernel's bytes or part of them, and the work left, both partitions'
// busy time and the accounting integrals after each step. Kernels are
// random (randKernel) on 0 to
// SMs SMs each of 1 to 8 GPUs, so the two often oversubscribe the SMs.
// The draws must reach the occupancy floor, both saturated grants (one
// demand whole and the other the rest, or half each), and a drain of one
// kernel's bytes under a saturated waterfill, after which the other's
// whole demand fits.
func TestPairMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 11))
	specs := Catalog()
	bits := func(d *Device) [18]uint64 {
		a, b := d.running[0], d.running[1]
		sat := uint64(0)
		if d.saturated {
			sat = 1
		}
		return [18]uint64{math.Float64bits(a.crate), math.Float64bits(a.brate), math.Float64bits(a.commRate),
			math.Float64bits(b.crate), math.Float64bits(b.brate), math.Float64bits(b.commRate), sat,
			math.Float64bits(a.remC), math.Float64bits(a.remB), math.Float64bits(a.remComm),
			math.Float64bits(b.remC), math.Float64bits(b.remB), math.Float64bits(b.remComm),
			math.Float64bits(a.part.busy), math.Float64bits(b.part.busy),
			math.Float64bits(d.smInt), math.Float64bits(d.computeInt), math.Float64bits(d.bwInt)}
	}
	var floor, whole, halves, drained int
	for i := range 20000 {
		spec := specs[rng.IntN(len(specs))]
		tp := 1 + rng.IntN(8)
		sms := [2]int{rng.IntN(spec.SMs + 1), rng.IntN(spec.SMs + 1)}
		k := [2]Kernel{randKernel(rng), randKernel(rng)}
		pair, general := pairDevice(spec, tp, sms, k), pairDevice(spec, tp, sms, k)
		if min(pair.running[1].frac, 1-pair.running[0].frac) < occupancyFloor {
			floor++
		}
		wasSaturated := false
		for step := range 3 {
			pair.setRates()
			general.ratePass()
			if bits(pair) != bits(general) {
				t.Fatalf("case %d step %d (%s×%d, SMs %v, %+v): pair rates %v, general %v",
					i, step, spec.Name, tp, sms, k, bits(pair), bits(general))
			}
			if at, want := pair.soonest(0), general.soonestN(0); at != want {
				t.Fatalf("case %d step %d (%s×%d, SMs %v, %+v): pair deadline %v, general %v",
					i, step, spec.Name, tp, sms, k, at, want)
			}
			a, b := pair.running[0], pair.running[1]
			switch {
			case !pair.saturated:
			case a.brate == b.brate:
				halves++
			default:
				whole++
			}
			if wasSaturated && (a.bytesDone() || b.bytesDone()) {
				drained++
			}
			wasSaturated = pair.saturated
			// Progress both devices alike, mostly by 0.5 to 1.5 times
			// one kernel's byte drain time, up to a second, so that about
			// half the steps drain its bytes to zero. The pair progresses
			// from a start elapsed before its clock; the general device
			// takes the same step through advanceN.
			dt := rng.Float64() * 1e-3
			if r := pair.running[rng.IntN(2)]; r.remB > 0 && r.brate > 0 && rng.IntN(4) > 0 {
				dt = r.remB / r.brate * (0.5 + rng.Float64())
			}
			elapsed := sim.FromSeconds(min(dt, 1))
			dt = elapsed.Seconds()
			pair.lastAt = -elapsed
			pair.progress()
			if dt > 0 {
				smSum, flopsUsed, moved := general.advanceN(dt)
				general.smInt += min(1, smSum) * dt
				general.computeInt += flopsUsed / general.TotalFLOPS() * dt
				general.bwInt += moved / general.TotalBandwidth()
			}
			if bits(pair) != bits(general) {
				t.Fatalf("case %d step %d (%s×%d, SMs %v, %+v), dt %v: pair progress %v, general %v",
					i, step, spec.Name, tp, sms, k, dt, bits(pair), bits(general))
			}
		}
	}
	if floor < 100 || whole < 100 || halves < 100 || drained < 100 {
		t.Fatalf("draws reached the floor %d times, saturated grants of one demand whole %d and of halves %d, saturated drains %d: want ≥ 100 each",
			floor, whole, halves, drained)
	}
	t.Logf("floor %d, whole %d, halves %d, saturated drains %d", floor, whole, halves, drained)
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
