package gpu

import (
	"math"
	"testing"
	"testing/quick"

	"muxwise/internal/sim"
)

// The general rate pass: the occupancy pass and max-min waterfill over a
// running set of any size, the device's step over it and its next
// deadline. The device runs closed forms for its one or two running
// kernels instead (see Device); TestLoneMatchesGeneral and
// TestPairMatchesGeneral require them to set these bits.

// ratePass runs the occupancy pass and the waterfill over the running
// set. SM occupancy is non-preemptive: kernels resident earlier keep
// their SMs and later arrivals squeeze into what remains, down to the
// floor. d.running is in start order. Each kernel's occupancy sets its
// compute rate and caps its bandwidth demand.
func (d *Device) ratePass() {
	n := len(d.running)
	flops, bw := d.TotalFLOPS(), d.TotalBandwidth()
	caps, alloc := make([]float64, n), make([]float64, n)
	remaining := 1.0
	for i, r := range d.running {
		g := min(r.frac, remaining)
		if g < occupancyFloor {
			g = min(occupancyFloor, r.frac)
		}
		remaining = max(0, remaining-g)
		r.crate = g * flops * r.eff
		if !r.bytesDone() {
			caps[i] = d.Spec.BandwidthCap(g, bw)
		}
	}
	d.saturated = waterfill(alloc, caps, bw)
	for i, r := range d.running {
		r.brate = alloc[i]
		r.commRate = d.Spec.NVLinkBandwidth
	}
}

// advanceN drains dt seconds of work from every running kernel and
// returns the sums of their SM fractions, compute rates and HBM bytes
// moved.
func (d *Device) advanceN(dt float64) (smSum, flopsUsed, moved float64) {
	for _, r := range d.running {
		moved += r.advance(dt)
		smSum += r.frac
		flopsUsed += r.crate
	}
	return smSum, flopsUsed, moved
}

// soonestN is soonest over any running set.
func (d *Device) soonestN(now sim.Time) sim.Time {
	soonest := sim.MaxTime
	for _, r := range d.running {
		t := deadline(now, max(drainSeconds(r.remC, r.crate), drainSeconds(r.remB, r.brate), drainSeconds(r.remComm, r.commRate)))
		if d.saturated && r.remB > 0 {
			t = min(t, deadline(now, drainSeconds(r.remB, r.brate)))
		}
		soonest = min(soonest, t)
	}
	return soonest
}

// waterfill distributes capacity across demands with max-min fairness,
// filling alloc (which must have len(demands)) in place: every demand
// gets min(demand, fair share), and leftover capacity is redistributed
// among unsatisfied demands, in rounds. A positive demand is unsatisfied
// while its alloc is 0. saturated reports whether the demands exceeded
// capacity; when they did not, alloc equals demands.
func waterfill(alloc, demands []float64, capacity float64) (saturated bool) {
	clear(alloc)
	var total float64
	unsat := 0
	for _, v := range demands {
		if v > 0 {
			total += v
			unsat++
		}
	}
	if unsat == 0 {
		return false
	}
	if total <= capacity {
		copy(alloc, demands)
		return false
	}
	remaining := capacity
	for unsat > 0 {
		fair := remaining / float64(unsat)
		left := unsat
		for i, v := range demands {
			if v > 0 && alloc[i] == 0 && v <= fair {
				alloc[i] = v
				remaining -= v
				left--
			}
		}
		if left == unsat {
			// No unsatisfied demand fits its fair share: each takes it.
			for i, v := range demands {
				if v > 0 && alloc[i] == 0 {
					alloc[i] = fair
				}
			}
			break
		}
		unsat = left
	}
	return true
}

func TestWaterfill(t *testing.T) {
	cases := []struct {
		demands   []float64
		cap       float64
		want      []float64
		saturated bool
	}{
		{[]float64{10, 10}, 30, []float64{10, 10}, false},        // under capacity
		{[]float64{30, 30}, 30, []float64{15, 15}, true},         // equal split
		{[]float64{5, 100}, 30, []float64{5, 25}, true},          // small demand satisfied first
		{[]float64{0, 50}, 30, []float64{0, 30}, true},           // zero demand ignored
		{[]float64{}, 30, []float64{}, false},                    // empty
		{[]float64{10, 20, 70}, 60, []float64{10, 20, 30}, true}, // cascade
	}
	for i, c := range cases {
		got := []float64{-1, -1, -1}[:len(c.demands)] // stale values to overwrite
		saturated := waterfill(got, c.demands, c.cap)
		if saturated != c.saturated {
			t.Errorf("case %d: saturated = %v, want %v", i, saturated, c.saturated)
		}
		for j := range c.want {
			if math.Abs(got[j]-c.want[j]) > 1e-9 {
				t.Errorf("case %d: waterfill = %v, want %v", i, got, c.want)
				break
			}
		}
	}
	demands, alloc := []float64{10, 20, 70}, make([]float64, 3)
	if n := testing.AllocsPerRun(100, func() { waterfill(alloc, demands, 60) }); n != 0 {
		t.Errorf("waterfill allocates %v times per call, want 0", n)
	}
}

// Property: water-filling never exceeds capacity, never exceeds demand,
// and fully uses capacity when total demand ≥ capacity.
func TestPropertyWaterfill(t *testing.T) {
	f := func(raw []uint8, capRaw uint16) bool {
		demands := make([]float64, len(raw))
		var total float64
		for i, v := range raw {
			demands[i] = float64(v)
			total += float64(v)
		}
		capacity := float64(capRaw%1000) + 1
		alloc := make([]float64, len(demands))
		if saturated := waterfill(alloc, demands, capacity); saturated != (total > capacity) {
			return false
		}
		var sum float64
		for i := range alloc {
			if alloc[i] < -1e-9 || alloc[i] > demands[i]+1e-9 {
				return false
			}
			sum += alloc[i]
		}
		if sum > capacity+1e-6 {
			return false
		}
		if total >= capacity && sum < capacity-1e-6 {
			return false
		}
		if total < capacity && math.Abs(sum-total) > 1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
