// Positive and negative cases for the hotclosure analyzer in a pooled
// hot-path package.
package gpu

import (
	"fmt"

	"muxwise/internal/sim"
)

type payload struct{ a, b int64 }

type Device struct {
	sim  *sim.Sim
	name string
}

func tickFn(arg any) {}

func (d *Device) step() {}

func (d *Device) scheduleBound(t sim.Time) {
	d.sim.AtFunc(t, tickFn, d) // pre-bound func with a pointer arg: no allocation
}

func (d *Device) scheduleBoxed(t sim.Time, p payload) {
	d.sim.AtFunc(t, tickFn, p) // want `struct value p boxed into interface parameter`
}

type Kernel struct{ flops float64 }

type Partition struct{}

func (p *Partition) LaunchFn(k Kernel, done func(any), arg any) {}

func (d *Device) launchBound(p *Partition, k Kernel) {
	p.LaunchFn(k, tickFn, d)
}

func (d *Device) describe() string {
	return fmt.Sprintf("device %s", d.name) // want `fmt\.Sprintf allocates on a pooled hot path`
}

func (d *Device) String() string {
	return fmt.Sprintf("device %s", d.name) // cold formatting method: allowed
}

func (d *Device) mustStep(n int) {
	if n < 0 {
		panic(fmt.Sprintf("gpu: bad step %d", n)) // terminal panic: allowed
	}
}
