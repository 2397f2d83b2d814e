package gpu

import (
	"fmt"
	"math"

	"muxwise/internal/sim"
)

// Kind classifies a kernel for efficiency modelling.
type Kind int

const (
	// Prefill kernels are large matmuls whose efficiency saturates with
	// the number of new tokens per allocated SM.
	Prefill Kind = iota
	// Decode kernels are batched GEMV/attention: memory-throughput bound
	// with a flat, lower compute efficiency.
	Decode
	// Aux kernels (sampling, KV migration staging) use decode treatment.
	Aux
)

func (k Kind) String() string {
	switch k {
	case Prefill:
		return "prefill"
	case Decode:
		return "decode"
	default:
		return "aux"
	}
}

// Kernel is one unit of GPU work: a fused phase, one prefill layer, or a
// whole decode iteration, characterised by its resource footprint.
type Kernel struct {
	Label string
	Kind  Kind

	// FLOPs is total floating-point work across the TP group.
	FLOPs float64
	// Bytes is total HBM traffic across the TP group.
	Bytes float64
	// CommBytes is total interconnect traffic for TP collectives,
	// already adjusted for the ring-allreduce factor.
	CommBytes float64
	// Tokens is the number of new tokens the kernel processes, used by
	// the prefill efficiency curve.
	Tokens int
	// Launch is host-side launch latency; launches serialize on the
	// device's single launcher thread.
	Launch sim.Time
	// MFU overrides the spec's default for this kind when nonzero.
	MFU float64
}

// Device is a logical tensor-parallel group of TP identical GPUs.
//
// A kernel costs the event loop only the events that can change the
// simulation. Its host-launch-ready event is a reserved sim.Ticket that
// is pushed only if the kernel becomes the head of an idle partition's
// queue before its launch completes; a kernel queued behind a running one
// starts when that one retires, with no event of its own. The device
// keeps one completion timer for all running kernels, re-keyed in place
// when a kernel starts. Its firings re-run the bandwidth waterfill only
// when a kernel retired or a demand drained under a saturated waterfill;
// otherwise they only recompute the deadlines.
type Device struct {
	Spec Spec
	TP   int
	Name string

	sim        *sim.Sim
	hostFreeAt sim.Time
	partitions []*Partition
	running    []*run
	next       sim.Handle
	lastAt     sim.Time
	saturated  bool // the last waterfill ran out of bandwidth

	// Pool and scratch buffers: reallocate runs on every kernel start and
	// every sub-stream completion, so its working set is reused rather
	// than reallocated.
	runFree  []*run
	occ      []float64
	caps     []float64
	alloc    []float64
	unsat    []int
	finished []*run

	// Accounting integrals (seconds-weighted).
	smInt      float64 // ∫ Σ smFraction dt
	computeInt float64 // ∫ achievedFLOPs/peakFLOPs dt
	bwInt      float64 // ∫ usedBW/peakBW dt
	firstWork  sim.Time
	lastWork   sim.Time
	kernels    int64
	launchInt  float64 // total host launch seconds
}

// NewDevice creates a logical device over a TP-wide group of spec GPUs.
func NewDevice(s *sim.Sim, spec Spec, tp int, name string) *Device {
	if tp < 1 {
		panic("gpu: tensor parallel degree must be ≥ 1")
	}
	return &Device{Spec: spec, TP: tp, Name: name, sim: s, firstWork: -1}
}

// TotalFLOPS is peak aggregate compute of the group.
func (d *Device) TotalFLOPS() float64 { return d.Spec.TensorFLOPS * float64(d.TP) }

// TotalBandwidth is aggregate HBM bandwidth of the group.
func (d *Device) TotalBandwidth() float64 { return d.Spec.HBMBandwidth * float64(d.TP) }

// TotalMemory is aggregate HBM capacity of the group in bytes.
func (d *Device) TotalMemory() int64 { return d.Spec.HBMCapacity * int64(d.TP) }

// Partition binds a new stream to sms SMs per GPU. Partitions may coexist;
// the caller decides whether their SM counts are disjoint (green contexts)
// or oversubscribed (plain CUDA streams, as in WindServe).
func (d *Device) Partition(sms int, label string) *Partition {
	if sms < 0 || sms > d.Spec.SMs {
		panic(fmt.Sprintf("gpu: partition of %d SMs outside [0,%d]", sms, d.Spec.SMs))
	}
	p := &Partition{dev: d, sms: sms, label: label}
	d.partitions = append(d.partitions, p)
	return p
}

// Partition is a stream bound to an SM subset — the Green Context analog.
// Kernels launched on a partition execute in FIFO order.
type Partition struct {
	dev   *Device
	sms   int
	label string

	queue   []*run // FIFO; the live window is queue[qhead:]
	qhead   int
	current *run

	busy      float64 // seconds the stream had a kernel executing
	reconfigs int
}

// SMs returns the partition's current size in SMs per GPU.
func (p *Partition) SMs() int { return p.sms }

// Label returns the partition's diagnostic name.
func (p *Partition) Label() string { return p.label }

// Busy returns total seconds this partition spent executing kernels.
func (p *Partition) Busy() float64 { return p.busy }

// Reconfigs returns how many times the partition was resized.
func (p *Partition) Reconfigs() int { return p.reconfigs }

// QueueLen returns the number of kernels launched but not yet completed.
func (p *Partition) QueueLen() int {
	n := len(p.queue) - p.qhead
	if p.current != nil {
		n++
	}
	return n
}

// Idle reports whether nothing is queued or executing.
func (p *Partition) Idle() bool { return p.current == nil && p.qhead == len(p.queue) }

// SetSMs resizes the partition (a green-context reconfiguration). The new
// size applies to kernels that begin executing afterwards; the resize
// costs one stream synchronization on the host thread.
func (p *Partition) SetSMs(sms int) {
	if sms == p.sms {
		return
	}
	if sms < 0 || sms > p.dev.Spec.SMs {
		panic(fmt.Sprintf("gpu: partition resize to %d SMs outside [0,%d]", sms, p.dev.Spec.SMs))
	}
	p.sms = sms
	p.reconfigs++
	d := p.dev
	if d.hostFreeAt < d.sim.Now() {
		d.hostFreeAt = d.sim.Now()
	}
	d.hostFreeAt += d.Spec.ReconfigSync
}

// run is one kernel in flight: queued, then executing under the fluid
// progress model.
type run struct {
	part *Partition
	k    Kernel
	done func()    // closure completion callback
	dfn  func(any) // closure-free completion callback: dfn(darg)
	darg any

	ticket sim.Ticket // key of the host-launch-ready event

	frac    float64 // SM fraction captured at execution start
	eff     float64 // fraction of peak FLOPS, fixed at execution start
	remC    float64 // remaining FLOPs
	remB    float64 // remaining HBM bytes
	remComm float64 // remaining interconnect bytes

	crate, brate, commRate float64 // current rates (per second)
}

// Launch submits a kernel to the partition. done, if non-nil, runs at the
// simulated completion time. The host launch overhead serializes with all
// other launches on the device.
func (p *Partition) Launch(k Kernel, done func()) {
	r := p.submit(k)
	r.done = done
}

// LaunchFn is the closure-free Launch: done(arg) runs at the simulated
// completion time. Engines bind done once (a package function or a field
// set at construction) and pass per-kernel state through arg, so a launch
// allocates nothing on the steady-state path.
func (p *Partition) LaunchFn(k Kernel, done func(any), arg any) {
	r := p.submit(k)
	r.dfn = done
	r.darg = arg
}

// submit queues a pooled run for k and reserves its host-launch-ready
// event, pushing it only when k heads an idle partition's queue: behind
// other work the event would start nothing.
func (p *Partition) submit(k Kernel) *run {
	d := p.dev
	now := d.sim.Now()
	if d.hostFreeAt < now {
		d.hostFreeAt = now
	}
	start := d.hostFreeAt
	d.hostFreeAt = start + k.Launch
	d.launchInt += sim.Time(k.Launch).Seconds()

	r := d.allocRun()
	r.part = p
	r.k = k
	r.ticket = d.sim.Reserve(d.hostFreeAt)
	if p.qhead > 0 && p.qhead == len(p.queue) {
		p.queue = p.queue[:0]
		p.qhead = 0
	}
	p.queue = append(p.queue, r)
	if p.current == nil && len(p.queue)-p.qhead == 1 {
		d.sim.AtTicket(r.ticket, runReady, r)
	}
	return r
}

// runReady is the bound callback for a run's host-launch completion.
func runReady(arg any) { arg.(*run).part.tryStart() }

// allocRun takes a run off the device's free list, or makes one.
func (d *Device) allocRun() *run {
	if n := len(d.runFree); n > 0 {
		r := d.runFree[n-1]
		d.runFree[n-1] = nil
		d.runFree = d.runFree[:n-1]
		return r
	}
	return &run{}
}

// releaseRun recycles a retired run. Callers must ensure nothing still
// references it: it has left the queue and d.running, and its ready event,
// if pushed, has fired.
func (d *Device) releaseRun(r *run) {
	*r = run{}
	d.runFree = append(d.runFree, r)
}

// tryStart begins executing the queue head if the stream is idle and the
// head's host launch has completed.
func (p *Partition) tryStart() {
	if p.current != nil || p.qhead == len(p.queue) || !p.dev.sim.Passed(p.queue[p.qhead].ticket) {
		return
	}
	r := p.queue[p.qhead]
	p.queue[p.qhead] = nil
	p.qhead++
	if p.qhead == len(p.queue) {
		p.queue = p.queue[:0]
		p.qhead = 0
	}
	p.current = r
	p.dev.startRun(r)
}

func (d *Device) startRun(r *run) {
	if r.part.sms == 0 && (r.k.FLOPs > workEps || r.k.Bytes > workEps) {
		panic(fmt.Sprintf("gpu: kernel with work started on partition %q of 0 SMs", r.part.label))
	}
	d.progress()
	r.frac = float64(r.part.sms) / float64(d.Spec.SMs)
	r.eff = d.efficiency(r.k, r.frac)
	r.remC = r.k.FLOPs
	r.remB = r.k.Bytes
	r.remComm = r.k.CommBytes
	d.running = append(d.running, r)
	d.kernels++
	if d.firstWork < 0 {
		d.firstWork = d.sim.Now()
	}
	d.reallocate()
}

// progress advances all running kernels' remaining work to the current
// time at their last-computed rates and accumulates accounting integrals.
func (d *Device) progress() {
	now := d.sim.Now()
	dt := (now - d.lastAt).Seconds()
	d.lastAt = now
	if dt <= 0 || len(d.running) == 0 {
		return
	}
	var smSum, flopsUsed, bwUsed float64
	for _, r := range d.running {
		r.remC = max(0, r.remC-r.crate*dt)
		r.remB = max(0, r.remB-r.brate*dt)
		r.remComm = max(0, r.remComm-r.commRate*dt)
		r.part.busy += dt
		smSum += r.frac
		flopsUsed += r.crate
		bwUsed += r.brate
	}
	d.smInt += min(1, smSum) * dt
	d.computeInt += flopsUsed / d.TotalFLOPS() * dt
	d.bwInt += bwUsed / d.TotalBandwidth() * dt
	d.lastWork = now
}

// efficiency returns the fraction of peak FLOPS a kernel achieves given
// its kind, token count, and SM allocation.
func (d *Device) efficiency(k Kernel, frac float64) float64 {
	mfu := k.MFU
	if mfu == 0 {
		if k.Kind == Prefill {
			mfu = d.Spec.MFUPrefill
		} else {
			mfu = d.Spec.MFUDecode
		}
	}
	if k.Kind != Prefill {
		return mfu
	}
	return d.Spec.PrefillMFU(mfu, k.Tokens, frac, d.TP)
}

// reallocate recomputes every running kernel's rates and schedules the
// next sub-stream completion event.
func (d *Device) reallocate() {
	if len(d.running) == 0 {
		d.sim.Cancel(d.next)
		d.next = sim.Handle{}
		return
	}
	d.setRates()
	d.schedule()
}

// setRates sets every running kernel's rates: SM occupancy, then the
// bandwidth water-filled across the kernels' SM-limited demands.
func (d *Device) setRates() {
	// SM occupancy: green-context partitions are disjoint, so each
	// kernel keeps its fraction. When streams oversubscribe the SMs
	// (plain CUDA streams, or a reconfiguration racing an in-flight
	// kernel), occupancy is non-preemptive: kernels resident earlier
	// keep their SMs and later arrivals squeeze into what remains, with
	// a small floor for the blocks that do sneak in. d.running is in
	// start order: startRun appends and retirement filters in place.
	const occupancyFloor = 0.02
	n := len(d.running)
	occ := growFloats(&d.occ, n)
	remaining := 1.0
	for i, r := range d.running {
		g := min(r.frac, remaining)
		if g < occupancyFloor {
			g = min(occupancyFloor, r.frac)
		}
		occ[i] = g
		remaining = max(0, remaining-g)
	}

	// Bandwidth demands, capped by each kernel's SM-limited absorption.
	bw := d.TotalBandwidth()
	caps := growFloats(&d.caps, n)
	for i, r := range d.running {
		if r.remB <= 0 {
			caps[i] = 0
			continue
		}
		caps[i] = d.Spec.BandwidthCap(occ[i], bw)
	}
	alloc := growFloats(&d.alloc, n)
	d.unsat, d.saturated = waterfillInto(alloc, caps, bw, d.unsat)
	for i, r := range d.running {
		r.crate = occ[i] * d.TotalFLOPS() * r.eff
		r.brate = alloc[i]
		r.commRate = d.Spec.NVLinkBandwidth
	}
}

// schedule keys the device's completion event at the earliest sub-stream
// deadline under the current rates, re-keying a pending event in place.
func (d *Device) schedule() {
	soonest := sim.MaxTime
	now := d.sim.Now()
	for _, r := range d.running {
		// A zero rate means starved this round; a future reallocate
		// unblocks it.
		if t := subStreamDeadline(now, r.remC, r.crate); t < soonest {
			soonest = t
		}
		if t := subStreamDeadline(now, r.remB, r.brate); t < soonest {
			soonest = t
		}
		if t := subStreamDeadline(now, r.remComm, r.commRate); t < soonest {
			soonest = t
		}
	}
	if soonest == sim.MaxTime {
		// Nothing has pending work: startRun refuses work on 0 SMs, so
		// every running kernel is within workEps of done and retires now.
		soonest = now + 1
	}
	if d.next.Pending() {
		d.next = d.sim.Reschedule(d.next, soonest)
	} else {
		d.next = d.sim.AtFunc(soonest, deviceProgress, d)
	}
}

// subStreamDeadline returns when rem units drain at rate units/second, or
// MaxTime when the sub-stream has no pending work or is starved.
func subStreamDeadline(now sim.Time, rem, rate float64) sim.Time {
	if rem <= 0 || rate <= 0 {
		return sim.MaxTime
	}
	t := now + sim.FromSeconds(rem/rate)
	if t <= now {
		t = now + 1
	}
	return t
}

// deviceProgress is the bound callback for the next-completion event.
func deviceProgress(arg any) { arg.(*Device).onProgress() }

// onProgress fires at the earliest sub-stream completion: it advances
// work, retires finished kernels, and reschedules. Rates change only when
// the running set does or a bandwidth demand drains: with no retirement,
// a drained demand under an unsaturated waterfill only frees its own
// share (every other kernel already has its full demand), and with no
// drained demand the waterfill inputs are unchanged. Only a retirement
// or a drain under a saturated waterfill re-runs the waterfill.
func (d *Device) onProgress() {
	d.next = sim.Handle{}
	d.progress()
	finished := d.finished[:0]
	remaining := d.running[:0]
	drained := false
	for _, r := range d.running {
		if r.remC <= workEps && r.remB <= workEps && r.remComm <= workEps {
			finished = append(finished, r)
		} else {
			remaining = append(remaining, r)
			if r.remB <= 0 && r.brate > 0 {
				r.brate = 0
				drained = true
			}
		}
	}
	d.running = remaining
	for _, r := range finished {
		p := r.part
		p.current = nil
		// The new head queued behind r, so its ready event was never
		// pushed; push it now unless it has already passed.
		if p.qhead < len(p.queue) {
			if h := p.queue[p.qhead]; !d.sim.Passed(h.ticket) {
				d.sim.AtTicket(h.ticket, runReady, h)
			}
		}
	}
	if len(finished) > 0 || drained && d.saturated {
		d.reallocate()
	} else {
		d.schedule()
	}
	for i, r := range finished {
		if r.dfn != nil {
			r.dfn(r.darg)
		} else if r.done != nil {
			r.done()
		}
		r.part.tryStart()
		finished[i] = nil
		d.releaseRun(r)
	}
	d.finished = finished[:0]
}

// workEps tolerates float residue when deciding a sub-stream is done: one
// FLOP or byte out of any realistic kernel is far below timing relevance.
const workEps = 1e3

// Stats is a snapshot of device accounting.
type Stats struct {
	Kernels       int64
	SMUtil        float64 // time-avg fraction of SMs occupied over the active window
	ComputeUtil   float64 // time-avg achieved FLOPs / peak
	BWUtil        float64 // time-avg used bandwidth / peak
	Util          float64 // blended "Nsight-style" utilization
	ActiveSeconds float64
	LaunchSeconds float64
}

// Stats returns accounting over the device's active window (first kernel
// start to last activity).
func (d *Device) Stats() Stats {
	d.progress()
	var window float64
	if d.firstWork >= 0 && d.lastWork > d.firstWork {
		window = (d.lastWork - d.firstWork).Seconds()
	}
	st := Stats{Kernels: d.kernels, ActiveSeconds: window, LaunchSeconds: d.launchInt}
	if window > 0 {
		st.SMUtil = d.smInt / window
		st.ComputeUtil = d.computeInt / window
		st.BWUtil = d.bwInt / window
		// Nsight's metric reflects active SMs and intra-SM activity: a
		// memory-bound kernel keeps its SMs "active" while streaming.
		st.Util = math.Min(1, math.Max(st.ComputeUtil/d.Spec.MFUPrefill, st.BWUtil))
	}
	return st
}

// HostBacklog returns how far ahead of the simulated clock the launcher
// thread is committed (queued launch work).
func (d *Device) HostBacklog() sim.Time {
	if d.hostFreeAt <= d.sim.Now() {
		return 0
	}
	return d.hostFreeAt - d.sim.Now()
}

// waterfill distributes capacity across demands with max-min fairness:
// every demand gets min(demand, fair share), and leftover capacity is
// redistributed among unsatisfied demands.
func waterfill(demands []float64, capacity float64) []float64 {
	alloc := make([]float64, len(demands))
	waterfillInto(alloc, demands, capacity, nil)
	return alloc
}

// waterfillInto is the allocation-free waterfill: it fills alloc (which
// must have len(demands)) in place, using and returning the unsat scratch
// slice so callers can reuse its capacity. saturated reports whether the
// demands exceeded capacity; when they did not, alloc equals demands.
func waterfillInto(alloc, demands []float64, capacity float64, unsat []int) (_ []int, saturated bool) {
	for i := range alloc {
		alloc[i] = 0
	}
	var total float64
	active := 0
	for _, v := range demands {
		if v > 0 {
			total += v
			active++
		}
	}
	if active == 0 {
		return unsat, false
	}
	if total <= capacity {
		copy(alloc, demands)
		return unsat, false
	}
	remaining := capacity
	unsat = unsat[:0]
	for i, v := range demands {
		if v > 0 {
			unsat = append(unsat, i)
		}
	}
	scratch := unsat
	for len(unsat) > 0 {
		fair := remaining / float64(len(unsat))
		progressed := false
		next := unsat[:0]
		for _, i := range unsat {
			if demands[i] <= fair {
				alloc[i] = demands[i]
				remaining -= demands[i]
				progressed = true
			} else {
				next = append(next, i)
			}
		}
		unsat = next
		if !progressed {
			fair = remaining / float64(len(unsat))
			for _, i := range unsat {
				alloc[i] = fair
			}
			break
		}
	}
	return scratch, true
}

// growFloats resizes *s to n elements, reusing capacity. Contents are
// unspecified; callers overwrite every element.
func growFloats(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}
