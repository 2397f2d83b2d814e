package gpu

import (
	"fmt"
	"math"

	"muxwise/internal/arena"
	"muxwise/internal/model"
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

// NewKernel turns a cost-model estimate into a kernel launch.
func NewKernel(label string, kind Kind, c model.Cost, launch sim.Time) Kernel {
	return Kernel{
		Label: label, Kind: kind,
		FLOPs: c.FLOPs, Bytes: c.Bytes, CommBytes: c.CommBytes,
		Tokens: c.Tokens, Launch: launch,
	}
}

// Device is a logical tensor-parallel group of TP identical GPUs.
//
// A kernel costs the event loop only the events that can change the
// simulation. Its host-launch-ready event is a reserved sim.Ticket that
// is pushed only if the kernel becomes the head of an idle partition's
// queue before its launch completes; a kernel queued behind a running one
// starts when that one retires, with no event of its own.
//
// A kernel that heads an idle partition of more than 0 SMs while nothing
// runs on the device needs no ready event either: its start changes no
// other kernel's rate, so it is known at submit. Such a kernel starts at
// submit, deferred to its ready instant. Its completion timer is keyed
// from that instant with sim.AtFuncOnPass, which takes the sequence
// number the ready event's timer key would have drawn, so it dispatches
// exactly where the evented start's would. The next retirement, kernel
// start, resize or Stats read settles the deferred start first. If the
// ready key has passed, the kernel has been running since then.
// Otherwise it goes back to waiting for its ready event, which is pushed
// then.
//
// The device keeps one completion timer for all running kernels,
// re-keyed in place whenever rates change. It is keyed at the earliest
// kernel retirement: the latest of a kernel's compute, HBM and
// interconnect deadlines at its current rates. While the last bandwidth
// waterfill was saturated, an HBM drain keys it too, because only then
// does a drain free bandwidth that other kernels take up; any other
// drain changes no rate and fires no event.
//
// Rates are recomputed once per change to the running set, and each
// recomputation keys the timer. A retirement whose queued successor
// starts in the same event is one change, not two: the successor's start
// sets the rates, so a layer-to-layer handoff sets them once and keys the
// timer once. A kernel alone on the device, the common case of a decode
// iteration at low load, takes its solo rates in closed form: its
// occupancy is its own SM fraction, and its one demand never exceeds the
// group's bandwidth, so the waterfill would grant it whole and never
// saturate. Its deadline and its progress skip the loops over the running
// set too, with the same floats. Two running kernels, MuxWise's prefill
// layer beside a decode iteration, take theirs in closed form too: the
// first started keeps its SM fraction and the second takes what remains,
// at least the occupancy floor. Each bandwidth demand is a BandwidthCap,
// at most the group's bandwidth, so one demand alone never saturates the
// waterfill, and when the two together exceed it at most one is under
// half of it: that one is granted whole and the other the rest, or, with
// neither under half, each gets half. A device holds at most two
// partitions, so these are its only two running sets. Both closed forms
// run the float operations of the general occupancy pass and max-min
// waterfill in their order, so they set the bits the general pass would.
//
// A decode stream coasting into its next iteration relaunches its kernel
// from the kernel's own completion callback with Partition.Relaunch,
// which keeps the run and submits it exactly as LaunchFn would, so event
// keys and tie order are the same either way. When that callback is the
// last of its event and the kernel will run alone on the device, with
// nothing queued, Relaunch folds it instead if it retires before any
// other event (sim.Fold): the device books its launch, start, progress
// and retirement with the same floats an evented start and completion
// would, and the clock moves to the retirement with no event. Results
// and later event keys are the same; LoopStats counts the fold as
// Folded, not as one more Scheduled and Fired event.
type Device struct {
	Spec Spec
	TP   int
	Name string

	sim        *sim.Sim
	hostFreeAt sim.Time
	parts      int    // partitions made, at most two
	running    []*run // in start order, at most two
	pend       *run   // deferred start: in running, still its queue's head
	retiring   *run   // retired run whose callback is running; nil once relaunched
	next       sim.Handle
	lastAt     sim.Time
	saturated  bool // the last waterfill ran out of bandwidth
	lastDone   bool // the retiring run's callback is the last of its event

	// Retired runs, for later launches to reuse.
	runs arena.Pool[run]

	// Accounting integrals (seconds-weighted).
	smInt      float64 // ∫ Σ smFraction dt
	computeInt float64 // ∫ achievedFLOPs/peakFLOPs dt
	bwInt      float64 // ∫ usedBW/peakBW dt
	firstWork  sim.Time
	lastWork   sim.Time
	kernels    int64
	launchInt  float64 // total host launch seconds

	// The last distinct launch latency submitted and its seconds: engines
	// launch one kind of kernel after another, so submit converts each
	// latency once per change rather than once per kernel.
	lastLaunch    sim.Time
	lastLaunchSec float64
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

// Partition binds a new stream to sms SMs per GPU. A device holds at most
// two partitions, the prefill and decode streams of §3, so a third call
// panics. The caller decides whether the two SM counts are disjoint
// (green contexts) or oversubscribed (plain CUDA streams, as in
// WindServe).
func (d *Device) Partition(sms int, label string) *Partition {
	if sms < 0 || sms > d.Spec.SMs {
		panic(fmt.Sprintf("gpu: partition of %d SMs outside [0,%d]", sms, d.Spec.SMs))
	}
	if d.parts == 2 {
		panic(fmt.Sprintf("gpu: third partition %q on device %q, which holds at most two", label, d.Name))
	}
	d.parts++
	return &Partition{dev: d, sms: sms, label: label}
}

// Partition is a stream bound to an SM subset — the Green Context analog.
// Kernels launched on a partition execute in FIFO order. They wait in an
// arena.Queue, whose ring stops growing at the stream's high-water mark,
// so a stream that never idles (a launch from every completion callback)
// reuses its ring.
type Partition struct {
	dev   *Device
	sms   int
	label string

	queue   arena.Queue[*run]
	current *run

	busy      float64 // seconds the stream had a kernel executing
	reconfigs int
}

// SMs returns the partition's current size in SMs per GPU.
func (p *Partition) SMs() int { return p.sms }

// Busy returns total seconds this partition spent executing kernels.
func (p *Partition) Busy() float64 { return p.busy }

// Reconfigs returns how many times the partition was resized.
func (p *Partition) Reconfigs() int { return p.reconfigs }

// QueueLen returns the number of kernels launched but not yet completed.
func (p *Partition) QueueLen() int {
	n := p.queue.Len()
	if p.current != nil {
		n++
	}
	return n
}

// Idle reports whether nothing is queued or executing.
func (p *Partition) Idle() bool { return p.current == nil && p.queue.Len() == 0 }

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
	p.dev.settle()
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
	done func(any) // completion callback: done(arg)
	arg  any

	ticket sim.Ticket // key of the host-launch-ready event

	frac    float64 // SM fraction captured at execution start
	eff     float64 // fraction of peak FLOPS, fixed at execution start
	remC    float64 // remaining FLOPs
	remB    float64 // remaining HBM bytes
	remComm float64 // remaining interconnect bytes

	crate, brate, commRate float64 // current rates (per second)
}

// LaunchFn submits a kernel to the partition. done(arg), if done is
// non-nil, runs at the simulated completion time. The host launch overhead
// serializes with all other launches on the device. Engines bind done once
// (a package function or a field set at construction) and pass per-kernel
// state through arg, so a launch allocates nothing on the steady-state
// path.
func (p *Partition) LaunchFn(k Kernel, done func(any), arg any) {
	r := p.dev.runs.Get()
	r.part = p
	r.k = k
	r.done = done
	r.arg = arg
	p.enqueue(r)
}

// Relaunch submits again, on p, the kernel whose completion callback is
// running, with cost c and MFU override mfu, and otherwise the same
// label, kind, launch latency and completion pair. It reuses the kernel's
// run in place instead of recycling it, and submits it as LaunchFn does,
// or folds it (see Device). It reports whether it folded: then the
// kernel has retired at the new Now and the caller is in its completion
// callback again, free to Relaunch once more.
func (p *Partition) Relaunch(c model.Cost, mfu float64) bool {
	d := p.dev
	r := d.retiring
	if r == nil || r.part != p {
		panic(fmt.Sprintf("gpu: Relaunch on partition %q outside its kernel's completion callback", p.label))
	}
	d.retiring = nil
	k := &r.k
	k.FLOPs, k.Bytes, k.CommBytes, k.Tokens, k.MFU = c.FLOPs, c.Bytes, c.CommBytes, c.Tokens, mfu
	if !d.lastDone || d.pend != nil || len(d.running) > 0 || !p.Idle() || p.sms == 0 {
		p.enqueue(r)
		return false
	}
	// The start would be deferred: price it once, for the fold or for
	// deferStart. Most relaunches that cannot fold retire at or past the
	// horizon, which rules a fold out at once.
	ready := d.hostLaunch(k.Launch)
	r.load(&d.Spec, d.TP, p.sms)
	r.setLoneRates(&d.Spec, d.TP)
	t := r.retireAt(ready)
	if t >= d.sim.Horizon() || !r.drains((t - ready).Seconds()) || !d.sim.Fold(ready, t) {
		r.ticket = d.sim.Reserve(ready)
		p.queue.Push(r)
		d.deferStart(r, t)
		return false
	}
	// The evented start at ready, as settle commits it, and the
	// completion at t, as onProgress retires a lone kernel.
	d.lastAt = ready
	d.count(ready)
	d.running = append(d.running, r)
	d.progress()
	d.running = d.running[:0]
	d.retiring = r
	return true
}

// enqueue submits r, a run of p with its kernel set. It reserves r's
// host-launch-ready event and pushes it only when r heads an idle
// partition's queue: behind other work the event would start nothing. On
// an idle device the start is deferred instead, unless the partition has
// no SMs, so that starting work there still panics at the ready instant.
func (p *Partition) enqueue(r *run) {
	d := p.dev
	r.ticket = d.sim.Reserve(d.hostLaunch(r.k.Launch))
	p.queue.Push(r)
	if p.current == nil && p.queue.Len() == 1 {
		if d.pend == nil && len(d.running) == 0 && p.sms > 0 {
			r.load(&d.Spec, d.TP, p.sms)
			r.setLoneRates(&d.Spec, d.TP)
			d.deferStart(r, r.retireAt(r.ticket.At()))
		} else {
			d.sim.AtTicket(r.ticket, runReady, r)
		}
	}
}

// hostLaunch books a launch of the given latency on the device's launcher
// thread and returns when it completes.
func (d *Device) hostLaunch(launch sim.Time) sim.Time {
	if now := d.sim.Now(); d.hostFreeAt < now {
		d.hostFreeAt = now
	}
	d.hostFreeAt += launch
	if launch != d.lastLaunch {
		d.lastLaunch, d.lastLaunchSec = launch, launch.Seconds()
	}
	d.launchInt += d.lastLaunchSec
	return d.hostFreeAt
}

// deferStart starts r, the head of an idle partition on an idle device,
// at its ready instant, where it retires at t: r's work is loaded and its
// lone rates set, as startRun would set them there, and the completion
// timer is keyed at t. r stays at its queue's head until settle commits
// it.
func (d *Device) deferStart(r *run, t sim.Time) {
	d.pend = r
	d.running = append(d.running, r)
	if t < sim.MaxTime {
		d.next = d.sim.AtFuncOnPass(r.ticket, t, deviceProgress, d)
	}
}

// settle resolves a deferred start before anything reads or changes the
// running set. Once the ready key has passed, the kernel has been running
// since its ready instant: it leaves its queue and counts as started
// there. Before that, nothing has run yet, and the kernel waits for its
// pushed ready event instead.
func (d *Device) settle() {
	r := d.pend
	if r == nil {
		return
	}
	d.pend = nil
	if !d.sim.Passed(r.ticket) {
		d.running = d.running[:0]
		d.sim.Cancel(d.next)
		d.next = sim.Handle{}
		d.sim.AtTicket(r.ticket, runReady, r)
		return
	}
	ready := r.ticket.At()
	d.lastAt = ready
	d.count(ready)
	r.part.dequeue()
}

// runReady is the bound callback for a run's host-launch completion.
func runReady(arg any) { arg.(*run).part.tryStart() }

// ReserveRuns makes room for n kernels launched and not yet retired at
// once: their records come from one block rather than one allocation
// each.
func (d *Device) ReserveRuns(n int) { d.runs.Reserve(n) }

// releaseRun recycles a retired run. Callers must ensure nothing still
// references it: it has left the queue and d.running, and its ready event,
// if pushed, has fired.
func (d *Device) releaseRun(r *run) {
	*r = run{}
	d.runs.Release(r)
}

// tryStart begins executing the queue head if the stream is idle and the
// head's host launch has completed. It never starts a deferred head: it
// meets one only in the event that deferred it, where its ticket has not
// passed, and every later start or retirement on the device settles it
// first.
func (p *Partition) tryStart() {
	if p.current != nil || p.queue.Len() == 0 || !p.dev.sim.Passed(p.queue.Front().ticket) {
		return
	}
	p.dev.startRun(p.dequeue())
}

// dequeue makes the queue head the partition's current kernel.
func (p *Partition) dequeue() *run {
	r := p.queue.Pop()
	p.current = r
	return r
}

func (d *Device) startRun(r *run) {
	if r.part.sms == 0 && (r.k.FLOPs > workEps || r.k.Bytes > workEps) {
		panic(fmt.Sprintf("gpu: kernel with work started on partition %q of 0 SMs", r.part.label))
	}
	d.settle()
	d.progress()
	r.load(&d.Spec, d.TP, r.part.sms)
	d.running = append(d.running, r)
	d.count(d.sim.Now())
	d.reallocate()
}

// load fixes r's SM fraction and efficiency for a start on sms SMs of
// each of tp spec GPUs and loads its work.
func (r *run) load(s *Spec, tp, sms int) {
	r.frac = float64(sms) / float64(s.SMs)
	r.eff = s.efficiency(r.k, r.frac, tp)
	r.remC = r.k.FLOPs
	r.remB = r.k.Bytes
	r.remComm = r.k.CommBytes
}

// setLoneRates sets r's rates as the only kernel running on tp spec GPUs:
// the closed form of the occupancy pass and waterfill on a running set of
// one. Its occupancy is its fraction, which the floor leaves alone for
// every fraction in [0, 1], and its demand, capped at the group's
// bandwidth, is granted whole.
func (r *run) setLoneRates(s *Spec, tp int) {
	var bcap float64
	r.crate, bcap = s.loneRates(r.frac, r.eff, tp)
	r.brate = 0
	if r.remB > 0 && bcap > 0 {
		r.brate = bcap
	}
	r.commRate = s.NVLinkBandwidth
}

// SoloTime returns when k retires if it is launched at time 0 on a fresh
// device of tp spec GPUs, alone on a partition of sms SMs per GPU: its
// host launch plus its run at solo rates, at least 1 ns. It prices the
// kernel with the start, lone-kernel rate and deadline code a device runs
// for a kernel alone on it, and builds no device. A kernel with work on 0
// SMs, which a device refuses to start, gets sim.MaxTime.
func SoloTime(spec Spec, tp, sms int, k Kernel) sim.Time {
	if tp < 1 || sms < 0 || sms > spec.SMs {
		panic(fmt.Sprintf("gpu: solo kernel on %d SMs of %d GPUs, want [0,%d] SMs of ≥ 1 GPU", sms, tp, spec.SMs))
	}
	r := run{k: k}
	r.load(&spec, tp, sms)
	r.setLoneRates(&spec, tp)
	return r.retireAt(k.Launch)
}

// LayerPipeline returns when a solo layer-wise prefill phase retires:
// layers identical kernels launched at time 0 onto one idle stream
// behind the serial host launcher, l the launch latency of each and e
// the SoloTime of one without it. Layer i is ready at (i+1)·l and starts
// then or when layer i−1 retires, whichever is later, so the last
// retires at l + e + (layers−1)·max(e, l).
func LayerPipeline(layers int, l, e sim.Time) sim.Time {
	return l + e + sim.Time(layers-1)*max(e, l)
}

// count books a kernel start at t.
func (d *Device) count(t sim.Time) {
	d.kernels++
	if d.firstWork < 0 {
		d.firstWork = t
	}
}

// progress advances all running kernels' remaining work to the current
// time at their last-computed rates and accumulates accounting integrals.
// A kernel's HBM demand may drain mid-interval with no event, so the
// bandwidth integral counts the bytes actually moved. Each sum over the
// running set starts from its first kernel's term, which equals the sum
// from zero, since 0 + x == x.
func (d *Device) progress() {
	now := d.sim.Now()
	dt := (now - d.lastAt).Seconds()
	d.lastAt = now
	if dt <= 0 || len(d.running) == 0 {
		return
	}
	a := d.running[0]
	moved, smSum, flopsUsed := a.advance(dt), a.frac, a.crate
	if len(d.running) == 2 {
		b := d.running[1]
		moved += b.advance(dt)
		smSum += b.frac
		flopsUsed += b.crate
	}
	d.smInt += min(1, smSum) * dt
	d.computeInt += flopsUsed / d.TotalFLOPS() * dt
	d.bwInt += moved / d.TotalBandwidth()
	d.lastWork = now
}

// drains reports whether advancing r by dt seconds leaves it finished,
// computing the remainders as advance would.
func (r *run) drains(dt float64) bool {
	return max(0, r.remC-r.crate*dt) <= workEps && r.remB-min(r.remB, r.brate*dt) <= workEps &&
		max(0, r.remComm-r.commRate*dt) <= workEps
}

// advance drains dt seconds of r's work at its current rates and returns
// the HBM bytes it moved.
func (r *run) advance(dt float64) float64 {
	b := min(r.remB, r.brate*dt)
	r.remC = max(0, r.remC-r.crate*dt)
	r.remB -= b
	r.remComm = max(0, r.remComm-r.commRate*dt)
	r.part.busy += dt
	return b
}

// reallocate recomputes every running kernel's rates and re-keys the
// completion timer.
func (d *Device) reallocate() {
	d.setRates()
	d.schedule()
}

// setRates sets every running kernel's rates: SM occupancy, then the
// bandwidth water-filled across the kernels' SM-limited demands. A lone
// kernel takes its solo rates in closed form, and its demand never
// saturates the waterfill; a pair takes setPairRates.
func (d *Device) setRates() {
	if len(d.running) == 1 {
		d.running[0].setLoneRates(&d.Spec, d.TP)
		d.saturated = false
		return
	}
	d.setPairRates(d.running[0], d.running[1])
}

// occupancyFloor is the SM fraction a kernel squeezed out by earlier ones
// still occupies: the blocks that do sneak in.
const occupancyFloor = 0.02

// setPairRates sets the rates of a and b, in start order, as the only two
// kernels running: the closed form of the occupancy pass and waterfill on
// a running set of two (see Device). Occupancy is non-preemptive: a, the
// kernel resident first (startRun appends and retirement filters in
// place), keeps its SM fraction, and b squeezes into what remains, down
// to the floor, when the partitions oversubscribe the SMs (plain CUDA
// streams, or a resize racing an in-flight kernel).
func (d *Device) setPairRates(a, b *run) {
	flops, bw := d.TotalFLOPS(), d.TotalBandwidth()
	ga := a.frac
	gb := min(b.frac, 1-ga)
	if gb < occupancyFloor {
		gb = min(occupancyFloor, b.frac)
	}
	a.crate, b.crate = ga*flops*a.eff, gb*flops*b.eff
	a.commRate, b.commRate = d.Spec.NVLinkBandwidth, d.Spec.NVLinkBandwidth
	var ca, cb float64
	if !a.bytesDone() {
		ca = d.Spec.BandwidthCap(ga, bw)
	}
	if !b.bytesDone() {
		cb = d.Spec.BandwidthCap(gb, bw)
	}
	a.brate, b.brate, d.saturated = SplitBandwidth(ca, cb, bw)
}

// SplitBandwidth is the max-min fair split of bandwidth bw between two
// demands ca and cb, each at most bw: the waterfill of two demands in
// closed form, with its float operations. Demands that fit are granted
// whole. Otherwise at most one is under half of bw; that one is granted
// whole and the other the rest, or, with neither under half, each gets
// half. saturated reports whether the demands exceeded bw. The device
// splits a running pair's bandwidth with it, and the roofline cost model
// a decode partition's against its prefill partner's.
func SplitBandwidth(ca, cb, bw float64) (a, b float64, saturated bool) {
	switch half := bw / 2; {
	case ca+cb <= bw:
		return ca, cb, false
	case ca <= half:
		return ca, min(cb, bw-ca), true
	case cb <= half:
		return min(ca, bw-cb), cb, true
	default:
		return half, half, true
	}
}

// bytesDone reports whether r has no HBM bytes left, so that the waterfill
// grants it no bandwidth.
func (r *run) bytesDone() bool { return r.remB <= 0 }

// schedule keys the device's completion timer at the earliest kernel
// retirement under the current rates, or at an earlier HBM drain while
// the waterfill is saturated, re-keying a pending event in place. A
// kernel with no work left retires 1 ns from now.
func (d *Device) schedule() {
	switch soonest := d.soonest(d.sim.Now()); {
	case soonest == sim.MaxTime:
		// Nothing is running, or every running kernel is starved until
		// the running set changes.
		d.sim.Cancel(d.next)
		d.next = sim.Handle{}
	case d.next.Pending():
		d.next = d.sim.Reschedule(d.next, soonest)
	default:
		d.next = d.sim.AtFunc(soonest, deviceProgress, d)
	}
}

// soonest returns the earliest kernel retirement, or HBM drain under a
// saturated waterfill, at the current rates counted from now; MaxTime if
// no running kernel can progress. A lone kernel's waterfill never
// saturates, so its retirement is the deadline.
func (d *Device) soonest(now sim.Time) sim.Time {
	if len(d.running) != 1 {
		return d.soonestPair(now)
	}
	return d.running[0].retireAt(now)
}

// soonestPair is soonest for a running pair. It spells out retireAt, which
// the compiler does not inline: a call per running kernel slowed
// co-running workloads measurably.
func (d *Device) soonestPair(now sim.Time) sim.Time {
	a, b := d.running[0], d.running[1]
	ta := deadline(now, max(drainSeconds(a.remC, a.crate), drainSeconds(a.remB, a.brate), drainSeconds(a.remComm, a.commRate)))
	tb := deadline(now, max(drainSeconds(b.remC, b.crate), drainSeconds(b.remB, b.brate), drainSeconds(b.remComm, b.commRate)))
	if d.saturated {
		if a.remB > 0 {
			ta = min(ta, deadline(now, drainSeconds(a.remB, a.brate)))
		}
		if b.remB > 0 {
			tb = min(tb, deadline(now, drainSeconds(b.remB, b.brate)))
		}
	}
	return min(ta, tb)
}

// retireAt returns when r retires at its current rates counted from now:
// MaxTime if it is starved. A kernel retires when its slowest sub-stream
// drains, and the ceil in FromSeconds is monotone, so one conversion of
// the slowest drain time gives the latest of the three sub-stream
// deadlines.
func (r *run) retireAt(now sim.Time) sim.Time {
	return deadline(now, max(drainSeconds(r.remC, r.crate), drainSeconds(r.remB, r.brate), drainSeconds(r.remComm, r.commRate)))
}

// drainSeconds returns how long rem units take to drain at rate
// units/second: 0 when the sub-stream has no pending work, +Inf when it
// is starved.
func drainSeconds(rem, rate float64) float64 {
	switch {
	case rem <= 0:
		return 0
	case rate <= 0:
		return math.Inf(1)
	}
	return rem / rate
}

// deadline returns now plus secs, at least 1 ns after now and saturating
// at MaxTime.
func deadline(now sim.Time, secs float64) sim.Time {
	if dt := sim.FromSeconds(secs); dt < sim.MaxTime-now {
		return now + max(dt, 1)
	}
	return sim.MaxTime
}

// deviceProgress is the bound callback for the completion timer.
func deviceProgress(arg any) { arg.(*Device).onProgress() }

// onProgress fires at a kernel retirement or a drain under a saturated
// waterfill: it advances work, retires finished kernels, and re-runs the
// waterfill. Both firings change its inputs: a retirement removes a
// kernel's demand, and a drain zeroes one. When a retired kernel's queued
// successor has passed its host launch, the successor's startRun, after
// the callbacks, runs the one waterfill and keys the timer instead. When
// nothing is left running, there is nothing to rate and no timer to key.
func (d *Device) onProgress() {
	d.settle()
	d.next = sim.Handle{}
	d.progress()
	var done [2]*run
	n := 0
	remaining := d.running[:0]
	for _, r := range d.running {
		if r.remC <= workEps && r.remB <= workEps && r.remComm <= workEps {
			done[n] = r
			n++
		} else {
			remaining = append(remaining, r)
		}
	}
	d.running = remaining
	finished := done[:n]
	starts := false
	for _, r := range finished {
		p := r.part
		p.current = nil
		// The new head queued behind r, so its ready event was never
		// pushed; push it now unless it has already passed, in which
		// case the tryStart below starts it in this event.
		if p.queue.Len() > 0 {
			if h := p.queue.Front(); d.sim.Passed(h.ticket) {
				starts = true
			} else {
				d.sim.AtTicket(h.ticket, runReady, h)
			}
		}
	}
	// Safe to leave to that start: callbacks never read rates, and time
	// does not advance within an event.
	if !starts && len(d.running) > 0 {
		d.reallocate()
	}
	for i, r := range finished {
		d.retiring, d.lastDone = r, i == len(finished)-1
		if r.done != nil {
			r.done(r.arg)
		}
		r.part.tryStart()
		if d.retiring == r {
			d.releaseRun(r) // not relaunched
		}
		d.retiring, d.lastDone = nil, false
	}
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
	d.settle()
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
