package serve

import (
	"muxwise/internal/arena"
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/obs"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// Base is what the runner reads back from an engine: its name, its
// logical devices, its KV pools and its partition timeline. Engines embed
// it and so implement Name, Timeline, Devices and CachePools.
type Base struct {
	name     string
	devices  []*gpu.Device
	pools    []*kvcache.Pool
	timeline metrics.Timeline
}

// NewBase builds a Base. The first pool is the one prefix lookups and
// KV preloads go to (see Instance.PreloadKV).
func NewBase(name string, devices []*gpu.Device, pools ...*kvcache.Pool) Base {
	return Base{name: name, devices: devices, pools: pools}
}

// Name implements Engine.
func (b *Base) Name() string { return b.name }

// SetName renames the engine (derived baselines reuse a parent engine).
func (b *Base) SetName(name string) { b.name = name }

// Timeline implements Engine. Engines with a static split leave it empty.
func (b *Base) Timeline() *metrics.Timeline { return &b.timeline }

// Devices implements Engine.
func (b *Base) Devices() []*gpu.Device { return b.devices }

// AddDevice registers a device created after construction (elastic
// engines build GPU groups on demand).
func (b *Base) AddDevice(d *gpu.Device) { b.devices = append(b.devices, d) }

// CachePools implements Engine.
func (b *Base) CachePools() []*kvcache.Pool { return b.pools }

// AdmitNext is one step of the admission loop every pooled engine runs:
// while fewer than MaxBatch requests are in flight, it admits the head of
// pending into pool (see Admit; reserveOutput adds the output tokens to
// the reservation), records the admission and pops the request. It
// returns nil, leaving pending untouched, when the queue is empty, the
// batch is full or the pool cannot hold the head.
func (e *Env) AdmitNext(pending *arena.Queue[*workload.Request], inflight int, pool *kvcache.Pool, reserveOutput bool) *Running {
	if pending.Len() == 0 || inflight >= MaxBatch {
		return nil
	}
	r := pending.Front()
	extra := 0
	if reserveOutput {
		extra = r.OutputTokens
	}
	run := e.Admit(pool, r, extra)
	if run == nil {
		return nil
	}
	e.Admitted(r.ID)
	pending.Pop()
	return run
}

// PrefillPhaseKernel is a whole prefill phase of seqs on tp GPUs as one
// kernel. Its host launch pays every layer's launch up front and blocks
// later launches behind it.
func (e *Env) PrefillPhaseKernel(seqs []model.Seq, tp int) gpu.Kernel {
	return gpu.NewKernel("prefill-phase", gpu.Prefill, e.Arch.PrefillPhase(seqs, tp),
		sim.Time(e.Arch.Layers)*e.Spec.LayerLaunch)
}

// KVTransferDelay is how long tokens tokens of KV cache take to cross
// NVLink between GPU groups joined by links parallel links.
func (e *Env) KVTransferDelay(tokens, links int) sim.Time {
	kvBytes := float64(tokens) * e.Arch.KVBytesPerToken()
	return sim.FromSeconds(kvBytes / (e.Spec.NVLinkBandwidth * float64(links)))
}

// PrefillSeq is the request's prefill shape: the prompt tokens the prefix
// cache missed (at least one: a full hit still computes the last token)
// over the cached ones.
func (r *Running) PrefillSeq() model.Seq {
	return model.Seq{New: max(1, r.R.InputTokens-r.CachedTokens), Reused: r.CachedTokens}
}

// FirstToken emits the token a finished prefill produces and finishes the
// request when that was its only output token, which it reports.
func FirstToken(rec *metrics.Recorder, r *Running, now sim.Time) bool {
	rec.Token(r.R.ID, now)
	r.Generated = 1
	if r.DecodeDone() {
		rec.Finish(r.R.ID, now)
		return true
	}
	return false
}

// DecodeStream is an engine's decode batch plus the iteration running on
// it. At most one iteration is in flight. Add is the only way into the
// batch and is valid at any time: a request added while an iteration runs
// counts in Size and TotalCtx at once, but the boundary steps only the
// batch the iteration launched with, so the late joiner takes its first
// decode token from the next iteration.
//
// The stream keeps a running sum of its requests' CtxTokens: Add adds the
// joining request's context, and each step adds one per kept request and
// subtracts each finished one's. A member's context changes only there,
// which is why the request list is unexported.
//
// The batch records its tokens through one metrics.Stream, opened on the
// recorder of its first step: a request joins the stream at the first
// step that steps it, each step is one Stream.Step for the stepped batch,
// and a finished request leaves with Stream.Finish.
//
// The stream owns the iteration boundary. Bind registers the engine's
// boundary handler and quiet predicate once, and every iteration the
// stream launches completes in the stream's own callback, which steps
// the batch. When no member finished and quiet(arg) holds, the stream
// coasts: it relaunches the next iteration itself, late joiners included,
// on the same partition with the same TP, surcharge and Transform, and
// the handler is not called. Every other boundary calls
// handler(arg, finished) with the already-stepped finished list. quiet
// promises that the handler would do nothing but launch that same
// iteration: nothing pending, queued or merging, and no resize due. The
// relaunch prices the kernel as Launch does and submits it with
// gpu.Partition.Relaunch, which makes the simulator calls a fresh launch
// makes, so results and event keys are the same whether a boundary coasts
// or not. When the kernel runs alone on its device and retires before any
// other event, Relaunch folds it (see gpu.Device): the iteration runs and
// retires inline, and the stream loops to its boundary with no event.
// sim.LoopStats counts each folded iteration in Folded instead of in
// Scheduled and Fired; everything else is the same.
type DecodeStream struct {
	// Running reports whether an iteration is on the device.
	Running bool

	// Transform, when set, rewrites each iteration's cost before launch
	// and may override its MFU (0 keeps the spec's). Launch calls it with
	// chunkTokens 0.
	Transform func(cost model.Cost, chunkTokens int) (model.Cost, float64)

	reqs   []*Running
	ctx    int // Σ CtxTokens over reqs
	stream *metrics.Stream
	joined int // reqs[:joined] have joined the stream
	fin    []*Running

	env     *Env
	handler func(arg any, finished []*Running)
	quiet   func(arg any) bool
	arg     any
	span    string // names the track of decode-iter spans; "" emits none

	// The iteration on the device, or the last one: where it runs, how
	// Launch priced it (tp is 0 for a LaunchKernel iteration, which the
	// stream cannot reprice), and when it launched with which batch
	// (reqs[:size], the members its boundary steps).
	part      *gpu.Partition
	tp        int
	surcharge float64
	start     sim.Time
	size      int
	startCtx  int

	// cost prices an iteration; price rebuilds it when the arch or the
	// TP degree changes.
	cost model.DecodeTable
}

// Bind registers the environment the stream launches in and records
// to, the engine's boundary handler and its quiet predicate, both called
// with arg. An engine binds its stream once, at construction.
func (d *DecodeStream) Bind(env *Env, handler func(arg any, finished []*Running), quiet func(arg any) bool, arg any) {
	d.env, d.handler, d.quiet, d.arg = env, handler, quiet, arg
}

// TraceSpans makes every iteration a decode-iter span on the track
// "Label/stream" while the environment traces: it begins at launch with
// the batch size, context and partition SMs and ends at the boundary,
// before the step.
func (d *DecodeStream) TraceSpans(stream string) { d.span = stream }

// Launch starts one decode iteration of the whole batch on part, costed
// for tp-way tensor parallelism plus surcharge extra HBM bytes.
func (d *DecodeStream) Launch(part *gpu.Partition, tp int, surcharge float64) {
	d.part, d.tp, d.surcharge = part, tp, surcharge
	d.begin()
	cost, mfu := d.price()
	k := gpu.NewKernel("decode", gpu.Decode, cost, d.env.Spec.GraphLaunch)
	k.MFU = mfu
	part.LaunchFn(k, streamDone, d)
}

// LaunchKernel starts k, an iteration the engine priced itself (a fused
// prefill chunk), as the stream's next iteration on part. The stream
// cannot reprice it, so its boundary always goes to the handler.
func (d *DecodeStream) LaunchKernel(part *gpu.Partition, k gpu.Kernel) {
	d.part, d.tp = part, 0
	d.begin()
	part.LaunchFn(k, streamDone, d)
}

// InFlight returns the launch time and batch shape (size, summed
// context) of the iteration on the device, or of the last one.
func (d *DecodeStream) InFlight() (start sim.Time, size, ctx int) {
	return d.start, d.size, d.startCtx
}

// begin marks an iteration launched now on the current batch.
func (d *DecodeStream) begin() {
	d.Running = true
	d.start, d.size, d.startCtx = d.env.Sim.Now(), len(d.reqs), d.ctx
	if tr := d.env.Trace; tr != nil && d.span != "" {
		tr.Begin(d.start, d.env.Label+"/"+d.span, "decode-iter",
			obs.Arg{Key: "bs", Val: d.size}, obs.Arg{Key: "ctx", Val: d.startCtx},
			obs.Arg{Key: "sms", Val: d.part.SMs()})
	}
}

// price returns the cost and MFU override of one iteration of the batch
// as Launch was last asked to price it.
func (d *DecodeStream) price() (cost model.Cost, mfu float64) {
	arch := &d.env.Arch
	if !d.cost.For(arch, d.tp) {
		d.cost = arch.DecodeTable(d.tp)
	}
	cost = d.cost.Iter(d.ctx, len(d.reqs))
	cost.Bytes += d.surcharge
	if d.Transform != nil {
		cost, mfu = d.Transform(cost, 0)
	}
	return cost, mfu
}

// streamDone is the bound completion callback of every iteration.
func streamDone(arg any) { arg.(*DecodeStream).boundary() }

// noCoast sends every boundary to the handler, for tests that check
// coasting and folding against the handler's own relaunches.
var noCoast bool

// boundary ends the iteration on the device: it steps the batch, then
// coasts into the next iteration or hands the boundary to the engine.
// While the relaunch folds, the next iteration has already retired, and
// its boundary follows at once.
func (d *DecodeStream) boundary() {
	for {
		now := d.env.Sim.Now()
		if tr := d.env.Trace; tr != nil && d.span != "" {
			tr.End(now, d.env.Label+"/"+d.span, "decode-iter")
		}
		finished := d.step(now, d.env.Rec)
		if len(finished) > 0 || d.tp == 0 || len(d.reqs) == 0 || noCoast || !d.quiet(d.arg) {
			d.handler(d.arg, finished)
			return
		}
		d.begin()
		if !d.part.Relaunch(d.price()) {
			return
		}
	}
}

// Size returns the batch size.
func (d *DecodeStream) Size() int { return len(d.reqs) }

// TotalCtx returns the summed context length of the batch, the running
// sum, in O(1).
func (d *DecodeStream) TotalCtx() int { return d.ctx }

// Add appends a request to the batch, at any time (see DecodeStream).
func (d *DecodeStream) Add(r *Running) {
	d.reqs = append(d.reqs, r)
	d.ctx += r.CtxTokens()
}

// step ends the running iteration at now: every request it launched with
// gains a token, and the finished ones leave the batch; requests added
// since keep their order after the kept ones. It returns the finished
// requests in a buffer the next step reuses, so per-iteration stepping
// does not allocate. rec must be the same recorder at every call.
func (d *DecodeStream) step(now sim.Time, rec *metrics.Recorder) []*Running {
	d.Running = false
	if d.stream == nil {
		d.stream = rec.NewStream()
	}
	for _, r := range d.reqs[d.joined:d.size] {
		r.member = d.stream.Join(r.R.ID)
	}
	d.stream.Step(now)
	finished := d.fin[:0]
	n := 0 // kept requests, moved down in place; none moves until one finishes
	for i, r := range d.reqs[:d.size] {
		r.Generated++
		if r.DecodeDone() {
			d.stream.Finish(r.member, now)
			finished = append(finished, r)
			d.ctx -= r.CtxTokens() - 1
			continue
		}
		if n != i {
			d.reqs[n] = r
		}
		n++
	}
	d.ctx += n
	if n != d.size { // only a finished member leaves a gap to close
		d.reqs = append(d.reqs[:n], d.reqs[d.size:]...)
	}
	d.joined = n
	d.fin = finished
	return finished
}
