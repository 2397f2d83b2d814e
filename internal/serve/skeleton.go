package serve

import (
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
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
func (e *Env) AdmitNext(pending *Queue[*workload.Request], inflight int, pool *kvcache.Pool, reserveOutput bool) *Running {
	if pending.Len() == 0 || inflight >= MaxBatch {
		return nil
	}
	r := pending.Front()
	extra := 0
	if reserveOutput {
		extra = r.OutputTokens
	}
	run := Admit(pool, r, extra)
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
// it. At most one iteration is in flight; requests that become ready
// meanwhile wait in a hold list until the iteration boundary. Each Step
// records the whole batch's tokens with one metrics.Stream step (see
// Batch).
type DecodeStream struct {
	Batch
	// Running reports whether an iteration is on the device.
	Running bool

	held []*Running
	fin  []*Running

	// cost prices an iteration; Launch rebuilds it when the arch or the
	// TP degree changes.
	cost model.DecodeTable
}

// Launch starts one decode iteration of the whole batch on part, costed
// for tp-way tensor parallelism plus surcharge extra HBM bytes; done(arg)
// runs at completion.
func (d *DecodeStream) Launch(env *Env, part *gpu.Partition, tp int, surcharge float64, done func(any), arg any) {
	if !d.cost.For(&env.Arch, tp) {
		d.cost = env.Arch.DecodeTable(tp)
	}
	cost := d.cost.Iter(d.TotalCtx(), d.Size())
	cost.Bytes += surcharge
	d.Running = true
	part.LaunchFn(gpu.NewKernel("decode", gpu.Decode, cost, env.Spec.GraphLaunch), done, arg)
}

// Step ends the running iteration at now: every request in the batch
// gains a token, and the finished ones leave the batch. It returns them
// in a buffer the next Step reuses.
func (d *DecodeStream) Step(now sim.Time, rec *metrics.Recorder) []*Running {
	d.Running = false
	d.fin = d.StepInto(now, rec, d.fin)
	return d.fin
}

// Hold parks r until the running iteration ends.
func (d *DecodeStream) Hold(r *Running) { d.held = append(d.held, r) }

// Held returns the number of parked requests.
func (d *DecodeStream) Held() int { return len(d.held) }

// Join adds r to the batch now when the stream is idle, or parks it for
// the next iteration boundary otherwise.
func (d *DecodeStream) Join(r *Running) {
	if d.Running {
		d.Hold(r)
		return
	}
	d.Add(r)
}

// TakeHeld empties the hold list and returns what it held, in order. The
// slice is valid until the next Hold.
func (d *DecodeStream) TakeHeld() []*Running {
	held := d.held
	d.held = d.held[:0]
	return held
}

// FoldHeld moves every parked request into the batch.
func (d *DecodeStream) FoldHeld() {
	for _, r := range d.held {
		d.Add(r)
	}
	d.held = d.held[:0]
}
