// Package windserve implements the WindServe-style baseline discussed in
// §6: prefill and decode multiplex on ordinary CUDA streams with no SM
// partitioning. Both streams contend for the whole GPU — compute
// time-slices and memory bandwidth is unmanaged — and neither launch
// bubbles nor merge stalls are addressed (whole-phase prefill launches
// block the host). The paper's prototype of this design loses 1.61× on
// ShareGPT goodput against MuxWise on an A100 with Llama-8B.
package windserve

import (
	"muxwise/internal/arena"
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/workload"
)

// Engine multiplexes on unpartitioned streams.
type Engine struct {
	serve.Base
	env *serve.Env

	decodeS  *gpu.Partition // "stream", full SMs
	prefillS *gpu.Partition // "stream", full SMs
	pool     *kvcache.Pool

	decode  serve.DecodeStream
	queue   arena.Queue[*serve.Running]
	pending arena.Queue[*workload.Request]

	// merging holds prefilled requests whose first token waits for the
	// decode iteration boundary.
	merging []*serve.Running

	// pInFlight is the prefill on the device, nil when the prefill
	// stream is idle.
	pInFlight *serve.Running
}

// New builds a WindServe-style engine.
func New(env *serve.Env) serve.Engine {
	dev := gpu.NewDevice(env.Sim, env.Spec, env.GPUs, "windserve")
	e := &Engine{
		env:      env,
		decodeS:  dev.Partition(env.Spec.SMs, "decode-stream"),
		prefillS: dev.Partition(env.Spec.SMs, "prefill-stream"),
		pool:     kvcache.New(env.PoolTokens(env.GPUs), kvcache.DefaultPageTokens),
	}
	e.Base = serve.NewBase("WindServe", []*gpu.Device{dev}, e.pool)
	e.decode.Bind(env, decodeDone, decodeQuiet, e)
	return e
}

// Submit implements serve.Engine.
func (e *Engine) Submit(r *workload.Request) {
	e.pending.Push(r)
	e.admit()
	e.schedule()
}

func (e *Engine) admit() {
	for {
		run := e.env.AdmitNext(&e.pending, e.decode.Size()+e.queue.Len()+len(e.merging), e.pool, true)
		if run == nil {
			return
		}
		e.queue.Push(run)
	}
}

func (e *Engine) schedule() {
	if !e.decode.Running && e.decode.Size() > 0 {
		e.decode.Launch(e.decodeS, e.env.GPUs, 0)
	}
	e.startPrefill()
}

// decodeDone / decodeQuiet / prefillDone are the engine's bound
// callbacks: the engine rides as the argument, so steady-state
// iterations allocate no closures.
func decodeDone(arg any, finished []*serve.Running) { arg.(*Engine).onDecodeDone(finished) }

// decodeQuiet is the decode stream's quiet predicate: no prefilled
// request waits for the boundary, none waits for admission, and the
// prefill stream is busy or has nothing to start.
func decodeQuiet(arg any) bool {
	e := arg.(*Engine)
	return len(e.merging) == 0 && e.pending.Len() == 0 && (e.pInFlight != nil || e.queue.Len() == 0)
}

func prefillDone(arg any) {
	e := arg.(*Engine)
	run := e.pInFlight
	e.pInFlight = nil
	if e.decode.Running {
		e.merging = append(e.merging, run)
	} else {
		e.mergeOne(run)
	}
	e.schedule()
}

func (e *Engine) onDecodeDone(finished []*serve.Running) {
	for _, r := range finished {
		r.Complete(e.pool)
	}
	for _, r := range e.merging {
		e.mergeOne(r)
	}
	e.merging = e.merging[:0]
	e.admit()
	e.schedule()
}

func (e *Engine) mergeOne(r *serve.Running) {
	e.env.Rec.PrefillDone(r.R.InputTokens - r.CachedTokens)
	if serve.FirstToken(e.env.Rec, r, e.env.Sim.Now()) {
		r.Complete(e.pool)
		return
	}
	e.decode.Add(r)
}

// startPrefill launches the queue head as one whole-phase kernel on the
// unpartitioned prefill stream.
func (e *Engine) startPrefill() {
	if e.pInFlight != nil || e.queue.Len() == 0 {
		return
	}
	e.pInFlight = e.queue.Pop()
	k := e.env.PrefillPhaseKernel([]model.Seq{e.pInFlight.PrefillSeq()}, e.env.GPUs)
	e.prefillS.LaunchFn(k, prefillDone, e)
}
