// Package temporal implements the Tropical-style temporal-only
// multiplexing variant discussed in §6: prefill and decode share the full
// GPU in time. The engine is the enhanced variant the MuxWise authors
// prototyped — prefill is split into layers so it can slot into the slack
// between a decode iteration's completion and the TBT deadline. Because
// idle decode-phase resources can never be used *spatially*, the paper
// measures it at least 20% behind MuxWise.
package temporal

import (
	"muxwise/internal/arena"
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// Engine interleaves decode iterations with prefill layer bursts on one
// full-device stream.
type Engine struct {
	serve.Base
	env *serve.Env

	part *gpu.Partition
	pool *kvcache.Pool
	est  serve.CostModel

	decode  serve.DecodeStream
	busy    bool // the single stream runs a decode iteration or a burst
	active  *job
	queue   arena.Queue[*job]
	pending arena.Queue[*workload.Request]

	// burstN is the layer count of the prefill burst on the device (one
	// launch at a time, guarded by busy).
	burstN int

	jobs arena.Pool[job] // finished prefills, for admit to reuse
	// seq is a one-element scratch batch for the cost model, which takes
	// the active job's shape through an interface and so would make a
	// literal batch escape at every decode boundary.
	seq [1]model.Seq
}

type job struct {
	run        *serve.Running
	seq        model.Seq
	layersDone int
}

// New builds a temporal-multiplexing engine.
func New(env *serve.Env) serve.Engine {
	dev := gpu.NewDevice(env.Sim, env.Spec, env.GPUs, "temporal")
	e := &Engine{
		env:  env,
		part: dev.Partition(env.Spec.SMs, "serial"),
		pool: kvcache.New(env.PoolTokens(env.GPUs), kvcache.DefaultPageTokens),
		est:  env.Cost(),
	}
	e.Base = serve.NewBase("Temporal", []*gpu.Device{dev}, e.pool)
	e.decode.Bind(env, decodeDone, decodeQuiet, e)
	return e
}

// Submit implements serve.Engine.
func (e *Engine) Submit(r *workload.Request) {
	e.pending.Push(r)
	e.admit()
	e.step()
}

func (e *Engine) admit() {
	for {
		run := e.env.AdmitNext(&e.pending, e.decode.Size()+e.queue.Len(), e.pool, true)
		if run == nil {
			return
		}
		j := e.jobs.Get()
		*j = job{run: run, seq: run.PrefillSeq()}
		e.queue.Push(j)
	}
}

// step alternates: one decode iteration, then as many prefill layers as
// fit in the remaining TBT slack, then the next decode iteration.
func (e *Engine) step() {
	if e.busy {
		return
	}
	if e.active == nil && e.queue.Len() > 0 {
		e.active = e.queue.Pop()
	}
	if e.decode.Size() > 0 {
		e.busy = true
		e.decode.Launch(e.part, e.env.GPUs, 0)
		return
	}
	if e.active != nil {
		// No decode pending: prefill runs layers back to back.
		e.runLayers(e.env.Arch.Layers - e.active.layersDone)
	}
}

// decodeDone / decodeQuiet / burstDone are the engine's bound
// callbacks: the engine rides as the argument, so steady-state
// iterations allocate no closures.
func decodeDone(arg any, finished []*serve.Running) { arg.(*Engine).onDecodeDone(finished) }

// decodeQuiet is the decode stream's quiet predicate: with no prefill
// active, queued or awaiting admission there is no slack to fill, and
// the next decode iteration follows at once.
func decodeQuiet(arg any) bool {
	e := arg.(*Engine)
	return e.active == nil && e.queue.Len() == 0 && e.pending.Len() == 0
}

func burstDone(arg any) { arg.(*Engine).onBurstDone() }

func (e *Engine) onDecodeDone(finished []*serve.Running) {
	e.busy = false
	for _, r := range finished {
		r.Complete(e.pool)
	}
	e.admit()
	// Slack for prefill layers before the next decode must start.
	if e.active != nil {
		sms := e.env.Spec.SMs
		dLat := e.est.DecodeSolo(e.decode.TotalCtx(), e.decode.Size(), sms)
		slack := e.env.SLO.TBT - dLat - e.env.Spec.GraphLaunch
		e.seq[0] = e.active.seq
		layer := e.est.PrefillPhase(e.seq[:], sms) / sim.Time(e.env.Arch.Layers)
		n := 0
		if layer > 0 && slack > 0 {
			n = int(slack / layer)
		}
		if e.decode.Size() == 0 {
			n = e.env.Arch.Layers - e.active.layersDone
		}
		if n > 0 {
			e.runLayers(n)
			return
		}
	}
	e.step()
}

func (e *Engine) runLayers(n int) {
	j := e.active
	if j == nil || n <= 0 {
		e.step()
		return
	}
	if n > e.env.Arch.Layers-j.layersDone {
		n = e.env.Arch.Layers - j.layersDone
	}
	layer := e.env.Arch.PrefillLayer([]model.Seq{j.seq}, e.env.GPUs, true)
	e.busy = true
	e.burstN = n
	e.part.LaunchFn(gpu.NewKernel("prefill-burst", gpu.Prefill, layer.Scale(float64(n)),
		sim.Time(n)*e.env.Spec.LayerLaunch), burstDone, e)
}

func (e *Engine) onBurstDone() {
	e.busy = false
	j := e.active
	j.layersDone += e.burstN
	if j.layersDone >= e.env.Arch.Layers {
		e.finishPrefill(j)
	}
	e.step()
}

func (e *Engine) finishPrefill(j *job) {
	e.active = nil
	e.env.Rec.PrefillDone(j.seq.New)
	run := j.run
	e.jobs.Release(j)
	if serve.FirstToken(e.env.Rec, run, e.env.Sim.Now()) {
		run.Complete(e.pool)
		return
	}
	e.decode.Add(run)
}
