// Package temporal implements the Tropical-style temporal-only
// multiplexing variant discussed in §6: prefill and decode share the full
// GPU in time. The engine is the enhanced variant the MuxWise authors
// prototyped — prefill is split into layers so it can slot into the slack
// between a decode iteration's completion and the TBT deadline. Because
// idle decode-phase resources can never be used *spatially*, the paper
// measures it at least 20% behind MuxWise.
package temporal

import (
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
	queue   serve.Queue[*job]
	pending serve.Queue[*workload.Request]

	// burstN is the layer count of the prefill burst on the device (one
	// launch at a time, guarded by busy).
	burstN int
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
		e.queue.Push(&job{run: run, seq: run.PrefillSeq()})
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
		e.decode.Launch(e.env, e.part, e.env.GPUs, 0, decodeDone, e)
		return
	}
	if e.active != nil {
		// No decode pending: prefill runs layers back to back.
		e.runLayers(e.env.Arch.Layers - e.active.layersDone)
	}
}

// decodeDone / burstDone are the engine's bound completion callbacks:
// the engine rides as the event argument, so steady-state iterations
// allocate no closures.
func decodeDone(arg any) { arg.(*Engine).onDecodeDone() }

func burstDone(arg any) { arg.(*Engine).onBurstDone() }

func (e *Engine) onDecodeDone() {
	e.busy = false
	for _, r := range e.decode.Step(e.env.Sim.Now(), e.env.Rec) {
		r.Complete(e.pool)
	}
	e.admit()
	// Slack for prefill layers before the next decode must start.
	if e.active != nil {
		sms := e.env.Spec.SMs
		dLat := e.est.DecodeSolo(e.decode.TotalCtx(), e.decode.Size(), sms)
		slack := e.env.SLO.TBT - dLat - e.env.Spec.GraphLaunch
		layer := e.est.PrefillPhase([]model.Seq{e.active.seq}, sms) / sim.Time(e.env.Arch.Layers)
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
	e.part.LaunchFn(serve.NewKernel("prefill-burst", gpu.Prefill, layer.Scale(float64(n)),
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
	if serve.FirstToken(e.env.Rec, j.run, e.env.Sim.Now()) {
		j.run.Complete(e.pool)
		return
	}
	e.decode.Add(j.run)
}
