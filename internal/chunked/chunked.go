// Package chunked implements the SARATHI-Serve chunked-prefill baseline
// as shipped in SGLang (§2.3.2, §4.1): the prefill phase is split into
// chunks capped by a token budget and each chunk is fused with one decode
// iteration into a single kernel. To stay computationally equivalent,
// every chunk re-reads the KV cache of all previously processed tokens —
// the quadratic overhead behind Fig. 6b. The engine shares one KV pool
// across phases and requests (SGLang radix cache), so its weakness is
// purely the SLO-vs-utilization dilemma of the token budget.
package chunked

import (
	"muxwise/internal/arena"
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/workload"
)

// Engine is the chunked-prefill baseline.
type Engine struct {
	serve.Base
	env    *serve.Env
	budget int

	part *gpu.Partition
	pool *kvcache.Pool
	cost model.DecodeTable // env.Arch's iteration costs at env.GPUs

	// decode.Running guards the single fused stream: every iteration
	// carries the decode step, chunk or not. Its Transform, when set,
	// rewrites every iteration's cost.
	decode  serve.DecodeStream
	queue   arena.Queue[*serve.Running] // prefill in FIFO order, head is chunking
	pending arena.Queue[*workload.Request]

	// inFlight is the chunk progress of the iteration on the device (one
	// at a time, guarded by decode.Running); the rest is reused scratch.
	inFlight   []progress
	seqScratch []model.Seq
}

// BudgetFor returns the paper's offline-tuned token budget for a TBT SLO:
// the largest power-of-two budget whose fused iteration stays within the
// target on the deployed model (§4.1 follows SARATHI-Serve's method; the
// evaluation lands on 256 for Llama-70B at 100 ms and SGLang-typical
// 2048/4096 only under loose SLOs).
func BudgetFor(env *serve.Env) int {
	budget := 64
	for b := 64; b <= 8192; b *= 2 {
		// Representative fused iteration: decode bs=32 with 1K contexts.
		if fusedLatency(env, b, 32, 1024) <= env.SLO.TBT.Seconds() {
			budget = b
		}
	}
	return budget
}

// New builds a chunked-prefill engine with the budget tuned offline for
// the environment's TBT SLO.
func New(env *serve.Env) serve.Engine { return NewWithBudget(env, BudgetFor(env)) }

// NewWithBudget builds the engine with an explicit token budget (used by
// the Fig. 6 sweeps and the NanoFlow configuration).
func NewWithBudget(env *serve.Env, budget int) *Engine {
	dev := gpu.NewDevice(env.Sim, env.Spec, env.GPUs, "chunked")
	e := &Engine{
		env:    env,
		budget: budget,
		part:   dev.Partition(env.Spec.SMs, "fused"),
		pool:   kvcache.New(env.PoolTokens(env.GPUs), kvcache.DefaultPageTokens),
		cost:   env.Arch.DecodeTable(env.GPUs),
	}
	e.Base = serve.NewBase("Chunked", []*gpu.Device{dev}, e.pool)
	e.decode.Bind(env, iterDone, iterQuiet, e)
	return e
}

// SetTransform makes fn rewrite every iteration's kernel cost before
// launch, possibly overriding its MFU; NanoFlow uses it to model
// nano-batch weight reloads and its compute/memory overlap bonus.
// chunkTokens is the chunk's share of the iteration (0 for pure decode).
func (e *Engine) SetTransform(fn func(cost model.Cost, chunkTokens int) (model.Cost, float64)) {
	e.decode.Transform = fn
}

// Partition exposes the single fused compute stream (bubble accounting).
func (e *Engine) Partition() *gpu.Partition { return e.part }

// Budget returns the tuned token budget.
func (e *Engine) Budget() int { return e.budget }

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
		e.queue.Push(run)
	}
}

// step launches the next fused iteration: one decode step for the whole
// batch plus a prefill chunk from the queue head(s) filling the budget.
func (e *Engine) step() {
	if e.decode.Running {
		return
	}
	if e.decode.Size() == 0 && e.queue.Len() == 0 {
		return
	}
	chunkBudget := max(0, e.budget-e.decode.Size())

	// Assemble the chunk: requests from the queue head, possibly several
	// if the head finishes its prefill inside the budget.
	chunkSeqs := e.seqScratch[:0]
	progressed := e.inFlight[:0]
	for i := 0; i < e.queue.Len() && chunkBudget > 0; i++ {
		run := e.queue.At(i)
		take := min(max(1, run.PrefillRemaining()), chunkBudget)
		chunkSeqs = append(chunkSeqs, model.Seq{New: take, Prior: run.PrefilledTokens, Reused: run.CachedTokens})
		progressed = append(progressed, progress{run, take})
		chunkBudget -= take
	}
	e.seqScratch, e.inFlight = chunkSeqs, progressed
	if len(chunkSeqs) == 0 {
		// Pure decode: the stream prices it, and may coast into the next.
		if e.decode.Size() > 0 {
			e.decode.Launch(e.part, e.env.GPUs, 0)
		}
		return
	}

	totalCtx, bs := e.decode.TotalCtx(), e.decode.Size()
	var cost model.Cost
	if len(chunkSeqs) == 1 {
		cost = e.cost.Fused(chunkSeqs[0], totalCtx, bs)
	} else {
		// Multiple chunk slices: accumulate each without re-paying
		// weights (the iteration streams them once).
		cost = e.cost.Iter(totalCtx, bs)
		for _, sq := range chunkSeqs {
			layer := e.env.Arch.PrefillLayer([]model.Seq{sq}, e.env.GPUs, false)
			part := layer.Scale(float64(e.env.Arch.Layers))
			cost.Add(part)
			cost.Tokens += sq.New
		}
		if e.decode.Size() == 0 {
			cost.Bytes += float64(e.env.Arch.Layers) * e.env.Arch.LayerWeightBytes()
		}
	}

	// An iteration with a chunk takes the prefill efficiency curve over
	// the fused tokens.
	chunkTokens := 0
	for _, sq := range chunkSeqs {
		chunkTokens += sq.New
	}
	mfu := 0.0
	if tf := e.decode.Transform; tf != nil {
		cost, mfu = tf(cost, chunkTokens)
	}
	k := gpu.NewKernel("fused-iter", gpu.Prefill, cost, e.env.Spec.GraphLaunch)
	k.MFU = mfu
	e.decode.LaunchKernel(e.part, k)
}

// iterDone is the engine's bound boundary handler: the engine rides as
// the argument and reads the in-flight chunk progress from its own
// scratch, so steady-state iterations allocate no closures.
func iterDone(arg any, finished []*serve.Running) {
	e := arg.(*Engine)
	e.onIterDone(finished, e.inFlight)
}

// iterQuiet is the stream's quiet predicate: with no request waiting to
// be admitted or prefilled, the next iteration is pure decode again.
// (An empty queue also means the iteration carried no chunk.) The
// pending term is needed even when the pool has refused the head: the
// handler's admit runs at every boundary, and a refused Env.Admit still
// matches the head's prefix, which counts a lookup and refreshes the
// matched pages' recency, and its Reserve may evict. Coasting past it
// would change cache statistics and later evictions (the committed
// FuzzCoastMatchesHandler input_14 fails without the term).
func iterQuiet(arg any) bool {
	e := arg.(*Engine)
	return e.pending.Len() == 0 && e.queue.Len() == 0
}

// progress records how many chunk tokens an iteration advanced a request.
type progress struct {
	run  *serve.Running
	take int
}

// onIterDone finishes one fused iteration whose decode step the stream
// has taken: release of the finished requests, chunk progress for the
// head requests, and promotion of completed prefills into the decode
// batch.
func (e *Engine) onIterDone(finished []*serve.Running, chunks []progress) {
	now := e.env.Sim.Now()
	for _, r := range finished {
		r.Complete(e.pool)
	}

	for _, c := range chunks {
		c.run.PrefilledTokens += c.take
		if c.run.PrefillRemaining() == 0 {
			// Prefill complete: first token now.
			e.queue.Remove(c.run)
			e.env.Rec.PrefillDone(c.run.R.InputTokens - c.run.CachedTokens)
			if serve.FirstToken(e.env.Rec, c.run, now) {
				c.run.Complete(e.pool)
				continue
			}
			e.decode.Add(c.run)
		}
	}
	e.admit()
	e.step()
}

// fusedLatency prices a fused iteration for budget tuning (the offline
// step SARATHI-Serve performs before deployment): its kernel run solo on
// the full device, with its TP collectives budgeted after the kernel
// rather than overlapped with it as the device runs them.
func fusedLatency(env *serve.Env, budget, bs, ctx int) float64 {
	chunk := model.Seq{New: max(0, budget-bs), Reused: 1024}
	table := env.Arch.DecodeTable(env.GPUs)
	cost := table.Fused(chunk, bs*ctx, bs)
	comm := cost.CommBytes / env.Spec.NVLinkBandwidth
	cost.CommBytes = 0
	k := gpu.NewKernel("fused-iter", gpu.Prefill, cost, env.Spec.GraphLaunch)
	return gpu.SoloTime(env.Spec, env.GPUs, env.Spec.SMs, k).Seconds() + comm
}
