// Package nanoflow implements the NanoFlow baseline (§4.1): chunked
// prefill enhanced with operator-level intra-GPU multiplexing. Each fused
// iteration splits into two nano-batches so compute-bound kernels overlap
// memory- and communication-bound ones. The overlap buys efficiency when
// the iteration is compute-bound (large token budgets), but every decode
// iteration reloads model weights once per nano-batch — the degradation
// the paper observes under SLO-constrained small budgets, amplified on
// Llama-70B where the reload is 2× of a 140 GB stream (§4.2.1).
package nanoflow

import (
	"muxwise/internal/chunked"
	"muxwise/internal/model"
	"muxwise/internal/serve"
)

// overlapBonus is the MFU improvement nano-batch overlapping yields when
// the iteration is compute-bound.
const overlapBonus = 1.15

// nanoBatches is NanoFlow's fixed split factor (§4.2.1: "split each chunk
// into 2 nano batches, thus duplicating loading for each decode
// iteration").
const nanoBatches = 2

// New builds a NanoFlow engine. It uses the same SLO-tuned token budget
// as chunked-prefill (the paper's 1024+ preference cannot meet ≤100 ms
// TBT SLOs, §4.1).
func New(env *serve.Env) serve.Engine {
	e := chunked.NewWithBudget(env, chunked.BudgetFor(env))
	e.SetName("NanoFlow")
	weights := env.Arch.LayerWeightBytes() * float64(env.Arch.Layers)
	if env.Arch.MoE() {
		weights = env.Arch.ActiveLayerWeightBytes() * float64(env.Arch.Layers)
	}
	e.Transform = func(cost model.Cost, chunkTokens int) (model.Cost, float64) {
		// Each extra nano-batch re-streams the weights.
		cost.Bytes += float64(nanoBatches-1) * weights
		// Overlap raises effective MFU for the compute stream.
		mfu := env.Spec.MFUPrefill * overlapBonus
		if chunkTokens == 0 {
			mfu = env.Spec.MFUDecode * overlapBonus
		}
		return cost, mfu
	}
	return e
}
