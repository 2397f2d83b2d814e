package estimator

import (
	"math"

	"muxwise/internal/gpu"
	"muxwise/internal/model"
	"muxwise/internal/sim"
)

// Guard is the contention guard: a 5-factor grid of maximum observed
// decode slowdowns under spatial multiplexing with a prefill batch. It is
// initialised by coarse offline co-run profiling (powers-of-4 token grid,
// 16-SM partition granularity — §3.3.2) and refined online with the max
// of observed slowdowns.
//
// The grid is a dense flat array indexed by the bucketed cell
// coordinates: Factor sits on every decode-estimate path, so lookups and
// the unprofiled-cell fallback (the per-config maximum, kept
// incrementally) must not scan or hash.
type Guard struct {
	// flat holds the cell maxima at
	// (((pNew*4+pReused)*9+dBS)*4+dCtx)*len(configs)+configIdx;
	// zero means unprofiled. Token dimensions are bucketed by log₄ from
	// 2K to 128K; batch size by log₂.
	flat []float64
	// cfgMax[ci] is the fallback for unprofiled cells of config ci:
	// the maximum stored factor for that config, floored at floor.
	cfgMax  []float64
	cells   int // nonzero entries in flat
	configs []int
	floor   float64 // minimum factor returned (sync/merge margin)
}

// Guard grid dimensions: 4 log₄ token buckets (2K..128K) for prefill-new,
// prefill-reused and decode-context, 9 log₂ batch-size buckets.
const (
	guardTokBuckets = 4
	guardBSBuckets  = 9
)

// idx flattens bucketed cell coordinates; ci is an index into g.configs.
func (g *Guard) idx(pNew, pReused, dBS, dCtx, ci int) int {
	return (((pNew*guardTokBuckets+pReused)*guardBSBuckets+dBS)*guardTokBuckets+dCtx)*len(g.configs) + ci
}

// store raises the cell's maximum (and its config's fallback).
func (g *Guard) store(i, ci int, factor float64) {
	if factor <= g.flat[i] {
		return
	}
	if g.flat[i] == 0 {
		g.cells++
	}
	g.flat[i] = factor
	if factor > g.cfgMax[ci] {
		g.cfgMax[ci] = factor
	}
}

// newGuard returns an empty grid over the given partition configs.
func newGuard(configs []int, floor float64) *Guard {
	n := guardTokBuckets * guardTokBuckets * guardBSBuckets * guardTokBuckets * len(configs)
	g := &Guard{flat: make([]float64, n), cfgMax: make([]float64, len(configs)), configs: configs, floor: floor}
	for i := range g.cfgMax {
		g.cfgMax[i] = floor
	}
	return g
}

// tokenBucket maps a token count to its powers-of-4 bucket index:
// log₄(tok/2048) rounded to the nearest integer and clamped to [0, 3].
// Bucket b starts at 2048·4^(b−½) tokens; comparing against those
// boundaries as integers keeps logarithms off every guard lookup.
func tokenBucket(tok int) int {
	switch {
	case tok >= 65536:
		return 3
	case tok >= 16384:
		return 2
	case tok >= 4096:
		return 1
	}
	return 0
}

// bsBounds[b] is the smallest batch size in log₂ bucket b+1: the first
// integer at or above 2^(b+½).
var bsBounds = [guardBSBuckets - 1]int{2, 3, 6, 12, 23, 46, 91, 182}

// bsBucket maps a batch size to its log₂ bucket: log₂(bs) rounded to the
// nearest integer and clamped to [0, 8].
func bsBucket(bs int) int {
	b := 0
	for b < len(bsBounds) && bs >= bsBounds[b] {
		b++
	}
	return b
}

// bucketTokens returns the representative token counts profiled offline.
var bucketTokens = []int{2048, 8192, 32768, 131072}

// bucketBS returns the representative batch sizes profiled offline.
var bucketBS = []int{1, 4, 16, 64, 192}

// profileGuard measures decode slowdown for every grid cell by co-running
// a decode iteration with a stream of prefill layers on the complementary
// partition of a fresh simulated device. A cell's solo latency depends
// only on its config, batch size and context, so each solo is measured
// once and shared by the cell's 15 prefill shapes.
func profileGuard(spec gpu.Spec, tp int, arch model.Arch, est *Estimator) *Guard {
	g := newGuard(spec.PartitionSizes(), 1.0)
	solo := make([]float64, len(bucketBS)*len(bucketTokens))
	for ci, decSM := range g.configs {
		preSM := spec.SMs - decSM
		for bi, bs := range bucketBS {
			for dj, dCtx := range bucketTokens {
				solo[bi*len(bucketTokens)+dj] = MeasureDecodeSolo(spec, tp, arch, decSM, bs, dCtx)
			}
		}
		for pi, pNew := range bucketTokens {
			for pj, pReused := range bucketTokens {
				if pi == 3 && pj == 3 {
					continue // paper excludes the 128K new + 128K reused cell
				}
				for bi, bs := range bucketBS {
					for dj, dCtx := range bucketTokens {
						co, _ := measureDecodeCoRun(spec, tp, arch, decSM, preSM, bs, dCtx, pNew, pReused)
						factor := co / solo[bi*len(bucketTokens)+dj]
						if factor < 1 {
							factor = 1
						}
						g.store(g.idx(pi, pj, bsBucket(bs), dj, ci), ci, factor)
					}
				}
			}
		}
	}
	return g
}

// measureDecodeCoRun measures one decode iteration's latency in seconds
// while a prefill phase streams layers on the complementary partition,
// and returns it with the number of layers the kept run launched.
//
// Each run stops at the decode's completion, the one instant it
// measures. It launches only the first k layers, for k = 4, 16, 64, then
// arch.Layers, and is kept only if layer k had not retired when the
// decode completed (the prefill partition was not idle); otherwise the
// next k runs. A kept run times the decode exactly as a run of the whole
// phase would. The layers after k would sit queued behind layer k and
// push no event before it retires. Their host-launch-ready keys would be
// reserved at t = 0 after every other t = 0 draw, so dropping them shifts
// every later sequence number by the same amount and leaves the dispatch
// order as it was. The earlier layers' ready times do not change either,
// since each launch only adds to the host queue behind them.
func measureDecodeCoRun(spec gpu.Spec, tp int, arch model.Arch, decSM, preSM, bs, ctxPerReq, pNew, pReused int) (float64, int) {
	k := min(4, arch.Layers)
	for {
		done, overlapped := coRunLayers(spec, tp, arch, decSM, preSM, bs, ctxPerReq, pNew, pReused, k)
		if overlapped || k == arch.Layers {
			return done, k
		}
		k = min(4*k, arch.Layers)
	}
}

// coRunLayers co-runs one decode iteration with the first k layers of a
// prefill phase and stops at the decode's completion. It returns the
// decode's latency in seconds and whether the prefill partition was
// still busy then.
func coRunLayers(spec gpu.Spec, tp int, arch model.Arch, decSM, preSM, bs, ctxPerReq, pNew, pReused, k int) (done float64, overlapped bool) {
	s := sim.New()
	d := gpu.NewDevice(s, spec, tp, "co-profile")
	dec := d.Partition(decSM, "decode")
	pre := d.Partition(preSM, "prefill")

	// Decode launches first — MuxWise's launch-order policy (§3.2.2) —
	// then prefill layers stream on the complementary partition so the
	// decode kernel executes under steady-state contention.
	c := arch.DecodeIterTotals(bs*ctxPerReq, bs, tp)
	dec.Launch(gpu.NewKernel("decode", gpu.Decode, c, spec.GraphLaunch), func() {
		done = s.Now().Seconds()
		overlapped = !pre.Idle()
		s.Stop()
	})

	layer := gpu.NewKernel("prefill-layer", gpu.Prefill, arch.PrefillLayer([]model.Seq{{New: pNew, Reused: pReused}}, tp, true), spec.LayerLaunch)
	for range k {
		pre.Launch(layer, nil)
	}
	s.Run()
	return done, overlapped
}

// Factor returns the worst-case slowdown for the cell containing the
// given co-run shape, with a floor of 1.
func (g *Guard) Factor(prefillNew, prefillReused, bs, totalCtx, decSM int) float64 {
	perReq := totalCtx
	if bs > 0 {
		perReq = totalCtx / bs
	}
	ci := g.snapIdx(decSM)
	f := g.flat[g.idx(tokenBucket(prefillNew), tokenBucket(prefillReused), bsBucket(bs), tokenBucket(perReq), ci)]
	if f > g.floor {
		return f
	}
	// Unprofiled cell: be conservative with the maximum across the
	// config (still bounded, per the paper's ≤20–30% observation).
	return g.cfgMax[ci]
}

// Observe refines the guard with a runtime slowdown measurement
// (actual / predicted-solo), keeping the per-cell maximum.
func (g *Guard) Observe(prefillNew, prefillReused, bs, totalCtx, decSM int, slowdown float64) {
	if slowdown < 1 {
		return
	}
	perReq := totalCtx
	if bs > 0 {
		perReq = totalCtx / bs
	}
	ci := g.snapIdx(decSM)
	g.store(g.idx(tokenBucket(prefillNew), tokenBucket(prefillReused), bsBucket(bs), tokenBucket(perReq), ci), ci, slowdown)
}

// clone returns an independent copy of the guard for per-run online
// refinement.
func (g *Guard) clone() *Guard {
	c := &Guard{
		flat:    make([]float64, len(g.flat)),
		cfgMax:  make([]float64, len(g.cfgMax)),
		cells:   g.cells,
		configs: g.configs,
		floor:   g.floor,
	}
	copy(c.flat, g.flat)
	copy(c.cfgMax, g.cfgMax)
	return c
}

// snapIdx maps an SM count to the index of the nearest profiled
// configuration.
func (g *Guard) snapIdx(sms int) int {
	best, bestDiff := 0, math.MaxInt
	for i, c := range g.configs {
		d := c - sms
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			best, bestDiff = i, d
		}
	}
	return best
}

// MaxFactor returns the largest slowdown in the guard (the paper reports
// ≤1.2 on A100 and ≤1.3 on H100).
func (g *Guard) MaxFactor() float64 {
	max := 1.0
	for _, f := range g.cfgMax {
		if f > max {
			max = f
		}
	}
	return max
}

// Cells returns the number of profiled grid cells.
func (g *Guard) Cells() int { return g.cells }
