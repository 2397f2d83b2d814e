package model

import "math"

// Seq describes one sequence's position in the prefill pipeline.
type Seq struct {
	// New is the number of tokens this kernel computes for the sequence.
	New int
	// Prior is the number of new-context tokens already processed by
	// earlier chunks/layers of the same request (nonzero only under
	// chunked prefill).
	Prior int
	// Reused is the cached-context length (KV hits from earlier turns).
	Reused int
}

// Cost is a kernel resource footprint across the whole TP group.
type Cost struct {
	FLOPs     float64
	Bytes     float64
	CommBytes float64
	Tokens    int
}

// Add accumulates another cost.
func (c *Cost) Add(o Cost) {
	c.FLOPs += o.FLOPs
	c.Bytes += o.Bytes
	c.CommBytes += o.CommBytes
	c.Tokens += o.Tokens
}

// Scale multiplies all components (used for layer ↔ phase conversion).
func (c Cost) Scale(f float64) Cost {
	return Cost{
		FLOPs:     c.FLOPs * f,
		Bytes:     c.Bytes * f,
		CommBytes: c.CommBytes * f,
		Tokens:    c.Tokens,
	}
}

// activationBytesPerToken approximates intermediate activation traffic
// per token per layer (reads+writes of hidden states around the matmuls).
func (a *Arch) activationBytesPerToken() float64 {
	return 12 * float64(a.Hidden) * float64(a.BytesPerParam)
}

// ringFactor is the per-GPU ring-allreduce traffic multiplier for a
// message of m bytes: each GPU moves 2·m·(tp−1)/tp bytes.
func ringFactor(tp int) float64 {
	if tp <= 1 {
		return 0
	}
	return 2 * float64(tp-1) / float64(tp)
}

// attnFLOPs returns attention score+value FLOPs for n new query tokens
// attending causally over a context that starts at ctx tokens (reused +
// prior) and grows with each new token.
func (a *Arch) attnFLOPs(n, ctx int) float64 {
	if n <= 0 {
		return 0
	}
	nf, cf := float64(n), float64(ctx)
	perHeadDim := float64(a.Heads * a.HeadDim)
	// QK^T and PV each cost 2 FLOPs per (query, key) pair per head-dim.
	pairs := nf*cf + nf*(nf+1)/2
	return 4 * perHeadDim * pairs
}

// PrefillLayer returns the cost of running one transformer layer of
// prefill over the batch, with tensor parallel degree tp. withWeights
// controls whether layer weights are streamed (false when the layer is
// fused into an iteration that already pays for them).
func (a *Arch) PrefillLayer(seqs []Seq, tp int, withWeights bool) Cost {
	var c Cost
	kvTok := a.KVBytesPerTokenLayer()
	for _, s := range seqs {
		if s.New <= 0 {
			continue
		}
		n := float64(s.New)
		ctx := s.Reused + s.Prior
		// Projections + FFN: 2 FLOPs per parameter touched per token.
		c.FLOPs += 2 * n * (a.qkvoParams() + a.ffnParamsActive())
		c.FLOPs += a.attnFLOPs(s.New, ctx)
		// KV: write the new tokens, stream the full attended context.
		c.Bytes += n*kvTok + float64(ctx+s.New)*kvTok
		c.Bytes += n * a.activationBytesPerToken()
		c.Tokens += s.New
		// Two allreduces per layer over the token activations.
		c.CommBytes += ringFactor(tp) * 2 * n * float64(a.Hidden) * float64(a.BytesPerParam)
	}
	if withWeights && len(seqs) > 0 && c.Tokens > 0 {
		if a.MoE() {
			c.Bytes += a.moeWeightBytes(c.Tokens)
		} else {
			c.Bytes += a.LayerWeightBytes()
		}
	}
	return c
}

// PrefillPhase returns the cost of the whole prefill phase (all layers
// plus the LM head for the first generated token of each sequence).
func (a *Arch) PrefillPhase(seqs []Seq, tp int) Cost {
	layer := a.PrefillLayer(seqs, tp, true)
	c := layer.Scale(float64(a.Layers))
	c.Tokens = layer.Tokens
	// LM head: logits for one position per sequence.
	head := 2 * float64(a.Hidden) * float64(a.Vocab)
	c.FLOPs += head * float64(len(seqs))
	c.Bytes += float64(a.Vocab) * float64(a.Hidden) * float64(a.BytesPerParam)
	return c
}

// moeWeightBytes estimates expert weight traffic for a kernel processing
// tok tokens: with random routing, the expected number of distinct
// experts activated saturates at the full expert pool.
func (a *Arch) moeWeightBytes(tok int) float64 {
	if !a.MoE() {
		return a.LayerWeightBytes()
	}
	draws := float64(tok * a.ActiveExperts)
	e := float64(a.Experts)
	distinct := e * (1 - math.Exp(-draws/e))
	h := float64(a.Hidden)
	expert := 3 * h * float64(a.ExpertFFN) * float64(a.BytesPerParam)
	router := h * e * float64(a.BytesPerParam)
	attn := a.qkvoParams() * float64(a.BytesPerParam)
	return attn + router + distinct*expert
}

// DecodeIterTotals returns the cost of one decode iteration (all layers,
// one token per request) over a batch of bs requests whose attended
// context lengths sum to totalCtx. The cost depends on the batch only
// through those two totals. It is DecodeTable(tp).Iter; callers that
// price many iterations keep the table.
func (a *Arch) DecodeIterTotals(totalCtx, bs, tp int) Cost {
	t := a.DecodeTable(tp)
	return t.Iter(totalCtx, bs)
}

// DecodeTable holds the constants of one architecture's decode-iteration
// cost at one tensor-parallel degree, so that pricing an iteration takes
// a few multiply-adds. Build it with Arch.DecodeTable.
type DecodeTable struct {
	arch     *Arch
	tp       int
	layers   float64
	params   float64 // qkvo + active FFN parameters per layer
	attn     float64 // 4·heads·headDim: attention FLOPs per attended token
	kvTok    float64 // KV bytes per token per layer
	act      float64 // activation bytes per token per layer
	weights  float64 // dense layer weight bytes
	ring2    float64 // 2·ringFactor(tp)
	hidden   float64
	bpp      float64 // bytes per parameter
	vocab    float64
	headRead float64 // LM-head weight bytes
}

// DecodeTable returns the decode-cost table of a at tensor-parallel
// degree tp. The table keeps a, for the MoE expert weights, which depend
// on the batch, and for fused chunks, so a must not change while the
// table is in use.
func (a *Arch) DecodeTable(tp int) DecodeTable {
	t := DecodeTable{
		arch:     a,
		tp:       tp,
		layers:   float64(a.Layers),
		params:   a.qkvoParams() + a.ffnParamsActive(),
		attn:     4 * float64(a.Heads*a.HeadDim),
		kvTok:    a.KVBytesPerTokenLayer(),
		act:      a.activationBytesPerToken(),
		ring2:    ringFactor(tp) * 2,
		hidden:   float64(a.Hidden),
		bpp:      float64(a.BytesPerParam),
		vocab:    float64(a.Vocab),
		headRead: float64(a.Vocab) * float64(a.Hidden) * float64(a.BytesPerParam),
	}
	if !a.MoE() {
		t.weights = a.LayerWeightBytes()
	}
	return t
}

// For reports whether t is the table of a (the same *Arch) at tp.
func (t *DecodeTable) For(a *Arch, tp int) bool { return t.arch == a && t.tp == tp }

// Iter returns the cost of one decode iteration (all layers, one token
// per request) over a batch of bs requests whose attended context lengths
// sum to totalCtx.
func (t *DecodeTable) Iter(totalCtx, bs int) Cost {
	var c Cost
	if bs <= 0 {
		return c
	}
	bsf := float64(bs)
	ctxf := float64(totalCtx)
	perLayerFLOPs := 2*bsf*t.params + t.attn*(ctxf+bsf)
	weights := t.weights
	if t.arch.MoE() {
		weights = t.arch.moeWeightBytes(bs)
	}
	perLayerBytes := weights +
		(ctxf+bsf)*t.kvTok + // stream cached KV + the new token's
		bsf*t.kvTok + // write new KV
		bsf*t.act
	perLayerComm := t.ring2 * bsf * t.hidden * t.bpp

	c.FLOPs = t.layers * perLayerFLOPs
	c.Bytes = t.layers * perLayerBytes
	c.CommBytes = t.layers * perLayerComm
	c.Tokens = bs
	// LM head for every request in the batch.
	c.FLOPs += 2 * bsf * t.hidden * t.vocab
	c.Bytes += t.headRead
	return c
}

// Fused returns the cost of a chunked-prefill iteration that fuses a
// prefill chunk with a decode step over bs requests attending totalCtx
// tokens in all (SARATHI-style). Weights are streamed once; the chunk
// re-reads the KV of all previously processed tokens, which is the
// quadratic overhead the paper highlights.
func (t *DecodeTable) Fused(chunk Seq, totalCtx, bs int) Cost {
	c := t.Iter(totalCtx, bs)
	if chunk.New > 0 {
		a := t.arch
		// Chunk layers without double-counting weights.
		cl := a.PrefillLayer([]Seq{chunk}, t.tp, false)
		pc := cl.Scale(float64(a.Layers))
		pc.Tokens = cl.Tokens
		if bs == 0 {
			// Nothing fused: the chunk pays for weights itself.
			if a.MoE() {
				pc.Bytes += float64(a.Layers) * a.moeWeightBytes(chunk.New)
			} else {
				pc.Bytes += float64(a.Layers) * a.LayerWeightBytes()
			}
		}
		c.Add(pc)
		c.Tokens = chunk.New + bs
	}
	return c
}

// KVPoolTokens returns how many KV tokens fit in a serving instance's
// pool: aggregate HBM minus weights minus a runtime reserve fraction
// (activations, CUDA graphs, allocator slack).
func (a *Arch) KVPoolTokens(totalMemBytes int64, reserveFrac float64) int64 {
	avail := float64(totalMemBytes)*(1-reserveFrac) - a.WeightBytes()
	if avail <= 0 {
		return 0
	}
	return int64(avail / a.KVBytesPerToken())
}
