// Package model describes transformer architectures and their exact
// resource costs for the prefill and decode phases.
//
// The cost functions realise Table 2 of the paper: prefill attention is
// O(n·d² + L·n·d) with KV reuse, the FFN is O(n·d²), and decode is
// O(d² + (r+1)·d) per request per layer — except here the constants are
// carried exactly (QKV/O projections, causal attention, SwiGLU FFN, GQA
// KV sizing, MoE activated experts) so that the simulator's rooflines
// reproduce the paper's saturation knees and phase asymmetry.
package model

import "fmt"

// Arch describes one LLM architecture. Dense models leave the MoE fields
// zero; MoE models set Experts/ActiveExperts/ExpertFFN and leave FFN zero.
type Arch struct {
	Name   string
	Layers int
	Hidden int

	Heads   int // query heads
	KVHeads int // key/value heads (GQA)
	HeadDim int

	FFN   int // dense FFN intermediate size (SwiGLU)
	Vocab int

	// MoE configuration (Qwen3-style).
	Experts       int
	ActiveExperts int
	ExpertFFN     int

	// BytesPerParam is the serving precision (2 for bf16/fp16).
	BytesPerParam int
}

// MoE reports whether the architecture is a mixture-of-experts model.
func (a *Arch) MoE() bool { return a.Experts > 0 }

// qkvoParams returns attention projection parameters per layer.
func (a *Arch) qkvoParams() float64 {
	h := float64(a.Hidden)
	q := h * float64(a.Heads*a.HeadDim)
	kv := 2 * h * float64(a.KVHeads*a.HeadDim)
	o := float64(a.Heads*a.HeadDim) * h
	return q + kv + o
}

// ffnParamsActive returns FFN parameters touched per token per layer
// (all of a dense FFN; only active experts for MoE).
func (a *Arch) ffnParamsActive() float64 {
	h := float64(a.Hidden)
	if a.MoE() {
		router := h * float64(a.Experts)
		return router + 3*h*float64(a.ExpertFFN)*float64(a.ActiveExperts)
	}
	return 3 * h * float64(a.FFN)
}

// ffnParamsTotal returns all FFN parameters stored per layer.
func (a *Arch) ffnParamsTotal() float64 {
	h := float64(a.Hidden)
	if a.MoE() {
		router := h * float64(a.Experts)
		return router + 3*h*float64(a.ExpertFFN)*float64(a.Experts)
	}
	return 3 * h * float64(a.FFN)
}

// Params returns the total parameter count.
func (a *Arch) Params() float64 {
	perLayer := a.qkvoParams() + a.ffnParamsTotal()
	embed := 2 * float64(a.Vocab) * float64(a.Hidden) // embedding + LM head
	return float64(a.Layers)*perLayer + embed
}

// ActiveParams returns parameters touched per token (MoE-aware).
func (a *Arch) ActiveParams() float64 {
	perLayer := a.qkvoParams() + a.ffnParamsActive()
	embed := 2 * float64(a.Vocab) * float64(a.Hidden)
	return float64(a.Layers)*perLayer + embed
}

// WeightBytes returns total model weight bytes.
func (a *Arch) WeightBytes() float64 { return a.Params() * float64(a.BytesPerParam) }

// LayerWeightBytes returns stored weight bytes for one layer.
func (a *Arch) LayerWeightBytes() float64 {
	return (a.qkvoParams() + a.ffnParamsTotal()) * float64(a.BytesPerParam)
}

// ActiveLayerWeightBytes returns the weight bytes one token's forward
// pass must stream per layer (active experts only for MoE). For decode,
// a batched iteration streams at least these bytes and at most
// LayerWeightBytes, depending on expert coverage; see decodeWeightBytes.
func (a *Arch) ActiveLayerWeightBytes() float64 {
	return (a.qkvoParams() + a.ffnParamsActive()) * float64(a.BytesPerParam)
}

// KVBytesPerTokenLayer returns KV cache bytes per token per layer.
func (a *Arch) KVBytesPerTokenLayer() float64 {
	return 2 * float64(a.KVHeads*a.HeadDim) * float64(a.BytesPerParam)
}

// KVBytesPerToken returns KV cache bytes per token across all layers.
func (a *Arch) KVBytesPerToken() float64 {
	return float64(a.Layers) * a.KVBytesPerTokenLayer()
}

// String implements fmt.Stringer.
func (a Arch) String() string {
	return fmt.Sprintf("%s(%dL, d=%d, %.1fB params)", a.Name, a.Layers, a.Hidden, a.Params()/1e9)
}

// Registry of evaluated models.

// Llama8B returns Llama-3-8B (32 layers, d=4096, GQA 8 KV heads).
func Llama8B() Arch {
	return Arch{
		Name: "Llama-8B", Layers: 32, Hidden: 4096,
		Heads: 32, KVHeads: 8, HeadDim: 128,
		FFN: 14336, Vocab: 128256, BytesPerParam: 2,
	}
}

// Llama70B returns Llama-3-70B (80 layers, d=8192, GQA 8 KV heads).
func Llama70B() Arch {
	return Arch{
		Name: "Llama-70B", Layers: 80, Hidden: 8192,
		Heads: 64, KVHeads: 8, HeadDim: 128,
		FFN: 28672, Vocab: 128256, BytesPerParam: 2,
	}
}

// Qwen235B returns Qwen3-235B-A22B (94 layers MoE, 128 experts, 8 active).
func Qwen235B() Arch {
	return Arch{
		Name: "Qwen3-235B-A22B", Layers: 94, Hidden: 4096,
		Heads: 64, KVHeads: 4, HeadDim: 128,
		Vocab: 151936, BytesPerParam: 2,
		Experts: 128, ActiveExperts: 8, ExpertFFN: 1536,
	}
}

// CodeLlama34B returns CodeLlama-34B-Instruct, the artifact-appendix model.
func CodeLlama34B() Arch {
	return Arch{
		Name: "CodeLlama-34B", Layers: 48, Hidden: 8192,
		Heads: 64, KVHeads: 8, HeadDim: 128,
		FFN: 22016, Vocab: 32016, BytesPerParam: 2,
	}
}

// Catalog returns every registry model in size order. docs/hardware.md is
// generated from this list; adding a preset here (plus a ByName case) is
// the whole recipe for new models under the roofline cost model.
func Catalog() []Arch {
	return []Arch{Llama8B(), CodeLlama34B(), Llama70B(), Qwen235B()}
}

// ByName looks up a registry model.
func ByName(name string) (Arch, bool) {
	switch name {
	case "Llama-8B", "llama-8b", "8b", "llama8b":
		return Llama8B(), true
	case "Llama-70B", "llama-70b", "70b", "llama70b":
		return Llama70B(), true
	case "Qwen3-235B-A22B", "qwen-235b", "qwen235b", "235b":
		return Qwen235B(), true
	case "CodeLlama-34B", "codellama-34b", "34b":
		return CodeLlama34B(), true
	}
	return Arch{}, false
}
