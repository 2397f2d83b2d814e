package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
)

func near(got, want, tol float64) bool {
	if want == 0 {
		return math.Abs(got) < tol
	}
	return math.Abs(got-want)/math.Abs(want) <= tol
}

func TestParamCounts(t *testing.T) {
	cases := []struct {
		arch Arch
		want float64 // nominal parameter count
		tol  float64
	}{
		{Llama8B(), 8.0e9, 0.05},
		{Llama70B(), 70.6e9, 0.05},
		{CodeLlama34B(), 33.7e9, 0.06},
		{Qwen235B(), 235e9, 0.06},
	}
	for _, c := range cases {
		if got := c.arch.Params(); !near(got, c.want, c.tol) {
			t.Errorf("%s Params = %.2fB, want ≈%.1fB", c.arch.Name, got/1e9, c.want/1e9)
		}
	}
}

func TestQwenActiveParams(t *testing.T) {
	q := Qwen235B()
	if got := q.ActiveParams(); !near(got, 22e9, 0.15) {
		t.Errorf("Qwen active params = %.2fB, want ≈22B", got/1e9)
	}
	if !q.MoE() {
		t.Error("Qwen should be MoE")
	}
	if l := Llama8B(); l.MoE() {
		t.Error("Llama-8B should not be MoE")
	}
}

func TestKVBytesPerToken(t *testing.T) {
	l70, l8, q := Llama70B(), Llama8B(), Qwen235B()
	// Llama-70B: 80 layers × 2 × 8 heads × 128 dim × 2 bytes = 320 KiB.
	if got := l70.KVBytesPerToken(); got != 80*4096 {
		t.Errorf("Llama-70B KV/token = %.0f, want %d", got, 80*4096)
	}
	// Llama-8B: 32 × 4096 = 128 KiB.
	if got := l8.KVBytesPerToken(); got != 32*4096 {
		t.Errorf("Llama-8B KV/token = %.0f, want %d", got, 32*4096)
	}
	// Qwen: 4 KV heads → 94 × 2048.
	if got := q.KVBytesPerToken(); got != 94*2048 {
		t.Errorf("Qwen KV/token = %.0f, want %d", got, 94*2048)
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"Llama-8B", "llama-70b", "qwen-235b", "34b"} {
		if _, ok := ByName(n); !ok {
			t.Errorf("ByName(%q) missing", n)
		}
	}
	if _, ok := ByName("gpt-5"); ok {
		t.Error("ByName(gpt-5) unexpectedly found")
	}
}

// Table 2, prefill: FLOPs grow ~n² for the attention term and ~n·r in
// the cross term.
func TestPrefillScaling(t *testing.T) {
	a := Llama70B()
	base := a.PrefillLayer([]Seq{{New: 1024}}, 8, true)
	dbl := a.PrefillLayer([]Seq{{New: 2048}}, 8, true)
	// Projection-dominated regime: between linear and quadratic.
	if dbl.FLOPs < base.FLOPs*2 || dbl.FLOPs > base.FLOPs*4.2 {
		t.Errorf("prefill FLOPs 2× tokens: %.3g → %.3g, outside [2×, 4.2×]", base.FLOPs, dbl.FLOPs)
	}

	// Reuse adds the L·n·d cross term only.
	reuse := a.PrefillLayer([]Seq{{New: 1024, Reused: 65536}}, 8, true)
	extra := reuse.FLOPs - base.FLOPs
	want := 4 * float64(a.Heads*a.HeadDim) * 1024 * 65536
	if !near(extra, want, 0.01) {
		t.Errorf("reused-context FLOPs delta = %.3g, want %.3g", extra, want)
	}
	// Reuse also adds KV streaming bytes.
	if reuse.Bytes <= base.Bytes {
		t.Error("reused context should add KV read bytes")
	}
}

// Table 2, decode: FLOPs are O(d²+(r+1)d) per request; bytes dominated by
// weights at small batch and by KV at long context.
func TestDecodeScaling(t *testing.T) {
	a := Llama70B()
	short := a.DecodeIterTotals(32*1024, 32, 8)
	long := a.DecodeIterTotals(32*65536, 32, 8)
	if long.FLOPs <= short.FLOPs {
		t.Error("decode FLOPs must grow with context")
	}
	// KV bytes delta = 64× more context.
	dB := long.Bytes - short.Bytes
	wantB := float64(65536-1024) * 32 * a.KVBytesPerTokenLayer() * float64(a.Layers)
	if !near(dB, wantB, 0.01) {
		t.Errorf("decode KV bytes delta = %.3g, want %.3g", dB, wantB)
	}
	// At bs=1, ctx=1K the iteration is weight-dominated.
	one := a.DecodeIterTotals(1*1024, 1, 8)
	if one.Bytes < a.WeightBytes()*0.9 {
		t.Errorf("decode bytes %.3g should be ≥ ~weights %.3g", one.Bytes, a.WeightBytes())
	}
}

// fusedIter prices a fused chunked-prefill iteration through a's decode
// table at tp.
func fusedIter(a Arch, chunk Seq, totalCtx, bs, tp int) Cost {
	t := a.DecodeTable(tp)
	return t.Fused(chunk, totalCtx, bs)
}

func TestDecodeEmptyBatch(t *testing.T) {
	a := Llama8B()
	c := a.DecodeIterTotals(0, 0, 8)
	if c.FLOPs != 0 || c.Bytes != 0 {
		t.Errorf("empty decode iter = %+v, want zero", c)
	}
}

// Fused iteration streams weights once: cheaper than chunk + decode
// paying weights separately.
func TestFusedChunkSavesWeights(t *testing.T) {
	a := Llama70B()
	fused := fusedIter(a, Seq{New: 480, Reused: 1024}, 32*1024, 32, 8)
	separate := a.DecodeIterTotals(32*1024, 32, 8)
	chunkAlone := a.PrefillLayer([]Seq{{New: 480, Reused: 1024}}, 8, true).Scale(float64(a.Layers))
	if fused.Bytes >= separate.Bytes+chunkAlone.Bytes {
		t.Errorf("fused bytes %.3g not cheaper than separate %.3g",
			fused.Bytes, separate.Bytes+chunkAlone.Bytes)
	}
	if fused.Tokens != 480+32 {
		t.Errorf("fused tokens = %d, want 512", fused.Tokens)
	}
}

// Chunked prefill re-reads prior KV: later chunks cost more bytes.
func TestChunkKVReRead(t *testing.T) {
	a := Llama70B()
	first := fusedIter(a, Seq{New: 512, Prior: 0}, 0, 0, 8)
	later := fusedIter(a, Seq{New: 512, Prior: 16384}, 0, 0, 8)
	delta := later.Bytes - first.Bytes
	want := 16384 * a.KVBytesPerTokenLayer() * float64(a.Layers)
	if !near(delta, want, 0.01) {
		t.Errorf("chunk re-read bytes delta = %.3g, want %.3g", delta, want)
	}
}

func TestPrefillPhaseVsLayer(t *testing.T) {
	a := Llama8B()
	seqs := []Seq{{New: 1000}, {New: 500, Reused: 2000}}
	layer := a.PrefillLayer(seqs, 4, true)
	phase := a.PrefillPhase(seqs, 4)
	if phase.FLOPs < layer.FLOPs*float64(a.Layers) {
		t.Error("phase FLOPs must cover all layers plus LM head")
	}
	if phase.Tokens != 1500 {
		t.Errorf("phase tokens = %d, want 1500", phase.Tokens)
	}
}

func TestCommBytes(t *testing.T) {
	a := Llama70B()
	solo := a.DecodeIterTotals(8*1024, 8, 1)
	if solo.CommBytes != 0 {
		t.Errorf("TP=1 comm bytes = %.3g, want 0", solo.CommBytes)
	}
	tp8 := a.DecodeIterTotals(8*1024, 8, 8)
	if tp8.CommBytes <= 0 {
		t.Error("TP=8 must have collective traffic")
	}
}

func TestKVPoolTokens(t *testing.T) {
	a := Llama70B()
	total := int64(8) * (80 << 30) // 8×A100
	got := a.KVPoolTokens(total, 0.10)
	// (640GiB×0.9 − ~141GB) / 320KiB ≈ 1.3M tokens.
	if got < 1_000_000 || got > 1_800_000 {
		t.Errorf("70B pool tokens on 8×A100 = %d, want ~1.3M", got)
	}
	// Model bigger than memory → zero.
	if got := a.KVPoolTokens(100<<30, 0.1); got != 0 {
		t.Errorf("pool tokens with insufficient memory = %d, want 0", got)
	}
}

func TestMoEWeightTrafficSaturates(t *testing.T) {
	q := Qwen235B()
	few := q.moeWeightBytes(1)
	many := q.moeWeightBytes(100000)
	if few >= many {
		t.Error("MoE weight traffic should grow with tokens")
	}
	if many > q.LayerWeightBytes()*1.001 {
		t.Errorf("MoE traffic %.3g exceeds stored layer weights %.3g", many, q.LayerWeightBytes())
	}
	// One token touches at least its active experts.
	h := float64(q.Hidden)
	minBytes := (q.qkvoParams() + 3*h*float64(q.ExpertFFN)*float64(q.ActiveExperts)) * 2
	if few < minBytes*0.5 {
		t.Errorf("single-token MoE traffic %.3g too small (min ≈ %.3g)", few, minBytes)
	}
}

// Property: costs are monotone in every workload dimension.
func TestPropertyCostMonotone(t *testing.T) {
	a := Llama8B()
	f := func(n1, n2, r1, r2 uint16) bool {
		lo := Seq{New: int(n1%4096) + 1, Reused: int(r1) % 65536}
		hi := Seq{New: lo.New + int(n2%4096), Reused: lo.Reused + int(r2)%65536}
		cl := a.PrefillLayer([]Seq{lo}, 8, true)
		ch := a.PrefillLayer([]Seq{hi}, 8, true)
		return ch.FLOPs >= cl.FLOPs && ch.Bytes >= cl.Bytes && ch.CommBytes >= cl.CommBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a decode iteration's cost equals the sum of its per-request
// marginal contributions plus the shared weight traffic (additivity).
func TestPropertyDecodeAdditive(t *testing.T) {
	a := Llama8B()
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		batch := make([]int, len(raw))
		total := 0
		for i, v := range raw {
			batch[i] = int(v % 32768)
			total += batch[i]
		}
		whole := a.DecodeIterTotals(total, len(batch), 8)
		// Rebuild: shared weights once + per-request KV/proj terms.
		kvTok := a.KVBytesPerTokenLayer() * float64(a.Layers)
		var kv float64
		for _, r := range batch {
			kv += float64(r+2) * kvTok // stream r+1, write 1
		}
		wantBytes := a.LayerWeightBytes()*float64(a.Layers) + kv +
			float64(len(batch))*a.activationBytesPerToken()*float64(a.Layers) +
			float64(a.Vocab)*float64(a.Hidden)*2
		return near(whole.Bytes, wantBytes, 0.001)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// decodeCostDigest is the sha256 of TestDecodeCostDigest's grid.
const decodeCostDigest = "bb80fe879141c1dc9ca9cbf1b017845c005ae3d8e6482e7933dbe7fb7d1632e6"

// TestDecodeCostDigest hashes the float bits of DecodeIterTotals and
// DecodeTable.Fused (without a chunk, with a one-token one and with a long
// one) for every catalog arch, MoE included, over TP ∈ {1, 2, 4, 8},
// bs ∈ {0, 1, 2, 7, 256} and ctx ∈ {0, 1, 4096, 123000}. Any change to
// the decode cost formulas' arithmetic, down to the association of one
// product, moves it.
func TestDecodeCostDigest(t *testing.T) {
	h := sha256.New()
	put := func(c Cost) {
		var b [32]byte
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(c.FLOPs))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(c.Bytes))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(c.CommBytes))
		binary.LittleEndian.PutUint64(b[24:], uint64(c.Tokens))
		h.Write(b[:])
	}
	chunks := []Seq{{}, {New: 1}, {New: 512, Prior: 1024, Reused: 4096}}
	for _, a := range Catalog() {
		for _, tp := range []int{1, 2, 4, 8} {
			for _, bs := range []int{0, 1, 2, 7, 256} {
				for _, ctx := range []int{0, 1, 4096, 123000} {
					put(a.DecodeIterTotals(ctx, bs, tp))
					for _, ch := range chunks {
						put(fusedIter(a, ch, ctx, bs, tp))
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != decodeCostDigest {
		t.Errorf("decode cost digest = %s, want %s", got, decodeCostDigest)
	}
}

func BenchmarkDecodeIterCost(b *testing.B) {
	a := Llama70B()
	for b.Loop() {
		a.DecodeIterTotals(64*8192, 64, 8)
	}
}

func BenchmarkPrefillLayerCost(b *testing.B) {
	a := Llama70B()
	seqs := []Seq{{New: 2048, Reused: 8192}, {New: 512}}
	for b.Loop() {
		a.PrefillLayer(seqs, 8, true)
	}
}
