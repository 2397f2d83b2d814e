package estimator

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"muxwise/internal/gpu"
	"muxwise/internal/model"
)

func TestFitOLSExact(t *testing.T) {
	// y = 2a + 3b + 5.
	var x [][]float64
	var y []float64
	for a := 0.0; a < 5; a++ {
		for b := 0.0; b < 5; b++ {
			x = append(x, []float64{a, b, 1})
			y = append(y, 2*a+3*b+5)
		}
	}
	th := FitOLS(x, y)
	want := []float64{2, 3, 5}
	for i := range want {
		if math.Abs(th[i]-want[i]) > 1e-6 {
			t.Fatalf("theta = %v, want %v", th, want)
		}
	}
}

func TestFitOLSDegenerate(t *testing.T) {
	if th := FitOLS(nil, nil); th != nil {
		t.Fatal("empty fit should return nil")
	}
	if th := FitOLS([][]float64{{1, 2}}, []float64{1, 2}); th != nil {
		t.Fatal("mismatched rows should return nil")
	}
}

// Property: OLS recovers random linear models from noiseless samples.
func TestPropertyOLSRecovers(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	f := func(c0, c1, c2 int8) bool {
		want := []float64{float64(c0), float64(c1), float64(c2)}
		var x [][]float64
		var y []float64
		for i := 0; i < 30; i++ {
			row := []float64{rng.Float64() * 100, rng.Float64() * 10, 1}
			x = append(x, row)
			y = append(y, dot(row, want))
		}
		th := FitOLS(x, y)
		if th == nil {
			return false
		}
		for i := range want {
			if math.Abs(th[i]-want[i]) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSolve3x3(t *testing.T) {
	a := [][]float64{{2, 1, 0}, {1, 3, 1}, {0, 1, 2}}
	b := []float64{5, 10, 7}
	x := solve(a, b)
	// Verify by substitution with fresh copies (solve mutates in place).
	a2 := [][]float64{{2, 1, 0}, {1, 3, 1}, {0, 1, 2}}
	b2 := []float64{5, 10, 7}
	for i := range a2 {
		var s float64
		for j := range x {
			s += a2[i][j] * x[j]
		}
		if math.Abs(s-b2[i]) > 1e-9 {
			t.Fatalf("solve residual at row %d: %v", i, s-b2[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if x := solve(a, []float64{1, 2}); x != nil {
		t.Fatal("singular system should return nil")
	}
}

// floatTokenBucket and floatBSBucket are the logarithm formulas the
// integer bucket thresholds replace.
func floatTokenBucket(tok int) int {
	if tok <= 0 {
		return 0
	}
	return min(max(int(math.Round(math.Log(float64(tok)/2048)/math.Log(4))), 0), 3)
}

func floatBSBucket(bs int) int {
	if bs <= 1 {
		return 0
	}
	return min(int(math.Round(math.Log2(float64(bs)))), 8)
}

func TestTokenBuckets(t *testing.T) {
	cases := []struct{ tok, want int }{
		{0, 0}, {1000, 0}, {2048, 0}, {4095, 0}, {4096, 1}, {8192, 1}, {16383, 1}, {16384, 2},
		{32768, 2}, {65535, 2}, {65536, 3}, {131072, 3}, {1 << 22, 3},
	}
	for _, c := range cases {
		if got := tokenBucket(c.tok); got != c.want {
			t.Errorf("tokenBucket(%d) = %d, want %d", c.tok, got, c.want)
		}
	}
	if bsBucket(1) != 0 || bsBucket(64) != 6 || bsBucket(100000) != 8 {
		t.Error("bsBucket mapping wrong")
	}

	// The integer thresholds agree with the logarithm formulas on every
	// count up to well past the largest bucket, and at the far end of int.
	for tok := -2; tok <= 1<<22; tok++ {
		if got, want := tokenBucket(tok), floatTokenBucket(tok); got != want {
			t.Fatalf("tokenBucket(%d) = %d, formula gives %d", tok, got, want)
		}
	}
	for bs := -2; bs <= 1<<16; bs++ {
		if got, want := bsBucket(bs), floatBSBucket(bs); got != want {
			t.Fatalf("bsBucket(%d) = %d, formula gives %d", bs, got, want)
		}
	}
	var huge []int
	for d := range 4 {
		huge = append(huge, math.MaxInt-d, math.MaxInt/2-d, math.MaxInt/2+d)
	}
	for _, n := range huge {
		if got, want := tokenBucket(n), floatTokenBucket(n); got != want {
			t.Errorf("tokenBucket(%d) = %d, formula gives %d", n, got, want)
		}
		if got, want := bsBucket(n), floatBSBucket(n); got != want {
			t.Errorf("bsBucket(%d) = %d, formula gives %d", n, got, want)
		}
	}
}

// The headline accuracy claim: solo-run prediction within ~10% max
// deviation (paper: 8.16% prefill, 8.84% decode).
func TestSoloPredictorAccuracy(t *testing.T) {
	e := New(gpu.A100(), 8, model.Llama70B())
	pre, dec := e.MaxDeviation()
	t.Logf("max deviation: prefill %.2f%%, decode %.2f%%", pre*100, dec*100)
	if pre > 0.12 {
		t.Errorf("prefill max deviation %.1f%% exceeds 12%%", pre*100)
	}
	if dec > 0.12 {
		t.Errorf("decode max deviation %.1f%% exceeds 12%%", dec*100)
	}
}

func TestEstimatorCached(t *testing.T) {
	a := New(gpu.A100(), 8, model.Llama8B())
	b := New(gpu.A100(), 8, model.Llama8B())
	if a != b {
		t.Fatal("estimator not cached per (spec, tp, arch)")
	}
}

func TestDecodePredictionMonotone(t *testing.T) {
	e := New(gpu.A100(), 8, model.Llama8B())
	small := e.DecodeSolo(32*1024, 32, 92)
	big := e.DecodeSolo(32*65536, 32, 92)
	if big <= small {
		t.Fatalf("decode latency must grow with context: %v vs %v", small, big)
	}
	starved := e.DecodeSolo(32*1024, 32, 12)
	if starved <= small {
		t.Fatalf("decode on 12 SMs (%v) must be slower than on 92 (%v)", starved, small)
	}
}

func TestPrefillPredictionMonotone(t *testing.T) {
	e := New(gpu.A100(), 8, model.Llama8B())
	small := e.PrefillPhase([]model.Seq{{New: 1024}}, 92)
	big := e.PrefillPhase([]model.Seq{{New: 8192}}, 92)
	if big <= small {
		t.Fatalf("prefill latency must grow with input: %v vs %v", small, big)
	}
}

// Figure 11's premise: the guard's slowdown factors are bounded (~≤1.3)
// and nontrivial somewhere in the grid.
func TestGuardBounds(t *testing.T) {
	e := New(gpu.A100(), 8, model.Llama70B())
	g := e.Guard()
	if g.Cells() == 0 {
		t.Fatal("guard has no profiled cells")
	}
	max := g.MaxFactor()
	t.Logf("guard: %d cells, max factor %.3f", g.Cells(), max)
	if max < 1.005 {
		t.Errorf("max slowdown %.3f suspiciously small — contention not exercised", max)
	}
	if max > 1.6 {
		t.Errorf("max slowdown %.3f exceeds the bounded-contention premise", max)
	}
}

func TestGuardFactorQueries(t *testing.T) {
	e := New(gpu.A100(), 8, model.Llama70B())
	g := e.Guard()
	f := g.Factor(8192, 8192, 32, 32*2048, 44)
	if f < 1 {
		t.Fatalf("factor %v below 1", f)
	}
	// Snapping: unprofiled SM counts map to the nearest config.
	f2 := g.Factor(8192, 8192, 32, 32*2048, 45)
	if f2 != f {
		t.Fatalf("snapped factor %v != profiled %v", f2, f)
	}
}

func TestGuardObserve(t *testing.T) {
	e := New(gpu.A100(), 8, model.Llama70B())
	g := e.Guard()
	before := g.Factor(2048, 2048, 4, 4*2048, 44)
	g.Observe(2048, 2048, 4, 4*2048, 44, before+0.5)
	after := g.Factor(2048, 2048, 4, 4*2048, 44)
	if after < before+0.5-1e-9 {
		t.Fatalf("Observe did not raise the cell: %v → %v", before, after)
	}
	// Observations below 1 are ignored.
	g.Observe(2048, 2048, 4, 4*2048, 44, 0.5)
	if g.Factor(2048, 2048, 4, 4*2048, 44) < after {
		t.Fatal("sub-1 observation lowered the guard")
	}
}

func TestDecodeWorstAboveSolo(t *testing.T) {
	e := New(gpu.A100(), 8, model.Llama70B())
	solo := e.DecodeSolo(32*8192, 32, 44)
	worst := e.DecodeWorst(32*8192, 32, 44, 8192, 32768)
	if worst < solo {
		t.Fatalf("worst-case %v below solo %v", worst, solo)
	}
}

func BenchmarkEstimatorQueries(b *testing.B) {
	e := New(gpu.A100(), 8, model.Llama8B())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DecodeWorst(32*4096, 32, 44, 2048, 8192)
	}
}

// nearestProfiled is the nearest-configuration rule the SM-indexed
// tables replace: the profiled size closest to sms, equal distances
// going to the smaller size.
func nearestProfiled(configs []int, sms int) int {
	best, bestDiff := 0, math.MaxInt
	for _, k := range configs {
		d := k - sms
		if d < 0 {
			d = -d
		}
		if d < bestDiff || (d == bestDiff && k < best) {
			best, bestDiff = k, d
		}
	}
	return best
}

// The SM-indexed tables pick, for every SM count a caller can pass
// (including counts outside [0, SMs]), the model of the configuration
// the nearest-configuration rule picks.
func TestSnapTableMatchesNearestConfig(t *testing.T) {
	for _, spec := range []gpu.Spec{gpu.A100(), gpu.H100(), gpu.B200()} {
		e := &Estimator{Spec: spec}
		configs := e.Configs()
		// Tag each configuration's model with its SM count.
		fits := make([]planes, len(configs))
		for i, c := range configs {
			fits[i] = planes{mem: []float64{float64(c)}}
		}
		tab := snapTable(configs, fits, spec.SMs)
		if len(tab) != spec.SMs+1 {
			t.Fatalf("%s: table length %d, want %d", spec.Name, len(tab), spec.SMs+1)
		}
		for sms := -1; sms <= spec.SMs+1; sms++ {
			got := int(lookup(tab, sms).mem[0])
			if want := nearestProfiled(configs, sms); got != want {
				t.Fatalf("%s: %d SMs snap to %d, want %d", spec.Name, sms, got, want)
			}
		}
	}
}
