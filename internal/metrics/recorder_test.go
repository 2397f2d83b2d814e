package metrics

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"muxwise/internal/sim"
)

// Regression: Diagnose walked every record slot, aborted ones included,
// and dereferenced a missing record after Abort.
func TestDiagnoseSkipsAborted(t *testing.T) {
	r := NewRecorder()
	for id := 1; id <= 3; id++ {
		r.Arrive(id, 0, 10)
	}
	r.Abort(1)
	b := r.Diagnose(SLO{TTFT: 1, TBT: 1}, DiagnoseAux{})
	if b.Misses != 2 || b.Unfinished != 2 {
		t.Fatalf("breakdown %+v, want 2 unfinished misses", b)
	}
}

// An aborted request's samples never count for a later record under the
// same ID on the same recorder, whether its tokens arrive by ID or
// through a slot cached before the abort.
func TestReArrivalAfterAbortStartsClean(t *testing.T) {
	r := NewRecorder()
	var slot Slot
	r.Arrive(1, 0, 10)
	r.Arrive(2, 0, 10)
	r.TokenSlot(&slot, 1, ms(10))
	r.TokenSlot(&slot, 1, ms(510)) // a 500ms gap: a TBT miss
	r.Token(2, ms(10))
	r.Token(2, ms(20))
	r.Finish(2, ms(20))
	r.Abort(1)
	r.Arrive(1, ms(600), 10)
	r.TokenSlot(&slot, 1, ms(610))
	r.TokenSlot(&slot, 1, ms(620))
	r.Finish(1, ms(620))

	slo := SLO{TBT: 50 * sim.Millisecond}
	if got := r.WithinSLO(slo); got != 2 {
		t.Fatalf("WithinSLO = %d, want 2", got)
	}
	if b := r.Diagnose(slo, DiagnoseAux{}); b.Misses != 0 {
		t.Fatalf("Diagnose = %+v, want no misses", b)
	}
	if got := r.TBTAttainment(slo.TBT); got != 1 {
		t.Fatalf("TBTAttainment = %v, want 1", got)
	}
	if s := r.Summarize("x", sim.Second); s.TBT.N != 2 || !near(s.TBT.Max, 0.01) || s.DecodeTokens != 4 {
		t.Fatalf("summary TBT %+v decode %d, want 2 gaps of 10ms and 4 tokens", s.TBT, s.DecodeTokens)
	}
	if w := r.Rollup([]sim.Time{0, sim.Second}); w[0].TBT.N != 2 {
		t.Fatalf("rollup TBT N = %d, want 2", w[0].TBT.N)
	}
	if m := Merge(r); m.WithinSLO(slo) != 2 || len(m.TBTSamples()) != 2 {
		t.Fatalf("merged: within %d, samples %d, want 2 and 2", m.WithinSLO(slo), len(m.TBTSamples()))
	}
}

// Aborts compact lazily: dead records and samples stay until they
// outnumber the live ones, then go in one pass that renumbers the
// survivors' slots. A slot cached before the compaction still reaches
// its own request, and the renumbered samples stay attributed to theirs.
func TestAbortCompactsLazily(t *testing.T) {
	r := NewRecorder()
	slots := make([]Slot, 8)
	for id := range 8 {
		r.Arrive(id, 0, 10)
		for k := range 3 {
			r.TokenSlot(&slots[id], id, sim.Time(id)*sim.Second+sim.Time(k)*10*sim.Millisecond)
		}
	}
	for id := range 4 {
		r.Abort(id)
	}
	if len(r.recs) != 8 || r.nTBT != 16 {
		t.Fatalf("compacted early: %d records, %d samples", len(r.recs), r.nTBT)
	}
	r.Abort(4) // 5 dead records + 10 dead samples now outnumber 3 + 6 live
	if len(r.recs) != 3 || r.nTBT != 6 || r.deadTBT != 0 {
		t.Fatalf("after compaction: %d records, %d samples, %d dead", len(r.recs), r.nTBT, r.deadTBT)
	}
	if got := r.IDs(); !slices.Equal(got, []int{5, 6, 7}) {
		t.Fatalf("IDs = %v, want [5 6 7]", got)
	}
	// Slot 7 is stale now; the token must still land on request 7.
	r.TokenSlot(&slots[7], 7, 7*sim.Second+100*sim.Millisecond) // an 80ms gap
	if slots[7] != 2 {
		t.Fatalf("slot not refreshed: %d, want 2", slots[7])
	}
	r.Finish(6, 7*sim.Second)
	r.Finish(7, 8*sim.Second)
	r.Abort(5) // leaves a dead sample behind the renumbered ones
	if got := len(r.TBTSamples()); got != 5 {
		t.Fatalf("TBT samples = %d, want 5", got)
	}
	if got := r.WithinSLO(SLO{TBT: 50 * sim.Millisecond}); got != 1 {
		t.Fatalf("WithinSLO = %d, want 1 (request 7 broke the target)", got)
	}
	if s := r.Summarize("x", 10*sim.Second); !near(s.TBT.Max, 0.08) || s.TBT.N != 5 {
		t.Fatalf("TBT %+v, want 5 gaps up to 80ms", s.TBT)
	}
}

func sameBits(a, b Quantiles) bool {
	return a.N == b.N &&
		math.Float64bits(a.Avg) == math.Float64bits(b.Avg) &&
		math.Float64bits(a.P50) == math.Float64bits(b.P50) &&
		math.Float64bits(a.P90) == math.Float64bits(b.P90) &&
		math.Float64bits(a.P99) == math.Float64bits(b.P99) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

// Property: sorting nanosecond gaps returns Quantiles bitwise equal to
// converting to seconds first and sorting with sort.Float64s, for every
// input shape a recorder can hold.
func TestTimeQuantilesMatchFloatSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	shapes := []struct {
		name string
		gen  func() sim.Time
	}{
		{"ms gaps", func() sim.Time { return sim.Time(rng.Int64N(int64(200 * sim.Millisecond))) }},
		{"zeros", func() sim.Time { return sim.Time(rng.IntN(2) * rng.IntN(1000)) }},
		{"duplicates", func() sim.Time { return sim.Time(rng.IntN(4)) * 20 * sim.Millisecond }},
		{"above 2^33", func() sim.Time { return 1<<33 + sim.Time(rng.Int64N(1<<40)) }},
		{"full range", func() sim.Time { return sim.Time(rng.Int64N(math.MaxInt64)) }},
		{"negative", func() sim.Time { return sim.Time(rng.Int64N(2000)) - 1000 }},
	}
	for _, sh := range shapes {
		for _, n := range []int{0, 1, 2, 255, 256, 257, 1000, 5000} {
			ts := make([]sim.Time, n)
			secs := make([]float64, n)
			for i := range ts {
				ts[i] = sh.gen()
				secs[i] = ts[i].Seconds()
			}
			if got, want := timeQuantiles(ts), quantiles(secs); !sameBits(got, want) {
				t.Fatalf("%s n=%d: int sort %+v, float sort %+v", sh.name, n, got, want)
			}
			if !slices.IsSorted(ts) {
				t.Fatalf("%s n=%d: not sorted", sh.name, n)
			}
		}
	}
}

// Summaries sort copies: repeated Summarize and Rollup calls on one
// recorder return identical results and leave the TBT log in emission
// order.
func TestSummarizeRepeatable(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	r := NewRecorder()
	for id := range 20 {
		at := sim.Time(rng.Int64N(int64(sim.Second)))
		r.Arrive(id, at, 100)
		for range 50 {
			at += sim.Time(rng.Int64N(int64(100 * sim.Millisecond)))
			r.Token(id, at)
		}
		r.Finish(id, at)
	}
	log := r.TBTSamples()
	bounds := []sim.Time{0, 2 * sim.Second, 10 * sim.Second}
	a, wa := r.Summarize("x", 10*sim.Second), r.Rollup(bounds)
	b, wb := r.Summarize("x", 10*sim.Second), r.Rollup(bounds)
	if a != b || !slices.Equal(wa, wb) {
		t.Fatalf("repeated summaries differ:\n%+v\n%+v", a, b)
	}
	if !slices.Equal(log, r.TBTSamples()) {
		t.Fatal("summarising reordered the TBT log")
	}
}

// BenchmarkRecorderToken is the per-token cost on the decode path: 64
// requests in flight emit tokens 20 ms apart, through cached slots as
// Batch.StepInto does ("slot") or by request ID ("id"). ns/op and B/op
// are per token. A fresh recorder every 2^16 tokens bounds memory and
// charges the log's growth to the tokens that caused it.
func BenchmarkRecorderToken(b *testing.B) {
	const inflight, perRecorder = 64, 1 << 16
	for _, bySlot := range []bool{true, false} {
		name := "id"
		if bySlot {
			name = "slot"
		}
		b.Run(name, func(b *testing.B) {
			var r *Recorder
			slots := make([]Slot, inflight)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				k := i % perRecorder
				if k == 0 {
					r = NewRecorder()
					clear(slots)
					for id := range inflight {
						r.Arrive(id, 0, 100)
					}
				}
				id, at := k%inflight, sim.Time(k/inflight)*20*sim.Millisecond
				if bySlot {
					r.TokenSlot(&slots[id], id, at)
				} else {
					r.Token(id, at)
				}
			}
		})
	}
}

// BenchmarkSummarize is the end-of-run summary over 200k TBT gaps: 1000
// requests of 200 gaps each, 5-55 ms apart.
func BenchmarkSummarize(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	r := NewRecorder()
	for id := range 1000 {
		at := sim.Time(rng.Int64N(int64(60 * sim.Second)))
		r.Arrive(id, at, 512)
		for range 201 {
			at += 5*sim.Millisecond + sim.Time(rng.Int64N(int64(50*sim.Millisecond)))
			r.Token(id, at)
		}
		r.Finish(id, at)
	}
	b.ReportAllocs()
	for b.Loop() {
		r.Summarize("bench", 120*sim.Second)
	}
}
