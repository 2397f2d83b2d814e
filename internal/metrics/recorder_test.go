package metrics

import (
	"fmt"
	"math"
	"math/big"
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
// same ID on the same recorder, whether they came by ID or from a stream,
// and the stream member its batch still holds after the abort gives the
// later record neither tokens nor its finish.
func TestReArrivalAfterAbortStartsClean(t *testing.T) {
	r := NewRecorder()
	s := r.NewStream()
	r.Arrive(1, 0, 10)
	r.Arrive(2, 0, 10)
	old := s.Join(1)
	s.Step(ms(10))
	s.Step(ms(510)) // a 500ms gap: a TBT miss
	r.Token(2, ms(10))
	r.Token(2, ms(20))
	r.Finish(2, ms(20))
	r.Abort(1)
	r.Arrive(1, ms(600), 10)
	s.Step(ms(605))
	r.Token(1, ms(610))
	s.Finish(old, ms(615))
	if r.Unfinished() != 1 {
		t.Fatal("the aborted member's Finish finished the re-arrived request")
	}
	r.Token(1, ms(620))
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
	if w := r.Rollup([]sim.Time{0, sim.Second}, 0); w[0].TBT.N != 2 {
		t.Fatalf("rollup TBT N = %d, want 2", w[0].TBT.N)
	}
	if m := Merge(r); m.WithinSLO(slo) != 2 || len(m.TBTSamples()) != 2 {
		t.Fatalf("merged: within %d, samples %d, want 2 and 2", m.WithinSLO(slo), len(m.TBTSamples()))
	}
}

// Aborts compact lazily: dead records stay until they outnumber the live
// ones, then go in one pass; their samples leave the log at the abort. A
// stream member that joined before the compaction still reaches its own
// request.
func TestAbortCompactsLazily(t *testing.T) {
	r := NewRecorder()
	for id := range 8 {
		r.Arrive(id, 0, 10)
		for k := range 3 {
			r.Token(id, sim.Time(id)*sim.Second+sim.Time(k)*10*sim.Millisecond)
		}
	}
	s := r.NewStream()
	m := s.Join(7)
	for id := range 4 {
		r.Abort(id)
	}
	if len(r.recs) != 8 || r.nTBT != 8 {
		t.Fatalf("compacted early: %d records, %d samples", len(r.recs), r.nTBT)
	}
	r.Abort(4) // 5 dead records now outnumber 3 live
	if len(r.recs) != 3 || r.nTBT != 6 {
		t.Fatalf("after compaction: %d records, %d samples", len(r.recs), r.nTBT)
	}
	if got := r.IDs(); !slices.Equal(got, []int{5, 6, 7}) {
		t.Fatalf("IDs = %v, want [5 6 7]", got)
	}
	s.Step(7*sim.Second + 100*sim.Millisecond) // an 80ms gap for request 7
	r.Finish(6, 7*sim.Second)
	s.Finish(m, 8*sim.Second)
	r.Abort(5)
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

// refQuantiles is the reference summary of nanosecond samples: order
// statistics by nearest rank over a sorted copy, and the mean summed in
// math/big and rounded once.
func refQuantiles(ts []sim.Time) Quantiles {
	n := len(ts)
	q := Quantiles{N: n}
	if n == 0 {
		return q
	}
	s := slices.Clone(ts)
	slices.Sort(s)
	at := func(p float64) float64 {
		return s[min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)].Seconds()
	}
	sum := new(big.Int)
	for _, t := range s {
		sum.Add(sum, big.NewInt(int64(t)))
	}
	q.Avg, _ = new(big.Rat).SetFrac(sum, new(big.Int).Mul(big.NewInt(int64(n)), big.NewInt(int64(sim.Second)))).Float64()
	q.P50, q.P90, q.P99 = at(0.50), at(0.90), at(0.99)
	q.Max = s[n-1].Seconds()
	return q
}

// Property: the order statistics of nanosecond samples are bitwise those
// of the samples converted to seconds and sorted with sort.Float64s, and
// Avg is the exact mean, for every input shape a recorder can hold.
func TestTimeQuantilesMatchFloatSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	shapes := []struct {
		name string
		gen  func() sim.Time
	}{
		{"ms gaps", func() sim.Time { return sim.Time(rng.Int64N(int64(200 * sim.Millisecond))) }},
		{"zeros", func() sim.Time { return sim.Time(rng.IntN(2) * rng.IntN(1000)) }},
		{"duplicates", func() sim.Time { return sim.Time(rng.IntN(4)) * 20 * sim.Millisecond }},
		{"all equal", func() sim.Time { return 7 * sim.Millisecond }},
		{"above 2^33", func() sim.Time { return 1<<33 + sim.Time(rng.Int64N(1<<40)) }},
		{"full range", func() sim.Time { return sim.Time(rng.Int64N(math.MaxInt64)) }},
		{"saturated", func() sim.Time { return sim.MaxTime - sim.Time(rng.IntN(2)) }},
		{"negative", func() sim.Time { return sim.Time(rng.Int64N(2000)) - 1000 }},
	}
	for _, sh := range shapes {
		for _, n := range []int{0, 1, 2, 100, 255, 256, 257, 1000, 5000} {
			ts := make([]sim.Time, n)
			secs := make([]float64, n)
			for i := range ts {
				ts[i] = sh.gen()
				secs[i] = ts[i].Seconds()
			}
			want := refQuantiles(ts)
			got, float := timeQuantiles(ts), quantiles(secs)
			float.Avg = want.Avg
			if !sameBits(got, want) || !sameBits(got, float) {
				t.Fatalf("%s n=%d: %+v, reference %+v, float sort %+v", sh.name, n, got, want, float)
			}
			if !slices.IsSorted(ts) {
				t.Fatalf("%s n=%d: not sorted", sh.name, n)
			}
		}
	}
}

// The TBT summary and its rollup window equal the reference at the
// extremes of the exact mean: a saturated MaxTime gap, two of them
// (a sum past 2^63 ns), all-equal gaps, and 1, 2 and 100 random gaps.
func TestTBTSummaryExactAtExtremes(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	random := func(n int) []sim.Time {
		gaps := make([]sim.Time, n)
		for i := range gaps {
			gaps[i] = 1 + sim.Time(rng.Int64N(int64(sim.Second)))
		}
		return gaps
	}
	cases := map[string][]sim.Time{
		"MaxTime":     {sim.MaxTime},
		"past 2^63":   {sim.MaxTime, sim.MaxTime, 1},
		"all equal":   slices.Repeat([]sim.Time{13 * sim.Millisecond}, 1000),
		"n=1":         random(1),
		"n=2":         random(2),
		"n=100":       random(100),
		"mixed ranks": append(random(100), sim.MaxTime),
	}
	for name, gaps := range cases {
		// Each gap is its own request's only gap, from 0 to the gap.
		r := NewRecorder()
		for id, g := range gaps {
			r.Arrive(id, 0, 1)
			r.Token(id, 0)
			r.Token(id, g)
			r.Finish(id, g)
		}
		want := refQuantiles(gaps)
		if got := r.Summarize("x", sim.MaxTime).TBT; !sameBits(got, want) {
			t.Fatalf("%s: summary TBT %+v, reference %+v", name, got, want)
		}
		if got := r.Rollup([]sim.Time{0, sim.MaxTime}, 0)[0].TBT; !sameBits(got, want) {
			t.Fatalf("%s: window TBT %+v, reference %+v", name, got, want)
		}
	}
}

// Summaries write nothing: repeated Summarize and Rollup calls on one
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
	a, wa := r.Summarize("x", 10*sim.Second), r.Rollup(bounds, 0)
	b, wb := r.Summarize("x", 10*sim.Second), r.Rollup(bounds, 0)
	if a != b || !slices.Equal(wa, wb) {
		t.Fatalf("repeated summaries differ:\n%+v\n%+v", a, b)
	}
	if !slices.Equal(log, r.TBTSamples()) {
		t.Fatal("summarising reordered the TBT log")
	}
}

// BenchmarkRecorderToken is the per-token cost of tokens by request ID:
// 64 requests in flight emit tokens 20 ms apart. ns/op and B/op are per
// token. A fresh recorder every 2^16 tokens bounds memory and charges
// the log's growth to the tokens that caused it.
func BenchmarkRecorderToken(b *testing.B) {
	const inflight, perRecorder = 64, 1 << 16
	var r *Recorder
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		k := i % perRecorder
		if k == 0 {
			r = NewRecorder()
			for id := range inflight {
				r.Arrive(id, 0, 100)
			}
		}
		r.Token(k%inflight, sim.Time(k/inflight)*20*sim.Millisecond)
	}
}

// summaryRecorder holds 200k TBT gaps by request ID: 1000 requests of
// 200 gaps each, arriving over 60 s, their tokens 5-55 ms apart.
func summaryRecorder() *Recorder {
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
	return r
}

// BenchmarkSummarize is the end-of-run summary over summaryRecorder's
// 200k gaps.
func BenchmarkSummarize(b *testing.B) {
	r := summaryRecorder()
	b.ReportAllocs()
	for b.Loop() {
		r.Summarize("bench", 120*sim.Second)
	}
}

// BenchmarkRollup is a fleet's epoch rollup over summaryRecorder's 200k
// gaps: 8 windows of 10 s each, with TBT attainment.
func BenchmarkRollup(b *testing.B) {
	r := summaryRecorder()
	bounds := make([]sim.Time, 9)
	for i := range bounds {
		bounds[i] = sim.Time(i) * 10 * sim.Second
	}
	b.ReportAllocs()
	for b.Loop() {
		r.Rollup(bounds, 30*sim.Millisecond)
	}
}

// BenchmarkRecorderStep is the per-token cost of a decode stream:
// batch requests in flight, 25 being the mean batch of a ShareGPT engine
// run, take a token at every 20 ms step, as Batch.StepInto gives them.
// Requests finish staggered and are replaced. ns/op and B/op are per
// token; a fresh recorder every 2^16 tokens bounds memory.
func BenchmarkRecorderStep(b *testing.B) {
	const perReq, perRecorder = 200, 1 << 16
	for _, batch := range []int{1, 25, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			var r *Recorder
			var s *Stream
			ids := make([]int, batch)
			members := make([]Member, batch)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				k := i % perRecorder
				if k == 0 {
					r = NewRecorder()
					s = r.NewStream()
					for j := range ids {
						ids[j] = j
						r.Arrive(j, 0, 100)
						members[j] = s.Join(j)
					}
				}
				j, step := k%batch, k/batch
				at := sim.Time(step) * 20 * sim.Millisecond
				if j == 0 {
					s.Step(at)
				}
				if (step+8*j)%perReq == perReq-1 {
					s.Finish(members[j], at)
					ids[j] += batch
					r.Arrive(ids[j], at, 100)
					members[j] = s.Join(ids[j])
				}
			}
		})
	}
}

// BenchmarkRecorderRunFree is the per-token cost when no runs form: one
// request at a time emits 256 tokens 20 ms apart by request ID, the
// shape of muxperf's recorder replay and of long-prompt runs whose
// decode batches hold about one request. ns/op and B/op are per token.
func BenchmarkRecorderRunFree(b *testing.B) {
	const perReq, perRecorder = 256, 1 << 16
	var r *Recorder
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		k := i % perRecorder
		if k == 0 {
			r = NewRecorder()
		}
		id, t := k/perReq, k%perReq
		start := sim.Time(id) * 10 * sim.Second
		if t == 0 {
			r.Arrive(id, start, 100)
		}
		at := start + sim.Time(t)*20*sim.Millisecond
		r.Token(id, at)
		if t == perReq-1 {
			r.Finish(id, at)
		}
	}
}

// BenchmarkMerge is the fleet summary, Merge then Summarize of the
// merged recorder, over 200k gaps of 25-request decode steps split
// across 3 and 64 recorders (64 is the autoscaler's default maximum
// fleet).
func BenchmarkMerge(b *testing.B) {
	for _, k := range []int{3, 64} {
		rng := rand.New(rand.NewPCG(7, 9))
		recs := make([]*Recorder, k)
		for i := range recs {
			recs[i] = stepRecorder(rng, 25, 200_000/k, 1_000_000*i)
		}
		b.Run(fmt.Sprintf("recorders=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Merge(recs...).Summarize("fleet", 0)
			}
		})
	}
}

// stepRecorder logs decode steps of batch requests through a stream
// until the recorder holds samples TBT gaps. Each request takes 1-400
// tokens and is replaced when it finishes; request IDs count up from
// base.
func stepRecorder(rng *rand.Rand, batch, samples, base int) *Recorder {
	r := NewRecorder()
	s := r.NewStream()
	ids, left := make([]int, batch), make([]int, batch)
	members := make([]Member, batch)
	next := base
	var at sim.Time
	for r.nTBT < samples {
		at += 5*sim.Millisecond + sim.Time(rng.Int64N(int64(50*sim.Millisecond)))
		for j := range ids {
			if left[j] == 0 {
				ids[j], left[j] = next, 1+rng.IntN(400)
				next++
				r.Arrive(ids[j], at, 512)
				members[j] = s.Join(ids[j])
			}
		}
		s.Step(at)
		for j := range ids {
			if left[j]--; left[j] == 0 {
				s.Finish(members[j], at)
			}
		}
	}
	return r
}

// After Reserve(n), n arrivals allocate nothing.
func TestReservedArrivalsAllocateNothing(t *testing.T) {
	const n = 500
	r := NewRecorder()
	r.Reserve(n)
	id := 0
	arrive := func() {
		r.Arrive(id, sim.Time(id), 10)
		id++
	}
	if allocs := testing.AllocsPerRun(n-1, arrive); allocs != 0 {
		t.Fatalf("reserved arrivals allocate %v each, want 0", allocs)
	}
	if id != n || r.Unfinished() != n {
		t.Fatalf("%d arrivals recorded %d open requests, want %d", id, r.Unfinished(), n)
	}
}
