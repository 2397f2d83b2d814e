package metrics

import (
	"math/rand/v2"
	"testing"

	"muxwise/internal/sim"
)

// randomRecorders builds a randomized fleet of per-replica recorders:
// requests with seeded arrivals, token emissions and (mostly) finishes
// spread over [0, span], IDs disjoint across recorders. Returns the
// recorders plus the run's end instant.
func randomRecorders(rng *rand.Rand, replicas int, span sim.Time) []*Recorder {
	recs := make([]*Recorder, replicas)
	id := 0
	for i := range recs {
		r := NewRecorder()
		n := 5 + rng.IntN(25)
		for q := 0; q < n; q++ {
			at := sim.Time(rng.Int64N(int64(span)))
			r.Arrive(id, at, 64+rng.IntN(4000))
			tokens := 1 + rng.IntN(12)
			t := at
			for k := 0; k < tokens; k++ {
				t += sim.Time(rng.Int64N(int64(200 * sim.Millisecond)))
				r.Token(id, t)
			}
			if rng.Float64() < 0.9 {
				r.Finish(id, t)
			}
			id++
		}
		recs[i] = r
	}
	return recs
}

// randomBounds returns an ascending partition of [0, end] with random
// interior cut points (possibly none).
func randomBounds(rng *rand.Rand, end sim.Time) []sim.Time {
	bounds := []sim.Time{0}
	cuts := rng.IntN(8)
	for i := 0; i < cuts; i++ {
		bounds = append(bounds, sim.Time(rng.Int64N(int64(end))))
	}
	bounds = append(bounds, end)
	for i := 1; i < len(bounds); i++ {
		for j := i; j > 0 && bounds[j] < bounds[j-1]; j-- {
			bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
		}
	}
	// Collapse duplicate cuts: Rollup wants ascending half-open windows.
	out := bounds[:1]
	for _, b := range bounds[1:] {
		if b > out[len(out)-1] {
			out = append(out, b)
		}
	}
	return out
}

// TestPropertyRollupMergeOrderInvariant: the windows of a merged fleet
// recorder are identical no matter what order the replicas merge in —
// quantiles, counts and attainment all pool samples before summarising.
func TestPropertyRollupMergeOrderInvariant(t *testing.T) {
	const span = 100 * sim.Second
	slo := 80 * sim.Millisecond
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xB0A11))
		recs := randomRecorders(rng, 2+rng.IntN(4), span)
		bounds := randomBounds(rng, span+sim.Second)

		forward := Merge(recs...).RollupSLO(bounds, slo)
		shuffled := append([]*Recorder(nil), recs...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		backward := Merge(shuffled...).RollupSLO(bounds, slo)

		if len(forward) != len(backward) {
			t.Fatalf("trial %d: window count %d vs %d", trial, len(forward), len(backward))
		}
		for i := range forward {
			f, b := forward[i], backward[i]
			if f != b {
				t.Fatalf("trial %d window %d: merge order changed the rollup:\n%+v\n%+v", trial, i, f, b)
			}
		}
	}
}

// TestPropertyRollupPartitionsSumToTrace: for any partition of the run
// into epochs, per-epoch counts and SLO-goodput sum exactly to the
// whole-trace totals — window membership is a partition of the samples,
// so no arrival, completion or TBT sample is dropped or double-counted,
// and epoch goodput re-aggregates to trace goodput.
func TestPropertyRollupPartitionsSumToTrace(t *testing.T) {
	const span = 100 * sim.Second
	slo := 80 * sim.Millisecond
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x5EED))
		rec := Merge(randomRecorders(rng, 1+rng.IntN(4), span)...)
		// The final bound must cover every sample: tokens can land after
		// arrivals stop, so close the last window at the last emission.
		end := sim.Time(0)
		for run := range rec.liveRuns(nil) {
			end = max(end, run.at)
		}
		for _, r := range rec.recs {
			if r.lastToken > end {
				end = r.lastToken
			}
			if r.done && r.finished > end {
				end = r.finished
			}
		}
		end += sim.Second

		wantArrivals := len(rec.recs)
		wantStarted, wantFinished := 0, 0
		for _, r := range rec.recs {
			if r.firstToken >= 0 {
				wantStarted++
			}
			if r.done {
				wantFinished++
			}
		}
		wantTBT := rec.nTBT
		wantOK := 0
		for run := range rec.liveRuns(nil) {
			if run.gap.Seconds() <= slo.Seconds() {
				wantOK += run.n
			}
		}

		for part := 0; part < 5; part++ {
			wins := rec.RollupSLO(randomBounds(rng, end), slo)
			arrivals, started, finished, tbtN, okN := 0, 0, 0, 0, 0
			for _, w := range wins {
				arrivals += w.Arrivals
				started += w.Started
				finished += w.Finished
				tbtN += w.TBT.N
				okN += w.tbtOK
			}
			if arrivals != wantArrivals || started != wantStarted || finished != wantFinished {
				t.Fatalf("trial %d partition %d: counts %d/%d/%d, want %d/%d/%d",
					trial, part, arrivals, started, finished, wantArrivals, wantStarted, wantFinished)
			}
			if tbtN != wantTBT {
				t.Fatalf("trial %d partition %d: %d TBT samples across epochs, want %d", trial, part, tbtN, wantTBT)
			}
			if okN != wantOK {
				t.Fatalf("trial %d partition %d: epoch goodput sums to %d within-SLO samples, trace has %d",
					trial, part, okN, wantOK)
			}
		}
	}
}
