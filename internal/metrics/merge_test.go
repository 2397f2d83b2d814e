package metrics

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"muxwise/internal/sim"
)

// playRecorder drives r with a random schedule of arrivals, tokens,
// finishes and aborts; request IDs start at base so recorders stay
// disjoint. Gap lengths come from a small set, so runs share values.
func playRecorder(rng *rand.Rand, r *Recorder, base, ops int, clock *sim.Time) {
	open := []int{}
	next := base
	for range ops {
		*clock += sim.Time(1+rng.IntN(4)) * sim.Millisecond
		switch k := rng.IntN(10); {
		case k < 2 || len(open) == 0:
			r.Arrive(next, *clock, 1+rng.IntN(500))
			open = append(open, next)
			next++
		case k < 8:
			r.Token(open[rng.IntN(len(open))], *clock)
		case k < 9:
			i := rng.IntN(len(open))
			r.Finish(open[i], *clock)
			open = append(open[:i], open[i+1:]...)
		default:
			i := rng.IntN(len(open))
			r.Abort(open[i])
			open = append(open[:i], open[i+1:]...)
		}
	}
}

// unsort drops r's sorted gaps, so its next Summarize sorts them afresh.
func unsort(r *Recorder) { r.sorted, r.sortedAt = nil, tbtKey{n: -1} }

// resorted is r's summary taken after a forced re-sort of its gaps.
func resorted(r *Recorder, name string, now sim.Time) Summary {
	unsort(r)
	return r.Summarize(name, now)
}

// TestMergedSummaryMatchesResort: a fleet summary built from the
// inputs' sorted gaps is bitwise the summary a forced re-sort builds, in
// every state an input can be in at merge time — summarized and
// untouched since, given tokens or aborts after its summary (with or
// without a compaction), halted, never summarized, or nil — and so is
// every input's own summary from its kept gaps.
func TestMergedSummaryMatchesResort(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 2))
	fast := 0
	for trial := range 300 {
		var clock sim.Time
		recs := make([]*Recorder, 1+rng.IntN(5))
		for i := range recs {
			if rng.IntN(8) == 0 {
				continue // a nil input
			}
			r := NewRecorder()
			recs[i] = r
			playRecorder(rng, r, 100000*i, 20+rng.IntN(200), &clock)
			switch rng.IntN(6) {
			case 0: // never summarized
			case 1: // halted, then summarized: later calls are ignored
				r.Halt()
				r.Summarize("r", clock)
				playRecorder(rng, r, 100000*i+50000, 20, &clock)
			case 2: // tokens, finishes and aborts after the summary
				r.Summarize("r", clock)
				playRecorder(rng, r, 100000*i+50000, 1+rng.IntN(20), &clock)
			case 3: // aborts only after the summary
				r.Summarize("r", clock)
				for _, id := range r.OpenIDs() {
					if rng.IntN(2) == 0 {
						r.Abort(id)
					}
				}
			default: // summarized and untouched since
				r.Summarize("r", clock)
			}
		}
		fast += checkMerge(t, trial, recs, clock)
		// Each input's summary from its kept gaps equals a re-sorted one.
		for _, r := range recs {
			if r == nil {
				continue
			}
			got := r.Summarize("r", clock)
			if want := resorted(r, "r", clock); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
				t.Fatalf("trial %d: summary from kept gaps %+v, re-sorted %+v", trial, got, want)
			}
		}
		// Every input's gaps are current now; half the trials stale one.
		if rng.IntN(2) == 0 {
			if r := recs[rng.IntN(len(recs))]; r != nil {
				playRecorder(rng, r, 900000, 1+rng.IntN(10), &clock)
			}
		}
		fast += checkMerge(t, trial, recs, clock)
	}
	if fast < 100 {
		t.Fatalf("only %d of 600 merges used the inputs' sorted gaps", fast)
	}
}

// checkMerge compares the summary of the merged recorder with the one
// it gives after a forced re-sort, and reports 1 when the merge carried
// sorted gaps over from its inputs.
func checkMerge(t *testing.T, trial int, recs []*Recorder, clock sim.Time) int {
	t.Helper()
	m := Merge(recs...)
	fast := 0
	if m.sortedAt == m.key() && len(m.sorted) > 0 {
		fast = 1
	}
	got := m.Summarize("fleet", clock)
	if want := resorted(m, "fleet", clock); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
		t.Fatalf("trial %d: merged summary\n%+v\nre-sorted\n%+v", trial, got, want)
	}
	return fast
}

// TestMergeUsesSortedRuns pins the kept gaps themselves: Summarize
// keeps them without moving the recorder's gap state and a second
// Summarize reuses them, inputs whose gaps are current hand Merge their
// runs, and a token on any input after its summary sends the merged
// recorder back to sorting its own.
func TestMergeUsesSortedRuns(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	for i, r := range []*Recorder{a, b} {
		id := i + 1
		r.Arrive(id, 0, 10)
		for k := range 5 {
			r.Token(id, ms(float64(10*(k+1)*(i+1))))
		}
	}
	key := a.key()
	a.Summarize("a", sim.Second)
	if a.key() != key || a.sortedAt != key {
		t.Fatalf("Summarize moved the gap state %v to %v, kept gaps of %v", key, a.key(), a.sortedAt)
	}
	kept := a.sorted
	if a.Summarize("a", sim.Second); &a.sorted[0] != &kept[0] {
		t.Fatal("a second Summarize re-sorted unchanged gaps")
	}
	b.Summarize("b", sim.Second)
	recs := []*Recorder{a, nil, b}
	if m := Merge(recs...); m.sortedAt != m.key() || runQuantiles(m.sorted).N != 8 {
		t.Fatalf("merge of current inputs kept %d sorted gaps (current %v), want 8", runQuantiles(m.sorted).N, m.sortedAt == m.key())
	}
	b.Token(2, ms(200))
	if m := Merge(recs...); m.sortedAt == m.key() {
		t.Fatalf("merge with a stale input carried sorted gaps %v", m.sorted)
	}
}

// TestMergeRunsSorts: merging any number of ascending lists of
// weighted runs, empty ones included, gives the sorted concatenation.
func TestMergeRunsSorts(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 3))
	for _, k := range []int{0, 1, 2, 3, 5, 8, 33, 100} {
		for range 20 {
			runs := make([][]gapRun, k)
			var want []gapRun
			for i := range runs {
				run := make([]gapRun, rng.IntN(40))
				for j := range run {
					run[j] = gapRun{gap: sim.Time(rng.IntN(50)), n: 1 + rng.IntN(4)}
				}
				sortRuns(run)
				runs[i] = run
				want = append(want, run...)
			}
			sortRuns(want)
			if got := mergeRuns(slices.Clone(runs), len(want)); !slices.Equal(expand(got), expand(want)) {
				t.Fatalf("%d lists merged to %v, want %v", k, got, want)
			}
		}
	}
}

// expand lists the samples of runs, one gap per sample.
func expand(runs []gapRun) []sim.Time {
	var out []sim.Time
	for _, run := range runs {
		for range run.n {
			out = append(out, run.gap)
		}
	}
	return out
}
