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

// TestMergedSummaryMatchesResort: a fleet summary built from the
// inputs' sorted gaps is bitwise the summary the re-sort path builds, in
// every state an input can be in at merge time — sorted and untouched
// since, given tokens or aborts after its gaps were sorted (with or
// without a compaction), halted, never sorted, handed another
// recorder's gaps, or nil.
func TestMergedSummaryMatchesResort(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 2))
	fast := 0
	for trial := range 300 {
		var clock sim.Time
		recs := make([]*Recorder, 1+rng.IntN(5))
		tbt := make([]SortedTBT, len(recs))
		for i := range recs {
			if rng.IntN(8) == 0 {
				continue // a nil input
			}
			r := NewRecorder()
			recs[i] = r
			playRecorder(rng, r, 100000*i, 20+rng.IntN(200), &clock)
			switch rng.IntN(7) {
			case 0: // never sorted
			case 1: // halted, then sorted: later calls are ignored
				r.Halt()
				tbt[i] = r.SortedTBT()
				playRecorder(rng, r, 100000*i+50000, 20, &clock)
			case 2: // tokens, finishes and aborts after the sort
				tbt[i] = r.SortedTBT()
				playRecorder(rng, r, 100000*i+50000, 1+rng.IntN(20), &clock)
			case 3: // aborts only after the sort
				tbt[i] = r.SortedTBT()
				for _, id := range r.OpenIDs() {
					if rng.IntN(2) == 0 {
						r.Abort(id)
					}
				}
			case 4: // another recorder's gaps
				if i > 0 && recs[i-1] != nil {
					tbt[i] = recs[i-1].SortedTBT()
				}
			default: // sorted and untouched since
				tbt[i] = r.SortedTBT()
			}
		}
		fast += checkMerge(t, trial, recs, tbt, clock)
		// Each input's summary from its gaps equals a plain Summarize.
		for i, r := range recs {
			if r == nil {
				continue
			}
			got := r.SummarizeSorted("r", clock, tbt[i])
			if want := r.Summarize("r", clock); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
				t.Fatalf("trial %d: summary from sorted gaps %+v, re-sorted %+v", trial, got, want)
			}
			tbt[i] = r.SortedTBT()
		}
		// Every input's gaps are current now; half the trials stale one.
		if rng.IntN(2) == 0 {
			if r := recs[rng.IntN(len(recs))]; r != nil {
				playRecorder(rng, r, 900000, 1+rng.IntN(10), &clock)
			}
		}
		fast += checkMerge(t, trial, recs, tbt, clock)
	}
	if fast < 100 {
		t.Fatalf("only %d of 600 merges used the inputs' sorted gaps", fast)
	}
}

// checkMerge compares the summary MergeSorted's gaps give with the one
// the plain merged recorder gives, and reports 1 when the merge carried
// sorted gaps over from its inputs.
func checkMerge(t *testing.T, trial int, recs []*Recorder, tbt []SortedTBT, clock sim.Time) int {
	t.Helper()
	m, merged := MergeSorted(recs, tbt)
	fast := 0
	if merged.current(m) && len(merged.gaps) > 0 {
		fast = 1
	}
	got := m.SummarizeSorted("fleet", clock, merged)
	if want := Merge(recs...).Summarize("fleet", clock); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
		t.Fatalf("trial %d: merged summary\n%+v\nre-sort path\n%+v", trial, got, want)
	}
	return fast
}

// TestMergeSortedUsesRuns pins the fast path itself: inputs whose gaps
// are current hand MergeSorted their runs, a token on any input after
// its sort sends the merge back to the re-sort path, and Summarize
// leaves the recorder's state alone.
func TestMergeSortedUsesRuns(t *testing.T) {
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
	if a.key() != key {
		t.Fatalf("Summarize moved the recorder's gap state %v to %v", key, a.key())
	}
	// Gaps are tied to their recorder: a's state key equals b's, yet a's
	// gaps must not summarize b.
	got, want := b.SummarizeSorted("b", sim.Second, a.SortedTBT()), b.Summarize("b", sim.Second)
	if a.key() != b.key() || fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
		t.Fatalf("b summarized with a's gaps: %+v, want %+v", got.TBT, want.TBT)
	}
	recs := []*Recorder{a, nil, b}
	tbt := []SortedTBT{a.SortedTBT(), {}, b.SortedTBT()}
	if m, merged := MergeSorted(recs, tbt); !merged.current(m) || len(merged.gaps) != 8 {
		t.Fatalf("merge of current inputs kept %d sorted gaps (current %v), want 8", len(merged.gaps), merged.current(m))
	}
	b.Token(2, ms(200))
	if m, merged := MergeSorted(recs, tbt); merged.current(m) {
		t.Fatalf("merge with a stale input carried sorted gaps %v", merged.gaps)
	}
}

// TestMergeRunsSorts: merging any number of ascending runs, empty ones
// included, gives the sorted concatenation.
func TestMergeRunsSorts(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 3))
	for _, k := range []int{0, 1, 2, 3, 5, 8, 33, 100} {
		for range 20 {
			runs := make([][]sim.Time, k)
			var want []sim.Time
			for i := range runs {
				run := make([]sim.Time, rng.IntN(40))
				for j := range run {
					run[j] = sim.Time(rng.IntN(50))
				}
				slices.Sort(run)
				runs[i] = run
				want = append(want, run...)
			}
			slices.Sort(want)
			if got := mergeRuns(slices.Clone(runs), len(want)); !slices.Equal(got, want) {
				t.Fatalf("%d runs merged to %v, want %v", k, got, want)
			}
		}
	}
}
