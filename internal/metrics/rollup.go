package metrics

import (
	"fmt"

	"muxwise/internal/sim"
)

// Merge combines per-replica recorders into one fleet-wide view, so the
// cluster runner can report the same Summary / attainment statistics over
// a whole deployment that a single-instance run reports for one engine.
//
// Request IDs must be disjoint across the inputs (a cluster routes each
// request to exactly one replica, so per-replica recorders never share
// an ID); a duplicate panics rather than producing a silently
// half-merged summary. The merged recorder holds copies of its inputs'
// live records and samples; the inputs are not modified.
func Merge(recs ...*Recorder) *Recorder {
	m := NewRecorder()
	nRecs, nRuns, nTBT := 0, 0, 0
	for _, r := range recs {
		if r != nil {
			nRecs += len(r.recs) - r.nDead
			nRuns += r.runs.len()
			nTBT += r.nTBT - r.deadTBT
		}
	}
	arena := make([]reqRec, 0, nRecs)
	m.recs = make([]*reqRec, 0, nRecs)
	if nTBT > 0 {
		m.runs.open = make([]tbtRun, 0, nRuns)
		m.slots.open = make([]int32, 0, nTBT)
	}
	for _, r := range recs {
		if r == nil {
			continue
		}
		// slot maps the input's record slots to the merged ones.
		slot := make([]int32, len(r.recs))
		for i, rec := range r.recs {
			if rec.dead {
				continue
			}
			if _, dup := m.reqs[rec.id]; dup {
				panic(fmt.Sprintf("metrics: Merge saw request ID %d twice; inputs must be disjoint", rec.id))
			}
			arena = append(arena, *rec)
			c := &arena[len(arena)-1]
			c.idx = len(m.recs)
			slot[i] = int32(c.idx)
			m.reqs[c.id] = c
			m.recs = append(m.recs, c)
			if !c.done {
				m.open++
			}
		}
		for run := range r.liveRuns(func(s int32) { m.slots.open = append(m.slots.open, slot[s]) }) {
			m.runs.open = append(m.runs.open, run)
		}
		m.prefillTokens += r.prefillTokens
		m.decodeTokens += r.decodeTokens
	}
	m.nTBT = nTBT
	return m
}

// MergeSorted is Merge for inputs whose sorted TBT gaps are at hand:
// tbt[i] was taken from recs[i] (entries of nil inputs are ignored). It
// also returns the merged recorder's sorted gaps, merged from the
// inputs' sorted runs instead of sorted, for its SummarizeSorted. The
// merge holds the same multiset in the same ascending order, so the
// quantiles and the ascending-order Avg are bitwise those of a fresh
// sort. If any input's gaps are not current, the returned SortedTBT is
// the zero one and the summary sorts afresh.
func MergeSorted(recs []*Recorder, tbt []SortedTBT) (*Recorder, SortedTBT) {
	m := Merge(recs...)
	lists := make([][]gapRun, 0, len(recs))
	n := 0
	for i, r := range recs {
		if r == nil {
			continue
		}
		if !tbt[i].current(r) {
			return m, SortedTBT{}
		}
		lists = append(lists, tbt[i].runs)
		n += len(tbt[i].runs)
	}
	return m, SortedTBT{rec: m, key: m.key(), runs: mergeRuns(lists, n)}
}

// mergeRuns merges lists of weighted runs, each ascending by gap, into
// one ascending list of n runs. Lists merge pairwise in rounds, so a run
// moves once per round: O(n log k) for k lists, never more than a sort.
// Each round writes into the buffer the previous round did not, so no
// merge reads what it overwrites. A lone list is returned as is
// (SortedTBT runs are never written once built). The lists slice itself
// is overwritten.
func mergeRuns(lists [][]gapRun, n int) []gapRun {
	var bufs [2][]gapRun
	for round := 0; len(lists) > 1; round++ {
		buf := bufs[round%2]
		if buf == nil {
			buf = make([]gapRun, n)
			bufs[round%2] = buf
		}
		// Merged list i/2 is stored once lists i and i+1 are read, so the
		// next round's lists can reuse the slice in place.
		next, w := lists[:0], 0
		for i := 0; i < len(lists); i += 2 {
			var out []gapRun
			if i+1 < len(lists) {
				out = buf[w : w+len(lists[i])+len(lists[i+1])]
				merge2(out, lists[i], lists[i+1])
			} else {
				out = buf[w : w+len(lists[i])]
				copy(out, lists[i])
			}
			w += len(out)
			next = append(next, out)
		}
		lists = next
	}
	if len(lists) == 0 {
		return nil
	}
	return lists[0]
}

// merge2 merges a and b, ascending by gap, into out, which holds
// len(a)+len(b).
func merge2(out, a, b []gapRun) {
	i, j, w := 0, 0, 0
	for ; i < len(a) && j < len(b); w++ {
		// A branch-free select: which side is smaller is data
		// dependent, and a branch on it mispredicts half the time.
		x, y := a[i], b[j]
		c := 0
		if y.gap < x.gap {
			c = 1
		}
		if c == 1 {
			x = y
		}
		out[w] = x
		i += 1 - c
		j += c
	}
	w += copy(out[w:], a[i:])
	copy(out[w:], b[j:])
}

// Window is a time-bounded rollup of recorder samples — one fleet epoch
// or one fixed-width slice of a run. Sample assignment follows the time
// the observation was made: arrivals by arrival time, TTFT by
// first-token time, TBT by token-emission time, completions by finish
// time. A request spanning a boundary therefore contributes to every
// window it was active in, which is exactly what per-epoch goodput needs.
type Window struct {
	From, To sim.Time

	Arrivals int // requests that arrived inside the window
	Started  int // requests whose first token landed inside the window
	Finished int // requests that completed inside the window

	TTFT Quantiles
	TBT  Quantiles

	// tbtOK/tbtN count the window's TBT samples inside the SLO given to
	// RollupSLO; Attainment reads them.
	tbtOK, tbtN int
}

// Attainment returns the window's TBT SLO attainment (1 when the window
// holds no samples, matching TBTAttainment's convention). It is only
// meaningful on windows produced by RollupSLO.
func (w Window) Attainment() float64 {
	if w.tbtN == 0 {
		return 1
	}
	return float64(w.tbtOK) / float64(w.tbtN)
}

// Rollup slices the recorder's samples into the half-open windows
// [bounds[i], bounds[i+1]). Bounds must be ascending; the last window is
// closed at bounds[len-1]. The result is independent of the order
// requests were recorded (samples are pooled and quantiles sorted), so
// merged fleet recorders roll up identically regardless of replica merge
// order.
func (r *Recorder) Rollup(bounds []sim.Time) []Window {
	return r.RollupSLO(bounds, 0)
}

// RollupSLO is Rollup with per-window TBT attainment against tbtSLO
// (a zero SLO leaves attainment at its no-samples convention).
func (r *Recorder) RollupSLO(bounds []sim.Time, tbtSLO sim.Time) []Window {
	if len(bounds) < 2 {
		return nil
	}
	n := len(bounds) - 1
	wins := make([]Window, n)
	ttft := make([][]sim.Time, n)
	for i := range wins {
		wins[i].From, wins[i].To = bounds[i], bounds[i+1]
	}
	for _, rec := range r.recs {
		if rec.dead {
			continue
		}
		if i := locate(bounds, rec.arrival); i >= 0 {
			wins[i].Arrivals++
		}
		if rec.firstToken >= 0 {
			if i := locate(bounds, rec.firstToken); i >= 0 {
				wins[i].Started++
				ttft[i] = append(ttft[i], rec.firstToken-rec.arrival)
			}
		}
		if rec.done {
			if i := locate(bounds, rec.finished); i >= 0 {
				wins[i].Finished++
			}
		}
	}
	// Bucket the live TBT runs by window into one exact-size array: a
	// counting pass sizes each window's share, a second pass fills it.
	// next[i] starts as window i's first index and ends past its last.
	next := make([]int, n+1)
	for run := range r.liveRuns(nil) {
		if i := locate(bounds, run.at); i >= 0 {
			next[i+1]++
		}
	}
	for i := range n {
		next[i+1] += next[i]
	}
	runs := make([]gapRun, next[n])
	target := tbtSLO.Seconds()
	for run := range r.liveRuns(nil) {
		i := locate(bounds, run.at)
		if i < 0 {
			continue
		}
		runs[next[i]] = gapRun{gap: run.gap, n: run.n}
		next[i]++
		if tbtSLO > 0 {
			wins[i].tbtN += run.n
			if run.gap.Seconds() <= target {
				wins[i].tbtOK += run.n
			}
		}
	}
	start := 0
	for i := range wins {
		wins[i].TTFT = timeQuantiles(ttft[i])
		sortRuns(runs[start:next[i]])
		wins[i].TBT = runQuantiles(runs[start:next[i]])
		start = next[i]
	}
	return wins
}

// locate returns the index of the window [bounds[i], bounds[i+1])
// containing t, or -1. The final bound is inclusive: the last window is
// closed, so a sample landing exactly on the run's end instant is not
// dropped.
func locate(bounds []sim.Time, t sim.Time) int {
	n := len(bounds) - 1
	switch {
	case t < bounds[0] || t > bounds[n]:
		return -1
	case t == bounds[n]:
		return n - 1
	}
	lo, hi := 0, n // bounds[lo] <= t < bounds[hi]
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); bounds[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// AppendTTFTSince appends to dst the TTFT samples (seconds) of requests
// whose first token was observed at or after from, in arrival order.
// Fleet autoscalers pool these across replicas into a reused buffer, so
// per-tick snapshots do not allocate once the buffer has grown.
func (r *Recorder) AppendTTFTSince(dst []float64, from sim.Time) []float64 {
	for _, rec := range r.recs {
		if !rec.dead && rec.firstToken >= from {
			dst = append(dst, (rec.firstToken - rec.arrival).Seconds())
		}
	}
	return dst
}

// QuantilesInPlace summarises a sample set (seconds) with the same
// statistics the recorder reports, sorting samples in place. Per-tick
// consumers (fleet autoscalers) pair it with AppendTTFTSince over a
// reused scratch buffer.
func QuantilesInPlace(samples []float64) Quantiles { return quantiles(samples) }
