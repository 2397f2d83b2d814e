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
// live records and runs, and has no streams; it cannot Abort. Merge
// fills in its inputs' stream members and changes nothing else in them.
func Merge(recs ...*Recorder) *Recorder {
	m := NewRecorder()
	nRecs, nRuns, nTBT := 0, 0, 0
	for _, r := range recs {
		if r != nil {
			r.settle()
			nRecs += len(r.recs) - r.nDead
			nRuns += r.runs.n
			nTBT += r.nTBT
		}
	}
	m.Reserve(nRecs)
	if nTBT > 0 {
		m.runs.open = make([]tbtRun, 0, nRuns)
	}
	for _, r := range recs {
		if r == nil {
			continue
		}
		for _, rec := range r.recs {
			if rec.dead {
				continue
			}
			if _, dup := m.reqs[rec.id]; dup {
				panic(fmt.Sprintf("metrics: Merge saw request ID %d twice; inputs must be disjoint", rec.id))
			}
			c := m.arena.New()
			*c = *rec
			c.st, c.lastRun = nil, -1
			m.reqs[c.id] = c
			m.recs = append(m.recs, c)
			if !c.done {
				m.open++
			}
		}
		for run := range r.liveRuns() {
			run.prev = -1
			m.runs.open = append(m.runs.open, run)
		}
		m.prefillTokens += r.prefillTokens
		m.decodeTokens += r.decodeTokens
	}
	m.runs.n = len(m.runs.open)
	m.nTBT = nTBT
	m.merged = true
	return m
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
	// Rollup; Attainment reads them.
	tbtOK, tbtN int
}

// Attainment returns the window's TBT SLO attainment (1 when the window
// holds no samples, matching TBTAttainment's convention). It is only
// meaningful on windows rolled up against a positive TBT SLO.
func (w *Window) Attainment() float64 {
	if w.tbtN == 0 {
		return 1
	}
	return float64(w.tbtOK) / float64(w.tbtN)
}

// Rollup slices the recorder's samples into the half-open windows
// [bounds[i], bounds[i+1]), with per-window TBT attainment against
// tbtSLO (a zero SLO leaves attainment at its no-samples convention).
// Bounds must be ascending; the last window is closed at
// bounds[len-1]. The result is independent of the order requests were
// recorded (samples are pooled, and every statistic is an order
// statistic or an exact sum), so merged fleet recorders roll up
// identically regardless of replica merge order. A window's TBT
// quantiles come from the same selection as Summarize's.
func (r *Recorder) Rollup(bounds []sim.Time, tbtSLO sim.Time) []Window {
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
	for run := range r.liveRuns() {
		if i := locate(bounds, run.at); i >= 0 {
			next[i+1]++
		}
	}
	for i := range n {
		next[i+1] += next[i]
	}
	runs := make([]tbtRun, next[n])
	target := tbtSLO.Seconds()
	for run := range r.liveRuns() {
		i := locate(bounds, run.at)
		if i < 0 {
			continue
		}
		runs[next[i]] = run
		next[i]++
		if tbtSLO > 0 {
			wins[i].tbtN += int(run.n)
			if run.gap.Seconds() <= target {
				wins[i].tbtOK += int(run.n)
			}
		}
	}
	start := 0
	for i := range wins {
		wins[i].TTFT = timeQuantiles(ttft[i])
		wins[i].TBT = runQuantiles(&blockLog[tbtRun]{open: runs[start:next[i]]})
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
