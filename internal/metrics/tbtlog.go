package metrics

import (
	"cmp"
	"iter"
	"math/bits"
	"slices"

	"muxwise/internal/sim"
)

// tbtRun is a run of consecutive TBT samples, in emission order, that
// share an emission time and a gap: the tokens one decode step gave its
// batch. n counts the run's samples, dead ones included.
type tbtRun struct {
	at, gap sim.Time
	n       int
}

// gapRun is n samples of one gap: an entry of a recorder's sorted gaps,
// or of a window's gaps in Rollup.
type gapRun struct {
	gap sim.Time
	n   int
}

// The TBT logs grow in blocks that are never copied: the first holds
// minBlock entries, and each next one doubles up to maxBlock.
const (
	minBlock = 64
	maxBlock = 8192
)

// blockLog is an append-only log of blocks. The open block, the one
// being filled, is held apart so an append touches one slice header;
// every filled block is full.
type blockLog[T any] struct {
	full [][]T // filled blocks, oldest first
	open []T
}

func (l *blockLog[T]) push(v T) {
	if len(l.open) == cap(l.open) {
		l.grow()
	}
	l.open = append(l.open, v)
}

// grow files the open block and opens the next.
func (l *blockLog[T]) grow() {
	size := minBlock
	if cap(l.open) > 0 {
		l.full = append(l.full, l.open)
		size = min(2*cap(l.open), maxBlock)
	}
	l.open = make([]T, 0, size)
}

// blocks is how many blocks block indexes: the filled ones, then the
// open one.
func (l *blockLog[T]) blocks() int { return len(l.full) + 1 }

func (l *blockLog[T]) block(i int) []T {
	if i == len(l.full) {
		return l.open
	}
	return l.full[i]
}

// len is the number of entries in the log.
func (l *blockLog[T]) len() int {
	n := len(l.open)
	for _, b := range l.full {
		n += len(b)
	}
	return n
}

// refill rewrites a block log in place, front to back, with the values
// put. Each value must be put after the entry at its position was read:
// the write cursor then never passes the read cursor, and every block
// but the open one is full, so refilling the blocks in order stays in
// bounds. done installs the result, dropping the blocks left unused.
type refill[T any] struct {
	l    *blockLog[T]
	full [][]T
	cur  []T
}

func (w *refill[T]) put(v T) {
	if len(w.cur) == cap(w.cur) {
		if cap(w.cur) > 0 {
			w.full = append(w.full, w.cur)
		}
		w.cur = w.l.block(len(w.full))[:0]
	}
	w.cur = append(w.cur, v)
}

func (w *refill[T]) done() { w.l.full, w.l.open = w.full, w.cur }

// appendTBT logs one gap emitted at at by the record in slot, joining
// the log's last run when it has the same emission time and gap.
func (r *Recorder) appendTBT(at, gap sim.Time, slot int32) {
	if k := len(r.runs.open) - 1; k >= 0 && r.runs.open[k].at == at && r.runs.open[k].gap == gap {
		r.runs.open[k].n++
	} else {
		r.runs.push(tbtRun{at: at, gap: gap, n: 1})
	}
	r.slots.push(slot)
	r.nTBT++
}

// liveRuns yields the log's runs in emission order, each with n set to
// its live samples; runs left with none are skipped. keep, when set, is
// called with every live sample's slot in emission order. With no dead
// samples and no keep, the runs are read in place and the slot log is
// not touched.
func (r *Recorder) liveRuns(keep func(slot int32)) iter.Seq[tbtRun] {
	return func(yield func(tbtRun) bool) {
		if r.deadTBT == 0 && keep == nil {
			for b := range r.runs.blocks() {
				for _, run := range r.runs.block(b) {
					if !yield(run) {
						return
					}
				}
			}
			return
		}
		sb, si := 0, 0
		slots := r.slots.block(0)
		for b := range r.runs.blocks() {
			for _, run := range r.runs.block(b) {
				live := 0
				for range run.n {
					for si == len(slots) {
						sb, si = sb+1, 0
						slots = r.slots.block(sb)
					}
					s := slots[si]
					si++
					if r.deadTBT == 0 || !r.recs[s].dead {
						live++
						if keep != nil {
							keep(s)
						}
					}
				}
				if live == 0 {
					continue
				}
				run.n = live
				if !yield(run) {
					return
				}
			}
		}
	}
}

// sortRuns orders runs by ascending gap, in place and without
// allocating: an MSD radix sort on the gaps' bytes. A negative gap, which
// a recorder never logs, falls back to a comparison sort.
func sortRuns(runs []gapRun) {
	if slices.ContainsFunc(runs, func(run gapRun) bool { return run.gap < 0 }) {
		slices.SortFunc(runs, func(a, b gapRun) int { return cmp.Compare(a.gap, b.gap) })
		return
	}
	radixSortRuns(runs)
}

// insertionCutoff is the bucket size at and below which radixSortRuns
// insertion-sorts rather than distributing over 256 buckets.
const insertionCutoff = 32

// radixSortRuns sorts runs with non-negative gaps by ascending gap. The
// bytes above the highest bit in which two gaps differ are shared by all
// of them and skipped: the runs are distributed in place over the 256
// values of the highest byte that differs (American flag sort), and each
// bucket is sorted the same way.
func radixSortRuns(runs []gapRun) {
	if len(runs) <= insertionCutoff {
		insertionSortRuns(runs)
		return
	}
	var diff uint64
	for _, run := range runs {
		diff |= uint64(run.gap ^ runs[0].gap)
	}
	if diff == 0 {
		return // all gaps equal
	}
	shift := uint(bits.Len64(diff)-1) &^ 7
	digit := func(r gapRun) int { return int(uint64(r.gap) >> shift & 0xff) }
	// next[b] is bucket b's first unplaced slot, end[b] its end.
	var next, end [256]int
	for _, run := range runs {
		end[digit(run)]++
	}
	at := 0
	for b := range end {
		next[b] = at
		at += end[b]
		end[b] = at
	}
	// Cycle each unplaced run to its bucket, taking the run it displaces.
	for b := range next {
		for next[b] < end[b] {
			run := runs[next[b]]
			for d := digit(run); d != b; d = digit(run) {
				run, runs[next[d]] = runs[next[d]], run
				next[d]++
			}
			runs[next[b]] = run
			next[b]++
		}
	}
	start := 0
	for _, stop := range end {
		radixSortRuns(runs[start:stop])
		start = stop
	}
}

func insertionSortRuns(runs []gapRun) {
	for i := 1; i < len(runs); i++ {
		run, j := runs[i], i
		for ; j > 0 && runs[j-1].gap > run.gap; j-- {
			runs[j] = runs[j-1]
		}
		runs[j] = run
	}
}

// runQuantiles is timeQuantiles over the samples of runs sorted by
// ascending gap. Quantiles are read at cumulative ranks, and Avg adds
// each run's gap once per sample in ascending order: a multiply would
// round differently, so the result is bitwise timeQuantiles' over the
// expanded samples.
func runQuantiles(runs []gapRun) Quantiles {
	n := 0
	for _, run := range runs {
		n += run.n
	}
	q := Quantiles{N: n}
	if n == 0 {
		return q
	}
	ranks := [...]int{rank(n, 0.50), rank(n, 0.90), rank(n, 0.99)}
	var at [len(ranks)]float64
	var sum float64
	k, seen := 0, 0
	for _, run := range runs {
		s := run.gap.Seconds()
		for range run.n {
			sum += s
		}
		seen += run.n
		for ; k < len(ranks) && ranks[k] < seen; k++ {
			at[k] = s
		}
	}
	q.Avg = sum / float64(n)
	q.P50, q.P90, q.P99 = at[0], at[1], at[2]
	q.Max = runs[len(runs)-1].gap.Seconds()
	return q
}
