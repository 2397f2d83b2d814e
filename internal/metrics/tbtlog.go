package metrics

import (
	"cmp"
	"iter"
	"math/bits"
	"slices"

	"muxwise/internal/sim"
)

// tbtRun is a run of consecutive TBT samples, in emission order, that
// share an emission time and a gap. A run is either one stream
// iteration's shared run, the samples of every member it carried over
// from the iteration before, or an own run, samples of one request alone
// (its tokens by ID and its first step in a stream). prev links an own
// run to its request's previous own run, so Abort finds them; it is -1
// on shared runs and a request's first own run. n counts the run's live
// samples: Abort subtracts a dead request's in place.
type tbtRun struct {
	at, gap sim.Time
	n, prev int32
}

// gapRun is n samples of one gap: an entry of a recorder's sorted gaps,
// or of a window's gaps in Rollup.
type gapRun struct {
	gap sim.Time
	n   int
}

// The TBT log grows in blocks that are never copied: the first holds
// minBlock entries, and each next one doubles up to maxBlock. The
// doubling blocks hold grownEntries entries in all.
const (
	minBlock     = 64
	maxBlock     = 8192
	grownEntries = 2*maxBlock - minBlock
)

// blockLog is an append-only log of blocks. The open block, the one
// being filled, is held apart so an append touches one slice header;
// every filled block is full, so an entry's position fixes its block.
type blockLog[T any] struct {
	full [][]T // filled blocks, oldest first
	open []T
	n    int // entries in the log
}

// push appends v and returns its position.
func (l *blockLog[T]) push(v T) int {
	if len(l.open) == cap(l.open) {
		l.grow()
	}
	l.open = append(l.open, v)
	l.n++
	return l.n - 1
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

// at returns the entry at position pos of a log built by push. Doubling
// block b starts at minBlock·(2^b − 1); every block after them holds
// maxBlock entries.
func (l *blockLog[T]) at(pos int) *T {
	var b, off int
	if pos < grownEntries {
		b = bits.Len(uint(pos/minBlock+1)) - 1
		off = pos - minBlock*(1<<b-1)
	} else {
		b = bits.Len(maxBlock/minBlock) + (pos-grownEntries)/maxBlock
		off = (pos - grownEntries) % maxBlock
	}
	return &l.block(b)[off]
}

// appendOwn logs one gap of rec emitted at at, joining rec's newest own
// run when that is the log's last run and has the same time and gap.
func (r *Recorder) appendOwn(rec *reqRec, at, gap sim.Time) {
	r.nTBT++
	if rec.lastRun >= 0 && int(rec.lastRun) == r.runs.n-1 {
		if run := &r.runs.open[len(r.runs.open)-1]; run.at == at && run.gap == gap {
			run.n++
			return
		}
	}
	rec.lastRun = int32(r.runs.push(tbtRun{at: at, gap: gap, n: 1, prev: rec.lastRun}))
}

// liveRuns yields the log's runs that hold live samples, in emission
// order.
func (r *Recorder) liveRuns() iter.Seq[tbtRun] {
	return func(yield func(tbtRun) bool) {
		for b := range r.runs.blocks() {
			for _, run := range r.runs.block(b) {
				if run.n > 0 && !yield(run) {
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
