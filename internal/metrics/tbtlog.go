package metrics

import (
	"iter"
	"math"
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

// The TBT log grows in blocks that are never copied: the first holds
// minBlock entries, and each next one doubles up to maxBlock. The
// doubling blocks hold grownEntries entries in all. The cap bounds the
// open block's unfilled tail, which every recorder allocates and never
// uses, at 24 KiB of runs.
const (
	minBlock     = 64
	maxBlock     = 1024
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

// runQuantiles summarises the samples of the runs in log, read in place
// and in any order; Rollup passes a log whose open block holds one
// window's runs. Avg is the exact mean and Max a scan. P50, P90 and P99
// are found by radix selection, with no sort and no copy: the first pass
// also counts samples by the bit length of their gap, which places each
// rank among the gaps of one length; each later pass counts the samples
// of a rank's remaining gaps by their next 8 bits, until the rank's gap
// is fixed to the nanosecond. A gap of 2^24 to 2^32 ns takes 3 or 4
// such passes, and a pass skips at one comparison the gaps no rank can
// still be.
func runQuantiles(log *blockLog[tbtRun]) Quantiles {
	var q Quantiles
	var sum nsSum
	top := sim.Time(math.MinInt64)
	var byLen [65]int
	for b := range log.blocks() {
		for _, run := range log.block(b) {
			if run.n > 0 {
				q.N += int(run.n)
				sum.add(run.gap, int(run.n))
				top = max(top, run.gap)
				byLen[lenBucket(run.gap)] += int(run.n)
			}
		}
	}
	if q.N == 0 {
		return q
	}
	q.Avg, q.Max = sum.mean(q.N), top.Seconds()

	// Rank k's gap, as a uint64, is among those in [lo[k], lo[k]+2^low[k]),
	// and ranks[k] is its place among their samples.
	ranks := [...]int{rank(q.N, 0.50), rank(q.N, 0.90), rank(q.N, 0.99)}
	var lo [len(ranks)]uint64
	var low [len(ranks)]uint
	for k := range ranks {
		var b int
		b, ranks[k] = bucketOf(byLen[:], ranks[k])
		switch b {
		case 0: // negative
			lo[k], low[k] = 1<<63, 63
		case 1: // zero
		default:
			lo[k], low[k] = 1<<(b-2), uint(b-2)
		}
	}
	// Each pass counts the samples of each rank's gaps by their next
	// (up to) 8 bits, and narrows the rank to the gaps of one count.
	for slices.Max(low[:]) > 0 {
		var count [len(ranks)][256]int
		var span [len(ranks)]uint64 // 0 once a rank's gap is found
		var shift [len(ranks)]uint
		// [from, to] covers every open rank's gaps.
		from, to := uint64(math.MaxUint64), uint64(0)
		for k := range ranks {
			if low[k] > 0 {
				span[k], shift[k] = 1<<low[k], low[k]-min(low[k], 8)
				from, to = min(from, lo[k]), max(to, lo[k]+(span[k]-1))
			}
		}
		for b := range log.blocks() {
			for _, run := range log.block(b) {
				g := uint64(run.gap)
				if g-from > to-from {
					continue
				}
				for k := range ranks {
					if g-lo[k] < span[k] {
						count[k][uint8((g-lo[k])>>shift[k])] += int(run.n)
					}
				}
			}
		}
		for k := range ranks {
			if low[k] > 0 {
				var d int
				d, ranks[k] = bucketOf(count[k][:1<<(low[k]-shift[k])], ranks[k])
				lo[k] += uint64(d) << shift[k]
				low[k] = shift[k]
			}
		}
	}
	q.P50 = sim.Time(lo[0]).Seconds()
	q.P90 = sim.Time(lo[1]).Seconds()
	q.P99 = sim.Time(lo[2]).Seconds()
	return q
}

// lenBucket orders gaps by bit length: every negative gap is in bucket
// 0, a zero gap in bucket 1, and a gap of bit length l in bucket l+1.
func lenBucket(gap sim.Time) int { return (bits.Len64(uint64(gap)) + 1) % 65 }

// bucketOf returns the bucket of counts that holds the sample at 0-based
// rank r, buckets in ascending order, and r's place among its samples.
func bucketOf(counts []int, r int) (int, int) {
	for b, c := range counts {
		if r < c {
			return b, r
		}
		r -= c
	}
	panic("metrics: a rank past the samples")
}
