package metrics

import (
	"math/bits"
	"slices"

	"muxwise/internal/sim"
)

// radixMin is the length below which sortTimes uses slices.Sort: every
// radix pass pays for a 256-bucket histogram whatever the input length.
const radixMin = 256

// sortTimes sorts ts ascending. Non-negative input of at least radixMin
// samples takes an LSD radix sort, one byte per pass over the bytes
// that differ between samples; shorter or negative input falls back to
// slices.Sort. Both produce the same order.
func sortTimes(ts []sim.Time) {
	if len(ts) < radixMin {
		slices.Sort(ts)
		return
	}
	var or sim.Time
	for _, t := range ts {
		if t < 0 {
			slices.Sort(ts)
			return
		}
		or |= t
	}
	digits := (bits.Len64(uint64(or)) + 7) / 8
	var counts [8][256]int
	for _, t := range ts {
		for d := range digits {
			counts[d][byte(t>>(8*d))]++
		}
	}
	src, dst := ts, make([]sim.Time, len(ts))
	for d := range digits {
		c := &counts[d]
		shift := 8 * d
		if c[byte(src[0]>>shift)] == len(src) {
			continue // every sample shares this byte
		}
		sum := 0
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for _, t := range src {
			b := byte(t >> shift)
			dst[c[b]] = t
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ts[0] {
		copy(ts, src)
	}
}
