// Package arena holds the simulator's hot-path containers, so that no
// other package keeps a free list or a FIFO of its own. A Pool recycles
// records through a free list and carves fresh ones out of blocks it
// never copies: the event loop's event slots, the radix KV pool's tree
// nodes, the device's kernel runs and the engines' jobs. An Arena is a
// pool that never recycles, so per-request records cost no heap object
// each. A Queue is the ring FIFO behind every engine queue and every
// device stream's kernel queue. None is safe for concurrent use; each
// belongs to one simulation.
package arena

import "slices"

// A pool's first block holds minBlock records and each next one four
// times its predecessor's, up to maxBlock, so a pool of few records stays
// small, one of many allocates once per maxBlock records, and one that
// grows to maxBlock gets there in three steps. A first block of one
// record keeps a pool that only ever holds one record, such as the runs
// of a device that runs one kernel, at one record's bytes.
const (
	minBlock = 1
	maxBlock = 64
)

// Pool recycles T records: Get returns the record Release received most
// recently, or, when none is free, a zeroed one carved out of the pool's
// current block. A block is never copied or moved once allocated, so a
// pointer Get returns stays valid for as long as it is held, and the
// garbage collector frees a block once no pointer into it remains. A
// recycled record keeps whatever its last holder left in it, so the
// caller resets what it reads. Beyond what Reserve put there, the pool
// carves only as many records as were ever held at once (its last block
// may have room left). The zero Pool is ready to use.
type Pool[T any] struct {
	free []*T
	rest []T // the uncarved records of the current block
	size int // how many records the current block holds
}

// Reserve puts n zeroed records from one new block on the free list.
func (p *Pool[T]) Reserve(n int) {
	block := make([]T, n)
	p.free = slices.Grow(p.free, n)
	for i := range block {
		p.free = append(p.free, &block[i])
	}
}

// Get takes a record off the free list, or carves a fresh one. It leaves
// the popped slot as it is, since its record is held from now on and the
// next Release overwrites the slot: without that store, Get stays small
// enough to inline.
func (p *Pool[T]) Get() *T {
	if n := len(p.free) - 1; n >= 0 {
		x := p.free[n]
		p.free = p.free[:n]
		return x
	}
	if len(p.rest) == 0 {
		p.size = min(max(4*p.size, minBlock), maxBlock)
		p.rest = make([]T, p.size)
	}
	x := &p.rest[0]
	p.rest = p.rest[1:]
	return x
}

// Release returns x to the pool. Nothing may use x afterwards: the next
// Get hands it to another holder.
func (p *Pool[T]) Release(x *T) { p.free = append(p.free, x) }

// Arena is an append-only allocator of T records: a pool nothing is
// released to, so every record New returns is fresh and stays valid for
// as long as it is held. The zero Arena is ready to use.
type Arena[T any] struct {
	pool Pool[T]
}

// New returns a pointer to a zeroed T of its own.
func (a *Arena[T]) New() *T { return a.pool.Get() }

// Reserve makes the next n calls to New share one block, allocating it
// now unless the current block has room for all n.
func (a *Arena[T]) Reserve(n int) {
	if p := &a.pool; len(p.rest) < n {
		p.rest, p.size = make([]T, n), n
	}
}
