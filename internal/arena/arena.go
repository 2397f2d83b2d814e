// Package arena hands out per-request records without one heap object
// per record: an Arena carves zeroed records out of blocks it never
// copies, and a Pool recycles records through a free list. Neither is
// safe for concurrent use; each belongs to one simulation.
package arena

import "slices"

// An arena's first block holds minBlock records and each next one twice
// its predecessor's, up to maxBlock, so an arena of few records stays
// small and one of many allocates once per maxBlock records.
const (
	minBlock = 8
	maxBlock = 64
)

// Arena is an append-only allocator of T records. A block is never
// copied or moved once allocated, so a pointer New returns stays valid
// for as long as it is held, and the garbage collector frees a block once
// no pointer into it remains. The zero Arena is ready to use.
type Arena[T any] struct {
	block []T // the block being filled; its records past len are unused
}

// New returns a pointer to a zeroed T of its own.
func (a *Arena[T]) New() *T {
	n := len(a.block)
	if n == cap(a.block) {
		a.block, n = make([]T, 0, min(max(2*n, minBlock), maxBlock)), 0
	}
	a.block = a.block[:n+1]
	return &a.block[n]
}

// Reserve makes the next n calls to New share one block, allocating it
// now unless the current block has room for all n.
func (a *Arena[T]) Reserve(n int) {
	if cap(a.block)-len(a.block) < n {
		a.block = make([]T, 0, n)
	}
}

// Pool recycles T records: Get returns the record Release received most
// recently, or a new zeroed one when none is free. A recycled record
// keeps whatever its last holder left in it, so the caller resets what
// it reads. Beyond what Reserve put there, the pool allocates only as
// many records as were ever held at once. The zero Pool is ready to use.
type Pool[T any] struct {
	free []*T
}

// Reserve puts n zeroed records from one new block on the free list.
func (p *Pool[T]) Reserve(n int) {
	block := make([]T, n)
	p.free = slices.Grow(p.free, n)
	for i := range block {
		p.free = append(p.free, &block[i])
	}
}

// Get takes a record off the free list, or allocates one.
func (p *Pool[T]) Get() *T {
	n := len(p.free)
	if n == 0 {
		return new(T)
	}
	x := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return x
}

// Release returns x to the pool. Nothing may use x afterwards: the next
// Get hands it to another holder.
func (p *Pool[T]) Release(x *T) { p.free = append(p.free, x) }
