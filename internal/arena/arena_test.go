package arena

import (
	"runtime"
	"testing"
	"unsafe"
)

type rec struct {
	id   int
	next *rec
}

// Every record New returns is zeroed, distinct and stays where it is:
// writes through earlier pointers survive any number of later News.
func TestArenaPointersStayValid(t *testing.T) {
	var a Arena[rec]
	var got []*rec
	for i := range 1000 {
		r := a.New()
		if *r != (rec{}) {
			t.Fatalf("record %d is not zeroed: %+v", i, *r)
		}
		r.id = i
		if i > 0 {
			r.next = got[i-1]
		}
		got = append(got, r)
	}
	seen := map[*rec]bool{}
	for i, r := range got {
		if r.id != i || (i > 0 && r.next != got[i-1]) {
			t.Fatalf("record %d reads %+v after later allocations", i, *r)
		}
		if seen[r] {
			t.Fatalf("record %d shares its address with an earlier one", i)
		}
		seen[r] = true
	}
}

// Blocks grow fourfold from minBlock to maxBlock, so 1,000 records take
// the growing blocks and then one per maxBlock records; Reserve puts the
// next n records in one block.
func TestArenaBlocks(t *testing.T) {
	const n = 1000
	var a Arena[rec]
	allocs := testing.AllocsPerRun(1, func() {
		a = Arena[rec]{}
		for range n {
			a.New()
		}
	})
	if want := blocksFor(n); allocs != float64(want) {
		t.Fatalf("%d records took %v allocations, want %d", n, allocs, want)
	}

	allocs = testing.AllocsPerRun(1, func() {
		a = Arena[rec]{}
		a.Reserve(n)
		for range n {
			a.New()
		}
	})
	if allocs != 1 {
		t.Fatalf("%d reserved records took %v allocations, want 1", n, allocs)
	}
}

// A pool hands back the record released last, takes a fresh zeroed
// record only when it has none free, and so cycles through a steady
// working set without allocating.
func TestPoolRecycles(t *testing.T) {
	var p Pool[rec]
	a, b := p.Get(), p.Get()
	if a == b {
		t.Fatal("two live records share an address")
	}
	p.Release(a)
	p.Release(b)
	if got := p.Get(); got != b {
		t.Fatal("Get did not return the record released last")
	}
	if got := p.Get(); got != a {
		t.Fatal("Get did not return the remaining free record")
	}
	a.id, b.id = 1, 2
	c := p.Get()
	if c == a || c == b || *c != (rec{}) {
		t.Fatalf("with none free, Get returned %+v, want a fresh zeroed record", *c)
	}
	p.Release(c)
	p.Release(a)
	p.Release(b)
	cycle := func() {
		x, y := p.Get(), p.Get()
		p.Release(y)
		p.Release(x)
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("a steady get/release cycle allocates %v per run, want 0", allocs)
	}
}

// A reserved pool hands out its reservation, distinct zeroed records,
// with no allocation.
func TestPoolReserve(t *testing.T) {
	const n = 100
	var p Pool[rec]
	p.Reserve(n)
	seen := make(map[*rec]bool, n)
	allocs := testing.AllocsPerRun(1, func() {
		for range n / 2 {
			r := p.Get()
			if *r != (rec{}) || seen[r] {
				t.Fatalf("reserved record %p is reused or not zeroed", r)
			}
			seen[r] = true
		}
	})
	if allocs != 0 {
		t.Fatalf("%d reserved records took %v allocations, want 0", n, allocs)
	}
}

// blocksFor returns how many blocks hold n records carved one at a time:
// four growing ones (1, 4, 16 and 64 records) for the first 85, then one
// per maxBlock.
func blocksFor(n int) int {
	blocks, size := 0, minBlock
	for ; n > 0 && size <= maxBlock; size *= 4 {
		n -= size
		blocks++
	}
	return blocks + (max(n, 0)+maxBlock-1)/maxBlock
}

// bytesPerRun returns the bytes f allocates in one call, as
// testing.AllocsPerRun counts its allocations.
func bytesPerRun(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A pool that only ever holds one record, as a device that runs one
// kernel holds one run, allocates that record alone: its first block is
// one record, not a block sized for many.
func TestPoolOfOneAllocatesOnce(t *testing.T) {
	var p Pool[rec]
	get := func() {
		p = Pool[rec]{}
		p.Get()
	}
	if allocs := testing.AllocsPerRun(1, get); allocs != 1 {
		t.Fatalf("a pool's first record took %v allocations, want 1", allocs)
	}
	if b := bytesPerRun(get); b != uint64(unsafe.Sizeof(rec{})) {
		t.Fatalf("a pool's first record took %d bytes, want one %d-byte record", b, unsafe.Sizeof(rec{}))
	}
}

// Fresh records come from the pool's blocks, as an arena's do, not from
// one allocation each, and each is zeroed and distinct.
func TestPoolFreshRecordsShareBlocks(t *testing.T) {
	const n = 1000
	var p Pool[rec]
	seen := make(map[*rec]bool, n)
	allocs := testing.AllocsPerRun(1, func() {
		p = Pool[rec]{}
		clear(seen)
		for range n {
			r := p.Get()
			if *r != (rec{}) || seen[r] {
				t.Fatalf("fresh record %p is reused or not zeroed", r)
			}
			seen[r] = true
			r.id = 1
		}
	})
	if want := blocksFor(n); allocs != float64(want) {
		t.Fatalf("%d fresh records took %v allocations, want %d", n, allocs, want)
	}
}
