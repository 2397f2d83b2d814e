package arena

import "testing"

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

// Blocks double from minBlock to maxBlock, so 1,000 records take three
// growing blocks and then one per maxBlock records; Reserve puts the next
// n records in one block.
func TestArenaBlocks(t *testing.T) {
	const n = 1000
	var a Arena[rec]
	allocs := testing.AllocsPerRun(1, func() {
		a = Arena[rec]{}
		for range n {
			a.New()
		}
	})
	grown := minBlock + 2*minBlock + 4*minBlock
	if want := 3 + (n-grown+maxBlock-1)/maxBlock; allocs != float64(want) {
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

// A pool hands back the record released last, allocates only when it
// has none free, and so cycles through a steady working set without
// allocating.
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
