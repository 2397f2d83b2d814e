package serve

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestQueueSteadyStateAllocatesNothing is the FIFO leak regression test
// for the engine queues: the q = q[1:] idiom they replaced strands its
// head and reallocates every cycle. Once the ring has grown to the
// queue's high-water mark, steady push/pop must allocate nothing and the
// capacity must stay put, while FIFO order holds.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	const depth = 48
	vals := make([]*int, 2*depth)
	for i := range vals {
		vals[i] = new(int)
		*vals[i] = i
	}
	var q Queue[*int]
	for i := 0; i < depth; i++ {
		q.Push(vals[i])
	}
	next := depth
	want := 0
	cycle := func() {
		if got := q.Pop(); got != vals[want%len(vals)] {
			t.Fatalf("popped %d, want %d: FIFO order broken", *got, want%len(vals))
		}
		want++
		q.Push(vals[next%len(vals)])
		next++
	}
	for i := 0; i < 10*depth; i++ {
		cycle()
	}
	capBefore := len(q.buf)
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("steady push/pop allocates %.1f times per cycle, want 0", allocs)
	}
	if len(q.buf) != capBefore || len(q.buf) > 2*depth {
		t.Fatalf("ring capacity %d (was %d) for a queue of %d: the ring is growing in steady state",
			len(q.buf), capBefore, depth)
	}
	if q.Len() != depth {
		t.Fatalf("Len = %d, want %d", q.Len(), depth)
	}
	// Draining clears every slot: nothing stays reachable from the ring.
	for q.Len() > 0 {
		q.Pop()
	}
	for i, v := range q.buf {
		if v != nil {
			t.Fatalf("slot %d still pins a popped element", i)
		}
	}
}

// TestQueueMatchesSlice checks every Queue operation against a plain
// slice over random programs, including the out-of-order edits
// (PushFront, Remove) and wraparound of the ring.
func TestQueueMatchesSlice(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewPCG(seed, 1))
		vals := make([]*int, 64)
		for i := range vals {
			vals[i] = new(int)
			*vals[i] = i
		}
		var q Queue[*int]
		var ref []*int
		for op := 0; op < 2000; op++ {
			v := vals[rng.IntN(len(vals))]
			switch k := rng.IntN(10); {
			case k < 4:
				q.Push(v)
				ref = append(ref, v)
			case k < 5:
				q.PushFront(v)
				ref = append([]*int{v}, ref...)
			case k < 8 && len(ref) > 0:
				if got := q.Pop(); got != ref[0] {
					t.Fatalf("seed %d op %d: Pop = %d, want %d", seed, op, *got, *ref[0])
				}
				ref = ref[1:]
			default:
				found := q.Remove(v)
				i := slices.Index(ref, v)
				if found != (i >= 0) {
					t.Fatalf("seed %d op %d: Remove found=%v, slice index %d", seed, op, found, i)
				}
				if i >= 0 {
					ref = slices.Delete(ref, i, i+1)
				}
			}
			if q.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, q.Len(), len(ref))
			}
			for i, want := range ref {
				if got := q.At(i); got != want {
					t.Fatalf("seed %d op %d: At(%d) = %d, want %d", seed, op, i, *got, *want)
				}
			}
			if len(ref) > 0 && q.Front() != ref[0] {
				t.Fatalf("seed %d op %d: Front mismatch", seed, op)
			}
			// Slots outside the live window hold nothing.
			live := 0
			for _, v := range q.buf {
				if v != nil {
					live++
				}
			}
			if live != q.Len() {
				t.Fatalf("seed %d op %d: %d non-nil slots for %d elements", seed, op, live, q.Len())
			}
		}
	}
}
