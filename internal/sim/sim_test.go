package sim

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var s Sim
	ran := false
	s.AtFunc(5*Millisecond, func(any) { ran = true }, nil)
	s.Run()
	if !ran {
		t.Fatal("event did not fire")
	}
	if s.Now() != 5*Millisecond {
		t.Fatalf("Now = %v, want 5ms", s.Now())
	}
}

func TestOrderingByTime(t *testing.T) {
	s := New()
	var order []int
	s.AtFunc(30, func(any) { order = append(order, 3) }, nil)
	s.AtFunc(10, func(any) { order = append(order, 1) }, nil)
	s.AtFunc(20, func(any) { order = append(order, 2) }, nil)
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestOrderingTieBreakBySequence(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.AtFunc(100, func(any) { order = append(order, i) }, nil)
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie-break order = %v, want ascending insertion order", order)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	s := New()
	var at Time
	s.AtFunc(1*Second, func(any) {
		s.AfterFunc(500*Millisecond, func(any) { at = s.Now() }, nil)
	}, nil)
	s.Run()
	if at != 1*Second+500*Millisecond {
		t.Fatalf("fired at %v, want 1.5s", at)
	}
}

func TestAfterNegativeClamped(t *testing.T) {
	s := New()
	fired := false
	s.AtFunc(10, func(any) {
		s.AfterFunc(-5, func(any) { fired = true }, nil)
	}, nil)
	s.Run()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.AtFunc(100, func(any) {
		defer func() {
			if recover() == nil {
				t.Error("want panic when scheduling in the past")
			}
		}()
		s.AtFunc(50, func(any) {}, nil)
	}, nil)
	s.Run()
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.AtFunc(10, func(any) { fired = true }, nil)
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() {
		t.Fatal("event still pending after cancel")
	}
	// Double cancel and zero-handle cancel must be no-ops.
	s.Cancel(e)
	s.Cancel(Handle{})
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var got []int
	var evs []Handle
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, s.AtFunc(Time(i*10), func(any) { got = append(got, i) }, nil))
	}
	// Cancel every third event.
	for i := 0; i < 20; i += 3 {
		s.Cancel(evs[i])
	}
	s.Run()
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 13 {
		t.Fatalf("got %d events, want 13", len(got))
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.AtFunc(at, func(any) { fired = append(fired, at) }, nil)
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=25, want 2", len(fired))
	}
	if s.Now() != 25 {
		t.Fatalf("Now = %v, want clamp to 25", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 5; i++ {
		s.AtFunc(Time(i), func(any) {
			count++
			if count == 2 {
				s.Stop()
			}
		}, nil)
	}
	s.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2 (stopped)", count)
	}
	s.Run() // resume
	if count != 5 {
		t.Fatalf("count = %d after resume, want 5", count)
	}
}

func TestFiredAndPending(t *testing.T) {
	s := New()
	s.AtFunc(1, func(any) {}, nil)
	s.AtFunc(2, func(any) {}, nil)
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Run()
	if s.Stats().Fired != 2 || s.Pending() != 0 {
		t.Fatalf("Fired = %d Pending = %d, want 2, 0", s.Stats().Fired, s.Pending())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{5 * Second, "5.000s"},
		{12 * Millisecond, "12.000ms"},
		{3 * Microsecond, "3.000µs"},
		{7, "7ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", got)
	}
	if got := FromSeconds(-1); got != 0 {
		t.Fatalf("FromSeconds(-1) = %v, want 0", got)
	}
	if got := FromSeconds(1e30); got != MaxTime {
		t.Fatalf("FromSeconds(huge) = %v, want MaxTime", got)
	}
	if got := FromSeconds(math.Inf(1)); got != MaxTime {
		t.Fatalf("FromSeconds(+Inf) = %v, want MaxTime", got)
	}
	if got := FromSeconds(math.Inf(-1)); got != 0 {
		t.Fatalf("FromSeconds(-Inf) = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromSeconds(NaN) did not panic")
		}
	}()
	FromSeconds(math.NaN())
}

// Property: for any set of event times, dispatch order is the sorted order.
func TestPropertyDispatchSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			s.AtFunc(at, func(any) { fired = append(fired, at) }, nil)
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Now never decreases across an entire run with random nested
// scheduling.
func TestPropertyMonotonicClock(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	s := New()
	last := Time(-1)
	var schedule func(depth int)
	schedule = func(depth int) {
		if s.Now() < last {
			t.Fatalf("clock went backwards: %v after %v", s.Now(), last)
		}
		last = s.Now()
		if depth <= 0 {
			return
		}
		n := rng.IntN(3)
		for i := 0; i < n; i++ {
			d := Time(rng.Int64N(int64(Second)))
			s.AfterFunc(d, func(any) { schedule(depth - 1) }, nil)
		}
	}
	for i := 0; i < 50; i++ {
		d := Time(rng.Int64N(int64(Second)))
		s.AfterFunc(d, func(any) { schedule(4) }, nil)
	}
	s.Run()
}

func BenchmarkScheduleAndRun(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	times := make([]Time, 10000)
	for i := range times {
		times[i] = Time(rng.Int64N(int64(Second)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, at := range times {
			s.AtFunc(at, func(any) {}, nil)
		}
		s.Run()
	}
}

// Stats must count every schedule, cancel and dispatch, and track the
// heap's high-water mark.
func TestLoopStats(t *testing.T) {
	s := New()
	var fired int
	e1 := s.AtFunc(10, func(any) { fired++ }, nil)
	s.AtFunc(20, func(any) { fired++ }, nil)
	s.AtFunc(30, func(any) { fired++ }, nil)
	if st := s.Stats(); st.Scheduled != 3 || st.MaxPending != 3 || st.Fired != 0 {
		t.Fatalf("pre-run stats %+v", st)
	}
	s.Cancel(e1)
	s.Run()
	st := s.Stats()
	if st.Fired != 2 || int(st.Fired) != fired {
		t.Fatalf("fired %d (callbacks %d), want 2", st.Fired, fired)
	}
	if st.Canceled != 1 || st.Scheduled != 3 || st.MaxPending != 3 {
		t.Fatalf("stats %+v", st)
	}
	// Cancelling an already-fired event must not count.
	s.Cancel(e1)
	if st := s.Stats(); st.Canceled != 1 {
		t.Fatalf("double cancel counted: %+v", st)
	}
}

// Regression: a stale Handle whose pooled Event slot has been recycled
// for an unrelated schedule must not cancel the new occupant, and must
// not bump the cancel counter.
func TestCancelRecycledSlotNoOp(t *testing.T) {
	s := New()
	stale := s.AtFunc(10, func(any) {}, nil)
	s.Run() // fires; the slot returns to the free list
	if stale.Pending() {
		t.Fatal("fired event still pending")
	}

	// The next schedule reuses the slot stale points at.
	fired := false
	fresh := s.AtFunc(20, func(any) { fired = true }, nil)
	if fresh.ev != stale.ev {
		t.Fatalf("expected slot reuse: fresh=%p stale=%p", fresh.ev, stale.ev)
	}
	before := s.Stats()
	s.Cancel(stale) // must be a no-op against the recycled slot
	if !fresh.Pending() {
		t.Fatal("stale cancel killed the recycled slot's new event")
	}
	if st := s.Stats(); st.Canceled != before.Canceled {
		t.Fatalf("stale cancel counted: %+v", st)
	}
	s.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	if st := s.Stats(); st.Fired != 2 || st.Canceled != 0 {
		t.Fatalf("stats after stale cancel: %+v", st)
	}
}

// A cancelled slot that gets recycled is equally immune to its old handle.
func TestCancelTwiceAfterRecycle(t *testing.T) {
	s := New()
	h1 := s.AtFunc(10, func(any) {}, nil)
	s.Cancel(h1)
	h2 := s.AtFunc(10, func(any) {}, nil)
	if h2.ev != h1.ev {
		t.Fatalf("expected cancelled slot to be recycled")
	}
	s.Cancel(h1) // stale: must not cancel h2, must not count
	if !h2.Pending() {
		t.Fatal("stale cancel killed recycled event")
	}
	if st := s.Stats(); st.Canceled != 1 {
		t.Fatalf("Canceled = %d, want 1", st.Canceled)
	}
}

// Property: Scheduled == Fired + Canceled + Pending at every observation
// point, across random interleavings of schedules, cancels (valid, stale,
// and double), and partial runs over the pooled loop.
func TestPropertyLoopStatsConservation(t *testing.T) {
	check := func(s *Sim) {
		st := s.Stats()
		if st.Scheduled != st.Fired+st.Canceled+int64(s.Pending()) {
			t.Fatalf("conservation violated: %+v with %d pending", st, s.Pending())
		}
	}
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 50; trial++ {
		s := New()
		var live []Handle
		for op := 0; op < 400; op++ {
			switch rng.IntN(4) {
			case 0, 1: // schedule (closure and closure-free forms)
				d := Time(rng.Int64N(int64(Millisecond)))
				if op%2 == 0 {
					live = append(live, s.AfterFunc(d, func(any) {}, nil))
				} else {
					live = append(live, s.AfterFunc(d, func(any) {}, nil))
				}
			case 2: // cancel a random handle — possibly stale or repeated
				if len(live) > 0 {
					s.Cancel(live[rng.IntN(len(live))])
				}
			case 3: // advance time, firing a random prefix
				s.RunUntil(s.Now() + Time(rng.Int64N(int64(Millisecond))))
			}
			check(s)
		}
		s.Run()
		check(s)
		if st := s.Stats(); s.Pending() != 0 && st.Fired == 0 {
			t.Fatalf("run left events pending: %+v", st)
		}
	}
}

// AtFunc must dispatch with its bound argument and order identically to At.
func TestAtFuncOrderingAndArg(t *testing.T) {
	s := New()
	var order []int
	record := func(arg any) { order = append(order, arg.(int)) }
	s.AtFunc(30, record, 3)
	s.AtFunc(10, func(any) { order = append(order, 1) }, nil)
	s.AtFunc(20, record, 2)
	s.AtFunc(20, record, 4) // same time: insertion order breaks the tie
	s.Run()
	want := []int{1, 2, 4, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
