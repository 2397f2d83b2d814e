package sim

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// step is one observation of a program run: a dispatch (label ≥ 0) or
// the return of a RunUntil call (label −1), with the loop state after it.
type step struct {
	at      Time
	label   int
	pending int
	stats   LoopStats
}

// streamProgram is a random event program. Every scheduled event gets a
// label in scheduling order, and what a firing event does is drawn from
// a generator seeded by its label, so two runs whose dispatch orders
// agree make identical decisions. Streams register either with AtStream
// or, in the reference run, as one AtFunc per entry in index order.
type streamProgram struct {
	seed      uint64
	useStream bool

	s       *Sim
	labels  int
	handles []Handle // every cancellable schedule, in scheduling order
	log     []step
	fire    func(any)
}

const maxLabels = 400

func runStreamProgram(seed uint64, useStream bool) []step {
	p := &streamProgram{seed: seed, useStream: useStream, s: New()}
	p.fire = func(arg any) { p.dispatch(arg.(int)) }
	setup := rand.New(rand.NewPCG(seed, 1<<40))
	for range 1 + setup.IntN(4) {
		if setup.IntN(2) == 0 {
			p.stream(setup)
		} else {
			p.schedule(setup)
		}
	}
	// Drive the loop in slices: RunUntil cuts streams mid-way and
	// resumes them, and Stop from a callback returns early.
	for p.s.Pending() > 0 {
		limit := MaxTime
		if setup.IntN(3) > 0 {
			limit = p.s.Now() + Time(setup.IntN(40))
		}
		p.s.RunUntil(limit)
		p.observe(-1)
	}
	return p.log
}

func (p *streamProgram) observe(label int) {
	p.log = append(p.log, step{p.s.Now(), label, p.s.Pending(), p.s.Stats()})
}

func (p *streamProgram) next() int {
	p.labels++
	return p.labels - 1
}

// offset draws a small delay, often zero, so timestamps collide.
func offset(r *rand.Rand) Time { return Time(10 * r.IntN(4)) }

// schedule adds one cancellable event through At or AtFunc.
func (p *streamProgram) schedule(r *rand.Rand) {
	label := p.next()
	at := p.s.Now() + offset(r)
	if r.IntN(2) == 0 {
		p.handles = append(p.handles, p.s.At(at, func() { p.dispatch(label) }))
	} else {
		p.handles = append(p.handles, p.s.AtFunc(at, p.fire, label))
	}
}

// stream registers a stream of up to six entries: sorted, unsorted or
// empty, with duplicate timestamps likely.
func (p *streamProgram) stream(r *rand.Rand) {
	n := r.IntN(7)
	ts := make([]Time, n)
	labels := make([]int, n)
	for i := range ts {
		ts[i] = p.s.Now() + offset(r) + offset(r)
		labels[i] = p.next()
	}
	if r.IntN(2) == 0 {
		slices.Sort(ts)
	}
	if !p.useStream {
		for i := range ts {
			p.s.AtFunc(ts[i], p.fire, labels[i])
		}
		return
	}
	p.s.AtStream(n, func(i int) Time { return ts[i] }, func(i int) { p.dispatch(labels[i]) })
}

func (p *streamProgram) dispatch(label int) {
	p.observe(label)
	r := rand.New(rand.NewPCG(p.seed, uint64(label)))
	for range r.IntN(3) {
		if p.labels < maxLabels {
			p.schedule(r)
		}
	}
	if r.IntN(8) == 0 && p.labels < maxLabels {
		p.stream(r)
	}
	if r.IntN(3) == 0 && len(p.handles) > 0 {
		p.s.Cancel(p.handles[r.IntN(len(p.handles))])
	}
	if r.IntN(12) == 0 {
		p.s.Stop()
	}
	p.observe(label)
}

// Property: a program that registers streams dispatches the same events
// in the same order, at the same times, as the program that schedules
// every entry with AtFunc, and Pending and LoopStats agree after every
// event and every RunUntil return.
func TestPropertyStreamMatchesAtFunc(t *testing.T) {
	streamed := 0
	for seed := range uint64(500) {
		want := runStreamProgram(seed, false)
		got := runStreamProgram(seed, true)
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: step %d: stream %+v, AtFunc %+v", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: stream run has %d steps, AtFunc run %d", seed, len(got), len(want))
		}
		if len(want) > 20 {
			streamed++
		}
	}
	if streamed < 100 {
		t.Fatalf("only %d of 500 programs ran more than 20 steps", streamed)
	}
}

func TestAtStreamUnsortedStable(t *testing.T) {
	s := New()
	ts := []Time{30, 10, 30, 10, 20}
	var order []int
	s.AtStream(len(ts), func(i int) Time { return ts[i] }, func(i int) { order = append(order, i) })
	if s.Pending() != len(ts) {
		t.Fatalf("Pending = %d, want %d", s.Pending(), len(ts))
	}
	s.Run()
	if want := []int{1, 3, 4, 0, 2}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if st := s.Stats(); st != (LoopStats{Fired: 5, Scheduled: 5, MaxPending: 5}) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAtStreamInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ts := []Time{20, 5}
	s.AtStream(len(ts), func(i int) Time { return ts[i] }, func(int) {})
}

// BenchmarkRunArrivals replays 10k arrivals beside a few live
// self-rescheduling events, the shape of a trace replay: one AtFunc per
// arrival up front, or one stream.
func BenchmarkRunArrivals(b *testing.B) {
	const n, live = 10000, 8
	ts := make([]Time, n)
	for i := range ts {
		ts[i] = Time(i) * 50 * Microsecond
	}
	args := make([]any, n) // boxed once, as *Request arguments are free
	for i := range args {
		args[i] = i
	}
	end := ts[n-1]
	run := func(b *testing.B, schedule func(s *Sim, arrive func(any))) {
		b.ReportAllocs()
		for range b.N {
			s := New()
			arrivals := 0
			arrive := func(any) { arrivals++ }
			var tick func(any)
			tick = func(any) {
				if s.Now() < end {
					s.AfterFunc(170*Microsecond, tick, nil)
				}
			}
			for range live {
				s.AtFunc(0, tick, nil)
			}
			schedule(s, arrive)
			s.Run()
			if arrivals != n {
				b.Fatalf("%d arrivals fired, want %d", arrivals, n)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/arrival")
	}
	b.Run("atfunc", func(b *testing.B) {
		run(b, func(s *Sim, arrive func(any)) {
			for i, t := range ts {
				s.AtFunc(t, arrive, args[i])
			}
		})
	})
	b.Run("stream", func(b *testing.B) {
		run(b, func(s *Sim, arrive func(any)) {
			s.AtStream(n, func(i int) Time { return ts[i] }, func(i int) { arrive(args[i]) })
		})
	})
}
