// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps virtual time as int64 nanoseconds and dispatches events
// in (time, insertion-sequence) order, so two runs with the same inputs
// produce byte-identical schedules. Everything in this repository —
// simulated GPUs, serving engines, workload arrivals — is driven by a
// single Sim instance.
//
// The event loop is the hottest path in the repository, so it avoids
// allocating per operation: fired and cancelled events return to an
// arena.Pool and are recycled by later schedules (callers hold generation-
// checked Handles, so a recycled slot cannot be cancelled by a stale
// holder), and the priority queue is a hand-rolled 4-ary heap over *Event
// (no container/heap interface boxing). Every event is one pre-bound
// func(any) and its argument: callers bind the function once (a package
// function or a field set at construction) and pass per-event state
// through the argument, so scheduling allocates no closure, and the loop
// dispatches every event with one call.
//
// The heap holds live work only. A batch of future events known up front
// — a trace's arrivals — registers as one stream with AtStream: the call
// reserves one sequence number per entry, exactly as that many AtFunc
// calls would, but only the stream's earliest entry sits in the heap. It
// is an ordinary event whose callback pushes the next entry, with its
// reserved sequence number, before it fires the current one.
// Dispatch order, Pending and LoopStats are those of the per-entry
// schedule, while heap operations stay proportional to the live events.
//
// An event that may turn out to do nothing need not be pushed at all.
// Reserve takes the (time, sequence) key an AtFunc at that time would
// have had and returns it as a Ticket; AtTicket pushes an event at exactly
// that key if the caller later finds the event has work to do, and Passed
// answers whether the eager event would already have fired. A ticket that
// is never pushed is not counted in Pending or LoopStats.
//
// An event that the eager schedule would only create when a ticket's event
// fires can skip that event too. AtFuncOnPass pushes it at once, but its
// sequence number is drawn when the loop passes the ticket — before it
// dispatches the first event keyed after the ticket, or at the RunUntil
// return that makes the ticket Passed — so it takes the number an AtFunc
// call made inside the ticket's event would have taken. Until then it
// sorts after every event at its time.
//
// An event that would be the very next one dispatched need not be pushed
// either. Fold stands in for a Reserve at a ready instant plus an
// AtFuncOnPass at t behind it, made as the last act of an event, when
// nothing else is keyed at or before t and t is within the RunUntil
// limit: it takes the two sequence numbers those calls would have drawn
// and moves the clock to t as the dispatch would, and the caller runs the
// event's work inline. Later event keys, and every tie between them, are
// those of the evented schedule. LoopStats counts the fold apart, so
// Scheduled == Fired + Canceled + Pending still holds.
//
// Reschedule re-keys a pending event in place, dispatching and counting
// exactly as a Cancel followed by a fresh schedule would.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"muxwise/internal/arena"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration constants, mirroring time.Duration but in simulation units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1e3
	Millisecond Time = 1e6
	Second      Time = 1e9
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxInt64

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Milliseconds returns t expressed in milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/1e3)
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// FromSeconds converts seconds to a simulation Time, rounding up so that
// an event scheduled at FromSeconds(d) never lands before the real-valued
// deadline. Saturates at 0 and MaxTime, and panics on NaN.
func FromSeconds(s float64) Time {
	if s > 0 {
		if ns := math.Ceil(s * 1e9); ns < float64(math.MaxInt64) {
			return Time(ns)
		}
		return MaxTime
	}
	if s <= 0 {
		return 0
	}
	panic("sim: FromSeconds(NaN)")
}

// Event is one pooled scheduling slot. Callers never hold an *Event
// directly: the scheduling methods return a Handle that remembers the
// slot's generation, so a Handle to a fired or cancelled event — whose
// slot may since have been recycled for an unrelated schedule — can
// never affect the new occupant.
type Event struct {
	at    Time
	seq   int64
	index int32  // heap index, -1 while pooled
	gen   uint32 // bumped every time the slot is released

	fn  func(any) // dispatched as fn(arg)
	arg any
}

// stream is one AtStream registration: n entries holding the reserved
// sequence numbers base..base+n-1, dispatched in (time, seq) order with
// only the next one in the heap.
type stream struct {
	sim   *Sim
	at    func(i int) Time
	fire  func(i int)
	base  int64
	order []int // dispatch order of the entries; nil when registered sorted
	pos   int   // position in dispatch order of the entry in the heap
	n     int
}

// entry returns the index of the entry at position k of dispatch order.
func (st *stream) entry(k int) int {
	if st.order == nil {
		return k
	}
	return st.order[k]
}

// Handle identifies one scheduled event. The zero Handle is valid and
// refers to no event (Cancel ignores it; Pending reports false).
type Handle struct {
	ev  *Event
	gen uint32
}

// Pending reports whether the event is still scheduled: it has neither
// fired nor been cancelled. The zero Handle is never pending.
func (h Handle) Pending() bool { return h.ev != nil && h.ev.gen == h.gen }

// Sim is a discrete-event simulator. The zero value is ready to use.
type Sim struct {
	now        Time
	events     []*Event          // 4-ary min-heap on (at, seq)
	slots      arena.Pool[Event] // fired and cancelled slots, recycled
	seq        int64             // next sequence number to hand out
	cut        int64             // keys (now, seq) with seq < cut have passed
	draws      []draw            // AtFuncOnPass events awaiting their ticket, in ticket order
	reserved   int               // stream entries with reserved seqs, not yet in the heap
	stopped    bool
	limit      Time // the running RunUntil's limit; 0 outside RunUntil, which leaves no room to fold
	scheduled  int64
	fired      int64
	canceled   int64
	folded     int64
	maxPending int
}

// LoopStats snapshots the event loop's lifetime counters — the raw
// material for events/sec and ns/event perf tracking. A stream entry
// counts as scheduled from its AtStream call, as if each entry had been
// scheduled on its own, so the counters do not depend on how a caller
// registers its events. A Ticket counts only once AtTicket pushes it; one
// that is never pushed is not counted at all. An AtFuncOnPass event counts
// as scheduled from the call, like AtFunc, whether or not its ticket has
// passed, and as canceled if it is cancelled before the pass. Reschedule
// counts as one cancel plus one schedule. A Fold counts in Folded alone:
// the evented schedule it stands for would have counted it once in
// Scheduled and once in Fired, and MaxPending already counts it as that
// schedule's push would have. Scheduled == Fired + Canceled + Pending
// holds at every instant.
type LoopStats struct {
	// Fired counts events dispatched.
	Fired int64 `json:"fired"`
	// Scheduled counts events ever scheduled (fired or not).
	Scheduled int64 `json:"scheduled"`
	// Canceled counts events removed before firing.
	Canceled int64 `json:"canceled"`
	// MaxPending is the high-water mark of Pending.
	MaxPending int `json:"max_pending"`
	// Folded counts events run inline by Fold instead of dispatched.
	Folded int64 `json:"folded,omitempty"`
}

// Stats returns the loop's counters so far.
func (s *Sim) Stats() LoopStats {
	return LoopStats{Fired: s.fired, Scheduled: s.scheduled, Canceled: s.canceled, MaxPending: s.maxPending, Folded: s.folded}
}

// New returns a fresh simulator positioned at time zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Pending returns the number of scheduled, not-yet-fired events,
// counting every stream entry that has not fired.
func (s *Sim) Pending() int { return len(s.events) + s.reserved }

// checkTime panics when t lies before the current time.
func (s *Sim) checkTime(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v which is before now %v", t, s.now))
	}
}

// alloc takes a slot and keys it for scheduling at t.
func (s *Sim) alloc(t Time) *Event {
	s.checkTime(t)
	e := s.slots.Get()
	e.at = t
	e.seq = s.seq
	s.seq++
	s.scheduled++
	return e
}

// push inserts the keyed slot into the heap.
func (s *Sim) push(e *Event) {
	e.index = int32(len(s.events))
	s.events = append(s.events, e)
	s.up(int(e.index))
	if p := s.Pending(); p > s.maxPending {
		s.maxPending = p
	}
}

// release returns a removed slot to the pool, invalidating every
// Handle that points at it.
func (s *Sim) release(e *Event) {
	e.gen++
	e.index = -1
	e.fn = nil
	e.arg = nil
	s.slots.Release(e)
}

// AtFunc schedules fn(arg) to run at absolute time t. Scheduling in the
// past (t < Now) panics: it always indicates a logic error in the caller.
func (s *Sim) AtFunc(t Time, fn func(any), arg any) Handle {
	e := s.alloc(t)
	e.fn = fn
	e.arg = arg
	s.push(e)
	return Handle{ev: e, gen: e.gen}
}

// AtStream schedules fire(i) at time at(i) for every i in [0, n). It
// reserves n consecutive sequence numbers, entry i taking the i-th, so
// the entries dispatch exactly where n AtFunc calls in index order would
// have put them. Only the earliest unfired entry is held in the heap;
// Pending and LoopStats count every unfired entry.
//
// at must return the same time for an index on every call; it is read
// once per entry here and once when the entry enters the heap. Entries
// sorted by time, the usual case for a trace's arrivals, need no extra
// state; unsorted ones are stably sorted by time once, here. Entries
// have no Handles and cannot be cancelled. An entry before Now panics.
func (s *Sim) AtStream(n int, at func(i int) Time, fire func(i int)) {
	if n <= 0 {
		return
	}
	sorted := true
	prev := at(0)
	s.checkTime(prev)
	for i := 1; i < n; i++ {
		t := at(i)
		s.checkTime(t)
		if t < prev {
			sorted = false
		}
		prev = t
	}
	st := &stream{sim: s, at: at, fire: fire, base: s.seq, n: n}
	if !sorted {
		st.order = make([]int, n)
		for i := range st.order {
			st.order[i] = i
		}
		slices.SortStableFunc(st.order, func(a, b int) int { return cmp.Compare(at(a), at(b)) })
	}
	s.seq += int64(n)
	s.scheduled += int64(n)
	s.reserved += n - 1
	st.push()
}

// push puts the entry at st.pos into the heap under its reserved key.
func (st *stream) push() {
	i := st.entry(st.pos)
	e := st.sim.slots.Get()
	e.at = st.at(i)
	e.seq = st.base + int64(i)
	e.fn = fireStream
	e.arg = st
	st.sim.push(e)
}

// fireStream is a stream entry's callback: it pushes the stream's next
// entry, if any, then fires the current one.
func fireStream(arg any) {
	st := arg.(*stream)
	i := st.entry(st.pos)
	if st.pos++; st.pos < st.n {
		st.sim.reserved--
		st.push()
	}
	st.fire(i)
}

// Ticket is a reserved event key: the (time, sequence) position an
// AtFunc call at that time would have taken.
type Ticket struct {
	at  Time
	seq int64
}

// Reserve takes the next sequence number for an event at t without
// scheduling anything: the returned Ticket holds the key AtFunc(t, …)
// would have used here. Pushing it later with AtTicket dispatches the
// event exactly where the eager AtFunc would have; leaving it unpushed
// costs nothing. Reserving in the past (t < Now) panics.
func (s *Sim) Reserve(t Time) Ticket {
	s.checkTime(t)
	tk := Ticket{at: t, seq: s.seq}
	s.seq++
	return tk
}

// AtTicket schedules fn(arg) at tk's reserved key. Pushing a ticket that
// has passed panics: its slot in the dispatch order is already behind the
// loop. Pushing one ticket twice is a caller error the loop cannot catch.
func (s *Sim) AtTicket(tk Ticket, fn func(any), arg any) Handle {
	if s.Passed(tk) {
		panic(fmt.Sprintf("sim: ticket at %v has already passed (now %v)", tk.at, s.now))
	}
	e := s.slots.Get()
	e.at = tk.at
	e.seq = tk.seq
	e.fn = fn
	e.arg = arg
	s.scheduled++
	s.push(e)
	return Handle{ev: e, gen: e.gen}
}

// At returns the time tk is keyed at.
func (tk Ticket) At() Time { return tk.at }

// before reports whether tk's key sorts before the key (at, seq).
func (tk Ticket) before(at Time, seq int64) bool {
	return tk.at < at || tk.at == at && tk.seq < seq
}

// undrawn is the sequence number of an AtFuncOnPass event whose ticket has
// not passed. Every number drawn before the pass is smaller than the one
// the event will take, so it sorts after all of them until then.
const undrawn = math.MaxInt64

// draw is an AtFuncOnPass event waiting for the loop to pass its ticket.
type draw struct {
	tk Ticket
	e  *Event
}

// AtFuncOnPass schedules fn(arg) at t, keyed as if AtFunc(t, fn, arg) were
// called inside an event pushed at tk: the event's sequence number is
// drawn when the loop passes tk, before it dispatches the first event
// keyed after tk or when a RunUntil return makes tk Passed. It stands in
// for an event at tk whose only work would be that AtFunc call. It
// returns a Handle at once; Cancel before the pass draws nothing.
// Deferring behind a ticket that has passed, or to a time before the
// ticket's, panics.
func (s *Sim) AtFuncOnPass(tk Ticket, t Time, fn func(any), arg any) Handle {
	if s.Passed(tk) {
		panic(fmt.Sprintf("sim: ticket at %v has already passed (now %v)", tk.at, s.now))
	}
	if t < tk.at {
		panic(fmt.Sprintf("sim: deferring to %v, before the ticket at %v", t, tk.at))
	}
	e := s.slots.Get()
	e.at = t
	e.seq = undrawn
	e.fn = fn
	e.arg = arg
	s.scheduled++
	i := len(s.draws)
	s.draws = append(s.draws, draw{})
	for ; i > 0 && tk.before(s.draws[i-1].tk.at, s.draws[i-1].tk.seq); i-- {
		s.draws[i] = s.draws[i-1]
	}
	s.draws[i] = draw{tk: tk, e: e}
	s.push(e)
	return Handle{ev: e, gen: e.gen}
}

// drawTo gives every waiting AtFuncOnPass event whose ticket sorts before
// (at, seq) its sequence number, in ticket order. A drawn number only
// lowers the event's key, so it moves up the heap. Entries left behind the
// live window need no clearing: event slots are pooled for the Sim's life.
func (s *Sim) drawTo(at Time, seq int64) {
	n := 0
	for _, d := range s.draws {
		if !d.tk.before(at, seq) {
			break
		}
		d.e.seq = s.seq
		s.seq++
		s.up(int(d.e.index))
		n++
	}
	switch n {
	case 0:
	case len(s.draws):
		s.draws = s.draws[:0]
	default:
		s.draws = s.draws[:copy(s.draws, s.draws[n:])]
	}
}

// dropDraw forgets e's wait for its ticket, for a cancel or re-key before
// the pass.
func (s *Sim) dropDraw(e *Event) {
	for i, d := range s.draws {
		if d.e == e {
			s.draws = slices.Delete(s.draws, i, i+1)
			return
		}
	}
}

// Horizon returns the earliest instant a Fold cannot reach: the key time
// of the heap's earliest event, capped just past the RunUntil limit (1
// outside RunUntil), or 0 once Stop has been called. A fold needs
// t < Horizon().
func (s *Sim) Horizon() Time {
	if s.stopped {
		return 0
	}
	h := MaxTime
	if len(s.events) > 0 {
		h = s.events[0].at
	}
	if s.limit < h {
		h = s.limit + 1
	}
	return h
}

// Fold stands in for Reserve(ready) followed by AtFuncOnPass(ticket, t,
// …), called as the last act of the event being dispatched, when the
// deferred event would be the next one dispatched. It reports false,
// having changed nothing, unless now ≤ ready < t < Horizon(). Otherwise
// it draws the ticket's sequence number, then the deferred event's where
// the loop would pass the ticket, in ticket order with every other
// waiting AtFuncOnPass event whose ticket is keyed by t; raises
// MaxPending as that event's push would have; moves Now to t with t's key
// passed, as its dispatch would; and counts one Folded. The caller then
// does the event's work itself.
func (s *Sim) Fold(ready, t Time) bool {
	if ready < s.now || t <= ready || t >= s.Horizon() {
		return false
	}
	tk := s.seq
	s.seq++
	if p := s.Pending() + 1; p > s.maxPending {
		s.maxPending = p
	}
	s.drawTo(ready, tk)
	seq := s.seq
	s.seq++
	s.drawTo(t, undrawn)
	s.now = t
	s.cut = seq + 1
	s.folded++
	return true
}

// Passed reports whether tk's key is at or before the key of the event
// being dispatched — whether an event pushed at tk would already have
// fired. Between RunUntil calls, every ticket keyed at or before Now that
// was reserved before the return counts as passed, unless Stop cut the
// run short with events still due at Now.
func (s *Sim) Passed(tk Ticket) bool {
	return tk.at < s.now || tk.at == s.now && tk.seq < s.cut
}

// AfterFunc schedules fn(arg) to run d after the current time, clamping
// negative delays to zero.
func (s *Sim) AfterFunc(d Time, fn func(any), arg any) Handle {
	if d < 0 {
		d = 0
	}
	return s.AtFunc(s.now+d, fn, arg)
}

// Cancel removes a scheduled event. Cancelling a fired or already
// cancelled event — including one whose pooled slot has since been
// recycled for a different schedule — is a no-op: the handle's
// generation no longer matches the slot's.
func (s *Sim) Cancel(h Handle) {
	if !h.Pending() {
		return
	}
	if h.ev.seq == undrawn {
		s.dropDraw(h.ev)
	}
	s.remove(int(h.ev.index))
	s.release(h.ev)
	s.canceled++
}

// Reschedule moves the pending event h to time t and returns its new
// Handle. Dispatch position, LoopStats and the invalidation of h are
// exactly those of Cancel(h) followed by a fresh schedule of the same
// callback at t, but the event is re-keyed in place with one heap
// fix-up. Rescheduling an event that is not pending, or to a time before
// Now, panics.
func (s *Sim) Reschedule(h Handle, t Time) Handle {
	if !h.Pending() {
		panic("sim: rescheduling an event that is not pending")
	}
	s.checkTime(t)
	e := h.ev
	if e.seq == undrawn {
		s.dropDraw(e)
	}
	e.gen++
	e.at = t
	e.seq = s.seq
	s.seq++
	s.canceled++
	s.scheduled++
	s.down(int(e.index))
	s.up(int(e.index))
	return Handle{ev: e, gen: e.gen}
}

// Stop makes the current Run invocation return after the in-flight event
// completes. Pending events stay queued.
func (s *Sim) Stop() { s.stopped = true }

// Run dispatches events until the queue is empty or Stop is called.
func (s *Sim) Run() { s.RunUntil(MaxTime) }

// RunUntil dispatches events with time ≤ limit. After it returns, Now is
// the time of the last dispatched event (or limit, if any events remain
// beyond it), and the simulator can be resumed by calling RunUntil again.
func (s *Sim) RunUntil(limit Time) {
	s.stopped = false
	s.limit = limit
	for len(s.events) > 0 && !s.stopped {
		next := s.events[0]
		if next.at > limit {
			if s.now <= limit {
				// Everything keyed at or before limit has fired.
				s.now = limit
				s.drawTo(limit, undrawn)
				s.cut = s.seq
			}
			s.limit = 0
			return
		}
		if len(s.draws) > 0 && s.draws[0].tk.before(next.at, next.seq) {
			// Two undrawn events at one time may swap at the head.
			s.drawTo(next.at, next.seq)
			next = s.events[0]
		}
		s.popMin()
		s.now = next.at
		s.cut = next.seq + 1
		s.fired++
		// Copy the callback out and recycle the slot before dispatching,
		// so events the callback schedules can reuse it immediately.
		fn, arg := next.fn, next.arg
		s.release(next)
		fn(arg)
	}
	s.limit = 0
	if len(s.events) == 0 {
		if s.now < limit && limit < MaxTime {
			s.now = limit
		}
		s.cut = s.seq
	}
}

// The priority queue is a 4-ary indexed min-heap on (at, seq): same
// dispatch order as any binary heap over the same strict total order,
// with a shallower tree (fewer cache misses per push/pop) and no
// interface boxing.

// less orders events by (at, seq).
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// popMin removes the heap root.
func (s *Sim) popMin() {
	h := s.events
	n := len(h) - 1
	h[0] = h[n]
	h[0].index = 0
	h[n] = nil
	s.events = h[:n]
	if n > 0 {
		s.down(0)
	}
}

// remove deletes the event at heap index i.
func (s *Sim) remove(i int) {
	h := s.events
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
		h[i].index = int32(i)
	}
	h[n] = nil
	s.events = h[:n]
	if i < n {
		s.down(i)
		s.up(i)
	}
}

// up restores the heap property from index i toward the root.
func (s *Sim) up(i int) {
	h := s.events
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = e
	e.index = int32(i)
}

// down restores the heap property from index i toward the leaves.
func (s *Sim) down(i int) {
	h := s.events
	n := len(h)
	e := h[i]
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		// Smallest of up to four children.
		min := c
		for k := c + 1; k < c+4 && k < n; k++ {
			if less(h[k], h[min]) {
				min = k
			}
		}
		if !less(h[min], e) {
			break
		}
		h[i] = h[min]
		h[i].index = int32(i)
		i = min
	}
	h[i] = e
	e.index = int32(i)
}
