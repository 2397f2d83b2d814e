package sim

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// ticketStep is one observation of a ticket program: a dispatch that did
// work (label ≥ 0) or the return of a RunUntil call (label −1), with
// which jobs were ready at that point and the loop state.
type ticketStep struct {
	at      Time
	label   int
	ready   uint64 // bit j: job j's launch is ready
	pending int
	stats   LoopStats
}

// ticketProgram is a random program over lanes that run jobs one at a
// time in FIFO order, the shape of the GPU's partitions: a job may start
// once its "ready" event has fired and its lane is idle. In the eager
// form every job's ready is an AtFunc that sets a flag, and most of those
// find the job queued behind another and do nothing. In the lazy form it
// is a Reserve, pushed with AtTicket only when the job heads an idle lane,
// and readiness is Passed. Beside the lanes run plain events, cancels,
// Stop and timers that move, either in place with Reschedule or with
// Cancel plus AtFunc. What a work dispatch does is drawn from a generator
// seeded by its label, so runs whose work dispatches agree make identical
// decisions.
type ticketProgram struct {
	t       *testing.T
	seed    uint64
	lazy    bool // readies are Reserve + AtTicket, not AtFunc + flag
	inPlace bool // timers move with Reschedule, not Cancel + AtFunc

	s       *Sim
	lanes   [3]ticketLane
	jobs    []ticketJob
	labels  int
	handles []Handle // plain cancellable events
	timers  []Handle // movable events; the arg is the timer's label
	log     []ticketStep

	fire, ready, done func(any)
}

type ticketLane struct {
	queue   []int // waiting job ids, FIFO
	running int   // running job id, or −1
}

type ticketJob struct {
	lane        int
	start, stop int // labels of the job's start and done dispatches
	dur         Time
	ticket      Ticket
	flag        bool
}

const maxJobs = 64

func runTicketProgram(t *testing.T, seed uint64, lazy, inPlace bool) []ticketStep {
	p := &ticketProgram{t: t, seed: seed, lazy: lazy, inPlace: inPlace, s: New()}
	for i := range p.lanes {
		p.lanes[i].running = -1
	}
	p.fire = func(arg any) { p.dispatch(arg.(int)) }
	p.ready = func(arg any) { p.onReady(arg.(int)) }
	p.done = func(arg any) { p.onDone(arg.(int)) }
	setup := rand.New(rand.NewPCG(seed, 1<<41))
	for range 1 + setup.IntN(4) {
		p.submit(setup)
	}
	p.schedule(setup)
	p.timer(setup)
	for p.s.Pending() > 0 {
		limit := MaxTime
		if setup.IntN(3) > 0 {
			limit = p.s.Now() + Time(setup.IntN(40))
		}
		p.s.RunUntil(limit)
		p.observe(-1)
	}
	for j, job := range p.jobs {
		if !p.isReady(j) || p.lanes[job.lane].running >= 0 || len(p.lanes[job.lane].queue) > 0 {
			t.Fatalf("seed %d: job %d never ran", seed, j)
		}
	}
	return p.log
}

func (p *ticketProgram) next() int {
	p.labels++
	return p.labels - 1
}

func (p *ticketProgram) isReady(j int) bool {
	if p.lazy {
		return p.s.Passed(p.jobs[j].ticket)
	}
	return p.jobs[j].flag
}

func (p *ticketProgram) observe(label int) {
	var ready uint64
	for j := range p.jobs {
		if p.isReady(j) {
			ready |= 1 << j
		}
	}
	st := p.s.Stats()
	if st.Scheduled != st.Fired+st.Canceled+int64(p.s.Pending()) {
		p.t.Fatalf("seed %d: conservation violated: %+v with %d pending", p.seed, st, p.s.Pending())
	}
	p.log = append(p.log, ticketStep{p.s.Now(), label, ready, p.s.Pending(), st})
}

// submit queues a job on a random lane, ready after a small delay.
func (p *ticketProgram) submit(r *rand.Rand) {
	if len(p.jobs) == maxJobs {
		return
	}
	j := len(p.jobs)
	l := r.IntN(len(p.lanes))
	at := p.s.Now() + offset(r)
	job := ticketJob{lane: l, start: p.next(), stop: p.next(), dur: 1 + offset(r)}
	lane := &p.lanes[l]
	lane.queue = append(lane.queue, j)
	if p.lazy {
		job.ticket = p.s.Reserve(at)
		p.jobs = append(p.jobs, job)
		if lane.running < 0 && len(lane.queue) == 1 {
			p.s.AtTicket(job.ticket, p.ready, j)
		}
		return
	}
	p.jobs = append(p.jobs, job)
	p.s.AtFunc(at, p.ready, j)
}

// schedule adds one cancellable plain event.
func (p *ticketProgram) schedule(r *rand.Rand) {
	p.handles = append(p.handles, p.s.AtFunc(p.s.Now()+offset(r), p.fire, p.next()))
}

// timer adds one movable event.
func (p *ticketProgram) timer(r *rand.Rand) {
	p.timers = append(p.timers, p.s.AtFunc(p.s.Now()+offset(r), p.fire, p.next()))
}

// move re-keys a pending timer at a new time; the stale handle must then
// be dead, so cancelling it changes nothing.
func (p *ticketProgram) move(r *rand.Rand) {
	i := r.IntN(len(p.timers))
	h := p.timers[i]
	at := p.s.Now() + offset(r)
	if !h.Pending() {
		return
	}
	if p.inPlace {
		p.timers[i] = p.s.Reschedule(h, at)
	} else {
		label := h.ev.arg
		p.s.Cancel(h)
		p.timers[i] = p.s.AtFunc(at, p.fire, label)
	}
	before := p.s.Stats()
	p.s.Cancel(h)
	if h.Pending() || !p.timers[i].Pending() || p.s.Stats() != before {
		p.t.Fatalf("seed %d: the moved timer's old handle is still live", p.seed)
	}
}

func (p *ticketProgram) onReady(j int) {
	p.jobs[j].flag = true
	if !p.tryStart(p.jobs[j].lane) && p.lazy {
		p.t.Fatalf("seed %d: job %d's pushed ticket fired with nothing to start", p.seed, j)
	}
}

// tryStart starts the lane's head job if the lane is idle and the job is
// ready.
func (p *ticketProgram) tryStart(l int) bool {
	lane := &p.lanes[l]
	if lane.running >= 0 || len(lane.queue) == 0 || !p.isReady(lane.queue[0]) {
		return false
	}
	j := lane.queue[0]
	lane.queue = lane.queue[1:]
	lane.running = j
	p.s.AtFunc(p.s.Now()+p.jobs[j].dur, p.done, j)
	p.dispatch(p.jobs[j].start)
	return true
}

func (p *ticketProgram) onDone(j int) {
	lane := &p.lanes[p.jobs[j].lane]
	lane.running = -1
	// The new head queued behind j, so its ticket was never pushed.
	if p.lazy && len(lane.queue) > 0 && !p.s.Passed(p.jobs[lane.queue[0]].ticket) {
		h := lane.queue[0]
		p.s.AtTicket(p.jobs[h].ticket, p.ready, h)
	}
	p.dispatch(p.jobs[j].stop)
	p.tryStart(p.jobs[j].lane)
}

func (p *ticketProgram) dispatch(label int) {
	p.observe(label)
	r := rand.New(rand.NewPCG(p.seed, uint64(label)))
	if p.labels < maxLabels {
		for range r.IntN(3) {
			p.submit(r)
		}
		if r.IntN(2) == 0 {
			p.schedule(r)
		}
		if r.IntN(6) == 0 {
			p.timer(r)
		}
	}
	if r.IntN(3) == 0 && len(p.handles) > 0 {
		p.s.Cancel(p.handles[r.IntN(len(p.handles))])
	}
	for range r.IntN(3) {
		p.move(r)
	}
	if r.IntN(12) == 0 {
		p.s.Stop()
	}
	p.observe(label)
}

// ticketWork keeps what the eager and lazy forms must agree on: which
// work dispatches happen, when, and which jobs are ready at each.
func ticketWork(log []ticketStep) []ticketStep {
	out := slices.Clone(log)
	for i := range out {
		out[i].pending, out[i].stats = 0, LoopStats{}
	}
	return out
}

func diffSteps(t *testing.T, seed uint64, what string, got, want []ticketStep) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("seed %d: %s: step %d: %+v, reference %+v", seed, what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("seed %d: %s: %d steps, reference %d", seed, what, len(got), len(want))
	}
}

// Property: lazily pushed tickets do the same work at the same times as
// eager AtFunc readies, and Passed equals the eager flag at every work
// dispatch and after every RunUntil return. Reschedule dispatches, counts
// and invalidates handles exactly as Cancel followed by AtFunc.
// Scheduled == Fired + Canceled + Pending holds at every step of every
// form.
func TestPropertyTicketsMatchAtFunc(t *testing.T) {
	saved, jobs := 0, 0
	for seed := range uint64(500) {
		ref := runTicketProgram(t, seed, false, false)
		diffSteps(t, seed, "eager Reschedule", runTicketProgram(t, seed, false, true), ref)
		lazy := runTicketProgram(t, seed, true, false)
		diffSteps(t, seed, "lazy tickets", ticketWork(lazy), ticketWork(ref))
		diffSteps(t, seed, "lazy Reschedule", runTicketProgram(t, seed, true, true), lazy)
		last := len(ref) - 1
		saved += int(ref[last].stats.Fired - lazy[last].stats.Fired)
		jobs += bitsSet(ref[last].ready)
	}
	// Most readies find their lane busy; the lazy form must skip them.
	if jobs < 10000 || saved < jobs/4 {
		t.Fatalf("%d jobs, %d ready events saved: programs too small", jobs, saved)
	}
}

func bitsSet(v uint64) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func TestRescheduleNotPendingPanics(t *testing.T) {
	s := New()
	h := s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Reschedule(h, 20)
}

func TestAtTicketPassedPanics(t *testing.T) {
	s := New()
	tk := s.Reserve(10)
	s.At(10, func() {})
	s.Run()
	if !s.Passed(tk) {
		t.Fatal("ticket before the last dispatch not passed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.AtTicket(tk, func(any) {}, nil)
}
