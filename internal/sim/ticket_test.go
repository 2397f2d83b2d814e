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
// once its "ready" event has fired and its lane is idle. A job's start is
// a work dispatch unless the job is quiet, like a kernel start that does
// nothing but key its completion. In the eager form every job's ready is
// an AtFunc that sets a flag, and most of those find the job queued
// behind another and do nothing. In the lazy form it is a Reserve, pushed
// with AtTicket only when the job heads an idle lane, and readiness is
// Passed. The deferred form is the lazy one, except that a quiet job that
// heads an idle lane while no lane runs pushes no ready: its done goes in
// at once with AtFuncOnPass, and the first start elsewhere or touch that
// finds it unsettled commits it, if its ticket has passed, or puts it back
// behind its ticket. Beside the lanes run plain events, cancels, Stop and
// timers that move, either in place with Reschedule or with Cancel plus
// AtFunc. Late in a program, plain events and chained jobs' dones end by
// submitting one more chained job, as a decode stream's completion
// relaunches its kernel; the folded form is the deferred one, except that
// a chained job that would be deferred, and whose done would be the next
// event dispatched, runs at once with Fold. What a work dispatch does is drawn from a generator seeded
// by its label, so runs whose work dispatches agree make identical
// decisions.
type ticketProgram struct {
	t       *testing.T
	seed    uint64
	mode    ticketMode
	inPlace bool // timers move with Reschedule, not Cancel + AtFunc

	s       *Sim
	lanes   [3]ticketLane
	jobs    []ticketJob
	labels  int
	handles []Handle // plain cancellable events
	timers  []Handle // movable events; the arg is the timer's label
	log     []ticketStep
	pend    int    // the job whose start is deferred, or −1
	pendH   Handle // its done event
	chained int    // the chained job in flight, or −1

	fire, ready, done func(any)
}

// ticketMode is how a ticket program waits for its jobs' readies.
type ticketMode int

const (
	eager    ticketMode = iota // AtFunc + flag
	lazy                       // Reserve, AtTicket when heading an idle lane
	deferred                   // lazy, with AtFuncOnPass starts on an idle program
	folded                     // deferred, with Fold for a deferred start that ends its event
)

type ticketLane struct {
	queue   []int // waiting job ids, FIFO
	running int   // running job id, or −1
}

type ticketJob struct {
	lane        int
	start, stop int // labels of the job's start and done dispatches
	dur         Time
	quiet       bool // the start is no work dispatch
	ticket      Ticket
	flag        bool
}

const (
	maxJobs   = 64 // plain jobs, one bit each in ticketStep.ready
	chainJobs = 48 // chained jobs after them, which ready leaves out
)

func runTicketProgram(t *testing.T, seed uint64, mode ticketMode, inPlace bool) []ticketStep {
	p := &ticketProgram{t: t, seed: seed, mode: mode, inPlace: inPlace, s: New(), pend: -1, chained: -1}
	for i := range p.lanes {
		p.lanes[i].running = -1
	}
	p.fire = func(arg any) {
		p.dispatch(arg.(int))
		p.chain(arg.(int))
	}
	p.ready = func(arg any) { p.onReady(arg.(int)) }
	p.done = func(arg any) {
		j := arg.(int)
		p.onDone(j)
		if j == p.chained {
			p.chained = -1
			p.chain(p.jobs[j].stop)
		}
	}
	setup := rand.New(rand.NewPCG(seed, 1<<41))
	for range 1 + setup.IntN(4) {
		p.submit(setup, false)
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
	if p.mode != eager {
		return p.s.Passed(p.jobs[j].ticket)
	}
	return p.jobs[j].flag
}

func (p *ticketProgram) observe(label int) {
	var ready uint64
	for j := range p.jobs {
		if j < maxJobs && p.isReady(j) {
			ready |= 1 << j
		}
	}
	st := p.s.Stats()
	if st.Scheduled != st.Fired+st.Canceled+int64(p.s.Pending()) {
		p.t.Fatalf("seed %d: conservation violated: %+v with %d pending", p.seed, st, p.s.Pending())
	}
	p.log = append(p.log, ticketStep{p.s.Now(), label, ready, p.s.Pending(), st})
}

// submit queues a job on a random lane, ready after a small delay. last
// submits a chained job, as the last act of the event being dispatched.
func (p *ticketProgram) submit(r *rand.Rand, last bool) {
	if len(p.jobs) == maxJobs+chainJobs || !last && len(p.jobs) >= maxJobs {
		return
	}
	j := len(p.jobs)
	l := r.IntN(len(p.lanes))
	at := p.s.Now() + offset(r)
	job := ticketJob{lane: l, start: p.next(), stop: p.next(), dur: 10 + offset(r), quiet: last || r.IntN(2) == 0}
	if last {
		p.chained = j
	}
	lane := &p.lanes[l]
	lane.queue = append(lane.queue, j)
	if p.mode != eager {
		defers := p.mode >= deferred && job.quiet && p.pend < 0 && p.idle() && lane.running < 0 && len(lane.queue) == 1
		if defers && p.mode == folded && last && p.s.Fold(at, at+job.dur) {
			// The job's ready and done have passed: run the done event
			// as settle commits the start there.
			job.ticket = Ticket{at: at}
			p.jobs = append(p.jobs, job)
			lane.queue = lane.queue[1:]
			lane.running = j
			p.done(j)
			return
		}
		job.ticket = p.s.Reserve(at)
		p.jobs = append(p.jobs, job)
		switch {
		case lane.running >= 0 || len(lane.queue) > 1:
		case defers:
			p.pend = j
			p.pendH = p.s.AtFuncOnPass(job.ticket, at+job.dur, p.done, j)
		default:
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

// idle reports whether no lane runs a job.
func (p *ticketProgram) idle() bool {
	for _, lane := range p.lanes {
		if lane.running >= 0 {
			return false
		}
	}
	return true
}

// settle resolves the deferred start: once its ticket has passed the job
// has been running since then; before that it waits for its ticket again.
func (p *ticketProgram) settle() {
	j := p.pend
	if j < 0 {
		return
	}
	p.pend = -1
	lane := &p.lanes[p.jobs[j].lane]
	if p.s.Passed(p.jobs[j].ticket) {
		lane.queue = lane.queue[1:]
		lane.running = j
		return
	}
	p.s.Cancel(p.pendH)
	if p.pendH.Pending() {
		p.t.Fatalf("seed %d: job %d's cancelled done is still pending", p.seed, j)
	}
	p.s.AtTicket(p.jobs[j].ticket, p.ready, j)
}

func (p *ticketProgram) onReady(j int) {
	p.jobs[j].flag = true
	if !p.tryStart(p.jobs[j].lane) && p.mode != eager {
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
	if j == p.pend {
		p.t.Fatalf("seed %d: job %d's deferred start reached with its ticket passed", p.seed, j)
	}
	p.settle()
	lane.queue = lane.queue[1:]
	lane.running = j
	p.s.AtFunc(p.s.Now()+p.jobs[j].dur, p.done, j)
	if !p.jobs[j].quiet {
		p.dispatch(p.jobs[j].start)
	}
	return true
}

func (p *ticketProgram) onDone(j int) {
	p.settle()
	lane := &p.lanes[p.jobs[j].lane]
	lane.running = -1
	// The new head queued behind j, so its ticket was never pushed.
	if p.mode != eager && len(lane.queue) > 0 && !p.s.Passed(p.jobs[lane.queue[0]].ticket) {
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
			p.submit(r, false)
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
	if r.IntN(8) == 0 {
		p.settle()
	}
	p.observe(label)
}

// chain ends a plain event or a chained job's done. Once every plain job
// is submitted, and while no chained job is in flight, it submits, seven
// times in eight, one more quiet job as the event's last act, the way a
// decode kernel's completion relaunches it.
func (p *ticketProgram) chain(label int) {
	r := rand.New(rand.NewPCG(^p.seed, uint64(label)))
	if p.chained < 0 && len(p.jobs) >= maxJobs && r.IntN(8) > 0 {
		p.submit(r, true)
	}
}

// evented returns log with each step's counters in their evented form: a
// fold counts as the scheduled and fired event it stands for.
func evented(log []ticketStep) []ticketStep {
	out := slices.Clone(log)
	for i := range out {
		out[i].stats = out[i].stats.evented()
	}
	return out
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

// checkTicketPrograms runs seed's program in every form and fails unless
// the lazy and deferred forms do the eager form's work and the folded form
// steps exactly as the deferred one, counters in their evented form. It
// returns the program's job count, the events the lazy and deferred forms
// fire fewer than the eager one, and the folded form's folds.
func checkTicketPrograms(t *testing.T, seed uint64) (jobs, lazySaved, deferSaved, folds int) {
	ref := runTicketProgram(t, seed, eager, false)
	diffSteps(t, seed, "eager Reschedule", runTicketProgram(t, seed, eager, true), ref)
	lz := runTicketProgram(t, seed, lazy, false)
	diffSteps(t, seed, "lazy tickets", ticketWork(lz), ticketWork(ref))
	diffSteps(t, seed, "lazy Reschedule", runTicketProgram(t, seed, lazy, true), lz)
	df := runTicketProgram(t, seed, deferred, false)
	diffSteps(t, seed, "deferred starts", ticketWork(df), ticketWork(ref))
	fd := runTicketProgram(t, seed, folded, false)
	diffSteps(t, seed, "folds", evented(fd), df)
	last := len(ref) - 1
	return bitsSet(ref[last].ready), int(ref[last].stats.Fired - lz[last].stats.Fired),
		int(lz[len(lz)-1].stats.Fired - df[len(df)-1].stats.Fired), int(fd[len(fd)-1].stats.Folded)
}

// ticketSeeds is how many seeded programs the property test runs.
const ticketSeeds = 500

// Property: lazily pushed tickets do the same work at the same times as
// eager AtFunc readies, and Passed equals the eager flag at every work
// dispatch and after every RunUntil return. Deferred starts do that work
// too: each done drawn on its ticket's pass dispatches where the eager
// done, scheduled inside the ready event, does, ties included. A fold
// steps exactly as the deferred start it stands for: same work, same
// times, same Pending and the same sequence numbers after it, with the
// fold counted as one scheduled and fired event. Reschedule dispatches,
// counts and invalidates handles exactly as Cancel followed by AtFunc.
// Scheduled == Fired + Canceled + Pending holds at every step of every
// form.
func TestPropertyTicketsMatchAtFunc(t *testing.T) {
	jobs, lazySaved, deferSaved, folds := 0, 0, 0, 0
	for seed := range uint64(ticketSeeds) {
		j, l, d, f := checkTicketPrograms(t, seed)
		jobs, lazySaved, deferSaved, folds = jobs+j, lazySaved+l, deferSaved+d, folds+f
	}
	// Most readies find their lane busy; the lazy form must skip them. Of
	// the rest, the deferred form must skip some, and the folded form must
	// fold some of those.
	if jobs < 10000 || lazySaved < jobs/4 || deferSaved < jobs/200 || folds < jobs/400 {
		t.Fatalf("%d jobs, %d ready events saved lazily, %d more by deferred starts, %d folds: programs too small",
			jobs, lazySaved, deferSaved, folds)
	}
	t.Logf("%d jobs, %d ready events saved lazily, %d more by deferred starts, %d folds", jobs, lazySaved, deferSaved, folds)
}

// FuzzTicketPrograms runs the property test's check on arbitrary seeds.
func FuzzTicketPrograms(f *testing.F) {
	for seed := range uint64(ticketSeeds) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkTicketPrograms(t, seed)
	})
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
	h := s.AtFunc(10, func(any) {}, nil)
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
	s.AtFunc(10, func(any) {}, nil)
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

// An AtFuncOnPass event takes its sequence number when the loop passes its
// ticket: an event at the same time keyed before the pass dispatches
// first and one keyed after it last. A RunUntil return passes the ticket
// only once it is Passed, and a cancel before the pass draws nothing.
func TestAtFuncOnPassDrawsAtThePass(t *testing.T) {
	s := New()
	var order []string
	mark := func(arg any) { order = append(order, arg.(string)) }
	tk := s.Reserve(10)
	s.AtFuncOnPass(tk, 20, mark, "deferred")
	dropped := s.AtFuncOnPass(s.Reserve(10), 20, mark, "cancelled")
	s.RunUntil(9)
	s.AtFunc(20, mark, "before pass")
	s.Cancel(dropped)
	s.RunUntil(10)
	if !s.Passed(tk) {
		t.Fatal("ticket at the RunUntil limit not passed")
	}
	s.AtFunc(20, mark, "after pass")
	s.Run()
	if want := []string{"before pass", "deferred", "after pass"}; !slices.Equal(order, want) {
		t.Fatalf("dispatch order %q, want %q", order, want)
	}
	if st := s.Stats(); st.Scheduled != 4 || st.Fired != 3 || st.Canceled != 1 {
		t.Fatalf("stats %+v, want 4 scheduled, 3 fired, 1 canceled", st)
	}
}

func TestAtFuncOnPassPanics(t *testing.T) {
	for name, run := range map[string]func(s *Sim){
		"passed ticket": func(s *Sim) {
			tk := s.Reserve(10)
			s.RunUntil(10)
			s.AtFuncOnPass(tk, 20, func(any) {}, nil)
		},
		"before the ticket": func(s *Sim) { s.AtFuncOnPass(s.Reserve(10), 9, func(any) {}, nil) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			run(New())
		})
	}
}
