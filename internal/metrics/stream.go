package metrics

import (
	"fmt"
	"slices"

	"muxwise/internal/sim"
)

// Stream records the tokens of one continuous-batching decode loop at
// one call per iteration. Every member of an iteration emits a token at
// the same instant, and every member carried over from the iteration
// before has the same gap, so Step logs one shared run for all of them
// and leaves their records alone; only a member's first step, which has
// a gap of its own (or is its first token), is logged per request.
//
// A member's tokens, lastToken, maxGap and tbtN are filled in from the
// stream's iteration log when it finishes or is aborted, and before every
// reader of per-request state. The log keeps
// each iteration's gap and shared run back to the oldest member's first
// step, so Abort can take a member's samples out of the shared runs it
// was counted in, exactly.
//
// While a request is a member, its tokens come only from Step: Token
// for it panics.
type Stream struct {
	r       *Recorder
	members []*reqRec // carried over into the next step, in no order
	waiting []*reqRec // joined since the last step, in join order

	// iters[i] is iteration base+i. Iterations are numbered from 0 and
	// logged only when they credit a token; lastAt is the newest one's
	// time.
	iters  []iteration
	base   int
	lastAt sim.Time
}

// iteration is one logged step: the gap of the members it carried over
// and the position of their shared run (-1 if none).
type iteration struct {
	gap sim.Time
	run int32
}

// minIters is the iteration log's first capacity.
const minIters = 256

// Member is a request's place in a Stream. The zero Member, of a request
// the recorder did not know at Join, takes no tokens.
type Member struct{ rec *reqRec }

// NewStream returns a decode stream that records into r.
func (r *Recorder) NewStream() *Stream {
	s := &Stream{r: r}
	r.streams = append(r.streams, s)
	return s
}

// Join adds request id to the stream: from the next Step on it takes one
// token per step. A request belongs to at most one stream at a time.
// Unknown requests and halted recorders give the zero Member.
func (s *Stream) Join(id int) Member {
	rec, ok := s.r.reqs[id]
	if !ok || s.r.halted {
		return Member{}
	}
	if rec.st != nil {
		panic(fmt.Sprintf("metrics: request %d joined a stream while in one", id))
	}
	rec.st, rec.slot = s, -1
	s.waiting = append(s.waiting, rec)
	return Member{rec}
}

// Step records one iteration at at: every member takes one token. The
// members carried over from the last step share one run; each member
// that joined since takes its token as Token would.
func (s *Stream) Step(at sim.Time) {
	r := s.r
	if r.halted || len(s.members)+len(s.waiting) == 0 {
		return
	}
	it := iteration{run: -1}
	if c := len(s.members); c > 0 {
		it.gap = at - s.lastAt
		it.run = int32(r.runs.push(tbtRun{at: at, gap: it.gap, n: int32(c), prev: -1}))
		r.nTBT += c
		r.decodeTokens += int64(c)
	}
	s.log(it)
	s.lastAt = at
	cur := s.base + len(s.iters) - 1
	for _, rec := range s.waiting {
		r.token(rec, at)
		rec.joined, rec.settled = cur, cur
		rec.slot = int32(len(s.members))
		s.members = append(s.members, rec)
	}
	clear(s.waiting)
	s.waiting = s.waiting[:0]
}

// log appends it to the iteration log. A full log first drops the
// iterations before every member's first carried one, when that frees
// at least half of it, and otherwise grows; so logging is O(1)
// amortized and the log spans at most twice the oldest member's life.
func (s *Stream) log(it iteration) {
	if s.iters == nil {
		s.iters = make([]iteration, 0, minIters)
	}
	if n := len(s.iters); n == cap(s.iters) {
		keep := s.base + n
		for _, rec := range s.members {
			keep = min(keep, rec.joined+1)
		}
		if drop := keep - s.base; 2*drop >= n {
			s.iters = s.iters[:copy(s.iters, s.iters[drop:])]
			s.base = keep
		}
	}
	s.iters = append(s.iters, it)
}

// Finish takes m out of the stream as its request finishes at at, as
// Recorder.Finish does. A member aborted since it joined, and every
// member of a halted recorder, is left as it is.
func (s *Stream) Finish(m Member, at sim.Time) {
	rec := m.rec
	if rec == nil || rec.st != s || s.r.halted {
		return
	}
	s.leave(rec)
	s.r.finish(rec, at)
}

// leave fills in rec's fields and takes it out of the stream.
func (s *Stream) leave(rec *reqRec) {
	if rec.slot < 0 {
		i := slices.Index(s.waiting, rec)
		s.waiting = slices.Delete(s.waiting, i, i+1)
	} else {
		s.settle(rec)
		last := s.members[len(s.members)-1]
		s.members[rec.slot], last.slot = last, rec.slot
		s.members = s.members[:len(s.members)-1]
	}
	rec.st = nil
}

// drop takes an aborted member out of the stream with its samples: one
// from the shared run of every iteration it was carried into.
func (s *Stream) drop(rec *reqRec) {
	if rec.slot >= 0 {
		s.settle(rec)
		for _, it := range s.iters[rec.joined+1-s.base : rec.settled+1-s.base] {
			s.r.runs.at(int(it.run)).n--
		}
		s.r.nTBT -= rec.settled - rec.joined
	}
	s.leave(rec)
}

// settle fills in the fields of member rec up to the newest iteration.
func (s *Stream) settle(rec *reqRec) {
	cur := s.base + len(s.iters) - 1
	if rec.slot < 0 || rec.settled == cur {
		return
	}
	gap := rec.maxGap
	for _, it := range s.iters[rec.settled+1-s.base:] {
		gap = max(gap, it.gap)
	}
	n := cur - rec.settled
	rec.tokens += n
	rec.tbtN += n
	rec.maxGap = gap
	rec.lastToken = s.lastAt
	rec.settled = cur
}

// settle fills in every stream member's fields, for readers of
// per-request state.
func (r *Recorder) settle() {
	for _, s := range r.streams {
		for _, rec := range s.members {
			s.settle(rec)
		}
	}
}
