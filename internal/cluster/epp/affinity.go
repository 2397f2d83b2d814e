package epp

import (
	"math"
	"slices"
	"sort"

	"muxwise/internal/workload"
)

// DefaultIndexLimit bounds each endpoint's approximate view of cached
// radix pages, mirroring the EPP's bounded prefix-cache scorer rather
// than the replicas' real radix trees.
const DefaultIndexLimit = 1 << 18

// PrefixIndex approximates which leading pages an endpoint has cached,
// with FIFO eviction past a limit of pages. It holds runs, not pages:
// per stream, the sorted and coalesced spans of page indexes it holds,
// and a FIFO ring of the runs in insertion order. A request's content is
// one or two stream runs, so Add and Match cost a few span lookups
// however many pages they cover, and Add evicts exactly the pages a
// per-page FIFO would. The ring never grows past the limit: each run
// holds at least one page.
type PrefixIndex struct {
	limit   int
	held    int // pages held
	streams map[uint64]spans
	ring    []run // circular: n runs from head, oldest first
	head, n int
}

// span is a half-open range [from, to) of one stream's page indexes.
type span struct{ from, to int }

// spans is one stream's held spans, sorted, disjoint and never
// adjacent. A stream holding one span (the common case: a session's
// history from index 0) keeps it inline in one, so it costs no
// allocation; a stream holding more keeps them all in more. The zero
// value holds nothing, and the index drops such streams.
type spans struct {
	one  span
	more []span
}

// run is a ring entry: pages [from, to) of stream, inserted in order.
type run struct {
	stream   uint64
	from, to int
}

// minRing is the ring's first allocation, in runs.
const minRing = 8

// NewPrefixIndex builds an index evicting FIFO past limit pages; a
// limit ≤ 0 selects DefaultIndexLimit.
func NewPrefixIndex(limit int) *PrefixIndex {
	if limit <= 0 {
		limit = DefaultIndexLimit
	}
	return &PrefixIndex{limit: limit, streams: map[uint64]spans{}}
}

// none is at's answer when no span ends after the page.
var none = span{math.MaxInt, math.MaxInt}

// at returns the first held span ending after page p: the span holding
// p when from ≤ p, else the next held span (none if there is none).
func (s spans) at(p int) span {
	if s.more == nil {
		if s.one.to > p {
			return s.one
		}
		return none
	}
	if i := seek(s.more, p); i < len(s.more) {
		return s.more[i]
	}
	return none
}

// seek returns the index of the first span in list ending after page p.
func seek(list []span, p int) int {
	return sort.Search(len(list), func(i int) bool { return list[i].to > p })
}

// add records the absent pages [p, q), joining held neighbours.
func (s *spans) add(p, q int) {
	if s.more == nil {
		switch one := s.one; {
		case one == span{}:
			s.one = span{p, q}
		case one.to == p:
			s.one.to = q
		case one.from == q:
			s.one.from = p
		case q < one.from:
			s.more = []span{{p, q}, one}
		default:
			s.more = []span{one, {p, q}}
		}
		return
	}
	list := s.more
	i := seek(list, p) // the first span past q, since [p, q) is absent
	joinPrev := i > 0 && list[i-1].to == p
	joinNext := i < len(list) && list[i].from == q
	switch {
	case joinPrev && joinNext:
		list[i-1].to = list[i].to
		list = slices.Delete(list, i, i+1)
	case joinPrev:
		list[i-1].to = q
	case joinNext:
		list[i].from = p
	default:
		list = slices.Insert(list, i, span{p, q})
	}
	s.set(list)
}

// drop removes the held pages [a, b), which lie in one span: spans are
// coalesced, so held neighbours share a span. Dropping a stream's last
// pages leaves the zero spans.
func (s *spans) drop(a, b int) {
	if s.more == nil {
		switch one := s.one; {
		case one.from == a && one.to == b:
			s.one = span{}
		case one.from == a:
			s.one.from = b
		case one.to == b:
			s.one.to = a
		default:
			s.more = []span{{one.from, a}, {b, one.to}}
		}
		return
	}
	list := s.more
	i := seek(list, a)
	switch sp := list[i]; {
	case sp.from == a && sp.to == b:
		list = slices.Delete(list, i, i+1)
	case sp.from == a:
		list[i].from = b
	case sp.to == b:
		list[i].to = a
	default:
		list[i].to = a
		list = slices.Insert(list, i+1, span{b, sp.to})
	}
	s.set(list)
}

// set stores a list of two or more spans in more, and a single one
// inline.
func (s *spans) set(list []span) {
	if len(list) == 1 {
		*s = spans{one: list[0]}
		return
	}
	s.more = list
}

// Match counts how many of the first n pages of segs, in order, the
// index holds before the first one it does not.
func (ix *PrefixIndex) Match(segs []workload.Segment, n int) int {
	matched := 0
	for _, sg := range segs {
		if matched == n {
			break
		}
		to := min(sg.To, sg.From+n-matched)
		if sg.From >= to {
			continue
		}
		sp := ix.streams[sg.Stream].at(sg.From)
		if sp.from > sg.From {
			return matched
		}
		matched += min(sp.to, to) - sg.From
		if sp.to < to {
			return matched
		}
	}
	return matched
}

// Add records the first n pages of segs, which the endpoint will cache
// once the request finishes. Held spans are skipped; each absent sub-run
// is inserted whole, evicting the oldest pages at once. The walk then
// re-checks the next page, since those evictions may have removed pages
// that come later in the same Add.
func (ix *PrefixIndex) Add(segs []workload.Segment, n int) {
	for _, sg := range segs {
		if n <= 0 {
			return
		}
		to := min(sg.To, sg.From+n)
		if sg.From >= to {
			continue
		}
		n -= to - sg.From
		for p := sg.From; p < to; {
			sp := ix.streams[sg.Stream].at(p)
			if sp.from <= p {
				p = sp.to
				continue
			}
			q := min(to, sp.from)
			ix.insert(sg.Stream, p, q)
			p = q
		}
	}
}

// insert records the absent pages [p, q) of stream. A per-page FIFO
// would insert them one at a time, evicting the oldest page whenever it
// holds more than limit; evicting up front leaves the same pages. When
// the run alone exceeds the limit, its own leading pages are among the
// evicted, so only its last limit pages are inserted.
func (ix *PrefixIndex) insert(stream uint64, p, q int) {
	if over := ix.held + q - p - ix.limit; over > 0 {
		ix.evict(min(over, ix.held))
		p = max(p, q-ix.limit)
	}
	sp := ix.streams[stream]
	sp.add(p, q)
	ix.streams[stream] = sp
	ix.held += q - p
	if ix.n > 0 {
		if tail := &ix.ring[ix.slot(ix.n-1)]; tail.stream == stream && tail.to == p {
			tail.to = q
			return
		}
	}
	if ix.n == len(ix.ring) {
		ix.grow()
	}
	ix.ring[ix.slot(ix.n)] = run{stream: stream, from: p, to: q}
	ix.n++
}

// slot maps the k-th oldest run to its ring position.
func (ix *PrefixIndex) slot(k int) int {
	if k += ix.head; k >= len(ix.ring) {
		k -= len(ix.ring)
	}
	return k
}

// grow enlarges the full ring, doubling up to the limit; the ring never
// needs more, since it holds fewer runs than pages until a push.
func (ix *PrefixIndex) grow() {
	ring := make([]run, min(max(2*len(ix.ring), minRing), ix.limit))
	for k := range ix.n {
		ring[k] = ix.ring[ix.slot(k)]
	}
	ix.ring, ix.head = ring, 0
}

// evict drops the k oldest pages.
func (ix *PrefixIndex) evict(k int) {
	ix.held -= k
	for k > 0 {
		r := &ix.ring[ix.head]
		m := min(k, r.to-r.from)
		sp := ix.streams[r.stream]
		if sp.drop(r.from, r.from+m); sp.more == nil && sp.one == (span{}) {
			delete(ix.streams, r.stream)
		} else {
			ix.streams[r.stream] = sp
		}
		r.from += m
		k -= m
		if r.from == r.to {
			ix.head = ix.slot(1)
			ix.n--
		}
	}
}

// Len reports how many pages the index currently holds.
func (ix *PrefixIndex) Len() int { return ix.held }

// RingCap reports the eviction ring's backing capacity — bounded by the
// limit, pinned by tests.
func (ix *PrefixIndex) RingCap() int { return cap(ix.ring) }

// Affinity is the shared session-stickiness and prefix-index state the
// affine compositions (prefix-affinity, pd-split, adaptive-ttft) route
// over. It is pure state, not a stage: filters and scorers read it, and
// it implements PickObserver / DownObserver / MigrationObserver so the
// pipeline keeps it current. State is keyed by endpoint ID, never by
// candidate position.
type Affinity[E Endpoint] struct {
	sessions map[int]int // session → the endpoint it is pinned to
	index    map[int]*PrefixIndex
	limit    int
}

// NewAffinity builds empty affinity state with DefaultIndexLimit-sized
// prefix indexes.
func NewAffinity[E Endpoint]() *Affinity[E] {
	return &Affinity[E]{sessions: map[int]int{}, index: map[int]*PrefixIndex{}, limit: DefaultIndexLimit}
}

// Holder returns the endpoint ID pinned to the session, if any.
func (a *Affinity[E]) Holder(session int) (int, bool) {
	id, ok := a.sessions[session]
	return id, ok
}

// StickyIn returns the candidate currently owning the request's
// session; ok is false when the session is unknown or its holder is not
// in the candidate set (starting, draining, failed, or retired).
func (a *Affinity[E]) StickyIn(r *workload.Request, cands []E) (E, bool) {
	var zero E
	id, ok := a.sessions[r.Session]
	if !ok {
		return zero, false
	}
	for _, e := range cands {
		if e.EndpointID() == id {
			return e, true
		}
	}
	return zero, false
}

// Match counts how many leading pages of the first n pages of segs the
// endpoint's index advertises.
func (a *Affinity[E]) Match(id int, segs []workload.Segment, n int) int {
	ix := a.index[id]
	if ix == nil {
		return 0
	}
	return ix.Match(segs, n)
}

// indexOf returns the endpoint's prefix index, creating it on first use.
func (a *Affinity[E]) indexOf(id int) *PrefixIndex {
	ix := a.index[id]
	if ix == nil {
		ix = NewPrefixIndex(a.limit)
		a.index[id] = ix
	}
	return ix
}

// Picked implements PickObserver: pin the session to the chosen
// endpoint and index the pages its radix cache will publish.
func (a *Affinity[E]) Picked(r *workload.Request, picked E) {
	id := picked.EndpointID()
	a.sessions[r.Session] = id
	a.indexOf(id).Add(r.Segments, len(r.AllPages))
}

// ReplicaDown implements DownObserver: forget everything pinned to a
// dead endpoint — sessions re-stick on their next turn (paying the KV
// re-prefill there), and the prefix index stops advertising pages that
// no longer exist anywhere.
func (a *Affinity[E]) ReplicaDown(id int) {
	for session, holder := range a.sessions {
		if holder == id {
			delete(a.sessions, session)
		}
	}
	delete(a.index, id)
}

// SessionMigrated implements MigrationObserver: re-home a session whose
// KV streamed to a new holder. The pin follows the KV (unless a turn
// already re-routed the session elsewhere mid-stream — then the newer
// pin wins), and the destination's index advertises the first n pages
// of segs either way, because they really are cached there now.
func (a *Affinity[E]) SessionMigrated(session, from, to int, segs []workload.Segment, n int) {
	a.indexOf(to).Add(segs, n)
	if holder, ok := a.sessions[session]; !ok || holder == from {
		a.sessions[session] = to
	}
}
