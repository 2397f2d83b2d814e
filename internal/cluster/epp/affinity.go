package epp

import (
	"math/bits"
	"slices"

	"muxwise/internal/kvcache"
	"muxwise/internal/workload"
)

// DefaultIndexLimit bounds each endpoint's approximate view of cached
// radix pages, mirroring the EPP's bounded prefix-cache scorer rather
// than the replicas' real radix trees.
const DefaultIndexLimit = 1 << 18

// PrefixIndex approximates which leading pages an endpoint has cached,
// with FIFO eviction over a fixed-capacity ring. The ring never grows
// past the limit, so sustained eviction keeps the backing array bounded.
// Membership lives in an open-addressed page set, so Add costs one probe
// per page: the insert itself reports whether the page was new.
type PrefixIndex struct {
	limit   int
	pages   pageSet
	ring    []kvcache.PageID
	head    int // next eviction / overwrite slot once the ring is full
	evicted int // pages evicted so far; Affinity's memo compares it
}

// NewPrefixIndex builds an index evicting FIFO past limit pages; a
// limit ≤ 0 selects DefaultIndexLimit.
func NewPrefixIndex(limit int) *PrefixIndex {
	if limit <= 0 {
		limit = DefaultIndexLimit
	}
	return &PrefixIndex{limit: limit}
}

// Match counts how many leading pages of the sequence the index holds.
func (ix *PrefixIndex) Match(pages []kvcache.PageID) int {
	for n, pg := range pages {
		if !ix.pages.has(pg) {
			return n
		}
	}
	return len(pages)
}

// Add records pages the endpoint will cache once the request finishes,
// evicting the oldest entries FIFO once the limit is reached.
func (ix *PrefixIndex) Add(pages []kvcache.PageID) {
	for _, pg := range pages {
		if !ix.pages.insert(pg) {
			continue
		}
		if len(ix.ring) < ix.limit {
			ix.ring = append(ix.ring, pg)
			continue
		}
		ix.pages.remove(ix.ring[ix.head])
		ix.evicted++
		ix.ring[ix.head] = pg
		ix.head++
		if ix.head == len(ix.ring) {
			ix.head = 0
		}
	}
}

// Len reports how many pages the index currently holds.
func (ix *PrefixIndex) Len() int { return ix.pages.len() }

// RingCap reports the eviction ring's backing capacity — bounded by the
// limit, pinned by tests.
func (ix *PrefixIndex) RingCap() int { return cap(ix.ring) }

// pageSet is an open-addressed set of page IDs: linear probing over a
// power-of-two table with a multiplicative (Fibonacci) hash, and
// backward-shift deletion, so no tombstones ever lengthen a probe. Slot
// value 0 marks an empty slot, so page 0 itself is held in a flag.
type pageSet struct {
	slots []kvcache.PageID
	n     int  // pages held in slots (page 0 excluded)
	shift uint // 64 − log2(len(slots))
	zero  bool // page 0 is in the set
}

// minSlots is the table size of a set's first allocation.
const minSlots = 16

func (s *pageSet) len() int {
	if s.zero {
		return s.n + 1
	}
	return s.n
}

// home is pg's preferred slot: the top bits of pg × 2⁶⁴/φ.
func (s *pageSet) home(pg kvcache.PageID) int {
	return int(uint64(pg) * 0x9E3779B97F4A7C15 >> s.shift)
}

// find returns the slot holding pg (found) or the empty slot ending its
// probe run (not found). pg must be nonzero and the table allocated.
func (s *pageSet) find(pg kvcache.PageID) (int, bool) {
	mask := len(s.slots) - 1
	for i := s.home(pg); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case pg:
			return i, true
		case 0:
			return i, false
		}
	}
}

func (s *pageSet) has(pg kvcache.PageID) bool {
	if pg == 0 {
		return s.zero
	}
	if s.n == 0 {
		return false
	}
	_, ok := s.find(pg)
	return ok
}

// insert adds pg and reports whether it was absent before.
func (s *pageSet) insert(pg kvcache.PageID) bool {
	if pg == 0 {
		added := !s.zero
		s.zero = true
		return added
	}
	if len(s.slots) == 0 {
		s.resize(minSlots)
	}
	i, ok := s.find(pg)
	if ok {
		return false
	}
	// Keep the load at most 3/4: past it, linear probe runs lengthen fast.
	if 4*(s.n+1) > 3*len(s.slots) {
		s.resize(2 * len(s.slots))
		i, _ = s.find(pg)
	}
	s.slots[i] = pg
	s.n++
	return true
}

// remove deletes pg if present. Backward shift: each later entry of the
// probe run moves into the hole when the hole lies between its home and
// its slot, so every remaining entry stays reachable from its home.
func (s *pageSet) remove(pg kvcache.PageID) {
	if pg == 0 {
		s.zero = false
		return
	}
	if s.n == 0 {
		return
	}
	hole, ok := s.find(pg)
	if !ok {
		return
	}
	mask := len(s.slots) - 1
	for j := (hole + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		if q := s.slots[j]; (j-s.home(q))&mask >= (j-hole)&mask {
			s.slots[hole] = q
			hole = j
		}
	}
	s.slots[hole] = 0
	s.n--
}

// resize rehashes into a table of size slots (a power of two).
func (s *pageSet) resize(size int) {
	old := s.slots
	s.slots = make([]kvcache.PageID, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, pg := range old {
		if pg != 0 {
			i, _ := s.find(pg)
			s.slots[i] = pg
		}
	}
}

// Affinity is the shared session-stickiness and prefix-index state the
// affine compositions (prefix-affinity, pd-split, adaptive-ttft) route
// over. It is pure state, not a stage: filters and scorers read it, and
// it implements PickObserver / DownObserver / MigrationObserver so the
// pipeline keeps it current. State is keyed by endpoint ID, never by
// candidate position.
type Affinity[E Endpoint] struct {
	sessions map[int]sessionPin
	index    map[int]*PrefixIndex
	limit    int
}

// sessionPin is a session's holder plus a memo of the last page chain
// indexed there on the session's behalf. Each turn of a session
// re-presents its whole history, so the memo lets the next add skip the
// leading run it proves is already indexed.
type sessionPin struct {
	id      int              // endpoint the session is pinned to
	chain   []kvcache.PageID // last chain added to id's index for the session
	evicted int              // id's index eviction count before that add
}

// NewAffinity builds empty affinity state with DefaultIndexLimit-sized
// prefix indexes.
func NewAffinity[E Endpoint]() *Affinity[E] {
	return &Affinity[E]{sessions: map[int]sessionPin{}, index: map[int]*PrefixIndex{}, limit: DefaultIndexLimit}
}

// Holder returns the endpoint ID pinned to the session, if any.
func (a *Affinity[E]) Holder(session int) (int, bool) {
	pin, ok := a.sessions[session]
	return pin.id, ok
}

// StickyIn returns the candidate currently owning the request's
// session; ok is false when the session is unknown or its holder is not
// in the candidate set (starting, draining, failed, or retired).
func (a *Affinity[E]) StickyIn(r *workload.Request, cands []E) (E, bool) {
	var zero E
	pin, ok := a.sessions[r.Session]
	if !ok {
		return zero, false
	}
	for _, e := range cands {
		if e.EndpointID() == pin.id {
			return e, true
		}
	}
	return zero, false
}

// Match counts how many leading pages of the sequence the endpoint's
// index advertises.
func (a *Affinity[E]) Match(id int, pages []kvcache.PageID) int {
	ix := a.index[id]
	if ix == nil {
		return 0
	}
	return ix.Match(pages)
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

// add indexes pages on endpoint id for a session whose previous pin is
// pin (the zero pin when it has none) and returns the session's pin on
// id. When the memo's chain went to the same index, nothing was evicted
// there since before that add, and the chain leads pages, every page of
// it is still indexed, so re-adding that run would change nothing: only
// the suffix is added. pages must not be mutated afterwards.
func (a *Affinity[E]) add(pin sessionPin, id int, pages []kvcache.PageID) sessionPin {
	ix := a.indexOf(id)
	before := ix.evicted
	if n := len(pin.chain); pin.id == id && pin.evicted == before &&
		n <= len(pages) && slices.Equal(pin.chain, pages[:n]) {
		ix.Add(pages[n:])
	} else {
		ix.Add(pages)
	}
	return sessionPin{id: id, chain: pages, evicted: before}
}

// Picked implements PickObserver: pin the session to the chosen
// endpoint and index the pages its radix cache will publish.
func (a *Affinity[E]) Picked(r *workload.Request, picked E) {
	a.sessions[r.Session] = a.add(a.sessions[r.Session], picked.EndpointID(), r.AllPages)
}

// ReplicaDown implements DownObserver: forget everything pinned to a
// dead endpoint — sessions re-stick on their next turn (paying the KV
// re-prefill there), and the prefix index stops advertising pages that
// no longer exist anywhere. A memo names its session's holder, so this
// sweep clears every memo of the dropped index too.
func (a *Affinity[E]) ReplicaDown(id int) {
	for session, pin := range a.sessions {
		if pin.id == id {
			delete(a.sessions, session)
		}
	}
	delete(a.index, id)
}

// SessionMigrated implements MigrationObserver: re-home a session whose
// KV streamed to a new holder. The pin follows the KV (unless a turn
// already re-routed the session elsewhere mid-stream — then the newer
// pin wins), and the destination's index advertises the migrated pages
// either way, because they really are cached there now.
func (a *Affinity[E]) SessionMigrated(session, from, to int, pages []kvcache.PageID) {
	pin, ok := a.sessions[session]
	next := a.add(pin, to, pages)
	if !ok || pin.id == from || pin.id == to {
		a.sessions[session] = next
	}
}
