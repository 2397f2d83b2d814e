package epp

import (
	"math/rand/v2"
	"slices"
	"testing"

	"muxwise/internal/kvcache"
)

// refIndex is the reference prefix index: a Go map for membership and
// the FIFO ring, with one lookup and one assign per page and no memo.
type refIndex struct {
	limit int
	pages map[kvcache.PageID]struct{}
	ring  []kvcache.PageID
	head  int
}

func (ix *refIndex) Match(pages []kvcache.PageID) int {
	n := 0
	for _, pg := range pages {
		if _, ok := ix.pages[pg]; !ok {
			break
		}
		n++
	}
	return n
}

func (ix *refIndex) Add(pages []kvcache.PageID) {
	for _, pg := range pages {
		if _, ok := ix.pages[pg]; ok {
			continue
		}
		if len(ix.ring) < ix.limit {
			ix.ring = append(ix.ring, pg)
		} else {
			delete(ix.pages, ix.ring[ix.head])
			ix.ring[ix.head] = pg
			ix.head++
			if ix.head == len(ix.ring) {
				ix.head = 0
			}
		}
		ix.pages[pg] = struct{}{}
	}
}

// refAffinity is the reference affinity state: session → endpoint pins,
// and every pick or migration re-adds its whole chain.
type refAffinity struct {
	sessions map[int]int
	index    map[int]*refIndex
	limit    int
}

func newRefAffinity(limit int) *refAffinity {
	return &refAffinity{sessions: map[int]int{}, index: map[int]*refIndex{}, limit: limit}
}

func (a *refAffinity) indexOf(id int) *refIndex {
	ix := a.index[id]
	if ix == nil {
		ix = &refIndex{limit: a.limit, pages: map[kvcache.PageID]struct{}{}}
		a.index[id] = ix
	}
	return ix
}

func (a *refAffinity) Picked(session, id int, pages []kvcache.PageID) {
	a.sessions[session] = id
	a.indexOf(id).Add(pages)
}

func (a *refAffinity) ReplicaDown(id int) {
	for session, rep := range a.sessions {
		if rep == id {
			delete(a.sessions, session)
		}
	}
	delete(a.index, id)
}

func (a *refAffinity) SessionMigrated(session, from, to int, pages []kvcache.PageID) {
	if cur, ok := a.sessions[session]; !ok || cur == from {
		a.sessions[session] = to
	}
	a.indexOf(to).Add(pages)
}

func (a *refAffinity) Match(id int, pages []kvcache.PageID) int {
	if ix := a.index[id]; ix != nil {
		return ix.Match(pages)
	}
	return 0
}

// The op programs run over a few endpoints and sessions and a small page
// space, so chains share heads, page 0 turns up, and evictions under a
// small limit hit pages other sessions still lean on.
const (
	opEndpoints = 3
	opSessions  = 4
	opPageSpace = 24
)

// opReader hands out a program's bytes; an exhausted program reads 0s.
type opReader struct {
	data []byte
	pos  int
}

func (r *opReader) next(n int) int {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b) % n
}

func (r *opReader) done() bool { return r.pos >= len(r.data) }

// runAffinityOps decodes data into Picked / SessionMigrated / ReplicaDown
// operations and applies each to an Affinity and to the reference,
// comparing Match, Len and the session pins after every operation. The
// first byte sets the index limit (1 to 16 pages).
func runAffinityOps(t *testing.T, data []byte) {
	t.Helper()
	rd := &opReader{data: data}
	limit := 1 + rd.next(16)
	aff := NewAffinity[*ep]()
	aff.limit = limit
	ref := newRefAffinity(limit)
	eps := fleet(opEndpoints)
	hist := make([][]kvcache.PageID, opSessions)

	// fresh appends n new pages to a clipped head, so a chain already
	// handed to the index is never written again.
	fresh := func(head []kvcache.PageID, n int) []kvcache.PageID {
		out := slices.Clip(head)
		for range n {
			out = append(out, kvcache.PageID(rd.next(opPageSpace)))
		}
		return out
	}
	for step := 0; !rd.done(); step++ {
		s := rd.next(opSessions)
		var chain []kvcache.PageID
		switch op := rd.next(6); op {
		case 0, 1, 2, 3:
			switch op {
			case 0: // the next turn: history plus new pages
				chain = fresh(hist[s], rd.next(4))
			case 1: // a chain unrelated to the history
				chain = fresh(nil, 1+rd.next(6))
			case 2: // another session's head, then new pages
				o := hist[rd.next(opSessions)]
				chain = fresh(o[:min(len(o), rd.next(8))], rd.next(4))
			case 3: // a proper prefix of the history: shorter than the memo
				chain = hist[s][:rd.next(len(hist[s])+1)]
			}
			e := eps[rd.next(opEndpoints)]
			r := req(step, s)
			r.AllPages = chain
			aff.Picked(r, e)
			ref.Picked(s, e.id, chain)
			hist[s] = chain
		case 4:
			from, to := rd.next(opEndpoints), rd.next(opEndpoints)
			switch rd.next(3) {
			case 0:
				chain = hist[s]
			case 1:
				chain = fresh(hist[s], rd.next(3))
			}
			aff.SessionMigrated(s, from, to, chain)
			ref.SessionMigrated(s, from, to, chain)
		case 5:
			id := rd.next(opEndpoints)
			aff.ReplicaDown(id)
			ref.ReplicaDown(id)
		}
		compareAffinity(t, step, aff, ref, append(slices.Clip(hist), chain))
	}
}

// compareAffinity checks every endpoint's index and every session's pin
// against the reference.
func compareAffinity(t *testing.T, step int, aff *Affinity[*ep], ref *refAffinity, probes [][]kvcache.PageID) {
	t.Helper()
	for id := range opEndpoints {
		ix, rx := aff.index[id], ref.index[id]
		if (ix == nil) != (rx == nil) {
			t.Fatalf("step %d: endpoint %d index presence %v, reference %v", step, id, ix != nil, rx != nil)
		}
		if ix != nil && ix.Len() != len(rx.pages) {
			t.Fatalf("step %d: endpoint %d holds %d pages, reference %d", step, id, ix.Len(), len(rx.pages))
		}
		for _, p := range probes {
			if got, want := aff.Match(id, p), ref.Match(id, p); got != want {
				t.Fatalf("step %d: endpoint %d Match(%v) = %d, reference %d", step, id, p, got, want)
			}
		}
		for pg := range kvcache.PageID(opPageSpace) {
			one := []kvcache.PageID{pg}
			if got, want := aff.Match(id, one), ref.Match(id, one); got != want {
				t.Fatalf("step %d: endpoint %d holds page %d: %d, reference %d", step, id, pg, got, want)
			}
		}
	}
	for s := range opSessions {
		got, gok := aff.Holder(s)
		want, wok := ref.sessions[s]
		if gok != wok || got != want {
			t.Fatalf("step %d: session %d pinned to %d,%v, reference %d,%v", step, s, got, gok, want, wok)
		}
	}
}

// TestAffinityMatchesReference runs random op programs — extending,
// unrelated, shared-head and truncated chains, migrations to the pinned
// endpoint and to others, endpoint losses — under limits small enough
// that evictions fire, including in the middle of an Add. The memo's
// suffix-only adds and the open-addressed page set must leave every
// Match, Len and pin exactly where the map-and-ring reference has them.
func TestAffinityMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 0))
	for prog := range 400 {
		data := make([]byte, 64+rng.IntN(512))
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("program %d: %x", prog, data)
				}
			}()
			runAffinityOps(t, data)
		}()
	}
}

// FuzzAffinityOps checks arbitrary op programs against the reference.
func FuzzAffinityOps(f *testing.F) {
	f.Fuzz(runAffinityOps)
}

// TestPageSetMatchesMap drives the open-addressed set with inserts and
// removes over a key space dense enough to force long probe runs,
// wrap-around at the table's end and backward shifts across them.
func TestPageSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 1))
	for _, space := range []uint64{4, 40, 400, 1 << 62} {
		var s pageSet
		want := map[kvcache.PageID]bool{}
		keys := make([]kvcache.PageID, 64)
		for i := range keys {
			keys[i] = kvcache.PageID(rng.Uint64N(space))
		}
		keys[0] = 0
		for range 20000 {
			k := keys[rng.IntN(len(keys))]
			if rng.IntN(3) == 0 {
				s.remove(k)
				delete(want, k)
			} else if added := s.insert(k); added == want[k] {
				t.Fatalf("space %d: insert(%d) reported new=%v with the key present=%v", space, k, added, want[k])
			} else {
				want[k] = true
			}
			if s.len() != len(want) {
				t.Fatalf("space %d: len %d, want %d", space, s.len(), len(want))
			}
		}
		for _, k := range keys {
			if s.has(k) != want[k] {
				t.Fatalf("space %d: has(%d) = %v, want %v", space, k, s.has(k), want[k])
			}
		}
	}
}
