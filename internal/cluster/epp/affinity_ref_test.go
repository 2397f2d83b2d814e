package epp

import (
	"math/rand/v2"
	"slices"
	"testing"

	"muxwise/internal/kvcache"
	"muxwise/internal/workload"
)

// refIndex is the reference prefix index: a Go map for membership and
// a per-page FIFO ring, with one lookup and one assign per page.
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

// The op programs run over a few endpoints and sessions and a small
// stream × index space: stream 0 is a system run any chain may lead
// with, stream 1+s is session s's own, and random segments may name any
// stream, overlap, repeat or be empty. Chains share heads, and
// evictions under a small limit hit pages other sessions still lean on.
const (
	opEndpoints = 3
	opSessions  = 4
	opStreams   = 1 + opSessions
	opIndexes   = 8
)

// opPage is the reference's page for index idx of stream: injective on
// the op space, as pageID is on generated traces.
func opPage(stream uint64, idx int) kvcache.PageID {
	return kvcache.PageID(int(stream)*opIndexes + idx)
}

// expand lists the pages segs describe, in order.
func expand(segs []workload.Segment) []kvcache.PageID {
	var out []kvcache.PageID
	for _, sg := range segs {
		for i := sg.From; i < sg.To; i++ {
			out = append(out, opPage(sg.Stream, i))
		}
	}
	return out
}

// clip returns segments describing the first n pages of segs.
func clip(segs []workload.Segment, n int) []workload.Segment {
	var out []workload.Segment
	for _, sg := range segs {
		if n <= 0 {
			break
		}
		sg.To = min(sg.To, sg.From+n)
		n -= sg.Len()
		out = append(out, sg)
	}
	return out
}

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

// segment reads a run of any stream: a start and a length, clamped to
// the index space, so empty runs turn up.
func (r *opReader) segment() workload.Segment {
	stream := uint64(r.next(opStreams))
	from := r.next(opIndexes)
	return workload.Segment{Stream: stream, From: from, To: min(from+r.next(4), opIndexes)}
}

// segments appends k runs read from the program to a clipped head, so a
// chain already handed to the index is never written again.
func (r *opReader) segments(head []workload.Segment, k int) []workload.Segment {
	out := slices.Clip(head)
	for range k {
		out = append(out, r.segment())
	}
	return out
}

// runAffinityOps decodes data into Picked / SessionMigrated / ReplicaDown
// operations and applies each to an Affinity and, with the chains
// expanded to pages, to the reference, comparing Match at every
// truncation, Len, every page's membership and the session pins after
// every operation. The first byte sets the index limit (1 to 16 pages).
func runAffinityOps(t *testing.T, data []byte) {
	t.Helper()
	rd := &opReader{data: data}
	limit := 1 + rd.next(16)
	aff := NewAffinity[*ep]()
	aff.limit = limit
	ref := newRefAffinity(limit)
	eps := fleet(opEndpoints)
	hist := make([][]workload.Segment, opSessions)

	for step := 0; !rd.done(); step++ {
		s := rd.next(opSessions)
		own := uint64(1 + s)
		var chain []workload.Segment
		switch op := rd.next(7); op {
		case 0, 1, 2, 3, 4:
			switch op {
			case 0: // the next turn: the history's last run grows
				chain = slices.Clone(hist[s])
				if len(chain) == 0 {
					chain = append(chain, workload.Segment{Stream: own})
				}
				last := &chain[len(chain)-1]
				last.To = min(last.To+rd.next(4), opIndexes)
			case 1: // a chain unrelated to the history
				chain = rd.segments(nil, 1+rd.next(3))
			case 2: // another session's head, then other runs
				o := hist[rd.next(opSessions)]
				chain = rd.segments(clip(o, rd.next(8)), rd.next(3))
			case 3: // a proper prefix of the history
				chain = clip(hist[s], rd.next(len(expand(hist[s]))+1))
			case 4: // the shared system run, then the session's own
				chain = []workload.Segment{
					{Stream: 0, To: 1 + rd.next(4)},
					{Stream: own, To: rd.next(opIndexes)},
				}
			}
			e := eps[rd.next(opEndpoints)]
			r := req(step, s)
			r.AllPages, r.Segments = expand(chain), chain
			aff.Picked(r, e)
			ref.Picked(s, e.id, r.AllPages)
			hist[s] = chain
		case 5:
			from, to := rd.next(opEndpoints), rd.next(opEndpoints)
			chain = hist[s]
			if rd.next(2) == 1 {
				chain = rd.segments(chain, 1)
			}
			n := len(expand(chain))
			if rd.next(2) == 1 { // a sweep clamped to what the pool holds
				n = rd.next(n + 1)
			}
			aff.SessionMigrated(s, from, to, chain, n)
			ref.SessionMigrated(s, from, to, expand(chain)[:n])
		case 6:
			id := rd.next(opEndpoints)
			aff.ReplicaDown(id)
			ref.ReplicaDown(id)
		}
		compareAffinity(t, step, aff, ref, append(slices.Clip(hist), chain))
	}
}

// compareAffinity checks every endpoint's index and every session's pin
// against the reference.
func compareAffinity(t *testing.T, step int, aff *Affinity[*ep], ref *refAffinity, probes [][]workload.Segment) {
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
			pages := expand(p)
			for n := range len(pages) + 1 {
				if got, want := aff.Match(id, p, n), ref.Match(id, pages[:n]); got != want {
					t.Fatalf("step %d: endpoint %d Match(%v, %d) = %d, reference %d", step, id, p, n, got, want)
				}
			}
		}
		for stream := range uint64(opStreams) {
			for idx := range opIndexes {
				one := []workload.Segment{{Stream: stream, From: idx, To: idx + 1}}
				if got, want := aff.Match(id, one, 1), ref.Match(id, expand(one)); got != want {
					t.Fatalf("step %d: endpoint %d holds page %d of stream %d: %d, reference %d", step, id, idx, stream, got, want)
				}
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

// TestAffinityMatchesReference runs random op programs — growing,
// unrelated, shared-head, truncated and system-led chains with
// overlapping, repeated and empty runs, migrations of whole and clamped
// chains to the pinned endpoint and to others, endpoint losses — under
// limits small enough that evictions fire, including in the middle of
// an Add. The run index must leave every Match, Len and pin exactly
// where the per-page map-and-ring reference has them.
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
