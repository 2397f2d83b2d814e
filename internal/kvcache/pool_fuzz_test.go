package kvcache

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// refPool is a brute-force reference for Pool: the same radix tree and
// accounting, with eviction done by scanning every cached page for the
// unpinned leaf with the smallest lastAccess. It keeps no heap, so
// agreeing with it proves Pool's lazy heap evicts in exact LRU order.
type refPool struct {
	capacity   int64
	pageTokens int
	reserved   int64
	root       *refNode
	nodes      []*refNode // every cached page
	clock      int64
	stats      Stats
}

type refNode struct {
	parent     *refNode
	children   map[PageID]*refNode
	page       PageID
	pins       int
	lastAccess int64
}

func newRefPool(capacity int64, pageTokens int) *refPool {
	return &refPool{capacity: capacity, pageTokens: pageTokens, root: &refNode{children: map[PageID]*refNode{}}}
}

func (r *refPool) used() int64 { return int64(len(r.nodes)) * int64(r.pageTokens) }

func (r *refPool) touch(n *refNode) {
	r.clock++
	n.lastAccess = r.clock
}

// evictUntil evicts LRU leaves other than keep until want tokens are free.
func (r *refPool) evictUntil(want int64, keep *refNode) bool {
	for r.capacity-r.used()-r.reserved < want {
		victim := -1
		for i, n := range r.nodes {
			if n != keep && len(n.children) == 0 && n.pins == 0 &&
				(victim < 0 || n.lastAccess < r.nodes[victim].lastAccess) {
				victim = i
			}
		}
		if victim < 0 {
			return false
		}
		n := r.nodes[victim]
		delete(n.parent.children, n.page)
		r.nodes = append(r.nodes[:victim], r.nodes[victim+1:]...)
		r.stats.Evictions++
	}
	return true
}

func (r *refPool) match(pages []PageID) int {
	n := r.root
	for i, pg := range pages {
		c := n.children[pg]
		if c == nil {
			return i
		}
		r.touch(c)
		n = c
	}
	return len(pages)
}

func (r *refPool) matchTokens(pages []PageID, total int) int {
	hit := min(r.match(pages)*r.pageTokens, total)
	r.stats.Lookups++
	r.stats.HitTokens += int64(hit)
	r.stats.MissTokens += int64(total - hit)
	return hit
}

func (r *refPool) peek(pages []PageID) int {
	n := r.root
	for i, pg := range pages {
		if n = n.children[pg]; n == nil {
			return i
		}
	}
	return len(pages)
}

func (r *refPool) insert(pages []PageID) int {
	n := r.root
	added := 0
	for _, pg := range pages {
		if c := n.children[pg]; c != nil {
			r.touch(c)
			n = c
			continue
		}
		if !r.evictUntil(int64(r.pageTokens), n) {
			break
		}
		c := &refNode{parent: n, children: map[PageID]*refNode{}, page: pg}
		r.touch(c)
		n.children[pg] = c
		r.nodes = append(r.nodes, c)
		r.stats.Inserts++
		n = c
		added++
	}
	return added
}

func (r *refPool) reserve(tokens int64) bool {
	if tokens <= 0 {
		return true
	}
	if !r.evictUntil(tokens, nil) {
		return false
	}
	r.reserved += tokens
	return true
}

func (r *refPool) release(tokens int64) { r.reserved = max(r.reserved-tokens, 0) }

func (r *refPool) adjustPins(pages []PageID, count, delta int) {
	n := r.root
	for i := 0; i < count && i < len(pages); i++ {
		if n = n.children[pages[i]]; n == nil {
			return
		}
		n.pins = max(n.pins+delta, 0)
	}
}

// maxPoolOps bounds one program so every fuzz input stays cheap to check.
const maxPoolOps = 200

// opPages decodes a page sequence from an op byte and its argument: one of
// four sessions, 1–16 pages long, forking at an even position into one of
// four variants, so programs share prefixes, branch and extend one
// another, and matches, pins and inserts can end inside a run.
func opPages(op, arg byte) []PageID {
	session := uint64(arg & 3)
	n := int(arg>>2&15) + 1
	fork := int(op>>3&7) * 2
	variant := uint64(op >> 6)
	pages := make([]PageID, n)
	for i := range pages {
		id := session<<16 | uint64(i)<<4
		if i >= fork {
			id += variant
		}
		pages[i] = PageID(id)
	}
	return pages
}

// checkTicks reports the first cached page whose recency in Pool (tick
// base+i of its run) differs from the reference's per-page lastAccess.
func checkTicks(n *node, r *refNode) error {
	for i, pg := range n.pages {
		if r = r.children[pg]; r == nil {
			return fmt.Errorf("page %d is cached but not in the reference", pg)
		}
		if tick := n.base + int64(i); tick != r.lastAccess {
			return fmt.Errorf("page %d last touched at tick %d, reference %d", pg, tick, r.lastAccess)
		}
	}
	for _, c := range n.children {
		if err := checkTicks(c, r); err != nil {
			return err
		}
	}
	if n.only != nil {
		return checkTicks(n.only, r)
	}
	return nil
}

// runPoolOps decodes data as a pool capacity followed by (op, arg) byte
// pairs, applies each operation to a Pool and to refPool, and fails on
// the first divergence in return values, accounting, Stats, the Peek of
// any sequence inserted so far, any cached page's recency, or the tree
// invariants. It also fails if any slice the program gave the pool
// changed: the pool keeps inserted pages by reference and must never
// write into them.
func runPoolOps(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	capacity := int64(data[0]%24+1) * 16
	p, r := New(capacity, 16), newRefPool(capacity, 16)
	type pin struct {
		pages []PageID
		count int
	}
	var (
		inserted [][]PageID
		reserved []int64
		pins     []pin
		given    [][]PageID // every slice passed to p, with its snapshot
		snaps    [][]PageID
	)
	give := func(pages []PageID) []PageID {
		given = append(given, pages)
		snaps = append(snaps, slices.Clone(pages))
		return pages
	}
	data = data[1:]
	for step := 0; step < maxPoolOps && len(data) >= 2; step++ {
		op, arg := data[0], data[1]
		data = data[2:]
		pages := opPages(op, arg)
		switch op & 7 {
		case 0, 1:
			if got, want := p.Insert(give(pages)), r.insert(pages); got != want {
				t.Fatalf("step %d: Insert(%v) = %d, reference %d", step, pages, got, want)
			}
			inserted = append(inserted, pages)
		case 2:
			total := len(pages)*16 - int(arg>>5)
			if got, want := p.MatchTokens(give(pages), total), r.matchTokens(pages, total); got != want {
				t.Fatalf("step %d: MatchTokens(%v) = %d, reference %d", step, pages, got, want)
			}
		case 3:
			tokens := int64(arg) * 2
			got, want := p.Reserve(tokens), r.reserve(tokens)
			if got != want {
				t.Fatalf("step %d: Reserve(%d) = %v, reference %v", step, tokens, got, want)
			}
			if got {
				reserved = append(reserved, tokens)
			}
		case 4:
			if len(reserved) > 0 {
				tokens := reserved[len(reserved)-1]
				reserved = reserved[:len(reserved)-1]
				p.Release(tokens)
				r.release(tokens)
			}
		case 5:
			count := int(arg>>5) + 1
			p.Pin(give(pages), count)
			r.adjustPins(pages, count, +1)
			pins = append(pins, pin{pages, count})
		case 6:
			if len(pins) > 0 {
				last := pins[len(pins)-1]
				pins = pins[:len(pins)-1]
				p.Unpin(last.pages, last.count)
				r.adjustPins(last.pages, last.count, -1)
			}
		case 7:
			if got, want := p.Match(give(pages)), r.match(pages); got != want {
				t.Fatalf("step %d: Match(%v) = %d, reference %d", step, pages, got, want)
			}
		}
		if p.Used() != r.used() || p.Reserved() != r.reserved {
			t.Fatalf("step %d (op %d): used/reserved %d/%d, reference %d/%d",
				step, op&7, p.Used(), p.Reserved(), r.used(), r.reserved)
		}
		if p.Stats() != r.stats {
			t.Fatalf("step %d (op %d): Stats %+v, reference %+v", step, op&7, p.Stats(), r.stats)
		}
		for _, s := range inserted {
			if got, want := p.Peek(s), r.peek(s); got != want {
				t.Fatalf("step %d (op %d): Peek(%v) = %d, reference %d", step, op&7, s, got, want)
			}
		}
		if err := checkTree(p); err != nil {
			t.Fatalf("step %d (op %d): %v", step, op&7, err)
		}
		if err := checkTicks(p.root, r.root); err != nil {
			t.Fatalf("step %d (op %d): %v", step, op&7, err)
		}
		for i, s := range given {
			if !slices.Equal(s, snaps[i]) {
				t.Fatalf("step %d (op %d): the pool wrote into a slice it was given: %v, was %v", step, op&7, s, snaps[i])
			}
		}
	}
}

// Pool must evict in exactly the order the brute-force reference does,
// over random interleavings of every operation.
func TestPoolMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	for i := 0; i < 500; i++ {
		data := make([]byte, 1+2*(rng.IntN(maxPoolOps)+1))
		for j := range data {
			data[j] = byte(rng.Uint32())
		}
		runPoolOps(t, data)
	}
}

// FuzzPoolOps runs the reference comparison on arbitrary programs. The
// committed corpus under testdata/fuzz/FuzzPoolOps replays on every go
// test run.
func FuzzPoolOps(f *testing.F) {
	f.Fuzz(runPoolOps)
}
