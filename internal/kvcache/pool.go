// Package kvcache implements a paged KV cache pool with a radix prefix
// tree, the SGLang-style substrate the paper's aggregated serving relies
// on: one pool shared by the prefill and decode phases, cross-request
// prefix reuse, LRU eviction, and pinning for in-flight requests.
//
// Token content is abstracted as a sequence of PageIDs: two requests that
// share a context prefix present the same leading page IDs (the workload
// generator derives IDs from session identity and position), so prefix
// matching behaves exactly like hash-based radix caching over real tokens.
package kvcache

// PageID identifies the content of one KV page (a hash over the tokens it
// covers in a real system).
type PageID uint64

// DefaultPageTokens is the paged-attention block size used throughout the
// reproduction.
const DefaultPageTokens = 16

// PageCount returns how many pages cover n tokens.
func PageCount(tokens, pageTokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + pageTokens - 1) / pageTokens
}

// node is one cached page in the radix tree. Most nodes sit on a linear
// chain (one child), so the single child is held inline and the children
// map is only allocated when a node actually branches.
//
// A node is evictable while it is a live, unpinned leaf. lastAccess comes
// from the pool's strictly monotonic clock, so no two node lifetimes ever
// share a value. Evicted nodes are recycled through the pool's free list;
// the recycled slot's fresh lastAccess makes every heap entry left over
// from its previous life mismatch and drop.
type node struct {
	page       PageID
	parent     *node
	only       *node            // the single child while children == nil
	children   map[PageID]*node // allocated on the second distinct child
	nchild     int
	pins       int
	lastAccess int64
	dead       bool
}

// child returns the child holding page pg, or nil.
func (n *node) child(pg PageID) *node {
	if n.children != nil {
		return n.children[pg]
	}
	if n.only != nil && n.only.page == pg {
		return n.only
	}
	return nil
}

// addChild links c under n.
func (n *node) addChild(c *node) {
	switch {
	case n.children != nil:
		n.children[c.page] = c
	case n.only == nil:
		n.only = c
	default:
		n.children = map[PageID]*node{n.only.page: n.only, c.page: c}
		n.only = nil
	}
	n.nchild++
}

// removeChild unlinks c from n. The branch map, once allocated, is kept
// (branch points tend to branch again).
func (n *node) removeChild(c *node) {
	if n.children != nil {
		delete(n.children, c.page)
	} else if n.only == c {
		n.only = nil
	}
	n.nchild--
}

// evictable reports whether the node could be evicted right now.
func (n *node) evictable() bool { return !n.dead && n.nchild == 0 && n.pins == 0 }

// evEntry is a lazy LRU heap entry: node n, listed while it was a leaf
// whose lastAccess was access. It is live while n is evictable with that
// same lastAccess, and stale otherwise — n was touched, pinned, extended
// or evicted since. Stale entries are dropped when they reach the top.
type evEntry struct {
	n      *node
	access int64
}

func (e evEntry) live() bool { return e.n.evictable() && e.n.lastAccess == e.access }

// evHeap is a hand-rolled min-heap on access — container/heap would box
// every Push/Pop through any, allocating on the pool's hottest path.
type evHeap []evEntry

func (h *evHeap) push(e evEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].access <= s[i].access {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *evHeap) pop() evEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = evEntry{}
	s = s[:n]
	*h = s
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].access < s[c].access {
			c++
		}
		if s[i].access <= s[c].access {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

// Stats summarises cache effectiveness.
type Stats struct {
	Lookups    int64
	HitTokens  int64
	MissTokens int64
	Evictions  int64
	Inserts    int64
}

// HitRate returns token-weighted hit rate, 0 when nothing was looked up.
func (s Stats) HitRate() float64 {
	total := s.HitTokens + s.MissTokens
	if total == 0 {
		return 0
	}
	return float64(s.HitTokens) / float64(total)
}

// Pool is a KV cache pool measured in tokens. It combines a radix prefix
// tree of cached pages with a reservation counter for the KV of running
// requests that has not yet been published into the tree.
//
// Eviction is exact LRU over leaves: the evictable node with the smallest
// lastAccess goes first. The lru heap holds only nodes that were leaves
// when listed, and between operations every evictable node has a live
// entry there, so the heap's smallest live entry is always the next
// victim. Two paths keep the heap small without bending that order:
// Insert lists only the tail of the chain it adds (every interior page
// gains a child before an eviction can see it as a leaf), and when
// evicting a victim leaves its parent a leaf older than the heap's live
// minimum, freeTokens evicts that parent directly rather than pushing it
// and popping it straight back — so an LRU chain dies tail first with no
// heap traffic.
type Pool struct {
	capacity   int64
	pageTokens int

	root      *node
	usedPages int64
	reserved  int64
	lru       evHeap
	clock     int64
	stats     Stats
	free      []*node // recycled evicted nodes
	slab      []node  // fresh nodes, carved out nodeSlab at a time
}

// nodeSlab is how many nodes one allocation provides: a pool fills by
// thousands of pages per long request, and one allocation per page was
// the pool's largest remaining cost.
const nodeSlab = 256

// New creates a pool holding capacityTokens of KV, paged by pageTokens.
func New(capacityTokens int64, pageTokens int) *Pool {
	if pageTokens <= 0 {
		pageTokens = DefaultPageTokens
	}
	return &Pool{
		capacity:   capacityTokens,
		pageTokens: pageTokens,
		root:       &node{},
	}
}

// allocNode takes a node off the free list (or the current slab) keyed
// for page pg under parent.
func (p *Pool) allocNode(pg PageID, parent *node) *node {
	var n *node
	if l := len(p.free); l > 0 {
		n = p.free[l-1]
		p.free[l-1] = nil
		p.free = p.free[:l-1]
		m := n.children
		*n = node{children: m} // keep the (empty) branch map for reuse
	} else {
		if len(p.slab) == 0 {
			p.slab = make([]node, nodeSlab)
		}
		n = &p.slab[0]
		p.slab = p.slab[1:]
	}
	n.page = pg
	n.parent = parent
	n.lastAccess = p.tick()
	return n
}

// Capacity returns pool capacity in tokens.
func (p *Pool) Capacity() int64 { return p.capacity }

// PageTokens returns tokens per page.
func (p *Pool) PageTokens() int { return p.pageTokens }

// Used returns tokens held by the prefix tree.
func (p *Pool) Used() int64 { return p.usedPages * int64(p.pageTokens) }

// Reserved returns tokens reserved for in-flight request state.
func (p *Pool) Reserved() int64 { return p.reserved }

// Free returns tokens neither cached nor reserved.
func (p *Pool) Free() int64 { return p.capacity - p.Used() - p.reserved }

// Stats returns a snapshot of cache statistics.
func (p *Pool) Stats() Stats { return p.stats }

func (p *Pool) tick() int64 {
	p.clock++
	return p.clock
}

// touch refreshes a node's recency and re-lists it if evictable.
func (p *Pool) touch(n *node) {
	n.lastAccess = p.tick()
	if n.evictable() {
		p.lru.push(evEntry{n, n.lastAccess})
	}
}

// listIfEvictable registers the node in the eviction heap when eligible,
// keeping its own recency (a parent that becomes a leaf after a child
// eviction must not jump to most-recently-used).
func (p *Pool) listIfEvictable(n *node) {
	if n != p.root && n.evictable() {
		p.lru.push(evEntry{n, n.lastAccess})
	}
}

// Peek returns how many leading pages of the sequence are cached,
// without refreshing recency or recording statistics — a read-only
// probe for callers (KV migration) that ask "what does this pool still
// hold?" rather than performing an admission lookup.
func (p *Pool) Peek(pages []PageID) int {
	n := p.root
	matched := 0
	for _, pg := range pages {
		child := n.child(pg)
		if child == nil {
			break
		}
		n = child
		matched++
	}
	return matched
}

// Match walks the tree and returns how many leading pages of the sequence
// are cached, refreshing their recency.
func (p *Pool) Match(pages []PageID) int {
	n := p.root
	matched := 0
	for _, pg := range pages {
		child := n.child(pg)
		if child == nil {
			break
		}
		p.touch(child)
		n = child
		matched++
	}
	return matched
}

// MatchTokens performs Match and converts the result to tokens, capped at
// totalTokens, recording hit/miss statistics.
func (p *Pool) MatchTokens(pages []PageID, totalTokens int) int {
	hitPages := p.Match(pages)
	hit := hitPages * p.pageTokens
	if hit > totalTokens {
		hit = totalTokens
	}
	p.stats.Lookups++
	p.stats.HitTokens += int64(hit)
	p.stats.MissTokens += int64(totalTokens - hit)
	return hit
}

// popLive pops the least recently used evictable leaf, dropping stale
// entries on the way; nil when nothing is evictable.
func (p *Pool) popLive() *node {
	for len(p.lru) > 0 {
		if e := p.lru.pop(); e.live() {
			return e.n
		}
	}
	return nil
}

// olderThanListed reports whether n is at least as old as the heap's
// live minimum, dropping stale tops first. Ticks are unique per node, so
// a tie means the top is n's own entry.
func (p *Pool) olderThanListed(n *node) bool {
	for len(p.lru) > 0 && !p.lru[0].live() {
		p.lru.pop()
	}
	return len(p.lru) == 0 || n.lastAccess <= p.lru[0].access
}

// freeTokens evicts until at least want tokens are free (or nothing more
// can be evicted). It reports whether the target was reached.
func (p *Pool) freeTokens(want int64) bool {
	var next *node // the next victim, known without consulting the heap
	for p.Free() < want {
		v := next
		if v == nil {
			if v = p.popLive(); v == nil {
				return false
			}
		}
		next = nil
		par := v.parent
		v.dead = true
		par.removeChild(v)
		p.usedPages--
		p.stats.Evictions++
		p.free = append(p.free, v)
		// A parent left a leaf keeps its own recency; if it is older than
		// every listed leaf it is the next LRU victim anyway.
		if par != p.root && par.evictable() && p.Free() < want && p.olderThanListed(par) {
			next = par
		} else {
			p.listIfEvictable(par)
		}
	}
	return true
}

// Reserve claims tokens for in-flight KV (growing decode state or KV
// being computed by prefill), evicting cached pages if needed. It fails
// without side effects beyond evictions when capacity cannot be found.
func (p *Pool) Reserve(tokens int64) bool {
	if tokens <= 0 {
		return true
	}
	if !p.freeTokens(tokens) {
		return false
	}
	p.reserved += tokens
	return true
}

// Release returns previously reserved tokens.
func (p *Pool) Release(tokens int64) {
	p.reserved -= tokens
	if p.reserved < 0 {
		p.reserved = 0
	}
}

// Insert publishes a page sequence into the tree (typically a finished
// request's full context). Pages already present are deduplicated. If
// space runs out mid-insert, the remaining suffix is dropped — matching
// radix caches that keep whatever prefix fits. Returns pages added.
func (p *Pool) Insert(pages []PageID) int {
	n := p.root
	added := 0
	for _, pg := range pages {
		if child := n.child(pg); child != nil {
			p.touch(child)
			n = child
			continue
		}
		// Pinned, n cannot be evicted to make room for its own child.
		n.pins++
		ok := p.freeTokens(int64(p.pageTokens))
		n.pins--
		if !ok {
			// While pinned, n's entry (if any) was stale and may have
			// been dropped.
			p.listIfEvictable(n)
			return added
		}
		child := p.allocNode(pg, n)
		n.addChild(child)
		p.usedPages++
		p.stats.Inserts++
		n = child
		added++
	}
	// Interior pages gained a child before any eviction could see them as
	// leaves; only the new tail needs listing.
	if added > 0 {
		p.listIfEvictable(n)
	}
	return added
}

// Pin protects the first count pages of the sequence (walking from the
// root) from eviction. Pages not present are ignored. Unpin must mirror
// each Pin with the same arguments.
func (p *Pool) Pin(pages []PageID, count int) {
	p.adjustPins(pages, count, +1)
}

// Unpin releases a prior Pin.
func (p *Pool) Unpin(pages []PageID, count int) {
	p.adjustPins(pages, count, -1)
}

func (p *Pool) adjustPins(pages []PageID, count, delta int) {
	n := p.root
	for i := 0; i < count && i < len(pages); i++ {
		child := n.child(pages[i])
		if child == nil {
			return
		}
		child.pins += delta
		if child.pins < 0 {
			child.pins = 0
		}
		p.listIfEvictable(child)
		n = child
	}
}

// Clear drops all cached pages (used by disaggregated engines when an
// instance releases its pool) and resets reservations.
func (p *Pool) Clear() {
	p.root = &node{}
	p.usedPages = 0
	p.reserved = 0
	p.lru = p.lru[:0]
	p.free = p.free[:0] // dropped tree nodes must not be resurrected
}
