// Package kvcache implements a paged KV cache pool with a radix prefix
// tree, the SGLang-style substrate the paper's aggregated serving relies
// on: one pool shared by the prefill and decode phases, cross-request
// prefix reuse, LRU eviction, and pinning for in-flight requests.
//
// As in SGLang's radix cache, tree edges are compressed: a node holds a
// run of pages with no branch point inside it, so lookups, pins, inserts
// and evictions cost O(runs touched + victims) rather than O(pages),
// while recency and eviction order stay exactly per page.
//
// Token content is abstracted as a sequence of PageIDs: two requests that
// share a context prefix present the same leading page IDs (the workload
// generator derives IDs from session identity and position), so prefix
// matching behaves exactly like hash-based radix caching over real tokens.
//
// The pool keeps no page storage of its own: Insert keeps subslices of
// the caller's page list as runs and never writes into them, so a page
// list passed to Insert must not change afterwards. Callers publish
// request page lists, which the trace owns and never rewrites. Tree
// nodes come from an arena.Pool: evicted nodes are recycled, and fresh
// ones are carved out of the pool's blocks rather than allocated one by
// one.
package kvcache

import "muxwise/internal/arena"

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

// node is one run (extent) of cached pages in the radix tree: pages[0]
// hangs under the parent's last page, and each later page under the one
// before it. A run never contains a branch point, and all its pages share
// one pin count. Most nodes have one child, so the single child is held
// inline and the children map is only allocated when a node branches.
// Children are keyed by their first page.
//
// Recency is per page but stored per run: page i was last touched at
// tick base+i. Every walk touches a whole run, in page order, so the
// ticks stay consecutive; a walk, pin or unpin that stops inside a run
// splits the run there first (the tail keeps its ticks, pins and
// children). A run's last page is its only page that can be an LRU leaf,
// so the node is listed for eviction under its tail tick, base+len-1.
//
// pages is a read-only subslice of a page list passed to Insert: the
// pool reslices runs (a split, a trimmed tail) but never writes into
// them. Evicted nodes drop their slice and are recycled through the
// pool's arena.Pool. Ticks are unique per page touch, so every heap entry
// left over from a recycled node's previous life names a tick no cached
// page holds, and drops.
type node struct {
	pages    []PageID
	parent   *node
	only     *node            // the single child while children == nil
	children map[PageID]*node // allocated on the second distinct child
	nchild   int
	pins     int
	base     int64
	dead     bool
}

// tail is the tick of the run's last page.
func (n *node) tail() int64 { return n.base + int64(len(n.pages)) - 1 }

// child returns the child whose run starts with page pg, or nil.
func (n *node) child(pg PageID) *node {
	if n.children != nil {
		return n.children[pg]
	}
	if n.only != nil && n.only.pages[0] == pg {
		return n.only
	}
	return nil
}

// addChild links c under n.
func (n *node) addChild(c *node) {
	switch {
	case n.children != nil:
		n.children[c.pages[0]] = c
	case n.only == nil:
		n.only = c
	default:
		n.children = map[PageID]*node{n.only.pages[0]: n.only, c.pages[0]: c}
		n.only = nil
	}
	n.nchild++
}

// removeChild unlinks c from n. The branch map, once allocated, is kept
// (branch points tend to branch again).
func (n *node) removeChild(c *node) {
	if n.children != nil {
		delete(n.children, c.pages[0])
	} else if n.only == c {
		n.only = nil
	}
	n.nchild--
}

// replaceChild files c in place of the child whose run starts with the
// same page.
func (n *node) replaceChild(c *node) {
	if n.children != nil {
		n.children[c.pages[0]] = c
	} else {
		n.only = c
	}
}

// evictable reports whether the node could be evicted right now.
func (n *node) evictable() bool { return !n.dead && n.nchild == 0 && n.pins == 0 }

// common returns how many leading pages run and pages share; the caller
// has already matched the first.
func common(run, pages []PageID) int {
	m := min(len(run), len(pages))
	for i := 1; i < m; i++ {
		if run[i] != pages[i] {
			return i
		}
	}
	return m
}

// evEntry is a lazy LRU heap entry: node n, listed while it was a leaf
// whose tail tick was access. It is live while n is evictable with that
// same tail tick, and stale otherwise — n was touched, pinned, given a
// child, trimmed or evicted since. Stale entries are dropped when they
// reach the top.
type evEntry struct {
	n      *node
	access int64
}

func (e evEntry) live() bool { return e.n.evictable() && e.n.tail() == e.access }

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

// Add accumulates o into s field by field.
func (s *Stats) Add(o Stats) {
	s.Lookups += o.Lookups
	s.HitTokens += o.HitTokens
	s.MissTokens += o.MissTokens
	s.Evictions += o.Evictions
	s.Inserts += o.Inserts
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
// tree of cached page runs with a reservation counter for the KV of
// running requests that has not yet been published into the tree.
//
// Eviction is exact LRU over leaf pages: the evictable page with the
// oldest access goes first. Only a run's last page can be a leaf, so the
// lru heap lists runs under their tail tick, and between operations
// every evictable run has a live entry there; the heap's smallest live
// entry is always the next victim. Its whole run is older than every
// other listed leaf, so per-page LRU would take its pages tail first and
// in a row: freeTokens drops as many as the shortfall needs in one step,
// and re-lists a partly trimmed run under its new tail. When emptying a
// run leaves its parent a leaf older than the heap's live minimum, the
// parent is the next victim directly, with no push and pop — so an LRU
// chain dies tail first with no heap traffic.
type Pool struct {
	capacity   int64
	pageTokens int

	root      *node
	usedPages int64
	reserved  int64
	lru       evHeap
	clock     int64
	stats     Stats
	nodes     arena.Pool[node] // evicted nodes recycled, fresh ones carved in blocks
}

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

// allocNode takes a recycled or fresh node, with no run and no links.
// A recycled node keeps its (empty) branch map.
func (p *Pool) allocNode() *node {
	n := p.nodes.Get()
	*n = node{children: n.children}
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

// touch refreshes the recency of every page of a run, in order, and
// re-lists the run if evictable.
func (p *Pool) touch(n *node) {
	n.base = p.clock + 1
	p.clock += int64(len(n.pages))
	p.listIfEvictable(n)
}

// listIfEvictable registers the node in the eviction heap when eligible,
// keeping its own recency (a parent that becomes a leaf after a child
// eviction must not jump to most-recently-used).
func (p *Pool) listIfEvictable(n *node) {
	if n != p.root && n.evictable() {
		p.lru.push(evEntry{n, n.tail()})
	}
}

// split cuts c after its first m pages and returns the new prefix node,
// which takes c's place under its parent with c's first ticks and pins.
// c keeps the tail: its later ticks, pins, children and heap entries.
func (p *Pool) split(c *node, m int) *node {
	pre := p.allocNode()
	pre.pages = c.pages[:m:m]
	pre.base = c.base
	pre.pins = c.pins
	pre.parent = c.parent
	c.parent.replaceChild(pre)
	c.pages = c.pages[m:]
	c.base += int64(m)
	c.parent = pre
	pre.addChild(c)
	return pre
}

// Peek returns how many leading pages of the sequence are cached,
// without refreshing recency or recording statistics — a read-only
// probe for callers (KV migration) that ask "what does this pool still
// hold?" rather than performing an admission lookup.
func (p *Pool) Peek(pages []PageID) int {
	n, matched := p.root, 0
	for matched < len(pages) {
		c := n.child(pages[matched])
		if c == nil {
			break
		}
		m := common(c.pages, pages[matched:])
		matched += m
		if m < len(c.pages) {
			break
		}
		n = c
	}
	return matched
}

// walk follows the sequence down the tree, touching every page it
// matches, and returns the deepest node reached with the number of pages
// matched. A match that ends inside a run splits it there first, so the
// returned node always ends at the last matched page.
func (p *Pool) walk(pages []PageID) (*node, int) {
	n, matched := p.root, 0
	for matched < len(pages) {
		c := n.child(pages[matched])
		if c == nil {
			break
		}
		m := common(c.pages, pages[matched:])
		if m < len(c.pages) {
			c = p.split(c, m)
		}
		p.touch(c)
		matched += m
		n = c
	}
	return n, matched
}

// Match walks the tree and returns how many leading pages of the sequence
// are cached, refreshing their recency.
func (p *Pool) Match(pages []PageID) int {
	_, matched := p.walk(pages)
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

// olderThanListed reports whether n's tail is at least as old as the
// heap's live minimum, dropping stale tops first. Ticks are unique per
// page, so a tie means the top is n's own entry.
func (p *Pool) olderThanListed(n *node) bool {
	for len(p.lru) > 0 && !p.lru[0].live() {
		p.lru.pop()
	}
	return len(p.lru) == 0 || n.tail() <= p.lru[0].access
}

// freeTokens evicts until at least want tokens are free (or nothing more
// can be evicted). It reports whether the target was reached.
func (p *Pool) freeTokens(want int64) bool {
	pt := int64(p.pageTokens)
	var next *node // the next victim, known without consulting the heap
	for p.Free() < want {
		v := next
		if v == nil {
			if v = p.popLive(); v == nil {
				return false
			}
		}
		next = nil
		if k := (want - p.Free() + pt - 1) / pt; k < int64(len(v.pages)) {
			v.pages = v.pages[:int64(len(v.pages))-k]
			p.usedPages -= k
			p.stats.Evictions += k
			p.lru.push(evEntry{v, v.tail()})
			return true
		}
		par := v.parent
		par.removeChild(v)
		p.usedPages -= int64(len(v.pages))
		p.stats.Evictions += int64(len(v.pages))
		v.pages = nil
		v.dead = true
		p.nodes.Release(v)
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
//
// The pool keeps the added pages by reference, as a subslice of pages,
// and never writes into it: the caller must not change pages afterwards.
func (p *Pool) Insert(pages []PageID) int {
	n, matched := p.walk(pages)
	add := pages[matched:]
	if len(add) == 0 {
		return 0
	}
	// Pinned, n cannot be evicted to make room for its own extension.
	n.pins++
	ok := p.freeTokens(int64(len(add)) * int64(p.pageTokens))
	n.pins--
	if !ok {
		add = add[:max(p.Free(), 0)/int64(p.pageTokens)]
		if len(add) == 0 {
			// While pinned, n's entry (if any) was stale and may have
			// been dropped.
			p.listIfEvictable(n)
			return 0
		}
	}
	// Capped, so no reslice or append of the run reaches the rest of
	// the caller's array.
	c := p.allocNode()
	c.pages = add[:len(add):len(add)]
	c.base = p.clock + 1
	c.parent = n
	n.addChild(c)
	p.clock += int64(len(add))
	p.usedPages += int64(len(add))
	p.stats.Inserts += int64(len(add))
	p.listIfEvictable(c)
	return len(add)
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
	pages = pages[:max(min(count, len(pages)), 0)]
	n, done := p.root, 0
	for done < len(pages) {
		c := n.child(pages[done])
		if c == nil {
			return
		}
		m := common(c.pages, pages[done:])
		inside := m < len(c.pages)
		if delta > 0 || c.pins > 0 { // an unpin of an unpinned run changes nothing
			if inside {
				c = p.split(c, m)
			}
			c.pins = max(c.pins+delta, 0)
			p.listIfEvictable(c)
		}
		if inside {
			return
		}
		done += m
		n = c
	}
}
