package kvcache

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func seq(ids ...uint64) []PageID {
	out := make([]PageID, len(ids))
	for i, v := range ids {
		out[i] = PageID(v)
	}
	return out
}

func TestPageCount(t *testing.T) {
	cases := []struct{ tokens, page, want int }{
		{0, 16, 0}, {1, 16, 1}, {16, 16, 1}, {17, 16, 2}, {-5, 16, 0}, {1024, 16, 64},
	}
	for _, c := range cases {
		if got := PageCount(c.tokens, c.page); got != c.want {
			t.Errorf("PageCount(%d,%d) = %d, want %d", c.tokens, c.page, got, c.want)
		}
	}
}

func TestMatchEmptyPool(t *testing.T) {
	p := New(1000, 16)
	if got := p.Match(seq(1, 2, 3)); got != 0 {
		t.Fatalf("Match on empty pool = %d, want 0", got)
	}
}

func TestInsertThenMatch(t *testing.T) {
	p := New(1000, 16)
	added := p.Insert(seq(1, 2, 3))
	if added != 3 {
		t.Fatalf("Insert added %d, want 3", added)
	}
	if got := p.Match(seq(1, 2, 3, 4)); got != 3 {
		t.Fatalf("Match = %d, want 3", got)
	}
	if got := p.Match(seq(1, 9)); got != 1 {
		t.Fatalf("partial Match = %d, want 1", got)
	}
	if got := p.Match(seq(9)); got != 0 {
		t.Fatalf("mismatch Match = %d, want 0", got)
	}
	if p.Used() != 3*16 {
		t.Fatalf("Used = %d, want 48", p.Used())
	}
}

func TestInsertDeduplicates(t *testing.T) {
	p := New(1000, 16)
	p.Insert(seq(1, 2, 3))
	if added := p.Insert(seq(1, 2, 3, 4)); added != 1 {
		t.Fatalf("second Insert added %d, want 1 (dedup)", added)
	}
	if p.Used() != 4*16 {
		t.Fatalf("Used = %d, want 64", p.Used())
	}
}

func TestBranchingPrefixes(t *testing.T) {
	p := New(1000, 16)
	p.Insert(seq(1, 2, 3))
	p.Insert(seq(1, 2, 7, 8))
	if got := p.Match(seq(1, 2, 3)); got != 3 {
		t.Fatalf("branch A match = %d, want 3", got)
	}
	if got := p.Match(seq(1, 2, 7, 8)); got != 4 {
		t.Fatalf("branch B match = %d, want 4", got)
	}
	if p.Used() != 5*16 {
		t.Fatalf("Used = %d, want 80 (shared prefix stored once)", p.Used())
	}
}

func TestMatchTokensStats(t *testing.T) {
	p := New(1000, 16)
	p.Insert(seq(1, 2))
	hit := p.MatchTokens(seq(1, 2, 3), 40)
	if hit != 32 {
		t.Fatalf("MatchTokens = %d, want 32", hit)
	}
	st := p.Stats()
	if st.HitTokens != 32 || st.MissTokens != 8 || st.Lookups != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if r := st.HitRate(); r != 0.8 {
		t.Fatalf("HitRate = %.2f, want 0.8", r)
	}
	// Hit capped at totalTokens.
	if hit := p.MatchTokens(seq(1, 2), 20); hit != 20 {
		t.Fatalf("capped MatchTokens = %d, want 20", hit)
	}
}

func TestLRUEviction(t *testing.T) {
	p := New(4*16, 16) // 4 pages
	p.Insert(seq(1, 2))
	p.Insert(seq(10, 20))
	// Refresh branch {1,2}; then overflow should evict from {10,20} first.
	p.Match(seq(1, 2))
	p.Insert(seq(100, 200)) // needs 2 pages → evicts 20 then 10
	if got := p.Match(seq(1, 2)); got != 2 {
		t.Fatalf("recently used branch evicted; match = %d, want 2", got)
	}
	if got := p.Match(seq(10, 20)); got != 0 {
		t.Fatalf("LRU branch survived; match = %d, want 0", got)
	}
	if p.Stats().Evictions != 2 {
		t.Fatalf("Evictions = %d, want 2", p.Stats().Evictions)
	}
}

func TestEvictionLeafFirst(t *testing.T) {
	p := New(3*16, 16)
	p.Insert(seq(1, 2, 3))
	// Inserting one new page evicts the deepest (leaf) page of the chain.
	p.Insert(seq(9))
	if got := p.Match(seq(1, 2, 3)); got != 2 {
		t.Fatalf("after leaf eviction match = %d, want 2 (prefix intact)", got)
	}
}

func TestPinPreventsEviction(t *testing.T) {
	p := New(2*16, 16)
	p.Insert(seq(1, 2))
	p.Pin(seq(1, 2), 2)
	if added := p.Insert(seq(9)); added != 0 {
		t.Fatalf("Insert with fully pinned pool added %d, want 0", added)
	}
	p.Unpin(seq(1, 2), 2)
	if added := p.Insert(seq(9)); added != 1 {
		t.Fatalf("Insert after unpin added %d, want 1", added)
	}
}

// Making room for a page must never evict the node that page extends:
// the evicted node would be recycled as its own child, a self-loop whose
// page stays counted in Used but can never be reached or evicted.
func TestInsertNeverEvictsItsOwnTail(t *testing.T) {
	p := New(2*16, 16)
	p.Reserve(16)
	if added := p.Insert(seq(1, 2, 3)); added != 1 {
		t.Fatalf("Insert added %d, want 1 (page 2 has no room)", added)
	}
	if got := p.Peek(seq(1, 2, 3)); got != 1 {
		t.Fatalf("Peek = %d, want 1", got)
	}
	if err := checkTree(p); err != nil {
		t.Fatal(err)
	}
	p.Release(16)
	if !p.Reserve(2 * 16) {
		t.Fatal("cached page not evictable after a failed Insert")
	}
}

// Insert keeps the caller's pages by reference and never writes into
// them. Here the run of a is trimmed to 1..5 while a[5:8] stays behind
// it in the same array, and the next insert extends that run: writing
// the new pages into a's array in place would overwrite a[5] and a[6].
func TestInsertLeavesCallerPagesIntact(t *testing.T) {
	p := New(8*16, 16)
	a := seq(1, 2, 3, 4, 5, 6, 7, 8)
	p.Insert(a)
	if !p.Reserve(3 * 16) {
		t.Fatal("Reserve failed on an unpinned pool")
	}
	if got := p.Stats().Evictions; got != 3 {
		t.Fatalf("Evictions = %d, want 3", got)
	}
	p.Release(3 * 16)
	b := seq(1, 2, 3, 4, 5, 100, 101)
	if added := p.Insert(b); added != 2 {
		t.Fatalf("Insert added %d, want 2", added)
	}
	if !slices.Equal(a, seq(1, 2, 3, 4, 5, 6, 7, 8)) {
		t.Fatalf("caller's pages = %v after the pool extended their run, want 1..8", a)
	}
	if got := p.Peek(b); got != len(b) {
		t.Fatalf("Peek of the extension = %d, want %d", got, len(b))
	}
	if got := p.Peek(a); got != 5 {
		t.Fatalf("Peek of the trimmed sequence = %d, want 5", got)
	}
	if err := checkTree(p); err != nil {
		t.Fatal(err)
	}
}

// Publishing a long chain costs the pool no page storage. On a full
// pool that has churned (so the node free list and the LRU heap are
// warm), each Insert of a fresh chain of about 1,900 pages allocates
// under 1 KB, against the 15 KB a copy of its pages takes. Each chain is
// a page longer than the one before, as LooGLE contexts vary in length,
// so no evicted run's buffer could hold a copy of the next.
func TestInsertDoesNotCopyPages(t *testing.T) {
	const chain, warm, inserts = 1900, 16, 8
	chains := make([][]PageID, warm+inserts)
	for c := range chains {
		chains[c] = make([]PageID, chain+c)
		for j := range chains[c] {
			chains[c][j] = PageID(uint64(c)<<32 | uint64(j))
		}
	}
	p := New(4*chain*16, 16)
	for _, pages := range chains[:warm] {
		p.Insert(pages)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, pages := range chains[warm:] {
		p.Insert(pages)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / inserts; per >= 1024 {
		t.Fatalf("Insert of a ~%d-page chain allocates %d B, want under 1 KB", chain, per)
	}
	if err := checkTree(p); err != nil {
		t.Fatal(err)
	}
}

// Reserving k pages' worth on a full pool holding one long chain evicts
// exactly k pages, from the chain's tail.
func TestReserveTrimsRunTail(t *testing.T) {
	const chain = 1900
	pages := make([]PageID, chain)
	for i := range pages {
		pages[i] = PageID(i + 1)
	}
	for _, k := range []int{1, 37, 1899, chain} {
		p := New(chain*16, 16)
		p.Insert(pages)
		if !p.Reserve(int64(k) * 16) {
			t.Fatalf("k=%d: Reserve failed on an unpinned pool", k)
		}
		if got := p.Stats().Evictions; got != int64(k) {
			t.Fatalf("k=%d: Evictions = %d, want %d", k, got, k)
		}
		if got := p.Match(pages); got != chain-k {
			t.Fatalf("k=%d: Match = %d, want %d", k, got, chain-k)
		}
	}
}

func TestPinMissingPagesIgnored(t *testing.T) {
	p := New(1000, 16)
	p.Insert(seq(1))
	p.Pin(seq(1, 2, 3), 3) // pages 2,3 absent
	p.Unpin(seq(1, 2, 3), 3)
	if got := p.Match(seq(1)); got != 1 {
		t.Fatal("pool corrupted by pinning missing pages")
	}
}

func TestReserveRelease(t *testing.T) {
	p := New(100, 16)
	if !p.Reserve(60) {
		t.Fatal("Reserve(60) failed on empty pool")
	}
	if p.Free() != 40 {
		t.Fatalf("Free = %d, want 40", p.Free())
	}
	if p.Reserve(50) {
		t.Fatal("Reserve(50) should fail with 40 free")
	}
	p.Release(60)
	if p.Free() != 100 {
		t.Fatalf("Free after release = %d, want 100", p.Free())
	}
	// Over-release clamps.
	p.Release(1000)
	if p.Reserved() != 0 {
		t.Fatalf("Reserved = %d, want 0", p.Reserved())
	}
}

func TestReserveEvicts(t *testing.T) {
	p := New(4*16, 16)
	p.Insert(seq(1, 2, 3, 4))
	if !p.Reserve(32) {
		t.Fatal("Reserve should evict cached pages to make room")
	}
	if p.Used() != 2*16 {
		t.Fatalf("Used after evicting reserve = %d, want 32", p.Used())
	}
}

func TestReservePinnedBlocks(t *testing.T) {
	p := New(2*16, 16)
	p.Insert(seq(1, 2))
	p.Pin(seq(1, 2), 2)
	if p.Reserve(16) {
		t.Fatal("Reserve should fail when all pages pinned")
	}
}

func TestZeroAndNegativeReserve(t *testing.T) {
	p := New(10, 16)
	if !p.Reserve(0) || !p.Reserve(-5) {
		t.Fatal("non-positive reserve should trivially succeed")
	}
}

// checkTree walks the radix tree and reports the first broken structural
// invariant: usedPages must count exactly the pages of the reachable
// non-root runs, every such run must be non-empty and filed under its
// first page, no reachable node may be dead, parent and child links must
// agree with nchild, and pins must never go negative.
func checkTree(p *Pool) error {
	seen := map[*node]bool{}
	reachable, err := checkSubtree(p.root, seen)
	if err != nil {
		return err
	}
	if reachable != p.usedPages {
		return fmt.Errorf("usedPages = %d, but %d pages are reachable", p.usedPages, reachable)
	}
	return nil
}

func checkSubtree(n *node, seen map[*node]bool) (int64, error) {
	if seen[n] {
		return 0, fmt.Errorf("run %v reached twice", n.pages)
	}
	seen[n] = true
	if n.dead {
		return 0, fmt.Errorf("run %v is reachable but dead", n.pages)
	}
	if n.pins < 0 {
		return 0, fmt.Errorf("run %v has %d pins", n.pages, n.pins)
	}
	var kids []*node
	if n.children != nil {
		if n.only != nil {
			return 0, fmt.Errorf("run %v holds both a branch map and an inline child", n.pages)
		}
		for pg, c := range n.children {
			if len(c.pages) == 0 {
				return 0, fmt.Errorf("empty run filed under key %d", pg)
			}
			if c.pages[0] != pg {
				return 0, fmt.Errorf("run %v filed under key %d", c.pages, pg)
			}
			kids = append(kids, c)
		}
		slices.SortFunc(kids, func(a, b *node) int { return cmp.Compare(a.pages[0], b.pages[0]) })
	} else if n.only != nil {
		if len(n.only.pages) == 0 {
			return 0, fmt.Errorf("run %v has an empty inline child", n.pages)
		}
		kids = append(kids, n.only)
	}
	if n.nchild != len(kids) {
		return 0, fmt.Errorf("run %v: nchild = %d, but %d children linked", n.pages, n.nchild, len(kids))
	}
	var count int64
	for _, c := range kids {
		if c.parent != n {
			return 0, fmt.Errorf("run %v: parent link does not point at run %v", c.pages, n.pages)
		}
		sub, err := checkSubtree(c, seen)
		if err != nil {
			return 0, err
		}
		count += int64(len(c.pages)) + sub
	}
	return count, nil
}

// Property: Used+Reserved never exceeds Capacity and the radix tree stays
// well formed under random operations.
func TestPropertyCapacityInvariant(t *testing.T) {
	f := func(ops []uint32, capRaw uint16) bool {
		capacity := int64(capRaw%64+1) * 16
		p := New(capacity, 16)
		var reserved []int64
		type pin struct {
			pages []PageID
			count int
		}
		var pins []pin
		for _, op := range ops {
			n := int(op>>3)%8 + 1
			pages := make([]PageID, n)
			for i := range pages {
				pages[i] = PageID((op >> 3) + uint32(i))
			}
			switch op % 6 {
			case 0:
				p.Insert(pages)
			case 1:
				tok := int64(op>>3)%capacity + 1
				if p.Reserve(tok) {
					reserved = append(reserved, tok)
				}
			case 2:
				if len(reserved) > 0 {
					p.Release(reserved[len(reserved)-1])
					reserved = reserved[:len(reserved)-1]
				}
			case 3:
				p.Match(seq(uint64(op>>3), uint64(op>>4)))
			case 4:
				count := int(op>>6)%n + 1
				p.Pin(pages, count)
				pins = append(pins, pin{pages, count})
			case 5:
				if len(pins) > 0 {
					last := pins[len(pins)-1]
					p.Unpin(last.pages, last.count)
					pins = pins[:len(pins)-1]
				}
			}
			if p.Used()+p.Reserved() > p.Capacity() {
				return false
			}
			if p.Free() < 0 {
				return false
			}
			if err := checkTree(p); err != nil {
				t.Logf("op %d: %v", op%6, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Match never reports more pages than were inserted along that
// exact path, and insert-then-match roundtrips.
func TestPropertyInsertMatchRoundtrip(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) > 40 {
			raw = raw[:40]
		}
		pages := make([]PageID, len(raw))
		for i, v := range raw {
			pages[i] = PageID(uint64(i)<<8 | uint64(v)) // position-unique
		}
		p := New(int64(len(pages)+1)*16, 16)
		p.Insert(pages)
		return p.Match(pages) == len(pages)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A miniature of the paper's Figure 5: larger pools give monotonically
// better hit rates on a multi-turn trace.
func TestHitRateMonotoneInCapacity(t *testing.T) {
	makeTrace := func() [][]PageID {
		rng := rand.New(rand.NewPCG(7, 7))
		var trace [][]PageID
		// 50 sessions, multi-turn with growing shared context.
		for s := 0; s < 50; s++ {
			turns := rng.IntN(5) + 2
			ctx := []PageID{}
			for turn := 0; turn < turns; turn++ {
				for i := 0; i < rng.IntN(20)+5; i++ {
					ctx = append(ctx, PageID(uint64(s)<<32|uint64(len(ctx))))
				}
				cp := make([]PageID, len(ctx))
				copy(cp, ctx)
				trace = append(trace, cp)
			}
		}
		// Interleave sessions for realistic access patterns.
		rng.Shuffle(len(trace), func(i, j int) { trace[i], trace[j] = trace[j], trace[i] })
		return trace
	}
	trace := makeTrace()
	var last float64 = -1
	for _, capacity := range []int64{50 * 16, 500 * 16, 5000 * 16, 500000 * 16} {
		p := New(capacity, 16)
		for _, pages := range trace {
			p.MatchTokens(pages, len(pages)*16)
			p.Insert(pages)
		}
		hr := p.Stats().HitRate()
		if hr < last-0.02 {
			t.Fatalf("hit rate decreased with capacity: %.3f after %.3f", hr, last)
		}
		last = hr
	}
	if last < 0.3 {
		t.Fatalf("large-pool hit rate = %.3f, want ≥0.3 on multi-turn trace", last)
	}
}

func BenchmarkMatchInsert(b *testing.B) {
	p := New(1<<30, 16)
	rng := rand.New(rand.NewPCG(1, 1))
	traces := make([][]PageID, 256)
	for i := range traces {
		n := rng.IntN(200) + 10
		pages := make([]PageID, n)
		for j := range pages {
			pages[j] = PageID(uint64(i%32)<<32 | uint64(j))
		}
		traces[i] = pages
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := traces[i%len(traces)]
		p.MatchTokens(tr, len(tr)*16)
		p.Insert(tr)
	}
}

// chainSupply hands out page sequences of n pages that no earlier take
// returned, building them in batches with the benchmark timer stopped:
// the pool keeps published pages by reference, so a benchmark must not
// rewrite a buffer it has published.
type chainSupply struct {
	b     *testing.B
	n     int
	next  uint64 // the next sequence's ID, the high half of its page IDs
	batch [][]PageID
}

func (cs *chainSupply) take() []PageID {
	if len(cs.batch) == 0 {
		cs.b.StopTimer()
		cs.batch = make([][]PageID, 64)
		for i := range cs.batch {
			pages := make([]PageID, cs.n)
			for j := range pages {
				pages[j] = PageID(cs.next<<32 | uint64(j))
			}
			cs.batch[i] = pages
			cs.next++
		}
		cs.b.StartTimer()
	}
	pages := cs.batch[0]
	cs.batch = cs.batch[1:]
	return pages
}

// BenchmarkEvictChurn has the pool traffic of a long-context replay: on a
// full pool a request reserves ~1900 pages of KV, evicting the oldest
// cached chain tail first, releases them when it finishes, and publishes
// its own fresh ~1900-page context. Time is reported per page evicted.
func BenchmarkEvictChurn(b *testing.B) {
	const chain = 1900
	p := New(4*chain*16, 16)
	chains := chainSupply{b: b, n: chain}
	for c := 0; c < 4; c++ {
		p.Insert(chains.take())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.Reserve(chain * 16) {
			b.Fatal("Reserve failed on an unpinned pool")
		}
		p.Release(chain * 16)
		p.Insert(chains.take())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/chain, "ns/page")
}

// BenchmarkMultiTurn has the pool traffic of multi-turn conversations on
// a full pool: each turn looks up the session's previous context, pins
// the hit, reserves KV for the rest, unpins and releases when it
// finishes, and publishes the context extended by the new turn. Sessions
// restart as fresh conversations past maxContext pages. Time is reported
// per page of published context.
func BenchmarkMultiTurn(b *testing.B) {
	const (
		sessions   = 32
		maxContext = 1024
		capacity   = 8192 // pages, about half of what the sessions hold
	)
	p := New(capacity*16, 16)
	rng := rand.New(rand.NewPCG(3, 3))
	type session struct {
		pages []PageID // the conversation's maxContext page IDs
		n     int      // pages published so far
	}
	ss := make([]session, sessions)
	convs := chainSupply{b: b, n: maxContext}
	restart := func(s *session) {
		s.pages = convs.take()
		s.n = 0
	}
	for i := range ss {
		restart(&ss[i])
	}
	var published int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &ss[rng.IntN(sessions)]
		turn := rng.IntN(57) + 8
		if s.n+turn > maxContext {
			restart(s)
		}
		prev, next := s.pages[:s.n], s.pages[:s.n+turn]
		hitPages := p.MatchTokens(prev, len(prev)*16) / 16
		p.Pin(prev, hitPages)
		need := int64(len(next)-hitPages) * 16
		if !p.Reserve(need) {
			b.Fatal("Reserve failed with only one turn pinned")
		}
		p.Unpin(prev, hitPages)
		p.Release(need)
		p.Insert(next)
		s.n = len(next)
		published += int64(len(next))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(published, 1)), "ns/page")
}
