package workload

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"muxwise/internal/kvcache"
)

// expandSegments lists the pages r's segments name, through pageID.
func expandSegments(r *Request) []kvcache.PageID {
	var out []kvcache.PageID
	for _, s := range r.Segments {
		for i := s.From; i < s.To; i++ {
			out = append(out, pageID(s.Stream, i))
		}
	}
	return out
}

// Every generator, a trace loaded from JSONL and a mix describe
// AllPages exactly by their segments: the system-prompt run first when
// there is one, then the request's own stream from index 0.
func TestSegmentsDescribeAllPages(t *testing.T) {
	var buf bytes.Buffer
	if err := ToolAgent(2, 20).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSONL(&buf, "loaded")
	if err != nil {
		t.Fatal(err)
	}
	mixed := Mix("mixed", OpenThoughts(3, 30), Conversation(3, 20), ShareGPT(3, 30))
	for _, tr := range []*Trace{ShareGPT(2, 50), LooGLE(2, 10), OpenThoughts(2, 30),
		Conversation(2, 20), ToolAgent(2, 20), loaded, mixed} {
		for _, r := range tr.Requests {
			if err := r.CheckSegments(); err != nil {
				t.Fatalf("%s req %d: %v", tr.Name, r.ID, err)
			}
			if !slices.Equal(expandSegments(r), r.AllPages) {
				t.Fatalf("%s req %d: segments %v do not expand to AllPages", tr.Name, r.ID, r.Segments)
			}
			if last := r.Segments[len(r.Segments)-1]; last.From != 0 || len(r.Segments) > 2 ||
				len(r.Segments) == 2 && r.Segments[0].Stream != systemStream {
				t.Fatalf("%s req %d: segments %v are not [system run,] own stream from 0", tr.Name, r.ID, r.Segments)
			}
		}
	}
}

// The routing index keys pages by (stream, index), the KV pool by page
// ID, so the two agree only while pageID is injective on the pairs a run
// sees. Check it on the union of the traces the placement and fleet
// goldens replay (the cluster tests' mixed traces, seeds 29 and 31), the
// frontier grids (MixedBursty seeds 11 and 17) and the first four probe
// seeds of every muxperf workload at run seed 1.
func TestPageIDsDistinctOnGoldenTraces(t *testing.T) {
	ends := map[uint64]int{} // stream → end of its longest run
	add := func(tr *Trace) {
		for _, r := range tr.Requests {
			for _, s := range r.Segments {
				if s.From != 0 {
					t.Fatalf("%s req %d: run %v does not start at index 0", tr.Name, r.ID, s)
				}
				ends[s.Stream] = max(ends[s.Stream], s.To)
			}
		}
	}
	mixedBursty := func(seed uint64, sessions int) {
		add(Conversation(seed, sessions))
		add(ToolAgent(seed+1, sessions))
	}
	mixedBursty(29, 24)
	mixedBursty(31, 24)
	mixedBursty(11, 150)
	mixedBursty(17, 120)
	for k := range uint64(4) {
		seed := 1000 + k + 1 // muxperf's probeSeed(1, k)
		add(ShareGPT(seed, 1000))
		add(LooGLE(seed, 200))
		mixedBursty(seed, 60)
		add(Conversation(seed, 150))
	}
	var total int
	for _, end := range ends {
		total += end
	}
	ids := make([]kvcache.PageID, 0, total)
	for stream, end := range ends {
		for i := range end {
			ids = append(ids, pageID(stream, i))
		}
	}
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1] {
			continue
		}
		var pairs []string
		for stream, end := range ends {
			for j := range end {
				if pageID(stream, j) == ids[i] {
					pairs = append(pairs, fmt.Sprintf("(%#x, %d)", stream, j))
				}
			}
		}
		t.Fatalf("page ID %#x is shared by %s", ids[i], strings.Join(pairs, ", "))
	}
	t.Logf("%d streams, %d distinct pages", len(ends), len(ids))
}

func TestCheckSegments(t *testing.T) {
	pages := make([]kvcache.PageID, 5)
	for _, c := range []struct {
		name string
		segs []Segment
		ok   bool
	}{
		{"exact", []Segment{{Stream: 1, To: 2}, {Stream: 2, To: 3}}, true},
		{"empty runs count nothing", []Segment{{Stream: 1, From: 4, To: 4}, {Stream: 2, From: 1, To: 6}}, true},
		{"no segments", nil, false},
		{"short", []Segment{{Stream: 1, To: 4}}, false},
		{"long", []Segment{{Stream: 1, To: 3}, {Stream: 1, To: 3}}, false},
		{"negative from", []Segment{{Stream: 1, From: -1, To: 4}}, false},
		{"reversed", []Segment{{Stream: 1, From: 3, To: 2}, {Stream: 2, To: 6}}, false},
	} {
		r := &Request{AllPages: pages, Segments: c.segs}
		if err := r.CheckSegments(); (err == nil) != c.ok {
			t.Errorf("%s: CheckSegments() = %v, want ok %v", c.name, err, c.ok)
		}
	}
	if err := (&Request{}).CheckSegments(); err != nil {
		t.Errorf("a request without pages needs no segments: %v", err)
	}
}
