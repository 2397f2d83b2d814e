package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"strings"

	"muxwise/internal/kvcache"
	"muxwise/internal/sim"
)

// Request is one LLM request as it appears in a trace. Token accounting
// follows Table 1: InputTokens includes both new and reused context.
type Request struct {
	ID      int
	Session int
	Turn    int
	Arrival sim.Time

	InputTokens  int // full context length presented to prefill
	ReusedTokens int // context produced by earlier turns / shared prompts
	OutputTokens int // tokens to generate

	// Pages covers the input context; AllPages additionally covers the
	// output, i.e. what a finished request publishes into the KV cache.
	Pages    []kvcache.PageID
	AllPages []kvcache.PageID
	// Segments describes AllPages as stream runs, in order: page k of
	// the concatenated runs is AllPages[k]. Generated requests hold the
	// shared system-prompt run, if any, then their own stream from index
	// 0; the first len(Pages) pages of the runs cover the input.
	Segments []Segment

	Dataset string
}

// Trace is an ordered set of requests.
type Trace struct {
	Name     string
	Requests []*Request
}

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Requests) }

// Segment is a run of one content stream's pages: indexes [From, To)
// of Stream. Page identity is the (stream, index) pair, so two requests
// share a page exactly when their runs overlap on the same stream.
type Segment struct {
	Stream   uint64
	From, To int
}

// Len returns the number of pages in the run.
func (s Segment) Len() int { return s.To - s.From }

// CheckSegments reports an error unless every segment has
// 0 ≤ From ≤ To and together they cover exactly len(AllPages) pages. A
// request with pages but no segments fails: routing reads the segments
// and would see no prefix.
func (r *Request) CheckSegments() error {
	n := 0
	for _, s := range r.Segments {
		if s.From < 0 || s.To < s.From {
			return fmt.Errorf("segment [%d,%d) of stream %#x is malformed", s.From, s.To, s.Stream)
		}
		if s.Len() > len(r.AllPages)-n {
			return fmt.Errorf("segments cover more than the %d pages of AllPages", len(r.AllPages))
		}
		n += s.Len()
	}
	if n != len(r.AllPages) {
		return fmt.Errorf("segments cover %d of the %d pages of AllPages (hand-built pages take PageSegments)", n, len(r.AllPages))
	}
	return nil
}

// PageSegments describes a page list built by hand, not by a generator:
// each page becomes a one-page run of a stream named by the page's own
// ID, so such requests share runs exactly when they share pages. Do not
// mix these requests with generated ones in a trace: a page ID may then
// name the same stream as a generated run.
func PageSegments(pages []kvcache.PageID) []Segment {
	segs := make([]Segment, len(pages))
	for i, pg := range pages {
		segs[i] = Segment{Stream: uint64(pg), To: 1}
	}
	return segs
}

// systemStream is the content stream of OpenThoughts' shared system
// prompt.
const systemStream = 0xC0FFEE

// pageID derives a stable unique page identity from a content stream and
// a position within it.
func pageID(stream uint64, idx int) kvcache.PageID {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(stream >> (8 * i))
		buf[8+i] = byte(uint64(idx) >> (8 * i))
	}
	h.Write(buf[:])
	return kvcache.PageID(h.Sum64())
}

// requestPages builds a request's page lists, hashing each page once,
// and the segments describing them. allPages holds all pages: the
// system-prompt pages sys, then the stream's pages from index 0. pages
// is a copy of its first in pages, not a subslice: sharing one
// array halves a trace's live heap, and on LooGLE that shrinks the heap
// goal enough for a collection to land inside a few-millisecond run
// (muxperf loogle-roofline, one P on a 2-core Xeon: probe_ms_p50 +26%).
func requestPages(sys []kvcache.PageID, stream uint64, in, all int) (pages, allPages []kvcache.PageID, segs []Segment) {
	allPages = append(make([]kvcache.PageID, 0, all), sys...)
	for i := 0; len(allPages) < all; i++ {
		allPages = append(allPages, pageID(stream, i))
	}
	pages = make([]kvcache.PageID, in)
	copy(pages, allPages)
	own := Segment{Stream: stream, To: all - len(sys)}
	if len(sys) == 0 {
		return pages, allPages, []Segment{own}
	}
	return pages, allPages, []Segment{{Stream: systemStream, To: len(sys)}, own}
}

// PageTokens is the page granularity all traces are generated with.
const PageTokens = kvcache.DefaultPageTokens

// singleTurn builds a trace of independent requests with optional shared
// system prompt (OpenThoughts-style constant reused prefix).
func singleTurn(name string, seed uint64, n int, in, out Dist, sysTokens int) *Trace {
	rng := rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15))
	tr := &Trace{Name: name}
	_, sysPages, _ := requestPages(nil, systemStream, 0, kvcache.PageCount(sysTokens, PageTokens))
	for i := 0; i < n; i++ {
		input := in.SampleInt(rng)
		if input <= sysTokens {
			input = sysTokens + 1
		}
		output := out.SampleInt(rng)
		stream := seed<<20 | uint64(i)
		pages, allPages, segs := requestPages(sysPages, stream,
			kvcache.PageCount(input, PageTokens), kvcache.PageCount(input+output, PageTokens))
		tr.Requests = append(tr.Requests, &Request{
			ID: i, Session: i, Turn: 0,
			InputTokens: input, ReusedTokens: sysTokens, OutputTokens: output,
			Pages: pages, AllPages: allPages, Segments: segs, Dataset: name,
		})
	}
	return tr
}

// ShareGPT generates n chatbot requests (input 4/226/1024, output
// 4/195/1838, no reuse).
func ShareGPT(seed uint64, n int) *Trace {
	return singleTurn("ShareGPT", seed, n,
		NewDist(4, 226, 1024), NewDist(4, 195, 1838), 0)
}

// LooGLE generates n long-context understanding requests (input
// 3380/30k/81k, output 2/15/326).
func LooGLE(seed uint64, n int) *Trace {
	return singleTurn("LooGLE", seed, n,
		NewDist(3380, 30000, 81000), NewDist(2, 15, 326), 0)
}

// OpenThoughts generates n reasoning requests (input 311/709/4633,
// output 684/8374/32k) sharing a 243-token system prompt.
func OpenThoughts(seed uint64, n int) *Trace {
	return singleTurn("OpenThoughts", seed, n,
		NewDist(311, 709, 4633), NewDist(684, 8374, 32000), 243)
}

// multiTurnParams tunes a session-structured workload.
type multiTurnParams struct {
	name       string
	turns      Dist // turns per session
	firstInput Dist // new tokens of the opening turn
	nextInput  Dist // new tokens of follow-up turns
	output     Dist
	maxContext int
}

// multiTurn builds session traces where each turn's context is the full
// history of the session (inputs + outputs), giving the growing reused
// lengths of the Conversation and Tool&Agent traces.
func multiTurn(p multiTurnParams, seed uint64, sessions int) *Trace {
	rng := rand.New(rand.NewPCG(seed, 0xD1B54A32D192ED03))
	tr := &Trace{Name: p.name}
	id := 0
	for s := 0; s < sessions; s++ {
		stream := seed<<22 | uint64(s)
		turns := p.turns.SampleInt(rng)
		ctx := 0 // tokens accumulated in the session so far
		for turn := 0; turn < turns; turn++ {
			in := p.firstInput
			if turn > 0 {
				in = p.nextInput
			}
			newTok := in.SampleInt(rng)
			output := p.output.SampleInt(rng)
			if ctx+newTok+output > p.maxContext {
				break
			}
			input := ctx + newTok
			pages, allPages, segs := requestPages(nil, stream,
				kvcache.PageCount(input, PageTokens), kvcache.PageCount(input+output, PageTokens))
			tr.Requests = append(tr.Requests, &Request{
				ID: id, Session: s, Turn: turn,
				InputTokens: input, ReusedTokens: ctx, OutputTokens: output,
				Pages: pages, AllPages: allPages, Segments: segs, Dataset: p.name,
			})
			id++
			ctx = input + output
		}
	}
	return tr
}

// Conversation generates a multi-turn chatbot trace approximating the
// paper's Conversation workload (input 891/7538/123k, output 1/342/2000,
// reused 0/4496/120k).
func Conversation(seed uint64, sessions int) *Trace {
	return multiTurn(multiTurnParams{
		name:       "Conversation",
		turns:      NewDist(1, 2.25, 40),
		firstInput: NewDist(891, 3400, 24000),
		nextInput:  NewDist(64, 2500, 24000),
		output:     NewDist(1, 342, 2000),
		maxContext: 123000,
	}, seed, sessions)
}

// ToolAgent generates a multi-turn tool/agent trace approximating the
// paper's Tool&Agent workload (input 891/8596/123k, output 1/182/2000,
// reused 0/4905/120k).
func ToolAgent(seed uint64, sessions int) *Trace {
	return multiTurn(multiTurnParams{
		name:       "Tool&Agent",
		turns:      NewDist(1, 2.2, 40),
		firstInput: NewDist(891, 4300, 26000),
		nextInput:  NewDist(64, 2900, 26000),
		output:     NewDist(1, 182, 2000),
		maxContext: 123000,
	}, seed, sessions)
}

// Builtin is a built-in workload as command lines name it.
type Builtin struct {
	Name string
	// Generate builds n requests of a single-turn workload or n sessions
	// of a multi-turn one.
	Generate func(seed uint64, n int) *Trace
	// Profile is a multi-turn workload's bursty Fig. 13 rate shape; nil
	// for a single-turn one.
	Profile func(scale float64) RateProfile
}

// builtins are the built-in workloads in the order help texts list them.
var builtins = []Builtin{
	{Name: "sharegpt", Generate: ShareGPT},
	{Name: "loogle", Generate: LooGLE},
	{Name: "openthoughts", Generate: OpenThoughts},
	{Name: "conversation", Generate: Conversation, Profile: ConversationProfile},
	{Name: "toolagent", Generate: ToolAgent, Profile: ToolAgentProfile},
}

// Lookup returns the built-in workload called name, ignoring case.
func Lookup(name string) (Builtin, bool) {
	for _, b := range builtins {
		if strings.EqualFold(b.Name, name) {
			return b, true
		}
	}
	return Builtin{}, false
}

// Names lists the built-in workloads' names, comma-separated.
func Names() string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.Name
	}
	return strings.Join(names, ", ")
}

// Mix interleaves traces by arrival order and renumbers request IDs;
// session identities stay distinct via per-trace offsets.
func Mix(name string, traces ...*Trace) *Trace {
	out := &Trace{Name: name}
	sessionBase := 0
	for _, t := range traces {
		maxSession := 0
		for _, r := range t.Requests {
			cp := *r
			cp.Session += sessionBase
			out.Requests = append(out.Requests, &cp)
			if r.Session > maxSession {
				maxSession = r.Session
			}
		}
		sessionBase += maxSession + 1
	}
	sort.SliceStable(out.Requests, func(i, j int) bool {
		return out.Requests[i].Arrival < out.Requests[j].Arrival
	})
	for i, r := range out.Requests {
		r.ID = i
	}
	return out
}

// Stats describes observed token statistics of a trace, mirroring Table 1.
type Stats struct {
	Count                         int
	InMin, InMean, InMax          int
	OutMin, OutMean, OutMax       int
	ReuseMin, ReuseMean, ReuseMax int
}

// Stats computes Table 1-style statistics for the trace.
func (t *Trace) Stats() Stats {
	s := Stats{InMin: math.MaxInt, OutMin: math.MaxInt, ReuseMin: math.MaxInt}
	var inSum, outSum, reuseSum int
	for _, r := range t.Requests {
		s.Count++
		inSum += r.InputTokens
		outSum += r.OutputTokens
		reuseSum += r.ReusedTokens
		s.InMin = min(s.InMin, r.InputTokens)
		s.InMax = max(s.InMax, r.InputTokens)
		s.OutMin = min(s.OutMin, r.OutputTokens)
		s.OutMax = max(s.OutMax, r.OutputTokens)
		s.ReuseMin = min(s.ReuseMin, r.ReusedTokens)
		s.ReuseMax = max(s.ReuseMax, r.ReusedTokens)
	}
	if s.Count > 0 {
		s.InMean = inSum / s.Count
		s.OutMean = outSum / s.Count
		s.ReuseMean = reuseSum / s.Count
	}
	return s
}

// String renders one Table 1 row.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d input %d/%d/%d output %d/%d/%d reused %d/%d/%d",
		s.Count, s.InMin, s.InMean, s.InMax,
		s.OutMin, s.OutMean, s.OutMax,
		s.ReuseMin, s.ReuseMean, s.ReuseMax)
}
