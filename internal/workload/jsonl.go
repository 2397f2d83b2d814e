package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"muxwise/internal/kvcache"
	"muxwise/internal/sim"
)

// Sanity bounds on loaded traces. JSON numbers can carry values no
// generator would emit (a 2^60-token request, a year-long arrival gap),
// and page-sequence reconstruction allocates proportionally to the token
// counts — so a loader fed hostile or corrupt input must reject rather
// than arrive at an OOM or a simulation that never ends.
const (
	// maxJSONLTokens bounds a single request's input and output token
	// counts (~17× the largest model context simulated here).
	maxJSONLTokens = 1 << 21
	// maxJSONLTotalTokens budgets input+output tokens across the whole
	// trace, bounding page reconstruction to tens of MB no matter how
	// many near-cap lines the input stacks up (~4× the largest
	// paper-scale trace).
	maxJSONLTotalTokens = 1 << 26
	// maxJSONLRequests bounds the request count, so a flood of minimal
	// lines cannot build an unbounded trace under the token budget
	// (~250× the paper-scale bursty mix).
	maxJSONLRequests = 1 << 20
)

// jsonlRecord is the on-disk form of one request. KV page identities are
// not stored: Load rebuilds them from session identity and token
// positions, which preserves intra-session prefix reuse exactly.
// Cross-session sharing (e.g. OpenThoughts' common system prompt) is not
// representable in this format; a loaded trace treats such prefixes as
// per-session content.
type jsonlRecord struct {
	ID      int     `json:"id"`
	Session int     `json:"session"`
	Turn    int     `json:"turn"`
	Arrival float64 `json:"arrival_s"`
	Input   int     `json:"input_tokens"`
	Reused  int     `json:"reused_tokens"`
	Output  int     `json:"output_tokens"`
	Dataset string  `json:"dataset,omitempty"`
}

// WriteJSONL serializes the trace as one JSON object per line.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range t.Requests {
		rec := jsonlRecord{
			ID: r.ID, Session: r.Session, Turn: r.Turn,
			Arrival: r.Arrival.Seconds(),
			Input:   r.InputTokens, Reused: r.ReusedTokens, Output: r.OutputTokens,
			Dataset: r.Dataset,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a trace written by WriteJSONL (or any compatible
// JSONL), reconstructing KV page sequences from session identity so that
// multi-turn prefix reuse replays faithfully.
func ReadJSONL(r io.Reader, name string) (*Trace, error) {
	tr := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	seen := map[int]bool{}
	var totalTokens int64
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", line, err)
		}
		if rec.Input < 1 || rec.Output < 1 {
			return nil, fmt.Errorf("workload: line %d: input and output tokens must be ≥1", line)
		}
		if rec.Input > maxJSONLTokens || rec.Output > maxJSONLTokens {
			return nil, fmt.Errorf("workload: line %d: token count exceeds %d", line, maxJSONLTokens)
		}
		if rec.Reused < 0 || rec.Reused >= rec.Input {
			return nil, fmt.Errorf("workload: line %d: reused tokens %d outside [0,%d)", line, rec.Reused, rec.Input)
		}
		if math.IsNaN(rec.Arrival) || rec.Arrival < 0 || rec.Arrival > MaxArrival.Seconds() {
			return nil, fmt.Errorf("workload: line %d: arrival %v outside [0,%g] seconds", line, rec.Arrival, MaxArrival.Seconds())
		}
		// Request IDs must be unique: recorders key on them, and a fleet
		// run merging per-replica recorders panics on a duplicate — reject
		// at load time instead of crashing mid-simulation.
		if seen[rec.ID] {
			return nil, fmt.Errorf("workload: line %d: duplicate request id %d", line, rec.ID)
		}
		seen[rec.ID] = true
		if totalTokens += int64(rec.Input) + int64(rec.Output); totalTokens > maxJSONLTotalTokens {
			return nil, fmt.Errorf("workload: line %d: trace exceeds the %d-token budget", line, int64(maxJSONLTotalTokens))
		}
		if len(tr.Requests) >= maxJSONLRequests {
			return nil, fmt.Errorf("workload: line %d: trace exceeds %d requests", line, maxJSONLRequests)
		}
		pages, allPages, segs := requestPages(nil, 0xFEED<<40|uint64(rec.Session),
			kvcache.PageCount(rec.Input, PageTokens), kvcache.PageCount(rec.Input+rec.Output, PageTokens))
		tr.Requests = append(tr.Requests, &Request{
			ID: rec.ID, Session: rec.Session, Turn: rec.Turn,
			Arrival:      sim.FromSeconds(rec.Arrival),
			InputTokens:  rec.Input,
			ReusedTokens: rec.Reused,
			OutputTokens: rec.Output,
			Pages:        pages,
			AllPages:     allPages,
			Segments:     segs,
			Dataset:      rec.Dataset,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(tr.Requests, func(i, j int) bool {
		return tr.Requests[i].Arrival < tr.Requests[j].Arrival
	})
	return tr, nil
}
