package workload

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzParseJSONL drives ReadJSONL with arbitrary bytes: whatever the
// input, the parser must return a trace or an error — never panic, never
// allocate unboundedly — and every accepted trace must satisfy the
// invariants the simulators rely on (positive token counts, reuse inside
// the input, finite non-negative sorted arrivals, page sequences sized
// to the tokens and described exactly by the segments).
func FuzzParseJSONL(f *testing.F) {
	f.Add(`{"id":0,"session":0,"input_tokens":10,"output_tokens":5,"arrival_s":1.5}`)
	f.Add(`{"id":1,"session":3,"turn":2,"input_tokens":64,"reused_tokens":32,"output_tokens":8,"arrival_s":0,"dataset":"x"}`)
	f.Add(`{not json}`)
	f.Add(`{"id":0,"session":0,"input_tokens":0,"output_tokens":5}`)
	f.Add(`{"id":0,"session":0,"input_tokens":-4,"output_tokens":-9}`)
	f.Add(`{"id":0,"session":0,"input_tokens":10,"reused_tokens":10,"output_tokens":5}`)
	f.Add(`{"id":0,"session":0,"input_tokens":10,"output_tokens":5,"arrival_s":NaN}`)
	f.Add(`{"id":0,"session":0,"input_tokens":10,"output_tokens":5,"arrival_s":-2}`)
	f.Add(`{"id":0,"session":0,"input_tokens":10,"output_tokens":5,"arrival_s":1e999}`)
	f.Add(`{"id":0,"session":0,"input_tokens":72057594037927936,"output_tokens":5}`)
	f.Add("\n\n")
	f.Add(`{"id":0,"session":0,"input_tokens":10,"output_tokens":5}` + "\n" + `{"id":0,"session":1,"input_tokens":10,"output_tokens":5}`)
	f.Add(`{"id":0,"session":0,"input_tokens":2097152,"output_tokens":2097152}`)
	f.Add(`{"id":0,"session":0,"input_tokens":10,"output_tokens":5}` + "\n" + `{"id":1,"session":0,"input_tokens":20,"reused_tokens":15,"output_tokens":5,"arrival_s":3}`)
	// A real serialized trace keeps the valid path in the corpus.
	var buf bytes.Buffer
	if err := Conversation(5, 3).WithPoissonArrivals(5, 1).WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())

	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadJSONL(strings.NewReader(input), "fuzz")
		if err != nil {
			return
		}
		if len(tr.Requests) > maxJSONLRequests {
			t.Fatalf("request-count bound not enforced (%d)", len(tr.Requests))
		}
		var prev *Request
		ids := map[int]bool{}
		var total int64
		for i, r := range tr.Requests {
			if ids[r.ID] {
				t.Fatalf("request %d: duplicate id %d accepted", i, r.ID)
			}
			ids[r.ID] = true
			total += int64(r.InputTokens) + int64(r.OutputTokens)
			if total > maxJSONLTotalTokens {
				t.Fatalf("request %d: trace token budget not enforced (%d)", i, total)
			}
			if r.InputTokens < 1 || r.OutputTokens < 1 {
				t.Fatalf("request %d: non-positive tokens accepted (in=%d out=%d)", i, r.InputTokens, r.OutputTokens)
			}
			if r.InputTokens > maxJSONLTokens || r.OutputTokens > maxJSONLTokens {
				t.Fatalf("request %d: token bound not enforced (in=%d out=%d)", i, r.InputTokens, r.OutputTokens)
			}
			if r.ReusedTokens < 0 || r.ReusedTokens >= r.InputTokens {
				t.Fatalf("request %d: reused %d outside [0,%d)", i, r.ReusedTokens, r.InputTokens)
			}
			if r.Arrival < 0 {
				t.Fatalf("request %d: negative arrival %v", i, r.Arrival)
			}
			if prev != nil && r.Arrival < prev.Arrival {
				t.Fatalf("request %d: arrivals not sorted (%v after %v)", i, r.Arrival, prev.Arrival)
			}
			if len(r.Pages) == 0 || len(r.AllPages) < len(r.Pages) {
				t.Fatalf("request %d: page sequences not reconstructed (%d input, %d total)", i, len(r.Pages), len(r.AllPages))
			}
			if err := r.CheckSegments(); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if !slices.Equal(expandSegments(r), r.AllPages) {
				t.Fatalf("request %d: segments %v do not expand to AllPages", i, r.Segments)
			}
			prev = r
		}
	})
}
