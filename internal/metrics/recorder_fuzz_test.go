package metrics

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"muxwise/internal/sim"
)

// flatRecorder is a test-only reference for the recorder: one (at, gap,
// record) entry per token in emission order, with no runs, and every
// request's fields kept eagerly. Aborted records stay in the log and
// readers skip their entries. A decode stream gives each member one
// token per step, the members carried over first and then the ones that
// joined since, in join order.
type flatRecorder struct {
	recs   map[int]*flatRec // live records by request ID
	all    []*flatRec       // every record in arrival order
	log    []flatSample
	halted bool
}

type flatRec struct {
	id                             int
	arrival, first, last, finished sim.Time
	maxGap                         sim.Time
	tokens, input                  int
	started, done, dead            bool
}

type flatSample struct {
	at, gap sim.Time
	rec     *flatRec
}

// flatStream is a decode stream of the reference.
type flatStream struct{ members, waiting []*flatRec }

func newFlatRecorder() *flatRecorder { return &flatRecorder{recs: map[int]*flatRec{}} }

func (f *flatRecorder) arrive(id int, at sim.Time, input int) {
	if _, ok := f.recs[id]; !ok && !f.halted {
		rec := &flatRec{id: id, arrival: at, input: input}
		f.recs[id] = rec
		f.all = append(f.all, rec)
	}
}

func (f *flatRecorder) token(id int, at sim.Time) {
	if rec, ok := f.recs[id]; ok && !f.halted {
		f.tokenRec(rec, at)
	}
}

func (f *flatRecorder) tokenRec(rec *flatRec, at sim.Time) {
	rec.tokens++
	if rec.started {
		gap := at - rec.last
		rec.maxGap = max(rec.maxGap, gap)
		f.log = append(f.log, flatSample{at: at, gap: gap, rec: rec})
	} else {
		rec.started, rec.first = true, at
	}
	rec.last = at
}

func (f *flatRecorder) finish(id int, at sim.Time) {
	if rec, ok := f.recs[id]; ok {
		f.finishRec(rec, at)
	}
}

func (f *flatRecorder) finishRec(rec *flatRec, at sim.Time) {
	if !f.halted && !rec.done {
		rec.done, rec.finished = true, at
	}
}

func (f *flatRecorder) abort(id int) bool {
	rec, ok := f.recs[id]
	if !ok || rec.done {
		return false
	}
	rec.dead = true
	delete(f.recs, id)
	return true
}

// join is Stream.Join: nil for an unknown request or a halted recorder.
func (f *flatRecorder) join(s *flatStream, id int) *flatRec {
	rec, ok := f.recs[id]
	if !ok || f.halted {
		return nil
	}
	s.waiting = append(s.waiting, rec)
	return rec
}

func isDead(rec *flatRec) bool { return rec.dead }

// step is Stream.Step: aborted members are gone from the stream.
func (f *flatRecorder) step(s *flatStream, at sim.Time) {
	if f.halted {
		return
	}
	s.members = slices.DeleteFunc(s.members, isDead)
	s.waiting = slices.DeleteFunc(s.waiting, isDead)
	for _, rec := range s.members {
		f.tokenRec(rec, at)
	}
	for _, rec := range s.waiting {
		f.tokenRec(rec, at)
	}
	s.members = append(s.members, s.waiting...)
	s.waiting = nil
}

// leave is Stream.Finish: nothing for an aborted member or a halted
// recorder.
func (f *flatRecorder) leave(s *flatStream, rec *flatRec, at sim.Time) {
	if rec == nil || rec.dead || f.halted {
		return
	}
	s.members = slices.DeleteFunc(s.members, func(m *flatRec) bool { return m == rec })
	s.waiting = slices.DeleteFunc(s.waiting, func(m *flatRec) bool { return m == rec })
	f.finishRec(rec, at)
}

// live is the samples of records never aborted, in emission order.
func (f *flatRecorder) live() []flatSample {
	var out []flatSample
	for _, s := range f.log {
		if !s.rec.dead {
			out = append(out, s)
		}
	}
	return out
}

// liveRecs is the records never aborted, in arrival order.
func (f *flatRecorder) liveRecs() []*flatRec {
	return slices.DeleteFunc(slices.Clone(f.all), isDead)
}

// mergedFlat is the reference for Merge: the inputs' live records and
// samples in input order.
func mergedFlat(fs []*flatRecorder) *flatRecorder {
	m := newFlatRecorder()
	for _, f := range fs {
		if f != nil {
			m.all = append(m.all, f.liveRecs()...)
			m.log = append(m.log, f.live()...)
		}
	}
	return m
}

// flatQuantiles is the reference summary of samples' gaps.
func flatQuantiles(samples []flatSample) Quantiles {
	gaps := make([]sim.Time, len(samples))
	for i, s := range samples {
		gaps[i] = s.gap
	}
	return refQuantiles(gaps)
}

// checkFlat compares every reader of r with the flat reference f: the
// per-request readers WithinSLO, Diagnose and Summarize, first is the
// one that runs first, so each must fill in stream members by itself;
// then every request's fields, the summary's TBT, TTFT and E2E,
// TBTAttainment, the TBTSamples sequence, the
// Rollup windows and the run log's own counts.
func checkFlat(t *testing.T, what string, r *Recorder, f *flatRecorder, end sim.Time, first int) {
	t.Helper()
	const slo = 3 * sim.Millisecond
	live, recs := f.live(), f.liveRecs()
	runs := 0
	for b := range r.runs.blocks() {
		for _, run := range r.runs.block(b) {
			if run.n < 0 {
				t.Fatalf("%s: a run holds %d samples", what, run.n)
			}
			runs += int(run.n)
		}
	}
	if runs != r.nTBT || r.nTBT != len(live) {
		t.Fatalf("%s: runs hold %d samples, nTBT %d; reference has %d live", what, runs, r.nTBT, len(live))
	}

	within, tbtMiss, decoded := 0, 0, 0
	var tpot []float64
	for _, rec := range recs {
		decoded += rec.tokens
		if !rec.done || !rec.started {
			continue
		}
		if rec.maxGap > slo {
			tbtMiss++
		} else if rec.first-rec.arrival <= 2*slo {
			within++
		}
		if rec.tokens > 1 {
			tpot = append(tpot, (rec.last-rec.first).Seconds()/float64(rec.tokens-1))
		}
	}
	readers := []func(){
		func() {
			if got := r.WithinSLO(SLO{TTFT: 2 * slo, TBT: slo}); got != within {
				t.Fatalf("%s: WithinSLO %d, reference %d", what, got, within)
			}
		},
		func() {
			b := r.Diagnose(SLO{TTFT: 2 * slo, TBT: slo}, DiagnoseAux{})
			if b.TBTViolation != tbtMiss || b.Misses != len(recs)-within {
				t.Fatalf("%s: Diagnose %+v, reference %d TBT violations of %d misses", what, b, tbtMiss, len(recs)-within)
			}
		},
		func() {
			s := r.Summarize("x", end)
			if s.DecodeTokens != int64(decoded) || s.Requests != len(recs) ||
				fmt.Sprintf("%#v", s.TPOT) != fmt.Sprintf("%#v", quantiles(tpot)) {
				t.Fatalf("%s: summary %d tokens, %d requests, TPOT %+v; reference %d, %d, %+v",
					what, s.DecodeTokens, s.Requests, s.TPOT, decoded, len(recs), quantiles(slices.Clone(tpot)))
			}
		},
	}
	for i := range readers {
		readers[(first+i)%len(readers)]()
	}

	var got []*reqRec
	for _, rec := range r.recs {
		if !rec.dead {
			got = append(got, rec)
		}
	}
	if len(got) != len(recs) {
		t.Fatalf("%s: %d live records, reference %d", what, len(got), len(recs))
	}
	for i, want := range recs {
		rec := got[i]
		first, last, samples := sim.Time(-1), rec.lastToken, 0
		if want.started {
			first, last, samples = want.first, want.last, want.tokens-1
		}
		if rec.id != want.id || rec.tokens != want.tokens || rec.tbtN != samples ||
			rec.firstToken != first || rec.lastToken != last || rec.maxGap != want.maxGap || rec.done != want.done {
			t.Fatalf("%s: request %d: %d tokens (%d gaps) %v to %v, worst gap %v, done %v; reference request %d: %d tokens %v to %v, worst gap %v, done %v",
				what, rec.id, rec.tokens, rec.tbtN, rec.firstToken, rec.lastToken, rec.maxGap, rec.done,
				want.id, want.tokens, first, last, want.maxGap, want.done)
		}
	}

	sum := r.Summarize("x", end)
	if want := flatQuantiles(live); fmt.Sprintf("%#v", sum.TBT) != fmt.Sprintf("%#v", want) {
		t.Fatalf("%s: summary TBT %#v, reference %#v", what, sum.TBT, want)
	}
	var ttft, e2e []sim.Time
	for _, rec := range recs {
		if rec.started {
			ttft = append(ttft, rec.first-rec.arrival)
		}
		if rec.done {
			e2e = append(e2e, rec.finished-rec.arrival)
		}
	}
	if want := refQuantiles(ttft); fmt.Sprintf("%#v", sum.TTFT) != fmt.Sprintf("%#v", want) {
		t.Fatalf("%s: summary TTFT %#v, reference %#v", what, sum.TTFT, want)
	}
	if want := refQuantiles(e2e); fmt.Sprintf("%#v", sum.E2E) != fmt.Sprintf("%#v", want) {
		t.Fatalf("%s: summary E2E %#v, reference %#v", what, sum.E2E, want)
	}

	ok := 0
	secs := make([]float64, 0, len(live))
	for _, s := range live {
		secs = append(secs, s.gap.Seconds())
		if s.gap.Seconds() <= slo.Seconds() {
			ok++
		}
	}
	wantAtt := 1.0
	if len(live) > 0 {
		wantAtt = float64(ok) / float64(len(live))
	}
	if gotAtt := r.TBTAttainment(slo); gotAtt != wantAtt {
		t.Fatalf("%s: TBTAttainment %v, reference %v", what, gotAtt, wantAtt)
	}
	if gotSecs := r.TBTSamples(); !slices.Equal(gotSecs, secs) {
		t.Fatalf("%s: TBTSamples %v, reference %v", what, gotSecs, secs)
	}

	bounds := []sim.Time{0}
	for _, cut := range []sim.Time{end / 3, end / 2, end - 2*sim.Millisecond} {
		if cut = cut / sim.Millisecond * sim.Millisecond; cut > bounds[len(bounds)-1] && cut < end {
			bounds = append(bounds, cut)
		}
	}
	bounds = append(bounds, end)
	wins := r.Rollup(bounds, slo)
	for i, w := range wins {
		var in []flatSample
		want := w
		want.tbtN, want.tbtOK = 0, 0
		for _, s := range live {
			if locate(bounds, s.at) == i {
				in = append(in, s)
				want.tbtN++
				if s.gap.Seconds() <= slo.Seconds() {
					want.tbtOK++
				}
			}
		}
		want.TBT = flatQuantiles(in)
		ttft = ttft[:0]
		for _, rec := range recs {
			if rec.started && locate(bounds, rec.first) == i {
				ttft = append(ttft, rec.first-rec.arrival)
			}
		}
		want.TTFT = refQuantiles(ttft)
		if fmt.Sprintf("%#v", w) != fmt.Sprintf("%#v", want) {
			t.Fatalf("%s: window %d %+v, reference %+v", what, i, w, want)
		}
	}
}

const (
	maxRecorderOps = 1024
	maxRecorders   = 5
)

// batchEntry is a request a test decode batch holds: its stream Member
// and reference record, kept after an abort as an engine's batch keeps
// the request.
type batchEntry struct {
	id   int
	m    Member
	flat *flatRec
}

// runRecorderOps interprets data as a program of two-byte (op, arg)
// instructions over up to five recorders, each with two decode streams,
// and their flat references, then checks every recorder and their Merge
// against the references. Ops below 0x80 drive requests by ID; ops from 0x80 drive
// the streams and check the recorders mid-stream.
func runRecorderOps(t *testing.T, data []byte) {
	var (
		recs    [maxRecorders]*Recorder
		flats   [maxRecorders]*flatRecorder
		streams [maxRecorders][2]*Stream
		fstream [maxRecorders][2]*flatStream
		batches [maxRecorders][2][]batchEntry
		open    [maxRecorders][]int // arrived, not finished or aborted
		gone    [maxRecorders][]int // aborted, free to re-arrive
		member  [maxRecorders]map[int]bool
		cur     int
		next    int
		clock   sim.Time
	)
	use := func(i int) {
		cur = i
		if recs[i] == nil {
			recs[i], flats[i] = NewRecorder(), newFlatRecorder()
			for k := range streams[i] {
				streams[i][k], fstream[i][k] = recs[i].NewStream(), &flatStream{}
			}
			member[i] = map[int]bool{}
		}
	}
	use(0)
	// emit gives a token by ID to an open request outside the streams.
	emit := func(id int) {
		if !member[cur][id] {
			recs[cur].Token(id, clock)
			flats[cur].token(id, clock)
		}
	}
	abort := func(i int) {
		id := open[cur][i]
		if got, want := recs[cur].Abort(id), flats[cur].abort(id); got != want {
			t.Fatalf("Abort(%d) = %v, reference %v", id, got, want)
		}
		open[cur] = slices.Delete(open[cur], i, i+1)
		gone[cur] = append(gone[cur], id)
		delete(member[cur], id)
	}
	// current reports whether e's record is the live one under its ID.
	current := func(e batchEntry) bool {
		return e.flat != nil && flats[cur].recs[e.id] == e.flat
	}
	step := func(k int) {
		streams[cur][k].Step(clock)
		flats[cur].step(fstream[cur][k], clock)
	}
	for n := 0; n < maxRecorderOps && len(data) >= 2; n++ {
		op, arg := data[0], int(data[1])
		data = data[2:]
		if op >= 0x80 {
			k := arg & 1
			batch := &batches[cur][k]
			switch op & 15 {
			case 0, 1, 2, 3: // join an open request, or rarely an aborted one
				id, ok := -1, false
				if g := gone[cur]; arg>>6 == 3 && len(g) > 0 {
					id, ok = g[arg%len(g)], true
				} else if o := open[cur]; len(o) > 0 {
					id = o[(arg>>1)%len(o)]
					ok = !member[cur][id]
				}
				if !ok {
					continue
				}
				e := batchEntry{id: id, m: streams[cur][k].Join(id), flat: flats[cur].join(fstream[cur][k], id)}
				if (e.m.rec == nil) != (e.flat == nil) {
					t.Fatalf("Join(%d) gave member %v, reference %v", id, e.m.rec != nil, e.flat != nil)
				}
				if e.flat != nil {
					member[cur][id] = true
				}
				*batch = append(*batch, e)
			case 4, 5, 6, 7, 8, 9: // a decode step, at a new instant or the last one
				if op&15 < 8 {
					clock += sim.Time(1+arg>>5) * sim.Millisecond
				}
				step(k)
			case 10, 11: // a member finishes and leaves its batch
				if len(*batch) == 0 {
					continue
				}
				i := (arg >> 1) % len(*batch)
				e := (*batch)[i]
				*batch = slices.Delete(*batch, i, i+1)
				if current(e) && !flats[cur].halted {
					open[cur] = slices.DeleteFunc(open[cur], func(id int) bool { return id == e.id })
					delete(member[cur], e.id)
				}
				streams[cur][k].Finish(e.m, clock)
				flats[cur].leave(fstream[cur][k], e.flat, clock)
			case 12: // every reader, mid-stream
				checkFlat(t, fmt.Sprintf("recorder %d mid-stream", cur), recs[cur], flats[cur], clock+sim.Millisecond, arg)
			case 13: // a merge, mid-stream
				checkFlat(t, "merge mid-stream", Merge(recs[:]...), mergedFlat(flats[:]), clock+sim.Millisecond, arg)
			case 14: // abort a stream member, which its batch still holds
				if len(*batch) == 0 {
					continue
				}
				if e := (*batch)[(arg>>1)%len(*batch)]; current(e) {
					if i := slices.Index(open[cur], e.id); i >= 0 {
						abort(i)
					}
				}
			default: // both streams step at one instant, or rarely a halt
				if arg < 16 {
					recs[cur].Halt()
					flats[cur].halted = true
					continue
				}
				clock += sim.Millisecond
				step(0)
				step(1)
			}
			continue
		}
		switch op & 15 {
		case 0, 1: // arrival, or re-arrival of an aborted ID
			id := next
			if g := gone[cur]; arg&1 == 1 && len(g) > 0 {
				id, gone[cur] = g[len(g)-1], g[:len(g)-1]
			} else {
				next++
			}
			recs[cur].Arrive(id, clock, 1+arg)
			flats[cur].arrive(id, clock, 1+arg)
			open[cur] = append(open[cur], id)
		case 2, 3, 4, 5, 6, 7, 8: // a decode step by ID: several records, one instant
			if op&15 <= 6 {
				clock += sim.Time(1+arg>>5) * sim.Millisecond
			}
			if n := len(open[cur]); n > 0 {
				for k := range min(1+arg&7, n) {
					emit(open[cur][(arg>>3+k)%n])
				}
			}
		case 9: // one abort, possibly between tokens of one step
			if len(open[cur]) > 0 {
				abort(arg % len(open[cur]))
			}
		case 10: // aborts enough to trigger compact
			for range 1 + arg&3 {
				if len(open[cur]) > 0 {
					abort(arg % len(open[cur]))
				}
			}
		case 11:
			if len(open[cur]) > 0 {
				i := arg % len(open[cur])
				recs[cur].Finish(open[cur][i], clock)
				flats[cur].finish(open[cur][i], clock)
				open[cur] = slices.Delete(open[cur], i, i+1)
			}
		case 12: // switch recorders, summarizing the one left mid-run
			recs[cur].Summarize("x", clock)
			use(arg % maxRecorders)
		default: // one token, or rarely a halt
			if arg < 8 {
				recs[cur].Halt()
				flats[cur].halted = true
			} else if len(open[cur]) > 0 {
				emit(open[cur][arg%len(open[cur])])
			}
		}
	}
	end := clock + sim.Millisecond
	// Merged first, before any reader of the inputs has run.
	m := Merge(recs[:]...)
	for i, r := range recs {
		if r != nil {
			checkFlat(t, fmt.Sprintf("recorder %d", i), r, flats[i], end, i)
		}
	}
	checkFlat(t, "merge", m, mergedFlat(flats[:]), end, 0)
}

// The run log answers every reader bitwise as the flat per-sample log
// does, over random programs of arrivals, batched and single tokens,
// decode streams (joins, steps, finishes and aborts of members, an
// aborted ID re-arriving while a batch still holds it), aborts with and
// without compaction, finishes, halts, and reads and merges mid-stream.
func TestRecorderMatchesFlatReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 17))
	for range 500 {
		data := make([]byte, 2*(1+rng.IntN(maxRecorderOps)))
		for j := range data {
			data[j] = byte(rng.Uint32())
		}
		runRecorderOps(t, data)
	}
}

// FuzzRecorderOps runs the reference comparison on arbitrary programs.
// The committed corpus under testdata/fuzz/FuzzRecorderOps replays on
// every go test run.
func FuzzRecorderOps(f *testing.F) {
	f.Fuzz(runRecorderOps)
}

// Long decode streams: programs of mostly steps of one stream, with
// joins, finishes, aborts and mid-stream reads, run long enough that the
// iteration log fills and drops the iterations no member needs.
func TestStreamLogTrimMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 3))
	for range 40 {
		var data []byte
		for range maxRecorderOps {
			var op byte
			switch k := rng.IntN(100); {
			case k < 55:
				op = 0x84 // a step at a new instant
			case k < 70:
				op = 0x80 // join
			case k < 84:
				op = 0x8a // finish
			case k < 88:
				op = 0x8e // abort a member
			case k < 89:
				op = 0x8c // read mid-stream
			case k < 90:
				op = 0x8d // merge mid-stream
			default:
				op = 0x00 // arrival
			}
			data = append(data, op, byte(rng.Uint32())&^1) // stream 0
		}
		runRecorderOps(t, data)
	}
}

// The iteration log spans at most about twice the oldest member's life:
// requests that each stay about 100 steps keep it small, and a request
// that stays 5,000 steps keeps every iteration of its stay, so its abort
// still takes out exactly its samples.
func TestStreamLogBoundedByOldestMember(t *testing.T) {
	const batch, renew, half = 8, 12, 5000
	r := NewRecorder()
	s := r.NewStream()
	members := make([]Member, batch)
	for i := range 2 * half {
		at := sim.Time(i+1) * sim.Millisecond
		// One slot renews every renew steps, so each request stays
		// batch·renew steps.
		if i%renew == 0 {
			j := i / renew % batch
			s.Finish(members[j], at)
			r.Arrive(i, at, 1)
			members[j] = s.Join(i)
		}
		if i == half {
			if c := cap(s.iters); c > 4*batch*renew {
				t.Fatalf("iteration log capacity %d with members %d steps old", c, batch*renew)
			}
			r.Arrive(-1, at, 1)
			s.Join(-1)
		}
		s.Step(at)
	}
	if n := len(s.iters); n < half-1 {
		t.Fatalf("the log holds %d iterations with a member %d steps old", n, half)
	}
	before := r.nTBT
	r.Abort(-1)
	if got := before - r.nTBT; got != half-1 {
		t.Fatalf("aborting the oldest member took %d samples, want %d", got, half-1)
	}
}
