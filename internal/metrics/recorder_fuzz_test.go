package metrics

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"muxwise/internal/sim"
)

// flatRecorder is a test-only reference for the TBT log: one (at, gap,
// record) entry per token in emission order, with no runs. Aborted
// records stay in the log and readers skip their entries.
type flatRecorder struct {
	recs   map[int]*flatRec
	log    []flatSample
	halted bool
}

type flatRec struct {
	started, done, dead bool
	last                sim.Time
}

type flatSample struct {
	at, gap sim.Time
	rec     *flatRec
}

func newFlatRecorder() *flatRecorder { return &flatRecorder{recs: map[int]*flatRec{}} }

func (f *flatRecorder) arrive(id int) {
	if _, ok := f.recs[id]; !ok && !f.halted {
		f.recs[id] = &flatRec{}
	}
}

func (f *flatRecorder) token(id int, at sim.Time) {
	rec, ok := f.recs[id]
	if !ok || f.halted {
		return
	}
	if rec.started {
		f.log = append(f.log, flatSample{at: at, gap: at - rec.last, rec: rec})
	}
	rec.started, rec.last = true, at
}

func (f *flatRecorder) finish(id int) {
	if rec, ok := f.recs[id]; ok && !f.halted {
		rec.done = true
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

// mergedFlat is the reference for Merge: the inputs' live samples in input
// order.
func mergedFlat(fs []*flatRecorder) *flatRecorder {
	m := newFlatRecorder()
	for _, f := range fs {
		if f != nil {
			m.log = append(m.log, f.live()...)
		}
	}
	return m
}

// flatQuantiles sorts the gaps of samples one by one, as the flat log did.
func flatQuantiles(samples []flatSample) Quantiles {
	gaps := make([]sim.Time, len(samples))
	for i, s := range samples {
		gaps[i] = s.gap
	}
	return timeQuantiles(gaps)
}

// checkFlat compares every TBT reader of r bitwise with the flat
// reference f: Summarize, TBTAttainment, the TBTSamples sequence and the
// RollupSLO windows, plus the run and slot logs' own counts.
func checkFlat(t *testing.T, what string, r *Recorder, f *flatRecorder, end sim.Time) {
	t.Helper()
	const slo = 3 * sim.Millisecond
	live := f.live()
	runs := 0
	for b := range r.runs.blocks() {
		for _, run := range r.runs.block(b) {
			runs += run.n
		}
	}
	if runs != r.nTBT || r.slots.len() != r.nTBT || r.nTBT-r.deadTBT != len(live) {
		t.Fatalf("%s: runs hold %d samples, slots %d, nTBT %d (%d dead); reference has %d live",
			what, runs, r.slots.len(), r.nTBT, r.deadTBT, len(live))
	}

	got := r.Summarize("x", end)
	want := got
	want.TBT = flatQuantiles(live)
	if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
		t.Fatalf("%s: summary TBT %#v, reference %#v", what, got.TBT, want.TBT)
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
	wins := r.RollupSLO(bounds, slo)
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
		if fmt.Sprintf("%#v", w) != fmt.Sprintf("%#v", want) {
			t.Fatalf("%s: window %d %+v, reference %+v", what, i, w, want)
		}
	}
}

const (
	maxRecorderOps = 1024
	maxRecorders   = 5
)

// runRecorderOps interprets data as a program of two-byte (op, arg)
// instructions over up to five recorders and their flat references,
// then checks every recorder, their Merge and their MergeSorted against
// the references.
func runRecorderOps(t *testing.T, data []byte) {
	var (
		recs  [maxRecorders]*Recorder
		flats [maxRecorders]*flatRecorder
		open  [maxRecorders][]int // arrived, not finished or aborted
		gone  [maxRecorders][]int // aborted, free to re-arrive
		slots = map[int]*Slot{}
		cur   int
		next  int
		clock sim.Time
	)
	use := func(i int) {
		cur = i
		if recs[i] == nil {
			recs[i], flats[i] = NewRecorder(), newFlatRecorder()
		}
	}
	use(0)
	emit := func(id int, bySlot bool) {
		if bySlot {
			recs[cur].TokenSlot(slots[id], id, clock)
		} else {
			recs[cur].Token(id, clock)
		}
		flats[cur].token(id, clock)
	}
	abort := func(i int) {
		id := open[cur][i]
		if got, want := recs[cur].Abort(id), flats[cur].abort(id); got != want {
			t.Fatalf("Abort(%d) = %v, reference %v", id, got, want)
		}
		open[cur] = slices.Delete(open[cur], i, i+1)
		gone[cur] = append(gone[cur], id)
	}
	for step := 0; step < maxRecorderOps && len(data) >= 2; step++ {
		op, arg := data[0], int(data[1])
		data = data[2:]
		switch op & 15 {
		case 0, 1: // arrival, or re-arrival of an aborted ID
			id := next
			if g := gone[cur]; arg&1 == 1 && len(g) > 0 {
				id, gone[cur] = g[len(g)-1], g[:len(g)-1]
			} else {
				next++
				slots[id] = new(Slot)
			}
			recs[cur].Arrive(id, clock, 1+arg)
			flats[cur].arrive(id)
			open[cur] = append(open[cur], id)
		case 2, 3, 4, 5, 6, 7, 8: // a decode step: several records, one instant
			if op&15 <= 6 {
				clock += sim.Time(1+arg>>5) * sim.Millisecond
			}
			if n := len(open[cur]); n > 0 {
				for k := range min(1+arg&7, n) {
					emit(open[cur][(arg>>3+k)%n], k%2 == 0)
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
				flats[cur].finish(open[cur][i])
				open[cur] = slices.Delete(open[cur], i, i+1)
			}
		case 12:
			use(arg % maxRecorders)
		default: // one token, or rarely a halt
			if arg < 8 {
				recs[cur].Halt()
				flats[cur].halted = true
			} else if len(open[cur]) > 0 {
				emit(open[cur][arg%len(open[cur])], arg&1 == 0)
			}
		}
	}
	end := clock + sim.Millisecond
	sorted := make([]SortedTBT, maxRecorders)
	for i, r := range recs {
		if r != nil {
			checkFlat(t, fmt.Sprintf("recorder %d", i), r, flats[i], end)
			sorted[i] = r.SortedTBT()
		}
	}
	m := mergedFlat(flats[:])
	checkFlat(t, "merge", Merge(recs[:]...), m, end)
	ms, st := MergeSorted(recs[:], sorted)
	if !st.current(ms) {
		t.Fatal("MergeSorted of current inputs fell back to a sort")
	}
	got := ms.SummarizeSorted("x", end, st)
	if want := flatQuantiles(m.live()); fmt.Sprintf("%#v", got.TBT) != fmt.Sprintf("%#v", want) {
		t.Fatalf("MergeSorted summary TBT %#v, reference %#v", got.TBT, want)
	}
	checkFlat(t, "merge sorted", ms, m, end)
}

// The run log answers every TBT reader bitwise as the flat per-sample
// log does, over random programs of arrivals, batched and single
// tokens, aborts (with and without compaction), finishes, halts and
// merges.
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
