// Package metrics records per-request serving latencies and aggregates
// them into the statistics the paper reports: TTFT, TBT, TPOT, end-to-end
// latency (average/P50/P99), token throughput, SLO attainment, and the
// partition timeline of Fig. 18.
//
// The paper's metric choices are followed exactly: TBT is the gap between
// consecutive token emissions of a request (stricter than the TPOT
// average, §4.1), TTFT is first-token time minus arrival, and SLO
// attainment is the fraction of TBT samples within the target.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"muxwise/internal/obs"
	"muxwise/internal/sim"
)

// SLO holds the latency targets of a serving class.
type SLO struct {
	TTFT sim.Time
	TBT  sim.Time
}

// reqRec tracks one request's lifecycle.
type reqRec struct {
	id          int
	arrival     sim.Time
	admitted    sim.Time // -1 until the engine admits it out of its queue
	firstToken  sim.Time
	lastToken   sim.Time
	finished    sim.Time
	maxGap      sim.Time // worst inter-token gap so far
	tokens      int
	inputTokens int
	idx         int // position in Recorder.recs, the record's Slot
	tbtN        int // TBT samples this request contributed
	done        bool
	dead        bool // aborted; awaiting compaction out of recs
}

// tbtKey identifies a state of the live TBT gaps: every change to them
// moves nTBT (a token) or mut (an abort or compaction).
type tbtKey struct{ n, mut int }

// Slot caches where a request's record sits in a Recorder, so the
// per-token path can skip the ID lookup. The zero Slot is valid.
// TokenSlot checks the slot against the request ID and re-resolves a
// stale one, after an abort or compaction or on another recorder.
type Slot int32

// Recorder collects latency samples during a simulation run.
//
// Records live in recs in arrival order; a record's index there is its
// Slot. Abort marks a record dead instead of splicing it out, and readers
// skip dead records and their samples. Once dead records and samples
// outnumber live ones, compact drops them all in one pass, so aborts cost
// O(1) amortized.
//
// Every generated token after a request's first is one TBT sample. The
// TBT log stores them run-length encoded: consecutive samples with the
// same emission time and gap form one (at, gap, n) run, so a decode step
// logs one run for its whole batch. A parallel slot log holds each
// sample's record slot, 4 bytes in emission order, so an aborted
// record's samples can be told apart inside a run. Gaps stay in integer
// nanoseconds until a reader converts them with Seconds. Seconds is
// monotone, so sorting the integers gives exactly the order
// sort.Float64s gives the converted values, and Avg, summed in that
// ascending order, is bitwise the same.
type Recorder struct {
	reqs map[int]*reqRec // live records by request ID
	recs []*reqRec       // every record in arrival order, dead ones included

	runs  blockLog[tbtRun] // TBT samples as runs, in emission order
	slots blockLog[int32]  // each sample's record slot, in emission order
	nTBT  int              // samples in the log, dead ones included
	open  int              // arrived-but-unfinished requests
	nDead int              // dead records in recs
	// deadTBT counts the log's samples from dead records. While it is
	// zero, readers take each run's n as is and never read the slot log.
	deadTBT int
	// mut counts aborts and compactions. An abort changes the live gaps
	// without moving nTBT, and mut only grows, so (nTBT, mut) never
	// repeats: it keys a SortedTBT at no cost to the token path.
	mut int

	prefillTokens int64
	decodeTokens  int64

	// halted freezes the recorder: a failed replica's engine keeps
	// simulating its queued work (ghost events), but none of it may leak
	// into the metrics after the failure instant.
	halted bool

	// OnFinish, when set, is invoked exactly once per request as it
	// completes (cluster routers use it to track per-replica load).
	OnFinish func(id int, at sim.Time)

	// OnFirstToken, when set, is invoked once per request as its first
	// token is observed, with the request's TTFT (learned routers use it
	// to track per-replica first-token latency).
	OnFirstToken func(id int, ttft sim.Time)

	// trace, when set, receives request lifecycle events (arrival,
	// admission, first token, finish) on the named track. Emission is
	// purely observational; a nil trace costs nothing.
	trace *obs.Tracer
	track string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{reqs: map[int]*reqRec{}}
}

// SetTrace attaches a flight recorder; lifecycle events are emitted on
// track (the owning instance's label). A nil tracer detaches.
func (r *Recorder) SetTrace(tr *obs.Tracer, track string) {
	r.trace = tr
	r.track = track
}

// Arrive registers a request's arrival.
func (r *Recorder) Arrive(id int, at sim.Time, inputTokens int) {
	if r.halted {
		return
	}
	if _, ok := r.reqs[id]; ok {
		return
	}
	rec := &reqRec{id: id, arrival: at, admitted: -1, firstToken: -1, inputTokens: inputTokens, idx: len(r.recs)}
	r.reqs[id] = rec
	r.recs = append(r.recs, rec)
	r.open++
	if r.trace != nil {
		r.trace.AsyncBegin(at, r.track, "request", int64(id), "request",
			obs.Arg{Key: "input_tokens", Val: inputTokens})
	}
}

// Admitted records the instant the engine accepted the request out of
// its arrival queue into serving (KV reserved, prefill scheduled). The
// diagnostics rollup uses it to split a TTFT miss into queue-wait vs
// prefill time. First call wins; unknown requests and halted recorders
// are ignored.
func (r *Recorder) Admitted(id int, at sim.Time) {
	rec, ok := r.reqs[id]
	if !ok || r.halted || rec.admitted >= 0 {
		return
	}
	rec.admitted = at
	if r.trace != nil {
		r.trace.AsyncInstant(at, r.track, "request", int64(id), "admitted",
			obs.Arg{Key: "queue_ms", Val: (at - rec.arrival).Milliseconds()})
	}
}

// PrefillDone credits processed prefill tokens (throughput accounting).
func (r *Recorder) PrefillDone(tokens int) {
	if r.halted {
		return
	}
	r.prefillTokens += int64(tokens)
}

// Token records one generated token for the request. The first token
// defines TTFT; subsequent tokens contribute TBT samples.
func (r *Recorder) Token(id int, at sim.Time) {
	rec, ok := r.reqs[id]
	if !ok || r.halted {
		return
	}
	r.token(rec, at)
}

// TokenSlot is Token for callers that emit many tokens per request: slot
// caches the request's record between calls. A stale or zero slot falls
// back to the ID lookup and is refreshed.
func (r *Recorder) TokenSlot(slot *Slot, id int, at sim.Time) {
	if r.halted {
		return
	}
	if i := uint(*slot); i < uint(len(r.recs)) {
		if rec := r.recs[i]; rec.id == id && !rec.dead {
			r.token(rec, at)
			return
		}
	}
	rec, ok := r.reqs[id]
	if !ok {
		return
	}
	*slot = Slot(rec.idx)
	r.token(rec, at)
}

func (r *Recorder) token(rec *reqRec, at sim.Time) {
	rec.tokens++
	r.decodeTokens++
	if rec.firstToken < 0 {
		rec.firstToken = at
		if r.OnFirstToken != nil {
			r.OnFirstToken(rec.id, at-rec.arrival)
		}
		if r.trace != nil {
			r.trace.AsyncInstant(at, r.track, "request", int64(rec.id), "first-token",
				obs.Arg{Key: "ttft_ms", Val: (at - rec.arrival).Milliseconds()})
		}
	} else {
		gap := at - rec.lastToken
		rec.maxGap = max(rec.maxGap, gap)
		rec.tbtN++
		r.appendTBT(at, gap, int32(rec.idx))
	}
	rec.lastToken = at
}

// key is the current state of the live TBT gaps.
func (r *Recorder) key() tbtKey { return tbtKey{r.nTBT, r.mut} }

// SortedTBT is a recorder's live TBT gaps as (gap, n) runs in ascending
// gap order, tied to the recorder state they were taken in. A summary or
// fleet merge handed one skips its sort while that state holds. Its runs
// are never written once built. The zero value is current for no
// recorder.
type SortedTBT struct {
	rec  *Recorder
	key  tbtKey
	runs []gapRun
}

// SortedTBT sorts the live runs of the TBT log by gap, so it sorts one
// entry per decode step rather than one per token. It does not modify
// the recorder.
func (r *Recorder) SortedTBT() SortedTBT {
	runs := make([]gapRun, 0, r.runs.len())
	for run := range r.liveRuns(nil) {
		runs = append(runs, gapRun{gap: run.gap, n: run.n})
	}
	sortRuns(runs)
	return SortedTBT{rec: r, key: r.key(), runs: runs}
}

// current reports whether st still holds r's live gaps: it was taken
// from r, and no token, abort or compaction has happened since.
func (st SortedTBT) current(r *Recorder) bool {
	return r != nil && st.rec == r && st.key == r.key()
}

// Finish marks the request complete.
func (r *Recorder) Finish(id int, at sim.Time) {
	if r.halted {
		return
	}
	if rec, ok := r.reqs[id]; ok && !rec.done {
		rec.finished = at
		rec.done = true
		r.open--
		if r.OnFinish != nil {
			r.OnFinish(id, at)
		}
		if r.trace != nil {
			r.trace.AsyncEnd(at, r.track, "request", int64(id), "request",
				obs.Arg{Key: "outcome", Val: "finish"},
				obs.Arg{Key: "tokens", Val: rec.tokens})
		}
	}
}

// Halt freezes the recorder at the current instant. Later Arrive, Token,
// PrefillDone and Finish calls are ignored: a failed replica's engine
// keeps dispatching its already-scheduled simulation events, and that
// ghost work must not count. Abort still works on a halted recorder so
// the fleet controller can surface in-flight requests for re-dispatch.
func (r *Recorder) Halt() { r.halted = true }

// Halted reports whether the recorder has been frozen.
func (r *Recorder) Halted() bool { return r.halted }

// Abort removes an unfinished request from the recorder as if it had
// never arrived here, dropping its TBT samples, so the same request ID
// can re-arrive on another replica's recorder (metrics.Merge requires
// disjoint IDs). The re-prefill the request pays on its new replica is
// charged through the cache-hit machinery, not here. Aborting a finished
// or unknown request is a no-op; it reports whether a record was removed.
func (r *Recorder) Abort(id int) bool {
	rec, ok := r.reqs[id]
	if !ok || rec.done {
		return false
	}
	// Roll back the aborted request's decode tokens: its latency samples
	// are withdrawn and the full output is re-credited wherever it
	// re-dispatches. Prefill tokens stay — they are batch-level credits
	// with no per-request attribution, and that work really ran here; the
	// re-prefill on the new replica is counted again on purpose, as the
	// failure's cost in fleet throughput.
	r.decodeTokens -= int64(rec.tokens)
	delete(r.reqs, id)
	r.open--
	rec.dead = true
	r.nDead++
	r.deadTBT += rec.tbtN
	r.mut++
	// A compaction costs one pass over records and samples, and runs only
	// once the dead outnumber the live, so each dead item pays for its
	// own removal: O(1) amortized per abort, not a rescan of the log.
	if r.nDead+r.deadTBT > len(r.recs)-r.nDead+r.nTBT-r.deadTBT {
		r.compact()
	}
	return true
}

// compact drops dead records and their samples, preserving arrival and
// emission order, and renumbers the surviving records' slots. Runs left
// with no live sample are dropped.
func (r *Recorder) compact() {
	n := 0
	for _, rec := range r.recs {
		if !rec.dead {
			rec.idx = n
			n++
		}
	}
	// The slot log still holds old slots, which index the not yet
	// compacted recs. Both logs are rewritten in place to the live runs
	// and the survivors' new slots.
	runs, slots := refill[tbtRun]{l: &r.runs}, refill[int32]{l: &r.slots}
	for run := range r.liveRuns(func(s int32) { slots.put(int32(r.recs[s].idx)) }) {
		runs.put(run)
	}
	runs.done()
	slots.done()
	r.nTBT -= r.deadTBT
	r.deadTBT = 0
	r.mut++

	live := r.recs[:0]
	for _, rec := range r.recs {
		if !rec.dead {
			live = append(live, rec)
		}
	}
	clear(r.recs[len(live):])
	r.recs = live
	r.nDead = 0
}

// OpenIDs returns the IDs of arrived-but-unfinished requests in arrival
// order — the in-flight set a drain or failure must surface for
// re-dispatch.
func (r *Recorder) OpenIDs() []int {
	var out []int
	for _, rec := range r.recs {
		if !rec.dead && !rec.done {
			out = append(out, rec.id)
		}
	}
	return out
}

// Quantiles summarises a latency sample set in seconds.
type Quantiles struct {
	Avg, P50, P90, P99, Max float64
	N                       int
}

// quantiles summarises a sample set, sorting it IN PLACE — callers own
// their slices.
func quantiles(samples []float64) Quantiles {
	q := Quantiles{N: len(samples)}
	if len(samples) == 0 {
		return q
	}
	s := samples
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	q.Avg = sum / float64(len(s))
	q.P50 = percentile(s, 0.50)
	q.P90 = percentile(s, 0.90)
	q.P99 = percentile(s, 0.99)
	q.Max = s[len(s)-1]
	return q
}

// timeQuantiles is quantiles over nanosecond samples, reported in
// seconds. It sorts ts in place. Seconds is monotone, so
// the result is bitwise what quantiles returns on the converted samples:
// the same order statistics, and Avg summed in the same ascending order.
func timeQuantiles(ts []sim.Time) Quantiles {
	q := Quantiles{N: len(ts)}
	if len(ts) == 0 {
		return q
	}
	slices.Sort(ts)
	var sum float64
	for _, t := range ts {
		sum += t.Seconds()
	}
	n := len(ts)
	q.Avg = sum / float64(n)
	q.P50 = ts[rank(n, 0.50)].Seconds()
	q.P90 = ts[rank(n, 0.90)].Seconds()
	q.P99 = ts[rank(n, 0.99)].Seconds()
	q.Max = ts[n-1].Seconds()
	return q
}

// percentile returns the p-quantile of a sorted sample via the
// nearest-rank method the serving literature uses for tail latencies.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// rank is the nearest-rank index of the p-quantile in n sorted samples.
func rank(n int, p float64) int {
	idx := int(math.Ceil(p*float64(n))) - 1
	return min(max(idx, 0), n-1)
}

// String formats the headline quantiles in milliseconds.
func (q Quantiles) String() string {
	return fmt.Sprintf("avg=%.1fms p50=%.1fms p99=%.1fms", q.Avg*1e3, q.P50*1e3, q.P99*1e3)
}

// Summary aggregates a completed run.
type Summary struct {
	Name     string
	Requests int
	Finished int

	TTFT Quantiles
	TBT  Quantiles
	TPOT Quantiles
	E2E  Quantiles

	// TTFTPerToken normalises TTFT by input length (§4.4.3 / Fig. 20).
	TTFTPerToken Quantiles

	// TokensPerSecond counts prefill+decode tokens over the active span.
	TokensPerSecond float64
	DecodeTokens    int64
	PrefillTokens   int64

	Makespan sim.Time

	// Backlog is the number of requests still unfinished shortly after
	// the last arrival (set by the runner's stability probe).
	Backlog int

	// MigratedKVTokens counts KV tokens delivered by cluster KV
	// migration (graceful drains streaming session KV to the re-routed
	// replica); MigrationStallSeconds sums the stream latencies those
	// sessions waited out. Both are zero for single-instance runs and
	// migration-disabled fleets — the cluster runner sets them, the way
	// the stability probe sets Backlog.
	MigratedKVTokens      int64
	MigrationStallSeconds float64

	// Unstable marks runs where the system could not keep up — a large
	// backlog after arrivals stop, or unfinished work at the horizon —
	// mirroring the paper's "unstable" baseline states in Fig. 14/15.
	Unstable bool
}

// TBTAttainment returns the fraction of TBT samples within the SLO.
func (r *Recorder) TBTAttainment(slo sim.Time) float64 {
	n := r.nTBT - r.deadTBT
	if n == 0 {
		return 1
	}
	target := slo.Seconds()
	ok := 0
	for run := range r.liveRuns(nil) {
		if run.gap.Seconds() <= target {
			ok += run.n
		}
	}
	return float64(ok) / float64(n)
}

// tbtMiss reports whether some inter-token gap of the request exceeded
// target seconds. Comparing the worst gap is exact: Seconds is monotone,
// so the worst gap converts to the worst converted gap.
func (rec *reqRec) tbtMiss(target float64) bool {
	return rec.maxGap.Seconds() > target
}

// WithinSLO returns how many requests met the SLO end to end: finished,
// first token within slo.TTFT, and every inter-token gap within slo.TBT.
// It is the per-request conformance count behind DistServe-style goodput
// (requests per second that meet their SLO); dividing by the offered
// span turns it into the frontier's goodput numerator. A zero TTFT or
// TBT target disables that half of the check.
func (r *Recorder) WithinSLO(slo SLO) int {
	target := slo.TBT.Seconds()
	n := 0
	for _, rec := range r.recs {
		if rec.dead || !rec.done || rec.firstToken < 0 {
			continue
		}
		if slo.TBT > 0 && rec.tbtMiss(target) {
			continue
		}
		if slo.TTFT > 0 && rec.firstToken-rec.arrival > slo.TTFT {
			continue
		}
		n++
	}
	return n
}

// TTFTAttainment returns the fraction of first tokens within the SLO.
func (r *Recorder) TTFTAttainment(slo sim.Time) float64 {
	total, ok := 0, 0
	for _, rec := range r.recs {
		if rec.dead || rec.firstToken < 0 {
			continue
		}
		total++
		if rec.firstToken-rec.arrival <= slo {
			ok++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// Summarize builds the run summary. now is the simulation end time, used
// for makespan and stability accounting.
func (r *Recorder) Summarize(name string, now sim.Time) Summary {
	return r.SummarizeSorted(name, now, r.SortedTBT())
}

// SummarizeSorted is Summarize with the TBT gaps sorted beforehand: a
// tbt current for r spares the sort, any other tbt is ignored and the
// gaps are sorted afresh. Either way the summary is bitwise Summarize's.
func (r *Recorder) SummarizeSorted(name string, now sim.Time, tbt SortedTBT) Summary {
	if !tbt.current(r) {
		tbt = r.SortedTBT()
	}
	s := Summary{Name: name, Makespan: now}
	var ttft, e2e []sim.Time
	var tpot, perTok []float64
	for _, rec := range r.recs {
		if rec.dead {
			continue
		}
		s.Requests++
		if rec.firstToken >= 0 {
			t := rec.firstToken - rec.arrival
			ttft = append(ttft, t)
			if rec.inputTokens > 0 {
				perTok = append(perTok, t.Seconds()/float64(rec.inputTokens))
			}
		}
		if !rec.done {
			continue
		}
		s.Finished++
		e2e = append(e2e, rec.finished-rec.arrival)
		if rec.tokens > 1 {
			tpot = append(tpot, (rec.lastToken-rec.firstToken).Seconds()/float64(rec.tokens-1))
		}
	}
	s.TTFT = timeQuantiles(ttft)
	s.TBT = runQuantiles(tbt.runs)
	s.TPOT = quantiles(tpot)
	s.E2E = timeQuantiles(e2e)
	s.TTFTPerToken = quantiles(perTok)
	s.DecodeTokens = r.decodeTokens
	s.PrefillTokens = r.prefillTokens
	if sec := now.Seconds(); sec > 0 {
		s.TokensPerSecond = float64(r.prefillTokens+r.decodeTokens) / sec
	}
	s.Unstable = s.Finished < s.Requests*95/100
	return s
}

// IDs returns the recorded request IDs in arrival-insertion order
// (cluster tests map them back to trace sessions).
func (r *Recorder) IDs() []int {
	out := make([]int, 0, len(r.recs)-r.nDead)
	for _, rec := range r.recs {
		if !rec.dead {
			out = append(out, rec.id)
		}
	}
	return out
}

// Unfinished returns how many arrived requests have not completed.
func (r *Recorder) Unfinished() int { return r.open }

// TBTSamples exposes raw TBT samples in seconds (CDF plotting), one per
// token in emission order.
func (r *Recorder) TBTSamples() []float64 {
	out := make([]float64, 0, r.nTBT-r.deadTBT)
	for run := range r.liveRuns(nil) {
		s := run.gap.Seconds()
		for range run.n {
			out = append(out, s)
		}
	}
	return out
}

// TTFTPerTokenSamples returns TTFT/input-length for every started request.
func (r *Recorder) TTFTPerTokenSamples() []float64 {
	var out []float64
	for _, rec := range r.recs {
		if !rec.dead && rec.firstToken >= 0 && rec.inputTokens > 0 {
			out = append(out, (rec.firstToken-rec.arrival).Seconds()/float64(rec.inputTokens))
		}
	}
	return out
}

// Timeline records a step function of the compute partition over time
// (Fig. 18: SM share of prefill vs decode).
type Timeline struct {
	times      []sim.Time
	decodeSMs  []int
	prefillSMs []int
}

// Record appends a partition change.
func (tl *Timeline) Record(at sim.Time, decodeSMs, prefillSMs int) {
	n := len(tl.times)
	if n > 0 && tl.decodeSMs[n-1] == decodeSMs && tl.prefillSMs[n-1] == prefillSMs {
		return
	}
	tl.times = append(tl.times, at)
	tl.decodeSMs = append(tl.decodeSMs, decodeSMs)
	tl.prefillSMs = append(tl.prefillSMs, prefillSMs)
}

// Changes returns the number of distinct partition configurations seen.
func (tl *Timeline) Changes() int { return len(tl.times) }

// DistinctConfigs returns how many distinct (decode, prefill) pairs occur.
func (tl *Timeline) DistinctConfigs() int {
	set := map[[2]int]bool{}
	for i := range tl.times {
		set[[2]int{tl.decodeSMs[i], tl.prefillSMs[i]}] = true
	}
	return len(set)
}

// MeanShares returns the time-weighted mean SM share of decode and
// prefill over [0, end].
func (tl *Timeline) MeanShares(end sim.Time, totalSMs int) (decode, prefill float64) {
	if len(tl.times) == 0 || totalSMs == 0 {
		return 0, 0
	}
	var dInt, pInt float64
	for i := range tl.times {
		until := end
		if i+1 < len(tl.times) {
			until = tl.times[i+1]
		}
		if until > end {
			until = end
		}
		dt := (until - tl.times[i]).Seconds()
		if dt < 0 {
			dt = 0
		}
		dInt += float64(tl.decodeSMs[i]) * dt
		pInt += float64(tl.prefillSMs[i]) * dt
	}
	span := (end - tl.times[0]).Seconds()
	if span <= 0 {
		return 0, 0
	}
	return dInt / span / float64(totalSMs), pInt / span / float64(totalSMs)
}

// MeanSharesActive is MeanShares restricted to intervals where the
// prefill partition holds SMs — the co-running periods Fig. 18 plots.
// It returns zeros when the phases never multiplexed.
func (tl *Timeline) MeanSharesActive(end sim.Time, totalSMs int) (decode, prefill float64) {
	if len(tl.times) == 0 || totalSMs == 0 {
		return 0, 0
	}
	var dInt, pInt, span float64
	for i := range tl.times {
		if tl.prefillSMs[i] == 0 {
			continue
		}
		until := end
		if i+1 < len(tl.times) {
			until = tl.times[i+1]
		}
		if until > end {
			until = end
		}
		dt := (until - tl.times[i]).Seconds()
		if dt < 0 {
			dt = 0
		}
		dInt += float64(tl.decodeSMs[i]) * dt
		pInt += float64(tl.prefillSMs[i]) * dt
		span += dt
	}
	if span <= 0 {
		return 0, 0
	}
	return dInt / span / float64(totalSMs), pInt / span / float64(totalSMs)
}

// ConfigsWithin counts distinct configurations active inside [from, to]
// (used for the §4.4.1 observation that bursty intervals activate all six
// partition configurations within 30 s).
func (tl *Timeline) ConfigsWithin(from, to sim.Time) int {
	set := map[[2]int]bool{}
	for i := range tl.times {
		if tl.times[i] >= from && tl.times[i] <= to {
			set[[2]int{tl.decodeSMs[i], tl.prefillSMs[i]}] = true
		}
	}
	return len(set)
}
