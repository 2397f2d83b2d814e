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
	"math/big"
	"math/bits"
	"slices"
	"sort"

	"muxwise/internal/arena"
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
	tbtN        int // TBT samples this request contributed
	done        bool
	dead        bool // aborted; awaiting compaction out of recs

	// lastRun is the log position of the request's newest own run, -1
	// if it has none.
	lastRun int32
	// st is the stream the request decodes in, nil if none; slot is its
	// index in st.members, -1 until its first step there. joined is the
	// stream iteration of that first step, and settled the newest one
	// the fields above count: every iteration after joined carried the
	// request over, one sample in that iteration's shared run.
	st              *Stream
	slot            int32
	joined, settled int
}

// Recorder collects latency samples during a simulation run.
//
// Records live in recs in arrival order. Abort marks a record dead
// instead of splicing it out, and readers skip dead records. Once dead
// records outnumber live ones, compact drops them all in one pass, so
// aborts cost O(1) amortized.
//
// Every generated token after a request's first is one TBT sample. The
// TBT log stores them run-length encoded: consecutive samples with the
// same emission time and gap form one (at, gap, n) run. A decode Stream
// logs one shared run per iteration for every member it carried over,
// and own runs hold one request's samples alone; Abort finds a request's
// samples through its stream's iteration log and its chain of own runs,
// and subtracts them in place. Gaps stay in integer nanoseconds until a
// reader converts them with Seconds. Seconds is monotone, so an order
// statistic of the integers converts to the same order statistic of the
// converted values; Avg is the exact integer mean, rounded once.
//
// No reader sorts the log. Summarize finds the TBT quantiles by radix
// selection over the runs in place (runQuantiles), so it writes nothing
// to the recorder and costs the same on every call; Rollup copies each
// window's runs out once and selects in them the same way.
type Recorder struct {
	reqs  map[int]*reqRec     // live records by request ID
	recs  []*reqRec           // every record in arrival order, dead ones included
	arena arena.Arena[reqRec] // where every record lives

	runs    blockLog[tbtRun] // TBT samples as runs, in emission order
	streams []*Stream        // decode streams recording here
	nTBT    int              // live samples in the log
	open    int              // arrived-but-unfinished requests
	nDead   int              // dead records in recs
	// merged marks a Merge result, whose runs are not linked to their
	// requests: Abort on it panics.
	merged bool

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

// Reserve makes room for n more arrivals: their records come from one
// block, and the arrival list, and on a recorder with no arrivals yet the
// ID table, are sized for them.
func (r *Recorder) Reserve(n int) {
	if len(r.reqs) == 0 {
		r.reqs = make(map[int]*reqRec, n)
	}
	r.recs = slices.Grow(r.recs, n)
	r.arena.Reserve(n)
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
	rec := r.arena.New()
	*rec = reqRec{id: id, arrival: at, admitted: -1, firstToken: -1, inputTokens: inputTokens, lastRun: -1}
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
// defines TTFT; subsequent tokens contribute TBT samples. A request in a
// decode Stream takes its tokens from the stream's steps: Token for it
// panics.
func (r *Recorder) Token(id int, at sim.Time) {
	rec, ok := r.reqs[id]
	if !ok || r.halted {
		return
	}
	if rec.st != nil {
		panic(fmt.Sprintf("metrics: Token for request %d, a stream member", id))
	}
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
		r.appendOwn(rec, at, gap)
	}
	rec.lastToken = at
}

// Finish marks the request complete.
func (r *Recorder) Finish(id int, at sim.Time) {
	if rec, ok := r.reqs[id]; ok {
		r.finish(rec, at)
	}
}

func (r *Recorder) finish(rec *reqRec, at sim.Time) {
	if r.halted || rec.done {
		return
	}
	if rec.st != nil {
		rec.st.settle(rec)
	}
	rec.finished = at
	rec.done = true
	r.open--
	if r.OnFinish != nil {
		r.OnFinish(rec.id, at)
	}
	if r.trace != nil {
		r.trace.AsyncEnd(at, r.track, "request", int64(rec.id), "request",
			obs.Arg{Key: "outcome", Val: "finish"},
			obs.Arg{Key: "tokens", Val: rec.tokens})
	}
}

// Halt freezes the recorder at the current instant. Later Arrive, Token,
// PrefillDone and Finish calls are ignored: a failed replica's engine
// keeps dispatching its already-scheduled simulation events, and that
// ghost work must not count; so are Stream joins, steps and finishes.
// Abort still works on a halted recorder so the fleet controller can
// surface in-flight requests for re-dispatch.
func (r *Recorder) Halt() { r.halted = true }

// Halted reports whether the recorder has been frozen.
func (r *Recorder) Halted() bool { return r.halted }

// Abort removes an unfinished request from the recorder as if it had
// never arrived here, dropping its TBT samples, so the same request ID
// can re-arrive on another replica's recorder (metrics.Merge requires
// disjoint IDs). The re-prefill the request pays on its new replica is
// charged through the cache-hit machinery, not here. Aborting a finished
// or unknown request is a no-op; it reports whether a record was removed.
// A stream member leaves its stream; the stream's later steps and its
// Finish for the member pass it over. A Merge result cannot abort.
func (r *Recorder) Abort(id int) bool {
	rec, ok := r.reqs[id]
	if !ok || rec.done {
		return false
	}
	if r.merged {
		panic("metrics: Abort on a merged recorder")
	}
	if rec.st != nil {
		rec.st.drop(rec)
	}
	for p := rec.lastRun; p >= 0; {
		run := r.runs.at(int(p))
		r.nTBT -= int(run.n)
		run.n, p = 0, run.prev
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
	// A compaction costs one pass over records, and runs only once the
	// dead outnumber the live, so each dead record pays for its own
	// removal: O(1) amortized per abort.
	if r.nDead > len(r.recs)-r.nDead {
		r.compact()
	}
	return true
}

// compact drops dead records, preserving arrival order.
func (r *Recorder) compact() {
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

// Quantiles summarises a latency sample set in seconds. P50, P90 and
// P99 are nearest-rank order statistics and Max the largest sample. For
// TTFT, TBT and E2E, which the recorder keeps in integer nanoseconds, Avg
// is their exact mean rounded once; TPOT and TTFTPerToken average
// float64 seconds.
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
// seconds. It sorts ts in place. Seconds is monotone, so the order
// statistics are bitwise what quantiles returns on the converted
// samples; Avg is the exact mean, correctly rounded.
func timeQuantiles(ts []sim.Time) Quantiles {
	q := Quantiles{N: len(ts)}
	if len(ts) == 0 {
		return q
	}
	slices.Sort(ts)
	var sum nsSum
	for _, t := range ts {
		sum.add(t, 1)
	}
	n := len(ts)
	q.Avg = sum.mean(n)
	q.P50 = ts[rank(n, 0.50)].Seconds()
	q.P90 = ts[rank(n, 0.90)].Seconds()
	q.P99 = ts[rank(n, 0.99)].Seconds()
	q.Max = ts[n-1].Seconds()
	return q
}

// nsSum is an exact sum of nanosecond counts, a two's-complement 128-bit
// integer: no sum of fewer than 2^63 terms of MaxTime or less overflows
// it, where an int64 sum overflows at two saturated gaps.
type nsSum struct{ hi, lo uint64 }

// add adds n·t, n ≥ 0.
func (s *nsSum) add(t sim.Time, n int) {
	hi, lo := bits.Mul64(uint64(t), uint64(n))
	if t < 0 {
		hi -= uint64(n) // uint64(t) is t + 2^64
	}
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, lo, 0)
	s.hi += hi + carry
}

// mean returns the sum over n, n > 0, in seconds, correctly rounded.
func (s nsSum) mean(n int) float64 {
	// Integers below 2^53 convert to float64 exactly, and one IEEE
	// division of exact operands rounds correctly.
	const exact = 1 << 53
	if s.hi == 0 && s.lo < exact && n < exact/int(sim.Second) {
		return float64(s.lo) / float64(n*int(sim.Second))
	}
	sum := new(big.Int).SetUint64(s.hi)
	sum.Lsh(sum, 64).Or(sum, new(big.Int).SetUint64(s.lo))
	if s.hi>>63 == 1 {
		sum.Sub(sum, new(big.Int).Lsh(big.NewInt(1), 128))
	}
	den := new(big.Int).Mul(big.NewInt(int64(n)), big.NewInt(int64(sim.Second)))
	f, _ := new(big.Rat).SetFrac(sum, den).Float64()
	return f
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
	if r.nTBT == 0 {
		return 1
	}
	target := slo.Seconds()
	ok := 0
	for run := range r.liveRuns() {
		if run.gap.Seconds() <= target {
			ok += int(run.n)
		}
	}
	return float64(ok) / float64(r.nTBT)
}

// sloVerdict is whether a request met the SLO and, if not, the first
// check it failed.
type sloVerdict uint8

const (
	sloMet        sloVerdict = iota
	sloUnfinished            // not finished, or no first token
	sloTBTMiss               // some inter-token gap over the TBT target
	sloTTFTMiss              // first token after the TTFT target
)

// verdict checks the request against slo, whose TBT target is tbt
// seconds. A zero TTFT or TBT target disables that half of the check.
// Comparing the worst gap is exact: Seconds is monotone, so the worst gap
// converts to the worst converted gap.
func (rec *reqRec) verdict(slo SLO, tbt float64) sloVerdict {
	switch {
	case !rec.done || rec.firstToken < 0:
		return sloUnfinished
	case slo.TBT > 0 && rec.maxGap.Seconds() > tbt:
		return sloTBTMiss
	case slo.TTFT > 0 && rec.firstToken-rec.arrival > slo.TTFT:
		return sloTTFTMiss
	}
	return sloMet
}

// WithinSLO returns how many requests met the SLO end to end: finished,
// first token within slo.TTFT, and every inter-token gap within slo.TBT.
// It is the per-request conformance count behind DistServe-style goodput
// (requests per second that meet their SLO); dividing by the offered
// span turns it into the frontier's goodput numerator. A zero TTFT or
// TBT target disables that half of the check.
func (r *Recorder) WithinSLO(slo SLO) int {
	r.settle()
	target := slo.TBT.Seconds()
	n := 0
	for _, rec := range r.recs {
		if !rec.dead && rec.verdict(slo, target) == sloMet {
			n++
		}
	}
	return n
}

// Summarize builds the run summary. now is the simulation end time, used
// for makespan and stability accounting.
func (r *Recorder) Summarize(name string, now sim.Time) Summary {
	r.settle()
	s := Summary{Name: name, Makespan: now}
	live := len(r.recs) - r.nDead
	ttft, e2e := make([]sim.Time, 0, live), make([]sim.Time, 0, live)
	tpot, perTok := make([]float64, 0, live), make([]float64, 0, live)
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
	s.TBT = runQuantiles(&r.runs)
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

// Record is one request's lifecycle as the recorder holds it.
type Record struct {
	ID         int
	Arrival    sim.Time
	FirstToken sim.Time
	Finished   sim.Time
	Tokens     int
	MaxGap     sim.Time // worst inter-token gap
	Done       bool
}

// Records returns every live request's record in arrival-insertion
// order.
func (r *Recorder) Records() []Record {
	r.settle()
	out := make([]Record, 0, len(r.recs)-r.nDead)
	for _, rec := range r.recs {
		if !rec.dead {
			out = append(out, Record{
				ID: rec.id, Arrival: rec.arrival, FirstToken: rec.firstToken, Finished: rec.finished,
				Tokens: rec.tokens, MaxGap: rec.maxGap, Done: rec.done,
			})
		}
	}
	return out
}

// Unfinished returns how many arrived requests have not completed.
func (r *Recorder) Unfinished() int { return r.open }

// TBTSamples exposes raw TBT samples in seconds (CDF plotting), one per
// token in emission order.
func (r *Recorder) TBTSamples() []float64 {
	out := make([]float64, 0, r.nTBT)
	for run := range r.liveRuns() {
		s := run.gap.Seconds()
		for range run.n {
			out = append(out, s)
		}
	}
	return out
}

// Timeline records a step function of the compute partition over time
// (Fig. 18: SM share of prefill vs decode).
type Timeline struct {
	points []tlPoint
}

// tlPoint is one partition change: from at on, decode and prefill hold
// these many SMs.
type tlPoint struct {
	at              sim.Time
	decode, prefill int
}

// Record appends a partition change.
func (tl *Timeline) Record(at sim.Time, decodeSMs, prefillSMs int) {
	if n := len(tl.points); n > 0 && tl.points[n-1].decode == decodeSMs && tl.points[n-1].prefill == prefillSMs {
		return
	}
	tl.points = append(tl.points, tlPoint{at, decodeSMs, prefillSMs})
}

// Changes returns the number of distinct partition configurations seen.
func (tl *Timeline) Changes() int { return len(tl.points) }

// Point returns change i, for i < Changes(): when it happened and the
// decode and prefill partition sizes from then on.
func (tl *Timeline) Point(i int) (at sim.Time, decodeSMs, prefillSMs int) {
	p := tl.points[i]
	return p.at, p.decode, p.prefill
}

// DistinctConfigs returns how many distinct (decode, prefill) pairs occur.
func (tl *Timeline) DistinctConfigs() int {
	set := map[[2]int]bool{}
	for _, p := range tl.points {
		set[[2]int{p.decode, p.prefill}] = true
	}
	return len(set)
}

// MeanSharesActive returns the time-weighted mean SM share of decode
// and prefill up to end, over the intervals where the prefill partition
// holds SMs — the co-running periods Fig. 18 plots. It returns zeros
// when the phases never multiplexed.
func (tl *Timeline) MeanSharesActive(end sim.Time, totalSMs int) (decode, prefill float64) {
	if len(tl.points) == 0 || totalSMs == 0 {
		return 0, 0
	}
	var dInt, pInt, span float64
	for i, p := range tl.points {
		if p.prefill == 0 {
			continue
		}
		until := end
		if i+1 < len(tl.points) {
			until = tl.points[i+1].at
		}
		if until > end {
			until = end
		}
		dt := (until - p.at).Seconds()
		if dt < 0 {
			dt = 0
		}
		dInt += float64(p.decode) * dt
		pInt += float64(p.prefill) * dt
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
	for _, p := range tl.points {
		if p.at >= from && p.at <= to {
			set[[2]int{p.decode, p.prefill}] = true
		}
	}
	return len(set)
}
