package epp

import (
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// Profile is one complete filter → scorer → picker chain. A pipeline
// holds one or more; the classifier chooses between them per request.
type Profile[E Endpoint] struct {
	// Name labels the profile in diagnostics ("sticky", "split", ...).
	Name string
	// Filters run in order over the candidate set.
	Filters []Filter[E]
	// Scorers holds the scorer tiers: within a tier weighted scores
	// sum, across tiers comparison is lexicographic.
	Scorers [][]Weighted[E]
	// Picker selects the endpoint; nil means MaxScore.
	Picker Picker[E]
}

// Pipeline is a composed router: an optional classifier over a set of
// profiles, plus the observer fan-out for every stateful stage wired
// into them. Pipelines keep per-run state (cursors, affinity maps,
// EWMAs) and scratch buffers, so every simulation needs its own.
type Pipeline[E Endpoint] struct {
	name       string
	classifier Classifier[E]
	profiles   []Profile[E]

	// Observer fan-out lists, deduplicated by identity: a stage shared
	// between profiles (or doubling as pipeline state) is notified once.
	down   []DownObserver
	ttft   []TTFTObserver
	mig    []MigrationObserver
	picked []PickObserver[E]

	// Per-pick scratch, reused across calls: two filter buffers
	// (alternated so a filter never appends into the slice it reads)
	// and one flat score arena carved into tier rows.
	filt   [2][]E
	rows   [][]float64
	rowBuf []float64
}

// New builds a pipeline from its stages. Every distinct stage object —
// classifier, filters, scorers, picker, plus any extra state passed
// through state (e.g. a shared Affinity) — that implements an observer
// interface is wired into the corresponding fan-out exactly once.
// A nil Picker in a profile defaults to MaxScore.
func New[E Endpoint](name string, classifier Classifier[E], profiles []Profile[E], state ...any) *Pipeline[E] {
	if name == "" {
		panic("epp: pipeline needs a name")
	}
	if len(profiles) == 0 {
		panic("epp: pipeline needs at least one profile")
	}
	p := &Pipeline[E]{name: name, classifier: classifier, profiles: profiles}
	seen := map[any]bool{}
	register := func(obj any) {
		if obj == nil || seen[obj] {
			return
		}
		seen[obj] = true
		if o, ok := obj.(DownObserver); ok {
			p.down = append(p.down, o)
		}
		if o, ok := obj.(TTFTObserver); ok {
			p.ttft = append(p.ttft, o)
		}
		if o, ok := obj.(MigrationObserver); ok {
			p.mig = append(p.mig, o)
		}
		if o, ok := obj.(PickObserver[E]); ok {
			p.picked = append(p.picked, o)
		}
	}
	if classifier != nil {
		register(classifier)
	}
	for i := range p.profiles {
		prof := &p.profiles[i]
		if prof.Picker == nil {
			prof.Picker = MaxScore[E]()
		}
		for _, f := range prof.Filters {
			register(f)
		}
		for _, tier := range prof.Scorers {
			for _, w := range tier {
				register(w.Scorer)
			}
		}
		register(prof.Picker)
	}
	for _, s := range state {
		register(s)
	}
	return p
}

// Name returns the pipeline's registered name.
func (p *Pipeline[E]) Name() string { return p.name }

// Pick routes one request: classify → filter → score → pick, then
// notifies PickObservers. An empty candidate view returns the zero E
// without consulting any stage — the cluster queues arrivals while
// nothing is routable, and the plugin seam does not promise callers a
// non-empty view — and records nothing.
func (p *Pipeline[E]) Pick(r *workload.Request, view View[E]) E {
	var zero E
	cands := view.Candidates
	if len(cands) == 0 {
		return zero
	}
	prof := &p.profiles[0]
	if p.classifier != nil {
		if i := p.classifier.Classify(r, view); i >= 0 && i < len(p.profiles) {
			prof = &p.profiles[i]
		}
	}
	// Filters alternate between the two scratch buffers; a filter whose
	// output would be empty is skipped (cands keeps the previous set),
	// which also guarantees the skipped filter's buffer is free for the
	// next stage.
	buf := 0
	for _, f := range prof.Filters {
		out := f.Filter(r, view, cands, p.filt[buf][:0])
		p.filt[buf] = out[:0]
		if len(out) > 0 {
			cands = out
			buf ^= 1
		}
	}
	var scores [][]float64
	if n := len(cands); len(prof.Scorers) > 0 && n > 1 {
		// One flat arena carved into len(tiers) rows plus a scratch row
		// for weighted accumulation.
		need := (len(prof.Scorers) + 1) * n
		if cap(p.rowBuf) < need {
			p.rowBuf = make([]float64, need)
		}
		arena := p.rowBuf[:need]
		tmp := arena[len(prof.Scorers)*n:]
		p.rows = p.rows[:0]
		for t, tier := range prof.Scorers {
			row := arena[t*n : (t+1)*n]
			if len(tier) == 1 && tier[0].Weight == 1 {
				// The common single-scorer tier scores straight into its
				// row, so its comparisons stay bit-exact (no weighted sum).
				tier[0].Scorer.Score(r, view, cands, row)
			} else {
				for i := range row {
					row[i] = 0
				}
				for _, w := range tier {
					w.Scorer.Score(r, view, cands, tmp)
					for i := 0; i < n; i++ {
						row[i] += w.Weight * tmp[i]
					}
				}
			}
			p.rows = append(p.rows, row)
		}
		scores = p.rows
	}
	picked := prof.Picker.Pick(r, cands, scores)
	for _, o := range p.picked {
		o.Picked(r, picked)
	}
	return picked
}

// ReplicaDown fans the signal out to every stage keyed by endpoint ID.
func (p *Pipeline[E]) ReplicaDown(id int) {
	for _, o := range p.down {
		o.ReplicaDown(id)
	}
}

// ObserveTTFT fans the first-token latency out to every learning stage.
func (p *Pipeline[E]) ObserveTTFT(replica int, ttft sim.Time) {
	for _, o := range p.ttft {
		o.ObserveTTFT(replica, ttft)
	}
}

// SessionMigrated fans the KV hand-off out to every affinity stage.
func (p *Pipeline[E]) SessionMigrated(session, from, to int, segs []workload.Segment, n int) {
	for _, o := range p.mig {
		o.SessionMigrated(session, from, to, segs, n)
	}
}
