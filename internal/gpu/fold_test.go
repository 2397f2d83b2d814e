package gpu

import (
	"math"
	"math/rand/v2"
	"testing"

	"muxwise/internal/model"
	"muxwise/internal/sim"
)

// foldObs is one observation of a fold program: who observed, when, and
// the device's and loop's state, the loop's counters in evented form.
type foldObs struct {
	who     string
	at      sim.Time
	st      Stats
	loop    sim.LoopStats
	backlog sim.Time
}

// foldProg is a decode kernel that relaunches itself from its completion
// callback with a fresh random cost, beside side kernels launched on a
// second partition at random instants. evented keeps Relaunch from
// folding, so the program runs as an evented relaunch chain would.
type foldProg struct {
	t       *testing.T
	s       *sim.Sim
	d       *Device
	p, q    *Partition
	rng     *rand.Rand
	evented bool
	left    int
	folds   int
	notLast bool // a decode callback was not the last of its event
	log     []foldObs
}

func (f *foldProg) observe(who string) {
	ls := f.s.Stats()
	ls.Fired += ls.Folded
	ls.Scheduled += ls.Folded
	ls.Folded = 0
	f.log = append(f.log, foldObs{who, f.s.Now(), f.d.Stats(), ls, f.d.HostBacklog()})
}

// work draws a work amount: often a decode's, sometimes none, sometimes
// one whose drain time stresses the float deadline.
func (f *foldProg) work(typical float64) float64 {
	switch f.rng.IntN(16) {
	case 0:
		return 0
	case 1:
		return math.Exp(f.rng.Float64() * 46) // up to ~1e20
	}
	return typical * (0.5 + f.rng.Float64())
}

func foldDone(arg any) {
	f := arg.(*foldProg)
	for {
		f.observe("decode")
		if f.left == 0 {
			return
		}
		f.left--
		c := model.Cost{FLOPs: f.work(2e12), Bytes: f.work(4e10), CommBytes: f.work(1e8), Tokens: f.rng.IntN(256)}
		mfu := 0.0
		if f.rng.IntN(4) == 0 {
			mfu = f.rng.Float64()
		}
		if !f.d.lastDone {
			f.notLast = true
		}
		if f.evented {
			f.d.lastDone = false
		}
		if !f.p.Relaunch(c, mfu) {
			return
		}
		if f.evented {
			f.t.Fatal("Relaunch folded outside the last callback of its event")
		}
		f.folds++
	}
}

func foldSide(arg any) { arg.(*foldProg).observe("side") }

// sideLaunch is a foreign event: a kernel on the second partition.
type sideLaunch struct {
	f *foldProg
	k Kernel
}

func fireSide(arg any) {
	s := arg.(*sideLaunch)
	s.f.q.LaunchFn(s.k, foldSide, s.f)
}

// runFoldProg runs seed's program and returns its observations, its
// folds, and whether a decode callback was not the last of its event.
func runFoldProg(t *testing.T, seed uint64, evented bool) ([]foldObs, int, bool) {
	f := &foldProg{t: t, s: sim.New(), rng: rand.New(rand.NewPCG(seed, 11)), evented: evented, left: 200}
	setup := rand.New(rand.NewPCG(seed, 12))
	spec := []Spec{A100(), H100()}[setup.IntN(2)]
	f.d = NewDevice(f.s, spec, 1+setup.IntN(4), "fold")
	f.p = f.d.Partition(1+setup.IntN(spec.SMs), "decode")
	qSMs := 1 + setup.IntN(spec.SMs)
	launch := sim.Time(setup.IntN(3)) * 10 * sim.Microsecond
	twin := setup.IntN(2) == 0
	if twin {
		qSMs = f.p.SMs()
	}
	f.q = f.d.Partition(qSMs, "side")
	first := Kernel{Label: "decode", Kind: Decode, FLOPs: 2e12, Bytes: 4e10, Launch: launch}
	f.p.LaunchFn(first, foldDone, f)
	if twin {
		// A twin on the side partition, sized like the decode's and
		// started behind it in the same event, retires with it when the
		// two fit the SMs: its callback comes last.
		f.q.LaunchFn(Kernel{Label: "twin", Kind: Decode, FLOPs: 2e12, Bytes: 4e10}, foldSide, f)
	}
	for range setup.IntN(40) {
		k := Kernel{Label: "side", Kind: Kind(setup.IntN(3)), FLOPs: setup.Float64() * 1e14, Bytes: setup.Float64() * 1e11,
			Launch: sim.Time(setup.IntN(3)) * sim.Microsecond}
		f.s.AtFunc(sim.Time(setup.Int64N(int64(2*sim.Second))), fireSide, &sideLaunch{f, k})
	}
	for range 3 {
		f.s.RunUntil(f.s.Now() + sim.Time(setup.Int64N(int64(sim.Second))))
		f.observe("return")
	}
	f.s.Run()
	f.observe("end")
	return f.log, f.folds, f.notLast
}

// A relaunch that folds leaves every callback's time, the device's Stats
// and host backlog, and the loop's counters, folds counted as the events
// they stand for, exactly as the evented relaunch does: with side kernels
// arriving at random instants, RunUntil stops, a twin kernel retiring in
// the same event after the decode, zero-work kernels and ones whose drain
// time reaches the limits of the float deadline.
func TestRelaunchFoldMatchesEvented(t *testing.T) {
	folds, notLast := 0, 0
	for seed := range uint64(200) {
		want, _, _ := runFoldProg(t, seed, true)
		got, n, shared := runFoldProg(t, seed, false)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("seed %d: step %d folded %+v, evented %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d steps folded, %d evented", seed, len(got), len(want))
		}
		folds += n
		if shared {
			notLast++
		}
	}
	if folds < 10000 {
		t.Fatalf("%d relaunches folded in 200 programs of 200, want most", folds)
	}
	if notLast < 20 {
		t.Fatalf("%d of 200 programs had a decode callback that was not the last of its event, want ≥ 20", notLast)
	}
	t.Logf("%d folds; %d programs with a decode callback not last of its event", folds, notLast)
}
