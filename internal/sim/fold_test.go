package sim

import (
	"slices"
	"testing"
)

// evented returns ls as the run would have counted it with every fold
// dispatched: each is one more scheduled and fired event.
func (ls LoopStats) evented() LoopStats {
	ls.Fired += ls.Folded
	ls.Scheduled += ls.Folded
	ls.Folded = 0
	return ls
}

// foldStep is one observation of a fold program: a labelled dispatch, or
// a RunUntil return, with the clock, the sequence numbers and the loop's
// counters in their evented form.
type foldStep struct {
	label    string
	at       Time
	seq, cut int64
	pending  int
	stats    LoopStats
}

// foldRun runs a scripted program in which events end by chaining one
// more event behind a ticket, the way a decode kernel's completion
// relaunches it. Evented, a chain is a Reserve plus an AtFuncOnPass;
// folded, it first tries Fold and, when that succeeds, runs the chained
// event's work at once.
type foldRun struct {
	s    *Sim
	fold bool
	log  []foldStep
}

func (f *foldRun) mark(label string) {
	s := f.s
	f.log = append(f.log, foldStep{label, s.now, s.seq, s.cut, s.Pending(), s.Stats().evented()})
}

// event returns a callback that marks label, then runs then.
func (f *foldRun) event(label string, then func()) func(any) {
	return func(any) {
		f.mark(label)
		if then != nil {
			then()
		}
	}
}

// chain makes, as the last act of the event being dispatched, an event at
// t behind a ticket at ready, whose work is event(label, then).
func (f *foldRun) chain(ready, t Time, label string, then func()) {
	fn := f.event(label, then)
	if f.fold && f.s.Fold(ready, t) {
		fn(nil)
		return
	}
	f.s.AtFuncOnPass(f.s.Reserve(ready), t, fn, nil)
}

// runFold runs program evented and folded, each to the end through the
// RunUntil limits given, and fails unless both step alike and the folded
// run folds wantFolds times.
func runFold(t *testing.T, limits []Time, wantFolds int64, program func(f *foldRun)) {
	t.Helper()
	var logs [2][]foldStep
	var folds int64
	for i, fold := range []bool{false, true} {
		f := &foldRun{s: New(), fold: fold}
		program(f)
		for _, limit := range append(slices.Clone(limits), MaxTime) {
			f.s.RunUntil(limit)
			f.mark("return")
		}
		logs[i], folds = f.log, f.s.Stats().Folded
	}
	if !slices.Equal(logs[1], logs[0]) {
		t.Fatalf("folded run stepped\n%+v\nevented run\n%+v", logs[1], logs[0])
	}
	if folds != wantFolds {
		t.Fatalf("%d folds, want %d", folds, wantFolds)
	}
}

// Fold stands in for the next dispatch only: an event keyed at t comes
// first, so no fold happens, and a chain still ends up where the evented
// one does.
func TestFoldEventAtT(t *testing.T) {
	runFold(t, nil, 0, func(f *foldRun) {
		f.s.AtFunc(10, f.event("at t", nil), nil)
		f.s.AtFunc(0, f.event("a", func() { f.chain(5, 10, "b", nil) }), nil)
	})
}

// A chained event at the RunUntil limit folds; one past it does not, and
// the run stops at the limit either way.
func TestFoldAtTheLimit(t *testing.T) {
	for _, c := range []struct {
		limit Time
		folds int64
	}{{10, 1}, {9, 0}} {
		runFold(t, []Time{c.limit}, c.folds, func(f *foldRun) {
			f.s.AtFunc(0, f.event("a", func() { f.chain(5, 10, "b", nil) }), nil)
			f.s.AtFunc(11, f.event("after", nil), nil)
		})
	}
}

// Stop earlier in the event rules out a fold: the loop returns before the
// chained event.
func TestFoldAfterStop(t *testing.T) {
	runFold(t, nil, 0, func(f *foldRun) {
		f.s.AtFunc(0, f.event("a", func() {
			f.s.Stop()
			f.chain(5, 10, "b", nil)
		}), nil)
	})
}

// Deferred events of another device whose tickets lie before, among and
// after the fold's keys take the sequence numbers they take evented, in
// ticket order, so later ties dispatch in the same order. A stretch of
// chained events folds one after another until another event comes due.
func TestFoldDrawsInTicketOrder(t *testing.T) {
	runFold(t, nil, 3, func(f *foldRun) {
		f.s.AtFunc(0, f.event("a", func() {
			f.s.AtFuncOnPass(f.s.Reserve(7), 40, f.event("between", nil), nil)
			f.s.AtFuncOnPass(f.s.Reserve(3), 40, f.event("before", nil), nil)
			f.s.AtFuncOnPass(f.s.Reserve(10), 40, f.event("at t", nil), nil)
			f.s.AtFuncOnPass(f.s.Reserve(25), 40, f.event("later", nil), nil)
			f.chain(5, 10, "b1", func() {
				f.s.AtFunc(40, f.event("tie", nil), nil)
				f.chain(12, 20, "b2", func() {
					f.chain(20, 30, "b3", func() { f.chain(31, 45, "b4", nil) })
				})
			})
		}), nil)
	})
}
