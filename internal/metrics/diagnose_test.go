package metrics

import (
	"testing"

	"muxwise/internal/sim"
)

func diagSLO() SLO { return SLO{TTFT: sim.Second, TBT: 50 * sim.Millisecond} }

// finishCleanly drives a request through a fully SLO-compliant life.
func finishCleanly(r *Recorder, id int, at sim.Time) {
	r.Arrive(id, at, 100)
	r.Admitted(id, at+10*sim.Millisecond)
	r.Token(id, at+100*sim.Millisecond)
	r.Token(id, at+120*sim.Millisecond)
	r.Finish(id, at+120*sim.Millisecond)
}

func TestDiagnoseCauses(t *testing.T) {
	r := NewRecorder()
	slo := diagSLO()

	finishCleanly(r, 1, 0)

	// 2: TTFT miss dominated by queue wait (admitted late, served fast).
	r.Arrive(2, 0, 100)
	r.Admitted(2, 1500*sim.Millisecond)
	r.Token(2, 1600*sim.Millisecond)
	r.Finish(2, 1600*sim.Millisecond)

	// 3: TTFT miss dominated by prefill (admitted at once, slow to first
	// token).
	r.Arrive(3, 0, 100)
	r.Admitted(3, 10*sim.Millisecond)
	r.Token(3, 1800*sim.Millisecond)
	r.Finish(3, 1800*sim.Millisecond)

	// 4: TBT violation (200ms inter-token gap).
	r.Arrive(4, 0, 100)
	r.Admitted(4, 10*sim.Millisecond)
	r.Token(4, 100*sim.Millisecond)
	r.Token(4, 300*sim.Millisecond)
	r.Finish(4, 300*sim.Millisecond)

	// 5: unfinished at run end.
	r.Arrive(5, 0, 100)
	r.Token(5, 100*sim.Millisecond)

	// 6: TTFT miss with no admission recorded — queued its whole life.
	r.Arrive(6, 0, 100)
	r.Token(6, 2*sim.Second)
	r.Finish(6, 2*sim.Second)

	// 7, 8: would be TTFT misses, but crashed / migration-held.
	r.Arrive(7, 0, 100)
	r.Token(7, 2*sim.Second)
	r.Finish(7, 2*sim.Second)
	r.Arrive(8, 0, 100)
	r.Token(8, 2*sim.Second)
	r.Finish(8, 2*sim.Second)

	aux := DiagnoseAux{
		Crashed:    map[int]bool{7: true},
		Held:       map[int]bool{8: true},
		Unrouted:   2,
		InFlightKV: 1,
	}
	b := r.Diagnose(slo, aux)

	want := MissBreakdown{
		Misses:         10,
		QueuedTooLong:  2, // 2 and 6
		SlowPrefill:    1, // 3
		TBTViolation:   1, // 4
		MigrationStall: 2, // 8 + InFlightKV
		Crash:          1, // 7
		Unfinished:     3, // 5 + Unrouted
	}
	if b != want {
		t.Fatalf("breakdown %+v, want %+v", b, want)
	}
	if got := r.WithinSLO(slo); len(r.IDs())+aux.Unrouted+aux.InFlightKV-got != b.Misses {
		t.Fatalf("identity broken: offered %d within %d misses %d",
			len(r.IDs())+aux.Unrouted+aux.InFlightKV, got, b.Misses)
	}
	if b.AttributionRate() != 1 {
		t.Fatalf("attribution rate %v, want 1 (Other=%d)", b.AttributionRate(), b.Other)
	}
}

// Misses must equal offered − WithinSLO for any mix, with zero targets
// disabling their half of the check exactly like WithinSLO does, on
// recorders holding aborted requests and on merged ones.
func TestDiagnoseMatchesWithinSLO(t *testing.T) {
	for _, slo := range []SLO{diagSLO(), {TTFT: sim.Second}, {TBT: 50 * sim.Millisecond}, {}} {
		r := NewRecorder()
		finishCleanly(r, 1, 0)
		r.Arrive(2, 0, 10)
		r.Token(2, 2*sim.Second)
		r.Finish(2, 2*sim.Second)
		r.Arrive(3, 0, 10)
		r.Token(3, 10*sim.Millisecond)
		r.Token(3, 500*sim.Millisecond)
		r.Finish(3, 500*sim.Millisecond)
		r.Arrive(4, 0, 10)
		// 5 and 6 break the TBT target, then abort; 6 re-arrives here and
		// finishes cleanly, so neither old gap may count.
		for _, id := range []int{5, 6} {
			r.Arrive(id, 0, 10)
			r.Token(id, 10*sim.Millisecond)
			r.Token(id, 900*sim.Millisecond)
			r.Abort(id)
		}
		finishCleanly(r, 6, sim.Second)

		other := NewRecorder()
		finishCleanly(other, 7, 0)
		other.Arrive(8, 0, 10)
		other.Token(8, 10*sim.Millisecond)
		other.Token(8, 500*sim.Millisecond)
		other.Finish(8, 500*sim.Millisecond)

		for _, rec := range []*Recorder{r, Merge(r, other)} {
			b := rec.Diagnose(slo, DiagnoseAux{})
			if got := len(rec.IDs()) - rec.WithinSLO(slo); b.Misses != got {
				t.Errorf("slo %+v: Misses %d, want %d", slo, b.Misses, got)
			}
			sum := b.QueuedTooLong + b.SlowPrefill + b.TBTViolation +
				b.MigrationStall + b.Crash + b.Unfinished + b.Other
			if sum != b.Misses {
				t.Errorf("slo %+v: buckets sum %d != Misses %d", slo, sum, b.Misses)
			}
		}
		if slo == diagSLO() {
			if b := r.Diagnose(slo, DiagnoseAux{}); b.TBTViolation != 1 || b.Misses != 3 {
				t.Errorf("breakdown %+v, want 3 misses with only request 3 a TBT violation", b)
			}
		}
	}
}

func TestMissBreakdownString(t *testing.T) {
	if got := (MissBreakdown{}).String(); got != "none" {
		t.Fatalf("empty breakdown %q", got)
	}
	b := MissBreakdown{Misses: 3, QueuedTooLong: 2, Crash: 1}
	if got := b.String(); got != "queued:2 crash:1" {
		t.Fatalf("breakdown string %q", got)
	}
	sum := (MissBreakdown{Misses: 1, Crash: 1}).Add(MissBreakdown{Misses: 2, TBTViolation: 2})
	if sum.Misses != 3 || sum.Crash != 1 || sum.TBTViolation != 2 {
		t.Fatalf("add %+v", sum)
	}
}

// Admitted is first-wins and halted-guarded, and must not disturb any
// existing aggregate.
func TestAdmittedSemantics(t *testing.T) {
	r := NewRecorder()
	r.Admitted(1, 5) // unknown: ignored
	r.Arrive(1, 0, 10)
	r.Admitted(1, 5)
	r.Admitted(1, 9) // second call ignored
	if rec := r.reqs[1]; rec.admitted != 5 {
		t.Fatalf("admitted %v, want 5", rec.admitted)
	}
	r.Halt()
	r.Arrive(2, 0, 10)
	r.Admitted(2, 5)
	if _, ok := r.reqs[2]; ok {
		t.Fatal("halted recorder accepted arrival")
	}
}
