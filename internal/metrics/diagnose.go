package metrics

import (
	"fmt"
	"strings"
)

// MissBreakdown attributes every SLO miss of a run to a cause. The
// counts partition Misses: a request failing for several reasons lands
// in the first matching bucket of a fixed precedence (crash, migration
// stall, unfinished, TBT violation, then queue-wait vs prefill for TTFT
// misses), so Crash+MigrationStall+Unfinished+TBTViolation+
// QueuedTooLong+SlowPrefill+Other == Misses always holds.
type MissBreakdown struct {
	// Misses is offered minus within-SLO: every request that does not
	// count toward goodput, including never-routed and in-flight ones.
	Misses int `json:"misses"`
	// QueuedTooLong: first token beat the admitted request's serve time
	// but the arrival queue ate the TTFT budget.
	QueuedTooLong int `json:"queued_too_long"`
	// SlowPrefill: admission was prompt but prefill (admission to first
	// token) dominated the blown TTFT budget.
	SlowPrefill int `json:"slow_prefill"`
	// TBTViolation: at least one inter-token gap exceeded the target.
	TBTViolation int `json:"tbt_violation"`
	// MigrationStall: the request rode a KV-migration stream — held for
	// the transfer, or still in flight on one at run end.
	MigrationStall int `json:"migration_stall"`
	// Crash: the request was aborted off a failed replica.
	Crash int `json:"crash"`
	// Unfinished: incomplete at run end (backlog, horizon cut, or never
	// routed) without a more specific cause above.
	Unfinished int `json:"unfinished"`
	// Other: misses the decomposition could not attribute. Structurally
	// zero today; kept so a future cause cannot vanish silently.
	Other int `json:"other"`
}

// Attributed returns the misses assigned a specific cause.
func (b MissBreakdown) Attributed() int { return b.Misses - b.Other }

// AttributionRate returns the attributed fraction of misses (1 when
// there are none) — the frontier acceptance gate checks ≥0.95.
func (b MissBreakdown) AttributionRate() float64 {
	if b.Misses == 0 {
		return 1
	}
	return float64(b.Attributed()) / float64(b.Misses)
}

// Add returns the element-wise sum — for rolling cells up per condition.
func (b MissBreakdown) Add(o MissBreakdown) MissBreakdown {
	b.Misses += o.Misses
	b.QueuedTooLong += o.QueuedTooLong
	b.SlowPrefill += o.SlowPrefill
	b.TBTViolation += o.TBTViolation
	b.MigrationStall += o.MigrationStall
	b.Crash += o.Crash
	b.Unfinished += o.Unfinished
	b.Other += o.Other
	return b
}

// String renders the non-zero causes compactly, e.g.
// "tbt:12 queued:3 crash:1", or "none" when there are no misses.
func (b MissBreakdown) String() string {
	if b.Misses == 0 {
		return "none"
	}
	var parts []string
	for _, c := range []struct {
		label string
		n     int
	}{
		{"queued", b.QueuedTooLong},
		{"prefill", b.SlowPrefill},
		{"tbt", b.TBTViolation},
		{"stall", b.MigrationStall},
		{"crash", b.Crash},
		{"unfinished", b.Unfinished},
		{"other", b.Other},
	} {
		if c.n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", c.label, c.n))
		}
	}
	return strings.Join(parts, " ")
}

// DiagnoseAux is run-level context the recorder cannot see on its own:
// which requests a fleet crashed or held on migration streams, and how
// many never reached any recorder at all.
type DiagnoseAux struct {
	// Crashed marks requests ever aborted off a failed replica.
	Crashed map[int]bool
	// Held marks requests that waited on a KV-migration stream.
	Held map[int]bool
	// Unrouted counts requests still queued at the router at run end
	// (no routable replica ever appeared for them). They are misses on
	// top of the recorder's population, attributed as Unfinished.
	Unrouted int
	// InFlightKV counts requests still riding a migration stream at run
	// end — in no recorder, attributed as MigrationStall.
	InFlightKV int
}

// Diagnose classifies every SLO miss. The population is the recorder's
// requests plus aux's never-recorded ones, so Misses always equals
// offered minus WithinSLO(slo) for the same run.
func (r *Recorder) Diagnose(slo SLO, aux DiagnoseAux) MissBreakdown {
	r.settle()
	var b MissBreakdown
	target := slo.TBT.Seconds()
	for _, rec := range r.recs {
		if rec.dead {
			continue
		}
		v := rec.verdict(slo, target)
		if v == sloMet {
			continue // within SLO, as WithinSLO counts it
		}
		b.Misses++
		switch {
		case aux.Crashed[rec.id]:
			b.Crash++
		case aux.Held[rec.id]:
			b.MigrationStall++
		case v == sloUnfinished:
			b.Unfinished++
		case v == sloTBTMiss:
			b.TBTViolation++
		case v == sloTTFTMiss:
			// Split the blown TTFT budget at the admission instant. A
			// request the engine never admitted (admitted < 0) spent its
			// whole life queued.
			if rec.admitted >= rec.arrival && rec.firstToken-rec.admitted > rec.admitted-rec.arrival {
				b.SlowPrefill++
			} else {
				b.QueuedTooLong++
			}
		default:
			b.Other++
		}
	}
	b.Misses += aux.Unrouted + aux.InFlightKV
	b.Unfinished += aux.Unrouted
	b.MigrationStall += aux.InFlightKV
	return b
}
