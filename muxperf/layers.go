package main

import (
	"sort"
	"strings"

	"muxwise"
	"muxwise/internal/metrics"
	"muxwise/internal/obs"
	"muxwise/internal/sim"
)

// decodeTuple is one traced decode iteration's cost-model query shape.
type decodeTuple struct{ bs, ctx, sms int }

// prefillTuple is one traced prefill batch's shape.
type prefillTuple struct{ newTokens, reused int }

// simLayers accumulates the simulated per-layer counts of the traced
// probes: what each layer did, read off the run's report and its flight
// recorder.
type simLayers struct {
	offered int

	fired, scheduled, canceled int64
	maxPending                 int

	kernels                   int64
	smBusy, active, launchSec float64 // SM-util·active-seconds, active seconds, launch seconds

	decodeMs, prefillMs []float64
	bsSum               int
	preempted           int
	partitionChanges    int
	timelineMin         float64
	queueMs             []float64
	hitSum              float64
	hitRuns             int
	miss                metrics.MissBreakdown
	stays, followUps    int
	migTokens           int64
	migStall            sim.Time
	streams             int
	traceEvents         int

	decodes  []decodeTuple
	prefills []prefillTuple
}

// add folds one traced probe in: its report, its flight recorder and the
// trace it replayed.
func (s *simLayers) add(rep *muxwise.Report, fr *obs.Tracer, tr *muxwise.Trace) {
	s.offered += tr.Len()
	ls := loopStats(rep)
	s.fired += ls.Fired
	s.scheduled += ls.Scheduled
	s.canceled += ls.Canceled
	s.maxPending = max(s.maxPending, ls.MaxPending)
	s.miss = s.miss.Add(rep.MissCauses)
	s.traceEvents += fr.Len()

	results := []muxwise.Result{}
	if rep.Fleet != nil {
		for _, r := range rep.Fleet.Replicas {
			results = append(results, r.Result)
		}
		s.hitSum += rep.Fleet.CacheHit
		m := rep.Fleet.Migration
		s.migTokens += m.MigratedTokens
		s.migStall += m.Stall
		s.streams += m.Streams
	} else {
		results = append(results, *rep.Engine)
		s.hitSum += rep.Engine.CacheHit
	}
	s.hitRuns++
	for _, r := range results {
		for _, d := range r.Devices {
			s.kernels += d.Kernels
			s.smBusy += d.SMUtil * d.ActiveSeconds
			s.active += d.ActiveSeconds
			s.launchSec += d.LaunchSeconds
		}
		if r.Timeline != nil {
			s.partitionChanges += r.Timeline.Changes()
			s.timelineMin += rep.Summary.Makespan.Seconds() / 60
		}
	}
	s.addEvents(fr, tr)
}

// addEvents reads the flight recorder: decode-iter and prefill spans of
// the MuxWise engine, admission instants, and router picks.
func (s *simLayers) addEvents(fr *obs.Tracer, tr *muxwise.Trace) {
	byID := make(map[int]*muxwise.Request, tr.Len())
	for _, r := range tr.Requests {
		byID[r.ID] = r
	}
	open := map[string]obs.Event{} // track → open duration span
	lastPick := map[int]string{}   // session → replica of its latest pick
	picked := map[int]bool{}       // requests already placed once
	for _, ev := range fr.Events() {
		switch ev.Ph {
		case obs.PhaseBegin:
			open[ev.Track] = ev
		case obs.PhaseEnd:
			b, ok := open[ev.Track]
			if !ok || b.Name != ev.Name {
				continue
			}
			delete(open, ev.Track)
			ms := (ev.At - b.At).Milliseconds()
			switch ev.Name {
			case "decode-iter":
				t := decodeTuple{argInt(b.Args, "bs"), argInt(b.Args, "ctx"), argInt(b.Args, "sms")}
				s.decodeMs = append(s.decodeMs, ms)
				s.bsSum += t.bs
				s.decodes = append(s.decodes, t)
			case "prefill":
				s.prefillMs = append(s.prefillMs, ms)
				if argString(ev.Args, "outcome") == "preempted" {
					s.preempted++
				}
				s.prefills = append(s.prefills, prefillTuple{argInt(b.Args, "new_tokens"), argInt(b.Args, "reused_tokens")})
			}
		case obs.PhaseAsyncInstant:
			if ev.Name == "admitted" {
				s.queueMs = append(s.queueMs, argNum(ev.Args, "queue_ms"))
			}
		case obs.PhaseInstant:
			if ev.Name != "pick" {
				continue
			}
			req := byID[argInt(ev.Args, "req")]
			rep := argString(ev.Args, "picked")
			if req == nil {
				continue
			}
			// A follow-up turn's first placement stays when it lands
			// where the session's previous turn was placed; re-dispatches
			// after a drain are placements, not turns.
			if prev, ok := lastPick[req.Session]; ok && req.Turn > 0 && !picked[req.ID] {
				s.followUps++
				if prev == rep {
					s.stays++
				}
			}
			picked[req.ID] = true
			lastPick[req.Session] = rep
		}
	}
}

// metrics reduces the accumulated counts to the per-layer [sim] metrics.
func (s *simLayers) metrics(m map[string]float64) {
	off := float64(max(s.offered, 1))
	m["sim.events_per_req"] = float64(s.fired) / off
	m["sim.cancel_frac"] = ratio(float64(s.canceled), float64(s.scheduled))
	m["sim.max_pending"] = float64(s.maxPending)
	m["gpu.kernels_per_req"] = float64(s.kernels) / off
	m["gpu.sm_util"] = ratio(s.smBusy, s.active)
	m["gpu.launch_frac"] = ratio(s.launchSec, s.active)
	m["core.decode_iters_per_req"] = float64(len(s.decodeMs)) / off
	m["core.decode_bs_mean"] = ratio(float64(s.bsSum), float64(len(s.decodeMs)))
	m["core.decode_iter_ms_p99"] = sortedRank(s.decodeMs, 0.99)
	m["core.prefill_ms_p99"] = sortedRank(s.prefillMs, 0.99)
	m["core.preempt_frac"] = ratio(float64(s.preempted), float64(len(s.prefillMs)))
	m["core.partition_changes_per_min"] = ratio(float64(s.partitionChanges), s.timelineMin)
	m["serve.queue_ms_p50"] = sortedRank(s.queueMs, 0.5)
	m["serve.queue_ms_p99"] = sortedRank(s.queueMs, 0.99)
	m["kvcache.hit_rate"] = ratio(s.hitSum, float64(s.hitRuns))
	for _, c := range []struct {
		name string
		n    int
	}{
		{"queued_too_long", s.miss.QueuedTooLong},
		{"slow_prefill", s.miss.SlowPrefill},
		{"tbt_violation", s.miss.TBTViolation},
		{"migration_stall", s.miss.MigrationStall},
		{"crash", s.miss.Crash},
		{"unfinished", s.miss.Unfinished},
	} {
		m["metrics.miss."+c.name+"_frac"] = float64(c.n) / off
	}
	m["cluster.session_stay_frac"] = ratio(float64(s.stays), float64(s.followUps))
	m["cluster.migration_tokens_per_req"] = float64(s.migTokens) / off
	m["cluster.migration_stall_ms_per_stream"] = ratio(s.migStall.Milliseconds(), float64(s.streams))
	m["obs.events_per_req"] = float64(s.traceEvents) / off
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sortedRank sorts v in place and returns its nearest-rank p-quantile.
func sortedRank(v []float64, p float64) float64 {
	sort.Float64s(v)
	return nearestRank(v, p)
}

func argValue(args []obs.Arg, key string) any {
	for _, a := range args {
		if a.Key == key {
			return a.Val
		}
	}
	return nil
}

// argNum reads a numeric flight-recorder argument (emitters record ints,
// int64s and float64s), or 0 when it is absent.
func argNum(args []obs.Arg, key string) float64 {
	switch v := argValue(args, key).(type) {
	case int:
		return float64(v)
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

func argInt(args []obs.Arg, key string) int { return int(argNum(args, key)) }

func argString(args []obs.Arg, key string) string {
	v, _ := argValue(args, key).(string)
	return v
}

// layerOf names the layer a profiled function belongs to: its package
// under muxwise/internal, with the six baseline engines grouped as
// "baselines" and the remaining internal packages as "other". Functions
// outside muxwise/internal report false.
func layerOf(fn string) (string, bool) {
	const prefix = "muxwise/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	pkg := fn[len(prefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "sim", "gpu", "estimator", "roofline", "core", "serve", "kvcache",
		"metrics", "cluster", "obs", "workload", "model":
		return pkg, true
	case "chunked", "nanoflow", "loong", "pdsep", "temporal", "windserve":
		return "baselines", true
	}
	return "other", true
}

// cpuLayers are the layers cpu_share is reported for; runtime takes every
// sample with no muxwise/internal frame, such as GC workers.
var cpuLayers = []string{"sim", "gpu", "estimator", "roofline", "core", "serve", "kvcache",
	"metrics", "cluster", "obs", "workload", "model", "baselines", "other", "runtime"}
