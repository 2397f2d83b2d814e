package workload

import (
	"math"
	"math/rand/v2"
	"sort"

	"muxwise/internal/sim"
)

// MaxArrival bounds every arrival a trace may carry (~3 simulated years;
// real traces span minutes). ReadJSONL rejects later arrivals,
// WithPoissonArrivals truncates the trace before them, and
// Experiment.Run refuses traces outside [0, MaxArrival] — so adding a
// run horizon to the last arrival cannot overflow sim.Time.
const MaxArrival = 100_000_000 * sim.Second

// sessionSeconds approximates how long a multi-turn session stays live in
// a cluster trace (turns separated by user think time). It sizes the
// window of concurrently active sessions: concurrency ≈ rate × duration.
const sessionSeconds = 120

// assignArrivals distributes sorted timestamps over the trace's requests.
// Turn order is preserved per session, and only `window` sessions
// interleave at a time — real multi-turn traces have a bounded set of
// live conversations, which is what gives KV reuse its temporal locality
// (a turn's successor arrives while its context can still be cached).
func assignArrivals(t *Trace, times []sim.Time, window int) *Trace {
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	// Collect per-session turn queues in turn order.
	bySession := map[int][]*Request{}
	var order []int
	for _, r := range t.Requests {
		if _, ok := bySession[r.Session]; !ok {
			order = append(order, r.Session)
		}
		bySession[r.Session] = append(bySession[r.Session], r)
	}
	for _, q := range bySession {
		sort.Slice(q, func(i, j int) bool { return q[i].Turn < q[j].Turn })
	}

	if window < 1 {
		window = 1
	}
	active := make([]int, 0, window) // positions into order
	next := 0
	for len(active) < window && next < len(order) {
		active = append(active, next)
		next++
	}
	rr := 0
	for _, at := range times {
		for len(active) > 0 {
			pos := rr % len(active)
			s := order[active[pos]]
			q := bySession[s]
			if len(q) == 0 {
				// Session exhausted: admit a fresh one in its slot.
				if next < len(order) {
					active[pos] = next
					next++
				} else {
					active = append(active[:pos], active[pos+1:]...)
				}
				continue
			}
			q[0].Arrival = at
			bySession[s] = q[1:]
			rr++
			break
		}
	}
	sort.SliceStable(t.Requests, func(i, j int) bool {
		return t.Requests[i].Arrival < t.Requests[j].Arrival
	})
	for i, r := range t.Requests {
		r.ID = i
	}
	return t
}

// sessionWindow sizes the live-session set for a given request rate.
func sessionWindow(reqPerSec float64) int {
	w := int(reqPerSec * sessionSeconds)
	if w < 4 {
		w = 4
	}
	return w
}

// WithPoissonArrivals assigns homogeneous Poisson arrivals at reqPerSec,
// following prior work's load-sweep methodology (§4.2.3), and truncates
// the trace to the arrivals that fit in [0, MaxArrival] — so a rate
// that is not positive, or is NaN, yields an empty trace.
func (t *Trace) WithPoissonArrivals(seed uint64, reqPerSec float64) *Trace {
	rng := rand.New(rand.NewPCG(seed, 0xA24BAED4963EE407))
	limit := MaxArrival.Seconds()
	times := make([]sim.Time, 0, len(t.Requests))
	at := 0.0
	for len(times) < len(t.Requests) {
		at += rng.ExpFloat64() / reqPerSec
		if !(at >= 0 && at <= limit) {
			break
		}
		times = append(times, sim.FromSeconds(at))
	}
	t.Requests = t.Requests[:len(times)]
	return assignArrivals(t, times, sessionWindow(reqPerSec))
}

// RateProfile is a time-varying request rate in requests per second.
type RateProfile struct {
	Name     string
	Duration sim.Time
	Rate     func(at sim.Time) float64 // req/s at time at
	Peak     float64                   // upper bound of Rate for thinning
}

// RatePerMinute samples the profile at 1-minute resolution (the Fig. 13
// view of the traces).
func (p RateProfile) RatePerMinute() []float64 {
	mins := int(p.Duration / (60 * sim.Second))
	out := make([]float64, mins)
	for i := range out {
		out[i] = p.Rate(sim.Time(i)*60*sim.Second+30*sim.Second) * 60
	}
	return out
}

// spike describes one burst in a real-world trace profile.
type spike struct {
	at    float64 // seconds
	width float64
	mag   float64 // req/s added at the peak
}

// burstyProfile builds a 20-minute profile: a slow diurnal-ish wave plus
// sharp spikes, reproducing the up-to-13× one-minute surges of Fig. 13.
func burstyProfile(name string, base, wave float64, spikes []spike) RateProfile {
	peak := base + wave
	for _, s := range spikes {
		if base+wave+s.mag > peak {
			peak = base + wave + s.mag
		}
	}
	return RateProfile{
		Name:     name,
		Duration: 1200 * sim.Second,
		Peak:     peak,
		Rate: func(at sim.Time) float64 {
			ts := at.Seconds()
			r := base + wave*0.5*(1+math.Sin(ts/1200*2*math.Pi*1.5))
			for _, s := range spikes {
				d := (ts - s.at) / s.width
				r += s.mag * math.Exp(-d*d)
			}
			return r
		},
	}
}

// ConversationProfile returns the scaled Conversation trace shape of
// Fig. 13. scale multiplies the whole profile (the paper uses a higher
// scale for Llama-8B than for Llama-70B).
func ConversationProfile(scale float64) RateProfile {
	p := burstyProfile("Conversation", 0.5*scale, 0.8*scale, []spike{
		{at: 180, width: 25, mag: 1.6 * scale},
		{at: 430, width: 18, mag: 2.6 * scale},
		{at: 700, width: 30, mag: 1.2 * scale},
		{at: 1020, width: 20, mag: 2.1 * scale},
	})
	p.Name = "Conversation"
	return p
}

// ToolAgentProfile returns the scaled Tool&Agent trace shape of Fig. 13.
func ToolAgentProfile(scale float64) RateProfile {
	p := burstyProfile("Tool&Agent", 0.4*scale, 0.6*scale, []spike{
		{at: 120, width: 15, mag: 2.9 * scale},
		{at: 350, width: 22, mag: 1.4 * scale},
		{at: 620, width: 15, mag: 3.3 * scale},
		{at: 880, width: 28, mag: 1.1 * scale},
		{at: 1100, width: 16, mag: 2.4 * scale},
	})
	p.Name = "Tool&Agent"
	return p
}

// WithProfileArrivals assigns arrivals from a non-homogeneous Poisson
// process (thinning) over the profile and truncates the trace to the
// arrivals that fit in the profile window — so a peak rate that is not
// positive and finite (a NaN, infinite or non-positive profile scale)
// yields an empty trace.
func (t *Trace) WithProfileArrivals(seed uint64, p RateProfile) *Trace {
	rng := rand.New(rand.NewPCG(seed, 0x2545F4914F6CDD1D))
	var times []sim.Time
	want := len(t.Requests)
	if !(p.Peak > 0 && p.Peak <= math.MaxFloat64) {
		want = 0
	}
	at := 0.0
	for len(times) < want {
		at += rng.ExpFloat64() / p.Peak
		ts := sim.FromSeconds(at)
		if ts > p.Duration {
			break
		}
		if rng.Float64() < p.Rate(ts)/p.Peak {
			times = append(times, ts)
		}
	}
	if len(times) < len(t.Requests) {
		t.Requests = t.Requests[:len(times)]
	}
	mean := float64(len(times)) / p.Duration.Seconds()
	return assignArrivals(t, times, sessionWindow(mean))
}
