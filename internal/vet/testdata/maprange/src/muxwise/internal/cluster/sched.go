// Scheduling events in map order permutes the event loop's
// (time, seq) tie-break — the highest-stakes maprange trigger.
package cluster

import "muxwise/internal/sim"

type waiter struct{ when sim.Time }

func tick() {}

func scheduleAll(s *sim.Sim, pending map[int]waiter) {
	for _, w := range pending { // want `schedules events \(At\)`
		s.At(w.when, tick)
	}
}

// Reserving sequence numbers in map order permutes the tie-break just
// as scheduling does.
func reserveAll(s *sim.Sim, pending map[int]waiter) {
	for _, w := range pending { // want `schedules events \(Reserve\)`
		s.Reserve(w.when)
	}
}
