// Minimal scheduling stub so the maprange suite can exercise the
// schedule-method trigger through a real method call.
package sim

type Time int64

type Sim struct{ now Time }

func (s *Sim) At(t Time, fn func()) {}

type Ticket struct{ at Time }

func (s *Sim) Reserve(t Time) Ticket { return Ticket{t} }
