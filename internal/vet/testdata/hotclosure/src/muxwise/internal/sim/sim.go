// Stub of the event loop's scheduling seams, which take a pre-bound func
// and arg.
package sim

type Time int64

type Handle struct{}

type Sim struct{}

func (s *Sim) AtFunc(t Time, fn func(any), arg any) Handle    { return Handle{} }
func (s *Sim) AfterFunc(d Time, fn func(any), arg any) Handle { return Handle{} }
