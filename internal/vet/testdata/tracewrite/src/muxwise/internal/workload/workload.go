// Package workload stubs the trace types. It builds traces, so its own
// writes to requests are allowed.
package workload

type PageID uint64

type Segment struct {
	Stream   uint64
	From, To int
}

type Request struct {
	ID       int
	Arrival  int64
	Pages    []PageID
	AllPages []PageID
	Segments []Segment
}

type Trace struct {
	Requests []*Request
}

func (t *Trace) WithArrivals(gap int64) *Trace {
	for i, r := range t.Requests {
		r.Arrival = int64(i) * gap
		r.Pages[0] = 0
	}
	return t
}
