// Positive and negative cases for the tracewrite analyzer outside
// internal/workload.
package serve

import (
	"slices"
	"sort"

	"muxwise/internal/workload"
)

type Running struct {
	R       *workload.Request
	Arrival int64
}

type byPage []workload.PageID

func (b byPage) Len() int           { return len(b) }
func (b byPage) Less(i, j int) bool { return b[i] < b[j] }
func (b byPage) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func badFieldWrites(r *workload.Request, run *Running, tr *workload.Trace) {
	r.Arrival = 5               // want `write to workload\.Request\.Arrival through a pointer`
	run.R.ID++                  // want `write to workload\.Request\.ID through a pointer`
	tr.Requests[0].Arrival += 1 // want `write to workload\.Request\.Arrival through a pointer`
	r.Pages = nil               // want `write to workload\.Request\.Pages through a pointer`
	(r).Segments, r.ID = nil, 3 // want `write to workload\.Request\.Segments` `write to workload\.Request\.ID`
}

func badElementWrites(r *workload.Request, v workload.Request, src []workload.PageID) {
	r.Pages[0] = 1                               // want `write into an element of workload\.Request\.Pages`
	v.AllPages[2]++                              // want `write into an element of workload\.Request\.AllPages`
	r.Segments[0].To = 4                         // want `write into an element of workload\.Request\.Segments`
	copy(r.AllPages[3:], src)                    // want `copy writes into workload\.Request\.AllPages`
	slices.Sort(r.Pages)                         // want `slices\.Sort writes into workload\.Request\.Pages`
	slices.Reverse(v.Pages[1:])                  // want `slices\.Reverse writes into workload\.Request\.Pages`
	sort.Sort(byPage(r.AllPages))                // want `sort\.Sort writes into workload\.Request\.AllPages`
	sort.Slice(r.Segments, func(i, j int) bool { // want `sort\.Slice writes into workload\.Request\.Segments`
		return r.Segments[i].From < r.Segments[j].From
	})
}

func goodReads(r *workload.Request, run *Running, dst []workload.PageID) int {
	v := *r // a copy of the request
	v.Arrival = 7
	v.Pages = append([]workload.PageID(nil), r.Pages...)
	run.Arrival = r.Arrival
	run.R = r
	copy(dst, r.Pages)
	pages := slices.Clone(r.AllPages)
	slices.Sort(pages)
	m := map[workload.PageID]int{}
	m[r.Pages[0]] = 1
	n := 0
	n += len(r.Segments)
	return n + slices.Index(r.Pages, 3)
}
