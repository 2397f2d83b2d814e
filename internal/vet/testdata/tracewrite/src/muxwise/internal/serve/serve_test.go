package serve

import "muxwise/internal/workload"

// Tests may build and edit requests freely.
func mutateInTest(r *workload.Request) {
	r.Arrival = 1
	r.Pages[0] = 2
}
