package pdsep

import (
	"testing"

	"muxwise/internal/gpu"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// decodeQuiet needs no term for a waiting hand-off. A hand-off waits
// only after tryHandoff found the decode pool short for it, and the pool
// frees space only in onMigrated and onDecodeDone, each of which ends in
// schedule, which calls tryHandoff again. The decode pool caches no
// pages, so a failed Reserve evicts and records nothing. So at every
// quiet query with a hand-off waiting, the pool is still too short for
// it, and the handler's tryHandoff would do nothing. Llama-70B on four
// A100s gives each instance a 41k-token pool, which reasoning outputs
// fill, so hand-offs wait there.
func TestQuietWithHandoffWaitingOnFullPool(t *testing.T) {
	cfg := serve.Config{
		Spec: gpu.A100(), GPUs: 4, Arch: model.Llama70B(),
		SLO: metrics.SLO{TTFT: sim.Second, TBT: 100 * sim.Millisecond},
	}
	s := sim.New()
	rec := metrics.NewRecorder()
	env := &serve.Env{Config: cfg, Sim: s, Rec: rec}
	e := New(env).(*Engine)
	waiting := 0
	e.decode.Bind(env, decodeDone, func(arg any) bool {
		if e.handoff.Len() > 0 {
			h := e.handoff.Front()
			if free := e.dPool.Free(); free >= h.need() {
				t.Fatalf("at %v a hand-off needing %d tokens waits while the decode pool has %d free",
					s.Now(), h.need(), free)
			}
			waiting++
		}
		return decodeQuiet(arg)
	}, e)
	tr := workload.OpenThoughts(5, 60).WithPoissonArrivals(5, 2)
	for _, r := range tr.Requests {
		s.AtFunc(r.Arrival, func(any) {
			rec.Arrive(r.ID, r.Arrival, r.InputTokens)
			e.Submit(r)
		}, nil)
	}
	s.Run()
	if sum := rec.Summarize("pd", s.Now()); sum.Finished != sum.Requests {
		t.Fatalf("finished %d/%d", sum.Finished, sum.Requests)
	}
	t.Logf("%d quiet queries with a hand-off waiting", waiting)
	if waiting == 0 {
		t.Fatal("no quiet query met a waiting hand-off: the decode pool never filled")
	}
}
