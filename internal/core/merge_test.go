package core

import (
	"testing"

	"muxwise/internal/gpu"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// checkedRun is one MuxWise run whose decode stream is bound to the
// engine's own handler and quiet predicate through test wrappers.
type checkedRun struct {
	t   *testing.T
	s   *sim.Sim
	rec *metrics.Recorder
	e   *Engine
}

// newCheckedRun builds a MuxWise engine with opts over cfg, submits tr's
// requests at their arrivals, and re-binds the decode stream to handler
// and quiet, each of which must call the engine's own.
func newCheckedRun(t *testing.T, cfg serve.Config, opts Options, tr *workload.Trace,
	handler func(c *checkedRun, finished []*serve.Running), quiet func(c *checkedRun) bool) *checkedRun {
	c := &checkedRun{t: t, s: sim.New(), rec: metrics.NewRecorder()}
	env := &serve.Env{Config: cfg, Sim: c.s, Rec: c.rec}
	c.e = NewWithOptions(env, opts)
	c.e.decode.Bind(env, func(arg any, finished []*serve.Running) { handler(arg.(*checkedRun), finished) },
		func(arg any) bool { return quiet(arg.(*checkedRun)) }, c)
	for _, r := range tr.Requests {
		c.s.AtFunc(r.Arrival, func(any) {
			c.rec.Arrive(r.ID, r.Arrival, r.InputTokens)
			c.e.Submit(r)
		}, nil)
	}
	return c
}

// run runs the simulation to its end and fails unless every request
// finished.
func (c *checkedRun) run() {
	c.t.Helper()
	c.s.Run()
	if sum := c.rec.Summarize("mux", c.s.Now()); sum.Finished != sum.Requests {
		c.t.Fatalf("finished %d/%d", sum.Finished, sum.Requests)
	}
}

// held counts the admitted, unfinished requests from the recorder and the
// arrival queue, independently of the engine's inflight.
func (c *checkedRun) held() int { return c.rec.Unfinished() - c.e.pending.Len() }

// Regression: a decode boundary that merges prefill jobs admits arrivals
// up to serve.MaxBatch. inflight counted a merged job's requests twice,
// in the decode batch and on the merge list, until the boundary's last
// job merged, so the slots freed by requests that finish at their first
// token stayed empty until the next arrival or decode completion. A
// burst of short prompts, every third with one output token, fills the
// batch; after every boundary, inflight equals the slots held, and no
// arrival waits while a slot is free (the pool holds the whole burst).
func TestMergeAdmitsToMaxBatch(t *testing.T) {
	tr := &workload.Trace{Name: "merge-burst"}
	for i := range 1200 {
		out := 200
		if i%3 == 0 {
			out = 1
		}
		tr.Requests = append(tr.Requests, &workload.Request{
			ID: i, Session: i, Arrival: sim.Time(i) * 100 * sim.Microsecond,
			InputTokens: 256, OutputTokens: out,
			Pages: pages(uint64(1000+i), 16), AllPages: pages(uint64(1000+i), 17+out/16),
		})
	}
	full := 0
	c := newCheckedRun(t, cfg8B(), DefaultOptions(), tr, func(c *checkedRun, finished []*serve.Running) {
		merges := len(c.e.merging)
		decodeDone(c.e, finished)
		held := c.held()
		if got := c.e.inflight(); got != held {
			t.Fatalf("at %v: inflight %d, %d requests hold slots", c.s.Now(), got, held)
		}
		if c.e.pending.Len() > 0 && held < serve.MaxBatch {
			t.Fatalf("at %v: a boundary merging %d jobs left %d of %d slots held with %d arrivals pending",
				c.s.Now(), merges, held, serve.MaxBatch, c.e.pending.Len())
		}
		if merges > 0 && held == serve.MaxBatch {
			full++
		}
	}, func(c *checkedRun) bool { return decodeQuiet(c.e) })
	if need := int64(1200 * (256 + 200)); c.e.pool.Free() < need {
		t.Fatalf("pool holds %d free tokens, want room for the whole burst (%d)", c.e.pool.Free(), need)
	}
	c.run()
	if full < 10 {
		t.Fatalf("%d boundaries merged jobs into a full batch, want ≥ 10", full)
	}
	t.Logf("%d boundaries merged jobs into a batch of MaxBatch", full)
}

// The merge list is non-empty only while decode holds fewer than all SMs,
// so decodeQuiet's curConfig term alone rules out a pending merge: a
// prefill completes during a decode iteration only while its partition
// has SMs beside it, and the iteration's split holds until its boundary.
// The check runs at every quiet query of ShareGPT at a moderate rate, a
// flood that fills serve.MaxBatch and a preempting Tool&Agent mix, under
// every ablation.
func TestMergeListOnlyBesidePrefill(t *testing.T) {
	traces := []*workload.Trace{
		workload.ShareGPT(1, 300).WithPoissonArrivals(1, 8),
		workload.ShareGPT(33, 1000).WithPoissonArrivals(33, 1000),
		workload.ToolAgent(201, 300).WithPoissonArrivals(8201, 8),
	}
	variants := []Options{
		DefaultOptions(),
		{LayerWise: true, QuerySync: true},
		{QuerySync: true},
		{},
		{LayerWise: true, QuerySync: true, Preemption: true, NoGuard: true},
	}
	cfg := serve.Config{
		Spec: gpu.A100(), GPUs: 8, Arch: model.Llama8B(),
		SLO: metrics.SLO{TTFT: sim.Second, TBT: 50 * sim.Millisecond},
	}
	queried := 0
	for _, tr := range traces {
		for _, opts := range variants {
			merging := 0
			c := newCheckedRun(t, cfg, opts, tr, func(c *checkedRun, finished []*serve.Running) {
				decodeDone(c.e, finished)
			}, func(c *checkedRun) bool {
				if len(c.e.merging) > 0 {
					if c.e.curConfig == c.e.env.Spec.SMs {
						t.Fatalf("%s, %+v at %v: %d jobs await a merge while decode holds all %d SMs",
							tr.Name, opts, c.s.Now(), len(c.e.merging), c.e.curConfig)
					}
					merging++
				}
				return decodeQuiet(c.e)
			})
			c.run()
			t.Logf("%s, %+v: %d quiet queries with a merge pending", tr.Name, opts, merging)
			queried += merging
		}
	}
	if queried < 100 {
		t.Fatalf("%d quiet queries met a pending merge, want ≥ 100", queried)
	}
}
