package core

import (
	"testing"

	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

func cfg8B() serve.Config {
	return serve.Config{
		Spec: gpu.A100(), GPUs: 8, Arch: model.Llama8B(),
		SLO: metrics.SLO{TTFT: 500 * sim.Millisecond, TBT: 50 * sim.Millisecond},
	}
}

func cfg70B() serve.Config {
	return serve.Config{
		Spec: gpu.A100(), GPUs: 8, Arch: model.Llama70B(),
		SLO: metrics.SLO{TTFT: sim.Second, TBT: 100 * sim.Millisecond},
	}
}

func pages(stream uint64, n int) []kvcache.PageID {
	out := make([]kvcache.PageID, n)
	for i := range out {
		out[i] = kvcache.PageID(stream<<32 | uint64(i))
	}
	return out
}

func TestSingleRequestLifecycle(t *testing.T) {
	tr := &workload.Trace{Name: "one"}
	tr.Requests = append(tr.Requests, &workload.Request{
		ID: 0, Session: 0, Arrival: 0,
		InputTokens: 1000, OutputTokens: 20,
		Pages:    pages(1, 63),
		AllPages: pages(1, 64),
	})
	res := serve.Run(New, cfg8B(), tr)
	s := res.Summary
	if s.Finished != 1 {
		t.Fatalf("finished = %d, want 1", s.Finished)
	}
	if s.TTFT.Avg <= 0 || s.TTFT.Avg > 1 {
		t.Fatalf("TTFT = %.3fs implausible", s.TTFT.Avg)
	}
	if s.TBT.N != 19 {
		t.Fatalf("TBT samples = %d, want 19 (20 tokens)", s.TBT.N)
	}
	if s.Unstable {
		t.Fatal("single request run unstable")
	}
}

func TestShareGPTLoadMeetsSLOs(t *testing.T) {
	tr := workload.ShareGPT(1, 300).WithPoissonArrivals(1, 8)
	res := serve.Run(New, cfg8B(), tr)
	s := res.Summary
	if s.Unstable {
		t.Fatalf("unstable at moderate load: finished %d/%d", s.Finished, s.Requests)
	}
	if att := res.Rec.TBTAttainment(50 * sim.Millisecond); att < 0.99 {
		t.Fatalf("TBT attainment %.3f below 99%% (p99 TBT %.1fms)", att, s.TBT.P99*1e3)
	}
	if s.TTFT.P99 > 5 {
		t.Fatalf("p99 TTFT %.2fs implausible at moderate load", s.TTFT.P99)
	}
}

func TestDecodeSLOUnderLongPrefills(t *testing.T) {
	// LooGLE: ultra-long inputs. Decode TBT must hold while 30K-token
	// prefills multiplex — the paradigm's core claim.
	tr := workload.LooGLE(2, 40).WithPoissonArrivals(2, 0.4)
	res := serve.Run(New, cfg70B(), tr)
	if att := res.Rec.TBTAttainment(100 * sim.Millisecond); att < 0.98 {
		t.Fatalf("TBT attainment %.3f under long prefills (p99 %.1fms)",
			att, res.Summary.TBT.P99*1e3)
	}
}

func TestMultiTurnCacheReuse(t *testing.T) {
	tr := workload.Conversation(3, 60).WithPoissonArrivals(3, 2)
	s := sim.New()
	rec := metrics.NewRecorder()
	env := &serve.Env{
		Sim: s, Spec: gpu.A100(), GPUs: 8, Arch: model.Llama8B(),
		SLO: metrics.SLO{TTFT: 500 * sim.Millisecond, TBT: 50 * sim.Millisecond},
		Rec: rec, ReserveFrac: 0.1, MaxBatch: 256,
	}
	eng := NewWithOptions(env, DefaultOptions())
	for _, r := range tr.Requests {
		r := r
		rec.Arrive(r.ID, r.Arrival, r.InputTokens)
		s.At(r.Arrival, func() { eng.Submit(r) })
	}
	s.Run()
	hr := eng.CachePools()[0].Stats().HitRate()
	if hr < 0.25 {
		t.Fatalf("multi-turn cache hit rate %.3f, want ≥0.25", hr)
	}
	sum := rec.Summarize("muxwise", s.Now())
	if sum.Finished != sum.Requests {
		t.Fatalf("finished %d/%d", sum.Finished, sum.Requests)
	}
}

func TestPartitionTimelineRecorded(t *testing.T) {
	tr := workload.ToolAgent(4, 40).WithPoissonArrivals(4, 2)
	res := serve.Run(New, cfg8B(), tr)
	if res.Timeline.Changes() < 3 {
		t.Fatalf("timeline changes = %d, want dynamic repartitioning", res.Timeline.Changes())
	}
	if res.Timeline.DistinctConfigs() < 2 {
		t.Fatalf("distinct configs = %d, want ≥2", res.Timeline.DistinctConfigs())
	}
}

func TestAblationOrdering(t *testing.T) {
	// Fig. 19 mechanism check: disabling query-based synchronization
	// serializes decode behind whole prefill phases, so the worst TBT
	// stall grows to roughly a prefill-phase length, and every variant
	// must still finish its work.
	run := func(o Options) metrics.Summary {
		f := func(env *serve.Env) serve.Engine { return NewWithOptions(env, o) }
		tr := workload.ToolAgent(5, 60).WithPoissonArrivals(5, 2.5)
		res := serve.Run(f, cfg8B(), tr)
		if res.Summary.Unstable {
			t.Fatalf("%s unstable", res.Summary.Name)
		}
		return res.Summary
	}
	full := run(DefaultOptions())
	noB := run(Options{LayerWise: false, QuerySync: true, Preemption: false})
	noBQ := run(Options{LayerWise: false, QuerySync: false, Preemption: false})
	t.Logf("max TBT: full=%.1fms w/oB=%.1fms w/oB&Q=%.1fms",
		full.TBT.Max*1e3, noB.TBT.Max*1e3, noBQ.TBT.Max*1e3)
	if !(noBQ.TBT.Max > noB.TBT.Max*2) {
		t.Errorf("w/o B&Q max stall %.1fms should dwarf w/o B %.1fms",
			noBQ.TBT.Max*1e3, noB.TBT.Max*1e3)
	}
	if full.TBT.Max > noBQ.TBT.Max {
		t.Errorf("full MuxWise max TBT %.1fms worse than w/o B&Q %.1fms",
			full.TBT.Max*1e3, noBQ.TBT.Max*1e3)
	}
}

func TestPreemptionHelpsShortRequests(t *testing.T) {
	// Fig. 20 mechanism: short ShareGPT requests behind LooGLE monsters.
	mix := workload.Mix("mix",
		workload.ShareGPT(6, 60).WithPoissonArrivals(6, 0.25),
		workload.LooGLE(7, 60).WithPoissonArrivals(7, 0.25))
	run := func(o Options) float64 {
		f := func(env *serve.Env) serve.Engine { return NewWithOptions(env, o) }
		res := serve.Run(f, cfg70B(), mix)
		return res.Summary.TTFTPerToken.P99
	}
	with := run(DefaultOptions())
	without := run(Options{LayerWise: true, QuerySync: true, Preemption: false})
	t.Logf("p99 TTFT/token: with=%.3gms without=%.3gms", with*1e3, without*1e3)
	if with*1.5 > without {
		t.Errorf("preemption should improve p99 TTFT/token ≥1.5×: %.3g vs %.3g", with, without)
	}
}

func TestDeterminism(t *testing.T) {
	tr1 := workload.ShareGPT(8, 100).WithPoissonArrivals(8, 5)
	tr2 := workload.ShareGPT(8, 100).WithPoissonArrivals(8, 5)
	a := serve.Run(New, cfg8B(), tr1).Summary
	b := serve.Run(New, cfg8B(), tr2).Summary
	if a.TTFT.P99 != b.TTFT.P99 || a.TBT.P99 != b.TBT.P99 || a.Makespan != b.Makespan {
		t.Fatalf("nondeterministic runs: %+v vs %+v", a.TTFT, b.TTFT)
	}
}

func TestPoolBackpressure(t *testing.T) {
	// A pool-sized flood must queue, not crash, and still finish.
	tr := workload.LooGLE(9, 30).WithPoissonArrivals(9, 3)
	res := serve.Run(New, cfg70B(), tr)
	if res.Summary.Finished != res.Summary.Requests {
		t.Fatalf("finished %d/%d under backpressure", res.Summary.Finished, res.Summary.Requests)
	}
}
