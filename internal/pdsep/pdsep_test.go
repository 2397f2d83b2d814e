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

func cfg70B() serve.Config {
	return serve.Config{
		Spec: gpu.A100(), GPUs: 8, Arch: model.Llama70B(),
		SLO: metrics.SLO{TTFT: sim.Second, TBT: 100 * sim.Millisecond},
	}
}

func TestServesTrace(t *testing.T) {
	tr := workload.ShareGPT(1, 120).WithPoissonArrivals(1, 1)
	res := serve.Run(New, cfg70B(), tr)
	if res.Summary.Finished != 120 {
		t.Fatalf("finished %d/120", res.Summary.Finished)
	}
	if len(res.Devices) != 2 {
		t.Fatalf("devices = %d, want prefill + decode instances", len(res.Devices))
	}
}

// The decode instance statically owns half the GPUs at full SMs, so TBT
// is excellent — the paper notes SGLang-PD beats MuxWise on TBT.
func TestDecodeTBTExcellent(t *testing.T) {
	tr := workload.ToolAgent(2, 100).WithPoissonArrivals(2, 0.3)
	res := serve.Run(New, cfg70B(), tr)
	if att := res.Rec.TBTAttainment(100 * sim.Millisecond); att < 0.99 {
		t.Fatalf("TBT attainment %.3f, want ≥0.99 (static decode reservation)", att)
	}
}

// Multi-turn prefixes hit the prefill instance's radix cache across
// turns — the "KV-cache sharing across requests" the paper credits
// SGLang-PD with (unlike DistServe).
func TestPrefillRadixReuse(t *testing.T) {
	cfg := cfg70B()
	s := sim.New()
	rec := metrics.NewRecorder()
	env := &serve.Env{
		Sim: s, Spec: cfg.Spec, GPUs: cfg.GPUs, Arch: cfg.Arch,
		SLO: cfg.SLO, Rec: rec, ReserveFrac: 0.1, MaxBatch: 256,
	}
	e := New(env).(*Engine)
	tr := workload.Conversation(3, 40).WithPoissonArrivals(3, 0.4)
	for _, r := range tr.Requests {
		r := r
		rec.Arrive(r.ID, r.Arrival, r.InputTokens)
		s.At(r.Arrival, func() { e.Submit(r) })
	}
	s.Run()
	if hr := e.CachePools()[0].Stats().HitRate(); hr < 0.2 {
		t.Fatalf("prefill radix hit rate %.3f, want ≥0.2", hr)
	}
	sum := rec.Summarize("pd", s.Now())
	if sum.Finished != sum.Requests {
		t.Fatalf("finished %d/%d", sum.Finished, sum.Requests)
	}
}

// Static disaggregation leaves the decode instance idle while prefill
// queues: under a prefill-heavy burst, the prefill device works while
// the decode device underutilizes.
func TestStaticSplitIdlesDecode(t *testing.T) {
	tr := workload.LooGLE(4, 40).WithPoissonArrivals(4, 0.5)
	res := serve.Run(New, cfg70B(), tr)
	p, d := res.Devices[0], res.Devices[1]
	if p.ActiveSeconds == 0 {
		t.Fatal("prefill instance never worked")
	}
	// LooGLE outputs ~15 tokens: decode busy time must be a small
	// fraction of prefill busy time.
	if d.ActiveSeconds > p.ActiveSeconds {
		t.Fatalf("decode active %.1fs vs prefill %.1fs — expected idle decode on LooGLE",
			d.ActiveSeconds, p.ActiveSeconds)
	}
}

func TestMigrationDelaysFirstToken(t *testing.T) {
	// A single long request's TTFT must include the NVLink migration of
	// its KV (input 30K tokens × 320KB ≈ 9.6GB / (600GB/s × 4) ≈ 4ms).
	tr := &workload.Trace{Name: "one"}
	r := &workload.Request{
		ID: 0, InputTokens: 30000, OutputTokens: 5,
		Pages:    nil,
		AllPages: nil,
	}
	tr.Requests = append(tr.Requests, r)
	res := serve.Run(New, cfg70B(), tr)
	if res.Summary.Finished != 1 {
		t.Fatalf("finished %d/1", res.Summary.Finished)
	}
	prefillOnly := 30000.0 / 3000 // loose lower bound: ≥1s of prefill
	if res.Summary.TTFT.Avg < prefillOnly*0.2 {
		t.Fatalf("TTFT %.3fs implausibly small for 30K prefill + migration", res.Summary.TTFT.Avg)
	}
}
