package experiments

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"muxwise"
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/serve"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// randomTrace builds a randomized workload mixing all generators.
func randomTrace(rng *rand.Rand, seed uint64) *workload.Trace {
	var parts []*workload.Trace
	kinds := rng.IntN(3) + 1
	for i := 0; i < kinds; i++ {
		n := rng.IntN(40) + 10
		rate := 0.2 + rng.Float64()*2
		s := seed + uint64(i)*97
		var tr *workload.Trace
		switch rng.IntN(5) {
		case 0:
			tr = workload.ShareGPT(s, n)
		case 1:
			tr = workload.LooGLE(s, max(n/4, 3))
		case 2:
			tr = workload.OpenThoughts(s, max(n/4, 3))
		case 3:
			tr = workload.Conversation(s, n/2+1)
		default:
			tr = workload.ToolAgent(s, n/2+1)
		}
		parts = append(parts, tr.WithPoissonArrivals(s, rate))
	}
	return workload.Mix("stress", parts...)
}

// Every engine must survive randomized mixed workloads on randomized
// deployments without wedging, leaking pool reservations, or violating
// token conservation — the failure-injection net that caught the
// preempted-zombie deadlock.
func TestStressAllEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("stress matrix skipped in -short mode")
	}
	specs := []gpu.Spec{gpu.A100(), gpu.H100()}
	archs := []model.Arch{model.Llama8B(), model.Llama70B()}
	for _, name := range muxwise.Engines() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(0xBEEF, 0xCAFE))
			for trial := 0; trial < 4; trial++ {
				spec := specs[rng.IntN(len(specs))]
				arch := archs[rng.IntN(len(archs))]
				gpus := []int{1, 2, 4, 8}[rng.IntN(4)]
				if name == "SGLang-PD" && gpus < 2 {
					gpus = 2
				}
				tbt := sim.Time(rng.IntN(120)+40) * sim.Millisecond
				cfg := serve.Config{
					Spec: spec, GPUs: gpus, Arch: arch,
					SLO: metrics.SLO{TTFT: 2 * sim.Second, TBT: tbt},
				}
				if arch.KVPoolTokens(int64(gpus)*spec.HBMCapacity, 0.1) < 200000 {
					continue // model does not fit this deployment
				}
				tr := randomTrace(rng, uint64(trial)*1009+7)
				res, err := engine(cfg, name).Run(tr)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("trial %d (%s %dx%s tbt=%v)", trial, arch.Name, gpus, spec.Name, tbt)

				if res.Summary.Finished != res.Summary.Requests {
					t.Fatalf("%s: finished %d/%d — engine wedged",
						label, res.Summary.Finished, res.Summary.Requests)
				}
				// Token conservation: every output token was emitted.
				var wantTokens int64
				for _, r := range tr.Requests {
					wantTokens += int64(r.OutputTokens)
				}
				if res.Summary.DecodeTokens+int64(res.Summary.Requests) < wantTokens {
					t.Fatalf("%s: decode tokens %d + first tokens < %d outputs",
						label, res.Summary.DecodeTokens, wantTokens)
				}
				if res.Summary.TTFT.N != res.Summary.Requests {
					t.Fatalf("%s: %d TTFT samples for %d requests",
						label, res.Summary.TTFT.N, res.Summary.Requests)
				}
			}
		})
	}
}

// Degenerate workloads must not break any engine.
func TestDegenerateWorkloads(t *testing.T) {
	cfg := serve.Config{
		Spec: gpu.A100(), GPUs: 8, Arch: model.Llama8B(),
		SLO: metrics.SLO{TTFT: sim.Second, TBT: 50 * sim.Millisecond},
	}
	mk := func(input, output, n int) *workload.Trace {
		tr := &workload.Trace{Name: "degenerate"}
		for i := 0; i < n; i++ {
			all := pageSeq(uint64(i), input+output)
			tr.Requests = append(tr.Requests, &workload.Request{
				ID: i, Session: i, Arrival: sim.Time(i) * 10 * sim.Millisecond,
				InputTokens: input, OutputTokens: output,
				Pages:    pageSeq(uint64(i), input),
				AllPages: all,
				Segments: workload.PageSegments(all),
			})
		}
		return tr
	}
	cases := []struct {
		name  string
		trace *workload.Trace
	}{
		{"one-token-everything", mk(1, 1, 20)},
		{"single-output", mk(512, 1, 20)},
		{"giant-context", mk(120000, 3, 3)},
		{"many-tiny", mk(4, 4, 200)},
	}
	for _, name := range muxwise.Engines() {
		for _, c := range cases {
			res, err := engine(cfg, name).Run(c.trace)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.name, err)
			}
			if res.Summary.Finished != res.Summary.Requests {
				t.Errorf("%s/%s: finished %d/%d", name, c.name,
					res.Summary.Finished, res.Summary.Requests)
			}
		}
	}
}

func pageSeq(stream uint64, tokens int) []kvcache.PageID {
	n := (tokens + 15) / 16
	out := make([]kvcache.PageID, n)
	for i := range out {
		out[i] = kvcache.PageID(stream<<32 | uint64(i))
	}
	return out
}
