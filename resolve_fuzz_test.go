package muxwise

import (
	"testing"

	"muxwise/internal/serve"
)

// FuzzResolve drives deployment and fleet values through
// Experiment.resolve only — nothing is simulated. resolve must never
// panic, and whatever it accepts must be runnable: every base and
// replica shape spans 1 to MaxGPUs devices and leaves a KV pool, and
// both SLO targets are positive. The committed corpus
// (testdata/fuzz/FuzzResolve) holds the negative values resolve used to
// replace or accept silently, and Llama-70B on one A100.
func FuzzResolve(f *testing.F) {
	hardware := []string{"A100", "H100", "H200", "B200", "", "TPU"}
	models := []string{"Llama-8B", "Llama-70B", "Qwen3-235B-A22B", "CodeLlama-34B", "", "GPT-2"}
	pick := func(names []string, i int) string {
		n := len(names)
		return names[(i%n+n)%n]
	}
	f.Fuzz(func(t *testing.T, hw, mdl, gpus int, ttft, tbt int64, fleet bool, count, replicaGPUs, minReps, maxReps int) {
		dep := Deployment{
			Hardware: pick(hardware, hw), Model: pick(models, mdl), GPUs: gpus,
			SLO: SLO{TTFT: Time(ttft), TBT: Time(tbt)},
		}
		opts := []Option{WithDeployment(dep), WithEngine("MuxWise")}
		if fleet {
			opts[1] = WithFleet(ReplicaSpec{Engine: "MuxWise", Count: count, GPUs: replicaGPUs})
			opts = append(opts, WithScaleBounds(minReps, maxReps))
		}
		r, err := NewExperiment(opts...).resolve()
		if err != nil {
			return
		}
		runnable := func(what string, cfg serve.Config) {
			if cfg.GPUs < 1 || cfg.GPUs > MaxGPUs {
				t.Fatalf("%s resolved to %d GPUs, outside [1, %d] (deployment %+v)", what, cfg.GPUs, MaxGPUs, dep)
			}
			if cfg.PoolTokens(cfg.GPUs) <= 0 {
				t.Fatalf("%s resolved to %d %s GPUs with no KV pool (deployment %+v)", what, cfg.GPUs, cfg.Spec.Name, dep)
			}
		}
		base := r.cfg
		if r.isFleet {
			base = r.cluster.Base
			for _, rs := range r.cluster.Replicas {
				runnable("replica shape", rs.Config(base))
			}
		}
		runnable("base", base)
		for _, slo := range []SLO{r.slo, base.SLO} {
			if slo.TTFT <= 0 || slo.TBT <= 0 {
				t.Fatalf("SLO resolved to %+v, want positive targets (deployment %+v)", slo, dep)
			}
		}
	})
}
