package muxwise_test

import (
	"testing"

	"muxwise"
)

// MuxWise's request lifecycle allocates almost nothing per request:
// prefill jobs are recycled through the engine's pool, and in-flight and
// recorder records come from arenas. A first run pays the estimator's
// one-time profiling; after it, a whole run of about 400 ShareGPT
// requests allocates under half an object per request.
func TestMuxWiseRunAllocsPerRequest(t *testing.T) {
	tr := muxwise.ShareGPT(7, 400).WithPoissonArrivals(7, 12)
	exp := muxwise.NewExperiment(
		muxwise.WithDeployment(muxwise.Deployment{Hardware: "A100", GPUs: 1, Model: "Llama-8B"}),
		muxwise.WithEngine("MuxWise"))
	run := func() {
		if _, err := exp.Run(tr); err != nil {
			t.Fatal(err)
		}
	}
	run()
	perReq := testing.AllocsPerRun(3, run) / float64(tr.Len())
	t.Logf("%d requests, %.3f allocations per request", tr.Len(), perReq)
	if perReq > 0.5 {
		t.Fatalf("Experiment.Run allocated %.3f objects per request, want at most 0.5", perReq)
	}
}
