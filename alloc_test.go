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

// A fleet's KV migrations and its event log allocate nothing per
// stream: stream records are recycled through a pool, landings are
// bound events and log entries keep typed fields. A three-replica MuxWise fleet with
// migration, a backlog autoscaler and a drain mid-run, on about 270
// bursty multi-turn requests, starts some 60 KV streams.
func TestFleetRunAllocsPerRequest(t *testing.T) {
	tr := muxwise.MixedBursty(7, 60, 2)
	drainAt := tr.Requests[tr.Len()-1].Arrival * 2 / 5
	exp := muxwise.NewExperiment(
		muxwise.WithDeployment(muxwise.Deployment{Hardware: "A100", GPUs: 1, Model: "Llama-8B"}),
		muxwise.WithFleet(muxwise.ReplicaSpec{Engine: "MuxWise", Count: 3}),
		muxwise.WithEvents(muxwise.FleetEvent{At: drainAt, Kind: "drain", Replica: 0}),
		muxwise.WithAutoscaler("backlog"),
		muxwise.WithScaleBounds(2, 5),
		muxwise.WithMigration())
	var streams int
	run := func() {
		rep, err := exp.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		streams = rep.Fleet.Migration.Streams
	}
	run()
	perReq := testing.AllocsPerRun(3, run) / float64(tr.Len())
	t.Logf("%d requests, %d KV streams, %.3f allocations per request", tr.Len(), streams, perReq)
	if streams == 0 {
		t.Fatal("the fleet run started no KV streams")
	}
	if perReq > 5.5 {
		t.Fatalf("a fleet run allocated %.3f objects per request, want at most 5.5", perReq)
	}
}
