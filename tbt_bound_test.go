package muxwise

import (
	"testing"

	"muxwise/internal/serve"
	"muxwise/internal/sim"
)

// tbtBound is the most TBT gaps trace's requests can log: one per output
// token after each request's first.
func tbtBound(trace *Trace) int {
	n := 0
	for _, r := range trace.Requests {
		n += max(r.OutputTokens-1, 0)
	}
	return n
}

// checkTBTBound requires the summary's TBT sample count to be at most
// the trace's bound, and equal to it when every request finished.
func checkTBTBound(t *testing.T, what string, s Summary, trace *Trace) {
	t.Helper()
	bound := tbtBound(trace)
	if s.TBT.N > bound {
		t.Fatalf("%s: %d TBT samples, more than the trace's %d", what, s.TBT.N, bound)
	}
	if s.Finished == trace.Len() && s.TBT.N != bound {
		t.Fatalf("%s: all %d requests finished with %d TBT samples, want %d", what, s.Finished, s.TBT.N, bound)
	}
}

// A trace fixes an upper bound on a run's TBT samples in advance, one
// per output token after each request's first, and a run that finishes
// every request reaches it exactly. It holds for every engine under both
// cost models, for an overloaded engine cut off with requests still
// queued and decoding, and for a fleet whose failed replica's requests
// are aborted and re-dispatched.
func TestTBTSamplesBoundedByTrace(t *testing.T) {
	dep := Deployment{Hardware: "A100", GPUs: 8, Model: "Llama-70B"}
	trace := Conversation(3, 40)
	for _, cost := range CostModels() {
		for _, engine := range Engines() {
			rep, err := NewExperiment(WithDeployment(dep), WithEngine(engine), WithCostModel(cost)).Run(trace)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Summary.Finished != trace.Len() {
				t.Fatalf("%s/%s: %d of %d requests finished", engine, cost, rep.Summary.Finished, trace.Len())
			}
			checkTBTBound(t, engine+"/"+cost, rep.Summary, trace)
		}
	}

	// ShareGPT at 40 req/s overloads one A100; summarized at the last
	// arrival, many requests are queued or mid-decode.
	over := ShareGPT(5, 400).WithPoissonArrivals(5, 40)
	r, err := NewExperiment(WithDeployment(Deployment{Hardware: "A100", GPUs: 1, Model: "Llama-8B"}),
		WithEngine("MuxWise")).resolve()
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	inst := serve.NewInstance(s, r.factory, r.cfg, "")
	serve.ScheduleArrivals(s, over.Requests, inst.Submit)
	s.RunUntil(serve.LastArrival(over.Requests))
	sum := inst.Result(s.Now()).Summary
	if sum.Finished >= sum.Requests/2 {
		t.Fatalf("overloaded run finished %d of %d requests; want most unfinished", sum.Finished, sum.Requests)
	}
	checkTBTBound(t, "overloaded", sum, over)

	exp, chaos := fleetChaosExperiment()
	rep, err := exp.Run(chaos)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fleet.Failures != 1 {
		t.Fatalf("chaos fleet saw %d failures, want its scheduled one", rep.Fleet.Failures)
	}
	checkTBTBound(t, "chaos fleet", rep.Summary, chaos)
}
