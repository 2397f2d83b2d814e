package experiments

import (
	"muxwise"
	"muxwise/internal/cluster"
	"muxwise/internal/workload"
)

// Routers compares every fleet router policy's goodput on the Fig. 13
// bursty Conversation profile over a heterogeneous A100+H100 MuxWise
// fleet — the instance-assignment layer's analogue of the Fig. 15
// goodput comparison. The searched axis is the burst scale the fleet
// sustains under the §4 criterion; session-affine and learned policies
// beat load-only scoring because multi-turn KV stays where it was
// cached and cold traffic drifts toward the faster replica.
func Routers(o Opts) []Table {
	// Even the quick scale keeps enough sessions to load the two-replica
	// fleet past its SLO wall inside the searched range — lighter traces
	// saturate at hi and the policies become indistinguishable.
	sessions := o.Size(120, 80)
	lo, hi := 2.0, 16.0
	mk := func(scale float64) *workload.Trace {
		return workload.Conversation(17, sessions).
			WithProfileArrivals(17, workload.ConversationProfile(scale))
	}
	t := Table{
		ID:    "routers",
		Title: "router-policy goodput, bursty Conversation (burst scale sustained)",
		Columns: []string{
			"router", "goodput-scale", "vs-least-tokens",
		},
		Notes: []string{
			"fleet: 1×MuxWise/A100 + 1×MuxWise/H100; n/a = floor scale misses the SLO",
		},
	}
	fleet := muxwise.NewExperiment(
		muxwise.WithDeployment(muxwise.Deployment{
			Hardware: "A100", GPUs: 1, Model: "Llama-8B",
			SLO: muxwise.SLO{TTFT: muxwise.Second, TBT: 50 * muxwise.Millisecond},
		}),
		muxwise.WithFleet(
			muxwise.ReplicaSpec{Engine: "MuxWise", Count: 1, Hardware: "A100"},
			muxwise.ReplicaSpec{Engine: "MuxWise", Count: 1, Hardware: "H100"},
		),
		muxwise.WithWorkload(mk),
	)
	goodputs := map[string]float64{}
	// The trailing entry is not a registered policy but an inline EPP
	// composition spec — config-only construction competing in the same
	// sweep as the built-ins, resolved through the same seam the CLI and
	// WithRouter use.
	names := append(cluster.PolicyNames(), "epp:scorers=prefix:2,least-tokens:1")
	for _, name := range names {
		goodputs[name] = goodput(fleet.With(muxwise.WithRouter(name)), lo, hi)
	}
	ref := goodputs[cluster.LeastTokensPolicy]
	for _, name := range names {
		g := goodputs[name]
		switch {
		case g == 0:
			t.Add(name, "n/a", "-")
		case ref > 0:
			t.Addf(name, g, goodputs[name]/ref)
		default:
			t.Addf(name, g, "-")
		}
	}
	return []Table{t}
}
