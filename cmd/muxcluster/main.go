// Command muxcluster simulates a replica fleet behind a request router
// and prints fleet-wide plus per-replica metrics.
//
//	muxcluster -replicas 4xMuxWise -router prefix-affinity -workload mixed -scale 0.2
//	muxcluster -replicas 6xMuxWise,2xSGLang-PD:prefill@2 -router all -json
//	muxcluster -scenario failure -fail-at 1m
//	muxcluster -scenario autoscale -min-replicas 1 -max-replicas 6
//	muxcluster -scenario hetero
//	muxcluster -replicas 1xMuxWise/A100,1xMuxWise/H100 -router all \
//	           -workload conversation -goodput 2:16
//
// The -replicas grammar is COUNTxENGINE[:ROLE][@GPUS][/HW],
// comma-separated: "2xSGLang-PD:prefill@2/H100" runs two SGLang-PD
// replicas tagged prefill-heavy with 2 H100s each. -router all compares
// every policy on the same trace. -router also accepts an inline
// "epp:" composition spec assembling a filter → scorer → picker
// pipeline from config:
//
//	muxcluster -router "epp:scorers=prefix:2,least-tokens:1"
//
// Scenarios exercise the lifecycle-managed fleet: "failure" crashes
// replica 0 mid-run (in-flight and sticky-session requests re-route and
// pay a KV re-prefill on their new replicas), "drain" rolls replica 0
// out gracefully behind a pre-spawned replacement, "autoscale" grows
// the fleet from -min-replicas on backlog pressure, and "hetero" runs a
// mixed A100+H100 fleet so each shape is costed by its own hardware
// model. Fleet runs print a lifecycle log and a per-epoch rollup table.
//
// -migration streams session KV off gracefully leaving replicas (drain,
// autoscale scale-in, retire) to the replica their traffic re-routes
// to, at the modeled NVLink/PCIe cost, instead of charging a full KV
// re-prefill — compare:
//
//	muxcluster -scenario drain -drain-at 1m
//	muxcluster -scenario drain -drain-at 1m -migration
//
// -cost-model roofline swaps the offline-profiled fitted estimator for
// the analytical roofline model (docs/roofline.md), which prices any
// model on any GPU spec — including shapes no profile exists for:
//
//	muxcluster -replicas 2xMuxWise/B200 -model Llama-70B -cost-model roofline
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"muxwise"
	"muxwise/internal/gpu"
)

// replicasGrammar documents the accepted -replicas syntax; it is printed
// whenever the spec fails to parse.
var replicasGrammar = fmt.Sprintf(`accepted -replicas grammar (comma-separated shapes):
  COUNTxENGINE[:ROLE][@GPUS][/HW]
    COUNT   replicas of this shape (positive integer; "x" separator);
            the whole fleet holds at most %d replicas
    ENGINE  one of the engine names below
    ROLE    general (default), prefill, or decode
    GPUS    devices per replica (integer from 1 to %d)
    HW      A100 (default), H100, H200, or B200
  examples:
    4xMuxWise
    6xMuxWise,2xSGLang-PD:prefill@2
    2xMuxWise/A100,2xMuxWise/H100`, muxwise.MaxReplicas, muxwise.MaxGPUs)

// parseReplicas validates the full spec eagerly — engine names, roles,
// hardware and counts — so a typo fails before any simulation runs.
func parseReplicas(spec string) ([]muxwise.ReplicaSpec, error) {
	known := muxwise.Engines()
	var out []muxwise.ReplicaSpec
	total := 0
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rs := muxwise.ReplicaSpec{Count: 1}
		if slash := strings.SplitN(part, "/", 2); len(slash) == 2 {
			rs.Hardware = slash[1]
			part = slash[0]
		}
		if at := strings.SplitN(part, "@", 2); len(at) == 2 {
			g, err := strconv.Atoi(at[1])
			if err != nil || g < 1 || g > muxwise.MaxGPUs {
				return nil, fmt.Errorf("bad gpu count %q in %q (want 1 to %d)", at[1], part, muxwise.MaxGPUs)
			}
			rs.GPUs = g
			part = at[0]
		}
		if colon := strings.SplitN(part, ":", 2); len(colon) == 2 {
			rs.Role = colon[1]
			part = colon[0]
		}
		if x := strings.SplitN(part, "x", 2); len(x) == 2 {
			if n, err := strconv.Atoi(x[0]); err == nil {
				if n < 1 {
					return nil, fmt.Errorf("replica count must be ≥ 1 in %q", part)
				}
				rs.Count = n
				part = x[1]
			}
		}
		rs.Engine = part
		if !slices.Contains(known, rs.Engine) {
			return nil, fmt.Errorf("unknown engine %q (have %s)", rs.Engine, strings.Join(known, ", "))
		}
		switch rs.Role {
		case "", "general", "prefill", "decode":
		default:
			return nil, fmt.Errorf("unknown role %q in %q (want general, prefill, or decode)", rs.Role, spec)
		}
		if rs.Hardware != "" {
			if _, ok := gpu.SpecByName(rs.Hardware); !ok {
				return nil, fmt.Errorf("unknown hardware %q in %q (want A100, H100, H200, or B200)", rs.Hardware, spec)
			}
		}
		if rs.Count > muxwise.MaxReplicas-total {
			return nil, fmt.Errorf("fleet of more than %d replicas in %q", muxwise.MaxReplicas, spec)
		}
		total += rs.Count
		out = append(out, rs)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no replicas in %q", spec)
	}
	return out, nil
}

func buildTrace(wl string, seed uint64, n int, scale, rate float64) (*muxwise.Trace, error) {
	switch strings.ToLower(wl) {
	case "mixed":
		return muxwise.MixedBursty(seed, n, scale), nil
	case "conversation":
		return muxwise.Conversation(seed, n).
			WithProfileArrivals(seed, muxwise.ConversationProfile(scale)), nil
	case "toolagent":
		return muxwise.ToolAgent(seed, n).
			WithProfileArrivals(seed, muxwise.ToolAgentProfile(scale)), nil
	case "sharegpt":
		return muxwise.ShareGPT(seed, n).WithPoissonArrivals(seed, rate), nil
	case "loogle":
		return muxwise.LooGLE(seed, n).WithPoissonArrivals(seed, rate), nil
	case "openthoughts":
		return muxwise.OpenThoughts(seed, n).WithPoissonArrivals(seed, rate), nil
	}
	return nil, fmt.Errorf("unknown workload %q", wl)
}

// scenarioOpts carries the scenario flags.
type scenarioOpts struct {
	name       string
	failAt     time.Duration
	drainAt    time.Duration
	minReps    int
	maxReps    int
	coldStart  time.Duration
	autoscaler string
	migration  bool
}

// scenarioOptions returns the fleet options for the requested scenario:
// the replica shapes (specs, adjusted by the scenario) and the lifecycle
// options. hw is the deployment's default hardware.
func scenarioOptions(hw string, specs []muxwise.ReplicaSpec, specFlagSet bool, o scenarioOpts) ([]muxwise.Option, error) {
	if o.coldStart <= 0 {
		return nil, fmt.Errorf("-cold-start %v must be positive", o.coldStart)
	}
	replicas := append([]muxwise.ReplicaSpec(nil), specs...)
	var opts []muxwise.Option
	switch o.name {
	case "":
	case "failure":
		opts = append(opts, muxwise.WithEvents(
			muxwise.FleetEvent{At: muxwise.FromDuration(o.failAt), Kind: "fail", Replica: 0},
		))
	case "drain":
		// A rolling drain: a replacement of the first shape spawns so it
		// is ready ahead of the drain, then replica 0 leaves gracefully.
		// With -migration its session KV streams to the re-routed
		// replicas; without, their next turns repay a full re-prefill.
		spawnAt := o.drainAt - o.coldStart - 2*time.Second
		if spawnAt < 0 {
			spawnAt = 0
		}
		opts = append(opts,
			muxwise.WithColdStart(muxwise.FromDuration(o.coldStart)),
			muxwise.WithEvents(
				muxwise.FleetEvent{At: muxwise.FromDuration(spawnAt), Kind: "spawn"},
				muxwise.FleetEvent{At: muxwise.FromDuration(o.drainAt), Kind: "drain", Replica: 0},
			),
		)
	case "autoscale":
		if len(replicas) > 1 {
			return nil, fmt.Errorf("scenario autoscale wants a single replica shape, got %d", len(replicas))
		}
		replicas[0].Count = o.minReps
		opts = append(opts,
			muxwise.WithAutoscaler(o.autoscaler),
			muxwise.WithScaleBounds(o.minReps, o.maxReps),
			muxwise.WithColdStart(muxwise.FromDuration(o.coldStart)),
		)
	case "hetero":
		if !specFlagSet {
			replicas = []muxwise.ReplicaSpec{
				{Engine: "MuxWise", Count: 2, Hardware: "A100"},
				{Engine: "MuxWise", Count: 2, Hardware: "H100"},
			}
		}
		shapes := map[string]bool{}
		for _, rs := range replicas {
			shape := rs.Hardware
			if shape == "" {
				shape = hw
			}
			shapes[strings.ToUpper(shape)] = true
		}
		if len(shapes) < 2 {
			return nil, fmt.Errorf("scenario hetero wants mixed hardware; tag shapes with /A100, /H100 or /H200")
		}
	default:
		return nil, fmt.Errorf("unknown scenario %q (want autoscale, drain, failure, or hetero)", o.name)
	}
	if o.migration {
		opts = append(opts, muxwise.WithMigration())
	}
	return append(opts, muxwise.WithFleet(replicas...)), nil
}

// routerRow is the JSON record for one router's fleet run.
type routerRow struct {
	Router     string
	Requests   int
	Finished   int
	P99TTFT    float64 // seconds
	P99TBT     float64 // seconds
	Attainment float64
	CacheHit   float64
	MeanUtil   float64
	Unstable   bool
	Failures   int `json:",omitempty"`
	Unrouted   int `json:",omitempty"`
	// MissCauses attributes every SLO miss of the run to a cause.
	MissCauses muxwise.MissBreakdown
	// Migration accounting (KV streamed on graceful takedowns).
	MigratedKVTokens   int64   `json:",omitempty"`
	MigrationStreams   int     `json:",omitempty"`
	MigrationStallSecs float64 `json:",omitempty"`
	RePrefillKVTokens  int64   `json:",omitempty"`
	Replicas           []replicaRow
	Epochs             []epochRow `json:",omitempty"`
	Events             []string   `json:",omitempty"`
}

type replicaRow struct {
	Name     string
	Role     string
	Hardware string
	State    string
	Requests int
	CacheHit float64
}

type epochRow struct {
	From, To   float64 // seconds
	Label      string
	Ready      int
	Arrivals   int
	P99TTFT    float64 // seconds
	P99TBT     float64 // seconds
	Attainment float64
	CacheHit   float64
}

func rowOf(name string, res muxwise.ClusterResult, tbtSLO muxwise.Time) routerRow {
	row := routerRow{
		Router:     name,
		Requests:   res.Summary.Requests,
		Finished:   res.Summary.Finished,
		P99TTFT:    res.Summary.TTFT.P99,
		P99TBT:     res.Summary.TBT.P99,
		Attainment: res.Rec.TBTAttainment(tbtSLO),
		CacheHit:   res.CacheHit,
		MeanUtil:   res.MeanUtil(),
		Unstable:   res.Summary.Unstable,
		Failures:   res.Failures,
		Unrouted:   res.Unrouted,
		MissCauses: res.Diagnostics,

		MigratedKVTokens:   res.Migration.MigratedTokens,
		MigrationStreams:   res.Migration.Streams,
		MigrationStallSecs: res.Migration.Stall.Seconds(),
		RePrefillKVTokens:  res.Migration.RePrefillTokens + res.Migration.CanceledTokens,
	}
	for _, rep := range res.Replicas {
		row.Replicas = append(row.Replicas, replicaRow{
			Name: rep.Name, Role: rep.Role.String(), Hardware: rep.Hardware,
			State: rep.State.String(), Requests: rep.Requests, CacheHit: rep.CacheHit,
		})
	}
	for _, ep := range res.Epochs {
		row.Epochs = append(row.Epochs, epochRow{
			From: ep.From.Seconds(), To: ep.To.Seconds(),
			Label: ep.Label, Ready: ep.Ready, Arrivals: ep.Window.Arrivals,
			P99TTFT: ep.Window.TTFT.P99, P99TBT: ep.Window.TBT.P99,
			Attainment: ep.Attainment, CacheHit: ep.CacheHit,
		})
	}
	for _, ev := range res.Events {
		row.Events = append(row.Events, fmt.Sprintf("%v %s", ev.At, ev.Msg))
	}
	return row
}

// writeTrace exports the flight recorder to the requested files.
func writeTrace(fr *muxwise.FlightRecorder, chromePath, jsonlPath string) error {
	write := func(path string, fn func(*os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "muxcluster: wrote %d trace events to %s\n", fr.Len(), path)
		return nil
	}
	if chromePath != "" {
		if err := write(chromePath, func(f *os.File) error {
			return muxwise.WriteChromeTrace(f, fr)
		}); err != nil {
			return err
		}
	}
	if jsonlPath != "" {
		if err := write(jsonlPath, func(f *os.File) error {
			return muxwise.WriteTraceJSONL(f, fr)
		}); err != nil {
			return err
		}
	}
	return nil
}

// goodputRow is the JSON record for one router's goodput search.
type goodputRow struct {
	Router   string
	Goodput  float64
	Feasible bool
}

// runGoodput searches the highest sustainable load per router on the
// base experiment — rate for Poisson workloads, Fig. 13 burst scale for
// profile workloads — and prints one row per policy (JSON with -json).
func runGoodput(rng string, routers []string, base *muxwise.Experiment,
	wl string, seed uint64, n int, asJSON bool) error {
	loS, hiS, ok := strings.Cut(rng, ":")
	if !ok {
		return fmt.Errorf("bad -goodput range %q (want LO:HI)", rng)
	}
	lo, err1 := strconv.ParseFloat(loS, 64)
	hi, err2 := strconv.ParseFloat(hiS, 64)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("bad -goodput range %q (want LO:HI)", rng)
	}
	var rows []goodputRow
	if !asJSON {
		fmt.Printf("searching goodput in [%g, %g] on %s…\n", lo, hi, wl)
		fmt.Printf("%-16s %10s\n", "router", "goodput")
	}
	for _, name := range routers {
		g, err := base.With(
			muxwise.WithRouter(name),
			// The parameter doubles as Poisson rate and profile scale:
			// buildTrace reads whichever slot the workload uses.
			muxwise.WithWorkload(func(x float64) *muxwise.Trace {
				t, err := buildTrace(wl, seed, n, x, x)
				if err != nil {
					panic(err)
				}
				return t
			}),
		).Goodput(lo, hi)
		switch {
		case errors.Is(err, muxwise.ErrNoFeasibleRate):
			rows = append(rows, goodputRow{Router: name})
			if !asJSON {
				fmt.Printf("%-16s %10s\n", name, "n/a (floor rate misses the SLO)")
			}
		case err != nil:
			return err
		default:
			rows = append(rows, goodputRow{Router: name, Goodput: g, Feasible: true})
			if !asJSON {
				fmt.Printf("%-16s %10.3f\n", name, g)
			}
		}
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	return nil
}

func main() {
	replicas := flag.String("replicas", "4xMuxWise", "fleet spec: COUNTxENGINE[:ROLE][@GPUS][/HW],...")
	router := flag.String("router", "prefix-affinity",
		"router policy ("+strings.Join(muxwise.RouterPolicies(), ", ")+"), 'all', or an inline 'epp:' composition spec")
	scenario := flag.String("scenario", "", "fleet scenario: autoscale, drain, failure, or hetero")
	failAt := flag.Duration("fail-at", time.Minute, "failure scenario: when replica 0 crashes")
	drainAt := flag.Duration("drain-at", time.Minute, "drain scenario: when replica 0 drains (its replacement spawns ahead)")
	migration := flag.Bool("migration", false,
		"stream session KV off gracefully leaving replicas at the modeled NVLink/PCIe cost instead of re-prefilling")
	minReps := flag.Int("min-replicas", 1, "autoscale scenario: starting and minimum fleet size")
	maxReps := flag.Int("max-replicas", 8, "autoscale scenario: maximum fleet size")
	coldStart := flag.Duration("cold-start", 15*time.Second,
		"autoscale/drain scenarios: spawn-to-ready delay, positive (drain places the replacement spawn this far ahead)")
	autoscaler := flag.String("autoscaler", "backlog",
		"autoscale scenario policy ("+strings.Join(muxwise.AutoscalerPolicies(), ", ")+")")
	mdl := flag.String("model", "Llama-8B", "model name")
	hw := flag.String("hw", "A100", "hardware: A100, H100, H200, B200")
	costModel := flag.String("cost-model", "",
		"step-time estimator: "+strings.Join(muxwise.CostModels(), " or ")+
			" (default fitted; roofline covers any model on any GPU, e.g. -hw B200)")
	gpus := flag.Int("gpus", 1, "GPUs per replica (overridable per shape with @N)")
	wl := flag.String("workload", "mixed", "workload: mixed, conversation, toolagent, sharegpt, loogle, openthoughts")
	n := flag.Int("n", 120, "sessions (multi-turn) or requests (single-turn) per trace")
	scale := flag.Float64("scale", 0.2, "Fig. 13 profile scale (profile workloads)")
	rate := flag.Float64("rate", 2, "Poisson rate, req/s (single-turn workloads)")
	seed := flag.Uint64("seed", 1, "random seed")
	ttft := flag.Duration("ttft", time.Second, "TTFT SLO")
	tbt := flag.Duration("tbt", 50*time.Millisecond, "TBT SLO")
	goodput := flag.String("goodput", "",
		"search fleet goodput over LO:HI instead of one run (req/s for Poisson workloads, burst scale for profile workloads)")
	asJSON := flag.Bool("json", false, "emit results as JSON")
	traceOut := flag.String("trace", "",
		"write a flight-recorder trace of the run as Chrome trace-event JSON (open in Perfetto or chrome://tracing)")
	traceJSONL := flag.String("trace-jsonl", "", "also write the flight-recorder trace as JSONL")
	flag.Parse()

	specs, err := parseReplicas(*replicas)
	if err != nil {
		fmt.Fprintf(os.Stderr, "muxcluster: %v\n\n%s\n", err, replicasGrammar)
		os.Exit(2)
	}

	routers := []string{*router}
	if *router == "all" {
		routers = muxwise.RouterPolicies()
	}

	slo := muxwise.SLO{TTFT: muxwise.FromDuration(*ttft), TBT: muxwise.FromDuration(*tbt)}
	specFlagSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "replicas" {
			specFlagSet = true
		}
	})

	// The flight recorder records exactly one replayed run, so tracing is
	// incompatible with goodput search (many probe runs) and with
	// -router all (one run per policy).
	var fr *muxwise.FlightRecorder
	if *traceOut != "" || *traceJSONL != "" {
		switch {
		case *goodput != "":
			fmt.Fprintln(os.Stderr, "muxcluster: -trace records a single run; drop -goodput")
			os.Exit(2)
		case len(routers) != 1:
			fmt.Fprintln(os.Stderr, "muxcluster: -trace records a single run; pick one router, not 'all'")
			os.Exit(2)
		}
		fr = muxwise.NewFlightRecorder()
	}

	opts, err := scenarioOptions(*hw, specs, specFlagSet, scenarioOpts{
		name: *scenario, failAt: *failAt, drainAt: *drainAt, minReps: *minReps, maxReps: *maxReps,
		coldStart: *coldStart, autoscaler: *autoscaler, migration: *migration,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "muxcluster:", err)
		os.Exit(2)
	}
	opts = append(opts, muxwise.WithDeployment(muxwise.Deployment{Hardware: *hw, GPUs: *gpus, Model: *mdl, SLO: slo}))
	if *costModel != "" {
		opts = append(opts, muxwise.WithCostModel(*costModel))
	}
	if fr != nil {
		opts = append(opts, muxwise.WithTrace(fr))
	}
	base := muxwise.NewExperiment(opts...)

	if *goodput != "" {
		// Goodput mode builds its own traces per probe; the single
		// default trace below is never used.
		if err := runGoodput(*goodput, routers, base, *wl, *seed, *n, *asJSON); err != nil {
			fmt.Fprintln(os.Stderr, "muxcluster:", err)
			os.Exit(1)
		}
		return
	}

	trace, err := buildTrace(*wl, *seed, *n, *scale, *rate)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var rows []routerRow
	for _, name := range routers {
		report, err := base.With(muxwise.WithRouter(name)).Run(trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rows = append(rows, rowOf(name, *report.Fleet, slo.TBT))
	}

	if fr != nil {
		if err := writeTrace(fr, *traceOut, *traceJSONL); err != nil {
			fmt.Fprintln(os.Stderr, "muxcluster:", err)
			os.Exit(1)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	what := *replicas
	if *scenario != "" {
		what += " scenario=" + *scenario
	}
	fmt.Printf("fleet %s on %s (%s, %d reqs)\n\n", what, *wl, *mdl, trace.Len())
	fmt.Printf("%-16s %9s %9s %8s %8s %7s %6s\n",
		"router", "p99TTFT", "p99TBT", "attain%", "cache%", "util%", "state")
	for _, r := range rows {
		state := "stable"
		if r.Unstable {
			state = "UNSTABLE"
		}
		fmt.Printf("%-16s %8.2fs %7.1fms %8.1f %8.1f %7.1f %6s\n",
			r.Router, r.P99TTFT, r.P99TBT*1e3,
			r.Attainment*100, r.CacheHit*100, r.MeanUtil*100, state)
	}
	if len(rows) != 1 {
		return
	}
	row := rows[0]
	fmt.Printf("\nper-replica (router %s):\n", row.Router)
	for _, rep := range row.Replicas {
		fmt.Printf("  %-16s %-8s %-9s %-8s %5d reqs  cache %5.1f%%\n",
			rep.Name, rep.Role, rep.Hardware, rep.State, rep.Requests, rep.CacheHit*100)
	}
	if row.MigrationStreams > 0 || row.RePrefillKVTokens > 0 {
		fmt.Printf("\nkv migration: %d streams, %d tokens delivered, %.1f ms stall, %d tokens re-prefilled\n",
			row.MigrationStreams, row.MigratedKVTokens, row.MigrationStallSecs*1e3, row.RePrefillKVTokens)
	}
	if row.MissCauses.Misses > 0 {
		fmt.Printf("\nslo misses: %s\n", row.MissCauses.String())
	}
	if len(row.Events) > 0 {
		fmt.Println("\nfleet events:")
		for _, ev := range row.Events {
			fmt.Printf("  %s\n", ev)
		}
	}
	if len(row.Epochs) > 0 {
		fmt.Println("\nepochs:")
		fmt.Printf("  %-22s %10s %6s %6s %9s %9s %8s %7s\n",
			"epoch", "span", "ready", "arriv", "p99TTFT", "p99TBT", "attain%", "cache%")
		for _, ep := range row.Epochs {
			fmt.Printf("  %-22s %4.0fs-%4.0fs %6d %6d %8.2fs %7.1fms %8.1f %7.1f\n",
				ep.Label, ep.From, ep.To, ep.Ready, ep.Arrivals,
				ep.P99TTFT, ep.P99TBT*1e3, ep.Attainment*100, ep.CacheHit*100)
		}
	}
}
