// Command muxperf is the repository's benchmark. It measures the
// simulator the two ways its users see it: the simulated outcome a run
// reports (goodput per GPU, time to first token, time between tokens),
// and what producing that outcome costs the host (wall time per
// simulated request, allocations, memory, set-up). A separate traced
// pass breaks the host cost down by layer of the stack.
//
// # Running
//
// From the repository root,
//
//	bash muxperf/run.sh --workload sharegpt-engine --seed 1 --seconds 10 --trace 0
//
// builds the benchmark under .bench_build/ and runs one workload:
//
//   - --trace 0 is the measured pass. It prints every end-to-end metric
//     by name and unit, the probe wall-time percentiles with their sample
//     count, the share of probes that failed, and a SHA-256 digest of
//     every probe's Summary and miss causes; two runs of one commit with
//     one seed print the same digest.
//   - --trace 1 is the traced pass. It prints every per-layer metric and
//     writes the benchmark's own host-time spans (probe → Experiment.Run,
//     rollup, each replay) as Chrome trace JSON to --spans.
//   - --workload all runs every workload, each in its own process, so
//     peak_rss_mb stays per workload.
//
// The last line of output is one JSON object with the keys correct,
// attempted, failed and metrics. A probe that returns an error or fails
// a check makes correct false and the exit code 1.
//
// # Load shape
//
// A probe is one muxwise.Experiment.Run. Probes run back to back on one
// goroutine with GOMAXPROCS 1: a closed loop with a single client. Run
// length is a probe count, --seconds × 10 rounded up to whole passes over
// the workload's variants, never a duration, so two commits do identical
// work. Ten seconds gives 100 to 105 probes, enough for a p90 with ten
// samples beyond it. Each probe's input is generated from --seed just
// before the probe, outside its timer. Inside a probe the simulated load
// is open-loop — Poisson or Fig. 13 burst-profile arrivals — and TTFT
// counts from each request's scheduled arrival, so simulated queueing is
// included; arrivals are in simulated time, so the generator cannot run
// late. Sweep and Goodput, which fan out over goroutines, are never
// called.
//
// # Workloads
//
// The names are fixed; later changes cite them. Probe i of a run takes
// variant i mod (number of variants) and trace seed ⌊i / variants⌋.
//
//	sharegpt-engine         One MuxWise engine, 1×A100, Llama-8B, fitted cost
//	                        model. ShareGPT, 1000 requests per probe, Poisson
//	                        rates 8, 12, 16 and 20 req/s.
//	                        Short prompts, long decodes, no prefix reuse: the
//	                        event loop, GPU model, fitted estimator and metrics
//	                        recorder do the work; router, prefix hits and
//	                        roofline sit idle. The rates straddle the TTFT knee.
//	loogle-roofline         One MuxWise engine, 2×H100, Llama-8B, roofline cost
//	                        model. LooGLE, 200 requests per probe, rates 0.5, 1
//	                        and 2 req/s.
//	                        ~30k-token prompts are prefill- and TTFT-bound and
//	                        overflow the KV pool many times over, so kvcache
//	                        insert and evict dominate and admission queues; the
//	                        fitted estimator and router are bypassed. The
//	                        roofline side of the cost-model pair. Two GPUs keep
//	                        the pool's radix tree small enough that its host
//	                        time does not swing with the machine's cache load.
//	bursty-fleet            Three MuxWise replicas, 1×A100 each, Llama-8B, the
//	                        default prefix-affinity router, the backlog
//	                        autoscaler bounded 2..5, and a replacement spawned
//	                        while replica 0 drains with KV migration at 40% of
//	                        the arrival span. MixedBursty with 60 sessions per
//	                        workload at burst scales 1, 2 and 4.
//	                        Multi-turn sessions reuse much of their context:
//	                        router picks, kvcache prefix matches, KV migration
//	                        and fleet ticks do the work. The engine layers are
//	                        those of sharegpt-engine.
//	conversation-baselines  Each of the seven engines (muxwise.Engines()),
//	                        8×A100, Llama-70B, on the Fig. 14 Conversation trace
//	                        (150 sessions, burst profile scale 0.3).
//	                        The only workload where Chunked, NanoFlow,
//	                        LoongServe, SGLang-PD, WindServe and Temporal run:
//	                        a change to shared serving plumbing shows here; a
//	                        MuxWise-only change predicts no change here.
//
// # End-to-end metrics
//
// [host] metrics measure the simulator process, [sim] metrics the
// simulated outcome; [sim] metrics are model outputs, guarded for
// fidelity by the frontier goldens and the roofline agreement tests, and
// this benchmark does not validate them against hardware.
//
//	sim_req_per_s    [host] simulated requests / Σ probe wall time
//	probe_ms_p50     [host] median probe wall time
//	probe_ms_p90     [host] p90 probe wall time (the highest percentile 100
//	                 probes support)
//	allocs_per_req   [host] heap allocations inside Run per request
//	bytes_per_req    [host] heap bytes allocated inside Run per request
//	peak_rss_mb      [host] the process's resident-set high-water mark
//	setup_s          [host] process start to the first measured probe:
//	                 runtime start, the first input and one warm-up probe,
//	                 which pays the fitted estimator's one-time profiling;
//	                 the median of seven fresh child processes
//	goodput_per_gpu  [sim] Σ requests within SLO / Σ GPU-seconds provisioned
//	                 over each probe's arrival span; fleet replicas count
//	                 from readiness until they go down, as the frontier does
//	ttft_p50_ms      [sim] median TTFT at base load
//	tbt_p50_ms       [sim] median TBT at base load
//	tbt_p99_ms       [sim] p99 TBT at base load
//
// Base load is the workload's first variant — 8 req/s, 0.5 req/s, burst
// scale 1, the MuxWise engine — and its latency quantiles pool every
// sample of that variant's probes. Latency at the heavier variants, and
// TTFT tails at any load, swing by 10–50% from one seed's probe set to
// the next on the bursty workloads, more than any bound can absorb;
// goodput_per_gpu pools every probe and counts each request against both
// SLOs, so it carries them.
//
// Host times are reported in reference time. On a shared machine the
// same probe's wall time drifts by tens of percent over minutes as
// neighbours contend for caches and memory bandwidth. Before each probe
// the benchmark collects garbage and times a fixed calibration kernel —
// a small event loop of its own, sharing no code with the simulator —
// and scales the probe's wall time by the kernel's nominal time over its
// measured time. A reference millisecond is a millisecond on the quiet
// host the nominal time was taken on.
//
// # Checks
//
// A probe fails when Run returns an error or its report breaks a
// conservation identity: offered − MissCauses.Misses must equal the
// recorder's WithinSLO count; the event loop's Scheduled − Fired −
// Canceled must lie in [0, MaxPending]; and on fleets DrainKVTokens must
// equal migrated + canceled + re-prefilled + undelivered tokens. The
// traced pass also fails a probe whose traced Summary differs from its
// untraced repeat.
//
// # Per-layer metrics
//
// The traced pass re-runs the first 10 probes with a flight recorder,
// alternating which of the traced and untraced run goes first; the [sim]
// layer counts and obs.* come from these. It then CPU-profiles 30
// untraced probes and runs the layer replays, which time calls into one
// layer's exported API with shapes taken from the traced probes. Each
// metric below names the end-to-end metric it should move, and where.
//
//	workload.gen_ms_per_probe           → setup_s; largest on loogle-roofline
//	sim.events_per_req, sim.cancel_frac,
//	sim.max_pending, sim.ns_per_event   → sim_req_per_s on sharegpt-engine
//	                                      and conversation-baselines
//	gpu.kernels_per_req, gpu.launch_frac,
//	gpu.ns_per_kernel                   → sim_req_per_s on conversation-
//	                                      baselines and sharegpt-engine
//	gpu.sm_util                         → goodput_per_gpu
//	estimator.ns_per_decode_worst,
//	estimator.ns_per_prefill_phase,
//	estimator.setup_ms                  → sim_req_per_s and setup_s on
//	                                      sharegpt-engine; no change on
//	                                      loogle-roofline
//	roofline.ns_per_decode_worst,
//	roofline.ns_per_prefill_phase       → sim_req_per_s on loogle-roofline only
//	core.decode_iters_per_req,
//	core.decode_bs_mean,
//	core.decode_iter_ms_p99             → tbt_p99_ms on sharegpt-engine
//	core.prefill_ms_p99, core.preempt_frac
//	                                    → ttft_p50_ms on loogle-roofline
//	core.partition_changes_per_min      → goodput_per_gpu
//	serve.queue_ms_p50, serve.queue_ms_p99
//	                                    → ttft_p50_ms and goodput_per_gpu on
//	                                      loogle-roofline and bursty-fleet
//	kvcache.hit_rate                    → ttft_p50_ms and goodput_per_gpu on
//	                                      bursty-fleet
//	kvcache.ns_per_match, kvcache.ns_per_insert,
//	kvcache.evictions_per_req           → sim_req_per_s on loogle-roofline and
//	                                      bursty-fleet; no change on
//	                                      sharegpt-engine
//	metrics.ns_per_token,
//	metrics.rollup_ms_per_probe         → sim_req_per_s and probe_ms_p50 on
//	                                      sharegpt-engine
//	metrics.miss.*_frac                 → which misses a goodput_per_gpu
//	                                      change moved
//	cluster.ns_per_pick, cluster.allocs_per_pick,
//	cluster.construct_us                → sim_req_per_s on bursty-fleet only
//	cluster.session_stay_frac           → kvcache.hit_rate, then ttft_p50_ms,
//	                                      on bursty-fleet
//	cluster.migration_tokens_per_req,
//	cluster.migration_stall_ms_per_stream
//	                                    → goodput_per_gpu on bursty-fleet
//	obs.trace_overhead, obs.events_per_req,
//	obs.chrome_ns_per_event             → nothing: end-to-end metrics are
//	                                      measured untraced, so an obs change
//	                                      moves only these
//	runtime.gc_cpu_frac                 → probe_ms_p90 everywhere
//	<layer>.cpu_share                   → bounds what speeding up that layer
//	                                      can save on that workload
//
// cpu_share charges each profile sample to its innermost
// muxwise/internal/<layer> frame; the six baseline engine packages share
// "baselines", other internal packages "other", and samples with no such
// frame, such as collector workers, "runtime". Host-time layer metrics
// are in reference time too.
//
// # Comparing two commits
//
// Record at least ten alternating runs of each side with the same
// arguments, each side's outputs concatenated into one file, then from
// the repository root
//
//	.bench_build/muxperf --compare parent.txt change.txt
//
// prints one row per (metric, workload): improved when the change wins at
// least 9 in 10 of at least ten pairs and the medians differ by more than
// the parent's interquartile range; regressed when its median is worse
// than the parent's by more than the metric's BENCHMARK.json bound;
// unresolved when the parent's own spread exceeds the bound and not every
// change run beats every parent run; unchanged otherwise. Per-layer
// metrics have no bound and read regressed only by the mirror of the gain
// rule. It exits 1 when an end-to-end metric regressed.
//
// # The rule
//
// A change that claims a gain may not edit the benchmark: not this
// directory and not BENCHMARK.json. A change that adds a workload or a
// counter is its own change; it alters no other code, claims no gain,
// and the baseline is measured again after it lands.
package main
