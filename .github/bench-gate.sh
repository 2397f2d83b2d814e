#!/usr/bin/env bash
# Relative benchmark gate. Runs the repo benchmark (muxperf, declared in
# BENCHMARK.json) on a base commit and on this checkout in alternating
# pairs, each side built from its own tree, then compares the two with the
# base's `muxperf --compare`, so the base's BENCHMARK.json bounds apply.
# Exits 1 when an end-to-end metric regressed beyond its bound or any probe
# failed its checks.
#
# Run from the repository root of a full clone:
#
#   bash .github/bench-gate.sh "$(git merge-base HEAD origin/main)"
#
# The base tree is checked out with `git worktree` under .bench_build/gate
# and removed on exit. The comparison table and both sides' digest lines go
# to $GITHUB_STEP_SUMMARY when it is set, else to stdout. On a 2-vCPU VM
# one side's run of all four workloads takes about 20 s, the gate about
# 4 minutes.
set -euo pipefail

# Five pairs judge the bounds. muxperf's gain rule needs ten pairs, so this
# gate never reports a metric as improved.
readonly PAIRS=5
readonly RUN_SECONDS=10

base_ref=${1:?usage: bash .github/bench-gate.sh BASE_COMMIT}
head_dir=$(pwd)
work="$head_dir/.bench_build/gate"
base_dir="$work/base"
summary=${GITHUB_STEP_SUMMARY:-/dev/stdout}

rm -rf "$work"
git worktree prune
mkdir -p "$work"
git worktree add --quiet --detach "$base_dir" "$base_ref"
trap 'git worktree remove --force "$base_dir"' EXIT

failed=0
# run SIDE DIR SEED appends one run of every workload to $work/SIDE.txt.
run() {
	echo "bench-gate: $1 seed $3" >&2
	if ! (cd "$2" && bash muxperf/run.sh --workload all --seed "$3" --seconds "$RUN_SECONDS" --trace 0) >>"$work/$1.txt"; then
		echo "bench-gate: $1 seed $3: a run failed or a probe failed its checks" >&2
		failed=1
	fi
}
for seed in $(seq 1 "$PAIRS"); do
	if ((seed % 2)); then
		run base "$base_dir" "$seed"
		run head "$head_dir" "$seed"
	else
		run head "$head_dir" "$seed"
		run base "$base_dir" "$seed"
	fi
done

compare=0
(cd "$base_dir" && .bench_build/muxperf --compare "$work/base.txt" "$work/head.txt") >"$work/compare.txt" || compare=$?

# digests SIDE prints "seed workload digest" per run of that side.
digests() {
	awk '/^muxperf: / { for (i = 2; i <= NF; i++) { split($i, kv, "="); f[kv[1]] = kv[2] } }
	     /^digest: / { print f["seed"], f["workload"], $2 }' "$work/$1.txt"
}
# probes SIDE sums the attempted and failed probes of that side's runs.
probes() {
	grep -h '^{' "$work/$1.txt" | sed -E 's/.*"attempted":([0-9]+),"failed":([0-9]+).*/\1 \2/' |
		awk '{ a += $1; f += $2 } END { printf "%d of %d probes failed", f, a }'
}

{
	echo "### Benchmark gate: $(git rev-parse --short HEAD) against base $(git rev-parse --short "$base_ref")"
	echo
	echo "$PAIRS alternating pairs of \`muxperf --workload all --seconds $RUN_SECONDS --trace 0\`, seeds 1–$PAIRS."
	echo "Base: $(probes base). Head: $(probes head)."
	echo
	echo '```'
	cat "$work/compare.txt"
	echo '```'
	echo
	echo '| seed | workload | base digest | head digest |'
	echo '|---|---|---|---|'
	paste -d ' ' <(digests base) <(digests head) | awk '{ printf "| %s | %s | `%s` | `%s` |\n", $1, $2, $3, $6 }'
	echo
	if ((failed || compare)); then
		echo "**Failed:** a regressed end-to-end metric (compare exit $compare) or a failed probe."
	else
		echo "**Passed:** no end-to-end metric regressed beyond its bound, and no probe failed."
	fi
} >>"$summary"

if ((failed || compare)); then
	exit 1
fi
