#!/usr/bin/env bash
#
# Benchmark runner for before/after performance records. Runs the macro
# benchmarks (the full Figure 6 sweep and the raw simulator-throughput
# workload) for one iteration each and the substrate micro-benchmarks
# (event queue, block table, stream consumption, mesh send) at a fixed
# benchtime, then writes one JSON object per benchmark — ns/op, B/op,
# allocs/op — to the output file.
#
# Usage:
#   scripts/bench.sh after.json                  # current tree
#   git stash && scripts/bench.sh base.json && git stash pop
#   scripts/bench.sh after.json base.json merged.json
#                      # also merge base/after into a benchstat-style
#                      # before/after/delta record via cmd/benchdelta
#   scripts/bench.sh -q quick.json               # micro benchmarks only
#
# Environment:
#   BENCH_OUT     output file (overridden by the first positional arg;
#                 default bench_results.json)
#   BENCH_BEFORE  baseline file to merge against (second positional arg)
#   BENCH_MERGED  merged record path (third positional arg;
#                 default bench_delta.json)
#   BENCH_QUICK   non-empty = micro benchmarks only, shorter benchtime —
#                 the subset CI's regression gate runs (same as -q)
#   BENCH_GATE    a committed BENCH_<n>.json record to gate against:
#                 after writing $BENCH_OUT, fail if any micro-benchmark
#                 regressed by more than BENCH_GATE_PCT (default 25)
#                 percent ns/op. The gate refuses to run against a
#                 stale record: if the repo root holds a BENCH_<n>.json
#                 newer (higher n) than $BENCH_GATE, it dies loudly so
#                 CI can't silently keep comparing against history.
#
# The BENCH_<n>.json records in the repo root pair this script's output
# on each PR base with its output after that PR's rework; the newest is
# the gate baseline.
set -euo pipefail

die() { echo "bench.sh: $*" >&2; exit 1; }
for tool in go awk grep; do
  command -v "$tool" >/dev/null 2>&1 || die "required tool '$tool' not found in PATH"
done

cd "$(dirname "$0")/.."

quick="${BENCH_QUICK:-}"
if [[ "${1:-}" == "-q" ]]; then
  quick=1
  shift
fi
out="${1:-${BENCH_OUT:-bench_results.json}}"
before="${2:-${BENCH_BEFORE:-}}"
merged="${3:-${BENCH_MERGED:-bench_delta.json}}"
gate="${BENCH_GATE:-}"
gate_pct="${BENCH_GATE_PCT:-25}"
[[ -z "$before" || -f "$before" ]] || die "baseline file '$before' does not exist"

# newest_record prints the highest-numbered committed BENCH_<n>.json.
newest_record() {
  ls BENCH_[0-9]*.json 2>/dev/null | sort -t_ -k2 -n | tail -1
}

if [[ -n "$gate" ]]; then
  [[ -f "$gate" ]] || die "gate record '$gate' does not exist"
  newest="$(newest_record)"
  [[ "$gate" == "$newest" ]] ||
    die "gate record '$gate' is stale: '$newest' is newer — update the gate (ci.yml) to the latest record"
fi

run() { # pattern package benchtime
  go test -run '^$' -bench "$1" -benchtime "$3" -benchmem "$2" 2>&1 |
    grep -E '^Benchmark' || true
}

bench_all() {
  if [[ -z "$quick" ]]; then
    run 'Figure6Serial|SimulatorThroughput' . 1x
    run 'EngineSchedule' ./internal/sim 2s
    run 'BlockTable|StdlibMap' ./internal/blockmap 2s
    run 'StreamNext' ./internal/trace 2s
    run 'MeshSend' ./internal/network 2s
  else
    # Quick subset: the substrate micro-benchmarks at a shorter
    # benchtime — minutes instead of tens of minutes, enough signal
    # for CI's coarse (>25% ns/op) regression gate.
    run 'EngineSchedule$' ./internal/sim 1s
    run 'BlockTable$|BlockTableHits|BlockTableDense' ./internal/blockmap 1s
    run 'StreamNext' ./internal/trace 1s
    run 'MeshSend' ./internal/network 1s
  fi
}

rows="$(bench_all)"
[[ -n "$rows" ]] || die "no benchmark output captured (build failure above?)"

printf '%s\n' "$rows" | awk '
BEGIN { print "{"; first = 1 }
{
  name = $1; sub(/-[0-9]+$/, "", name)
  ns = "null"; bytes = "null"; allocs = "null"
  for (i = 2; i <= NF; i++) {
    if ($i == "ns/op")     ns = $(i-1)
    if ($i == "B/op")      bytes = $(i-1)
    if ($i == "allocs/op") allocs = $(i-1)
  }
  if (!first) printf ",\n"
  first = 0
  printf "  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
    name, ns, bytes, allocs
}
END { print "\n}" }
' >"$out"
echo "wrote $out"

if [[ -n "$before" ]]; then
  go run ./cmd/benchdelta -o "$merged" "$before" "$out"
fi

if [[ -n "$gate" ]]; then
  echo "gating $out against $gate (>$gate_pct% ns/op regression fails)"
  go run ./cmd/benchdelta -gate "$gate_pct" "$gate" "$out"
fi
