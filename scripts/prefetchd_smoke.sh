#!/usr/bin/env bash
#
# End-to-end smoke test of the simulation service: build prefetchd and
# prefetchctl, boot the server on an ephemeral port, submit the same
# small Figure-6 job twice, and assert the contract the result cache
# promises:
#
#   - the server reports ready on /readyz before any traffic is sent,
#   - the route table is closed: an unknown path answers 404 and a
#     known path with the wrong method 405,
#   - the first submission computes (done line says cache "miss"),
#   - the second is served from the cache (done line says "hit"),
#   - the row lines of both NDJSON transcripts are byte-identical,
#   - the hit is at least 10x faster than the miss (server-side
#     wall_ns, so client startup noise doesn't count),
#   - a /metrics scrape after the hit shows the resultcache hit counter
#     incremented, the runner queue drained back to zero and the
#     jobs_retained gauge present,
#   - the first job, settled and reduced to its history record by now,
#     re-streams through /jobs/<id>/stream from the result cache with
#     the same row lines,
#   - SIGTERM drains gracefully and persists the cache index.
#
# The three transcripts and the Prometheus scrape land in the artifact
# directory for offline inspection (CI uploads them).
#
# Usage: scripts/prefetchd_smoke.sh [artifact-dir]
set -euo pipefail

die() { echo "prefetchd_smoke.sh: FAIL: $*" >&2; exit 1; }

cd "$(dirname "$0")/.."
art="${1:-prefetchd-smoke-artifacts}"
mkdir -p "$art"

work="$(mktemp -d)"
server_pid=""
cleanup() {
  [[ -n "$server_pid" ]] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "== build"
go build -o "$work" ./cmd/prefetchd ./cmd/prefetchctl

echo "== boot"
"$work/prefetchd" -http 127.0.0.1:0 -cache-dir "$work/cache" \
  >"$art/prefetchd.log" 2>&1 &
server_pid=$!

# The server prints its bound address once the listener is up.
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's#^prefetchd: serving on http://##p' "$art/prefetchd.log")"
  [[ -n "$addr" ]] && break
  kill -0 "$server_pid" 2>/dev/null || die "prefetchd exited early: $(cat "$art/prefetchd.log")"
  sleep 0.1
done
[[ -n "$addr" ]] || die "prefetchd never reported its address"
ctl() { "$work/prefetchctl" -addr "$addr" "$@"; }

# Readiness: poll /readyz with a deadline instead of a fixed sleep, so
# the script waits exactly as long as the server needs — and when it
# never comes up, fail loudly with the server log attached.
ready=""
for _ in $(seq 1 100); do
  if curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then ready=1; break; fi
  kill -0 "$server_pid" 2>/dev/null || break
  sleep 0.1
done
if [[ -z "$ready" ]]; then
  echo "---- prefetchd log ----" >&2
  cat "$art/prefetchd.log" >&2
  die "server never became ready on /readyz"
fi
echo "   serving on $addr (ready)"

echo "== build info"
"$work/prefetchd" -version | grep -q '^prefetchd ' || die "-version output malformed"
ctl status | grep -q '"version"' || die "/status lacks the version field"

echo "== route table"
http_code() { # method path
  curl -sS -o /dev/null -w '%{http_code}' -X "$1" "http://$addr$2"
}
[[ "$(http_code GET /nope)" == 404 ]] || die "GET /nope: $(http_code GET /nope), want 404"
[[ "$(http_code DELETE /jobs)" == 405 ]] || die "DELETE /jobs: $(http_code DELETE /jobs), want 405"

job=(submit -figure6 -apps lu -schemes Seq -procs 4 -stream)
done_field() { # file field
  grep '"type":"done"' "$1" | sed -n "s/.*\"$2\":\"\{0,1\}\([a-z0-9]*\)\"\{0,1\}.*/\1/p"
}

echo "== first submission (expect miss)"
ctl "${job[@]}" >"$art/run1.ndjson" || die "first submission failed"
cache1="$(done_field "$art/run1.ndjson" cache)"
wall1="$(done_field "$art/run1.ndjson" wall_ns)"
[[ "$cache1" == "miss" ]] || die "first submission: cache '$cache1', want miss"

echo "== second submission (expect hit)"
ctl "${job[@]}" >"$art/run2.ndjson" || die "second submission failed"
cache2="$(done_field "$art/run2.ndjson" cache)"
wall2="$(done_field "$art/run2.ndjson" wall_ns)"
[[ "$cache2" == "hit" ]] || die "second submission: cache '$cache2', want hit"

echo "== byte-identity of the row payload"
grep '"type":"row"' "$art/run1.ndjson" >"$work/rows1"
grep '"type":"row"' "$art/run2.ndjson" >"$work/rows2"
[[ -s "$work/rows1" ]] || die "first transcript has no row lines"
cmp "$work/rows1" "$work/rows2" || die "cached rows differ from the computed rows"

echo "== metrics scrape after the cached submission"
if ! curl -fsS "http://$addr/metrics" >"$art/metrics.prom"; then
  echo "---- prefetchd log ----" >&2
  cat "$art/prefetchd.log" >&2
  die "/metrics scrape failed"
fi
grep -q '^resultcache_hits_total 1$' "$art/metrics.prom" \
  || die "resultcache_hits_total != 1: $(grep '^resultcache_' "$art/metrics.prom" | tr '\n' ' ')"
grep -q '^jobs_cache_hits_total 1$' "$art/metrics.prom" \
  || die "jobs_cache_hits_total != 1"
grep -q '^runner_queue_depth 0$' "$art/metrics.prom" \
  || die "runner queue depth not back to zero after the jobs settled"
grep -q '^# TYPE runner_run_us histogram$' "$art/metrics.prom" \
  || die "runner run-latency histogram missing from the exposition"
grep -q '^jobs_retained [0-9]' "$art/metrics.prom" \
  || die "jobs_retained gauge missing from the exposition"

echo "== re-stream of the settled first job"
id1="$(grep '"type":"job"' "$art/run1.ndjson" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[[ -n "$id1" ]] || die "first transcript has no job id"
curl -fsS "http://$addr/jobs/$id1/stream" >"$art/restream1.ndjson" || die "re-stream of $id1 failed"
[[ "$(done_field "$art/restream1.ndjson" status)" == "done" ]] \
  || die "re-stream of $id1 did not end done: $(grep '"type":"done"' "$art/restream1.ndjson")"
grep '"type":"row"' "$art/restream1.ndjson" >"$work/rows3"
cmp "$work/rows1" "$work/rows3" || die "re-streamed rows of $id1 differ from its first transcript"

echo "== hit must be >=10x faster (miss ${wall1}ns vs hit ${wall2}ns)"
[[ -n "$wall1" && -n "$wall2" && "$wall2" -gt 0 ]] || die "missing wall_ns in done lines"
[[ "$wall1" -ge $((10 * wall2)) ]] || die "cache hit only $((wall1 / wall2))x faster"

echo "== graceful shutdown persists the cache index"
kill -TERM "$server_pid"
wait "$server_pid" || die "prefetchd exited non-zero on SIGTERM"
server_pid=""
grep -q '^prefetchd: stopped$' "$art/prefetchd.log" || die "no clean-stop line in the log"
[[ -f "$work/cache/index.json" ]] || die "cache index.json not persisted"
grep -q '"key": "fig6-' "$work/cache/index.json" || die "persisted index lists no fig6 entry"

echo "PASS: miss ${wall1}ns, hit ${wall2}ns ($((wall1 / wall2))x), rows byte-identical"
