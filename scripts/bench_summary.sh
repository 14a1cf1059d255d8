#!/usr/bin/env bash
# Produce a machine-readable summary of one criterion bench target.
#
# Runs the named bench once (the workspace-local criterion harness is
# already configured for short runs: 10 samples, ~1 s windows) with
# GAEA_BENCH_JSON pointed at a JSONL trail, then condenses the scenarios
# whose id starts with the given prefix into a single JSON document for
# the CI artifact trail.
#
# Usage: scripts/bench_summary.sh [bench] [id-prefix] [output.json] [metrics.json]
#
# Defaults preserve the original q6 invocation:
#   scripts/bench_summary.sh                       # q6 invalidation rows
#   scripts/bench_summary.sh q8_parallel refresh_all BENCH_q8_parallel.json
#
# The optional fourth argument is a gaea_obs metrics snapshot (the flat
# JSON object `MetricsRegistry::snapshot().to_json()` emits, e.g. via
# GAEA_METRICS_JSON on a bench run): selected counters — WAL appends and
# fsyncs, cache hits/misses and the derived hit rate — are merged into
# the published document under a "metrics" key, so the artifact trail
# records the I/O and cache behaviour behind the latency numbers.
set -euo pipefail

bench="${1:-q6_memoization}"
prefix="${2:-invalidation}"
# The historical zero-argument invocation wrote BENCH_q6_invalidation.json;
# keep that artifact name stable for tooling that predates the arguments.
if [ "$bench" = "q6_memoization" ] && [ "$prefix" = "invalidation" ]; then
    out="${3:-BENCH_q6_invalidation.json}"
else
    out="${3:-BENCH_${bench}.json}"
fi
jsonl="$(mktemp)"
trap 'rm -f "$jsonl"' EXIT

metrics="${4:-}"
if [ -n "$metrics" ]; then
    # cargo runs bench binaries with cwd = the bench *package* dir, so a
    # relative GAEA_METRICS_JSON inherited from the environment would
    # land in crates/bench/ and the merge below would never see it. Pin
    # the dump to the path this script reads.
    export GAEA_METRICS_JSON="$(pwd)/$metrics"
fi

GAEA_BENCH_JSON="$jsonl" cargo bench --bench "$bench" >/dev/null

scenarios="$(grep "\"id\":\"$prefix" "$jsonl" | sed 's/^/    /' | sed '$!s/$/,/' || true)"
if [ -z "$scenarios" ]; then
    echo "bench_summary: no \"$prefix\" scenarios captured from $bench" >&2
    exit 1
fi

{
    echo '{'
    echo "  \"bench\": \"$bench\","
    echo "  \"commit\": \"${GITHUB_SHA:-unknown}\","
    echo "  \"timestamp\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo '  "unit": "ns",'
    echo '  "scenarios": ['
    printf '%s\n' "$scenarios"
    echo '  ]'
    echo '}'
} >"$out"

echo "bench_summary: wrote $out ($(grep -c '"id"' "$out") scenarios)"

if [ -n "$metrics" ]; then
    if [ ! -f "$metrics" ]; then
        echo "bench_summary: metrics snapshot $metrics not found" >&2
        exit 1
    fi
    python3 - "$out" "$metrics" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
snap = json.load(open(sys.argv[2]))
keys = ("wal_appends", "wal_fsyncs", "cache_hits", "cache_misses")
sel = {k: snap[k] for k in keys if k in snap}
hits, misses = snap.get("cache_hits", 0), snap.get("cache_misses", 0)
lookups = hits + misses
sel["cache_hit_rate"] = round(hits / lookups, 4) if lookups else 0.0
doc["metrics"] = sel
with open(sys.argv[1], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"bench_summary: merged {len(sel)} metric(s) from {sys.argv[2]}")
EOF
fi
