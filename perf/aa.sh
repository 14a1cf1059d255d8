#!/usr/bin/env bash
# A/A check: run the full suite twice on the same build and fail if any
# end-to-end metric of any workload differs between the two runs by more
# than the bound BENCHMARK.json gives it. A metric that cannot pass here
# does not belong in `end_to_end`: demote it to `per_layer`.
#
#   perf/aa.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
bin="${CARGO_TARGET_DIR:-perf/target}/release/gaea_perf"
mkdir -p perf/target
for side in a b; do
    "$bin" --seed "$seed" --seconds "$seconds" | tee "perf/target/aa-$side.txt" | grep -v '^{'
done
python3 - "$seed" <<'PY'
import json, sys
bench = json.load(open("BENCHMARK.json"))
last = lambda side: json.loads(open(f"perf/target/aa-{side}.txt").read().strip().splitlines()[-1])
a, b = last("a"), last("b")
bad = 0
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        x, y = (r[w["name"]]["metrics"][m["name"]]["value"] for r in (a, b))
        diff = abs(x - y) / max(abs(x), abs(y), 1e-12)
        verdict = "ok" if diff <= m["bound"] else "DIFFERS"
        bad += verdict != "ok"
        print(f'{w["name"]:<15} {m["name"]:<18} {x:>14.4f} {y:>14.4f} {100 * diff:6.2f}%  bound {100 * m["bound"]:.0f}%  {verdict}')
sys.exit(1 if bad else 0)
PY
