#!/usr/bin/env bash
# What CI runs: the harness's own tests, then every workload at a
# twentieth of its length with all answer and durability checks on and
# no timing reported. Exits nonzero on any failed check.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --offline --quiet --manifest-path perf/Cargo.toml
cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- --quick "$@"
