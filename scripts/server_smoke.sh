#!/usr/bin/env bash
# End-to-end smoke of the multi-session server (CI `server` job).
#
# Build the release `gaea-server` and `session_driver`, start a durable
# server on an ephemeral port, drive K=16 reader sessions racing a
# continuous writer for a bounded run, scrape the live `--stats`
# introspection endpoint mid-run (mandatory keys — sessions_live,
# reads_pinned, wal_appends, cache hit/miss — must be present, and the
# workload-driven ones nonzero), then shut the server down over the
# wire. The run fails on any protocol or statement
# error, on a nonzero server exit (the checked WAL flush is part of the
# exit status), or if `gaea-server --check` finds the log dirty after
# shutdown.
#
#   scripts/server_smoke.sh        # from the repo root
#
# The reader-latency bound (busy-writer p99 within 3x idle) is checked
# by `cargo run --release --example reader_interference`.

set -u

SERVER="target/release/gaea-server"
DRIVER="target/release/session_driver"
SCRATCH="$(mktemp -d)"
SERVER_PID=""

cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
    rm -rf "$SCRATCH"
}
trap cleanup EXIT

echo "building server and driver..."
cargo build --release --quiet --bin gaea-server --bin session_driver || exit 1

DATA="$SCRATCH/db"
LOG="$SCRATCH/server.log"

"$SERVER" --addr 127.0.0.1:0 --data "$DATA" --seed --max-sessions 32 \
    >"$LOG" 2>"$SCRATCH/server.err" &
SERVER_PID=$!

# The server prints "gaea-server listening on HOST:PORT" once bound.
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^gaea-server listening on //p' "$LOG")"
    [ -n "$ADDR" ] && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "FAIL: server exited before binding"
        cat "$SCRATCH/server.err" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "FAIL: server never reported its address"
    exit 1
fi
echo "server up at $ADDR (pid $SERVER_PID)"

# K=16 readers racing a continuous writer, backgrounded so the live
# stats endpoint can be scraped mid-run. The driver exits nonzero on
# any statement error.
"$DRIVER" --addr "$ADDR" --sessions 16 --reads 50 --writer &
DRIVER_PID=$!

# Mid-run introspection: one Stats round-trip must answer with the
# session counters and the process-wide metrics registry merged in.
STATS=""
for _ in $(seq 1 50); do
    if STATS="$("$DRIVER" --addr "$ADDR" --stats)"; then
        break
    fi
    STATS=""
    sleep 0.1
done
if [ -z "$STATS" ]; then
    echo "FAIL: could not scrape --stats from the live server"
    kill "$DRIVER_PID" 2>/dev/null
    exit 1
fi
printf '%s\n' "$STATS" | sed 's/^/stats: /'
for key in sessions_live reads_pinned wal_appends cache_hits cache_misses; do
    if ! printf '%s\n' "$STATS" | grep -q "^$key: "; then
        echo "FAIL: --stats output is missing mandatory key \"$key\""
        kill "$DRIVER_PID" 2>/dev/null
        exit 1
    fi
done
for key in reads_pinned wal_appends cache_hits cache_misses; do
    if printf '%s\n' "$STATS" | grep -q "^$key: 0$"; then
        echo "FAIL: --stats reports $key = 0 under a live workload"
        kill "$DRIVER_PID" 2>/dev/null
        exit 1
    fi
done
echo "stats scrape: ok (mandatory keys present and nonzero)"

if ! wait "$DRIVER_PID"; then
    echo "FAIL: session driver reported errors"
    exit 1
fi

# Graceful wire shutdown (one more tiny session, then Shutdown).
if ! "$DRIVER" --addr "$ADDR" --sessions 1 --reads 1 --shutdown; then
    echo "FAIL: shutdown driver reported errors"
    exit 1
fi

# The server's exit status carries the checked WAL flush verdict.
if ! wait "$SERVER_PID"; then
    echo "FAIL: server exited nonzero (checked WAL flush failed?)"
    cat "$SCRATCH/server.err" >&2
    exit 1
fi
SERVER_PID=""
grep "protocol errors" "$SCRATCH/server.err" || true

# Reopen the data directory: the log must have closed clean.
if ! "$SERVER" --data "$DATA" --check; then
    echo "FAIL: WAL dirty after graceful shutdown"
    exit 1
fi

echo "server smoke: ok"
