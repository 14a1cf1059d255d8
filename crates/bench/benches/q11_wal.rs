//! Experiment Q11 — write-ahead log costs: group commit and replay.
//!
//! Two questions the durability tentpole raises, quantified:
//!
//! * `wal_append_fsync_1` vs `wal_append_fsync_64` — the price of the
//!   strict default (fsync every committed event) against batched
//!   group commit (one sync per 64 events). Each iteration commits 64
//!   object inserts on a durable kernel; the gap between the rows is
//!   the pure fsync amplification a scientist pays for zero-loss
//!   acknowledgement.
//! * `wal_replay_10k` — crash-recovery time: reopening a directory
//!   whose log holds 10 000 committed insert events, i.e. a full
//!   decode → verify → reapply pass with no snapshot to shortcut it.
//!
//! CI condenses the rows into `BENCH_q11_wal.json` via
//! `scripts/bench_summary.sh q11_wal wal_`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use gaea_adt::{TypeTag, Value};
use gaea_core::kernel::{ClassSpec, DurabilityOptions, Gaea};
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Events committed per append iteration.
const EVENTS: u32 = 64;
/// Log length for the replay rows.
const REPLAY_EVENTS: u32 = 10_000;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gaea-q11-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable kernel with the single `obs {v}` class, snapshots off so
/// every event stays in the log.
fn durable_kernel(dir: &Path, fsync_every: u64) -> Gaea {
    let mut g = Gaea::open_with(
        dir,
        DurabilityOptions {
            fsync_every,
            snapshot_every: 0,
        },
    )
    .expect("open durable kernel");
    if g.catalog().class_by_name("obs").is_err() {
        g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4).no_extents())
            .expect("obs class");
    }
    g
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("q11_wal");
    gaea_bench::configure(&mut group);

    // Group-commit sweep: the same 64-event commit burst under the
    // strict and the batched sync policy. The log grows across
    // iterations — appends are O(1), replay is not measured here.
    for fsync_every in [1u64, 64] {
        let dir = fresh_dir(&format!("append-{fsync_every}"));
        let mut g = durable_kernel(&dir, fsync_every);
        let mut v = 0i32;
        group.bench_with_input(
            BenchmarkId::new(format!("wal_append_fsync_{fsync_every}"), EVENTS),
            &EVENTS,
            |b, n| {
                b.iter(|| {
                    for _ in 0..*n {
                        v = v.wrapping_add(1);
                        g.insert_object("obs", vec![("v", Value::Int4(v))])
                            .expect("durable insert");
                    }
                })
            },
        );
        drop(g);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Replay: reopen a 10k-event log from scratch each iteration.
    let dir = fresh_dir("replay");
    {
        // Build the log once; batched sync keeps setup quick.
        let mut g = durable_kernel(&dir, 1024);
        for v in 0..REPLAY_EVENTS {
            g.insert_object("obs", vec![("v", Value::Int4(v as i32))])
                .expect("seed insert");
        }
    }
    group.bench_with_input(
        BenchmarkId::new("wal_replay_10k", REPLAY_EVENTS),
        &REPLAY_EVENTS,
        |b, _| {
            b.iter(|| {
                let g = durable_kernel(&dir, 1024);
                let replayed = g.recovery_stats().expect("recovery stats").events_replayed;
                assert!(replayed >= u64::from(REPLAY_EVENTS));
                black_box(g)
            })
        },
    );
    let _ = std::fs::remove_dir_all(&dir);

    group.finish();
}

criterion_group!(benches, bench);

fn main() {
    benches();
    // GAEA_METRICS_JSON: dump the process-wide metrics snapshot so
    // scripts/bench_summary.sh can merge the counters behind the
    // latency numbers into the published artifact.
    if let Some(path) = gaea_obs::dump_snapshot_to_env_path() {
        println!("metrics snapshot written to {path}");
    }
}
