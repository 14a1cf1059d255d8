//! Experiment Q6 — precomputed vs re-derived retrieval (task reuse).
//!
//! §2.1.5's point of recording tasks: a previously derived object answers
//! later queries by retrieval. Measures the first (deriving) query against
//! subsequent (retrieving) queries, an explicit re-firing against the
//! same derivation from scratch, and the amortization over k queries.
//! Expected shape: retrieval beats re-derivation by orders of magnitude
//! after the first use; the crossover is immediate (reuse ≥ 1).
//!
//! The `invalidation_*` scenarios cover the write side: `update_object`
//! cost as recorded history grows (MVCC version counters make it O(1) in
//! the number of recorded tasks — the curve must stay flat from 4 to 256
//! tasks), and the full invalidate-then-re-derive cycle. CI condenses
//! these into `BENCH_q6_invalidation.json` (see
//! `scripts/bench_summary.sh`).

use criterion::{criterion_group, BenchmarkId, Criterion};
use gaea_adt::{AbsTime, Image, PixType, Value};
use gaea_bench::{africa, configure, figure2_kernel, jan86, store_scene};
use gaea_core::kernel::Gaea;
use gaea_core::{ObjectId, Query, QueryMethod, QueryStrategy};
use std::hint::black_box;

/// A kernel with `tasks` recorded P20 derivations (one per synthetic
/// scene, each at its own instant). Returns the first scene's bands:
/// mutating one of them falsifies exactly one derivation, so the
/// dependent count stays constant while history length varies.
fn kernel_with_history(tasks: usize) -> (Gaea, Vec<ObjectId>) {
    let mut g = figure2_kernel();
    let mut first_bands = Vec::new();
    for i in 0..tasks {
        let t = AbsTime::from_ymd(1900 + i as i64, 1, 15).expect("valid date");
        let bands = store_scene(&mut g, "rectified_tm", 6 + i as u64, 8, t);
        g.run_process(
            "P20_unsupervised_classification",
            &[("bands", bands.clone())],
        )
        .expect("history derivation");
        if i == 0 {
            first_bands = bands;
        }
    }
    (g, first_bands)
}

fn query() -> Query {
    Query::class("land_cover")
        .over(africa())
        .at(jan86())
        .with_strategy(QueryStrategy::PreferDerivation)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("q6_memoization");
    configure(&mut group);
    for side in [32u32, 64] {
        // Cold: derivation fires P20.
        group.bench_with_input(
            BenchmarkId::new("first_query_derives", side * side),
            &side,
            |b, side| {
                b.iter_batched(
                    || {
                        let mut g = figure2_kernel();
                        store_scene(&mut g, "rectified_tm", 6, *side, jan86());
                        g
                    },
                    |mut g| {
                        let out = g.query(&query()).expect("derives");
                        debug_assert_eq!(out.method, QueryMethod::Derived);
                        black_box(out)
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
        // Warm: the derived object is stored; the same query retrieves.
        group.bench_with_input(
            BenchmarkId::new("repeat_query_retrieves", side * side),
            &side,
            |b, side| {
                let mut g = figure2_kernel();
                store_scene(&mut g, "rectified_tm", 6, *side, jan86());
                g.query(&query()).expect("derives once");
                b.iter(|| {
                    let out = g.query(&query()).expect("hits");
                    debug_assert_eq!(out.method, QueryMethod::Retrieved);
                    black_box(out)
                })
            },
        );
    }
    // An explicit re-firing of an already recorded derivation: it
    // executes and records a task again (§4.2 duplicate detection
    // reports the pair).
    for side in [32u32, 64] {
        group.bench_with_input(
            BenchmarkId::new("rerun_process_unmemoized", side * side),
            &side,
            |b, side| {
                b.iter_batched(
                    || {
                        let mut g = figure2_kernel();
                        let bands = store_scene(&mut g, "rectified_tm", 6, *side, jan86());
                        g.run_process(
                            "P20_unsupervised_classification",
                            &[("bands", bands.clone())],
                        )
                        .expect("first derivation");
                        (g, bands)
                    },
                    |(mut g, bands)| {
                        black_box(
                            g.run_process("P20_unsupervised_classification", &[("bands", bands)])
                                .expect("re-derives"),
                        )
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    // Invalidation scaling: update_object cost against recorded-history
    // length. One task depends on the touched band at every size, so a
    // flat curve demonstrates invalidation is O(dependents), not
    // O(recorded tasks) — the former implementation rebuilt an adjacency
    // over the entire task history on every update.
    for tasks in [4usize, 64, 256] {
        group.bench_with_input(
            BenchmarkId::new("invalidation_update_object", tasks),
            &tasks,
            |b, tasks| {
                let (mut g, bands) = kernel_with_history(*tasks);
                let patch = Value::image(Image::filled(8, 8, PixType::Float8, 1.5));
                b.iter(|| {
                    g.update_object(bands[0], vec![("data", patch.clone())])
                        .expect("update");
                });
            },
        );
    }
    // The full cycle: mutate an input, then re-fire — the price of
    // freshness.
    group.bench_function("invalidation_rederive", |b| {
        let (mut g, bands) = kernel_with_history(64);
        let mut fill = 2.0;
        b.iter(|| {
            fill += 1.0;
            let patch = Value::image(Image::filled(8, 8, PixType::Float8, fill));
            g.update_object(bands[0], vec![("data", patch)])
                .expect("update");
            black_box(
                g.run_process(
                    "P20_unsupervised_classification",
                    &[("bands", bands.clone())],
                )
                .expect("re-derives"),
            )
        });
    });

    // Amortization series: total cost of k queries (1 derive + k-1 hits).
    for k in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("k_queries_total_32x32", k), &k, |b, k| {
            b.iter_batched(
                || {
                    let mut g = figure2_kernel();
                    store_scene(&mut g, "rectified_tm", 6, 32, jan86());
                    g
                },
                |mut g| {
                    for _ in 0..*k {
                        black_box(g.query(&query()).expect("ok"));
                    }
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
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
