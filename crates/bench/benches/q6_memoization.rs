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
//! tasks), and the full invalidate-then-re-derive cycle.

use gaea_adt::{AbsTime, Image, PixType, Value};
use gaea_bench::{africa, bench, bench_batched, figure2_kernel, jan86, store_scene};
use gaea_core::kernel::Gaea;
use gaea_core::{ObjectId, Query, QueryMethod, QueryStrategy};

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

/// A kernel holding one stored scene of `side`² pixels at the query's
/// instant.
fn scene_kernel(side: u32) -> (Gaea, Vec<ObjectId>) {
    let mut g = figure2_kernel();
    let bands = store_scene(&mut g, "rectified_tm", 6, side, jan86());
    (g, bands)
}

fn main() {
    for side in [32u32, 64] {
        let pixels = side * side;
        // Cold: derivation fires P20.
        bench_batched(
            &format!("first_query_derives/{pixels}"),
            || scene_kernel(side).0,
            |mut g| {
                let out = g.query(&query()).expect("derives");
                debug_assert_eq!(out.method, QueryMethod::Derived);
                out
            },
        );
        // Warm: the derived object is stored; the same query retrieves.
        let mut g = scene_kernel(side).0;
        g.query(&query()).expect("derives once");
        bench(&format!("repeat_query_retrieves/{pixels}"), || {
            let out = g.query(&query()).expect("hits");
            debug_assert_eq!(out.method, QueryMethod::Retrieved);
            out
        });
    }
    // An explicit re-firing of an already recorded derivation: it
    // executes and records a task again (§4.2 duplicate detection
    // reports the pair).
    for side in [32u32, 64] {
        bench_batched(
            &format!("rerun_process_unmemoized/{}", side * side),
            || {
                let (mut g, bands) = scene_kernel(side);
                g.run_process(
                    "P20_unsupervised_classification",
                    &[("bands", bands.clone())],
                )
                .expect("first derivation");
                (g, bands)
            },
            |(mut g, bands)| {
                g.run_process("P20_unsupervised_classification", &[("bands", bands)])
                    .expect("re-derives")
            },
        );
    }
    // Invalidation scaling: update_object cost against recorded-history
    // length. One task depends on the touched band at every size, so a
    // flat curve demonstrates invalidation is O(dependents), not
    // O(recorded tasks) — the former implementation rebuilt an adjacency
    // over the entire task history on every update.
    for tasks in [4usize, 64, 256] {
        let (mut g, bands) = kernel_with_history(tasks);
        let patch = Value::image(Image::filled(8, 8, PixType::Float8, 1.5));
        bench(&format!("invalidation_update_object/{tasks}"), || {
            g.update_object(bands[0], vec![("data", patch.clone())])
                .expect("update")
        });
    }
    // The full cycle: mutate an input, then re-fire — the price of
    // freshness.
    let (mut g, bands) = kernel_with_history(64);
    let mut fill = 2.0;
    bench("invalidation_rederive", || {
        fill += 1.0;
        let patch = Value::image(Image::filled(8, 8, PixType::Float8, fill));
        g.update_object(bands[0], vec![("data", patch)])
            .expect("update");
        g.run_process(
            "P20_unsupervised_classification",
            &[("bands", bands.clone())],
        )
        .expect("re-derives")
    });

    // Amortization series: total cost of k queries (1 derive + k-1 hits).
    for k in [1usize, 4, 16] {
        bench_batched(
            &format!("k_queries_total_32x32/{k}"),
            || scene_kernel(32).0,
            |mut g| {
                for _ in 0..k {
                    std::hint::black_box(g.query(&query()).expect("ok"));
                }
            },
        );
    }
}
