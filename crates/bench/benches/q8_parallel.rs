//! Experiment Q8p — parallel derivation scheduling (`gaea-sched`).
//!
//! The acceptance workload for the dependency-DAG scheduler: a
//! 64-firing fan-out plan (64 independent P20 classifications, all
//! staled by mutating one band of each scene) re-derived through
//! `Gaea::refresh_all` at 1 / 2 / 4 / 8 workers. Every firing is
//! independent, so the whole impact set levels into a single wave and
//! the speedup curve measures the prepare/commit split directly: wave
//! prepares (template evaluation — the k-means classification) fan out
//! across the worker pool while the store/catalog commits serialize.
//!
//! Expected shape on a multi-core host: ≥2× at 4 workers over the
//! 1-worker schedule (the 1-worker mode is the plain serial loop — no
//! threads, no locks). On a single-core container the workers time-slice
//! one CPU and the curve stays flat; the `workers_1` row is then the
//! honest baseline.

use gaea_adt::Value;
use gaea_bench::{bench_batched, figure2_kernel, jan86, store_scene};
use gaea_core::kernel::Gaea;
use gaea_core::ObjectId;
use gaea_workload::{SceneSpec, SyntheticScene};

/// Independent firings in the fan-out plan.
const FIRINGS: usize = 64;
/// Scene side length (each firing classifies 3 bands of this size).
const SIDE: u32 = 24;

/// A kernel with 64 recorded P20 classifications, every one of them
/// staled by mutating the first band of its scene. `refresh_all` on
/// this kernel is exactly the 64-firing fan-out wave.
fn staled_kernel() -> (Gaea, Vec<ObjectId>) {
    let mut g = figure2_kernel();
    let mut first_bands = Vec::with_capacity(FIRINGS);
    for i in 0..FIRINGS {
        let bands = store_scene(&mut g, "rectified_tm", 1 + i as u64, SIDE, jan86());
        g.run_process(
            "P20_unsupervised_classification",
            &[("bands", bands.clone())],
        )
        .expect("fan-out derivation");
        first_bands.push(bands[0]);
    }
    // Mutate one band per scene with fresh synthetic data: all 64
    // derivations drift stale at once.
    for (i, band) in first_bands.iter().enumerate() {
        let scene = SyntheticScene::generate(SceneSpec::small(1_000 + i as u64).sized(SIDE, SIDE));
        g.update_object(*band, vec![("data", Value::image(scene.bands[0].clone()))])
            .expect("stale the derivation");
    }
    (g, first_bands)
}

fn main() {
    for workers in [1usize, 2, 4, 8] {
        bench_batched(
            &format!("refresh_all_fanout64_workers/{workers}"),
            || {
                let (mut g, _) = staled_kernel();
                g.set_workers(workers);
                g
            },
            |mut g| {
                let report = g.refresh_all().expect("refresh schedules cleanly");
                debug_assert_eq!(report.refreshed(), FIRINGS);
                debug_assert_eq!(report.waves, 1);
                report
            },
        );
    }
}
