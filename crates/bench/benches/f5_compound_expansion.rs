//! Experiment F5 — Figure 5's compound land-change-detection process.
//!
//! Measures the compound firing end to end (expansion + three primitive
//! tasks) against the manually sequenced primitives, isolating the cost of
//! the compound abstraction (§2.1.4: expansion is bookkeeping only, so the
//! difference should be in the noise).

use gaea_adt::AbsTime;
use gaea_bench::{bench_batched, figure2_kernel, jan86, store_scene};
use gaea_core::kernel::Gaea;
use gaea_core::schema::StepSource;
use gaea_core::ObjectId;

fn kernel_with_compound() -> Gaea {
    let mut g = figure2_kernel();
    g.define_compound_process(
        "land_change_detection",
        "land_cover_changes",
        &[
            ("tm_t1".into(), "rectified_tm".into(), true, 3),
            ("tm_t2".into(), "rectified_tm".into(), true, 3),
        ],
        &[
            (
                "P20_unsupervised_classification".into(),
                vec![StepSource::OuterArg(0)],
            ),
            (
                "P20_unsupervised_classification".into(),
                vec![StepSource::OuterArg(1)],
            ),
            (
                "P21_change".into(),
                vec![StepSource::StepOutput(0), StepSource::StepOutput(1)],
            ),
        ],
        "Figure 5",
    )
    .expect("compound registers");
    g
}

fn two_epochs(g: &mut Gaea, side: u32) -> (Vec<ObjectId>, Vec<ObjectId>) {
    let t1 = jan86();
    let t2 = AbsTime(t1.0 + 5 * 365 * 86_400);
    let b1 = store_scene(g, "rectified_tm", 31, side, t1);
    let b2 = store_scene(g, "rectified_tm", 32, side, t2);
    (b1, b2)
}

fn epochs_32x32() -> (Gaea, Vec<ObjectId>, Vec<ObjectId>) {
    let mut g = kernel_with_compound();
    let (b1, b2) = two_epochs(&mut g, 32);
    (g, b1, b2)
}

fn main() {
    bench_batched("compound_fire_32x32", epochs_32x32, |(mut g, b1, b2)| {
        g.run_process("land_change_detection", &[("tm_t1", b1), ("tm_t2", b2)])
            .expect("fires")
    });
    bench_batched(
        "manual_primitives_32x32",
        epochs_32x32,
        |(mut g, b1, b2)| {
            let lc1 = g
                .run_process("P20_unsupervised_classification", &[("bands", b1)])
                .expect("fires");
            let lc2 = g
                .run_process("P20_unsupervised_classification", &[("bands", b2)])
                .expect("fires");
            g.run_process(
                "P21_change",
                &[("earlier", lc1.outputs), ("later", lc2.outputs)],
            )
            .expect("fires")
        },
    );
    // Pure definition/validation cost of the compound (no execution).
    bench_batched("compound_definition", figure2_kernel, |mut g| {
        g.define_compound_process(
            "lcd_bench",
            "land_cover_changes",
            &[
                ("tm_t1".into(), "rectified_tm".into(), true, 3),
                ("tm_t2".into(), "rectified_tm".into(), true, 3),
            ],
            &[
                (
                    "P20_unsupervised_classification".into(),
                    vec![StepSource::OuterArg(0)],
                ),
                (
                    "P20_unsupervised_classification".into(),
                    vec![StepSource::OuterArg(1)],
                ),
                (
                    "P21_change".into(),
                    vec![StepSource::StepOutput(0), StepSource::StepOutput(1)],
                ),
            ],
            "bench",
        )
        .expect("registers")
    });
}
