//! Experiment Q7 — the cost of provenance (task recording overhead).
//!
//! Compares a full kernel firing of a lightweight process (metadata
//! validation + template evaluation + object insert + task record) against
//! the bare operator call, over raster sizes. Expected shape: constant
//! per-task overhead that vanishes relative to any real analysis; lineage
//! queries over deep chains stay interactive.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gaea_adt::{Image, TypeTag, Value};
use gaea_bench::configure;
use gaea_core::kernel::{ClassSpec, Gaea, ProcessSpec};
use gaea_core::template::{Expr, Mapping, Template};
use gaea_raster::img_diff;
use std::hint::black_box;

fn kernel() -> Gaea {
    let mut g = Gaea::in_memory().with_user("q7");
    g.define_class(
        ClassSpec::base("raster")
            .attr("data", TypeTag::Image)
            .no_extents(),
    )
    .expect("class");
    g.define_class(
        ClassSpec::derived("diffmap")
            .attr("data", TypeTag::Image)
            .no_extents(),
    )
    .expect("class");
    g.define_process(
        ProcessSpec::new("diff", "diffmap")
            .arg("a", "raster")
            .arg("b", "raster")
            .template(Template {
                assertions: vec![],
                mappings: vec![Mapping {
                    attr: "data".into(),
                    expr: Expr::apply(
                        "img_diff",
                        vec![Expr::proj("a", "data"), Expr::proj("b", "data")],
                    ),
                }],
            }),
    )
    .expect("process");
    g
}

fn image(side: u32, seed: u64) -> Image {
    let n = (side * side) as usize;
    let data: Vec<f64> = (0..n)
        .map(|i| ((i as u64 * 31 + seed) % 251) as f64)
        .collect();
    Image::from_f64(side, side, data).expect("sized")
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("q7_lineage_overhead");
    configure(&mut group);
    for side in [8u32, 32, 128] {
        let a = image(side, 1);
        let b_img = image(side, 2);
        // Bare algorithm.
        group.bench_with_input(
            BenchmarkId::new("bare_img_diff", side * side),
            &side,
            |bch, _| bch.iter(|| black_box(img_diff(&a, &b_img).expect("ok"))),
        );
        // Kernel task: same computation + full provenance.
        group.bench_with_input(
            BenchmarkId::new("task_img_diff", side * side),
            &side,
            |bch, side| {
                bch.iter_batched(
                    || {
                        let mut g = kernel();
                        let oa = g
                            .insert_object("raster", vec![("data", Value::image(image(*side, 1)))])
                            .expect("insert");
                        let ob = g
                            .insert_object("raster", vec![("data", Value::image(image(*side, 2)))])
                            .expect("insert");
                        (g, oa, ob)
                    },
                    |(mut g, oa, ob)| {
                        black_box(
                            g.run_process("diff", &[("a", vec![oa]), ("b", vec![ob])])
                                .expect("fires"),
                        )
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    // Lineage queries over a deep chain.
    for depth in [10usize, 100] {
        let mut g = kernel();
        g.define_process(
            ProcessSpec::new("diff_chain", "diffmap")
                .arg("a", "diffmap")
                .arg("b", "raster")
                .template(Template {
                    assertions: vec![],
                    mappings: vec![Mapping {
                        attr: "data".into(),
                        expr: Expr::apply(
                            "img_diff",
                            vec![Expr::proj("a", "data"), Expr::proj("b", "data")],
                        ),
                    }],
                }),
        )
        .expect("process");
        let r0 = g
            .insert_object("raster", vec![("data", Value::image(image(8, 1)))])
            .expect("insert");
        let r1 = g
            .insert_object("raster", vec![("data", Value::image(image(8, 2)))])
            .expect("insert");
        let mut last = g
            .run_process("diff", &[("a", vec![r0]), ("b", vec![r1])])
            .expect("fires")
            .outputs[0];
        for _ in 1..depth {
            last = g
                .run_process("diff_chain", &[("a", vec![last]), ("b", vec![r1])])
                .expect("fires")
                .outputs[0];
        }
        group.bench_with_input(BenchmarkId::new("lineage_tree", depth), &depth, |bch, _| {
            bch.iter(|| black_box(g.lineage(last).expect("tree")))
        });
        group.bench_with_input(BenchmarkId::new("ancestors", depth), &depth, |bch, _| {
            bch.iter(|| black_box(g.ancestors(last).expect("set")))
        });
        // Staleness classification over the same chain: one version
        // comparison per ancestor task (the MVCC fingerprint check).
        group.bench_with_input(BenchmarkId::new("is_stale", depth), &depth, |bch, _| {
            bch.iter(|| black_box(g.is_stale(last)))
        });
        group.bench_with_input(
            BenchmarkId::new("staleness_report", depth),
            &depth,
            |bch, _| bch.iter(|| black_box(g.staleness_report(last).expect("report"))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
