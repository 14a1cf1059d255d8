//! Experiment Q7 — the cost of provenance (task recording overhead).
//!
//! Compares a full kernel firing of a lightweight process (metadata
//! validation + template evaluation + object insert + task record) against
//! the bare operator call, over raster sizes. Expected shape: constant
//! per-task overhead that vanishes relative to any real analysis; lineage
//! queries over deep chains stay interactive.

use gaea_adt::{Image, TypeTag, Value};
use gaea_bench::{bench, bench_batched};
use gaea_core::kernel::{ClassSpec, Gaea, ProcessSpec};
use gaea_core::template::{Expr, Mapping, Template};
use gaea_raster::img_diff;

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

fn main() {
    for side in [8u32, 32, 128] {
        let pixels = side * side;
        let (a, b) = (image(side, 1), image(side, 2));
        // Bare algorithm.
        bench(&format!("bare_img_diff/{pixels}"), || {
            img_diff(&a, &b).expect("ok")
        });
        // Kernel task: same computation + full provenance.
        bench_batched(
            &format!("task_img_diff/{pixels}"),
            || {
                let mut g = kernel();
                let oa = g
                    .insert_object("raster", vec![("data", Value::image(image(side, 1)))])
                    .expect("insert");
                let ob = g
                    .insert_object("raster", vec![("data", Value::image(image(side, 2)))])
                    .expect("insert");
                (g, oa, ob)
            },
            |(mut g, oa, ob)| {
                g.run_process("diff", &[("a", vec![oa]), ("b", vec![ob])])
                    .expect("fires")
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
        bench(&format!("lineage_tree/{depth}"), || {
            g.lineage(last).expect("tree")
        });
        bench(&format!("ancestors/{depth}"), || {
            g.ancestors(last).expect("set")
        });
        // Staleness classification over the same chain: one version
        // comparison per ancestor task (the MVCC fingerprint check).
        bench(&format!("is_stale/{depth}"), || g.is_stale(last));
        bench(&format!("staleness_report/{depth}"), || {
            g.staleness_report(last).expect("report")
        });
    }
}
