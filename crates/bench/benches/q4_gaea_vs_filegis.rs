//! Experiment Q4 — Gaea vs the file-based baseline (§4.1 vs §4.2).
//!
//! The paper's architectural argument, quantified: provenance lookup in
//! Gaea is a task-record query, in the baseline a transcript scan; full
//! lineage is a tree walk vs repeated scans; re-derivation in Gaea is
//! task-grained while the baseline replays the whole transcript. Expected
//! shape: the baseline's provenance costs grow linearly with history
//! length while Gaea's stay flat-ish; replay is strictly coarser.

use gaea_adt::{Image, TypeTag, Value};
use gaea_baseline::FileGis;
use gaea_bench::{bench, bench_batched};
use gaea_core::kernel::{ClassSpec, Gaea, ProcessSpec};
use gaea_core::template::{Expr, Mapping, Template};
use gaea_core::ObjectId;

fn raster(seed: u64) -> Image {
    let data: Vec<f64> = (0..64)
        .map(|i| ((i as u64 * 31 + seed * 17) % 251) as f64)
        .collect();
    Image::from_f64(8, 8, data).expect("sized")
}

/// Build a history of `n` chained diff derivations in the baseline.
fn baseline_history(n: usize, tag: &str) -> FileGis {
    let dir = std::env::temp_dir().join(format!("gaea-q4-{tag}-{n}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gis = FileGis::open(&dir).expect("open");
    gis.put_raster("r0", &raster(0)).expect("put");
    gis.put_raster("r1", &raster(1)).expect("put");
    for i in 0..n {
        let out = format!("d{i}");
        let (a, b) = if i == 0 {
            ("r0".to_string(), "r1".to_string())
        } else {
            (format!("d{}", i - 1), "r1".to_string())
        };
        gis.run("diff", &[&a, &b], &out).expect("run");
    }
    gis
}

/// The same history in Gaea: n chained diff tasks.
fn gaea_history(n: usize) -> (Gaea, ObjectId) {
    let mut g = Gaea::in_memory().with_user("q4");
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
    for (name, first_class) in [("diff_base", "raster"), ("diff_chain", "diffmap")] {
        g.define_process(
            ProcessSpec::new(name, "diffmap")
                .arg("a", first_class)
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
    }
    let r0 = g
        .insert_object("raster", vec![("data", Value::image(raster(0)))])
        .expect("insert");
    let r1 = g
        .insert_object("raster", vec![("data", Value::image(raster(1)))])
        .expect("insert");
    let mut last = g
        .run_process("diff_base", &[("a", vec![r0]), ("b", vec![r1])])
        .expect("fires")
        .outputs[0];
    for _ in 1..n {
        last = g
            .run_process("diff_chain", &[("a", vec![last]), ("b", vec![r1])])
            .expect("fires")
            .outputs[0];
    }
    (g, last)
}

fn main() {
    for n in [10usize, 100, 1000] {
        let gis = baseline_history(n, "prov");
        let newest = format!("d{}", n - 1);
        bench(&format!("baseline_provenance_one/{n}"), || {
            gis.provenance(&newest).expect("scan").expect("hit")
        });
        bench(&format!("baseline_provenance_tree/{n}"), || {
            gis.provenance_tree(&newest).expect("scan")
        });
        let (g, last) = gaea_history(n);
        bench(&format!("gaea_provenance_one/{n}"), || {
            g.catalog().producing_task(last).expect("recorded").id
        });
        bench(&format!("gaea_provenance_tree/{n}"), || {
            g.lineage(last).expect("tree")
        });
        // Reproduction: Gaea replays ONE task; the baseline can only
        // replay the whole transcript.
        bench_batched(
            &format!("gaea_reproduce_one/{n}"),
            || {
                let (mut g, last) = gaea_history(n);
                let task = g.catalog().producing_task(last).expect("recorded").id;
                g.record_experiment("e", "bench", vec![task]).expect("exp");
                g
            },
            |g| g.reproduce_experiment("e").expect("ok"),
        );
        bench_batched(
            &format!("baseline_replay_all/{n}"),
            || {
                let src = baseline_history(n, "replay-src");
                let dst_dir = std::env::temp_dir()
                    .join(format!("gaea-q4-replay-dst-{n}-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dst_dir);
                (src, FileGis::open(&dst_dir).expect("open"))
            },
            |(src, dst)| src.replay(&dst).expect("replays"),
        );
    }
}
