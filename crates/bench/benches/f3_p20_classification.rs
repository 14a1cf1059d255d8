//! Experiment F3 — Figure 3's P20 (unsupervised classification) end to end.
//!
//! Sweeps raster size for the full process firing (template evaluation +
//! k-means + task recording) and isolates the assertion-checking guard
//! cost. Expected shape: cost scales ~linearly in pixel count; the guard
//! (card/common checks) is a negligible constant.

use gaea_bench::{bench, bench_batched, figure2_kernel, jan86, store_scene};
use gaea_core::template::{Binding, EvalContext};
use gaea_raster::{composite, kmeans_classify};
use gaea_workload::{SceneSpec, SyntheticScene};

fn main() {
    for side in [16u32, 32, 64, 96] {
        let pixels = side * side;
        // Full kernel path: P20 as a recorded task.
        bench_batched(
            &format!("task_p20/{pixels}"),
            || {
                let mut g = figure2_kernel();
                let bands = store_scene(&mut g, "rectified_tm", 7, side, jan86());
                (g, bands)
            },
            |(mut g, bands)| {
                g.run_process("P20_unsupervised_classification", &[("bands", bands)])
                    .expect("p20 fires")
            },
        );
        // Bare algorithm: the k-means kernel without any metadata
        // machinery (the overhead baseline).
        let scene = SyntheticScene::generate(SceneSpec::small(7).sized(side, side));
        let refs: Vec<&gaea_adt::Image> = scene.bands.iter().collect();
        let stack = composite(&refs).expect("co-registered");
        bench(&format!("bare_kmeans/{pixels}"), || {
            kmeans_classify(&stack, 12, 100, 0x6AEA).expect("ok")
        });
    }
    // Guard cost in isolation: evaluate the P20 assertions on a bound
    // context without running the mappings.
    let mut g = figure2_kernel();
    let bands = store_scene(&mut g, "rectified_tm", 3, 32, jan86());
    let def = g
        .catalog()
        .process_by_name("P20_unsupervised_classification")
        .expect("ok")
        .clone();
    let loaded: Vec<gaea_core::DataObject> =
        bands.iter().map(|o| g.object(*o).expect("ok")).collect();
    let mut bound = std::collections::BTreeMap::new();
    bound.insert("bands".to_string(), Binding::Many(loaded));
    bench("assertions_only", || {
        let ctx = EvalContext {
            bindings: &bound,
            registry: g.registry(),
            params: &gaea_core::template::NO_PARAMS,
        };
        ctx.check_assertions(&def.name, &def.template)
            .expect("pass")
    });
    // The k parameter from the paper's template (12) versus alternatives.
    let scene = SyntheticScene::generate(SceneSpec::small(9).sized(32, 32));
    let refs: Vec<&gaea_adt::Image> = scene.bands.iter().collect();
    let stack = composite(&refs).expect("ok");
    for k in [4usize, 12, 24] {
        bench(&format!("k_sweep_32x32/{k}"), || {
            kmeans_classify(&stack, k, 100, 0x6AEA).expect("ok")
        });
    }
}
