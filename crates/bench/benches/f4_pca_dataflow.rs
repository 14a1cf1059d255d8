//! Experiment F4 — Figure 4's PCA compound-operator network.
//!
//! Compares the dataflow-network execution of `pca` against the fused
//! library implementation (network overhead should be a small constant),
//! sweeps band count and raster size, and measures SPCA alongside.

use gaea_adt::{Image, OperatorRegistry, Value};
use gaea_bench::bench;
use gaea_raster::{pca, register_raster_ops, spca};
use gaea_workload::{SceneSpec, SyntheticScene};

fn registry() -> OperatorRegistry {
    let mut r = OperatorRegistry::with_builtins();
    register_raster_ops(&mut r).expect("ok");
    r
}

fn scene_value(bands: usize, side: u32, seed: u64) -> (SyntheticScene, Value) {
    let scene =
        SyntheticScene::generate(SceneSpec::small(seed).sized(side, side).with_bands(bands));
    let v = Value::Set(scene.bands.iter().cloned().map(Value::image).collect());
    (scene, v)
}

fn main() {
    let r = registry();
    // Size sweep at 3 bands: network vs fused.
    for side in [16u32, 32, 64] {
        let (scene, input) = scene_value(3, side, 5);
        let pixels = side * side;
        bench(&format!("network_pca_3band/{pixels}"), || {
            r.invoke("pca", std::slice::from_ref(&input)).expect("ok")
        });
        bench(&format!("fused_pca_3band/{pixels}"), || {
            let refs: Vec<&Image> = scene.bands.iter().collect();
            pca(&refs).expect("ok")
        });
    }
    // Band sweep at 32x32.
    for bands in [2usize, 4, 6] {
        let (scene, input) = scene_value(bands, 32, 11);
        bench(&format!("network_pca_32x32/{bands}"), || {
            r.invoke("pca", std::slice::from_ref(&input)).expect("ok")
        });
        bench(&format!("fused_spca_32x32/{bands}"), || {
            let refs: Vec<&Image> = scene.bands.iter().collect();
            spca(&refs).expect("ok")
        });
    }
}
