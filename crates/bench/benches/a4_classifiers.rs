//! Ablation A4 — supervised vs unsupervised classification cost.
//!
//! Backing the §4.3 interactive-process extension: supervised
//! classification needs a scientist (training signatures) but is a single
//! pass over the pixels, while unsupervised k-means needs nobody but
//! iterates to convergence. The sweep quantifies that trade so the
//! EXPERIMENTS.md discussion of "what the interaction buys" has numbers:
//! the interactive path's *computation* is cheaper; its cost is the
//! scientist, which is exactly why the answers must be recorded for
//! reproduction.

use gaea_bench::bench;
use gaea_raster::classify::kmeans_classify;
use gaea_raster::composite::composite;
use gaea_raster::supervised::{
    min_distance_classify, parallelepiped_classify, signatures_from_training, training_boxes,
    TrainingSite,
};
use gaea_workload::{SceneSpec, SyntheticScene};

fn main() {
    for side in [32u32, 64, 128] {
        let scene = SyntheticScene::generate(SceneSpec::small(4).sized(side, side));
        let refs: Vec<&gaea_adt::Image> = scene.bands.iter().collect();
        let stack = composite(&refs).expect("co-registered bands");
        let k = scene.spec.classes;
        // Training sites: 16 pixels per true class.
        let mut sites: Vec<TrainingSite> = (0..k).map(|c| TrainingSite::new(c, vec![])).collect();
        for (p, label) in scene.truth.iter().enumerate() {
            if sites[*label as usize].pixels.len() < 16 {
                sites[*label as usize].pixels.push(p);
            }
        }
        let signatures = signatures_from_training(&stack, k, &sites).expect("signatures");
        let (lo, hi) = training_boxes(&stack, k, &sites, 3.0).expect("boxes");

        bench(&format!("unsupervised_kmeans/{side}"), || {
            kmeans_classify(&stack, k, 100, 0x6AEA).expect("kmeans")
        });
        bench(&format!("supervised_mindist/{side}"), || {
            min_distance_classify(&stack, &signatures).expect("mindist")
        });
        bench(&format!("supervised_piped/{side}"), || {
            parallelepiped_classify(&stack, &lo, &hi).expect("piped")
        });
        // The signature-extraction step itself (the scientist's answer
        // turned into numbers) is trivial next to any classification.
        bench(&format!("signature_extraction/{side}"), || {
            signatures_from_training(&stack, k, &sites).expect("sig")
        });
    }
}
