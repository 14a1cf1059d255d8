//! Concurrency properties of the kernel.
//!
//! The paper's data-sharing goal implies several scientists reading one
//! catalog at once. These tests pin down what the kernel guarantees:
//! `Gaea` is `Send + Sync` (all operator and site callbacks are), shared
//! read-only access from many threads is safe, and derivation is
//! deterministic across threads — two scientists running the identical
//! task on identical inputs obtain value-identical objects.

use gaea::adt::{AbsTime, GeoBox, Value};
use gaea::core::kernel::Gaea;
use gaea::core::{Query, QueryMethod, QueryStrategy};
use gaea::lang::{lower_program, parse};
use gaea::workload::{SceneSpec, SyntheticScene};
use std::sync::Arc;

const SPATIAL: &str = "spatialextent";
const TEMPORAL: &str = "timestamp";

const SCHEMA: &str = r#"
CLASS tm (
  ATTRIBUTES: data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
CLASS landcover (
  ATTRIBUTES:
    data = image;
    numclass = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: P20
)
DEFINE PROCESS P20 (
  OUTPUT landcover
  ARGUMENT ( SETOF bands tm )
  TEMPLATE {
    ASSERTIONS:
      card(bands) = 3;
      common(bands.timestamp);
    MAPPINGS:
      landcover.data = unsuperclassify(composite(bands), 12);
      landcover.numclass = 12;
      landcover.spatialextent = ANYOF bands.spatialextent;
      landcover.timestamp = ANYOF bands.timestamp;
  }
)
"#;

fn africa() -> GeoBox {
    GeoBox::new(-20.0, -35.0, 55.0, 38.0)
}

fn jan86() -> AbsTime {
    AbsTime::from_ymd(1986, 1, 15).unwrap()
}

fn loaded_kernel(seed: u64) -> Gaea {
    let mut g = Gaea::in_memory();
    lower_program(&mut g, &parse(SCHEMA).unwrap()).unwrap();
    let scene = SyntheticScene::generate(SceneSpec::small(seed).sized(16, 16));
    for b in &scene.bands {
        g.insert_object(
            "tm",
            vec![
                ("data", Value::image(b.clone())),
                (SPATIAL, Value::GeoBox(africa())),
                (TEMPORAL, Value::AbsTime(jan86())),
            ],
        )
        .unwrap();
    }
    g
}

#[test]
fn kernel_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Gaea>();
    assert_send_sync::<gaea::core::ExternalRegistry>();
    assert_send_sync::<gaea::adt::OperatorRegistry>();
}

#[test]
fn shared_readers_across_threads() {
    let mut g = loaded_kernel(5);
    // Materialize the derivation once, then share read-only.
    let q = Query::class("landcover")
        .at(jan86())
        .with_strategy(QueryStrategy::PreferDerivation);
    let out = g.query(&q).unwrap();
    assert_eq!(out.method, QueryMethod::Derived);
    let derived = out.objects[0].id;
    let g = Arc::new(g);
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..8 {
            let g = Arc::clone(&g);
            handles.push(s.spawn(move || {
                // Concurrent lineage walks, catalog browsing and object
                // loads over the shared kernel.
                let tree = g.lineage(derived).unwrap();
                assert_eq!(tree.size(), 4);
                let obj = g.object(derived).unwrap();
                assert_eq!(obj.attr("numclass"), Some(&Value::Int4(12)));
                let ddl = g.describe();
                assert!(ddl.contains("P20"));
                g.derivation_net().net.place_count()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 2);
        }
    });
}

#[test]
fn derivation_is_deterministic_across_threads() {
    // Four independent kernels on four threads, identical base data:
    // value-identical derived objects (the reproducibility requirement —
    // the classifier is seeded, the planner deterministic).
    let images: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut g = loaded_kernel(99);
                    let q = Query::class("landcover")
                        .at(jan86())
                        .with_strategy(QueryStrategy::PreferDerivation);
                    let out = g.query(&q).unwrap();
                    out.objects[0].attr("data").unwrap().clone()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for w in images.windows(2) {
        assert_eq!(w[0], w[1], "derivations diverged across threads");
    }
}
