//! Experiment F2 — Figure 2, the three semantic layers.
//!
//! The figure's structure is reproduced programmatically by
//! `gaea_workload::build_figure2_schema`; these tests verify the layer
//! *relationships* the figure draws: concepts expand to class sets
//! (dashed lines), classes link to processes (derivation layer), processes
//! decompose into operators (system layer).

use gaea::adt::{AbsTime, GeoBox, Image, Value};
use gaea::core::kernel::Gaea;
use gaea::core::{Query, QueryMethod, QueryStrategy};
use gaea::workload::{build_figure2_schema, ndvi_series, SceneSpec, SyntheticScene};

fn kernel() -> Gaea {
    let mut g = Gaea::in_memory().with_user("figure2");
    build_figure2_schema(&mut g).unwrap();
    g
}

#[test]
fn high_level_layer_concept_dag() {
    let g = kernel();
    // The desert specialization hierarchy of the figure.
    let desert = g.catalog().concept_by_name("desert").unwrap();
    let children = g.catalog().concept_children(desert.id);
    let names: Vec<&str> = children.iter().map(|c| c.name.as_str()).collect();
    assert!(names.contains(&"hot_trade_wind_desert"));
    assert!(names.contains(&"ice_snow_desert"));
    // Hot trade-wind desert expands to a set of classes (the dashed
    // mapping into the derivation layer: {C2, C3, C4, C5}).
    let members = g
        .catalog()
        .concept_member_classes("hot_trade_wind_desert")
        .unwrap();
    assert_eq!(members.len(), 4);
    // NDVI maps to {C6} and vegetation change to {C7, C8}.
    assert_eq!(
        g.catalog()
            .concept_member_classes("ndvi_concept")
            .unwrap()
            .len(),
        1
    );
    assert_eq!(
        g.catalog()
            .concept_member_classes("vegetation_change")
            .unwrap()
            .len(),
        2
    );
}

#[test]
fn derivation_layer_links_classes_to_processes() {
    let g = kernel();
    // Every derived class is reachable from some process output (the
    // figure's solid arrows); every member of the hot desert concept has a
    // distinct derivation.
    let mut producing: Vec<String> = Vec::new();
    for class in g
        .catalog()
        .concept_member_classes("hot_trade_wind_desert")
        .unwrap()
    {
        assert!(
            !class.derived_by.is_empty(),
            "{} must be derived",
            class.name
        );
        for p in &class.derived_by {
            producing.push(g.catalog().process(*p).unwrap().name.clone());
        }
    }
    producing.sort();
    producing.dedup();
    assert_eq!(
        producing.len(),
        4,
        "four distinct derivations: {producing:?}"
    );
}

#[test]
fn system_layer_operators_back_the_processes() {
    let g = kernel();
    // P7 applies the compound pca operator; its network decomposes into the
    // Figure 4 primitives, all registered in the system layer.
    let p7 = g.catalog().process_by_name("P7_pca_change").unwrap();
    let uses_pca = p7
        .template
        .mappings
        .iter()
        .any(|m| m.expr.to_string().contains("pca("));
    assert!(uses_pca, "P7 maps through the pca operator");
    let pca = g.registry().get("pca").unwrap();
    assert!(pca.is_compound(), "pca is a compound operator (Figure 4)");
    for primitive in [
        "convert_image_matrix",
        "compute_covariance",
        "get_eigen_vectors",
        "linear_combination",
        "convert_matrix_image",
    ] {
        assert!(g.registry().contains(primitive), "{primitive} registered");
    }
}

#[test]
fn figure2_vegetation_change_derives_both_ways() {
    // The concept's two realizations both derive from the same NDVI data,
    // and the derivation layer keeps them apart.
    let mut g = kernel();
    let africa = GeoBox::new(-20.0, -35.0, 55.0, 38.0);
    let series = ndvi_series(16, 16, 4, AbsTime::from_ymd(1988, 1, 1).unwrap(), -0.1, 3);
    for (t, img) in &series[..2] {
        g.insert_object(
            "ndvi",
            vec![
                ("data", Value::image(img.clone())),
                ("spatialextent", Value::GeoBox(africa)),
                ("timestamp", Value::AbsTime(*t)),
            ],
        )
        .unwrap();
    }
    let ndvi_objs = g.objects_of("ndvi").unwrap();
    let a = g
        .run_process("P7_pca_change", &[("series", ndvi_objs.clone())])
        .unwrap();
    let b = g
        .run_process("P8_spca_change", &[("series", ndvi_objs)])
        .unwrap();
    assert!(!g.same_derivation(a.outputs[0], b.outputs[0]).unwrap());
    assert_eq!(
        g.ancestors(a.outputs[0]).unwrap(),
        g.ancestors(b.outputs[0]).unwrap(),
        "same conceptual outcome from the same data (Eastman comparison)"
    );
}

#[test]
fn concept_query_falls_back_across_members() {
    // Querying the vegetation_change concept with only NDVI stored must
    // derive through one of the member classes.
    let mut g = kernel();
    let africa = GeoBox::new(-20.0, -35.0, 55.0, 38.0);
    let series = ndvi_series(12, 12, 4, AbsTime::from_ymd(1988, 1, 1).unwrap(), -0.1, 9);
    for (t, img) in &series[..3] {
        g.insert_object(
            "ndvi",
            vec![
                ("data", Value::image(img.clone())),
                ("spatialextent", Value::GeoBox(africa)),
                ("timestamp", Value::AbsTime(*t)),
            ],
        )
        .unwrap();
    }
    let outcome = g
        .query(
            &Query::concept("vegetation_change")
                .over(africa)
                .with_strategy(QueryStrategy::PreferDerivation),
        )
        .unwrap();
    assert_eq!(outcome.method, QueryMethod::Derived);
    assert!(!outcome.objects.is_empty());
    let img: &Image = outcome.objects[0].attr("data").unwrap().as_image().unwrap();
    assert_eq!((img.nrow(), img.ncol()), (12, 12));
}

/// Three raw `landsat_tm` bands of one synthetic scene, stored at `t`.
fn insert_tm_scene(g: &mut Gaea, seed: u64, window: GeoBox, t: AbsTime) {
    let scene = SyntheticScene::generate(SceneSpec::small(seed).sized(16, 16));
    for band in &scene.bands {
        g.insert_object(
            "landsat_tm",
            vec![
                ("data", Value::image(band.clone())),
                ("spatialextent", Value::GeoBox(window)),
                ("timestamp", Value::AbsTime(t)),
            ],
        )
        .unwrap();
    }
}

#[test]
fn a_second_instant_derives_from_its_own_raw_bands() {
    // Raw bands at two instants; land cover derived at the first. The
    // rectified bands stored at t1 must not make a P20-only plan look
    // fireable for t2: the planner counts the query's instant, so t2
    // rectifies its own raw bands first and classifies those.
    let mut g = kernel();
    let window = GeoBox::new(-20.0, -35.0, 55.0, 38.0);
    let t1 = AbsTime::from_ymd(1986, 1, 15).unwrap();
    let t2 = AbsTime::from_ymd(1986, 2, 15).unwrap();
    insert_tm_scene(&mut g, 11, window, t1);
    insert_tm_scene(&mut g, 12, window, t2);
    let land_cover_at = |t| {
        Query::class("land_cover")
            .over(window)
            .at(t)
            .with_strategy(QueryStrategy::PreferDerivation)
    };
    let first = g.query(&land_cover_at(t1)).unwrap();
    assert_eq!(first.method, QueryMethod::Derived);
    assert_eq!(first.tasks.len(), 4, "3 × P1 + P20 at t1");

    let second = g.query(&land_cover_at(t2)).unwrap();
    assert_eq!(second.method, QueryMethod::Derived);
    let mut fired: Vec<String> = second
        .tasks
        .iter()
        .map(|t| g.task(*t).unwrap().process_name.clone())
        .collect();
    fired.sort();
    assert_eq!(
        fired,
        [
            "P1_rectify",
            "P1_rectify",
            "P1_rectify",
            "P20_unsupervised_classification"
        ]
    );
    assert!(
        second.tasks.iter().all(|t| !first.tasks.contains(t)),
        "every t2 task is new"
    );
    assert_eq!(second.objects.len(), 1);
    assert_eq!(second.objects[0].timestamp(), Some(t2));
}
