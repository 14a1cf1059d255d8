//! Experiment Q8 — §2.1.5 step 2: "interpolation can be used in many
//! situations where data are missing. It is a generic derivation process
//! which is applicable to many data types in many domains."
//!
//! Accuracy and behaviour of temporal interpolation on NDVI-like seasonal
//! series: error grows with snapshot gap, exact at snapshots, never
//! extrapolates, and the kernel path records interpolations as tasks that
//! replay faithfully.

use gaea::adt::{AbsTime, GeoBox, Image, TypeTag, Value};
use gaea::core::kernel::{ClassSpec, Gaea, ProcessSpec};
use gaea::core::task::TaskKind;
use gaea::core::template::{Expr, Mapping, Template};
use gaea::core::{Query, QueryMethod, QueryStrategy};
use gaea::raster::interp::temporal_interp;

const SPATIAL: &str = "spatialextent";
const TEMPORAL: &str = "timestamp";
const DAY: i64 = 86_400;

fn africa() -> GeoBox {
    GeoBox::new(-20.0, -35.0, 55.0, 38.0)
}

/// A seasonal NDVI-ish signal: smooth sinusoid over the year, per-pixel
/// phase offset so the field is not constant.
fn seasonal_value(pixel: usize, day: f64) -> f64 {
    let phase = pixel as f64 * 0.1;
    0.4 + 0.3 * ((day / 365.0) * std::f64::consts::TAU + phase).sin()
}

fn seasonal_image(rows: u32, cols: u32, day: f64) -> Image {
    let data: Vec<f64> = (0..(rows * cols) as usize)
        .map(|p| seasonal_value(p, day))
        .collect();
    Image::from_f64(rows, cols, data).unwrap()
}

fn ndvi_kernel(snapshot_days: &[i64]) -> Gaea {
    let mut g = Gaea::in_memory();
    g.define_class(ClassSpec::base("ndvi").attr("data", TypeTag::Image))
        .unwrap();
    for &d in snapshot_days {
        g.insert_object(
            "ndvi",
            vec![
                ("data", Value::image(seasonal_image(8, 8, d as f64))),
                (SPATIAL, Value::GeoBox(africa())),
                (TEMPORAL, Value::AbsTime(AbsTime(d * DAY))),
            ],
        )
        .unwrap();
    }
    g
}

/// Mean absolute interpolation error at mid-gap for a given snapshot gap.
fn midgap_error(gap_days: i64) -> f64 {
    let e = seasonal_image(8, 8, 0.0);
    let l = seasonal_image(8, 8, gap_days as f64);
    let mid = gap_days as f64 / 2.0;
    let out = temporal_interp(
        &e,
        AbsTime(0),
        &l,
        AbsTime(gap_days * DAY),
        AbsTime((mid * DAY as f64) as i64),
    )
    .unwrap();
    let mut err = 0.0;
    for p in 0..out.len() {
        err += (out.get_flat(p) - seasonal_value(p, mid)).abs();
    }
    err / out.len() as f64
}

#[test]
fn error_grows_with_snapshot_gap() {
    // Denser archives interpolate better — the quantitative basis for
    // "interpolate before deriving" when snapshots are dense.
    let e7 = midgap_error(7);
    let e30 = midgap_error(30);
    let e90 = midgap_error(90);
    assert!(e7 < e30 && e30 < e90, "{e7} {e30} {e90}");
    // Weekly snapshots of a seasonal signal interpolate almost exactly.
    assert!(e7 < 1e-3, "weekly gap error {e7}");
    // Quarterly snapshots are visibly wrong.
    assert!(e90 > 0.01, "quarterly gap error {e90}");
}

#[test]
fn exact_at_snapshots_and_never_extrapolates() {
    let e = seasonal_image(4, 4, 0.0);
    let l = seasonal_image(4, 4, 30.0);
    // Exact at the bracketing instants.
    let at0 = temporal_interp(&e, AbsTime(0), &l, AbsTime(30 * DAY), AbsTime(0)).unwrap();
    assert_eq!(at0, e);
    // Outside the bracket: refused, not extrapolated.
    assert!(temporal_interp(&e, AbsTime(0), &l, AbsTime(30 * DAY), AbsTime(-DAY)).is_err());
    assert!(temporal_interp(&e, AbsTime(0), &l, AbsTime(30 * DAY), AbsTime(31 * DAY)).is_err());
    // Degenerate bracket (equal timestamps) is refused.
    assert!(temporal_interp(&e, AbsTime(0), &l, AbsTime(0), AbsTime(0)).is_err());
}

#[test]
fn kernel_interpolates_between_stored_snapshots() {
    let mut g = ndvi_kernel(&[0, 30]);
    let q = Query::class("ndvi").over(africa()).at(AbsTime(15 * DAY));
    let out = g.query(&q).unwrap();
    assert_eq!(out.method, QueryMethod::Interpolated);
    let obj = &out.objects[0];
    assert_eq!(obj.timestamp(), Some(AbsTime(15 * DAY)));
    // The interpolation was recorded as a task with the target instant.
    let task = g.task(out.tasks[0]).unwrap().clone();
    assert_eq!(task.kind, TaskKind::Interpolation);
    assert_eq!(task.params["at"], Value::AbsTime(AbsTime(15 * DAY)));
    // It replays faithfully in an experiment.
    g.record_experiment("interp_mid", "mid-month NDVI", vec![task.id])
        .unwrap();
    assert!(g.reproduce_experiment("interp_mid").unwrap().is_faithful());
    // And the interpolated object now answers retrieval directly.
    let again = g.query(&q).unwrap();
    assert_eq!(again.method, QueryMethod::Retrieved);
}

#[test]
fn kernel_refuses_interpolation_outside_the_archive() {
    let mut g = ndvi_kernel(&[0, 30]);
    // Before the first snapshot: no bracket, nothing to derive either.
    let q = Query::class("ndvi").over(africa()).at(AbsTime(-10 * DAY));
    assert!(g.query(&q).is_err());
    // After the last snapshot likewise.
    let q = Query::class("ndvi").over(africa()).at(AbsTime(45 * DAY));
    assert!(g.query(&q).is_err());
}

/// Regression: interpolating a *base* class registers an interpolation
/// process whose output is base data. The derivation net must leave it
/// out; it used to panic on the next planned derivation.
#[test]
fn deriving_after_interpolating_a_base_class() {
    let mut g = ndvi_kernel(&[0, 30]);
    g.define_class(ClassSpec::derived("ndvi_copy").attr("data", TypeTag::Image))
        .unwrap();
    let copy = |attr: &str| Mapping {
        attr: attr.into(),
        expr: Expr::proj("src", attr),
    };
    g.define_process(
        ProcessSpec::new("P_copy", "ndvi_copy")
            .arg("src", "ndvi")
            .template(Template {
                assertions: vec![],
                mappings: vec![copy("data"), copy(SPATIAL), copy(TEMPORAL)],
            }),
    )
    .unwrap();
    let interpolate = Query::class("ndvi")
        .over(africa())
        .at(AbsTime(15 * DAY))
        .with_strategy(QueryStrategy::PreferInterpolation);
    assert_eq!(
        g.query(&interpolate).unwrap().method,
        QueryMethod::Interpolated
    );
    let derive = Query::class("ndvi_copy")
        .over(africa())
        .at(AbsTime(30 * DAY))
        .with_strategy(QueryStrategy::PreferDerivation);
    assert_eq!(g.query(&derive).unwrap().method, QueryMethod::Derived);
    let net = g.derivation_net();
    let interp = g.catalog().process_by_name("interpolate_ndvi").unwrap().id;
    assert!(!net.transition_of.contains_key(&interp));
}

#[test]
fn nearest_bracket_is_used() {
    // With snapshots at days 0, 10, 40: day 12 must interpolate between
    // 10 and 40 (the tightest bracket), not 0 and 40.
    let mut g = ndvi_kernel(&[0, 10, 40]);
    let q = Query::class("ndvi").over(africa()).at(AbsTime(12 * DAY));
    let out = g.query(&q).unwrap();
    assert_eq!(out.method, QueryMethod::Interpolated);
    let task = g.task(out.tasks[0]).unwrap();
    let earlier = g.object(task.inputs["earlier"][0]).unwrap();
    let later = g.object(task.inputs["later"][0]).unwrap();
    assert_eq!(earlier.timestamp(), Some(AbsTime(10 * DAY)));
    assert_eq!(later.timestamp(), Some(AbsTime(40 * DAY)));
}
