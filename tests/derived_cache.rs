//! Derivation reuse and explicit re-firing: the two ways a repeated
//! derivation meets the recorded history.
//!
//! §2.1.1's goal — avoid unnecessary duplication of experiments — is
//! served by reusing a current recorded task wherever the kernel fires on
//! its own (queries, refreshes, background jobs) — until an input write
//! falsifies it, here or anywhere upstream. An explicit
//! `run_process` is the scientist asking for the experiment again: it
//! records a fresh task, which §4.2 duplicate detection reports, and the
//! two derivations still compare structurally equal.

use gaea::adt::{AbsTime, GeoBox, Image, PixType, TypeTag, Value};
use gaea::core::kernel::{ClassSpec, Gaea, JobStatus, ProcessSpec};
use gaea::core::template::{Expr, Mapping, Template};
use gaea::core::{ObjectId, Query, QueryStrategy};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

const SPATIAL_ATTR: &str = "spatialextent";
const TEMPORAL_ATTR: &str = "timestamp";

fn africa() -> GeoBox {
    GeoBox::new(-20.0, -35.0, 55.0, 38.0)
}

fn day(y: i64, m: u32, d: u32) -> AbsTime {
    AbsTime::from_ymd(y, m, d).unwrap()
}

/// The `derive_tasks_examined` counter is process-wide: every test here
/// whose kernel fires automatically holds this lock, so a test reading
/// the counter sees its own work only.
fn counter_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The Figure 3 schema: tm (base) --P20--> landcover.
fn p20_kernel() -> Gaea {
    let mut g = Gaea::in_memory();
    g.define_class(ClassSpec::base("tm").attr("data", TypeTag::Image))
        .unwrap();
    g.define_class(
        ClassSpec::derived("landcover")
            .attr("data", TypeTag::Image)
            .attr("numclass", TypeTag::Int4),
    )
    .unwrap();
    let template = Template {
        assertions: vec![
            Expr::eq(
                Expr::Card(Box::new(Expr::Arg("bands".into()))),
                Expr::int(3),
            ),
            Expr::Common(Box::new(Expr::proj("bands", "timestamp"))),
        ],
        mappings: vec![
            Mapping {
                attr: "data".into(),
                expr: Expr::apply(
                    "unsuperclassify",
                    vec![
                        Expr::apply("composite", vec![Expr::Arg("bands".into())]),
                        Expr::int(12),
                    ],
                ),
            },
            Mapping {
                attr: "numclass".into(),
                expr: Expr::int(12),
            },
            Mapping {
                attr: SPATIAL_ATTR.into(),
                expr: Expr::AnyOf(Box::new(Expr::proj("bands", "spatialextent"))),
            },
            Mapping {
                attr: TEMPORAL_ATTR.into(),
                expr: Expr::AnyOf(Box::new(Expr::proj("bands", "timestamp"))),
            },
        ],
    };
    g.define_process(
        ProcessSpec::new("P20", "landcover")
            .setof_arg("bands", "tm", 3)
            .template(template),
    )
    .unwrap();
    g
}

fn insert_band(g: &mut Gaea, fill: f64, t: AbsTime) -> ObjectId {
    g.insert_object(
        "tm",
        vec![
            (
                "data",
                Value::image(Image::filled(8, 8, PixType::Float8, fill)),
            ),
            (SPATIAL_ATTR, Value::GeoBox(africa())),
            (TEMPORAL_ATTR, Value::AbsTime(t)),
        ],
    )
    .unwrap()
}

#[test]
fn cache_disabled_by_default_preserves_duplicate_detection() {
    let mut g = p20_kernel();
    let t0 = day(1986, 1, 15);
    let bands: Vec<ObjectId> = (0..3).map(|i| insert_band(&mut g, i as f64, t0)).collect();
    let first = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    let second = g.run_process("P20", &[("bands", bands)]).unwrap();
    // Every explicit firing records a task; §4.2 duplicate detection
    // reports the pair.
    assert_ne!(second.task, first.task);
    assert_eq!(g.duplicate_tasks().len(), 1);
}

#[test]
fn setof_dedup_key_agrees_with_cache_canonical_form() {
    // A permuted SETOF binding is the same derivation for the §4.2
    // duplicate detector, exactly as derivation reuse treats it.
    let mut g = p20_kernel();
    let t0 = day(1986, 1, 15);
    let bands: Vec<ObjectId> = (0..3).map(|i| insert_band(&mut g, i as f64, t0)).collect();
    g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    let mut permuted = bands;
    permuted.rotate_left(1);
    g.run_process("P20", &[("bands", permuted)]).unwrap();
    let dups = g.duplicate_tasks();
    assert_eq!(dups.len(), 1, "permuted SETOF bindings are one derivation");
    assert_eq!(dups[0].len(), 2);
}

#[test]
fn input_update_invalidates_dependent_entries() {
    let _counter = counter_lock();
    let mut g = p20_kernel();
    let t0 = day(1986, 1, 15);
    let bands: Vec<ObjectId> = (0..3).map(|i| insert_band(&mut g, i as f64, t0)).collect();
    let q = Query::class("landcover")
        .over(africa())
        .at(t0)
        .with_strategy(QueryStrategy::PreferDerivation);
    let first = g.query(&q).unwrap();
    let task = first.tasks[0];
    let job = g.submit_derivation(&q).unwrap();
    assert_eq!(g.job_status(job).unwrap(), JobStatus::Done(task));

    // Mutate one input band in place: the recorded derivation no longer
    // answers, so the resubmission fires afresh (new task, new object).
    g.update_object(
        bands[0],
        vec![(
            "data",
            Value::image(Image::filled(8, 8, PixType::Float8, 99.0)),
        )],
    )
    .unwrap();
    let job = g.submit_derivation(&q).unwrap();
    let JobStatus::Done(second) = g.await_job(job, Duration::from_secs(10)).unwrap() else {
        panic!("the fresh job must commit");
    };
    assert_ne!(second, task, "a stale derivation was reused");
    assert_ne!(g.task(second).unwrap().outputs[0], first.objects[0].id);

    // The fresh derivation now answers in its place.
    let job = g.submit_derivation(&q).unwrap();
    assert_eq!(g.job_status(job).unwrap(), JobStatus::Done(second));
}

#[test]
fn invalidation_propagates_to_downstream_derivations() {
    let _counter = counter_lock();
    let mut g = p20_kernel();
    // A second derivation level: landcover --REFINE--> refined.
    g.define_class(ClassSpec::derived("refined").attr("numclass", TypeTag::Int4))
        .unwrap();
    g.define_process(
        ProcessSpec::new("REFINE", "refined")
            .arg("src", "landcover")
            .template(Template {
                assertions: vec![],
                mappings: vec![Mapping {
                    attr: "numclass".into(),
                    expr: Expr::proj("src", "numclass"),
                }],
            }),
    )
    .unwrap();
    let t0 = day(1986, 1, 15);
    let bands: Vec<ObjectId> = (0..3).map(|i| insert_band(&mut g, i as f64, t0)).collect();
    let lc = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    let refined = g
        .run_process("REFINE", &[("src", lc.outputs.clone())])
        .unwrap();
    assert_eq!(g.refresh_object(lc.outputs[0]).unwrap().task, lc.task);
    assert_eq!(
        g.refresh_object(refined.outputs[0]).unwrap().task,
        refined.task
    );

    // Touching a base band invalidates the P20 derivation *and* the
    // REFINE derivation downstream of it: both re-fire.
    g.update_object(
        bands[1],
        vec![(
            "data",
            Value::image(Image::filled(8, 8, PixType::Float8, 42.0)),
        )],
    )
    .unwrap();
    let again = g.refresh_object(refined.outputs[0]).unwrap();
    assert_ne!(again.task, refined.task);
    let src = g.task(again.task).unwrap().inputs["src"].clone();
    assert_ne!(src, lc.outputs, "the upstream re-derived first");
    // The re-fired upstream now answers for the old landcover.
    assert_eq!(g.refresh_object(lc.outputs[0]).unwrap().outputs, src);
}

#[test]
fn same_derivation_holds_across_cached_reruns() {
    let _counter = counter_lock();
    let mut g = p20_kernel();
    let t0 = day(1986, 1, 15);
    let bands: Vec<ObjectId> = (0..3).map(|i| insert_band(&mut g, i as f64, t0)).collect();
    let q = Query::class("landcover")
        .over(africa())
        .at(t0)
        .with_strategy(QueryStrategy::PreferDerivation);
    let first = g.query(&q).unwrap();
    let (task, lc) = (first.tasks[0], first.objects[0].id);
    // Re-requesting the derivation as a background job reuses the
    // recorded task: the job is born Done with it, nothing re-fires…
    let job = g.submit_derivation(&q).unwrap();
    assert_eq!(g.job_status(job).unwrap(), JobStatus::Done(task));
    assert_eq!(g.duplicate_tasks().len(), 0);
    // …while an explicit re-firing over the same inputs records a fresh
    // task that still compares structurally equal to the reused one.
    let fresh = g.run_process("P20", &[("bands", bands)]).unwrap();
    assert_ne!(fresh.task, task);
    assert!(g.same_derivation(lc, fresh.outputs[0]).unwrap());
    let sig_a = g.lineage(lc).unwrap().signature();
    let sig_b = g.lineage(fresh.outputs[0]).unwrap().signature();
    assert_eq!(sig_a, sig_b);
}

/// `P: b → d`, one scalar argument, with `n` derivations on record, each
/// recorded by an explicit firing on its own `b` at its own day.
fn scalar_kernel(n: i64) -> Gaea {
    let mut g = Gaea::in_memory();
    g.define_class(ClassSpec::base("b").attr("v", TypeTag::Int4))
        .unwrap();
    g.define_class(ClassSpec::derived("d").attr("v", TypeTag::Int4))
        .unwrap();
    g.define_process(ProcessSpec::new("P", "d").arg("b", "b").template(Template {
        assertions: vec![],
        mappings: vec![
            Mapping {
                attr: "v".into(),
                expr: Expr::proj("b", "v"),
            },
            Mapping {
                attr: TEMPORAL_ATTR.into(),
                expr: Expr::proj("b", TEMPORAL_ATTR),
            },
        ],
    }))
    .unwrap();
    for i in 0..=n {
        let b = g
            .insert_object(
                "b",
                vec![
                    ("v", Value::Int4(i as i32)),
                    (TEMPORAL_ATTR, Value::AbsTime(day(1980, 1, 1).plus_days(i))),
                ],
            )
            .unwrap();
        if i < n {
            g.run_process("P", &[("b", vec![b])]).unwrap();
        }
    }
    g
}

/// The derivation-identity check asked before every automatic firing
/// compares full keys only with the recorded tasks whose key fingerprint
/// matches, so its work does not grow with the history: a fresh `DERIVE`
/// examines as many recorded tasks with 2 000 derivations on record as
/// with 100 (none), and re-requesting a recorded derivation examines
/// exactly the one task that answers it.
#[test]
fn derivation_identity_work_is_independent_of_history() {
    let _counter = counter_lock();
    let examined = || gaea::obs::metrics().derive_tasks_examined.get();
    let mut work = Vec::new();
    for n in [100, 2_000] {
        let mut g = scalar_kernel(n);
        let q = Query::class("d")
            .at(day(1980, 1, 1).plus_days(n))
            .with_strategy(QueryStrategy::PreferDerivation);
        let before = examined();
        let fresh = g.query(&q).unwrap();
        let fresh_work = examined() - before;
        assert_eq!(fresh.tasks.len(), 1, "the DERIVE fires once");
        assert_eq!(g.catalog().tasks.len(), n as usize + 1);

        let before = examined();
        let job = g.submit_derivation(&q).unwrap();
        assert_eq!(g.job_status(job).unwrap(), JobStatus::Done(fresh.tasks[0]));
        let reuse_work = examined() - before;
        assert_eq!(g.catalog().tasks.len(), n as usize + 1, "reused, not fired");
        work.push((fresh_work, reuse_work));
    }
    assert_eq!(work[0], work[1], "work at 100 vs 2 000 tasks on record");
    assert_eq!(work[0], (0, 1));
}
