//! MVCC staleness detection end to end: O(1)-in-history invalidation
//! on `update_object`, step-1 retrieval flagging stale derived objects,
//! stale-aware task reuse, and the `refresh_object` re-derivation path.
//!
//! The scenario throughout is the paper's Figure 3 chain
//! `tm --P20--> landcover` (optionally `--REFINE--> refined`): mutate a
//! base band after deriving, and every layer must notice — without ever
//! walking the recorded task history.

use gaea::adt::{AbsTime, GeoBox, Image, PixType, TypeTag, Value};
use gaea::core::kernel::{ClassSpec, Gaea, JobStatus, ProcessSpec};
use gaea::core::template::{Expr, Mapping, Template};
use gaea::core::{ObjectId, Query, QueryMethod, QueryStrategy};
use std::time::Duration;

const SPATIAL_ATTR: &str = "spatialextent";
const TEMPORAL_ATTR: &str = "timestamp";

fn africa() -> GeoBox {
    GeoBox::new(-20.0, -35.0, 55.0, 38.0)
}

fn jan86() -> AbsTime {
    AbsTime::from_ymd(1986, 1, 15).unwrap()
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

/// p20_kernel plus a second derivation level: landcover --REFINE--> refined.
fn refine_kernel() -> Gaea {
    let mut g = p20_kernel();
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

fn touch_band(g: &mut Gaea, band: ObjectId, fill: f64) {
    g.update_object(
        band,
        vec![(
            "data",
            Value::image(Image::filled(8, 8, PixType::Float8, fill)),
        )],
    )
    .unwrap();
}

fn lc_query() -> Query {
    Query::class("landcover")
        .over(africa())
        .at(jan86())
        .with_strategy(QueryStrategy::PreferDerivation)
}

#[test]
fn base_objects_are_never_stale_derived_objects_turn_stale_on_input_mutation() {
    let mut g = p20_kernel();
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, i as f64, jan86()))
        .collect();
    let run = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    assert!(!g.is_stale(bands[0]), "base data is the current truth");
    assert!(!g.is_stale(run.outputs[0]), "fresh derivation is current");
    assert!(g.task_is_current(run.task).unwrap());

    touch_band(&mut g, bands[0], 99.0);
    assert!(
        !g.is_stale(bands[0]),
        "mutated base data is still base data"
    );
    assert!(g.is_stale(run.outputs[0]), "derived from pre-update inputs");
    assert!(!g.task_is_current(run.task).unwrap());
}

#[test]
fn staleness_propagates_through_derivation_chains() {
    let mut g = refine_kernel();
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, i as f64, jan86()))
        .collect();
    let lc = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    let refined = g
        .run_process("REFINE", &[("src", lc.outputs.clone())])
        .unwrap();
    assert!(!g.is_stale(refined.outputs[0]));

    // Mutating the *base* band stales both derivation levels, even though
    // the intermediate landcover object itself was never written again.
    touch_band(&mut g, bands[1], 42.0);
    assert!(g.is_stale(lc.outputs[0]));
    assert!(
        g.is_stale(refined.outputs[0]),
        "transitive: refined's input lc is itself stale"
    );
}

#[test]
fn deleting_an_input_stales_the_derivation() {
    let mut g = p20_kernel();
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, i as f64, jan86()))
        .collect();
    let run = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    g.delete_object(bands[2]).unwrap();
    assert!(g.is_stale(run.outputs[0]), "a deleted input is a mutation");
}

#[test]
fn step1_retrieval_flags_stale_derived_objects_but_still_serves_them() {
    let mut g = p20_kernel();
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, i as f64, jan86()))
        .collect();
    let derived = g.query(&lc_query()).unwrap();
    assert_eq!(derived.method, QueryMethod::Derived);
    assert!(derived.stale.is_empty(), "fresh derivation: nothing stale");
    let lc = derived.objects[0].id;

    // The repeated query retrieves, current.
    let warm = g.query(&lc_query()).unwrap();
    assert_eq!(warm.method, QueryMethod::Retrieved);
    assert!(!warm.any_stale());

    // Mutate a band: the stored landcover is served as history, flagged.
    touch_band(&mut g, bands[0], 7.0);
    let flagged = g.query(&lc_query()).unwrap();
    assert_eq!(flagged.method, QueryMethod::Retrieved);
    assert_eq!(flagged.objects.len(), 1, "still servable");
    assert!(flagged.is_stale(lc), "but flagged stale");
    assert_eq!(flagged.stale, vec![lc]);
}

#[test]
fn refresh_object_refires_and_clears_the_flag() {
    let mut g = p20_kernel();
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, i as f64, jan86()))
        .collect();
    let first = g.run_process("P20", &[("bands", bands.clone())]).unwrap();

    // Refreshing a current object is a no-op returning the recorded run.
    let noop = g.refresh_object(first.outputs[0]).unwrap();
    assert_eq!(noop.task, first.task);

    touch_band(&mut g, bands[0], 99.0);
    assert!(g.is_stale(first.outputs[0]));
    let refreshed = g.refresh_object(first.outputs[0]).unwrap();
    assert_ne!(refreshed.task, first.task, "a fresh task was recorded");
    assert_ne!(
        refreshed.outputs, first.outputs,
        "a fresh object was derived"
    );
    assert!(
        !g.is_stale(refreshed.outputs[0]),
        "the new object is current"
    );
    assert!(g.is_stale(first.outputs[0]), "the old one remains history");

    // And the new object answers retrieval as a current result.
    let q = g.query(&lc_query()).unwrap();
    assert!(q.objects.iter().any(|o| o.id == refreshed.outputs[0]));
    assert!(!q.is_stale(refreshed.outputs[0]));
    assert!(q.is_stale(first.outputs[0]));
}

#[test]
fn refresh_object_refreshes_stale_inputs_recursively() {
    let mut g = refine_kernel();
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, i as f64, jan86()))
        .collect();
    let lc = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    let refined = g
        .run_process("REFINE", &[("src", lc.outputs.clone())])
        .unwrap();

    touch_band(&mut g, bands[2], 5.0);
    let refreshed = g.refresh_object(refined.outputs[0]).unwrap();
    assert!(!g.is_stale(refreshed.outputs[0]));
    // The chain re-derived root-to-leaf: a fresh landcover was produced
    // and consumed, not the stale one.
    let new_refined = g.task(refreshed.task).unwrap().clone();
    let src = new_refined.inputs["src"].clone();
    assert_ne!(src, lc.outputs, "stale intermediate was re-derived first");
    assert!(!g.is_stale(src[0]));
}

#[test]
fn refresh_object_rejects_base_objects() {
    let mut g = p20_kernel();
    let band = insert_band(&mut g, 1.0, jan86());
    assert!(g.refresh_object(band).is_err());
}

#[test]
fn refresh_object_rematerializes_a_deleted_derived_object() {
    let mut g = p20_kernel();
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, i as f64, jan86()))
        .collect();
    let first = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    g.delete_object(first.outputs[0]).unwrap();
    // Not a no-op returning the dead OID: a fresh firing re-materializes.
    let refreshed = g.refresh_object(first.outputs[0]).unwrap();
    assert_ne!(refreshed.task, first.task);
    assert_ne!(refreshed.outputs, first.outputs);
    assert!(g.object(refreshed.outputs[0]).is_ok());
    assert!(!g.is_stale(refreshed.outputs[0]));
}

#[test]
fn refresh_object_rederives_a_shared_stale_input_once() {
    // DOUBLE consumes the same landcover through two scalar arguments;
    // refreshing its output after the base mutates must re-derive the
    // shared input exactly once and rebind both arguments to the same
    // fresh object.
    let mut g = p20_kernel();
    g.define_class(ClassSpec::derived("doubled").attr("numclass", TypeTag::Int4))
        .unwrap();
    g.define_process(
        ProcessSpec::new("DOUBLE", "doubled")
            .arg("a", "landcover")
            .arg("b", "landcover")
            .template(Template {
                assertions: vec![],
                mappings: vec![Mapping {
                    attr: "numclass".into(),
                    expr: Expr::proj("a", "numclass"),
                }],
            }),
    )
    .unwrap();
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, i as f64, jan86()))
        .collect();
    let lc = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    let doubled = g
        .run_process(
            "DOUBLE",
            &[("a", lc.outputs.clone()), ("b", lc.outputs.clone())],
        )
        .unwrap();

    touch_band(&mut g, bands[0], 6.0);
    let p20_tasks_before = g
        .catalog()
        .tasks
        .values()
        .filter(|t| t.process_name == "P20")
        .count();
    let refreshed = g.refresh_object(doubled.outputs[0]).unwrap();
    let p20_tasks_after = g
        .catalog()
        .tasks
        .values()
        .filter(|t| t.process_name == "P20")
        .count();
    assert_eq!(
        p20_tasks_after,
        p20_tasks_before + 1,
        "the shared stale input re-derived exactly once"
    );
    let new_task = g.task(refreshed.task).unwrap();
    assert_eq!(
        new_task.inputs["a"], new_task.inputs["b"],
        "both arguments rebound to the same fresh object"
    );
    assert!(!g.is_stale(refreshed.outputs[0]));
}

#[test]
fn delete_object_refuses_while_referenced() {
    let mut g = p20_kernel();
    g.define_class(
        ClassSpec::base("report")
            .attr("numclass", TypeTag::Int4)
            .ref_attr("subject", "tm"),
    )
    .unwrap();
    let band = insert_band(&mut g, 1.0, jan86());
    let report = g
        .insert_object("report", vec![("subject", Value::ObjRef(band.raw()))])
        .unwrap();
    let err = g.delete_object(band).unwrap_err();
    assert!(err.to_string().contains("references it"), "{err}");
    // Drop the referencing object first; then the band deletes fine.
    g.delete_object(report).unwrap();
    g.delete_object(band).unwrap();
}

#[test]
fn memo_lookup_validates_versions_even_without_eager_edges() {
    // No write invalidates anything eagerly: the derivation lookup alone
    // must notice drift, and for REFINE it can only do so through the
    // chain — its own recorded input (the landcover object) was never
    // written again, only the band two levels up.
    let mut g = refine_kernel();
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, i as f64, jan86()))
        .collect();
    let lc = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    let refined = g
        .run_process("REFINE", &[("src", lc.outputs.clone())])
        .unwrap();
    let reused = g.refresh_object(refined.outputs[0]).unwrap();
    assert_eq!(reused.task, refined.task, "current derivation is reused");

    touch_band(&mut g, bands[0], 77.0);
    let report = g.staleness_report(refined.outputs[0]).unwrap();
    let refine = report
        .chain
        .iter()
        .find(|t| t.process == "REFINE")
        .expect("REFINE in chain");
    assert!(refine.drifted_inputs.is_empty(), "no local drift on REFINE");
    let rerun = g.refresh_object(refined.outputs[0]).unwrap();
    assert_ne!(rerun.task, refined.task, "stale derivation was not reused");
    assert!(!g.is_stale(rerun.outputs[0]));
}

#[test]
fn reuse_tasks_refuses_stale_recorded_derivations() {
    let mut g = p20_kernel();
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, i as f64, jan86()))
        .collect();
    let first = g.query(&lc_query()).unwrap();
    assert_eq!(first.method, QueryMethod::Derived);
    let first_task = first.tasks[0];

    // Stale + PreferDerivation with an exact-instant query: retrieval
    // still answers (history is servable), so force the derivation path
    // by deleting the stored landcover first.
    touch_band(&mut g, bands[0], 3.0);
    g.delete_object(first.objects[0].id).unwrap();
    let second = g.query(&lc_query()).unwrap();
    assert_eq!(second.method, QueryMethod::Derived);
    assert_ne!(
        second.tasks[0], first_task,
        "a stale recorded task must not be reused; the derivation re-fires"
    );
    assert!(!g.is_stale(second.objects[0].id));
}

/// Regression: a derived object deleted while its task is still current
/// no longer answers anything, so a `DERIVE` must re-derive it rather
/// than reuse the task, and a background submission must stage a fresh
/// job rather than one born `Done` naming the deleted object.
#[test]
fn derive_rederives_a_deleted_current_object() {
    let mut g = p20_kernel();
    for i in 0..3 {
        insert_band(&mut g, i as f64, jan86());
    }
    let first = g.query(&lc_query()).unwrap();
    assert_eq!(first.method, QueryMethod::Derived);
    g.delete_object(first.objects[0].id).unwrap();
    let second = g.query(&lc_query()).unwrap();
    assert_eq!(second.method, QueryMethod::Derived);
    assert_ne!(second.tasks[0], first.tasks[0]);

    g.delete_object(second.objects[0].id).unwrap();
    let job = g.submit_derivation(&lc_query()).unwrap();
    let status = g.await_job(job, Duration::from_secs(10)).unwrap();
    let JobStatus::Done(task) = status else {
        panic!("the fresh job must commit, got {status:?}");
    };
    assert_ne!(task, second.tasks[0], "the job reused a deleted derivation");
    assert!(g.object(g.task(task).unwrap().outputs[0]).is_ok());
}

#[test]
fn staleness_report_names_the_drifted_inputs() {
    let mut g = refine_kernel();
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, i as f64, jan86()))
        .collect();
    let lc = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    let refined = g
        .run_process("REFINE", &[("src", lc.outputs.clone())])
        .unwrap();

    let report = g.staleness_report(refined.outputs[0]).unwrap();
    assert!(!report.stale);
    assert_eq!(report.chain.len(), 2, "REFINE task + P20 task");
    assert!(report.chain.iter().all(|t| t.current));

    touch_band(&mut g, bands[1], 50.0);
    let report = g.staleness_report(refined.outputs[0]).unwrap();
    assert!(report.stale);
    let p20 = report
        .chain
        .iter()
        .find(|t| t.process == "P20")
        .expect("P20 in chain");
    assert!(!p20.current);
    assert_eq!(p20.drifted_inputs.len(), 1);
    assert_eq!(p20.drifted_inputs[0].object, bands[1]);
    assert!(p20.drifted_inputs[0].current > p20.drifted_inputs[0].recorded);
    // REFINE's direct input (the landcover object) was never rewritten:
    // no local drift, but the task is transitively non-current.
    let refine = report
        .chain
        .iter()
        .find(|t| t.process == "REFINE")
        .expect("REFINE in chain");
    assert!(!refine.current);
    assert!(refine.drifted_inputs.is_empty());

    // Base objects: empty chain, never stale.
    let base = g.staleness_report(bands[0]).unwrap();
    assert!(!base.stale);
    assert!(base.chain.is_empty());
}

#[test]
fn stale_objects_lists_the_impact_set() {
    let mut g = refine_kernel();
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, i as f64, jan86()))
        .collect();
    let lc = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    let refined = g
        .run_process("REFINE", &[("src", lc.outputs.clone())])
        .unwrap();
    assert!(g.stale_objects().is_empty());

    touch_band(&mut g, bands[0], 9.0);
    let mut stale = g.stale_objects();
    stale.sort();
    let mut expected = vec![lc.outputs[0], refined.outputs[0]];
    expected.sort();
    assert_eq!(stale, expected);
}

#[test]
fn lineage_dot_marks_stale_nodes() {
    let mut g = p20_kernel();
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, i as f64, jan86()))
        .collect();
    let run = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    let clean = g.lineage_dot(run.outputs[0]).unwrap();
    assert!(!clean.contains("stale"));

    touch_band(&mut g, bands[0], 4.0);
    let marked = g.lineage_dot(run.outputs[0]).unwrap();
    assert!(marked.contains("(stale)"));
    assert!(marked.contains("khaki"));
}

#[test]
fn staleness_survives_save_and_load() {
    let dir = std::env::temp_dir().join(format!("gaea-staleness-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut g = p20_kernel();
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, i as f64, jan86()))
        .collect();
    let run = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    touch_band(&mut g, bands[0], 8.0);
    assert!(g.is_stale(run.outputs[0]));
    g.save(&dir).unwrap();

    let mut back = Gaea::load(&dir).unwrap();
    assert!(
        back.is_stale(run.outputs[0]),
        "version fingerprints and counters both persisted"
    );
    assert!(!back.is_stale(bands[0]));
    // The refresh path works on the reloaded kernel too.
    let refreshed = back.refresh_object(run.outputs[0]).unwrap();
    assert!(!back.is_stale(refreshed.outputs[0]));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression (diamond across refresh calls): two derivations share one
/// stale upstream; refreshing each sink in its own `refresh_object`
/// call must re-derive the shared upstream exactly once, not once per
/// path. Before the refresh path checked for a current prior, the second
/// call re-fired P20 again — an identical current derivation already
/// recorded by the first call — duplicating the experiment.
#[test]
fn refresh_object_rederives_a_diamond_shared_upstream_once_across_calls() {
    let mut g = refine_kernel();
    g.define_class(ClassSpec::derived("refined2").attr("numclass", TypeTag::Int4))
        .unwrap();
    g.define_process(
        ProcessSpec::new("REFINE2", "refined2")
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
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, i as f64, jan86()))
        .collect();
    let lc = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    let r1 = g
        .run_process("REFINE", &[("src", lc.outputs.clone())])
        .unwrap();
    let r2 = g
        .run_process("REFINE2", &[("src", lc.outputs.clone())])
        .unwrap();

    touch_band(&mut g, bands[0], 3.0);
    let p20_count = |g: &Gaea| {
        g.catalog()
            .tasks
            .values()
            .filter(|t| t.process_name == "P20")
            .count()
    };
    assert_eq!(p20_count(&g), 1);
    let f1 = g.refresh_object(r1.outputs[0]).unwrap();
    assert_eq!(p20_count(&g), 2, "first call re-derives the upstream");
    let f2 = g.refresh_object(r2.outputs[0]).unwrap();
    assert_eq!(
        p20_count(&g),
        2,
        "second call reuses the now-current upstream instead of re-firing"
    );
    // Both sinks rebound to the same fresh landcover.
    let t1 = g.task(f1.task).unwrap().clone();
    let t2 = g.task(f2.task).unwrap().clone();
    assert_eq!(t1.inputs["src"], t2.inputs["src"]);
    assert!(!g.is_stale(f1.outputs[0]));
    assert!(!g.is_stale(f2.outputs[0]));
}

/// Regression (a benchmark finding on the Figure-2 schema): a second
/// `FRESH` over the same stale history must reuse the first one's
/// re-derivation, not fire it again. A two-level chain `band --NDVI-->
/// ndvi --SMOOTH--> smooth` feeds a `SETOF smooth` consumer; after one
/// band moves, the first `FRESH` re-derives the three stale levels, and
/// every later one records no task and serves the same object.
#[test]
fn a_second_fresh_reuses_the_first_fresh_rederivation() {
    let mut g = Gaea::in_memory();
    for (name, base) in [
        ("band", true),
        ("ndvi", false),
        ("smooth", false),
        ("change", false),
    ] {
        let spec = if base {
            ClassSpec::base(name)
        } else {
            ClassSpec::derived(name)
        };
        g.define_class(spec.attr("v", TypeTag::Int4).no_extents())
            .unwrap();
    }
    let template = |expr: Expr| Template {
        assertions: vec![],
        mappings: vec![Mapping {
            attr: "v".into(),
            expr,
        }],
    };
    g.define_process(
        ProcessSpec::new("NDVI", "ndvi")
            .arg("b", "band")
            .template(template(Expr::proj("b", "v"))),
    )
    .unwrap();
    g.define_process(
        ProcessSpec::new("SMOOTH", "smooth")
            .arg("n", "ndvi")
            .template(template(Expr::proj("n", "v"))),
    )
    .unwrap();
    g.define_process(
        ProcessSpec::new("CHANGE", "change")
            .setof_arg("series", "smooth", 2)
            .template(template(Expr::Card(Box::new(Expr::proj("series", "v"))))),
    )
    .unwrap();
    let bands: Vec<ObjectId> = (0..2)
        .map(|i| {
            g.insert_object("band", vec![("v", Value::Int4(i))])
                .unwrap()
        })
        .collect();
    let mut series = Vec::new();
    for b in &bands {
        let n = g.run_process("NDVI", &[("b", vec![*b])]).unwrap().outputs[0];
        series.push(g.run_process("SMOOTH", &[("n", vec![n])]).unwrap().outputs[0]);
    }
    let change = g
        .run_process("CHANGE", &[("series", series)])
        .unwrap()
        .outputs[0];

    g.update_object(bands[0], vec![("v", Value::Int4(9))])
        .unwrap();
    assert!(g.is_stale(change));
    let fresh = Query::class("change").fresh();
    let recorded = g.catalog().tasks.len();
    let first = g.query(&fresh).unwrap();
    assert_eq!(
        g.catalog().tasks.len(),
        recorded + 3,
        "NDVI, SMOOTH and CHANGE re-fired once each"
    );
    assert_eq!(first.objects.len(), 1);
    let served = first.objects[0].id;
    assert_ne!(served, change);
    assert!(!g.is_stale(served));
    for _ in 0..2 {
        let again = g.query(&fresh).unwrap();
        assert_eq!(
            g.catalog().tasks.len(),
            recorded + 3,
            "a repeated FRESH records no task"
        );
        let ids: Vec<ObjectId> = again.objects.iter().map(|o| o.id).collect();
        assert_eq!(ids, vec![served], "and serves the same object");
        assert_eq!(again.tasks, first.tasks, "answered by the reused task");
    }
}

/// `stale_objects()` is documented to return ascending-OID order, and
/// `refresh_all` relies on it for a reproducible schedule.
#[test]
fn stale_objects_is_oid_sorted_and_repeatable() {
    let mut g = refine_kernel();
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, i as f64, jan86()))
        .collect();
    let lc = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    let refined = g
        .run_process("REFINE", &[("src", lc.outputs.clone())])
        .unwrap();
    touch_band(&mut g, bands[2], 5.0);

    let stale = g.stale_objects();
    let mut sorted = stale.clone();
    sorted.sort();
    assert_eq!(stale, sorted, "ascending OID order");
    assert_eq!(stale, vec![lc.outputs[0], refined.outputs[0]]);
    assert_eq!(g.stale_objects(), stale, "repeatable call to call");
}
