use super::query::ChosenFiring;
use super::*;
use crate::error::KernelError;
use crate::ids::ObjectId;
use crate::object::{SPATIAL_ATTR, TEMPORAL_ATTR};
use crate::query::{Query, QueryMethod, QueryStrategy};
use crate::task::TaskKind;
use crate::template::{Expr, Mapping, Template};
use gaea_adt::{AbsTime, GeoBox, Image, PixType, TimeRange, TypeTag, Value};
use std::collections::BTreeSet;

fn africa() -> GeoBox {
    GeoBox::new(-20.0, -35.0, 55.0, 38.0)
}

fn day(y: i64, m: u32, d: u32) -> AbsTime {
    AbsTime::from_ymd(y, m, d).unwrap()
}

/// A kernel with the Figure 3 schema: tm (base) --P20--> landcover.
fn p20_kernel() -> Gaea {
    let mut g = Gaea::in_memory();
    g.define_class(
        ClassSpec::base("tm")
            .attr("data", TypeTag::Image)
            .doc("Rectified Landsat TM"),
    )
    .unwrap();
    g.define_class(
        ClassSpec::derived("landcover")
            .attr("data", TypeTag::Image)
            .attr("numclass", TypeTag::Int4)
            .doc("Land cover"),
    )
    .unwrap();
    let template = Template {
        assertions: vec![
            Expr::eq(
                Expr::Card(Box::new(Expr::Arg("bands".into()))),
                Expr::int(3),
            ),
            Expr::Common(Box::new(Expr::proj("bands", "spatialextent"))),
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
            .template(template)
            .doc("unsupervised classification (Figure 3)"),
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
fn figure3_process_runs_and_records_task() {
    let mut g = p20_kernel();
    let t0 = day(1986, 1, 15);
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, 10.0 + i as f64 * 50.0, t0))
        .collect();
    let run = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    assert_eq!(run.outputs.len(), 1);
    let out = g.object(run.outputs[0]).unwrap();
    assert_eq!(out.attr("numclass"), Some(&Value::Int4(12)));
    assert_eq!(out.spatial_extent(), Some(africa()));
    assert_eq!(out.timestamp(), Some(t0));
    let task = g.task(run.task).unwrap();
    assert_eq!(task.process_name, "P20");
    assert_eq!(task.inputs["bands"], bands);
    assert_eq!(task.outputs, run.outputs);
}

#[test]
fn assertions_guard_execution() {
    let mut g = p20_kernel();
    let t0 = day(1986, 1, 15);
    let b1 = insert_band(&mut g, 1.0, t0);
    let b2 = insert_band(&mut g, 2.0, t0);
    // card(bands) = 3 fails with two bands (binding validation catches
    // the min_card first).
    assert!(g.run_process("P20", &[("bands", vec![b1, b2])]).is_err());
    // Mixed timestamps fail the common(timestamp) guard.
    let b3 = insert_band(&mut g, 3.0, day(1987, 1, 15));
    let err = g
        .run_process("P20", &[("bands", vec![b1, b2, b3])])
        .unwrap_err();
    assert!(matches!(err, KernelError::AssertionFailed { .. }), "{err}");
}

#[test]
fn query_step1_retrieval() {
    let mut g = p20_kernel();
    let t0 = day(1986, 1, 15);
    for i in 0..3 {
        insert_band(&mut g, i as f64, t0);
    }
    let q = Query::class("tm").over(africa()).at(t0);
    let out = g.query(&q).unwrap();
    assert_eq!(out.method, QueryMethod::Retrieved);
    assert_eq!(out.objects.len(), 3);
    assert!(out.tasks.is_empty());
}

#[test]
fn query_step3_derivation() {
    // The paper's running example: "the derivation of the land use
    // classification for January 1986 for Africa [...] translates into
    // the retrieval of the proper Landsat TM spatio-temporal objects,
    // followed by the application of the unsupervised classification
    // process (P20)."
    let mut g = p20_kernel();
    let t0 = day(1986, 1, 15);
    for i in 0..3 {
        insert_band(&mut g, 10.0 + i as f64 * 40.0, t0);
    }
    let q = Query::class("landcover").over(africa()).at(t0);
    let out = g.query(&q).unwrap();
    assert_eq!(out.method, QueryMethod::Derived);
    assert_eq!(out.objects.len(), 1);
    assert_eq!(out.tasks.len(), 1);
    assert_eq!(out.objects[0].attr("numclass"), Some(&Value::Int4(12)));
    // The derived object is now stored: the same query is a retrieval.
    let again = g.query(&q).unwrap();
    assert_eq!(again.method, QueryMethod::Retrieved);
}

#[test]
fn query_retrieve_only_strategy_fails_without_data() {
    let mut g = p20_kernel();
    let q = Query::class("landcover").with_strategy(QueryStrategy::RetrieveOnly);
    assert!(matches!(g.query(&q), Err(KernelError::NoData(_))));
}

#[test]
fn query_derivation_impossible_without_base_data() {
    let mut g = p20_kernel();
    let t0 = day(1986, 1, 15);
    insert_band(&mut g, 1.0, t0); // only one band; P20 needs 3
    let q = Query::class("landcover").with_strategy(QueryStrategy::PreferDerivation);
    let err = g.query(&q).unwrap_err();
    assert!(err.to_string().contains("tm"), "{err}");
}

#[test]
fn query_step2_interpolation() {
    let mut g = p20_kernel();
    // Two tm snapshots at day 0 and day 10; ask for day 5.
    let t1 = day(1988, 6, 1);
    let t2 = AbsTime(t1.0 + 10 * 86_400);
    let tq = AbsTime(t1.0 + 5 * 86_400);
    insert_band(&mut g, 0.0, t1);
    insert_band(&mut g, 10.0, t2);
    let q = Query::class("tm").over(africa()).at(tq);
    let out = g.query(&q).unwrap();
    assert_eq!(out.method, QueryMethod::Interpolated);
    let img = out.objects[0].attr("data").unwrap().as_image().unwrap();
    assert_eq!(img.get(0, 0), 5.0);
    assert_eq!(out.objects[0].timestamp(), Some(tq));
    // The interpolation was recorded as a task.
    assert_eq!(out.tasks.len(), 1);
    let task = g.task(out.tasks[0]).unwrap();
    assert_eq!(task.kind, TaskKind::Interpolation);
    assert_eq!(task.params["at"], Value::AbsTime(tq));
}

#[test]
fn lineage_tree_and_comparison() {
    let mut g = p20_kernel();
    let t0 = day(1986, 1, 15);
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, 10.0 + i as f64 * 50.0, t0))
        .collect();
    let run = g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    let tree = g.lineage(run.outputs[0]).unwrap();
    assert_eq!(tree.depth(), 2);
    assert_eq!(tree.size(), 4); // output + 3 bands
    assert_eq!(tree.via.as_ref().unwrap().1, "P20");
    assert!(tree.inputs.iter().all(|n| n.via.is_none()));
    let sig = tree.signature();
    assert_eq!(sig, "P20(base:tm,base:tm,base:tm)");
    // A base band's lineage is a leaf.
    let leaf = g.lineage(bands[0]).unwrap();
    assert_eq!(leaf.depth(), 1);
    // Ancestors/descendants.
    assert_eq!(g.ancestors(run.outputs[0]).unwrap().len(), 3);
    assert_eq!(g.descendants(bands[0]), run.outputs);
}

#[test]
fn memoization_reuses_identical_derivations() {
    let mut g = p20_kernel();
    let t0 = day(1986, 1, 15);
    for i in 0..3 {
        insert_band(&mut g, 10.0 + i as f64 * 40.0, t0);
    }
    let q = Query::class("landcover")
        .at(t0)
        .with_strategy(QueryStrategy::PreferDerivation);
    let first = g.query(&q).unwrap();
    assert_eq!(first.method, QueryMethod::Derived);
    let tasks_before = g.catalog().tasks.len();
    // Delete nothing; ask again — retrieval answers. Force the derivation
    // path by choosing a binding for the goal's producer directly:
    let p20 = g.catalog.process_by_name("P20").unwrap().id;
    let no_exclude = BTreeSet::new();
    let (_, pool) = g.plan_inputs(&["landcover".to_string()], &q).unwrap();
    let run1 = match g.choose_or_fire(p20, &q, &pool, &no_exclude).unwrap() {
        ChosenFiring::Reused { run, .. } => run,
        _ => panic!("an identical current task must be reused"),
    };
    // Reuse: no new task was created.
    assert_eq!(g.catalog().tasks.len(), tasks_before);
    assert_eq!(first.tasks[0], run1.task);
    // A plan that already consumed this derivation (exclude set) cannot
    // reuse it and finds no alternative binding.
    let mut exclude = BTreeSet::new();
    exclude.insert(g.catalog.task(run1.task).unwrap().dedup_key());
    let err = g.choose_or_fire(p20, &q, &pool, &exclude).err().unwrap();
    assert!(matches!(err, KernelError::DerivationImpossible(_)));
}

#[test]
fn duplicate_task_detection() {
    let mut g = p20_kernel();
    let t0 = day(1986, 1, 15);
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, 10.0 + i as f64 * 50.0, t0))
        .collect();
    g.run_process("P20", &[("bands", bands.clone())]).unwrap();
    assert!(g.duplicate_tasks().is_empty());
    g.run_process("P20", &[("bands", bands)]).unwrap();
    let dups = g.duplicate_tasks();
    assert_eq!(dups.len(), 1);
    assert_eq!(dups[0].len(), 2);
}

#[test]
fn experiment_reproduction_is_faithful() {
    let mut g = p20_kernel();
    let t0 = day(1986, 1, 15);
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, 10.0 + i as f64 * 50.0, t0))
        .collect();
    let run = g.run_process("P20", &[("bands", bands)]).unwrap();
    g.record_experiment("jan86_africa", "land use Jan 1986", vec![run.task])
        .unwrap();
    let rep = g.reproduce_experiment("jan86_africa").unwrap();
    assert!(rep.is_faithful(), "{rep:?}");
    assert_eq!(rep.tasks_rerun, 1);
    // Unknown experiment errors.
    assert!(g.reproduce_experiment("nope").is_err());
}

#[test]
fn concept_queries_fan_out_over_members() {
    let mut g = p20_kernel();
    g.define_concept(
        "land_cover_concept",
        &["landcover"],
        &[],
        "land cover classifications however derived",
    )
    .unwrap();
    let t0 = day(1986, 1, 15);
    for i in 0..3 {
        insert_band(&mut g, 10.0 + i as f64 * 40.0, t0);
    }
    let q = Query::concept("land_cover_concept")
        .at(t0)
        .with_strategy(QueryStrategy::PreferDerivation);
    let out = g.query(&q).unwrap();
    assert_eq!(out.method, QueryMethod::Derived);
    assert_eq!(out.objects.len(), 1);
}

#[test]
fn definition_validation_errors() {
    let mut g = p20_kernel();
    // Unknown output class.
    assert!(g
        .define_process(ProcessSpec::new("bad", "nope").arg("x", "tm"))
        .is_err());
    // Deriving into a base class.
    assert!(g
        .define_process(ProcessSpec::new("bad", "tm").arg("x", "landcover"))
        .is_err());
    // Undeclared template argument.
    let spec = ProcessSpec::new("bad", "landcover")
        .arg("x", "tm")
        .template(Template {
            assertions: vec![],
            mappings: vec![Mapping {
                attr: "numclass".into(),
                expr: Expr::Card(Box::new(Expr::Arg("ghost".into()))),
            }],
        });
    assert!(g.define_process(spec).is_err());
    // Unknown mapped attribute.
    let spec = ProcessSpec::new("bad", "landcover")
        .arg("x", "tm")
        .template(Template {
            assertions: vec![],
            mappings: vec![Mapping {
                attr: "ghost_attr".into(),
                expr: Expr::int(1),
            }],
        });
    assert!(g.define_process(spec).is_err());
    // Duplicate process name.
    assert!(g
        .define_process(ProcessSpec::new("P20", "landcover").arg("x", "tm"))
        .is_err());
}

#[test]
fn interactive_definition_validation() {
    let mut g = p20_kernel();
    // Template references a parameter no interaction declares.
    let spec = ProcessSpec::new("bad", "landcover")
        .arg("x", "tm")
        .template(Template {
            assertions: vec![],
            mappings: vec![Mapping {
                attr: "numclass".into(),
                expr: Expr::param("k"),
            }],
        });
    let err = g.define_process(spec).unwrap_err();
    assert!(err.to_string().contains("undeclared parameter"), "{err}");
    // Duplicate interaction parameter names.
    let spec = ProcessSpec::new("bad", "landcover")
        .arg("x", "tm")
        .interact("k", "pick k", gaea_adt::TypeTag::Int4)
        .interact("k", "pick k again", gaea_adt::TypeTag::Int4);
    let err = g.define_process(spec).unwrap_err();
    assert!(err.to_string().contains("declared twice"), "{err}");
    // Preview referencing an undeclared argument.
    let spec = ProcessSpec::new("bad", "landcover")
        .arg("x", "tm")
        .interact_preview(
            "k",
            "pick",
            gaea_adt::TypeTag::Int4,
            Expr::Arg("ghost".into()),
        );
    let err = g.define_process(spec).unwrap_err();
    assert!(err.to_string().contains("undeclared argument"), "{err}");
    // Preview using a parameter answered only later.
    let spec = ProcessSpec::new("bad", "landcover")
        .arg("x", "tm")
        .interact_preview(
            "first",
            "uses the second answer",
            gaea_adt::TypeTag::Int4,
            Expr::param("second"),
        )
        .interact("second", "too late", gaea_adt::TypeTag::Int4);
    let err = g.define_process(spec).unwrap_err();
    assert!(err.to_string().contains("not answered yet"), "{err}");
    // A preview may use *earlier* answers.
    let spec = ProcessSpec::new("ok_chain", "landcover")
        .arg("x", "tm")
        .interact("first", "a number", gaea_adt::TypeTag::Int4)
        .interact_preview(
            "second",
            "shown the first answer",
            gaea_adt::TypeTag::Int4,
            Expr::param("first"),
        )
        .template(Template {
            assertions: vec![],
            mappings: vec![Mapping {
                attr: "numclass".into(),
                expr: Expr::param("second"),
            }],
        });
    g.define_process(spec).unwrap();
    // Declared-but-unreferenced interactions are allowed: the answer is
    // recorded for reproduction even if no mapping consumes it.
    let spec = ProcessSpec::new("ok_extra", "landcover")
        .arg("x", "tm")
        .interact("ack", "confirm visual check", gaea_adt::TypeTag::Bool)
        .template(Template {
            assertions: vec![],
            mappings: vec![Mapping {
                attr: "numclass".into(),
                expr: Expr::int(1),
            }],
        });
    g.define_process(spec).unwrap();
}

#[test]
fn chained_interactions_preview_earlier_answers() {
    let mut g = p20_kernel();
    let spec = ProcessSpec::new("P_chain", "landcover")
        .arg("x", "tm")
        .interact("first", "a number", gaea_adt::TypeTag::Int4)
        .interact_preview(
            "second",
            "shown the first answer",
            gaea_adt::TypeTag::Int4,
            Expr::param("first"),
        )
        .template(Template {
            assertions: vec![],
            mappings: vec![Mapping {
                attr: "numclass".into(),
                expr: Expr::param("second"),
            }],
        });
    g.define_process(spec).unwrap();
    let t0 = day(1986, 1, 15);
    let b = insert_band(&mut g, 1.0, t0);
    let mut session = g.begin_interactive("P_chain", &[("x", vec![b])]).unwrap();
    // First point has no preview.
    assert!(g.interaction_preview(&session).unwrap().is_none());
    session.supply(Value::Int4(7)).unwrap();
    // Second point previews the first answer.
    assert_eq!(
        g.interaction_preview(&session).unwrap(),
        Some(Value::Int4(7))
    );
    session.supply(Value::Int4(9)).unwrap();
    let run = g.finish_interactive(session).unwrap();
    let out = g.object(run.outputs[0]).unwrap();
    assert_eq!(out.attr("numclass"), Some(&Value::Int4(9)));
    let task = g.task(run.task).unwrap();
    assert_eq!(task.params["first"], Value::Int4(7));
    assert_eq!(task.params["second"], Value::Int4(9));
}

#[test]
fn save_load_round_trip() {
    let mut g = p20_kernel();
    let t0 = day(1986, 1, 15);
    let bands: Vec<ObjectId> = (0..3)
        .map(|i| insert_band(&mut g, 10.0 + i as f64 * 50.0, t0))
        .collect();
    let run = g.run_process("P20", &[("bands", bands)]).unwrap();
    g.record_experiment("e1", "classification", vec![run.task])
        .unwrap();
    let dir = std::env::temp_dir().join(format!("gaea-kernel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    g.save(&dir).unwrap();
    let loaded = Gaea::load(&dir).unwrap();
    // Catalog survived.
    assert!(loaded.catalog().process_by_name("P20").is_ok());
    assert_eq!(loaded.count_objects("tm").unwrap(), 3);
    assert_eq!(loaded.count_objects("landcover").unwrap(), 1);
    // Reproduction still works on the loaded kernel.
    let rep = loaded.reproduce_experiment("e1").unwrap();
    assert!(rep.is_faithful());
    // Lineage survived.
    let out = loaded.objects_of("landcover").unwrap()[0];
    assert_eq!(loaded.lineage(out).unwrap().size(), 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn time_window_queries() {
    let mut g = p20_kernel();
    insert_band(&mut g, 1.0, day(1986, 1, 10));
    insert_band(&mut g, 2.0, day(1986, 2, 10));
    insert_band(&mut g, 3.0, day(1987, 1, 10));
    let jan86 = TimeRange::new(day(1986, 1, 1), day(1986, 1, 31));
    let q = Query::class("tm").during(jan86);
    let out = g.query(&q).unwrap();
    assert_eq!(out.objects.len(), 1);
    let y86 = TimeRange::new(day(1986, 1, 1), day(1986, 12, 31));
    let out = g.query(&Query::class("tm").during(y86)).unwrap();
    assert_eq!(out.objects.len(), 2);
}

/// The process → (task, key fingerprint) index is kept up incrementally
/// by `add_task`, and by `remove_task` when a compound compensates. It
/// must equal what `rebuild_task_index` derives from the task map, and
/// what a reopened kernel holds, whether it replayed the log or loaded a
/// snapshot. The reopened kernel then answers a repeated derivation by
/// reuse.
#[test]
fn task_key_index_matches_its_rebuild_after_reopen_and_compensation() {
    use crate::schema::StepSource;
    use crate::template::CmpOp;
    let dir = std::env::temp_dir().join(format!("gaea-key-index-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rebuilt = |g: &Gaea| {
        let mut catalog = g.catalog.clone();
        catalog.rebuild_task_index();
        catalog.task_key_index().clone()
    };
    let at = |i: i64| day(1986, 1, 1).plus_days(i);

    let mut g = Gaea::open(&dir).unwrap();
    for spec in [
        ClassSpec::base("raw"),
        ClassSpec::derived("mid"),
        ClassSpec::derived("final"),
    ] {
        g.define_class(spec.attr("v", TypeTag::Int4)).unwrap();
    }
    let copy = |arg: &str, guarded: bool| Template {
        // The guarded step refuses non-positive values, so a compound
        // over one undoes its first step.
        assertions: if guarded {
            vec![Expr::Cmp {
                op: CmpOp::Gt,
                lhs: Box::new(Expr::proj(arg, "v")),
                rhs: Box::new(Expr::int(0)),
            }]
        } else {
            vec![]
        },
        mappings: ["v", TEMPORAL_ATTR]
            .into_iter()
            .map(|attr| Mapping {
                attr: attr.into(),
                expr: Expr::proj(arg, attr),
            })
            .collect(),
    };
    g.define_process(
        ProcessSpec::new("P_ok", "mid")
            .arg("r", "raw")
            .template(copy("r", false)),
    )
    .unwrap();
    g.define_process(
        ProcessSpec::new("P_guarded", "final")
            .arg("m", "mid")
            .template(copy("m", true)),
    )
    .unwrap();
    g.define_compound_process(
        "P_chain",
        "final",
        &[("r".to_string(), "raw".to_string(), false, 1)],
        &[
            ("P_ok".to_string(), vec![StepSource::OuterArg(0)]),
            ("P_guarded".to_string(), vec![StepSource::StepOutput(0)]),
        ],
        "two-step chain",
    )
    .unwrap();
    let mut compensated = 0;
    for i in 0..6 {
        let r = g
            .insert_object(
                "raw",
                vec![
                    ("v", Value::Int4(i as i32 - 2)),
                    (TEMPORAL_ATTR, Value::AbsTime(at(i))),
                ],
            )
            .unwrap();
        if g.run_process("P_chain", &[("r", vec![r])]).is_err() {
            compensated += 1;
        }
        // A `DERIVE` of the intermediate: stored for the chains that
        // committed, fired afresh where the chain was undone.
        g.query(
            &Query::class("mid")
                .at(at(i))
                .with_strategy(QueryStrategy::PreferDerivation),
        )
        .unwrap();
    }
    assert_eq!(compensated, 3, "v = -2, -1, 0 fail the guard");
    let live = g.catalog.task_key_index().clone();
    let p_ok = g.catalog.process_by_name("P_ok").unwrap().id;
    assert_eq!(live[&p_ok].len(), 6, "one P_ok task per raw object");
    assert_eq!(live, rebuilt(&g));
    let tasks = g.catalog.tasks.len();
    drop(g);

    // Reopen by log replay: the snapshot-free open rebuilds an empty
    // index, then `add_task` refills it event by event.
    let mut g = Gaea::open(&dir).unwrap();
    assert!(g.recovery_stats().unwrap().events_replayed > 0);
    assert_eq!(g.catalog.task_key_index(), &live);
    assert_eq!(rebuilt(&g), live);
    g.checkpoint().unwrap();
    drop(g);

    // Reopen from the snapshot alone: the index is the rebuild.
    let mut g = Gaea::open(&dir).unwrap();
    assert_eq!(g.recovery_stats().unwrap().events_replayed, 0);
    assert_eq!(g.catalog.task_key_index(), &live);

    // A repeated derivation of the undone chain's intermediate is
    // answered by the recorded task: the job is born Done with it.
    let q = Query::class("mid")
        .at(at(0))
        .with_strategy(QueryStrategy::PreferDerivation);
    let recorded = g.query(&q).unwrap().objects[0].id;
    let producer = g.catalog.producing_task(recorded).unwrap().id;
    let job = g.submit_derivation(&q).unwrap();
    assert_eq!(g.job_status(job).unwrap(), JobStatus::Done(producer));
    assert_eq!(g.catalog.tasks.len(), tasks, "reused, not fired");
    drop(g);
    std::fs::remove_dir_all(&dir).unwrap();
}
