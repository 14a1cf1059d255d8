//! End-to-end coverage of the `gaea-sched` derivation scheduler:
//! `Gaea::refresh_all` over the stale impact set (fan-out, diamonds,
//! chains, skips) and the query pipeline's wave-based fire stage — plus the invariant the whole design rides
//! on: the committed state is identical for every worker count.
//!
//! Worker counts are set explicitly in every test (the CI matrix also
//! runs the entire suite under `GAEA_SCHED_WORKERS=4`, which
//! `Gaea::in_memory` picks up, exercising the parallel path through all
//! the *other* suites).

use gaea::adt::{TypeTag, Value};
use gaea::core::kernel::{ClassSpec, Gaea, ProcessSpec};
use gaea::core::template::{Expr, Mapping, Template};
use gaea::core::{KernelError, ObjectId, Query, QueryMethod, QueryStrategy};

/// A one-mapping template copying `v` from `arg`.
fn copy_v(arg: &str) -> Template {
    Template {
        assertions: vec![],
        mappings: vec![Mapping {
            attr: "v".into(),
            expr: Expr::proj(arg, "v"),
        }],
    }
}

fn int_class(g: &mut Gaea, name: &str, base: bool) {
    let spec = if base {
        ClassSpec::base(name)
    } else {
        ClassSpec::derived(name)
    };
    g.define_class(spec.attr("v", TypeTag::Int4).no_extents())
        .unwrap();
}

/// Fan-out fixture: base `src` --STEP--> derived `out`, `v` copied.
fn fan_kernel(workers: usize) -> Gaea {
    let mut g = Gaea::in_memory();
    g.set_workers(workers);
    int_class(&mut g, "src", true);
    int_class(&mut g, "out", false);
    g.define_process(
        ProcessSpec::new("STEP", "out")
            .arg("x", "src")
            .template(copy_v("x")),
    )
    .unwrap();
    g
}

fn insert_v(g: &mut Gaea, class: &str, v: i32) -> ObjectId {
    g.insert_object(class, vec![("v", Value::Int4(v))]).unwrap()
}

fn set_v(g: &mut Gaea, obj: ObjectId, v: i32) {
    g.update_object(obj, vec![("v", Value::Int4(v))]).unwrap();
}

fn v_of(g: &Gaea, obj: ObjectId) -> i32 {
    match g.object(obj).unwrap().attr("v") {
        Some(Value::Int4(v)) => *v,
        other => panic!("expected Int4 v, got {other:?}"),
    }
}

/// Diamond fixture: base `z` --PA--> `a` --PB/PC--> `b`,`c` --PD--> `d`.
fn diamond_kernel(workers: usize) -> Gaea {
    let mut g = Gaea::in_memory();
    g.set_workers(workers);
    int_class(&mut g, "z", true);
    for c in ["a", "b", "c", "d"] {
        int_class(&mut g, c, false);
    }
    for (proc_name, out, arg_class) in [("PA", "a", "z"), ("PB", "b", "a"), ("PC", "c", "a")] {
        g.define_process(
            ProcessSpec::new(proc_name, out)
                .arg("src", arg_class)
                .template(copy_v("src")),
        )
        .unwrap();
    }
    g.define_process(
        ProcessSpec::new("PD", "d")
            .arg("x", "b")
            .arg("y", "c")
            .template(copy_v("x")),
    )
    .unwrap();
    g
}

/// Fire the whole diamond once; returns (z, [a, b, c, d]) object ids.
fn fire_diamond(g: &mut Gaea) -> (ObjectId, [ObjectId; 4]) {
    let z = insert_v(g, "z", 7);
    let a = g.run_process("PA", &[("src", vec![z])]).unwrap().outputs[0];
    let b = g.run_process("PB", &[("src", vec![a])]).unwrap().outputs[0];
    let c = g.run_process("PC", &[("src", vec![a])]).unwrap().outputs[0];
    let d = g
        .run_process("PD", &[("x", vec![b]), ("y", vec![c])])
        .unwrap()
        .outputs[0];
    (z, [a, b, c, d])
}

fn tasks_of(g: &Gaea, process: &str) -> usize {
    g.catalog()
        .tasks
        .values()
        .filter(|t| t.process_name == process)
        .count()
}

// ---------------------------------------------------------------------
// refresh_all
// ---------------------------------------------------------------------

#[test]
fn refresh_all_reports_empty_when_nothing_is_stale() {
    let mut g = fan_kernel(1);
    let s = insert_v(&mut g, "src", 1);
    g.run_process("STEP", &[("x", vec![s])]).unwrap();
    let report = g.refresh_all().unwrap();
    assert_eq!(report.refreshed(), 0);
    assert_eq!(report.waves, 0);
    assert!(report.skipped.is_empty());
    assert!(report.replacements.is_empty());
}

#[test]
fn refresh_all_fans_out_in_one_wave() {
    for workers in [1, 4] {
        let mut g = fan_kernel(workers);
        let bases: Vec<ObjectId> = (0..8).map(|i| insert_v(&mut g, "src", i)).collect();
        let outs: Vec<ObjectId> = bases
            .iter()
            .map(|b| g.run_process("STEP", &[("x", vec![*b])]).unwrap().outputs[0])
            .collect();
        for b in &bases {
            set_v(&mut g, *b, 100);
        }
        assert_eq!(g.stale_objects().len(), 8);

        let report = g.refresh_all().unwrap();
        assert_eq!(report.waves, 1, "independent firings level into one wave");
        assert_eq!(report.refreshed(), 8);
        assert!(report.skipped.is_empty());
        for out in &outs {
            assert!(g.is_stale(*out), "the old object remains stale history");
            let fresh = report.replacements[out];
            assert!(!g.is_stale(fresh));
            assert_eq!(v_of(&g, fresh), 100, "re-derived from the mutated base");
        }

        // Idempotent: a second refresh re-fires nothing (the stale
        // objects' derivations already have current replacements).
        let tasks_before = g.catalog().tasks.len();
        let again = g.refresh_all().unwrap();
        assert_eq!(g.catalog().tasks.len(), tasks_before, "no new tasks");
        assert!(again.skipped.is_empty());
    }
}

#[test]
fn refresh_all_rederives_a_diamond_exactly_once_in_dependency_order() {
    for workers in [1, 4] {
        let mut g = diamond_kernel(workers);
        let (z, [a, b, c, d]) = fire_diamond(&mut g);
        set_v(&mut g, z, 50);
        assert_eq!(g.stale_objects(), {
            let mut all = vec![a, b, c, d];
            all.sort();
            all
        });

        let report = g.refresh_all().unwrap();
        assert_eq!(report.waves, 3, "a | b,c | d");
        assert_eq!(report.refreshed(), 4);
        // Exactly one re-fire per process — the shared upstream `a` was
        // not re-derived once per path.
        for p in ["PA", "PB", "PC", "PD"] {
            assert_eq!(tasks_of(&g, p), 2, "{p}: original + one refresh");
        }
        // Both middle derivations rebound to the same fresh `a`.
        let fresh_a = report.replacements[&a];
        let fresh_b_task = g.catalog().producing_task(report.replacements[&b]).unwrap();
        let fresh_c_task = g.catalog().producing_task(report.replacements[&c]).unwrap();
        assert_eq!(fresh_b_task.inputs["src"], vec![fresh_a]);
        assert_eq!(fresh_c_task.inputs["src"], vec![fresh_a]);
        // The sink consumed both fresh intermediates and is current.
        let fresh_d = report.replacements[&d];
        let fresh_d_task = g.catalog().producing_task(fresh_d).unwrap();
        assert_eq!(fresh_d_task.inputs["x"], vec![report.replacements[&b]]);
        assert_eq!(fresh_d_task.inputs["y"], vec![report.replacements[&c]]);
        assert!(!g.is_stale(fresh_d));
        assert_eq!(v_of(&g, fresh_d), 50);
    }
}

#[test]
fn refresh_all_rematerializes_deleted_intermediates() {
    let mut g = diamond_kernel(1);
    let (_, [a, b, _, _]) = fire_diamond(&mut g);
    // Deleting the derived intermediate stales its consumers; the
    // refresh must re-materialize `a` first, then rebind.
    g.delete_object(a).unwrap();
    assert!(g.is_stale(b));

    let report = g.refresh_all().unwrap();
    assert!(report.skipped.is_empty(), "skipped: {:?}", report.skipped);
    let fresh_a = report.replacements[&a];
    assert!(g.object(fresh_a).is_ok(), "deleted object re-materialized");
    assert!(!g.is_stale(fresh_a));
    assert!(!g.is_stale(report.replacements[&b]));
}

#[test]
fn refresh_all_skips_non_auto_firable_derivations_and_their_dependents() {
    let mut g = Gaea::in_memory();
    g.set_workers(1);
    int_class(&mut g, "field", true);
    int_class(&mut g, "survey", false);
    int_class(&mut g, "summary", false);
    g.define_nonapplicative_process(
        "P_survey",
        "survey",
        &[("site".into(), "field".into(), false, 1)],
        "walk the quadrats",
        "",
    )
    .unwrap();
    g.define_process(
        ProcessSpec::new("P_sum", "summary")
            .arg("src", "survey")
            .template(copy_v("src")),
    )
    .unwrap();
    let site = insert_v(&mut g, "field", 1);
    let survey = g
        .record_manual_task(
            "P_survey",
            &[("site", vec![site])],
            vec![("v", Value::Int4(9))],
            "observed",
        )
        .unwrap()
        .outputs[0];
    let summary = g
        .run_process("P_sum", &[("src", vec![survey])])
        .unwrap()
        .outputs[0];

    set_v(&mut g, site, 2);
    assert!(g.is_stale(survey) && g.is_stale(summary));
    let report = g.refresh_all().unwrap();
    assert_eq!(report.refreshed(), 0, "nothing the system can re-fire");
    let skipped: Vec<ObjectId> = report.skipped.iter().map(|(o, _)| *o).collect();
    assert!(skipped.contains(&survey), "manual derivation skipped");
    assert!(
        skipped.contains(&summary),
        "dependent blocked by stale input"
    );
    let survey_reason = &report.skipped.iter().find(|(o, _)| *o == survey).unwrap().1;
    assert!(survey_reason.contains("non-applicative"), "{survey_reason}");
    // Both remain stale — refresh_all reported rather than lied.
    assert!(g.is_stale(survey) && g.is_stale(summary));
}

#[test]
fn refresh_all_state_is_identical_for_every_worker_count() {
    let run = |workers: usize| -> (Vec<(ObjectId, ObjectId)>, usize, Vec<String>) {
        let mut g = diamond_kernel(workers);
        let (z, _) = fire_diamond(&mut g);
        set_v(&mut g, z, 77);
        let report = g.refresh_all().unwrap();
        let mut tasks: Vec<String> = g.catalog().tasks.values().map(|t| t.to_string()).collect();
        tasks.sort();
        (
            report.replacements.into_iter().collect(),
            report.waves,
            tasks,
        )
    };
    let (repl1, waves1, tasks1) = run(1);
    for workers in [2, 4, 8] {
        let (repl, waves, tasks) = run(workers);
        assert_eq!(repl, repl1, "replacements diverged at {workers} workers");
        assert_eq!(waves, waves1);
        assert_eq!(
            tasks, tasks1,
            "recorded history diverged at {workers} workers"
        );
    }
}

/// A stale interactive derivation is skipped and reported, not a reason
/// to abort the store-wide refresh: the primitive derivation beside it
/// still re-derives, and `refresh_object` refuses the interactive one
/// with the typed error.
#[test]
fn refresh_all_skips_stale_interactive_derivations_and_refires_the_rest() {
    for workers in [1, 4] {
        let mut g = fan_kernel(workers);
        int_class(&mut g, "picked", false);
        g.define_process(
            ProcessSpec::new("P_PICK", "picked")
                .arg("x", "src")
                .template(Template {
                    assertions: vec![],
                    mappings: vec![Mapping {
                        attr: "v".into(),
                        expr: Expr::param("k"),
                    }],
                })
                .interact("k", "choose the value to keep", TypeTag::Int4),
        )
        .unwrap();
        let s = insert_v(&mut g, "src", 1);
        let out = g.run_process("STEP", &[("x", vec![s])]).unwrap().outputs[0];
        let mut session = g.begin_interactive("P_PICK", &[("x", vec![s])]).unwrap();
        session.supply(Value::Int4(5)).unwrap();
        let picked = g.finish_interactive(session).unwrap().outputs[0];

        set_v(&mut g, s, 2);
        assert!(g.is_stale(out) && g.is_stale(picked));
        let report = g.refresh_all().unwrap();
        assert_eq!(report.refreshed(), 1, "the primitive derivation re-fired");
        assert_eq!(v_of(&g, report.replacements[&out]), 2);
        assert_eq!(report.skipped.len(), 1, "{:?}", report.skipped);
        let (skipped, reason) = &report.skipped[0];
        assert_eq!(*skipped, picked);
        assert!(reason.contains("P_PICK"), "{reason}");
        assert!(g.is_stale(picked), "reported, not re-fired");
        match g.refresh_object(picked).unwrap_err() {
            KernelError::NotAutoFirable { process, .. } => assert_eq!(process, "P_PICK"),
            other => panic!("unexpected {other}"),
        }
    }
}

/// `refresh_object` and `FRESH` run on the refresh wave stage, so their
/// committed state is as independent of the worker count as
/// `refresh_all`'s.
#[test]
fn refresh_object_and_fresh_state_is_identical_for_every_worker_count() {
    let run = |workers: usize| -> (Vec<ObjectId>, String, String) {
        let mut g = diamond_kernel(workers);
        let (z, [_, _, _, d]) = fire_diamond(&mut g);
        set_v(&mut g, z, 77);
        let refreshed = g.refresh_object(d).unwrap();
        assert_eq!(v_of(&g, refreshed.outputs[0]), 77);
        set_v(&mut g, z, 78);
        let fresh = g.query(&Query::class("d").fresh()).unwrap();
        assert!(fresh.stale.is_empty());
        let answer: Vec<ObjectId> = fresh.objects.iter().map(|o| o.id).collect();
        assert_eq!(answer.len(), 1, "both stale hits rebind to one fresh sink");
        assert_eq!(v_of(&g, answer[0]), 78);
        let dir = std::env::temp_dir().join(format!(
            "gaea-sched-parity-{}-{workers}",
            std::process::id()
        ));
        g.save(&dir).unwrap();
        let read = |file: &str| std::fs::read_to_string(dir.join(file)).unwrap();
        let state = (answer, read("manifest.json"), read("catalog.json"));
        let _ = std::fs::remove_dir_all(&dir);
        state
    };
    let (answer1, store1, catalog1) = run(1);
    for workers in [2, 4] {
        let (answer, store, catalog) = run(workers);
        assert_eq!(
            answer, answer1,
            "FRESH answer diverged at {workers} workers"
        );
        assert_eq!(store, store1, "store diverged at {workers} workers");
        assert_eq!(catalog, catalog1, "catalog diverged at {workers} workers");
    }
}

// ---------------------------------------------------------------------
// The query pipeline's wave stage
// ---------------------------------------------------------------------

/// Two-branch fixture: `base_a` --P_LEFT--> `mid_a`, `base_b`
/// --P_RIGHT--> `mid_b`, then (`mid_a`, `mid_b`) --P_JOIN--> `goal`.
fn branches_kernel(workers: usize) -> Gaea {
    let mut g = Gaea::in_memory();
    g.set_workers(workers);
    for (name, base) in [
        ("base_a", true),
        ("base_b", true),
        ("mid_a", false),
        ("mid_b", false),
        ("goal", false),
    ] {
        int_class(&mut g, name, base);
    }
    g.define_process(
        ProcessSpec::new("P_LEFT", "mid_a")
            .arg("src", "base_a")
            .template(copy_v("src")),
    )
    .unwrap();
    g.define_process(
        ProcessSpec::new("P_RIGHT", "mid_b")
            .arg("src", "base_b")
            .template(copy_v("src")),
    )
    .unwrap();
    g.define_process(
        ProcessSpec::new("P_JOIN", "goal")
            .arg("x", "mid_a")
            .arg("y", "mid_b")
            .template(copy_v("x")),
    )
    .unwrap();
    let _ = insert_v(&mut g, "base_a", 11);
    let _ = insert_v(&mut g, "base_b", 22);
    g
}

fn goal_query() -> Query {
    Query::class("goal").with_strategy(QueryStrategy::PreferDerivation)
}

#[test]
fn multi_worker_query_routes_through_waves_and_matches_serial() {
    // Reference: the query pipeline at one worker.
    let mut serial = branches_kernel(1);
    let s_out = serial.query(&goal_query()).unwrap();
    assert_eq!(s_out.method, QueryMethod::Derived);

    for workers in [1, 4] {
        let mut g = branches_kernel(workers);
        let out = g.query(&goal_query()).unwrap();
        assert_eq!(out.method, QueryMethod::Derived);
        assert_eq!(out.objects.len(), s_out.objects.len());
        assert_eq!(
            out.objects[0].attrs, s_out.objects[0].attrs,
            "same derived attributes at {workers} workers"
        );
        assert_eq!(
            g.catalog().tasks.len(),
            serial.catalog().tasks.len(),
            "same number of recorded tasks at {workers} workers"
        );
        // Both independent branches and the join fired exactly once each.
        for p in ["P_LEFT", "P_RIGHT", "P_JOIN"] {
            assert_eq!(tasks_of(&g, p), 1, "{p} at {workers} workers");
        }

        // The repeated query is answered by step-1 retrieval: nothing
        // re-fires and the same stored object comes back.
        let tasks_before = g.catalog().tasks.len();
        let warm = g.query(&goal_query()).unwrap();
        assert_eq!(warm.method, QueryMethod::Retrieved);
        assert_eq!(
            g.catalog().tasks.len(),
            tasks_before,
            "nothing re-fired at {workers} workers"
        );
        assert_eq!(warm.objects[0].id, out.objects[0].id);
    }
}

#[test]
fn refresh_all_then_query_serves_current_answers() {
    let mut g = branches_kernel(4);
    let first = g.query(&goal_query()).unwrap();
    let goal = first.objects[0].id;
    // Mutate one branch's base: the whole chain through it goes stale.
    let base = g.objects_of("base_a").unwrap()[0];
    set_v(&mut g, base, 99);
    assert!(g.is_stale(goal));

    let report = g.refresh_all().unwrap();
    assert!(report.skipped.is_empty());
    // P_RIGHT's branch was untouched and must not re-fire.
    assert_eq!(tasks_of(&g, "P_RIGHT"), 1);
    assert_eq!(tasks_of(&g, "P_LEFT"), 2);
    assert_eq!(tasks_of(&g, "P_JOIN"), 2);
    let fresh_goal = report.replacements[&goal];
    assert!(!g.is_stale(fresh_goal));
    assert_eq!(v_of(&g, fresh_goal), 99);
}

#[test]
fn self_feeding_process_repetitions_serialize_across_waves() {
    // GROW's output class is also its input class, so repetition k+1 must
    // be able to bind repetition k's freshly committed output. The wave
    // builder must order same-process repetitions of a self-feeding
    // process instead of placing them side by side — otherwise the second
    // repetition sees no admissible binding and the multi-worker pipeline
    // diverges from the single-worker one (regression).
    let build = |workers: usize| {
        let mut g = Gaea::in_memory();
        g.set_workers(workers);
        int_class(&mut g, "seed", true);
        int_class(&mut g, "acc", false);
        int_class(&mut g, "goal", false);
        g.define_process(
            ProcessSpec::new("P_INIT", "acc")
                .arg("s", "seed")
                .template(copy_v("s")),
        )
        .unwrap();
        g.define_process(
            ProcessSpec::new("GROW", "acc")
                .arg("src", "acc")
                .template(copy_v("src")),
        )
        .unwrap();
        g.define_process(
            ProcessSpec::new("SINK", "goal")
                .setof_arg("xs", "acc", 3)
                .template(Template {
                    assertions: vec![],
                    mappings: vec![Mapping {
                        attr: "v".into(),
                        expr: Expr::int(1),
                    }],
                }),
        )
        .unwrap();
        insert_v(&mut g, "seed", 5);
        g
    };
    let q = Query::class("goal").with_strategy(QueryStrategy::PreferDerivation);
    let mut serial = build(1);
    let s_out = serial.query(&q).unwrap();
    for workers in [2, 4] {
        let mut g = build(workers);
        let out = g.query(&q).unwrap();
        assert_eq!(out.objects.len(), s_out.objects.len());
        assert_eq!(
            g.catalog().tasks.len(),
            serial.catalog().tasks.len(),
            "scheduled pipeline diverged from serial at {workers} workers"
        );
        assert_eq!(tasks_of(&g, "GROW"), 2, "both repetitions realized");
    }
}

#[test]
fn cyclic_plan_fires_one_node_waves_in_plan_order() {
    // `a` is derived from base data (P_A) and through `b` (P_BA), and `b`
    // is derived from `a` (P_AB). A goal needing two distinct `a` objects
    // from one `src` makes the planner use the cycle: P_A, P_AB, P_BA,
    // then P_GOAL. P_BA's output feeds P_AB and P_AB's feeds P_BA, so the
    // plan has no wave order and every firing runs as its own wave in the
    // plan's firing order. P_BA also reads `src`, which bounds the cycle
    // to one turn.
    let build = |workers: usize| {
        let mut g = Gaea::in_memory();
        g.set_workers(workers);
        int_class(&mut g, "src", true);
        for c in ["a", "b", "goal"] {
            int_class(&mut g, c, false);
        }
        g.define_process(
            ProcessSpec::new("P_A", "a")
                .arg("s", "src")
                .template(copy_v("s")),
        )
        .unwrap();
        g.define_process(
            ProcessSpec::new("P_AB", "b")
                .arg("x", "a")
                .template(copy_v("x")),
        )
        .unwrap();
        g.define_process(
            ProcessSpec::new("P_BA", "a")
                .arg("y", "b")
                .arg("s", "src")
                .template(copy_v("y")),
        )
        .unwrap();
        g.define_process(
            ProcessSpec::new("P_GOAL", "goal")
                .setof_arg("xs", "a", 2)
                .template(Template {
                    assertions: vec![],
                    mappings: vec![Mapping {
                        attr: "v".into(),
                        expr: Expr::int(1),
                    }],
                }),
        )
        .unwrap();
        insert_v(&mut g, "src", 3);
        g
    };
    let run = |workers: usize| {
        let mut g = build(workers);
        let out = g.query(&goal_query()).unwrap();
        assert_eq!(out.method, QueryMethod::Derived, "at {workers} workers");
        for p in ["P_A", "P_AB", "P_BA", "P_GOAL"] {
            assert_eq!(tasks_of(&g, p), 1, "{p} fired once at {workers} workers");
        }
        let tasks: Vec<String> = g.catalog().tasks.values().map(|t| t.to_string()).collect();
        let outputs: Vec<_> = out
            .objects
            .iter()
            .map(|o| (o.id, o.attrs.clone()))
            .collect();
        (tasks, out.tasks, outputs)
    };
    let one = run(1);
    assert_eq!(run(4), one, "cyclic plan diverged between 1 and 4 workers");
}
