//! Property tests for the multi-session tentpole's snapshot-isolation
//! contract: any interleaving of snapshot-pinned readers with a writer
//! stream yields reader answers equal to *some committed prefix* of the
//! write history, with `stale` and `pending` flags judged against the
//! pinned version — never the live one. A differential property holds
//! the two query drivers to one answer: a random read-only `RETRIEVE`
//! through the pinned `ReadView::query` equals the same statement
//! through the live `Gaea::query`.
//!
//! CI runs this file in the `props` job at `PROPTEST_CASES=256`.

use gaea::adt::{AbsTime, GeoBox, TypeTag, Value};
use gaea::core::external::SimulatedSite;
use gaea::core::kernel::{
    ClassSpec, Gaea, ProcessSpec, ReadView, SharedKernel, AUTO_INDEX_THRESHOLD,
};
use gaea::core::template::{Expr, Mapping, Template};
use gaea::core::{AttrCmp, AttrPred, KernelError, ObjectId, Query, QueryOutcome, QueryStrategy};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};

/// Schema: base `obs {v}`, derived `dbl {v}`, local `COPY: obs → dbl`.
fn kernel() -> Gaea {
    let mut g = Gaea::in_memory();
    g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4).no_extents())
        .unwrap();
    g.define_class(
        ClassSpec::derived("dbl")
            .attr("v", TypeTag::Int4)
            .no_extents(),
    )
    .unwrap();
    g.define_process(
        ProcessSpec::new("COPY", "dbl")
            .arg("x", "obs")
            .template(Template {
                assertions: vec![],
                mappings: vec![Mapping {
                    attr: "v".into(),
                    expr: Expr::proj("x", "v"),
                }],
            }),
    )
    .unwrap();
    g
}

fn q(class: &str) -> Query {
    Query::class(class).with_strategy(QueryStrategy::RetrieveOnly)
}

/// Rows in the differential fixture's `obs` extent: above the
/// auto-index threshold, so a live `ORDER BY v LIMIT n` creates an index
/// on `v` and walks it, while a view pinned beforehand full-scans.
const DIFF_ROWS: i32 = 300;

/// The differential fixture: `obs {v, w}` with spatial and temporal
/// extents and [`DIFF_ROWS`] rows (`v` repeats, so `ORDER BY v` has
/// ties); `dbl {v}` derived from `obs` by `COPY`, three of its six
/// objects stale; `rem {v}` with one `REMOTE` job stuck in flight at a
/// gated site; and the concept `every` over all three classes. Dropping
/// the returned sender fails the stuck job.
fn differential_kernel() -> (Gaea, Sender<()>) {
    let mut g = Gaea::in_memory();
    g.define_class(
        ClassSpec::base("obs")
            .attr("v", TypeTag::Int4)
            .attr("w", TypeTag::Int4),
    )
    .unwrap();
    for derived in ["dbl", "rem"] {
        g.define_class(
            ClassSpec::derived(derived)
                .attr("v", TypeTag::Int4)
                .no_extents(),
        )
        .unwrap();
    }
    g.define_process(
        ProcessSpec::new("COPY", "dbl")
            .arg("x", "obs")
            .template(Template {
                assertions: vec![],
                mappings: vec![Mapping {
                    attr: "v".into(),
                    expr: Expr::proj("x", "v"),
                }],
            }),
    )
    .unwrap();
    g.define_external_process(ProcessSpec::new("REMOTE", "rem").arg("x", "obs"), "gated")
        .unwrap();
    let (gate, rx) = channel::<()>();
    let rx = Mutex::new(rx);
    g.register_site(
        "gated",
        Arc::new(SimulatedSite::new("gated", move |_def, _inputs| {
            rx.lock()
                .unwrap()
                .recv()
                .map_err(|_| KernelError::Template("gate dropped".into()))?;
            Ok(BTreeMap::new())
        })),
    );
    g.define_concept("every", &["obs", "dbl", "rem"], &[], "")
        .unwrap();
    let mut oids = Vec::new();
    for i in 0..DIFF_ROWS {
        let (x, y) = (f64::from(i % 20), f64::from(i / 20 % 15));
        oids.push(
            g.insert_object(
                "obs",
                vec![
                    ("v", Value::Int4(i % 50)),
                    ("w", Value::Int4(i)),
                    ("timestamp", Value::AbsTime(AbsTime(i64::from(i % 30)))),
                    (
                        "spatialextent",
                        Value::GeoBox(GeoBox::new(x, y, x + 1.0, y + 1.0)),
                    ),
                ],
            )
            .unwrap(),
        );
    }
    for &oid in oids.iter().step_by(50).take(6) {
        g.run_process("COPY", &[("x", vec![oid])]).unwrap();
    }
    for &oid in oids.iter().step_by(100) {
        g.update_object(oid, vec![("v", Value::Int4(-1))]).unwrap();
    }
    let mut rq = q("rem");
    rq.strategy = QueryStrategy::PreferDerivation;
    rq.async_submit = true;
    g.submit_derivation(&rq).unwrap();
    (g, gate)
}

/// A random read-only `RETRIEVE` over the differential fixture: a class
/// or concept target, `*` or a projection, any of `v =/</> n`,
/// `WITHIN`, `AT`/`BETWEEN`, then `ORDER BY v` and `LIMIT`.
fn retrieve_text() -> impl Strategy<Value = String> {
    (
        prop_oneof![4 => Just("obs"), 2 => Just("dbl"), 2 => Just("every"), 1 => Just("rem")],
        any::<bool>(),
        proptest::option::of((prop_oneof![Just('='), Just('<'), Just('>')], 0i32..52)),
        proptest::option::of((0i32..20, 0i32..15, 0i32..8, 0i32..8)),
        proptest::option::of((any::<bool>(), 0i64..30, 0i64..12)),
        proptest::option::of(any::<bool>()),
        proptest::option::of(0u64..40),
    )
        .prop_map(|(target, project, cmp, within, time, order, limit)| {
            let mut wheres = Vec::new();
            if let Some((op, n)) = cmp {
                wheres.push(format!("v {op} {n}"));
            }
            if let Some((x, y, dx, dy)) = within {
                wheres.push(format!("WITHIN({x}, {y}, {}, {})", x + dx, y + dy));
            }
            match time {
                Some((true, t, _)) => wheres.push(format!("AT {t}")),
                Some((false, t, span)) => wheres.push(format!("BETWEEN {t} AND {}", t + span)),
                None => {}
            }
            let mut text = format!("RETRIEVE {} FROM {target}", if project { "v" } else { "*" });
            if !wheres.is_empty() {
                text += &format!(" WHERE {}", wheres.join(" AND "));
            }
            if let Some(desc) = order {
                text += if desc {
                    " ORDER BY v DESC"
                } else {
                    " ORDER BY v"
                };
            }
            if let Some(n) = limit {
                text += &format!(" LIMIT {n}");
            }
            text
        })
}

/// Everything the two drivers must agree on: objects (ids and
/// attributes, in answer order), method, the stale set, pending jobs
/// and the depth-1 profile stages — or the error text. Scan plans may
/// differ (the live driver creates indexes a pinned view lacks).
fn comparable(
    result: Result<QueryOutcome, KernelError>,
) -> Result<impl PartialEq + std::fmt::Debug, String> {
    let out = result.map_err(|e| e.to_string())?;
    let stages: Vec<String> = out
        .profile
        .expect("traced statement carries a profile")
        .stages
        .into_iter()
        .filter(|s| s.depth == 1)
        .map(|s| s.stage)
        .collect();
    let objects: Vec<_> = out.objects.into_iter().map(|o| (o.id, o.attrs)).collect();
    let stale: BTreeSet<ObjectId> = out.stale.into_iter().collect();
    Ok((objects, out.method, stale, out.pending, stages))
}

/// One committed statement in the writer stream, or a reader pinning a
/// view mid-stream.
#[derive(Debug, Clone)]
enum Step {
    /// Insert into `obs`.
    Insert(i32),
    /// Mutate an existing `obs` object (staleness driver: every `dbl`
    /// derived from it goes stale).
    Update(usize, i32),
    /// Fire `COPY` on an existing `obs` object, deriving a `dbl`.
    Fire(usize),
    /// Delete an existing `obs` object (its `dbl`s go stale).
    Delete(usize),
    /// A live `RETRIEVE * FROM obs WHERE v = k` on the commit path: over
    /// [`AUTO_INDEX_THRESHOLD`] rows its plan stage creates an index on
    /// `v` — a structural write that ticks no clock.
    Retrieve(i32),
    /// Pin a view here and remember what it must keep answering.
    Pin,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => any::<i32>().prop_map(Step::Insert),
        2 => ((0usize..64), any::<i32>()).prop_map(|(i, v)| Step::Update(i, v)),
        2 => (0usize..64).prop_map(Step::Fire),
        1 => (0usize..64).prop_map(Step::Delete),
        1 => (0i32..8).prop_map(Step::Retrieve),
        3 => Just(Step::Pin),
    ]
}

/// The full committed state a pinned view must keep answering: taken at
/// pin time, compared at the very end after the writer stream moved on.
#[derive(Debug)]
struct Expectation {
    view: Arc<ReadView>,
    clock: u64,
    obs_count: usize,
    dbl_count: usize,
    stale: BTreeSet<ObjectId>,
}

proptest! {
    /// Sequential interleaving: every view pinned mid-stream still
    /// answers exactly the committed prefix it was pinned at — object
    /// counts and the stale set — after the writer stream has moved
    /// arbitrarily far past it. Each pin is published from the previous
    /// view, so it must also answer what a view pinned from scratch at
    /// the same instant answers.
    #[test]
    fn pinned_views_answer_their_committed_prefix_forever(
        steps in proptest::collection::vec(step_strategy(), 1..40)
    ) {
        // Seed `obs` past the auto-index threshold so a live `Retrieve`
        // step creates its index.
        let mut g = kernel();
        let mut live_obs: Vec<ObjectId> = (0..AUTO_INDEX_THRESHOLD as i32)
            .map(|i| g.insert_object("obs", vec![("v", Value::Int4(i % 8))]).unwrap())
            .collect();
        let shared = SharedKernel::new(g);
        let mut expectations: Vec<Expectation> = Vec::new();

        for step in &steps {
            match step {
                Step::Insert(v) => {
                    let oid = shared.exec(|g| {
                        g.insert_object("obs", vec![("v", Value::Int4(*v))]).unwrap()
                    });
                    live_obs.push(oid);
                }
                Step::Update(i, v) => {
                    if !live_obs.is_empty() {
                        let oid = live_obs[i % live_obs.len()];
                        shared.exec(|g| {
                            g.update_object(oid, vec![("v", Value::Int4(*v))]).unwrap()
                        });
                    }
                }
                Step::Fire(i) => {
                    if !live_obs.is_empty() {
                        let oid = live_obs[i % live_obs.len()];
                        shared.exec(|g| {
                            g.run_process("COPY", &[("x", vec![oid])]).unwrap()
                        });
                    }
                }
                Step::Delete(i) => {
                    if !live_obs.is_empty() {
                        let oid = live_obs.remove(i % live_obs.len());
                        shared.exec(|g| g.delete_object(oid).unwrap());
                    }
                }
                Step::Retrieve(k) => {
                    let mut live = q("obs");
                    live.attr_preds.push(AttrPred::new("v", AttrCmp::Eq, Value::Int4(*k)));
                    shared.exec(|g| g.query(&live).map(|o| o.objects.len()).ok());
                }
                Step::Pin => {
                    let view = shared.pin();
                    let scratch = shared.exec(|g| g.read_view());
                    prop_assert_eq!(view.clock(), scratch.clock());
                    for class in ["obs", "dbl"] {
                        let mut point = q(class);
                        point.attr_preds.push(AttrPred::new("v", AttrCmp::Eq, Value::Int4(3)));
                        for query in [q(class), point] {
                            prop_assert_eq!(
                                comparable(view.query(&query)),
                                comparable(scratch.query(&query)),
                                "incremental vs from-scratch view"
                            );
                        }
                    }
                    // The ground truth at this commit point, read off the
                    // fresh pin itself *and* cross-checked against the
                    // serialized kernel (same instant, no writer racing).
                    let (obs_count, dbl_count, stale) = match view.query(&q("obs")) {
                        Ok(o) => {
                            let (d, s) = match view.query(&q("dbl")) {
                                Ok(d) => (
                                    d.objects.len(),
                                    d.stale.iter().copied().collect::<BTreeSet<_>>(),
                                ),
                                Err(_) => (0, BTreeSet::new()),
                            };
                            (o.objects.len(), d, s)
                        }
                        Err(_) => (0, 0, BTreeSet::new()),
                    };
                    let live_now: usize = shared.exec(|g| {
                        g.query(&q("obs")).map(|o| o.objects.len()).unwrap_or(0)
                    });
                    // A pin with no writer in flight is fully caught up.
                    prop_assert_eq!(obs_count, live_now);
                    expectations.push(Expectation {
                        clock: view.clock(),
                        view,
                        obs_count,
                        dbl_count,
                        stale,
                    });
                }
            }
        }

        // The stream is over; every pinned view must still answer its
        // own commit point exactly.
        for e in &expectations {
            prop_assert_eq!(e.view.clock(), e.clock, "a view's clock never moves");
            let obs_now = match e.view.query(&q("obs")) {
                Ok(o) => o.objects.len(),
                Err(_) => 0,
            };
            prop_assert_eq!(obs_now, e.obs_count);
            let (dbl_now, stale_now) = match e.view.query(&q("dbl")) {
                Ok(d) => (
                    d.objects.len(),
                    d.stale.iter().copied().collect::<BTreeSet<_>>(),
                ),
                Err(_) => (0, BTreeSet::new()),
            };
            prop_assert_eq!(dbl_now, e.dbl_count);
            prop_assert_eq!(&stale_now, &e.stale, "stale flags judged at the pinned version");
        }

        // Pins were taken in stream order: clocks never regress.
        for pair in expectations.windows(2) {
            prop_assert!(pair[0].clock <= pair[1].clock);
        }
    }

    /// Threaded interleaving: K reader threads pin and query while a
    /// writer thread streams inserts. Every reader answer must equal
    /// the committed prefix at its pinned clock — the writer records
    /// the (clock, count) history, readers record observations, and
    /// the two must agree exactly.
    #[test]
    fn concurrent_readers_see_only_committed_prefixes(
        writes in 1usize..40,
        readers in 1usize..5,
        reads_each in 1usize..20,
    ) {
        let shared = SharedKernel::new({
            let mut g = kernel();
            g.insert_object("obs", vec![("v", Value::Int4(0))]).unwrap();
            g
        });
        // clock → committed obs count, seeded with the initial state.
        let history = Arc::new(Mutex::new(std::collections::HashMap::new()));
        {
            let view = shared.pin();
            let count = view.query(&q("obs")).unwrap().objects.len();
            history.lock().unwrap().insert(view.clock(), count);
        }

        let writer = {
            let shared = Arc::clone(&shared);
            let history = Arc::clone(&history);
            std::thread::spawn(move || {
                for v in 0..writes {
                    shared.exec(|g| {
                        g.insert_object("obs", vec![("v", Value::Int4(v as i32))]).unwrap();
                        // Record while still holding the commit path:
                        // the clock→count pair is atomic with the commit.
                        let clock = g.store_clock();
                        let count = g.query(&q("obs")).unwrap().objects.len();
                        history.lock().unwrap().insert(clock, count);
                    });
                }
            })
        };

        let reader_handles: Vec<_> = (0..readers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut seen: Vec<(u64, usize)> = Vec::new();
                    let mut last_clock = 0;
                    for _ in 0..reads_each {
                        let view = shared.pin();
                        let outcome = view.query(&q("obs")).unwrap();
                        // Within one view, repetition is free: same answer.
                        let again = view.query(&q("obs")).unwrap();
                        assert_eq!(outcome.objects.len(), again.objects.len());
                        // Pins never travel back in time.
                        assert!(view.clock() >= last_clock);
                        last_clock = view.clock();
                        seen.push((view.clock(), outcome.objects.len()));
                    }
                    seen
                })
            })
            .collect();

        writer.join().unwrap();
        let history = history.lock().unwrap();
        for r in reader_handles {
            for (clock, count) in r.join().unwrap() {
                let expected = history.get(&clock);
                prop_assert_eq!(
                    expected,
                    Some(&count),
                    "a reader at clock {} saw {} objects; committed history says {:?}",
                    clock,
                    count,
                    expected
                );
            }
        }
    }

    /// `pending` on a pinned outcome only ever names jobs that were
    /// submitted at or before the pin — a job submitted after the pin
    /// is invisible, exactly like data committed after the pin.
    #[test]
    fn pinned_pending_never_leaks_future_jobs(
        before in 0usize..4,
        after in 1usize..4,
    ) {
        let shared = SharedKernel::new({
            let mut g = kernel();
            for v in 0..4 {
                g.insert_object("obs", vec![("v", Value::Int4(v))]).unwrap();
            }
            g
        });
        let mut dq = q("dbl");
        dq.strategy = QueryStrategy::PreferDerivation;
        dq.async_submit = true;

        let mut submitted_before = Vec::new();
        for _ in 0..before {
            if let Ok(id) = shared.exec(|g| g.submit_derivation(&dq)) {
                submitted_before.push(id.0);
            }
        }
        let view = shared.pin();
        for _ in 0..after {
            let _ = shared.exec(|g| g.submit_derivation(&dq));
        }

        // The pinned board must not know any job submitted after the pin.
        let horizon = submitted_before.iter().copied().max().unwrap_or(0);
        for job in view.jobs() {
            prop_assert!(
                job.id.0 <= horizon,
                "pinned board leaked future job {:?} (horizon {})",
                job.id,
                horizon
            );
        }
        // And a pinned query's pending list draws only from that board.
        if let Ok(outcome) = view.query(&q("dbl")) {
            for id in outcome.pending {
                prop_assert!(id.0 <= horizon);
            }
        }
    }

    /// Differential: the pinned and the live driver answer every
    /// read-only statement alike. The view is pinned before any live
    /// statement runs, so it keeps scanning without the indexes the live
    /// plan stage creates along the way.
    #[test]
    fn pinned_and_live_drivers_answer_alike(
        texts in proptest::collection::vec(retrieve_text(), 1..6)
    ) {
        let (mut g, _gate) = differential_kernel();
        let view = g.read_view();
        for text in &texts {
            let q = gaea::lang::compile_query(view.catalog(), text).unwrap();
            prop_assert!(ReadView::is_read_only(&q));
            let pinned = comparable(view.query(&q));
            let live = comparable(g.query(&q));
            prop_assert_eq!(pinned, live, "{}", text);
        }
    }
}
