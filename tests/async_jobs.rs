//! Asynchronous derivation jobs (§5): non-blocking external-site firings.
//!
//! The paper's external processes run at remote sites and can take
//! minutes — "Gaea writes the task record when the result arrives" while
//! the interactive session stays responsive. These tests pin that
//! contract down end to end: `RETRIEVE … DERIVE ASYNC` returns a job id
//! immediately; synchronous queries on unrelated classes complete while
//! the job is still in flight; the committed task/object state after
//! `await_job` is byte-identical to a synchronous run; in-flight jobs
//! are visible (query `pending` lists, `DerivationPending` refusals,
//! submit dedup, `refresh_all` pending entries) instead of being
//! double-fired; and the whole surface survives N threads hammering
//! submit/cancel/await against one kernel.
//!
//! Sites are *gate-backed* (they block on a channel until the test
//! releases them), so every "while the job is in flight" assertion is
//! deterministic — no sleep-based timing assumptions.

use gaea::adt::{AbsTime, TypeTag, Value};
use gaea::core::external::SimulatedSite;
use gaea::core::kernel::{ClassSpec, Gaea, JobStatus, ProcessSpec};
use gaea::core::template::{Expr, Mapping, Template};
use gaea::core::{JobId, KernelError, Query, QueryMethod, QueryStrategy};
use gaea::lang::Retrieve as _;
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn day(d: u32) -> AbsTime {
    AbsTime::from_ymd(1986, 1, d).unwrap()
}

/// The remote mapping: `v → 2·v`, shared by every site in this suite.
fn double_v(
    inputs: &gaea::core::external::ExternalInputs,
) -> gaea::core::KernelResult<BTreeMap<String, Value>> {
    let v = inputs["x"][0]
        .attr("v")
        .and_then(Value::as_i64)
        .unwrap_or(0);
    let mut out = BTreeMap::new();
    out.insert("v".to_string(), Value::Int4((v as i32) * 2));
    Ok(out)
}

/// A site that blocks on a channel until the test sends one release
/// token per execution — the deterministic stand-in for a slow remote
/// computation.
fn gated_site() -> (Arc<SimulatedSite>, Sender<()>) {
    let (tx, rx) = channel::<()>();
    let rx = Mutex::new(rx);
    let site = Arc::new(SimulatedSite::new("slow_site", move |_def, inputs| {
        rx.lock()
            .expect("gate receiver lock")
            .recv()
            .map_err(|_| KernelError::Template("site gate dropped".into()))?;
        double_v(inputs)
    }));
    (site, tx)
}

/// A kernel with `n_obs` timestamped base observations, an external
/// process `REMOTE: obs → remote_out` at `slow_site`, and an unrelated
/// `local` class for interactive queries.
fn job_kernel(site: Arc<SimulatedSite>, n_obs: u32) -> Gaea {
    let mut g = Gaea::in_memory();
    define_job_schema(&mut g, site, n_obs);
    g
}

/// [`job_kernel`]'s schema, site and data, on any kernel.
fn define_job_schema(g: &mut Gaea, site: Arc<SimulatedSite>, n_obs: u32) {
    g.set_workers(1);
    g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4))
        .unwrap();
    g.define_class(ClassSpec::derived("remote_out").attr("v", TypeTag::Int4))
        .unwrap();
    g.define_class(
        ClassSpec::base("local")
            .attr("v", TypeTag::Int4)
            .no_extents(),
    )
    .unwrap();
    g.define_external_process(
        ProcessSpec::new("REMOTE", "remote_out").arg("x", "obs"),
        "slow_site",
    )
    .unwrap();
    g.register_site("slow_site", site);
    for i in 0..n_obs {
        g.insert_object(
            "obs",
            vec![
                ("v", Value::Int4(10 + i as i32)),
                ("timestamp", Value::AbsTime(day(1 + i))),
            ],
        )
        .unwrap();
    }
    g.insert_object("local", vec![("v", Value::Int4(1))])
        .unwrap();
}

fn remote_task_count(g: &Gaea) -> usize {
    let pid = g.catalog().process_by_name("REMOTE").unwrap().id;
    g.catalog().tasks_of_process(pid).count()
}

// ----------------------------------------------------------------------
// The acceptance scenario
// ----------------------------------------------------------------------

/// `DERIVE ASYNC` returns a job id immediately; a synchronous query on
/// an unrelated class completes while the job is provably still in
/// flight; after `await_job` the committed task and object state is
/// byte-identical to a synchronous run of the same statement.
#[test]
fn async_submission_is_nonblocking_and_commits_identically() {
    let (site, gate) = gated_site();
    let mut g = job_kernel(site, 1);
    let out = g
        .retrieve("RETRIEVE * FROM remote_out DERIVE ASYNC")
        .unwrap();
    assert_eq!(out.method, QueryMethod::Submitted);
    assert!(out.objects.is_empty(), "nothing computed yet");
    assert!(out.tasks.is_empty());
    let job = out.pending[0];
    assert!(!g.job_status(job).unwrap().is_terminal());

    // The site is still gated: an interactive query on an unrelated
    // class completes while the firing is in flight.
    let local = g.query(&Query::class("local")).unwrap();
    assert_eq!(local.method, QueryMethod::Retrieved);
    assert_eq!(local.objects.len(), 1);
    assert!(
        !g.job_status(job).unwrap().is_terminal(),
        "the job outlives the interactive query"
    );
    assert_eq!(remote_task_count(&g), 0, "no task record before the result");

    // Release the site; the result arrives and commits on await.
    gate.send(()).unwrap();
    let status = g.await_job(job, Duration::from_secs(10)).unwrap();
    let task = match status {
        JobStatus::Done(task) => task,
        other => panic!("expected Done, got {other:?}"),
    };

    // The synchronous twin: identical kernel, identical statement, site
    // released up front.
    let (site2, gate2) = gated_site();
    gate2.send(()).unwrap();
    let mut g2 = job_kernel(site2, 1);
    let sync = g2.retrieve("RETRIEVE * FROM remote_out DERIVE").unwrap();
    assert_eq!(sync.method, QueryMethod::Derived);

    // Byte-identical task records (ids, inputs, fingerprints, params,
    // seq, user — everything serde serializes)…
    let async_task = serde_json::to_string(g.task(task).unwrap()).unwrap();
    let sync_task = serde_json::to_string(g2.task(sync.tasks[0]).unwrap()).unwrap();
    assert_eq!(async_task, sync_task);
    // …and byte-identical committed objects, served the same way.
    let re = g.query(&Query::class("remote_out")).unwrap();
    let re2 = g2.query(&Query::class("remote_out")).unwrap();
    assert_eq!(re.objects, re2.objects);
    assert_eq!(re.objects[0].attr("v"), Some(&Value::Int4(20)));
    assert!(re.stale.is_empty() && re.pending.is_empty());
}

/// A local primitive derivation can be submitted too: the template
/// evaluates at submit time (local work is cheap) and the job is born
/// ready, committing at the next pump.
#[test]
fn primitive_submissions_commit_via_pump() {
    let (site, _gate) = gated_site();
    let mut g = job_kernel(site, 1);
    g.define_class(ClassSpec::derived("mid").attr("v", TypeTag::Int4))
        .unwrap();
    g.define_process(
        ProcessSpec::new("LOCAL_COPY", "mid")
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
    let job = g.retrieve_job("RETRIEVE * FROM mid DERIVE").unwrap();
    let status = g.await_job(job, Duration::from_secs(10)).unwrap();
    let task = status.task().expect("primitive job commits");
    assert_eq!(g.task(task).unwrap().process_name, "LOCAL_COPY");
    let out = g.query(&Query::class("mid")).unwrap();
    assert_eq!(out.objects[0].attr("v"), Some(&Value::Int4(10)));
}

// ----------------------------------------------------------------------
// Visibility of in-flight derivations
// ----------------------------------------------------------------------

/// Step-1 answers list in-flight jobs of the target class in
/// `QueryOutcome::pending`; once the job commits the pending list empties
/// and the answer grows.
#[test]
fn pending_jobs_are_visible_in_step1_outcomes() {
    let (site, gate) = gated_site();
    let mut g = job_kernel(site, 1);
    // A stored answer exists, so retrieval succeeds while the job flies.
    g.insert_object("remote_out", vec![("v", Value::Int4(5))])
        .unwrap();
    let job = g
        .retrieve_job("RETRIEVE * FROM remote_out DERIVE ASYNC")
        .unwrap();
    let out = g.query(&Query::class("remote_out")).unwrap();
    assert_eq!(out.method, QueryMethod::Retrieved);
    assert_eq!(out.objects.len(), 1);
    assert_eq!(
        out.pending,
        vec![job],
        "the in-flight derivation is visible"
    );
    // An unrelated class lists nothing.
    assert!(g.query(&Query::class("local")).unwrap().pending.is_empty());
    gate.send(()).unwrap();
    g.await_job(job, Duration::from_secs(10)).unwrap();
    let after = g.query(&Query::class("remote_out")).unwrap();
    assert!(after.pending.is_empty());
    assert_eq!(after.objects.len(), 2, "the job's output joined the answer");
}

/// A `Submitted` outcome's `pending` leads with the query's own job and
/// also lists every other in-flight job of the target class — the
/// documented contract of `QueryOutcome::pending`.
#[test]
fn submitted_outcomes_list_other_inflight_jobs_too() {
    let (site, gate) = gated_site();
    let mut g = job_kernel(site, 2);
    let other = g
        .retrieve_job("RETRIEVE * FROM remote_out WHERE AT \"1986-01-01\" DERIVE ASYNC")
        .unwrap();
    let out = g
        .retrieve("RETRIEVE * FROM remote_out WHERE AT \"1986-01-02\" DERIVE ASYNC")
        .unwrap();
    assert_eq!(out.method, QueryMethod::Submitted);
    let own = out.pending[0];
    assert_ne!(own, other, "different bindings are different jobs");
    assert!(
        out.pending.contains(&other),
        "the earlier in-flight job is listed too: {:?}",
        out.pending
    );
    gate.send(()).unwrap();
    gate.send(()).unwrap();
    for job in [own, other] {
        assert!(g
            .await_job(job, Duration::from_secs(10))
            .unwrap()
            .is_terminal());
    }
}

/// A synchronous derivation refuses to double-fire a derivation that is
/// already in flight: the walker surfaces `DerivationPending` with the
/// job id instead of recording a duplicate task.
#[test]
fn sync_derivation_refuses_inflight_duplicates() {
    let (site, gate) = gated_site();
    let mut g = job_kernel(site, 1);
    let job = g
        .retrieve_job("RETRIEVE * FROM remote_out DERIVE ASYNC")
        .unwrap();
    let err = g
        .query(&Query::class("remote_out").with_strategy(QueryStrategy::PreferDerivation))
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("in flight") && msg.contains(&format!("job#{}", job.0)),
        "error must name the pending job: {msg}"
    );
    assert_eq!(remote_task_count(&g), 0, "nothing was double-fired");
    gate.send(()).unwrap();
    g.await_job(job, Duration::from_secs(10)).unwrap();
    // Once committed, the same query is answered from the store.
    let out = g
        .query(&Query::class("remote_out").with_strategy(QueryStrategy::PreferDerivation))
        .unwrap();
    assert_eq!(out.method, QueryMethod::Retrieved);
    assert_eq!(remote_task_count(&g), 1);
}

/// Duplicate submissions of the identical derivation dedup to one job —
/// the in-flight mirror of current-task reuse — and after the
/// job commits, a re-submission reuses the recorded task as a job that
/// is born Done.
#[test]
fn duplicate_submissions_dedup_to_one_job() {
    let (site, gate) = gated_site();
    let mut g = job_kernel(site, 1);
    let first = g
        .retrieve_job("RETRIEVE * FROM remote_out DERIVE ASYNC")
        .unwrap();
    let second = g
        .retrieve_job("RETRIEVE * FROM remote_out DERIVE ASYNC")
        .unwrap();
    assert_eq!(first, second, "identical in-flight derivation: same job");
    assert_eq!(g.jobs().len(), 1);
    gate.send(()).unwrap();
    let done = g.await_job(first, Duration::from_secs(10)).unwrap();
    let task = done.task().unwrap();
    // Resubmission after completion: the recorded derivation answers —
    // a fresh job id, born Done with the same task, nothing re-fired.
    let third = g
        .retrieve_job("RETRIEVE * FROM remote_out DERIVE ASYNC")
        .unwrap();
    assert_ne!(third, first);
    assert_eq!(g.job_status(third).unwrap(), JobStatus::Done(task));
    assert_eq!(remote_task_count(&g), 1);
}

/// The in-flight dedup walks only the unresolved jobs, not every job
/// the kernel has run: after 200 jobs resolved, a duplicate submission
/// still attaches to the one job in flight, and a synchronous `DERIVE`
/// of it is still refused.
#[test]
fn duplicate_submission_attaches_to_the_inflight_job_after_a_long_history() {
    let (site, gate) = gated_site();
    let mut g = job_kernel(site, 0);
    let at = |i: i64| day(1).plus_days(i);
    for i in 0..=200 {
        g.insert_object(
            "obs",
            vec![
                ("v", Value::Int4(i as i32)),
                ("timestamp", Value::AbsTime(at(i))),
            ],
        )
        .unwrap();
    }
    let derive = |i: i64, tail: &str| {
        format!(
            "RETRIEVE * FROM remote_out WHERE AT \"{}\" DERIVE{tail}",
            at(i)
        )
    };
    for i in 0..200 {
        let job = g.retrieve_job(&derive(i, " ASYNC")).unwrap();
        gate.send(()).unwrap();
        let status = g.await_job(job, Duration::from_secs(10)).unwrap();
        assert!(matches!(status, JobStatus::Done(_)), "job {i}: {status:?}");
    }
    let first = g.retrieve_job(&derive(200, " ASYNC")).unwrap();
    let second = g.retrieve_job(&derive(200, " ASYNC")).unwrap();
    assert_eq!(first, second, "the duplicate attaches to the job in flight");
    let msg = g.retrieve(&derive(200, "")).unwrap_err().to_string();
    assert!(
        msg.contains("in flight") && msg.contains(&format!("job#{}", first.0)),
        "the synchronous DERIVE must name the pending job: {msg}"
    );
    gate.send(()).unwrap();
    let task = g
        .await_job(first, Duration::from_secs(10))
        .unwrap()
        .task()
        .unwrap();
    assert_eq!(g.jobs().len(), 201);
    assert_eq!(remote_task_count(&g), 201);
    // Resolved, the derivation answers by reuse: a job born Done.
    let again = g.retrieve_job(&derive(200, " ASYNC")).unwrap();
    assert_eq!(g.job_status(again).unwrap(), JobStatus::Done(task));
}

// ----------------------------------------------------------------------
// Cancellation
// ----------------------------------------------------------------------

#[test]
fn cancel_queued_and_running_jobs_never_record_tasks() {
    let (site, gate) = gated_site();
    let mut g = job_kernel(site, 2);
    g.set_job_workers(1);
    // Job 1 occupies the single worker; job 2 (a distinct derivation,
    // pinned by its timestamp) stays queued.
    let j1 = g
        .retrieve_job("RETRIEVE * FROM remote_out WHERE AT \"1986-01-01\" DERIVE ASYNC")
        .unwrap();
    let j2 = g
        .retrieve_job("RETRIEVE * FROM remote_out WHERE AT \"1986-01-02\" DERIVE ASYNC")
        .unwrap();
    assert_ne!(j1, j2, "different bindings are different jobs");
    // Cancel the queued job: it never reaches the site.
    assert_eq!(g.cancel_job(j2).unwrap(), JobStatus::Cancelled);
    // Cancel the running job: the worker's eventual result is discarded.
    assert_eq!(g.cancel_job(j1).unwrap(), JobStatus::Cancelled);
    gate.send(()).unwrap(); // release the discarded execution
    assert_eq!(
        g.await_job(j1, Duration::from_secs(10)).unwrap(),
        JobStatus::Cancelled
    );
    assert_eq!(
        g.await_job(j2, Duration::from_millis(10)).unwrap(),
        JobStatus::Cancelled
    );
    assert_eq!(remote_task_count(&g), 0, "no task record ever appeared");
}

#[test]
fn cancel_after_done_is_a_clean_noop() {
    let (site, gate) = gated_site();
    let mut g = job_kernel(site, 1);
    let job = g
        .retrieve_job("RETRIEVE * FROM remote_out DERIVE ASYNC")
        .unwrap();
    gate.send(()).unwrap();
    let done = g.await_job(job, Duration::from_secs(10)).unwrap();
    let task = done.task().unwrap();
    assert_eq!(g.cancel_job(job).unwrap(), JobStatus::Done(task));
    assert_eq!(g.job_status(job).unwrap(), JobStatus::Done(task));
    assert!(g.task(task).is_ok(), "the recorded task stays on the books");
    assert_eq!(remote_task_count(&g), 1);
}

// ----------------------------------------------------------------------
// Failure surfaces
// ----------------------------------------------------------------------

/// Errors a synchronous firing would raise before going remote surface
/// at submit time; errors from the remote execution surface as Failed.
#[test]
fn submit_time_and_run_time_failures_split_correctly() {
    let (site, gate) = gated_site();
    site.set_reachable(false);
    let mut g = job_kernel(site.clone(), 1);
    // Unreachable at submit: an error now, not a failed job — the
    // plannable net excludes processes of unreachable sites, exactly as
    // it does for a synchronous query.
    let err = g
        .retrieve_job("RETRIEVE * FROM remote_out DERIVE ASYNC")
        .unwrap_err();
    assert!(matches!(err, KernelError::DerivationImpossible(_)), "{err}");
    assert!(g.jobs().is_empty());
    // Failure *during* the round-trip: the job reports Failed, no task
    // record appears. (Dropping the gate makes the remote body error
    // deterministically, wherever in the round-trip the worker is.)
    site.set_reachable(true);
    let job = g
        .retrieve_job("RETRIEVE * FROM remote_out DERIVE ASYNC")
        .unwrap();
    drop(gate);
    let status = g.await_job(job, Duration::from_secs(10)).unwrap();
    match status {
        JobStatus::Failed(msg) => assert!(msg.contains("gate dropped"), "{msg}"),
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(remote_task_count(&g), 0);
}

/// A site body that panics fails its job — the worker catches the
/// panic — and the same worker still runs a later job to completion.
#[test]
fn a_panicking_site_body_fails_the_job_and_the_next_job_completes() {
    let site = Arc::new(SimulatedSite::new("slow_site", |_def, inputs| {
        if inputs["x"][0].attr("v") == Some(&Value::Int4(10)) {
            panic!("site melted");
        }
        double_v(inputs)
    }));
    let mut g = job_kernel(site, 2);
    g.set_job_workers(1);
    let first = g
        .retrieve_job("RETRIEVE * FROM remote_out WHERE AT \"1986-01-01\" DERIVE ASYNC")
        .unwrap();
    match g.await_job(first, Duration::from_secs(10)).unwrap() {
        JobStatus::Failed(msg) => assert!(msg.contains("site melted"), "{msg}"),
        other => panic!("expected Failed, got {other:?}"),
    }
    let second = g
        .retrieve_job("RETRIEVE * FROM remote_out WHERE AT \"1986-01-02\" DERIVE ASYNC")
        .unwrap();
    let status = g.await_job(second, Duration::from_secs(10)).unwrap();
    assert!(matches!(status, JobStatus::Done(_)), "{status:?}");
    assert_eq!(remote_task_count(&g), 1);
}

/// Dropping a kernel returns at once even while one worker is stuck at
/// its site and another job is queued behind it: workers are detached,
/// and the queued body is dropped unrun.
#[test]
fn dropping_a_kernel_with_queued_jobs_returns_without_hanging() {
    let (site, gate) = gated_site();
    let mut g = job_kernel(site, 2);
    g.set_job_workers(1);
    g.retrieve_job("RETRIEVE * FROM remote_out WHERE AT \"1986-01-01\" DERIVE ASYNC")
        .unwrap();
    let queued = g
        .retrieve_job("RETRIEVE * FROM remote_out WHERE AT \"1986-01-02\" DERIVE ASYNC")
        .unwrap();
    assert_eq!(g.job_status(queued).unwrap(), JobStatus::Queued);
    let (dropped, rx) = channel();
    std::thread::spawn(move || {
        drop(g);
        let _ = dropped.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("dropping the kernel hung on its stuck worker");
    drop(gate); // the stuck worker's round-trip now errors, and it exits
}

/// A job whose remote body failed is not resolved in the journal: it
/// re-stages when the kernel reopens — from the snapshot a checkpoint
/// wrote, since the checkpoint truncated the log — and completes once
/// its site is back.
#[test]
fn a_job_whose_remote_body_failed_restages_on_reopen() {
    let dir = std::env::temp_dir().join(format!("gaea-async-failed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (site, gate) = gated_site();
    drop(gate); // every round-trip errors
    let mut g = Gaea::open(&dir).unwrap();
    define_job_schema(&mut g, site, 1);
    let job = g
        .retrieve_job("RETRIEVE * FROM remote_out DERIVE ASYNC")
        .unwrap();
    match g.await_job(job, Duration::from_secs(10)).unwrap() {
        JobStatus::Failed(msg) => assert!(msg.contains("gate dropped"), "{msg}"),
        other => panic!("expected Failed, got {other:?}"),
    }
    g.checkpoint().unwrap();
    drop(g);

    let mut g = Gaea::open(&dir).unwrap();
    assert_eq!(g.recovery_stats().unwrap().jobs_restaged, 1);
    assert_eq!(
        g.job_status(job).unwrap(),
        JobStatus::Queued,
        "waits for its site"
    );
    let site = SimulatedSite::new("slow_site", |_def, inputs| double_v(inputs));
    g.register_site("slow_site", Arc::new(site));
    let status = g.await_job(job, Duration::from_secs(10)).unwrap();
    assert!(matches!(status, JobStatus::Done(_)), "{status:?}");
    assert_eq!(remote_task_count(&g), 1);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn await_timeout_reports_the_nonterminal_status() {
    let (site, gate) = gated_site();
    let mut g = job_kernel(site, 1);
    let job = g
        .retrieve_job("RETRIEVE * FROM remote_out DERIVE ASYNC")
        .unwrap();
    let status = g.await_job(job, Duration::from_millis(40)).unwrap();
    assert!(
        !status.is_terminal(),
        "timeout returns the live status, not an error: {status:?}"
    );
    gate.send(()).unwrap();
    assert!(g
        .await_job(job, Duration::from_secs(10))
        .unwrap()
        .is_terminal());
}

#[test]
fn unknown_job_ids_error() {
    let (site, _gate) = gated_site();
    let mut g = job_kernel(site, 1);
    assert!(g.job_status(JobId(999)).is_err());
    assert!(g.await_job(JobId(999), Duration::from_millis(1)).is_err());
    assert!(g.cancel_job(JobId(999)).is_err());
}

/// A goal whose plan needs several firings cannot be one background job.
#[test]
fn multi_firing_plans_are_refused_at_submit() {
    let (site, _gate) = gated_site();
    let mut g = Gaea::in_memory();
    g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4))
        .unwrap();
    g.define_class(ClassSpec::derived("mid").attr("v", TypeTag::Int4))
        .unwrap();
    g.define_class(ClassSpec::derived("deep").attr("v", TypeTag::Int4))
        .unwrap();
    g.define_process(
        ProcessSpec::new("STEP1", "mid")
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
    g.define_external_process(
        ProcessSpec::new("STEP2", "deep").arg("x", "mid"),
        "slow_site",
    )
    .unwrap();
    g.register_site("slow_site", site);
    g.insert_object("obs", vec![("v", Value::Int4(1))]).unwrap();
    let err = g
        .retrieve_job("RETRIEVE * FROM deep DERIVE ASYNC")
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("2 firings"), "{msg}");
}

/// A submission plans over the query's instant exactly like a
/// synchronous `DERIVE`: land cover stored at t1 (with its rectified
/// bands) must not resolve a t2 submission through the t1 derivation.
/// At t2 only raw bands exist, so the plan needs 3 × P1 + P20 and the
/// submission is refused.
#[test]
fn a_submission_at_a_new_instant_never_resolves_to_an_earlier_derivation() {
    let mut g = Gaea::in_memory().with_user("figure2");
    gaea::workload::build_figure2_schema(&mut g).unwrap();
    let window = gaea::adt::GeoBox::new(-20.0, -35.0, 55.0, 38.0);
    let (t1, t2) = (day(15), day(16));
    for (seed, t) in [(11, t1), (12, t2)] {
        let spec = gaea::workload::SceneSpec::small(seed).sized(16, 16);
        for band in gaea::workload::SyntheticScene::generate(spec).bands {
            g.insert_object(
                "landsat_tm",
                vec![
                    ("data", Value::image(band)),
                    ("spatialextent", Value::GeoBox(window)),
                    ("timestamp", Value::AbsTime(t)),
                ],
            )
            .unwrap();
        }
    }
    let land_cover_at = |t| {
        Query::class("land_cover")
            .over(window)
            .at(t)
            .with_strategy(QueryStrategy::PreferDerivation)
    };
    let first = g.query(&land_cover_at(t1)).unwrap();
    assert_eq!(first.method, QueryMethod::Derived);
    assert_eq!(first.tasks.len(), 4);
    let tasks_before = g.catalog().tasks.len();
    match g.submit_derivation(&land_cover_at(t2)) {
        Err(KernelError::Schema(msg)) => assert!(msg.contains("needs 4 firings"), "{msg}"),
        Ok(job) => panic!(
            "submission at t2 returned job {job:?} ({:?})",
            g.job_status(job)
        ),
        Err(other) => panic!("unexpected error: {other}"),
    }
    assert_eq!(g.catalog().tasks.len(), tasks_before, "nothing fired");
    assert!(g.jobs().is_empty(), "no job was recorded");
}

// ----------------------------------------------------------------------
// refresh_all × in-flight jobs (regression: no re-fire mid-refresh)
// ----------------------------------------------------------------------

/// A stale derivation whose re-fire is already in flight as a background
/// job is reported in `RefreshReport::pending`, never re-fired by the
/// wave stage; once the job commits, a later refresh *reuses* its task.
/// Exercised at 1 and 4 wave-workers — the wave stage must not race the
/// job either way.
#[test]
fn refresh_all_reports_inflight_jobs_as_pending_not_refired() {
    for workers in [1usize, 4] {
        let (site, gate) = gated_site();
        let mut g = job_kernel(site, 1);
        g.set_workers(workers);
        // Synchronous first derivation, then stale it.
        gate.send(()).unwrap();
        let out = g.retrieve("RETRIEVE * FROM remote_out DERIVE").unwrap();
        let derived = out.objects[0].id;
        let obs = g.objects_of("obs").unwrap()[0];
        g.update_object(obs, vec![("v", Value::Int4(99))]).unwrap();
        assert!(g.is_stale(derived));
        // Background refresh: the stored-but-stale goal resolves through
        // its producer; the stale prior pins the same bindings.
        let job = g
            .retrieve_job("RETRIEVE * FROM remote_out DERIVE ASYNC")
            .unwrap();
        assert!(!g.job_status(job).unwrap().is_terminal());
        // `refresh_object` (and therefore a FRESH query over the stale
        // hit) refuses to race the job with a second round-trip.
        let err = g.refresh_object(derived).unwrap_err();
        assert!(
            matches!(err, KernelError::DerivationPending { .. }),
            "workers={workers}: {err}"
        );
        let err = g.retrieve("RETRIEVE * FROM remote_out FRESH").unwrap_err();
        assert!(err.to_string().contains("in flight"), "{err}");
        // Refresh while the job is in flight: pending, not re-fired.
        let report = g.refresh_all().unwrap();
        assert_eq!(report.runs.len(), 0, "workers={workers}: nothing re-fired");
        assert_eq!(report.pending, vec![(derived, job)]);
        assert_eq!(remote_task_count(&g), 1, "only the original task exists");
        // Let the job land, then refresh again: the stale object's
        // re-derivation is *reused* from the job's committed task.
        gate.send(()).unwrap();
        let status = g.await_job(job, Duration::from_secs(10)).unwrap();
        let task = status.task().expect("job commits");
        let report2 = g.refresh_all().unwrap();
        assert!(report2.pending.is_empty());
        assert_eq!(report2.runs.len(), 1);
        assert_eq!(report2.runs[0].task, task);
        assert_eq!(
            remote_task_count(&g),
            2,
            "workers={workers}: original + the job's refresh, exactly once"
        );
    }
}

// ----------------------------------------------------------------------
// Concurrency hammer
// ----------------------------------------------------------------------

/// N threads submitting, cancelling and awaiting jobs against one
/// kernel: every job reaches a terminal state, no task record is lost,
/// none is duplicated (the recorded REMOTE tasks are exactly the
/// distinct tasks of Done jobs), and cancel-after-done never unseats a
/// record.
#[test]
fn job_hammer_many_threads_no_lost_or_duplicate_records() {
    const THREADS: u32 = 8;
    const ROUNDS: usize = 3;
    let site = Arc::new(
        SimulatedSite::new("slow_site", |_def, inputs| double_v(inputs))
            .with_latency(Duration::from_millis(2)),
    );
    let g = Arc::new(Mutex::new(job_kernel(site, THREADS)));
    let results: Mutex<Vec<(JobId, JobStatus)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for k in 0..THREADS {
            let g = &g;
            let results = &results;
            s.spawn(move || {
                // One derivation per thread, pinned by timestamp; rounds
                // resubmit it (dedup / reuse across rounds is expected).
                let stmt = format!(
                    "RETRIEVE * FROM remote_out WHERE AT \"1986-01-{:02}\" DERIVE ASYNC",
                    1 + k
                );
                for round in 0..ROUNDS {
                    let id = g.lock().unwrap().retrieve_job(&stmt).unwrap();
                    if (k as usize + round).is_multiple_of(3) {
                        let _ = g.lock().unwrap().cancel_job(id).unwrap();
                    }
                    let status = g
                        .lock()
                        .unwrap()
                        .await_job(id, Duration::from_secs(30))
                        .unwrap();
                    assert!(status.is_terminal(), "thread {k} round {round}: {status:?}");
                    results.lock().unwrap().push((id, status));
                }
            });
        }
    });
    let mut g = Arc::try_unwrap(g)
        .ok()
        .expect("threads joined")
        .into_inner()
        .unwrap();
    let results = results.into_inner().unwrap();
    assert_eq!(results.len(), (THREADS as usize) * ROUNDS);
    // Every job the kernel knows about is terminal.
    let listed = g.jobs();
    for (id, status) in &listed {
        assert!(status.is_terminal(), "{id}: {status:?}");
    }
    // No lost records: every Done job's task is on the books; no
    // duplicates: the recorded tasks are exactly the distinct Done tasks.
    let done_tasks: std::collections::BTreeSet<_> =
        listed.iter().filter_map(|(_, s)| s.task()).collect();
    for task in &done_tasks {
        assert!(g.task(*task).is_ok(), "lost task record {task}");
    }
    assert_eq!(remote_task_count(&g), done_tasks.len());
}
