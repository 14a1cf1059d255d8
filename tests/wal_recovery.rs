//! Crash recovery end to end (durability tentpole): a durable kernel
//! reopened after losing its process reconstructs the exact pre-crash
//! state — including *in-flight derivation jobs*, whose journaled
//! submissions re-stage and complete after restart, committing task
//! records byte-identical to a run that never crashed.
//!
//! The gated-site idiom mirrors `tests/async_jobs.rs`: the "crash"
//! happens while every submitted firing is provably still blocked at
//! the remote site, so nothing has committed yet and everything must
//! come back from the job journal alone.

use gaea::adt::{AbsTime, GeoBox, Image, TypeTag, Value};
use gaea::core::external::SimulatedSite;
use gaea::core::kernel::{ClassSpec, DurabilityOptions, Gaea, JobStatus, ProcessSpec};
use gaea::core::schema::StepSource;
use gaea::core::template::{Expr, Mapping, Template};
use gaea::core::{JobId, KernelError, KernelResult, Query, QueryMethod, QueryStrategy};
use gaea::lang::Retrieve as _;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static DIRS: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIRS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gaea-walrec-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn day(d: u32) -> AbsTime {
    AbsTime::from_ymd(1986, 1, d).unwrap()
}

/// The remote mapping `v → 2·v` shared by every site here.
fn double_v(
    inputs: &gaea::core::external::ExternalInputs,
) -> KernelResult<BTreeMap<String, Value>> {
    let v = inputs["x"][0]
        .attr("v")
        .and_then(Value::as_i64)
        .unwrap_or(0);
    let mut out = BTreeMap::new();
    out.insert("v".to_string(), Value::Int4((v as i32) * 2));
    Ok(out)
}

/// A site that blocks on a channel until released — the firing a crash
/// interrupts.
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

/// A site that answers immediately.
fn free_site() -> Arc<SimulatedSite> {
    Arc::new(SimulatedSite::new("slow_site", |_def, inputs| {
        double_v(inputs)
    }))
}

/// Schema + data every test uses: `n_obs` timestamped observations and
/// the external `REMOTE: obs → remote_out` at `slow_site`.
fn populate(g: &mut Gaea, site: Arc<SimulatedSite>, n_obs: u32) {
    g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4))
        .unwrap();
    g.define_class(ClassSpec::derived("remote_out").attr("v", TypeTag::Int4))
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
}

/// The committed REMOTE task records, in sequence order, as JSON — the
/// "byte-identical" yardstick.
fn remote_tasks_json(g: &Gaea) -> Vec<String> {
    let pid = g.catalog().process_by_name("REMOTE").unwrap().id;
    let mut tasks: Vec<_> = g.catalog().tasks_of_process(pid).collect();
    tasks.sort_by_key(|t| t.seq);
    tasks
        .iter()
        .map(|t| serde_json::to_string(t).unwrap())
        .collect()
}

fn submit_n(g: &mut Gaea, n: u32) -> Vec<JobId> {
    (1..=n)
        .map(|d| {
            g.retrieve_job(&format!(
                "RETRIEVE * FROM remote_out WHERE AT \"1986-01-0{d}\" DERIVE ASYNC"
            ))
            .unwrap()
        })
        .collect()
}

fn await_all(g: &mut Gaea, jobs: &[JobId]) {
    for id in jobs {
        match g.await_job(*id, Duration::from_secs(10)).unwrap() {
            JobStatus::Done(_) => {}
            other => panic!("job {id:?} did not complete: {other:?}"),
        }
    }
}

/// Serialize the persistent state via [`Gaea::save`].
fn state_digest(g: &Gaea, tag: &str) -> (String, String) {
    let scratch = fresh_dir(tag);
    g.save(&scratch).unwrap();
    let manifest = std::fs::read_to_string(scratch.join("manifest.json")).unwrap();
    let catalog = std::fs::read_to_string(scratch.join("catalog.json")).unwrap();
    let _ = std::fs::remove_dir_all(&scratch);
    (manifest, catalog)
}

fn options() -> DurabilityOptions {
    DurabilityOptions {
        fsync_every: 1,
        snapshot_every: 0,
    }
}

// ----------------------------------------------------------------------
// The acceptance scenario: jobs survive a restart
// ----------------------------------------------------------------------

/// Submit N derivations against a gated site, drop the kernel with all
/// N still in flight, reopen: all N re-stage from the job journal and
/// complete, and the committed task records are identical to a run
/// that never crashed.
#[test]
fn in_flight_jobs_restage_and_commit_identically_after_restart() {
    const N: u32 = 3;
    let dir = fresh_dir("jobs");
    let (site, gate) = gated_site();
    let mut g = Gaea::open_with(&dir, options()).unwrap();
    populate(&mut g, site, N);
    // One job worker on every kernel in this test: execution (and so
    // commit seq assignment) follows submission order deterministically,
    // which is what makes the byte-for-byte comparison below valid.
    g.set_job_workers(1);
    let jobs = submit_n(&mut g, N);
    assert_eq!(remote_tasks_json(&g).len(), 0, "nothing committed yet");
    drop(g); // the "crash": every firing still blocked at the site
    drop(gate);

    let mut g = Gaea::open_with(&dir, options()).unwrap();
    let stats = g.recovery_stats().unwrap().clone();
    assert_eq!(stats.jobs_restaged, N as u64);
    // Until the site is re-registered the recovered jobs wait, queued.
    let listed = g.jobs();
    assert_eq!(listed.len(), N as usize);
    for (id, status) in &listed {
        assert!(
            matches!(status, JobStatus::Queued),
            "job {id:?} should be queued before the site returns, got {status:?}"
        );
    }
    g.set_job_workers(1);
    g.register_site("slow_site", free_site());
    await_all(&mut g, &jobs);
    let recovered = remote_tasks_json(&g);
    assert_eq!(recovered.len(), N as usize);

    // Twin run: same schema, same submissions, no crash.
    let mut t = Gaea::in_memory();
    populate(&mut t, free_site(), N);
    t.set_job_workers(1);
    let twin_jobs = submit_n(&mut t, N);
    await_all(&mut t, &twin_jobs);
    assert_eq!(
        recovered,
        remote_tasks_json(&t),
        "recovered task records must be byte-identical to the uncrashed run"
    );
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint taken while jobs are in flight carries the pending
/// submissions into the snapshot: truncating the log cannot lose them.
#[test]
fn checkpoint_preserves_pending_jobs_across_truncation() {
    const N: u32 = 2;
    let dir = fresh_dir("ckpt-jobs");
    let (site, gate) = gated_site();
    let mut g = Gaea::open_with(&dir, options()).unwrap();
    populate(&mut g, site, N);
    let jobs = submit_n(&mut g, N);
    g.checkpoint().unwrap(); // truncates the log; jobs move to jobs.json
    drop(g);
    drop(gate);

    let mut g = Gaea::open_with(&dir, options()).unwrap();
    let stats = g.recovery_stats().unwrap().clone();
    assert!(
        stats.snapshot_seq > 0,
        "checkpoint must have advanced the watermark"
    );
    assert_eq!(stats.events_replayed, 0, "the log was truncated");
    assert_eq!(stats.jobs_restaged, N as u64);
    g.register_site("slow_site", free_site());
    await_all(&mut g, &jobs);
    assert_eq!(remote_tasks_json(&g).len(), N as usize);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancelling a recovered job resolves it durably: it does not come
/// back on the next restart.
#[test]
fn cancelled_recovered_jobs_stay_cancelled() {
    let dir = fresh_dir("cancel");
    let (site, gate) = gated_site();
    let mut g = Gaea::open_with(&dir, options()).unwrap();
    populate(&mut g, site, 2);
    let jobs = submit_n(&mut g, 2);
    drop(g);
    drop(gate);

    let mut g = Gaea::open_with(&dir, options()).unwrap();
    assert_eq!(g.recovery_stats().unwrap().jobs_restaged, 2);
    // Cancel the first before any site comes back.
    assert_eq!(g.cancel_job(jobs[0]).unwrap(), JobStatus::Cancelled);
    drop(g);

    let mut g = Gaea::open_with(&dir, options()).unwrap();
    assert_eq!(
        g.recovery_stats().unwrap().jobs_restaged,
        1,
        "the cancelled job must not be restaged again"
    );
    g.register_site("slow_site", free_site());
    await_all(&mut g, &jobs[1..]);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------------
// Synchronous lifecycle: external firings, queries, restarts
// ----------------------------------------------------------------------

/// External definitions and query-driven external firings replay: a
/// kernel that defined an external process, fired it synchronously
/// through the query pipeline, and was restarted is serde-identical to
/// its live self — and keeps working after the restart.
#[test]
fn synchronous_external_firings_replay_exactly() {
    let dir = fresh_dir("sync");
    let mut g = Gaea::open_with(&dir, options()).unwrap();
    populate(&mut g, free_site(), 2);
    // Fire through the query pipeline (the fire stage's commit path).
    let out = g.retrieve("RETRIEVE * FROM remote_out DERIVE").unwrap();
    assert!(!out.objects.is_empty());
    let fired = remote_tasks_json(&g).len();
    assert!(fired > 0, "the DERIVE query must have committed a firing");
    let before = state_digest(&g, "sync-live");
    drop(g);

    let mut g = Gaea::open_with(&dir, options()).unwrap();
    assert_eq!(state_digest(&g, "sync-replayed"), before);
    assert_eq!(remote_tasks_json(&g).len(), fired);
    // The replayed catalog still drives new work: re-register the site
    // and derive against fresh data.
    g.register_site("slow_site", free_site());
    let new_obs = g
        .insert_object(
            "obs",
            vec![
                ("v", Value::Int4(40)),
                ("timestamp", Value::AbsTime(day(9))),
            ],
        )
        .unwrap();
    g.run_process("REMOTE", &[("x", vec![new_obs])]).unwrap();
    assert!(
        remote_tasks_json(&g).len() > fired,
        "the replayed catalog must still drive new derivations"
    );
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A compound whose second step fails compensates its first step, and
/// the compensation is an exact inverse: a reopened kernel (which never
/// sees the failed firing in the log) is serde-identical to the live
/// one — the task clock and the step-0 output relation's heap included.
#[test]
fn compensated_compound_replays_identically() {
    let dir = fresh_dir("compensated");
    let mut g = Gaea::open_with(&dir, options()).unwrap();
    g.define_class(ClassSpec::base("raw").attr("v", TypeTag::Int4).no_extents())
        .unwrap();
    for class in ["mid", "final"] {
        g.define_class(
            ClassSpec::derived(class)
                .attr("v", TypeTag::Int4)
                .no_extents(),
        )
        .unwrap();
    }
    let copy_v = |arg: &str, guard: Vec<Expr>| Template {
        assertions: guard,
        mappings: vec![Mapping {
            attr: "v".into(),
            expr: Expr::proj(arg, "v"),
        }],
    };
    g.define_process(
        ProcessSpec::new("P_ok", "mid")
            .arg("r", "raw")
            .template(copy_v("r", vec![])),
    )
    .unwrap();
    g.define_process(
        ProcessSpec::new("P_bad", "final")
            .arg("m", "mid")
            .template(copy_v("m", vec![Expr::eq(Expr::int(1), Expr::int(2))])),
    )
    .unwrap();
    g.define_compound_process(
        "P_chain",
        "final",
        &[("r".to_string(), "raw".to_string(), false, 1)],
        &[
            ("P_ok".to_string(), vec![StepSource::OuterArg(0)]),
            ("P_bad".to_string(), vec![StepSource::StepOutput(0)]),
        ],
        "",
    )
    .unwrap();
    let r = g.insert_object("raw", vec![("v", Value::Int4(7))]).unwrap();
    let err = g.run_process("P_chain", &[("r", vec![r])]).unwrap_err();
    assert!(matches!(err, KernelError::AssertionFailed { .. }), "{err}");
    let before = state_digest(&g, "compensated-live");
    drop(g);

    let g = Gaea::open_with(&dir, options()).unwrap();
    let after = state_digest(&g, "compensated-replayed");
    assert_eq!(before.0, after.0, "store manifest diverged after replay");
    assert_eq!(before.1, after.1, "catalog diverged after replay");
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The schema the failed-statement tests build on: base `raw {v}`,
/// derived `mid`/`final`, `note` (whose `of` references `raw`), the
/// processes `P_ok: raw → mid` and `P_bad: mid → final` (guard `1 = 2`),
/// the compound `P_chain` (P_ok then P_bad), a concept and an experiment
/// — one of every definition kind, so each can be duplicated.
fn define_failure_schema(g: &mut Gaea) {
    g.define_class(ClassSpec::base("raw").attr("v", TypeTag::Int4).no_extents())
        .unwrap();
    for class in ["mid", "final"] {
        g.define_class(
            ClassSpec::derived(class)
                .attr("v", TypeTag::Int4)
                .no_extents(),
        )
        .unwrap();
    }
    g.define_class(ClassSpec::base("note").ref_attr("of", "raw").no_extents())
        .unwrap();
    let copy_v = |arg: &str, guard: Vec<Expr>| Template {
        assertions: guard,
        mappings: vec![Mapping {
            attr: "v".into(),
            expr: Expr::proj(arg, "v"),
        }],
    };
    g.define_process(
        ProcessSpec::new("P_ok", "mid")
            .arg("r", "raw")
            .template(copy_v("r", vec![])),
    )
    .unwrap();
    g.define_process(
        ProcessSpec::new("P_bad", "final")
            .arg("m", "mid")
            .template(copy_v("m", vec![Expr::eq(Expr::int(1), Expr::int(2))])),
    )
    .unwrap();
    g.define_compound_process(
        "P_chain",
        "final",
        &[("r".to_string(), "raw".to_string(), false, 1)],
        &[
            ("P_ok".to_string(), vec![StepSource::OuterArg(0)]),
            ("P_bad".to_string(), vec![StepSource::StepOutput(0)]),
        ],
        "",
    )
    .unwrap();
    g.define_concept("stages", &["mid", "final"], &[], "")
        .unwrap();
    g.record_experiment("baseline", "", vec![]).unwrap();
}

/// Every way a definition can be rejected as a duplicate, by name.
const DUPLICATE_DEFINES: [&str; 7] = [
    "class",
    "concept",
    "process",
    "external",
    "nonapplicative",
    "compound",
    "experiment",
];

/// Re-define one of [`define_failure_schema`]'s names; it must fail.
fn duplicate_define(g: &mut Gaea, kind: &str) {
    let args = [("r".to_string(), "raw".to_string(), false, 1)];
    let failed = match kind {
        "class" => g
            .define_class(ClassSpec::base("raw").attr("v", TypeTag::Int4).no_extents())
            .is_err(),
        "concept" => g.define_concept("stages", &["mid"], &[], "").is_err(),
        "process" => g
            .define_process(ProcessSpec::new("P_ok", "mid").arg("r", "raw"))
            .is_err(),
        "external" => g
            .define_external_process(ProcessSpec::new("P_ok", "mid").arg("r", "raw"), "site")
            .is_err(),
        "nonapplicative" => g
            .define_nonapplicative_process("P_ok", "mid", &args, "by hand", "")
            .is_err(),
        "compound" => g
            .define_compound_process(
                "P_chain",
                "mid",
                &args,
                &[("P_ok".to_string(), vec![StepSource::OuterArg(0)])],
                "",
            )
            .is_err(),
        "experiment" => g.record_experiment("baseline", "", vec![]).is_err(),
        other => unreachable!("no duplicate define {other}"),
    };
    assert!(failed, "a duplicate {kind} definition must be rejected");
}

/// A rejected duplicate definition is the last statement before a clean
/// close: the reopened kernel must still equal the live one — its OID
/// allocator included, which a definer that allocated its id before the
/// name check left one ahead of anything the log recorded.
#[test]
fn failed_ddl_replays_identically() {
    for kind in DUPLICATE_DEFINES {
        let dir = fresh_dir("dup-ddl");
        let mut g = Gaea::open_with(&dir, options()).unwrap();
        define_failure_schema(&mut g);
        duplicate_define(&mut g, kind);
        let before = state_digest(&g, "dup-ddl-live");
        drop(g);

        let g = Gaea::open_with(&dir, options()).unwrap();
        assert_eq!(
            state_digest(&g, "dup-ddl-replayed"),
            before,
            "duplicate {kind} definition"
        );
        drop(g);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A statement expected to fail; answers whether it did.
type Failure = Box<dyn Fn(&mut Gaea) -> bool>;

/// A failed statement changes nothing: store, version counters, OID
/// allocator and catalog are exactly as they were before it ran.
#[test]
fn failed_statements_leave_no_trace() {
    let mut g = Gaea::in_memory();
    define_failure_schema(&mut g);
    let r = g.insert_object("raw", vec![("v", Value::Int4(7))]).unwrap();
    let m = g.run_process("P_ok", &[("r", vec![r])]).unwrap().outputs[0];
    g.insert_object("note", vec![("of", Value::ObjRef(r.raw()))])
        .unwrap();
    let mut failures: Vec<(String, Failure)> = vec![
        (
            "compensated compound".into(),
            Box::new(move |g| g.run_process("P_chain", &[("r", vec![r])]).is_err()),
        ),
        (
            "guard-failing firing".into(),
            Box::new(move |g| g.run_process("P_bad", &[("m", vec![m])]).is_err()),
        ),
        (
            "insert with an unknown attribute".into(),
            Box::new(|g| {
                g.insert_object("raw", vec![("nope", Value::Int4(1))])
                    .is_err()
            }),
        ),
        (
            "insert of a mistyped value".into(),
            Box::new(|g| {
                g.insert_object("raw", vec![("v", Value::Text("x".into()))])
                    .is_err()
            }),
        ),
        (
            "update with an unknown attribute".into(),
            Box::new(move |g| g.update_object(r, vec![("nope", Value::Int4(1))]).is_err()),
        ),
        (
            "delete of a referenced object".into(),
            Box::new(move |g| g.delete_object(r).is_err()),
        ),
    ];
    for kind in DUPLICATE_DEFINES {
        failures.push((
            format!("duplicate {kind}"),
            Box::new(move |g| {
                duplicate_define(g, kind);
                true
            }),
        ));
    }
    for (what, fail) in failures {
        let before = state_digest(&g, "no-trace-before");
        assert!(fail(&mut g), "{what} must fail");
        assert_eq!(state_digest(&g, "no-trace-after"), before, "{what}");
    }
}

/// Logs written before version ticks replayed themselves carry the
/// ticks in each record's `bumps`, failed statements' ticks first. Each
/// fixture under `tests/golden/legacy_wal/` (one per codec) is the log
/// of this durable session, closed cleanly, and `manifest.json` plus
/// `catalog.json` are that live kernel's [`Gaea::save`] digest:
///
/// base `obs {v}`, derived `dbl`/`tri`, `COPY: obs → dbl`, `BAD: dbl →
/// tri` (guard `1 = 2`), compound `CHAIN_BAD` (COPY then BAD); insert
/// a = 1, b = 2; fire COPY on a; CHAIN_BAD on b fails; update a to 10;
/// insert then delete c = 3; fire COPY on b; duplicate `DEFINE CLASS
/// obs` fails (it created and dropped a relation); CHAIN_BAD on a fails
/// (its ticks ride in the closing `VersionAdvance` record).
///
/// Opening a copy must reproduce the digest byte for byte.
#[test]
fn legacy_logs_replay_to_their_recorded_state() {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/legacy_wal");
    let read = |name: &str| std::fs::read_to_string(golden.join(name)).unwrap();
    let expected = (read("manifest.json"), read("catalog.json"));
    for codec in ["binary", "json"] {
        let dir = fresh_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(golden.join(codec).join("wal.log"), dir.join("wal.log")).unwrap();
        let g = Gaea::open_with(&dir, options()).unwrap();
        let stats = g.recovery_stats().unwrap();
        assert!(!stats.wal_corrupt, "{codec}");
        assert_eq!(stats.events_replayed, 14, "{codec}");
        assert_eq!(state_digest(&g, "legacy"), expected, "{codec}");
        drop(g);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A legacy JSON log continued by this kernel — JSON prefix, binary
/// suffix — replays to the state the live kernel had: decoding
/// dispatches per record, not per log.
#[test]
fn a_legacy_json_log_continued_in_binary_replays_identically() {
    const K: i32 = 5;
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/legacy_wal");
    let dir = fresh_dir("legacy-mixed");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(golden.join("json/wal.log"), dir.join("wal.log")).unwrap();
    let mut g = Gaea::open_with(&dir, options()).unwrap();
    for v in 0..K {
        g.insert_object("obs", vec![("v", Value::Int4(100 + v))])
            .unwrap();
    }
    let before = state_digest(&g, "legacy-mixed-live");
    drop(g);

    let g = Gaea::open_with(&dir, options()).unwrap();
    let stats = g.recovery_stats().unwrap();
    assert!(!stats.wal_corrupt);
    assert_eq!(stats.events_replayed, 14 + K as u64);
    assert_eq!(state_digest(&g, "legacy-mixed-replayed"), before);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The first interpolation of a class registers its interpolation
/// process and records a task. Whichever event a cadence fold lands on
/// (the first lands on event `every`: nothing is in flight before it), a reopened kernel is serde-identical to the live one (the
/// snapshot never folds in the object of a commit it does not cover).
#[test]
fn interpolation_replays_identically_at_every_snapshot_cadence() {
    let window = GeoBox::new(0.0, 0.0, 1.0, 1.0);
    for every in 1..=8 {
        let dir = fresh_dir("interp");
        let options = DurabilityOptions {
            snapshot_every: every,
            ..options()
        };
        let mut g = Gaea::open_with(&dir, options).unwrap();
        g.define_class(ClassSpec::base("ndvi").attr("data", TypeTag::Image))
            .unwrap();
        for d in [1, 21] {
            g.insert_object(
                "ndvi",
                vec![
                    (
                        "data",
                        Value::image(Image::from_f64(2, 2, vec![d as f64; 4]).unwrap()),
                    ),
                    ("spatialextent", Value::GeoBox(window)),
                    ("timestamp", Value::AbsTime(day(d))),
                ],
            )
            .unwrap();
        }
        let out = g
            .query(&Query::class("ndvi").over(window).at(day(11)))
            .unwrap();
        assert_eq!(out.method, QueryMethod::Interpolated);
        let before = state_digest(&g, "interp-live");
        drop(g);

        let g = Gaea::open_with(&dir, options).unwrap();
        assert_eq!(
            state_digest(&g, "interp-replayed"),
            before,
            "snapshot_every {every}"
        );
        drop(g);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ----------------------------------------------------------------------
// Background log compaction
// ----------------------------------------------------------------------

/// Cadence-triggered folds run on the background compactor: commits
/// keep landing while the fold is in flight, the covered prefix is
/// clipped at the next poll, and a reopen replays only the tail on top
/// of the flipped snapshot.
#[test]
fn background_compaction_folds_the_log_behind_live_commits() {
    let dir = fresh_dir("bg");
    let opts = DurabilityOptions {
        fsync_every: 1,
        snapshot_every: 4,
    };
    let folds_before = gaea::obs::metrics().wal_compactions.get();
    let mut g = Gaea::open_with(&dir, opts).unwrap();
    g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4).no_extents())
        .unwrap();
    // Commit across several compaction cadences: the commit path only
    // hands work to the folder and polls — it never waits for it.
    for i in 0..40 {
        g.insert_object("obs", vec![("v", Value::Int4(i))]).unwrap();
    }
    g.flush_wal().unwrap(); // settles any in-flight fold
    assert!(
        gaea::obs::metrics().wal_compactions.get() > folds_before,
        "the cadence must have run at least one background fold"
    );
    let before = state_digest(&g, "bg-live");
    drop(g);

    let g = Gaea::open_with(&dir, opts).unwrap();
    let stats = g.recovery_stats().unwrap().clone();
    assert!(
        stats.snapshot_seq > 0,
        "background folds must advance the watermark"
    );
    assert!(
        stats.events_replayed < 41,
        "the folded prefix must not replay (replayed {})",
        stats.events_replayed
    );
    assert!(!stats.wal_corrupt);
    assert_eq!(state_digest(&g, "bg-replayed"), before);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An explicit `checkpoint()` settles whatever fold is in flight before
/// running and waiting on its own — afterwards the log is empty and a
/// reopen replays nothing.
#[test]
fn checkpoint_settles_an_inflight_background_fold() {
    let dir = fresh_dir("bg-ckpt");
    let opts = DurabilityOptions {
        fsync_every: 1,
        snapshot_every: 4,
    };
    let mut g = Gaea::open_with(&dir, opts).unwrap();
    g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4).no_extents())
        .unwrap();
    for i in 0..6 {
        g.insert_object("obs", vec![("v", Value::Int4(i))]).unwrap();
    }
    // A fold is (very likely) in flight from the cadence; checkpoint
    // must fold it in, then truncate everything.
    g.checkpoint().unwrap();
    let before = state_digest(&g, "bg-ckpt-live");
    drop(g);

    let g = Gaea::open_with(&dir, opts).unwrap();
    let stats = g.recovery_stats().unwrap().clone();
    assert_eq!(stats.events_replayed, 0, "checkpoint must clip the log");
    assert!(stats.snapshot_seq > 0);
    assert_eq!(state_digest(&g, "bg-ckpt-replayed"), before);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fold whose `CURRENT` flip fails (here `CURRENT.tmp` is a
/// directory) retains the log. `checkpoint()` returns the failure and a
/// reopen replays every event; a cadence fold hitting the same obstacle
/// is absorbed and counted while commits continue; once the obstacle is
/// gone, `checkpoint()` folds and empties the log.
#[test]
fn a_failed_fold_keeps_the_log_and_checkpoint_reports_it() {
    let dir = fresh_dir("failed-fold");
    let insert = |g: &mut Gaea, v: i32| {
        g.insert_object("obs", vec![("v", Value::Int4(v))]).unwrap();
    };
    let mut g = Gaea::open_with(&dir, options()).unwrap();
    g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4).no_extents())
        .unwrap();
    for v in 0..3 {
        insert(&mut g, v);
    }
    let obstacle = dir.join("CURRENT.tmp");
    std::fs::create_dir(&obstacle).unwrap();
    assert!(g.checkpoint().is_err(), "a failed flip must surface");
    drop(g);

    // Four events replayed (one definition, three inserts), and a
    // cadence of five makes the first new commit due for a fold.
    let cadence = DurabilityOptions {
        snapshot_every: 5,
        ..options()
    };
    let mut g = Gaea::open_with(&dir, cadence).unwrap();
    let stats = g.recovery_stats().unwrap().clone();
    assert_eq!((stats.events_replayed, stats.snapshot_seq), (4, 0));
    let failed_before = gaea::obs::metrics().wal_compactions_failed.get();
    for v in 3..6 {
        insert(&mut g, v);
    }
    g.flush_wal().unwrap(); // settles the fold, absorbing its failure
    assert_eq!(
        gaea::obs::metrics().wal_compactions_failed.get() - failed_before,
        1
    );
    let all = Query::class("obs").with_strategy(QueryStrategy::RetrieveOnly);
    assert_eq!(g.query(&all).unwrap().objects.len(), 6);

    std::fs::remove_dir(&obstacle).unwrap();
    g.checkpoint().unwrap();
    assert_eq!(std::fs::metadata(dir.join("wal.log")).unwrap().len(), 0);
    let before = state_digest(&g, "failed-fold-live");
    drop(g);
    let g = Gaea::open_with(&dir, options()).unwrap();
    let stats = g.recovery_stats().unwrap().clone();
    assert_eq!((stats.events_replayed, stats.snapshot_seq), (0, 7));
    assert_eq!(state_digest(&g, "failed-fold-replayed"), before);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The open-time sweep only treats a *missing* `CURRENT` as "no
/// authoritative snapshot". Any other read failure must skip the sweep
/// entirely — deleting `snap-*` directories while the pointer is merely
/// unreadable would destroy the snapshot it still names.
#[test]
fn unreadable_current_pointer_never_triggers_the_snapshot_sweep() {
    let dir = fresh_dir("sweep-guard");
    std::fs::create_dir_all(&dir).unwrap();
    // CURRENT exists but cannot be read as a file (read_to_string fails
    // with a non-NotFound error) — a stand-in for EACCES/EIO.
    std::fs::create_dir(dir.join("CURRENT")).unwrap();
    let snap = dir.join("snap-7");
    std::fs::create_dir(&snap).unwrap();
    std::fs::write(snap.join("MANIFEST"), b"authoritative bytes").unwrap();

    let err = Gaea::open_with(&dir, options());
    assert!(err.is_err(), "open must surface the unreadable CURRENT");
    assert!(
        snap.join("MANIFEST").exists(),
        "a transient CURRENT read failure must not sweep snap-* dirs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery stats on a clean, snapshot-less reopen count every event
/// and report an intact log.
#[test]
fn recovery_stats_report_clean_replay() {
    let dir = fresh_dir("stats");
    let mut g = Gaea::open_with(&dir, options()).unwrap();
    populate(&mut g, free_site(), 2);
    drop(g);
    let g = Gaea::open_with(&dir, options()).unwrap();
    let stats = g.recovery_stats().unwrap();
    // 3 definitions + 2 inserts.
    assert_eq!(stats.events_replayed, 5);
    assert_eq!(stats.jobs_restaged, 0);
    assert_eq!(stats.snapshot_seq, 0);
    assert_eq!(stats.wal_dropped_bytes, 0);
    assert!(!stats.wal_corrupt);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}
