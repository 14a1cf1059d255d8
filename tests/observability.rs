//! The observability layer end to end: the golden snapshot key set, the
//! `EXPLAIN ANALYZE`-style `QueryOutcome::profile` on both the live and
//! the wire query paths, the server's `Stats`/`Trace` introspection
//! requests, the checkpoint-time refresh of the recovery gauges, and
//! the derivation-reuse counters. No other test here fires a
//! derivation, so the reuse counters' deltas are exact.

use gaea::adt::{AbsTime, TypeTag, Value};
use gaea::core::kernel::{ClassSpec, DurabilityOptions, Gaea, JobStatus, ProcessSpec};
use gaea::core::query::QueryProfile;
use gaea::core::template::{CmpOp, Expr, Mapping, Template};
use gaea::core::{Query, QueryStrategy};
use gaea::obs::MetricsRegistry;
use gaea::server::{Client, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

static DIRS: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIRS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gaea-obs-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seeded_kernel() -> Gaea {
    let mut g = Gaea::in_memory();
    g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4))
        .unwrap();
    for v in 0..64 {
        g.insert_object("obs", vec![("v", Value::Int4(v))]).unwrap();
    }
    g
}

/// The profile's stage spans nest inside the statement without
/// overlapping. Spans come in completion order, so a span's children
/// are the spans one level deeper closed since its previous sibling.
/// Siblings run one after another inside their parent: their wall
/// times sum to at most the parent's, and the depth-1 stages' to at
/// most the statement's total. Every wall time truncates a real
/// interval, so these bounds are exact: no tolerance, whatever the
/// machine's load.
fn assert_stages_nest(profile: &QueryProfile) {
    // pending[d]: (count, wall-time sum) of closed depth-d spans whose
    // parent has not closed yet; depth 1's parent is the statement.
    let mut pending: Vec<(usize, u64)> = vec![(0, 0); 2];
    for s in &profile.stages {
        let depth = s.depth as usize;
        assert!(depth >= 1, "stage {} at depth 0: {profile:?}", s.stage);
        if pending.len() < depth + 2 {
            pending.resize(depth + 2, (0, 0));
        }
        assert!(
            pending[depth + 2..].iter().all(|&(n, _)| n == 0),
            "a span below {} closed without a parent: {profile:?}",
            s.stage
        );
        let (_, children_us) = std::mem::take(&mut pending[depth + 1]);
        assert!(
            children_us <= s.wall_us,
            "sub-stages of {} take {children_us}µs of its {}µs: {profile:?}",
            s.stage,
            s.wall_us
        );
        pending[depth].0 += 1;
        pending[depth].1 += s.wall_us;
    }
    assert!(
        pending[2..].iter().all(|&(n, _)| n == 0),
        "a span closed without a parent: {profile:?}"
    );
    assert_eq!(profile.stage_sum_us(), pending[1].1);
    assert!(
        pending[1].1 <= profile.total_us,
        "stages take {}µs of the statement's {}µs: {profile:?}",
        pending[1].1,
        profile.total_us
    );
}

/// Golden-file guard: the snapshot key names and their order are the
/// crate's compatibility surface (dashboards and `scripts/server_smoke.sh`
/// read them from the server's `Stats` reply). Adding an instrument means
/// updating `tests/golden/metrics_keys.txt` in the same change —
/// deliberately.
#[test]
fn snapshot_keys_match_the_golden_file() {
    let golden: Vec<&str> = include_str!("golden/metrics_keys.txt")
        .lines()
        .filter(|l| !l.is_empty())
        .collect();
    let live = MetricsRegistry::new().snapshot().keys();
    assert_eq!(
        live, golden,
        "MetricsRegistry::snapshot() keys drifted from tests/golden/metrics_keys.txt"
    );
}

/// Every traced statement carries an `EXPLAIN ANALYZE`-style profile
/// whose stage spans nest inside the statement without overlapping.
#[test]
fn live_query_profile_accounts_for_total_wall_time() {
    let mut g = seeded_kernel();
    let out = g.query(&Query::class("obs")).unwrap();
    let profile = out.profile.expect("traced statement must carry a profile");
    let stages: Vec<&str> = profile.stages.iter().map(|s| s.stage.as_str()).collect();
    assert!(stages.contains(&"plan"), "stages: {stages:?}");
    assert!(stages.contains(&"retrieve"), "stages: {stages:?}");
    assert!(stages.contains(&"project"), "stages: {stages:?}");
    assert_stages_nest(&profile);
}

/// The acceptance path: a server-side RETRIEVE returns its per-stage
/// profile over the wire, and the introspection requests answer — the
/// Stats metrics map carries the mandatory keys, the Trace ring holds
/// the statement just run.
#[test]
fn server_retrieve_returns_profile_and_introspection_answers() {
    let server = Server::bind(seeded_kernel(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let thread = std::thread::spawn(move || server.run());

    let mut c = Client::connect(&addr, "obs-test").unwrap();
    let out = c.retrieve("RETRIEVE * FROM obs WHERE v < 8").unwrap();
    assert_eq!(out.objects.len(), 8);
    let profile = out.profile.expect("wire outcome must carry the profile");
    assert!(!profile.stages.is_empty());
    assert_stages_nest(&profile);

    // Stats: session counters plus the full process-wide metrics map.
    let stats = c.stats().unwrap();
    assert!(stats.sessions_live >= 1);
    assert!(stats.reads_pinned >= 1);
    for key in [
        "queries_total",
        "query_us_p99",
        "cache_hits",
        "cache_misses",
        "wal_appends",
        "kernel_pins",
    ] {
        assert!(stats.metrics.contains_key(key), "missing metrics key {key}");
    }
    assert!(stats.metrics["queries_total"] >= 1);
    assert!(stats.metrics["kernel_pins"] >= 1);

    // Trace: the ring retains the RETRIEVE (threshold defaults to 0 =
    // keep everything) with its stage spans.
    let traces = c.traces().unwrap();
    assert!(
        traces.iter().any(|t| t.root == "query"),
        "trace ring should hold the statement just run: {traces:?}"
    );

    c.shutdown_server().unwrap();
    let report = thread.join().unwrap();
    assert!(report.wal_flush.is_ok());
}

/// Regression (PR 9 bugfix): `recovery_stats()` used to be computed at
/// open and never refreshed, so a checkpoint left it describing a log
/// segment that no longer existed. It now advances with every
/// checkpoint, and the registry gauges advance with it.
#[test]
fn checkpoint_refreshes_recovery_stats_and_gauges() {
    let dir = fresh_dir("ckpt");
    let mut g = Gaea::open_with(
        &dir,
        DurabilityOptions {
            fsync_every: 1,
            snapshot_every: 0,
        },
    )
    .unwrap();
    g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4))
        .unwrap();
    for v in 0..4 {
        g.insert_object("obs", vec![("v", Value::Int4(v))]).unwrap();
    }
    assert_eq!(
        g.recovery_stats().unwrap().snapshot_seq,
        0,
        "no snapshot exists before the first checkpoint"
    );

    g.checkpoint().unwrap();
    let first = g.recovery_stats().unwrap().clone();
    assert!(
        first.snapshot_seq > 0,
        "checkpoint must advance the in-process snapshot watermark: {first:?}"
    );
    assert_eq!(first.wal_dropped_bytes, 0);
    assert!(!first.wal_corrupt);
    assert_eq!(
        gaea::obs::metrics().recovery_snapshot_seq.get(),
        first.snapshot_seq,
        "the registry gauge tracks the refreshed stats"
    );

    // Another write and another checkpoint move the watermark again.
    g.insert_object("obs", vec![("v", Value::Int4(99))])
        .unwrap();
    g.checkpoint().unwrap();
    let second = g.recovery_stats().unwrap().snapshot_seq;
    assert!(second > first.snapshot_seq, "{second} vs {first:?}");

    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cache_hits`/`cache_misses` count each automatic firing decision
/// once, where it is made: a submitted job that later commits is one
/// miss (the commit pump's re-check counts nothing), a binding the
/// guards reject counts nothing, and resubmitting the same goal is
/// answered by the recorded task — one hit.
#[test]
fn reuse_counters_count_each_firing_decision_once() {
    let mut g = Gaea::in_memory();
    g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4))
        .unwrap();
    g.define_class(ClassSpec::derived("mid").attr("v", TypeTag::Int4))
        .unwrap();
    g.define_process(
        ProcessSpec::new("BIG_COPY", "mid")
            .arg("x", "obs")
            .template(Template {
                assertions: vec![Expr::Cmp {
                    op: CmpOp::Gt,
                    lhs: Box::new(Expr::proj("x", "v")),
                    rhs: Box::new(Expr::int(10)),
                }],
                mappings: vec![Mapping {
                    attr: "v".into(),
                    expr: Expr::proj("x", "v"),
                }],
            }),
    )
    .unwrap();
    // The first candidate binding fails the guard, the second passes.
    for (v, d) in [(5, 1), (20, 2)] {
        g.insert_object(
            "obs",
            vec![
                ("v", Value::Int4(v)),
                (
                    "timestamp",
                    Value::AbsTime(AbsTime::from_ymd(1986, 1, d).unwrap()),
                ),
            ],
        )
        .unwrap();
    }
    let m = gaea::obs::metrics();
    let counts = || (m.cache_hits.get(), m.cache_misses.get());
    let goal = Query::class("mid").with_strategy(QueryStrategy::PreferDerivation);

    let before = counts();
    let job = g.submit_derivation(&goal).unwrap();
    let JobStatus::Done(task) = g.await_job(job, Duration::from_secs(10)).unwrap() else {
        panic!("the submitted job must commit");
    };
    assert_eq!(counts(), (before.0, before.1 + 1), "one fresh firing");

    let again = g.submit_derivation(&goal).unwrap();
    assert_eq!(
        g.await_job(again, Duration::from_secs(10)).unwrap(),
        JobStatus::Done(task),
        "the resubmission reuses the recorded task"
    );
    assert_eq!(counts(), (before.0 + 1, before.1 + 1), "one reuse");
}
