//! Fault-injection harness for the durability CI lane.
//!
//! Three subcommands over a durable kernel directory:
//!
//! * `workload <dir>` — open (or reopen) the kernel at `<dir>` and
//!   commit a deterministic batch of events: sequential `obs {v: i}`
//!   inserts interleaved with `COPY` firings and updates, with
//!   automatic snapshots every 8 events (folded by the background
//!   compactor, as in production). With `GAEA_CRASH_POINT={append,
//!   fsync,truncate,snapshot-write,manifest-flip,
//!   post-flip-pre-truncate,truncate-rewrite}` and
//!   `GAEA_CRASH_AFTER=<n>` set, the
//!   store's crash injector aborts the process mid-commit (or mid
//!   background compaction — drop settles the compactor, so an armed
//!   worker-side point always fires before a clean exit) — that *is*
//!   the test. `GAEA_FSYNC_EVERY=<n>` sets the group-commit batch.
//! * `shutdown <dir>` — the workload followed by an explicit *checked*
//!   close ([`Gaea::close`]): run with a large `GAEA_FSYNC_EVERY` the
//!   batch tail is unsynced until that final flush, so a clean exit
//!   plus `dropped_bytes=0` on verify proves shutdown really synced.
//!   A flush failure surfaces as a nonzero exit with the error printed
//!   — never a silent best-effort `Drop`. With `GAEA_CRASH_POINT=fsync`
//!   armed the abort fires before the close can flush, and recovery
//!   must still reconstruct the committed prefix.
//! * `verify <dir>` — reopen with injection off and check the
//!   recovered state is a clean prefix of the workload: `obs` values
//!   are exactly `0..n` with no gap and no phantom, every `dbl` object
//!   is the copy of a committed `obs`, a copy whose source was never
//!   updated reads current (the replayed version counters match the
//!   task records' fingerprints), task records match the derived
//!   objects, and the log reports no corruption.
//!
//! `scripts/crash_matrix.sh` drives the matrix: every crash point ×
//! several positions, asserting a crash happens and recovery then
//! succeeds. Exit status is the verdict (workload exits 134 on the
//! injected abort; verify exits 0 only if every invariant holds).

use gaea::adt::{TypeTag, Value};
use gaea::core::kernel::{ClassSpec, DurabilityOptions, Gaea, ProcessSpec};
use gaea::core::template::{Expr, Mapping, Template};
use gaea::core::KernelResult;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

/// Events per workload invocation — comfortably past every
/// `GAEA_CRASH_AFTER` the matrix arms, so an armed run always crashes.
const BATCH: i32 = 30;

fn open(dir: &Path) -> KernelResult<Gaea> {
    let fsync_every = std::env::var("GAEA_FSYNC_EVERY")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    Gaea::open_with(
        dir,
        DurabilityOptions {
            fsync_every,
            snapshot_every: 8,
        },
    )
}

fn define_schema(g: &mut Gaea) -> KernelResult<()> {
    // Re-entrant: a crashed run may have committed any prefix of the
    // three definitions, so each is guarded individually.
    if g.catalog().class_by_name("obs").is_err() {
        g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4).no_extents())?;
    }
    if g.catalog().class_by_name("dbl").is_err() {
        g.define_class(
            ClassSpec::derived("dbl")
                .attr("v", TypeTag::Int4)
                .no_extents(),
        )?;
    }
    if g.catalog().process_by_name("COPY").is_err() {
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
        )?;
    }
    Ok(())
}

fn int_values(g: &Gaea, class: &str) -> KernelResult<Vec<i64>> {
    // A crash may land mid-schema: a class whose definition never
    // committed is simply the empty prefix.
    if g.catalog().class_by_name(class).is_err() {
        return Ok(Vec::new());
    }
    let mut vals = Vec::new();
    for oid in g.objects_of(class)? {
        let obj = g.object(oid)?;
        vals.push(obj.attr("v").and_then(Value::as_i64).unwrap_or(i64::MIN));
    }
    vals.sort_unstable();
    Ok(vals)
}

/// Commit `BATCH` more events on top of whatever state survives at
/// `dir`. Values continue from the recovered object count, so a
/// crashed-then-resumed history is indistinguishable from an
/// uninterrupted one.
fn workload(dir: &Path) -> KernelResult<()> {
    let mut g = open(dir)?;
    define_schema(&mut g)?;
    let start = g.objects_of("obs")?.len() as i32;
    for i in start..start + BATCH {
        let oid = g.insert_object("obs", vec![("v", Value::Int4(i))])?;
        if i % 5 == 0 {
            g.run_process("COPY", &[("x", vec![oid])])?;
        }
        if i % 7 == 0 {
            // Same value: the event exercises the update path without
            // disturbing the prefix invariant verify checks.
            g.update_object(oid, vec![("v", Value::Int4(i))])?;
        }
    }
    println!("WORKLOAD COMPLETE obs={}", start + BATCH);
    Ok(())
}

/// The workload plus an explicit checked close — the graceful-shutdown
/// path the server takes, minus the sockets.
fn shutdown(dir: &Path) -> KernelResult<()> {
    let mut g = open(dir)?;
    define_schema(&mut g)?;
    let start = g.objects_of("obs")?.len() as i32;
    for i in start..start + BATCH {
        let oid = g.insert_object("obs", vec![("v", Value::Int4(i))])?;
        if i % 5 == 0 {
            g.run_process("COPY", &[("x", vec![oid])])?;
        }
    }
    // The checked flush: with group commit batched, the log tail is
    // only durable after this succeeds. Its error is the exit status.
    g.close()?;
    println!("SHUTDOWN CLEAN obs={}", start + BATCH);
    Ok(())
}

fn verify(dir: &Path) -> KernelResult<()> {
    let g = open(dir)?;
    let stats = g
        .recovery_stats()
        .cloned()
        .expect("a durable kernel always reports recovery stats");
    assert!(
        !stats.wal_corrupt,
        "a crash may tear the log tail but must never corrupt a committed record"
    );

    // obs is an exact prefix: values 0..n, no gap, no phantom.
    let obs = int_values(&g, "obs")?;
    let expect: Vec<i64> = (0..obs.len() as i64).collect();
    assert_eq!(
        obs, expect,
        "recovered obs values must be the exact committed prefix"
    );

    // Every derived object is the copy of a committed obs from a
    // multiple-of-5 firing, and each has its task record.
    let obs_set: BTreeSet<i64> = obs.into_iter().collect();
    let dbl = int_values(&g, "dbl")?;
    for v in &dbl {
        assert!(
            v % 5 == 0 && obs_set.contains(v),
            "derived value {v} has no committed source observation"
        );
    }
    // Version replay: a lost or invented tick shifts every later counter
    // against the input fingerprints the recovered task records carry,
    // so a copy whose source was never updated (`v % 7 != 0`) must
    // still read current.
    for oid in g.objects_of("dbl").unwrap_or_default() {
        let v = g.object(oid)?.attr("v").and_then(Value::as_i64);
        if v.is_some_and(|v| v % 7 != 0) {
            assert!(
                !g.is_stale(oid),
                "derived copy {oid} of unmodified v={v:?} reads stale after recovery"
            );
        }
    }
    let tasks = g.catalog().tasks.len();
    assert_eq!(
        tasks,
        dbl.len(),
        "every derived object must have exactly one recovered task record"
    );

    println!(
        "RECOVERY OK events_replayed={} snapshot_seq={} dropped_bytes={} obs={} tasks={}",
        stats.events_replayed,
        stats.snapshot_seq,
        stats.wal_dropped_bytes,
        obs_set.len(),
        tasks
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (cmd, dir) = match args.as_slice() {
        [_, cmd, dir] => (cmd.as_str(), Path::new(dir)),
        _ => {
            eprintln!("usage: crash_harness <workload|shutdown|verify> <dir>");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "workload" => workload(dir),
        "shutdown" => shutdown(dir),
        "verify" => verify(dir),
        _ => {
            eprintln!("unknown subcommand {cmd}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{cmd} failed: {e}");
            ExitCode::FAILURE
        }
    }
}
