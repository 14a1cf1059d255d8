//! Property tests on the write-ahead event log (durability tentpole):
//! a reopened kernel is *serde-identical* to the live one for any
//! random sequence of committed mutations — object CRUD plus every way
//! a task enters the history (firing, compound success and compensated
//! failure, manual record, `DERIVE` wave commit, interpolation,
//! interactive finish), interleaved with statements that fail (duplicate
//! definitions, rejected inserts) — under any group-commit and snapshot
//! cadence; a
//! torn log tail is dropped cleanly; a corrupted record is detected
//! (not silently replayed) and recovery keeps the valid prefix.
//!
//! CI runs this file in the `props` job at `PROPTEST_CASES=256`, once
//! with the default scheduler and once with `GAEA_SCHED_WORKERS=4`.

use gaea::adt::{AbsTime, GeoBox, Image, TypeTag, Value};
use gaea::core::kernel::{ClassSpec, DurabilityOptions, Gaea, ProcessSpec};
use gaea::core::schema::StepSource;
use gaea::core::template::{Expr, Mapping, Template};
use gaea::core::{ObjectId, Query, QueryStrategy};
use proptest::prelude::*;
use std::fs::OpenOptions;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static DIRS: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory, unique per test invocation.
fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIRS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gaea-walprop-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Kernel schema every test uses: base `obs {v}`, derived `dbl {v}`,
/// and a local mapping process `COPY: obs → dbl`.
fn define_schema(g: &mut Gaea) {
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
}

const DAY: i64 = 86_400;

fn window() -> GeoBox {
    GeoBox::new(0.0, 0.0, 1.0, 1.0)
}

/// What the random ops target: the live `obs` oids, and the days that
/// hold a stored `snap` image.
struct Live {
    obs: Vec<ObjectId>,
    days: Vec<i64>,
}

/// [`define_schema`] plus one process per remaining task-entry path:
/// the compound `CHAIN` (COPY → NEXT) and its twin `CHAIN_BAD` whose
/// second step's guard is `1 = 2`, the non-applicative `SURVEY`, the
/// interactive `TUNE` (one `PARAM`), and `SNAPX: snap → snapx` and
/// `SNAPXX: snapx → snapxx` for a two-level `DERIVE` — with `snap`
/// images stored at days 0 and 30 so queries in between interpolate —
/// and the concept `copies` and experiment
/// `baseline`, so every definition kind can be duplicated. `snap` is a derived class: the lazily registered
/// `interpolate_snap` process outputs into it, and the derivation net
/// rejects a transition into a base place.
fn define_task_schema(g: &mut Gaea) -> Live {
    define_schema(g);
    for class in ["tri", "note", "tuned"] {
        g.define_class(
            ClassSpec::derived(class)
                .attr("v", TypeTag::Int4)
                .no_extents(),
        )
        .unwrap();
    }
    g.define_class(ClassSpec::derived("snap").attr("data", TypeTag::Image))
        .unwrap();
    for class in ["snapx", "snapxx"] {
        g.define_class(ClassSpec::derived(class).attr("data", TypeTag::Image))
            .unwrap();
    }
    let copy = |arg: &str, attrs: &[&str]| -> Vec<Mapping> {
        attrs
            .iter()
            .map(|a| Mapping {
                attr: a.to_string(),
                expr: Expr::proj(arg, a),
            })
            .collect()
    };
    for (name, guard) in [
        ("NEXT", vec![]),
        ("BAD", vec![Expr::eq(Expr::int(1), Expr::int(2))]),
    ] {
        g.define_process(
            ProcessSpec::new(name, "tri")
                .arg("y", "dbl")
                .template(Template {
                    assertions: guard,
                    mappings: copy("y", &["v"]),
                }),
        )
        .unwrap();
    }
    for (name, last) in [("CHAIN", "NEXT"), ("CHAIN_BAD", "BAD")] {
        g.define_compound_process(
            name,
            "tri",
            &[("x".into(), "obs".into(), false, 1)],
            &[
                ("COPY".into(), vec![StepSource::OuterArg(0)]),
                (last.into(), vec![StepSource::StepOutput(0)]),
            ],
            "",
        )
        .unwrap();
    }
    g.define_nonapplicative_process(
        "SURVEY",
        "note",
        &[("x".into(), "obs".into(), false, 1)],
        "read the gauge by hand",
        "",
    )
    .unwrap();
    g.define_process(
        ProcessSpec::new("TUNE", "tuned")
            .arg("x", "obs")
            .interact("k", "pick k", TypeTag::Int4)
            .template(Template {
                assertions: vec![],
                mappings: vec![Mapping {
                    attr: "v".into(),
                    expr: Expr::param("k"),
                }],
            }),
    )
    .unwrap();
    for (name, output, input) in [("SNAPX", "snapx", "snap"), ("SNAPXX", "snapxx", "snapx")] {
        g.define_process(
            ProcessSpec::new(name, output)
                .arg("s", input)
                .template(Template {
                    assertions: vec![],
                    mappings: copy("s", &["data", "spatialextent", "timestamp"]),
                }),
        )
        .unwrap();
    }
    g.define_concept("copies", &["dbl", "tri"], &[], "")
        .unwrap();
    g.record_experiment("baseline", "", vec![]).unwrap();
    let days = vec![0, 30];
    for &d in &days {
        let img = Image::from_f64(2, 2, vec![d as f64; 4]).unwrap();
        g.insert_object(
            "snap",
            vec![
                ("data", Value::image(img)),
                ("spatialextent", Value::GeoBox(window())),
                ("timestamp", Value::AbsTime(AbsTime(d * DAY))),
            ],
        )
        .unwrap();
    }
    Live { obs: vec![], days }
}

/// Serialize a kernel's full persistent state (store manifest +
/// catalog) through [`Gaea::save`] and return both documents. Two
/// kernels whose digests match are indistinguishable to every
/// downstream consumer of the persistence format.
fn state_digest(g: &Gaea, tag: &str) -> (String, String) {
    let scratch = fresh_dir(tag);
    g.save(&scratch).unwrap();
    let manifest = std::fs::read_to_string(scratch.join("manifest.json")).unwrap();
    let catalog = std::fs::read_to_string(scratch.join("catalog.json")).unwrap();
    let _ = std::fs::remove_dir_all(&scratch);
    (manifest, catalog)
}

// ----------------------------------------------------------------------
// Random event sequences: replay ≡ live state
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(i32),
    Update(usize, i32),
    Delete(usize),
    Fire(usize),
    Compound(usize),
    CompoundFail(usize),
    Manual(usize, i32),
    Derive(usize),
    Interpolate(i64),
    Interactive(usize, i32),
    Index,
    Checkpoint,
    DuplicateDefine(usize),
    BadInsert(bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<i32>().prop_map(Op::Insert),
        2 => ((0usize..32), any::<i32>()).prop_map(|(i, v)| Op::Update(i, v)),
        1 => (0usize..32).prop_map(Op::Delete),
        2 => (0usize..32).prop_map(Op::Fire),
        1 => (0usize..32).prop_map(Op::Compound),
        1 => (0usize..32).prop_map(Op::CompoundFail),
        1 => ((0usize..32), any::<i32>()).prop_map(|(i, v)| Op::Manual(i, v)),
        1 => (0usize..32).prop_map(Op::Derive),
        1 => (1i64..30).prop_map(Op::Interpolate),
        1 => ((0usize..32), any::<i32>()).prop_map(|(i, k)| Op::Interactive(i, k)),
        1 => Just(Op::Index),
        1 => Just(Op::Checkpoint),
        1 => (0usize..7).prop_map(Op::DuplicateDefine),
        1 => any::<bool>().prop_map(Op::BadInsert),
    ]
}

/// Apply one op against the kernel, tracking live `obs` oids so update
/// / delete / fire always target an existing object (ops on an empty
/// `obs` extent are no-ops), and the days holding a `snap` so `DERIVE`
/// always has a source at its instant.
fn apply(g: &mut Gaea, live: &mut Live, op: &Op) {
    let pick = |i: usize| (!live.obs.is_empty()).then(|| live.obs[i % live.obs.len()]);
    match op {
        Op::Insert(v) => {
            let oid = g
                .insert_object("obs", vec![("v", Value::Int4(*v))])
                .unwrap();
            live.obs.push(oid);
        }
        Op::Update(i, v) => {
            if let Some(oid) = pick(*i) {
                g.update_object(oid, vec![("v", Value::Int4(*v))]).unwrap();
            }
        }
        Op::Delete(i) => {
            if !live.obs.is_empty() {
                let oid = live.obs.remove(i % live.obs.len());
                g.delete_object(oid).unwrap();
            }
        }
        Op::Fire(i) => {
            if let Some(oid) = pick(*i) {
                g.run_process("COPY", &[("x", vec![oid])]).unwrap();
            }
        }
        Op::Compound(i) => {
            if let Some(oid) = pick(*i) {
                g.run_process("CHAIN", &[("x", vec![oid])]).unwrap();
            }
        }
        Op::CompoundFail(i) => {
            if let Some(oid) = pick(*i) {
                assert!(g.run_process("CHAIN_BAD", &[("x", vec![oid])]).is_err());
            }
        }
        Op::Manual(i, v) => {
            if let Some(oid) = pick(*i) {
                g.record_manual_task(
                    "SURVEY",
                    &[("x", vec![oid])],
                    vec![("v", Value::Int4(*v))],
                    "by hand",
                )
                .unwrap();
            }
        }
        Op::Derive(i) => {
            // Two levels deep, so a `snapx` stored at another day must
            // not stand in for the one the queried day needs.
            let day = live.days[i % live.days.len()];
            let q = Query::class("snapxx")
                .over(window())
                .at(AbsTime(day * DAY))
                .with_strategy(QueryStrategy::PreferDerivation);
            for obj in g.query(&q).unwrap().objects {
                assert_eq!(obj.timestamp(), Some(AbsTime(day * DAY)));
            }
        }
        Op::Interpolate(day) => {
            g.query(&Query::class("snap").over(window()).at(AbsTime(day * DAY)))
                .unwrap();
            if !live.days.contains(day) {
                live.days.push(*day);
            }
        }
        Op::Interactive(i, k) => {
            if let Some(oid) = pick(*i) {
                let mut session = g.begin_interactive("TUNE", &[("x", vec![oid])]).unwrap();
                session.supply(Value::Int4(*k)).unwrap();
                g.finish_interactive(session).unwrap();
            }
        }
        Op::Index => g.define_index("obs", "v").unwrap(),
        Op::Checkpoint => g.checkpoint().unwrap(),
        Op::DuplicateDefine(kind) => {
            let args = [("x".to_string(), "obs".to_string(), false, 1)];
            let copy = || ProcessSpec::new("COPY", "dbl").arg("x", "obs");
            let result = match kind {
                0 => g
                    .define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4))
                    .map(drop),
                1 => g.define_concept("copies", &["dbl"], &[], "").map(drop),
                2 => g.define_process(copy()).map(drop),
                3 => g.define_external_process(copy(), "site").map(drop),
                4 => g
                    .define_nonapplicative_process("SURVEY", "note", &args, "", "")
                    .map(drop),
                5 => g
                    .define_compound_process(
                        "CHAIN",
                        "dbl",
                        &args,
                        &[("COPY".into(), vec![StepSource::OuterArg(0)])],
                        "",
                    )
                    .map(drop),
                _ => g.record_experiment("baseline", "", vec![]).map(drop),
            };
            assert!(result.is_err(), "duplicate definition {kind} accepted");
        }
        Op::BadInsert(unknown_attr) => {
            let attrs = if *unknown_attr {
                vec![("nope", Value::Int4(1))]
            } else {
                vec![("v", Value::Text("mistyped".into()))]
            };
            assert!(g.insert_object("obs", attrs).is_err());
        }
    }
}

proptest! {
    /// Any committed op sequence, any fsync batch size, any snapshot
    /// cadence: reopening the directory reconstructs the exact live
    /// state — relations, versions, oid allocator, catalog, tasks.
    #[test]
    fn replay_reconstructs_live_state(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        fsync_every in 1u64..8,
        snapshot_every in prop_oneof![Just(0u64), 1u64..6],
    ) {
        let dir = fresh_dir("replay");
        let options = DurabilityOptions { fsync_every, snapshot_every };
        let mut g = Gaea::open_with(&dir, options).unwrap();
        let mut live = define_task_schema(&mut g);
        for op in &ops {
            apply(&mut g, &mut live, op);
        }
        let before = state_digest(&g, "live");
        drop(g); // flushes any batched tail
        let g2 = Gaea::open_with(&dir, options).unwrap();
        let stats = g2.recovery_stats().unwrap();
        prop_assert!(!stats.wal_corrupt);
        prop_assert_eq!(stats.wal_dropped_bytes, 0);
        let after = state_digest(&g2, "replayed");
        prop_assert_eq!(&before.0, &after.0, "store manifest diverged after replay");
        prop_assert_eq!(&before.1, &after.1, "catalog diverged after replay");
        drop(g2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Recovery composes: open → mutate → reopen → mutate → reopen is
    /// indistinguishable from one uninterrupted kernel performing the
    /// same ops (allocators and sequence counters resume exactly).
    #[test]
    fn recovery_survives_repeated_reopens(
        first in proptest::collection::vec(op_strategy(), 1..15),
        second in proptest::collection::vec(op_strategy(), 1..15),
    ) {
        let dir = fresh_dir("reopen");
        let options = DurabilityOptions { fsync_every: 1, snapshot_every: 4 };

        // Interrupted run: restart between the two op batches.
        let mut g = Gaea::open_with(&dir, options).unwrap();
        let mut live = define_task_schema(&mut g);
        for op in &first {
            apply(&mut g, &mut live, op);
        }
        drop(g);
        let mut g = Gaea::open_with(&dir, options).unwrap();
        for op in &second {
            apply(&mut g, &mut live, op);
        }
        let interrupted = state_digest(&g, "interrupted");
        drop(g);

        // Twin: same ops, no restart, no durability at all.
        let mut t = Gaea::in_memory();
        let mut live = define_task_schema(&mut t);
        for op in first.iter().chain(&second) {
            if matches!(op, Op::Checkpoint) {
                continue; // no-op without a log
            }
            apply(&mut t, &mut live, op);
        }
        let twin = state_digest(&t, "twin");
        prop_assert_eq!(&interrupted.0, &twin.0, "manifest diverged from uninterrupted twin");
        prop_assert_eq!(&interrupted.1, &twin.1, "catalog diverged from uninterrupted twin");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ----------------------------------------------------------------------
// Damaged logs: torn tails and corrupted records
// ----------------------------------------------------------------------

/// Seed a durable kernel with the schema plus `n` inserts and return
/// the directory. `snapshot_every: 0` keeps every event in the log so
/// the damage tests control exactly what replay sees.
fn seeded_dir(tag: &str, n: i32) -> PathBuf {
    let dir = fresh_dir(tag);
    let options = DurabilityOptions {
        fsync_every: 1,
        snapshot_every: 0,
    };
    let mut g = Gaea::open_with(&dir, options).unwrap();
    define_schema(&mut g);
    for v in 0..n {
        g.insert_object("obs", vec![("v", Value::Int4(v))]).unwrap();
    }
    dir
}

fn obs_count(g: &Gaea) -> usize {
    g.objects_of("obs").unwrap().len()
}

/// Byte offset where record `n` (0-based) starts, by walking the
/// length prefixes.
fn record_offset(log: &Path, n: usize) -> u64 {
    let bytes = std::fs::read(log).unwrap();
    let mut off = 0usize;
    for _ in 0..n {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += 8 + len;
    }
    off as u64
}

/// A crash mid-append leaves a half-written record; recovery drops the
/// torn tail, keeps every complete event, and the log stays appendable.
#[test]
fn torn_tail_is_dropped_cleanly() {
    let dir = seeded_dir("torn", 5);
    let log = dir.join("wal.log");
    let len = std::fs::metadata(&log).unwrap().len();
    OpenOptions::new()
        .write(true)
        .open(&log)
        .unwrap()
        .set_len(len - 3) // tear the last record's tail off
        .unwrap();

    let mut g = Gaea::open(&dir).unwrap();
    let stats = g.recovery_stats().unwrap().clone();
    assert!(!stats.wal_corrupt, "a torn tail is not corruption");
    assert!(stats.wal_dropped_bytes > 0);
    // 3 schema events + 5 inserts, minus the torn final insert.
    assert_eq!(stats.events_replayed, 7);
    assert_eq!(obs_count(&g), 4);

    // The truncated log accepts new events and replays them.
    g.insert_object("obs", vec![("v", Value::Int4(99))])
        .unwrap();
    drop(g);
    let g = Gaea::open(&dir).unwrap();
    let stats = g.recovery_stats().unwrap();
    assert_eq!(stats.wal_dropped_bytes, 0);
    assert_eq!(obs_count(&g), 5);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped byte inside a record's payload fails the CRC: recovery
/// reports corruption, replays only the prefix before the damaged
/// record, and discards everything after it.
#[test]
fn checksum_corruption_is_detected() {
    let dir = seeded_dir("crc", 5);
    let log = dir.join("wal.log");
    // Damage the payload of record 4 (the second insert): records 0-2
    // are the schema, record 3 the first insert.
    let off = record_offset(&log, 4) + 8 + 2;
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&log)
        .unwrap();
    f.seek(SeekFrom::Start(off)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(off)).unwrap();
    f.write_all(&[b[0] ^ 0xFF]).unwrap();
    drop(f);

    let g = Gaea::open(&dir).unwrap();
    let stats = g.recovery_stats().unwrap();
    assert!(stats.wal_corrupt, "flipped payload byte must fail the CRC");
    assert!(stats.wal_dropped_bytes > 0);
    assert_eq!(
        stats.events_replayed, 4,
        "only the prefix before the damage replays"
    );
    assert_eq!(obs_count(&g), 1);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deleting the log entirely falls back to the latest snapshot alone.
#[test]
fn snapshot_alone_recovers_when_log_is_lost() {
    let dir = fresh_dir("snaponly");
    let options = DurabilityOptions {
        fsync_every: 1,
        snapshot_every: 0,
    };
    let mut g = Gaea::open_with(&dir, options).unwrap();
    define_schema(&mut g);
    for v in 0..4 {
        g.insert_object("obs", vec![("v", Value::Int4(v))]).unwrap();
    }
    g.checkpoint().unwrap();
    drop(g);
    std::fs::remove_file(dir.join("wal.log")).unwrap();

    let g = Gaea::open(&dir).unwrap();
    let stats = g.recovery_stats().unwrap();
    assert_eq!(stats.events_replayed, 0);
    assert!(stats.snapshot_seq > 0);
    assert_eq!(obs_count(&g), 4);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}
