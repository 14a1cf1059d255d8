//! The WAL record codec: versioned binary envelopes for logged events.
//!
//! Every record the durable kernel appends is one [`LoggedEvent`]
//! encoded by [`encode_logged`] as binary v1 — the only format written.
//! Recovery decodes with [`decode_logged`], which dispatches **per
//! record** on the first payload byte:
//!
//! | first byte | format                                             |
//! |-----------:|----------------------------------------------------|
//! | `0x01`     | binary v1 (this module)                            |
//! | `0x00`     | JSON envelope after an explicit format prefix      |
//! | `b'{'`     | bare JSON — logs written before the binary codec   |
//! | other      | codec error (corrupt-but-CRC-valid record)         |
//!
//! The two JSON formats are decode-only: a legacy log replays
//! unchanged, and a legacy log continued by a newer kernel (JSON prefix,
//! binary suffix) replays to the same state — `tests/wal_recovery.rs`
//! holds both against the golden legacy logs.
//!
//! The binary layout leans on `gaea_store::codec` primitives (LEB128
//! varints, zigzag signed, fixed-width LE floats, length-prefixed
//! strings) and its [`Value`](gaea_adt::Value)/[`Tuple`] codec — object
//! payloads (images, matrices) encode as raw little-endian runs, which
//! is where the multi-× replay win over per-digit JSON comes from. The
//! hot event shapes (object CRUD, task commits, job lifecycle) are
//! fully binary; the cold DDL definition payloads (`ClassDef`,
//! `Concept`, `ProcessDef`, `Experiment`) stay as embedded JSON blobs —
//! they are rare, schema-rich and version-tolerant there, and a
//! length-prefixed blob costs one varint.

use super::durability::LoggedEvent;
use crate::error::{KernelError, KernelResult};
use crate::event::{Event, NewObject, TaskCommit};
use crate::ids::{ClassId, ObjectId, ProcessId, TaskId};
use crate::task::{Task, TaskKind};
use gaea_store::codec::{decode_tuple, decode_value, encode_tuple, encode_value, Dec, Enc};
use gaea_store::{Oid, StoreError};
use std::collections::BTreeMap;

/// Format byte of a binary v1 record.
const FORMAT_BINARY_V1: u8 = 1;
/// Format byte of an explicitly-prefixed JSON record (decode only).
const FORMAT_JSON: u8 = 0;

// Event variant tags (binary v1). Appending new variants is fine;
// renumbering existing ones breaks every log on disk.
const E_DEFINE_CLASS: u8 = 0;
const E_DEFINE_CONCEPT: u8 = 1;
const E_DEFINE_PROCESS: u8 = 2;
const E_DEFINE_EXPERIMENT: u8 = 3;
const E_CREATE_INDEX: u8 = 4;
const E_CREATE_GRID: u8 = 5;
const E_RETUNE_GRID: u8 = 6;
const E_INSERT_OBJECT: u8 = 7;
const E_UPDATE_OBJECT: u8 = 8;
const E_DELETE_OBJECT: u8 = 9;
const E_TASK_COMMIT: u8 = 10;
const E_JOB_SUBMIT: u8 = 11;
const E_JOB_RESOLVED: u8 = 12;
const E_VERSION_ADVANCE: u8 = 13;

fn err(msg: impl Into<String>) -> KernelError {
    KernelError::Store(StoreError::Codec(msg.into()))
}

/// Encode one envelope as a binary v1 record.
pub(crate) fn encode_logged(logged: &LoggedEvent) -> KernelResult<Vec<u8>> {
    let mut e = Enc::with_capacity(64);
    e.u8(FORMAT_BINARY_V1);
    e.varint(logged.seq);
    e.varint(logged.next_oid);
    e.varint(logged.bumps.len() as u64);
    for (rel, ticks) in &logged.bumps {
        e.str(rel);
        e.varint(ticks.len() as u64);
        for t in ticks {
            e.varint(*t);
        }
    }
    encode_event(&mut e, &logged.event)?;
    Ok(e.into_bytes())
}

/// Decode one record, whatever codec wrote it (see the module table).
pub(crate) fn decode_logged(payload: &[u8]) -> KernelResult<LoggedEvent> {
    match payload.first() {
        Some(&FORMAT_BINARY_V1) => {
            let mut d = Dec::new(&payload[1..]);
            let seq = d.varint().map_err(KernelError::Store)?;
            let next_oid = d.varint().map_err(KernelError::Store)?;
            let logged = (|| -> Result<LoggedEvent, StoreError> {
                let n = d.len(2)?;
                let mut bumps = Vec::with_capacity(n);
                for _ in 0..n {
                    let rel = d.str()?;
                    let m = d.len(1)?;
                    let mut ticks = Vec::with_capacity(m);
                    for _ in 0..m {
                        ticks.push(d.varint()?);
                    }
                    bumps.push((rel, ticks));
                }
                let event = decode_event(&mut d)?;
                Ok(LoggedEvent {
                    seq,
                    next_oid,
                    bumps,
                    event,
                })
            })()
            .map_err(KernelError::Store)?;
            if !d.is_empty() {
                return Err(err(format!(
                    "binary record (seq {}) carries {} trailing bytes",
                    logged.seq,
                    d.remaining()
                )));
            }
            Ok(logged)
        }
        Some(&FORMAT_JSON) => serde_json::from_slice(&payload[1..]).map_err(|e| err(e.to_string())),
        Some(&b'{') => serde_json::from_slice(payload).map_err(|e| err(e.to_string())),
        Some(other) => Err(err(format!("unknown wal record format byte {other}"))),
        None => Err(err("empty wal record")),
    }
}

/// A cold DDL payload: serde JSON behind a length prefix.
fn enc_json<T: serde::Serialize>(e: &mut Enc, v: &T) -> KernelResult<()> {
    let raw = serde_json::to_vec(v).map_err(|x| err(x.to_string()))?;
    e.bytes(&raw);
    Ok(())
}

fn dec_json<T: serde::Deserialize>(d: &mut Dec<'_>) -> Result<T, StoreError> {
    let raw = d.bytes()?;
    serde_json::from_slice(raw).map_err(|e| StoreError::Codec(e.to_string()))
}

/// Argument-name → object-id lists, the shape shared by task inputs and
/// job bindings.
fn enc_bindings(e: &mut Enc, bindings: &[(String, Vec<ObjectId>)]) {
    e.varint(bindings.len() as u64);
    for (arg, objs) in bindings {
        e.str(arg);
        e.varint(objs.len() as u64);
        for o in objs {
            e.varint(o.raw());
        }
    }
}

fn dec_bindings(d: &mut Dec<'_>) -> Result<Vec<(String, Vec<ObjectId>)>, StoreError> {
    let n = d.len(2)?;
    let mut bindings = Vec::with_capacity(n);
    for _ in 0..n {
        let arg = d.str()?;
        let m = d.len(1)?;
        let mut objs = Vec::with_capacity(m);
        for _ in 0..m {
            objs.push(ObjectId(Oid(d.varint()?)));
        }
        bindings.push((arg, objs));
    }
    Ok(bindings)
}

fn task_kind_tag(kind: TaskKind) -> u8 {
    match kind {
        TaskKind::Primitive => 0,
        TaskKind::Compound => 1,
        TaskKind::Interpolation => 2,
        TaskKind::Interactive => 3,
        TaskKind::External => 4,
        TaskKind::Manual => 5,
    }
}

fn task_kind_from_tag(tag: u8) -> Result<TaskKind, StoreError> {
    Ok(match tag {
        0 => TaskKind::Primitive,
        1 => TaskKind::Compound,
        2 => TaskKind::Interpolation,
        3 => TaskKind::Interactive,
        4 => TaskKind::External,
        5 => TaskKind::Manual,
        other => return Err(StoreError::Codec(format!("unknown task-kind tag {other}"))),
    })
}

fn enc_task(e: &mut Enc, t: &Task) {
    e.varint(t.id.raw());
    e.varint(t.process.raw());
    e.str(&t.process_name);
    e.varint(t.inputs.len() as u64);
    for (arg, objs) in &t.inputs {
        e.str(arg);
        e.varint(objs.len() as u64);
        for o in objs {
            e.varint(o.raw());
        }
    }
    e.varint(t.input_versions.len() as u64);
    for (obj, ver) in &t.input_versions {
        e.varint(obj.raw());
        e.varint(*ver);
    }
    e.varint(t.outputs.len() as u64);
    for o in &t.outputs {
        e.varint(o.raw());
    }
    e.varint(t.params.len() as u64);
    for (k, v) in &t.params {
        e.str(k);
        encode_value(e, v);
    }
    e.varint(t.seq);
    e.str(&t.user);
    e.u8(task_kind_tag(t.kind));
    e.varint(t.children.len() as u64);
    for c in &t.children {
        e.varint(c.raw());
    }
}

fn dec_task(d: &mut Dec<'_>) -> Result<Task, StoreError> {
    let id = TaskId(Oid(d.varint()?));
    let process = ProcessId(Oid(d.varint()?));
    let process_name = d.str()?;
    let n = d.len(2)?;
    let mut inputs = BTreeMap::new();
    for _ in 0..n {
        let arg = d.str()?;
        let m = d.len(1)?;
        let mut objs = Vec::with_capacity(m);
        for _ in 0..m {
            objs.push(ObjectId(Oid(d.varint()?)));
        }
        inputs.insert(arg, objs);
    }
    let n = d.len(2)?;
    let mut input_versions = BTreeMap::new();
    for _ in 0..n {
        let obj = ObjectId(Oid(d.varint()?));
        input_versions.insert(obj, d.varint()?);
    }
    let n = d.len(1)?;
    let mut outputs = Vec::with_capacity(n);
    for _ in 0..n {
        outputs.push(ObjectId(Oid(d.varint()?)));
    }
    let n = d.len(2)?;
    let mut params = BTreeMap::new();
    for _ in 0..n {
        let k = d.str()?;
        params.insert(k, decode_value(d)?);
    }
    let seq = d.varint()?;
    let user = d.str()?;
    let kind = task_kind_from_tag(d.u8()?)?;
    let n = d.len(1)?;
    let mut children = Vec::with_capacity(n);
    for _ in 0..n {
        children.push(TaskId(Oid(d.varint()?)));
    }
    Ok(Task {
        id,
        process,
        process_name,
        inputs,
        input_versions,
        outputs,
        params,
        seq,
        user,
        kind,
        children,
    })
}

fn encode_event(e: &mut Enc, event: &Event) -> KernelResult<()> {
    match event {
        Event::DefineClass { def } => {
            e.u8(E_DEFINE_CLASS);
            enc_json(e, def)?;
        }
        Event::DefineConcept { def } => {
            e.u8(E_DEFINE_CONCEPT);
            enc_json(e, def)?;
        }
        Event::DefineProcess { def } => {
            e.u8(E_DEFINE_PROCESS);
            enc_json(e, def)?;
        }
        Event::DefineExperiment { def } => {
            e.u8(E_DEFINE_EXPERIMENT);
            enc_json(e, def)?;
        }
        Event::CreateIndex { rel, attr } => {
            e.u8(E_CREATE_INDEX);
            e.str(rel);
            e.str(attr);
        }
        Event::CreateGrid { rel, attr, cell } => {
            e.u8(E_CREATE_GRID);
            e.str(rel);
            e.str(attr);
            e.f64(*cell);
        }
        Event::RetuneGrid { rel, pos, cell } => {
            e.u8(E_RETUNE_GRID);
            e.str(rel);
            e.varint(*pos as u64);
            e.f64(*cell);
        }
        Event::InsertObject {
            rel,
            class,
            oid,
            tuple,
        } => {
            e.u8(E_INSERT_OBJECT);
            e.str(rel);
            e.varint(class.raw());
            e.varint(*oid);
            encode_tuple(e, tuple);
        }
        Event::UpdateObject { rel, oid, tuple } => {
            e.u8(E_UPDATE_OBJECT);
            e.str(rel);
            e.varint(*oid);
            encode_tuple(e, tuple);
        }
        Event::DeleteObject { rel, oid } => {
            e.u8(E_DELETE_OBJECT);
            e.str(rel);
            e.varint(*oid);
        }
        Event::TaskCommit(TaskCommit { objects, tasks }) => {
            e.u8(E_TASK_COMMIT);
            e.varint(objects.len() as u64);
            for o in objects {
                e.str(&o.rel);
                e.varint(o.class.raw());
                e.varint(o.oid);
                encode_tuple(e, &o.tuple);
            }
            e.varint(tasks.len() as u64);
            for t in tasks {
                enc_task(e, t);
            }
        }
        Event::JobSubmit {
            job,
            process,
            bindings,
        } => {
            e.u8(E_JOB_SUBMIT);
            e.varint(*job);
            e.varint(process.raw());
            enc_bindings(e, bindings);
        }
        Event::JobResolved { job } => {
            e.u8(E_JOB_RESOLVED);
            e.varint(*job);
        }
        Event::VersionAdvance => e.u8(E_VERSION_ADVANCE),
    }
    Ok(())
}

fn decode_event(d: &mut Dec<'_>) -> Result<Event, StoreError> {
    Ok(match d.u8()? {
        E_DEFINE_CLASS => Event::DefineClass { def: dec_json(d)? },
        E_DEFINE_CONCEPT => Event::DefineConcept { def: dec_json(d)? },
        E_DEFINE_PROCESS => Event::DefineProcess { def: dec_json(d)? },
        E_DEFINE_EXPERIMENT => Event::DefineExperiment { def: dec_json(d)? },
        E_CREATE_INDEX => Event::CreateIndex {
            rel: d.str()?,
            attr: d.str()?,
        },
        E_CREATE_GRID => Event::CreateGrid {
            rel: d.str()?,
            attr: d.str()?,
            cell: d.f64()?,
        },
        E_RETUNE_GRID => Event::RetuneGrid {
            rel: d.str()?,
            pos: d.varint()? as usize,
            cell: d.f64()?,
        },
        E_INSERT_OBJECT => Event::InsertObject {
            rel: d.str()?,
            class: ClassId(Oid(d.varint()?)),
            oid: d.varint()?,
            tuple: decode_tuple(d)?,
        },
        E_UPDATE_OBJECT => Event::UpdateObject {
            rel: d.str()?,
            oid: d.varint()?,
            tuple: decode_tuple(d)?,
        },
        E_DELETE_OBJECT => Event::DeleteObject {
            rel: d.str()?,
            oid: d.varint()?,
        },
        E_TASK_COMMIT => {
            let n = d.len(4)?;
            let mut objects = Vec::with_capacity(n);
            for _ in 0..n {
                objects.push(NewObject {
                    rel: d.str()?,
                    class: ClassId(Oid(d.varint()?)),
                    oid: d.varint()?,
                    tuple: decode_tuple(d)?,
                });
            }
            let n = d.len(8)?;
            let mut tasks = Vec::with_capacity(n);
            for _ in 0..n {
                tasks.push(dec_task(d)?);
            }
            Event::TaskCommit(TaskCommit { objects, tasks })
        }
        E_JOB_SUBMIT => Event::JobSubmit {
            job: d.varint()?,
            process: ProcessId(Oid(d.varint()?)),
            bindings: dec_bindings(d)?,
        },
        E_JOB_RESOLVED => Event::JobResolved { job: d.varint()? },
        E_VERSION_ADVANCE => Event::VersionAdvance,
        other => return Err(StoreError::Codec(format!("unknown event tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaea_adt::{Image, Value};
    use gaea_store::Tuple;

    fn sample_task(seq: u64) -> Task {
        let mut inputs = BTreeMap::new();
        inputs.insert(
            "bands".to_string(),
            vec![ObjectId(Oid(3)), ObjectId(Oid(4))],
        );
        let mut input_versions = BTreeMap::new();
        input_versions.insert(ObjectId(Oid(3)), 17);
        let mut params = BTreeMap::new();
        params.insert("at".to_string(), Value::Int4(5));
        Task {
            id: TaskId(Oid(100 + seq)),
            process: ProcessId(Oid(7)),
            process_name: "P20".into(),
            inputs,
            input_versions,
            outputs: vec![ObjectId(Oid(9))],
            params,
            seq,
            user: "qiu".into(),
            kind: TaskKind::Compound,
            children: vec![TaskId(Oid(101)), TaskId(Oid(102))],
        }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::CreateIndex {
                rel: "c_scene".into(),
                attr: "name".into(),
            },
            Event::CreateGrid {
                rel: "c_scene".into(),
                attr: "extent".into(),
                cell: 12.5,
            },
            Event::RetuneGrid {
                rel: "c_scene".into(),
                pos: 2,
                cell: 3.0,
            },
            Event::InsertObject {
                rel: "c_scene".into(),
                class: ClassId(Oid(4)),
                oid: 31,
                tuple: Tuple::new(vec![
                    Value::Text("tm_b3".into()),
                    Value::image(Image::from_f64(2, 3, vec![0.25; 6]).unwrap()),
                ]),
            },
            Event::UpdateObject {
                rel: "c_scene".into(),
                oid: 31,
                tuple: Tuple::new(vec![Value::Null, Value::Int4(-2)]),
            },
            Event::DeleteObject {
                rel: "c_scene".into(),
                oid: 31,
            },
            Event::TaskCommit(TaskCommit {
                objects: vec![NewObject {
                    rel: "c_ndvi".into(),
                    class: ClassId(Oid(5)),
                    oid: 9,
                    tuple: Tuple::new(vec![Value::Float8(0.5)]),
                }],
                tasks: vec![sample_task(1), sample_task(2)],
            }),
            Event::JobSubmit {
                job: 3,
                process: ProcessId(Oid(7)),
                bindings: vec![("bands".into(), vec![ObjectId(Oid(3))])],
            },
            Event::JobResolved { job: 3 },
            Event::VersionAdvance,
        ]
    }

    /// The bare serde envelope — what kernels before the binary codec
    /// appended, and the reference encoder for the decode-only JSON
    /// formats.
    fn legacy_json(logged: &LoggedEvent) -> Vec<u8> {
        serde_json::to_vec(logged).unwrap()
    }

    /// Every event shape decodes back to the same envelope from its
    /// binary record and from both legacy JSON formats (compared through
    /// the serde view, which is `Event`'s identity for replay purposes).
    #[test]
    fn every_event_round_trips_in_both_codecs() {
        for (i, event) in sample_events().into_iter().enumerate() {
            let logged = LoggedEvent {
                seq: 40 + i as u64,
                next_oid: 1000,
                bumps: vec![("c_scene".into(), vec![1, 2, 300])],
                event,
            };
            let canon = serde_json::to_string(&logged).unwrap();
            let json = legacy_json(&logged);
            let prefixed = [&[FORMAT_JSON][..], &json].concat();
            for payload in [encode_logged(&logged).unwrap(), json, prefixed] {
                let back = decode_logged(&payload).unwrap();
                assert_eq!(serde_json::to_string(&back).unwrap(), canon);
            }
        }
    }

    fn golden_commit() -> LoggedEvent {
        LoggedEvent {
            seq: 12,
            next_oid: 104,
            bumps: vec![("c_ndvi".into(), vec![9])],
            event: Event::TaskCommit(TaskCommit {
                objects: vec![NewObject {
                    rel: "c_ndvi".into(),
                    class: ClassId(Oid(5)),
                    oid: 9,
                    tuple: Tuple::new(vec![Value::Float8(0.5), Value::Text("sahel".into())]),
                }],
                tasks: vec![sample_task(1), sample_task(2)],
            }),
        }
    }

    /// [`golden_commit`] as logs on disk hold it, binary v1 in hex.
    const GOLDEN_BINARY: &str =
        "010c680106635f6e64766901090a0106635f6e64766905090205000000000000e03f\
        0705736168656c02650703503230010562616e6473020304010311010901026174030a010371697501026566\
        660703503230010562616e6473020304010311010901026174030a020371697501026566";

    /// [`golden_commit`] as pre-codec logs on disk hold it, JSON.
    const GOLDEN_JSON: &str = r#"{"seq":12,"next_oid":104,"bumps":[["c_ndvi",[9]]],"event":{"TaskCommit":{"objects":[{"rel":"c_ndvi","class":5,"oid":9,"tuple":{"values":[{"Float8":0.5},{"Text":"sahel"}]}}],"tasks":[{"id":101,"process":7,"process_name":"P20","inputs":{"bands":[3,4]},"input_versions":{"3":17},"outputs":[9],"params":{"at":{"Int4":5}},"seq":1,"user":"qiu","kind":"Compound","children":[101,102]},{"id":102,"process":7,"process_name":"P20","inputs":{"bands":[3,4]},"input_versions":{"3":17},"outputs":[9],"params":{"at":{"Int4":5}},"seq":2,"user":"qiu","kind":"Compound","children":[101,102]}]}}}"#;

    /// The task-commit record format is pinned: a two-task commit
    /// encodes to exactly the binary bytes existing logs hold, the
    /// legacy JSON bytes are what pre-codec kernels appended, and both
    /// decode back to the same envelope. A round trip within one build
    /// cannot catch a shape change; this can.
    #[test]
    fn task_commit_records_match_golden_bytes() {
        let logged = golden_commit();
        let canon = serde_json::to_string(&logged).unwrap();
        let binary: Vec<u8> = (0..GOLDEN_BINARY.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN_BINARY[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(encode_logged(&logged).unwrap(), binary);
        assert_eq!(legacy_json(&logged), GOLDEN_JSON.as_bytes());
        for golden in [binary.as_slice(), GOLDEN_JSON.as_bytes()] {
            let back = decode_logged(golden).unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), canon);
        }
    }

    #[test]
    fn json_records_stay_byte_compatible_with_legacy_logs() {
        let logged = LoggedEvent {
            seq: 1,
            next_oid: 2,
            bumps: vec![],
            event: Event::VersionAdvance,
        };
        // Bare serde JSON, exactly what pre-codec kernels appended.
        let payload = legacy_json(&logged);
        assert_eq!(payload[0], b'{');
        assert_eq!(decode_logged(&payload).unwrap().seq, 1);
        // And an explicit 0x00 prefix is accepted on decode too.
        let mut prefixed = vec![FORMAT_JSON];
        prefixed.extend_from_slice(&payload);
        assert_eq!(decode_logged(&prefixed).unwrap().seq, 1);
        // New records are always binary.
        assert_eq!(encode_logged(&logged).unwrap()[0], FORMAT_BINARY_V1);
    }

    #[test]
    fn binary_is_smaller_than_json_for_object_payloads() {
        let logged = LoggedEvent {
            seq: 7,
            next_oid: 32,
            bumps: vec![],
            event: Event::InsertObject {
                rel: "c_scene".into(),
                class: ClassId(Oid(4)),
                oid: 31,
                tuple: Tuple::new(vec![Value::image(
                    Image::new(16, 16, gaea_adt::PixelBuffer::I32(vec![2_000_000_001; 256]))
                        .unwrap(),
                )]),
            },
        };
        let bin = encode_logged(&logged).unwrap().len();
        let json = legacy_json(&logged).len();
        assert!(
            bin * 2 < json,
            "binary {bin} bytes should be well under half of JSON {json}"
        );
    }

    #[test]
    fn corrupt_records_error_instead_of_panicking() {
        assert!(decode_logged(&[]).is_err());
        assert!(decode_logged(&[9, 9, 9]).is_err());
        assert!(decode_logged(b"[1,2]").is_err());
        // Binary prefix with a truncated body.
        let logged = LoggedEvent {
            seq: 3,
            next_oid: 4,
            bumps: vec![("r".into(), vec![1])],
            event: Event::DeleteObject {
                rel: "r".into(),
                oid: 5,
            },
        };
        let full = encode_logged(&logged).unwrap();
        for cut in 1..full.len() {
            assert!(
                decode_logged(&full[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        // Trailing garbage after a complete envelope.
        let mut padded = full.clone();
        padded.push(0);
        assert!(decode_logged(&padded).is_err());
    }
}
