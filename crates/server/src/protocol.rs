//! The wire protocol: length-prefixed frames carrying JSON-encoded
//! requests and responses.
//!
//! ```text
//!   ┌────────────┬──────┬──────────────────────────────┐
//!   │ u32 BE len │ kind │ payload: one JSON document   │
//!   └────────────┴──────┴──────────────────────────────┘
//!     4 bytes      1 B    `len` bytes (excludes header)
//! ```
//!
//! `kind` is [`FRAME_REQUEST`] client→server and [`FRAME_RESPONSE`]
//! server→client; the payload is the externally-tagged JSON encoding of
//! [`Request`] / [`Response`]. Every request gets exactly one response.
//! A frame with an unknown kind, an oversized length, or an undecodable
//! payload is a **protocol error**: the server counts it, answers with
//! [`Response::Error`] when the stream is still writable, and closes the
//! connection — a session that cannot frame correctly cannot be trusted
//! to stay in sync.

use gaea_adt::Value;
use gaea_core::query::{QueryProfile, ScanPlan};
use gaea_core::{DataObject, ObjectId, QueryMethod, QueryOutcome, TaskId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{Read, Write};

/// Frame kind byte: client → server.
pub const FRAME_REQUEST: u8 = 0x01;
/// Frame kind byte: server → client.
pub const FRAME_RESPONSE: u8 = 0x02;

/// Hard ceiling on one frame's payload; larger lengths are protocol
/// errors (they would otherwise let one session balloon server memory).
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// One client statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Open the session. Must be the first request on a connection.
    Hello { client: String },
    /// A `RETRIEVE …` statement. Plain retrieval (no `DERIVE`, no
    /// `FRESH`) runs on a snapshot-pinned view without touching the
    /// commit path; anything that may compute is serialized.
    Retrieve { src: String },
    /// A definition program (`CLASS` / `DEFINE PROCESS` / `CONCEPT` /
    /// `DEFINE INDEX`). Always serialized.
    Define { src: String },
    /// Insert one object. Always serialized.
    Insert {
        class: String,
        attrs: Vec<(String, Value)>,
    },
    /// Update attributes of one stored object. Always serialized.
    Update {
        oid: u64,
        attrs: Vec<(String, Value)>,
    },
    /// Status of a background job. Serialized: the poll commits a
    /// finished result first, so it never answers a stale status.
    JobStatus { id: u64 },
    /// Block (server-side, bounded) until a job resolves. The server
    /// polls with short serialized statements and sleeps between them on
    /// the kernel's job condvar; it never parks a thread holding the
    /// kernel.
    AwaitJob { id: u64, timeout_ms: u64 },
    /// Cancel a queued or running job. Always serialized.
    CancelJob { id: u64 },
    /// Server counters (sessions, statement mix, protocol errors) plus
    /// the process-wide metrics snapshot.
    Stats,
    /// Recently retained query traces (the slow-query ring), newest
    /// last.
    Trace,
    /// Liveness probe.
    Ping,
    /// Close this session cleanly.
    Goodbye,
    /// Ask the server to shut down: stop admitting, drain sessions,
    /// checked-flush the WAL. Honored only from loopback peers unless
    /// the server was configured with `allow_remote_shutdown`; refused
    /// requests get an `Error` frame and the session is closed.
    Shutdown,
}

/// One server answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Session admitted.
    Welcome { session: u64 },
    /// A query's result.
    Outcome(WireOutcome),
    /// A definition program registered.
    Defined {
        classes: usize,
        processes: usize,
        concepts: usize,
    },
    /// An object was inserted.
    Inserted { oid: u64 },
    /// An object was updated.
    Updated,
    /// A job's status.
    Job { id: u64, status: WireJobStatus },
    /// Server counters.
    Stats(ServerStats),
    /// Retained query traces, oldest first.
    Traces(Vec<WireTrace>),
    /// Liveness answer.
    Pong,
    /// Session closed at the client's request.
    Bye,
    /// Shutdown acknowledged; the connection closes after this frame.
    ShuttingDown,
    /// The statement failed (kernel error, refused admission, protocol
    /// violation). The connection stays open for kernel errors and
    /// closes for admission/protocol failures.
    Error { message: String },
}

/// [`QueryOutcome`] as it crosses the wire. `QueryOutcome` itself is not
/// serde-encodable (and job ids are bare `u64`s here), so the server
/// flattens it; the fields mirror the kernel struct one-to-one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireOutcome {
    /// Matching objects.
    pub objects: Vec<DataObject>,
    /// Which step answered.
    pub method: QueryMethod,
    /// Tasks recorded while answering.
    pub tasks: Vec<TaskId>,
    /// Stale derivations among `objects`.
    pub stale: Vec<ObjectId>,
    /// Relevant in-flight background jobs (raw job ids).
    pub pending: Vec<u64>,
    /// EXPLAIN-visible scan plans.
    pub plans: Vec<ScanPlan>,
    /// Commit clock of the state that answered — for a pinned read, the
    /// snapshot's clock; for a serialized statement, the clock after it.
    pub clock: u64,
    /// Per-stage wall-clock profile of the statement (EXPLAIN
    /// ANALYZE-style), when the executing path was traced. Absent on
    /// frames from servers predating the field.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub profile: Option<QueryProfile>,
}

impl WireOutcome {
    /// Flatten a kernel outcome at a known clock.
    pub fn from_outcome(o: QueryOutcome, clock: u64) -> WireOutcome {
        WireOutcome {
            objects: o.objects,
            method: o.method,
            tasks: o.tasks,
            stale: o.stale,
            pending: o.pending.iter().map(|j| j.0).collect(),
            plans: o.plans,
            clock,
            profile: o.profile,
        }
    }
}

/// [`gaea_core::kernel::JobStatus`] across the wire (task ids as raw
/// OIDs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireJobStatus {
    /// Waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the recorded task's raw id.
    Done { task: u64 },
    /// Failed with the kernel's error text.
    Failed { error: String },
    /// Cancelled before completion.
    Cancelled,
}

impl WireJobStatus {
    /// Terminal statuses never change again.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, WireJobStatus::Queued | WireJobStatus::Running)
    }
}

impl From<gaea_core::kernel::JobStatus> for WireJobStatus {
    fn from(s: gaea_core::kernel::JobStatus) -> WireJobStatus {
        use gaea_core::kernel::JobStatus as J;
        match s {
            J::Queued => WireJobStatus::Queued,
            J::Running => WireJobStatus::Running,
            J::Done(t) => WireJobStatus::Done { task: t.raw() },
            J::Failed(e) => WireJobStatus::Failed { error: e },
            J::Cancelled => WireJobStatus::Cancelled,
        }
    }
}

/// Server-wide counters, as served by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Sessions admitted over the server's lifetime.
    pub sessions_opened: u64,
    /// Connections refused by admission control.
    pub sessions_refused: u64,
    /// Sessions currently live.
    pub sessions_live: u64,
    /// Statements answered from a snapshot-pinned view.
    pub reads_pinned: u64,
    /// Statements run on the serialized commit path.
    pub writes_serialized: u64,
    /// Malformed frames observed (see the module docs).
    pub protocol_errors: u64,
    /// The kernel's commit clock at answer time.
    pub clock: u64,
    /// The process-wide metrics snapshot (`gaea_obs`), flat key → value.
    /// Empty on frames from servers predating the field.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub metrics: BTreeMap<String, u64>,
}

/// One retained query trace (the `gaea_obs` slow-query ring) across the
/// wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireTrace {
    /// Root span name (`query` for every statement the kernel traces).
    pub root: String,
    /// Statement label — the target class or concept name.
    pub label: String,
    /// Total wall time of the statement, microseconds.
    pub total_us: u64,
    /// Annotations attached to the trace root.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub notes: Vec<(String, String)>,
    /// Closed spans in completion order.
    pub spans: Vec<WireSpan>,
}

/// One closed span of a [`WireTrace`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireSpan {
    /// Stage name (`plan`, `retrieve`, `bind`, `fire`, …).
    pub name: String,
    /// Nesting depth below the root (stages are 1).
    pub depth: u16,
    /// Span wall time, microseconds.
    pub wall_us: u64,
    /// Annotations attached to this span.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub notes: Vec<(String, String)>,
}

impl From<&gaea_obs::Trace> for WireTrace {
    fn from(t: &gaea_obs::Trace) -> WireTrace {
        WireTrace {
            root: t.root.to_string(),
            label: t.label.clone(),
            total_us: t.total_us,
            notes: t
                .notes
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            spans: t
                .spans
                .iter()
                .map(|s| WireSpan {
                    name: s.name.to_string(),
                    depth: s.depth,
                    wall_us: s.wall_us,
                    notes: s
                        .notes
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Errors reading or writing frames.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed (includes clean EOF between frames).
    Io(std::io::Error),
    /// The peer sent a well-formed header with an unusable body: wrong
    /// kind byte, a length above [`MAX_FRAME`], or undecodable JSON.
    Protocol(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "socket: {e}"),
            FrameError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Write one frame: header (length + kind) then the JSON payload.
pub fn write_frame<W: Write, T: Serialize>(
    w: &mut W,
    kind: u8,
    value: &T,
) -> Result<(), FrameError> {
    let payload =
        serde_json::to_vec(value).map_err(|e| FrameError::Protocol(format!("encode: {e}")))?;
    let len = u32::try_from(payload.len())
        .map_err(|_| FrameError::Protocol("frame over 4 GiB".into()))?;
    if len > MAX_FRAME {
        return Err(FrameError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    let mut buf = Vec::with_capacity(5 + payload.len());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.push(kind);
    buf.extend_from_slice(&payload);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Read one frame, checking the kind byte and length bound, and decode
/// its JSON payload.
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R, expect_kind: u8) -> Result<T, FrameError> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
    let kind = header[4];
    if kind != expect_kind {
        return Err(FrameError::Protocol(format!(
            "unexpected frame kind {kind:#04x} (wanted {expect_kind:#04x})"
        )));
    }
    if len > MAX_FRAME {
        return Err(FrameError::Protocol(format!(
            "declared payload of {len} bytes exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    serde_json::from_slice(&payload).map_err(|e| FrameError::Protocol(format!("decode: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        let req = Request::Retrieve {
            src: "RETRIEVE * FROM obs".into(),
        };
        write_frame(&mut buf, FRAME_REQUEST, &req).unwrap();
        let mut cursor = &buf[..];
        let back: Request = read_frame(&mut cursor, FRAME_REQUEST).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn wrong_kind_is_a_protocol_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_RESPONSE, &Response::Pong).unwrap();
        let mut cursor = &buf[..];
        let err = read_frame::<_, Request>(&mut cursor, FRAME_REQUEST).unwrap_err();
        assert!(matches!(err, FrameError::Protocol(_)));
    }

    #[test]
    fn oversized_length_is_refused_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        buf.push(FRAME_REQUEST);
        let mut cursor = &buf[..];
        let err = read_frame::<_, Request>(&mut cursor, FRAME_REQUEST).unwrap_err();
        assert!(matches!(err, FrameError::Protocol(_)));
    }

    #[test]
    fn garbage_json_is_a_protocol_error() {
        let mut buf = Vec::new();
        let payload = b"not json";
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buf.push(FRAME_REQUEST);
        buf.extend_from_slice(payload);
        let mut cursor = &buf[..];
        let err = read_frame::<_, Request>(&mut cursor, FRAME_REQUEST).unwrap_err();
        assert!(matches!(err, FrameError::Protocol(_)));
    }

    #[test]
    fn responses_with_payloads_round_trip() {
        for resp in [
            Response::Welcome { session: 7 },
            Response::Job {
                id: 3,
                status: WireJobStatus::Failed {
                    error: "boom".into(),
                },
            },
            Response::Stats(ServerStats {
                sessions_opened: 2,
                clock: 40,
                ..ServerStats::default()
            }),
            Response::Error {
                message: "nope".into(),
            },
        ] {
            let mut buf = Vec::new();
            write_frame(&mut buf, FRAME_RESPONSE, &resp).unwrap();
            let mut cursor = &buf[..];
            let back: Response = read_frame(&mut cursor, FRAME_RESPONSE).unwrap();
            assert_eq!(back, resp);
        }
    }
}
