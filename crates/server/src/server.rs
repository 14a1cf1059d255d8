//! The multi-session server runtime: accept loop, session registry,
//! admission control, and the read-vs-commit statement split.
//!
//! One [`gaea_core::kernel::SharedKernel`] serves every session:
//!
//! * statements the protocol classifies as **read-only** (plain
//!   `RETRIEVE`, `Stats`, `Ping`) run on an `Arc<ReadView>` pinned per
//!   statement — concurrent readers never wait for the kernel mutex, so
//!   a writer mid-commit never stalls them;
//! * everything that can mutate (definitions, inserts, updates,
//!   `RETRIEVE … DERIVE`/`FRESH`, job submit/cancel, and job polls,
//!   which commit finished results first) funnels through
//!   [`SharedKernel::exec`] — the same single serialized commit path the
//!   WAL has always assumed. `AwaitJob` sleeps between its polls on the
//!   kernel's job condvar ([`JobWaiter`]), outside the kernel mutex.
//!
//! **Admission control**: at most `max_sessions` concurrent sessions; a
//! connection over the limit is answered with one `Error` frame and
//! closed (counted, never queued — the client can back off and retry).
//! Each admitted session is bounded by an idle timeout (a session that
//! sends nothing for that long is disconnected) and a statement budget.
//!
//! **Shutdown** (wire `Shutdown`, or [`ServerHandle::shutdown`]): the
//! blocking accept is woken by one connection to the bound address and
//! stops admitting, pending `AwaitJob`s are woken through the job
//! condvar, every live session's socket is shut down to unblock pending
//! reads, session threads are joined, and the
//! kernel is torn down with a **checked** WAL flush —
//! [`Gaea::close`] — whose error is the server's exit status, not a
//! swallowed `Drop`. The wire request is honored only from loopback
//! peers unless [`ServerConfig::allow_remote_shutdown`] is set: any
//! admitted client being able to stop the server is fine on 127.0.0.1
//! and dangerous the moment an operator binds a routable address.

use crate::protocol::{
    read_frame, write_frame, FrameError, Request, Response, ServerStats, WireJobStatus,
    WireOutcome, WireTrace, FRAME_REQUEST, FRAME_RESPONSE,
};
use gaea_core::kernel::{Gaea, JobWaiter, ReadView, SharedKernel};
use gaea_core::{JobId, KernelError};
use gaea_lang::{compile_query, lower_program, parse};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission ceiling: concurrent sessions beyond this are refused.
    pub max_sessions: usize,
    /// A session silent for this long is disconnected.
    pub idle_timeout: Duration,
    /// Per-session statement budget; exceeding it closes the session.
    pub max_statements: u64,
    /// Server-side ceiling on one `AwaitJob`'s wait; a client-supplied
    /// `timeout_ms` above this is clamped, never trusted.
    pub max_await: Duration,
    /// Honor the wire `Shutdown` request from non-loopback peers.
    /// Off by default: anyone who can connect could otherwise stop the
    /// server the moment it binds a non-loopback address.
    pub allow_remote_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_sessions: 64,
            idle_timeout: Duration::from_secs(30),
            max_statements: 1_000_000,
            max_await: Duration::from_secs(10),
            allow_remote_shutdown: false,
        }
    }
}

/// What one server run observed, returned by [`Server::run`] after a
/// graceful shutdown.
#[derive(Debug)]
pub struct ServerReport {
    /// Final counters (the same numbers `Stats` serves).
    pub stats: ServerStats,
    /// Result of the shutdown's checked WAL flush. `Err` means the
    /// durable tail could not be synced — operators must treat the exit
    /// as failed even though every session drained cleanly.
    pub wal_flush: Result<(), KernelError>,
}

/// Shared mutable server state (everything session threads touch).
struct ServerState {
    config: ServerConfig,
    shutdown: AtomicBool,
    sessions_opened: AtomicU64,
    sessions_refused: AtomicU64,
    reads_pinned: AtomicU64,
    writes_serialized: AtomicU64,
    protocol_errors: AtomicU64,
    /// Live sessions: id → the accepted stream's clone, kept so shutdown
    /// can unblock a session parked in a read.
    live: Mutex<HashMap<u64, TcpStream>>,
    /// Wakes sessions parked in `AwaitJob` when shutdown begins.
    jobs: JobWaiter,
    /// Where one connection wakes the blocking accept at shutdown.
    wake_addr: SocketAddr,
}

impl ServerState {
    fn new(config: ServerConfig, jobs: JobWaiter, wake_addr: SocketAddr) -> ServerState {
        ServerState {
            config,
            shutdown: AtomicBool::new(false),
            sessions_opened: AtomicU64::new(0),
            sessions_refused: AtomicU64::new(0),
            reads_pinned: AtomicU64::new(0),
            writes_serialized: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            live: Mutex::new(HashMap::new()),
            jobs,
            wake_addr,
        }
    }

    /// Raise the shutdown flag, then wake whatever waits on it: sessions
    /// parked in `AwaitJob`, and the accept loop (by one connection,
    /// which it drops unserved).
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.jobs.wake();
        let _ = TcpStream::connect(self.wake_addr);
    }

    fn stats(&self, clock: u64) -> ServerStats {
        // One answer carries both tiers of observability: the server's
        // own session/statement counters and the process-wide metrics
        // registry (WAL, cache, scheduler, query histograms).
        let metrics = gaea_obs::metrics()
            .snapshot()
            .entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        ServerStats {
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_refused: self.sessions_refused.load(Ordering::Relaxed),
            sessions_live: self
                .live
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len() as u64,
            reads_pinned: self.reads_pinned.load(Ordering::Relaxed),
            writes_serialized: self.writes_serialized.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            clock,
            metrics,
        }
    }
}

/// A handle for stopping a running server from another thread (tests,
/// signal bridges). Cloneable; all clones address the same server.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Request shutdown: equivalent to a wire `Shutdown` request.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    kernel: Arc<SharedKernel>,
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) over a kernel.
    pub fn bind(kernel: Gaea, addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let state = ServerState::new(config, kernel.job_waiter(), wake_addr);
        Ok(Server {
            kernel: SharedKernel::new(kernel),
            listener,
            state: Arc::new(state),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serve until shutdown is requested, then drain and tear down.
    /// See the module docs for the full shutdown contract.
    pub fn run(self) -> ServerReport {
        let Server {
            kernel,
            listener,
            state,
        } = self;
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        let mut next_session: u64 = 1;

        loop {
            let accepted = listener.accept();
            if state.shutdown.load(Ordering::Acquire) {
                break;
            }
            // Back off briefly after a real accept error (e.g. out of file
            // descriptors) instead of spinning on it.
            let Ok((stream, _peer)) = accepted else {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            };
            let admitted = {
                let live = state.live.lock().unwrap_or_else(PoisonError::into_inner);
                live.len() < state.config.max_sessions
            };
            if !admitted {
                state.sessions_refused.fetch_add(1, Ordering::Relaxed);
                let mut s = stream;
                let _ = write_frame(
                    &mut s,
                    FRAME_RESPONSE,
                    &Response::Error {
                        message: "admission refused: server at max sessions".into(),
                    },
                );
                continue;
            }
            let id = next_session;
            next_session += 1;
            state.sessions_opened.fetch_add(1, Ordering::Relaxed);
            if let Ok(clone) = stream.try_clone() {
                state
                    .live
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(id, clone);
            }
            let kernel = Arc::clone(&kernel);
            let state2 = Arc::clone(&state);
            workers.push(std::thread::spawn(move || {
                // Drop guard: the admission slot is released even
                // if serve_session panics — a wedged statement
                // must not consume `max_sessions` permanently.
                let _slot = SlotGuard { state: &state2, id };
                serve_session(id, stream, &kernel, &state2);
            }));
        }

        // Drain: unblock every session parked in a read, then join. Only
        // the read side closes, so a session still answering (an
        // `AwaitJob` that shutdown just woke) gets its reply out.
        drop(listener);
        {
            let live = state.live.lock().unwrap_or_else(PoisonError::into_inner);
            for stream in live.values() {
                let _ = stream.shutdown(std::net::Shutdown::Read);
            }
        }
        for w in workers {
            let _ = w.join();
        }

        // Checked teardown: the sessions are gone, so this handle is the
        // last one and `close` runs the checked flush.
        let clock = kernel.pin().clock();
        let wal_flush = match kernel.close() {
            Ok(r) => r,
            Err(_still_shared) => Err(KernelError::Schema(
                "server teardown raced a live kernel handle; WAL flush unchecked".into(),
            )),
        };
        ServerReport {
            stats: state.stats(clock),
            wal_flush,
        }
    }
}

/// Releases a session's admission slot on scope exit — including panic
/// unwinds — so `sessions_live` and the `max_sessions` ceiling stay
/// correct no matter how the session thread dies.
struct SlotGuard<'a> {
    state: &'a ServerState,
    id: u64,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.state
            .live
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.id);
    }
}

/// Serve one session until it says goodbye, errors, idles out, exhausts
/// its statement budget, or the server shuts down.
fn serve_session(id: u64, mut stream: TcpStream, kernel: &SharedKernel, state: &ServerState) {
    let _ = stream.set_read_timeout(Some(state.config.idle_timeout));
    let _ = stream.set_nodelay(true);
    // Trust boundary for `Shutdown`: loopback peers only, unless the
    // operator opted in. An unknowable peer is treated as remote.
    let peer_is_loopback = stream
        .peer_addr()
        .map(|a| a.ip().is_loopback())
        .unwrap_or(false);

    // The handshake: exactly one Hello, answered with Welcome.
    match read_frame::<_, Request>(&mut stream, FRAME_REQUEST) {
        Ok(Request::Hello { .. }) => {
            if write_frame(
                &mut stream,
                FRAME_RESPONSE,
                &Response::Welcome { session: id },
            )
            .is_err()
            {
                return;
            }
        }
        Ok(_) => {
            state.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let _ = write_frame(
                &mut stream,
                FRAME_RESPONSE,
                &Response::Error {
                    message: "protocol: the first request must be Hello".into(),
                },
            );
            return;
        }
        Err(e) => {
            note_read_failure(&e, state);
            return;
        }
    }

    let mut statements: u64 = 0;
    loop {
        if state.shutdown.load(Ordering::Acquire) {
            return;
        }
        let req = match read_frame::<_, Request>(&mut stream, FRAME_REQUEST) {
            Ok(r) => r,
            Err(e) => {
                note_read_failure(&e, state);
                if matches!(e, FrameError::Protocol(_)) {
                    let _ = write_frame(
                        &mut stream,
                        FRAME_RESPONSE,
                        &Response::Error {
                            message: format!("{e}; closing session"),
                        },
                    );
                }
                return;
            }
        };
        statements += 1;
        if statements > state.config.max_statements {
            let _ = write_frame(
                &mut stream,
                FRAME_RESPONSE,
                &Response::Error {
                    message: "session statement budget exhausted".into(),
                },
            );
            return;
        }
        let (resp, done) = answer(req, kernel, state, peer_is_loopback);
        let sent = write_frame(&mut stream, FRAME_RESPONSE, &resp);
        if matches!(resp, Response::ShuttingDown) {
            state.begin_shutdown();
        }
        if sent.is_err() || done {
            return;
        }
    }
}

/// Tally a failed read: timeouts and EOFs are session lifecycle, not
/// protocol errors; undecodable frames are.
fn note_read_failure(e: &FrameError, state: &ServerState) {
    match e {
        FrameError::Protocol(_) => {
            state.protocol_errors.fetch_add(1, Ordering::Relaxed);
        }
        FrameError::Io(_) => {}
    }
}

/// Execute one statement. Returns the response and whether the session
/// ends after sending it. `peer_is_loopback` gates `Shutdown` (see
/// [`ServerConfig::allow_remote_shutdown`]).
fn answer(
    req: Request,
    kernel: &SharedKernel,
    state: &ServerState,
    peer_is_loopback: bool,
) -> (Response, bool) {
    match req {
        Request::Hello { .. } => (
            Response::Error {
                message: "protocol: Hello is only valid as the first request".into(),
            },
            true,
        ),
        Request::Retrieve { src } => (retrieve(&src, kernel, state), false),
        Request::Define { src } => {
            state.writes_serialized.fetch_add(1, Ordering::Relaxed);
            let out = kernel.exec(|g| {
                let program = parse(&src).map_err(|e| {
                    KernelError::Schema(format!("definition syntax: {}", e.underline(&src)))
                })?;
                lower_program(g, &program)
            });
            (
                match out {
                    Ok(l) => Response::Defined {
                        classes: l.classes.len(),
                        processes: l.processes.len(),
                        concepts: l.concepts.len(),
                    },
                    Err(e) => Response::Error {
                        message: e.to_string(),
                    },
                },
                false,
            )
        }
        Request::Insert { class, attrs } => {
            state.writes_serialized.fetch_add(1, Ordering::Relaxed);
            let out = kernel.exec(|g| {
                let borrowed: Vec<(&str, gaea_adt::Value)> =
                    attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
                g.insert_object(&class, borrowed)
            });
            (
                match out {
                    Ok(oid) => Response::Inserted { oid: oid.raw() },
                    Err(e) => Response::Error {
                        message: e.to_string(),
                    },
                },
                false,
            )
        }
        Request::Update { oid, attrs } => {
            state.writes_serialized.fetch_add(1, Ordering::Relaxed);
            let out = kernel.exec(|g| {
                let borrowed: Vec<(&str, gaea_adt::Value)> =
                    attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
                g.update_object(gaea_core::ObjectId(gaea_store::Oid(oid)), borrowed)
            });
            (
                match out {
                    Ok(()) => Response::Updated,
                    Err(e) => Response::Error {
                        message: e.to_string(),
                    },
                },
                false,
            )
        }
        Request::JobStatus { id } => {
            // Serialized, so the poll commits a result that has landed.
            state.writes_serialized.fetch_add(1, Ordering::Relaxed);
            (
                job_reply(id, kernel.exec(|g| g.job_status(JobId(id)))),
                false,
            )
        }
        Request::AwaitJob { id, timeout_ms } => {
            // Short serialized polls, and between them a sleep on the job
            // condvar outside the kernel lock. One counter tick per
            // request: the stat counts client statements, not polls.
            state.writes_serialized.fetch_add(1, Ordering::Relaxed);
            // The client's timeout is a request, not a contract: clamp
            // to the server's ceiling, and add to `now` checked so a
            // hostile u64::MAX can never panic past the slot guard.
            let timeout = Duration::from_millis(timeout_ms).min(state.config.max_await);
            let deadline = Instant::now()
                .checked_add(timeout)
                .unwrap_or_else(Instant::now);
            // Shutdown ends the wait early with the current (possibly
            // non-terminal) status: `Server::run` joins this thread.
            let status = state.jobs.await_status(
                deadline,
                || state.shutdown.load(Ordering::Acquire),
                || kernel.exec(|g| g.job_status(JobId(id))),
            );
            (job_reply(id, status), false)
        }
        Request::CancelJob { id } => {
            state.writes_serialized.fetch_add(1, Ordering::Relaxed);
            (
                job_reply(id, kernel.exec(|g| g.cancel_job(JobId(id)))),
                false,
            )
        }
        Request::Stats => {
            state.reads_pinned.fetch_add(1, Ordering::Relaxed);
            let clock = kernel.pin().clock();
            (Response::Stats(state.stats(clock)), false)
        }
        Request::Trace => {
            // Introspection only — never touches the kernel lock.
            state.reads_pinned.fetch_add(1, Ordering::Relaxed);
            let traces = gaea_obs::recent_traces()
                .iter()
                .map(WireTrace::from)
                .collect();
            (Response::Traces(traces), false)
        }
        Request::Ping => (Response::Pong, false),
        Request::Goodbye => (Response::Bye, true),
        Request::Shutdown => {
            if !peer_is_loopback && !state.config.allow_remote_shutdown {
                return (
                    Response::Error {
                        message: "shutdown refused: only loopback peers may stop the \
                                  server (start with allow_remote_shutdown to change)"
                            .into(),
                    },
                    true,
                );
            }
            // The session wakes the waiters once this reply is out: the
            // drain shuts every session socket, this one included.
            state.shutdown.store(true, Ordering::Release);
            (Response::ShuttingDown, true)
        }
    }
}

/// The answer to a job statement.
fn job_reply(id: u64, status: Result<gaea_core::JobStatus, KernelError>) -> Response {
    match status {
        Ok(status) => Response::Job {
            id,
            status: WireJobStatus::from(status),
        },
        Err(e) => Response::Error {
            message: e.to_string(),
        },
    }
}

/// A `RETRIEVE` statement: compile against the pinned catalog, then run
/// read-only plans on the pinned view and computing plans serialized.
fn retrieve(src: &str, kernel: &SharedKernel, state: &ServerState) -> Response {
    let view = kernel.pin();
    let q = match compile_query(view.catalog(), src) {
        Ok(q) => q,
        Err(e) => {
            return Response::Error {
                message: e.to_string(),
            }
        }
    };
    if ReadView::is_read_only(&q) {
        state.reads_pinned.fetch_add(1, Ordering::Relaxed);
        match view.query(&q) {
            Ok(outcome) => Response::Outcome(WireOutcome::from_outcome(outcome, view.clock())),
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        }
    } else {
        state.writes_serialized.fetch_add(1, Ordering::Relaxed);
        match kernel.exec(|g| g.query(&q).map(|o| (o, g.store_clock()))) {
            Ok((outcome, clock)) => Response::Outcome(WireOutcome::from_outcome(outcome, clock)),
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare_state(config: ServerConfig) -> ServerState {
        // Port 0 takes no connections: the wake connect fails fast.
        let wake_addr = "127.0.0.1:0".parse().unwrap();
        ServerState::new(config, Gaea::in_memory().job_waiter(), wake_addr)
    }

    #[test]
    fn the_slot_guard_releases_on_panic() {
        let state = Arc::new(bare_state(ServerConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        state
            .live
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(7, stream);
        let s2 = Arc::clone(&state);
        let worker = std::thread::spawn(move || {
            let _slot = SlotGuard { state: &s2, id: 7 };
            panic!("session blew up mid-statement");
        });
        assert!(worker.join().is_err());
        // The admission slot came back even though the session panicked.
        assert_eq!(state.stats(0).sessions_live, 0);
    }

    #[test]
    fn shutdown_is_refused_for_remote_peers_by_default() {
        let kernel = SharedKernel::new(Gaea::in_memory());
        let state = bare_state(ServerConfig::default());

        let (resp, done) = answer(Request::Shutdown, &kernel, &state, false);
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
        assert!(done);
        assert!(!state.shutdown.load(Ordering::Acquire));

        // Loopback peers are trusted.
        let (resp, _) = answer(Request::Shutdown, &kernel, &state, true);
        assert!(matches!(resp, Response::ShuttingDown));
        assert!(state.shutdown.load(Ordering::Acquire));
    }

    #[test]
    fn remote_shutdown_is_honored_when_opted_in() {
        let kernel = SharedKernel::new(Gaea::in_memory());
        let state = bare_state(ServerConfig {
            allow_remote_shutdown: true,
            ..ServerConfig::default()
        });
        let (resp, _) = answer(Request::Shutdown, &kernel, &state, false);
        assert!(matches!(resp, Response::ShuttingDown));
        assert!(state.shutdown.load(Ordering::Acquire));
    }

    #[test]
    fn a_hostile_await_timeout_cannot_panic_the_deadline() {
        // u64::MAX milliseconds used to overflow `Instant + Duration`
        // and panic the session thread; now it clamps to `max_await`.
        let kernel = SharedKernel::new(Gaea::in_memory());
        let state = bare_state(ServerConfig::default());
        let (resp, done) = answer(
            Request::AwaitJob {
                id: 999,
                timeout_ms: u64::MAX,
            },
            &kernel,
            &state,
            true,
        );
        // Unknown job: the first poll errors — fast, no panic, no hang.
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
        assert!(!done);
        // One statement, one counter tick — not one per poll cycle.
        assert_eq!(state.writes_serialized.load(Ordering::Relaxed), 1);
    }
}
