//! End-to-end exercises of the multi-session server: handshake,
//! read/write visibility across sessions, admission control, protocol
//! errors, job round-trips, and graceful shutdown with a clean WAL.

use gaea::adt::{TypeTag, Value};
use gaea::core::kernel::{ClassSpec, Gaea, ProcessSpec};
use gaea::core::{KernelError, SimulatedSite};
use gaea::server::{Client, ClientError, Server, ServerConfig, WireJobStatus};
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A running in-process server plus the thread that serves it.
struct Harness {
    addr: String,
    thread: std::thread::JoinHandle<gaea::server::ServerReport>,
}

fn start(kernel: Gaea, config: ServerConfig) -> Harness {
    let server = Server::bind(kernel, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let thread = std::thread::spawn(move || server.run());
    Harness { addr, thread }
}

fn seeded_kernel() -> Gaea {
    let mut g = Gaea::in_memory();
    g.define_class(ClassSpec::base("obs").attr("v", gaea::adt::TypeTag::Int4))
        .unwrap();
    for v in 0..4 {
        g.insert_object("obs", vec![("v", Value::Int4(v))]).unwrap();
    }
    g
}

/// A kernel with one `obs` object (`v` = 10) and an external process
/// `REMOTE: obs → remote_out` (`v → 2·v`) at `slow_site`, a site that
/// blocks each round-trip until the returned sender releases it.
fn gated_job_kernel() -> (Gaea, Sender<()>) {
    let (gate, rx) = channel::<()>();
    let rx = Mutex::new(rx);
    let site = SimulatedSite::new("slow_site", move |_def, inputs| {
        rx.lock()
            .unwrap()
            .recv()
            .map_err(|_| KernelError::Template("site gate dropped".into()))?;
        let v = inputs["x"][0]
            .attr("v")
            .and_then(Value::as_i64)
            .unwrap_or(0);
        Ok(BTreeMap::from([(
            "v".to_string(),
            Value::Int4(2 * v as i32),
        )]))
    });
    let mut g = Gaea::in_memory();
    g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4))
        .unwrap();
    g.define_class(ClassSpec::derived("remote_out").attr("v", TypeTag::Int4))
        .unwrap();
    g.define_external_process(
        ProcessSpec::new("REMOTE", "remote_out").arg("x", "obs"),
        "slow_site",
    )
    .unwrap();
    g.register_site("slow_site", Arc::new(site));
    g.insert_object("obs", vec![("v", Value::Int4(10))])
        .unwrap();
    (g, gate)
}

#[test]
fn sessions_share_one_kernel_with_read_write_visibility() {
    let h = start(seeded_kernel(), ServerConfig::default());

    let mut writer = Client::connect(&h.addr, "writer").unwrap();
    let mut reader = Client::connect(&h.addr, "reader").unwrap();

    // Both see the seed.
    assert_eq!(
        reader
            .retrieve("RETRIEVE * FROM obs")
            .unwrap()
            .objects
            .len(),
        4
    );

    // A write in one session is visible to a fresh read in the other.
    writer
        .insert("obs", vec![("v".into(), Value::Int4(99))])
        .unwrap();
    let after = reader.retrieve("RETRIEVE * FROM obs").unwrap();
    assert_eq!(after.objects.len(), 5);

    // DDL over the wire, then data through it.
    writer
        .define("CLASS readings ( ATTRIBUTES: t = int4; )")
        .unwrap();
    writer
        .insert("readings", vec![("t".into(), Value::Int4(1))])
        .unwrap();
    assert_eq!(
        reader
            .retrieve("RETRIEVE * FROM readings")
            .unwrap()
            .objects
            .len(),
        1
    );

    // Update round-trips too.
    let oid = writer
        .insert("obs", vec![("v".into(), Value::Int4(7))])
        .unwrap();
    writer
        .update(oid, vec![("v".into(), Value::Int4(8))])
        .unwrap();
    let vals = reader.retrieve("RETRIEVE * FROM obs WHERE v = 8").unwrap();
    assert_eq!(vals.objects.len(), 1);

    reader.goodbye().unwrap();
    let stats = writer.stats().unwrap();
    assert!(stats.reads_pinned >= 3, "reads must run pinned: {stats:?}");
    assert!(stats.writes_serialized >= 4);
    assert_eq!(stats.protocol_errors, 0);
    writer.shutdown_server().unwrap();
    let report = h.thread.join().unwrap();
    assert!(report.wal_flush.is_ok());
    assert_eq!(report.stats.protocol_errors, 0);
}

/// A definition alone — no insert after it — reaches another session's
/// next read: the class is known and empty, not unknown.
#[test]
fn a_definition_is_visible_to_other_sessions_before_any_insert() {
    let h = start(seeded_kernel(), ServerConfig::default());
    let mut writer = Client::connect(&h.addr, "writer").unwrap();
    let mut reader = Client::connect(&h.addr, "reader").unwrap();
    // Pin a view before the definition, so the reader has one cached.
    assert_eq!(
        reader
            .retrieve("RETRIEVE * FROM obs")
            .unwrap()
            .objects
            .len(),
        4
    );
    writer
        .define("CLASS foo ( ATTRIBUTES: t = int4; )")
        .unwrap();
    match reader.retrieve("RETRIEVE * FROM foo") {
        Err(ClientError::Server(m)) => assert!(m.starts_with("no data"), "{m}"),
        other => panic!("expected no data for the empty class, got {other:?}"),
    }
    writer.shutdown_server().unwrap();
    assert!(h.thread.join().unwrap().wal_flush.is_ok());
}

#[test]
fn admission_control_refuses_the_session_over_the_limit() {
    let h = start(
        seeded_kernel(),
        ServerConfig {
            max_sessions: 2,
            ..ServerConfig::default()
        },
    );

    let a = Client::connect(&h.addr, "a").unwrap();
    let b = Client::connect(&h.addr, "b").unwrap();
    // Third session: refused with a server error, not a hang.
    match Client::connect(&h.addr, "c") {
        Err(ClientError::Server(m)) => assert!(m.contains("admission"), "{m}"),
        other => panic!("expected admission refusal, got {other:?}"),
    }
    // Closing one frees a slot.
    a.goodbye().unwrap();
    // The registry entry clears when the session thread exits; give it
    // a moment before retrying.
    let mut admitted = None;
    for _ in 0..100 {
        match Client::connect(&h.addr, "c") {
            Ok(c) => {
                admitted = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    let mut c = admitted.expect("slot freed by goodbye");
    let stats = c.stats().unwrap();
    assert!(stats.sessions_refused >= 1);
    c.ping().unwrap();

    b.shutdown_server().unwrap();
    let report = h.thread.join().unwrap();
    assert!(report.stats.sessions_refused >= 1);
}

#[test]
fn protocol_garbage_is_counted_and_the_session_is_closed() {
    use std::io::{Read, Write};
    let h = start(seeded_kernel(), ServerConfig::default());

    // A raw socket that violates framing: declares 8 payload bytes of
    // non-JSON with a bogus kind byte.
    {
        let mut raw = std::net::TcpStream::connect(&h.addr).unwrap();
        raw.write_all(&8u32.to_be_bytes()).unwrap();
        raw.write_all(&[0x7f]).unwrap();
        raw.write_all(b"garbage!").unwrap();
        // Server answers with an Error frame and closes; draining to EOF
        // proves the close.
        let mut sink = Vec::new();
        let _ = raw.read_to_end(&mut sink);
    }

    let mut c = Client::connect(&h.addr, "after").unwrap();
    let stats = c.stats().unwrap();
    assert!(stats.protocol_errors >= 1, "{stats:?}");
    // The kernel is unharmed.
    assert_eq!(c.retrieve("RETRIEVE * FROM obs").unwrap().objects.len(), 4);
    c.shutdown_server().unwrap();
    h.thread.join().unwrap();
}

#[test]
fn kernel_errors_keep_the_session_usable() {
    let h = start(seeded_kernel(), ServerConfig::default());
    let mut c = Client::connect(&h.addr, "errs").unwrap();

    // Unknown class: a kernel error, not a protocol error.
    match c.retrieve("RETRIEVE * FROM nowhere") {
        Err(ClientError::Server(m)) => assert!(m.contains("nowhere")),
        other => panic!("expected kernel error, got {other:?}"),
    }
    // Syntax error: same.
    assert!(matches!(
        c.retrieve("RETRIEVE FROM FROM"),
        Err(ClientError::Server(_))
    ));
    // The session still answers.
    assert_eq!(c.retrieve("RETRIEVE * FROM obs").unwrap().objects.len(), 4);
    let stats = c.stats().unwrap();
    assert_eq!(stats.protocol_errors, 0);

    // An unknown job id errors without killing the session.
    assert!(matches!(c.job_status(424242), Err(ClientError::Server(_))));
    assert!(matches!(c.cancel_job(424242), Err(ClientError::Server(_))));
    c.ping().unwrap();
    c.shutdown_server().unwrap();
    h.thread.join().unwrap();
}

#[test]
fn durable_shutdown_leaves_a_clean_wal() {
    let dir = std::env::temp_dir().join(format!("gaea-server-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let kernel = Gaea::open(&dir).unwrap();
        let h = start(kernel, ServerConfig::default());
        let mut c = Client::connect(&h.addr, "durable").unwrap();
        c.define("CLASS samples ( ATTRIBUTES: v = int4; )").unwrap();
        for v in 0..16 {
            c.insert("samples", vec![("v".into(), Value::Int4(v))])
                .unwrap();
        }
        c.shutdown_server().unwrap();
        let report = h.thread.join().unwrap();
        assert!(report.wal_flush.is_ok(), "{:?}", report.wal_flush);
    }
    // Reopen: everything replays, nothing was torn or dropped.
    let g = Gaea::open(&dir).unwrap();
    let stats = g.recovery_stats().expect("durable reopen has stats");
    assert!(!stats.wal_corrupt);
    assert_eq!(stats.wal_dropped_bytes, 0);
    let view = g.read_view();
    let q =
        gaea::core::Query::class("samples").with_strategy(gaea::core::QueryStrategy::RetrieveOnly);
    assert_eq!(view.query(&q).unwrap().objects.len(), 16);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn async_jobs_round_trip_over_the_wire() {
    let (kernel, gate) = gated_job_kernel();
    let h = start(kernel, ServerConfig::default());
    let mut c = Client::connect(&h.addr, "jobs").unwrap();
    // Submit: the statement answers with the job at once, nothing derived.
    let submitted = c
        .retrieve("RETRIEVE * FROM remote_out DERIVE ASYNC")
        .unwrap();
    assert!(submitted.objects.is_empty());
    let job = submitted.pending[0];
    gate.send(()).unwrap();
    match c.await_job(job, Duration::from_secs(10)).unwrap() {
        WireJobStatus::Done { .. } => {}
        other => panic!("expected Done, got {other:?}"),
    }
    // The derived object is stored data now.
    let out = c.retrieve("RETRIEVE * FROM remote_out").unwrap();
    assert_eq!(out.objects.len(), 1);
    assert_eq!(out.objects[0].attr("v"), Some(&Value::Int4(20)));
    assert!(out.pending.is_empty());
    // Unknown jobs err fast.
    match c.await_job(555, Duration::from_millis(20)) {
        Err(ClientError::Server(_)) => {}
        other => panic!("expected unknown-job error, got {other:?}"),
    }
    assert!(matches!(c.job_status(555), Err(ClientError::Server(_))));
    c.shutdown_server().unwrap();
    h.thread.join().unwrap();
}

/// A wire job poll sees a result that lands after a publish: the
/// published view's job board holds the job in flight, and polls must
/// not keep answering from it once the site has finished.
#[test]
fn a_job_poll_sees_the_result_after_a_publish() {
    let (kernel, gate) = gated_job_kernel();
    let h = start(kernel, ServerConfig::default());
    let mut c = Client::connect(&h.addr, "poller").unwrap();
    let job = c
        .retrieve("RETRIEVE * FROM remote_out DERIVE ASYNC")
        .unwrap()
        .pending[0];
    // One write, then one pinned read: the read publishes a view whose
    // job board holds the job in flight.
    c.insert("obs", vec![("v".into(), Value::Int4(11))])
        .unwrap();
    c.retrieve("RETRIEVE * FROM obs").unwrap();
    gate.send(()).unwrap();
    let mut status = c.job_status(job).unwrap();
    for _ in 0..500 {
        if status.is_terminal() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        status = c.job_status(job).unwrap();
    }
    assert!(matches!(status, WireJobStatus::Done { .. }), "{status:?}");
    c.shutdown_server().unwrap();
    h.thread.join().unwrap();
}

/// Shutdown ends a pending `AwaitJob` at once: the session waiting on a
/// gated job answers its non-terminal status well inside its 10 s
/// timeout, and `Server::run` returns.
#[test]
fn shutdown_ends_a_pending_await_promptly() {
    let (kernel, _gate) = gated_job_kernel();
    let h = start(kernel, ServerConfig::default());
    let mut a = Client::connect(&h.addr, "awaiter").unwrap();
    let mut b = Client::connect(&h.addr, "stopper").unwrap();
    let job = a
        .retrieve("RETRIEVE * FROM remote_out DERIVE ASYNC")
        .unwrap()
        .pending[0];
    let before = b.stats().unwrap().writes_serialized;
    let awaiter = std::thread::spawn(move || {
        let started = Instant::now();
        let status = a.await_job(job, Duration::from_secs(10));
        (status, started.elapsed())
    });
    // The server counts the AwaitJob as it starts waiting.
    let deadline = Instant::now() + Duration::from_secs(5);
    while b.stats().unwrap().writes_serialized == before {
        assert!(Instant::now() < deadline, "the AwaitJob never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
    b.shutdown_server().unwrap();
    let (status, waited) = awaiter.join().unwrap();
    let status = status.expect("the awaiting session gets its answer");
    assert!(!status.is_terminal(), "{status:?}");
    assert!(waited < Duration::from_secs(5), "waited {waited:?}");
    h.thread.join().unwrap();
}

#[test]
fn a_hostile_await_timeout_neither_panics_nor_leaks_the_slot() {
    let h = start(
        seeded_kernel(),
        ServerConfig {
            max_sessions: 1,
            ..ServerConfig::default()
        },
    );
    {
        let mut c = Client::connect(&h.addr, "hostile").unwrap();
        // u64::MAX ms once overflowed the server's deadline arithmetic,
        // panicking the session thread past the slot release. Now it is
        // clamped; the unknown job errors fast either way.
        match c.await_job(999, Duration::from_millis(u64::MAX)) {
            Err(ClientError::Server(_)) => {}
            other => panic!("expected unknown-job error, got {other:?}"),
        }
        c.goodbye().unwrap();
    }
    // The only admission slot is free again — a leaked slot would make
    // every reconnect bounce off admission control forever.
    let mut again = None;
    for _ in 0..100 {
        match Client::connect(&h.addr, "again") {
            Ok(c) => {
                again = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    let mut c = again.expect("slot released after hostile await");
    c.ping().unwrap();
    c.shutdown_server().unwrap();
    h.thread.join().unwrap();
}

#[test]
fn idle_sessions_are_disconnected() {
    let h = start(
        seeded_kernel(),
        ServerConfig {
            idle_timeout: Duration::from_millis(60),
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(&h.addr, "sloth").unwrap();
    c.ping().unwrap();
    std::thread::sleep(Duration::from_millis(250));
    // The server hung up while we slept; the next call fails on the
    // transport rather than hanging.
    assert!(c.ping().is_err());

    let mut fresh = Client::connect(&h.addr, "awake").unwrap();
    let stats = fresh.stats().unwrap();
    // An idle disconnect is session lifecycle, not a protocol error.
    assert_eq!(stats.protocol_errors, 0);
    fresh.shutdown_server().unwrap();
    h.thread.join().unwrap();
}
