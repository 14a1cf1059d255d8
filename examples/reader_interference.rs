//! Reader interference probe: does a busy writer slow snapshot-pinned
//! readers down?
//!
//! The server answers every `RETRIEVE` from a pinned read view, off the
//! kernel mutex, so readers should not queue behind the commit path. An
//! in-process server holds a 32-row `obs` class the readers scan and a
//! separate `wlog` class a writer session commits to, so the writer
//! saturates the commit path without changing what the readers scan.
//! K=16 reader sessions issue 40 reads each, once with the writer idle
//! and once with it committing continuously. The probe prints both read
//! p99s and their ratio, and exits nonzero when the busy p99 exceeds
//! 3× the idle p99, or on any statement error.
//!
//! ```sh
//! cargo run --release --example reader_interference
//! ```

use gaea::adt::{TypeTag, Value};
use gaea::core::kernel::{ClassSpec, Gaea};
use gaea::server::{Client, Server, ServerConfig};
use gaea::workload::driver::{drive, DriveSpec};

const SESSIONS: usize = 16;
const READS_PER_SESSION: usize = 40;
/// Largest busy/idle read p99 ratio that passes.
const MAX_RATIO: f64 = 3.0;

fn seeded() -> Result<Gaea, Box<dyn std::error::Error>> {
    let mut g = Gaea::in_memory();
    g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4).no_extents())?;
    g.define_class(
        ClassSpec::base("wlog")
            .attr("v", TypeTag::Int4)
            .no_extents(),
    )?;
    for v in 0..32 {
        g.insert_object("obs", vec![("v", Value::Int4(v))])?;
    }
    Ok(g)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let server = Server::bind(seeded()?, "127.0.0.1:0", ServerConfig::default())?;
    let addr = server.local_addr()?.to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let mut p99 = Vec::new();
    for writer in [false, true] {
        let report = drive(&DriveSpec {
            addr: addr.clone(),
            sessions: SESSIONS,
            reads_per_session: READS_PER_SESSION,
            query: "RETRIEVE * FROM obs".into(),
            writer,
            writer_class: "wlog".into(),
        });
        let mode = if writer { "busy" } else { "idle" };
        println!(
            "k={SESSIONS} {mode}: read p50 {:?}, p99 {:?} ({:.0} reads/s, {} writer commits)",
            report.p50,
            report.p99,
            report.throughput(),
            report.writes
        );
        if report.errors != 0 {
            return Err(format!("{mode} run: {} statement errors", report.errors).into());
        }
        p99.push(report.p99);
    }

    Client::connect(&addr, "reader-interference-shutdown")?.shutdown_server()?;
    let report = server_thread.join().map_err(|_| "server thread panicked")?;
    report.wal_flush?;
    if report.stats.protocol_errors != 0 {
        return Err(format!("{} protocol errors", report.stats.protocol_errors).into());
    }

    let ratio = p99[1].as_secs_f64() / p99[0].as_secs_f64().max(1e-9);
    println!(
        "k={SESSIONS} read p99: idle {:?}, busy {:?}, ratio {ratio:.2} (bound {MAX_RATIO})",
        p99[0], p99[1]
    );
    if ratio > MAX_RATIO {
        return Err(format!(
            "a busy writer slowed pinned readers: p99 ratio {ratio:.2} > {MAX_RATIO}"
        )
        .into());
    }
    Ok(())
}
