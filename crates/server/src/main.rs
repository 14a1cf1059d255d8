//! `gaea-server` — serve one Gaea kernel to many sessions over TCP.
//!
//! ```text
//! gaea-server --addr 127.0.0.1:7878 --data ./db      # durable
//! gaea-server --addr 127.0.0.1:0    --mem --seed     # ephemeral demo
//! gaea-server --data ./db --check                    # recovery audit
//! ```
//!
//! Flags:
//!
//! * `--addr HOST:PORT` — bind address (default `127.0.0.1:7878`;
//!   port 0 picks an ephemeral port, printed on stdout).
//! * `--data DIR` / `--mem` — durable kernel rooted at `DIR` (WAL +
//!   snapshots) or an in-memory kernel. Exactly one; default `--mem`.
//! * `--max-sessions N`, `--idle-ms N`, `--max-statements N`,
//!   `--max-await-ms N` — session registry limits.
//! * `--allow-remote-shutdown` — honor the wire `Shutdown` request from
//!   non-loopback peers (default: loopback only).
//! * `--seed` — define a small demo schema (`obs {v}`) and a few rows
//!   before serving, so a fresh server answers queries immediately.
//! * `--check` — do not serve: open the kernel, print its recovery
//!   stats as JSON, and exit nonzero if the log was corrupt or bytes
//!   were dropped. CI runs this after a graceful shutdown to assert the
//!   WAL closed clean.
//!
//! Exit status: 0 after a clean shutdown **including** the checked WAL
//! flush; 1 when the flush failed (the durable tail may be incomplete)
//! or `--check` found a dirty log.

use gaea_adt::{AbsTime, GeoBox, Image, PixType, TypeTag, Value};
use gaea_core::kernel::{ClassSpec, Gaea, ProcessSpec};
use gaea_core::template::{Expr, Mapping, Template};
use gaea_core::{Query, QueryStrategy};
use gaea_server::{Server, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    addr: String,
    data: Option<PathBuf>,
    config: ServerConfig,
    seed: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        data: None,
        config: ServerConfig::default(),
        seed: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--data" => args.data = Some(PathBuf::from(value("--data")?)),
            "--mem" => args.data = None,
            "--max-sessions" => {
                args.config.max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|e| format!("--max-sessions: {e}"))?
            }
            "--idle-ms" => {
                args.config.idle_timeout = Duration::from_millis(
                    value("--idle-ms")?
                        .parse()
                        .map_err(|e| format!("--idle-ms: {e}"))?,
                )
            }
            "--max-statements" => {
                args.config.max_statements = value("--max-statements")?
                    .parse()
                    .map_err(|e| format!("--max-statements: {e}"))?
            }
            "--max-await-ms" => {
                args.config.max_await = Duration::from_millis(
                    value("--max-await-ms")?
                        .parse()
                        .map_err(|e| format!("--max-await-ms: {e}"))?,
                )
            }
            "--allow-remote-shutdown" => args.config.allow_remote_shutdown = true,
            "--seed" => args.seed = true,
            "--check" => args.check = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn open_kernel(args: &Args) -> Result<Gaea, String> {
    match &args.data {
        Some(dir) => Gaea::open(dir).map_err(|e| format!("open {}: {e}", dir.display())),
        None => Ok(Gaea::in_memory()),
    }
}

/// Seed the demo schema the quickstarts and smoke tests query.
fn seed(g: &mut Gaea) -> Result<(), String> {
    if g.catalog().class_by_name("obs").is_err() {
        g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4))
            .map_err(|e| format!("seed class: {e}"))?;
        for v in 0..8 {
            g.insert_object("obs", vec![("v", Value::Int4(v))])
                .map_err(|e| format!("seed insert: {e}"))?;
        }
    }
    // A tiny derivation pipeline (field --P_smooth--> smooth), derived
    // by a query and then submitted again, so a fresh server's live
    // introspection reports derivation reuse in action (one miss, one
    // hit) rather than a wall of zeros.
    if g.catalog().class_by_name("field").is_err() {
        g.define_class(ClassSpec::base("field").attr("data", TypeTag::Image))
            .map_err(|e| format!("seed class: {e}"))?;
        g.define_class(ClassSpec::derived("smooth").attr("data", TypeTag::Image))
            .map_err(|e| format!("seed class: {e}"))?;
        let template = Template {
            assertions: vec![],
            mappings: vec![
                Mapping {
                    attr: "data".into(),
                    expr: Expr::Arg("f".into()),
                },
                Mapping {
                    attr: "spatialextent".into(),
                    expr: Expr::proj("f", "spatialextent"),
                },
                Mapping {
                    attr: "timestamp".into(),
                    expr: Expr::proj("f", "timestamp"),
                },
            ],
        };
        g.define_process(
            ProcessSpec::new("P_smooth", "smooth")
                .arg("f", "field")
                .template(template),
        )
        .map_err(|e| format!("seed process: {e}"))?;
        g.insert_object(
            "field",
            vec![
                (
                    "data",
                    Value::image(Image::filled(4, 4, PixType::Float8, 1.0)),
                ),
                (
                    "spatialextent",
                    Value::GeoBox(GeoBox::new(-20.0, -35.0, 55.0, 38.0)),
                ),
                (
                    "timestamp",
                    Value::AbsTime(AbsTime::from_ymd(1986, 1, 15).map_err(|e| e.to_string())?),
                ),
            ],
        )
        .map_err(|e| format!("seed insert: {e}"))?;
        // The query fires P_smooth (a miss); the submission finds that
        // current derivation on record and resolves as a reused job (a
        // hit).
        let derive = Query::class("smooth").with_strategy(QueryStrategy::PreferDerivation);
        g.query(&derive).map_err(|e| format!("seed derive: {e}"))?;
        g.submit_derivation(&derive)
            .map_err(|e| format!("seed submit: {e}"))?;
    }
    Ok(())
}

/// `--check`: recovery audit for CI. Prints the stats, fails on a dirty
/// log.
fn check(args: &Args) -> Result<ExitCode, String> {
    let dir = args
        .data
        .as_ref()
        .ok_or("--check needs --data (an in-memory kernel has no log to audit)")?;
    let g = Gaea::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let (replayed, restaged, snapshot_seq, dropped, corrupt) = match g.recovery_stats() {
        Some(s) => (
            s.events_replayed,
            s.jobs_restaged,
            s.snapshot_seq,
            s.wal_dropped_bytes,
            s.wal_corrupt,
        ),
        None => (0, 0, 0, 0, false),
    };
    println!(
        "{{\"events_replayed\":{replayed},\"jobs_restaged\":{restaged},\
         \"snapshot_seq\":{snapshot_seq},\"wal_dropped_bytes\":{dropped},\
         \"wal_corrupt\":{corrupt}}}"
    );
    if corrupt || dropped > 0 {
        eprintln!("gaea-server --check: WAL did not close clean");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn serve(args: &Args) -> Result<ExitCode, String> {
    let mut kernel = open_kernel(args)?;
    if args.seed {
        seed(&mut kernel)?;
    }
    let server = Server::bind(kernel, &args.addr, args.config.clone())
        .map_err(|e| format!("bind {}: {e}", args.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // The one line tooling scrapes: the resolved address, first thing.
    println!("gaea-server listening on {addr}");
    let report = server.run();
    eprintln!(
        "gaea-server: shut down after {} sessions ({} refused), \
         {} pinned reads / {} serialized statements, {} protocol errors",
        report.stats.sessions_opened,
        report.stats.sessions_refused,
        report.stats.reads_pinned,
        report.stats.writes_serialized,
        report.stats.protocol_errors,
    );
    match report.wal_flush {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("gaea-server: checked WAL flush FAILED at shutdown: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gaea-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = if args.check {
        check(&args)
    } else {
        serve(&args)
    };
    match run {
        Ok(code) => code,
        Err(e) => {
            eprintln!("gaea-server: {e}");
            ExitCode::FAILURE
        }
    }
}
