//! The wire run: one round = seed a database, serve it, send the
//! streams through `Client` sessions over loopback TCP, shut down, and
//! reopen to check what was acknowledged.

use crate::db::{self, Acked, Dataset, Seeded};
use crate::gen::{Expect, Kind, Op, Scenes, Stations, Stmt, STATION_CLASS};
use crate::stats;
use gaea_adt::Value;
use gaea_core::TaskId;
use gaea_server::{Client, ClientError, Request, Server, ServerConfig, WireJobStatus, WireOutcome};
use gaea_store::Oid;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CatalogRead,
    IngestUpdate,
    MixedRw,
    DeriveScience,
}

/// Which of a workload's two latency classes a statement falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Primary,
    Secondary,
}

/// No reply within this long counts as a failed statement.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
const AWAIT_TIMEOUT: Duration = Duration::from_secs(10);

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CatalogRead,
        Workload::IngestUpdate,
        Workload::MixedRw,
        Workload::DeriveScience,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CatalogRead => "catalog_read",
            Workload::IngestUpdate => "ingest_update",
            Workload::MixedRw => "mixed_rw",
            Workload::DeriveScience => "derive_science",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed statements per second of `--seconds`, calibrated once on
    /// the seed commit so the timed phases of a run add up to about
    /// `--seconds`, then frozen: counts, not the clock, end a phase, so
    /// the program's own counts repeat exactly.
    fn rate(self) -> usize {
        match self {
            Workload::CatalogRead => 800,
            Workload::IngestUpdate => 16_000,
            Workload::MixedRw => 50,
            Workload::DeriveScience => 300,
        }
    }

    /// Untimed statements of its own mix the session sends first. Ten
    /// `mixed_rw` cycles take as long as 200 statements elsewhere.
    pub fn warmup(self) -> usize {
        match self {
            Workload::MixedRw => 60,
            _ => 200,
        }
    }

    /// Timed statements in one round.
    pub fn round_len(self, seconds: u64, rounds: usize, quick: bool) -> usize {
        let n = self.rate() * seconds as usize / rounds / if quick { 20 } else { 1 };
        // Whole `mixed_rw` cycles; and the derive mix pairs its 5 %
        // updates with its 5 % refreshes.
        n.div_ceil(20).max(1) * 20
    }

    /// The latency class of a statement kind; `None` for kinds that
    /// only count towards throughput.
    pub fn role(self, kind: Kind) -> Option<Role> {
        use Kind::*;
        match (self, kind) {
            // Not the point reads: a 50 µs round trip is mostly the two
            // thread wake-ups of the socket hop, which in this sandbox
            // swing fourfold with the host's mood.
            (Workload::CatalogRead, Site) => Some(Role::Primary),
            (Workload::CatalogRead, Window) => Some(Role::Secondary),
            (Workload::IngestUpdate, Insert) => Some(Role::Primary),
            (Workload::IngestUpdate, Update) => Some(Role::Secondary),
            (Workload::MixedRw, Point) => Some(Role::Primary),
            (Workload::MixedRw, Insert | Update) => Some(Role::Secondary),
            (Workload::DeriveScience, Fired | Fresh) => Some(Role::Primary),
            (Workload::DeriveScience, Reuse) => Some(Role::Secondary),
            _ => None,
        }
    }

    /// The tail percentile the primary class has the samples for (ten
    /// beyond it) at the frozen counts.
    pub fn tail_pct(self) -> f64 {
        match self {
            // Only the commit path has a tail of the program's own making
            // (compaction); a p99 of CPU-bound reads is the sandbox's
            // scheduling hiccups, and spread past the bound across seeds.
            Workload::IngestUpdate => 99.0,
            _ => 95.0,
        }
    }
}

/// Everything generated from the seed for one round, before its clock
/// starts.
pub struct Plan {
    pub data: Dataset,
    /// The session's statements: warm-up, then the timed ones.
    pub stream: Vec<Stmt>,
    pub warmup: usize,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, n: usize) -> Plan {
        let st = Stations::FULL;
        let warmup = workload.warmup();
        let total = warmup + n;
        let (data, stream) = match workload {
            Workload::CatalogRead => (Dataset::Stations(st), st.catalog_read(seed, total)),
            Workload::IngestUpdate => (Dataset::Stations(st), st.writes(seed, total)),
            Workload::MixedRw => (Dataset::Stations(st), st.mixed_rw(seed, total)),
            Workload::DeriveScience => {
                let sc = Scenes::for_stream(seed, warmup, n);
                let stream = sc.derive_science(warmup, n);
                (Dataset::Scenes(sc), stream)
            }
        };
        Plan {
            data,
            stream,
            warmup,
        }
    }
}

/// What one session saw.
#[derive(Debug, Default)]
pub struct SessionLog {
    /// (kind, send→decoded-reply µs) of every correct timed statement.
    pub samples: Vec<(Kind, f64)>,
    pub attempted: usize,
    pub failed: usize,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    pub acked: Acked,
    /// Client-timed `AwaitJob` µs.
    pub await_us: Vec<f64>,
    /// Scan plans of the replies: (path label, estimated rows, rows).
    pub plans: Vec<(String, u64, usize)>,
    pub wall: Duration,
}

impl SessionLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }
}

pub fn check(expect: &Expect, o: &WireOutcome) -> Result<(), String> {
    if o.method != expect.method {
        return Err(format!("method {:?}, wanted {:?}", o.method, expect.method));
    }
    let got = (o.objects.len(), o.tasks.len(), o.stale.len());
    let want = (expect.rows, expect.tasks, expect.stale);
    if got != want {
        return Err(format!("(rows, tasks, stale) {got:?}, wanted {want:?}"));
    }
    if let Some((attr, value)) = &expect.sample {
        let found = o.objects.first().and_then(|obj| obj.attr(attr));
        if found != Some(value) {
            return Err(format!("{attr} = {found:?}, wanted {value}"));
        }
    }
    Ok(())
}

/// One session's connection plus what it needs to address seeded data.
pub struct Session<'a> {
    client: Client,
    seeded: &'a Seeded,
    /// Keep the ids replies name, for the existence check after reopen
    /// (the derived-data workload only).
    keep_ids: bool,
    keep_plans: bool,
}

impl<'a> Session<'a> {
    pub fn connect(
        addr: &str,
        name: &str,
        seeded: &'a Seeded,
        data: &Dataset,
    ) -> Result<Self, String> {
        let client = Client::connect(addr, name).map_err(|e| format!("connect: {e}"))?;
        client
            .set_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("set timeout: {e}"))?;
        Ok(Session {
            client,
            seeded,
            keep_ids: matches!(data, Dataset::Scenes(_)),
            keep_plans: false,
        })
    }

    pub fn goodbye(self) {
        let _ = self.client.goodbye();
    }

    /// Send one statement, time it from the send to its decoded reply,
    /// check the answer.
    fn send(&mut self, stmt: &Stmt, timed: bool, log: &mut SessionLog) {
        let req = stmt.request(self.seeded);
        let t0 = Instant::now();
        let reply: Result<Option<WireOutcome>, ClientError> = match req {
            Request::Retrieve { src } => self.client.retrieve(&src).map(Some),
            Request::Insert { class, attrs } => self.client.insert(&class, attrs).map(|_| None),
            Request::Update { oid, attrs } => self.client.update(oid, attrs).map(|_| None),
            other => unreachable!("streams do not send {other:?}"),
        };
        let us = t0.elapsed().as_secs_f64() * 1e6;
        log.attempted += 1;
        let verdict = match (&reply, &stmt.expect) {
            (Err(e), _) => Err(e.to_string()),
            (Ok(Some(o)), Some(expect)) => check(expect, o),
            (Ok(_), _) => Ok(()),
        };
        if let Err(why) = verdict {
            log.fail(format!("{:?} {:?}: {why}", stmt.kind, stmt.op_label()));
            return;
        }
        // Acknowledged: remember what must survive the reopen.
        match &stmt.op {
            Op::Insert(_) => log.acked.inserts += 1,
            Op::UpdateStation { index, reading } => {
                log.acked.readings.insert(*index, *reading);
            }
            Op::UpdateBand { tile, image } => {
                log.acked.bands.insert(*tile, image.clone());
            }
            Op::Retrieve(_) | Op::Async(_) => {}
        }
        if let Ok(Some(o)) = &reply {
            if self.keep_ids {
                log.acked.tasks.extend(o.tasks.iter().copied());
                log.acked.objects.extend(o.objects.iter().map(|obj| obj.id));
            }
            if self.keep_plans && timed {
                for p in &o.plans {
                    log.plans
                        .push((p.path.to_string(), p.estimated_rows, o.objects.len()));
                }
            }
        }
        if timed {
            log.samples.push((stmt.kind, us));
        }
        if let (Op::Async(_), Ok(Some(o))) = (&stmt.op, &reply) {
            self.await_job(o.pending.first().copied(), timed, log);
        }
    }

    /// The second half of an `ASYNC` statement: wait for the job the
    /// submission named and keep the task it committed.
    fn await_job(&mut self, job: Option<u64>, timed: bool, log: &mut SessionLog) {
        log.attempted += 1;
        let Some(job) = job else {
            return log.fail("Async: the submission named no job".into());
        };
        let t0 = Instant::now();
        match self.client.await_job(job, AWAIT_TIMEOUT) {
            Ok(WireJobStatus::Done { task }) => {
                if timed {
                    log.await_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                log.acked.tasks.push(TaskId(Oid(task)));
            }
            Ok(other) => log.fail(format!("AwaitJob {job}: {other:?}")),
            Err(e) => log.fail(format!("AwaitJob {job}: {e}")),
        }
    }

    /// Closed loop: the next statement goes out when the previous one's
    /// reply is decoded.
    pub fn closed_loop(&mut self, stream: &[Stmt], timed: bool, log: &mut SessionLog) {
        let t0 = Instant::now();
        for stmt in stream {
            self.send(stmt, timed, log);
        }
        if timed {
            log.wall = t0.elapsed();
        }
    }
}

impl Stmt {
    /// The request this statement puts on the wire.
    pub fn request(&self, seeded: &Seeded) -> Request {
        let update = |oid: u64, attr: &str, value: Value| Request::Update {
            oid,
            attrs: vec![(attr.into(), value)],
        };
        match &self.op {
            Op::Retrieve(src) | Op::Async(src) => Request::Retrieve { src: src.clone() },
            Op::Insert(attrs) => Request::Insert {
                class: STATION_CLASS.into(),
                attrs: attrs.clone(),
            },
            Op::UpdateStation { index, reading } => update(
                seeded.station_oids[*index],
                "reading",
                Value::Float8(*reading),
            ),
            Op::UpdateBand { tile, image } => update(seeded.nir_oids[*tile], "data", image.clone()),
        }
    }

    /// A short form of the statement for failure lines (no image bytes).
    fn op_label(&self) -> String {
        match &self.op {
            Op::Retrieve(src) | Op::Async(src) => src.clone(),
            Op::Insert(attrs) => format!("Insert v={}", attrs[0].1),
            Op::UpdateStation { index, reading } => format!("Update station {index} → {reading}"),
            Op::UpdateBand { tile, .. } => format!("Update band of tile {tile}"),
        }
    }
}

/// A running server over a durable kernel in `dir`.
pub struct Served {
    pub addr: String,
    thread: std::thread::JoinHandle<gaea_server::ServerReport>,
}

impl Served {
    /// Reopen under [`db::serve_options`] and bind with
    /// `ServerConfig::default()`.
    pub fn start(dir: &Path) -> Result<Served, String> {
        let kernel = db::open_served(dir)?;
        let server = Server::bind(kernel, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?
            .to_string();
        Ok(Served {
            addr,
            thread: std::thread::spawn(move || server.run()),
        })
    }

    /// Graceful wire `Shutdown`; the checked WAL flush must succeed.
    pub fn shutdown(self) -> Result<(), String> {
        Client::connect(&self.addr, "perf-control")
            .and_then(Client::shutdown_server)
            .map_err(|e| format!("shutdown: {e}"))?;
        let report = self
            .thread
            .join()
            .map_err(|_| "the server thread panicked".to_string())?;
        report
            .wal_flush
            .map_err(|e| format!("shutdown WAL flush: {e}"))
    }
}

/// The server's metrics registry as `Request::Stats` serves it.
pub fn server_stats(addr: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut c = Client::connect(addr, "perf-stats").map_err(|e| format!("stats: {e}"))?;
    let stats = c.stats().map_err(|e| format!("stats: {e}"))?;
    let _ = c.goodbye();
    Ok(stats.metrics)
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    pub log: SessionLog,
    pub reopen_s: Vec<f64>,
    pub disk_bytes: u64,
    /// Durability and shutdown problems (each also counts as failed).
    pub problems: Vec<String>,
    /// `Stats` after minus before the timed phase (traced runs only).
    pub stats_delta: BTreeMap<String, u64>,
}

/// One full round in `dir`. `with_stats` also reads the server's
/// metrics around the timed phase and keeps the replies' scan plans.
pub fn round(plan: &Plan, dir: &Path, with_stats: bool) -> Result<Round, String> {
    let mut out = Round::default();
    // Set-up: seed the database, reopen it with the program's defaults,
    // bind the server, warm up.
    let t0 = Instant::now();
    let seeded = plan.data.seed(dir).map_err(|e| format!("seed: {e}"))?;
    let served = Served::start(dir)?;
    let mut session = Session::connect(&served.addr, "perf-main", &seeded, &plan.data)?;
    session.keep_plans = with_stats;
    let (warm, timed) = plan.stream.split_at(plan.warmup);
    session.closed_loop(warm, false, &mut out.log);
    out.setup_s = t0.elapsed().as_secs_f64();

    let before = if with_stats {
        server_stats(&served.addr)?
    } else {
        BTreeMap::new()
    };
    session.closed_loop(timed, true, &mut out.log);
    if with_stats {
        out.stats_delta = server_stats(&served.addr)?
            .into_iter()
            .map(|(k, v)| {
                let was = before.get(&k).copied().unwrap_or(0);
                (k, v.saturating_sub(was))
            })
            .collect();
    }
    session.goodbye();
    if let Err(e) = served.shutdown() {
        out.problems.push(e);
    }

    // Reopen twice: both time open → first correct query; the first
    // checks everything acknowledged, the second checkpoints so the
    // directory's size does not depend on where the log happened to be.
    for pass in 0..2 {
        match db::timed_reopen(dir, &seeded) {
            Ok((mut g, secs)) => {
                out.reopen_s.push(secs);
                if pass == 0 {
                    out.problems
                        .extend(out.log.acked.verify(&g, &plan.data, &seeded));
                } else if let Err(e) = g.checkpoint() {
                    out.problems.push(format!("checkpoint: {e}"));
                }
                if let Err(e) = g.close() {
                    out.problems.push(format!("close: {e}"));
                }
            }
            Err(e) => out.problems.push(e),
        }
    }
    out.disk_bytes = db::dir_bytes(dir).map_err(|e| format!("measure {dir:?}: {e}"))?;
    Ok(out)
}

/// The pooled result of a run's rounds, by end-to-end metric name.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    /// (name, value, unit, samples behind it).
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
}

/// µs samples of one latency class, pooled over the rounds.
pub fn class_samples(workload: Workload, rounds: &[Round], role: Role) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| &r.log.samples)
        .filter(|(kind, _)| workload.role(*kind) == Some(role))
        .map(|(_, us)| *us)
        .collect()
}

pub fn end_to_end(workload: Workload, rounds: &[Round], peak_rss_mb: f64) -> EndToEnd {
    let mut e = EndToEnd::default();
    for r in rounds {
        // A durability or shutdown problem fails the run on its own.
        e.attempted += r.log.attempted + r.problems.len();
        e.failed += r.log.failed + r.problems.len();
        e.problems.extend(r.log.failures.iter().cloned());
        e.problems.extend(r.problems.iter().cloned());
    }
    let mut setup: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let mut reopen: Vec<f64> = rounds.iter().flat_map(|r| r.reopen_s.clone()).collect();
    let mut disk: Vec<f64> = rounds.iter().map(|r| r.disk_bytes as f64 / 1e6).collect();
    let correct: usize = rounds.iter().map(|r| r.log.samples.len()).sum();
    let wall: f64 = rounds.iter().map(|r| r.log.wall.as_secs_f64()).sum();
    let mut primary = class_samples(workload, rounds, Role::Primary);
    let mut secondary = class_samples(workload, rounds, Role::Secondary);
    primary.sort_by(f64::total_cmp);
    let tail = workload.tail_pct();
    e.metrics = vec![
        ("setup_s", stats::median(&mut setup), "s", setup.len()),
        (
            "stmts_per_s",
            correct as f64 / wall.max(1e-9),
            "1/s",
            correct,
        ),
        (
            "primary_p50_us",
            stats::percentile(&primary, 50.0),
            "us",
            primary.len(),
        ),
        (
            "primary_tail_us",
            stats::percentile(&primary, tail),
            "us",
            primary.len(),
        ),
        (
            "secondary_p50_us",
            stats::median(&mut secondary),
            "us",
            secondary.len(),
        ),
        ("reopen_s", stats::median(&mut reopen), "s", reopen.len()),
        ("disk_mb", stats::median(&mut disk), "MB", disk.len()),
        ("peak_rss_mb", peak_rss_mb, "MB", 1),
    ];
    e
}

/// A data directory under `perf/target/`, removed when dropped.
pub struct DataDir(pub PathBuf);

impl DataDir {
    pub fn create(root: &Path, name: &str) -> std::io::Result<DataDir> {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(DataDir(dir))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
