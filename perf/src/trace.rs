//! The traced run: where the per-layer metrics come from.
//!
//! Three passes over the same seeded stream, none of which feeds an
//! end-to-end number:
//!
//! 1. an untraced wire pass, for the counters the program keeps itself
//!    (`Request::Stats` before and after) and the replies' scan plans;
//! 2. an in-process replay on a fresh copy of the database through the
//!    calls a session thread makes, one span around each call;
//! 3. probes of single public functions at the workload's size.

use crate::gen::{Kind, Op, Stmt};
use crate::probes;
use crate::run::{self, Plan, Role, Workload};
use crate::spans::{self, Recorder, Span};
use crate::stats;
use gaea_adt::Value;
use gaea_core::kernel::{ReadView, SharedKernel};
use gaea_core::{JobId, KernelError, ObjectId};
use gaea_lang::compile_query;
use gaea_server::protocol::{read_frame, write_frame, FRAME_REQUEST, FRAME_RESPONSE};
use gaea_server::{Request, Response, WireJobStatus, WireOutcome};
use gaea_store::Oid;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Traced {
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    /// (name, value, unit), in `BENCHMARK.json` order.
    pub metrics: Vec<(String, f64, String)>,
}

/// What the session thread does with one decoded request, with a span
/// around each call into a layer. Mirrors `gaea_server`'s dispatch for
/// the requests the streams send.
fn answer(rec: &mut Recorder, kernel: &SharedKernel, req: Request) -> Response {
    fn error(e: KernelError) -> Response {
        Response::Error {
            message: e.to_string(),
        }
    }
    match req {
        Request::Retrieve { src } => {
            let view = rec.call("core.pin", || kernel.pin());
            let q = match rec.call("lang.compile", || compile_query(view.catalog(), &src)) {
                Ok(q) => q,
                Err(e) => return error(e),
            };
            let (outcome, clock) = if ReadView::is_read_only(&q) {
                match rec.call("core.query_pinned", || view.query(&q)) {
                    Ok(o) => (o, view.clock()),
                    Err(e) => return error(e),
                }
            } else {
                let out = rec.call("core.exec", || {
                    kernel.exec(|g| g.query(&q).map(|o| (o, g.store_clock())))
                });
                match out {
                    Ok(pair) => pair,
                    Err(e) => return error(e),
                }
            };
            Response::Outcome(rec.call("server.flatten", || {
                WireOutcome::from_outcome(outcome, clock)
            }))
        }
        Request::Insert { class, attrs } => {
            let out = rec.call("core.exec", || {
                kernel.exec(|g| {
                    let borrowed: Vec<(&str, Value)> =
                        attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
                    g.insert_object(&class, borrowed)
                })
            });
            match out {
                Ok(oid) => Response::Inserted { oid: oid.raw() },
                Err(e) => error(e),
            }
        }
        Request::Update { oid, attrs } => {
            let out = rec.call("core.exec", || {
                kernel.exec(|g| {
                    let borrowed: Vec<(&str, Value)> =
                        attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
                    g.update_object(ObjectId(Oid(oid)), borrowed)
                })
            });
            match out {
                Ok(()) => Response::Updated,
                Err(e) => error(e),
            }
        }
        Request::AwaitJob { id, timeout_ms } => {
            // The server polls with short serialized statements.
            let wait = rec.enter("server.await_job");
            let deadline = Instant::now() + Duration::from_millis(timeout_ms);
            let resp = loop {
                match rec.call("core.exec", || kernel.exec(|g| g.job_status(JobId(id)))) {
                    Ok(status) => {
                        let status = WireJobStatus::from(status);
                        if status.is_terminal() || Instant::now() >= deadline {
                            break Response::Job { id, status };
                        }
                    }
                    Err(e) => break error(e),
                }
                std::thread::sleep(Duration::from_millis(2));
            };
            rec.exit(wait);
            resp
        }
        other => Response::Error {
            message: format!("the replay does not send {other:?}"),
        },
    }
}

/// One request's whole round trip without the socket: client encode,
/// server decode, the statement, server encode, client decode. Returns
/// the response and the response frame's length.
fn round_trip(
    rec: &mut Recorder,
    kernel: &SharedKernel,
    req: &Request,
) -> Result<(Response, usize), String> {
    let mut frame = Vec::new();
    rec.call("client.frame_encode", || {
        write_frame(&mut frame, FRAME_REQUEST, req)
    })
    .map_err(|e| format!("encode request: {e}"))?;
    let decoded: Request = rec
        .call("server.frame_decode", || {
            read_frame(&mut &frame[..], FRAME_REQUEST)
        })
        .map_err(|e| format!("decode request: {e}"))?;
    let resp = answer(rec, kernel, decoded);
    let mut out = Vec::new();
    rec.call("server.frame_encode", || {
        write_frame(&mut out, FRAME_RESPONSE, &resp)
    })
    .map_err(|e| format!("encode response: {e}"))?;
    let back: Response = rec
        .call("client.frame_decode", || {
            read_frame(&mut &out[..], FRAME_RESPONSE)
        })
        .map_err(|e| format!("decode response: {e}"))?;
    Ok((back, out.len()))
}

/// What the in-process replay measured.
struct Replay {
    spans: Vec<Span>,
    /// Root-span µs of every timed statement, by kind.
    stmt_us: Vec<(Kind, f64)>,
    /// Response-frame bytes per timed statement.
    frame_bytes: Vec<f64>,
    /// Log growth of each timed statement that grew the log.
    wal_bytes: Vec<f64>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

fn replay(plan: &Plan, dir: &Path) -> Result<Replay, String> {
    let seeded = plan.data.seed(dir).map_err(|e| format!("seed: {e}"))?;
    let kernel: Arc<SharedKernel> = SharedKernel::new(crate::db::open_served(dir)?);
    let wal = dir.join("wal.log");
    let wal_len = || std::fs::metadata(&wal).map_or(0, |m| m.len());
    let epoch = Instant::now();
    // The warm-up replays into a recorder nobody reads.
    let mut warm = Recorder::new(epoch, 16 * plan.warmup);
    let mut rec = Recorder::new(epoch, 16 * (plan.stream.len() - plan.warmup));
    let mut out = Replay {
        spans: vec![],
        stmt_us: vec![],
        frame_bytes: vec![],
        wal_bytes: vec![],
        attempted: 0,
        failed: 0,
        problems: vec![],
    };
    for (i, stmt) in plan.stream.iter().enumerate() {
        let timed = i >= plan.warmup;
        let rec = if timed { &mut rec } else { &mut warm };
        let req = stmt.request(&seeded);
        let before = wal_len();
        let root = rec.statement(i);
        let reply = round_trip(rec, &kernel, &req);
        rec.exit(root);
        let root_us = rec.spans[root].dur_ns() as f64 / 1e3;
        let grown = wal_len().saturating_sub(before);
        out.attempted += 1;
        let verdict = match (&reply, &stmt.expect) {
            (Err(e), _) => Err(e.clone()),
            (Ok((Response::Error { message }, _)), _) => Err(message.clone()),
            (Ok((Response::Outcome(o), _)), Some(expect)) => run::check(expect, o),
            (Ok(_), _) => Ok(()),
        };
        if let Err(why) = verdict {
            out.failed += 1;
            if out.problems.len() < 5 {
                out.problems.push(format!("replay {:?}: {why}", stmt.kind));
            }
            continue;
        }
        if timed {
            out.stmt_us.push((stmt.kind, root_us));
            out.frame_bytes
                .push(reply.as_ref().map_or(0, |r| r.1) as f64);
            if grown > 0 {
                out.wal_bytes.push(grown as f64);
            }
        }
        // The second half of an ASYNC statement: await the job.
        if let (Op::Async(_), Ok((Response::Outcome(o), _))) = (&stmt.op, &reply) {
            out.attempted += 1;
            let done = o.pending.first().map(|job| {
                let root = rec.statement(i);
                let reply = round_trip(
                    rec,
                    &kernel,
                    &Request::AwaitJob {
                        id: *job,
                        timeout_ms: 10_000,
                    },
                );
                rec.exit(root);
                reply
            });
            if !matches!(
                done,
                Some(Ok((
                    Response::Job {
                        status: WireJobStatus::Done { .. },
                        ..
                    },
                    _
                )))
            ) {
                out.failed += 1;
                out.problems.push(format!("replay AwaitJob: {done:?}"));
            }
        }
    }
    out.spans = rec.spans;
    match kernel.close() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => out.problems.push(format!("replay close: {e}")),
        Err(_) => out
            .problems
            .push("replay close: kernel still shared".into()),
    }
    Ok(out)
}

/// The cost of recording one span, measured on empty spans: the traced
/// replay's overhead is this times its span count.
fn span_cost_ns() -> f64 {
    const N: usize = 200_000;
    let mut rec = Recorder::new(Instant::now(), N + 1);
    let t0 = Instant::now();
    let root = rec.statement(0);
    for _ in 0..N {
        rec.call("empty", || std::hint::black_box(0));
    }
    rec.exit(root);
    t0.elapsed().as_nanos() as f64 / N as f64
}

fn writes_in(stream: &[Stmt]) -> usize {
    stream
        .iter()
        .filter(|s| {
            matches!(
                s.kind,
                Kind::Insert
                    | Kind::Update
                    | Kind::BandUpdate
                    | Kind::Fired
                    | Kind::Fresh
                    | Kind::Async
            )
        })
        .count()
}

pub fn run(workload: Workload, plan: &Plan, dir: &Path, root: &Path) -> Result<Traced, String> {
    // Pass 1: untraced, over the wire.
    let wire = run::round(plan, &dir.join("wire"), true)?;
    let _ = std::fs::remove_dir_all(dir.join("wire"));
    // Pass 2: traced, in process, on a fresh copy of the same database.
    let replay_dir = dir.join("replay");
    let rp = replay(plan, &replay_dir)?;
    spans::write_json(
        &root.join(format!("trace-{}.json", workload.name())),
        &rp.spans,
    )
    .map_err(|e| format!("write trace: {e}"))?;
    // Pass 3: probes, on the replay's database.
    let timed = &plan.stream[plan.warmup..];
    let wal_bytes_per_write = stats::median(&mut rp.wal_bytes.clone());
    let record_bytes = wal_bytes_per_write.max(64.0) as usize;
    let probed = probes::run(workload, plan, &replay_dir, record_bytes)?;

    let mut m: Vec<(String, f64, String)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &str| m.push((name.into(), value, unit.into()));

    // Spans: mean self time per call of each layer, µs.
    let self_ns = spans::self_times_ns(&rp.spans);
    let mut by_name: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for (s, own) in rp.spans.iter().zip(&self_ns) {
        let e = by_name.entry(s.name).or_default();
        e.0 += *own as f64 / 1e3;
        e.1 += 1;
    }
    let layer = |name: &str| by_name.get(name).map_or(0.0, |(us, n)| us / *n as f64);
    for (metric, span) in [
        ("client.frame_encode_us", "client.frame_encode"),
        ("server.frame_decode_us", "server.frame_decode"),
        ("lang.compile_us", "lang.compile"),
        ("core.pin_us", "core.pin"),
        ("core.query_pinned_us", "core.query_pinned"),
        ("core.exec_us", "core.exec"),
        ("server.flatten_us", "server.flatten"),
        ("server.frame_encode_us", "server.frame_encode"),
        ("client.frame_decode_us", "client.frame_decode"),
    ] {
        put(metric, layer(span), "us");
    }
    put(
        "server.frame_bytes_per_stmt",
        stats::mean(&rp.frame_bytes),
        "B",
    );

    // The traced statements themselves, and the table's sanity.
    let all_us: Vec<f64> = rp.stmt_us.iter().map(|(_, us)| *us).collect();
    let mut primary_us: Vec<f64> = rp
        .stmt_us
        .iter()
        .filter(|(k, _)| workload.role(*k) == Some(Role::Primary))
        .map(|(_, us)| *us)
        .collect();
    put("trace.stmt_us", stats::mean(&all_us), "us");
    put("trace.primary_stmt_us", stats::mean(&primary_us), "us");
    put("trace.coverage_frac", spans::coverage(&rp.spans), "ratio");
    let traced_ns: f64 = all_us.iter().sum::<f64>() * 1e3;
    put(
        "trace.overhead_frac",
        span_cost_ns() * rp.spans.len() as f64 / traced_ns.max(1.0),
        "ratio",
    );
    let mut wire_primary = run::class_samples(workload, std::slice::from_ref(&wire), Role::Primary);
    put(
        "server.wire_residual_us",
        stats::median(&mut wire_primary) - stats::median(&mut primary_us),
        "us",
    );

    // Counters the program keeps, read through `Stats` around the wire
    // pass; per statement or per write of the timed stream.
    let delta = |key: &str| wire.stats_delta.get(key).copied().unwrap_or(0) as f64;
    let per = |x: f64, n: usize| if n == 0 { 0.0 } else { x / n as f64 };
    let writes = writes_in(timed);
    put("core.session.execs", delta("kernel_execs"), "count");
    put("core.session.pins", delta("kernel_pins"), "count");
    put(
        "store.wal.appends_per_write",
        per(delta("wal_appends"), writes),
        "ratio",
    );
    put(
        "store.wal.fsyncs_per_write",
        per(delta("wal_fsyncs"), writes),
        "ratio",
    );
    put("store.wal.bytes_per_write", wal_bytes_per_write, "B");
    put(
        "core.durability.compaction_cycles",
        delta("wal_compactions"),
        "count",
    );
    for stage in ["plan", "retrieve", "bind", "fire", "project"] {
        put(
            &format!("core.query.stage_{stage}_us_per_stmt"),
            per(delta(&format!("stage_{stage}_us_sum")), timed.len()),
            "us",
        );
    }
    let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
    put(
        "core.cache.hit_ratio",
        per(hits, (hits + misses) as usize),
        "ratio",
    );
    put("sched.parallel_maps", delta("sched_parallel_maps"), "count");
    put("sched.serial_maps", delta("sched_serial_maps"), "count");
    put("core.jobs.completed", delta("jobs_completed"), "count");
    put(
        "core.jobs.await_p50_us",
        stats::median(&mut wire.log.await_us.clone()),
        "us",
    );

    // What the checked replies say about derivation and access paths.
    let fired: Vec<&Stmt> = timed.iter().filter(|s| s.kind == Kind::Fired).collect();
    let fired_tasks: usize = fired
        .iter()
        .filter_map(|s| s.expect.as_ref())
        .map(|e| e.tasks)
        .sum();
    let reused = timed.iter().filter(|s| s.kind == Kind::Reuse).count();
    put(
        "core.derive.tasks_per_fired_stmt",
        per(fired_tasks as f64, fired.len()),
        "ratio",
    );
    put(
        "core.derive.reuse_ratio",
        per(reused as f64, reused + fired.len()),
        "ratio",
    );
    let plans = &wire.log.plans;
    let full = plans.iter().filter(|(p, _, _)| p == "full scan").count();
    let (est, got) = plans
        .iter()
        .fold((0u64, 0usize), |(e, g), (_, est, rows)| (e + est, g + rows));
    put(
        "core.access.full_scan_frac",
        per(full as f64, plans.len()),
        "ratio",
    );
    put(
        "core.access.index_frac",
        per((plans.len() - full) as f64, plans.len()),
        "ratio",
    );
    put(
        "core.access.est_rows_per_row",
        per(est as f64, got),
        "ratio",
    );

    put(
        "loadgen.failed_frac",
        per(
            (wire.log.failed + rp.failed) as f64,
            wire.log.attempted + rp.attempted,
        ),
        "ratio",
    );
    m.extend(probed);

    let mut problems = wire.log.failures.clone();
    problems.extend(wire.problems.iter().cloned());
    problems.extend(rp.problems.iter().cloned());
    Ok(Traced {
        attempted: wire.log.attempted + wire.problems.len() + rp.attempted,
        failed: wire.log.failed + wire.problems.len() + rp.failed,
        problems,
        metrics: m,
    })
}
