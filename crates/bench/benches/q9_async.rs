//! Experiment Q9 — interactive latency under asynchronous derivation jobs.
//!
//! The §5 scenario the job subsystem exists for: K external firings
//! whose mappings run at a slow remote site (simulated with a 5 ms
//! round-trip) while a scientist keeps querying. Two schedules of the
//! same work — K derivations plus one interactive query:
//!
//! * `latency_interactive_async` — the K firings are *submitted* as
//!   background jobs (`Gaea::submit_derivation`) and the interactive
//!   query runs immediately; the measured latency is microseconds, the
//!   round-trips overlap on the job workers.
//! * `latency_interactive_blocking` — the old synchronous executor:
//!   each firing blocks the session for its full round-trip, so the
//!   interactive query waits ≈ K × 5 ms.

use gaea_adt::{AbsTime, TypeTag, Value};
use gaea_bench::bench_batched;
use gaea_core::external::SimulatedSite;
use gaea_core::kernel::{ClassSpec, Gaea, ProcessSpec};
use gaea_core::{ObjectId, Query};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Concurrent slow firings per schedule.
const K: u32 = 4;
/// Simulated remote round-trip.
const ROUND_TRIP: Duration = Duration::from_millis(5);

fn day(d: u32) -> AbsTime {
    AbsTime::from_ymd(1986, 1, d).unwrap()
}

/// A kernel with K timestamped observations, a slow external process
/// `REMOTE: obs → remote_out`, and an unrelated `local` class the
/// interactive query reads.
fn kernel() -> (Gaea, Vec<ObjectId>) {
    let site = Arc::new(
        SimulatedSite::new("deep_space", |_def, inputs| {
            let v = inputs["x"][0]
                .attr("v")
                .and_then(Value::as_i64)
                .unwrap_or(0);
            let mut out = BTreeMap::new();
            out.insert("v".to_string(), Value::Int4((v as i32) * 2));
            Ok(out)
        })
        .with_latency(ROUND_TRIP),
    );
    let mut g = Gaea::in_memory();
    g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4))
        .expect("obs class");
    g.define_class(ClassSpec::derived("remote_out").attr("v", TypeTag::Int4))
        .expect("remote_out class");
    g.define_class(
        ClassSpec::base("local")
            .attr("v", TypeTag::Int4)
            .no_extents(),
    )
    .expect("local class");
    g.define_external_process(
        ProcessSpec::new("REMOTE", "remote_out").arg("x", "obs"),
        "deep_space",
    )
    .expect("REMOTE process");
    g.register_site("deep_space", site);
    g.set_job_workers(K as usize);
    let mut obs = Vec::new();
    for i in 0..K {
        obs.push(
            g.insert_object(
                "obs",
                vec![
                    ("v", Value::Int4(10 + i as i32)),
                    ("timestamp", Value::AbsTime(day(1 + i))),
                ],
            )
            .expect("insert obs"),
        );
    }
    for i in 0..16 {
        g.insert_object("local", vec![("v", Value::Int4(i))])
            .expect("insert local");
    }
    (g, obs)
}

fn main() {
    // K background submissions, then the interactive query: the session
    // never waits on a round-trip.
    bench_batched(
        &format!("latency_interactive_async/{K}"),
        || kernel().0,
        |mut g| {
            for i in 0..K {
                g.submit_derivation(&Query::class("remote_out").at(day(1 + i)))
                    .expect("submit background firing");
            }
            g.query(&Query::class("local")).expect("interactive query")
        },
    );

    // The blocking baseline: each firing holds the session for its full
    // round-trip before the interactive query gets a turn.
    bench_batched(
        &format!("latency_interactive_blocking/{K}"),
        kernel,
        |(mut g, obs)| {
            for o in &obs {
                g.run_process("REMOTE", &[("x", vec![*o])])
                    .expect("blocking external firing");
            }
            g.query(&Query::class("local")).expect("interactive query")
        },
    );
}
