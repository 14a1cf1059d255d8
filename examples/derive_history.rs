//! Derivation history probe: does a fresh `DERIVE` cost the same with
//! 250, 1 000 and 4 000 earlier derivations of its process on record?
//!
//! One scalar process `P: b → d`. Every `b` object sits on its own
//! spatial tile at its own day, so a query over one tile at one instant
//! binds exactly that object. For each history size *n*, a new kernel
//! records *n* derivations by query, then times fresh `DERIVE`s, each on
//! a newly inserted `b`, and prints their p50. Before every automatic
//! firing the kernel asks whether the identical derivation is already on
//! record (§2.1.1, "avoid unnecessary duplication of experiments"); that
//! check must not grow with the history.
//!
//! Each size runs twice. In the first kernel `b` has no access path: the
//! query's token pool then scans every stored `b`, a cost that grows
//! with the base data, not with the recorded derivations (the kernel
//! builds access paths for a query's target classes only). The second
//! kernel gives `b` a spatial index (`DEFINE INDEX spatialextent ON b`),
//! so its column isolates what the recorded history costs a firing.
//!
//! The probe also reads the `derive_tasks_examined` counter — recorded
//! task keys the identity check compared — around the timed statements.
//! That count is deterministic, so the probe exits nonzero when it
//! differs between history sizes, or when a fresh `DERIVE` does not
//! record exactly one task.
//!
//! ```sh
//! cargo run --release --example derive_history            # 100 timed DERIVEs per size
//! cargo run --release --example derive_history -- --quick # 20 per size
//! ```

use gaea::adt::{AbsTime, GeoBox, TypeTag, Value};
use gaea::core::kernel::{ClassSpec, Gaea, ProcessSpec};
use gaea::core::template::{Expr, Mapping, Template};
use gaea::core::{Query, QueryStrategy};
use std::time::Instant;

const HISTORY: [usize; 3] = [250, 1_000, 4_000];

fn kernel(index_b: bool) -> Result<Gaea, Box<dyn std::error::Error>> {
    let mut g = Gaea::in_memory().with_user("derive_history");
    g.define_class(ClassSpec::base("b").attr("v", TypeTag::Int4))?;
    if index_b {
        g.define_index("b", "spatialextent")?;
    }
    g.define_class(ClassSpec::derived("d").attr("v", TypeTag::Int4))?;
    let copy = |attr: &str| Mapping {
        attr: attr.into(),
        expr: Expr::proj("b", attr),
    };
    g.define_process(ProcessSpec::new("P", "d").arg("b", "b").template(Template {
        assertions: vec![],
        mappings: vec![copy("v"), copy("spatialextent"), copy("timestamp")],
    }))?;
    Ok(g)
}

/// Object `i`'s tile (half a degree, one degree apart) and day.
fn tile(i: usize) -> GeoBox {
    let (x, y) = (-180.0 + (i % 300) as f64, -60.0 + (i / 300) as f64);
    GeoBox::new(x, y, x + 0.5, y + 0.5)
}

fn day(i: usize) -> AbsTime {
    AbsTime::from_ymd(1980, 1, 1).unwrap().plus_days(i as i64)
}

/// Store `b` number `i`, then derive its `d` by query; returns the
/// query's wall time in µs.
fn fresh_derive(g: &mut Gaea, i: usize) -> Result<u64, Box<dyn std::error::Error>> {
    g.insert_object(
        "b",
        vec![
            ("v", Value::Int4(i as i32)),
            ("spatialextent", Value::GeoBox(tile(i))),
            ("timestamp", Value::AbsTime(day(i))),
        ],
    )?;
    let q = Query::class("d")
        .over(tile(i))
        .at(day(i))
        .with_strategy(QueryStrategy::PreferDerivation);
    let tasks = g.catalog().tasks.len();
    let start = Instant::now();
    let out = g.query(&q)?;
    let us = start.elapsed().as_micros() as u64;
    if out.tasks.len() != 1 || g.catalog().tasks.len() != tasks + 1 {
        return Err(format!("DERIVE {i} did not record exactly one task").into());
    }
    Ok(us)
}

/// Record `n` derivations in a new kernel, then time `samples` fresh
/// ones: (p50 µs, keys the identity check compared, recording seconds).
fn run(
    n: usize,
    samples: usize,
    index_b: bool,
) -> Result<(u64, u64, f64), Box<dyn std::error::Error>> {
    let examined = || gaea::obs::metrics().derive_tasks_examined.get();
    let mut g = kernel(index_b)?;
    let start = Instant::now();
    for i in 0..n {
        fresh_derive(&mut g, i)?;
    }
    let record_s = start.elapsed().as_secs_f64();
    let before = examined();
    let mut lat: Vec<u64> = (n..n + samples)
        .map(|i| fresh_derive(&mut g, i))
        .collect::<Result<_, _>>()?;
    let keys = examined() - before;
    lat.sort_unstable();
    Ok((lat[lat.len() / 2], keys, record_s))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let samples = if quick { 20 } else { 100 };
    println!(
        "tasks of P on record | keys examined | fresh DERIVE p50 (us), b unindexed | \
         p50 (us), b indexed | recording the n (s)"
    );
    let mut rows = Vec::new();
    for n in HISTORY {
        let (scan_p50, keys, _) = run(n, samples, false)?;
        let (index_p50, index_keys, record_s) = run(n, samples, true)?;
        println!("{n:>20} | {keys:>13} | {scan_p50:>34} | {index_p50:>19} | {record_s:>19.2}");
        rows.push((n, [keys, index_keys], scan_p50, index_p50));
    }
    let (first, last) = (rows[0], rows[rows.len() - 1]);
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    println!(
        "p50 ratio {} / {} tasks: {:.2} b unindexed, {:.2} b indexed",
        last.0,
        first.0,
        ratio(last.2, first.2),
        ratio(last.3, first.3)
    );
    // Both kernels at every size must compare as many keys as the
    // unindexed one at the smallest size.
    let base = first.1[0];
    if let Some((n, keys, ..)) = rows.iter().find(|row| row.1 != [base, base]) {
        return Err(format!(
            "the identity check compared {keys:?} keys (b unindexed, indexed) at {n} tasks \
             on record, {base} at {}",
            first.0
        )
        .into());
    }
    Ok(())
}
