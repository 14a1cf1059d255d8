//! Shared benchmark fixtures and the timer every bench target calls.
//!
//! Every bench target is a plain `fn main()` program that draws its
//! workloads from here so parameter sweeps stay comparable across
//! experiments, and times each row with [`bench()`] or [`bench_batched`]:
//! one untimed warm-up call, then [`SAMPLES`] timed calls, printed as one
//! line with their median and minimum. The quantities of interest are
//! relative shapes — who wins, by what factor, where crossovers sit — not
//! absolute wall-clock precision; per-operation costs of the running
//! system are measured by the `perf/` benchmark.

use gaea_adt::{AbsTime, GeoBox, Value};
use gaea_core::kernel::Gaea;
use gaea_core::ObjectId;
use gaea_workload::{build_figure2_schema, SceneSpec, SyntheticScene};
use std::hint::black_box;
use std::time::Instant;

/// The Africa window used throughout the paper's examples.
pub fn africa() -> GeoBox {
    GeoBox::new(-20.0, -35.0, 55.0, 38.0)
}

/// January 1986 (the paper's running task).
pub fn jan86() -> AbsTime {
    AbsTime::from_ymd(1986, 1, 15).expect("valid date")
}

/// A kernel with the Figure 2 schema registered.
pub fn figure2_kernel() -> Gaea {
    let mut g = Gaea::in_memory().with_user("bench");
    build_figure2_schema(&mut g).expect("figure 2 schema registers");
    g
}

/// Store one synthetic 3-band scene into `class` at `t`; returns band ids.
pub fn store_scene(g: &mut Gaea, class: &str, seed: u64, side: u32, t: AbsTime) -> Vec<ObjectId> {
    let scene = SyntheticScene::generate(SceneSpec::small(seed).sized(side, side));
    scene
        .bands
        .iter()
        .map(|band| {
            g.insert_object(
                class,
                vec![
                    ("data", Value::image(band.clone())),
                    ("spatialextent", Value::GeoBox(africa())),
                    ("timestamp", Value::AbsTime(t)),
                ],
            )
            .expect("insert scene band")
        })
        .collect()
}

/// Timed calls per row.
pub const SAMPLES: usize = 10;

/// Time `f` and print one row: `id`, median and minimum of [`SAMPLES`]
/// calls after one untimed warm-up call.
pub fn bench<O>(id: &str, mut f: impl FnMut() -> O) {
    bench_batched(id, || (), |()| f());
}

/// Like [`bench()`], but each call consumes a fresh input that `setup`
/// builds outside the timed region.
pub fn bench_batched<I, O>(id: &str, mut setup: impl FnMut() -> I, mut f: impl FnMut(I) -> O) {
    black_box(f(setup()));
    let mut ns: Vec<u128> = (0..SAMPLES)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            black_box(f(input));
            start.elapsed().as_nanos()
        })
        .collect();
    ns.sort_unstable();
    println!(
        "{id:<48} median {:>12}   min {:>12}",
        fmt_ns(ns[SAMPLES / 2]),
        fmt_ns(ns[0])
    );
}

fn fmt_ns(ns: u128) -> String {
    let ns = ns as f64;
    match ns {
        _ if ns >= 1e9 => format!("{:.3} s", ns / 1e9),
        _ if ns >= 1e6 => format!("{:.3} ms", ns / 1e6),
        _ if ns >= 1e3 => format!("{:.3} µs", ns / 1e3),
        _ => format!("{ns:.0} ns"),
    }
}
