//! Experiment Q13 — interpolation as a generic derivation (§2.1.5 step 2).
//!
//! Measures bare temporal interpolation across raster sizes, series
//! bracketing over growing series, and the full kernel interpolation path
//! (query → bracket search → synthesis → task record). Also prints an
//! accuracy sweep: linear interpolation error against the synthetic NDVI
//! ground truth as the gap between stored snapshots widens — the shape
//! that justifies §2.1.5's ordering (interpolate before deriving when
//! snapshots are dense).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gaea_adt::{AbsTime, Value};
use gaea_bench::{africa, configure, figure2_kernel};
use gaea_core::{Query, QueryMethod};
use gaea_raster::interp::{series_interp, temporal_interp};
use gaea_raster::stats::mean;
use gaea_workload::ndvi_series;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("q13_interpolation");
    configure(&mut group);
    // Bare interpolation, size sweep.
    for side in [16u32, 64, 128] {
        let series = ndvi_series(
            side,
            side,
            2,
            AbsTime::from_ymd(1988, 1, 1).unwrap(),
            0.0,
            1,
        );
        let (t1, i1) = &series[0];
        let (t2, i2) = &series[1];
        let mid = AbsTime((t1.0 + t2.0) / 2);
        group.bench_with_input(
            BenchmarkId::new("bare_temporal_interp", side * side),
            &side,
            |b, _| b.iter(|| black_box(temporal_interp(i1, *t1, i2, *t2, mid).expect("ok"))),
        );
    }
    // Bracket search over growing series.
    for months in [12usize, 60, 240] {
        let series = ndvi_series(
            16,
            16,
            months,
            AbsTime::from_ymd(1988, 1, 1).unwrap(),
            0.0,
            2,
        );
        let target = AbsTime((series[months / 2].0 .0 + series[months / 2 + 1].0 .0) / 2);
        group.bench_with_input(
            BenchmarkId::new("series_bracket_search", months),
            &months,
            |b, _| b.iter(|| black_box(series_interp(&series, target).expect("ok"))),
        );
    }
    // Full kernel path.
    group.bench_function("kernel_interpolation_query_32x32", |b| {
        b.iter_batched(
            || {
                let mut g = figure2_kernel();
                let series = ndvi_series(32, 32, 2, AbsTime::from_ymd(1988, 1, 1).unwrap(), 0.0, 3);
                for (t, img) in &series {
                    g.insert_object(
                        "ndvi",
                        vec![
                            ("data", Value::image(img.clone())),
                            ("spatialextent", Value::GeoBox(africa())),
                            ("timestamp", Value::AbsTime(*t)),
                        ],
                    )
                    .expect("insert");
                }
                let mid = AbsTime((series[0].0 .0 + series[1].0 .0) / 2);
                (g, Query::class("ndvi").over(africa()).at(mid))
            },
            |(mut g, q)| {
                let out = g.query(&q).expect("interpolates");
                debug_assert_eq!(out.method, QueryMethod::Interpolated);
                black_box(out)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();

    // Accuracy sweep (printed once; recorded in EXPERIMENTS.md).
    let months = 25usize;
    let dense = ndvi_series(
        16,
        16,
        months,
        AbsTime::from_ymd(1988, 1, 1).unwrap(),
        0.05,
        9,
    );
    println!("\nq13_interpolation accuracy: gap (months) vs mean abs error");
    for gap in [2usize, 4, 6, 12] {
        let mut total_err = 0.0;
        let mut count = 0usize;
        for i in (0..months - gap).step_by(gap) {
            let (t1, i1) = &dense[i];
            let (t2, i2) = &dense[i + gap];
            let (tm, truth) = &dense[i + gap / 2];
            let est = temporal_interp(i1, *t1, i2, *t2, *tm).expect("ok");
            let err = est
                .zip_map(truth, gaea_adt::PixType::Float8, |a, b| (a - b).abs())
                .expect("ok");
            total_err += mean(&err);
            count += 1;
        }
        println!("  gap={gap:2}  mae={:.4}", total_err / count as f64);
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
