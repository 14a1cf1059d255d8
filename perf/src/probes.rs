//! Probes: single public functions of one layer, timed in isolation on
//! the workload's own database and with the stream's own predicates.
//! A probe that does not apply to a workload reports 0 there.

use crate::db::Dataset;
use crate::gen::{Scenes, Stations, STATION_CLASS};
use crate::run::{Plan, Workload};
use crate::stats;
use gaea_adt::{GeoBox, Image, TypeTag, Value};
use gaea_core::kernel::{ClassSpec, DurabilityOptions, Gaea};
use gaea_core::ClassId;
use gaea_petri::backward::plan_derivation;
use gaea_store::codec::{decode_tuple, encode_tuple, Dec, Enc};
use gaea_store::{Predicate, Tuple, WalWriter};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

type Metric = (String, f64, String);

/// Median µs of `reps` calls.
fn time_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut us: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&mut us)
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("probe {what}: {e}")
}

/// `Gaea::read_view` and `Database::pin`: what one publication clones.
fn publication(g: &Gaea, out: &mut Vec<Metric>) {
    let view = g.read_view();
    out.push((
        "core.read_view_us".into(),
        time_us(5, || g.read_view()),
        "us".into(),
    ));
    out.push((
        "store.pin_us".into(),
        time_us(5, || view.store().db().pin()),
        "us".into(),
    ));
}

/// The four access paths of `Relation`, with `catalog_read`'s predicates.
fn access_paths(g: &Gaea, st: &Stations, on: bool, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut us = [0.0; 4];
    if on {
        let view = g.read_view();
        let rel_name = g
            .catalog()
            .class_by_name(STATION_CLASS)
            .map_err(|e| err("station class", e))?
            .relation_name();
        let rel = view
            .store()
            .db()
            .relation(&rel_name)
            .map_err(|e| err("station relation", e))?;
        let site = Predicate::Eq("site".into(), Value::Int4(77));
        let key = Value::Int4((st.n / 3) as i32);
        let (lo, hi) = (
            Value::Int4((st.n / 2) as i32),
            Value::Int4((st.n / 2 + 30) as i32),
        );
        let window = GeoBox::new(99.75, 9.75, 109.75, 19.75);
        // Fail on a wrong answer before timing anything.
        let rows = rel.scan(&site).map_err(|e| err("scan", e))?.len();
        if rows != st.rows_per_site() {
            return Err(format!("probe scan: {rows} rows"));
        }
        rel.index_lookup("v", &key)
            .map_err(|e| err("index_lookup", e))?;
        rel.index_range("v", Some(&lo), Some(&hi))
            .map_err(|e| err("index_range", e))?;
        rel.grid_probe("spatialextent", &window)
            .map_err(|e| err("grid_probe", e))?;
        us = [
            time_us(21, || rel.scan(&site)),
            time_us(2001, || rel.index_lookup("v", &key)),
            time_us(2001, || rel.index_range("v", Some(&lo), Some(&hi))),
            time_us(2001, || rel.grid_probe("spatialextent", &window)),
        ];
    }
    for (name, v) in [
        "store.scan_full_us",
        "store.index_lookup_us",
        "store.index_range_us",
        "store.grid_probe_us",
    ]
    .iter()
    .zip(us)
    {
        out.push((name.to_string(), v, "us".into()));
    }
    Ok(())
}

/// `WalWriter::append` at the stream's median record size, without and
/// with the per-record fsync.
fn wal(dir: &Path, record_bytes: usize, on: bool, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut us = [0.0; 2];
    if on {
        let payload = vec![0xA5u8; record_bytes];
        for (slot, fsync_every) in [(0, u64::MAX), (1, 1)] {
            let path = dir.join(format!("probe-{slot}.wal"));
            let mut w = WalWriter::open(&path, 0, fsync_every).map_err(|e| err("wal open", e))?;
            let mut failed = None;
            us[slot] = time_us(500, || {
                if let Err(e) = w.append(&payload) {
                    failed = Some(e);
                }
            });
            w.sync().map_err(|e| err("wal sync", e))?;
            if let Some(e) = failed {
                return Err(err("wal append", e));
            }
            drop(w);
            let _ = std::fs::remove_file(&path);
        }
    }
    out.push(("store.wal.append_nosync_us".into(), us[0], "us".into()));
    out.push(("store.wal.append_fsync_us".into(), us[1], "us".into()));
    Ok(())
}

/// `codec::encode_tuple` / `decode_tuple` on the workload's own tuple
/// shape: five scalars, or one `SCENE_PX`² image with its extents.
fn codec(tuple: &Tuple, on: bool, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut mb_s = [0.0; 2];
    if on {
        let mut enc = Enc::with_capacity(1 << 16);
        encode_tuple(&mut enc, tuple);
        let bytes = enc.into_bytes();
        let back = decode_tuple(&mut Dec::new(&bytes)).map_err(|e| err("decode_tuple", e))?;
        if &back != tuple {
            return Err("probe codec: the tuple did not round-trip".into());
        }
        let reps = (4_000_000 / bytes.len()).max(50);
        let mb = (bytes.len() * reps) as f64 / 1e6;
        let t0 = Instant::now();
        for _ in 0..reps {
            let mut enc = Enc::with_capacity(bytes.len());
            encode_tuple(&mut enc, black_box(tuple));
            black_box(enc.into_bytes());
        }
        mb_s[0] = mb / t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for _ in 0..reps {
            black_box(decode_tuple(&mut Dec::new(black_box(&bytes))).is_ok());
        }
        mb_s[1] = mb / t0.elapsed().as_secs_f64();
    }
    out.push(("store.codec.encode_mb_s".into(), mb_s[0], "MB/s".into()));
    out.push(("store.codec.decode_mb_s".into(), mb_s[1], "MB/s".into()));
    Ok(())
}

/// `Gaea::checkpoint`, the snapshot it wrote, `Gaea::open` on it, and
/// replay speed over a log of fresh inserts.
fn durability(dir: &Path, plan: &Plan, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut g = Gaea::open(dir).map_err(|e| err("open", e))?;
    let t0 = Instant::now();
    g.checkpoint().map_err(|e| err("checkpoint", e))?;
    let checkpoint_s = t0.elapsed().as_secs_f64();
    g.close().map_err(|e| err("close", e))?;
    let current = std::fs::read_to_string(dir.join("CURRENT")).map_err(|e| err("CURRENT", e))?;
    let snapshot_bytes =
        crate::db::dir_bytes(&dir.join(current.trim())).map_err(|e| err("snapshot size", e))?;

    let t0 = Instant::now();
    let g = Gaea::open(dir).map_err(|e| err("open snapshot", e))?;
    let load_s = t0.elapsed().as_secs_f64();
    drop(g);

    // Replay speed, on a log with no snapshot under it (the load above
    // would drown it): the workload's own records — station inserts, or
    // source-band inserts — written with automatic snapshots off.
    const EVENTS: usize = 20_000;
    let log_dir = dir.join("replay-probe");
    let mut g = Gaea::open_with(
        &log_dir,
        DurabilityOptions {
            snapshot_every: 0,
            fsync_every: u64::MAX,
            ..DurabilityOptions::default()
        },
    )
    .map_err(|e| err("open for replay log", e))?;
    match &plan.data {
        Dataset::Stations(st) => {
            g.define_class(
                ClassSpec::base(STATION_CLASS)
                    .attr("v", TypeTag::Int4)
                    .attr("site", TypeTag::Int4)
                    .attr("reading", TypeTag::Float8),
            )
            .map_err(|e| err("define", e))?;
            for i in 0..EVENTS {
                g.insert_object(STATION_CLASS, st.attrs(i))
                    .map_err(|e| err("insert", e))?;
            }
        }
        Dataset::Scenes(sc) => {
            g.define_class(ClassSpec::base("avhrr_nir").attr("data", TypeTag::Image))
                .map_err(|e| err("define", e))?;
            let image = Value::image(sc.bands(0, 0).swap_remove(3));
            for i in 0..EVENTS {
                let attrs = vec![
                    ("data", image.clone()),
                    ("spatialextent", Value::GeoBox(sc.tile_box(i))),
                    ("timestamp", Value::AbsTime(sc.date(i, 0))),
                ];
                g.insert_object("avhrr_nir", attrs)
                    .map_err(|e| err("insert", e))?;
            }
        }
    }
    g.close().map_err(|e| err("close", e))?;
    let t0 = Instant::now();
    let g = Gaea::open(&log_dir).map_err(|e| err("open log", e))?;
    let replay_s = t0.elapsed().as_secs_f64();
    let replayed = g.recovery_stats().map_or(0, |r| r.events_replayed);
    drop(g);
    if (replayed as usize) < EVENTS {
        return Err(format!("probe replay: {replayed} events, wanted ≥{EVENTS}"));
    }

    out.push((
        "core.durability.checkpoint_s".into(),
        checkpoint_s,
        "s".into(),
    ));
    out.push((
        "store.snapshot.bytes".into(),
        snapshot_bytes as f64,
        "B".into(),
    ));
    out.push(("core.durability.snapshot_load_s".into(), load_s, "s".into()));
    out.push((
        "core.durability.replay_events_per_s".into(),
        replayed as f64 / replay_s,
        "1/s".into(),
    ));
    Ok(())
}

/// `plan_derivation` on the Figure-2 net for each goal class, from a
/// marking that holds only source bands.
fn planner(g: &Gaea, on: bool, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut us = 0.0;
    if on {
        let dnet = g.derivation_net();
        let counts: BTreeMap<ClassId, u64> = g
            .catalog()
            .classes
            .iter()
            .map(|(id, def)| (*id, if def.is_derived() { 0 } else { 3 }))
            .collect();
        let marking = dnet.marking(&counts);
        let mut per_goal = Vec::new();
        for goal in ["land_cover", "ndvi", "veg_change_pca"] {
            let class = g
                .catalog()
                .class_by_name(goal)
                .map_err(|e| err("goal class", e))?;
            let place = dnet.place_of[&class.id];
            plan_derivation(&dnet.net, &marking, place, 1)
                .map_err(|_| format!("probe planner: {goal} is not derivable"))?;
            per_goal.push(time_us(501, || {
                plan_derivation(&dnet.net, &marking, place, 1)
            }));
        }
        us = stats::mean(&per_goal);
    }
    out.push(("petri.plan_us".into(), us, "us".into()));
    Ok(())
}

/// The four raster kernels behind `P20`, `P6` and `P7`, at scene size.
fn raster(sc: Option<&Scenes>, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut us = [0.0; 4];
    let mut mpix_per_s = 0.0;
    if let Some(sc) = sc {
        let d0 = sc.bands(0, 0);
        let d1 = sc.bands(0, 1);
        let tm: Vec<&Image> = d0[..3].iter().collect();
        let stack = gaea_raster::composite(&tm).map_err(|e| err("composite", e))?;
        let n0 = gaea_raster::ndvi(&d0[3], &d0[4]).map_err(|e| err("ndvi", e))?;
        let n1 = gaea_raster::ndvi(&d1[3], &d1[4]).map_err(|e| err("ndvi", e))?;
        gaea_raster::pca(&[&n0, &n1]).map_err(|e| err("pca", e))?;
        let (iters, seed) = (
            gaea_raster::ops::DEFAULT_CLASSIFY_ITERS,
            gaea_raster::ops::DEFAULT_CLASSIFY_SEED,
        );
        gaea_raster::kmeans_classify(&stack, 12, iters, seed).map_err(|e| err("kmeans", e))?;
        us = [
            time_us(21, || gaea_raster::kmeans_classify(&stack, 12, iters, seed)),
            time_us(101, || gaea_raster::ndvi(&d0[3], &d0[4])),
            time_us(101, || gaea_raster::pca(&[&n0, &n1])),
            time_us(101, || gaea_raster::composite(&tm)),
        ];
        // Input pixels per second over one call of each kernel.
        let px = (crate::gen::SCENE_PX * crate::gen::SCENE_PX) as f64;
        let pixels = px * (3.0 + 2.0 + 2.0 + 3.0);
        mpix_per_s = pixels / us.iter().sum::<f64>();
    }
    for (name, v) in [
        "raster.kmeans_us",
        "raster.ndvi_us",
        "raster.pca_us",
        "raster.composite_us",
    ]
    .iter()
    .zip(us)
    {
        out.push((name.to_string(), v, "us".into()));
    }
    out.push(("raster.mpix_per_s".into(), mpix_per_s, "Mpx/s".into()));
    Ok(())
}

/// Every probe metric, in `BENCHMARK.json` order. `dir` holds the
/// replay's database; the durability probe rewrites it.
pub fn run(
    workload: Workload,
    plan: &Plan,
    dir: &Path,
    record_bytes: usize,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let scenes = match &plan.data {
        Dataset::Scenes(sc) => Some(sc),
        Dataset::Stations(_) => None,
    };
    let writes = workload != Workload::CatalogRead;
    {
        let g = Gaea::open(dir).map_err(|e| err("open", e))?;
        publication(&g, &mut out);
        access_paths(
            &g,
            &Stations::FULL,
            workload == Workload::CatalogRead,
            &mut out,
        )?;
        planner(&g, scenes.is_some(), &mut out)?;
        g.close().map_err(|e| err("close", e))?;
    }
    wal(dir, record_bytes, writes, &mut out)?;
    let tuple = match scenes {
        None => Tuple::new(
            Stations::FULL
                .attrs(4242)
                .into_iter()
                .map(|(_, v)| v)
                .collect(),
        ),
        Some(sc) => Tuple::new(vec![
            Value::image(sc.bands(0, 0).swap_remove(3)),
            Value::GeoBox(sc.tile_box(0)),
            Value::AbsTime(sc.date(0, 0)),
        ]),
    };
    codec(&tuple, writes, &mut out)?;
    durability(dir, plan, &mut out)?;
    raster(scenes, &mut out)?;
    Ok(out)
}
