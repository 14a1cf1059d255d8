//! Seeding the databases, reopening them, and the durability checks.

use crate::gen::{Goal, Scenes, Stations, GOALS, STATION_CLASS};
use gaea_adt::{TypeTag, Value};
use gaea_core::kernel::{ClassSpec, DurabilityOptions, Gaea};
use gaea_core::{KernelError, KernelResult, ObjectId, QueryOutcome, TaskId};
use gaea_lang::compile_query;
use gaea_store::Oid;
use gaea_workload::figure2::build_figure2_schema;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// What the streams need to know about a seeded database.
#[derive(Debug, Clone, Default)]
pub struct Seeded {
    /// OID of seeded station `i`.
    pub station_oids: Vec<u64>,
    /// OID of each tile's first-date `avhrr_nir` band.
    pub nir_oids: Vec<u64>,
    /// A statement exactly one stored object always answers: the
    /// reopen's "first correct query".
    pub probe: String,
}

/// The database either workload family runs against.
#[derive(Debug, Clone)]
pub enum Dataset {
    Stations(Stations),
    Scenes(Scenes),
}

/// Bulk-load settings: no automatic snapshots and no per-event fsync
/// while seeding — the closing `checkpoint` makes the load durable.
fn bulk() -> DurabilityOptions {
    DurabilityOptions {
        snapshot_every: 0,
        fsync_every: u64::MAX,
        ..DurabilityOptions::default()
    }
}

/// The flush policy of every measured kernel: the program's defaults
/// (binary codec, snapshot every 1024 events on the background
/// compactor) with group commit — one fsync per 1024 events, plus the
/// ones every snapshot and the closing flush make. A per-event fsync in
/// this sandbox costs 150–300 µs and drifts twofold within minutes,
/// which would bury the commit path (≈15 µs) under the disk's mood.
pub fn serve_options() -> DurabilityOptions {
    DurabilityOptions {
        fsync_every: 1024,
        ..DurabilityOptions::default()
    }
}

/// Open a seeded directory the way the measured server does.
pub fn open_served(dir: &Path) -> Result<Gaea, String> {
    Gaea::open_with(dir, serve_options()).map_err(|e| format!("open {dir:?}: {e}"))
}

/// Run one statement on an embedded kernel (set-up and the checks after
/// a reopen; the timed statements go over the wire).
pub fn query(g: &mut Gaea, src: &str) -> KernelResult<QueryOutcome> {
    let q = compile_query(g.catalog(), src)?;
    g.query(&q)
}

impl Dataset {
    /// Bulk-load into `dir`, checkpoint, close. The caller reopens with
    /// the program's defaults.
    pub fn seed(&self, dir: &Path) -> KernelResult<Seeded> {
        let mut g = Gaea::open_with(dir, bulk())?;
        let seeded = match self {
            Dataset::Stations(st) => seed_stations(&mut g, st)?,
            Dataset::Scenes(sc) => seed_scenes(&mut g, sc)?,
        };
        g.checkpoint()?;
        g.close()?;
        Ok(seeded)
    }
}

pub fn seed_stations(g: &mut Gaea, st: &Stations) -> KernelResult<Seeded> {
    g.define_class(
        ClassSpec::base(STATION_CLASS)
            .attr("v", TypeTag::Int4)
            .attr("site", TypeTag::Int4)
            .attr("reading", TypeTag::Float8),
    )?;
    let mut station_oids = Vec::with_capacity(st.n);
    for i in 0..st.n {
        station_oids.push(g.insert_object(STATION_CLASS, st.attrs(i))?.raw());
    }
    // Declared after the load, so the grid's cell size is tuned to the
    // stored extents. `site` and `reading` stay unindexed.
    g.define_index(STATION_CLASS, "v")?;
    g.define_index(STATION_CLASS, "spatialextent")?;
    Ok(Seeded {
        station_oids,
        probe: "RETRIEVE * FROM station WHERE v = 777".into(),
        ..Seeded::default()
    })
}

pub fn seed_scenes(g: &mut Gaea, sc: &Scenes) -> KernelResult<Seeded> {
    build_figure2_schema(g)?;
    let mut nir_oids = Vec::with_capacity(sc.tiles());
    for tile in 0..sc.tiles() {
        for d in 0..2 {
            for (b, image) in sc.bands(tile, d).into_iter().enumerate() {
                let class = match b {
                    0..=2 => "landsat_tm",
                    3 => "avhrr_nir",
                    _ => "avhrr_red",
                };
                let oid = g.insert_object(
                    class,
                    vec![
                        ("data", Value::image(image)),
                        ("spatialextent", Value::GeoBox(sc.tile_box(tile))),
                        ("timestamp", Value::AbsTime(sc.date(tile, d))),
                    ],
                )?;
                if (b, d) == (3, 0) {
                    nir_oids.push(oid.raw());
                }
            }
        }
    }
    // Every statement is cut by its tile's window: give each class it
    // scans a grid up front, so no statement of the timed stream pays
    // for the optimizer building one.
    for class in [
        "landsat_tm",
        "avhrr_nir",
        "avhrr_red",
        "rectified_tm",
        "ndvi",
        "land_cover",
        "veg_change_pca",
    ] {
        g.define_index(class, "spatialextent")?;
    }
    // Managed derived data the stream's reuse statements are answered
    // from.
    for tile in 0..sc.reuse_tiles {
        for goal in GOALS {
            let out = query(g, &sc.derive_src(tile, goal))?;
            if out.tasks.is_empty() {
                return Err(KernelError::Schema(format!(
                    "set-up: tile {tile} {goal:?} did not derive"
                )));
            }
        }
    }
    // The second-date ndvi of tile 0 is never updated or refreshed.
    let probe = sc.derive_src(0, Goal::Ndvi(1));
    Ok(Seeded {
        nir_oids,
        probe,
        ..Seeded::default()
    })
}

/// `Gaea::open(dir)` → first correct query, in seconds.
pub fn timed_reopen(dir: &Path, seeded: &Seeded) -> Result<(Gaea, f64), String> {
    let t0 = Instant::now();
    let mut g = Gaea::open(dir).map_err(|e| format!("reopen: {e}"))?;
    let out = query(&mut g, &seeded.probe).map_err(|e| format!("first query after reopen: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    if out.objects.len() != 1 {
        return Err(format!(
            "first query after reopen: {} rows, wanted 1",
            out.objects.len()
        ));
    }
    Ok((g, secs))
}

/// Everything the wire run was acknowledged for, to be found again
/// after the reopen.
#[derive(Debug, Default)]
pub struct Acked {
    pub inserts: usize,
    /// Station index → the last acknowledged `reading`.
    pub readings: BTreeMap<usize, f64>,
    /// Tile → the last acknowledged first-date `avhrr_nir` image.
    pub bands: BTreeMap<usize, Value>,
    /// Every task and object a reply recorded.
    pub tasks: Vec<TaskId>,
    pub objects: Vec<ObjectId>,
}

impl Acked {
    /// The durability check: returns one line per missing or wrong
    /// item (empty = everything acknowledged is there).
    pub fn verify(&self, g: &Gaea, data: &Dataset, seeded: &Seeded) -> Vec<String> {
        let mut wrong = Vec::new();
        if let Dataset::Stations(st) = data {
            match g.count_objects(STATION_CLASS) {
                Ok(n) if n == st.n + self.inserts => {}
                other => wrong.push(format!(
                    "station count {other:?}, wanted {} seeded + {} acknowledged inserts",
                    st.n, self.inserts
                )),
            }
        }
        let attr_of = |oid: u64, attr: &str| {
            g.object(ObjectId(Oid(oid)))
                .ok()
                .and_then(|o| o.attr(attr).cloned())
        };
        for (index, reading) in &self.readings {
            let got = attr_of(seeded.station_oids[*index], "reading");
            if got != Some(Value::Float8(*reading)) {
                wrong.push(format!(
                    "station {index}: reading {got:?}, wanted {reading}"
                ));
            }
        }
        for (tile, image) in &self.bands {
            if attr_of(seeded.nir_oids[*tile], "data").as_ref() != Some(image) {
                wrong.push(format!("tile {tile}: updated band did not read back"));
            }
        }
        for t in &self.tasks {
            if g.task(*t).is_err() {
                wrong.push(format!("task {t} recorded in a reply is gone"));
            }
        }
        for o in &self.objects {
            if g.object(*o).is_err() {
                wrong.push(format!("object {o} returned in a reply is gone"));
            }
        }
        wrong
    }
}

/// Bytes under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
