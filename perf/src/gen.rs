//! Seeded data layouts, statement streams and the closed-form oracle.
//!
//! Everything here is a pure function of the seed and the sizes: the
//! same seed gives a byte-identical stream, a different seed gives
//! different keys in the same shape (the count of every statement kind
//! is fixed, only the order and the keys move). The program under test
//! never sees the seed — only the generated statements.

use gaea_adt::{AbsTime, GeoBox, Image, PixType, Value};
use gaea_core::QueryMethod;
use gaea_workload::scene::{SceneSpec, SyntheticScene};

// ---------------------------------------------------------------- rng

/// SplitMix64: tiny, seedable, and owned by the benchmark so a change
/// to the vendored `rand` cannot move the streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

// ------------------------------------------------------------ streams

/// What a statement is, for the mix and for the latency classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `v = k`: one row through the ordered index.
    Point,
    /// `site = k`: every row of one site, all attributes (wire-heavy).
    Site,
    /// `reading > x`: 10–50 rows, no index.
    Range,
    /// `WITHIN` window through the grid, two attributes projected.
    Window,
    /// `ORDER BY v DESC LIMIT 20`.
    TopN,
    Insert,
    Update,
    /// `… DERIVE` that fires at least one process.
    Fired,
    /// `… DERIVE` answered from managed derived data.
    Reuse,
    /// `RETRIEVE *` of one derived image.
    Fetch,
    /// `Update` of a source band (makes its dependents stale).
    BandUpdate,
    /// `… FRESH` on a stale dependent.
    Fresh,
    /// `… DERIVE ASYNC` followed by `AwaitJob`.
    Async,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Retrieve(String),
    /// Insert into `station`.
    Insert(Vec<(String, Value)>),
    /// Set `reading` of the seeded station with this index.
    UpdateStation {
        index: usize,
        reading: f64,
    },
    /// Replace the `data` of tile's first-date `avhrr_nir` band.
    UpdateBand {
        tile: usize,
        image: Value,
    },
    /// Submit the statement, then await the job it names.
    Async(String),
}

/// The closed-form answer to a statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    pub method: QueryMethod,
    pub rows: usize,
    pub tasks: usize,
    pub stale: usize,
    /// An attribute of the first returned object.
    pub sample: Option<(&'static str, Value)>,
}

impl Expect {
    fn retrieved(rows: usize) -> Expect {
        Expect {
            method: QueryMethod::Retrieved,
            rows,
            tasks: 0,
            stale: 0,
            sample: None,
        }
    }

    fn with_sample(mut self, attr: &'static str, value: Value) -> Expect {
        self.sample = Some((attr, value));
        self
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub kind: Kind,
    pub op: Op,
    /// `None` for mutators, whose acknowledgement is the answer (they
    /// are checked again after the reopen).
    pub expect: Option<Expect>,
}

/// `total` statements in exact shares (parts of `shares` sum), shuffled.
fn mix(rng: &mut Rng, total: usize, shares: &[(Kind, usize)]) -> Vec<Kind> {
    let parts: usize = shares.iter().map(|(_, s)| s).sum();
    let mut kinds = Vec::with_capacity(total);
    for (kind, share) in shares {
        kinds.extend(std::iter::repeat_n(*kind, total * share / parts));
    }
    // Rounding remainder goes to the first kind, so the total is exact.
    while kinds.len() < total {
        kinds.push(shares[0].0);
    }
    rng.shuffle(&mut kinds);
    kinds
}

// ----------------------------------------------------------- stations

/// The `station` class: `n` tuples laid out on a `cols`-wide grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stations {
    pub n: usize,
    pub sites: usize,
    pub cols: usize,
}

pub const STATION_CLASS: &str = "station";
const TOP_N: usize = 20;
const WINDOW: usize = 10;
/// Statements in one `mixed_rw` cycle: a write, then the reads.
pub const MIXED_CYCLE: usize = 5;

impl Stations {
    /// The benchmark's database: 100 k tuples, 500 sites of 200 rows.
    pub const FULL: Stations = Stations {
        n: 100_000,
        sites: 500,
        cols: 1000,
    };

    pub fn rows_per_site(&self) -> usize {
        self.n / self.sites
    }

    pub fn reading(&self, i: usize) -> f64 {
        i as f64 + 0.25
    }

    /// The five attributes of station `i`.
    pub fn attrs(&self, i: usize) -> Vec<(&'static str, Value)> {
        let (x, y) = ((i % self.cols) as f64, (i / self.cols) as f64);
        vec![
            ("v", Value::Int4(i as i32)),
            ("site", Value::Int4((i % self.sites) as i32)),
            ("reading", Value::Float8(self.reading(i))),
            (
                "spatialextent",
                Value::GeoBox(GeoBox::new(x, y, x + 0.5, y + 0.5)),
            ),
            (
                "timestamp",
                Value::AbsTime(AbsTime(500_000_000 + i as i64 * 60)),
            ),
        ]
    }

    fn read(&self, rng: &mut Rng, kind: Kind) -> Stmt {
        let (src, expect) = match kind {
            Kind::Point => {
                let k = rng.below(self.n);
                (
                    format!("RETRIEVE * FROM station WHERE v = {k}"),
                    // `site` never changes; `reading` is what updates write.
                    Expect::retrieved(1).with_sample("site", Value::Int4((k % self.sites) as i32)),
                )
            }
            Kind::Site => {
                let k = rng.below(self.sites);
                (
                    format!("RETRIEVE * FROM station WHERE site = {k}"),
                    Expect::retrieved(self.rows_per_site())
                        .with_sample("site", Value::Int4(k as i32)),
                )
            }
            Kind::Range => {
                let m = 10 + rng.below(41);
                (
                    format!("RETRIEVE * FROM station WHERE reading > {}.0", self.n - m),
                    Expect::retrieved(m),
                )
            }
            Kind::Window => {
                let x0 = rng.below(self.cols - WINDOW) as f64;
                let y0 = rng.below(self.n / self.cols - WINDOW) as f64;
                let w = WINDOW as f64;
                (
                    format!(
                        "RETRIEVE v, reading FROM station WHERE WITHIN({}, {}, {}, {})",
                        x0 - 0.25,
                        y0 - 0.25,
                        x0 + w - 0.25,
                        y0 + w - 0.25
                    ),
                    Expect::retrieved(WINDOW * WINDOW),
                )
            }
            Kind::TopN => (
                format!("RETRIEVE * FROM station ORDER BY v DESC LIMIT {TOP_N}"),
                Expect::retrieved(TOP_N).with_sample("v", Value::Int4(self.n as i32 - 1)),
            ),
            other => unreachable!("{other:?} is not a station read"),
        };
        Stmt {
            kind,
            op: Op::Retrieve(src),
            expect: Some(expect),
        }
    }

    /// Writes never move a read's answer: inserted tuples sit outside
    /// every queried key range and window, and updates only lower the
    /// `reading` of rows below every `reading >` range.
    fn write(&self, rng: &mut Rng, kind: Kind, seq: usize, key_base: usize) -> Stmt {
        let op = match kind {
            Kind::Insert => {
                let (x, y) = (5000.0 + (seq % 1000) as f64, 5000.0 + (seq / 1000) as f64);
                Op::Insert(vec![
                    ("v".into(), Value::Int4((key_base + seq) as i32)),
                    (
                        "site".into(),
                        Value::Int4((self.sites + rng.below(100)) as i32),
                    ),
                    ("reading".into(), Value::Float8(-1.0 - seq as f64)),
                    (
                        "spatialextent".into(),
                        Value::GeoBox(GeoBox::new(x, y, x + 0.5, y + 0.5)),
                    ),
                    (
                        "timestamp".into(),
                        Value::AbsTime(AbsTime(900_000_000 + seq as i64)),
                    ),
                ])
            }
            Kind::Update => Op::UpdateStation {
                index: rng.below(self.n - 100),
                reading: -0.5 - seq as f64,
            },
            other => unreachable!("{other:?} is not a station write"),
        };
        Stmt {
            kind,
            op,
            expect: None,
        }
    }

    /// `catalog_read`: reads only, five access paths.
    pub fn catalog_read(&self, seed: u64, n: usize) -> Vec<Stmt> {
        let mut rng = Rng::new(seed);
        let shares = [
            (Kind::Point, 40),
            (Kind::Site, 20),
            (Kind::Range, 15),
            (Kind::Window, 15),
            (Kind::TopN, 10),
        ];
        mix(&mut rng, n, &shares)
            .into_iter()
            .map(|k| self.read(&mut rng, k))
            .collect()
    }

    /// `mixed_rw`: one session, cycles of one write then four reads (the
    /// `catalog_read` mix minus the 200-row and `ORDER BY` statements).
    /// The read right after a write is the one that pins a fresh view.
    pub fn mixed_rw(&self, seed: u64, n: usize) -> Vec<Stmt> {
        let cycles = n.div_ceil(MIXED_CYCLE);
        let writes = self.writes(seed, cycles);
        let mut rng = Rng::new(seed ^ 0xA);
        let shares = [(Kind::Point, 40), (Kind::Range, 15), (Kind::Window, 15)];
        let mut reads = mix(&mut rng, cycles * (MIXED_CYCLE - 1), &shares).into_iter();
        let mut out = Vec::with_capacity(cycles * MIXED_CYCLE);
        for w in writes {
            out.push(w);
            for kind in reads.by_ref().take(MIXED_CYCLE - 1) {
                out.push(self.read(&mut rng, kind));
            }
        }
        out.truncate(n);
        out
    }

    /// `ingest_update` (and the writes of `mixed_rw`): 70 % inserts,
    /// 30 % updates of a seeded-random seeded station.
    pub fn writes(&self, seed: u64, n: usize) -> Vec<Stmt> {
        let mut rng = Rng::new(seed ^ 0xB);
        let key_base = 1_000_000 + rng.below(1_000_000) * 1000;
        let shares = [(Kind::Insert, 70), (Kind::Update, 30)];
        mix(&mut rng, n, &shares)
            .into_iter()
            .enumerate()
            .map(|(seq, k)| self.write(&mut rng, k, seq, key_base))
            .collect()
    }
}

// ------------------------------------------------------------- scenes

/// The derived classes `derive_science` asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Goal {
    /// `ndvi` at the tile's first (0) or second (1) date: one `P6`.
    Ndvi(usize),
    /// `land_cover` at the first date: 3×`P1` + `P20`.
    LandCover,
    /// `veg_change_pca` over the tile's two `ndvi`: one `P7`.
    VegChange,
}

/// A tile's four goals, in the order the firing statements ask them.
pub const GOALS: [Goal; 4] = [
    Goal::Ndvi(0),
    Goal::LandCover,
    Goal::Ndvi(1),
    Goal::VegChange,
];

/// What the oracle knows about one stored goal: how many objects
/// answer it and how many of those are flagged stale.
#[derive(Debug, Clone, Copy, Default)]
struct Stored {
    rows: usize,
    stale: usize,
}

/// The Figure-2 database: `tiles` disjoint spatial tiles, each with two
/// scene dates of three `landsat_tm` bands, `avhrr_nir` and `avhrr_red`
/// at `SCENE_PX`² (8-bit, like Landsat TM digital numbers).
///
/// Tiles, not only dates, tell scenes apart on purpose: the planner's
/// marking and the bind stage's candidate pools are cut by the query's
/// spatial window, so a `WITHIN(tile)` statement plans and binds inside
/// its own scene whatever else is stored.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenes {
    pub seed: u64,
    /// Tiles whose four goals set-up derives and stores.
    pub reuse_tiles: usize,
    /// Tiles whose goals the stream's firing statements derive, in order.
    pub fire_tiles: usize,
    /// Tiles whose `ndvi` goals the `ASYNC` statements derive.
    pub async_tiles: usize,
}

pub const SCENE_PX: u32 = 64;
const BANDS_PER_DATE: usize = 5;

impl Scenes {
    /// Sized for `warm` warm-up statements and then `n` timed ones.
    pub fn for_stream(seed: u64, warm: usize, n: usize) -> Scenes {
        let total = warm + n;
        Scenes {
            seed,
            // One update/refresh cycle per reuse tile, at most.
            reuse_tiles: (total / 20 + 1).max(4),
            fire_tiles: (total / 4).div_ceil(GOALS.len()) + 1,
            async_tiles: (total / 20).div_ceil(2) + 1,
        }
    }

    pub fn tiles(&self) -> usize {
        self.reuse_tiles + self.fire_tiles + self.async_tiles
    }

    /// Tiles sit on a 10-unit grid whose origin moves with the seed.
    pub fn tile_box(&self, tile: usize) -> GeoBox {
        let slot = tile + (self.seed % 7919) as usize;
        let (x, y) = ((slot % 100) as f64 * 10.0, (slot / 100) as f64 * 10.0);
        GeoBox::new(x, y, x + 8.0, y + 8.0)
    }

    pub fn date(&self, tile: usize, d: usize) -> AbsTime {
        AbsTime::from_ymd(1986, 1, 1)
            .expect("a valid date")
            .plus_days((tile % 28) as i64 + 31 * d as i64)
    }

    /// The five 8-bit bands of one scene date: three `landsat_tm`, then
    /// `avhrr_nir`, then `avhrr_red`.
    pub fn bands(&self, tile: usize, d: usize) -> Vec<Image> {
        let spec = SceneSpec {
            extent: self.tile_box(tile),
            seed: self.seed ^ ((tile * 2 + d) as u64).wrapping_mul(0x9E37_79B9),
            ..SceneSpec::small(0)
                .sized(SCENE_PX, SCENE_PX)
                .with_bands(BANDS_PER_DATE)
        };
        SyntheticScene::generate(spec)
            .bands
            .iter()
            .map(|b| b.map(PixType::Char, |v| v))
            .collect()
    }

    fn within(&self, tile: usize) -> String {
        let b = self.tile_box(tile);
        format!(
            "WITHIN({}, {}, {}, {})",
            b.xmin - 0.5,
            b.ymin - 0.5,
            b.xmax + 0.5,
            b.ymax + 0.5
        )
    }

    /// `RETRIEVE <metadata> FROM <goal class> WHERE <tile> [AND AT <date>]`.
    /// `land_cover` is asked at the first date only: once a tile holds
    /// `rectified_tm` for one date the planner fires `P20` over those,
    /// and a second date answers "Derived: not applicable" on the seed.
    fn select(&self, tile: usize, goal: Goal, star: bool) -> String {
        let (class, meta, date) = match goal {
            Goal::Ndvi(d) => ("ndvi", "timestamp", Some(d)),
            Goal::LandCover => ("land_cover", "numclass, timestamp", Some(0)),
            Goal::VegChange => ("veg_change_pca", "timestamp", None),
        };
        let proj = if star { "*" } else { meta };
        let at = date.map_or(String::new(), |d| {
            format!(" AND AT {}", self.date(tile, d).0)
        });
        format!(
            "RETRIEVE {proj} FROM {class} WHERE {}{at}",
            self.within(tile)
        )
    }

    /// The `… DERIVE` statement set-up runs to store a reuse tile's goal.
    pub fn derive_src(&self, tile: usize, goal: Goal) -> String {
        format!("{} DERIVE", self.select(tile, goal, false))
    }

    fn sample(&self, tile: usize, goal: Goal) -> Option<(&'static str, Value)> {
        match goal {
            Goal::Ndvi(d) => Some(("timestamp", Value::AbsTime(self.date(tile, d)))),
            Goal::LandCover => Some(("numclass", Value::Int4(12))),
            // `veg_change_pca` takes its timestamp from any one input.
            Goal::VegChange => None,
        }
    }

    /// `derive_science`: the paper's loop over managed derived data.
    /// Returns `warm` warm-up and `n` timed statements as one stream;
    /// both counts are multiples of 20.
    pub fn derive_science(&self, warm: usize, n: usize) -> Vec<Stmt> {
        let mut rng = Rng::new(self.seed ^ 0xD);
        let shares = [
            (Kind::Reuse, 50),
            (Kind::Fired, 25),
            (Kind::Fetch, 10),
            (Kind::BandUpdate, 5),
            (Kind::Fresh, 5),
            (Kind::Async, 5),
        ];
        // Warm-up and timed part each carry the exact mix.
        let mut kinds = mix(&mut rng, warm, &shares);
        kinds.extend(mix(&mut rng, n, &shares));

        let mut stored = vec![[Stored { rows: 1, stale: 0 }; 4]; self.reuse_tiles];
        let slot = |goal: Goal| GOALS.iter().position(|g| *g == goal).expect("a goal");
        // The next goal of the firing and the async tiles, in order.
        let (mut next_fire, mut next_async) = (0usize, 0usize);
        // Reuse tiles not yet updated, and those awaiting their FRESH.
        let mut fresh_tiles: Vec<usize> = (0..self.reuse_tiles).collect();
        rng.shuffle(&mut fresh_tiles);
        let mut awaiting: std::collections::VecDeque<usize> = Default::default();

        let mut out = Vec::with_capacity(kinds.len());
        for kind in kinds {
            // A FRESH needs an update before it: the two kinds take
            // turns, so their counts stay equal and every refresh finds
            // its stale object.
            let kind = match kind {
                Kind::BandUpdate | Kind::Fresh if awaiting.is_empty() => Kind::BandUpdate,
                Kind::BandUpdate | Kind::Fresh => Kind::Fresh,
                k => k,
            };
            let stmt = match kind {
                Kind::Reuse | Kind::Fetch => {
                    let tile = rng.below(self.reuse_tiles);
                    let goal = match kind {
                        Kind::Reuse => GOALS[rng.below(GOALS.len())],
                        // Fetch one float image: an `ndvi` composite.
                        _ => Goal::Ndvi(rng.below(2)),
                    };
                    let s = stored[tile][slot(goal)];
                    let star = kind == Kind::Fetch;
                    let mut src = self.select(tile, goal, star);
                    if !star {
                        src.push_str(" DERIVE");
                    }
                    Stmt {
                        kind,
                        op: Op::Retrieve(src),
                        expect: Some(Expect {
                            stale: s.stale,
                            sample: self.sample(tile, goal),
                            ..Expect::retrieved(s.rows)
                        }),
                    }
                }
                Kind::Fired => {
                    let tile = self.reuse_tiles + next_fire / GOALS.len();
                    let goal = GOALS[next_fire % GOALS.len()];
                    next_fire += 1;
                    assert!(
                        tile < self.reuse_tiles + self.fire_tiles,
                        "fire tiles ran out"
                    );
                    Stmt {
                        kind,
                        op: Op::Retrieve(self.derive_src(tile, goal)),
                        expect: Some(Expect {
                            method: QueryMethod::Derived,
                            rows: 1,
                            tasks: if goal == Goal::LandCover { 4 } else { 1 },
                            stale: 0,
                            sample: self.sample(tile, goal),
                        }),
                    }
                }
                Kind::Async => {
                    let tile = self.reuse_tiles + self.fire_tiles + next_async / 2;
                    let goal = Goal::Ndvi(next_async % 2);
                    next_async += 1;
                    assert!(tile < self.tiles(), "async tiles ran out");
                    Stmt {
                        kind,
                        op: Op::Async(format!("{} DERIVE ASYNC", self.select(tile, goal, false))),
                        expect: Some(Expect {
                            method: QueryMethod::Submitted,
                            rows: 0,
                            tasks: 0,
                            stale: 0,
                            sample: None,
                        }),
                    }
                }
                Kind::BandUpdate => {
                    let tile = fresh_tiles.pop().expect("reuse tiles ran out");
                    awaiting.push_back(tile);
                    // The first-date ndvi and the change map built on it
                    // are stale from here on.
                    for goal in [Goal::Ndvi(0), Goal::VegChange] {
                        let s = &mut stored[tile][slot(goal)];
                        s.stale = s.rows;
                    }
                    let image = self.bands(tile + self.tiles(), 0).swap_remove(3);
                    Stmt {
                        kind,
                        op: Op::UpdateBand {
                            tile,
                            image: Value::image(image),
                        },
                        expect: None,
                    }
                }
                Kind::Fresh => {
                    let tile = awaiting.pop_front().expect("checked above");
                    // The refresh stores a second, current ndvi beside
                    // the stale one, which stays as history.
                    stored[tile][slot(Goal::Ndvi(0))] = Stored { rows: 2, stale: 1 };
                    Stmt {
                        kind,
                        op: Op::Retrieve(format!(
                            "{} FRESH",
                            self.select(tile, Goal::Ndvi(0), false)
                        )),
                        expect: Some(Expect {
                            tasks: 1,
                            sample: self.sample(tile, Goal::Ndvi(0)),
                            ..Expect::retrieved(1)
                        }),
                    }
                }
                other => unreachable!("{other:?} is not in the derive mix"),
            };
            out.push(stmt);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(stream: &[Stmt], kind: Kind) -> usize {
        stream.iter().filter(|s| s.kind == kind).count()
    }

    #[test]
    fn the_same_seed_gives_a_byte_identical_stream() {
        let st = Stations::FULL;
        for (a, b) in [
            (st.catalog_read(7, 500), st.catalog_read(7, 500)),
            (st.writes(7, 500), st.writes(7, 500)),
            (st.mixed_rw(7, 500), st.mixed_rw(7, 500)),
        ] {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        let sc = Scenes::for_stream(7, 40, 100);
        assert_eq!(
            format!("{:?}", sc.derive_science(40, 100)),
            format!("{:?}", sc.derive_science(40, 100))
        );
        assert_eq!(sc.bands(3, 1), sc.bands(3, 1));
    }

    #[test]
    fn another_seed_moves_the_keys_but_not_the_shape() {
        let st = Stations::FULL;
        let (a, b) = (st.catalog_read(1, 1000), st.catalog_read(2, 1000));
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
        for kind in [
            Kind::Point,
            Kind::Site,
            Kind::Range,
            Kind::Window,
            Kind::TopN,
        ] {
            assert_eq!(count(&a, kind), count(&b, kind), "{kind:?}");
        }
        assert_eq!(count(&a, Kind::Point), 400);
        assert_eq!(count(&a, Kind::TopN), 100);

        let (a, b) = (st.writes(1, 1000), st.writes(2, 1000));
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(count(&a, Kind::Insert), 700);
        assert_eq!(count(&b, Kind::Update), 300);

        let (warm, n) = (200, 400);
        let a = Scenes::for_stream(1, warm, n).derive_science(warm, n);
        let b = Scenes::for_stream(2, warm, n).derive_science(warm, n);
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
        for (kind, share) in [(Kind::Reuse, 50), (Kind::Fired, 25), (Kind::Async, 5)] {
            assert_eq!(count(&a, kind), (warm + n) * share / 100, "{kind:?}");
            assert_eq!(count(&a, kind), count(&b, kind), "{kind:?}");
        }
        // Updates and refreshes pair up, whatever order the mix drew.
        assert_eq!(count(&a, Kind::BandUpdate), count(&a, Kind::Fresh));
        assert_eq!(count(&a, Kind::BandUpdate), (warm + n) / 20);
    }

    #[test]
    fn every_refresh_follows_its_update() {
        let sc = Scenes::for_stream(5, 40, 200);
        let mut pending = 0usize;
        for s in sc.derive_science(40, 200) {
            match s.kind {
                Kind::BandUpdate => pending += 1,
                Kind::Fresh => pending = pending.checked_sub(1).expect("a refresh with no update"),
                _ => {}
            }
        }
    }
}
