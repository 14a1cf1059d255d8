//! Cost-based access-path selection for class-extent scans.
//!
//! Every step-1 retrieval and every query's token pool (the planner's
//! marking and the binder's candidates) scans one class extent under a
//! conjunctive predicate.
//! This module is the optimizer between that predicate and the store:
//! it prices each indexable conjunct against the relation's maintained
//! [`gaea_store::TableStats`] (equality → rows/distinct, ranges →
//! min/max interpolation, spatial windows → grid-cell occupancy), drives
//! the scan from the cheapest candidate, and re-applies the *full*
//! compiled predicate to every candidate tuple — the driving path only
//! narrows, so indexed and heap scans return identical answers by
//! construction. The chosen path is surfaced as a
//! [`crate::query::ScanPlan`] on the outcome (EXPLAIN output).
//!
//! Indexes are created on demand: once a class extent crosses
//! [`AUTO_INDEX_THRESHOLD`] rows, the predicate-hot attributes of an
//! incoming query get ordered indexes (spatial extents get a uniform
//! grid, tuned by `gaea_raster::suggest_cell_size`) — or explicitly, via
//! the `DEFINE INDEX attr ON class` DDL.

use super::Gaea;
use crate::error::KernelResult;
use crate::event::Event;
use crate::ids::ObjectId;
use crate::object::TEMPORAL_ATTR;
use crate::query::{AccessPath, Query, ScanPlan};
use crate::schema::ClassDef;
use gaea_adt::{AbsTime, GeoBox, Value};
use gaea_store::{Oid, Predicate, Relation};

/// Extents smaller than this stay full-scan even for predicate-hot
/// attributes: below it a heap walk beats index maintenance, and the
/// seed suite's small fixtures keep their storage-order answers.
pub const AUTO_INDEX_THRESHOLD: u64 = 256;

/// How many extents the auto-grid samples to tune its cell size.
const GRID_SAMPLE: usize = 512;

/// One scan the optimizer planned: the EXPLAIN record plus the driving
/// candidate set (`None` = walk the heap).
pub(crate) struct PlannedScan {
    /// The chosen path and its cost estimate.
    pub plan: ScanPlan,
    /// Driving candidate OIDs. May over-approximate; the caller must
    /// re-filter every candidate with the full predicate.
    pub oids: Option<Vec<Oid>>,
}

/// A priced driving-path candidate, cheap to enumerate (no OID lists
/// are materialized until one wins).
enum Candidate {
    Eq {
        pos: usize,
        attr: String,
        value: Value,
    },
    Range {
        pos: usize,
        attr: String,
        lo: Option<Value>,
        hi: Option<Value>,
    },
    Grid {
        pos: usize,
        attr: String,
        window: GeoBox,
    },
}

impl Candidate {
    fn cost(&self, rel: &Relation) -> u64 {
        match self {
            Candidate::Eq { pos, .. } => rel.stats().eq_estimate(*pos),
            Candidate::Range { pos, lo, hi, .. } => {
                rel.stats().range_estimate(*pos, lo.as_ref(), hi.as_ref())
            }
            Candidate::Grid { pos, window, .. } => rel
                .grid_for(*pos)
                .map_or(rel.stats().rows, |g| g.probe_estimate(window) as u64),
        }
    }

    fn path(&self) -> AccessPath {
        match self {
            Candidate::Eq { attr, .. } => AccessPath::IndexEq { attr: attr.clone() },
            Candidate::Range { attr, .. } => AccessPath::IndexRange { attr: attr.clone() },
            Candidate::Grid { attr, .. } => AccessPath::GridProbe { attr: attr.clone() },
        }
    }

    fn materialize(&self, rel: &Relation) -> Vec<Oid> {
        match self {
            Candidate::Eq { pos, value, .. } => rel
                .index_for(*pos)
                .map(|idx| idx.lookup(value).to_vec())
                .unwrap_or_default(),
            Candidate::Range { pos, lo, hi, .. } => rel
                .index_for(*pos)
                .map(|idx| idx.range(lo.as_ref(), hi.as_ref()))
                .unwrap_or_default(),
            Candidate::Grid { pos, window, .. } => rel
                .grid_for(*pos)
                .map(|g| g.probe(window))
                .unwrap_or_default(),
        }
    }
}

/// Enumerate the indexable driving-path candidates of a conjunctive
/// predicate against one relation. Only conjuncts whose column carries
/// an index (or grid) qualify; everything else stays residual.
fn candidates(rel: &Relation, pred: &Predicate) -> Vec<Candidate> {
    let mut out = Vec::new();
    for conjunct in pred.conjuncts() {
        match conjunct {
            Predicate::Eq(col, v) => {
                if let Ok(pos) = rel.schema().position(col) {
                    if rel.index_for(pos).is_some() {
                        out.push(Candidate::Eq {
                            pos,
                            attr: col.clone(),
                            value: v.clone(),
                        });
                    }
                }
            }
            // Inclusive index ranges over-approximate the strict Lt/Gt
            // (and may sweep in Null keys, which sort first); the
            // residual re-check makes the answer exact.
            Predicate::Lt(col, v) => {
                if let Ok(pos) = rel.schema().position(col) {
                    if rel.index_for(pos).is_some() {
                        out.push(Candidate::Range {
                            pos,
                            attr: col.clone(),
                            lo: None,
                            hi: Some(v.clone()),
                        });
                    }
                }
            }
            Predicate::Gt(col, v) => {
                if let Ok(pos) = rel.schema().position(col) {
                    if rel.index_for(pos).is_some() {
                        out.push(Candidate::Range {
                            pos,
                            attr: col.clone(),
                            lo: Some(v.clone()),
                            hi: None,
                        });
                    }
                }
            }
            Predicate::TimeIn(col, range) => {
                if let Ok(pos) = rel.schema().position(col) {
                    if rel.index_for(pos).is_some() {
                        out.push(Candidate::Range {
                            pos,
                            attr: col.clone(),
                            lo: Some(Value::AbsTime(range.start)),
                            hi: Some(Value::AbsTime(range.end)),
                        });
                    }
                }
            }
            Predicate::BoxOverlaps(col, window) => {
                if let Ok(pos) = rel.schema().position(col) {
                    if rel.grid_for(pos).is_some() {
                        out.push(Candidate::Grid {
                            pos,
                            attr: col.clone(),
                            window: *window,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Plan one relation scan: price every indexable conjunct, drive from
/// the cheapest, fall back to the heap. Exposed on the relation level so
/// retrieval and token pools share it.
pub(crate) fn plan_relation_scan(rel: &Relation, class: &str, pred: &Predicate) -> PlannedScan {
    let rows = rel.stats().rows;
    let best = candidates(rel, pred)
        .into_iter()
        .map(|c| (c.cost(rel), c))
        .min_by_key(|(cost, _)| *cost);
    match best {
        Some((cost, cand)) if cost < rows => PlannedScan {
            plan: ScanPlan {
                class: class.to_string(),
                path: cand.path(),
                estimated_rows: cost,
            },
            oids: Some(cand.materialize(rel)),
        },
        _ => PlannedScan {
            plan: ScanPlan {
                class: class.to_string(),
                path: AccessPath::FullScan,
                estimated_rows: rows,
            },
            oids: None,
        },
    }
}

/// Plan and run one class-extent scan against any database — the live
/// store or a [`gaea_store::PinnedStore`] view — returning matching OIDs
/// in ascending order plus the EXPLAIN record. Indexed paths re-filter
/// every candidate with the full compiled predicate, so the answer set
/// is identical to a heap scan's.
pub(crate) fn scan_class(
    db: &gaea_store::Database,
    def: &ClassDef,
    pred: &Predicate,
) -> KernelResult<(Vec<Oid>, ScanPlan)> {
    let rel = db.relation(&def.relation_name())?;
    let planned = plan_relation_scan(rel, &def.name, pred);
    let oids = match planned.oids {
        Some(cands) => {
            let compiled = pred.compile(rel.schema())?;
            let mut out: Vec<Oid> = cands
                .into_iter()
                .filter(|oid| rel.get(*oid).map(|t| compiled.matches(t)).unwrap_or(false))
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        }
        None => {
            let mut out = rel.scan_oids(pred)?;
            // Heap order is storage order; normalize to OID order so
            // every path answers identically.
            out.sort_unstable();
            out
        }
    };
    Ok((oids, planned.plan))
}

/// A stored object and its timestamp: one token of a query's pool.
pub(crate) type Token = (ObjectId, Option<AbsTime>);

/// [`scan_class`] answering [`Token`]s: each hit's timestamp is read
/// straight off its tuple, so no `DataObject` is built.
pub(crate) fn scan_tokens(
    db: &gaea_store::Database,
    def: &ClassDef,
    pred: &Predicate,
) -> KernelResult<Vec<Token>> {
    let rel = db.relation(&def.relation_name())?;
    let ts = rel.schema().position(TEMPORAL_ATTR).ok();
    let (oids, _plan) = scan_class(db, def, pred)?;
    oids.into_iter()
        .map(|oid| {
            let stamp = match ts {
                Some(pos) => rel.get(oid)?.get(pos).as_abstime(),
                None => None,
            };
            Ok((ObjectId(oid), stamp))
        })
        .collect()
}

impl Gaea {
    /// Auto-create access paths for a query's predicate-hot attributes
    /// on every large-enough target class: ordered indexes for
    /// equality/range/temporal conjuncts and `ORDER BY`, a uniform grid
    /// for the spatial extent. Small extents are left alone (see
    /// [`AUTO_INDEX_THRESHOLD`]); explicit `DEFINE INDEX` ignores the
    /// threshold.
    pub(crate) fn ensure_access_paths(
        &mut self,
        classes: &[String],
        q: &Query,
    ) -> KernelResult<()> {
        for name in classes {
            let def = self.catalog.class_by_name(name)?.clone();
            let rel_name = def.relation_name();
            self.retune_stale_grids(&def)?;
            if self.db.relation(&rel_name)?.stats().rows < AUTO_INDEX_THRESHOLD {
                continue;
            }
            let mut hot: Vec<String> = q.attr_preds.iter().map(|p| p.attr.clone()).collect();
            if q.time.is_some() && def.has_temporal {
                hot.push(crate::object::TEMPORAL_ATTR.into());
            }
            if let Some(ob) = &q.order_by {
                hot.push(ob.attr.clone());
            }
            for attr in hot {
                self.ensure_index(&def, &attr)?;
            }
            if q.spatial.is_some() && def.has_spatial {
                self.ensure_grid(&def, crate::object::SPATIAL_ATTR)?;
            }
        }
        Ok(())
    }

    /// Re-tune any grid whose cell size has gone stale. A grid created
    /// by `DEFINE INDEX` on a then-empty extent keeps the fallback cell;
    /// once real extents arrive they can dwarf it, overflow the
    /// per-insert cell cap, and pile up on the oversize list — where
    /// every probe degenerates to a full scan. When most of a grid's
    /// entries are oversize and the extents suggest a meaningfully
    /// different cell, rebuild it at the data's scale.
    pub(crate) fn retune_stale_grids(&mut self, def: &ClassDef) -> KernelResult<()> {
        let rel = self.db.relation(&def.relation_name())?;
        let rows = rel.stats().rows;
        if rows == 0 {
            return Ok(());
        }
        let stale: Vec<(usize, f64)> = rel
            .grids()
            .filter(|g| g.oversize_len() as u64 * 2 > rows)
            .map(|g| (g.column, g.cell))
            .collect();
        for (pos, old_cell) in stale {
            let rel = self.db.relation(&def.relation_name())?;
            let sample: Vec<GeoBox> = rel
                .iter()
                .take(GRID_SAMPLE)
                .filter_map(|(_, t)| t.get(pos).as_geobox())
                .collect();
            let cell = gaea_raster::suggest_cell_size(&sample);
            // Genuinely-oversize data re-suggests the same cell; only
            // rebuild when the scale actually moved, so this converges.
            if cell > old_cell * 2.0 || cell < old_cell * 0.5 {
                self.commit_event(Event::RetuneGrid {
                    rel: def.relation_name(),
                    pos,
                    cell,
                })?;
            }
        }
        Ok(())
    }

    /// Idempotently create an ordered index on one class attribute.
    pub(crate) fn ensure_index(&mut self, def: &ClassDef, attr: &str) -> KernelResult<bool> {
        let rel = self.db.relation(&def.relation_name())?;
        let pos = rel.schema().position(attr)?;
        if rel.index_for(pos).is_some() {
            return Ok(false);
        }
        // Access paths are physical state a snapshot carries but the log
        // must re-create — queries create them, so queries journal too.
        self.commit_event(Event::CreateIndex {
            rel: def.relation_name(),
            attr: attr.to_string(),
        })?;
        Ok(true)
    }

    /// Idempotently create a spatial grid on one GeoBox attribute, cell
    /// size tuned to a sample of the stored extents.
    pub(crate) fn ensure_grid(&mut self, def: &ClassDef, attr: &str) -> KernelResult<bool> {
        let rel = self.db.relation(&def.relation_name())?;
        let pos = rel.schema().position(attr)?;
        if rel.grid_for(pos).is_some() {
            return Ok(false);
        }
        let sample: Vec<GeoBox> = rel
            .iter()
            .take(GRID_SAMPLE)
            .filter_map(|(_, t)| t.get(pos).as_geobox())
            .collect();
        let cell = gaea_raster::suggest_cell_size(&sample);
        // The journal records the cell chosen from the live sample, so
        // replay rebuilds the identical grid instead of re-sampling.
        self.commit_event(Event::CreateGrid {
            rel: def.relation_name(),
            attr: attr.to_string(),
            cell,
        })?;
        Ok(true)
    }
}
