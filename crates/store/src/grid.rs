//! Uniform-grid spatial index.
//!
//! Partitions the plane into square cells of a fixed size and registers
//! each tuple's GeoBox extent in every cell it overlaps, so a
//! `WITHIN(a,b,c,d)` window probes a handful of cells instead of testing
//! every extent in the relation. Boxes spanning more than
//! [`OVERSIZE_CELLS`] cells (continental mosaics in a grid tuned for
//! scenes) go on an oversize list that every probe includes — this keeps
//! insert cost bounded while staying exact, because probes are always
//! re-filtered by the real intersection predicate.
//!
//! The cells are one flat ordered set of `((cx, cy), oid)` pairs.
//! Registering an extent is a set insert per overlapped cell, and a
//! probe scans one key range per cell column,
//! `((cx, lo_y), 0) ..= ((cx, hi_y), MAX)`. The layout is chosen for
//! [`crate::db::Database::pin`]: copying the set costs one allocation
//! per B-tree node, where a `Vec` per cell would cost one per occupied
//! cell.
//!
//! Like [`crate::index::OrderedIndex`], the cell set is skip-serialized
//! and rebuilt from the heap on snapshot load; only the indexed column
//! and cell size persist.

use crate::oid::Oid;
use gaea_adt::GeoBox;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Boxes overlapping more than this many cells go on the oversize list.
pub const OVERSIZE_CELLS: usize = 64;

/// Uniform spatial grid: the set of (cell, OID) registrations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridIndex {
    /// Indexed (GeoBox) column position in the relation schema.
    pub column: usize,
    /// Cell edge length in the coordinate units of the indexed extents.
    pub cell: f64,
    #[serde(skip)]
    cells: BTreeSet<((i64, i64), Oid)>,
    #[serde(skip)]
    oversize: Vec<Oid>,
}

impl GridIndex {
    /// Empty grid over a column with the given cell size (clamped to a
    /// small positive minimum to keep cell math finite).
    pub fn new(column: usize, cell: f64) -> GridIndex {
        GridIndex {
            column,
            cell: if cell.is_finite() && cell > 1e-9 {
                cell
            } else {
                1.0
            },
            cells: BTreeSet::new(),
            oversize: Vec::new(),
        }
    }

    fn cell_span(&self, b: &GeoBox) -> ((i64, i64), (i64, i64)) {
        let lo = (
            (b.xmin / self.cell).floor() as i64,
            (b.ymin / self.cell).floor() as i64,
        );
        let hi = (
            (b.xmax / self.cell).floor() as i64,
            (b.ymax / self.cell).floor() as i64,
        );
        (lo, hi)
    }

    fn span_cells(lo: (i64, i64), hi: (i64, i64)) -> usize {
        let dx = hi.0.saturating_sub(lo.0).saturating_add(1).max(0) as u128;
        let dy = hi.1.saturating_sub(lo.1).saturating_add(1).max(0) as u128;
        dx.saturating_mul(dy).min(usize::MAX as u128) as usize
    }

    /// Register an extent.
    pub fn insert(&mut self, b: &GeoBox, oid: Oid) {
        let (lo, hi) = self.cell_span(b);
        if Self::span_cells(lo, hi) > OVERSIZE_CELLS {
            self.oversize.push(oid);
            return;
        }
        for cx in lo.0..=hi.0 {
            for cy in lo.1..=hi.1 {
                self.cells.insert(((cx, cy), oid));
            }
        }
    }

    /// Unregister an extent (must match the box it was inserted under).
    pub fn remove(&mut self, b: &GeoBox, oid: Oid) {
        let (lo, hi) = self.cell_span(b);
        if Self::span_cells(lo, hi) > OVERSIZE_CELLS {
            self.oversize.retain(|o| *o != oid);
            return;
        }
        for cx in lo.0..=hi.0 {
            for cy in lo.1..=hi.1 {
                self.cells.remove(&((cx, cy), oid));
            }
        }
    }

    /// Call `f` on every OID registered in a cell of the window's cell
    /// span, once per (cell, OID) pair. Each cell column is one key
    /// range of the set. A window spanning more columns than there are
    /// registrations (a huge window) walks its whole x band once
    /// instead, so a probe never costs more than the set's size.
    fn for_each_registration(&self, window: &GeoBox, mut f: impl FnMut(Oid)) {
        let (lo, hi) = self.cell_span(window);
        if lo.0 > hi.0 || lo.1 > hi.1 {
            return;
        }
        let columns = hi.0 as i128 - lo.0 as i128 + 1;
        if columns > self.cells.len() as i128 {
            let band = ((lo.0, i64::MIN), Oid(0))..=((hi.0, i64::MAX), Oid(u64::MAX));
            for &((_, cy), oid) in self.cells.range(band) {
                if (lo.1..=hi.1).contains(&cy) {
                    f(oid);
                }
            }
        } else {
            for cx in lo.0..=hi.0 {
                let column = ((cx, lo.1), Oid(0))..=((cx, hi.1), Oid(u64::MAX));
                for &(_, oid) in self.cells.range(column) {
                    f(oid);
                }
            }
        }
    }

    /// Candidate OIDs whose extents may intersect `window`: every OID in
    /// an overlapped cell plus the whole oversize list, sorted and
    /// deduplicated. Callers must re-check the real intersection — a
    /// candidate may only share a cell, not actually overlap.
    pub fn probe(&self, window: &GeoBox) -> Vec<Oid> {
        let mut out: Vec<Oid> = Vec::new();
        self.for_each_registration(window, |oid| out.push(oid));
        out.extend_from_slice(&self.oversize);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Cheap upper bound on `probe(window).len()` for costing (counts
    /// duplicates across cells rather than deduplicating).
    pub fn probe_estimate(&self, window: &GeoBox) -> usize {
        let mut n = self.oversize.len();
        self.for_each_registration(window, |_| n += 1);
        n
    }

    /// Number of registered extents currently on the oversize list.
    pub fn oversize_len(&self) -> usize {
        self.oversize.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty() && self.oversize.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(xmin: f64, ymin: f64, xmax: f64, ymax: f64) -> GeoBox {
        GeoBox::new(xmin, ymin, xmax, ymax)
    }

    #[test]
    fn probe_finds_overlapping_and_misses_distant() {
        let mut g = GridIndex::new(0, 10.0);
        g.insert(&b(0.0, 0.0, 5.0, 5.0), Oid(1));
        g.insert(&b(100.0, 100.0, 105.0, 105.0), Oid(2));
        assert_eq!(g.probe(&b(1.0, 1.0, 2.0, 2.0)), vec![Oid(1)]);
        assert_eq!(g.probe(&b(101.0, 101.0, 102.0, 102.0)), vec![Oid(2)]);
        assert!(g.probe(&b(50.0, 50.0, 51.0, 51.0)).is_empty());
    }

    #[test]
    fn multi_cell_boxes_dedup() {
        let mut g = GridIndex::new(0, 10.0);
        // Spans 4 cells.
        g.insert(&b(5.0, 5.0, 15.0, 15.0), Oid(1));
        let hits = g.probe(&b(0.0, 0.0, 20.0, 20.0));
        assert_eq!(hits, vec![Oid(1)]);
    }

    #[test]
    fn oversize_boxes_always_candidates() {
        let mut g = GridIndex::new(0, 1.0);
        // 1000×1000 cells: far over the limit.
        g.insert(&b(0.0, 0.0, 1000.0, 1000.0), Oid(1));
        assert_eq!(g.oversize_len(), 1);
        assert_eq!(g.probe(&b(5000.0, 5000.0, 5001.0, 5001.0)), vec![Oid(1)]);
        g.remove(&b(0.0, 0.0, 1000.0, 1000.0), Oid(1));
        assert!(g.is_empty());
    }

    #[test]
    fn remove_clears_all_cells() {
        let mut g = GridIndex::new(0, 10.0);
        g.insert(&b(5.0, 5.0, 15.0, 15.0), Oid(1));
        g.remove(&b(5.0, 5.0, 15.0, 15.0), Oid(1));
        assert!(g.is_empty());
        assert!(g.probe(&b(0.0, 0.0, 20.0, 20.0)).is_empty());
    }

    #[test]
    fn huge_windows_walk_occupied_cells() {
        let mut g = GridIndex::new(0, 1.0);
        g.insert(&b(3.5, 3.5, 3.6, 3.6), Oid(7));
        // Window spans billions of cells; probe must not iterate them.
        let hits = g.probe(&b(-1.0e9, -1.0e9, 1.0e9, 1.0e9));
        assert_eq!(hits, vec![Oid(7)]);
        assert!(g.probe_estimate(&b(-1.0e9, -1.0e9, 1.0e9, 1.0e9)) >= 1);
    }

    #[test]
    fn degenerate_cell_size_clamped() {
        let g = GridIndex::new(0, 0.0);
        assert_eq!(g.cell, 1.0);
        let g = GridIndex::new(0, f64::NAN);
        assert_eq!(g.cell, 1.0);
    }
}
