//! The database: named relations plus a shared OID allocator.

use crate::error::{StoreError, StoreResult};
use crate::grid::GridIndex;
use crate::heap::Heap;
use crate::index::OrderedIndex;
use crate::oid::{Oid, OidAllocator};
use crate::predicate::Predicate;
use crate::schema::Schema;
use crate::stats::{ColumnStats, TableStats};
use crate::tuple::Tuple;
use crate::version::{Savepoint, VersionMap};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide source of relation stamps. Process-wide rather than
/// per-database, so a relation dropped and re-created under the same
/// name can never carry a stamp an older view already holds.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// One typed relation: schema + heap + eagerly maintained indexes,
/// spatial grids, and optimizer statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Relation {
    schema: Schema,
    heap: Heap,
    indexes: Vec<OrderedIndex>,
    #[serde(default)]
    grids: Vec<GridIndex>,
    #[serde(default)]
    stats: TableStats,
    /// Identity of this exact content: redrawn on every mutable borrow
    /// through the owning [`Database`], kept by `clone`. A pinned copy
    /// whose stamp equals the live relation's holds the same data, so
    /// the next pin shares it instead of copying again.
    #[serde(skip)]
    stamp: u64,
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn new(schema: Schema) -> Relation {
        Relation {
            schema,
            heap: Heap::new(),
            indexes: Vec::new(),
            grids: Vec::new(),
            stats: TableStats::default(),
            stamp: fresh_stamp(),
        }
    }

    /// The relation schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Live tuple count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Insert a validated tuple under `oid`.
    pub(crate) fn insert(&mut self, oid: Oid, tuple: Tuple) -> StoreResult<()> {
        self.schema.validate(&tuple)?;
        // Heap first: a duplicate-OID failure must not leave stale
        // index or grid entries behind.
        self.heap.insert(oid, tuple)?;
        let tuple = self.heap.get(oid).expect("just inserted");
        for idx in &mut self.indexes {
            idx.insert(tuple.get(idx.column).clone(), oid);
        }
        for grid in &mut self.grids {
            if let Some(b) = tuple.get(grid.column).as_geobox() {
                grid.insert(&b, oid);
            }
        }
        self.refresh_stats();
        Ok(())
    }

    /// Point lookup.
    pub fn get(&self, oid: Oid) -> StoreResult<&Tuple> {
        self.heap.get(oid)
    }

    /// True if the OID is live here.
    pub fn contains(&self, oid: Oid) -> bool {
        self.heap.contains(oid)
    }

    /// Delete, returning the old tuple.
    pub(crate) fn delete(&mut self, oid: Oid) -> StoreResult<Tuple> {
        let tuple = self.heap.delete(oid)?;
        for idx in &mut self.indexes {
            idx.remove(tuple.get(idx.column), oid);
        }
        for grid in &mut self.grids {
            if let Some(b) = tuple.get(grid.column).as_geobox() {
                grid.remove(&b, oid);
            }
        }
        self.refresh_stats();
        Ok(tuple)
    }

    /// Update, returning the old tuple.
    pub(crate) fn update(&mut self, oid: Oid, tuple: Tuple) -> StoreResult<Tuple> {
        self.schema.validate(&tuple)?;
        // Maintain indexes and grids: remove old keys, insert new.
        let old = self.heap.get(oid)?.clone();
        for idx in &mut self.indexes {
            idx.remove(old.get(idx.column), oid);
            idx.insert(tuple.get(idx.column).clone(), oid);
        }
        for grid in &mut self.grids {
            if let Some(b) = old.get(grid.column).as_geobox() {
                grid.remove(&b, oid);
            }
            if let Some(b) = tuple.get(grid.column).as_geobox() {
                grid.insert(&b, oid);
            }
        }
        let out = self.heap.update(oid, tuple);
        self.refresh_stats();
        out
    }

    /// Predicate scan in storage order. The predicate is compiled to
    /// column positions once, so evaluation does no per-tuple string
    /// lookups.
    pub fn scan(&self, pred: &Predicate) -> StoreResult<Vec<(Oid, &Tuple)>> {
        let compiled = pred.compile(&self.schema)?;
        let mut out = Vec::new();
        for (oid, tuple) in self.heap.iter() {
            if compiled.matches(tuple) {
                out.push((oid, tuple));
            }
        }
        Ok(out)
    }

    /// OID-only predicate scan in storage order — no tuple clones, for
    /// cardinality checks and access-path candidate sets.
    pub fn scan_oids(&self, pred: &Predicate) -> StoreResult<Vec<Oid>> {
        let compiled = pred.compile(&self.schema)?;
        let mut out = Vec::new();
        for (oid, tuple) in self.heap.iter() {
            if compiled.matches(tuple) {
                out.push(oid);
            }
        }
        Ok(out)
    }

    /// Full iteration.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, &Tuple)> {
        self.heap.iter()
    }

    /// Create an ordered index on a column (backfills existing tuples).
    pub fn create_index(&mut self, column: &str) -> StoreResult<()> {
        let pos = self.schema.position(column)?;
        if self.indexes.iter().any(|i| i.column == pos) {
            return Err(StoreError::IndexError(format!(
                "index on {column} already exists"
            )));
        }
        let mut idx = OrderedIndex::new(pos);
        for (oid, tuple) in self.heap.iter() {
            idx.insert(tuple.get(pos).clone(), oid);
        }
        self.indexes.push(idx);
        self.refresh_stats();
        Ok(())
    }

    /// Create a uniform spatial grid on a GeoBox column (backfills
    /// existing tuples; non-box values are simply not registered).
    pub fn create_grid(&mut self, column: &str, cell: f64) -> StoreResult<()> {
        let pos = self.schema.position(column)?;
        if self.grids.iter().any(|g| g.column == pos) {
            return Err(StoreError::IndexError(format!(
                "grid on {column} already exists"
            )));
        }
        let mut grid = GridIndex::new(pos, cell);
        for (oid, tuple) in self.heap.iter() {
            if let Some(b) = tuple.get(pos).as_geobox() {
                grid.insert(&b, oid);
            }
        }
        self.grids.push(grid);
        Ok(())
    }

    /// The ordered index on a column position, if one exists.
    pub fn index_for(&self, pos: usize) -> Option<&OrderedIndex> {
        self.indexes.iter().find(|i| i.column == pos)
    }

    /// The spatial grid on a column position, if one exists.
    pub fn grid_for(&self, pos: usize) -> Option<&GridIndex> {
        self.grids.iter().find(|g| g.column == pos)
    }

    /// All spatial grids on this relation.
    pub fn grids(&self) -> impl Iterator<Item = &GridIndex> {
        self.grids.iter()
    }

    /// Rebuild the grid on a column position with a new cell size —
    /// used when the tuned size has gone stale (e.g. a grid created on
    /// a then-empty extent whose fallback cell is now dwarfed by the
    /// stored boxes, pushing everything onto the oversize list).
    pub fn retune_grid(&mut self, pos: usize, cell: f64) -> StoreResult<()> {
        let Some(slot) = self.grids.iter_mut().find(|g| g.column == pos) else {
            return Err(StoreError::IndexError(format!(
                "no grid on column position {pos}"
            )));
        };
        let mut grid = GridIndex::new(pos, cell);
        for (oid, tuple) in self.heap.iter() {
            if let Some(b) = tuple.get(pos).as_geobox() {
                grid.insert(&b, oid);
            }
        }
        *slot = grid;
        Ok(())
    }

    /// Candidate OIDs for a spatial window through the grid on `column`.
    /// Candidates may be false positives; re-filter with the real
    /// intersection predicate.
    pub fn grid_probe(&self, column: &str, window: &gaea_adt::GeoBox) -> StoreResult<Vec<Oid>> {
        let pos = self.schema.position(column)?;
        let grid = self
            .grid_for(pos)
            .ok_or_else(|| StoreError::IndexError(format!("no grid on {column}")))?;
        Ok(grid.probe(window))
    }

    /// Optimizer statistics (cardinality + per-indexed-column figures).
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Recompute stats from the heap and indexes. Cheap: every figure
    /// is already maintained by the index B-trees.
    fn refresh_stats(&mut self) {
        self.stats.rows = self.heap.len() as u64;
        self.stats.columns = self
            .indexes
            .iter()
            .map(|idx| ColumnStats {
                column: idx.column,
                distinct: idx.distinct_keys() as u64,
                min: idx.min_key().cloned(),
                max: idx.max_key().cloned(),
            })
            .collect();
    }

    /// Exact-match lookup through an index, if one exists on the column.
    pub fn index_lookup(&self, column: &str, key: &gaea_adt::Value) -> StoreResult<Vec<Oid>> {
        let pos = self.schema.position(column)?;
        let idx = self
            .indexes
            .iter()
            .find(|i| i.column == pos)
            .ok_or_else(|| StoreError::IndexError(format!("no index on {column}")))?;
        Ok(idx.lookup(key).to_vec())
    }

    /// Inclusive range lookup through an index.
    pub fn index_range(
        &self,
        column: &str,
        lo: Option<&gaea_adt::Value>,
        hi: Option<&gaea_adt::Value>,
    ) -> StoreResult<Vec<Oid>> {
        let pos = self.schema.position(column)?;
        let idx = self
            .indexes
            .iter()
            .find(|i| i.column == pos)
            .ok_or_else(|| StoreError::IndexError(format!("no index on {column}")))?;
        Ok(idx.range(lo, hi))
    }

    /// Rebuild heap OID map, all indexes, grids, and stats (after
    /// snapshot load), under a fresh stamp.
    pub(crate) fn rebuild(&mut self) {
        self.stamp = fresh_stamp();
        self.heap.rebuild_index();
        let columns: Vec<usize> = self.indexes.iter().map(|i| i.column).collect();
        self.indexes.clear();
        for pos in columns {
            let mut idx = OrderedIndex::new(pos);
            for (oid, tuple) in self.heap.iter() {
                idx.insert(tuple.get(pos).clone(), oid);
            }
            self.indexes.push(idx);
        }
        let grid_specs: Vec<(usize, f64)> = self.grids.iter().map(|g| (g.column, g.cell)).collect();
        self.grids.clear();
        for (pos, cell) in grid_specs {
            let mut grid = GridIndex::new(pos, cell);
            for (oid, tuple) in self.heap.iter() {
                if let Some(b) = tuple.get(pos).as_geobox() {
                    grid.insert(&b, oid);
                }
            }
            self.grids.push(grid);
        }
        self.refresh_stats();
    }
}

/// The embedded database: named relations + a shared OID allocator +
/// MVCC version counters ([`VersionMap`]) stamped on every mutation.
///
/// Each relation sits behind its own `Arc` so a pinned view can share
/// the copies it did not need to redo. A live database never shares its
/// own `Arc`s — every view and capture holds copies — so each stays
/// unique and [`Arc::make_mut`] on the write path never copies.
#[derive(Debug)]
pub struct Database {
    relations: BTreeMap<String, Arc<Relation>>,
    allocator: OidAllocator,
    versions: VersionMap,
}

impl Database {
    /// Fresh, empty database.
    pub fn new() -> Database {
        Database {
            relations: BTreeMap::new(),
            allocator: OidAllocator::new(),
            versions: VersionMap::default(),
        }
    }

    /// Create a relation.
    pub fn create_relation(&mut self, name: &str, schema: Schema) -> StoreResult<()> {
        if self.relations.contains_key(name) {
            return Err(StoreError::DuplicateRelation(name.into()));
        }
        self.relations
            .insert(name.into(), Arc::new(Relation::new(schema)));
        Ok(())
    }

    /// Drop a relation and all its tuples. Every live object in it gets a
    /// final version bump — dropping data is a mutation observers of those
    /// objects must be able to detect.
    pub fn drop_relation(&mut self, name: &str) -> StoreResult<()> {
        let rel = self
            .relations
            .remove(name)
            .ok_or_else(|| StoreError::NoSuchRelation(name.into()))?;
        self.versions.bump_all(name, rel.iter().map(|(oid, _)| oid));
        Ok(())
    }

    /// Borrow a relation.
    pub fn relation(&self, name: &str) -> StoreResult<&Relation> {
        self.relations
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| StoreError::NoSuchRelation(name.into()))
    }

    /// Mutably borrow a relation. The borrow redraws its stamp, so the
    /// next pin copies it afresh rather than sharing a stale copy.
    pub fn relation_mut(&mut self, name: &str) -> StoreResult<&mut Relation> {
        let rel = self
            .relations
            .get_mut(name)
            .ok_or_else(|| StoreError::NoSuchRelation(name.into()))?;
        let rel = Arc::make_mut(rel);
        rel.stamp = fresh_stamp();
        Ok(rel)
    }

    /// Relation names in order.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.keys().map(String::as_str).collect()
    }

    /// Allocate a fresh OID.
    pub fn allocate_oid(&self) -> Oid {
        self.allocator.allocate()
    }

    /// Autocommit insert: allocates an OID, validates, inserts, bumps
    /// the object's and relation's version.
    pub fn insert(&mut self, rel: &str, tuple: Tuple) -> StoreResult<Oid> {
        let oid = self.allocator.allocate();
        self.relation_mut(rel)?.insert(oid, tuple)?;
        self.versions.bump(rel, oid);
        Ok(oid)
    }

    /// Insert under a pre-allocated OID, bumping its version (transaction
    /// undo re-inserts a deleted tuple under its old OID).
    pub fn insert_with_oid(&mut self, rel: &str, oid: Oid, tuple: Tuple) -> StoreResult<()> {
        self.relation_mut(rel)?.insert(oid, tuple)?;
        self.versions.bump(rel, oid);
        Ok(())
    }

    /// Autocommit delete. The deleted object's version still advances —
    /// its counter outlives it, so a validator holding the old version
    /// sees the mismatch (and OID recycling can never alias versions).
    pub fn delete(&mut self, rel: &str, oid: Oid) -> StoreResult<Tuple> {
        let tuple = self.relation_mut(rel)?.delete(oid)?;
        self.versions.bump(rel, oid);
        Ok(tuple)
    }

    /// Autocommit update, bumping the object's and relation's version.
    pub fn update(&mut self, rel: &str, oid: Oid, tuple: Tuple) -> StoreResult<Tuple> {
        let old = self.relation_mut(rel)?.update(oid, tuple)?;
        self.versions.bump(rel, oid);
        Ok(old)
    }

    /// Current version of an object (0 = never written). O(log n).
    pub fn object_version(&self, oid: Oid) -> u64 {
        self.versions.object(oid)
    }

    /// Current version of a relation (0 = never mutated). O(log n).
    pub fn relation_version(&self, rel: &str) -> u64 {
        self.versions.relation(rel)
    }

    /// The store-wide logical clock (ticks once per mutation).
    pub fn version_clock(&self) -> u64 {
        self.versions.clock()
    }

    /// Point lookup.
    pub fn get(&self, rel: &str, oid: Oid) -> StoreResult<&Tuple> {
        self.relation(rel)?.get(oid)
    }

    /// Predicate scan.
    pub fn scan(&self, rel: &str, pred: &Predicate) -> StoreResult<Vec<(Oid, Tuple)>> {
        Ok(self
            .relation(rel)?
            .scan(pred)?
            .into_iter()
            .map(|(oid, t)| (oid, t.clone()))
            .collect())
    }

    /// OID-only predicate scan — no tuple clones.
    pub fn scan_oids(&self, rel: &str, pred: &Predicate) -> StoreResult<Vec<Oid>> {
        self.relation(rel)?.scan_oids(pred)
    }

    /// Allocator state for snapshots.
    pub(crate) fn allocator_peek(&self) -> u64 {
        self.allocator.peek()
    }

    /// The next OID this database would allocate. Recorded by the
    /// write-ahead log so replay can restore the allocator exactly.
    pub fn next_oid(&self) -> u64 {
        self.allocator.peek()
    }

    /// Advance the allocator so the next allocation is `next_oid` — a
    /// no-op if the allocator is already at or past it. WAL replay calls
    /// this per logged event; the allocator only ever moves forward.
    pub fn resume_oids(&mut self, next_oid: u64) {
        if next_oid > self.allocator.peek() {
            self.allocator = OidAllocator::resume_after(next_oid - 1);
        }
    }

    /// Replay version ticks recorded as `(relation, stamped oids)` — the
    /// `bumps` of write-ahead log records written while the clock history
    /// was journaled — each exactly as it first ticked.
    pub fn replay_bumps(&mut self, bumps: &[(String, Vec<u64>)]) {
        for (rel, oids) in bumps {
            self.versions.apply_recorded(rel, oids);
        }
    }

    /// A rewind point for the version counters and the OID allocator —
    /// the store half of compensating a multi-step commit. Heap contents
    /// are not captured: the caller undoes its own writes, then
    /// [`Database::rollback_to`] erases the ticks they took.
    pub fn savepoint(&self) -> Savepoint {
        self.versions.savepoint(self.allocator.peek())
    }

    /// Rewind the version counters and the OID allocator to `sp`. Exact
    /// when every write since `sp` touched objects allocated since and has
    /// been undone: the database is then as it was at `sp`, and the oids
    /// allocated in between are issued again.
    pub fn rollback_to(&mut self, sp: Savepoint) {
        self.allocator = OidAllocator::resume_after(sp.next_oid.saturating_sub(1));
        self.versions.rewind(sp);
    }

    /// Restore from snapshot parts.
    pub(crate) fn from_parts(
        relations: BTreeMap<String, Relation>,
        next_oid: u64,
        versions: VersionMap,
    ) -> Database {
        let relations = relations
            .into_iter()
            .map(|(name, mut rel)| {
                rel.rebuild();
                (name, Arc::new(rel))
            })
            .collect();
        Database {
            relations,
            allocator: OidAllocator::resume_after(next_oid.saturating_sub(1)),
            versions,
        }
    }

    /// Pin a snapshot-isolated read view from scratch: [`Database::pin_since`]
    /// with no previous view, so every relation is copied.
    pub fn pin(&self) -> crate::view::PinnedStore {
        self.pin_since(None)
    }

    /// Pin a snapshot-isolated read view: an immutable copy of every
    /// relation plus the version counters frozen at the same instant
    /// ([`crate::view::PinnedStore`]). Taken through `&self` under the
    /// owner's borrow discipline, so the copy is of one committed state,
    /// never a half-applied mutation.
    ///
    /// A relation not written since `prev` was pinned (its stamp still
    /// equals `prev`'s copy) shares that copy's `Arc`. Every other
    /// relation — written since, or new — is deep-copied: its heap
    /// tuples, its ordered indexes' key maps and its grids' flat cell
    /// sets. The view also gets one [`VersionMap`], which it reads its
    /// clock from. The view never shares a live `Arc`: sharing one would
    /// make the next write through [`Arc::make_mut`] pay the copy.
    pub fn pin_since(&self, prev: Option<&crate::view::PinnedStore>) -> crate::view::PinnedStore {
        let mut copied = 0;
        let relations = self
            .relations
            .iter()
            .map(|(name, live)| {
                let shared = prev
                    .and_then(|p| p.db().relations.get(name))
                    .filter(|old| old.stamp == live.stamp);
                let rel = match shared {
                    Some(old) => Arc::clone(old),
                    None => {
                        copied += 1;
                        Arc::new(Relation::clone(live))
                    }
                };
                (name.clone(), rel)
            })
            .collect();
        let db = Database {
            relations,
            allocator: OidAllocator::resume_after(self.allocator.peek().saturating_sub(1)),
            versions: self.versions.clone(),
        };
        crate::view::PinnedStore::new(db, copied)
    }

    /// Snapshot parts (relation map).
    pub(crate) fn relations(&self) -> &BTreeMap<String, Arc<Relation>> {
        &self.relations
    }

    /// Snapshot parts (version counters).
    pub(crate) fn versions(&self) -> &VersionMap {
        &self.versions
    }
}

impl Default for Database {
    fn default() -> Database {
        Database::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use gaea_adt::{TypeTag, Value};

    fn db_with_rel() -> Database {
        let mut db = Database::new();
        db.create_relation(
            "landcover",
            Schema::new(vec![
                Field::required("area", TypeTag::Char16),
                Field::required("numclass", TypeTag::Int4),
            ])
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn t(area: &str, n: i32) -> Tuple {
        Tuple::new(vec![Value::Char16(area.into()), Value::Int4(n)])
    }

    #[test]
    fn crud_cycle() {
        let mut db = db_with_rel();
        let oid = db.insert("landcover", t("africa", 12)).unwrap();
        assert_eq!(db.get("landcover", oid).unwrap().get(1), &Value::Int4(12));
        db.update("landcover", oid, t("africa", 10)).unwrap();
        assert_eq!(db.get("landcover", oid).unwrap().get(1), &Value::Int4(10));
        db.delete("landcover", oid).unwrap();
        assert!(db.get("landcover", oid).is_err());
    }

    #[test]
    fn schema_enforced_on_insert_and_update() {
        let mut db = db_with_rel();
        let bad = Tuple::new(vec![Value::Int4(1), Value::Int4(2)]);
        assert!(db.insert("landcover", bad.clone()).is_err());
        let oid = db.insert("landcover", t("africa", 1)).unwrap();
        assert!(db.update("landcover", oid, bad).is_err());
    }

    #[test]
    fn duplicate_and_missing_relations() {
        let mut db = db_with_rel();
        assert!(matches!(
            db.create_relation("landcover", Schema::new(vec![]).unwrap()),
            Err(StoreError::DuplicateRelation(_))
        ));
        assert!(matches!(
            db.insert("nope", t("x", 1)),
            Err(StoreError::NoSuchRelation(_))
        ));
        db.drop_relation("landcover").unwrap();
        assert!(db.drop_relation("landcover").is_err());
    }

    #[test]
    fn scan_with_predicate() {
        let mut db = db_with_rel();
        for (a, n) in [("africa", 12), ("asia", 8), ("africa", 6)] {
            db.insert("landcover", t(a, n)).unwrap();
        }
        let hits = db
            .scan(
                "landcover",
                &Predicate::Eq("area".into(), Value::Char16("africa".into())),
            )
            .unwrap();
        assert_eq!(hits.len(), 2);
        let high = db
            .scan(
                "landcover",
                &Predicate::Gt("numclass".into(), Value::Int4(7)),
            )
            .unwrap();
        assert_eq!(high.len(), 2);
    }

    #[test]
    fn index_maintenance_through_crud() {
        let mut db = db_with_rel();
        let o1 = db.insert("landcover", t("africa", 12)).unwrap();
        db.relation_mut("landcover")
            .unwrap()
            .create_index("area")
            .unwrap();
        let o2 = db.insert("landcover", t("africa", 8)).unwrap();
        let rel = db.relation("landcover").unwrap();
        assert_eq!(
            rel.index_lookup("area", &Value::Char16("africa".into()))
                .unwrap(),
            vec![o1, o2]
        );
        // Update moves the key.
        db.update("landcover", o1, t("asia", 12)).unwrap();
        let rel = db.relation("landcover").unwrap();
        assert_eq!(
            rel.index_lookup("area", &Value::Char16("africa".into()))
                .unwrap(),
            vec![o2]
        );
        assert_eq!(
            rel.index_lookup("area", &Value::Char16("asia".into()))
                .unwrap(),
            vec![o1]
        );
        // Delete removes it.
        db.delete("landcover", o2).unwrap();
        let rel = db.relation("landcover").unwrap();
        assert!(rel
            .index_lookup("area", &Value::Char16("africa".into()))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn index_requires_existing_column_and_uniqueness() {
        let mut db = db_with_rel();
        let rel = db.relation_mut("landcover").unwrap();
        assert!(rel.create_index("missing").is_err());
        rel.create_index("numclass").unwrap();
        assert!(rel.create_index("numclass").is_err());
        assert!(rel.index_lookup("area", &Value::Int4(0)).is_err());
    }

    #[test]
    fn versions_bump_on_insert_update_delete() {
        let mut db = db_with_rel();
        assert_eq!(db.relation_version("landcover"), 0);
        assert_eq!(db.version_clock(), 0);
        let oid = db.insert("landcover", t("africa", 12)).unwrap();
        let v_insert = db.object_version(oid);
        assert!(v_insert > 0);
        assert_eq!(db.relation_version("landcover"), v_insert);
        db.update("landcover", oid, t("africa", 10)).unwrap();
        let v_update = db.object_version(oid);
        assert!(v_update > v_insert);
        db.delete("landcover", oid).unwrap();
        let v_delete = db.object_version(oid);
        assert!(
            v_delete > v_update,
            "deletion must advance the object version"
        );
        assert_eq!(db.relation_version("landcover"), v_delete);
        assert_eq!(db.version_clock(), 3);
        // A failing write does not tick the clock.
        assert!(db
            .insert("landcover", Tuple::new(vec![Value::Int4(1)]))
            .is_err());
        assert_eq!(db.version_clock(), 3);
    }

    #[test]
    fn rollback_to_a_savepoint_leaves_no_trace() {
        let mut db = db_with_rel();
        db.insert("landcover", t("africa", 1)).unwrap();
        let before = (
            db.version_clock(),
            db.relation_version("landcover"),
            db.next_oid(),
        );
        let sp = db.savepoint();
        let oid = db.insert("landcover", t("asia", 2)).unwrap();
        db.delete("landcover", oid).unwrap();
        db.rollback_to(sp);
        let after = (
            db.version_clock(),
            db.relation_version("landcover"),
            db.next_oid(),
        );
        assert_eq!(after, before);
        assert_eq!(db.object_version(oid), 0);
        assert_eq!(db.allocate_oid(), oid, "the rewound oid is issued again");
    }

    #[test]
    fn untouched_objects_keep_their_version() {
        let mut db = db_with_rel();
        let a = db.insert("landcover", t("africa", 1)).unwrap();
        let b = db.insert("landcover", t("asia", 2)).unwrap();
        let va = db.object_version(a);
        db.update("landcover", b, t("asia", 3)).unwrap();
        assert_eq!(db.object_version(a), va, "a was not touched");
        assert!(db.object_version(b) > va);
    }

    #[test]
    fn drop_relation_bumps_every_live_object() {
        let mut db = db_with_rel();
        let a = db.insert("landcover", t("africa", 1)).unwrap();
        let b = db.insert("landcover", t("asia", 2)).unwrap();
        let before = (db.object_version(a), db.object_version(b));
        db.drop_relation("landcover").unwrap();
        assert!(db.object_version(a) > before.0);
        assert!(db.object_version(b) > before.1);
    }

    #[test]
    fn retune_grid_rebuilds_with_new_cell() {
        let mut db = Database::new();
        db.create_relation(
            "scenes",
            Schema::new(vec![Field::required("ext", TypeTag::GeoBox)]).unwrap(),
        )
        .unwrap();
        // Grid created while empty: fallback cell 1.0.
        db.relation_mut("scenes")
            .unwrap()
            .create_grid("ext", 1.0)
            .unwrap();
        let boxed = |x: f64| {
            Tuple::new(vec![Value::GeoBox(gaea_adt::GeoBox::new(
                x,
                0.0,
                x + 8.0,
                8.0,
            ))])
        };
        let oids: Vec<Oid> = (0..10)
            .map(|i| db.insert("scenes", boxed(i as f64 * 10.0)).unwrap())
            .collect();
        // 8×8 boxes span 81 unit cells — all of them went oversize.
        let rel = db.relation("scenes").unwrap();
        assert_eq!(rel.grid_for(0).unwrap().oversize_len(), 10);
        // Retuned to the data's scale, probes narrow again and stay
        // maintained by subsequent mutations.
        db.relation_mut("scenes")
            .unwrap()
            .retune_grid(0, 8.0)
            .unwrap();
        let rel = db.relation("scenes").unwrap();
        assert_eq!(rel.grid_for(0).unwrap().oversize_len(), 0);
        // Probes over-approximate (cell sharing) but must narrow well
        // below the extent and cover the true hit.
        let window = gaea_adt::GeoBox::new(20.0, 1.0, 23.0, 4.0);
        let probe = rel.grid_probe("ext", &window).unwrap();
        assert!(probe.contains(&oids[2]), "{probe:?}");
        assert!(probe.len() <= 3, "{probe:?}");
        let late = db.insert("scenes", boxed(21.0)).unwrap();
        let rel = db.relation("scenes").unwrap();
        assert!(rel.grid_probe("ext", &window).unwrap().contains(&late));
        // A position without a grid refuses to retune.
        assert!(db
            .relation_mut("scenes")
            .unwrap()
            .retune_grid(5, 8.0)
            .is_err());
    }

    /// Every live relation's `Arc` is held by the live map alone, so the
    /// next write's `Arc::make_mut` never copies.
    fn assert_live_unique(db: &Database) {
        for (name, rel) in &db.relations {
            assert_eq!(Arc::strong_count(rel), 1, "live {name} is shared");
        }
    }

    #[test]
    fn a_pin_shares_only_unwritten_relations_and_never_a_live_one() {
        let mut db = db_with_rel();
        db.create_relation(
            "sites",
            Schema::new(vec![Field::required("n", TypeTag::Int4)]).unwrap(),
        )
        .unwrap();
        db.insert("landcover", t("africa", 1)).unwrap();
        db.insert("sites", Tuple::new(vec![Value::Int4(7)]))
            .unwrap();
        let first = db.pin();
        assert_eq!(first.relations_copied(), 2);
        assert_live_unique(&db);

        db.insert("landcover", t("asia", 2)).unwrap();
        let second = db.pin_since(Some(&first));
        assert_eq!(second.relations_copied(), 1);
        let (a, b) = (&first.db().relations, &second.db().relations);
        assert!(Arc::ptr_eq(&a["sites"], &b["sites"]), "unwritten: shared");
        assert!(!Arc::ptr_eq(&a["landcover"], &b["landcover"]));
        assert_eq!(first.relation("landcover").unwrap().len(), 1);
        assert_eq!(second.relation("landcover").unwrap().len(), 2);
        assert_live_unique(&db);

        // A structural write (no clock tick) still forces a copy.
        db.relation_mut("sites").unwrap().create_index("n").unwrap();
        let third = db.pin_since(Some(&second));
        assert_eq!(third.relations_copied(), 1);
        assert!(third.relation("sites").unwrap().index_for(0).is_some());
        assert!(second.relation("sites").unwrap().index_for(0).is_none());
        assert_live_unique(&db);

        // Nothing written: everything shared.
        let fourth = db.pin_since(Some(&third));
        assert_eq!(fourth.relations_copied(), 0);

        let capture = crate::snapshot::capture_with_wal_seq(&db, 0);
        assert_live_unique(&db);
        drop(capture);
        for view in [&first, &second, &third, &fourth] {
            for (name, rel) in &view.db().relations {
                assert!(
                    !Arc::ptr_eq(rel, &db.relations[name]),
                    "view holds live {name}"
                );
            }
        }
    }

    #[test]
    fn a_recreated_relation_is_never_shared_with_its_namesake() {
        // Neither incarnation is written after its creation, so only the
        // stamp drawn at creation can tell them apart.
        let mut db = db_with_rel();
        let before = db.pin();
        db.drop_relation("landcover").unwrap();
        let schema = Schema::new(vec![Field::required("n", TypeTag::Int4)]).unwrap();
        db.create_relation("landcover", schema.clone()).unwrap();
        let after = db.pin_since(Some(&before));
        assert_eq!(after.relations_copied(), 1);
        assert_eq!(after.relation("landcover").unwrap().schema(), &schema);
    }

    #[test]
    fn index_range_queries() {
        let mut db = db_with_rel();
        db.relation_mut("landcover")
            .unwrap()
            .create_index("numclass")
            .unwrap();
        let oids: Vec<Oid> = (0..10)
            .map(|i| db.insert("landcover", t("africa", i)).unwrap())
            .collect();
        let rel = db.relation("landcover").unwrap();
        let mid = rel
            .index_range("numclass", Some(&Value::Int4(3)), Some(&Value::Int4(5)))
            .unwrap();
        assert_eq!(mid, vec![oids[3], oids[4], oids[5]]);
    }
}
