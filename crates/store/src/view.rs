//! Snapshot-pinned read views: the data half of MVCC snapshots.
//!
//! [`crate::version::StoreSnapshot`] freezes the version *counters* —
//! enough to validate memoized results, not enough to answer a query.
//! A [`PinnedStore`] freezes the data too: an immutable copy of every
//! relation (heaps, indexes, grids, statistics) together with the
//! [`crate::version::VersionMap`] of the same instant, so a reader
//! holding the view answers retrievals against exactly one committed
//! state no matter how many commits land after the pin. That one
//! `VersionMap` is the view's only copy of the counters: its clock,
//! object and relation versions are the frozen `Database`'s own.
//!
//! The copy is taken under the owner's exclusive borrow
//! ([`crate::db::Database::pin_since`]), so a view can never observe a
//! half-applied mutation. Views are plain values: wrap one in an `Arc`
//! and every concurrent reader shares the same frozen state for free.
//! Relations sit behind `Arc`s, and a pin taken from the previous view
//! copies only the relations written since that view — the heaps'
//! tuples, the ordered indexes' key maps and the grids' cell sets —
//! sharing the previous view's copy of every other one, plus one
//! `VersionMap`. A view never shares the live database's `Arc`s, so the
//! writer's `Arc::make_mut` never copies.

use crate::db::Database;

/// An immutable, self-contained copy of the store at one commit point:
/// the data a reader scans plus the version counters it validates
/// staleness against. Dereferences to [`Database`], so every read-only
/// accessor (`relation`, `get`, `scan`, `object_version`, …) works
/// unchanged; there is no way to reach a `&mut Database` through a view.
#[derive(Debug)]
pub struct PinnedStore {
    db: Database,
    copied: usize,
}

impl PinnedStore {
    pub(crate) fn new(db: Database, copied: usize) -> PinnedStore {
        PinnedStore { db, copied }
    }

    /// How many relations this pin deep-copied; it shares every other
    /// one with the previous view it was pinned from.
    pub fn relations_copied(&self) -> usize {
        self.copied
    }

    /// The logical-clock value this view was pinned at.
    pub fn clock(&self) -> u64 {
        self.db.version_clock()
    }

    /// The frozen data, as a read-only database.
    pub fn db(&self) -> &Database {
        &self.db
    }
}

impl std::ops::Deref for PinnedStore {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::schema::{Field, Schema};
    use crate::tuple::Tuple;
    use gaea_adt::{TypeTag, Value};

    fn db_with_rows(n: u64) -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![Field::required("v", TypeTag::Int4)]).unwrap();
        db.create_relation("r", schema).unwrap();
        for i in 0..n {
            db.insert("r", Tuple::new(vec![Value::Int4(i as i32)]))
                .unwrap();
        }
        db
    }

    #[test]
    fn pin_freezes_data_and_counters() {
        let mut db = db_with_rows(3);
        let view = db.pin();
        let clock_at_pin = db.version_clock();
        db.insert("r", Tuple::new(vec![Value::Int4(99)])).unwrap();

        assert_eq!(view.clock(), clock_at_pin);
        assert_eq!(view.relation("r").unwrap().len(), 3);
        assert_eq!(db.relation("r").unwrap().len(), 4);
        // Counters frozen too: the view's clock lags the live clock.
        assert!(view.version_clock() < db.version_clock());
    }

    #[test]
    fn pinned_counters_are_the_live_counters_at_pin_time() {
        let mut db = db_with_rows(3);
        let oids: Vec<_> = db
            .relation("r")
            .unwrap()
            .scan_oids(&Predicate::True)
            .unwrap();
        let view = db.pin();
        let clock = db.version_clock();
        let rel = db.relation_version("r");
        let objects: Vec<u64> = oids.iter().map(|&o| db.object_version(o)).collect();
        let pinned = |view: &PinnedStore| {
            let objects: Vec<u64> = oids.iter().map(|&o| view.object_version(o)).collect();
            (view.clock(), view.relation_version("r"), objects)
        };
        assert_eq!(pinned(&view), (clock, rel, objects.clone()));

        // Later live writes move every live counter, none of the view's.
        db.update("r", oids[0], Tuple::new(vec![Value::Int4(7)]))
            .unwrap();
        db.delete("r", oids[1]).unwrap();
        db.insert("r", Tuple::new(vec![Value::Int4(8)])).unwrap();
        assert!(db.version_clock() > clock);
        assert!(db.relation_version("r") > rel);
        assert!(db.object_version(oids[0]) > objects[0]);
        assert!(db.object_version(oids[1]) > objects[1]);
        assert_eq!(pinned(&view), (clock, rel, objects));
    }

    #[test]
    fn pinned_scans_match_the_state_at_pin_time() {
        let mut db = db_with_rows(5);
        let view = db.pin();
        let before: Vec<_> = db
            .relation("r")
            .unwrap()
            .scan_oids(&Predicate::True)
            .unwrap();
        for oid in &before {
            db.delete("r", *oid).unwrap();
        }
        assert!(db.relation("r").unwrap().is_empty());
        let seen = view
            .relation("r")
            .unwrap()
            .scan_oids(&Predicate::True)
            .unwrap();
        assert_eq!(seen, before);
    }

    #[test]
    fn pinned_indexes_survive_the_copy() {
        let mut db = db_with_rows(4);
        db.relation_mut("r").unwrap().create_index("v").unwrap();
        let view = db.pin();
        let hits = view
            .relation("r")
            .unwrap()
            .index_lookup("v", &Value::Int4(2))
            .unwrap();
        assert_eq!(hits.len(), 1);
    }
}
