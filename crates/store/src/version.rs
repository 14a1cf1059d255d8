//! MVCC-style version counters for O(1) staleness detection.
//!
//! The store keeps one logical clock per [`crate::db::Database`]; every
//! mutation (insert, update, delete — autocommitted or inside a
//! [`crate::txn::Txn`], including rollback's inverse operations) ticks the
//! clock and stamps the touched object and its relation with the new clock
//! value. Consumers that memoize results computed from stored objects
//! record the versions they observed and later compare them against the
//! current counters: a single integer comparison per input replaces any
//! walk over history to decide whether a derived result is still current.
//!
//! Version entries survive deletion (a deleted object's counter keeps
//! advancing rather than disappearing), so re-inserting under a recycled
//! OID can never present an old version again (no ABA). Transaction
//! rollback also advances versions — the content is restored but the
//! counters only move forward, which is conservative: a validator may
//! re-derive needlessly, but can never serve a stale result.
//!
//! A multi-step commit that compensates is exact instead. It undoes its
//! own writes, then [`crate::Database::rollback_to`] rewinds the clock,
//! the relation stamps and the OID allocator to a [`Savepoint`] taken
//! before its first step, so the failed statement leaves no tick behind;
//! nothing outside the statement saw the oids it rewinds. There is no
//! tick journal: in the kernel every other tick belongs to a committed
//! write, so a log that replays the writes replays the clock.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::oid::Oid;

/// Per-database version state: a logical clock plus the last-mutation
/// stamp of every object and relation. Persisted inside snapshots so
/// validity checks survive a save/load cycle; a write-ahead log rebuilds
/// it by re-applying the logged writes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct VersionMap {
    /// Logical clock; strictly increases with every mutation.
    clock: u64,
    /// Relation name → clock value of its last mutation.
    relations: BTreeMap<String, u64>,
    /// OID → clock value of its last mutation. A mutation never removes
    /// an entry — deletion is a mutation like any other — only a
    /// [`VersionMap::rewind`] does.
    objects: BTreeMap<u64, u64>,
}

/// A rewind point for the version counters and the OID allocator, taken
/// by [`crate::Database::savepoint`] and restored by
/// [`crate::Database::rollback_to`].
#[derive(Debug, Clone)]
pub struct Savepoint {
    clock: u64,
    relations: BTreeMap<String, u64>,
    pub(crate) next_oid: u64,
}

impl VersionMap {
    /// Advance the clock and stamp `oid` within `rel`.
    pub(crate) fn bump(&mut self, rel: &str, oid: Oid) {
        self.clock += 1;
        self.objects.insert(oid.0, self.clock);
        match self.relations.get_mut(rel) {
            Some(v) => *v = self.clock,
            None => {
                self.relations.insert(rel.to_string(), self.clock);
            }
        }
    }

    /// Advance the clock and stamp every given oid plus the relation —
    /// used when a whole relation is dropped.
    pub(crate) fn bump_all(&mut self, rel: &str, oids: impl Iterator<Item = Oid>) {
        self.clock += 1;
        for oid in oids {
            self.objects.insert(oid.0, self.clock);
        }
        self.relations.insert(rel.to_string(), self.clock);
    }

    /// Replay one tick a write-ahead log recorded as `(relation, stamped
    /// oids)`, exactly as [`VersionMap::bump_all`] took it.
    pub(crate) fn apply_recorded(&mut self, rel: &str, oids: &[u64]) {
        self.bump_all(rel, oids.iter().map(|&oid| Oid(oid)));
    }

    /// A rewind point at the current clock. `next_oid` is the allocator's
    /// next oid: every object first stamped after the savepoint has an
    /// oid at or above it.
    pub(crate) fn savepoint(&self, next_oid: u64) -> Savepoint {
        Savepoint {
            clock: self.clock,
            relations: self.relations.clone(),
            next_oid,
        }
    }

    /// Return to `sp`, given that every tick since it stamped an oid
    /// allocated since it: the clock and the relation stamps come back,
    /// and those oids' stamps go.
    pub(crate) fn rewind(&mut self, sp: Savepoint) {
        self.clock = sp.clock;
        self.relations = sp.relations;
        self.objects.split_off(&sp.next_oid);
    }

    /// Current clock value.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Version of an object; 0 means it has never been written here.
    pub fn object(&self, oid: Oid) -> u64 {
        self.objects.get(&oid.0).copied().unwrap_or(0)
    }

    /// Version of a relation; 0 means it has never been mutated.
    pub fn relation(&self, rel: &str) -> u64 {
        self.relations.get(rel).copied().unwrap_or(0)
    }

    /// A point-in-time copy of the counters.
    pub(crate) fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            clock: self.clock,
            object_versions: self.objects.clone(),
            relation_versions: self.relations.clone(),
        }
    }
}

/// A point-in-time view of the store's version counters — the lightweight
/// MVCC snapshot a consumer captures before computing something from
/// stored objects. Comparing a snapshot entry with the live counter is a
/// single integer comparison, so validating a derived result costs O(1)
/// per input regardless of how much history has accumulated since.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// Clock value at capture time.
    pub clock: u64,
    /// OID → version at capture time.
    pub object_versions: BTreeMap<u64, u64>,
    /// Relation name → version at capture time.
    pub relation_versions: BTreeMap<String, u64>,
}

impl StoreSnapshot {
    /// Version of an object at capture time (0 = never written).
    pub fn object_version(&self, oid: Oid) -> u64 {
        self.object_versions.get(&oid.0).copied().unwrap_or(0)
    }

    /// Version of a relation at capture time (0 = never mutated).
    pub fn relation_version(&self, rel: &str) -> u64 {
        self.relation_versions.get(rel).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_is_monotone_per_object_and_relation() {
        let mut v = VersionMap::default();
        assert_eq!(v.object(Oid(1)), 0);
        assert_eq!(v.relation("r"), 0);
        v.bump("r", Oid(1));
        v.bump("r", Oid(2));
        assert_eq!(v.object(Oid(1)), 1);
        assert_eq!(v.object(Oid(2)), 2);
        assert_eq!(v.relation("r"), 2);
        v.bump("s", Oid(1));
        assert_eq!(v.object(Oid(1)), 3);
        assert_eq!(v.relation("r"), 2);
        assert_eq!(v.relation("s"), 3);
        assert_eq!(v.clock(), 3);
    }

    #[test]
    fn snapshot_is_a_frozen_view() {
        let mut v = VersionMap::default();
        v.bump("r", Oid(1));
        let snap = v.snapshot();
        v.bump("r", Oid(1));
        assert_eq!(snap.object_version(Oid(1)), 1);
        assert_eq!(v.object(Oid(1)), 2);
        assert_eq!(snap.relation_version("r"), 1);
        assert_eq!(snap.object_version(Oid(99)), 0);
    }

    #[test]
    fn bump_all_stamps_every_oid_in_one_tick() {
        let mut v = VersionMap::default();
        v.bump("r", Oid(1));
        v.bump_all("r", [Oid(1), Oid(2)].into_iter());
        assert_eq!(v.object(Oid(1)), 2);
        assert_eq!(v.object(Oid(2)), 2);
        assert_eq!(v.relation("r"), 2);
    }

    #[test]
    fn recorded_ticks_replay_the_exact_counters() {
        let mut live = VersionMap::default();
        live.bump("r", Oid(1));
        live.bump_all("s", [Oid(2), Oid(3)].into_iter());
        live.bump("r", Oid(1));
        live.bump_all("t", std::iter::empty());

        let mut replayed = VersionMap::default();
        for (rel, oids) in [
            ("r", vec![1]),
            ("s", vec![2, 3]),
            ("r", vec![1]),
            ("t", vec![]),
        ] {
            replayed.apply_recorded(rel, &oids);
        }
        assert_eq!(
            serde_json::to_string(&replayed).unwrap(),
            serde_json::to_string(&live).unwrap()
        );
    }

    #[test]
    fn rewind_forgets_every_tick_since_the_savepoint() {
        let mut v = VersionMap::default();
        v.bump("r", Oid(1));
        let before = serde_json::to_string(&v).unwrap();
        let sp = v.savepoint(2);
        v.bump("r", Oid(2));
        v.bump("s", Oid(3));
        v.bump("r", Oid(2));
        v.rewind(sp);
        assert_eq!(serde_json::to_string(&v).unwrap(), before);
    }
}
