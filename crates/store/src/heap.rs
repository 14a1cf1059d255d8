//! Slotted heap storage with free-slot reuse.
//!
//! A heap stores `(Oid, Tuple)` pairs in slots; deletion leaves a free slot
//! that later inserts reuse (newest first), except that deleting the last
//! slot while none is free shrinks the heap. So a delete exactly undoes
//! the insert before it and vice versa: rollback and compensation leave
//! no trace. An OID→slot map gives O(1) point lookups, and scans walk the
//! slot array in storage order.

use crate::error::{StoreError, StoreResult};
use crate::oid::Oid;
use crate::tuple::Tuple;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Slotted tuple storage.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Heap {
    slots: Vec<Option<(Oid, Tuple)>>,
    free: Vec<usize>,
    #[serde(skip)]
    by_oid: HashMap<u64, usize>,
    /// Kept in sync eagerly; rebuilt after deserialization.
    len: usize,
}

impl Heap {
    /// Empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Rebuild the OID map (after snapshot load). A heap saved before
    /// deletes could shrink it may hold its last slot at the bottom of the
    /// free stack, where no delete leaves it now: shrink that away.
    pub fn rebuild_index(&mut self) {
        while self.free.first().is_some_and(|s| s + 1 == self.slots.len()) {
            self.free.remove(0);
            self.slots.pop();
        }
        self.by_oid.clear();
        self.len = 0;
        for (slot, entry) in self.slots.iter().enumerate() {
            if let Some((oid, _)) = entry {
                self.by_oid.insert(oid.0, slot);
                self.len += 1;
            }
        }
    }

    /// Live tuple count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no live tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert under a caller-allocated OID.
    pub fn insert(&mut self, oid: Oid, tuple: Tuple) -> StoreResult<()> {
        if self.by_oid.contains_key(&oid.0) {
            return Err(StoreError::SchemaViolation(format!(
                "oid {oid} already present"
            )));
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Some((oid, tuple));
                s
            }
            None => {
                self.slots.push(Some((oid, tuple)));
                self.slots.len() - 1
            }
        };
        self.by_oid.insert(oid.0, slot);
        self.len += 1;
        Ok(())
    }

    /// Point lookup.
    pub fn get(&self, oid: Oid) -> StoreResult<&Tuple> {
        let slot = self
            .by_oid
            .get(&oid.0)
            .ok_or(StoreError::NoSuchTuple(oid.0))?;
        Ok(&self.slots[*slot].as_ref().expect("live slot").1)
    }

    /// True if present.
    pub fn contains(&self, oid: Oid) -> bool {
        self.by_oid.contains_key(&oid.0)
    }

    /// Remove, returning the tuple.
    pub fn delete(&mut self, oid: Oid) -> StoreResult<Tuple> {
        let slot = self
            .by_oid
            .remove(&oid.0)
            .ok_or(StoreError::NoSuchTuple(oid.0))?;
        let (_, tuple) = self.slots[slot].take().expect("live slot");
        // An insert with no free slot grew the heap: shrink it back, and a
        // re-insert grows it to the same slot.
        if slot + 1 == self.slots.len() && self.free.is_empty() {
            self.slots.pop();
        } else {
            self.free.push(slot);
        }
        self.len -= 1;
        Ok(tuple)
    }

    /// Replace, returning the old tuple.
    pub fn update(&mut self, oid: Oid, tuple: Tuple) -> StoreResult<Tuple> {
        let slot = self
            .by_oid
            .get(&oid.0)
            .ok_or(StoreError::NoSuchTuple(oid.0))?;
        let entry = self.slots[*slot].as_mut().expect("live slot");
        Ok(std::mem::replace(&mut entry.1, tuple))
    }

    /// Iterate live tuples in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, &Tuple)> {
        self.slots
            .iter()
            .filter_map(|e| e.as_ref().map(|(oid, t)| (*oid, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaea_adt::Value;

    fn t(v: i32) -> Tuple {
        Tuple::new(vec![Value::Int4(v)])
    }

    #[test]
    fn insert_get_delete() {
        let mut h = Heap::new();
        h.insert(Oid(1), t(10)).unwrap();
        h.insert(Oid(2), t(20)).unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(Oid(1)).unwrap().get(0), &Value::Int4(10));
        let gone = h.delete(Oid(1)).unwrap();
        assert_eq!(gone.get(0), &Value::Int4(10));
        assert!(h.get(Oid(1)).is_err());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn slot_reuse_after_delete() {
        let mut h = Heap::new();
        h.insert(Oid(1), t(1)).unwrap();
        h.insert(Oid(2), t(2)).unwrap();
        h.delete(Oid(1)).unwrap();
        h.insert(Oid(3), t(3)).unwrap();
        // Slot vector did not grow: reused slot 0.
        assert_eq!(h.slots.len(), 2);
        assert_eq!(h.len(), 2);
        let oids: Vec<u64> = h.iter().map(|(o, _)| o.0).collect();
        assert_eq!(oids, vec![3, 2]); // storage order, slot 0 first
    }

    #[test]
    fn delete_and_insert_undo_each_other_exactly() {
        let json = |h: &Heap| serde_json::to_string(h).unwrap();
        let mut h = Heap::new();
        for oid in 1..=3 {
            h.insert(Oid(oid), t(oid as i32)).unwrap();
        }
        // Insert then delete, from a full heap and from one with a
        // free slot: the heap is as it was.
        for free in [None, Some(Oid(1))] {
            if let Some(oid) = free {
                h.delete(oid).unwrap();
            }
            let before = json(&h);
            h.insert(Oid(9), t(9)).unwrap();
            h.delete(Oid(9)).unwrap();
            assert_eq!(json(&h), before);
        }
        // Delete then re-insert, newest first: every tuple is back in
        // its slot.
        let before = json(&h);
        h.delete(Oid(2)).unwrap();
        h.delete(Oid(3)).unwrap();
        h.insert(Oid(3), t(3)).unwrap();
        h.insert(Oid(2), t(2)).unwrap();
        assert_eq!(json(&h), before);
    }

    #[test]
    fn legacy_trailing_free_slot_shrinks_on_load() {
        // Saved when a delete of the last slot still free-listed it.
        let legacy = r#"{"slots":[[1,{"values":[{"Int4":1}]}],null],"free":[1],"len":1}"#;
        let mut h: Heap = serde_json::from_str(legacy).unwrap();
        h.rebuild_index();
        assert_eq!(h.slots.len(), 1);
        assert!(h.free.is_empty());
        assert!(h.get(Oid(1)).is_ok());
    }

    #[test]
    fn duplicate_oid_rejected() {
        let mut h = Heap::new();
        h.insert(Oid(1), t(1)).unwrap();
        assert!(h.insert(Oid(1), t(2)).is_err());
    }

    #[test]
    fn update_replaces() {
        let mut h = Heap::new();
        h.insert(Oid(1), t(1)).unwrap();
        let old = h.update(Oid(1), t(9)).unwrap();
        assert_eq!(old.get(0), &Value::Int4(1));
        assert_eq!(h.get(Oid(1)).unwrap().get(0), &Value::Int4(9));
        assert!(h.update(Oid(99), t(0)).is_err());
    }

    #[test]
    fn rebuild_index_restores_lookups() {
        let mut h = Heap::new();
        h.insert(Oid(5), t(50)).unwrap();
        h.insert(Oid(6), t(60)).unwrap();
        h.delete(Oid(5)).unwrap();
        // Simulate snapshot round trip losing the skip-serialized map.
        let json = serde_json::to_string(&h).unwrap();
        let mut back: Heap = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert_eq!(back.len(), 1);
        assert!(back.get(Oid(6)).is_ok());
        assert!(back.get(Oid(5)).is_err());
    }
}
