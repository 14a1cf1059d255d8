//! Ordered secondary indexes.
//!
//! A B-tree-backed index over one column. Because [`gaea_adt::Value`] is
//! totally ordered (value identity), any column type can be indexed,
//! including extents. Indexes are maintained eagerly by
//! [`crate::db::Relation`] on insert/update/delete.
//!
//! A key held by one tuple — every key of a unique column — stores its
//! OID inline in the map node; only a key shared by several tuples owns
//! a `Vec`. Copying an index for [`crate::db::Database::pin`] is then one
//! allocation per B-tree node plus one per shared key, not one per key.

use crate::oid::Oid;
use gaea_adt::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Bound;

/// The OIDs carrying one key, in insertion order.
#[derive(Debug, Clone)]
enum Postings {
    One(Oid),
    Many(Vec<Oid>),
}

impl Postings {
    fn as_slice(&self) -> &[Oid] {
        match self {
            Postings::One(oid) => std::slice::from_ref(oid),
            Postings::Many(oids) => oids,
        }
    }
}

/// Ordered index: column value → OIDs of tuples carrying it.
///
/// The map itself is not serialized (JSON requires string keys); snapshots
/// persist only the indexed column and rebuild the map from the heap on
/// load — cheaper than a custom key codec and guaranteed consistent.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OrderedIndex {
    /// Indexed column position in the relation schema.
    pub column: usize,
    #[serde(skip)]
    map: BTreeMap<Value, Postings>,
}

impl OrderedIndex {
    /// Empty index on a column position.
    pub fn new(column: usize) -> OrderedIndex {
        OrderedIndex {
            column,
            map: BTreeMap::new(),
        }
    }

    /// Register a tuple's column value.
    pub fn insert(&mut self, key: Value, oid: Oid) {
        self.map
            .entry(key)
            .and_modify(|postings| match postings {
                Postings::One(first) => *postings = Postings::Many(vec![*first, oid]),
                Postings::Many(oids) => oids.push(oid),
            })
            .or_insert(Postings::One(oid));
    }

    /// Unregister. A key left with one OID stores it inline again.
    pub fn remove(&mut self, key: &Value, oid: Oid) {
        let Some(postings) = self.map.get_mut(key) else {
            return;
        };
        match postings {
            Postings::One(only) => {
                if *only == oid {
                    self.map.remove(key);
                }
            }
            Postings::Many(oids) => {
                oids.retain(|o| *o != oid);
                match oids[..] {
                    [] => {
                        self.map.remove(key);
                    }
                    [last] => *postings = Postings::One(last),
                    _ => {}
                }
            }
        }
    }

    /// Exact-match lookup.
    pub fn lookup(&self, key: &Value) -> &[Oid] {
        self.map.get(key).map_or(&[], Postings::as_slice)
    }

    /// Range lookup over the value order (inclusive bounds).
    pub fn range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<Oid> {
        let lower = lo.map_or(Bound::Unbounded, |v| Bound::Included(v.clone()));
        let upper = hi.map_or(Bound::Unbounded, |v| Bound::Included(v.clone()));
        self.map
            .range((lower, upper))
            .flat_map(|(_, oids)| oids.as_slice().iter().copied())
            .collect()
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Smallest indexed key, if any.
    pub fn min_key(&self) -> Option<&Value> {
        self.map.keys().next()
    }

    /// Largest indexed key, if any.
    pub fn max_key(&self) -> Option<&Value> {
        self.map.keys().next_back()
    }

    /// All OIDs in key order (ascending or descending), lazily: a caller
    /// that stops early walks only the keys it consumed. Within one key,
    /// OIDs come out in insertion order either way — ties are resolved by
    /// the caller, so reversing the key walk must not reverse ties.
    pub fn sorted_oids(&self, desc: bool) -> impl Iterator<Item = Oid> + '_ {
        let mut keys = self.map.values();
        std::iter::from_fn(move || if desc { keys.next_back() } else { keys.next() })
            .flat_map(|oids| oids.as_slice().iter().copied())
    }

    /// Total registered entries.
    pub fn len(&self) -> usize {
        self.map.values().map(|oids| oids.as_slice().len()).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut idx = OrderedIndex::new(0);
        idx.insert(Value::Int4(5), Oid(1));
        idx.insert(Value::Int4(5), Oid(2));
        idx.insert(Value::Int4(7), Oid(3));
        assert_eq!(idx.lookup(&Value::Int4(5)), &[Oid(1), Oid(2)]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        idx.remove(&Value::Int4(5), Oid(1));
        assert_eq!(idx.lookup(&Value::Int4(5)), &[Oid(2)]);
        idx.remove(&Value::Int4(5), Oid(2));
        assert!(idx.lookup(&Value::Int4(5)).is_empty());
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn range_scan_inclusive() {
        let mut idx = OrderedIndex::new(0);
        for i in 0..10 {
            idx.insert(Value::Int4(i), Oid(100 + i as u64));
        }
        let mid = idx.range(Some(&Value::Int4(3)), Some(&Value::Int4(5)));
        assert_eq!(mid, vec![Oid(103), Oid(104), Oid(105)]);
        let tail = idx.range(Some(&Value::Int4(8)), None);
        assert_eq!(tail, vec![Oid(108), Oid(109)]);
        let all = idx.range(None, None);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn string_keys_order() {
        let mut idx = OrderedIndex::new(1);
        idx.insert(Value::Text("b".into()), Oid(2));
        idx.insert(Value::Text("a".into()), Oid(1));
        idx.insert(Value::Text("c".into()), Oid(3));
        let r = idx.range(
            Some(&Value::Text("a".into())),
            Some(&Value::Text("b".into())),
        );
        assert_eq!(r, vec![Oid(1), Oid(2)]);
    }

    #[test]
    fn removing_unknown_key_is_noop() {
        let mut idx = OrderedIndex::new(0);
        idx.remove(&Value::Int4(1), Oid(1));
        assert!(idx.is_empty());
    }

    #[test]
    fn min_max_and_sorted_walks() {
        let mut idx = OrderedIndex::new(0);
        assert!(idx.min_key().is_none());
        assert!(idx.max_key().is_none());
        idx.insert(Value::Int4(5), Oid(2));
        idx.insert(Value::Int4(1), Oid(3));
        idx.insert(Value::Int4(5), Oid(4));
        idx.insert(Value::Int4(9), Oid(1));
        assert_eq!(idx.min_key(), Some(&Value::Int4(1)));
        assert_eq!(idx.max_key(), Some(&Value::Int4(9)));
        let walk = |desc| idx.sorted_oids(desc).collect::<Vec<_>>();
        assert_eq!(walk(false), vec![Oid(3), Oid(2), Oid(4), Oid(1)]);
        // Descending reverses keys but keeps within-key insertion order.
        assert_eq!(walk(true), vec![Oid(1), Oid(2), Oid(4), Oid(3)]);
    }
}
