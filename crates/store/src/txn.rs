//! Undo-log transactions.
//!
//! Derivation execution must be atomic: a task that fires a process writes
//! the derived object *and* the task record *and* any catalog updates, or
//! nothing (a failing assertion mid-plan must not leave half-derived
//! state). [`Txn`] records inverse operations and applies them in reverse
//! on rollback; uncommitted transactions roll back automatically on drop.
//!
//! Every logged operation and every inverse applied on rollback goes
//! through the [`Database`] write path, so MVCC version counters advance
//! for both. A rolled-back object therefore carries a *newer* version
//! than before the transaction even though its content is restored —
//! conservative for validators (needless re-derivation at worst, never a
//! stale result).

use crate::db::Database;
use crate::error::StoreResult;
use crate::oid::Oid;
use crate::predicate::Predicate;
use crate::tuple::Tuple;

#[derive(Debug)]
enum UndoOp {
    /// Inverse of insert.
    Remove { rel: String, oid: Oid },
    /// Inverse of delete.
    Reinsert { rel: String, oid: Oid, tuple: Tuple },
    /// Inverse of update.
    Restore { rel: String, oid: Oid, old: Tuple },
}

/// An open transaction over a [`Database`].
#[derive(Debug)]
pub struct Txn<'a> {
    db: &'a mut Database,
    log: Vec<UndoOp>,
    committed: bool,
}

impl<'a> Txn<'a> {
    pub(crate) fn new(db: &'a mut Database) -> Txn<'a> {
        Txn {
            db,
            log: Vec::new(),
            committed: false,
        }
    }

    /// Logged insert.
    pub fn insert(&mut self, rel: &str, tuple: Tuple) -> StoreResult<Oid> {
        let oid = self.db.insert(rel, tuple)?;
        self.log.push(UndoOp::Remove {
            rel: rel.into(),
            oid,
        });
        Ok(oid)
    }

    /// Logged delete.
    pub fn delete(&mut self, rel: &str, oid: Oid) -> StoreResult<Tuple> {
        let tuple = self.db.delete(rel, oid)?;
        self.log.push(UndoOp::Reinsert {
            rel: rel.into(),
            oid,
            tuple: tuple.clone(),
        });
        Ok(tuple)
    }

    /// Logged update.
    pub fn update(&mut self, rel: &str, oid: Oid, tuple: Tuple) -> StoreResult<Tuple> {
        let old = self.db.update(rel, oid, tuple)?;
        self.log.push(UndoOp::Restore {
            rel: rel.into(),
            oid,
            old: old.clone(),
        });
        Ok(old)
    }

    /// Read-through point lookup (sees this transaction's own writes).
    pub fn get(&self, rel: &str, oid: Oid) -> StoreResult<Tuple> {
        self.db.get(rel, oid).cloned()
    }

    /// Read-through scan.
    pub fn scan(&self, rel: &str, pred: &Predicate) -> StoreResult<Vec<(Oid, Tuple)>> {
        self.db.scan(rel, pred)
    }

    /// Allocate an OID within the shared space.
    pub fn allocate_oid(&self) -> Oid {
        self.db.allocate_oid()
    }

    /// Number of logged operations.
    pub fn ops_logged(&self) -> usize {
        self.log.len()
    }

    /// Make all writes durable in-memory; the log is discarded.
    pub fn commit(mut self) {
        self.committed = true;
        self.log.clear();
    }

    /// Undo everything this transaction did, in reverse order.
    pub fn rollback(mut self) {
        self.apply_undo();
    }

    fn apply_undo(&mut self) {
        while let Some(op) = self.log.pop() {
            // Undo of a successfully logged op cannot fail unless the store
            // was mutated behind the transaction's back; that is a logic
            // error, loudly surfaced.
            match op {
                UndoOp::Remove { rel, oid } => {
                    self.db
                        .delete(&rel, oid)
                        .expect("undo: remove of logged insert");
                }
                UndoOp::Reinsert { rel, oid, tuple } => {
                    self.db
                        .insert_with_oid(&rel, oid, tuple)
                        .expect("undo: reinsert of logged delete");
                }
                UndoOp::Restore { rel, oid, old } => {
                    self.db
                        .update(&rel, oid, old)
                        .expect("undo: restore of logged update");
                }
            }
        }
        self.committed = true; // nothing left to undo on drop
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if !self.committed {
            self.apply_undo();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use gaea_adt::{TypeTag, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation(
            "objects",
            Schema::new(vec![Field::required("v", TypeTag::Int4)]).unwrap(),
        )
        .unwrap();
        db
    }

    fn t(v: i32) -> Tuple {
        Tuple::new(vec![Value::Int4(v)])
    }

    #[test]
    fn commit_preserves_writes() {
        let mut db = db();
        let oid;
        {
            let mut txn = db.begin();
            oid = txn.insert("objects", t(5)).unwrap();
            txn.commit();
        }
        assert_eq!(db.get("objects", oid).unwrap().get(0), &Value::Int4(5));
    }

    #[test]
    fn rollback_undoes_insert_update_delete() {
        let mut db = db();
        let keep = db.insert("objects", t(1)).unwrap();
        {
            let mut txn = db.begin();
            let tmp = txn.insert("objects", t(2)).unwrap();
            txn.update("objects", keep, t(99)).unwrap();
            txn.delete("objects", keep).unwrap();
            assert!(txn.get("objects", tmp).is_ok());
            txn.rollback();
        }
        // keep is back with its original value; tmp is gone.
        assert_eq!(db.get("objects", keep).unwrap().get(0), &Value::Int4(1));
        assert_eq!(db.relation("objects").unwrap().len(), 1);
    }

    #[test]
    fn drop_without_commit_rolls_back() {
        let mut db = db();
        {
            let mut txn = db.begin();
            txn.insert("objects", t(7)).unwrap();
            // dropped here without commit
        }
        assert!(db.relation("objects").unwrap().is_empty());
    }

    #[test]
    fn failed_op_mid_txn_can_roll_back_cleanly() {
        let mut db = db();
        let mut txn = db.begin();
        txn.insert("objects", t(1)).unwrap();
        // This violates the schema and fails; nothing extra is logged.
        let bad = Tuple::new(vec![Value::Text("x".into())]);
        assert!(txn.insert("objects", bad).is_err());
        assert_eq!(txn.ops_logged(), 1);
        txn.rollback();
        assert!(db.relation("objects").unwrap().is_empty());
    }

    #[test]
    fn interleaved_ops_restore_exact_state() {
        let mut db = db();
        let a = db.insert("objects", t(10)).unwrap();
        let b = db.insert("objects", t(20)).unwrap();
        {
            let mut txn = db.begin();
            txn.update("objects", a, t(11)).unwrap();
            txn.update("objects", a, t(12)).unwrap();
            txn.delete("objects", b).unwrap();
            let c = txn.insert("objects", t(30)).unwrap();
            txn.update("objects", c, t(31)).unwrap();
        } // rollback on drop
        assert_eq!(db.get("objects", a).unwrap().get(0), &Value::Int4(10));
        assert_eq!(db.get("objects", b).unwrap().get(0), &Value::Int4(20));
        assert_eq!(db.relation("objects").unwrap().len(), 2);
    }

    #[test]
    fn committed_writes_bump_versions_once() {
        let mut db = db();
        let oid;
        {
            let mut txn = db.begin();
            oid = txn.insert("objects", t(5)).unwrap();
            txn.update("objects", oid, t(6)).unwrap();
            txn.commit();
        }
        assert_eq!(db.object_version(oid), 2);
        assert_eq!(db.relation_version("objects"), 2);
    }

    #[test]
    fn rollback_advances_versions_despite_restoring_content() {
        let mut db = db();
        let keep = db.insert("objects", t(1)).unwrap();
        let v_before = db.object_version(keep);
        {
            let mut txn = db.begin();
            txn.update("objects", keep, t(99)).unwrap();
            txn.rollback();
        }
        // Content is back, but the version only moved forward: a consumer
        // that observed the mid-transaction value can never revalidate.
        assert_eq!(db.get("objects", keep).unwrap().get(0), &Value::Int4(1));
        assert!(db.object_version(keep) > v_before);
    }

    #[test]
    fn txn_scan_sees_own_writes() {
        let mut db = db();
        let mut txn = db.begin();
        txn.insert("objects", t(1)).unwrap();
        txn.insert("objects", t(2)).unwrap();
        let seen = txn.scan("objects", &Predicate::True).unwrap();
        assert_eq!(seen.len(), 2);
        txn.commit();
    }
}
