//! Tasks: object-level derivation records (paper §2.1.2, §2.1.5).
//!
//! "The instantiation of a process with input data objects is called a
//! task. Every task will generate a set of objects (most of the time just
//! one) for the output class. [...] The data object level derivation will
//! record the actual derivation relationship among data objects."
//!
//! Tasks are the provenance substrate: lineage trees, experiment
//! reproduction and duplicate-work detection are all queries over tasks.

use crate::ids::{ObjectId, ProcessId, TaskId};
use gaea_adt::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// How the task came to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskKind {
    /// Direct firing of a primitive process.
    Primitive,
    /// Umbrella record for a compound process (children carry the work).
    Compound,
    /// The generic interpolation derivation of §2.1.5 step 2.
    Interpolation,
    /// Primitive firing completed through an interactive session (§4.3
    /// extension); the scientist's answers are in `params`.
    Interactive,
    /// Mapping executed at a remote site (§5 extension); the site name is
    /// in `params["site"]`.
    External,
    /// Non-applicative derivation recorded by the scientist (§5 extension):
    /// outputs were observed, not computed, so the task can never be
    /// replayed — only audited.
    Manual,
}

impl TaskKind {
    /// Can the system re-fire a task of this kind on its own? `false`
    /// for manual tasks (the procedure happened outside the system),
    /// interpolations (query-driven — re-issue the query instead) and
    /// interactive tasks (the scientist's answers drove them); the
    /// refresh machinery reports such derivations as skipped rather
    /// than re-firing them.
    pub fn auto_firable(&self) -> bool {
        !matches!(
            self,
            TaskKind::Manual | TaskKind::Interpolation | TaskKind::Interactive
        )
    }
}

/// One derivation record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Task identifier.
    pub id: TaskId,
    /// The instantiated process.
    pub process: ProcessId,
    /// Process name at instantiation time (processes are immutable, so this
    /// never dangles).
    pub process_name: String,
    /// Input objects per argument name, in binding order.
    pub inputs: BTreeMap<String, Vec<ObjectId>>,
    /// Store version of each input object observed when the task fired —
    /// the derivation's MVCC fingerprint. A recorded derivation is
    /// *current* while every input's live version still equals its
    /// fingerprinted one (and every input is itself current); it turns
    /// *stale* the moment an input is mutated or deleted. Empty on tasks
    /// recorded before versioning existed: such tasks classify as current
    /// (nothing recorded to contradict them).
    #[serde(default)]
    pub input_versions: BTreeMap<ObjectId, u64>,
    /// Objects generated for the output class.
    pub outputs: Vec<ObjectId>,
    /// Extra parameters outside the template (e.g. the interpolation target
    /// time), needed for faithful reproduction.
    pub params: BTreeMap<String, Value>,
    /// Logical sequence number (monotone per kernel; deterministic, unlike
    /// wall-clock time).
    pub seq: u64,
    /// Who ran it (data sharing needs attribution).
    pub user: String,
    /// Primitive / compound / interpolation.
    pub kind: TaskKind,
    /// Child tasks (compound expansion, §2.1.4).
    pub children: Vec<TaskId>,
}

impl Task {
    /// All input objects, flattened in argument order.
    pub fn all_inputs(&self) -> Vec<ObjectId> {
        self.inputs.values().flatten().copied().collect()
    }

    /// True if `obj` was produced by this task.
    pub fn produced(&self, obj: ObjectId) -> bool {
        self.outputs.contains(&obj)
    }

    /// A duplicate-detection key: same process + same inputs + same params
    /// ⇒ the same derivation (the experiment-management goal of avoiding
    /// "unnecessary duplication of experiments").
    ///
    /// Parameters are keyed by *content* (value-identity hash), not by
    /// display form — a `matrix(4x3)` of different coefficients is a
    /// different derivation (the paper's rule that different parameters
    /// mean different processes extends to interaction answers).
    pub fn dedup_key(&self) -> String {
        dedup_key_parts(self.process, &self.inputs, &self.params)
    }
}

/// The canonical derivation-identity key over explicit parts — the one
/// implementation behind [`Task::dedup_key`] and the kernel's
/// *prospective* firing keys (`kernel::query::dedup_key_for`), which
/// must agree byte for byte: a prospective key built from the params a
/// fresh firing *would* record (e.g. an external process's `site`)
/// matches the key of the task that firing then records.
pub fn dedup_key_parts(
    process: ProcessId,
    inputs: &BTreeMap<String, Vec<ObjectId>>,
    params: &BTreeMap<String, Value>,
) -> String {
    use std::fmt::Write;
    use std::hash::{Hash, Hasher};
    let mut key = format!("p{}", process.raw());
    // Writing into a `String` cannot fail.
    for (arg, objs) in inputs {
        // `SETOF` bindings are sets, so the key sorts ids: a permuted
        // binding is the same derivation.
        let mut ids: Vec<u64> = objs.iter().map(|o| o.raw()).collect();
        ids.sort_unstable();
        let _ = write!(key, ";{arg}=");
        for (i, id) in ids.iter().enumerate() {
            let _ = write!(key, "{}{id}", if i == 0 { "" } else { "," });
        }
    }
    for (k, v) in params {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        let _ = write!(key, ";{k}:{}:{:016x}", v.type_tag(), h.finish());
    }
    key
}

/// A 64-bit fingerprint of a derivation-identity key
/// ([`dedup_key_parts`]). The catalog files it beside every recorded
/// task, so the duplicate-derivation check compares full keys only where
/// fingerprints agree. Equal keys always fingerprint alike; a collision
/// costs one extra key comparison, never a wrong match. Runtime state
/// only: the value is never persisted.
pub fn key_fingerprint(key: &str) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(key.as_bytes());
    h.finish()
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}(",
            self.id,
            match self.kind {
                TaskKind::Primitive => "prim",
                TaskKind::Compound => "comp",
                TaskKind::Interpolation => "interp",
                TaskKind::Interactive => "interact",
                TaskKind::External => "extern",
                TaskKind::Manual => "manual",
            },
            self.process_name
        )?;
        for (i, (arg, objs)) in self.inputs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{arg}={{{}}}",
                objs.iter()
                    .map(|o| o.raw().to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )?;
        }
        write!(
            f,
            ") -> {{{}}} by {}",
            self.outputs
                .iter()
                .map(|o| o.raw().to_string())
                .collect::<Vec<_>>()
                .join(","),
            self.user
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaea_store::Oid;

    fn task(seq: u64, in_ids: &[u64], out: u64) -> Task {
        let mut inputs = BTreeMap::new();
        inputs.insert(
            "bands".to_string(),
            in_ids.iter().map(|i| ObjectId(Oid(*i))).collect(),
        );
        Task {
            id: TaskId(Oid(100 + seq)),
            process: ProcessId(Oid(7)),
            process_name: "P20".into(),
            inputs,
            input_versions: BTreeMap::new(),
            outputs: vec![ObjectId(Oid(out))],
            params: BTreeMap::new(),
            seq,
            user: "qiu".into(),
            kind: TaskKind::Primitive,
            children: vec![],
        }
    }

    #[test]
    fn flattened_inputs_and_produced() {
        let t = task(1, &[1, 2, 3], 9);
        assert_eq!(t.all_inputs().len(), 3);
        assert!(t.produced(ObjectId(Oid(9))));
        assert!(!t.produced(ObjectId(Oid(1))));
    }

    #[test]
    fn dedup_key_identity() {
        let a = task(1, &[1, 2, 3], 9);
        let b = task(2, &[1, 2, 3], 10); // same derivation, later run
        let c = task(3, &[1, 2, 4], 11); // different inputs
        assert_eq!(a.dedup_key(), b.dedup_key());
        assert_ne!(a.dedup_key(), c.dedup_key());
        // The key's bytes are pinned: ids sort within a binding.
        let mut permuted = task(5, &[3, 1, 2], 13);
        assert_eq!(permuted.dedup_key(), "p7;bands=1,2,3");
        permuted
            .inputs
            .insert("mask".into(), vec![ObjectId(Oid(8))]);
        assert_eq!(permuted.dedup_key(), "p7;bands=1,2,3;mask=8");
        assert_eq!(
            key_fingerprint(&a.dedup_key()),
            key_fingerprint(&b.dedup_key())
        );
        assert_ne!(
            key_fingerprint(&a.dedup_key()),
            key_fingerprint(&c.dedup_key())
        );
        // Parameters distinguish derivations too.
        let mut d = task(4, &[1, 2, 3], 12);
        d.params.insert("at".into(), Value::Int4(5));
        assert_ne!(a.dedup_key(), d.dedup_key());
    }

    #[test]
    fn display_is_informative() {
        let s = task(1, &[1, 2], 9).to_string();
        assert!(s.contains("P20"));
        assert!(s.contains("bands={1,2}"));
        assert!(s.contains("-> {9} by qiu"));
    }
}
