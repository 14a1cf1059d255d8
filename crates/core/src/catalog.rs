//! The kernel catalog: definitions, tasks, experiments and the object
//! directory.
//!
//! All catalog entities are kept in ordered maps (deterministic iteration)
//! and serialized as one JSON document into the store snapshot, alongside
//! the per-class object relations. Definitions are immutable once
//! registered — the paper's "in no case is the old process overwritten"
//! generalized to every catalog kind.

use crate::error::{KernelError, KernelResult};
use crate::experiment::Experiment;
use crate::ids::{ClassId, ConceptId, ExperimentId, ObjectId, ProcessId, TaskId};
use crate::schema::{ClassDef, Concept, ProcessDef};
use crate::task::{key_fingerprint, Task};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The catalog body.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Catalog {
    /// Non-primitive classes.
    pub classes: BTreeMap<ClassId, ClassDef>,
    /// Concepts.
    pub concepts: BTreeMap<ConceptId, Concept>,
    /// Processes.
    pub processes: BTreeMap<ProcessId, ProcessDef>,
    /// Tasks (append-only), each behind an `Arc`: the task log is the
    /// catalog's fastest-growing map, and a read view's catalog copy then
    /// copies pointers instead of every task's input, version and
    /// parameter maps. `Arc<Task>` serializes as `Task`.
    pub tasks: BTreeMap<TaskId, Arc<Task>>,
    /// Experiments.
    pub experiments: BTreeMap<ExperimentId, Experiment>,
    /// Object directory: which class each stored object belongs to.
    pub object_class: BTreeMap<ObjectId, ClassId>,
    /// Name indexes.
    class_names: BTreeMap<String, ClassId>,
    concept_names: BTreeMap<String, ConceptId>,
    process_names: BTreeMap<String, ProcessId>,
    experiment_names: BTreeMap<String, ExperimentId>,
    /// Reverse index object → earliest task that produced it (compound
    /// umbrellas share outputs with their last step; the step keeps the
    /// entry). Not serialized — rebuilt via [`Catalog::rebuild_task_index`]
    /// after a load.
    #[serde(skip)]
    produced_by: BTreeMap<ObjectId, TaskId>,
    /// Reverse index process → its recorded tasks, each as the
    /// [`key_fingerprint`] of its dedup key (computed once, when the task
    /// enters the catalog) and its id, sorted by `(fingerprint, id)`. The
    /// duplicate-derivation check ([`Catalog::tasks_keyed`]) binary-searches
    /// one fingerprint and formats a recorded task's key only where
    /// fingerprints agree. One flat vector per process, so a read view's
    /// catalog copy clones it with one allocation, as it would a list of
    /// ids. Not serialized — rebuilt via [`Catalog::rebuild_task_index`].
    #[serde(skip)]
    tasks_by_process: BTreeMap<ProcessId, Vec<(u64, TaskId)>>,
    /// Logical clock for task ordering.
    pub next_seq: u64,
    /// Events applied since this catalog was built or loaded: every
    /// event but the job lifecycle ones advances it, DDL and access
    /// paths included, which tick no store clock. Read-view publication
    /// keys on it. Runtime state, not serialized.
    #[serde(skip)]
    pub(crate) applied_events: u64,
}

impl Catalog {
    /// Refuse `name` if a definition of `kind` ("class", "concept",
    /// "process" or "experiment") already holds it. Read-only, so a
    /// definer checks before it allocates the new definition's id.
    pub(crate) fn check_fresh(&self, kind: &'static str, name: &str) -> KernelResult<()> {
        let taken = match kind {
            "class" => self.class_names.contains_key(name),
            "concept" => self.concept_names.contains_key(name),
            "process" => self.process_names.contains_key(name),
            "experiment" => self.experiment_names.contains_key(name),
            _ => unreachable!("no definition kind {kind}"),
        };
        if taken {
            return Err(KernelError::Duplicate {
                kind,
                name: name.into(),
            });
        }
        Ok(())
    }

    /// Register a class (name must be fresh).
    pub fn add_class(&mut self, def: ClassDef) -> KernelResult<()> {
        self.check_fresh("class", &def.name)?;
        self.class_names.insert(def.name.clone(), def.id);
        self.classes.insert(def.id, def);
        Ok(())
    }

    /// Register a concept.
    pub fn add_concept(&mut self, def: Concept) -> KernelResult<()> {
        self.check_fresh("concept", &def.name)?;
        self.concept_names.insert(def.name.clone(), def.id);
        self.concepts.insert(def.id, def);
        Ok(())
    }

    /// Register a process and link it into its output class's DERIVED BY.
    pub fn add_process(&mut self, def: ProcessDef) -> KernelResult<()> {
        self.check_fresh("process", &def.name)?;
        let out = def.output;
        self.process_names.insert(def.name.clone(), def.id);
        let id = def.id;
        self.processes.insert(def.id, def);
        if let Some(class) = self.classes.get_mut(&out) {
            class.derived_by.push(id);
        }
        Ok(())
    }

    /// Register an experiment.
    pub fn add_experiment(&mut self, def: Experiment) -> KernelResult<()> {
        self.check_fresh("experiment", &def.name)?;
        self.experiment_names.insert(def.name.clone(), def.id);
        self.experiments.insert(def.id, def);
        Ok(())
    }

    /// Append a task and bump the logical clock.
    pub fn add_task(&mut self, task: Task) {
        self.next_seq = self.next_seq.max(task.seq + 1);
        for out in &task.outputs {
            // First producer wins: a compound umbrella re-lists its last
            // step's outputs, but the step (added first, lower id) is the
            // object's real producer.
            self.produced_by.entry(*out).or_insert(task.id);
        }
        let entry = (key_fingerprint(&task.dedup_key()), task.id);
        let keyed = self.tasks_by_process.entry(task.process).or_default();
        keyed.insert(keyed.partition_point(|e| *e < entry), entry);
        self.tasks.insert(task.id, Arc::new(task));
    }

    /// Remove a task record — compound compensation's inverse of
    /// [`Catalog::add_task`]: unlink it from the indexes and wind the
    /// logical clock back to its seq (compensation removes only the newest
    /// tasks). Returns the removed task.
    pub fn remove_task(&mut self, id: TaskId) -> Option<Arc<Task>> {
        let task = self.tasks.remove(&id)?;
        self.next_seq = self.next_seq.min(task.seq);
        for out in &task.outputs {
            if self.produced_by.get(out) == Some(&id) {
                self.produced_by.remove(out);
            }
        }
        if let Some(keyed) = self.tasks_by_process.get_mut(&task.process) {
            if let Ok(at) = keyed.binary_search(&(key_fingerprint(&task.dedup_key()), id)) {
                keyed.remove(at);
            }
            if keyed.is_empty() {
                self.tasks_by_process.remove(&task.process);
            }
        }
        Some(task)
    }

    /// Rebuild the object → producing-task and process → (key
    /// fingerprint, task) indexes from the task map. Called after
    /// deserializing a catalog (the indexes are not persisted).
    pub fn rebuild_task_index(&mut self) {
        self.produced_by.clear();
        self.tasks_by_process.clear();
        // Iterate in id order so the earliest producer wins.
        for (id, task) in &self.tasks {
            for out in &task.outputs {
                self.produced_by.entry(*out).or_insert(*id);
            }
            self.tasks_by_process
                .entry(task.process)
                .or_default()
                .push((key_fingerprint(&task.dedup_key()), *id));
        }
        // Sorted exactly as incremental `add_task` upkeep leaves them.
        for keyed in self.tasks_by_process.values_mut() {
            keyed.sort_unstable();
        }
    }

    /// Recorded tasks of one process, in task-id (= recording) order,
    /// through the per-process index instead of a scan of every task on
    /// record.
    pub fn tasks_of_process(&self, pid: ProcessId) -> impl Iterator<Item = &Task> {
        let mut ids: Vec<TaskId> = self.keyed_tasks(pid).iter().map(|(_, id)| *id).collect();
        ids.sort_unstable();
        ids.into_iter()
            .filter_map(|id| self.tasks.get(&id))
            .map(Arc::as_ref)
    }

    /// Recorded tasks of one process whose dedup key fingerprints to
    /// `fingerprint` ([`key_fingerprint`]), in task-id order: the
    /// candidates for one derivation identity. A binary search finds
    /// them, so the cost does not grow with the process's history, and
    /// no key is formatted. A caller confirms each candidate's full key,
    /// since distinct keys can share a fingerprint.
    pub fn tasks_keyed(&self, pid: ProcessId, fingerprint: u64) -> impl Iterator<Item = &Task> {
        let keyed = self.keyed_tasks(pid);
        keyed[keyed.partition_point(|(f, _)| *f < fingerprint)..]
            .iter()
            .take_while(move |(f, _)| *f == fingerprint)
            .filter_map(|(_, id)| self.tasks.get(id))
            .map(Arc::as_ref)
    }

    /// One process's `(key fingerprint, task)` entries, sorted.
    fn keyed_tasks(&self, pid: ProcessId) -> &[(u64, TaskId)] {
        self.tasks_by_process.get(&pid).map_or(&[], Vec::as_slice)
    }

    /// The process → (key fingerprint, task) index as maintained, for
    /// tests that compare incremental upkeep with a rebuild.
    #[cfg(test)]
    pub(crate) fn task_key_index(&self) -> &BTreeMap<ProcessId, Vec<(u64, TaskId)>> {
        &self.tasks_by_process
    }

    /// Class by id.
    pub fn class(&self, id: ClassId) -> KernelResult<&ClassDef> {
        self.classes.get(&id).ok_or(KernelError::NoSuchId {
            kind: "class",
            id: id.raw(),
        })
    }

    /// Class by name.
    pub fn class_by_name(&self, name: &str) -> KernelResult<&ClassDef> {
        let id = self
            .class_names
            .get(name)
            .ok_or_else(|| KernelError::NotFound {
                kind: "class",
                name: name.into(),
            })?;
        self.class(*id)
    }

    /// Concept by id.
    pub fn concept(&self, id: ConceptId) -> KernelResult<&Concept> {
        self.concepts.get(&id).ok_or(KernelError::NoSuchId {
            kind: "concept",
            id: id.raw(),
        })
    }

    /// Concept by name.
    pub fn concept_by_name(&self, name: &str) -> KernelResult<&Concept> {
        let id = self
            .concept_names
            .get(name)
            .ok_or_else(|| KernelError::NotFound {
                kind: "concept",
                name: name.into(),
            })?;
        self.concept(*id)
    }

    /// Process by id.
    pub fn process(&self, id: ProcessId) -> KernelResult<&ProcessDef> {
        self.processes.get(&id).ok_or(KernelError::NoSuchId {
            kind: "process",
            id: id.raw(),
        })
    }

    /// Process by name.
    pub fn process_by_name(&self, name: &str) -> KernelResult<&ProcessDef> {
        let id = self
            .process_names
            .get(name)
            .ok_or_else(|| KernelError::NotFound {
                kind: "process",
                name: name.into(),
            })?;
        self.process(*id)
    }

    /// Declared cost hint of a process (`COST oldest` / `COST newest` on
    /// its definition), consulted by the query mechanism's bind stage when
    /// the query itself declares none. `None` for unknown processes and
    /// processes without a declared hint alike — absence simply leaves the
    /// bind stage on its heuristic.
    pub fn cost_hint(&self, id: ProcessId) -> Option<crate::query::CostHint> {
        self.processes.get(&id).and_then(|p| p.cost)
    }

    /// Experiment by name.
    pub fn experiment_by_name(&self, name: &str) -> KernelResult<&Experiment> {
        let id = self
            .experiment_names
            .get(name)
            .ok_or_else(|| KernelError::NotFound {
                kind: "experiment",
                name: name.into(),
            })?;
        self.experiments.get(id).ok_or(KernelError::NoSuchId {
            kind: "experiment",
            id: id.raw(),
        })
    }

    /// Task by id.
    pub fn task(&self, id: TaskId) -> KernelResult<&Task> {
        self.tasks
            .get(&id)
            .map(Arc::as_ref)
            .ok_or(KernelError::NoSuchId {
                kind: "task",
                id: id.raw(),
            })
    }

    /// Owning class of a stored object.
    pub fn class_of_object(&self, obj: ObjectId) -> KernelResult<ClassId> {
        self.object_class
            .get(&obj)
            .copied()
            .ok_or(KernelError::NoSuchId {
                kind: "object",
                id: obj.raw(),
            })
    }

    /// The task that produced an object, if it was derived (base objects
    /// have none). O(log n) through the producer index — staleness
    /// classification calls this once per ancestor on hot query paths.
    pub fn producing_task(&self, obj: ObjectId) -> Option<&Task> {
        self.produced_by
            .get(&obj)
            .and_then(|id| self.tasks.get(id))
            .map(Arc::as_ref)
    }

    /// All member classes of a concept, including those inherited from
    /// specializations is NOT done — the paper maps a concept to its own
    /// class set; ISA links are for browsing generalization.
    pub fn concept_member_classes(&self, name: &str) -> KernelResult<Vec<&ClassDef>> {
        let c = self.concept_by_name(name)?;
        c.members.iter().map(|id| self.class(*id)).collect()
    }

    /// Concepts reachable upward through ISA links (generalizations).
    pub fn concept_ancestors(&self, name: &str) -> KernelResult<Vec<&Concept>> {
        let start = self.concept_by_name(name)?;
        let mut out = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut stack: Vec<ConceptId> = start.parents.clone();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            let c = self.concept(id)?;
            stack.extend(c.parents.iter().copied());
            out.push(c);
        }
        Ok(out)
    }

    /// Concepts that specialize the named one (ISA children).
    pub fn concept_children(&self, id: ConceptId) -> Vec<&Concept> {
        self.concepts
            .values()
            .filter(|c| c.parents.contains(&id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrDef, ClassKind};
    use gaea_adt::TypeTag;
    use gaea_store::Oid;

    fn class(id: u64, name: &str) -> ClassDef {
        ClassDef {
            id: ClassId(Oid(id)),
            name: name.into(),
            kind: ClassKind::Derived,
            attrs: vec![AttrDef::new("data", TypeTag::Image)],
            has_spatial: true,
            has_temporal: true,
            derived_by: vec![],
            doc: String::new(),
        }
    }

    #[test]
    fn duplicate_names_rejected_everywhere() {
        let mut cat = Catalog::default();
        cat.add_class(class(1, "ndvi")).unwrap();
        assert!(matches!(
            cat.add_class(class(2, "ndvi")),
            Err(KernelError::Duplicate { kind: "class", .. })
        ));
    }

    #[test]
    fn process_registration_links_derived_by() {
        use crate::schema::{ProcessArg, ProcessKind};
        use crate::template::Template;
        let mut cat = Catalog::default();
        cat.add_class(class(1, "tm")).unwrap();
        cat.add_class(class(2, "landcover")).unwrap();
        let p = ProcessDef {
            id: ProcessId(Oid(10)),
            name: "P20".into(),
            output: ClassId(Oid(2)),
            args: vec![ProcessArg::set("bands", ClassId(Oid(1)), 3)],
            template: Template::default(),
            kind: ProcessKind::Primitive,
            interactions: vec![],
            cost: None,
            doc: String::new(),
        };
        cat.add_process(p).unwrap();
        assert_eq!(
            cat.class_by_name("landcover").unwrap().derived_by,
            vec![ProcessId(Oid(10))]
        );
        assert_eq!(cat.process_by_name("P20").unwrap().id, ProcessId(Oid(10)));
        assert!(cat.process_by_name("P99").is_err());
    }

    #[test]
    fn concept_isa_traversal() {
        let mut cat = Catalog::default();
        cat.add_class(class(1, "c1")).unwrap();
        let desert = Concept {
            id: ConceptId(Oid(100)),
            name: "desert".into(),
            members: Default::default(),
            parents: vec![],
            doc: String::new(),
        };
        let hot = Concept {
            id: ConceptId(Oid(101)),
            name: "hot_trade_wind_desert".into(),
            members: [ClassId(Oid(1))].into_iter().collect(),
            parents: vec![ConceptId(Oid(100))],
            doc: String::new(),
        };
        cat.add_concept(desert).unwrap();
        cat.add_concept(hot).unwrap();
        let ancestors = cat.concept_ancestors("hot_trade_wind_desert").unwrap();
        assert_eq!(ancestors.len(), 1);
        assert_eq!(ancestors[0].name, "desert");
        let children = cat.concept_children(ConceptId(Oid(100)));
        assert_eq!(children.len(), 1);
        assert_eq!(children[0].name, "hot_trade_wind_desert");
        let members = cat.concept_member_classes("hot_trade_wind_desert").unwrap();
        assert_eq!(members[0].name, "c1");
    }

    #[test]
    fn task_seq_monotone() {
        let task = |id: u64, seq: u64| Task {
            id: TaskId(Oid(id)),
            process: ProcessId(Oid(1)),
            process_name: "P".into(),
            inputs: BTreeMap::new(),
            input_versions: BTreeMap::new(),
            outputs: vec![],
            params: BTreeMap::new(),
            seq,
            user: String::new(),
            kind: crate::task::TaskKind::Primitive,
            children: vec![],
        };
        let mut cat = Catalog::default();
        assert_eq!(cat.next_seq, 0);
        cat.add_task(task(10, 0));
        cat.add_task(task(11, 1));
        assert_eq!(cat.next_seq, 2);
        // Compensation removes the newest tasks; the clock winds back.
        cat.remove_task(TaskId(Oid(11)));
        cat.remove_task(TaskId(Oid(10)));
        assert_eq!(cat.next_seq, 0);
    }

    #[test]
    fn object_directory() {
        let mut cat = Catalog::default();
        cat.object_class.insert(ObjectId(Oid(5)), ClassId(Oid(1)));
        assert_eq!(
            cat.class_of_object(ObjectId(Oid(5))).unwrap(),
            ClassId(Oid(1))
        );
        assert!(cat.class_of_object(ObjectId(Oid(6))).is_err());
    }
}
