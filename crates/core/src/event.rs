//! Committed events and their one interpreter, [`apply`].
//!
//! Every committed statement is one [`Event`]. A live mutator builds it
//! from read-only state, applies it, and the durable kernel logs that
//! same value; WAL replay decodes it and applies it through the same
//! function. `apply` writes the store through its ordinary ticking calls,
//! so the version clock — and with it every object's and relation's
//! version — replays itself: a reopened kernel is the fold of its log. A
//! statement that fails builds no event and leaves no trace.

use crate::catalog::Catalog;
use crate::derivation::executor::TaskRun;
use crate::error::KernelResult;
use crate::experiment::Experiment;
use crate::ids::{ClassId, ObjectId, ProcessId};
use crate::schema::{ClassDef, Concept, ProcessDef};
use crate::task::Task;
use gaea_store::{Database, Oid, Tuple};
use serde::{Deserialize, Serialize};

/// One committed mutation, as applied and as recorded in the log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Event {
    DefineClass {
        def: ClassDef,
    },
    DefineConcept {
        def: Concept,
    },
    DefineProcess {
        def: ProcessDef,
    },
    DefineExperiment {
        def: Experiment,
    },
    /// Ordered index created (DDL or the optimizer's auto-indexer).
    CreateIndex {
        rel: String,
        attr: String,
    },
    /// Spatial grid created, with the cell size chosen live — replay
    /// reuses it rather than re-sampling, for determinism.
    CreateGrid {
        rel: String,
        attr: String,
        cell: f64,
    },
    /// Grid rebuilt at a new cell size.
    RetuneGrid {
        rel: String,
        pos: usize,
        cell: f64,
    },
    InsertObject {
        rel: String,
        class: ClassId,
        oid: u64,
        tuple: Tuple,
    },
    UpdateObject {
        rel: String,
        oid: u64,
        tuple: Tuple,
    },
    DeleteObject {
        rel: String,
        oid: u64,
    },
    /// One commit's worth of new history, exactly as the commit applied it.
    TaskCommit(TaskCommit),
    /// A background derivation was submitted; the bindings re-stage it
    /// after a restart.
    JobSubmit {
        job: u64,
        process: ProcessId,
        bindings: Vec<(String, Vec<ObjectId>)>,
    },
    /// The submission committed, failed its commit, or was cancelled —
    /// either way it must not re-stage.
    JobResolved {
        job: u64,
    },
    /// Read from logs whose envelopes journaled version ticks, where it
    /// carried the ticks of failed statements. Nothing writes it now.
    VersionAdvance,
}

/// One commit's worth of new history: the task records (compound steps
/// and their umbrella together) plus the output objects they
/// materialized. The executor builds and applies it; the log carries it
/// verbatim as [`Event::TaskCommit`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct TaskCommit {
    pub(crate) objects: Vec<NewObject>,
    pub(crate) tasks: Vec<Task>,
}

/// An object materialized by a task commit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct NewObject {
    pub(crate) rel: String,
    pub(crate) class: ClassId,
    pub(crate) oid: u64,
    pub(crate) tuple: Tuple,
}

impl TaskCommit {
    /// What the commit answers: its last task — a compound's umbrella —
    /// and that task's outputs.
    pub(crate) fn run(&self) -> TaskRun {
        let last = self.tasks.last().expect("a task commit records a task");
        TaskRun {
            task: last.id,
            outputs: last.outputs.clone(),
        }
    }
}

impl Event {
    /// The version ticks [`apply`] takes for this event: one per object
    /// it stores, rewrites or deletes.
    pub(crate) fn own_ticks(&self) -> usize {
        match self {
            Event::InsertObject { .. }
            | Event::UpdateObject { .. }
            | Event::DeleteObject { .. } => 1,
            Event::TaskCommit(commit) => commit.objects.len(),
            _ => 0,
        }
    }
}

/// Apply one event to the store and catalog — the only code that writes
/// either for a committed statement, live and at WAL replay alike — and
/// count it in the catalog's `applied_events`. Job events touch neither;
/// the kernel's job table tracks them.
pub(crate) fn apply(db: &mut Database, catalog: &mut Catalog, event: &Event) -> KernelResult<()> {
    match event {
        Event::DefineClass { def } => {
            db.create_relation(&def.relation_name(), def.storage_schema())?;
            catalog.add_class(def.clone())?;
        }
        Event::DefineConcept { def } => catalog.add_concept(def.clone())?,
        Event::DefineProcess { def } => catalog.add_process(def.clone())?,
        Event::DefineExperiment { def } => catalog.add_experiment(def.clone())?,
        Event::CreateIndex { rel, attr } => db.relation_mut(rel)?.create_index(attr)?,
        Event::CreateGrid { rel, attr, cell } => db.relation_mut(rel)?.create_grid(attr, *cell)?,
        Event::RetuneGrid { rel, pos, cell } => db.relation_mut(rel)?.retune_grid(*pos, *cell)?,
        Event::InsertObject {
            rel,
            class,
            oid,
            tuple,
        } => {
            db.insert_with_oid(rel, Oid(*oid), tuple.clone())?;
            catalog.object_class.insert(ObjectId(Oid(*oid)), *class);
        }
        Event::UpdateObject { rel, oid, tuple } => {
            db.update(rel, Oid(*oid), tuple.clone())?;
        }
        Event::DeleteObject { rel, oid } => {
            db.delete(rel, Oid(*oid))?;
            catalog.object_class.remove(&ObjectId(Oid(*oid)));
        }
        Event::TaskCommit(commit) => {
            for obj in &commit.objects {
                db.insert_with_oid(&obj.rel, Oid(obj.oid), obj.tuple.clone())?;
                catalog
                    .object_class
                    .insert(ObjectId(Oid(obj.oid)), obj.class);
            }
            for task in &commit.tasks {
                catalog.add_task(task.clone());
            }
        }
        Event::JobSubmit { .. } | Event::JobResolved { .. } => return Ok(()),
        Event::VersionAdvance => {}
    }
    catalog.applied_events += 1;
    Ok(())
}
