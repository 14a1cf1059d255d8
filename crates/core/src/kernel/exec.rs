//! Execution semantics: objects, firings, manual tasks, interaction (§2.1.4, §4.3, §5).
//!
//! The object CRUD surface and every way a task enters the history:
//! automatic firing ([`Gaea::run_process`]), manual recording of
//! non-applicative procedures, and scientist-driven interactive sessions.
//! Firing delegates to `derivation::executor` for atomic template
//! evaluation.
//!
//! Consistency between the store and everything derived from it rides on
//! the store's MVCC version counters. Each task fingerprints the input
//! versions it consumed; `object_is_stale`/`task_is_stale` classify a
//! derivation as *current* (every fingerprint still matches the live
//! counters, transitively) or *stale* (some input was mutated or deleted
//! since). [`Gaea::update_object`] is O(1) in the recorded history — the
//! store bump alone falsifies every derivation that consumed the old
//! version — and [`Gaea::refresh_object`] re-fires a stale object's
//! producing process to bring it current again.
//!
//! Derivation identity is one question, asked by every path about to
//! fire automatically (the query's choose phase, the refresh waves
//! behind `refresh_object` and `refresh_all`, and the job commit pump):
//! `prior_derivation` — is an identical derivation already current on
//! record, or in flight as a background job?

use super::jobs::JobId;
use super::Gaea;
use crate::catalog::Catalog;
use crate::derivation::executor::{self, PreparedFiring, TaskRun};
use crate::error::{KernelError, KernelResult};
use crate::event::Event;
use crate::ids::{ObjectId, ProcessId, TaskId};
use crate::interact::InteractiveSession;
use crate::object::DataObject;
use crate::schema::ProcessKind;
use crate::task::{key_fingerprint, Task, TaskKind};
use crate::template::EvalContext;
use gaea_adt::Value;
use gaea_store::Database;
use std::collections::BTreeMap;

/// Staleness memo shared across the classification of many objects (one
/// query may flag dozens of hits whose derivations share ancestors).
pub(crate) type StaleMemo = BTreeMap<ObjectId, bool>;

/// What the history says about a prospective firing ([`prior_derivation`]).
pub(crate) enum Prior {
    /// An identical derivation is on record, its outputs are still
    /// stored and it is current: its record answers the firing.
    Current(TaskRun),
    /// The identical derivation is in flight as this background job.
    InFlight(JobId),
    /// Nothing answers: the firing must run.
    Fresh,
}

/// Is `obj` a stale derived object? Base objects (no producing task) are
/// never stale — a mutated base object *is* the current truth. A derived
/// object is stale when its producing task is ([`task_is_stale`]). Cost
/// is O(derivation ancestors), independent of total history size.
pub(crate) fn object_is_stale(
    db: &Database,
    catalog: &Catalog,
    obj: ObjectId,
    memo: &mut StaleMemo,
) -> bool {
    if let Some(&known) = memo.get(&obj) {
        return known;
    }
    // Seed the memo before recursing: derivations are acyclic by
    // construction, but a corrupted catalog must not hang us.
    memo.insert(obj, false);
    let stale = match catalog.producing_task(obj) {
        None => false,
        Some(task) => task_is_stale(db, catalog, task, memo),
    };
    memo.insert(obj, stale);
    stale
}

/// Is this recorded derivation stale? True when any input's live store
/// version differs from the fingerprint recorded at firing time, or when
/// any input is itself a stale derived object (the chain case: mutating a
/// base band falsifies the classification derived from it *and* anything
/// refined from that classification). Tasks recorded before versioning
/// existed carry no fingerprints and classify by their inputs alone.
pub(crate) fn task_is_stale(
    db: &Database,
    catalog: &Catalog,
    task: &Task,
    memo: &mut StaleMemo,
) -> bool {
    for (input, recorded) in &task.input_versions {
        if db.object_version(input.0) != *recorded {
            return true;
        }
    }
    task.all_inputs()
        .into_iter()
        .any(|input| object_is_stale(db, catalog, input, memo))
}

/// Is a firing of process `pid` whose dedup key is `key` (the caller's
/// [`super::query::dedup_key_for`], computed once per binding) already
/// done (§2.1.2: a recorded task says so)? The one derivation-identity
/// check every automatic firing path asks before it fires, so the kernel
/// avoids "unnecessary duplication of experiments" (§2.1.1).
///
/// A fingerprint lookup, not a walk of the process's history: the
/// catalog yields only the recorded tasks whose key fingerprint equals
/// `key`'s ([`Catalog::tasks_keyed`], a binary search), so no other
/// task's key is formatted. Each candidate's full key is then confirmed
/// — a fingerprint collision costs one string comparison, never a wrong
/// reuse — and the first, in id order, whose key matches, whose outputs
/// are all still stored and which is not stale answers
/// [`Prior::Current`]. Several records can share a key — a stale
/// derivation and its re-fire bind identically when only input
/// *versions* drifted — and stale or output-deleted records are
/// history, not answers. Otherwise a key in `in_flight` (the caller's
/// [`Gaea::jobs_in_flight_keys`]) answers [`Prior::InFlight`], and
/// anything else is [`Prior::Fresh`]. Every full-key comparison ticks
/// the `derive_tasks_examined` counter. Counts no reuse: the caller that
/// acts on the answer calls [`count_reuse`].
pub(crate) fn prior_derivation(
    db: &Database,
    catalog: &Catalog,
    in_flight: &BTreeMap<String, JobId>,
    pid: ProcessId,
    key: &str,
) -> Prior {
    let examined = &gaea_obs::metrics().derive_tasks_examined;
    let mut memo = StaleMemo::new();
    let current = catalog.tasks_keyed(pid, key_fingerprint(key)).find(|t| {
        examined.inc();
        t.dedup_key() == key
            && t.outputs
                .iter()
                .all(|o| catalog.class_of_object(*o).is_ok())
            && !task_is_stale(db, catalog, t, &mut memo)
    });
    if let Some(t) = current {
        return Prior::Current(TaskRun {
            task: t.id,
            outputs: t.outputs.clone(),
        });
    }
    match in_flight.get(key) {
        Some(job) => Prior::InFlight(*job),
        None => Prior::Fresh,
    }
}

/// Count one automatic firing decision, once, where it is made: a
/// current prior task answered it (`cache_hits`) or it fires
/// (`cache_misses`). Attaching to an in-flight job counts neither.
pub(crate) fn count_reuse(reused: bool) {
    let metrics = gaea_obs::metrics();
    if reused {
        metrics.cache_hits.inc();
    } else {
        metrics.cache_misses.inc();
    }
}

impl Gaea {
    // ------------------------------------------------------------------
    // Objects
    // ------------------------------------------------------------------

    /// Store an object of a class from attribute pairs.
    pub fn insert_object(
        &mut self,
        class: &str,
        attrs: Vec<(&str, Value)>,
    ) -> KernelResult<ObjectId> {
        let def = self.catalog.class_by_name(class)?.clone();
        let map: BTreeMap<String, Value> =
            attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        let tuple = executor::validated_tuple(&self.db, &self.catalog, &def, &map)?;
        let oid = self.db.allocate_oid();
        self.commit_event(Event::InsertObject {
            rel: def.relation_name(),
            class: def.id,
            oid: oid.0,
            tuple,
        })?;
        Ok(ObjectId(oid))
    }

    /// Load a stored object.
    pub fn object(&self, oid: ObjectId) -> KernelResult<DataObject> {
        executor::load_object(&self.db, &self.catalog, oid)
    }

    /// All object ids of a class, in storage order.
    pub fn objects_of(&self, class: &str) -> KernelResult<Vec<ObjectId>> {
        let def = self.catalog.class_by_name(class)?;
        Ok(self
            .db
            .relation(&def.relation_name())?
            .iter()
            .map(|(oid, _)| ObjectId(oid))
            .collect())
    }

    /// Number of stored objects of a class.
    pub fn count_objects(&self, class: &str) -> KernelResult<usize> {
        let def = self.catalog.class_by_name(class)?;
        Ok(self.db.relation(&def.relation_name())?.len())
    }

    /// Overwrite attributes of a stored object in place. Unknown attribute
    /// names are rejected; reference attributes are checked like inserts.
    ///
    /// Invalidation is O(1) in the recorded history. The store write bumps
    /// `oid`'s MVCC version, which by itself falsifies every recorded
    /// task that fingerprinted the old version — it fails its version
    /// check the next time anything consults it.
    ///
    /// Recorded tasks and stored derived objects are §2.1.1 history — they
    /// faithfully describe the derivation that happened — so they survive
    /// the update. But they are no longer silently servable as current:
    /// step-1 retrieval flags them in [`crate::query::QueryOutcome::stale`],
    /// derivation reuse (`prior_derivation`) refuses a stale derivation
    /// (it re-fires instead), and [`Gaea::refresh_object`] re-derives a
    /// stale object on demand.
    pub fn update_object(&mut self, oid: ObjectId, attrs: Vec<(&str, Value)>) -> KernelResult<()> {
        let current = self.object(oid)?;
        let class = self.catalog.class(current.class)?.clone();
        let mut merged = current.attrs;
        for (name, value) in attrs {
            merged.insert(name.to_string(), value);
        }
        let tuple = executor::validated_tuple(&self.db, &self.catalog, &class, &merged)?;
        self.commit_event(Event::UpdateObject {
            rel: class.relation_name(),
            oid: oid.raw(),
            tuple,
        })
    }

    /// Delete a stored object, returning its last state. The store bump
    /// on deletion advances the object's MVCC version (its counter
    /// outlives it), so every recorded derivation that consumed it
    /// classifies as stale from now on. Task records are history and stay
    /// untouched.
    ///
    /// Deletion refuses to orphan references: insert and update guarantee
    /// that reference attributes (§4.3) point at live objects, so an
    /// object still referenced by a stored `Ref` attribute cannot be
    /// deleted.
    pub fn delete_object(&mut self, oid: ObjectId) -> KernelResult<DataObject> {
        let obj = self.object(oid)?;
        let class = self.catalog.class(obj.class)?.clone();
        for other in self.catalog.classes.values() {
            let ref_cols: Vec<usize> = other
                .attrs
                .iter()
                .enumerate()
                .filter(|(_, a)| a.ref_class == Some(obj.class))
                .map(|(i, _)| i)
                .collect();
            if ref_cols.is_empty() {
                continue;
            }
            let Ok(rel) = self.db.relation(&other.relation_name()) else {
                continue;
            };
            for (holder, tuple) in rel.iter() {
                for col in &ref_cols {
                    if tuple.get(*col).as_objref() == Some(oid.raw()) {
                        return Err(KernelError::Schema(format!(
                            "cannot delete {oid}: object {} of class {} still references it",
                            ObjectId(holder),
                            other.name
                        )));
                    }
                }
            }
        }
        self.commit_event(Event::DeleteObject {
            rel: class.relation_name(),
            oid: oid.raw(),
        })?;
        Ok(obj)
    }

    // ------------------------------------------------------------------
    // Staleness classification (MVCC fingerprints)
    // ------------------------------------------------------------------

    /// Is `obj` a stale derived object — one whose recorded derivation no
    /// longer matches the store, because an input (direct or transitive)
    /// was mutated or deleted after the derivation ran? Base objects are
    /// never stale. O(derivation ancestors).
    pub fn is_stale(&self, obj: ObjectId) -> bool {
        let mut memo = StaleMemo::new();
        object_is_stale(&self.db, &self.catalog, obj, &mut memo)
    }

    /// Is the recorded derivation still current? `false` means some input
    /// version drifted from the task's fingerprint (or an input is itself
    /// stale): the task remains valid *history*, but its outputs no longer
    /// reflect the store's present state.
    pub fn task_is_current(&self, id: TaskId) -> KernelResult<bool> {
        let task = self.catalog.task(id)?;
        let mut memo = StaleMemo::new();
        Ok(!task_is_stale(&self.db, &self.catalog, task, &mut memo))
    }

    // ------------------------------------------------------------------
    // Task execution
    // ------------------------------------------------------------------

    /// Fire a process by name on explicit bindings.
    ///
    /// An explicit firing always executes and records a task, even when
    /// an identical current derivation is on record: the scientist asked
    /// for this experiment, and §4.2 duplicate detection
    /// ([`Gaea::duplicate_tasks`]) reports the repeat. Queries, refreshes
    /// and background jobs reuse prior derivations instead
    /// (`prior_derivation`).
    pub fn run_process(
        &mut self,
        process: &str,
        bindings: &[(&str, Vec<ObjectId>)],
    ) -> KernelResult<TaskRun> {
        let pid = self.catalog.process_by_name(process)?.id;
        let owned: Vec<(String, Vec<ObjectId>)> = bindings
            .iter()
            .map(|(n, o)| (n.to_string(), o.clone()))
            .collect();
        let commit = executor::run_process(
            &mut self.db,
            &mut self.catalog,
            &self.registry,
            &self.externals,
            pid,
            &owned,
            &self.user,
        )?;
        self.log_commit(commit)
    }

    /// Commit a prepared firing: build and apply its record
    /// ([`executor::apply_result`]), then log it.
    pub(crate) fn commit_firing(&mut self, prepared: PreparedFiring) -> KernelResult<TaskRun> {
        let commit = executor::apply_result(&mut self.db, &mut self.catalog, prepared, &self.user)?;
        self.log_commit(commit)
    }

    /// Record a manual task for a non-applicative process (§5 extension):
    /// the scientist performed the experimental procedure outside the
    /// system and reports the observed output attributes. The derivation
    /// relationship enters the history like any other task; reproduction
    /// reports it as not replayable.
    pub fn record_manual_task(
        &mut self,
        process: &str,
        bindings: &[(&str, Vec<ObjectId>)],
        outputs: Vec<(&str, Value)>,
        notes: &str,
    ) -> KernelResult<TaskRun> {
        let def = self.catalog.process_by_name(process)?.clone();
        let procedure = match &def.kind {
            ProcessKind::NonApplicative { procedure } => procedure.clone(),
            _ => {
                return Err(KernelError::Schema(format!(
                    "process {process} is not non-applicative; fire it instead of recording it"
                )))
            }
        };
        let owned: Vec<(String, Vec<ObjectId>)> = bindings
            .iter()
            .map(|(n, o)| (n.to_string(), o.clone()))
            .collect();
        executor::validate_bindings(&self.catalog, &def, &owned)?;
        let mut params = BTreeMap::new();
        params.insert("notes".to_string(), Value::Text(notes.into()));
        params.insert("procedure".to_string(), Value::Text(procedure));
        // The scientist's observations stand in for a template's output.
        self.commit_firing(PreparedFiring {
            process: def.id,
            process_name: def.name,
            output_class: def.output,
            input_versions: executor::input_versions_of(&self.db, &owned),
            bindings: owned,
            attrs: outputs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            params,
            kind: TaskKind::Manual,
        })
    }

    // ------------------------------------------------------------------
    // Interactive sessions (§4.3 extension)
    // ------------------------------------------------------------------

    /// Open an interactive session for a process with interaction points.
    /// Bindings are validated now; assertions and mappings run at
    /// [`Gaea::finish_interactive`], once every answer is in.
    pub fn begin_interactive(
        &self,
        process: &str,
        bindings: &[(&str, Vec<ObjectId>)],
    ) -> KernelResult<InteractiveSession> {
        let def = self.catalog.process_by_name(process)?.clone();
        if !def.is_interactive() {
            return Err(KernelError::Schema(format!(
                "process {process} declares no interactions; fire it directly"
            )));
        }
        let owned: Vec<(String, Vec<ObjectId>)> = bindings
            .iter()
            .map(|(n, o)| (n.to_string(), o.clone()))
            .collect();
        executor::validate_bindings(&self.catalog, &def, &owned)?;
        Ok(InteractiveSession::new(def, owned))
    }

    /// Render the pending interaction point's preview — "some temporary
    /// result visualized on the screen" — over the session's bindings and
    /// the answers supplied so far. `None` if the point declares no
    /// preview or every point is answered.
    pub fn interaction_preview(&self, session: &InteractiveSession) -> KernelResult<Option<Value>> {
        let Some(point) = session.pending() else {
            return Ok(None);
        };
        let Some(preview) = &point.preview else {
            return Ok(None);
        };
        let bound =
            executor::load_bindings(&self.db, &self.catalog, &session.def, &session.bindings)?;
        let ctx = EvalContext {
            bindings: &bound,
            registry: &self.registry,
            params: &session.supplied,
        };
        ctx.eval(preview).map(Some)
    }

    /// Complete an interactive session: every declared interaction must be
    /// answered. Assertions are checked and mappings evaluated with the
    /// answers bound as parameters; the recorded task carries the answers
    /// in `params`, making the interaction reproducible without the
    /// scientist.
    pub fn finish_interactive(&mut self, session: InteractiveSession) -> KernelResult<TaskRun> {
        if let Some(point) = session.pending() {
            return Err(KernelError::InteractionPending {
                process: session.def.name.clone(),
                param: point.param.clone(),
            });
        }
        let prepared = executor::prepare_primitive(
            &self.db,
            &self.catalog,
            &self.registry,
            &session.def,
            &session.bindings,
            &session.supplied,
            TaskKind::Interactive,
        )?;
        self.commit_firing(prepared)
    }

    /// Task record by id.
    pub fn task(&self, id: TaskId) -> KernelResult<&Task> {
        self.catalog.task(id)
    }

    /// Dereference a reference attribute (§4.3 extension): the auto-defined
    /// retrieval function for `ObjRef` attributes.
    pub fn deref_attr(&self, obj: ObjectId, attr: &str) -> KernelResult<DataObject> {
        let o = self.object(obj)?;
        let class = self.catalog.class(o.class)?;
        let def = class.attr(attr).ok_or_else(|| {
            KernelError::Schema(format!("class {} has no attribute {attr:?}", class.name))
        })?;
        if !def.is_reference() {
            return Err(KernelError::Schema(format!(
                "attribute {attr:?} of class {} is not a reference",
                class.name
            )));
        }
        let target = o
            .attr(attr)
            .and_then(Value::as_objref)
            .ok_or_else(|| KernelError::NoData(format!("{obj}.{attr} is null")))?;
        self.object(ObjectId(gaea_store::Oid(target)))
    }
}
