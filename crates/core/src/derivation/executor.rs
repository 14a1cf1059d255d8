//! The derivation executor: fires processes, creates objects, records tasks.
//!
//! Execution is atomic: a primitive firing validates bindings and checks
//! every assertion *before* materializing anything, so a failing guard or
//! template error leaves no partial objects behind; a compound firing
//! (expanded into its primitive steps, §2.1.4) compensates on a failing
//! step by undoing the objects and task records of the steps already run.
//! External processes (§5 extension) check their guard assertions locally,
//! then dispatch the loaded inputs to their registered site;
//! non-applicative processes and interactive processes refuse automatic
//! firing (the former are recorded via manual tasks, the latter driven
//! through interactive sessions).
//!
//! Every automatic firing is **stage → execute → commit**, and
//! [`stage_firing`] is the one place that dispatches on process kind.
//! Staging is read-only over the store and catalog (validate bindings,
//! load inputs, check guards, fingerprint input versions) and, for a
//! primitive, already evaluates the template; an external firing defers
//! its site round-trip to [`StagedFiring::execute`], which needs no
//! kernel borrow. [`prepare_firing`] is stage ∘ execute, so the
//! `gaea-sched` wave executor runs many prepares concurrently on shared
//! `&Database` / `&Catalog` borrows while only the cheap commits
//! serialize; a background job runs the same two halves on different
//! threads.
//!
//! A commit is **build → apply**: `apply_result` builds the firing's
//! `TaskCommit` record from read-only state — the output tuple is
//! validated before any id is allocated, so a rejected commit leaves no
//! trace — and applies it through `event::apply`, the one interpreter of
//! committed events, which WAL replay calls too. Manual records,
//! interactive finishes and interpolations commit as prepared firings as
//! well. `run_process` adds compound expansion on top: each step applies
//! its own record (the next step reads its output), and the compound's
//! record holds the steps' records plus the umbrella task. A failing step
//! undoes the steps before it and rewinds the store to a savepoint taken
//! before the first, so a compensated compound leaves no trace either —
//! not even a version tick.

use crate::catalog::Catalog;
use crate::error::{KernelError, KernelResult};
use crate::event::{apply, Event, NewObject, TaskCommit};
use crate::external::{ExternalExecutor, ExternalInputs, ExternalRegistry};
use crate::ids::{ClassId, ObjectId, ProcessId, TaskId};
use crate::object::DataObject;
use crate::schema::{ClassDef, ProcessDef, ProcessKind, StepSource};
use crate::task::{Task, TaskKind};
use crate::template::{Binding, EvalContext, NO_PARAMS};
use gaea_adt::{OperatorRegistry, Value};
use gaea_store::{Database, Oid, Tuple};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Owned input bindings of one firing: argument name → chosen objects,
/// in declared argument order.
pub type Bindings = Vec<(String, Vec<ObjectId>)>;

/// Result of firing a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskRun {
    /// The recorded task.
    pub task: TaskId,
    /// Objects generated for the output class.
    pub outputs: Vec<ObjectId>,
}

/// Apply a built task-commit record and hand it back for the kernel to
/// log.
fn commit(
    db: &mut Database,
    catalog: &mut Catalog,
    record: TaskCommit,
) -> KernelResult<TaskCommit> {
    let event = Event::TaskCommit(record);
    apply(db, catalog, &event)?;
    let Event::TaskCommit(record) = event else {
        unreachable!("built as a task commit")
    };
    Ok(record)
}

/// A firing that has been computed but not yet committed: the output of
/// the read-only [`prepare_firing`] stage, consumed by `apply_result`.
///
/// Everything expensive — input loading, guard checking, template (or
/// external-site) evaluation — already happened; what remains is the
/// store insert and the task record. Prepared firings are `Send`, so a
/// `gaea-sched` worker can compute one on a borrowed snapshot and hand
/// it to the committing thread.
#[derive(Debug, Clone)]
pub struct PreparedFiring {
    pub(crate) process: ProcessId,
    pub(crate) process_name: String,
    pub(crate) output_class: ClassId,
    pub(crate) bindings: Vec<(String, Vec<ObjectId>)>,
    pub(crate) attrs: BTreeMap<String, Value>,
    pub(crate) input_versions: BTreeMap<ObjectId, u64>,
    pub(crate) params: BTreeMap<String, Value>,
    pub(crate) kind: TaskKind,
}

impl PreparedFiring {
    /// The process this firing instantiates.
    pub fn process(&self) -> ProcessId {
        self.process
    }

    /// The chosen input bindings, in declared argument order.
    pub fn bindings(&self) -> &[(String, Vec<ObjectId>)] {
        &self.bindings
    }
}

/// The read-only half of a firing: [`stage_firing`] followed by
/// [`StagedFiring::execute`] on the calling thread. Validates the
/// bindings, loads the inputs, checks every guard assertion, evaluates
/// the template (or runs the external site round-trip), validates the
/// computed output attributes against the output class, and
/// fingerprints the input versions. Nothing in the store or catalog
/// changes; concurrent prepares over shared borrows are safe. Rejects
/// the same process kinds as [`stage_firing`].
pub fn prepare_firing(
    db: &Database,
    catalog: &Catalog,
    registry: &OperatorRegistry,
    externals: &ExternalRegistry,
    pid: ProcessId,
    bindings: &[(String, Vec<ObjectId>)],
) -> KernelResult<PreparedFiring> {
    stage_firing(db, catalog, registry, externals, pid, bindings)?.execute()
}

/// The commit half of a firing. Builds its `TaskCommit` from read-only
/// state — the output tuple validated against class and relation, then
/// the object oid and the task id, then the catalog's next seq — and
/// commits it. This is the only part of a firing that writes, and it is
/// cheap (one insert, one task append); the wave executor serializes
/// exactly this. Returns the applied record.
pub(crate) fn apply_result(
    db: &mut Database,
    catalog: &mut Catalog,
    prepared: PreparedFiring,
    user: &str,
) -> KernelResult<TaskCommit> {
    let class = catalog.class(prepared.output_class)?;
    let tuple = validated_tuple(db, catalog, class, &prepared.attrs)?;
    let object = NewObject {
        rel: class.relation_name(),
        class: class.id,
        oid: db.allocate_oid().0,
        tuple,
    };
    let task = Task {
        id: TaskId(db.allocate_oid()),
        process: prepared.process,
        process_name: prepared.process_name,
        inputs: prepared.bindings.into_iter().collect(),
        input_versions: prepared.input_versions,
        outputs: vec![ObjectId(Oid(object.oid))],
        params: prepared.params,
        seq: catalog.next_seq,
        user: user.into(),
        kind: prepared.kind,
        children: vec![],
    };
    let record = TaskCommit {
        objects: vec![object],
        tasks: vec![task],
    };
    commit(db, catalog, record)
}

/// A staged firing: everything that needs the store, the catalog or the
/// operator registry already happened on the staging thread; what
/// remains is self-contained and `Send`, so a detached job worker can
/// run it with no borrow of the kernel at all.
/// Produced by [`stage_firing`], consumed by [`StagedFiring::execute`];
/// the resulting [`PreparedFiring`] then commits through the ordinary
/// serialized path, making a background firing's committed state
/// identical to a synchronous run's.
pub enum StagedFiring {
    /// A primitive firing: template evaluation is local and cheap, so it
    /// already ran at staging time — the job is born ready to commit.
    Ready(Box<PreparedFiring>),
    /// An external firing (§5): the guards ran locally at staging time;
    /// the remote round-trip — the part that takes minutes — is deferred
    /// to the worker.
    Remote(Box<StagedExternal>),
}

impl StagedFiring {
    /// Run the blocking tail of the firing (for [`StagedFiring::Remote`],
    /// the site round-trip plus output validation; for
    /// [`StagedFiring::Ready`], nothing). Everything needed is owned, so
    /// this is safe to call from any thread.
    pub fn execute(self) -> KernelResult<PreparedFiring> {
        match self {
            StagedFiring::Ready(prepared) => Ok(*prepared),
            StagedFiring::Remote(staged) => staged.execute(),
        }
    }
}

/// The deferred half of an external firing: the site handle, the loaded
/// inputs, and the cloned definitions the output validation needs. See
/// [`StagedFiring`].
pub struct StagedExternal {
    site: Arc<dyn ExternalExecutor>,
    site_name: String,
    def: ProcessDef,
    out_class: ClassDef,
    inputs: ExternalInputs,
    bindings: Bindings,
    /// Input versions are fingerprinted at *staging* time: the worker
    /// computes over the inputs as loaded then, so a mutation racing the
    /// round-trip correctly leaves the committed task classified stale.
    input_versions: BTreeMap<ObjectId, u64>,
}

impl StagedExternal {
    /// Ship the inputs to the site and assemble the prepared firing from
    /// its answer. Runs on the job worker; no kernel borrows.
    pub fn execute(self) -> KernelResult<PreparedFiring> {
        let attrs = self.site.execute(&self.def, &self.inputs)?;
        let mut params = BTreeMap::new();
        params.insert("site".to_string(), Value::Text(self.site_name));
        assemble_prepared(
            &self.def,
            &self.out_class,
            &self.bindings,
            attrs,
            self.input_versions,
            params,
            TaskKind::External,
        )
    }
}

/// Stage one automatic firing — the single dispatch on process kind.
/// The kernel-bound, read-only part runs now (validate + load + guards,
/// and for a primitive the whole template evaluation); what returns is
/// self-contained. Non-interactive primitives stage
/// [`StagedFiring::Ready`], external processes [`StagedFiring::Remote`].
/// Everything else returns [`KernelError::NotAutoFirable`]: interactive
/// processes need a scientist's answers, non-applicative ones a manual
/// task record, and compounds expand into a step network that
/// `run_process` materializes step by step.
pub fn stage_firing(
    db: &Database,
    catalog: &Catalog,
    registry: &OperatorRegistry,
    externals: &ExternalRegistry,
    pid: ProcessId,
    bindings: &[(String, Vec<ObjectId>)],
) -> KernelResult<StagedFiring> {
    let def = catalog.process(pid)?;
    match &def.kind {
        ProcessKind::Primitive if !def.is_interactive() => prepare_primitive(
            db,
            catalog,
            registry,
            def,
            bindings,
            &NO_PARAMS,
            TaskKind::Primitive,
        )
        .map(|p| StagedFiring::Ready(Box::new(p))),
        ProcessKind::Primitive => Err(KernelError::NotAutoFirable {
            process: def.name.clone(),
            reason: format!(
                "declares {} interaction point(s); drive it through an interactive session",
                def.interactions.len()
            ),
        }),
        ProcessKind::External { site } => Ok(StagedFiring::Remote(Box::new(stage_external(
            db, catalog, registry, externals, def, site, bindings,
        )?))),
        ProcessKind::Compound(_) => Err(KernelError::NotAutoFirable {
            process: def.name.clone(),
            reason: "compound processes expand into a step network with intermediate \
                     materialization; fire them with run_process"
                .into(),
        }),
        ProcessKind::NonApplicative { procedure } => Err(KernelError::NotAutoFirable {
            process: def.name.clone(),
            reason: format!("non-applicative procedure ({procedure}); record its tasks manually"),
        }),
    }
}

/// The MVCC fingerprint of a binding set: each distinct input object
/// paired with its current store version. Recorded on the task so later
/// reads can classify the derivation as current or stale with one integer
/// comparison per input.
pub(crate) fn input_versions_of(
    db: &Database,
    bindings: &[(String, Vec<ObjectId>)],
) -> BTreeMap<ObjectId, u64> {
    let mut out = BTreeMap::new();
    for (_, objs) in bindings {
        for o in objs {
            out.entry(*o).or_insert_with(|| db.object_version(o.0));
        }
    }
    out
}

/// Load a stored object into its attribute-map form. `Null` columns are
/// dropped (absent attributes).
pub fn load_object(db: &Database, catalog: &Catalog, oid: ObjectId) -> KernelResult<DataObject> {
    let class_id = catalog.class_of_object(oid)?;
    let class = catalog.class(class_id)?;
    let tuple = db.get(&class.relation_name(), oid.0)?;
    let names = class.attr_names();
    let mut attrs = BTreeMap::new();
    for (i, name) in names.iter().enumerate() {
        let v = tuple.get(i);
        if !v.is_null() {
            attrs.insert(name.clone(), v.clone());
        }
    }
    Ok(DataObject {
        id: oid,
        class: class_id,
        attrs,
    })
}

/// Shared write-path validation: unknown attribute names are rejected,
/// reference attributes (§4.3 extension) must point at live objects of
/// the declared class, and the values must fit the class's relation.
/// Returns the full tuple in schema column order, with missing
/// attributes as nulls. Read-only, so a rejected write allocates nothing.
pub(crate) fn validated_tuple(
    db: &Database,
    catalog: &Catalog,
    class: &ClassDef,
    attrs: &BTreeMap<String, Value>,
) -> KernelResult<Tuple> {
    let names = class.attr_names();
    for (key, value) in attrs {
        if !names.iter().any(|n| n == key) {
            return Err(KernelError::Schema(format!(
                "class {} has no attribute {key:?}",
                class.name
            )));
        }
        let def = class.attr(key).expect("checked against attr_names");
        if let Some(target_class) = def.ref_class {
            if value.is_null() {
                continue;
            }
            let oid = value.as_objref().ok_or_else(|| {
                KernelError::Schema(format!(
                    "class {}: attribute {key:?} is a reference, got {value}",
                    class.name
                ))
            })?;
            let actual = catalog.class_of_object(ObjectId(gaea_store::Oid(oid)))?;
            if actual != target_class {
                return Err(KernelError::Schema(format!(
                    "class {}: attribute {key:?} must reference class {}, object {oid} is of class {}",
                    class.name,
                    catalog.class(target_class)?.name,
                    catalog.class(actual)?.name
                )));
            }
        }
    }
    let tuple = Tuple::new(
        names
            .iter()
            .map(|n| attrs.get(n).cloned().unwrap_or(Value::Null))
            .collect(),
    );
    db.relation(&class.relation_name())?
        .schema()
        .validate(&tuple)?;
    Ok(tuple)
}

/// Fire a process on explicit object bindings, recording the task, and
/// return the applied `TaskCommit`.
///
/// `bindings` pairs argument names with the chosen input objects, in the
/// process's declared argument order (extra/missing arguments are errors).
/// Compounds expand into their step network; every other kind fires as
/// [`prepare_firing`] + `apply_result`. Interactive and
/// non-applicative processes refuse automatic firing — they are driven
/// through `Gaea::begin_interactive` and `Gaea::record_manual_task`
/// respectively.
pub(crate) fn run_process(
    db: &mut Database,
    catalog: &mut Catalog,
    registry: &OperatorRegistry,
    externals: &ExternalRegistry,
    pid: ProcessId,
    bindings: &[(String, Vec<ObjectId>)],
    user: &str,
) -> KernelResult<TaskCommit> {
    let def = catalog.process(pid)?;
    if let ProcessKind::Compound(_) = def.kind {
        let def = def.clone();
        return run_compound(db, catalog, registry, externals, &def, bindings, user);
    }
    let prepared = prepare_firing(db, catalog, registry, externals, pid, bindings)?;
    apply_result(db, catalog, prepared, user)
}

pub(crate) fn validate_bindings(
    catalog: &Catalog,
    def: &crate::schema::ProcessDef,
    bindings: &[(String, Vec<ObjectId>)],
) -> KernelResult<()> {
    if bindings.len() != def.args.len() {
        return Err(KernelError::Template(format!(
            "process {} takes {} argument(s), got {}",
            def.name,
            def.args.len(),
            bindings.len()
        )));
    }
    for (arg, (bname, objs)) in def.args.iter().zip(bindings) {
        if &arg.name != bname {
            return Err(KernelError::Template(format!(
                "process {}: expected argument {:?} at this position, got {:?}",
                def.name, arg.name, bname
            )));
        }
        if arg.setof {
            if (objs.len() as u64) < arg.min_card {
                return Err(KernelError::Template(format!(
                    "process {}: SETOF argument {:?} needs at least {} object(s), got {}",
                    def.name,
                    arg.name,
                    arg.min_card,
                    objs.len()
                )));
            }
        } else if objs.len() != 1 {
            return Err(KernelError::Template(format!(
                "process {}: scalar argument {:?} needs exactly 1 object, got {}",
                def.name,
                arg.name,
                objs.len()
            )));
        }
        for o in objs {
            let actual = catalog.class_of_object(*o)?;
            if actual != arg.class {
                let expected = catalog.class(arg.class)?.name.clone();
                let got = catalog.class(actual)?.name.clone();
                return Err(KernelError::Template(format!(
                    "process {}: argument {:?} expects class {expected}, object {} is of class {got}",
                    def.name, arg.name, o
                )));
            }
        }
    }
    Ok(())
}

/// Load the declared bindings into template form.
pub(crate) fn load_bindings(
    db: &Database,
    catalog: &Catalog,
    def: &ProcessDef,
    bindings: &[(String, Vec<ObjectId>)],
) -> KernelResult<BTreeMap<String, Binding>> {
    let mut bound: BTreeMap<String, Binding> = BTreeMap::new();
    for (arg, (name, objs)) in def.args.iter().zip(bindings) {
        let loaded: KernelResult<Vec<DataObject>> =
            objs.iter().map(|o| load_object(db, catalog, *o)).collect();
        let loaded = loaded?;
        bound.insert(
            name.clone(),
            if arg.setof {
                Binding::Many(loaded)
            } else {
                Binding::One(loaded.into_iter().next().expect("validated arity"))
            },
        );
    }
    Ok(bound)
}

/// Bind-stage admission check, read-only and cheap relative to a full
/// prepare: validate the bindings and evaluate the template's guard
/// assertions over the loaded inputs — nothing else. The query
/// mechanism's fire stage uses this to *choose* bindings serially
/// (guards decide admissibility) before the expensive mapping
/// evaluation fans out to workers.
pub(crate) fn check_guards(
    db: &Database,
    catalog: &Catalog,
    registry: &OperatorRegistry,
    def: &ProcessDef,
    bindings: &[(String, Vec<ObjectId>)],
) -> KernelResult<()> {
    validate_bindings(catalog, def, bindings)?;
    let bound = load_bindings(db, catalog, def, bindings)?;
    let ctx = EvalContext {
        bindings: &bound,
        registry,
        params: &NO_PARAMS,
    };
    ctx.check_assertions(&def.name, &def.template)
}

/// Validate computed output attributes against the output class and
/// assemble the [`PreparedFiring`]. Takes the output class and input
/// fingerprint by value/reference rather than looking them up, so the
/// catalog-free tail of a staged external firing can call it from a job
/// worker.
fn assemble_prepared(
    def: &ProcessDef,
    out_class: &ClassDef,
    bindings: &[(String, Vec<ObjectId>)],
    attrs: BTreeMap<String, Value>,
    input_versions: BTreeMap<ObjectId, u64>,
    params: BTreeMap<String, Value>,
    kind: TaskKind,
) -> KernelResult<PreparedFiring> {
    for key in attrs.keys() {
        if out_class.attr(key).is_none() {
            return Err(KernelError::Schema(format!(
                "process {}: mapping writes {key:?} which class {} does not declare",
                def.name, out_class.name
            )));
        }
    }
    Ok(PreparedFiring {
        process: def.id,
        process_name: def.name.clone(),
        output_class: def.output,
        bindings: bindings.to_vec(),
        attrs,
        input_versions,
        params,
        kind,
    })
}

/// Prepare a primitive process's template evaluation. `params` carries
/// the scientist's interaction answers (empty for plain primitives);
/// `kind` distinguishes plain from interactive firings on the recorded
/// task.
pub(crate) fn prepare_primitive(
    db: &Database,
    catalog: &Catalog,
    registry: &OperatorRegistry,
    def: &ProcessDef,
    bindings: &[(String, Vec<ObjectId>)],
    params: &BTreeMap<String, Value>,
    kind: TaskKind,
) -> KernelResult<PreparedFiring> {
    validate_bindings(catalog, def, bindings)?;
    let bound = load_bindings(db, catalog, def, bindings)?;
    // Evaluate the template (guards first — Figure 3's assertions).
    let ctx = EvalContext {
        bindings: &bound,
        registry,
        params,
    };
    ctx.check_assertions(&def.name, &def.template)?;
    let attrs = ctx.eval_mappings(&def.template)?;
    // The input fingerprint is taken now, at prepare time: a firing never
    // mutates its own inputs, and commits of *other* firings only bump
    // versions of objects they create, so the fingerprint is identical
    // whether the commit follows at once or after the rest of a wave
    // prepared.
    assemble_prepared(
        def,
        catalog.class(def.output)?,
        bindings,
        attrs,
        input_versions_of(db, bindings),
        params.clone(),
        kind,
    )
}

/// Stage an external firing (§5 extension): validate, load, check the
/// guards — "guard rules are metadata constraints on the inputs; they
/// are always evaluated locally, before anything is shipped" — resolve
/// the site, and package the round-trip for whoever executes it (a
/// scheduler worker for a synchronous firing, so remote latency
/// parallelizes across a wave like local template evaluation does; a
/// job worker for an asynchronous one). The site must be reachable
/// *now*; a site that goes down between staging and execution fails
/// the execution instead.
fn stage_external(
    db: &Database,
    catalog: &Catalog,
    registry: &OperatorRegistry,
    externals: &ExternalRegistry,
    def: &ProcessDef,
    site_name: &str,
    bindings: &[(String, Vec<ObjectId>)],
) -> KernelResult<StagedExternal> {
    validate_bindings(catalog, def, bindings)?;
    let bound = load_bindings(db, catalog, def, bindings)?;
    let ctx = EvalContext {
        bindings: &bound,
        registry,
        params: &NO_PARAMS,
    };
    ctx.check_assertions(&def.name, &def.template)?;
    let site = externals
        .reachable_site(site_name)
        .ok_or_else(|| KernelError::SiteUnavailable {
            site: site_name.to_string(),
            process: def.name.clone(),
        })?
        .clone();
    let mut inputs: ExternalInputs = BTreeMap::new();
    for (name, binding) in &bound {
        inputs.insert(
            name.clone(),
            binding.objects().into_iter().cloned().collect(),
        );
    }
    Ok(StagedExternal {
        site,
        site_name: site_name.to_string(),
        def: def.clone(),
        out_class: catalog.class(def.output)?.clone(),
        inputs,
        bindings: bindings.to_vec(),
        input_versions: input_versions_of(db, bindings),
    })
}

/// Undo a recorded task: drop the record, undo its children newest first
/// (compound steps may themselves be compounds), and delete its output
/// objects. Keeps compound execution atomic when a later step fails, as
/// an exact inverse: heap and catalog end as the compound found them,
/// and the compound's savepoint then rewinds the version ticks.
fn undo_task(db: &mut Database, catalog: &mut Catalog, task_id: TaskId) {
    let Some(task) = catalog.remove_task(task_id) else {
        return;
    };
    for child in task.children.iter().rev() {
        undo_task(db, catalog, *child);
    }
    for out in &task.outputs {
        if let Some(class_id) = catalog.object_class.remove(out) {
            if let Ok(class) = catalog.class(class_id) {
                let rel = class.relation_name();
                let _ = db.delete(&rel, out.0);
            }
        }
    }
}

fn run_compound(
    db: &mut Database,
    catalog: &mut Catalog,
    registry: &OperatorRegistry,
    externals: &ExternalRegistry,
    def: &crate::schema::ProcessDef,
    bindings: &[(String, Vec<ObjectId>)],
    user: &str,
) -> KernelResult<TaskCommit> {
    validate_bindings(catalog, def, bindings)?;
    // Compound firing is atomic (a compound is "merely an abstraction" —
    // its observable effect is the whole network's effect or nothing).
    // Each step applies its own record, since the next step reads its
    // output; when one fails, the steps already run are undone and the
    // store rewinds its version counters and OID allocator to here.
    let savepoint = db.savepoint();
    let mut children: Vec<TaskId> = Vec::new();
    let mut fire_steps = || -> KernelResult<TaskCommit> {
        let steps = def.steps().expect("compound kind");
        let mut step_outputs: Vec<Vec<ObjectId>> = Vec::with_capacity(steps.len());
        // Every step's applied record, in order; with the umbrella task
        // appended this is the compound's one logged record.
        let mut record = TaskCommit::default();
        for (i, step) in steps.iter().enumerate() {
            let child_def = catalog.process(step.process)?;
            if step.inputs.len() != child_def.args.len() {
                return Err(KernelError::Schema(format!(
                    "compound {}: step {i} wires {} input(s) into {} which takes {}",
                    def.name,
                    step.inputs.len(),
                    child_def.name,
                    child_def.args.len()
                )));
            }
            let mut child_bindings: Vec<(String, Vec<ObjectId>)> = Vec::new();
            for (arg, src) in child_def.args.iter().zip(&step.inputs) {
                let objs = match src {
                    StepSource::OuterArg(k) => bindings
                        .get(*k)
                        .ok_or_else(|| {
                            KernelError::Schema(format!(
                                "compound {}: step {i} references outer arg {k} of {}",
                                def.name,
                                bindings.len()
                            ))
                        })?
                        .1
                        .clone(),
                    StepSource::StepOutput(k) => {
                        if *k >= i {
                            return Err(KernelError::Schema(format!(
                                "compound {}: step {i} references later/own step {k}",
                                def.name
                            )));
                        }
                        step_outputs[*k].clone()
                    }
                };
                child_bindings.push((arg.name.clone(), objs));
            }
            let step_record = run_process(
                db,
                catalog,
                registry,
                externals,
                step.process,
                &child_bindings,
                user,
            )?;
            let run = step_record.run();
            children.push(run.task);
            step_outputs.push(run.outputs);
            record.objects.extend(step_record.objects);
            record.tasks.extend(step_record.tasks);
        }
        let umbrella = Task {
            id: TaskId(db.allocate_oid()),
            process: def.id,
            process_name: def.name.clone(),
            inputs: bindings.iter().cloned().collect(),
            input_versions: input_versions_of(db, bindings),
            outputs: step_outputs.pop().unwrap_or_default(),
            params: BTreeMap::new(),
            seq: catalog.next_seq,
            user: user.into(),
            kind: TaskKind::Compound,
            children: children.clone(),
        };
        let umbrella = commit(
            db,
            catalog,
            TaskCommit {
                objects: vec![],
                tasks: vec![umbrella],
            },
        )?;
        record.tasks.extend(umbrella.tasks);
        Ok(record)
    };
    let result = fire_steps();
    if result.is_err() {
        for t in children.iter().rev() {
            undo_task(db, catalog, *t);
        }
        db.rollback_to(savepoint);
    }
    result
}
