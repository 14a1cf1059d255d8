//! Provenance services: lineage, experiments, reproduction, DOT export (§2.1.1, §4.2).
//!
//! The history side of managed derived data. Lineage walks the recorded
//! task graph (derivation trees, ancestor/descendant closure, structural
//! comparison, duplicate detection); experiments bundle tasks so a whole
//! analysis can be re-evaluated — [`Gaea::reproduce_experiment`] replays
//! every replayable task against its recorded inputs and parameters and
//! compares regenerated attributes with the stored outputs by value,
//! reporting manual procedures and unreachable external sites as
//! not-replayable rather than divergent. Rendering (`describe`,
//! `lineage_dot`, `derivation_dot`, experiment comparison) also lives
//! here, as the §4.2 browsing surface.

use super::exec::{object_is_stale, task_is_stale, StaleMemo};
use super::Gaea;
use crate::derivation::executor;
use crate::derivation::net::DerivationNet;
use crate::error::{KernelError, KernelResult};
use crate::experiment::{Experiment, Reproduction};
use crate::external::ExternalInputs;
use crate::ids::{ExperimentId, ObjectId, TaskId};
use crate::lineage;
use crate::object::DataObject;
use crate::task::{Task, TaskKind};
use crate::template::{Binding, EvalContext};
use gaea_adt::Value;
use std::collections::BTreeMap;

/// One input of a recorded task whose store version no longer matches the
/// version fingerprinted at derivation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftedInput {
    /// The input object.
    pub object: ObjectId,
    /// Version recorded when the task fired.
    pub recorded: u64,
    /// The object's current store version.
    pub current: u64,
}

/// Currency of one task in a derivation chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskCurrency {
    /// The task.
    pub task: TaskId,
    /// Its process name (stable display handle).
    pub process: String,
    /// False if any input drifted here or upstream.
    pub current: bool,
    /// Inputs whose live version differs from the recorded fingerprint.
    pub drifted_inputs: Vec<DriftedInput>,
}

/// The version-level staleness story of one derived object: its own
/// classification plus the per-task drift along its derivation chain —
/// the lineage report enriched with the MVCC metadata that explains *why*
/// an object is (or is not) current.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StalenessReport {
    /// The object under examination.
    pub object: ObjectId,
    /// True if the object's derivation no longer matches the store.
    pub stale: bool,
    /// Producing task of the object and of each derivation ancestor, in
    /// discovery order (object's own task first). Empty for base data.
    pub chain: Vec<TaskCurrency>,
}

impl Gaea {
    // ------------------------------------------------------------------
    // Lineage (§4.2)
    // ------------------------------------------------------------------

    /// Derivation tree of an object.
    pub fn lineage(&self, obj: ObjectId) -> KernelResult<lineage::DerivationNode> {
        lineage::derivation_tree(&self.catalog, obj, 64)
    }

    /// Structural comparison of two objects' derivations.
    pub fn same_derivation(&self, a: ObjectId, b: ObjectId) -> KernelResult<bool> {
        lineage::same_derivation(&self.catalog, a, b)
    }

    /// Transitive input objects.
    pub fn ancestors(&self, obj: ObjectId) -> KernelResult<Vec<ObjectId>> {
        lineage::ancestors(&self.catalog, obj)
    }

    /// Objects transitively derived from `obj`.
    pub fn descendants(&self, obj: ObjectId) -> Vec<ObjectId> {
        lineage::descendants(&self.catalog, obj)
    }

    /// Duplicate derivations on record.
    pub fn duplicate_tasks(&self) -> Vec<Vec<TaskId>> {
        lineage::duplicate_tasks(&self.catalog)
    }

    // ------------------------------------------------------------------
    // Version metadata / staleness reporting
    // ------------------------------------------------------------------

    /// The staleness story of a derived object: walks its derivation
    /// chain and compares every task's recorded input-version fingerprint
    /// with the live store counters. Base objects report an empty chain
    /// and `stale == false`.
    pub fn staleness_report(&self, obj: ObjectId) -> KernelResult<StalenessReport> {
        // Verify the object exists (errors over silently empty reports).
        self.catalog.class_of_object(obj)?;
        let mut memo = StaleMemo::new();
        let mut chain = Vec::new();
        let mut seen_tasks = std::collections::BTreeSet::new();
        let mut queue = vec![obj];
        while let Some(o) = queue.pop() {
            let Some(task) = self.catalog.producing_task(o) else {
                continue;
            };
            if !seen_tasks.insert(task.id) {
                continue;
            }
            let drifted_inputs: Vec<DriftedInput> = task
                .input_versions
                .iter()
                .filter_map(|(input, recorded)| {
                    let current = self.db.object_version(input.0);
                    (current != *recorded).then_some(DriftedInput {
                        object: *input,
                        recorded: *recorded,
                        current,
                    })
                })
                .collect();
            let current = !task_is_stale(&self.db, &self.catalog, task, &mut memo);
            chain.push(TaskCurrency {
                task: task.id,
                process: task.process_name.clone(),
                current,
                drifted_inputs,
            });
            queue.extend(task.all_inputs());
        }
        Ok(StalenessReport {
            object: obj,
            stale: object_is_stale(&self.db, &self.catalog, obj, &mut memo),
            chain,
        })
    }

    /// Every stored derived object that is currently stale — the impact
    /// set of all mutations since the derivations ran. One pass over the
    /// task records with a shared staleness memo; outputs repeated across
    /// tasks (compound umbrellas re-list their last step's) dedup through
    /// the set.
    ///
    /// The returned order is **deterministic: ascending OID**, and
    /// callers may rely on it — [`Gaea::refresh_all`] seeds its
    /// dependency DAG from this list, so the wave decomposition (and the
    /// whole refresh schedule) is reproducible run to run.
    pub fn stale_objects(&self) -> Vec<ObjectId> {
        let mut memo = StaleMemo::new();
        let mut out = std::collections::BTreeSet::new();
        for task in self.catalog.tasks.values() {
            for output in &task.outputs {
                if object_is_stale(&self.db, &self.catalog, *output, &mut memo) {
                    out.insert(*output);
                }
            }
        }
        out.into_iter().collect()
    }

    // ------------------------------------------------------------------
    // Experiments (§2.1.1)
    // ------------------------------------------------------------------

    /// Record an experiment over existing tasks.
    pub fn record_experiment(
        &mut self,
        name: &str,
        description: &str,
        tasks: Vec<TaskId>,
    ) -> KernelResult<ExperimentId> {
        for t in &tasks {
            self.catalog.task(*t)?;
        }
        self.catalog.check_fresh("experiment", name)?;
        let id = ExperimentId(self.db.allocate_oid());
        self.commit_event(crate::event::Event::DefineExperiment {
            def: Experiment {
                id,
                name: name.into(),
                description: description.into(),
                user: self.user.clone(),
                tasks,
            },
        })?;
        Ok(id)
    }

    /// Reproduce an experiment: re-evaluate every recorded task against its
    /// recorded inputs and compare the regenerated attributes with the
    /// stored outputs by value identity. Nothing is mutated.
    ///
    /// Interactive tasks replay *without the scientist* — their answers are
    /// on record. External tasks replay only while their site is reachable;
    /// manual (non-applicative) tasks are by definition not replayable.
    /// Both cases are reported in [`Reproduction::not_replayable`] rather
    /// than counted as divergence.
    pub fn reproduce_experiment(&self, name: &str) -> KernelResult<Reproduction> {
        let exp = self.catalog.experiment_by_name(name)?.clone();
        let mut rerun = 0usize;
        let mut matching = 0usize;
        let mut divergences = Vec::new();
        let mut not_replayable = Vec::new();
        for task_id in &exp.tasks {
            let task = self.catalog.task(*task_id)?.clone();
            let tally = |outcome: KernelResult<bool>,
                         rerun: &mut usize,
                         matching: &mut usize,
                         divergences: &mut Vec<String>| {
                *rerun += 1;
                match outcome {
                    Ok(true) => *matching += 1,
                    Ok(false) => {
                        divergences.push(format!("{}: regenerated output differs", task.id))
                    }
                    Err(e) => divergences.push(format!("{}: replay failed: {e}", task.id)),
                }
            };
            match task.kind {
                TaskKind::Compound => {
                    // Children are verified individually when listed; the
                    // umbrella itself computes nothing.
                    continue;
                }
                TaskKind::Primitive | TaskKind::Interactive => {
                    tally(
                        self.replay_primitive(&task),
                        &mut rerun,
                        &mut matching,
                        &mut divergences,
                    );
                }
                TaskKind::Interpolation => {
                    tally(
                        self.replay_interpolation(&task),
                        &mut rerun,
                        &mut matching,
                        &mut divergences,
                    );
                }
                TaskKind::External => {
                    let site_name = task
                        .params
                        .get("site")
                        .and_then(Value::as_str)
                        .unwrap_or("<unrecorded>")
                        .to_string();
                    if self.externals.reachable_site(&site_name).is_some() {
                        tally(
                            self.replay_external(&task, &site_name),
                            &mut rerun,
                            &mut matching,
                            &mut divergences,
                        );
                    } else {
                        not_replayable
                            .push(format!("{}: site {site_name:?} is not available", task.id));
                    }
                }
                TaskKind::Manual => {
                    not_replayable.push(format!(
                        "{}: non-applicative procedure ({})",
                        task.id,
                        task.params
                            .get("procedure")
                            .and_then(Value::as_str)
                            .unwrap_or("unspecified")
                    ));
                }
            }
        }
        Ok(Reproduction {
            tasks_rerun: rerun,
            matching,
            divergences,
            not_replayable,
        })
    }

    fn replay_primitive(&self, task: &Task) -> KernelResult<bool> {
        let def = self.catalog.process(task.process)?;
        let mut bound: BTreeMap<String, Binding> = BTreeMap::new();
        for arg in &def.args {
            let objs = task.inputs.get(&arg.name).ok_or_else(|| {
                KernelError::Template(format!(
                    "task {} lacks recorded input {:?}",
                    task.id, arg.name
                ))
            })?;
            let loaded: KernelResult<Vec<DataObject>> = objs
                .iter()
                .map(|o| executor::load_object(&self.db, &self.catalog, *o))
                .collect();
            let loaded = loaded?;
            bound.insert(
                arg.name.clone(),
                if arg.setof {
                    Binding::Many(loaded)
                } else {
                    Binding::One(loaded.into_iter().next().ok_or_else(|| {
                        KernelError::Template(format!("task {}: empty scalar input", task.id))
                    })?)
                },
            );
        }
        let ctx = EvalContext {
            bindings: &bound,
            registry: &self.registry,
            // Interactive tasks recorded their answers; plain primitives
            // recorded nothing — either way the task knows its parameters.
            params: &task.params,
        };
        ctx.check_assertions(&def.name, &def.template)?;
        let regenerated = ctx.eval_mappings(&def.template)?;
        // Compare against each recorded output.
        for out in &task.outputs {
            let stored = executor::load_object(&self.db, &self.catalog, *out)?;
            for (attr, value) in &regenerated {
                if stored.attr(attr) != Some(value) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Re-dispatch an external task to its (reachable) site and compare.
    fn replay_external(&self, task: &Task, site_name: &str) -> KernelResult<bool> {
        let def = self.catalog.process(task.process)?;
        let mut inputs: ExternalInputs = BTreeMap::new();
        for (name, objs) in &task.inputs {
            let loaded: KernelResult<Vec<DataObject>> = objs
                .iter()
                .map(|o| executor::load_object(&self.db, &self.catalog, *o))
                .collect();
            inputs.insert(name.clone(), loaded?);
        }
        let site = self.externals.reachable_site(site_name).ok_or_else(|| {
            KernelError::SiteUnavailable {
                site: site_name.to_string(),
                process: def.name.clone(),
            }
        })?;
        let regenerated = site.execute(def, &inputs)?;
        for out in &task.outputs {
            let stored = executor::load_object(&self.db, &self.catalog, *out)?;
            for (attr, value) in &regenerated {
                if stored.attr(attr) != Some(value) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    fn replay_interpolation(&self, task: &Task) -> KernelResult<bool> {
        let earlier = task
            .inputs
            .get("earlier")
            .and_then(|v| v.first())
            .ok_or_else(|| KernelError::Template("interp task lacks earlier".into()))?;
        let later = task
            .inputs
            .get("later")
            .and_then(|v| v.first())
            .ok_or_else(|| KernelError::Template("interp task lacks later".into()))?;
        let at = task
            .params
            .get("at")
            .and_then(Value::as_abstime)
            .ok_or_else(|| KernelError::Template("interp task lacks `at` param".into()))?;
        let e = executor::load_object(&self.db, &self.catalog, *earlier)?;
        let l = executor::load_object(&self.db, &self.catalog, *later)?;
        let img = gaea_raster::interp::temporal_interp(
            e.attr("data")
                .and_then(Value::as_image)
                .ok_or_else(|| KernelError::Template("earlier lacks image data".into()))?,
            e.timestamp()
                .ok_or_else(|| KernelError::Template("earlier lacks timestamp".into()))?,
            l.attr("data")
                .and_then(Value::as_image)
                .ok_or_else(|| KernelError::Template("later lacks image data".into()))?,
            l.timestamp()
                .ok_or_else(|| KernelError::Template("later lacks timestamp".into()))?,
            at,
        )?;
        for out in &task.outputs {
            let stored = executor::load_object(&self.db, &self.catalog, *out)?;
            if stored.attr("data") != Some(&Value::image(img.clone())) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Derivation-net access & snapshots
    // ------------------------------------------------------------------

    /// The current derivation diagram.
    pub fn derivation_net(&self) -> DerivationNet {
        DerivationNet::build(&self.catalog)
    }

    /// The whole catalog rendered as DDL text (§4.2 browsing).
    pub fn describe(&self) -> String {
        crate::report::schema_ddl(&self.catalog)
    }

    /// An object's derivation tree as Graphviz DOT, with stale derived
    /// objects (MVCC version drift anywhere in their derivation chain)
    /// highlighted.
    pub fn lineage_dot(&self, obj: ObjectId) -> KernelResult<String> {
        let mut memo = StaleMemo::new();
        let mut stale = std::collections::BTreeSet::new();
        if object_is_stale(&self.db, &self.catalog, obj, &mut memo) {
            stale.insert(obj);
        }
        for ancestor in lineage::ancestors(&self.catalog, obj)? {
            if object_is_stale(&self.db, &self.catalog, ancestor, &mut memo) {
                stale.insert(ancestor);
            }
        }
        crate::report::lineage_dot(&self.catalog, obj, &stale)
    }

    /// The derivation diagram as Graphviz DOT, annotated with current
    /// stored-object counts as the marking.
    pub fn derivation_dot(&self) -> KernelResult<String> {
        let dnet = self.derivation_net();
        let mut counts = BTreeMap::new();
        for (cid, def) in &self.catalog.classes {
            let n = self.db.relation(&def.relation_name())?.len() as u64;
            counts.insert(*cid, n);
        }
        let marking = dnet.marking(&counts);
        Ok(gaea_petri::dot::to_dot(&dnet.net, Some(&marking)))
    }

    /// Structural comparison of two recorded experiments.
    pub fn compare_experiments(
        &self,
        a: &str,
        b: &str,
    ) -> KernelResult<crate::report::ExperimentDiff> {
        let ea = self.catalog.experiment_by_name(a)?.id;
        let eb = self.catalog.experiment_by_name(b)?.id;
        crate::report::compare_experiments(&self.catalog, ea, eb)
    }
}
