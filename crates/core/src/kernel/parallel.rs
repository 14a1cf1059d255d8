//! The scheduled execution layer: dependency-DAG refresh and parallel
//! derivation over the `gaea-sched` worker pool.
//!
//! Two callers feed the scheduler. [`Gaea::refresh_all`] takes the
//! store-wide stale impact set ([`Gaea::stale_objects`]) and re-derives
//! it in dependency order: one DAG node per distinct producing task
//! (so a diamond's shared upstream re-fires exactly once however many
//! paths reach it), one edge per output-feeds-input relationship, and a
//! wave-by-wave execution in which every firing binds against the
//! *replacements* committed by earlier waves. The query pipeline's fire
//! stage (`kernel/query`, behind [`Gaea::query`]) builds its DAG from a
//! derivation plan instead.
//!
//! Both execute a wave the same way: choose each node's bindings
//! serially, prepare the chosen firings on the scheduler
//! (`Gaea::prepare_firings`: workers evaluate templates concurrently
//! on shared read-only borrows of the store and catalog), then commit
//! the results serially in node order. The committed state is therefore
//! independent of the worker count — with one worker (the default) the
//! prepare step is an in-order loop on the calling thread.

use super::exec::{count_reuse, prior_derivation, Prior, StaleMemo};
use super::jobs::JobId;
use super::Gaea;
use crate::derivation::executor::{self, PreparedFiring, TaskRun};
use crate::error::{KernelError, KernelResult};
use crate::ids::{ObjectId, ProcessId, TaskId};
use crate::task::Task;
use gaea_sched::{DepGraph, NodeId};
use std::collections::BTreeMap;

/// What [`Gaea::refresh_all`] did: the fresh derivations, the old→new
/// object mapping, the stale objects it could not re-fire, and the shape
/// of the schedule it executed.
#[derive(Debug, Clone, Default)]
pub struct RefreshReport {
    /// One freshly recorded (or reused-current) task per re-fired
    /// derivation, in commit order.
    pub runs: Vec<TaskRun>,
    /// Old stale (or deleted) object → its fresh replacement.
    pub replacements: BTreeMap<ObjectId, ObjectId>,
    /// Stale objects that were *not* re-fired, with the reason: their
    /// producing task is not auto-firable (manual procedures,
    /// query-driven interpolations), or an input could not be brought
    /// current first.
    pub skipped: Vec<(ObjectId, String)>,
    /// Stale objects whose re-derivation is already *in flight* as a
    /// background job ([`Gaea::submit_derivation`]): the wave stage must
    /// not fire a duplicate, so they are reported here with the job to
    /// await. A job that commits before the refresh starts is instead
    /// picked up as a reused current derivation (it appears in
    /// [`RefreshReport::runs`]).
    pub pending: Vec<(ObjectId, JobId)>,
    /// Number of dependency waves the schedule executed.
    pub waves: usize,
}

impl RefreshReport {
    /// Number of derivations re-fired.
    pub fn refreshed(&self) -> usize {
        self.runs.len()
    }
}

/// A wave node's resolved execution mode, decided serially at the start
/// of its wave (bindings depend on earlier waves' replacements).
enum Staged {
    /// Read-only prepare may run on a worker. The producer index names a
    /// compound's last step, never its umbrella, as an object's producing
    /// task, so a refresh node is always a directly firable process.
    Prepare(executor::Bindings),
    /// An identical current derivation is already on record (a prior
    /// refresh re-fired it): reused, not duplicated.
    Reused(TaskRun),
    /// The identical re-derivation is already in flight as a background
    /// job; recorded in [`RefreshReport::pending`], never re-fired.
    Pending(JobId),
    /// Cannot be re-fired; recorded in [`RefreshReport::skipped`].
    Blocked(String),
}

impl Gaea {
    /// Re-derive every stale derived object in the store, in dependency
    /// order, each derivation re-fired exactly once — the
    /// `refresh_all` surface the PR-2 follow-on asked for.
    ///
    /// The stale impact set is grouped by producing task and levelled
    /// into a dependency DAG (an edge wherever one stale derivation's
    /// output feeds another's input), so shared upstreams of diamond
    /// graphs re-fire once and every consumer rebinds to the single
    /// fresh replacement. Inputs that are themselves current are reused
    /// as they are, exactly like [`Gaea::refresh_object`]. Derivations
    /// the system cannot re-fire on its own (manual procedures,
    /// query-driven interpolations) are skipped and reported, along
    /// with any dependents their staleness blocks.
    ///
    /// With [`Gaea::set_workers`] above one, the independent firings of
    /// each wave prepare concurrently; commits are serialized in node
    /// order, so the resulting store, catalog and lineage are identical
    /// for every worker count. The refresh is incremental, not atomic:
    /// an executor error aborts the remaining schedule but leaves the
    /// waves already committed in place (each is a complete, current
    /// derivation).
    pub fn refresh_all(&mut self) -> KernelResult<RefreshReport> {
        // Commit finished background jobs first: a job that already
        // produced a fresh derivation turns its stale object into a
        // reuse, not a re-fire.
        self.pump_jobs();
        let mut report = RefreshReport::default();
        let (graph, skipped) = self.build_refresh_graph()?;
        report.skipped = skipped;
        if graph.is_empty() {
            return Ok(report);
        }
        let waves = graph.waves().map_err(|c| {
            KernelError::Schema(format!(
                "refresh_all: recorded derivations are not acyclic ({c}); the catalog is corrupt"
            ))
        })?;
        report.waves = waves.len();
        for wave in &waves {
            self.run_refresh_wave(&graph, wave, &mut report)?;
        }
        Ok(report)
    }

    /// Group the stale impact set by producing task into a dependency
    /// DAG. Also pulls in *deleted* derived inputs of stale tasks (their
    /// counters outlive them, so consumers classify stale; re-firing the
    /// consumer needs the input re-materialized first, exactly as
    /// [`Gaea::refresh_object`] would). Returns the DAG plus the objects
    /// excluded because their producing task cannot be re-fired.
    #[allow(clippy::type_complexity)]
    fn build_refresh_graph(&self) -> KernelResult<(DepGraph<Task>, Vec<(ObjectId, String)>)> {
        let mut graph: DepGraph<Task> = DepGraph::new();
        let mut node_of_task: BTreeMap<TaskId, NodeId> = BTreeMap::new();
        let mut skipped: Vec<(ObjectId, String)> = Vec::new();
        // Worklist over objects needing a fresh derivation: the stale
        // set, plus deleted derived inputs discovered along the way.
        let mut pending: Vec<ObjectId> = self.stale_objects();
        pending.reverse(); // pop() walks the OID-sorted set front to back
        let mut seen: std::collections::BTreeSet<ObjectId> = pending.iter().copied().collect();
        while let Some(obj) = pending.pop() {
            let Some(task) = self.catalog.producing_task(obj) else {
                // Deleted *base* input: nothing to re-fire; consumers
                // report the blockage when they try to bind.
                continue;
            };
            if node_of_task.contains_key(&task.id) {
                continue;
            }
            if !task.kind.auto_firable() {
                skipped.push((obj, not_auto_firable_reason(task)));
                continue;
            }
            node_of_task.insert(task.id, graph.add_node(task.clone()));
            for input in task.all_inputs() {
                let gone = self.catalog.class_of_object(input).is_err();
                if (gone || self.is_stale(input)) && seen.insert(input) {
                    pending.push(input);
                }
            }
        }
        // Edges: producer node → consumer node wherever a node's input
        // is an output of another node.
        let output_node: BTreeMap<ObjectId, NodeId> = node_of_task
            .iter()
            .flat_map(|(tid, node)| {
                self.catalog
                    .task(*tid)
                    .map(|t| t.outputs.iter().map(|o| (*o, *node)).collect::<Vec<_>>())
                    .unwrap_or_default()
            })
            .collect();
        for (tid, consumer) in &node_of_task {
            for input in self.catalog.task(*tid)?.all_inputs() {
                if let Some(producer) = output_node.get(&input) {
                    if producer != consumer {
                        graph
                            .add_edge(*producer, *consumer)
                            .expect("distinct nodes cannot form a self-edge");
                    }
                }
            }
        }
        Ok((graph, skipped))
    }

    /// Execute one wave: resolve bindings against the replacements map,
    /// prepare the fresh firings (concurrently when the scheduler has
    /// workers), then commit serially in node order.
    fn run_refresh_wave(
        &mut self,
        graph: &DepGraph<Task>,
        wave: &[NodeId],
        report: &mut RefreshReport,
    ) -> KernelResult<()> {
        // Phase 1 (serial): bind each node — replacements first, current
        // inputs as they are. Derivations already in flight as background
        // jobs stage as Pending and never reach a worker.
        let in_flight = self.jobs_in_flight_keys();
        let mut staged: Vec<(NodeId, Staged)> = Vec::with_capacity(wave.len());
        for node in wave {
            let task = graph.payload(*node);
            let stage = self.stage_refresh_node(task, &report.replacements, &in_flight)?;
            staged.push((*node, stage));
        }
        // Phase 2 (parallel): read-only prepares on the worker pool.
        let to_prepare: Vec<(ProcessId, executor::Bindings)> = staged
            .iter()
            .filter_map(|(node, stage)| match stage {
                Staged::Prepare(bindings) => Some((graph.payload(*node).process, bindings.clone())),
                _ => None,
            })
            .collect();
        let mut prepared = self.prepare_firings(to_prepare).into_iter();
        // Phase 3 (serial): commit in node order.
        for (node, stage) in &staged {
            let task = graph.payload(*node);
            let run = match stage {
                Staged::Blocked(reason) => {
                    for out in &task.outputs {
                        report.skipped.push((*out, reason.clone()));
                    }
                    continue;
                }
                Staged::Pending(job) => {
                    for out in &task.outputs {
                        report.pending.push((*out, *job));
                    }
                    continue;
                }
                Staged::Prepare(_) => {
                    self.commit_firing(prepared.next().expect("one prepare per Prepare node")?)?
                }
                Staged::Reused(run) => run.clone(),
            };
            for (old, new) in task.outputs.iter().zip(&run.outputs) {
                report.replacements.insert(*old, *new);
            }
            report.runs.push(run);
        }
        Ok(())
    }

    /// Resolve one refresh node's bindings: inputs replaced by this
    /// run's fresh derivations where available, reused as they are when
    /// still current, and blocking the node when neither holds (the
    /// input's producer was skipped or is base data that disappeared).
    /// A node whose resolved bindings match an in-flight background job
    /// stages as [`Staged::Pending`] — the job owns that derivation.
    fn stage_refresh_node(
        &self,
        task: &Task,
        replacements: &BTreeMap<ObjectId, ObjectId>,
        in_flight: &BTreeMap<String, JobId>,
    ) -> KernelResult<Staged> {
        let def = self.catalog.process(task.process)?;
        let mut owned: Vec<(String, Vec<ObjectId>)> = Vec::with_capacity(def.args.len());
        let mut memo = StaleMemo::new();
        for arg in &def.args {
            let objs = task.inputs.get(&arg.name).ok_or_else(|| {
                KernelError::Template(format!(
                    "task {} lacks recorded input {:?}",
                    task.id, arg.name
                ))
            })?;
            let mut fresh = Vec::with_capacity(objs.len());
            for o in objs {
                if let Some(new) = replacements.get(o) {
                    fresh.push(*new);
                    continue;
                }
                let gone = self.catalog.class_of_object(*o).is_err();
                if gone || super::exec::object_is_stale(&self.db, &self.catalog, *o, &mut memo) {
                    return Ok(Staged::Blocked(format!(
                        "input {o} of process {} is {} and could not be re-derived",
                        def.name,
                        if gone { "deleted" } else { "stale" }
                    )));
                }
                fresh.push(*o);
            }
            owned.push((arg.name.clone(), fresh));
        }
        Ok(
            match prior_derivation(&self.db, &self.catalog, in_flight, def, &owned) {
                Prior::Current(run) => {
                    count_reuse(true);
                    Staged::Reused(run)
                }
                Prior::InFlight(job) => Staged::Pending(job),
                Prior::Fresh => {
                    count_reuse(false);
                    Staged::Prepare(owned)
                }
            },
        )
    }

    /// The prepare phase of a wave: evaluate each firing read-only on the
    /// scheduler's workers over shared borrows of the store and catalog,
    /// results in input order. A single worker runs the same loop on the
    /// calling thread.
    pub(crate) fn prepare_firings(
        &self,
        firings: Vec<(ProcessId, executor::Bindings)>,
    ) -> Vec<KernelResult<PreparedFiring>> {
        let (db, catalog, registry, externals) =
            (&self.db, &self.catalog, &self.registry, &self.externals);
        self.scheduler.map(firings, |_, (pid, bindings)| {
            executor::prepare_firing(db, catalog, registry, externals, pid, &bindings)
        })
    }
}

/// Why a recorded task cannot be re-fired by the system.
fn not_auto_firable_reason(task: &Task) -> String {
    match task.kind {
        crate::task::TaskKind::Manual => format!(
            "producing process {} is a non-applicative procedure; record a fresh manual task",
            task.process_name
        ),
        crate::task::TaskKind::Interpolation => format!(
            "{} is query-driven; re-issue the query to re-interpolate",
            task.process_name
        ),
        _ => unreachable!("auto-firable kinds are never skipped"),
    }
}
