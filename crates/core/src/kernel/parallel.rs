//! The scheduled execution layer: dependency-DAG refresh and parallel
//! derivation over the `gaea-sched` worker pool.
//!
//! Every automatic re-derivation runs one schedule. [`Gaea::refresh_all`]
//! seeds it with the store-wide stale impact set
//! ([`Gaea::stale_objects`]); [`Gaea::refresh_object`] — also the engine
//! of every `FRESH` query — seeds it with one object. The schedule
//! re-derives its seeds and their stale or deleted inputs in dependency
//! order: one DAG node per distinct producing task (so a diamond's
//! shared upstream re-fires exactly once however many paths reach it),
//! one edge per output-feeds-input relationship, and a wave-by-wave
//! execution in which every firing binds against the *replacements*
//! committed by earlier waves. The query pipeline's fire stage
//! (`kernel/query`, behind [`Gaea::query`]) builds its DAG from a
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
use super::query::dedup_key_for;
use super::Gaea;
use crate::derivation::executor::{self, PreparedFiring, TaskRun};
use crate::error::{KernelError, KernelResult};
use crate::ids::{ObjectId, ProcessId, TaskId};
use crate::task::{Task, TaskKind};
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
    /// An input is stale or deleted and was not re-derived: the text
    /// recorded in [`RefreshReport::skipped`], and the typed error that
    /// stopped the input.
    Blocked(String, KernelError),
}

/// One run of the refresh schedule: the report, plus the typed error of
/// every object it could not re-derive (what [`Gaea::refresh_object`]
/// answers for its object).
#[derive(Default)]
struct Refresh {
    report: RefreshReport,
    failed: BTreeMap<ObjectId, KernelError>,
}

impl Gaea {
    /// Re-derive every stale derived object in the store, in dependency
    /// order, each derivation re-fired exactly once.
    ///
    /// The stale impact set is grouped by producing task and levelled
    /// into a dependency DAG (an edge wherever one stale derivation's
    /// output feeds another's input), so shared upstreams of diamond
    /// graphs re-fire once and every consumer rebinds to the single
    /// fresh replacement. Inputs that are themselves current are reused
    /// as they are. Derivations the system cannot re-fire on its own
    /// (manual procedures, query-driven interpolations, interactive
    /// sessions) are skipped and reported, along with any dependents
    /// their staleness blocks.
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
        let seeds = self.stale_objects();
        Ok(self.refresh(seeds)?.report)
    }

    /// Re-derive one stale (or deleted) derived object: the
    /// [`Gaea::refresh_all`] schedule seeded with `obj` alone. Stale or
    /// deleted inputs re-derive first, each distinct derivation once, and
    /// current inputs are reused, so the fresh output is current
    /// ([`Gaea::is_stale`] is `false` for it); the old object and task
    /// stay on record as history. An object that is already current (and
    /// still stored) returns its recorded derivation unchanged.
    ///
    /// Errors: base objects (and deleted base inputs) have no producing
    /// process; [`KernelError::NotAutoFirable`] when the producer of `obj`
    /// or of an input is a manual, interpolation or interactive task; and
    /// [`KernelError::DerivationPending`] when the re-derivation of `obj`
    /// or of an input is already in flight as a background job — await
    /// (or cancel) the named job instead of firing it twice.
    pub fn refresh_object(&mut self, obj: ObjectId) -> KernelResult<TaskRun> {
        let task = self
            .catalog
            .producing_task(obj)
            .ok_or_else(|| base_data(obj))?;
        // No-op only while the object is both still stored and current; a
        // deleted derived object re-materializes through a fresh firing.
        if self.catalog.class_of_object(obj).is_ok() && !self.is_stale(obj) {
            return Ok(TaskRun {
                task: task.id,
                outputs: task.outputs.clone(),
            });
        }
        let mut refresh = self.refresh(vec![obj])?;
        match refresh.failed.remove(&obj) {
            Some(err) => Err(err),
            // Every other node is an ancestor of `obj`'s, so `obj`'s
            // node is alone in the last wave and its run commits last.
            None => Ok(refresh
                .report
                .runs
                .pop()
                .expect("a node that did not fail committed a run")),
        }
    }

    /// Run the refresh schedule over `seeds` and what they need: build
    /// the dependency DAG, then execute it wave by wave.
    fn refresh(&mut self, seeds: Vec<ObjectId>) -> KernelResult<Refresh> {
        let mut refresh = Refresh::default();
        let graph = self.build_refresh_graph(seeds, &mut refresh);
        let waves = graph.waves().map_err(|c| {
            KernelError::Schema(format!(
                "refresh: recorded derivations are not acyclic ({c}); the catalog is corrupt"
            ))
        })?;
        refresh.report.waves = waves.len();
        for wave in &waves {
            self.run_refresh_wave(&graph, wave, &mut refresh)?;
        }
        Ok(refresh)
    }

    /// Group the objects needing a fresh derivation — `seeds`, plus their
    /// stale or *deleted* derived inputs, transitively (a deleted input's
    /// counter outlives it, so consumers classify stale; re-firing the
    /// consumer needs the input re-materialized first) — by producing
    /// task into a dependency DAG. Objects whose producing task cannot be
    /// re-fired are recorded as skipped instead.
    fn build_refresh_graph(&self, seeds: Vec<ObjectId>, refresh: &mut Refresh) -> DepGraph<Task> {
        let mut graph: DepGraph<Task> = DepGraph::new();
        let mut node_of_task: BTreeMap<TaskId, NodeId> = BTreeMap::new();
        let mut pending = seeds;
        pending.reverse(); // pop() walks the seeds front to back
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
                let reason = not_auto_firable_reason(task);
                refresh.failed.insert(
                    obj,
                    KernelError::NotAutoFirable {
                        process: task.process_name.clone(),
                        reason: reason.clone(),
                    },
                );
                refresh.report.skipped.push((obj, reason));
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
            .values()
            .flat_map(|node| graph.payload(*node).outputs.iter().map(|o| (*o, *node)))
            .collect();
        for consumer in node_of_task.values() {
            for input in graph.payload(*consumer).all_inputs() {
                if let Some(producer) = output_node.get(&input) {
                    if producer != consumer {
                        graph
                            .add_edge(*producer, *consumer)
                            .expect("distinct nodes cannot form a self-edge");
                    }
                }
            }
        }
        graph
    }

    /// Execute one wave: resolve bindings against the replacements map,
    /// prepare the fresh firings (concurrently when the scheduler has
    /// workers), then commit serially in node order.
    fn run_refresh_wave(
        &mut self,
        graph: &DepGraph<Task>,
        wave: &[NodeId],
        refresh: &mut Refresh,
    ) -> KernelResult<()> {
        // Phase 1 (serial): bind each node — replacements first, current
        // inputs as they are. Derivations already in flight as background
        // jobs stage as Pending and never reach a worker.
        let in_flight = self.jobs_in_flight_keys();
        let mut staged: Vec<(NodeId, Staged)> = Vec::with_capacity(wave.len());
        for node in wave {
            let task = graph.payload(*node);
            let stage = self.stage_refresh_node(task, refresh, &in_flight)?;
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
        let Refresh { report, failed } = refresh;
        for (node, stage) in staged {
            let task = graph.payload(node);
            let run = match stage {
                Staged::Blocked(reason, err) => {
                    for out in &task.outputs {
                        report.skipped.push((*out, reason.clone()));
                        failed.insert(*out, err.clone());
                    }
                    continue;
                }
                Staged::Pending(job) => {
                    for out in &task.outputs {
                        report.pending.push((*out, job));
                        failed.insert(
                            *out,
                            KernelError::DerivationPending {
                                process: task.process_name.clone(),
                                job,
                            },
                        );
                    }
                    continue;
                }
                Staged::Prepare(_) => {
                    self.commit_firing(prepared.next().expect("one prepare per Prepare node")?)?
                }
                Staged::Reused(run) => run,
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
    /// input's producer was skipped, is in flight, or is base data that
    /// disappeared). A node whose resolved bindings match an in-flight
    /// background job stages as [`Staged::Pending`] — the job owns that
    /// derivation.
    fn stage_refresh_node(
        &self,
        task: &Task,
        refresh: &Refresh,
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
                if let Some(new) = refresh.report.replacements.get(o) {
                    fresh.push(*new);
                    continue;
                }
                let gone = self.catalog.class_of_object(*o).is_err();
                if gone || super::exec::object_is_stale(&self.db, &self.catalog, *o, &mut memo) {
                    // Every stale or deleted derived input went through
                    // the graph and either was replaced or failed; only a
                    // deleted base input has no entry.
                    let cause = refresh
                        .failed
                        .get(o)
                        .cloned()
                        .unwrap_or_else(|| base_data(*o));
                    return Ok(Staged::Blocked(
                        format!(
                            "input {o} of process {} is {} and could not be re-derived",
                            def.name,
                            if gone { "deleted" } else { "stale" }
                        ),
                        cause,
                    ));
                }
                fresh.push(*o);
            }
            owned.push((arg.name.clone(), fresh));
        }
        Ok(
            match prior_derivation(
                &self.db,
                &self.catalog,
                in_flight,
                def.id,
                &dedup_key_for(def, &owned),
            ) {
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
        TaskKind::Manual => format!(
            "producing process {} is a non-applicative procedure; record a fresh manual task",
            task.process_name
        ),
        TaskKind::Interpolation => format!(
            "{} is query-driven; re-issue the query to re-interpolate",
            task.process_name
        ),
        TaskKind::Interactive => format!(
            "{} needs a scientist's answers; finish a fresh interactive session",
            task.process_name
        ),
        _ => unreachable!("auto-firable kinds are never skipped"),
    }
}

/// The error for re-deriving base data, which no process produced.
fn base_data(obj: ObjectId) -> KernelError {
    KernelError::Schema(format!(
        "object {obj} is base data; it has no producing process to re-fire"
    ))
}
