//! Asynchronous derivation jobs (§5): non-blocking external-site firings.
//!
//! "Data derivation may be performed by processes running at remote
//! sites"; such a process can take minutes, and the paper's contract is
//! that Gaea "writes the task record when the result arrives" while the
//! interactive session stays responsive. This layer delivers exactly
//! that split on top of the `gaea-sched` [`JobPool`]:
//!
//! * [`Gaea::submit_derivation`] plans the query's single goal firing,
//!   chooses its bindings, runs the *staging* half on the calling
//!   thread (validate + load + local guards — and for local primitives
//!   the whole template evaluation, which is cheap by construction),
//!   and hands the blocking half — the external-site round-trip — to a
//!   background worker. It returns a [`JobId`] immediately.
//! * The worker produces a `PreparedFiring`; nothing commits on the
//!   worker. Commits happen on the owner's thread, through the same
//!   serialized commit path every other firing uses (the internal job
//!   pump, invoked by every job accessor and by the query/refresh entry
//!   points), so the committed task and object state of a background
//!   firing is byte-identical to a synchronous run of the same
//!   derivation.
//! * While a job is in flight its derivation is *visible*: step-1 query
//!   answers list it in `QueryOutcome::pending`, the bind/fire walker
//!   refuses to double-fire the identical derivation
//!   ([`KernelError::DerivationPending`]), a duplicate
//!   [`Gaea::submit_derivation`] dedups to the existing job (the
//!   in-flight answer of the one derivation-identity check), and
//!   `Gaea::refresh_all` reports the stale
//!   objects it covers as pending instead of re-firing them.
//!
//! Jobs are runtime state, like registered sites: they are not
//! persisted by [`Gaea::save`] and do not survive [`Gaea::load`]. A
//! *durable* kernel ([`Gaea::open`]) is different: submissions are
//! journaled in the write-ahead event log with their bindings, so
//! unresolved jobs survive a crash — recovery holds them until their
//! site is re-registered, then re-stages and re-runs them (see
//! [`super::durability`]).

use super::durability::RecordedBindings;
use super::exec::{prior_derivation, Prior};
use super::query::{derivation_plan, ChosenFiring, TokenPool};
use super::Gaea;
use crate::derivation::executor::{self, PreparedFiring, TaskRun};
use crate::error::{KernelError, KernelResult};
use crate::event::Event;
use crate::ids::{ObjectId, ProcessId, TaskId};
use crate::query::Query;
use gaea_sched::{jobs as sched_jobs, JobPhase, JobPool};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

pub use gaea_sched::JobId;

/// Kernel-level status of a background derivation job: the pool's state
/// machine with the terminal success carrying the *committed* task.
///
/// ```text
/// Queued ──▶ Running ──▶ Done(TaskId) | Failed(err)
///    │          │
///    └──────────┴──────▶ Cancelled
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Submitted, awaiting a worker.
    Queued,
    /// The worker is executing (typically: blocked in the external-site
    /// round-trip), or the result awaits its serialized commit.
    Running,
    /// The firing committed; the task record is on the books. Terminal.
    Done(TaskId),
    /// The firing (or its commit) failed. Terminal.
    Failed(String),
    /// Cancelled before anything committed; no task record exists.
    /// Terminal.
    Cancelled,
}

impl JobStatus {
    /// Has the job reached a state it can never leave?
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Done(_) | JobStatus::Failed(_) | JobStatus::Cancelled
        )
    }

    /// The committed task, for a `Done` job.
    pub fn task(&self) -> Option<TaskId> {
        match self {
            JobStatus::Done(t) => Some(*t),
            _ => None,
        }
    }
}

/// The kernel's record of one submitted job — everything the pool does
/// not know: which derivation it realizes (for dedup and pending
/// visibility) and what its commit produced.
pub(crate) struct JobRecord {
    /// Name of the output class (pending-visibility filter).
    pub(crate) output_class: String,
    /// The derivation identity, byte-compatible with `Task::dedup_key`.
    pub(crate) dedup_key: String,
    /// Set once the prepared result committed (or an identical current
    /// derivation was reused).
    pub(crate) committed: Option<TaskRun>,
    /// Set if the commit itself failed.
    pub(crate) commit_error: Option<String>,
    /// The submitted process — with `bindings`, enough to re-stage the
    /// firing after a restart.
    pub(crate) process: ProcessId,
    /// The chosen input bindings, as journaled at submission.
    pub(crate) bindings: Vec<(String, Vec<ObjectId>)>,
    /// Cancelled before anything committed (terminal; kept so a
    /// journal-recovered job cancelled before re-staging still reports
    /// its status).
    pub(crate) cancelled: bool,
}

impl JobRecord {
    /// Has the kernel resolved this job (committed or commit-failed)?
    pub(crate) fn resolved(&self) -> bool {
        self.committed.is_some() || self.commit_error.is_some()
    }
}

/// Owner of the job pool and the per-job records. One per [`Gaea`].
pub(crate) struct JobManager {
    pub(crate) pool: JobPool<PreparedFiring>,
    /// Every job ever submitted, in id order. Never pruned: a status
    /// query may name any of them.
    pub(crate) records: BTreeMap<JobId, JobRecord>,
    /// The jobs whose records are neither resolved nor cancelled — the
    /// ones the commit pump, the in-flight dedup walk and a snapshot's
    /// submission list read, so none of them walks the whole job
    /// history. Joined on submission and journal recovery
    /// ([`JobManager::file`]), left on resolve and on cancel. A job
    /// whose worker failed stays: nothing resolves it in the journal,
    /// so it re-stages on the next reopen.
    unresolved: BTreeSet<JobId>,
    /// Submissions recovered from the event log but not yet re-staged
    /// (typically: their external site is not registered again yet).
    /// Restaging moves an id from here into the pool.
    pub(crate) recovered: BTreeSet<JobId>,
    next_id: u64,
}

impl JobManager {
    pub(crate) fn new() -> JobManager {
        JobManager {
            pool: JobPool::from_env(),
            records: BTreeMap::new(),
            unresolved: BTreeSet::new(),
            recovered: BTreeSet::new(),
            next_id: 1,
        }
    }

    fn allocate(&mut self) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        id
    }

    /// File a new job's record under `id`; a record not yet resolved
    /// joins the unresolved set.
    pub(crate) fn file(&mut self, id: JobId, record: JobRecord) {
        if !record.resolved() {
            self.unresolved.insert(id);
        }
        self.records.insert(id, record);
    }

    /// Mark job `id` cancelled (it never commits) and drop it from the
    /// unresolved set.
    fn cancel_record(&mut self, id: JobId) {
        if let Some(record) = self.records.get_mut(&id) {
            record.cancelled = true;
        }
        self.unresolved.remove(&id);
    }

    /// Never reallocate an id the journal has already seen.
    pub(crate) fn resume_ids(&mut self, max_seen: u64) {
        self.next_id = self.next_id.max(max_seen + 1);
    }

    /// The submissions a snapshot must carry: journaled jobs that are
    /// neither resolved nor cancelled, in id order.
    pub(crate) fn unresolved_submissions(&self) -> Vec<(u64, ProcessId, RecordedBindings)> {
        self.unresolved
            .iter()
            .map(|id| {
                let r = &self.records[id];
                (id.0, r.process, r.bindings.clone())
            })
            .collect()
    }
}

impl Gaea {
    /// Submit a query's derivation as a background job, returning its
    /// [`JobId`] immediately — the §5 pattern for external processes
    /// whose mapping runs for minutes at a remote site.
    ///
    /// Planning, binding and the local half of the firing (validation,
    /// input loading, guard assertions — and for local primitives the
    /// whole template evaluation) happen now, on this thread, so errors
    /// a synchronous firing would raise *before* going remote surface
    /// here as errors, not as failed jobs. The remote round-trip runs on
    /// a background worker; the commit happens on this kernel's thread
    /// at the next job accessor or query entry point, through the same
    /// serialized path as every synchronous firing — committed state is
    /// identical to a synchronous run.
    ///
    /// Semantics mirroring the synchronous walker:
    /// * an identical *current* derivation already on record (its
    ///   outputs still stored) is reused: the returned job is born
    ///   `Done` with the recorded task, nothing re-fires;
    /// * an identical derivation already *in flight* dedups to the
    ///   existing job id;
    /// * a goal whose plan needs several firings is refused (derive the
    ///   intermediates first; a background job realizes one firing) —
    ///   the plan is the one a synchronous derivation would fire, from
    ///   the same token pool and the same query-instant rule;
    /// * a goal already satisfied by stored objects resolves through its
    ///   producing process — submitting a derivation whose stale prior
    ///   is on record is exactly how a background *refresh* looks.
    pub fn submit_derivation(&mut self, q: &Query) -> KernelResult<JobId> {
        self.pump_jobs();
        let class_names = super::query::resolve(&self.catalog, q)?;
        let (dnet, pool) = self.plan_inputs(&class_names, q)?;
        let mut planless: Vec<String> = Vec::new();
        for name in &class_names {
            let def = self.catalog.class_by_name(name)?.clone();
            let pid = match derivation_plan(&dnet, &pool, &def) {
                Ok(p) if p.cost() == 1 => {
                    let (tid, _) = p.firings[0];
                    dnet.process_at(tid)
                        .expect("planner only uses catalog transitions")
                }
                Ok(p) if p.cost() == 0 => {
                    // The goal is already satisfied by stored objects; a
                    // submission then means "fire (or refresh) the goal's
                    // derivation anyway" — resolve its producer directly.
                    self.goal_producer(&dnet, &def, q)?
                }
                Ok(p) => {
                    return Err(KernelError::Schema(format!(
                        "submit_derivation: deriving class {name} needs {} firings; \
                         a background job realizes a single goal firing — derive or \
                         refresh the intermediate classes first",
                        p.cost()
                    )))
                }
                Err(_) => {
                    planless.push(name.clone());
                    continue;
                }
            };
            return self.submit_firing(pid, q, &pool);
        }
        Err(KernelError::DerivationImpossible(format!(
            "no derivation plan reaches {planless:?} from the stored base data"
        )))
    }

    /// The single auto-firable producer of `goal` in the plannable net —
    /// the query's `USING` process when pinned. Ambiguity is an error
    /// (pin with `USING`), absence is [`KernelError::DerivationImpossible`].
    fn goal_producer(
        &self,
        dnet: &crate::derivation::net::DerivationNet,
        goal: &crate::schema::ClassDef,
        q: &Query,
    ) -> KernelResult<ProcessId> {
        if let Some(name) = &q.using_process {
            return Ok(self.catalog.process_by_name(name)?.id);
        }
        let producers: Vec<ProcessId> = self
            .catalog
            .processes
            .values()
            .filter(|def| def.output == goal.id && dnet.transition_of.contains_key(&def.id))
            .map(|def| def.id)
            .collect();
        match producers.as_slice() {
            [one] => Ok(*one),
            [] => Err(KernelError::DerivationImpossible(format!(
                "class {} has no auto-firable producing process",
                goal.name
            ))),
            many => Err(KernelError::Schema(format!(
                "class {} has {} auto-firable producers; pin one with DERIVE USING",
                goal.name,
                many.len()
            ))),
        }
    }

    /// Bind one firing of `pid` from the query's token pool and stage it
    /// for background execution.
    fn submit_firing(
        &mut self,
        pid: ProcessId,
        q: &Query,
        pool: &TokenPool,
    ) -> KernelResult<JobId> {
        match self.choose_or_fire(pid, q, pool, &BTreeSet::new())? {
            // The identical derivation is already in flight: duplicate
            // submissions dedup to one job.
            ChosenFiring::Pending(job) => Ok(job),
            // An identical current derivation is on record: the job is
            // born Done with the recorded task.
            ChosenFiring::Reused { run, key } => {
                let task = self.catalog.task(run.task)?;
                let bindings = task.inputs.clone().into_iter().collect();
                let def = self.catalog.process(pid)?;
                let record = JobRecord {
                    output_class: self.catalog.class(def.output)?.name.clone(),
                    dedup_key: key,
                    committed: Some(run),
                    commit_error: None,
                    process: pid,
                    bindings,
                    cancelled: false,
                };
                let id = self.jobs.allocate();
                self.jobs.file(id, record);
                // Born resolved: nothing to journal — a restart has the
                // reused task on the books already.
                Ok(id)
            }
            ChosenFiring::Bound { bindings, key } => {
                let staged = executor::stage_firing(
                    &self.db,
                    &self.catalog,
                    &self.registry,
                    &self.externals,
                    pid,
                    &bindings,
                )?;
                let def = self.catalog.process(pid)?;
                let record = JobRecord {
                    output_class: self.catalog.class(def.output)?.name.clone(),
                    dedup_key: key,
                    committed: None,
                    commit_error: None,
                    process: pid,
                    bindings: bindings.clone(),
                    cancelled: false,
                };
                let id = self.jobs.allocate();
                self.jobs.file(id, record);
                self.jobs
                    .pool
                    .submit(id, move || staged.execute().map_err(|e| e.to_string()));
                // Journal the submission (with its bindings) so a crash
                // before the result commits re-stages it on reopen.
                self.wal_append(Event::JobSubmit {
                    job: id.0,
                    process: pid,
                    bindings,
                })?;
                Ok(id)
            }
        }
    }

    /// Commit every job result the workers have finished: the serialized
    /// tail of each background firing, in job-id (= submission) order.
    /// An identical current derivation recorded since the submission
    /// chose its bindings is reused instead of duplicated; a commit
    /// failure resolves the job as `Failed` without
    /// disturbing the others. Invoked by every job accessor and by the
    /// query/refresh entry points, so finished results become visible
    /// wherever the kernel next looks.
    pub(crate) fn pump_jobs(&mut self) {
        // Journal-recovered submissions whose site has come back re-enter
        // the pool first, so this pump (or a later one) can commit them.
        self.restage_recovered_jobs();
        let unresolved: Vec<JobId> = self.jobs.unresolved.iter().copied().collect();
        for id in unresolved {
            // `take_done` moves the payload out and drops the pool entry:
            // the result commits exactly once, and completed firings (and
            // their computed output attributes) do not accumulate in the
            // pool for the kernel's lifetime. The record below is the
            // job's durable identity from here on.
            let Some(prepared) = self.jobs.pool.take_done(id) else {
                continue;
            };
            // This job's own key is in flight, so only a current prior
            // recorded meanwhile answers instead of the prepared result.
            // Nothing is counted: the submission counted this firing.
            let record = self
                .jobs
                .records
                .get(&id)
                .expect("unresolved ids come from the record map");
            let none_in_flight = BTreeMap::new();
            let prior = prior_derivation(
                &self.db,
                &self.catalog,
                &none_in_flight,
                prepared.process(),
                &record.dedup_key,
            );
            let outcome = match prior {
                Prior::Current(run) => Ok(run),
                _ => self.commit_firing(prepared),
            };
            let record = self
                .jobs
                .records
                .get_mut(&id)
                .expect("unresolved ids come from the record map");
            match outcome {
                Ok(run) => record.committed = Some(run),
                Err(e) => record.commit_error = Some(e.to_string()),
            }
            self.jobs.unresolved.remove(&id);
            // Resolve the submission in the journal. Best-effort: if the
            // append fails the job merely re-stages on the next reopen,
            // where task reuse dedups it against the committed result.
            let _ = self.wal_append(Event::JobResolved { job: id.0 });
        }
    }

    /// Try to re-stage every journal-recovered submission whose
    /// prerequisites are back (in particular: its external site). Jobs
    /// that still cannot stage stay journaled and are retried at the
    /// next pump or [`Gaea::register_site`]; re-running them is safe
    /// because task reuse resolves a re-staged duplicate to the already
    /// committed record.
    pub(crate) fn restage_recovered_jobs(&mut self) {
        if self.jobs.recovered.is_empty() {
            return;
        }
        let ids: Vec<JobId> = self.jobs.recovered.iter().copied().collect();
        for id in ids {
            let record = self
                .jobs
                .records
                .get(&id)
                .expect("recovered ids have records");
            let pid = record.process;
            let Ok(staged) = executor::stage_firing(
                &self.db,
                &self.catalog,
                &self.registry,
                &self.externals,
                pid,
                &record.bindings,
            ) else {
                continue;
            };
            self.jobs.recovered.remove(&id);
            self.jobs
                .pool
                .submit(id, move || staged.execute().map_err(|e| e.to_string()));
        }
    }

    /// The job's current status, after committing any finished results.
    pub fn job_status(&mut self, id: JobId) -> KernelResult<JobStatus> {
        self.pump_jobs();
        self.job_status_now(id)
    }

    /// Every job the kernel knows, with its output class and its status
    /// *right now* (no pumping, `&self`), computed only when asked for.
    /// Finished results the kernel has not committed yet report
    /// `Running`, exactly like [`Gaea::job_status`] would after its pump
    /// found nothing. The live `pending` listing reads these rows
    /// directly; [`Gaea::job_board`] freezes them for a pinned view.
    pub(crate) fn job_rows(
        &self,
    ) -> impl Iterator<Item = (JobId, &str, impl FnOnce() -> JobStatus + '_)> + '_ {
        self.jobs.records.iter().map(move |(id, record)| {
            let id = *id;
            let status = move || self.record_status(id, record);
            (id, record.output_class.as_str(), status)
        })
    }

    /// The job board a snapshot-pinned [`super::readonly::ReadView`]
    /// freezes: every row of [`Gaea::job_rows`], status evaluated.
    pub(crate) fn job_board(&self) -> Vec<super::readonly::PinnedJob> {
        self.job_rows()
            .map(|(id, output_class, status)| super::readonly::PinnedJob {
                id,
                status: status(),
                output_class: output_class.to_string(),
            })
            .collect()
    }

    /// Status without pumping (the caller just pumped).
    fn job_status_now(&self, id: JobId) -> KernelResult<JobStatus> {
        let record = self.jobs.records.get(&id).ok_or(KernelError::NoSuchId {
            kind: "job",
            id: id.0,
        })?;
        Ok(self.record_status(id, record))
    }

    /// The status of job `id`, whose record is `record`, without pumping.
    fn record_status(&self, id: JobId, record: &JobRecord) -> JobStatus {
        if let Some(run) = &record.committed {
            return JobStatus::Done(run.task);
        }
        if let Some(e) = &record.commit_error {
            return JobStatus::Failed(e.clone());
        }
        match self.jobs.pool.status(id) {
            Some(sched_jobs::JobStatus::Queued) => JobStatus::Queued,
            // A result the pool holds but the kernel has not committed
            // yet reports Running: the firing is not on the books until
            // the serialized commit lands.
            Some(sched_jobs::JobStatus::Running) | Some(sched_jobs::JobStatus::Done(_)) => {
                JobStatus::Running
            }
            Some(sched_jobs::JobStatus::Failed(e)) => JobStatus::Failed(e),
            Some(sched_jobs::JobStatus::Cancelled) => JobStatus::Cancelled,
            // Cancelled before (re-)entering the pool.
            None if record.cancelled => JobStatus::Cancelled,
            // Journal-recovered, awaiting its site to re-stage: queued.
            None if self.jobs.recovered.contains(&id) => JobStatus::Queued,
            // Reuse-resolved records never enter the pool; they were
            // handled above via `committed`.
            None => unreachable!("job record without commit state or pool entry"),
        }
    }

    /// Block until the job reaches a terminal state — committing the
    /// result when it is this kernel's to commit — or `timeout` elapses.
    /// Returns the status as of return, which on timeout is the current
    /// *non*-terminal status, not an error: polling loops and bounded
    /// waits are both legitimate.
    pub fn await_job(&mut self, id: JobId, timeout: Duration) -> KernelResult<JobStatus> {
        let deadline = Instant::now() + timeout;
        loop {
            self.pump_jobs();
            let status = self.job_status_now(id)?;
            if status.is_terminal() {
                return Ok(status);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(status);
            }
            // Wait on the pool for the worker to finish (or the deadline);
            // the next loop iteration commits and re-reads.
            self.jobs.pool.wait_terminal(id, deadline - now);
        }
    }

    /// Cancel a job. A queued job never runs; a running job's eventual
    /// result is discarded (the worker cannot be interrupted mid
    /// round-trip) — either way no task record is ever written.
    /// Cancelling a job that already committed (or failed) is a clean
    /// no-op: the returned status reports the terminal state unchanged,
    /// and the recorded task stays on the books.
    pub fn cancel_job(&mut self, id: JobId) -> KernelResult<JobStatus> {
        self.pump_jobs();
        let record = self.jobs.records.get(&id).ok_or(KernelError::NoSuchId {
            kind: "job",
            id: id.0,
        })?;
        if !record.resolved() {
            if self.jobs.recovered.remove(&id) {
                // Journal-recovered and never re-staged: nothing is
                // running. Mark it cancelled and resolve it in the log so
                // a reopen does not resurrect it.
                self.jobs.cancel_record(id);
                self.wal_append(Event::JobResolved { job: id.0 })?;
            } else if self.jobs.pool.cancel(id) {
                self.jobs.cancel_record(id);
                self.wal_append(Event::JobResolved { job: id.0 })?;
            } else {
                // The worker finished between the pump and the cancel: the
                // result is already owed a commit — land it, then report.
                self.pump_jobs();
            }
        }
        self.job_status_now(id)
    }

    /// Every job this kernel has been asked to run, in submission order,
    /// with current statuses (finished results are committed first).
    pub fn jobs(&mut self) -> Vec<(JobId, JobStatus)> {
        self.pump_jobs();
        self.jobs
            .records
            .keys()
            .map(|id| {
                (
                    *id,
                    self.job_status_now(*id).expect("listed ids have records"),
                )
            })
            .collect()
    }

    /// Cap on concurrently executing background jobs.
    pub fn job_workers(&self) -> usize {
        self.jobs.pool.max_workers()
    }

    /// Adjust the background-job worker cap (clamped to ≥ 1; the
    /// `GAEA_JOB_WORKERS` environment variable sets the initial value).
    /// Wave-execution workers ([`Gaea::set_workers`]) are a separate,
    /// CPU-bound pool.
    pub fn set_job_workers(&mut self, workers: usize) {
        self.jobs.pool.set_max_workers(workers);
    }

    /// Dedup keys of every *unresolved* derivation job (queued, running,
    /// or finished-but-uncommitted), for the walkers that must not fire
    /// a duplicate of an in-flight derivation. Walks the unresolved set
    /// only, so its cost follows the jobs in flight, not every job the
    /// kernel has run.
    pub(crate) fn jobs_in_flight_keys(&self) -> BTreeMap<String, JobId> {
        let mut keys = BTreeMap::new();
        for id in &self.jobs.unresolved {
            let record = &self.jobs.records[id];
            // A journal-recovered submission awaiting its site is just as
            // in-flight as a pooled one.
            if self.jobs.recovered.contains(id) {
                keys.entry(record.dedup_key.clone()).or_insert(*id);
                continue;
            }
            match self.jobs.pool.phase(*id) {
                Some(JobPhase::Queued) | Some(JobPhase::Running) | Some(JobPhase::Done) => {
                    keys.entry(record.dedup_key.clone()).or_insert(*id);
                }
                _ => {}
            }
        }
        keys
    }
}

/// The jobs a query over `classes` lists in `QueryOutcome::pending`:
/// every job whose output class is a target and whose status is not
/// terminal — the in-flight derivations that may yet add to the answer.
/// Rows are `(id, output class, status)`, as [`Gaea::job_rows`] yields
/// them live and a pinned job board replays them; a status is evaluated
/// only for jobs of a target class.
pub(crate) fn pending_jobs_for<'a, S: FnOnce() -> JobStatus>(
    classes: &[String],
    rows: impl IntoIterator<Item = (JobId, &'a str, S)>,
) -> Vec<JobId> {
    rows.into_iter()
        .filter(|(_, class, _)| classes.iter().any(|c| c == class))
        .filter_map(|(id, _, status)| (!status().is_terminal()).then_some(id))
        .collect()
}
