//! Asynchronous derivation jobs (§5): non-blocking external-site firings.
//!
//! "Data derivation may be performed by processes running at remote
//! sites"; such a process can take minutes, and the paper's contract is
//! that Gaea "writes the task record when the result arrives" while the
//! interactive session stays responsive.
//!
//! Each job has exactly one state, held in its kernel record. A
//! submission starts `Handed` (or `Done`, when an identical current
//! derivation answers it); a submission recovered from the journal starts
//! `Waiting` for its site:
//!
//! ```text
//! Waiting ──▶ Handed ──▶ Done(task) | Failed(err)
//!    │          │
//!    └──────────┴──────▶ Cancelled
//! ```
//!
//! * [`Gaea::submit_derivation`] plans the query's single goal firing,
//!   chooses its bindings and runs the *staging* half on the calling
//!   thread (validate + load + local guards — and for local primitives
//!   the whole template evaluation, which is cheap by construction). It
//!   hands the blocking half — the external-site round-trip — to the
//!   worker table and returns a [`JobId`] at once.
//! * The worker table is all that worker threads share with the kernel:
//!   one mutex and one condvar over queued bodies, running ids and
//!   finished results. At most [`Gaea::set_job_workers`] workers (4 by
//!   default) are spawned, lazily, and detached. A worker produces a
//!   `PreparedFiring` and never touches the store.
//! * The job pump — run by every job accessor and by the query/refresh
//!   entry points — commits finished results on the kernel's thread, in
//!   job-id order, through the serialized commit path every other firing
//!   uses. The committed task and object state of a background firing is
//!   therefore byte-identical to a synchronous run of the same derivation.
//! * While a job is in flight (waiting or handed) its derivation is
//!   *visible*: step-1 query answers list it in `QueryOutcome::pending`,
//!   the bind/fire walker refuses to double-fire the identical derivation
//!   ([`KernelError::DerivationPending`]), a duplicate
//!   [`Gaea::submit_derivation`] dedups to the existing job (the
//!   in-flight answer of the one derivation-identity check), and
//!   `Gaea::refresh_all` reports the stale objects it covers as pending
//!   instead of re-firing them.
//! * [`Gaea::await_job`], and a server's `AwaitJob` outside the kernel
//!   lock, sleep on the table's condvar through a [`JobWaiter`] until the
//!   deadline: a finished result, a cancel or [`JobWaiter::wake`] ends
//!   the sleep early, and no timer polls in between.
//!
//! Jobs are runtime state, like registered sites: they are not
//! persisted by [`Gaea::save`] and do not survive [`Gaea::load`]. A
//! *durable* kernel ([`Gaea::open`]) journals each submission with its
//! bindings, so an unresolved job survives a crash: recovery files it as
//! waiting until its site is registered again, then re-stages and re-runs
//! it (see [`super::durability`]). A job whose remote body failed is not
//! resolved in the journal either, so it re-stages on the next reopen.

use super::durability::RecordedBindings;
use super::exec::{prior_derivation, Prior};
use super::query::{dedup_key_for, derivation_plan, ChosenFiring, TokenPool};
use super::readonly::PinnedJob;
use super::Gaea;
use crate::derivation::executor::{self, PreparedFiring, StagedFiring, TaskRun};
use crate::error::{KernelError, KernelResult};
use crate::event::Event;
use crate::ids::{ProcessId, TaskId};
use crate::query::Query;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

pub use crate::ids::JobId;

/// Worker cap of a new kernel. Job workers spend their lives blocked on
/// remote round-trips, so more workers than cores is harmless; four
/// covers "a handful of slow sites" without a thread farm per kernel.
const DEFAULT_JOB_WORKERS: usize = 4;

/// Status of a background derivation job, as callers see it.
///
/// ```text
/// Queued ──▶ Running ──▶ Done(TaskId) | Failed(err)
///    │          │
///    └──────────┴──────▶ Cancelled
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Submitted, awaiting a worker (or, recovered from the journal, its
    /// external site).
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

/// The one state of a job, held in its record.
enum JobState {
    /// Recovered from the journal; waits for its external site before it
    /// re-stages.
    Waiting,
    /// Staged and handed to the worker table: queued, running, or
    /// finished with a result the next pump commits.
    Handed,
    /// Committed, or answered by an identical current derivation.
    Done(TaskRun),
    /// The remote body or the commit failed. `retry` marks a remote
    /// failure: nothing resolves it in the journal, so it re-stages on the
    /// next reopen.
    Failed { error: String, retry: bool },
    /// Cancelled before anything committed.
    Cancelled,
}

/// The kernel's record of one job.
struct JobRecord {
    /// Name of the output class (pending-visibility filter).
    output_class: String,
    /// The derivation identity, byte-compatible with `Task::dedup_key`.
    dedup_key: String,
    /// The submitted process and its chosen input bindings, as journaled:
    /// enough to re-stage the firing after a restart.
    process: ProcessId,
    bindings: RecordedBindings,
    state: JobState,
}

/// Every job a kernel knows, and the worker table they run on. One per
/// [`Gaea`].
pub(crate) struct JobManager {
    /// Waiting and handed jobs, by id: what the pump, the in-flight dedup
    /// walk and a pinned view's board read, so none of them walks the job
    /// history.
    in_flight: BTreeMap<JobId, JobRecord>,
    /// Jobs in a terminal state, by id. Never pruned: a status query may
    /// name any of them.
    settled: BTreeMap<JobId, JobRecord>,
    table: Arc<WorkerTable>,
    next_id: u64,
}

impl JobManager {
    pub(crate) fn new() -> JobManager {
        let slots = Slots {
            max_workers: DEFAULT_JOB_WORKERS,
            ..Slots::default()
        };
        JobManager {
            in_flight: BTreeMap::new(),
            settled: BTreeMap::new(),
            table: Arc::new(WorkerTable {
                slots: Mutex::new(slots),
                changed: Condvar::new(),
            }),
            next_id: 1,
        }
    }

    /// File `record` under the next fresh id, in flight or settled by its
    /// state.
    fn file(&mut self, record: JobRecord) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        let map = match record.state {
            JobState::Waiting | JobState::Handed => &mut self.in_flight,
            _ => &mut self.settled,
        };
        map.insert(id, record);
        id
    }

    fn record(&self, id: JobId) -> KernelResult<&JobRecord> {
        let record = self.in_flight.get(&id).or_else(|| self.settled.get(&id));
        record.ok_or(KernelError::NoSuchId {
            kind: "job",
            id: id.0,
        })
    }

    /// Never reallocate an id the journal has already seen.
    pub(crate) fn resume_ids(&mut self, max_seen: u64) {
        self.next_id = self.next_id.max(max_seen + 1);
    }

    /// The submissions a snapshot must carry, in id order: the jobs in
    /// flight plus the remote failures, which nothing resolved in the
    /// journal.
    pub(crate) fn unresolved_submissions(&self) -> Vec<(u64, ProcessId, RecordedBindings)> {
        let retried = self
            .settled
            .iter()
            .filter(|(_, r)| matches!(r.state, JobState::Failed { retry: true, .. }));
        let mut jobs: Vec<_> = self
            .in_flight
            .iter()
            .chain(retried)
            .map(|(id, r)| (id.0, r.process, r.bindings.clone()))
            .collect();
        jobs.sort_unstable_by_key(|j| j.0);
        jobs
    }
}

impl Drop for JobManager {
    /// Queued bodies will never run: drop them (counted as cancelled) and
    /// let the workers exit. Workers are detached, not joined — one
    /// blocked in a remote call must not hang the kernel's teardown.
    fn drop(&mut self) {
        let mut slots = self.table.lock();
        slots.closed = true;
        let m = gaea_obs::metrics();
        for _ in slots.queued.drain(..) {
            m.jobs_queue_depth.sub(1);
            m.jobs_cancelled.inc();
        }
        self.table.notify(slots);
    }
}

/// The hand-off between the kernel and its job workers.
struct WorkerTable {
    slots: Mutex<Slots>,
    /// Signalled on every hand-off, finish, cancel and wake.
    changed: Condvar,
}

#[derive(Default)]
struct Slots {
    /// Staged bodies awaiting a worker, in submission order.
    queued: VecDeque<(JobId, StagedFiring)>,
    /// Jobs a worker is executing. A cancel removes the id, and the worker
    /// then discards the result.
    running: BTreeSet<JobId>,
    /// Results the next pump commits.
    finished: BTreeMap<JobId, Result<PreparedFiring, String>>,
    /// Worker threads alive, and those of them blocked waiting for work.
    workers: usize,
    idle: usize,
    /// Cap on `workers` ([`Gaea::set_job_workers`]).
    max_workers: usize,
    /// Bumped by every finish, cancel and wake; a waiter sleeps until it
    /// moves.
    progress: u64,
    /// Set when the owning kernel drops: workers exit instead of waiting.
    closed: bool,
}

impl WorkerTable {
    /// Bodies run outside the lock and every mutation is a few map
    /// operations, so a panicking holder never leaves the slots half-done:
    /// absorb the poison rather than wedge the kernel.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Bump `progress` and wake everyone on the condvar.
    fn notify(&self, mut slots: MutexGuard<'_, Slots>) {
        slots.progress += 1;
        drop(slots);
        self.changed.notify_all();
    }

    /// Queue a staged body, spawning a worker when none is free to take
    /// it and the cap allows.
    fn hand(self: &Arc<Self>, id: JobId, body: StagedFiring) {
        let mut slots = self.lock();
        slots.queued.push_back((id, body));
        gaea_obs::metrics().jobs_submitted.inc();
        gaea_obs::metrics().jobs_queue_depth.add(1);
        if slots.queued.len() > slots.idle && slots.workers < slots.max_workers {
            slots.workers += 1;
            let table = Arc::clone(self);
            std::thread::spawn(move || table.work());
        }
        drop(slots);
        self.changed.notify_all();
    }

    /// A worker's life: run queued bodies until the kernel drops (which
    /// empties the queue as it closes the table).
    fn work(&self) {
        let mut slots = self.lock();
        loop {
            slots.idle += 1;
            slots = self
                .changed
                .wait_while(slots, |s| s.queued.is_empty() && !s.closed)
                .unwrap_or_else(PoisonError::into_inner);
            slots.idle -= 1;
            let Some((id, body)) = slots.queued.pop_front() else {
                return;
            };
            slots.running.insert(id);
            gaea_obs::metrics().jobs_queue_depth.sub(1);
            drop(slots);
            // A panicking body becomes a failure, never a poisoned table.
            let result = match catch_unwind(AssertUnwindSafe(|| body.execute())) {
                Ok(done) => done.map_err(|e| e.to_string()),
                Err(panic) => {
                    let text = panic.downcast_ref::<&str>().copied();
                    let text = text.or(panic.downcast_ref::<String>().map(String::as_str));
                    Err(format!("job body panicked: {}", text.unwrap_or("?")))
                }
            };
            slots = self.lock();
            // Cancelled while running: the result is discarded.
            if slots.running.remove(&id) {
                let m = gaea_obs::metrics();
                match &result {
                    Ok(_) => m.jobs_completed.inc(),
                    Err(_) => m.jobs_failed.inc(),
                }
                slots.finished.insert(id, result);
                slots.progress += 1;
                self.changed.notify_all();
            }
        }
    }

    /// Take job `id` back: a queued body is dropped unrun, a running
    /// one's eventual result is discarded. `false` when the result is
    /// already in, owed a commit.
    fn recall(&self, id: JobId) -> bool {
        let mut slots = self.lock();
        if let Some(at) = slots.queued.iter().position(|(q, _)| *q == id) {
            slots.queued.remove(at);
            gaea_obs::metrics().jobs_queue_depth.sub(1);
        } else if !slots.running.remove(&id) {
            return false;
        }
        gaea_obs::metrics().jobs_cancelled.inc();
        self.notify(slots);
        true
    }

    /// Is job `id` still waiting for a worker?
    fn is_queued(&self, id: JobId) -> bool {
        self.lock().queued.iter().any(|(q, _)| *q == id)
    }
}

/// A handle on a kernel's worker table that waits for job progress
/// without holding the kernel ([`Gaea::job_waiter`]).
/// [`Gaea::await_job`] waits through one, and so does a server's
/// `AwaitJob`, outside the kernel lock.
pub struct JobWaiter(Arc<WorkerTable>);

impl JobWaiter {
    /// Poll `status` until it answers a terminal status, `deadline`
    /// passes or `stop()` holds, and return its last answer. Between polls
    /// the thread sleeps on the table's condvar until a worker finishes, a
    /// job is cancelled or [`JobWaiter::wake`] rings.
    pub fn await_status(
        &self,
        deadline: Instant,
        stop: impl Fn() -> bool,
        mut status: impl FnMut() -> KernelResult<JobStatus>,
    ) -> KernelResult<JobStatus> {
        loop {
            // Read the progress mark before polling: a result that lands
            // after the poll moves it, so the wait below cannot miss it.
            let seen = self.0.lock().progress;
            let now = status()?;
            if now.is_terminal() || stop() || Instant::now() >= deadline {
                return Ok(now);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            let slots = self.0.lock();
            let _ = (self.0.changed).wait_timeout_while(slots, left, |s| s.progress == seen);
        }
    }

    /// Wake every waiter, so it polls again and re-checks its `stop`.
    pub fn wake(&self) {
        self.0.notify(self.0.lock());
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
            // born Done with the recorded task. Nothing to journal — a
            // restart has the reused task on the books already.
            ChosenFiring::Reused { run, key } => {
                let bindings = self.catalog.task(run.task)?.inputs.clone();
                let bindings = bindings.into_iter().collect();
                let record = self.job_record(pid, key, bindings, JobState::Done(run))?;
                Ok(self.jobs.file(record))
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
                let record = self.job_record(pid, key, bindings.clone(), JobState::Handed)?;
                let id = self.jobs.file(record);
                self.jobs.table.hand(id, staged);
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

    /// The record of a firing of `process` over `bindings`.
    fn job_record(
        &self,
        process: ProcessId,
        dedup_key: String,
        bindings: RecordedBindings,
        state: JobState,
    ) -> KernelResult<JobRecord> {
        let def = self.catalog.process(process)?;
        Ok(JobRecord {
            output_class: self.catalog.class(def.output)?.name.clone(),
            dedup_key,
            process,
            bindings,
            state,
        })
    }

    /// File a submission recovered from the journal under its own id. It
    /// waits: its site is not registered yet, and [`Gaea::register_site`]
    /// and the pump re-stage it.
    pub(crate) fn recover_job(
        &mut self,
        id: JobId,
        process: ProcessId,
        bindings: RecordedBindings,
    ) -> KernelResult<()> {
        let key = dedup_key_for(self.catalog.process(process)?, &bindings);
        let record = self.job_record(process, key, bindings, JobState::Waiting)?;
        self.jobs.in_flight.insert(id, record);
        Ok(())
    }

    /// Commit every job result the workers have finished: the serialized
    /// tail of each background firing, in job-id (= submission) order.
    /// An identical current derivation recorded since the submission
    /// chose its bindings is reused instead of duplicated; a commit
    /// failure settles the job as `Failed` without disturbing the others.
    /// Invoked by every job accessor and by the query/refresh entry
    /// points, so finished results become visible wherever the kernel
    /// next looks.
    pub(crate) fn pump_jobs(&mut self) {
        // Recovered submissions whose site has come back are handed to the
        // table first, so this pump (or a later one) can commit them.
        self.restage_recovered_jobs();
        let finished = std::mem::take(&mut self.jobs.table.lock().finished);
        for (id, result) in finished {
            let Some(mut record) = self.jobs.in_flight.remove(&id) else {
                continue;
            };
            record.state = match result {
                // Not resolved in the journal: the job re-stages on the
                // next reopen.
                Err(error) => JobState::Failed { error, retry: true },
                Ok(prepared) => {
                    // This job's own key is in flight, so only a current
                    // prior recorded meanwhile answers instead of the
                    // prepared result. Nothing is counted: the submission
                    // counted this firing.
                    let prior = prior_derivation(
                        &self.db,
                        &self.catalog,
                        &BTreeMap::new(),
                        prepared.process(),
                        &record.dedup_key,
                    );
                    let outcome = match prior {
                        Prior::Current(run) => Ok(run),
                        _ => self.commit_firing(prepared),
                    };
                    // Resolve the submission in the journal. Best-effort:
                    // if the append fails the job merely re-stages on the
                    // next reopen, where task reuse dedups it against the
                    // committed result.
                    let _ = self.wal_append(Event::JobResolved { job: id.0 });
                    match outcome {
                        Ok(run) => JobState::Done(run),
                        Err(e) => JobState::Failed {
                            error: e.to_string(),
                            retry: false,
                        },
                    }
                }
            };
            self.jobs.settled.insert(id, record);
        }
    }

    /// Try to re-stage every waiting job whose prerequisites are back (in
    /// particular: its external site). Jobs that still cannot stage keep
    /// waiting and are retried at the next pump or
    /// [`Gaea::register_site`]; re-running them is safe because task
    /// reuse resolves a re-staged duplicate to the already committed
    /// record.
    pub(crate) fn restage_recovered_jobs(&mut self) {
        for (id, record) in &mut self.jobs.in_flight {
            if !matches!(record.state, JobState::Waiting) {
                continue;
            }
            let Ok(staged) = executor::stage_firing(
                &self.db,
                &self.catalog,
                &self.registry,
                &self.externals,
                record.process,
                &record.bindings,
            ) else {
                continue;
            };
            record.state = JobState::Handed;
            self.jobs.table.hand(*id, staged);
        }
    }

    /// The job's current status, after committing any finished results.
    pub fn job_status(&mut self, id: JobId) -> KernelResult<JobStatus> {
        self.pump_jobs();
        self.job_status_now(id)
    }

    /// Status without pumping (the caller just pumped).
    fn job_status_now(&self, id: JobId) -> KernelResult<JobStatus> {
        Ok(match &self.jobs.record(id)?.state {
            JobState::Waiting => JobStatus::Queued,
            // Queued until a worker takes it; from then on, until its
            // result commits, Running.
            JobState::Handed if self.jobs.table.is_queued(id) => JobStatus::Queued,
            JobState::Handed => JobStatus::Running,
            JobState::Done(run) => JobStatus::Done(run.task),
            JobState::Failed { error, .. } => JobStatus::Failed(error.clone()),
            JobState::Cancelled => JobStatus::Cancelled,
        })
    }

    /// The jobs in flight as `(id, output class)` rows, in id order: what
    /// the live `pending` listing filters and [`Gaea::job_board`] freezes.
    pub(crate) fn jobs_in_flight(&self) -> impl Iterator<Item = (JobId, &str)> + '_ {
        self.jobs
            .in_flight
            .iter()
            .map(|(id, r)| (*id, r.output_class.as_str()))
    }

    /// The job board a snapshot-pinned [`super::readonly::ReadView`]
    /// freezes: the jobs in flight, so a publish costs what is in flight,
    /// not every job the kernel has run.
    pub(crate) fn job_board(&self) -> Vec<PinnedJob> {
        self.jobs_in_flight()
            .map(|(id, class)| PinnedJob {
                id,
                output_class: class.to_string(),
            })
            .collect()
    }

    /// A handle that waits for this kernel's job progress without holding
    /// the kernel — for a server that must not park a session inside its
    /// kernel lock.
    pub fn job_waiter(&self) -> JobWaiter {
        JobWaiter(Arc::clone(&self.jobs.table))
    }

    /// Block until the job reaches a terminal state — committing the
    /// result when it is this kernel's to commit — or `timeout` elapses.
    /// Returns the status as of return, which on timeout is the current
    /// *non*-terminal status, not an error: polling loops and bounded
    /// waits are both legitimate.
    pub fn await_job(&mut self, id: JobId, timeout: Duration) -> KernelResult<JobStatus> {
        let deadline = Instant::now() + timeout;
        self.job_waiter()
            .await_status(deadline, || false, || self.job_status(id))
    }

    /// Cancel a job. A queued job never runs; a running job's eventual
    /// result is discarded (the worker cannot be interrupted mid
    /// round-trip) — either way no task record is ever written.
    /// Cancelling a job that already committed (or failed) is a clean
    /// no-op: the returned status reports the terminal state unchanged,
    /// and the recorded task stays on the books.
    pub fn cancel_job(&mut self, id: JobId) -> KernelResult<JobStatus> {
        self.pump_jobs();
        let cancelled = match self.jobs.record(id)?.state {
            // Never re-staged: nothing is running.
            JobState::Waiting => true,
            JobState::Handed => self.jobs.table.recall(id),
            _ => false,
        };
        if cancelled {
            let mut record = self.jobs.in_flight.remove(&id).expect("in flight");
            record.state = JobState::Cancelled;
            self.jobs.settled.insert(id, record);
            // Resolve it in the log so a reopen does not resurrect it.
            self.wal_append(Event::JobResolved { job: id.0 })?;
        } else {
            // Settled already, or the worker finished between the pump
            // and the recall: the result is owed a commit — land it.
            self.pump_jobs();
        }
        self.job_status_now(id)
    }

    /// Every job this kernel has been asked to run, in submission order,
    /// with current statuses (finished results are committed first).
    pub fn jobs(&mut self) -> Vec<(JobId, JobStatus)> {
        self.pump_jobs();
        let mut ids: Vec<JobId> = self.jobs.in_flight.keys().copied().collect();
        ids.extend(self.jobs.settled.keys());
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| {
                (
                    id,
                    self.job_status_now(id).expect("listed ids have records"),
                )
            })
            .collect()
    }

    /// Adjust the background-job worker cap (clamped to ≥ 1; 4 for a new
    /// kernel). Wave-execution workers ([`Gaea::set_workers`]) are a
    /// separate, CPU-bound pool.
    pub fn set_job_workers(&mut self, workers: usize) {
        self.jobs.table.lock().max_workers = workers.max(1);
    }

    /// Dedup keys of every job in flight (waiting, queued, running, or
    /// finished-but-uncommitted), for the walkers that must not fire a
    /// duplicate of an in-flight derivation. Its cost follows the jobs in
    /// flight, not every job the kernel has run.
    pub(crate) fn jobs_in_flight_keys(&self) -> BTreeMap<String, JobId> {
        let mut keys = BTreeMap::new();
        for (id, record) in &self.jobs.in_flight {
            keys.entry(record.dedup_key.clone()).or_insert(*id);
        }
        keys
    }
}

/// The jobs a query over `classes` lists in `QueryOutcome::pending`: the
/// in-flight jobs whose output class is a target — the derivations that
/// may yet add to the answer. Rows are `(id, output class)`, as
/// [`Gaea::jobs_in_flight`] yields them live and a pinned job board
/// replays them.
pub(crate) fn pending_jobs_for<'a>(
    classes: &[String],
    rows: impl IntoIterator<Item = (JobId, &'a str)>,
) -> Vec<JobId> {
    rows.into_iter()
        .filter(|(_, class)| classes.iter().any(|c| c == class))
        .map(|(id, _)| id)
        .collect()
}
