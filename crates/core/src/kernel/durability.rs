//! Durability: the kernel's write-ahead event log and crash recovery.
//!
//! A kernel opened with [`Gaea::open`] records every committed mutation
//! as one logged event in a [`gaea_store::wal`] file before the call
//! that made it returns:
//!
//! * DDL — class/concept/process/experiment definitions, plus the
//!   access paths the optimizer creates mid-query (index, grid, grid
//!   re-tune): queries mutate physical state, so they log too;
//! * object CRUD — insert/update/delete with the full tuple;
//! * task commits — every way a task enters the history (firing,
//!   compound, manual record, interactive finish, interpolation) builds
//!   one `TaskCommit` record of new task records and the output objects
//!   they materialized;
//! * job lifecycle — background submissions (`JobSubmit`, with the
//!   recorded bindings) and their resolution (`JobResolved`), so
//!   in-flight derivations survive a restart and re-stage.
//!
//! Each event is built from read-only state, applied by the one
//! interpreter `event::apply`, and logged as that same value; replay
//! decodes it and calls the same `apply`, so the log holds what the
//! statement did rather than a reconstruction of it. `apply` ticks the
//! store's version clock through the ordinary write calls, so the clock
//! replays itself, and a failed statement builds no event and leaves
//! nothing to replay (a compensated compound rewinds to a savepoint).
//! The envelope adds the sequence number and the OID allocator
//! high-water mark, so replay restores store, catalog, version counters
//! and allocator to serde-identical state: reopen-after-crash equals the
//! last logged event, and a clean drop equals the live kernel exactly.
//!
//! Envelopes written while version ticks were journaled also carry
//! `bumps`: the ticks of failed statements since the previous event,
//! then the event's own. Replay applies the leading ones and lets
//! `apply` take the rest; new envelopes carry none, and a legacy
//! `VersionAdvance` record is ticks alone.
//!
//! Every record is written as binary v1 by `kernel/wal_codec.rs`;
//! decoding dispatches per record, so logs holding the legacy JSON
//! formats (written before the binary codec) still replay unchanged.
//!
//! Periodic snapshots (`manifest v4`, carrying the log watermark) fold
//! the log into a `snap-<seq>/` directory, flip the `CURRENT` pointer
//! atomically, and truncate the log; unresolved job submissions ride in
//! the snapshot's `jobs.json`. There is one fold, and it runs *off* the
//! commit path: the committing thread clones the database state
//! ([`gaea_store::snapshot::capture_with_wal_seq`]) and hands it to a
//! detached compactor thread that writes the snapshot to a `snap-*.tmp`
//! side directory and flips `CURRENT`, while commits keep appending;
//! the committing thread later truncates exactly the covered log prefix
//! ([`WalWriter::truncate_prefix`] — an atomic stage-and-rename clip,
//! never an in-place rewrite) when it observes the fold finished
//! ([`Gaea::poll_compaction`]). A cadence point that finds a fold in
//! flight skips instead of blocking. [`Gaea::checkpoint`] is the same
//! fold, waited on: its snapshot write runs on the calling thread. Every
//! flush/close boundary settles an in-flight fold first.
//!
//! Crashing anywhere in the sequence is safe: before the pointer
//! flip the old snapshot + full log recover (half-written `snap-*.tmp`
//! directories are swept on open), after it the watermark makes
//! re-replaying the untruncated log a no-op. See
//! `scripts/crash_matrix.sh` for the fault-injection lane that drives
//! aborts through every boundary, background ones included.

use super::{codec_err, io_err, read_snapshot, Gaea};
use crate::catalog::Catalog;
use crate::derivation::executor::TaskRun;
use crate::error::KernelResult;
use crate::event::{apply, Event, TaskCommit};
use crate::ids::{JobId, ObjectId, ProcessId};
use gaea_store::snapshot::Capture;
use gaea_store::wal::WalWriter;
use gaea_store::{CrashPoint, CrashSwitch};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// A firing's recorded bindings: argument name → input objects, as
/// journaled with job submissions and replayed at recovery.
pub(crate) type RecordedBindings = Vec<(String, Vec<ObjectId>)>;

/// Journaled submissions awaiting resolution, keyed by job id —
/// accumulated from the snapshot's `jobs.json` plus replayed
/// `JobSubmit`/`JobResolved` events.
type PendingJobs = BTreeMap<u64, (ProcessId, RecordedBindings)>;

/// Tuning knobs for a durable kernel ([`Gaea::open_with`]).
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// Fsync the log every N events (group commit). 1 — the default —
    /// syncs every event: nothing acknowledged is lost even to a power
    /// cut. Larger values batch the sync; a *process* crash still loses
    /// nothing (the OS holds every appended byte), a machine crash may
    /// lose up to N-1 tail events — never a torn prefix.
    pub fsync_every: u64,
    /// Fold the log into a snapshot every N events; 0 disables automatic
    /// snapshots ([`Gaea::checkpoint`] remains available). The fold runs
    /// on a background compactor thread: the committing call pays a
    /// state clone, not the serialization and I/O.
    pub snapshot_every: u64,
}

impl Default for DurabilityOptions {
    fn default() -> DurabilityOptions {
        DurabilityOptions {
            fsync_every: 1,
            snapshot_every: 1024,
        }
    }
}

/// What recovery did when a durable kernel opened ([`Gaea::recovery_stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Log events replayed on top of the snapshot.
    pub events_replayed: u64,
    /// Journaled in-flight job submissions recovered for re-staging.
    pub jobs_restaged: u64,
    /// The snapshot's truncation watermark (sequence number of the last
    /// event already folded into it; 0 = no snapshot, full replay).
    pub snapshot_seq: u64,
    /// Bytes dropped from the log tail (a record torn by the crash).
    pub wal_dropped_bytes: u64,
    /// True when the drop was a checksum/length failure rather than a
    /// clean torn tail.
    pub wal_corrupt: bool,
}

/// Mirror durable-state facts into the global metrics registry, so live
/// introspection (the server's `Stats` request) sees the current
/// truncation watermark without a kernel handle. Called when a durable
/// kernel opens and again whenever a finished fold moves the
/// watermark.
fn publish_recovery_gauges(stats: &RecoveryStats) {
    let m = gaea_obs::metrics();
    m.recovery_events_replayed.set(stats.events_replayed);
    m.recovery_jobs_restaged.set(stats.jobs_restaged);
    m.recovery_snapshot_seq.set(stats.snapshot_seq);
    m.recovery_wal_dropped_bytes.set(stats.wal_dropped_bytes);
    m.recovery_wal_corrupt.set(stats.wal_corrupt as u64);
}

/// The envelope around each logged event: its sequence number, the OID
/// allocator high-water mark after the event, and — in records written
/// while version ticks were journaled — the ticks since the previous
/// event, failed statements' first and then the event's own. New
/// records carry no ticks: `apply` takes them.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct LoggedEvent {
    pub(crate) seq: u64,
    pub(crate) next_oid: u64,
    pub(crate) bumps: Vec<(String, Vec<u64>)>,
    pub(crate) event: Event,
}

/// An unresolved job submission as persisted in a snapshot's
/// `jobs.json` — checkpoint truncates the log, so pending submissions
/// must ride in the snapshot to survive it.
#[derive(Debug, Serialize, Deserialize)]
struct JournaledJob {
    job: u64,
    process: ProcessId,
    bindings: Vec<(String, Vec<ObjectId>)>,
}

/// A snapshot fold begun and not yet finished: the write owns the
/// captured state and writes/flips on its own; the committing thread
/// keeps what it needs to finish — the watermark, the log prefix the
/// capture covered, and the write's outcome.
struct InflightCompaction {
    write: FoldWrite,
    /// Watermark sequence the snapshot will carry (`snap-<seq>`).
    seq: u64,
    /// Log length at capture time — the prefix to truncate on success.
    covered: u64,
    /// When the fold was submitted (total fold latency metric).
    started: Instant,
}

/// Where a fold's snapshot write runs. A cadence fold runs it on the
/// compactor thread, off the commit path. A checkpoint waits for the
/// fold anyway, so it runs the write on the calling thread: a compactor
/// thread's fresh allocator arena would add the whole serialization to
/// the process's peak memory instead of reusing what the caller freed.
enum FoldWrite {
    Compactor(JoinHandle<Result<(), String>>),
    Done(Result<(), String>),
}

/// The durable half of an open kernel: log writer, directory layout,
/// event sequencing and snapshot cadence.
pub(crate) struct Durability {
    dir: PathBuf,
    wal: WalWriter,
    /// Sequence number of the last logged event (monotone across
    /// truncations; snapshots record it as their watermark).
    seq: u64,
    /// Events appended since the last snapshot.
    since_snapshot: u64,
    options: DurabilityOptions,
    /// At most one background fold runs at a time.
    inflight: Option<InflightCompaction>,
}

impl Gaea {
    /// Open (or create) a durable kernel rooted at `dir` with default
    /// [`DurabilityOptions`]. Recovery replays the log over the latest
    /// snapshot; [`Gaea::recovery_stats`] reports what it did.
    pub fn open(dir: &Path) -> KernelResult<Gaea> {
        Self::open_with(dir, DurabilityOptions::default())
    }

    /// [`Gaea::open`] with explicit group-commit and snapshot cadence.
    pub fn open_with(dir: &Path, options: DurabilityOptions) -> KernelResult<Gaea> {
        fs::create_dir_all(dir).map_err(io_err)?;
        // 0. Sweep wreckage of a fold that crashed mid-write: half-built
        //    `snap-*.tmp` side directories, an unrenamed `CURRENT.tmp`,
        //    and complete `snap-*` directories `CURRENT` never flipped
        //    to (a crash between the directory rename and the pointer
        //    flip). None of them are authoritative — `CURRENT` is.
        sweep_stale_snapshots(dir);
        // 1. The latest durable snapshot, if any. CURRENT names the
        //    snapshot directory and is flipped atomically by every fold,
        //    so whatever it points at is complete.
        let mut pending = PendingJobs::new();
        let (db, catalog, watermark) = match fs::read_to_string(dir.join("CURRENT")) {
            Ok(name) => {
                let snap = dir.join(name.trim());
                let parts = read_snapshot(&snap)?;
                if let Ok(raw) = fs::read_to_string(snap.join("jobs.json")) {
                    let jobs: Vec<JournaledJob> = serde_json::from_str(&raw).map_err(codec_err)?;
                    for j in jobs {
                        pending.insert(j.job, (j.process, j.bindings));
                    }
                }
                parts
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                (gaea_store::Database::new(), Catalog::default(), 0)
            }
            Err(e) => return Err(io_err(e)),
        };
        let mut g = Gaea::from_parts(db, catalog);
        // 2. Replay the log's valid prefix over the snapshot, skipping
        //    events the snapshot already contains (a crash during
        //    truncation leaves them in the log; the watermark makes the
        //    second application a no-op by never running it).
        let wal_path = dir.join("wal.log");
        let scan = gaea_store::wal::read_wal(&wal_path).map_err(io_err)?;
        let mut last_seq = watermark;
        let mut events_replayed = 0u64;
        let mut max_job = pending.keys().next_back().copied().unwrap_or(0);
        for record in &scan.records {
            let logged = super::wal_codec::decode_logged(record)?;
            if logged.seq <= watermark {
                continue;
            }
            // A legacy envelope's leading ticks are failed statements';
            // the rest are the event's own, which `apply` takes itself.
            let failed = logged.bumps.len().saturating_sub(logged.event.own_ticks());
            g.db.replay_bumps(&logged.bumps[..failed]);
            apply(&mut g.db, &mut g.catalog, &logged.event)?;
            match logged.event {
                Event::JobSubmit {
                    job,
                    process,
                    bindings,
                } => {
                    pending.insert(job, (process, bindings));
                    max_job = max_job.max(job);
                }
                Event::JobResolved { job } => {
                    pending.remove(&job);
                    max_job = max_job.max(job);
                }
                _ => {}
            }
            g.db.resume_oids(logged.next_oid);
            last_seq = logged.seq;
            events_replayed += 1;
        }
        // 3. Recovered in-flight submissions become job records again,
        //    waiting for re-staging (their sites are not registered yet;
        //    `register_site` and the job pump retry).
        let jobs_restaged = pending.len() as u64;
        for (job, (pid, bindings)) in pending {
            g.recover_job(JobId(job), pid, bindings)?;
        }
        g.jobs.resume_ids(max_job);
        // 4. Arm the log for new events: the writer opens at the valid
        //    prefix (dropping any torn tail).
        let wal =
            WalWriter::open(&wal_path, scan.valid_len, options.fsync_every).map_err(io_err)?;
        g.durability = Some(Durability {
            dir: dir.to_path_buf(),
            wal,
            seq: last_seq,
            since_snapshot: events_replayed,
            options,
            inflight: None,
        });
        g.restage_recovered_jobs();
        let stats = RecoveryStats {
            events_replayed,
            jobs_restaged,
            snapshot_seq: watermark,
            wal_dropped_bytes: scan.dropped_bytes,
            wal_corrupt: scan.corrupt,
        };
        publish_recovery_gauges(&stats);
        g.recovery = Some(stats);
        Ok(g)
    }

    /// What recovery did when this kernel opened; `None` for in-memory
    /// and snapshot-loaded kernels.
    pub fn recovery_stats(&self) -> Option<&RecoveryStats> {
        self.recovery.as_ref()
    }

    /// Apply a built event to the store and catalog, then log that same
    /// event — a committed statement's whole write path.
    pub(crate) fn commit_event(&mut self, event: Event) -> KernelResult<()> {
        apply(&mut self.db, &mut self.catalog, &event)?;
        self.wal_append(event)
    }

    /// Append one event (no-op for non-durable kernels), snapshotting
    /// when the cadence says so.
    pub(crate) fn wal_append(&mut self, event: Event) -> KernelResult<()> {
        let next_oid = self.db.next_oid();
        let Some(d) = self.durability.as_mut() else {
            return Ok(());
        };
        d.seq += 1;
        let logged = LoggedEvent {
            seq: d.seq,
            next_oid,
            bumps: Vec::new(),
            event,
        };
        let payload = super::wal_codec::encode_logged(&logged)?;
        d.wal.append(&payload).map_err(io_err)?;
        d.since_snapshot += 1;
        // A finished background fold hands its prefix truncation back to
        // this (the committing) thread before the cadence check, so a due
        // snapshot never queues behind a completed one.
        self.poll_compaction()?;
        let d = self.durability.as_ref().expect("checked above");
        let every = d.options.snapshot_every;
        if every > 0 && d.since_snapshot >= every {
            self.begin_compaction(false)?;
        }
        Ok(())
    }

    /// Log a task-commit record the executor just applied — the record
    /// itself, nothing reconstructed — and answer with its run. A failed
    /// or compensated commit produces no record, so it logs nothing.
    pub(crate) fn log_commit(&mut self, commit: TaskCommit) -> KernelResult<TaskRun> {
        let run = commit.run();
        self.wal_append(Event::TaskCommit(commit))?;
        Ok(run)
    }

    /// Serialize the sidecar state every snapshot needs: the catalog and
    /// the unresolved job submissions.
    fn snapshot_sidecars(&self) -> KernelResult<(String, String)> {
        let catalog_json = serde_json::to_string(&self.catalog).map_err(codec_err)?;
        let jobs: Vec<JournaledJob> = self
            .jobs
            .unresolved_submissions()
            .into_iter()
            .map(|(job, process, bindings)| JournaledJob {
                job,
                process,
                bindings,
            })
            .collect();
        let jobs_json = serde_json::to_string(&jobs).map_err(codec_err)?;
        Ok((catalog_json, jobs_json))
    }

    /// The truncation watermark moved: recovery-era stats that kept
    /// reporting the *open-time* snapshot would be stale from here on,
    /// so refresh the durable-state view (and its gauges) in place. The
    /// torn-tail fields describe a log segment the truncation just
    /// retired, so they reset alongside the watermark.
    fn refresh_watermark_stats(&mut self, snap_seq: u64) {
        let stats = self.recovery.get_or_insert_with(RecoveryStats::default);
        stats.snapshot_seq = snap_seq;
        stats.wal_dropped_bytes = 0;
        stats.wal_corrupt = false;
        publish_recovery_gauges(stats);
    }

    /// Fold the log into a snapshot now and wait for it: settle any fold
    /// already in flight, then run the cadence fold to completion and
    /// finish it. Nothing is appended in between, so the clip empties the
    /// log. Unlike a cadence fold, a failed one is returned as the error,
    /// and the log is retained to replay in full. No-op for non-durable
    /// kernels.
    pub fn checkpoint(&mut self) -> KernelResult<()> {
        self.finish_compaction(false)?;
        self.begin_compaction(true)?;
        self.finish_compaction(true)
    }

    /// Start folding the log into a snapshot. The committing thread pays
    /// a state clone; the write puts the snapshot in a `snap-<seq>.tmp`
    /// side directory, renames it into place and flips `CURRENT`, on a
    /// background compactor thread unless the caller will `wait` for it
    /// (see [`FoldWrite`]). The log is *not* touched here —
    /// [`Gaea::poll_compaction`] (or [`Gaea::checkpoint`]) truncates the
    /// covered prefix once the fold is observed complete. No-op while a
    /// fold is already running: a cadence point never blocks on the
    /// previous fold.
    fn begin_compaction(&mut self, wait: bool) -> KernelResult<()> {
        let Some(d) = self.durability.as_ref() else {
            return Ok(());
        };
        if d.inflight.is_some() {
            return Ok(());
        }
        let (catalog_json, jobs_json) = self.snapshot_sidecars()?;
        let d = self.durability.as_mut().expect("checked above");
        // Everything the snapshot will claim must be durable before the
        // pointer can flip to it.
        d.wal.sync().map_err(io_err)?;
        let seq = d.seq;
        let covered = d.wal.log_len();
        let capture = gaea_store::snapshot::capture_with_wal_seq(&self.db, seq);
        let d = self.durability.as_mut().expect("checked above");
        let dir = d.dir.clone();
        let switch = d.wal.crash_switch();
        let started = Instant::now();
        let run = move || write_snapshot(&dir, seq, &capture, &catalog_json, &jobs_json, switch);
        let write = if wait {
            FoldWrite::Done(run())
        } else {
            let spawned = std::thread::Builder::new()
                .name("gaea-compactor".into())
                .spawn(run);
            FoldWrite::Compactor(spawned.map_err(io_err)?)
        };
        d.inflight = Some(InflightCompaction {
            write,
            seq,
            covered,
            started,
        });
        d.since_snapshot = 0;
        Ok(())
    }

    /// Finish a *completed* background fold, if any: truncate the log
    /// prefix its snapshot covers and retire superseded snapshots.
    /// Returns immediately (without blocking) while the fold is still
    /// running — safe to call from any commit or idle point; the session
    /// layer calls it after every statement.
    pub fn poll_compaction(&mut self) -> KernelResult<()> {
        let finished = self
            .durability
            .as_ref()
            .and_then(|d| d.inflight.as_ref())
            .is_some_and(|i| match &i.write {
                FoldWrite::Compactor(handle) => handle.is_finished(),
                FoldWrite::Done(_) => true,
            });
        if finished {
            self.finish_compaction(false)?;
        }
        Ok(())
    }

    /// Join the in-flight fold, if any (blocking if needed), and complete
    /// it on this thread: prefix truncation, snapshot GC, watermark
    /// refresh. This is also the settling barrier before a checkpoint, a
    /// flush, or shutdown (which makes armed snapshot-side crash points
    /// deterministic: the abort fires before a clean exit). A failed
    /// fold retains the log. With `report` (the checkpoint that waits on
    /// it) the failure is the error; otherwise it is counted in
    /// `wal_compactions_failed` and absorbed — the log keeps growing
    /// until the next cadence point or an explicit checkpoint.
    fn finish_compaction(&mut self, report: bool) -> KernelResult<()> {
        let Some(d) = self.durability.as_mut() else {
            return Ok(());
        };
        let Some(inflight) = d.inflight.take() else {
            return Ok(());
        };
        let InflightCompaction {
            write,
            seq,
            covered,
            started,
        } = inflight;
        let result = match write {
            FoldWrite::Compactor(handle) => handle
                .join()
                .unwrap_or_else(|_| Err("compactor thread panicked".into())),
            FoldWrite::Done(result) => result,
        };
        let m = gaea_obs::metrics();
        if let Err(e) = result {
            if report {
                return Err(io_err(e));
            }
            m.wal_compactions_failed.inc();
            eprintln!(
                "gaea: background log compaction (snap-{seq}) failed: {e}; \
                 log retained, checkpoint() remains available"
            );
            return Ok(());
        }
        // The snapshot is authoritative; the log still holds the covered
        // prefix plus everything committed while the fold ran (nothing,
        // for a checkpoint). Drop exactly the prefix. The `truncate` point
        // names the same boundary (snapshot durable, log not yet
        // clipped), so it fires here too.
        d.wal.crash_point(CrashPoint::PostFlipPreTruncate);
        d.wal.crash_point(CrashPoint::Truncate);
        d.wal.truncate_prefix(covered).map_err(io_err)?;
        m.wal_compactions.inc();
        m.wal_compaction_us
            .record(started.elapsed().as_micros() as u64);
        gc_snapshots(&d.dir, seq);
        self.refresh_watermark_stats(seq);
        Ok(())
    }

    /// Fsync the log — the clean-shutdown tail, also called by `Drop`.
    /// Settles any in-flight background fold first.
    pub fn flush_wal(&mut self) -> KernelResult<()> {
        self.finish_compaction(false)?;
        match self.durability.as_mut() {
            Some(d) => d.wal.sync().map_err(io_err),
            None => Ok(()),
        }
    }
}

/// Write one complete snapshot — store manifest (from a pre-cloned
/// [`Capture`]), catalog, unresolved jobs — into `snap-<seq>.tmp`,
/// rename it to `snap-<seq>`, and flip `CURRENT` to it. Runs where the
/// fold's [`FoldWrite`] says; the crash switch fires the snapshot-side
/// fault-injection points in whichever thread that is.
fn write_snapshot(
    dir: &Path,
    seq: u64,
    capture: &Capture,
    catalog_json: &str,
    jobs_json: &str,
    switch: CrashSwitch,
) -> Result<(), String> {
    let io = |e: &dyn std::fmt::Display| format!("snapshot write: {e}");
    let snap_name = format!("snap-{seq}");
    let tmp = dir.join(format!("{snap_name}.tmp"));
    let _ = fs::remove_dir_all(&tmp);
    gaea_store::snapshot::write_capture(capture, &tmp).map_err(|e| io(&e))?;
    // Fault-injection boundary: the side directory holds the manifest
    // but not yet the sidecars — recovery must ignore it wholesale.
    switch.fire_if_armed(CrashPoint::SnapshotWrite, seq);
    fs::write(tmp.join("catalog.json"), catalog_json).map_err(|e| io(&e))?;
    fs::write(tmp.join("jobs.json"), jobs_json).map_err(|e| io(&e))?;
    let fin = dir.join(&snap_name);
    let _ = fs::remove_dir_all(&fin);
    fs::rename(&tmp, &fin).map_err(|e| io(&e))?;
    // Fault-injection boundary: the snapshot directory is complete but
    // `CURRENT` still names the old one.
    switch.fire_if_armed(CrashPoint::ManifestFlip, seq);
    let cur_tmp = dir.join("CURRENT.tmp");
    fs::write(&cur_tmp, &snap_name).map_err(|e| io(&e))?;
    fs::rename(&cur_tmp, dir.join("CURRENT")).map_err(|e| io(&e))?;
    Ok(())
}

/// Remove snapshot directories superseded once `CURRENT` names
/// `snap-<keep_seq>` (and any stale `snap-*.tmp` side directories).
fn gc_snapshots(dir: &Path, keep_seq: u64) {
    let keep = format!("snap-{keep_seq}");
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("snap-") && name != keep {
                let _ = fs::remove_dir_all(entry.path());
            }
        }
    }
}

/// Open-time sweep: delete every snapshot artifact `CURRENT` does not
/// name — half-written `snap-*.tmp` side directories, an unrenamed
/// `CURRENT.tmp`, and complete-but-never-flipped `snap-*` directories
/// left by a crash inside a fold.
///
/// Only a *missing* `CURRENT` means "no authoritative snapshot". Any
/// other read failure (permissions, I/O error) is transient doubt —
/// sweeping then could delete the snapshot the pointer still names, so
/// the sweep skips entirely and lets open surface the real error when
/// it reads `CURRENT` itself.
fn sweep_stale_snapshots(dir: &Path) {
    let current = match fs::read_to_string(dir.join("CURRENT")) {
        Ok(s) => s.trim().to_string(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(_) => return,
    };
    let _ = fs::remove_file(dir.join("CURRENT.tmp"));
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("snap-") && name != current {
                let _ = fs::remove_dir_all(entry.path());
            }
        }
    }
}

impl Gaea {
    /// Consume the kernel with a **checked** clean shutdown: fsync the
    /// log, surfacing any error.
    ///
    /// `Drop` performs the same flush best-effort (an error there has no
    /// one to report to); operator-facing shutdown paths — the server's
    /// graceful stop in particular — must use `close` instead so an
    /// fsync failure reaches the operator and the process can exit
    /// nonzero rather than silently discarding the durable tail.
    pub fn close(mut self) -> KernelResult<()> {
        self.flush_wal()
        // Drop re-flushes; with the log synced that is a no-op sync.
    }
}

impl Drop for Gaea {
    fn drop(&mut self) {
        // Best-effort clean-shutdown flush; a crash skips this and
        // recovery still lands on the last logged event.
        let _ = self.flush_wal();
    }
}
