//! The Gaea kernel facade, decomposed into the paper's semantic layers.
//!
//! [`Gaea`] owns the store, the catalog and the operator registry, and
//! *delegates* everything else to one of four layer modules:
//!
//! * [`ddl`] — definition-time semantics (§2.1.2–§2.1.4): class, concept
//!   and process definition with full template validation.
//! * [`exec`] — execution semantics (§2.1.4, §4.3, §5): object CRUD,
//!   process firing, manual tasks, interactive sessions, MVCC staleness
//!   classification ([`Gaea::is_stale`]) over the store's version
//!   counters (re-derivation, [`Gaea::refresh_object`] and
//!   [`Gaea::refresh_all`], is one wave schedule in [`parallel`]), and
//!   the one derivation-identity check
//!   every automatic firing asks first (is an identical derivation
//!   current on record, or in flight?).
//! * [`query`] — the §2.1.5 three-step query mechanism: direct retrieval
//!   → temporal interpolation → planned derivation, staged as
//!   plan / bind / fire / project; step-1 answers flag stale derived
//!   objects rather than serving them silently. The stages take their
//!   parameters from the declarative [`crate::query::Query`] plan —
//!   attribute predicates, projection, `USING` process pinning,
//!   [`crate::query::CostHint`] binding order, and `FRESH` refusal of
//!   stale answers — which `gaea-lang` compiles from the paper's
//!   `RETRIEVE … FROM … WHERE …` surface syntax (the `Retrieve` extension
//!   trait there puts a `retrieve(&str)` façade on [`Gaea`]).
//! * [`provenance`] — the §2.1.1/§4.2 history services: lineage trees,
//!   experiment recording and reproduction, duplicate detection, DOT
//!   export, and version-drift reports ([`Gaea::staleness_report`]).
//! * [`jobs`] — §5 asynchronous derivation: [`Gaea::submit_derivation`]
//!   runs external-site round-trips on background workers and commits
//!   their task records when the results arrive, so interactive queries
//!   never block on a remote process; in-flight jobs are visible to the
//!   query and refresh machinery as pending derivations.
//!
//! This file holds only the struct, its constructors/accessors, and
//! catalog persistence; every behavioural method lives in its layer.

pub mod access;
pub mod ddl;
pub mod durability;
pub mod exec;
pub mod jobs;
pub mod parallel;
pub mod provenance;
pub mod query;
pub mod readonly;
pub mod session;
mod wal_codec;

#[cfg(test)]
mod tests;

pub use access::AUTO_INDEX_THRESHOLD;
pub use ddl::{ClassSpec, ProcessSpec};
pub use durability::{DurabilityOptions, RecoveryStats};
pub use jobs::{JobId, JobStatus, JobWaiter};
pub use parallel::RefreshReport;
pub use provenance::{DriftedInput, StalenessReport, TaskCurrency};
pub use readonly::{PinnedJob, ReadView};
pub use session::SharedKernel;

use crate::catalog::Catalog;
use crate::error::{KernelError, KernelResult};
use crate::external::{ExternalExecutor, ExternalRegistry};
use gaea_adt::OperatorRegistry;
use gaea_sched::Scheduler;
use std::path::Path;
use std::sync::Arc;

/// The Gaea kernel.
pub struct Gaea {
    pub(crate) db: gaea_store::Database,
    pub(crate) catalog: Catalog,
    pub(crate) registry: OperatorRegistry,
    pub(crate) externals: ExternalRegistry,
    pub(crate) user: String,
    /// The derivation scheduler: how many workers the prepare phase of
    /// every wave ([`Gaea::refresh_all`] and the query pipeline's fire
    /// stage) may use. Defaults to one worker — prepares run in order on
    /// the calling thread — unless `GAEA_SCHED_WORKERS` says otherwise;
    /// see [`Gaea::set_workers`].
    pub(crate) scheduler: Scheduler,
    /// Background derivation jobs (§5 non-blocking external firings):
    /// one record per job plus the worker table they run on. Runtime
    /// state, like registered sites — not persisted. See
    /// [`Gaea::submit_derivation`].
    pub(crate) jobs: jobs::JobManager,
    /// Budget of alternative input bindings tried per process firing.
    pub binding_budget: usize,
    /// The write-ahead event log, when this kernel was opened durably
    /// ([`Gaea::open`]); `None` for in-memory and snapshot-loaded
    /// kernels, which pay zero logging overhead. See [`durability`].
    pub(crate) durability: Option<durability::Durability>,
    /// What recovery did when this kernel opened durably.
    pub(crate) recovery: Option<durability::RecoveryStats>,
}

fn codec_err(e: impl std::fmt::Display) -> KernelError {
    KernelError::Store(gaea_store::StoreError::Codec(e.to_string()))
}

fn io_err(e: impl std::fmt::Display) -> KernelError {
    KernelError::Store(gaea_store::StoreError::Io(e.to_string()))
}

/// Read the database and catalog of a snapshot directory — the
/// `manifest.json` + `catalog.json` pair [`Gaea::save`] writes and every
/// durable snapshot holds — with the manifest's log watermark.
fn read_snapshot(dir: &Path) -> KernelResult<(gaea_store::Database, Catalog, u64)> {
    let (db, wal_seq) = gaea_store::snapshot::load_with_wal_seq(dir)?;
    let raw = std::fs::read_to_string(dir.join("catalog.json")).map_err(io_err)?;
    let catalog = serde_json::from_str(&raw).map_err(codec_err)?;
    Ok((db, catalog, wal_seq))
}

impl Gaea {
    /// The one constructor: a kernel over `db` and `catalog` with the
    /// full operator set and default runtime state — no sites, no jobs,
    /// no log. The object → producing-task index is not persisted, so it
    /// is rebuilt here; staleness classification and lineage depend on
    /// it.
    fn from_parts(db: gaea_store::Database, mut catalog: Catalog) -> Gaea {
        catalog.rebuild_task_index();
        let mut registry = OperatorRegistry::with_builtins();
        gaea_raster::register_raster_ops(&mut registry)
            .expect("raster operator registration is internally consistent");
        Gaea {
            db,
            catalog,
            registry,
            externals: ExternalRegistry::new(),
            user: "scientist".into(),
            scheduler: Scheduler::from_env(),
            jobs: jobs::JobManager::new(),
            binding_budget: 32,
            durability: None,
            recovery: None,
        }
    }

    /// Fresh in-memory kernel with the full operator set (generic builtins
    /// + the raster analysis operators, including compound `pca`/`spca`).
    pub fn in_memory() -> Gaea {
        Gaea::from_parts(gaea_store::Database::new(), Catalog::default())
    }

    /// Register (or replace) an external execution site (§5 extension).
    /// Sites describe the *current environment*, not the catalog: they are
    /// not persisted by [`Gaea::save`] and must be re-registered after
    /// [`Gaea::load`] or [`Gaea::open`] — registering is also the moment
    /// journaled in-flight jobs recovered by [`Gaea::open`] get their
    /// site back, so they re-stage here.
    pub fn register_site(&mut self, name: &str, site: Arc<dyn ExternalExecutor>) {
        self.externals.register(name, site);
        self.restage_recovered_jobs();
    }

    /// Remove an external site registration.
    pub fn unregister_site(&mut self, name: &str) -> bool {
        self.externals.unregister(name)
    }

    /// Names of the registered external sites.
    pub fn sites(&self) -> Vec<&str> {
        self.externals.names()
    }

    /// Set the current user (tasks and experiments are attributed).
    pub fn with_user(mut self, user: &str) -> Gaea {
        self.user = user.into();
        self
    }

    /// Switch the current user in place.
    pub fn set_user(&mut self, user: &str) {
        self.user = user.into();
    }

    /// Current user.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// The operator registry (immutable view).
    pub fn registry(&self) -> &OperatorRegistry {
        &self.registry
    }

    /// The operator registry, mutable — §4.2: "users are allowed to define
    /// new primitive classes and/or new operators".
    pub fn registry_mut(&mut self) -> &mut OperatorRegistry {
        &mut self.registry
    }

    /// The catalog (read-only).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Set the derivation scheduler's worker count. Query derivations
    /// and [`Gaea::refresh_all`] fire in dependency waves of choose →
    /// prepare → commit; the worker count only decides how many firings
    /// of one wave prepare concurrently. `1` (the default, unless the
    /// `GAEA_SCHED_WORKERS` environment variable was set when the kernel
    /// was constructed) prepares them in order on the calling thread.
    /// Commits always serialize in node order, so the committed state is
    /// the same at every worker count.
    pub fn set_workers(&mut self, workers: usize) {
        self.scheduler = Scheduler::new(workers);
    }

    /// Current scheduler worker count.
    pub fn workers(&self) -> usize {
        self.scheduler.workers()
    }

    /// Save the database and catalog under `dir`.
    pub fn save(&self, dir: &Path) -> KernelResult<()> {
        gaea_store::snapshot::save(&self.db, dir)?;
        let json = serde_json::to_string(&self.catalog).map_err(codec_err)?;
        std::fs::write(dir.join("catalog.json"), json).map_err(io_err)
    }

    /// Load a kernel saved by [`Gaea::save`]. Sites and jobs are runtime
    /// state: the application re-registers its sites after a load.
    pub fn load(dir: &Path) -> KernelResult<Gaea> {
        let (db, catalog, _) = read_snapshot(dir)?;
        Ok(Gaea::from_parts(db, catalog))
    }
}
