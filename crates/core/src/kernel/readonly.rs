//! Snapshot-pinned read-only query execution: the pinned driver of the
//! one query pipeline.
//!
//! A [`ReadView`] is the kernel half of an MVCC read transaction: a
//! [`gaea_store::PinnedStore`] (frozen relations + version counters)
//! paired with the catalog and the jobs in flight captured at the same
//! commit point. A `RETRIEVE` without `DERIVE`/`FRESH`/`ASYNC`
//! ([`ReadView::query`]) executes here against the pinned state holding
//! **no** kernel lock: concurrent readers never block behind a commit or
//! behind each other, and a reader's answer is always equal to some
//! committed prefix of the write history (snapshot isolation).
//!
//! [`ReadView::query`] runs the same resolve → retrieve → serve stages
//! as the live [`super::Gaea::query`] (see [`super::query`]), over the
//! pinned store and catalog, with the access paths as frozen at pin
//! time. It adds only what a view needs: mutating statements (DDL,
//! `DERIVE`, `FRESH`, `ASYNC`, updates, job submit/cancel) do not fit in
//! a view by construction, so it refuses them with
//! [`KernelError::Schema`] — the session facade
//! ([`super::session::SharedKernel`]) routes them into the serialized
//! commit path instead — and an empty step 1 is [`KernelError::NoData`].

use super::jobs::{pending_jobs_for, JobId};
use super::query as qexec;
use crate::catalog::Catalog;
use crate::error::{KernelError, KernelResult};
use crate::query::{Query, QueryOutcome, QueryStrategy};
use gaea_store::PinnedStore;
use std::sync::Arc;

/// One background job in flight at pin time, as frozen into a view.
#[derive(Debug, Clone)]
pub struct PinnedJob {
    /// The job's id.
    pub id: JobId,
    /// Name of the class the job derives into (pending-visibility filter).
    pub output_class: String,
}

/// A self-contained, immutable view of one committed kernel state:
/// store data, version counters, catalog, and the jobs in flight. Cheap to
/// share (`Arc` fields), safe to query from any thread, and pinned —
/// commits landing after the pin are invisible.
#[derive(Debug, Clone)]
pub struct ReadView {
    store: Arc<PinnedStore>,
    catalog: Arc<Catalog>,
    jobs: Arc<Vec<PinnedJob>>,
}

impl ReadView {
    pub(crate) fn new(store: PinnedStore, catalog: Catalog, jobs: Vec<PinnedJob>) -> ReadView {
        ReadView {
            store: Arc::new(store),
            catalog: Arc::new(catalog),
            jobs: Arc::new(jobs),
        }
    }

    /// The logical-clock value this view is pinned at.
    pub fn clock(&self) -> u64 {
        self.store.clock()
    }

    /// The catalog as of the pin.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The pinned store (data + counters).
    pub fn store(&self) -> &PinnedStore {
        &self.store
    }

    /// Is this query answerable on a pinned view? Read-only means plain
    /// step-1 retrieval: no derivation strategy, no `FRESH` re-firing,
    /// no async submission — each of those commits.
    pub fn is_read_only(q: &Query) -> bool {
        q.strategy == QueryStrategy::RetrieveOnly && !q.fresh && !q.async_submit
    }

    /// Execute a read-only query against the pinned state: validate,
    /// step-1 retrieve through the optimizer's access paths as frozen at
    /// pin time, flag stale hits against the pinned counters, then
    /// order/limit/project. The `pending` list is the pinned job board
    /// filtered to the target classes — consistent with the same commit
    /// point as the data.
    ///
    /// A query that is not read-only ([`ReadView::is_read_only`]) is
    /// refused with [`KernelError::Schema`]; route it through the
    /// serialized commit path instead.
    pub fn query(&self, q: &Query) -> KernelResult<QueryOutcome> {
        qexec::traced(q, || {
            if !Self::is_read_only(q) {
                return Err(KernelError::Schema(
                    "query needs the commit path (DERIVE/FRESH/ASYNC): \
                     a snapshot-pinned view only answers plain retrieval"
                        .into(),
                ));
            }
            let classes = {
                let _plan = gaea_obs::span("plan");
                qexec::resolve(&self.catalog, q)?
            };
            let retrieved = qexec::retrieve_stage(self.store.db(), &self.catalog, &classes, q)?;
            if retrieved.objects.is_empty() {
                return Err(KernelError::NoData(format!(
                    "classes {classes:?} hold no matching objects; \
                     strategy forbids computation"
                )));
            }
            let _project = gaea_obs::span("project");
            let rows = self.jobs.iter().map(|j| (j.id, j.output_class.as_str()));
            Ok(qexec::serve(retrieved, q, pending_jobs_for(&classes, rows)))
        })
    }

    /// The pinned job board: the jobs in flight at pin time.
    pub fn jobs(&self) -> &[PinnedJob] {
        &self.jobs
    }
}

impl super::Gaea {
    /// Pin a [`ReadView`] of the current committed state from scratch:
    /// [`super::Gaea::read_view_since`] with no previous view.
    pub fn read_view(&self) -> ReadView {
        self.read_view_since(None)
    }

    /// Pin a [`ReadView`] of the current committed state: the store
    /// (data + counters), the catalog, and the jobs in flight, all frozen at
    /// this instant. Taken through `&self`, so the exclusive borrow
    /// discipline guarantees the copy never observes a half-applied
    /// mutation.
    ///
    /// One call copies the relations written since `prev` was pinned
    /// (all of them without `prev`) and shares `prev`'s copy of every
    /// other one ([`gaea_store::Database::pin_since`]), plus one version
    /// map and the catalog's maps, whose tasks are held by pointer. Cache
    /// the view ([`super::session::SharedKernel`] does) and re-pin from
    /// it only after an event was applied.
    pub fn read_view_since(&self, prev: Option<&ReadView>) -> ReadView {
        let store = self.db.pin_since(prev.map(ReadView::store));
        ReadView::new(store, self.catalog.clone(), self.job_board())
    }

    /// The store's logical commit clock; advances with every mutation.
    pub fn store_clock(&self) -> u64 {
        self.db.version_clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ClassSpec, Gaea};
    use gaea_adt::Value;

    fn seeded() -> Gaea {
        let mut g = Gaea::in_memory();
        g.define_class(ClassSpec::base("obs").attr("v", gaea_adt::TypeTag::Int4))
            .unwrap();
        for i in 0..4 {
            g.insert_object("obs", vec![("v", Value::Int4(i))]).unwrap();
        }
        g
    }

    fn q_obs() -> Query {
        Query::class("obs").with_strategy(QueryStrategy::RetrieveOnly)
    }

    #[test]
    fn view_answers_pinned_state_only() {
        let mut g = seeded();
        let view = g.read_view();
        g.insert_object("obs", vec![("v", Value::Int4(99))])
            .unwrap();

        let pinned = view.query(&q_obs()).unwrap();
        assert_eq!(pinned.objects.len(), 4);
        let live = g.query(&q_obs()).unwrap();
        assert_eq!(live.objects.len(), 5);
        assert!(view.clock() < g.store_clock());
    }

    #[test]
    fn view_refuses_committing_queries() {
        let g = seeded();
        let view = g.read_view();
        let mut q = q_obs();
        q.fresh = true;
        assert!(matches!(view.query(&q), Err(KernelError::Schema(_))));
        let mut q = q_obs();
        q.strategy = QueryStrategy::PreferDerivation;
        assert!(matches!(view.query(&q), Err(KernelError::Schema(_))));
        let mut q = q_obs();
        q.async_submit = true;
        assert!(matches!(view.query(&q), Err(KernelError::Schema(_))));
    }

    #[test]
    fn view_empty_answer_is_nodata() {
        let mut g = Gaea::in_memory();
        g.define_class(ClassSpec::base("empty").attr("v", gaea_adt::TypeTag::Int4))
            .unwrap();
        let view = g.read_view();
        let q = Query::class("empty").with_strategy(QueryStrategy::RetrieveOnly);
        assert!(matches!(view.query(&q), Err(KernelError::NoData(_))));
    }
}
