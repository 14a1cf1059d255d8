//! The session-safe kernel facade: one serialized commit path, many
//! non-blocking snapshot readers.
//!
//! A [`SharedKernel`] wraps one [`Gaea`] for concurrent use by server
//! sessions (or any multi-threaded embedder):
//!
//! * **Writes** go through [`SharedKernel::exec`], which serializes them
//!   on the kernel mutex — the same single commit path the WAL and the
//!   job pump already assume.
//! * **Reads** go through [`SharedKernel::pin`], which hands back an
//!   `Arc<ReadView>` of a committed state. The fast path is a counter
//!   comparison plus an `Arc` clone under a short view lock — readers
//!   never wait for the kernel mutex, so they never block behind a
//!   commit in progress or behind each other.
//!
//! Freshness protocol: each `exec` epilogue publishes a new view when
//! an event was applied since the cached view and a reader has asked
//! for one (a reader that sees a stale cached view sets
//! `refresh_wanted` and is served the cached — still fully consistent —
//! state). Staleness is keyed on the catalog's applied-event count, not
//! the store's version clock: DDL and access-path events tick no clock,
//! yet a view without a just-defined class is stale. Publication
//! happens on the writer's thread under the kernel lock, so a published
//! view is always a committed prefix: readers get snapshot isolation,
//! and an idle kernel publishes nothing. A publish builds from the
//! cached view ([`Gaea::read_view_since`]): it copies only the relations
//! written since that view, one version map and the catalog's maps
//! (tasks by pointer), and shares the cached view's copy of every other
//! relation. It never shares the live relations, so the next write
//! stays copy-free.
//!
//! Panic policy mirrors the repo's poison-absorbing locks: a statement
//! that panics inside `exec` is caught, the locks are released clean
//! (never poisoned), and the panic is rethrown to the calling session —
//! one session's crash must not wedge every other session.

use super::readonly::ReadView;
use super::Gaea;
use crate::error::KernelResult;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Thread-shareable facade over one [`Gaea`]: serialized mutators,
/// snapshot-pinned readers. See the module docs for the protocol.
pub struct SharedKernel {
    kernel: Mutex<Gaea>,
    /// The most recently published view (always a committed prefix).
    view: Mutex<Arc<ReadView>>,
    /// Applied-event count as of the last `exec`/publish — readers
    /// compare without touching the kernel mutex.
    applied: AtomicU64,
    /// A reader observed the cached view lagging `applied`; the next
    /// commit epilogue republishes.
    refresh_wanted: AtomicBool,
}

impl SharedKernel {
    /// Wrap a kernel and publish its current state as the first view.
    pub fn new(kernel: Gaea) -> Arc<SharedKernel> {
        let applied = kernel.catalog.applied_events;
        let view = Arc::new(kernel.read_view());
        Arc::new(SharedKernel {
            kernel: Mutex::new(kernel),
            view: Mutex::new(view),
            applied: AtomicU64::new(applied),
            refresh_wanted: AtomicBool::new(false),
        })
    }

    /// Run a statement on the serialized commit path. Exclusive: one
    /// `exec` at a time, exactly like single-caller `&mut Gaea` use.
    ///
    /// The epilogue publishes a fresh [`ReadView`] when an event was
    /// applied and a reader asked for one, then updates the shared count.
    /// A panic inside `f` is caught so the locks are released unpoisoned,
    /// then rethrown on this thread — and nothing is published on that
    /// path: a panicked statement may have half-applied state, and a
    /// published view must only ever be a committed prefix. The previous
    /// view and count stay in place until the next successful statement.
    pub fn exec<R>(&self, f: impl FnOnce(&mut Gaea) -> R) -> R {
        gaea_obs::metrics().kernel_execs.inc();
        let mut g = self.kernel.lock().unwrap_or_else(PoisonError::into_inner);
        let out = catch_unwind(AssertUnwindSafe(|| f(&mut g)));
        match out {
            Ok(r) => {
                // Fold a finished background log compaction back in while
                // the commit lock is already held — server sessions have
                // no other single-writer point to hand the truncation to.
                if let Err(e) = g.poll_compaction() {
                    eprintln!("gaea: deferred log compaction finish failed: {e}");
                }
                self.publish_if_wanted(&g);
                drop(g);
                r
            }
            Err(panic) => {
                drop(g);
                resume_unwind(panic)
            }
        }
    }

    /// Pin the latest published committed state. Never blocks on the
    /// kernel mutex: the served view may lag an in-flight (or just
    /// landed) commit by one publish cycle, but it is always *some*
    /// committed prefix — exactly the snapshot-isolation contract.
    pub fn pin(&self) -> Arc<ReadView> {
        gaea_obs::metrics().kernel_pins.inc();
        let view = {
            let guard = self.view.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(&guard)
        };
        if view.catalog().applied_events < self.applied.load(Ordering::Acquire) {
            // Commits landed since this view was published: ask the next
            // exec epilogue for a fresh one. If the kernel is idle right
            // now, publish immediately so the staleness window is one
            // pin, not forever.
            self.refresh_wanted.store(true, Ordering::Release);
            if let Ok(g) = self.kernel.try_lock() {
                self.publish_if_wanted(&g);
                drop(g);
                let guard = self.view.lock().unwrap_or_else(PoisonError::into_inner);
                return Arc::clone(&guard);
            }
        }
        view
    }

    /// Publish the kernel's current state when a reader asked for a
    /// fresher view (or the caller is the first to see a moved count).
    /// Called with the kernel lock held.
    fn publish_if_wanted(&self, g: &Gaea) {
        let live = g.catalog.applied_events;
        self.applied.store(live, Ordering::Release);
        let wanted = self.refresh_wanted.swap(false, Ordering::AcqRel);
        let cached = {
            let guard = self.view.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(&guard)
        };
        if cached.catalog().applied_events < live && wanted {
            let fresh = g.read_view_since(Some(&cached));
            let m = gaea_obs::metrics();
            let copied = fresh.store().relations_copied();
            let total = fresh.store().relation_names().len();
            m.kernel_publishes.inc();
            m.kernel_publish_rels_copied.add(copied as u64);
            m.kernel_publish_rels_shared.add((total - copied) as u64);
            let mut guard = self.view.lock().unwrap_or_else(PoisonError::into_inner);
            *guard = Arc::new(fresh);
        }
    }

    /// Tear the facade down with a *checked* WAL flush: unlike `Drop`'s
    /// best-effort flush, an fsync failure here surfaces to the caller
    /// so an operator-facing shutdown can exit nonzero instead of
    /// silently discarding the durable tail.
    ///
    /// Callers must hold the only remaining handle; a facade still
    /// shared returns `Err` with itself untouched.
    pub fn close(self: Arc<Self>) -> Result<KernelResult<()>, Arc<SharedKernel>> {
        let shared = Arc::try_unwrap(self)?;
        let mut kernel = shared
            .kernel
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        Ok(kernel.flush_wal())
    }
}

impl std::fmt::Debug for SharedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedKernel")
            .field("applied", &self.applied.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ClassSpec;
    use crate::query::{Query, QueryStrategy};
    use gaea_adt::Value;

    fn shared() -> Arc<SharedKernel> {
        let mut g = Gaea::in_memory();
        g.define_class(ClassSpec::base("obs").attr("v", gaea_adt::TypeTag::Int4))
            .unwrap();
        g.insert_object("obs", vec![("v", Value::Int4(1))]).unwrap();
        SharedKernel::new(g)
    }

    fn q_obs() -> Query {
        Query::class("obs").with_strategy(QueryStrategy::RetrieveOnly)
    }

    #[test]
    fn readers_see_committed_prefixes_and_catch_up() {
        let k = shared();
        let before = k.pin();
        assert_eq!(before.query(&q_obs()).unwrap().objects.len(), 1);

        k.exec(|g| g.insert_object("obs", vec![("v", Value::Int4(2))]).unwrap());
        // The pre-commit pin still answers the old state.
        assert_eq!(before.query(&q_obs()).unwrap().objects.len(), 1);
        // A new pin catches up (idle kernel: refresh happens inline).
        let after = k.pin();
        assert_eq!(after.query(&q_obs()).unwrap().objects.len(), 2);
        assert!(after.clock() > before.clock());
    }

    #[test]
    fn a_panicking_statement_neither_poisons_nor_wedges() {
        let k = shared();
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            k.exec(|_| panic!("statement blew up"));
        }));
        assert!(panicked.is_err());
        // Both paths still work.
        k.exec(|g| g.insert_object("obs", vec![("v", Value::Int4(3))]).unwrap());
        assert_eq!(k.pin().query(&q_obs()).unwrap().objects.len(), 2);
    }

    #[test]
    fn a_panic_mid_statement_never_publishes_the_partial_state() {
        let k = shared();
        let before = k.pin();
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            k.exec(|g| {
                // Half a statement lands, then the statement dies: the
                // store clock moved, but nothing committed logically.
                g.insert_object("obs", vec![("v", Value::Int4(99))])
                    .unwrap();
                panic!("mid-statement");
            });
        }));
        assert!(panicked.is_err());
        // The partial state was not published: a fresh pin still serves
        // the last committed prefix, at the same clock.
        let after = k.pin();
        assert_eq!(after.clock(), before.clock());
        assert_eq!(after.query(&q_obs()).unwrap().objects.len(), 1);
    }

    #[test]
    fn a_publish_copies_the_written_relation_and_shares_the_other() {
        let k = shared();
        k.exec(|g| {
            g.define_class(ClassSpec::base("site").attr("n", gaea_adt::TypeTag::Int4))
                .unwrap();
            g.insert_object("site", vec![("n", Value::Int4(1))])
                .unwrap()
        });
        let before = k.pin();
        assert_eq!(before.store().relation_names().len(), 2);
        k.exec(|g| g.insert_object("obs", vec![("v", Value::Int4(2))]).unwrap());
        let after = k.pin();
        assert_eq!(after.store().relations_copied(), 1);
        let rel = |view: &ReadView, class: &str| {
            let name = view.catalog().class_by_name(class).unwrap().relation_name();
            view.store().relation(&name).unwrap() as *const _
        };
        assert!(std::ptr::eq(rel(&before, "site"), rel(&after, "site")));
        assert!(!std::ptr::eq(rel(&before, "obs"), rel(&after, "obs")));
        assert_eq!(after.query(&q_obs()).unwrap().objects.len(), 2);
    }

    /// A definition ticks no store clock, yet a view without the new
    /// class is stale: the next pin must serve it.
    #[test]
    fn a_definition_alone_reaches_the_next_pin() {
        let k = shared();
        assert!(k.pin().catalog().class_by_name("site").is_err());
        k.exec(|g| {
            g.define_class(ClassSpec::base("site").attr("n", gaea_adt::TypeTag::Int4))
                .unwrap()
        });
        assert!(k.pin().catalog().class_by_name("site").is_ok());
    }

    #[test]
    fn close_is_checked_and_exclusive() {
        let k = shared();
        let extra = Arc::clone(&k);
        let back = k.close().unwrap_err();
        drop(extra);
        assert!(back.close().unwrap().is_ok());
    }

    #[test]
    fn concurrent_readers_with_a_writer_stream_stay_consistent() {
        let k = shared();
        let writer = {
            let k = Arc::clone(&k);
            std::thread::spawn(move || {
                for i in 0..50 {
                    k.exec(|g| {
                        g.insert_object("obs", vec![("v", Value::Int4(100 + i))])
                            .unwrap()
                    });
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let k = Arc::clone(&k);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let view = k.pin();
                        let got = view.query(&q_obs()).unwrap();
                        // Every answer is one committed prefix: the pinned
                        // clock fixes the count exactly.
                        assert!(!got.objects.is_empty() && got.objects.len() <= 51);
                        let again = view.query(&q_obs()).unwrap();
                        assert_eq!(got.objects.len(), again.objects.len());
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        let final_view = k.pin();
        assert_eq!(final_view.query(&q_obs()).unwrap().objects.len(), 51);
    }
}
