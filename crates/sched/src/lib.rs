//! # gaea-sched — the derivation wave scheduler
//!
//! Gaea's §5 derivation plans are DAGs whose independent firings the
//! paper executes one at a time. This crate owns the two pieces the
//! kernel needs to execute them concurrently without knowing anything
//! about databases or templates:
//!
//! * [`DepGraph`] — an explicit dependency DAG over arbitrary payloads
//!   (in the kernel: one node per `(process, binding)` firing, one edge
//!   per output-feeds-input relationship), levelled into **waves** by
//!   [`DepGraph::waves`]: every node in wave *k* depends only on nodes
//!   in waves `< k`, so the nodes of one wave are mutually independent
//!   and may run in any order — or at the same time.
//! * [`Scheduler`] — a configurable `std::thread`-scoped worker pool
//!   whose only primitive is the deterministic [`Scheduler::map`]:
//!   results always come back in input order, whatever order the
//!   workers finished in. With one worker (the default, and what
//!   [`Scheduler::from_env`] yields unless `GAEA_SCHED_WORKERS` says
//!   otherwise) `map` degenerates to a plain in-order loop, so
//!   single-threaded mode is behaviourally identical to not having a
//!   scheduler at all.
//!
//! The kernel drives the two together in a *prepare / commit* split:
//! for each wave it `map`s a read-only prepare step over the wave's
//! firings (workers share `&Database` / `&Catalog` snapshots) and then
//! commits the results serially, in node order, before the next wave's
//! bindings are resolved. Expensive template evaluation parallelizes;
//! only the cheap store/catalog writes serialize. (Background jobs —
//! firings that wait minutes on a remote site — are the kernel's own
//! business: `gaea_core::kernel::jobs`.)

pub mod graph;
pub mod pool;

pub use graph::{CycleError, DepGraph, NodeId};
pub use pool::{parse_workers, Scheduler};

/// Environment variable consulted by [`Scheduler::from_env`]: the number
/// of workers the kernel's scheduler starts with (default 1, i.e. the
/// deterministic single-threaded mode).
pub const WORKERS_ENV: &str = "GAEA_SCHED_WORKERS";
