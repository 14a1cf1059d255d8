//! The worker pool: a deterministic parallel `map` over scoped threads.
//!
//! [`Scheduler::map`] is the only execution primitive the kernel needs:
//! one wave of independent work items goes in, results come out **in
//! input order**. Workers are `std::thread::scope` threads, so the
//! mapped closure may borrow from the caller's stack — the kernel
//! shares `&Database` / `&Catalog` / `&OperatorRegistry` without any
//! `Arc` plumbing. Work is handed out through a shared cursor, so a
//! slow item never blocks the distribution of the rest.
//!
//! With `workers <= 1` (the default) `map` is a plain sequential loop
//! over the items in order — no threads, no locks — which is what makes
//! the kernel's single-threaded mode bit-for-bit identical to an
//! unscheduled executor.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parse a worker-count specification (the value of
/// `GAEA_SCHED_WORKERS`): a positive integer, surrounding whitespace
/// allowed. Zero, negatives and non-numbers are errors — worker counts
/// opt *into* parallelism, so there is no meaningful zero.
pub fn parse_workers(spec: &str) -> Result<usize, String> {
    let trimmed = spec.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err("worker count must be a positive integer, got 0".into()),
        Ok(n) => Ok(n),
        Err(e) => Err(format!(
            "worker count must be a positive integer, got {trimmed:?} ({e})"
        )),
    }
}

/// A fixed-size worker pool. Cheap to construct (threads are scoped per
/// [`Scheduler::map`] call, not kept alive), cheap to copy around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduler {
    workers: usize,
}

impl Default for Scheduler {
    /// The deterministic single-threaded scheduler.
    fn default() -> Scheduler {
        Scheduler::sequential()
    }
}

impl Scheduler {
    /// A scheduler with `workers` threads per wave (clamped to ≥ 1).
    pub fn new(workers: usize) -> Scheduler {
        Scheduler {
            workers: workers.max(1),
        }
    }

    /// The single-threaded scheduler: every `map` is an in-order loop.
    pub fn sequential() -> Scheduler {
        Scheduler { workers: 1 }
    }

    /// Worker count from the `GAEA_SCHED_WORKERS` environment variable,
    /// defaulting to the sequential scheduler when unset — and when the
    /// value is malformed: misconfiguration must never change behaviour,
    /// only a valid positive count opts into parallelism. A malformed
    /// value is no longer swallowed silently, though — the parse error is
    /// reported on stderr so a typo'd deployment does not quietly run
    /// single-threaded forever.
    pub fn from_env() -> Scheduler {
        let var = crate::WORKERS_ENV;
        let workers = match std::env::var(var) {
            Ok(v) => parse_workers(&v).unwrap_or_else(|e| {
                eprintln!("gaea-sched: ignoring {var}={v:?}: {e}; defaulting to 1 wave worker");
                1
            }),
            Err(_) => 1,
        };
        Scheduler::new(workers)
    }

    /// Number of workers a `map` call may use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// True when `map` runs inline on the calling thread.
    pub fn is_sequential(&self) -> bool {
        self.workers == 1
    }

    /// Apply `f` to every item, returning results in input order.
    ///
    /// `f` receives the item's input index alongside the item, so
    /// callers can correlate results with external per-item state
    /// without smuggling it through the item type. With more than one
    /// worker the items execute concurrently on scoped threads (at most
    /// `min(workers, items.len())` of them); panics in `f` propagate to
    /// the caller. Items must be mutually independent — `map` gives no
    /// ordering guarantee *during* execution, only for the returned
    /// vector.
    pub fn map<I, R, F>(&self, items: Vec<I>, f: F) -> Vec<R>
    where
        I: Send,
        R: Send,
        F: Fn(usize, I) -> R + Sync,
    {
        let m = gaea_obs::metrics();
        m.sched_workers.set(self.workers as u64);
        if self.workers <= 1 || items.len() <= 1 {
            m.sched_serial_maps.inc();
            return items
                .into_iter()
                .enumerate()
                .map(|(i, x)| f(i, x))
                .collect();
        }
        let n = items.len();
        let threads = self.workers.min(n);
        m.sched_parallel_maps.inc();
        m.sched_wave_width.record(n as u64);
        // Hand items out through a cursor over pre-parked slots: workers
        // claim the next index, take the item, and deposit the result in
        // the slot of the same index — input order survives any finish
        // order.
        let work: Vec<Mutex<Option<I>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                handles.push(s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("work slot poisoned")
                        .take()
                        .expect("each slot is claimed exactly once");
                    let r = f(i, item);
                    *results[i].lock().expect("result slot poisoned") = Some(r);
                }));
            }
            for h in handles {
                if let Err(panic) = h.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every slot was filled")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_map_preserves_order() {
        let s = Scheduler::sequential();
        let out = s.map(vec![1, 2, 3], |i, x| (i, x * 10));
        assert_eq!(out, vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let s = Scheduler::new(4);
        let items: Vec<usize> = (0..100).collect();
        let out = s.map(items, |i, x| {
            // Stagger finish order: later items finish earlier.
            std::thread::sleep(std::time::Duration::from_micros((100 - x as u64) * 5));
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_sequential() {
        let items: Vec<u64> = (0..64).collect();
        let f = |_: usize, x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let seq = Scheduler::sequential().map(items.clone(), f);
        let par = Scheduler::new(8).map(items, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn map_borrows_from_the_callers_stack() {
        // Scoped threads: the closure reads a stack-local slice.
        let base: Vec<u64> = (0..32).map(|i| i * i).collect();
        let s = Scheduler::new(3);
        let out = s.map((0..32).collect::<Vec<usize>>(), |_, i| base[i] + 1);
        assert_eq!(out[5], 26);
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn worker_count_is_clamped_and_reported() {
        assert_eq!(Scheduler::new(0).workers(), 1);
        assert!(Scheduler::new(0).is_sequential());
        assert_eq!(Scheduler::new(8).workers(), 8);
        assert!(!Scheduler::new(2).is_sequential());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let s = Scheduler::new(4);
        assert_eq!(s.map(Vec::<u8>::new(), |_, x| x), Vec::<u8>::new());
        assert_eq!(s.map(vec![7u8], |i, x| x + i as u8), vec![7]);
    }

    #[test]
    fn worker_specs_parse_or_explain() {
        assert_eq!(parse_workers("4"), Ok(4));
        assert_eq!(parse_workers(" 2 "), Ok(2), "whitespace tolerated");
        // The satellite cases: every malformed spec yields a diagnostic
        // instead of a silent fallback (from_env still falls back — but
        // loudly).
        for bad in ["0", "-1", "abc", "", "1.5"] {
            let err = parse_workers(bad).unwrap_err();
            assert!(
                err.contains("positive integer"),
                "spec {bad:?} must explain itself, got {err:?}"
            );
        }
        assert!(parse_workers("-1").unwrap_err().contains("-1"));
        assert!(parse_workers("abc").unwrap_err().contains("abc"));
    }

    #[test]
    fn many_more_items_than_workers() {
        let s = Scheduler::new(2);
        let out = s.map((0..1000).collect::<Vec<u32>>(), |_, x| x + 1);
        assert_eq!(out.len(), 1000);
        assert_eq!(out[999], 1000);
    }
}
