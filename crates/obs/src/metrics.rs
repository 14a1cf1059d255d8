//! The process-wide metrics registry: atomic counters, gauges, and
//! log-bucketed latency histograms.
//!
//! Everything here is a plain `AtomicU64` touched with `Relaxed`
//! ordering — one uncontended CAS-free add per event — so the hot paths
//! (WAL appends, derivation-reuse checks, scheduler waves, every query
//! stage) can stay instrumented unconditionally. The registry is a
//! *fixed* set of
//! named instruments rather than a string-keyed map: call sites pay a
//! field access instead of a hash lookup, and the snapshot key set is
//! stable by construction (guarded by a golden-file test upstream).
//!
//! [`MetricsRegistry::snapshot`] flattens the registry into ordered
//! `(key, u64)` pairs; histograms expand into `<name>_count`,
//! `<name>_sum`, `<name>_p50`, `<name>_p95`, `<name>_p99`. The snapshot
//! renders itself as JSON without any serde dependency so the crates
//! below the serialization layer can still export it.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-writer-wins instantaneous value (queue depths, live entry
/// counts, recovery checkpoints).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Saturating decrement: a racy double-release clamps at zero
    /// instead of wrapping to 2^64.
    #[inline]
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket
/// `i ≥ 1` holds `[2^(i-1), 2^i - 1]` — one bucket per power of two, so
/// any extracted percentile is within a factor of two of the true
/// sample (the classic log-bucket error bound).
pub const HIST_BUCKETS: usize = 65;

/// Log-bucketed histogram with nearest-rank percentile extraction.
///
/// Recording is two relaxed adds plus one relaxed add on the bucket —
/// no locks, no allocation. Percentiles are computed on demand from the
/// bucket counts; the returned value is the *upper bound* of the bucket
/// containing the nearest-rank sample, so estimates are conservative
/// and never more than 2× the true order statistic.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

/// Bucket index for a value: its bit length (0 for 0).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (the percentile representative).
pub fn bucket_ceil(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i >= 64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    pub const fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Nearest-rank percentile (`pct` in 1..=100): the upper bound of
    /// the bucket holding sample number `⌈pct·n/100⌉`. Returns 0 on an
    /// empty histogram.
    pub fn percentile(&self, pct: u32) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = (u64::from(pct) * n).div_ceil(100).clamp(1, n);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_ceil(i);
            }
        }
        bucket_ceil(HIST_BUCKETS - 1)
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// The fixed, process-wide instrument set. One static instance lives
/// behind [`metrics`](fn@crate::metrics); every layer of the system bumps
/// its own fields directly.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    // ---- query pipeline ----
    /// Finished query traces (every `Gaea::query` / `ReadView::query`).
    pub queries_total: Counter,
    /// Traces at or over the slow-query threshold (only counted when
    /// the threshold is nonzero).
    pub queries_slow: Counter,
    /// End-to-end statement latency, µs.
    pub query_us: Histogram,
    /// Per-stage wall time, µs (the same laps that feed
    /// `QueryOutcome::profile`).
    pub stage_plan_us: Histogram,
    pub stage_retrieve_us: Histogram,
    pub stage_interpolate_us: Histogram,
    pub stage_derive_us: Histogram,
    pub stage_bind_us: Histogram,
    pub stage_fire_us: Histogram,
    pub stage_project_us: Histogram,

    // ---- derivation reuse ----
    /// Automatic firings answered by a current prior derivation.
    pub cache_hits: Counter,
    /// Automatic firings no prior derivation answered.
    pub cache_misses: Counter,
    /// Recorded tasks whose full dedup key the derivation-identity check
    /// compared against a prospective firing's — one per task whose key
    /// fingerprint matched. A deterministic work count: it stays flat as
    /// the recorded history grows.
    pub derive_tasks_examined: Counter,

    // ---- write-ahead log ----
    pub wal_appends: Counter,
    pub wal_fsyncs: Counter,
    /// Records per group-commit batch (recorded at each fsync).
    pub wal_batch: Histogram,
    /// Log compactions completed (snapshot written off the commit path
    /// or by a synchronous checkpoint, pointer flipped, prefix dropped).
    pub wal_compactions: Counter,
    /// Background compactions whose snapshot write failed (the log is
    /// untouched; the cadence retries).
    pub wal_compactions_failed: Counter,
    /// Wall time of one snapshot write + pointer flip, µs — off the
    /// commit path for background compactions.
    pub wal_compaction_us: Histogram,
    /// Log bytes dropped by prefix truncation after a compaction.
    pub wal_compaction_trunc_bytes: Counter,

    // ---- derivation scheduler ----
    /// `Scheduler::map` calls that fanned out to worker threads.
    pub sched_parallel_maps: Counter,
    /// `Scheduler::map` calls that ran the in-order sequential loop.
    pub sched_serial_maps: Counter,
    /// Items per parallel map (the wave width).
    pub sched_wave_width: Histogram,
    /// Configured worker count of the most recently used scheduler.
    pub sched_workers: Gauge,

    // ---- async job pool ----
    pub jobs_submitted: Counter,
    pub jobs_completed: Counter,
    pub jobs_failed: Counter,
    pub jobs_cancelled: Counter,
    /// Jobs queued but not yet picked up by a worker.
    pub jobs_queue_depth: Gauge,

    // ---- session kernel ----
    /// Statements run on the serialized commit path (`SharedKernel::exec`).
    pub kernel_execs: Counter,
    /// Snapshot pins served to readers (`SharedKernel::pin`).
    pub kernel_pins: Counter,
    /// Read views published (`SharedKernel::publish_if_wanted`).
    pub kernel_publishes: Counter,
    /// Relations deep-copied by those publishes (written since the
    /// previous view).
    pub kernel_publish_rels_copied: Counter,
    /// Relations those publishes shared with the previous view.
    pub kernel_publish_rels_shared: Counter,

    // ---- durability / recovery (gauges refreshed at every checkpoint) ----
    pub recovery_events_replayed: Gauge,
    pub recovery_jobs_restaged: Gauge,
    pub recovery_snapshot_seq: Gauge,
    pub recovery_wal_dropped_bytes: Gauge,
    /// 1 if the last open found a corrupt WAL tail, else 0.
    pub recovery_wal_corrupt: Gauge,
}

/// A flattened, point-in-time view of the registry: ordered
/// `(key, value)` pairs with a stable key set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub entries: Vec<(&'static str, u64)>,
}

impl MetricsSnapshot {
    pub fn get(&self, key: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }

    pub fn keys(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(k, _)| *k).collect()
    }

    /// Render as a flat JSON object. Values are plain `u64`s so no
    /// escaping is ever needed; keys are compile-time identifiers.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 24);
        out.push('{');
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(k);
            out.push_str("\":");
            out.push_str(&v.to_string());
        }
        out.push('}');
        out
    }
}

impl MetricsRegistry {
    pub const fn new() -> MetricsRegistry {
        MetricsRegistry {
            queries_total: Counter::new(),
            queries_slow: Counter::new(),
            query_us: Histogram::new(),
            stage_plan_us: Histogram::new(),
            stage_retrieve_us: Histogram::new(),
            stage_interpolate_us: Histogram::new(),
            stage_derive_us: Histogram::new(),
            stage_bind_us: Histogram::new(),
            stage_fire_us: Histogram::new(),
            stage_project_us: Histogram::new(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            derive_tasks_examined: Counter::new(),
            wal_appends: Counter::new(),
            wal_fsyncs: Counter::new(),
            wal_batch: Histogram::new(),
            wal_compactions: Counter::new(),
            wal_compactions_failed: Counter::new(),
            wal_compaction_us: Histogram::new(),
            wal_compaction_trunc_bytes: Counter::new(),
            sched_parallel_maps: Counter::new(),
            sched_serial_maps: Counter::new(),
            sched_wave_width: Histogram::new(),
            sched_workers: Gauge::new(),
            jobs_submitted: Counter::new(),
            jobs_completed: Counter::new(),
            jobs_failed: Counter::new(),
            jobs_cancelled: Counter::new(),
            jobs_queue_depth: Gauge::new(),
            kernel_execs: Counter::new(),
            kernel_pins: Counter::new(),
            kernel_publishes: Counter::new(),
            kernel_publish_rels_copied: Counter::new(),
            kernel_publish_rels_shared: Counter::new(),
            recovery_events_replayed: Gauge::new(),
            recovery_jobs_restaged: Gauge::new(),
            recovery_snapshot_seq: Gauge::new(),
            recovery_wal_dropped_bytes: Gauge::new(),
            recovery_wal_corrupt: Gauge::new(),
        }
    }

    /// Flatten every instrument into `(key, value)` pairs. The key set
    /// and order are part of the crate's compatibility surface — a
    /// golden-file test upstream pins them so dashboards don't silently
    /// break.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(&'static str, u64)> = Vec::with_capacity(64);
        let mut c = |k: &'static str, v: u64| entries.push((k, v));

        c("queries_total", self.queries_total.get());
        c("queries_slow", self.queries_slow.get());
        hist(&mut entries, "query_us", &self.query_us);
        hist(&mut entries, "stage_plan_us", &self.stage_plan_us);
        hist(&mut entries, "stage_retrieve_us", &self.stage_retrieve_us);
        hist(
            &mut entries,
            "stage_interpolate_us",
            &self.stage_interpolate_us,
        );
        hist(&mut entries, "stage_derive_us", &self.stage_derive_us);
        hist(&mut entries, "stage_bind_us", &self.stage_bind_us);
        hist(&mut entries, "stage_fire_us", &self.stage_fire_us);
        hist(&mut entries, "stage_project_us", &self.stage_project_us);

        let mut c = |k: &'static str, v: u64| entries.push((k, v));
        c("cache_hits", self.cache_hits.get());
        c("cache_misses", self.cache_misses.get());
        c("derive_tasks_examined", self.derive_tasks_examined.get());

        c("wal_appends", self.wal_appends.get());
        c("wal_fsyncs", self.wal_fsyncs.get());
        hist(&mut entries, "wal_batch", &self.wal_batch);

        let mut c = |k: &'static str, v: u64| entries.push((k, v));
        c("wal_compactions", self.wal_compactions.get());
        c("wal_compactions_failed", self.wal_compactions_failed.get());
        hist(&mut entries, "wal_compaction_us", &self.wal_compaction_us);

        let mut c = |k: &'static str, v: u64| entries.push((k, v));
        c(
            "wal_compaction_trunc_bytes",
            self.wal_compaction_trunc_bytes.get(),
        );
        c("sched_parallel_maps", self.sched_parallel_maps.get());
        c("sched_serial_maps", self.sched_serial_maps.get());
        hist(&mut entries, "sched_wave_width", &self.sched_wave_width);

        let mut c = |k: &'static str, v: u64| entries.push((k, v));
        c("sched_workers", self.sched_workers.get());

        c("jobs_submitted", self.jobs_submitted.get());
        c("jobs_completed", self.jobs_completed.get());
        c("jobs_failed", self.jobs_failed.get());
        c("jobs_cancelled", self.jobs_cancelled.get());
        c("jobs_queue_depth", self.jobs_queue_depth.get());

        c("kernel_execs", self.kernel_execs.get());
        c("kernel_pins", self.kernel_pins.get());
        c("kernel_publishes", self.kernel_publishes.get());
        c(
            "kernel_publish_rels_copied",
            self.kernel_publish_rels_copied.get(),
        );
        c(
            "kernel_publish_rels_shared",
            self.kernel_publish_rels_shared.get(),
        );

        c(
            "recovery_events_replayed",
            self.recovery_events_replayed.get(),
        );
        c("recovery_jobs_restaged", self.recovery_jobs_restaged.get());
        c("recovery_snapshot_seq", self.recovery_snapshot_seq.get());
        c(
            "recovery_wal_dropped_bytes",
            self.recovery_wal_dropped_bytes.get(),
        );
        c("recovery_wal_corrupt", self.recovery_wal_corrupt.get());

        MetricsSnapshot { entries }
    }
}

/// Expand a histogram into its five snapshot keys. The `_p*` keys use
/// the bucket upper bound (≤ 2× the true order statistic).
fn hist(entries: &mut Vec<(&'static str, u64)>, name: &'static str, h: &Histogram) {
    // The five per-histogram suffixes are interned as static strings via
    // a match on the known histogram names: no leaks, no allocation.
    let keys = hist_keys(name);
    entries.push((keys[0], h.count()));
    entries.push((keys[1], h.sum()));
    entries.push((keys[2], h.percentile(50)));
    entries.push((keys[3], h.percentile(95)));
    entries.push((keys[4], h.percentile(99)));
}

/// Static `_count/_sum/_p50/_p95/_p99` key names for each histogram in
/// the registry. Adding a histogram means adding an arm here — the
/// golden-key test fails loudly if the two drift.
fn hist_keys(name: &'static str) -> [&'static str; 5] {
    match name {
        "query_us" => [
            "query_us_count",
            "query_us_sum",
            "query_us_p50",
            "query_us_p95",
            "query_us_p99",
        ],
        "stage_plan_us" => [
            "stage_plan_us_count",
            "stage_plan_us_sum",
            "stage_plan_us_p50",
            "stage_plan_us_p95",
            "stage_plan_us_p99",
        ],
        "stage_retrieve_us" => [
            "stage_retrieve_us_count",
            "stage_retrieve_us_sum",
            "stage_retrieve_us_p50",
            "stage_retrieve_us_p95",
            "stage_retrieve_us_p99",
        ],
        "stage_interpolate_us" => [
            "stage_interpolate_us_count",
            "stage_interpolate_us_sum",
            "stage_interpolate_us_p50",
            "stage_interpolate_us_p95",
            "stage_interpolate_us_p99",
        ],
        "stage_derive_us" => [
            "stage_derive_us_count",
            "stage_derive_us_sum",
            "stage_derive_us_p50",
            "stage_derive_us_p95",
            "stage_derive_us_p99",
        ],
        "stage_bind_us" => [
            "stage_bind_us_count",
            "stage_bind_us_sum",
            "stage_bind_us_p50",
            "stage_bind_us_p95",
            "stage_bind_us_p99",
        ],
        "stage_fire_us" => [
            "stage_fire_us_count",
            "stage_fire_us_sum",
            "stage_fire_us_p50",
            "stage_fire_us_p95",
            "stage_fire_us_p99",
        ],
        "stage_project_us" => [
            "stage_project_us_count",
            "stage_project_us_sum",
            "stage_project_us_p50",
            "stage_project_us_p95",
            "stage_project_us_p99",
        ],
        "wal_batch" => [
            "wal_batch_count",
            "wal_batch_sum",
            "wal_batch_p50",
            "wal_batch_p95",
            "wal_batch_p99",
        ],
        "wal_compaction_us" => [
            "wal_compaction_us_count",
            "wal_compaction_us_sum",
            "wal_compaction_us_p50",
            "wal_compaction_us_p95",
            "wal_compaction_us_p99",
        ],
        "sched_wave_width" => [
            "sched_wave_width_count",
            "sched_wave_width_sum",
            "sched_wave_width_p50",
            "sched_wave_width_p95",
            "sched_wave_width_p99",
        ],
        other => unreachable!("histogram {other} has no interned snapshot keys"),
    }
}

static GLOBAL: MetricsRegistry = MetricsRegistry::new();

/// The process-wide registry every layer instruments through.
pub fn metrics() -> &'static MetricsRegistry {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(7);
        g.sub(3);
        g.add(1);
        assert_eq!(g.get(), 5);
        g.sub(100); // saturates, never wraps
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn bucket_geometry() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_ceil(0), 0);
        assert_eq!(bucket_ceil(1), 1);
        assert_eq!(bucket_ceil(2), 3);
        assert_eq!(bucket_ceil(64), u64::MAX);
    }

    #[test]
    fn percentiles_exact_small_samples() {
        // Distinct powers of two land in distinct buckets, so the
        // nearest-rank percentile is exact (the bucket ceiling equals
        // the sample when samples are of the form 2^k - 1).
        let h = Histogram::new();
        for v in [1u64, 3, 7, 15] {
            h.record(v);
        }
        // n = 4: p50 → rank 2 → second sample; p99 → rank 4 → max.
        assert_eq!(h.percentile(50), 3);
        assert_eq!(h.percentile(99), 15);
        assert_eq!(h.percentile(100), 15);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 26);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.percentile(99), 0);
    }

    #[test]
    fn percentile_lands_in_the_oracle_bucket() {
        // Mixed magnitudes: the extracted percentile must share a bucket
        // with the sorted-vector nearest-rank oracle.
        let h = Histogram::new();
        let mut samples: Vec<u64> = vec![5, 900, 42, 7, 100_000, 6, 13, 2, 999, 64];
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        for pct in [50u32, 95, 99] {
            let rank = (u64::from(pct) * samples.len() as u64)
                .div_ceil(100)
                .clamp(1, samples.len() as u64);
            let oracle = samples[rank as usize - 1];
            let got = h.percentile(pct);
            assert_eq!(
                bucket_index(got),
                bucket_index(oracle),
                "pct {pct}: got {got}, oracle {oracle}"
            );
        }
    }

    #[test]
    fn snapshot_json_is_flat_and_parsable_shape() {
        let snap = MetricsRegistry::new().snapshot();
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(snap.get("wal_appends").is_some());
        assert!(snap.get("query_us_p99").is_some());
        assert!(snap.get("no_such_key").is_none());
        // Keys are unique.
        let mut keys = snap.keys();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n);
    }
}
