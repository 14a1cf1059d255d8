//! The K-concurrent-session driver: hammer a running `gaea-server` with
//! parallel reader sessions (optionally racing a continuous writer) and
//! report latency percentiles, throughput, and error counts.
//!
//! This is the measurement half of the multi-session tentpole: the
//! server claims snapshot-pinned reads never block behind the commit
//! path, and the driver is what checks it — run once with the writer
//! off and once with it on; reader p99 should barely move. The
//! `reader_interference` example (which bounds that move) and the CI
//! `server` job both run on this module, and the `session_driver`
//! binary exposes it on the command line.

use gaea_server::{Client, ClientError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One driver run's shape.
#[derive(Debug, Clone)]
pub struct DriveSpec {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent reader sessions.
    pub sessions: usize,
    /// Statements per reader session.
    pub reads_per_session: usize,
    /// The `RETRIEVE` statement every reader issues.
    pub query: String,
    /// Run a continuous writer session alongside the readers, inserting
    /// into `writer_class` until the readers finish.
    pub writer: bool,
    /// Class the writer inserts into (attribute `v = int4`).
    pub writer_class: String,
}

impl Default for DriveSpec {
    fn default() -> DriveSpec {
        DriveSpec {
            addr: "127.0.0.1:7878".into(),
            sessions: 16,
            reads_per_session: 50,
            query: "RETRIEVE * FROM obs".into(),
            writer: false,
            writer_class: "obs".into(),
        }
    }
}

/// What a driver run measured.
#[derive(Debug, Clone)]
pub struct DriveReport {
    /// Reader sessions that ran.
    pub sessions: usize,
    /// Successful reads across all sessions.
    pub reads: u64,
    /// Failed statements (kernel or transport) across all sessions.
    pub errors: u64,
    /// Writer commits completed while the readers ran (0 with the
    /// writer off).
    pub writes: u64,
    /// Median read latency.
    pub p50: Duration,
    /// 99th-percentile read latency.
    pub p99: Duration,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
}

impl DriveReport {
    /// Reads per second over the run.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.reads as f64 / secs
        } else {
            0.0
        }
    }

    /// The report as one JSON object (the driver binary's output).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sessions\":{},\"reads\":{},\"errors\":{},\"writes\":{},\
             \"p50_us\":{},\"p99_us\":{},\"elapsed_ms\":{},\"reads_per_sec\":{:.1}}}",
            self.sessions,
            self.reads,
            self.errors,
            self.writes,
            self.p50.as_micros(),
            self.p99.as_micros(),
            self.elapsed.as_millis(),
            self.throughput(),
        )
    }
}

/// Percentile over a sorted slice (nearest-rank).
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Run the driver against a live server. Connects `spec.sessions`
/// reader sessions (plus one writer when asked), runs them all
/// concurrently, and aggregates.
pub fn drive(spec: &DriveSpec) -> DriveReport {
    let errors = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));
    let stop_writer = Arc::new(AtomicBool::new(false));
    let started = Instant::now();

    let writer_handle = if spec.writer {
        let addr = spec.addr.clone();
        let class = spec.writer_class.clone();
        let stop = Arc::clone(&stop_writer);
        let writes = Arc::clone(&writes);
        let errors = Arc::clone(&errors);
        Some(std::thread::spawn(move || {
            let mut c = match Client::connect(&addr, "driver-writer") {
                Ok(c) => c,
                Err(_) => {
                    errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            };
            // One insert, then a continuous update stream against it:
            // every iteration is a full serialized commit (version bump,
            // WAL record, invalidation sweep) but the store — and with
            // it the readers' scan and snapshot-copy cost — stays a
            // constant size, so the interference measured is the commit
            // path itself, not an ever-growing table.
            let target = match c.insert(&class, vec![("v".into(), gaea_adt::Value::Int4(0))]) {
                Ok(oid) => {
                    writes.fetch_add(1, Ordering::Relaxed);
                    oid
                }
                Err(_) => {
                    errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            };
            let mut v: i32 = 1;
            while !stop.load(Ordering::Acquire) {
                match c.update(target, vec![("v".into(), gaea_adt::Value::Int4(v))]) {
                    Ok(()) => {
                        writes.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(ClientError::Server(_)) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                v = v.wrapping_add(1);
            }
            let _ = c.goodbye();
        }))
    } else {
        None
    };

    let readers: Vec<_> = (0..spec.sessions)
        .map(|i| {
            let addr = spec.addr.clone();
            let query = spec.query.clone();
            let n = spec.reads_per_session;
            let errors = Arc::clone(&errors);
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(n);
                let mut c = match Client::connect(&addr, &format!("driver-reader-{i}")) {
                    Ok(c) => c,
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return latencies;
                    }
                };
                for _ in 0..n {
                    let t0 = Instant::now();
                    match c.retrieve(&query) {
                        Ok(_) => latencies.push(t0.elapsed()),
                        Err(ClientError::Server(_)) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            return latencies;
                        }
                    }
                }
                let _ = c.goodbye();
                latencies
            })
        })
        .collect();

    let mut all: Vec<Duration> = Vec::new();
    for r in readers {
        all.extend(r.join().unwrap_or_default());
    }
    stop_writer.store(true, Ordering::Release);
    if let Some(w) = writer_handle {
        let _ = w.join();
    }

    all.sort_unstable();
    DriveReport {
        sessions: spec.sessions,
        reads: all.len() as u64,
        errors: errors.load(Ordering::Relaxed),
        writes: writes.load(Ordering::Relaxed),
        p50: percentile(&all, 50.0),
        p99: percentile(&all, 99.0),
        elapsed: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(percentile(&sorted, 50.0), Duration::from_micros(50));
        assert_eq!(percentile(&sorted, 99.0), Duration::from_micros(99));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
        let one = [Duration::from_micros(7)];
        assert_eq!(percentile(&one, 99.0), Duration::from_micros(7));
    }

    #[test]
    fn report_json_is_well_formed() {
        let r = DriveReport {
            sessions: 4,
            reads: 100,
            errors: 0,
            writes: 12,
            p50: Duration::from_micros(250),
            p99: Duration::from_micros(900),
            elapsed: Duration::from_millis(50),
        };
        let json = r.to_json();
        assert!(json.contains("\"sessions\":4"));
        assert!(json.contains("\"p99_us\":900"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
