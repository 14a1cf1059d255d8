//! The Gaea statement-round-trip benchmark. See `perf/README.md`.
//!
//! ```text
//! gaea_perf --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! gaea_perf --seed <u64> [--traced] [--quick]     # all four workloads
//! ```
//!
//! One process runs one workload (so `peak_rss_mb` and the metrics
//! registry are the workload's own); with no `--workload` the binary
//! re-runs itself once per workload. The last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed`, `metrics`.

mod db;
mod gen;
#[cfg(test)]
mod oracle_tests;
mod probes;
mod run;
mod spans;
mod stats;
mod trace;

use run::{DataDir, Plan, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Rounds per run. Each round seeds a fresh database, so a run times
/// set-up this many times (and reports the median) and pools the
/// latency samples of this many independent timed phases.
const ROUNDS: usize = 3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: gaea_perf [--workload {}] [--seed <u64>] [--seconds <1..=60>] \
         [--trace <0|1> | --traced] [--quick]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 12,
        trace: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?,
                );
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed: {e}\n{}", usage()))?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("--seconds takes 1..=60\n{}", usage()))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.trace = true,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// `perf/target/`: every file the benchmark writes lives under it.
fn scratch_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One line naming the machine. The fsync and read latencies in every
/// number below are this sandbox's, not a storage device's.
fn machine_line(data_root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    // The mount with the longest mount point that prefixes the data root.
    let fs = std::fs::read_to_string("/proc/self/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, at, fstype) = (f.next()?, f.next()?, f.next()?);
            data_root
                .starts_with(at)
                .then(|| (at.len(), fstype.to_string()))
        })
        .max()
        .map_or("unknown".to_string(), |(_, t)| t);
    format!(
        "machine: nproc={nproc} kernel={} data-fs={fs} (fsync and read latencies are this \
         sandbox's, not a device's)",
        kernel.trim()
    )
}

fn json_result(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // Every digit as measured; a non-finite value would not be JSON.
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Run one workload in this process.
fn run_workload(workload: Workload, args: &Args) -> Result<bool, String> {
    let root = scratch_root();
    std::fs::create_dir_all(&root).map_err(|e| format!("create {root:?}: {e}"))?;
    println!("{}", machine_line(&root));
    let rounds = if args.quick || args.trace { 1 } else { ROUNDS };
    let n = workload.round_len(args.seconds, ROUNDS, args.quick);
    println!(
        "workload {} seed {} seconds {}: {rounds} round(s) of {n} timed statements, \
         {} warm-up, trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        workload.warmup(),
        args.trace as u8
    );
    let run_dir = DataDir::create(&root, &format!("run-{}", std::process::id()))
        .map_err(|e| format!("create run directory: {e}"))?;

    if args.trace {
        let plan = Plan::new(workload, args.seed, n);
        let traced = trace::run(workload, &plan, &run_dir.0, &root)?;
        for (name, value, unit) in &traced.metrics {
            println!("  {name:<44} {value:>16.4} {unit}");
        }
        for p in &traced.problems {
            println!("  FAILED: {p}");
        }
        let correct = traced.failed == 0;
        println!(
            "{}",
            json_result(
                correct,
                traced.attempted.max(1),
                traced.failed,
                &traced.metrics
            )
        );
        return Ok(correct);
    }

    let mut done = Vec::with_capacity(rounds);
    for r in 0..rounds {
        // Each round draws its own keys from the seed.
        let plan = Plan::new(
            workload,
            args.seed.wrapping_mul(ROUNDS as u64) + r as u64,
            n,
        );
        let dir = run_dir.0.join(format!("round-{r}"));
        done.push(run::round(&plan, &dir, false)?);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let e = run::end_to_end(workload, &done, peak_rss_mb());
    let correct = e.failed == 0;
    for p in e.problems.iter().take(10) {
        println!("  FAILED: {p}");
    }
    if args.quick {
        // Correctness only: a twentieth of a stream times nothing.
        println!(
            "  quick: {} statements attempted, {} failed",
            e.attempted, e.failed
        );
        println!(
            "{}",
            json_result(correct, e.attempted.max(1), e.failed, &[])
        );
        return Ok(correct);
    }
    for (name, value, unit, samples) in &e.metrics {
        let mut note = String::new();
        if *name == "primary_tail_us" {
            let pct = workload.tail_pct();
            note = format!(
                ", p{pct}, {} samples beyond it{}",
                stats::samples_beyond(*samples, pct),
                if stats::supported(*samples, pct) {
                    ""
                } else {
                    ": fewer than ten, UNSUPPORTED"
                }
            );
        }
        println!("  {name:<20} {value:>16.4} {unit:<4} (n={samples}{note})");
    }
    println!(
        "  failed_frac          {:>16.6} ratio ({} of {})",
        e.failed as f64 / e.attempted.max(1) as f64,
        e.failed,
        e.attempted
    );
    let metrics: Vec<(String, f64, String)> = e
        .metrics
        .iter()
        .map(|(n, v, u, _)| (n.to_string(), *v, u.to_string()))
        .collect();
    println!(
        "{}",
        json_result(correct, e.attempted.max(1), e.failed, &metrics)
    );
    Ok(correct)
}

/// No `--workload`: one child process per workload, same binary, same
/// flags. Prints each child's report and, last, one JSON object keyed
/// by workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut results = Vec::new();
    for w in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("run {}: {e}", w.name()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        all_correct &= out.status.success();
        let last = text.lines().last().unwrap_or("null");
        let last = if last.starts_with('{') { last } else { "null" };
        results.push(format!("\"{}\": {last}", w.name()));
    }
    println!("{{{}}}", results.join(", "));
    Ok(all_correct)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("gaea_perf: refusing to measure a debug build; use `cargo run --release`");
        return ExitCode::from(2);
    }
    // The program reads GAEA_* (worker counts, crash injection) at
    // start-up; the benchmark measures its defaults.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GAEA_") {
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(w) => run_workload(w, &args),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gaea_perf: {e}");
            ExitCode::from(1)
        }
    }
}
