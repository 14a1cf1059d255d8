//! Experiment Q2 — §2.1.6 backward-chaining planner scaling.
//!
//! Sweeps derivation-net depth, width and alternative-producer fan-in on
//! random layered DAGs. Expected shape: planning cost grows with net size
//! but stays well inside interactive budgets (µs–ms) at schema scales far
//! beyond Figure 2; failure diagnosis costs about as much as success.

use gaea_bench::bench;
use gaea_petri::backward::plan_derivation;
use gaea_petri::reachability::{derivable, saturate};
use gaea_petri::Marking;
use gaea_workload::randdag::RandomDerivation;
use gaea_workload::{random_derivation_catalog, RandDagSpec};

fn catalog(depth: usize, width: usize, alternatives: usize, seed: u64) -> RandomDerivation {
    random_derivation_catalog(RandDagSpec {
        depth,
        width,
        alternatives,
        fan_in: 3,
        threshold_max: 2,
        seed,
    })
}

/// Time planning the goal of `rd` from 8 tokens on every base place.
/// A net whose plan needs more distinct input tokens than that (see
/// `gaea_petri::backward`) is timed all the same, and its row says
/// "no plan": the seed-44 single-producer net is one.
fn bench_plan(id: &str, rd: &RandomDerivation) {
    let marking = rd.base_marking(8);
    let plan = || plan_derivation(&rd.net, &marking, rd.goal, 1);
    match plan() {
        Ok(_) => bench(id, plan),
        Err(_) => bench(&format!("{id} (no plan)"), plan),
    }
}

fn main() {
    for depth in [2usize, 4, 8, 16] {
        bench_plan(&format!("plan_by_depth/{depth}"), &catalog(depth, 4, 2, 42));
    }
    for width in [2usize, 8, 16, 32] {
        bench_plan(&format!("plan_by_width/{width}"), &catalog(4, width, 2, 43));
    }
    // Alternatives sweep (how many competing processes per class).
    for alts in [1usize, 2, 4] {
        bench_plan(
            &format!("plan_by_alternatives/{alts}"),
            &catalog(4, 4, alts, 44),
        );
    }
    // Failure diagnosis (empty database).
    let rd = catalog(8, 4, 2, 45);
    let empty = rd.base_marking(0);
    bench("diagnose_failure_depth8", || {
        plan_derivation(&rd.net, &empty, rd.goal, 1).expect_err("fails")
    });
    // Pure reachability (the decision problem without plan extraction).
    let marking = rd.base_marking(8);
    let want = Marking::from_counts(&rd.net, &[(rd.goal, 1)]);
    bench("reachability_only_depth8", || {
        derivable(&rd.net, &marking, &want)
    });
    bench("saturation_depth8", || saturate(&rd.net, &marking, 4));
}
