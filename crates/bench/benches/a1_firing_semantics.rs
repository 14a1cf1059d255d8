//! Ablation A1 — the paper's modified firing rule vs classic Petri nets
//! (§2.1.6 modification 1: "tokens are not removed from input places upon
//! the firing of a transition").
//!
//! Two questions: (a) does token preservation cost anything per firing?
//! (b) what does the modification buy? Under classic semantics a base
//! scene is *consumed* by its first derivation, so a second process
//! wanting the same inputs is dead; under Gaea semantics every process
//! over the same base data stays enabled. The sweep fires every enabled
//! transition once, in both modes, and reports the wall cost; the firing
//! counts (printed once) show classic mode starving.

use gaea_bench::bench;
use gaea_petri::firing::{enabled_transitions, fire, FiringMode};
use gaea_petri::reachability::saturate;
use gaea_workload::{random_derivation_catalog, RandDagSpec};

fn spec(depth: usize) -> RandDagSpec {
    RandDagSpec {
        depth,
        width: 4,
        alternatives: 2,
        fan_in: 3,
        threshold_max: 2,
        seed: 7,
    }
}

/// Fire every enabled transition once (skipping ones a previous classic
/// firing starved); returns (fired, starved).
fn sweep(net: &gaea_petri::PetriNet, m0: &gaea_petri::Marking, mode: FiringMode) -> (u64, u64) {
    let mut m = m0.clone();
    let mut fired = 0u64;
    let mut starved = 0u64;
    for t in enabled_transitions(net, m0) {
        match fire(net, &m, t, mode) {
            Ok(next) => {
                m = next;
                fired += 1;
            }
            Err(_) => starved += 1,
        }
    }
    (fired, starved)
}

fn main() {
    // (a) per-sweep firing cost, both modes, across net depth.
    for depth in [2usize, 4, 8] {
        let rd = random_derivation_catalog(spec(depth));
        let m0 = rd.base_marking(4);
        // Report the semantic difference once per configuration.
        let (g_fired, g_starved) = sweep(&rd.net, &m0, FiringMode::GaeaPreserving);
        let (c_fired, c_starved) = sweep(&rd.net, &m0, FiringMode::Classic);
        println!(
            "depth {depth}: gaea fires {g_fired} (starved {g_starved}); \
             classic fires {c_fired} (starved {c_starved})"
        );
        bench(&format!("sweep_gaea/{depth}"), || {
            sweep(&rd.net, &m0, FiringMode::GaeaPreserving)
        });
        bench(&format!("sweep_classic/{depth}"), || {
            sweep(&rd.net, &m0, FiringMode::Classic)
        });
    }

    // (b) forward saturation (the reachability analysis §2.1.6 proposes)
    // under the preserving rule, by depth.
    for depth in [2usize, 4, 8] {
        let rd = random_derivation_catalog(spec(depth));
        let m0 = rd.base_marking(4);
        bench(&format!("saturate/{depth}"), || saturate(&rd.net, &m0, 64));
    }
}
