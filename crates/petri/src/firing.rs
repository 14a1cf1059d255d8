//! Firing rules: classic vs. the paper's token-preserving mode.

use crate::error::{PetriError, PetriResult};
use crate::marking::Marking;
use crate::net::{PetriNet, TransitionId};
use serde::{Deserialize, Serialize};

/// Which execution semantics to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FiringMode {
    /// Standard P/T semantics: firing consumes `threshold` tokens per input
    /// arc. Provided for comparison and for modelling consumable resources.
    Classic,
    /// The paper's modification 1: "tokens are not removed from input
    /// places upon the firing of a transition" — data used in a derivation
    /// remains available.
    GaeaPreserving,
}

/// True if `t` may fire under `marking` (threshold check; guards are
/// evaluated on bound objects by the kernel's binder, `choose_or_fire`
/// and `executor::check_guards` in `gaea-core`).
pub fn enabled(net: &PetriNet, marking: &Marking, t: TransitionId) -> PetriResult<bool> {
    let tr = net.transition(t)?;
    Ok(tr
        .inputs
        .iter()
        .all(|arc| marking.get(arc.place) >= arc.threshold))
}

/// Fire `t`, returning the successor marking.
pub fn fire(
    net: &PetriNet,
    marking: &Marking,
    t: TransitionId,
    mode: FiringMode,
) -> PetriResult<Marking> {
    let tr = net.transition(t)?;
    if !enabled(net, marking, t)? {
        return Err(PetriError::NotEnabled(tr.name.clone()));
    }
    let mut next = marking.clone();
    if mode == FiringMode::Classic {
        for arc in &tr.inputs {
            next.remove(arc.place, arc.threshold);
        }
    }
    for out in &tr.outputs {
        next.add(*out, 1);
    }
    Ok(next)
}

/// All transitions enabled under `marking`.
pub fn enabled_transitions(net: &PetriNet, marking: &Marking) -> Vec<TransitionId> {
    net.transition_ids()
        .filter(|t| enabled(net, marking, *t).unwrap_or(false))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::PlaceId;

    fn p20() -> (PetriNet, PlaceId, PlaceId, TransitionId) {
        let mut net = PetriNet::new();
        let tm = net.add_base_place("tm");
        let lc = net.add_place("land_cover");
        let t = net.add_transition("P20", &[(tm, 3)], &[lc]).unwrap();
        (net, tm, lc, t)
    }

    #[test]
    fn threshold_gates_enabling() {
        let (net, tm, _, t) = p20();
        let m2 = Marking::from_counts(&net, &[(tm, 2)]);
        assert!(!enabled(&net, &m2, t).unwrap());
        let m3 = Marking::from_counts(&net, &[(tm, 3)]);
        assert!(enabled(&net, &m3, t).unwrap());
        // Modified rule 2: more than the threshold also enables.
        let m7 = Marking::from_counts(&net, &[(tm, 7)]);
        assert!(enabled(&net, &m7, t).unwrap());
    }

    #[test]
    fn gaea_mode_preserves_input_tokens() {
        let (net, tm, lc, t) = p20();
        let m = Marking::from_counts(&net, &[(tm, 3)]);
        let next = fire(&net, &m, t, FiringMode::GaeaPreserving).unwrap();
        assert_eq!(next.get(tm), 3, "inputs preserved");
        assert_eq!(next.get(lc), 1, "output produced");
        // The transition remains enabled: derivations are repeatable.
        assert!(enabled(&net, &next, t).unwrap());
    }

    #[test]
    fn classic_mode_consumes() {
        let (net, tm, lc, t) = p20();
        let m = Marking::from_counts(&net, &[(tm, 3)]);
        let next = fire(&net, &m, t, FiringMode::Classic).unwrap();
        assert_eq!(next.get(tm), 0);
        assert_eq!(next.get(lc), 1);
        assert!(!enabled(&net, &next, t).unwrap());
    }

    #[test]
    fn firing_disabled_transition_errors() {
        let (net, _, _, t) = p20();
        let m = Marking::empty(&net);
        assert!(matches!(
            fire(&net, &m, t, FiringMode::GaeaPreserving),
            Err(PetriError::NotEnabled(_))
        ));
    }

    #[test]
    fn enabled_listing() {
        let (net, tm, _, t) = p20();
        assert!(enabled_transitions(&net, &Marking::empty(&net)).is_empty());
        let m = Marking::from_counts(&net, &[(tm, 5)]);
        assert_eq!(enabled_transitions(&net, &m), vec![t]);
    }
}
