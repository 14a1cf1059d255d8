//! Mapping the catalog onto a derivation diagram (paper §2.1.6).
//!
//! "Every non-primitive class [...] corresponds to a place in a PN, and
//! every process corresponds to a transition."
//!
//! Only *primitive* processes become transitions: "a compound process
//! cannot be directly applied, but must be expanded into its primitive
//! processes before actual derivation takes place" (§2.1.4) — so the net,
//! which drives actual derivation, sees the expanded world.

use crate::catalog::Catalog;
use crate::ids::{ClassId, ProcessId};
use gaea_petri::{Marking, PetriNet, PlaceId, TransitionId};
use std::collections::BTreeMap;

/// A catalog-derived Petri net plus the id translation maps.
#[derive(Debug, Clone)]
pub struct DerivationNet {
    /// The structural net.
    pub net: PetriNet,
    /// Class → place.
    pub place_of: BTreeMap<ClassId, PlaceId>,
    /// Place → class.
    pub class_of: BTreeMap<usize, ClassId>,
    /// Primitive process → transition.
    pub transition_of: BTreeMap<ProcessId, TransitionId>,
    /// Transition → primitive process.
    pub process_of: BTreeMap<usize, ProcessId>,
}

impl DerivationNet {
    /// Build the full derivation diagram from the current catalog: every
    /// non-compound process becomes a transition (external, interactive and
    /// non-applicative processes *are* derivation relationships and belong
    /// in the browsable diagram).
    pub fn build(catalog: &Catalog) -> DerivationNet {
        DerivationNet::build_filtered(catalog, |_| true)
    }

    /// Build the diagram with only the non-compound processes accepted by
    /// `include`. The query planner uses this to restrict itself to
    /// *auto-firable* processes (plain primitives and externals whose site
    /// is reachable); interactive and non-applicative processes need a
    /// scientist, so automatic derivation must not plan through them.
    pub fn build_filtered(
        catalog: &Catalog,
        include: impl Fn(&crate::schema::ProcessDef) -> bool,
    ) -> DerivationNet {
        let mut net = PetriNet::new();
        let mut place_of = BTreeMap::new();
        let mut class_of = BTreeMap::new();
        for (id, def) in &catalog.classes {
            let p = if def.is_derived() {
                net.add_place(&def.name)
            } else {
                net.add_base_place(&def.name)
            };
            place_of.insert(*id, p);
            class_of.insert(p.0, *id);
        }
        let mut transition_of = BTreeMap::new();
        let mut process_of = BTreeMap::new();
        for (id, def) in &catalog.processes {
            // A query that interpolates a *base* class registers an
            // interpolation process whose output is base data (§2.1.5
            // step 2); no transition may produce a base place, and
            // interpolation is query-driven, never planned.
            let derives = catalog
                .classes
                .get(&def.output)
                .is_some_and(|c| c.is_derived());
            if def.is_compound() || !derives || !include(def) {
                continue;
            }
            // Several args over the same class accumulate their thresholds
            // on one input arc.
            let mut needs: BTreeMap<ClassId, u64> = BTreeMap::new();
            for arg in &def.args {
                *needs.entry(arg.class).or_insert(0) += arg.min_card;
            }
            let inputs: Vec<(PlaceId, u64)> =
                needs.iter().map(|(c, n)| (place_of[c], *n)).collect();
            let outputs = vec![place_of[&def.output]];
            let t = net
                .add_transition(&def.name, &inputs, &outputs)
                .expect("catalog validation guarantees well-formed transitions");
            transition_of.insert(*id, t);
            process_of.insert(t.0, *id);
        }
        DerivationNet {
            net,
            place_of,
            class_of,
            transition_of,
            process_of,
        }
    }

    /// Marking from per-class stored-object counts.
    pub fn marking(&self, counts: &BTreeMap<ClassId, u64>) -> Marking {
        let pairs: Vec<(PlaceId, u64)> = counts
            .iter()
            .filter_map(|(c, n)| self.place_of.get(c).map(|p| (*p, *n)))
            .collect();
        Marking::from_counts(&self.net, &pairs)
    }

    /// Class of a place, for translating planner output back to catalog
    /// terms.
    pub fn class_at(&self, p: PlaceId) -> Option<ClassId> {
        self.class_of.get(&p.0).copied()
    }

    /// Process of a transition.
    pub fn process_at(&self, t: TransitionId) -> Option<ProcessId> {
        self.process_of.get(&t.0).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClassId, ProcessId};
    use crate::schema::{AttrDef, ClassDef, ClassKind, ProcessArg, ProcessDef, ProcessKind};
    use crate::template::Template;
    use gaea_adt::TypeTag;
    use gaea_store::Oid;

    fn catalog() -> Catalog {
        let mut cat = Catalog::default();
        for (id, name, kind) in [
            (1u64, "tm", ClassKind::Base),
            (2, "landcover", ClassKind::Derived),
            (3, "change", ClassKind::Derived),
        ] {
            cat.add_class(ClassDef {
                id: ClassId(Oid(id)),
                name: name.into(),
                kind,
                attrs: vec![AttrDef::new("data", TypeTag::Image)],
                has_spatial: true,
                has_temporal: true,
                derived_by: vec![],
                doc: String::new(),
            })
            .unwrap();
        }
        cat.add_process(ProcessDef {
            id: ProcessId(Oid(10)),
            name: "P20".into(),
            output: ClassId(Oid(2)),
            args: vec![ProcessArg::set("bands", ClassId(Oid(1)), 3)],
            template: Template::default(),
            kind: ProcessKind::Primitive,
            interactions: vec![],
            cost: None,
            doc: String::new(),
        })
        .unwrap();
        // Change detection takes two landcover snapshots.
        cat.add_process(ProcessDef {
            id: ProcessId(Oid(11)),
            name: "P_change".into(),
            output: ClassId(Oid(3)),
            args: vec![
                ProcessArg::one("earlier", ClassId(Oid(2))),
                ProcessArg::one("later", ClassId(Oid(2))),
            ],
            template: Template::default(),
            kind: ProcessKind::Primitive,
            interactions: vec![],
            cost: None,
            doc: String::new(),
        })
        .unwrap();
        // A compound wrapper, which must NOT become a transition.
        cat.add_process(ProcessDef {
            id: ProcessId(Oid(12)),
            name: "land_change_detection".into(),
            output: ClassId(Oid(3)),
            args: vec![ProcessArg::set("scenes", ClassId(Oid(1)), 6)],
            template: Template::default(),
            kind: ProcessKind::Compound(vec![]),
            interactions: vec![],
            cost: None,
            doc: String::new(),
        })
        .unwrap();
        cat
    }

    #[test]
    fn classes_become_places_processes_transitions() {
        let cat = catalog();
        let dn = DerivationNet::build(&cat);
        assert_eq!(dn.net.place_count(), 3);
        // Compound excluded.
        assert_eq!(dn.net.transition_count(), 2);
        let tm_place = dn.place_of[&ClassId(Oid(1))];
        assert!(dn.net.place(tm_place).unwrap().is_base);
        assert_eq!(dn.class_at(tm_place), Some(ClassId(Oid(1))));
        let p20_t = dn.transition_of[&ProcessId(Oid(10))];
        assert_eq!(dn.process_at(p20_t), Some(ProcessId(Oid(10))));
        assert!(!dn.transition_of.contains_key(&ProcessId(Oid(12))));
    }

    #[test]
    fn same_class_args_accumulate_thresholds() {
        let cat = catalog();
        let dn = DerivationNet::build(&cat);
        let t = dn.transition_of[&ProcessId(Oid(11))];
        let tr = dn.net.transition(t).unwrap();
        assert_eq!(tr.inputs.len(), 1, "both args on the landcover place");
        assert_eq!(tr.inputs[0].threshold, 2);
    }

    #[test]
    fn marking_from_counts() {
        let cat = catalog();
        let dn = DerivationNet::build(&cat);
        let mut counts = BTreeMap::new();
        counts.insert(ClassId(Oid(1)), 5u64);
        counts.insert(ClassId(Oid(2)), 1u64);
        let m = dn.marking(&counts);
        assert_eq!(m.get(dn.place_of[&ClassId(Oid(1))]), 5);
        assert_eq!(m.get(dn.place_of[&ClassId(Oid(2))]), 1);
        assert_eq!(m.get(dn.place_of[&ClassId(Oid(3))]), 0);
    }
}
