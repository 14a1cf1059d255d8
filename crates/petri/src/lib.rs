//! # gaea-petri — derivation diagrams (paper §2.1.6)
//!
//! "Every non-primitive class, which is a member of a concept, corresponds
//! to a place in a PN, and every process corresponds to a transition.
//! Tokens in every place represent the data objects needed for the
//! instantiation of a process."
//!
//! The paper modifies classic Petri-net semantics in three ways. This
//! crate implements the first two at the count level; the third needs
//! real objects, so the kernel's binder implements it:
//!
//! 1. **Token preservation** — "tokens (data objects) used for derivation
//!    are permanent and can be reused"; firing does not remove input
//!    tokens ([`firing::FiringMode::GaeaPreserving`]).
//! 2. **Threshold arcs** — "the number of inputs to a transition denotes
//!    the *minimum* number of tokens needed [...] more tokens than the
//!    threshold may be used" (input-arc `threshold`, e.g. PCA needs ≥ 2
//!    images).
//! 3. **Guards** — "some form of relationship may be required among the
//!    input data objects (tokens). For example, the same or overlapping
//!    spatial coverage". The kernel binds real objects from the query's
//!    token pool to a planned transition (`choose_or_fire` in
//!    `gaea-core`) and evaluates the process's guard assertions on them
//!    before it fires (`executor::check_guards`).
//!
//! Token preservation makes the net *monotone*: a fired transition stays
//! fireable, token counts never decrease, and derivability becomes a simple
//! saturation fixpoint ([`reachability::saturate`]) instead of general
//! Petri reachability. The planner ([`backward`]) answers the paper's
//! retrieval question — "given a final marking, try to find the initial
//! marking which can lead to this marking" — by AND-OR search over
//! producing transitions, reporting either an ordered firing plan or the
//! set of missing base places where "back propagation stops".

pub mod backward;
pub mod dot;
pub mod error;
pub mod firing;
pub mod marking;
pub mod net;
pub mod reachability;

pub use backward::{plan_derivation, DerivationPlan, PlanFailure};
pub use error::{PetriError, PetriResult};
pub use firing::FiringMode;
pub use marking::Marking;
pub use net::{PetriNet, PlaceId, TransitionId};
