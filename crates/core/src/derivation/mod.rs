//! The derivation manager: catalog→Petri-net mapping, planning, execution.

pub mod executor;
pub mod net;

pub use executor::TaskRun;
pub use net::DerivationNet;
