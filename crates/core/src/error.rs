//! Kernel error type, aggregating the substrate errors.

use gaea_adt::AdtError;
use gaea_petri::PetriError;
use gaea_store::StoreError;
use std::fmt;

/// Errors raised by the Gaea kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// System-level (ADT/operator) failure.
    Adt(AdtError),
    /// Storage failure.
    Store(StoreError),
    /// Derivation-net failure.
    Petri(PetriError),
    /// Named entity not found in the catalog.
    NotFound { kind: &'static str, name: String },
    /// Entity id not found in the catalog.
    NoSuchId { kind: &'static str, id: u64 },
    /// Name already taken (processes/classes/concepts are never overwritten).
    Duplicate { kind: &'static str, name: String },
    /// A process ASSERTION failed (guard rule, Figure 3).
    AssertionFailed { process: String, assertion: String },
    /// Template evaluation problem (bad attr reference, type error...).
    Template(String),
    /// Schema-level inconsistency (e.g. process output attrs not matching
    /// the class definition).
    Schema(String),
    /// The planner found no derivation (with the failure frontier rendered).
    DerivationImpossible(String),
    /// Query produced nothing by any of the three steps.
    NoData(String),
    /// Experiment reproduction diverged from the recorded outputs.
    ReproductionMismatch(String),
    /// An external process's site is unregistered or unreachable (§5
    /// extension: non-local processes).
    SiteUnavailable { site: String, process: String },
    /// The process cannot be fired automatically: it is non-applicative
    /// (§5) or awaits scientist interaction (§4.3).
    NotAutoFirable { process: String, reason: String },
    /// The exact derivation is already in flight as a background job
    /// (another session submitted it); await or cancel that job instead
    /// of firing a duplicate.
    DerivationPending {
        process: String,
        job: crate::ids::JobId,
    },
    /// An interactive session was finished before every declared
    /// interaction was answered.
    InteractionPending { process: String, param: String },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Adt(e) => write!(f, "adt: {e}"),
            KernelError::Store(e) => write!(f, "store: {e}"),
            KernelError::Petri(e) => write!(f, "petri: {e}"),
            KernelError::NotFound { kind, name } => write!(f, "no such {kind}: {name}"),
            KernelError::NoSuchId { kind, id } => write!(f, "no {kind} with oid {id}"),
            KernelError::Duplicate { kind, name } => {
                write!(
                    f,
                    "{kind} already defined: {name} (definitions are never overwritten)"
                )
            }
            KernelError::AssertionFailed { process, assertion } => {
                write!(f, "process {process}: assertion failed: {assertion}")
            }
            KernelError::Template(msg) => write!(f, "template: {msg}"),
            KernelError::Schema(msg) => write!(f, "schema: {msg}"),
            KernelError::DerivationImpossible(msg) => {
                write!(f, "derivation impossible: {msg}")
            }
            KernelError::NoData(msg) => write!(f, "no data: {msg}"),
            KernelError::ReproductionMismatch(msg) => {
                write!(f, "reproduction mismatch: {msg}")
            }
            KernelError::SiteUnavailable { site, process } => {
                write!(f, "process {process}: site {site:?} is not available")
            }
            KernelError::NotAutoFirable { process, reason } => {
                write!(
                    f,
                    "process {process} cannot be fired automatically: {reason}"
                )
            }
            KernelError::DerivationPending { process, job } => {
                write!(
                    f,
                    "process {process}: this derivation is already in flight as \
                     background {job}; await or cancel it instead of re-firing"
                )
            }
            KernelError::InteractionPending { process, param } => {
                write!(
                    f,
                    "process {process}: interaction {param:?} has not been answered"
                )
            }
        }
    }
}

impl std::error::Error for KernelError {}

impl From<AdtError> for KernelError {
    fn from(e: AdtError) -> KernelError {
        KernelError::Adt(e)
    }
}
impl From<StoreError> for KernelError {
    fn from(e: StoreError) -> KernelError {
        KernelError::Store(e)
    }
}
impl From<PetriError> for KernelError {
    fn from(e: PetriError) -> KernelError {
        KernelError::Petri(e)
    }
}

/// Convenience alias.
pub type KernelResult<T> = Result<T, KernelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: KernelError = AdtError::UnknownOperator("pca".into()).into();
        assert!(e.to_string().contains("pca"));
        let e: KernelError = StoreError::NoSuchRelation("r".into()).into();
        assert!(e.to_string().contains("store"));
        let e = KernelError::AssertionFailed {
            process: "P20".into(),
            assertion: "card(bands) = 3".into(),
        };
        assert_eq!(
            e.to_string(),
            "process P20: assertion failed: card(bands) = 3"
        );
        let e = KernelError::Duplicate {
            kind: "process",
            name: "P20".into(),
        };
        assert!(e.to_string().contains("never overwritten"));
    }
}
