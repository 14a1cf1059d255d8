//! # gaea-core — the Gaea kernel (the paper's primary contribution)
//!
//! The metadata manager of §2, organized exactly as the paper's three
//! semantic layers:
//!
//! * **High level (experiment) semantics** — [`schema::concept`]:
//!   concepts as sets of non-primitive classes with ISA specialization
//!   DAGs; [`experiment`]: recording, reproducing, comparing experiments.
//! * **Derivation semantics** — [`schema::process`] (primitive & compound
//!   processes with ASSERTIONS/MAPPINGS templates, [`template`]),
//!   [`task`] (object-level derivation records), [`derivation`] (the
//!   catalog→Petri-net mapping, backward-chaining planner and executor),
//!   [`lineage`] (derivation trees, structural comparison, duplicate
//!   detection).
//! * **System level semantics** — delegated to `gaea-adt` (primitive
//!   classes + operators) and `gaea-store` (the Postgres substitute).
//!
//! The [`kernel::Gaea`] facade ties the layers together and implements the
//! §2.1.5 retrieval sequence: direct retrieval → interpolation →
//! derivation ([`query`]).

pub mod catalog;
pub mod derivation;
pub mod error;
mod event;
pub mod experiment;
pub mod external;
pub mod ids;
pub mod interact;
pub mod kernel;
pub mod lineage;
pub mod object;
pub mod query;
pub mod report;
pub mod schema;
pub mod task;
pub mod template;

pub use error::{KernelError, KernelResult};
pub use external::{ExternalExecutor, ExternalRegistry, SimulatedSite};
pub use ids::{ClassId, ConceptId, ExperimentId, JobId, ObjectId, ProcessId, TaskId};
pub use interact::InteractiveSession;
pub use kernel::{Gaea, JobStatus};
pub use object::DataObject;
pub use query::{AttrCmp, AttrPred, CostHint, Query, QueryMethod, QueryOutcome, QueryStrategy};
