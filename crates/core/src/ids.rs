//! Typed identifiers for kernel entities.
//!
//! All identifiers draw from the store's single OID space, but carry
//! distinct types so a task id cannot be passed where a process id is
//! expected.

use gaea_store::Oid;
use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! kernel_id {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
        )]
        pub struct $name(pub Oid);

        impl $name {
            /// Raw OID value.
            pub fn raw(self) -> u64 {
                self.0 .0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, ":{}"), self.0 .0)
            }
        }
    };
}

kernel_id!(
    /// A non-primitive class (derivation-layer entity).
    ClassId,
    "class"
);
kernel_id!(
    /// A concept (experiment-layer entity; a set of classes).
    ConceptId,
    "concept"
);
kernel_id!(
    /// A process (class-level derivation template).
    ProcessId,
    "process"
);
kernel_id!(
    /// A task (object-level derivation record).
    TaskId,
    "task"
);
kernel_id!(
    /// A stored data object (instance of a non-primitive class).
    ObjectId,
    "object"
);
kernel_id!(
    /// A recorded experiment.
    ExperimentId,
    "experiment"
);

/// A background derivation job. Not an OID: job ids are dense from 1 per
/// kernel, and a durable kernel journals them with the submission so a
/// reopened kernel never reuses one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_tags_distinguish_kinds() {
        assert_eq!(ClassId(Oid(3)).to_string(), "class:3");
        assert_eq!(TaskId(Oid(9)).to_string(), "task:9");
        assert_eq!(ObjectId(Oid(1)).raw(), 1);
    }

    #[test]
    fn ordering_follows_oid() {
        assert!(ProcessId(Oid(1)) < ProcessId(Oid(2)));
    }
}
