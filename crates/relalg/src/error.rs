//! Error type shared by the relational substrate.

use std::fmt;

/// Errors raised while building or evaluating relational expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelalgError {
    /// An attribute name could not be resolved against a schema.
    UnknownAttribute(String),
    /// An attribute index was out of bounds for the tuple/schema arity.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The arity it was checked against.
        arity: usize,
    },
    /// A value had a different type than the operation required.
    TypeMismatch {
        /// What the operation required.
        expected: &'static str,
        /// What it got.
        found: &'static str,
    },
    /// A tuple did not conform to the schema it was checked against.
    SchemaMismatch(String),
    /// A named relation was not found in the catalog/provider.
    UnknownRelation(String),
    /// A plan was structurally invalid (an unbound parameter, MIN over an
    /// empty group, ...).
    InvalidPlan(String),
    /// A partitioning request was invalid (zero partitions, an assignment
    /// outside `0..parts`, unsorted range bounds, too many rows, ...).
    InvalidPartitioning(String),
    /// The query was cancelled by the client before it completed. Raised by
    /// operator tasks that observe their query's cancel token and by the
    /// coordinator once a cancelled query has quiesced.
    Canceled,
    /// The query ran past its wall-clock deadline and was aborted by the
    /// guardrail layer (per-step deadline checks plus a check the worker
    /// pool runs at the deadline).
    DeadlineExceeded,
    /// The query charged more bytes against its memory budget than the
    /// configured cap and was aborted before it could endanger the process.
    ResourceExhausted {
        /// Bytes charged at the moment the budget trip was observed.
        used: u64,
        /// The configured budget cap in bytes.
        budget: u64,
    },
    /// The query's stall check saw no task progress for the configured
    /// stall window; the payload is a per-operator progress dump.
    Stalled(String),
    /// An operator task panicked; the panic was contained by the worker
    /// pool and converted into this query-scoped error. The payload is the
    /// panic message.
    Internal(String),
    /// An exact phase-1 optimizer gave up: the join graph holds more
    /// connected-subgraph / complement pairs than the optimizer's fixed
    /// budget. Not a failure of the query — planners match it and fall
    /// back to a heuristic tree.
    PairBudgetExceeded {
        /// The budget that ran out (pairs costed before giving up).
        budget: usize,
    },
}

impl fmt::Display for RelalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelalgError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            RelalgError::IndexOutOfBounds { index, arity } => {
                write!(f, "attribute index {index} out of bounds for arity {arity}")
            }
            RelalgError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            RelalgError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            RelalgError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            RelalgError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            RelalgError::InvalidPartitioning(msg) => write!(f, "invalid partitioning: {msg}"),
            RelalgError::Canceled => write!(f, "query canceled"),
            RelalgError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            RelalgError::ResourceExhausted { used, budget } => {
                write!(
                    f,
                    "query memory budget exhausted: {used} bytes used of {budget} allowed"
                )
            }
            RelalgError::Stalled(dump) => write!(f, "query stalled: {dump}"),
            RelalgError::Internal(msg) => write!(f, "internal error (contained panic): {msg}"),
            RelalgError::PairBudgetExceeded { budget } => {
                write!(
                    f,
                    "exact DP skipped: more than {budget} csg-cmp pairs exceeds the budget"
                )
            }
        }
    }
}

impl std::error::Error for RelalgError {}

/// Convenient result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, RelalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = RelalgError::UnknownAttribute("u1".into());
        assert_eq!(e.to_string(), "unknown attribute `u1`");
        let e = RelalgError::IndexOutOfBounds { index: 9, arity: 3 };
        assert!(e.to_string().contains("index 9"));
        let e = RelalgError::TypeMismatch {
            expected: "Int",
            found: "Str",
        };
        assert!(e.to_string().contains("expected Int"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&RelalgError::UnknownRelation("r".into()));
    }
}
