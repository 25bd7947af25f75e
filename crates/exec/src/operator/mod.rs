//! Physical operator instances: the bodies of operation processes.
//!
//! [`PhysicalOp`] is the computational core of one operator — absorb
//! tuples, emit tuples, optionally build and drain — and
//! [`task::OpTask`] is the generic cooperative driver that runs any of
//! them on the shared worker pool. Both hash-join algorithms, the
//! partitioned hash GROUP BY, and the early-terminating limit are
//! `PhysicalOp` implementations. A WHERE predicate is no operator: it
//! selects rows where its base fragment is read
//! ([`Source::Filtered`](crate::source::Source::Filtered)).

pub mod aggregate;
pub mod limit;
pub mod op;
pub mod output;
pub mod scratch;
pub(crate) mod shared;
pub mod task;

pub use aggregate::AggregateOp;
pub use limit::LimitOp;
pub use op::{join_op, Absorb, InputMode, PhysicalOp, PipeliningJoinOp, SimpleJoinOp};
pub use output::OutputPort;
pub use scratch::JoinScratch;
pub use task::OpTask;
