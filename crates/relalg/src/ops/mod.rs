//! Sequential relational operators.
//!
//! These are the single-threaded building blocks used by the reference
//! evaluator ([`crate::xra::XraNode::eval`]) and by tests as an oracle: one
//! per XRA node that computes something (selection, projection, join,
//! aggregation). The
//! *parallel* operators — hash-split redistribution, pipelined joins across
//! processors — live in `mj-exec`; the point of this module is to be simple
//! and obviously correct, not fast.

pub mod aggregate;
pub mod filter;
pub mod nested_loop;
pub mod project;

pub use aggregate::{aggregate, AggFunc, AggSpec, AggState};
pub use filter::filter;
pub use nested_loop::nested_loop_join;
pub use project::project;
