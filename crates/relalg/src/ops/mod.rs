//! Sequential relational operators.
//!
//! These are the single-threaded building blocks used by the reference
//! evaluator ([`crate::xra::XraNode::eval`]) and by tests as an oracle: one
//! per XRA node that computes something (selection, projection, the
//! sort-merge join, aggregation), plus the nested-loop join the sort-merge
//! join's property test checks it against. The
//! *parallel* operators — hash-split redistribution, pipelined joins across
//! processors — live in `mj-exec`; the point of this module is to be simple
//! and obviously correct, not fast.

pub mod aggregate;
pub mod filter;
pub mod nested_loop;
pub mod project;
pub mod sort_merge;

pub use aggregate::{aggregate, AggFunc, AggSpec, AggState};
pub use filter::filter;
pub use nested_loop::nested_loop_join;
pub use project::project;
pub use sort_merge::sort_merge_join;
