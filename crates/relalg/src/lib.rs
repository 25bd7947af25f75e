//! Relational-algebra substrate for the multi-join reproduction.
//!
//! This crate models the part of PRISMA/DB that the paper calls the
//! *eXtended Relational Algebra* (XRA, \[GWF91\]): schemas, typed values,
//! tuples, relations, predicates, projections, and a logical operator tree.
//! It also ships a deliberately simple **sequential reference evaluator**
//! ([`xra::XraNode::eval`]) that the rest of the workspace uses as a
//! correctness oracle: whatever a parallel strategy computes must be
//! multiset-equal to the sequential evaluation of the same tree.
//!
//! Layering: this crate knows nothing about parallelism, processors, or
//! cost. Join *trees* and cost live in `mj-plan`; the parallel plan IR and
//! the four strategies live in `mj-core`; physical execution lives in
//! `mj-exec` (threads) and `mj-sim` (discrete events).

#![warn(missing_docs)]

pub mod column;
pub mod error;
pub mod expr;
pub mod hash;
pub mod ops;
pub mod predicate;
pub mod projection;
pub mod relation;
pub mod schema;
pub mod simd;
pub mod tuple;
pub mod value;
pub mod xra;

pub use column::{columnar_row_bytes, Column, ColumnBatch, ColumnLayout};
pub use error::{RelalgError, Result};
pub use predicate::{CmpOp, Predicate};
pub use projection::Projection;
pub use relation::{Relation, RelationProvider};
pub use schema::{Attribute, DataType, Schema};
pub use tuple::Tuple;
pub use value::Value;
pub use xra::{EquiJoin, JoinAlgorithm, XraNode};
