//! XRA: the logical operator tree (eXtended Relational Algebra).
//!
//! PRISMA/DB used XRA as the internal representation of queries; the
//! scheduler received an XRA program annotated with parallelism (degree and
//! placement per operator). In this reproduction the *logical* tree lives
//! here, while parallel annotations are produced by `mj-core` as a separate
//! physical IR (`mj-core`'s `plan_ir`). Keeping the logical tree free of
//! placement lets the sequential reference evaluator double as the
//! correctness oracle for every parallel backend.

use std::fmt;
use std::sync::Arc;

use crate::error::Result;
use crate::ops;
use crate::ops::{sort_merge_join, AggSpec};
use crate::predicate::Predicate;
use crate::projection::Projection;
use crate::relation::{Relation, RelationProvider};
use crate::schema::Schema;

/// Which hash-join algorithm a physical backend should use for a join node.
/// The sequential evaluator ignores the hint (it uses a sort-merge oracle);
/// the paper's strategies pick `Simple` for SP/SE/RD and `Pipelining` for FP
/// (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JoinAlgorithm {
    /// Two-phase build–probe hash join ("simple hash-join", §2.3.2).
    Simple,
    /// Symmetric single-phase hash join that builds a table on *both*
    /// operands and produces output as early as possible ("pipelining
    /// hash-join", \[WiA91\]).
    Pipelining,
}

impl fmt::Display for JoinAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinAlgorithm::Simple => write!(f, "simple"),
            JoinAlgorithm::Pipelining => write!(f, "pipelining"),
        }
    }
}

/// An equi-join condition plus the projection applied to matches.
///
/// `left_key`/`right_key` index into the respective operand schemas; the
/// projection indexes into the concatenation `left ++ right`.
#[derive(Clone, Debug, PartialEq)]
pub struct EquiJoin {
    /// Key column in the left operand.
    pub left_key: usize,
    /// Key column in the right operand.
    pub right_key: usize,
    /// Projection applied to each matching concatenated tuple.
    pub projection: Projection,
}

impl EquiJoin {
    /// Creates an equi-join spec.
    pub fn new(left_key: usize, right_key: usize, projection: Projection) -> Self {
        EquiJoin {
            left_key,
            right_key,
            projection,
        }
    }

    /// Output schema given the operand schemas.
    pub fn output_schema(&self, left: &Schema, right: &Schema) -> Result<Schema> {
        self.projection.output_schema(&left.concat(right))
    }

    /// Validates the key columns against the operand schemas.
    pub fn validate(&self, left: &Schema, right: &Schema) -> Result<()> {
        left.attr(self.left_key)?;
        right.attr(self.right_key)?;
        self.output_schema(left, right)?;
        Ok(())
    }
}

/// A logical XRA plan node.
#[derive(Clone, Debug, PartialEq)]
pub enum XraNode {
    /// Scan of a named base relation.
    Scan {
        /// Catalog name of the relation.
        relation: String,
    },
    /// Selection.
    Select {
        /// Input plan.
        input: Box<XraNode>,
        /// Filter predicate.
        predicate: Predicate,
    },
    /// Projection.
    Project {
        /// Input plan.
        input: Box<XraNode>,
        /// Columns to keep.
        projection: Projection,
    },
    /// Hash equi-join.
    HashJoin {
        /// Left (build) operand.
        left: Box<XraNode>,
        /// Right (probe) operand.
        right: Box<XraNode>,
        /// Join condition and output projection.
        join: EquiJoin,
        /// Physical algorithm hint for parallel backends.
        algorithm: JoinAlgorithm,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input plan.
        input: Box<XraNode>,
        /// Grouping columns.
        group: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
    },
}

impl XraNode {
    /// Convenience scan constructor.
    pub fn scan(relation: impl Into<String>) -> XraNode {
        XraNode::Scan {
            relation: relation.into(),
        }
    }

    /// Convenience join constructor.
    pub fn join(
        left: XraNode,
        right: XraNode,
        join: EquiJoin,
        algorithm: JoinAlgorithm,
    ) -> XraNode {
        XraNode::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            join,
            algorithm,
        }
    }

    /// Number of join nodes in the plan.
    pub fn join_count(&self) -> usize {
        match self {
            XraNode::Scan { .. } => 0,
            XraNode::Select { input, .. }
            | XraNode::Project { input, .. }
            | XraNode::Aggregate { input, .. } => input.join_count(),
            XraNode::HashJoin { left, right, .. } => 1 + left.join_count() + right.join_count(),
        }
    }

    /// Computes the output schema, resolving base relations via `provider`.
    /// Doubles as plan validation: every structural error surfaces here.
    pub fn schema(&self, provider: &dyn RelationProvider) -> Result<Schema> {
        match self {
            XraNode::Scan { relation } => Ok(provider.schema(relation)?.as_ref().clone()),
            XraNode::Select { input, .. } => input.schema(provider),
            XraNode::Project { input, projection } => {
                projection.output_schema(&input.schema(provider)?)
            }
            XraNode::HashJoin {
                left, right, join, ..
            } => {
                let ls = left.schema(provider)?;
                let rs = right.schema(provider)?;
                join.validate(&ls, &rs)?;
                join.output_schema(&ls, &rs)
            }
            XraNode::Aggregate { input, group, aggs } => {
                let in_schema = input.schema(provider)?;
                // Reuse the operator's schema computation on an empty input.
                let empty = Relation::empty(Arc::new(in_schema));
                Ok(ops::aggregate(&empty, group, aggs)
                    .map(|r| r.schema().as_ref().clone())
                    // MIN/MAX over the empty probe relation error; recompute
                    // group-less schemas structurally in that case.
                    .unwrap_or_else(|_| {
                        let mut attrs = Vec::new();
                        for &c in group.iter() {
                            if let Ok(a) = empty.schema().attr(c) {
                                attrs.push(a.clone());
                            }
                        }
                        for a in aggs {
                            attrs.push(crate::schema::Attribute::int(a.name.clone()));
                        }
                        Schema::new(attrs)
                    }))
            }
        }
    }

    /// Sequential reference evaluation: the correctness oracle. Joins are
    /// sort-merge joins ([`ops::sort_merge_join`]), which share no hashing
    /// with the engine's hash joins (`relalg::hash`, `mj-join`) they
    /// validate.
    pub fn eval(&self, provider: &dyn RelationProvider) -> Result<Relation> {
        match self {
            XraNode::Scan { relation } => Ok(provider.relation(relation)?.as_ref().clone()),
            XraNode::Select { input, predicate } => ops::filter(&input.eval(provider)?, predicate),
            XraNode::Project { input, projection } => {
                ops::project(&input.eval(provider)?, projection)
            }
            XraNode::HashJoin {
                left, right, join, ..
            } => {
                let l = left.eval(provider)?;
                let r = right.eval(provider)?;
                sort_merge_join(&l, &r, join)
            }
            XraNode::Aggregate { input, group, aggs } => {
                ops::aggregate(&input.eval(provider)?, group, aggs)
            }
        }
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match self {
            XraNode::Scan { relation } => writeln!(f, "{pad}Scan {relation}"),
            XraNode::Select { input, predicate } => {
                writeln!(f, "{pad}Select {predicate}")?;
                input.fmt_indent(f, depth + 1)
            }
            XraNode::Project { input, projection } => {
                writeln!(f, "{pad}Project {projection}")?;
                input.fmt_indent(f, depth + 1)
            }
            XraNode::HashJoin {
                left,
                right,
                join,
                algorithm,
            } => {
                writeln!(
                    f,
                    "{pad}HashJoin[{algorithm}] l#{} = r#{} {}",
                    join.left_key, join.right_key, join.projection
                )?;
                left.fmt_indent(f, depth + 1)?;
                right.fmt_indent(f, depth + 1)
            }
            XraNode::Aggregate { input, group, aggs } => {
                let names: Vec<&str> = aggs.iter().map(|a| a.name.as_str()).collect();
                writeln!(f, "{pad}Aggregate group={group:?} aggs={names:?}")?;
                input.fmt_indent(f, depth + 1)
            }
        }
    }
}

impl fmt::Display for XraNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::AggFunc;
    use crate::schema::Attribute;
    use crate::tuple::Tuple;
    use std::collections::HashMap;

    fn provider() -> HashMap<String, Arc<Relation>> {
        let schema = Schema::new(vec![Attribute::int("k"), Attribute::int("v")]).shared();
        let mk = |rows: &[[i64; 2]]| {
            Arc::new(
                Relation::new(
                    schema.clone(),
                    rows.iter().map(|r| Tuple::from_ints(r)).collect(),
                )
                .unwrap(),
            )
        };
        let mut m = HashMap::new();
        m.insert("r".to_string(), mk(&[[1, 10], [2, 20], [3, 30]]));
        m.insert("s".to_string(), mk(&[[2, 200], [3, 300], [5, 500]]));
        m
    }

    fn join_plan() -> XraNode {
        XraNode::join(
            XraNode::scan("r"),
            XraNode::scan("s"),
            EquiJoin::new(0, 0, Projection::new(vec![0, 1, 3])),
            JoinAlgorithm::Simple,
        )
    }

    #[test]
    fn eval_join() {
        let out = join_plan().eval(&provider()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn schema_propagates_and_validates() {
        let p = provider();
        let s = join_plan().schema(&p).unwrap();
        assert_eq!(s.arity(), 3);

        let bad = XraNode::join(
            XraNode::scan("r"),
            XraNode::scan("s"),
            EquiJoin::new(9, 0, Projection::new(vec![0])),
            JoinAlgorithm::Simple,
        );
        assert!(bad.schema(&p).is_err());
    }

    #[test]
    fn select_project_aggregate_pipeline() {
        let p = provider();
        let plan = XraNode::Aggregate {
            input: Box::new(XraNode::Project {
                input: Box::new(XraNode::Select {
                    input: Box::new(XraNode::scan("r")),
                    predicate: Predicate::cmp_int(1, crate::predicate::CmpOp::Ge, 20),
                }),
                projection: Projection::new(vec![1]),
            }),
            group: vec![],
            aggs: vec![AggSpec::new(AggFunc::Sum, 0, "total")],
        };
        let out = plan.eval(&p).unwrap();
        assert_eq!(out.tuples()[0], Tuple::from_ints(&[50]));
        assert_eq!(plan.schema(&p).unwrap().attr(0).unwrap().name, "total");
    }

    #[test]
    fn join_count_counts_nested_joins() {
        let two = XraNode::join(
            join_plan(),
            XraNode::scan("s"),
            EquiJoin::new(0, 0, Projection::new(vec![0])),
            JoinAlgorithm::Pipelining,
        );
        assert_eq!(two.join_count(), 2);
        assert_eq!(XraNode::scan("r").join_count(), 0);
    }

    #[test]
    fn display_renders_tree() {
        let s = join_plan().to_string();
        assert!(s.contains("HashJoin[simple]"));
        assert!(s.contains("Scan r"));
        assert!(s.contains("Scan s"));
    }

    #[test]
    fn unknown_relation_errors() {
        let p = provider();
        assert!(XraNode::scan("nope").eval(&p).is_err());
        assert!(XraNode::scan("nope").schema(&p).is_err());
    }
}
