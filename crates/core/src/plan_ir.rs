//! The parallel plan IR — the analogue of PRISMA's parallelism-annotated
//! XRA programs (§2.2, §4.3).
//!
//! A [`ParallelPlan`] assigns every join of a tree to an explicit set of
//! logical processors, fixes its join algorithm, wires its operands (local
//! base fragments, live streams, or materialized intermediates), and
//! records start dependencies. Both physical backends interpret this IR:
//! `mj-exec` with threads and channels, `mj-sim` with discrete events —
//! which guarantees that a strategy comparison compares *plans*, never
//! backend quirks.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

use mj_plan::tree::{JoinTree, NodeId};
use mj_relalg::JoinAlgorithm;

use crate::strategy::Strategy;

/// Identifier of an operation (one parallel join) within a plan.
pub type OpId = usize;

/// Identifier of a logical processor (0-based).
pub type ProcId = usize;

/// Where an operand's tuples come from.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OperandSource {
    /// A base relation, read from processor-local fragments. The paper
    /// starts every query from its ideal fragmentation (§4.1), so base
    /// operands never cross the network — matching the cost function's
    /// coefficient 1.
    Base {
        /// Catalog name of the relation.
        relation: String,
    },
    /// Live output of another operation, redistributed tuple-by-tuple while
    /// both operations run (pipelining edge).
    Stream {
        /// Producing operation.
        from: OpId,
    },
    /// Output of an operation that completed earlier; stored fragmented on
    /// the producer's processors and redistributed when this operation
    /// runs. Requires `from` in `start_after`.
    Materialized {
        /// Producing operation.
        from: OpId,
    },
}

impl OperandSource {
    /// The producing op for stream/materialized operands.
    pub fn producer(&self) -> Option<OpId> {
        match self {
            OperandSource::Base { .. } => None,
            OperandSource::Stream { from } | OperandSource::Materialized { from } => Some(*from),
        }
    }

    /// True if tuples cross the interconnect (cost coefficient 2).
    pub fn is_remote(&self) -> bool {
        !matches!(self, OperandSource::Base { .. })
    }
}

impl fmt::Display for OperandSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperandSource::Base { relation } => write!(f, "base({relation})"),
            OperandSource::Stream { from } => write!(f, "stream(op{from})"),
            OperandSource::Materialized { from } => write!(f, "mat(op{from})"),
        }
    }
}

/// One parallel join operation: `procs.len()` operation processes executing
/// the same binary join over hash-partitioned inputs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanOp {
    /// Plan-wide id (index into [`ParallelPlan::ops`]).
    pub id: OpId,
    /// The join node of the source tree this op evaluates.
    pub join: NodeId,
    /// Hash-join algorithm.
    pub algorithm: JoinAlgorithm,
    /// Processors running this op (one operation process each). Disjoint
    /// from any concurrently-runnable op unless the plan is oversubscribed.
    pub procs: Vec<ProcId>,
    /// Processors the strategy allocated to this op. `procs` is the prefix
    /// of them the op's estimated work pays for
    /// ([`GeneratorInput::grain`](crate::generator::GeneratorInput::grain));
    /// the rest stay idle while it runs.
    pub allocated: usize,
    /// Left (build) operand.
    pub left: OperandSource,
    /// Right (probe) operand.
    pub right: OperandSource,
    /// Ops that must complete before this op may be initialized.
    pub start_after: Vec<OpId>,
    /// Estimated operand/result cardinalities (from phase 1), used for
    /// sizing and by the simulator.
    pub est_left: u64,
    /// Estimated right-operand cardinality.
    pub est_right: u64,
    /// Estimated result cardinality.
    pub est_out: u64,
}

impl PlanOp {
    /// Degree of intra-operator parallelism.
    pub fn degree(&self) -> usize {
        self.procs.len()
    }

    /// True if the grain bound left this op fewer processes than the
    /// strategy allocated.
    pub fn grain_capped(&self) -> bool {
        self.procs.len() < self.allocated
    }
}

/// A complete parallel execution plan for one multi-join query.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParallelPlan {
    /// The strategy that produced the plan.
    pub strategy: Strategy,
    /// Total processors available (`0..processors` are valid [`ProcId`]s).
    pub processors: usize,
    /// Operations, topologically ordered (producers before consumers).
    pub ops: Vec<PlanOp>,
    /// The join tree the plan parallelizes (provenance; node ids in
    /// [`PlanOp::join`] refer to this tree).
    pub tree: JoinTree,
    /// True if concurrently-runnable ops share processors (only possible
    /// when a caller explicitly allows fewer processors than operations;
    /// the paper's experiments never do).
    pub oversubscribed: bool,
}

impl ParallelPlan {
    /// The op evaluating the tree's root join — the plan's sink.
    pub fn sink(&self) -> &PlanOp {
        self.ops
            .iter()
            .find(|op| op.join == self.tree.root())
            .expect("a valid plan evaluates the root join")
    }

    /// The op evaluating tree node `join`, if any.
    pub fn op_for_join(&self, join: NodeId) -> Option<&PlanOp> {
        self.ops.iter().find(|op| op.join == join)
    }

    /// Summary statistics: the drivers of the paper's startup and
    /// coordination overheads (§3.5).
    pub fn stats(&self) -> PlanStats {
        let mut processes = 0usize;
        let mut streams = 0usize;
        let mut pipeline_edges = 0usize;
        for op in &self.ops {
            processes += op.degree();
            for operand in [&op.left, &op.right] {
                match operand {
                    OperandSource::Base { .. } => {}
                    OperandSource::Stream { from } => {
                        streams += self.ops[*from].degree() * op.degree();
                        pipeline_edges += 1;
                    }
                    OperandSource::Materialized { from } => {
                        streams += self.ops[*from].degree() * op.degree();
                    }
                }
            }
        }
        PlanStats {
            operation_processes: processes,
            tuple_streams: streams,
            pipeline_edges,
        }
    }

    /// Groups ops into *concurrency classes*: two ops can run at the same
    /// time iff neither (transitively) depends on the other. Returns, for
    /// every op, the set of ops it is ordered after (its transitive deps).
    pub fn transitive_deps(&self) -> Vec<Vec<OpId>> {
        let n = self.ops.len();
        let mut closed: Vec<Vec<OpId>> = vec![Vec::new(); n];
        // Ops are topologically ordered by construction.
        for id in 0..n {
            let mut set: HashMap<OpId, ()> = HashMap::new();
            for &d in &self.ops[id].start_after {
                set.insert(d, ());
                for &dd in &closed[d] {
                    set.insert(dd, ());
                }
            }
            let mut v: Vec<OpId> = set.into_keys().collect();
            v.sort_unstable();
            closed[id] = v;
        }
        closed
    }
}

/// Aggregate plan statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanStats {
    /// Total operation processes the scheduler must initialize — the
    /// *startup* overhead driver. SP with 10 joins on 80 processors: 800.
    pub operation_processes: usize,
    /// Total point-to-point tuple streams (n×m per redistribution) — the
    /// *coordination* overhead driver. One 80-way refragmentation: 6400.
    pub tuple_streams: usize,
    /// Number of live pipeline edges (Stream operands).
    pub pipeline_edges: usize,
}

impl fmt::Display for ParallelPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} plan on {} processors ({} ops{})",
            self.strategy,
            self.processors,
            self.ops.len(),
            if self.oversubscribed {
                ", oversubscribed"
            } else {
                ""
            }
        )?;
        for op in &self.ops {
            writeln!(
                f,
                "  op{} j{} [{}] procs {:?}{} left={} right={} after={:?}",
                op.id,
                op.join,
                op.algorithm,
                compress_procs(&op.procs),
                if op.grain_capped() {
                    format!(" (grain-capped from {})", op.allocated)
                } else {
                    String::new()
                },
                op.left,
                op.right,
                op.start_after,
            )?;
        }
        Ok(())
    }
}

/// Renders a processor list as compact ranges for display, e.g. `[0-4, 7]`.
fn compress_procs(procs: &[ProcId]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < procs.len() {
        let start = procs[i];
        let mut end = start;
        while i + 1 < procs.len() && procs[i + 1] == end + 1 {
            end = procs[i + 1];
            i += 1;
        }
        out.push(if start == end {
            format!("{start}")
        } else {
            format!("{start}-{end}")
        });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_plan::shapes::{build, Shape};

    fn tiny_plan() -> ParallelPlan {
        let tree = build(Shape::RightLinear, 3).unwrap();
        let joins = tree.joins_bottom_up();
        ParallelPlan {
            strategy: Strategy::FP,
            processors: 4,
            ops: vec![
                PlanOp {
                    id: 0,
                    join: joins[0],
                    algorithm: JoinAlgorithm::Pipelining,
                    procs: vec![0, 1, 2],
                    allocated: 3,
                    left: OperandSource::Base {
                        relation: "R1".into(),
                    },
                    right: OperandSource::Base {
                        relation: "R2".into(),
                    },
                    start_after: vec![],
                    est_left: 10,
                    est_right: 10,
                    est_out: 10,
                },
                PlanOp {
                    id: 1,
                    join: joins[1],
                    algorithm: JoinAlgorithm::Pipelining,
                    procs: vec![3],
                    allocated: 1,
                    left: OperandSource::Base {
                        relation: "R0".into(),
                    },
                    right: OperandSource::Stream { from: 0 },
                    start_after: vec![],
                    est_left: 10,
                    est_right: 10,
                    est_out: 10,
                },
            ],
            tree,
            oversubscribed: false,
        }
    }

    #[test]
    fn stats_count_processes_and_streams() {
        let plan = tiny_plan();
        let stats = plan.stats();
        assert_eq!(stats.operation_processes, 4);
        // One stream operand: 3 producers x 1 consumer.
        assert_eq!(stats.tuple_streams, 3);
        assert_eq!(stats.pipeline_edges, 1);
    }

    #[test]
    fn sink_is_root_join() {
        let plan = tiny_plan();
        assert_eq!(plan.sink().id, 1);
        assert!(plan.op_for_join(plan.tree.root()).is_some());
        assert!(plan.op_for_join(9999).is_none());
    }

    #[test]
    fn operand_source_helpers() {
        let base = OperandSource::Base {
            relation: "R".into(),
        };
        let stream = OperandSource::Stream { from: 3 };
        let mat = OperandSource::Materialized { from: 7 };
        assert_eq!(base.producer(), None);
        assert_eq!(stream.producer(), Some(3));
        assert_eq!(mat.producer(), Some(7));
        assert!(!base.is_remote());
        assert!(stream.is_remote() && mat.is_remote());
    }

    #[test]
    fn transitive_deps_close_over_chains() {
        let mut plan = tiny_plan();
        plan.ops[1].start_after = vec![0];
        let deps = plan.transitive_deps();
        assert!(deps[0].is_empty());
        assert_eq!(deps[1], vec![0]);
    }

    #[test]
    fn display_renders_ops() {
        let s = tiny_plan().to_string();
        assert!(s.contains("FP plan on 4 processors"));
        assert!(s.contains("stream(op0)"));
        assert!(s.contains("base(R0)"));
    }

    #[test]
    fn proc_compression() {
        assert_eq!(compress_procs(&[0, 1, 2, 5, 7, 8]), vec!["0-2", "5", "7-8"]);
        assert!(compress_procs(&[]).is_empty());
    }
}
