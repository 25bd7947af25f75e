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
    /// Output of an operation that runs *inside this operation's process*,
    /// before it, on the same processor: the complete result is handed
    /// over in memory. No process start, no stream, no `start_after`. Both
    /// ends run on the same processors: at degree 1, where the producer's
    /// estimated work does not hold a
    /// [grain](crate::schedule::ScheduleModel::process_grain) and so does
    /// not pay for a process of its own, or as the probe chain of a
    /// segment group, where each instance hands its own rows up.
    Fused {
        /// Producing operation, a member of this operation's process.
        from: OpId,
    },
}

impl OperandSource {
    /// The producing op for stream/materialized/fused operands.
    pub fn producer(&self) -> Option<OpId> {
        match self {
            OperandSource::Base { .. } => None,
            OperandSource::Stream { from }
            | OperandSource::Materialized { from }
            | OperandSource::Fused { from } => Some(*from),
        }
    }

    /// True if tuples cross the interconnect (cost coefficient 2).
    pub fn is_remote(&self) -> bool {
        matches!(
            self,
            OperandSource::Stream { .. } | OperandSource::Materialized { .. }
        )
    }
}

impl fmt::Display for OperandSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperandSource::Base { relation } => write!(f, "base({relation})"),
            OperandSource::Stream { from } => write!(f, "stream(op{from})"),
            OperandSource::Materialized { from } => write!(f, "mat(op{from})"),
            OperandSource::Fused { from } => write!(f, "fused(op{from})"),
        }
    }
}

/// How one operand's rows are divided among an operation's instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Split {
    /// Hash-partitioned on the operation's join key, one fragment per
    /// instance: the paper's layout, the one shared-nothing PRISMA needs.
    Hash,
    /// Split by rows, not by key: instance `i` of `d` reads rows
    /// `[i·n/d, (i+1)·n/d)` of a base relation's resident image as a
    /// window on it, or — through a fused edge — what the member below it
    /// in the same instance produced from such a window.
    Range,
    /// Whole, in every instance: one read-only join table over the build
    /// operand that all instances adopt. Only a simple join's build side
    /// (left) is shared.
    Shared,
}

impl Split {
    /// The suffix plan printouts mark a non-hash operand with.
    fn mark(self) -> &'static str {
        match self {
            Split::Hash => "",
            Split::Range => "/range",
            Split::Shared => "/shared",
        }
    }
}

/// One parallel join operation: `procs.len()` operation processes executing
/// the same binary join over hash-partitioned inputs — or, when another
/// operation reads it through [`OperandSource::Fused`], a member of that
/// operation's process group: at degree 1 one process, or one instance per
/// processor of a *segment group* (a right-deep segment whose bottom probe
/// operand is split by range and whose build sides are shared, [`Split`]).
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
    /// How each operand, left then right, is divided among the instances:
    /// `[Hash, Hash]` unless the op is a member of a segment group.
    pub split: [Split; 2],
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

    /// The operation process every op runs in, named by the process's
    /// *root* op: an op is its own root unless a consumer reads it through
    /// [`OperandSource::Fused`], in which case it shares that consumer's.
    /// All ops with one root form a *process group*: one operation process
    /// evaluating its members in op order and emitting the root's output.
    pub fn process_roots(&self) -> Vec<OpId> {
        let mut roots: Vec<OpId> = (0..self.ops.len()).collect();
        // Consumers come after producers, so a consumer's root is final
        // before its fused producers look it up.
        for op in self.ops.iter().rev() {
            for operand in [&op.left, &op.right] {
                if let OperandSource::Fused { from } = operand {
                    if *from < op.id {
                        roots[*from] = roots[op.id];
                    }
                }
            }
        }
        roots
    }

    /// The process groups that run at degree > 1 — segment groups — each
    /// as its members in op order, the root last.
    pub fn segment_groups(&self) -> Vec<Vec<OpId>> {
        let roots = self.process_roots();
        let mut groups: Vec<Vec<OpId>> = Vec::new();
        for op in &self.ops {
            let root = roots[op.id];
            if root == op.id || self.ops[root].degree() < 2 {
                continue;
            }
            match groups.iter_mut().find(|g| roots[g[0]] == root) {
                Some(group) => group.push(op.id),
                None => groups.push(vec![op.id]),
            }
        }
        for group in &mut groups {
            group.push(roots[group[0]]);
        }
        groups
    }

    /// Summary statistics: the drivers of the paper's startup and
    /// coordination overheads (§3.5). A process group counts as the one
    /// process it is, and a fused edge as no stream.
    pub fn stats(&self) -> PlanStats {
        let roots = self.process_roots();
        let mut processes = 0usize;
        let mut streams = 0usize;
        let mut pipeline_edges = 0usize;
        for op in &self.ops {
            if roots[op.id] == op.id {
                processes += op.degree();
            }
            for operand in [&op.left, &op.right] {
                match operand {
                    OperandSource::Base { .. } | OperandSource::Fused { .. } => {}
                    OperandSource::Stream { from } => {
                        streams += self.ops[*from].degree() * op.degree();
                        pipeline_edges += 1;
                    }
                    // One piece per producer instance into the one
                    // table every instance shares.
                    OperandSource::Materialized { from } if op.split[0] == Split::Shared => {
                        streams += self.ops[*from].degree();
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
            fused_ops: roots.iter().enumerate().filter(|(id, r)| id != *r).count(),
            segment_groups: self.segment_groups().len(),
        }
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
    /// Operations that run inside another operation's process (producers
    /// of [`OperandSource::Fused`] edges): they start no process and open
    /// no stream.
    pub fused_ops: usize,
    /// Process groups at degree > 1 ([`ParallelPlan::segment_groups`]).
    pub segment_groups: usize,
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
        let roots = self.process_roots();
        for op in &self.ops {
            writeln!(
                f,
                "  op{} j{} [{}] procs {:?}{} left={}{} right={}{} after={:?}{}",
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
                op.split[0].mark(),
                op.right,
                op.split[1].mark(),
                op.start_after,
                if roots[op.id] == op.id {
                    String::new()
                } else {
                    format!(" fused→op{}", roots[op.id])
                },
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
                    split: [Split::Hash; 2],
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
                    split: [Split::Hash; 2],
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
    fn a_fused_edge_is_one_process_and_no_stream() {
        let mut plan = tiny_plan();
        plan.ops[0].procs = vec![3];
        plan.ops[1].right = OperandSource::Fused { from: 0 };
        assert_eq!(plan.process_roots(), vec![1, 1]);
        let stats = plan.stats();
        assert_eq!(
            (
                stats.operation_processes,
                stats.tuple_streams,
                stats.pipeline_edges,
                stats.fused_ops
            ),
            (1, 0, 0, 1)
        );
        let s = plan.to_string();
        assert!(s.contains("right=fused(op0)"), "{s}");
        assert!(s.contains("fused→op1"), "{s}");
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
        let fused = OperandSource::Fused { from: 2 };
        assert_eq!(fused.producer(), Some(2));
        assert!(!base.is_remote() && !fused.is_remote());
        assert!(stream.is_remote() && mat.is_remote());
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
