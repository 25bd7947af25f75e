//! Parallel-plan generation (§4.3).
//!
//! "A generator was made that can make execution plans using each of the
//! strategies for a specific join tree. The generator takes the join tree,
//! the cardinalities of the operand relations, the parallelization
//! strategy, and the number of processors to be used as input, and yields
//! an execution plan in XRA as output." This module is that generator; the
//! output is a [`ParallelPlan`].

mod fp;
mod fuse;
mod rd;
mod se;
mod sp;

use mj_plan::cost::TreeCosts;
use mj_plan::tree::{JoinTree, NodeId};
use mj_relalg::{RelalgError, Result};

use crate::allocation::{carve, max_useful_degree, proportional_counts};
use crate::plan_ir::{OpId, OperandSource, ParallelPlan, ProcId};
use crate::strategy::Strategy;

/// Inputs to the plan generator.
#[derive(Clone, Copy, Debug)]
pub struct GeneratorInput<'a> {
    /// The phase-1 join tree.
    pub tree: &'a JoinTree,
    /// Estimated cardinality per tree node.
    pub cards: &'a [u64],
    /// The paper's cost function evaluated per join (the work weights).
    pub costs: &'a TreeCosts,
    /// Available processors.
    pub processors: usize,
    /// Permit plans where concurrent operations share processors (needed
    /// only when `processors` is smaller than the number of concurrent
    /// joins; the paper's machine never was). Default-false in
    /// [`GeneratorInput::new`].
    pub allow_oversubscribe: bool,
    /// Least estimated work (cost units) one operation process must have
    /// to pay for its own start
    /// ([`ScheduleModel::process_grain`](crate::schedule::ScheduleModel::process_grain)).
    /// Whatever a strategy allocates, an operation keeps at most
    /// `⌊work / grain⌋` (at least one) of those processors; the rest stay
    /// idle. An operation left with one process and *less* than a grain of
    /// work does not start even that one if its consumer also runs at
    /// degree 1: it is fused into the consumer's process
    /// ([`OperandSource::Fused`]). Zero in [`GeneratorInput::new`]: the
    /// paper's generator spreads every join over its full allocation and
    /// gives every operation its own processes.
    pub grain: f64,
}

impl<'a> GeneratorInput<'a> {
    /// Creates a generator input with oversubscription disabled and no
    /// grain bound.
    pub fn new(
        tree: &'a JoinTree,
        cards: &'a [u64],
        costs: &'a TreeCosts,
        processors: usize,
    ) -> Self {
        GeneratorInput {
            tree,
            cards,
            costs,
            processors,
            allow_oversubscribe: false,
            grain: 0.0,
        }
    }

    fn check(&self) -> Result<()> {
        if self.processors == 0 {
            return Err(RelalgError::InvalidPlan(
                "a plan needs >= 1 processor".into(),
            ));
        }
        if self.tree.join_count() == 0 {
            return Err(RelalgError::InvalidPlan(
                "tree has no joins to parallelize".into(),
            ));
        }
        if self.cards.len() != self.tree.nodes().len() {
            return Err(RelalgError::InvalidPlan(
                "cards must cover every tree node".into(),
            ));
        }
        if self.costs.per_join.len() != self.tree.nodes().len() {
            return Err(RelalgError::InvalidPlan(
                "costs must cover every tree node".into(),
            ));
        }
        self.tree.validate()
    }
}

/// Generates a parallel plan for `input.tree` under `strategy`.
pub fn generate(strategy: Strategy, input: &GeneratorInput<'_>) -> Result<ParallelPlan> {
    input.check()?;
    let mut plan = match strategy {
        Strategy::SP => sp::generate(input),
        Strategy::SE => se::generate(input),
        Strategy::RD => rd::generate(input),
        Strategy::FP => fp::generate(input),
    }?;
    if input.grain > 0.0 {
        fuse::fuse(&mut plan, input);
    }
    Ok(plan)
}

/// Shared machinery for the per-strategy builders.
pub(crate) struct PlanBuilder<'a> {
    pub input: &'a GeneratorInput<'a>,
    pub ops: Vec<crate::plan_ir::PlanOp>,
    /// Op evaluating each join node.
    pub op_of: Vec<Option<OpId>>,
    pub oversubscribed: bool,
}

impl<'a> PlanBuilder<'a> {
    pub fn new(input: &'a GeneratorInput<'a>) -> Self {
        PlanBuilder {
            input,
            ops: Vec::with_capacity(input.tree.join_count()),
            op_of: vec![None; input.tree.nodes().len()],
            oversubscribed: false,
        }
    }

    /// The operand source for a child node: base relations scan locally;
    /// join children either stream live (`pipelined = true`) or are read
    /// back from materialized fragments.
    pub fn operand(&self, child: NodeId, pipelined: bool) -> OperandSource {
        match &self.input.tree.nodes()[child] {
            mj_plan::tree::TreeNode::Leaf { relation } => OperandSource::Base {
                relation: relation.clone(),
            },
            mj_plan::tree::TreeNode::Join { .. } => {
                let from = self.op_of[child].expect("children scheduled before parents");
                if pipelined {
                    OperandSource::Stream { from }
                } else {
                    OperandSource::Materialized { from }
                }
            }
        }
    }

    /// Appends an op for `join` on the first of `procs` that its work
    /// pays for ([`GeneratorInput::grain`]), wiring cardinalities from the
    /// input.
    pub fn push_op(
        &mut self,
        join: NodeId,
        algorithm: mj_relalg::JoinAlgorithm,
        mut procs: Vec<ProcId>,
        left: OperandSource,
        right: OperandSource,
        start_after: Vec<OpId>,
    ) -> OpId {
        let (l, r) = self.input.tree.children(join).expect("join node");
        let allocated = procs.len();
        procs.truncate(max_useful_degree(
            self.input.costs.per_join[join],
            self.input.grain,
        ));
        let id = self.ops.len();
        self.ops.push(crate::plan_ir::PlanOp {
            id,
            join,
            algorithm,
            procs,
            allocated,
            left,
            right,
            start_after,
            est_left: self.input.cards[l],
            est_right: self.input.cards[r],
            est_out: self.input.cards[join],
        });
        self.op_of[join] = Some(id);
        id
    }

    pub fn finish(self, strategy: Strategy) -> ParallelPlan {
        ParallelPlan {
            strategy,
            processors: self.input.processors,
            ops: self.ops,
            tree: self.input.tree.clone(),
            oversubscribed: self.oversubscribed,
        }
    }
}

/// Allocates processor groups for `weights.len()` concurrent operations
/// from `pool`, proportionally to `weights`. Falls back to round-robin
/// sharing when the pool is too small and sharing is allowed; the boolean
/// reports whether sharing happened.
pub(crate) fn allocate_groups(
    weights: &[f64],
    pool: &[ProcId],
    allow_share: bool,
) -> Result<(Vec<Vec<ProcId>>, bool)> {
    if pool.is_empty() {
        return Err(RelalgError::InvalidPlan("empty processor pool".into()));
    }
    if pool.len() >= weights.len() {
        let counts = proportional_counts(weights, pool.len())?;
        Ok((carve(&counts, pool), false))
    } else if allow_share {
        let groups = (0..weights.len())
            .map(|i| vec![pool[i % pool.len()]])
            .collect();
        Ok((groups, true))
    } else {
        Err(RelalgError::InvalidPlan(format!(
            "{} concurrent operations need at least {} processors, got {} \
             (set allow_oversubscribe to permit sharing)",
            weights.len(),
            weights.len(),
            pool.len()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_plan::cardinality::{node_cards, UniformOneToOne};
    use mj_plan::cost::{tree_costs, CostModel};
    use mj_plan::shapes::{build, Shape};

    pub(crate) fn fixture(shape: Shape, k: usize, n: u64) -> (JoinTree, Vec<u64>, TreeCosts) {
        let tree = build(shape, k).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        (tree, cards, costs)
    }

    #[test]
    fn generate_validates_inputs() {
        let (tree, cards, costs) = fixture(Shape::WideBushy, 4, 100);
        let bad_procs = GeneratorInput::new(&tree, &cards, &costs, 0);
        assert!(generate(Strategy::SP, &bad_procs).is_err());

        let short_cards = vec![1u64; 2];
        let bad_cards = GeneratorInput::new(&tree, &short_cards, &costs, 8);
        assert!(generate(Strategy::SP, &bad_cards).is_err());

        let single = JoinTree::single("R");
        let c = vec![1u64];
        let tc = TreeCosts {
            per_join: vec![0.0],
            total: 0.0,
        };
        let no_joins = GeneratorInput::new(&single, &c, &tc, 8);
        assert!(generate(Strategy::FP, &no_joins).is_err());
    }

    #[test]
    fn grain_caps_small_joins_and_leaves_large_ones_alone() {
        // Regular joins cost 4N or 5N: at a grain of 1000, 100-tuple joins
        // (400-500 units) keep one process under every strategy — and,
        // each under a grain, share it — while 10 000-tuple joins (40-50
        // grains) keep their whole allocation.
        for strategy in Strategy::ALL {
            let (tree, cards, costs) = fixture(Shape::WideBushy, 6, 100);
            let mut input = GeneratorInput::new(&tree, &cards, &costs, 12);
            input.grain = 1000.0;
            let small = generate(strategy, &input).unwrap();
            crate::validate::validate_plan(&small).unwrap();
            assert!(small.ops.iter().all(|op| op.degree() == 1), "{strategy}");
            assert_eq!(small.stats().operation_processes, 1);
            assert_eq!(small.stats().fused_ops, 4);

            let (tree, cards, costs) = fixture(Shape::WideBushy, 6, 10_000);
            let uncapped = GeneratorInput::new(&tree, &cards, &costs, 12);
            let mut capped = uncapped;
            capped.grain = 1000.0;
            assert_eq!(
                generate(strategy, &capped).unwrap(),
                generate(strategy, &uncapped).unwrap(),
                "{strategy}"
            );
        }
    }

    #[test]
    fn allocate_groups_shares_only_when_allowed() {
        let pool: Vec<ProcId> = (0..2).collect();
        let weights = [1.0, 1.0, 1.0];
        assert!(allocate_groups(&weights, &pool, false).is_err());
        let (groups, shared) = allocate_groups(&weights, &pool, true).unwrap();
        assert!(shared);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], vec![0]);
        assert_eq!(groups[2], vec![0], "round-robin wraps");
    }

    #[test]
    fn every_strategy_generates_for_every_shape() {
        for shape in Shape::ALL {
            let (tree, cards, costs) = fixture(shape, 10, 1000);
            for strategy in Strategy::ALL {
                for procs in [10usize, 20, 80] {
                    let input = GeneratorInput::new(&tree, &cards, &costs, procs);
                    let plan = generate(strategy, &input).unwrap();
                    assert_eq!(plan.ops.len(), 9, "{strategy} {shape} {procs}");
                    assert!(!plan.oversubscribed);
                    crate::validate::validate_plan(&plan).unwrap();
                }
            }
        }
    }
}
