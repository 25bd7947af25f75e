//! Structural validation of parallel plans.
//!
//! Every generated plan must satisfy the invariants both backends rely on;
//! validation failures indicate generator bugs, so the engine and the
//! simulator validate plans up front rather than misbehaving downstream.

use std::ops::Deref;
use std::sync::Arc;

use mj_plan::segment::segments;
use mj_plan::tree::TreeNode;
use mj_relalg::{RelalgError, Result};

use crate::bits::BitMatrix;
use crate::plan_ir::{OpId, OperandSource, ParallelPlan};

/// Checks a plan's structural invariants:
///
/// 1. exactly one op per join node of the tree, topologically ordered
///    (producers before consumers);
/// 2. operands wired to the correct children (base names match leaves,
///    producers match join children);
/// 3. materialized producers are in `start_after`;
/// 4. all processor ids are in range, every op has at least one, and no op
///    lists one twice (one instance per processor);
/// 5. a fused edge joins two degree-1 ops on the same processor, and its
///    producer is not also listed in the consumer's `start_after`;
/// 6. no *operation process* (process group: an op plus everything fused
///    into it) needs its own completion to complete — a process starts
///    once every process a member waits for has completed, evaluates its
///    members in op order, and streams are bounded: one that waits for the
///    producer of a stream it reads, or that a process it waits for waits
///    behind, would never start and that producer never finish;
/// 7. processes that may run concurrently (neither transitively ordered
///    after the other) use disjoint processors — unless the plan declares
///    oversubscription;
/// 8. `start_after` references earlier ops only.
pub fn validate_plan(plan: &ParallelPlan) -> Result<()> {
    let tree = &plan.tree;
    tree.validate()?;
    if plan.ops.len() != tree.join_count() {
        return Err(RelalgError::InvalidPlan(format!(
            "plan has {} ops for {} joins",
            plan.ops.len(),
            tree.join_count()
        )));
    }

    let n = plan.ops.len();
    // Everything each op is (transitively) ordered after by `start_after`;
    // one forward pass, since the entries name earlier ops only.
    let mut after = BitMatrix::new(n);
    let mut join_seen = vec![false; tree.nodes().len()];
    for (idx, op) in plan.ops.iter().enumerate() {
        if op.id != idx {
            return Err(RelalgError::InvalidPlan(format!(
                "op {idx} has id {}",
                op.id
            )));
        }
        let Some((l, r)) = tree.children(op.join) else {
            return Err(RelalgError::InvalidPlan(format!("op {idx} targets a leaf")));
        };
        if std::mem::replace(&mut join_seen[op.join], true) {
            return Err(RelalgError::InvalidPlan(format!(
                "join {} scheduled twice",
                op.join
            )));
        }
        if op.procs.is_empty() {
            return Err(RelalgError::InvalidPlan(format!(
                "op {idx} has no processors"
            )));
        }
        if let Some(&bad) = op.procs.iter().find(|&&p| p >= plan.processors) {
            return Err(RelalgError::InvalidPlan(format!(
                "op {idx} uses processor {bad} >= {}",
                plan.processors
            )));
        }
        if let Some((i, bad)) = (1..op.procs.len()).find_map(|i| {
            let p = op.procs[i];
            op.procs[..i].contains(&p).then_some((i, p))
        }) {
            return Err(RelalgError::InvalidPlan(format!(
                "op {idx} lists processor {bad} twice (instance {i})"
            )));
        }
        for &d in &op.start_after {
            if d >= idx {
                return Err(RelalgError::InvalidPlan(format!(
                    "op {idx} starts after non-earlier op {d}"
                )));
            }
            after.set(idx, d);
            after.or_row(idx, d);
        }
        check_operand(plan, idx, &op.left, l, &after)?;
        check_operand(plan, idx, &op.right, r, &after)?;
    }

    // Process level.
    let roots = plan.process_roots();
    let ProcessRelations { mut waits, needs } = ProcessRelations::of(plan, &roots);
    if let Some(g) = needs.on_cycle() {
        return Err(RelalgError::InvalidPlan(format!(
            "the process of op {g} waits, through its members, for a process that needs it"
        )));
    }

    // Concurrency-disjointness.
    if !plan.oversubscribed {
        waits.close();
        for a in 0..n {
            for b in a + 1..n {
                let (ga, gb) = (roots[a], roots[b]);
                if ga == gb || waits.get(ga, gb) || waits.get(gb, ga) {
                    continue;
                }
                if plan.ops[a]
                    .procs
                    .iter()
                    .any(|p| plan.ops[b].procs.contains(p))
                {
                    return Err(RelalgError::InvalidPlan(format!(
                        "concurrent ops {a} and {b} share processors"
                    )));
                }
            }
        }
    }
    Ok(())
}

/// How a plan's operation processes constrain one another; a process is
/// named by one of its members (its root op, in a finished plan).
pub(crate) struct ProcessRelations {
    /// `g` starts only once `h` has completed: some member of `g` lists a
    /// member of `h` in its `start_after`. Direct waits only.
    pub(crate) waits: BitMatrix,
    /// `g` cannot complete before `h` has, transitively closed. `g` waits
    /// for `h` or reads its output; or — streams being bounded — `g`
    /// streams into a member of a process that does not take the stream
    /// before `h` has completed: that process waits for `h`, or evaluates
    /// the reading member after one that reads a stream from `h`.
    pub(crate) needs: BitMatrix,
}

impl ProcessRelations {
    /// The relations of `plan` with its ops grouped into processes by
    /// `roots` (op → name of its process): [`ParallelPlan::process_roots`],
    /// or a grouping the fusion pass is considering — nothing else about
    /// a fused edge matters here.
    pub(crate) fn of(plan: &ParallelPlan, roots: &[usize]) -> Self {
        let n = plan.ops.len();
        let mut waits = BitMatrix::new(n);
        let mut needs = BitMatrix::new(n);
        for op in &plan.ops {
            let g = roots[op.id];
            for &d in op.start_after.iter().filter(|&&d| roots[d] != g) {
                waits.set(g, roots[d]);
                needs.set(g, roots[d]);
            }
            for from in [&op.left, &op.right]
                .into_iter()
                .filter_map(|o| o.producer())
            {
                if roots[from] != g {
                    needs.set(g, roots[from]);
                }
            }
        }
        // Per process: the processes its members so far (in op order, the
        // order they are evaluated in) read a stream from.
        let mut streamed = BitMatrix::new(n);
        for op in &plan.ops {
            let g = roots[op.id];
            let producers = [&op.left, &op.right].map(|operand| match operand {
                OperandSource::Stream { from } if roots[*from] != g => Some(roots[*from]),
                _ => None,
            });
            for s in producers.into_iter().flatten() {
                needs.or_row_of(s, &waits, g);
                needs.or_row_of(s, &streamed, g);
            }
            // Both operands of one member are polled in turn: neither
            // holds the other up.
            for s in producers.into_iter().flatten() {
                streamed.set(g, s);
            }
        }
        needs.close();
        ProcessRelations { waits, needs }
    }
}

fn check_operand(
    plan: &ParallelPlan,
    op_idx: usize,
    operand: &OperandSource,
    child: mj_plan::tree::NodeId,
    after: &BitMatrix,
) -> Result<()> {
    let tree = &plan.tree;
    match (operand, &tree.nodes()[child]) {
        (OperandSource::Base { relation }, TreeNode::Leaf { relation: expected }) => {
            if relation != expected {
                return Err(RelalgError::InvalidPlan(format!(
                    "op {op_idx} scans `{relation}` but the tree expects `{expected}`"
                )));
            }
            Ok(())
        }
        (OperandSource::Base { .. }, TreeNode::Join { .. }) => Err(RelalgError::InvalidPlan(
            format!("op {op_idx} scans a base relation where a join feeds in"),
        )),
        (src, TreeNode::Leaf { .. }) => Err(RelalgError::InvalidPlan(format!(
            "op {op_idx} wires {src:?} where the tree has a leaf"
        ))),
        (src, TreeNode::Join { .. }) => {
            let from = src.producer().expect("non-base source has a producer");
            if from >= op_idx {
                return Err(RelalgError::InvalidPlan(format!(
                    "op {op_idx} consumes op {from}, which is not an earlier op"
                )));
            }
            if plan.ops[from].join != child {
                return Err(RelalgError::InvalidPlan(format!(
                    "op {op_idx} consumes op {from} which evaluates join {}, expected {child}",
                    plan.ops[from].join
                )));
            }
            if matches!(src, OperandSource::Materialized { .. }) && !after.get(op_idx, from) {
                return Err(RelalgError::InvalidPlan(format!(
                    "op {op_idx} reads materialized op {from} without waiting for it"
                )));
            }
            if matches!(src, OperandSource::Fused { .. }) {
                let (producer, consumer) = (&plan.ops[from], &plan.ops[op_idx]);
                if producer.degree() != 1 || consumer.degree() != 1 {
                    return Err(RelalgError::InvalidPlan(format!(
                        "op {op_idx} fuses op {from} but one of them runs at degree > 1"
                    )));
                }
                if producer.procs != consumer.procs {
                    return Err(RelalgError::InvalidPlan(format!(
                        "op {op_idx} fuses op {from} from a different processor"
                    )));
                }
                if consumer.start_after.contains(&from) {
                    return Err(RelalgError::InvalidPlan(format!(
                        "op {op_idx} both fuses op {from} and starts after it"
                    )));
                }
            }
            Ok(())
        }
    }
}

/// A plan that passed [`validate_plan`], shared and immutable: what a
/// planner hands an executor so the check runs once where the plan is
/// built, not on every execution of a cached plan, and so submitting it
/// copies a pointer. Dereferences to the [`ParallelPlan`]. It also keeps
/// what an executor reads off the plan's structure, derived once here:
/// each op's scheduling wave and process group.
#[derive(Clone, Debug, PartialEq)]
pub struct ValidPlan(Arc<Validated>);

#[derive(Debug, PartialEq)]
struct Validated {
    plan: ParallelPlan,
    /// Per op: the topological wave of its right-deep segment.
    waves: Vec<usize>,
    /// Per op: the root op of its operation process.
    roots: Vec<OpId>,
}

impl ValidPlan {
    /// Validates `plan` and wraps it.
    pub fn new(plan: ParallelPlan) -> Result<Self> {
        validate_plan(&plan)?;
        let node_waves = segments(&plan.tree).node_waves();
        let waves = plan
            .ops
            .iter()
            .map(|op| node_waves.get(op.join).copied().flatten().unwrap_or(0))
            .collect();
        let roots = plan.process_roots();
        Ok(ValidPlan(Arc::new(Validated { plan, waves, roots })))
    }

    /// Per op: the topological wave of the right-deep segment it belongs
    /// to ([`Segmentation::node_waves`](mj_plan::segment::Segmentation)) —
    /// deeper segments first, the scheduling priority of its tasks.
    pub fn waves(&self) -> &[usize] {
        &self.0.waves
    }

    /// Per op: the root op of its operation process
    /// ([`ParallelPlan::process_roots`]).
    pub fn process_roots(&self) -> &[OpId] {
        &self.0.roots
    }
}

impl std::fmt::Display for ValidPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.plan.fmt(f)
    }
}

impl Deref for ValidPlan {
    type Target = ParallelPlan;

    fn deref(&self) -> &ParallelPlan {
        &self.0.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorInput};
    use crate::strategy::Strategy;
    use mj_plan::cardinality::{node_cards, UniformOneToOne};
    use mj_plan::cost::{tree_costs, CostModel};
    use mj_plan::shapes::{build, Shape};

    fn valid_plan() -> ParallelPlan {
        let tree = build(Shape::WideBushy, 6).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n: 100 });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let input = GeneratorInput::new(&tree, &cards, &costs, 12);
        generate(Strategy::FP, &input).unwrap()
    }

    #[test]
    fn generated_plans_validate() {
        validate_plan(&valid_plan()).unwrap();
    }

    #[test]
    fn detects_shared_processors_between_concurrent_ops() {
        let mut plan = valid_plan();
        // Make two concurrent ops share processor 0.
        plan.ops[0].procs = vec![0];
        plan.ops[1].procs = vec![0];
        assert!(validate_plan(&plan).is_err());
        // Declaring oversubscription silences the check.
        plan.oversubscribed = true;
        validate_plan(&plan).unwrap();
    }

    #[test]
    fn detects_wrong_base_relation() {
        let mut plan = valid_plan();
        for op in &mut plan.ops {
            if let OperandSource::Base { relation } = &mut op.left {
                *relation = "WRONG".into();
                break;
            }
        }
        assert!(validate_plan(&plan).is_err());
    }

    #[test]
    fn detects_missing_materialization_barrier() {
        let mut plan = valid_plan();
        // Turn a stream edge into a materialized edge without adding the
        // dependency.
        for op in &mut plan.ops {
            let right = op.right.clone();
            if let OperandSource::Stream { from } = right {
                op.right = OperandSource::Materialized { from };
                op.start_after.retain(|&d| d != from);
                break;
            }
        }
        assert!(validate_plan(&plan).is_err());
    }

    #[test]
    fn detects_out_of_range_processor() {
        let mut plan = valid_plan();
        plan.ops[0].procs.push(10_000);
        assert!(validate_plan(&plan).is_err());
    }

    #[test]
    fn detects_a_processor_listed_twice() {
        let mut plan = valid_plan();
        let first = plan.ops[0].procs[0];
        plan.ops[0].procs.push(first);
        let err = validate_plan(&plan).unwrap_err();
        assert!(
            matches!(&err, RelalgError::InvalidPlan(m) if m.contains("twice")),
            "{err:?}"
        );
        // Oversubscription does not make a repeated processor valid.
        plan.oversubscribed = true;
        assert_eq!(validate_plan(&plan).unwrap_err(), err);
    }

    #[test]
    fn detects_empty_processor_set() {
        let mut plan = valid_plan();
        plan.ops[0].procs.clear();
        assert!(validate_plan(&plan).is_err());
    }

    #[test]
    fn detects_forward_dependency() {
        let mut plan = valid_plan();
        let last = plan.ops.len() - 1;
        plan.ops[0].start_after.push(last);
        assert!(validate_plan(&plan).is_err());
    }

    /// Five 100-tuple joins under a grain of 1000: one process of five
    /// members.
    fn fused_plan() -> ParallelPlan {
        let tree = build(Shape::WideBushy, 6).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n: 100 });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let mut input = GeneratorInput::new(&tree, &cards, &costs, 12);
        input.grain = 1000.0;
        let plan = generate(Strategy::FP, &input).unwrap();
        assert_eq!(plan.stats().operation_processes, 1);
        plan
    }

    /// Some fused edge of `plan`: (producer, consumer).
    fn fused_edge(plan: &ParallelPlan) -> (usize, usize) {
        plan.ops
            .iter()
            .find_map(|op| match (&op.left, &op.right) {
                (OperandSource::Fused { from }, _) | (_, OperandSource::Fused { from }) => {
                    Some((*from, op.id))
                }
                _ => None,
            })
            .expect("the fixture fuses")
    }

    #[test]
    fn fused_edges_need_one_processor_degree_one_and_no_start_after() {
        let plan = fused_plan();
        validate_plan(&plan).unwrap();
        let (from, to) = fused_edge(&plan);
        let rejects = |plan: &ParallelPlan, what: &str| {
            let err = validate_plan(plan).expect_err(what).to_string();
            assert!(err.contains(what), "{err}");
        };

        let mut elsewhere = plan.clone();
        elsewhere.ops[from].procs = vec![(plan.ops[to].procs[0] + 1) % plan.processors];
        rejects(&elsewhere, "different processor");

        let mut wide = plan.clone();
        wide.ops[from]
            .procs
            .push((plan.ops[to].procs[0] + 1) % plan.processors);
        rejects(&wide, "degree > 1");

        let mut waits = plan.clone();
        waits.ops[to].start_after.push(from);
        rejects(&waits, "both fuses");
    }

    #[test]
    fn rejects_a_fusion_that_orders_a_stream_producer_after_its_consumer() {
        // Figure 6 under RD: join 5 builds from join 4's stored result and
        // probes join 3's live stream, and join 3 starts after join 4.
        // Running join 4 inside join 5's process makes join 3 wait for the
        // very process that needs its stream.
        let (tree, joins) = crate::example::example_tree();
        let mut per_join = vec![0.0; tree.nodes().len()];
        for (id, w) in crate::example::example_weights() {
            per_join[id] = w;
        }
        let total = per_join.iter().sum();
        let costs = mj_plan::cost::TreeCosts { per_join, total };
        let cards = crate::example::example_cards(100);
        let input = GeneratorInput::new(&tree, &cards, &costs, 10);
        let mut plan = generate(Strategy::RD, &input).unwrap();
        validate_plan(&plan).unwrap();
        let (j3, j4, j5) = (
            plan.op_for_join(joins.j3).unwrap().id,
            plan.op_for_join(joins.j4).unwrap().id,
            plan.op_for_join(joins.j5).unwrap().id,
        );
        assert_eq!(plan.ops[j5].right, OperandSource::Stream { from: j3 });
        assert!(plan.ops[j3].start_after.contains(&j4));
        plan.oversubscribed = true;
        plan.ops[j4].procs = vec![0];
        plan.ops[j5].procs = vec![0];
        plan.ops[j5].left = OperandSource::Fused { from: j4 };
        plan.ops[j5].start_after.retain(|&d| d != j4);
        let err = validate_plan(&plan).unwrap_err().to_string();
        assert!(err.contains("waits, through its members"), "{err}");

        // The generator leaves that edge alone at any grain, and fuses
        // what it can around it.
        let mut grained = input;
        grained.grain = 1e9;
        grained.allow_oversubscribe = true;
        let plan = generate(Strategy::RD, &grained).unwrap();
        validate_plan(&plan).unwrap();
        assert!(plan.stats().fused_ops > 0, "{plan}");
    }

    #[test]
    fn rejects_a_member_order_that_holds_up_a_stream_another_member_waits_behind() {
        // c = a ⋈ b, a = X0 ⋈ stream(s1), b = X1 ⋈ stream(s2), all three
        // one process evaluating a, then b. With s1 starting after s2, a
        // waits for s1, s1 for s2, and s2 — its bounded stream full — for
        // b, which runs after a.
        use crate::plan_ir::PlanOp;
        use mj_plan::tree::JoinTree;
        use mj_relalg::JoinAlgorithm;
        let mut t = JoinTree::builder();
        let leaves: Vec<_> = ["X0", "A", "B", "X1", "C", "D"]
            .iter()
            .map(|name| t.leaf(*name))
            .collect();
        let s1 = t.join(leaves[1], leaves[2]);
        let a = t.join(leaves[0], s1);
        let s2 = t.join(leaves[4], leaves[5]);
        let b = t.join(leaves[3], s2);
        let c = t.join(a, b);
        let tree = t.build(c).unwrap();
        let base = |relation: &str| OperandSource::Base {
            relation: relation.into(),
        };
        let op = |id, join, proc, left, right| PlanOp {
            id,
            join,
            algorithm: JoinAlgorithm::Pipelining,
            procs: vec![proc],
            allocated: 1,
            left,
            right,
            start_after: vec![],
            est_left: 10,
            est_right: 10,
            est_out: 10,
        };
        let mut plan = ParallelPlan {
            strategy: Strategy::FP,
            processors: 3,
            ops: vec![
                op(0, s2, 0, base("C"), base("D")),
                op(1, s1, 1, base("A"), base("B")),
                op(2, a, 2, base("X0"), OperandSource::Stream { from: 1 }),
                op(3, b, 2, base("X1"), OperandSource::Stream { from: 0 }),
                op(
                    4,
                    c,
                    2,
                    OperandSource::Fused { from: 2 },
                    OperandSource::Fused { from: 3 },
                ),
            ],
            tree,
            oversubscribed: false,
        };
        validate_plan(&plan).unwrap();
        plan.ops[1].start_after = vec![0];
        let err = validate_plan(&plan).unwrap_err().to_string();
        assert!(err.contains("waits, through its members"), "{err}");
    }

    #[test]
    fn a_checked_plan_is_shared_not_copied() {
        let valid = ValidPlan::new(fused_plan()).unwrap();
        let again = valid.clone();
        assert!(std::ptr::eq(&*valid, &*again));
        let mut broken = fused_plan();
        broken.ops[0].procs.clear();
        assert!(ValidPlan::new(broken).is_err());
    }
}
