//! Process fusion: which operations share an operation process.
//!
//! The grain rule ([`GeneratorInput::grain`]) stops *spreading* an
//! operation whose work does not pay for another process start; this pass
//! applies the same rule to *whether* to start one at all. The edge from a
//! degree-1 operation with less than a grain of estimated work into a
//! degree-1 consumer becomes [`OperandSource::Fused`]: the producer runs
//! inside the consumer's process, on its processor, and hands its complete
//! result over in memory — no process start, no stream, no `start_after`.
//! §3.5 names startup and coordination, not join work, as what limits
//! parallel multi-join evaluation; a pipeline of tiny joins run as one
//! process pays each once.
//!
//! A process starts once everything any of its members waits for has
//! completed, and streams are bounded, so a fusion must not make a process
//! wait for the producer of a stream one of its own members reads — RD
//! orders every operation of a wave after the bottom producer of the wave
//! before — or hold such a producer up in any other way the validator
//! rejects ([`ProcessRelations::needs`]: the pass asks the validator's
//! own rule). Usually every candidate edge can be fused; when not, the
//! pass goes edge by edge and leaves the offending ones alone — repeating
//! until nothing changes, since an edge refused at first may be fine once
//! other fusions have made that producer a member too.
//!
//! This is one of the two ways operations come to share a process. The
//! other is above the grain: RD's generator makes a right-deep segment
//! whose work pays for two instances or more one *segment group*
//! ([`rd`](super::rd)), every member on the same processors, the bottom
//! probe split by range and every build side shared. This pass runs after
//! it and only ever fuses degree-1 operations, so it never touches a
//! group: a group is a process it starts from, not one it makes.

use mj_relalg::JoinAlgorithm;

use crate::plan_ir::{OpId, OperandSource, ParallelPlan};
use crate::validate::ProcessRelations;

use super::GeneratorInput;

/// Rewrites every fusable edge of `plan` into [`OperandSource::Fused`].
/// A plan without a sub-grain degree-1 producer under a degree-1 consumer
/// is left exactly as it is.
pub(crate) fn fuse(plan: &mut ParallelPlan, input: &GeneratorInput<'_>) {
    // (producer, consumer, consumer's side).
    let mut open: Vec<(OpId, OpId, usize)> = Vec::new();
    for op in &plan.ops {
        if op.degree() != 1 {
            continue;
        }
        for (side, operand) in [(0, &op.left), (1, &op.right)] {
            let Some(from) = operand.producer() else {
                continue;
            };
            let producer = &plan.ops[from];
            if producer.degree() == 1 && input.costs.per_join[producer.join] < input.grain {
                open.push((from, op.id, side));
            }
        }
    }
    if open.is_empty() {
        return;
    }

    // Which edges to fuse is decided on `process` alone — the process of
    // each op, named by one of its members: what a fusion does to the
    // processes' mutual constraints depends on nothing else in the plan.
    let stuck = |process: &[OpId]| {
        ProcessRelations::of(plan, process)
            .needs
            .on_cycle()
            .is_some()
    };
    let merge = |process: &mut [OpId], from: OpId, to: OpId| {
        let (merged, into) = (process[from], process[to]);
        for p in process.iter_mut().filter(|p| **p == merged) {
            *p = into;
        }
    };
    // Segment groups are processes already.
    let mut process: Vec<OpId> = plan.process_roots();
    let mut trial = process.clone();
    for &(from, to, _) in &open {
        merge(&mut trial, from, to);
    }
    let mut fused = if !stuck(&trial) {
        // All of them at once: the usual case, and one check.
        process = trial;
        open
    } else {
        let mut fused = Vec::new();
        loop {
            let before = open.len();
            open.retain(|&edge| {
                trial.clone_from(&process);
                merge(&mut trial, edge.0, edge.1);
                if stuck(&trial) {
                    return true;
                }
                std::mem::swap(&mut process, &mut trial);
                fused.push(edge);
                false
            });
            if open.len() == before || open.is_empty() {
                break;
            }
        }
        fused
    };
    if fused.is_empty() {
        return;
    }

    for &(from, to, side) in &fused {
        let op = &mut plan.ops[to];
        *(if side == 0 {
            &mut op.left
        } else {
            &mut op.right
        }) = OperandSource::Fused { from };
    }
    // A consumer that waited for a producer it now runs waits for what that
    // producer waited for instead (a strict SP chain orders every later op
    // through exactly this link) — producers settled first, and again if
    // that names its other producer.
    fused.sort_unstable_by_key(|&(_, to, _)| to);
    for &(_, to, _) in &fused {
        let (earlier, later) = plan.ops.split_at_mut(to);
        let op = &mut later[0];
        let runs = |d: OpId| [&op.left, &op.right].contains(&&OperandSource::Fused { from: d });
        while let Some(at) = op.start_after.iter().position(|&d| runs(d)) {
            let producer = op.start_after.remove(at);
            for &d in &earlier[producer].start_after {
                if !op.start_after.contains(&d) {
                    op.start_after.push(d);
                }
            }
        }
    }
    // By now every process is named by its root. One process, one
    // processor: members move to their root's, and — with nothing to
    // pipeline against inside a process — evaluate build-then-probe
    // wherever the build side is not a live stream.
    debug_assert_eq!(process, plan.process_roots());
    let mut grouped = vec![false; plan.ops.len()];
    for (id, &root) in process.iter().enumerate() {
        if root != id {
            grouped[id] = true;
            grouped[root] = true;
            plan.ops[id].procs = plan.ops[root].procs.clone();
        }
    }
    for op in plan.ops.iter_mut().filter(|op| grouped[op.id]) {
        if !matches!(op.left, OperandSource::Stream { .. }) {
            op.algorithm = JoinAlgorithm::Simple;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_paper_but_segment_groups, fixture};
    use super::super::{generate, GeneratorInput};
    use crate::plan_ir::{OperandSource, ParallelPlan};
    use crate::schedule::ScheduleModel;
    use crate::strategy::Strategy;
    use crate::validate::validate_plan;
    use mj_plan::cardinality::{node_cards, SelectivityModel};
    use mj_plan::cost::{tree_costs, CostModel};
    use mj_plan::shapes::Shape;
    use mj_plan::transform::right_orient;
    use mj_plan::tree::JoinTree;
    use mj_relalg::JoinAlgorithm;

    fn fused_edges(plan: &ParallelPlan) -> usize {
        plan.ops
            .iter()
            .flat_map(|op| [&op.left, &op.right])
            .filter(|o| matches!(o, OperandSource::Fused { .. }))
            .count()
    }

    #[test]
    fn without_a_grain_every_plan_is_the_papers() {
        // `GeneratorInput::new` (grain 0) never fuses, whatever the sizes;
        // and a grain nothing falls under changes no plan either.
        for shape in Shape::ALL {
            for strategy in Strategy::ALL {
                let (tree, cards, costs) = fixture(shape, 10, 20);
                let paper = generate(strategy, &GeneratorInput::new(&tree, &cards, &costs, 40));
                let paper = paper.unwrap();
                assert_eq!(fused_edges(&paper), 0, "{strategy} {shape}");
                assert_eq!(paper.stats().fused_ops, 0);
                assert_eq!(paper.process_roots(), (0..9).collect::<Vec<_>>());

                // 40 grains in every 5000-tuple join: nothing to cap or fuse,
                // though RD's segments become segment groups.
                let (tree, cards, costs) = fixture(shape, 10, 5000);
                let input = GeneratorInput::new(&tree, &cards, &costs, 40);
                let mut grained = input;
                grained.grain = 500.0;
                assert_paper_but_segment_groups(
                    &generate(strategy, &grained).unwrap(),
                    &generate(strategy, &input).unwrap(),
                );
            }
        }
    }

    #[test]
    fn a_chain_of_tiny_joins_is_one_process_under_every_strategy() {
        // 14 relations of 50 tuples under the measured model: every join is
        // 200-250 actions against a grain of 6630, whatever the tree shape,
        // its right-oriented mirror included.
        let grain = ScheduleModel::default().process_grain();
        for shape in Shape::ALL {
            let (tree, cards, costs) = fixture(shape, 14, 50);
            let mirrored = right_orient(&tree);
            let mirrored_cards =
                node_cards(&mirrored, &mj_plan::cardinality::UniformOneToOne { n: 50 });
            let mirrored_costs = tree_costs(&mirrored, &mirrored_cards, &CostModel::default());
            for (tree, cards, costs) in [
                (&tree, &cards, &costs),
                (&mirrored, &mirrored_cards, &mirrored_costs),
            ] {
                for strategy in Strategy::ALL {
                    let mut input = GeneratorInput::new(tree, cards, costs, 8);
                    input.allow_oversubscribe = true;
                    input.grain = grain;
                    let plan = generate(strategy, &input).unwrap();
                    validate_plan(&plan).unwrap();
                    let stats = plan.stats();
                    assert_eq!(
                        (
                            stats.operation_processes,
                            stats.tuple_streams,
                            stats.fused_ops
                        ),
                        (1, 0, 12),
                        "{strategy} {shape}:\n{plan}"
                    );
                    let sink = plan.sink();
                    for op in &plan.ops {
                        assert_eq!(op.algorithm, JoinAlgorithm::Simple);
                        assert_eq!(op.procs, sink.procs);
                        assert!(op.start_after.iter().all(|&d| {
                            op.left != OperandSource::Fused { from: d }
                                && op.right != OperandSource::Fused { from: d }
                        }));
                    }
                }
            }
        }
    }

    /// ((S0 ⋈ S1) ⋈ S2) ⋈ ((B0 ⋈ B1) ⋈ S3): 50-tuple S relations, 50 000-
    /// tuple B relations, every join as large as its smaller operand.
    fn mixed_tree() -> (JoinTree, Vec<u64>, mj_plan::cost::TreeCosts) {
        let mut b = JoinTree::builder();
        let leaves: Vec<_> = ["S0", "S1", "S2", "B0", "B1", "S3"]
            .iter()
            .map(|name| b.leaf(*name))
            .collect();
        let s01 = b.join(leaves[0], leaves[1]);
        let small = b.join(s01, leaves[2]);
        let big = b.join(leaves[3], leaves[4]);
        let big_s3 = b.join(big, leaves[5]);
        let root = b.join(small, big_s3);
        let tree = b.build(root).unwrap();
        let model = SelectivityModel {
            cards: [("B0", 50_000), ("B1", 50_000)]
                .iter()
                .map(|(n, c)| (n.to_string(), *c))
                .collect(),
            default_card: 50,
            selectivity: 1.0,
        };
        let mut cards = node_cards(&tree, &model);
        // Key joins: no result outgrows its smaller operand.
        for id in 0..cards.len() {
            if let Some((l, r)) = tree.children(id) {
                cards[id] = cards[l].min(cards[r]);
            }
        }
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        (tree, cards, costs)
    }

    #[test]
    fn fifty_next_to_fifty_thousand_fuses_only_the_sub_grain_side() {
        let (tree, cards, costs) = mixed_tree();
        let big_join = tree.joins_bottom_up()[2];
        assert!(costs.per_join[big_join] > 100_000.0);
        for strategy in Strategy::ALL {
            let mut input = GeneratorInput::new(&tree, &cards, &costs, 8);
            input.allow_oversubscribe = true;
            input.grain = ScheduleModel::default().process_grain();
            let plan = generate(strategy, &input).unwrap();
            validate_plan(&plan).unwrap();
            let roots = plan.process_roots();
            let big = plan.op_for_join(big_join).unwrap();
            // The big join keeps processes of its own, partitioned, and
            // nothing reads it through a fused edge.
            assert!(big.degree() > 1, "{strategy}:\n{plan}");
            assert_eq!(roots[big.id], big.id, "{strategy}");
            assert!(plan.ops.iter().all(|op| {
                op.left != OperandSource::Fused { from: big.id }
                    && op.right != OperandSource::Fused { from: big.id }
            }));
            // The two joins of 50-tuple relations share a process.
            let joins = tree.joins_bottom_up();
            let (s01, small) = (
                plan.op_for_join(joins[0]).unwrap(),
                plan.op_for_join(joins[1]).unwrap(),
            );
            assert_eq!(roots[s01.id], roots[small.id], "{strategy}:\n{plan}");
            assert!(plan.stats().operation_processes < plan.ops.iter().map(|o| o.degree()).sum());
        }
    }

    /// (R0 ⋈ (B1 ⋈ B2)) ⋈ R3: 50 000-tuple B relations, 10-tuple R ones.
    /// Under RD the big join is the bottom of the first segment, streams
    /// into R0's join, and every op of the next wave starts after it.
    fn stream_under_wave_tree() -> (JoinTree, Vec<u64>, mj_plan::cost::TreeCosts) {
        let mut b = JoinTree::builder();
        let leaves: Vec<_> = ["R0", "B1", "B2", "R3"]
            .iter()
            .map(|name| b.leaf(*name))
            .collect();
        let big = b.join(leaves[1], leaves[2]);
        let mid = b.join(leaves[0], big);
        let root = b.join(mid, leaves[3]);
        let tree = b.build(root).unwrap();
        let model = SelectivityModel {
            cards: [("B1", 50_000), ("B2", 50_000)]
                .iter()
                .map(|(n, c)| (n.to_string(), *c))
                .collect(),
            default_card: 10,
            selectivity: 1.0,
        };
        let mut cards = node_cards(&tree, &model);
        // Every join estimated at 10 rows, the big one included: the
        // estimate that makes R0's join sub-grain is the one most likely
        // to be wrong.
        for join in [big, mid, root] {
            cards[join] = 10;
        }
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        (tree, cards, costs)
    }

    #[test]
    fn a_process_never_waits_for_the_producer_of_a_stream_it_reads() {
        // Fusing R0's join into the root's would have the process wait for
        // the big join (the root starts a wave later) while its first
        // member reads the big join's bounded stream: it would never start
        // and the big join would never finish.
        let (tree, cards, costs) = stream_under_wave_tree();
        for (strategy, procs) in Strategy::ALL.into_iter().flat_map(|s| [(s, 1), (s, 8)]) {
            let mut input = GeneratorInput::new(&tree, &cards, &costs, procs);
            input.allow_oversubscribe = true;
            let paper = generate(strategy, &input).unwrap();
            input.grain = ScheduleModel::default().process_grain();
            let plan = generate(strategy, &input).unwrap();
            validate_plan(&plan).unwrap();
            let roots = plan.process_roots();
            for op in &plan.ops {
                for operand in [&op.left, &op.right] {
                    let OperandSource::Stream { from } = operand else {
                        continue;
                    };
                    let waits_for_it = plan
                        .ops
                        .iter()
                        .any(|m| roots[m.id] == roots[op.id] && m.start_after.contains(from));
                    assert!(!waits_for_it, "{strategy}:\n{plan}");
                }
            }
            if strategy == Strategy::RD && procs == 8 {
                // Above the grain, on processors to spread it over, the big
                // join's segment is one group and R0's join its top: the
                // root reads it materialized, in a process of its own.
                assert_eq!(plan.segment_groups(), vec![vec![0, 1]], "{plan}");
                assert_eq!(roots[2], 2, "{plan}");
            }
            if strategy == Strategy::RD && procs == 1 {
                assert_eq!(paper.ops[1].right, OperandSource::Stream { from: 0 });
                assert!(paper.ops[2].start_after.contains(&0), "{paper}");
                assert_eq!(fused_edges(&plan), 0, "{plan}");
                // The validator rejects that fusion made by hand, too.
                let mut stuck = plan.clone();
                stuck.ops[1].procs = stuck.ops[2].procs.clone();
                stuck.ops[2].left = OperandSource::Fused { from: 1 };
                stuck.ops[2].start_after.retain(|&d| d != 1);
                let err = validate_plan(&stuck).unwrap_err().to_string();
                assert!(err.contains("waits, through its members"), "{err}");
            }
        }
    }

    #[test]
    fn a_consumer_running_both_producers_keeps_what_the_first_one_waited_for() {
        // (B0 ⋈ B1) ⋈ ((S0 ⋈ S1) ⋈ (S2 ⋈ S3)) under SP: a strict chain
        // op0 ← op1 ← op2 ← op3 ← op4, and op4 reads op0's stored result
        // relying on that chain alone. op3 runs op1 and op2; the wait it
        // had was for op2, op2's was for op1, and op1's — for the big
        // join — is the one the process must keep.
        let mut b = JoinTree::builder();
        let leaves: Vec<_> = ["B0", "B1", "S0", "S1", "S2", "S3"]
            .iter()
            .map(|name| b.leaf(*name))
            .collect();
        let big = b.join(leaves[0], leaves[1]);
        let s01 = b.join(leaves[2], leaves[3]);
        let s23 = b.join(leaves[4], leaves[5]);
        let small = b.join(s01, s23);
        let root = b.join(big, small);
        let tree = b.build(root).unwrap();
        let mut cards = vec![50u64; tree.nodes().len()];
        for big in [leaves[0], leaves[1], big] {
            cards[big] = 50_000;
        }
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let mut input = GeneratorInput::new(&tree, &cards, &costs, 8);
        input.grain = ScheduleModel::default().process_grain();
        let plan = generate(Strategy::SP, &input).unwrap();
        validate_plan(&plan).unwrap();
        let small = plan.op_for_join(small).unwrap();
        assert_eq!(
            (&small.left, &small.right),
            (
                &OperandSource::Fused { from: 1 },
                &OperandSource::Fused { from: 2 }
            ),
            "{plan}"
        );
        assert_eq!(small.start_after, vec![0], "{plan}");
    }
}
