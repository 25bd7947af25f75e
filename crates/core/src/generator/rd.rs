//! Segmented Right-Deep (RD) plan generation (§3.3, \[CLY92\]).
//!
//! The bushy tree is decomposed into right-deep segments
//! ([`mj_plan::segment`]). Within a segment, every join immediately hashes
//! its left operand; then the segment's probe stream pipelines from the
//! bottom join to the top. "Each operation in a segment is assigned a
//! number of processors that is proportional to the estimated amount of
//! work in the join operation. Segments that have a producer-consumer
//! relationship are evaluated sequentially. Independent segments, however,
//! may be evaluated in parallel, using disjoint subsets of the available
//! processors."
//!
//! Degenerate cases reproduce the paper's coincidences: right-linear trees
//! are one segment (RD ≡ FP modulo the join algorithm); left-linear trees
//! are all singleton segments (RD ≡ SP).
//!
//! **Segment groups** (only with a [grain](GeneratorInput::grain), so never
//! in the paper's generator). PRISMA shared nothing, so every join of a
//! segment is its own operation process, linked to the next by tuple
//! streams. In one address space a segment can instead be one pipeline run
//! by `d` identical instances: instance `i` probes rows
//! `[i·n/d, (i+1)·n/d)` of the segment's bottom probe relation through
//! every join of the segment, each join adopting one read-only table over
//! its whole build side ([`Split::Shared`], [`Split::Range`]). `d` is the
//! grain rule applied to the segment's summed work, capped at the
//! segment's processors; a segment of two or more joins whose work pays
//! for two instances or more becomes such a group. Every valuation's facts
//! meet in the instance holding its probe tuple, because every instance
//! holds every build row — the replicated-operand layout
//! [`validate_plan`](crate::validate::validate_plan)'s ninth rule accepts.

use mj_plan::segment::segments;
use mj_relalg::Result;

use crate::allocation::max_useful_degree;
use crate::plan_ir::{OpId, OperandSource, ParallelPlan, PlanOp, ProcId, Split};
use crate::strategy::Strategy;

use super::{allocate_groups, GeneratorInput, PlanBuilder};

pub(crate) fn generate(input: &GeneratorInput<'_>) -> Result<ParallelPlan> {
    let mut b = PlanBuilder::new(input);
    let segmentation = segments(input.tree);
    let waves = segmentation.waves();
    let pool: Vec<ProcId> = (0..input.processors).collect();
    let algorithm = Strategy::RD.join_algorithm();

    // Ops of the previous wave; every op of the next wave waits for all of
    // them (processors are reallocated wholesale between waves).
    let mut prev_wave_ops: Vec<OpId> = Vec::new();

    for wave in waves {
        // Split the machine across this wave's independent segments,
        // proportionally to total segment work.
        let seg_weights: Vec<f64> = wave
            .iter()
            .map(|&s| {
                segmentation.segments[s]
                    .joins
                    .iter()
                    .map(|&j| input.costs.per_join[j])
                    .sum()
            })
            .collect();
        let (seg_pools, shared) = allocate_groups(&seg_weights, &pool, input.allow_oversubscribe)?;
        b.oversubscribed |= shared;

        let mut this_wave_ops: Vec<OpId> = Vec::new();
        for (&seg_idx, seg_pool) in wave.iter().zip(&seg_pools) {
            let seg = &segmentation.segments[seg_idx];
            let degree = group_degree(input, &seg.joins, seg_pool.len());
            if degree > 1 {
                // One process group over the whole segment: every join on
                // the same `degree` processors, the bottom probe split by
                // range, every build side shared, each member handing its
                // rows to the next in memory.
                let procs = &seg_pool[..degree];
                let mut lower: Option<OpId> = None;
                for &join in &seg.joins {
                    let (l, r) = input.tree.children(join).expect("join node");
                    let right = match lower {
                        None => b.operand(r, false),
                        Some(from) => OperandSource::Fused { from },
                    };
                    let op = b.op(
                        join,
                        procs.to_vec(),
                        b.operand(l, false),
                        right,
                        prev_wave_ops.clone(),
                    );
                    let id = b.push(PlanOp {
                        allocated: seg_pool.len(),
                        split: [Split::Shared, Split::Range],
                        ..op
                    });
                    lower = Some(id);
                    this_wave_ops.push(id);
                }
                continue;
            }

            // Processors within the segment: proportional to join work.
            let join_weights: Vec<f64> =
                seg.joins.iter().map(|&j| input.costs.per_join[j]).collect();
            let (join_pools, shared) =
                allocate_groups(&join_weights, seg_pool, input.allow_oversubscribe)?;
            b.oversubscribed |= shared;

            // Bottom-up along the segment: the right operand of the bottom
            // join is a base relation (guaranteed by segmentation); higher
            // joins receive the probe stream from the join below.
            let mut lower: Option<OpId> = None;
            for (&join, procs) in seg.joins.iter().zip(&join_pools) {
                let (l, r) = input.tree.children(join).expect("join node");
                let left = b.operand(l, false); // builds read base/materialized
                let right = match lower {
                    None => b.operand(r, false),
                    Some(from) => OperandSource::Stream { from },
                };
                let id = b.push_op(
                    join,
                    algorithm,
                    procs.clone(),
                    left,
                    right,
                    prev_wave_ops.clone(),
                );
                lower = Some(id);
                this_wave_ops.push(id);
            }
        }
        prev_wave_ops = this_wave_ops;
    }
    Ok(b.finish(Strategy::RD))
}

/// The degree a right-deep segment of `joins` runs at as one segment group
/// on `processors` processors: the grain rule over its summed work, capped
/// at the processors. One, meaning no group, under the paper's generator
/// (no grain), for a segment of a single join (whose degree its hash
/// partitioning already gives it), and wherever the work pays for only one
/// instance — there per-join processes and sub-grain fusion stay.
fn group_degree(input: &GeneratorInput<'_>, joins: &[usize], processors: usize) -> usize {
    if input.grain <= 0.0 || joins.len() < 2 {
        return 1;
    }
    let work = joins.iter().map(|&j| input.costs.per_join[j]).sum();
    max_useful_degree(work, input.grain).min(processors)
}

#[cfg(test)]
mod tests {
    use super::super::tests::fixture;
    use super::super::{generate as gen, GeneratorInput};
    use crate::plan_ir::OperandSource;
    use crate::strategy::Strategy;
    use mj_plan::shapes::Shape;
    use mj_relalg::JoinAlgorithm;

    #[test]
    fn right_linear_is_one_pipelined_wave() {
        let (tree, cards, costs) = fixture(Shape::RightLinear, 10, 100);
        let input = GeneratorInput::new(&tree, &cards, &costs, 40);
        let plan = gen(Strategy::RD, &input).unwrap();
        crate::validate::validate_plan(&plan).unwrap();
        // All 9 joins start immediately, processors partitioned.
        assert!(plan.ops.iter().all(|op| op.start_after.is_empty()));
        let total: usize = plan.ops.iter().map(|op| op.degree()).sum();
        assert_eq!(total, 40);
        // 8 pipeline edges up the spine.
        assert_eq!(plan.stats().pipeline_edges, 8);
        // Like FP, but with the simple join.
        assert!(plan
            .ops
            .iter()
            .all(|op| op.algorithm == JoinAlgorithm::Simple));
    }

    #[test]
    fn left_linear_degenerates_to_sp() {
        let (tree, cards, costs) = fixture(Shape::LeftLinear, 10, 100);
        let input = GeneratorInput::new(&tree, &cards, &costs, 40);
        let rd = gen(Strategy::RD, &input).unwrap();
        let sp = gen(Strategy::SP, &input).unwrap();
        assert_eq!(rd.ops.len(), sp.ops.len());
        for op in &rd.ops {
            assert_eq!(op.degree(), 40, "every singleton segment gets the machine");
        }
        assert_eq!(rd.stats().pipeline_edges, 0);
        assert_eq!(
            rd.stats().operation_processes,
            sp.stats().operation_processes
        );
    }

    #[test]
    fn example_tree_schedule_matches_figure_6() {
        // Wave 1: all processors on J4's segment; wave 2: the pipeline
        // 3 -> 5 -> 1 with processors split 3:5:1.
        let (tree, joins) = crate::example::example_tree();
        let weights = crate::example::example_weights();
        let mut per_join = vec![0.0; tree.nodes().len()];
        let mut total = 0.0;
        for (id, w) in &weights {
            per_join[*id] = *w;
            total += *w;
        }
        let costs = mj_plan::cost::TreeCosts { per_join, total };
        let cards = crate::example::example_cards(100);
        let input = GeneratorInput::new(&tree, &cards, &costs, 10);
        let plan = gen(Strategy::RD, &input).unwrap();
        crate::validate::validate_plan(&plan).unwrap();

        let op4 = plan.op_for_join(joins.j4).unwrap();
        assert_eq!(op4.degree(), 10, "join 4 gets the whole machine first");
        assert!(op4.start_after.is_empty());

        let op3 = plan.op_for_join(joins.j3).unwrap();
        let op5 = plan.op_for_join(joins.j5).unwrap();
        let op1 = plan.op_for_join(joins.j1).unwrap();
        assert_eq!(op3.degree() + op5.degree() + op1.degree(), 10);
        assert!(op5.degree() > op1.degree(), "5 outweighs 1");
        // The pipeline within the segment: 3 streams into 5 streams into 1.
        assert_eq!(op5.right, OperandSource::Stream { from: op3.id });
        assert_eq!(op1.right, OperandSource::Stream { from: op5.id });
        // J5 builds from J4's materialized output.
        assert_eq!(op5.left, OperandSource::Materialized { from: op4.id });
        // Wave barrier: the second wave waits for J4.
        for op in [op3, op5, op1] {
            assert!(op.start_after.contains(&op4.id));
        }
    }

    #[test]
    fn too_few_processors_errors_without_oversubscribe() {
        let (tree, cards, costs) = fixture(Shape::RightLinear, 10, 100);
        let input = GeneratorInput::new(&tree, &cards, &costs, 4);
        assert!(gen(Strategy::RD, &input).is_err());
        let mut relaxed = GeneratorInput::new(&tree, &cards, &costs, 4);
        relaxed.allow_oversubscribe = true;
        let plan = gen(Strategy::RD, &relaxed).unwrap();
        assert!(plan.oversubscribed);
        assert_eq!(plan.ops.len(), 9);
    }
}
