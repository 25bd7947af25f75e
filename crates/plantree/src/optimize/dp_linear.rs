//! System-R style dynamic programming restricted to left-deep (linear)
//! trees \[SAC79\] — the classical baseline the paper contrasts with bushy
//! optimization (§1.2).

use std::collections::HashMap;

use mj_relalg::{RelalgError, Result};

use crate::cost::CostModel;
use crate::tree::JoinTree;

use super::csg::for_each_csg;
use super::{charge_pair, OptimizedPlan, QueryGraph};

#[derive(Clone, Copy)]
struct Entry {
    cost: f64,
    card: f64,
    /// The relation appended last to reach this mask.
    last: usize,
}

/// Finds the minimal-total-cost *left-deep* tree without cartesian
/// products: every join's right operand is a base relation. A left-deep
/// step is a connected subset `S` minus one relation `r` that leaves
/// `S∖r` connected, so the DP runs over the same connected-subset
/// enumeration as the bushy DP and shares its budget: more than
/// [`PAIR_BUDGET`](super::PAIR_BUDGET) steps fail with
/// [`RelalgError::PairBudgetExceeded`].
pub fn optimize_linear(graph: &QueryGraph, cost: &CostModel) -> Result<OptimizedPlan> {
    graph.check_optimizable()?;
    let n = graph.len();
    // Sparse: one entry per connected subset, keyed by its mask.
    let mut table: HashMap<u32, Entry> = HashMap::new();
    let mut steps = 0usize;
    for_each_csg(graph, &mut |mask| {
        if mask.count_ones() == 1 {
            let i = mask.trailing_zeros() as usize;
            let leaf = Entry {
                cost: 0.0,
                card: graph.cards()[i] as f64,
                last: i,
            };
            table.insert(mask, leaf);
            return Ok(());
        }
        let card = graph.subset_card(mask);
        let mut best = Entry {
            cost: f64::INFINITY,
            card,
            last: usize::MAX,
        };
        let mut rels = mask;
        while rels != 0 {
            let r = rels.trailing_zeros() as usize;
            rels &= rels - 1;
            let prev = mask & !(1u32 << r);
            // Present means connected — and then `r`, a member of the
            // connected `mask`, has an edge into it.
            let Some(pe) = table.get(&prev) else {
                continue;
            };
            charge_pair(&mut steps)?;
            let jc = cost.join_cost(
                pe.card as u64,
                prev.count_ones() == 1,
                graph.cards()[r],
                true,
                card as u64,
            );
            let total = pe.cost + jc;
            if total < best.cost {
                best.cost = total;
                best.last = r;
            }
        }
        if best.last != usize::MAX {
            table.insert(mask, best);
        }
        Ok(())
    })?;

    let full = graph.full_mask();
    let Some(total_cost) = table.get(&full).map(|e| e.cost) else {
        return Err(RelalgError::InvalidPlan(
            "no cartesian-free linear plan covers all relations".into(),
        ));
    };

    // Recover the join order (last relation first), then build the tree.
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    while mask.count_ones() > 1 {
        let last = table[&mask].last;
        order.push(last);
        mask &= !(1u32 << last);
    }
    order.push(mask.trailing_zeros() as usize);
    order.reverse();

    let mut builder = JoinTree::builder();
    let mut node_cards: Vec<u64> = Vec::new();
    let mut acc = builder.leaf(graph.names()[order[0]].clone());
    node_cards.push(graph.cards()[order[0]]);
    let mut acc_mask = 1u32 << order[0];
    for &r in &order[1..] {
        let leaf = builder.leaf(graph.names()[r].clone());
        node_cards.push(graph.cards()[r]);
        acc_mask |= 1u32 << r;
        acc = builder.join(acc, leaf);
        node_cards.push(graph.subset_card(acc_mask) as u64);
    }
    let tree = builder.build(acc)?;
    Ok(OptimizedPlan {
        tree,
        total_cost,
        node_cards,
        connected_subsets: table.len(),
        pairs_costed: steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::optimize_bushy;

    #[test]
    fn produces_left_deep_trees() {
        let g = QueryGraph::regular_chain(6, 100).unwrap();
        let plan = optimize_linear(&g, &CostModel::default()).unwrap();
        // Left-deep: right child of every join is a leaf.
        let t = &plan.tree;
        for j in t.joins_bottom_up() {
            let (_, right) = t.children(j).unwrap();
            assert!(t.is_leaf(right), "join {j} has non-leaf right child");
        }
        assert_eq!(t.right_spine_len(), 1);
    }

    #[test]
    fn regular_chain_cost_matches_invariant() {
        let n = 1000u64;
        let g = QueryGraph::regular_chain(10, n).unwrap();
        let plan = optimize_linear(&g, &CostModel::default()).unwrap();
        assert!((plan.total_cost - 44.0 * n as f64).abs() < 1e-6);
    }

    #[test]
    fn never_beats_bushy() {
        let mut g = QueryGraph::new();
        let a = g.add_relation("A", 500).unwrap();
        let b = g.add_relation("B", 40).unwrap();
        let c = g.add_relation("C", 700).unwrap();
        let d = g.add_relation("D", 90).unwrap();
        let e = g.add_relation("E", 120).unwrap();
        g.add_edge(a, b, 0.01).unwrap();
        g.add_edge(b, c, 0.005).unwrap();
        g.add_edge(c, d, 0.02).unwrap();
        g.add_edge(d, e, 0.03).unwrap();
        g.add_edge(a, e, 0.001).unwrap();
        let linear = optimize_linear(&g, &CostModel::default()).unwrap();
        let bushy = optimize_bushy(&g, &CostModel::default()).unwrap();
        assert!(
            bushy.total_cost <= linear.total_cost + 1e-6,
            "bushy {} > linear {}",
            bushy.total_cost,
            linear.total_cost
        );
    }

    #[test]
    fn disconnected_rejected() {
        let mut g = QueryGraph::new();
        g.add_relation("A", 10).unwrap();
        g.add_relation("B", 10).unwrap();
        assert!(optimize_linear(&g, &CostModel::default()).is_err());
    }

    #[test]
    fn node_cards_cover_every_node() {
        let g = QueryGraph::regular_chain(5, 100).unwrap();
        let plan = optimize_linear(&g, &CostModel::default()).unwrap();
        assert_eq!(plan.node_cards.len(), plan.tree.nodes().len());
        // Regular chain: every intermediate is 100 tuples.
        for (id, node) in plan.tree.nodes().iter().enumerate() {
            if matches!(node, crate::tree::TreeNode::Join { .. }) {
                assert_eq!(plan.node_cards[id], 100, "node {id}");
            }
        }
    }
}
