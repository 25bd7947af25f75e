//! Exhaustive bushy-tree dynamic programming over connected subgraphs.
//!
//! DPccp: every pair of connected, disjoint, edge-linked relation subsets
//! is one candidate join; [`for_each_csg`] × [`for_each_cmp`] emits each
//! such pair once, after every pair that builds either half, so one pass
//! fills a table with one entry per connected subset. Bushy trees matter
//! for parallel systems (\[KBZ86\], §1.2), and the paper's SE and FP
//! strategies only shine on them.
//!
//! Which of several equally cheap trees wins is pinned — the regular
//! chain's trees *all* cost 44N, and the tree shape decides the parallel
//! plan: the numerically smaller half of a split is the left child, and
//! among equal-cost splits of a subset the one with the numerically
//! largest left half wins. That is the tree the subset-walking DP this
//! replaced returned, and it does not depend on enumeration order.

use std::collections::HashMap;

use mj_relalg::{RelalgError, Result};

use crate::cost::CostModel;
use crate::tree::{JoinTree, JoinTreeBuilder, NodeId};

use super::csg::{for_each_cmp, for_each_csg};
use super::{charge_pair, OptimizedPlan, QueryGraph};

#[derive(Clone, Copy)]
struct Entry {
    cost: f64,
    card: f64,
    /// Left/right masks of the best split (0 for singletons).
    split: (u32, u32),
}

/// Finds the minimal-total-cost tree over all bushy trees without
/// cartesian products. Fails with [`RelalgError::PairBudgetExceeded`] on
/// a graph of more than [`PAIR_BUDGET`](super::PAIR_BUDGET) csg-cmp pairs.
pub fn optimize_bushy(graph: &QueryGraph, cost: &CostModel) -> Result<OptimizedPlan> {
    graph.check_optimizable()?;
    // Sparse: one entry per connected subset, keyed by its mask.
    let mut table: HashMap<u32, Entry> = HashMap::new();
    for (i, &card) in graph.cards().iter().enumerate() {
        let leaf = Entry {
            cost: 0.0,
            card: card as f64,
            split: (0, 0),
        };
        table.insert(1 << i, leaf);
    }

    let mut pairs = 0usize;
    for_each_csg(graph, &mut |s1| {
        // Both halves of a pair were emitted, and completed, before it.
        let e1 = table[&s1];
        for_each_cmp(graph, s1, &mut |s2| {
            charge_pair(&mut pairs)?;
            let e2 = table[&s2];
            let (lo, hi, e1, e2) = if s1 < s2 {
                (s1, s2, e1, e2)
            } else {
                (s2, s1, e2, e1)
            };
            let best = table.entry(lo | hi).or_insert_with(|| Entry {
                cost: f64::INFINITY,
                card: graph.subset_card(lo | hi),
                split: (0, 0),
            });
            let jc = cost.join_cost(
                e1.card as u64,
                lo.count_ones() == 1,
                e2.card as u64,
                hi.count_ones() == 1,
                best.card as u64,
            );
            let total = e1.cost + e2.cost + jc;
            let tie = total == best.cost && total < f64::INFINITY && lo > best.split.0;
            if total < best.cost || tie {
                best.cost = total;
                best.split = (lo, hi);
            }
            Ok(())
        })
    })?;

    let full = graph.full_mask();
    let total_cost = match table.get(&full) {
        Some(e) if e.cost < f64::INFINITY => e.cost,
        _ => {
            return Err(RelalgError::InvalidPlan(
                "no cartesian-free plan covers all relations".into(),
            ))
        }
    };

    let mut builder = JoinTree::builder();
    let mut node_cards = Vec::new();
    let root = reconstruct(graph, &table, full, &mut builder, &mut node_cards);
    let tree = builder.build(root)?;
    Ok(OptimizedPlan {
        tree,
        total_cost,
        node_cards,
        connected_subsets: table.len(),
        pairs_costed: pairs,
    })
}

fn reconstruct(
    graph: &QueryGraph,
    table: &HashMap<u32, Entry>,
    mask: u32,
    builder: &mut JoinTreeBuilder,
    cards: &mut Vec<u64>,
) -> NodeId {
    if mask.count_ones() == 1 {
        let i = mask.trailing_zeros() as usize;
        let id = builder.leaf(graph.names()[i].clone());
        debug_assert_eq!(id, cards.len());
        cards.push(graph.cards()[i]);
        return id;
    }
    let entry = table[&mask];
    let l = reconstruct(graph, table, entry.split.0, builder, cards);
    let r = reconstruct(graph, table, entry.split.1, builder, cards);
    let id = builder.join(l, r);
    debug_assert_eq!(id, cards.len());
    cards.push(entry.card as u64);
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{tree_costs, CostModel};

    #[test]
    fn regular_chain_reaches_the_invariant_optimum() {
        let n = 5000u64;
        let g = QueryGraph::regular_chain(10, n).unwrap();
        let plan = optimize_bushy(&g, &CostModel::default()).unwrap();
        // Every cartesian-free tree of the regular query costs 44N.
        assert!((plan.total_cost - 44.0 * n as f64).abs() < 1e-6);
        assert_eq!(plan.tree.join_count(), 9);
        assert_eq!(plan.tree.leaf_count(), 10);
        assert!(plan.tree.validate().is_ok());
    }

    #[test]
    fn reconstructed_tree_cost_matches_dp_cost() {
        let mut g = QueryGraph::new();
        let a = g.add_relation("A", 1000).unwrap();
        let b = g.add_relation("B", 50).unwrap();
        let c = g.add_relation("C", 2000).unwrap();
        let d = g.add_relation("D", 10).unwrap();
        g.add_edge(a, b, 0.01).unwrap();
        g.add_edge(b, c, 0.001).unwrap();
        g.add_edge(c, d, 0.1).unwrap();
        g.add_edge(a, d, 0.02).unwrap();
        let plan = optimize_bushy(&g, &CostModel::default()).unwrap();
        let recomputed = tree_costs(&plan.tree, &plan.node_cards, &CostModel::default());
        // Rounding cards to u64 inside join_cost can cause tiny drift.
        let rel_err = (recomputed.total - plan.total_cost).abs() / plan.total_cost.max(1.0);
        assert!(
            rel_err < 0.01,
            "dp={} recomputed={}",
            plan.total_cost,
            recomputed.total
        );
    }

    #[test]
    fn star_query_prefers_small_intermediates() {
        // Star: F(1M) joined to three small dims. Best plans join F with
        // the most selective dimension edges first.
        let mut g = QueryGraph::new();
        let f = g.add_relation("F", 1_000_000).unwrap();
        let d1 = g.add_relation("D1", 100).unwrap();
        let d2 = g.add_relation("D2", 100).unwrap();
        let d3 = g.add_relation("D3", 100).unwrap();
        g.add_edge(f, d1, 1e-6).unwrap();
        g.add_edge(f, d2, 1e-4).unwrap();
        g.add_edge(f, d3, 1e-2).unwrap();
        let plan = optimize_bushy(&g, &CostModel::default()).unwrap();
        assert!(plan.tree.validate().is_ok());
        assert_eq!(plan.tree.leaf_count(), 4);
        assert!(plan.total_cost.is_finite());
    }

    #[test]
    fn two_relations() {
        let g = QueryGraph::regular_chain(2, 100).unwrap();
        let plan = optimize_bushy(&g, &CostModel::default()).unwrap();
        assert_eq!(plan.tree.join_count(), 1);
        // 100 + 100 + 2*100 = 400.
        assert!((plan.total_cost - 400.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let g = QueryGraph::regular_chain(8, 1000).unwrap();
        let a = optimize_bushy(&g, &CostModel::default()).unwrap();
        let b = optimize_bushy(&g, &CostModel::default()).unwrap();
        assert_eq!(a.tree, b.tree);
    }
}
