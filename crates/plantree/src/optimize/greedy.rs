//! Greedy phase-1 heuristic: repeatedly join the connected pair of
//! components whose result is smallest (ties broken by join cost, then by
//! component indices for determinism). In the spirit of the partially
//! heuristic algorithms of [LST91, SWG88] that "aim at limiting the time
//! spent on searching the space of possible query trees" (§1.2).

use mj_relalg::{RelalgError, Result};

use crate::cost::CostModel;
use crate::tree::{JoinTree, NodeId};

use super::{OptimizedPlan, QueryGraph};

struct Component {
    mask: u32,
    node: NodeId,
    card: f64,
}

/// Builds a join tree greedily. Runs in O(k^3) for k relations, however
/// dense the graph — the fallback when [`optimize_bushy`]'s pair budget
/// runs out.
///
/// [`optimize_bushy`]: super::optimize_bushy
pub fn greedy_tree(graph: &QueryGraph, cost: &CostModel) -> Result<OptimizedPlan> {
    if graph.len() < 2 {
        return Err(RelalgError::InvalidPlan(
            "optimizer needs >= 2 relations".into(),
        ));
    }
    if graph.len() > 32 {
        return Err(RelalgError::InvalidPlan(
            "greedy optimizer supports <= 32 relations".into(),
        ));
    }
    if !graph.is_connected() {
        return Err(RelalgError::InvalidPlan(
            "query graph is disconnected (cartesian products are not enumerated)".into(),
        ));
    }

    let mut builder = JoinTree::builder();
    let mut node_cards: Vec<u64> = Vec::new();
    let mut comps: Vec<Component> = (0..graph.len())
        .map(|i| {
            let node = builder.leaf(graph.names()[i].clone());
            node_cards.push(graph.cards()[i]);
            Component {
                mask: 1 << i,
                node,
                card: graph.cards()[i] as f64,
            }
        })
        .collect();
    let mut total_cost = 0.0;

    while comps.len() > 1 {
        // Find the connected pair with the smallest result cardinality.
        let mut best: Option<(usize, usize, f64, f64)> = None; // (i, j, result_card, join_cost)
        for i in 0..comps.len() {
            for j in i + 1..comps.len() {
                if !graph.connects(comps[i].mask, comps[j].mask) {
                    continue;
                }
                let result = graph.subset_card(comps[i].mask | comps[j].mask);
                let jc = cost.join_cost(
                    comps[i].card as u64,
                    comps[i].mask.count_ones() == 1,
                    comps[j].card as u64,
                    comps[j].mask.count_ones() == 1,
                    result as u64,
                );
                let better = match best {
                    None => true,
                    Some((_, _, bc, bj)) => {
                        result < bc - 1e-12 || ((result - bc).abs() <= 1e-12 && jc < bj)
                    }
                };
                if better {
                    best = Some((i, j, result, jc));
                }
            }
        }
        let (i, j, result, jc) = best.expect("connected graph always has a joinable pair");
        total_cost += jc;
        let joined = builder.join(comps[i].node, comps[j].node);
        node_cards.push(result as u64);
        let merged = Component {
            mask: comps[i].mask | comps[j].mask,
            node: joined,
            card: result,
        };
        // Remove j first (j > i) to keep indices valid.
        comps.remove(j);
        comps.remove(i);
        comps.push(merged);
    }

    let tree = builder.build(comps[0].node)?;
    Ok(OptimizedPlan {
        tree,
        total_cost,
        node_cards,
        connected_subsets: 0,
        pairs_costed: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::optimize_bushy;

    #[test]
    fn regular_chain_reaches_the_invariant_optimum() {
        let n = 777u64;
        let g = QueryGraph::regular_chain(10, n).unwrap();
        let plan = greedy_tree(&g, &CostModel::default()).unwrap();
        assert!((plan.total_cost - 44.0 * n as f64).abs() < 1e-6);
        assert_eq!(plan.tree.join_count(), 9);
        assert!(plan.tree.validate().is_ok());
    }

    #[test]
    fn never_beats_exhaustive_dp() {
        let mut g = QueryGraph::new();
        let a = g.add_relation("A", 900).unwrap();
        let b = g.add_relation("B", 30).unwrap();
        let c = g.add_relation("C", 4000).unwrap();
        let d = g.add_relation("D", 75).unwrap();
        g.add_edge(a, b, 0.02).unwrap();
        g.add_edge(b, c, 0.0005).unwrap();
        g.add_edge(c, d, 0.01).unwrap();
        let greedy = greedy_tree(&g, &CostModel::default()).unwrap();
        let bushy = optimize_bushy(&g, &CostModel::default()).unwrap();
        assert!(bushy.total_cost <= greedy.total_cost + 1e-6);
    }

    #[test]
    fn handles_wide_graphs() {
        let g = QueryGraph::regular_chain(24, 50).unwrap();
        let plan = greedy_tree(&g, &CostModel::default()).unwrap();
        assert_eq!(plan.tree.join_count(), 23);
    }

    #[test]
    fn deterministic() {
        let g = QueryGraph::regular_chain(12, 100).unwrap();
        let a = greedy_tree(&g, &CostModel::default()).unwrap();
        let b = greedy_tree(&g, &CostModel::default()).unwrap();
        assert_eq!(a.tree, b.tree);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let mut g = QueryGraph::new();
        g.add_relation("A", 1).unwrap();
        assert!(greedy_tree(&g, &CostModel::default()).is_err());
    }
}
