//! The paper's cost function (§4.3).
//!
//! For a join with operand cardinalities `n1`, `n2` and result cardinality
//! `r`:
//!
//! ```text
//! cost = a·n1 + b·n2 + c·r
//! ```
//!
//! where `a`/`b` are 1 if the operand is a base relation and 2 if it is an
//! intermediate result, and `c` = 2. The unit is "one action on one tuple"
//! (hashing, network receive, result construction, network send). The paper
//! deliberately keeps this simple: parallelization itself perturbs true
//! costs, so precision would be illusory — "our experiments will show,
//! however, that the cost estimate used generates execution plans with good
//! parallel behavior."

use crate::tree::{JoinTree, NodeId, TreeNode};

/// Coefficients of the paper's cost formula.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Per-tuple cost of a base-relation operand (hash only). Paper: 1.
    pub base_operand: f64,
    /// Per-tuple cost of an intermediate operand (receive + hash). Paper: 2.
    pub intermediate_operand: f64,
    /// Per-tuple cost of a result (create + send). Paper: 2.
    pub result: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            base_operand: 1.0,
            intermediate_operand: 2.0,
            result: 2.0,
        }
    }
}

impl CostModel {
    /// Cost of a single join.
    pub fn join_cost(
        &self,
        n1: u64,
        left_is_base: bool,
        n2: u64,
        right_is_base: bool,
        r: u64,
    ) -> f64 {
        let a = if left_is_base {
            self.base_operand
        } else {
            self.intermediate_operand
        };
        let b = if right_is_base {
            self.base_operand
        } else {
            self.intermediate_operand
        };
        a * n1 as f64 + b * n2 as f64 + self.result * r as f64
    }
}

/// Per-join and total costs of a tree.
#[derive(Clone, Debug, PartialEq)]
pub struct TreeCosts {
    /// Cost per node id (0.0 for leaves).
    pub per_join: Vec<f64>,
    /// Sum over all joins.
    pub total: f64,
}

/// Computes the paper's costs for every join of `tree`, given per-node
/// cardinalities (from [`crate::cardinality::node_cards`]).
pub fn tree_costs(tree: &JoinTree, cards: &[u64], model: &CostModel) -> TreeCosts {
    assert_eq!(cards.len(), tree.nodes().len(), "one cardinality per node");
    let mut per_join = vec![0.0; tree.nodes().len()];
    let mut total = 0.0;
    for (id, node) in tree.nodes().iter().enumerate() {
        if let TreeNode::Join { left, right } = node {
            let c = model.join_cost(
                cards[*left],
                tree.is_leaf(*left),
                cards[*right],
                tree.is_leaf(*right),
                cards[id],
            );
            per_join[id] = c;
            total += c;
        }
    }
    TreeCosts { per_join, total }
}

/// The per-join costs restricted to join nodes, as `(id, cost)` pairs in
/// bottom-up order — handy for display and allocation.
pub fn join_costs_bottom_up(tree: &JoinTree, costs: &TreeCosts) -> Vec<(NodeId, f64)> {
    tree.joins_bottom_up()
        .into_iter()
        .map(|id| (id, costs.per_join[id]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::{node_cards, CardModel, UniformOneToOne};
    use crate::shapes::{build, Shape};

    fn costs_of(tree: &JoinTree, model: &dyn CardModel) -> TreeCosts {
        tree_costs(tree, &node_cards(tree, model), &CostModel::default())
    }

    /// §4.1: "All possible join trees for this query have the same total
    /// execution costs." For k relations of N tuples: 9 joins emit 2N each
    /// (18N for k=10), 10 base-operand slots cost N each, 8 intermediate
    /// slots cost 2N each — 44N total, independent of shape.
    #[test]
    fn regular_query_total_cost_is_shape_invariant_44n() {
        let n = 5000u64;
        for shape in Shape::ALL {
            let tree = build(shape, 10).unwrap();
            let costs = costs_of(&tree, &UniformOneToOne { n });
            assert_eq!(costs.total, 44.0 * n as f64, "{shape}");
        }
    }

    #[test]
    fn invariance_generalizes_in_k() {
        // k relations: joins = k-1, result slots = k-1, base slots = k,
        // intermediate slots = k-2 -> total = (2(k-1) + k + 2(k-2))N = (5k-6)N.
        let n = 1000u64;
        for k in [2usize, 3, 5, 8, 10, 12] {
            let expected = (5 * k - 6) as f64 * n as f64;
            for shape in Shape::ALL {
                let tree = build(shape, k).unwrap();
                let costs = costs_of(&tree, &UniformOneToOne { n });
                assert_eq!(costs.total, expected, "{shape} k={k}");
            }
        }
    }

    #[test]
    fn per_join_costs_distinguish_base_and_intermediate() {
        let tree = build(Shape::RightLinear, 3).unwrap();
        let costs = costs_of(&tree, &UniformOneToOne { n: 100 });
        let joins = join_costs_bottom_up(&tree, &costs);
        // Bottom join: two base operands: 1+1+2 = 4 units * 100.
        assert_eq!(joins[0].1, 400.0);
        // Root: base left, intermediate right: 1+2+2 = 5 units * 100.
        assert_eq!(joins[1].1, 500.0);
    }

    #[test]
    fn custom_cost_model() {
        let m = CostModel {
            base_operand: 1.0,
            intermediate_operand: 3.0,
            result: 0.5,
        };
        assert_eq!(m.join_cost(10, true, 20, false, 4), 10.0 + 60.0 + 2.0);
    }
}
