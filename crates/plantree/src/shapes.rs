//! The five experimental query-tree shapes of Fig. 8.
//!
//! All shapes join the same `k` relations `R0..R{k-1}`; under the paper's
//! cost function they all have the same total cost for the regular
//! Wisconsin query (44·N for k = 10 — pinned by a test in [`crate::cost`]),
//! so response-time differences between them are attributable purely to
//! parallelization.

use std::fmt;

use mj_relalg::{RelalgError, Result};

use crate::transform::mirror;
use crate::tree::{JoinTree, NodeId};

/// The five shapes used in the experiments (Fig. 8, left to right).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Every join's right operand is a base relation; the pipeline runs up
    /// the left spine.
    LeftLinear,
    /// A left-oriented long bushy tree: a left spine whose right operands
    /// are two-relation joins.
    LeftBushy,
    /// A balanced (wide) bushy tree.
    WideBushy,
    /// Mirror image of [`Shape::LeftBushy`].
    RightBushy,
    /// Mirror image of [`Shape::LeftLinear`].
    RightLinear,
}

impl Shape {
    /// All five shapes in the paper's presentation order.
    pub const ALL: [Shape; 5] = [
        Shape::LeftLinear,
        Shape::LeftBushy,
        Shape::WideBushy,
        Shape::RightBushy,
        Shape::RightLinear,
    ];

    /// Short label used in reports ("left linear", ...).
    pub fn label(&self) -> &'static str {
        match self {
            Shape::LeftLinear => "left linear",
            Shape::LeftBushy => "left bushy",
            Shape::WideBushy => "wide bushy",
            Shape::RightBushy => "right bushy",
            Shape::RightLinear => "right linear",
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

fn relation_names(k: usize) -> Vec<String> {
    (0..k).map(|i| format!("R{i}")).collect()
}

/// Builds the given shape over `k >= 2` relations named `R0..R{k-1}`.
pub fn build(shape: Shape, k: usize) -> Result<JoinTree> {
    if k < 2 {
        return Err(RelalgError::InvalidPlan(format!(
            "a multi-join needs >=2 relations, got {k}"
        )));
    }
    let names = relation_names(k);
    let tree = match shape {
        Shape::RightLinear => right_linear(&names),
        Shape::LeftLinear => mirror(&right_linear(&names)),
        Shape::RightBushy => right_bushy(&names),
        Shape::LeftBushy => mirror(&right_bushy(&names)),
        Shape::WideBushy => wide_bushy(&names),
    };
    tree.validate()?;
    Ok(tree)
}

/// Right-linear: `R0 ⋈ (R1 ⋈ (R2 ⋈ ...))`. Every left operand is a base
/// relation, so with simple hash joins all builds can proceed in parallel
/// and one probe pipeline runs bottom-to-top (\[Sch90\]).
fn right_linear(names: &[String]) -> JoinTree {
    let mut b = JoinTree::builder();
    let leaves: Vec<NodeId> = names.iter().map(|n| b.leaf(n.clone())).collect();
    // Build from the bottom: deepest join is R{k-2} ⋈ R{k-1}.
    let mut acc = *leaves.last().expect("k >= 2");
    for &leaf in leaves[..leaves.len() - 1].iter().rev() {
        acc = b.join(leaf, acc);
    }
    b.build(acc).expect("construction is valid")
}

/// Right-oriented long bushy: a right spine whose left operands are
/// two-relation joins where possible. For 10 relations this yields the
/// paper's "right-oriented long bushy" tree: 4 pair-joins feeding a
/// 5-join spine.
fn right_bushy(names: &[String]) -> JoinTree {
    let mut b = JoinTree::builder();
    let leaves: Vec<NodeId> = names.iter().map(|n| b.leaf(n.clone())).collect();
    let k = leaves.len();
    // Bottom of the spine: R{k-2} ⋈ R{k-1}.
    let mut acc = b.join(leaves[k - 2], leaves[k - 1]);
    // Remaining leaves R0..R{k-3}, consumed from the deepest end in pairs;
    // each pair becomes a small join used as the left operand of the spine.
    let mut rest = k - 2;
    while rest > 0 {
        if rest >= 2 {
            let pair = b.join(leaves[rest - 2], leaves[rest - 1]);
            acc = b.join(pair, acc);
            rest -= 2;
        } else {
            acc = b.join(leaves[0], acc);
            rest -= 1;
        }
    }
    b.build(acc).expect("construction is valid")
}

/// Wide (balanced) bushy: pair up relations level by level.
fn wide_bushy(names: &[String]) -> JoinTree {
    let mut b = JoinTree::builder();
    let mut level: Vec<NodeId> = names.iter().map(|n| b.leaf(n.clone())).collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len() / 2 + 1);
        let mut it = level.chunks_exact(2);
        for pair in &mut it {
            next.push(b.join(pair[0], pair[1]));
        }
        // Carry an odd node up unchanged.
        next.extend(it.remainder().iter().copied());
        level = next;
    }
    b.build(level[0]).expect("construction is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_shapes_have_k_minus_1_joins() {
        for shape in Shape::ALL {
            for k in [2, 3, 5, 10] {
                let t = build(shape, k).unwrap();
                assert_eq!(t.join_count(), k - 1, "{shape} k={k}");
                assert_eq!(t.leaf_count(), k, "{shape} k={k}");
                let mut leaves = t.leaves_in_order();
                leaves.sort();
                let mut expected: Vec<String> = relation_names(k);
                expected.sort();
                assert_eq!(
                    leaves,
                    expected.iter().map(String::as_str).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn too_few_relations_rejected() {
        assert!(build(Shape::WideBushy, 1).is_err());
        assert!(build(Shape::WideBushy, 0).is_err());
    }

    #[test]
    fn linear_trees_have_full_depth() {
        let t = build(Shape::RightLinear, 10).unwrap();
        assert_eq!(t.depth(), 9);
        assert_eq!(
            t.right_spine_len(),
            9,
            "right-linear has one long right spine"
        );
        let t = build(Shape::LeftLinear, 10).unwrap();
        assert_eq!(t.depth(), 9);
        assert_eq!(
            t.right_spine_len(),
            1,
            "left-linear's right children are leaves"
        );
    }

    #[test]
    fn wide_bushy_is_shallow() {
        let t = build(Shape::WideBushy, 10).unwrap();
        assert_eq!(t.depth(), 4, "ceil(log2(10)) = 4");
    }

    #[test]
    fn oriented_bushy_depth_between_wide_and_linear() {
        let wide = build(Shape::WideBushy, 10).unwrap().depth();
        let right = build(Shape::RightBushy, 10).unwrap().depth();
        let linear = build(Shape::RightLinear, 10).unwrap().depth();
        assert!(
            wide < right && right < linear,
            "{wide} < {right} < {linear}"
        );
    }

    #[test]
    fn right_bushy_spine_is_long() {
        let t = build(Shape::RightBushy, 10).unwrap();
        // 4 pair joins + the bottom pair join on the spine: spine joins = 5.
        assert_eq!(t.right_spine_len(), 5);
    }

    #[test]
    fn left_shapes_mirror_right_shapes() {
        for (l, r) in [
            (Shape::LeftLinear, Shape::RightLinear),
            (Shape::LeftBushy, Shape::RightBushy),
        ] {
            let lt = build(l, 10).unwrap();
            let rt = build(r, 10).unwrap();
            assert_eq!(lt.depth(), rt.depth());
            assert_eq!(mirror(&lt).right_spine_len(), rt.right_spine_len());
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Shape::WideBushy.label(), "wide bushy");
        assert_eq!(Shape::ALL.len(), 5);
        assert_eq!(format!("{}", Shape::LeftLinear), "left linear");
    }
}
