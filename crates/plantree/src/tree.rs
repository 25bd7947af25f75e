//! Arena-based binary join trees.
//!
//! Nodes live in a flat arena and are referenced by [`NodeId`]; children are
//! always created before their parents, so node ids are a valid topological
//! (bottom-up) order — a property the strategy generators and the simulator
//! rely on when walking trees.

use mj_relalg::{RelalgError, Result};

/// Index of a node within its [`JoinTree`] arena.
pub type NodeId = usize;

/// One node of a join tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeNode {
    /// A base relation.
    Leaf {
        /// Catalog name of the relation.
        relation: String,
    },
    /// A binary join of two subtrees.
    Join {
        /// Left child (the *build* operand of the simple hash join).
        left: NodeId,
        /// Right child (the *probe* operand).
        right: NodeId,
    },
}

/// A binary join tree over named base relations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinTree {
    nodes: Vec<TreeNode>,
    root: NodeId,
}

impl JoinTree {
    /// Builder: creates an empty tree (no valid root until nodes exist).
    pub fn builder() -> JoinTreeBuilder {
        JoinTreeBuilder { nodes: Vec::new() }
    }

    /// Builds the tree `relation` (single leaf) — the degenerate case.
    pub fn single(relation: impl Into<String>) -> JoinTree {
        JoinTree {
            nodes: vec![TreeNode::Leaf {
                relation: relation.into(),
            }],
            root: 0,
        }
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// All nodes (indexable by [`NodeId`]).
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> Result<&TreeNode> {
        self.nodes.get(id).ok_or(RelalgError::IndexOutOfBounds {
            index: id,
            arity: self.nodes.len(),
        })
    }

    /// True if `id` is a leaf.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        matches!(self.nodes.get(id), Some(TreeNode::Leaf { .. }))
    }

    /// Children of a join node, or `None` for leaves.
    pub fn children(&self, id: NodeId) -> Option<(NodeId, NodeId)> {
        match self.nodes.get(id) {
            Some(TreeNode::Join { left, right }) => Some((*left, *right)),
            _ => None,
        }
    }

    /// Number of join (inner) nodes.
    pub fn join_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, TreeNode::Join { .. }))
            .count()
    }

    /// Number of leaves (base relations).
    pub fn leaf_count(&self) -> usize {
        self.nodes.len() - self.join_count()
    }

    /// Join node ids in bottom-up (children before parents) order.
    pub fn joins_bottom_up(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.join_count());
        self.postorder_from(self.root, &mut |id| {
            if !self.is_leaf(id) {
                out.push(id);
            }
        });
        out
    }

    /// Leaf relation names in left-to-right order.
    pub fn leaves_in_order(&self) -> Vec<&str> {
        let mut out = Vec::with_capacity(self.leaf_count());
        self.postorder_from(self.root, &mut |id| {
            if let Some(TreeNode::Leaf { relation }) = self.nodes.get(id) {
                out.push(relation.as_str());
            }
        });
        out
    }

    /// Applies `f` to every node reachable from `from` in postorder
    /// (left, right, node).
    pub fn postorder_from<F: FnMut(NodeId)>(&self, from: NodeId, f: &mut F) {
        match &self.nodes[from] {
            TreeNode::Leaf { .. } => f(from),
            TreeNode::Join { left, right } => {
                self.postorder_from(*left, f);
                self.postorder_from(*right, f);
                f(from);
            }
        }
    }

    /// Depth of the tree in join nodes (a leaf has depth 0).
    pub fn depth(&self) -> usize {
        self.depth_of(self.root)
    }

    fn depth_of(&self, id: NodeId) -> usize {
        match self.children(id) {
            None => 0,
            Some((l, r)) => 1 + self.depth_of(l).max(self.depth_of(r)),
        }
    }

    /// Length of the chain from the root following only right children,
    /// counting join nodes — the length of the root's right-deep segment.
    pub fn right_spine_len(&self) -> usize {
        let mut len = 0;
        let mut cur = self.root;
        while let Some((_, r)) = self.children(cur) {
            len += 1;
            cur = r;
        }
        len
    }

    /// Parent of each node (`None` for the root). O(n).
    pub fn parents(&self) -> Vec<Option<NodeId>> {
        let mut parents = vec![None; self.nodes.len()];
        for (id, n) in self.nodes.iter().enumerate() {
            if let TreeNode::Join { left, right } = n {
                parents[*left] = Some(id);
                parents[*right] = Some(id);
            }
        }
        parents
    }

    /// Structural validation: every child id is in range and smaller than
    /// its parent, every non-root node has exactly one parent, and the root
    /// reaches all nodes.
    pub fn validate(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(RelalgError::InvalidPlan("empty join tree".into()));
        }
        if self.root >= self.nodes.len() {
            return Err(RelalgError::InvalidPlan("root out of range".into()));
        }
        let mut seen = vec![0usize; self.nodes.len()];
        for (id, n) in self.nodes.iter().enumerate() {
            if let TreeNode::Join { left, right } = n {
                for &c in [left, right].iter() {
                    if *c >= id {
                        return Err(RelalgError::InvalidPlan(format!(
                            "child {c} not created before parent {id}"
                        )));
                    }
                    seen[*c] += 1;
                }
                if left == right {
                    return Err(RelalgError::InvalidPlan(format!("join {id} repeats child")));
                }
            }
        }
        for (id, &count) in seen.iter().enumerate() {
            let expected = usize::from(id != self.root);
            if count != expected {
                return Err(RelalgError::InvalidPlan(format!(
                    "node {id} has {count} parents, expected {expected}"
                )));
            }
        }
        let mut reached = 0usize;
        self.postorder_from(self.root, &mut |_| reached += 1);
        if reached != self.nodes.len() {
            return Err(RelalgError::InvalidPlan(
                "root does not reach all nodes".into(),
            ));
        }
        Ok(())
    }
}

/// Incremental bottom-up tree builder.
pub struct JoinTreeBuilder {
    nodes: Vec<TreeNode>,
}

impl JoinTreeBuilder {
    /// Adds a leaf, returning its id.
    pub fn leaf(&mut self, relation: impl Into<String>) -> NodeId {
        self.nodes.push(TreeNode::Leaf {
            relation: relation.into(),
        });
        self.nodes.len() - 1
    }

    /// Adds a join of two existing nodes, returning its id.
    pub fn join(&mut self, left: NodeId, right: NodeId) -> NodeId {
        debug_assert!(left < self.nodes.len() && right < self.nodes.len());
        self.nodes.push(TreeNode::Join { left, right });
        self.nodes.len() - 1
    }

    /// Finishes the tree with `root` as its root, validating structure.
    pub fn build(self, root: NodeId) -> Result<JoinTree> {
        let tree = JoinTree {
            nodes: self.nodes,
            root,
        };
        tree.validate()?;
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `((R0 ⋈ R1) ⋈ (R2 ⋈ R3))`
    fn bushy4() -> JoinTree {
        let mut b = JoinTree::builder();
        let r0 = b.leaf("R0");
        let r1 = b.leaf("R1");
        let r2 = b.leaf("R2");
        let r3 = b.leaf("R3");
        let j01 = b.join(r0, r1);
        let j23 = b.join(r2, r3);
        let root = b.join(j01, j23);
        b.build(root).unwrap()
    }

    #[test]
    fn counts_and_depth() {
        let t = bushy4();
        assert_eq!(t.join_count(), 3);
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.right_spine_len(), 2);
    }

    #[test]
    fn traversals() {
        let t = bushy4();
        assert_eq!(t.leaves_in_order(), vec!["R0", "R1", "R2", "R3"]);
        let joins = t.joins_bottom_up();
        assert_eq!(joins.len(), 3);
        // Children before parents.
        let root = t.root();
        assert_eq!(*joins.last().unwrap(), root);
    }

    #[test]
    fn parents_map() {
        let t = bushy4();
        let parents = t.parents();
        assert_eq!(parents[t.root()], None);
        let (l, r) = t.children(t.root()).unwrap();
        assert_eq!(parents[l], Some(t.root()));
        assert_eq!(parents[r], Some(t.root()));
    }

    #[test]
    fn single_leaf_tree() {
        let t = JoinTree::single("R");
        assert!(t.validate().is_ok());
        assert_eq!(t.join_count(), 0);
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn validate_rejects_bad_structures() {
        // Dangling node: two leaves but root only reaches one.
        let mut b = JoinTree::builder();
        let _r0 = b.leaf("R0");
        let r1 = b.leaf("R1");
        assert!(b.build(r1).is_err());

        // Repeated child.
        let tree = JoinTree {
            nodes: vec![
                TreeNode::Leaf {
                    relation: "R".into(),
                },
                TreeNode::Join { left: 0, right: 0 },
            ],
            root: 1,
        };
        assert!(tree.validate().is_err());

        // Child after parent.
        let tree = JoinTree {
            nodes: vec![
                TreeNode::Join { left: 1, right: 2 },
                TreeNode::Leaf {
                    relation: "A".into(),
                },
                TreeNode::Leaf {
                    relation: "B".into(),
                },
            ],
            root: 0,
        };
        assert!(tree.validate().is_err());
    }

    #[test]
    fn node_lookup() {
        let t = bushy4();
        assert!(t.node(0).is_ok());
        assert!(t.node(99).is_err());
        assert!(t.is_leaf(0));
        assert!(!t.is_leaf(t.root()));
        assert_eq!(t.children(0), None);
    }
}
