//! Phase-1 optimization: find the join tree with minimal *total* cost.
//!
//! The paper adopts two-phase optimization from \[HoS91\]: "The first phase
//! chooses the tree that has the lowest total execution costs and the
//! second phase finds a suitable parallelization for this tree" (§1.2).
//! The planner runs one of two algorithms:
//!
//! * [`optimize_bushy`] — exhaustive dynamic programming over connected
//!   subgraphs, bushy trees allowed (the space \[KBZ86\] argues parallel
//!   systems need);
//! * [`greedy_tree`] — a greedy heuristic in the spirit of [LST91, SWG88]
//!   for graphs too dense to enumerate.
//!
//! The DP enumerates only what the join graph contains — its connected
//! subsets and their connected complements (DPccp) — so it costs time and
//! memory proportional to the number of csg-cmp pairs: cubic in the
//! relation count on a chain, exponential only on dense graphs, where
//! [`PAIR_BUDGET`] stops it with [`RelalgError::PairBudgetExceeded`] and
//! the caller falls back to [`greedy_tree`].
//!
//! Neither considers parallelism — by design. Cartesian products are
//! never enumerated, matching System R.

mod csg;
mod dp_bushy;
mod greedy;

pub use dp_bushy::optimize_bushy;
pub use greedy::greedy_tree;

use mj_relalg::{RelalgError, Result};

use crate::tree::JoinTree;

/// The most csg-cmp pairs [`optimize_bushy`] costs before it gives up with
/// [`RelalgError::PairBudgetExceeded`]. Fixed, not configurable: planning
/// runs inline in a server connection's step, so this is what bounds the
/// time a client can buy with a wide FROM list.
///
/// Derivation: the densest graph of `n` relations, the clique, has
/// `(3^n - 2^(n+1) + 1) / 2` pairs — 261 625 at `n` = 12, 788 970 at 13 —
/// so 2^18 keeps every graph of up to 12 relations exact. Measured on the
/// two-vCPU development VM: a costed pair takes ~50 ns, so the whole
/// 12-clique takes 12–14 ms, a 16-clique abandoned at the budget 8–13 ms —
/// the most phase 1 can cost — while the 14-, 20- and 28-relation chains
/// (455, 1330 and 3654 pairs) take 0.03, 0.07 and 0.2 ms.
pub const PAIR_BUDGET: usize = 1 << 18;

/// Largest relation count a [`QueryGraph`] can hold: the adjacency and
/// subset machinery is a `u32` bitmask, so relation 32 would silently
/// shift out of range.
pub const MAX_GRAPH_RELATIONS: usize = 32;

/// A query graph: relations with cardinalities, and equi-join edges with
/// selectivities.
#[derive(Clone, Debug)]
pub struct QueryGraph {
    names: Vec<String>,
    cards: Vec<u64>,
    /// Adjacency: for each relation, a bitmask of its neighbours.
    adj: Vec<u32>,
    edges: Vec<(usize, usize, f64)>,
}

impl QueryGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        QueryGraph {
            names: Vec::new(),
            cards: Vec::new(),
            adj: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a relation, returning its index. At most
    /// [`MAX_GRAPH_RELATIONS`] relations fit: the adjacency sets and the
    /// DP subset machinery are `u32` bitmasks, and a 33rd relation would
    /// silently corrupt both (`1 << 32` wraps).
    pub fn add_relation(&mut self, name: impl Into<String>, card: u64) -> Result<usize> {
        if self.names.len() >= MAX_GRAPH_RELATIONS {
            return Err(RelalgError::InvalidPlan(format!(
                "query graph holds at most {MAX_GRAPH_RELATIONS} relations \
                 (u32 bitmask); rejecting relation {}",
                self.names.len() + 1
            )));
        }
        self.names.push(name.into());
        self.cards.push(card);
        self.adj.push(0);
        Ok(self.names.len() - 1)
    }

    /// Adds a join edge between relations `a` and `b` with the given
    /// selectivity in `(0, 1]`. NaN and out-of-range selectivities are
    /// rejected — they would make [`QueryGraph::subset_card`] and every DP
    /// cost nonsensical.
    pub fn add_edge(&mut self, a: usize, b: usize, selectivity: f64) -> Result<()> {
        if a >= self.names.len() || b >= self.names.len() || a == b {
            return Err(RelalgError::InvalidPlan(format!("bad edge ({a}, {b})")));
        }
        if !(selectivity > 0.0 && selectivity <= 1.0) {
            return Err(RelalgError::InvalidPlan(format!(
                "selectivity {selectivity} outside (0, 1]"
            )));
        }
        self.adj[a] |= 1 << b;
        self.adj[b] |= 1 << a;
        self.edges.push((a.min(b), a.max(b), selectivity));
        Ok(())
    }

    /// Builds the paper's chain query: `k` relations of `n` tuples, joined
    /// neighbour-to-neighbour with selectivity `1/n` (each join a perfect
    /// 1-to-1 match).
    pub fn regular_chain(k: usize, n: u64) -> Result<QueryGraph> {
        if k < 2 || n == 0 {
            return Err(RelalgError::InvalidPlan(
                "chain needs k >= 2, n >= 1".into(),
            ));
        }
        let mut g = QueryGraph::new();
        for i in 0..k {
            g.add_relation(format!("R{i}"), n)?;
        }
        for i in 0..k - 1 {
            g.add_edge(i, i + 1, 1.0 / n as f64)?;
        }
        Ok(g)
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the graph has no relations.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Relation names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Relation cardinalities.
    pub fn cards(&self) -> &[u64] {
        &self.cards
    }

    /// Overrides the cardinality of relation `i` — the hook the planner
    /// uses to fold pushed-down filter selectivities into the estimates
    /// every phase-1 optimizer and schedule cost reads. The effective
    /// cardinality is clamped to at least 1 so downstream selectivity
    /// arithmetic never divides by zero.
    pub fn set_card(&mut self, i: usize, card: u64) -> Result<()> {
        if i >= self.cards.len() {
            return Err(RelalgError::IndexOutOfBounds {
                index: i,
                arity: self.cards.len(),
            });
        }
        self.cards[i] = card.max(1);
        Ok(())
    }

    /// All edges as `(a, b, selectivity)` with `a < b`.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Bitmask of neighbours of all relations in `mask`.
    pub fn neighbours(&self, mask: u32) -> u32 {
        let mut out = 0u32;
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            out |= self.adj[i];
            m &= m - 1;
        }
        out & !mask
    }

    /// True if some join edge connects `a` and `b` (disjoint masks).
    pub fn connects(&self, a: u32, b: u32) -> bool {
        self.neighbours(a) & b != 0
    }

    /// Estimated cardinality of the join of all relations in `mask`:
    /// product of base cardinalities times the selectivities of all edges
    /// internal to `mask`.
    pub fn subset_card(&self, mask: u32) -> f64 {
        let mut card = 1.0f64;
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            card *= self.cards[i] as f64;
            m &= m - 1;
        }
        for &(a, b, sel) in &self.edges {
            if mask & (1 << a) != 0 && mask & (1 << b) != 0 {
                card *= sel;
            }
        }
        card
    }

    /// The mask of all relations (the graph must not be empty).
    pub(crate) fn full_mask(&self) -> u32 {
        u32::MAX >> (MAX_GRAPH_RELATIONS - self.names.len())
    }

    /// True if the whole graph is connected.
    pub fn is_connected(&self) -> bool {
        if self.names.is_empty() {
            return false;
        }
        let full = self.full_mask();
        let mut reached = 1u32;
        loop {
            let grow = reached | (self.neighbours(reached) & full);
            if grow == reached {
                break;
            }
            reached = grow;
        }
        reached == full
    }

    pub(crate) fn check_optimizable(&self) -> Result<()> {
        if self.len() < 2 {
            return Err(RelalgError::InvalidPlan(
                "optimizer needs >= 2 relations".into(),
            ));
        }
        if !self.is_connected() {
            return Err(RelalgError::InvalidPlan(
                "query graph is disconnected (cartesian products are not enumerated)".into(),
            ));
        }
        Ok(())
    }
}

impl Default for QueryGraph {
    fn default() -> Self {
        Self::new()
    }
}

/// The output of a phase-1 optimizer.
#[derive(Clone, Debug)]
pub struct OptimizedPlan {
    /// The chosen join tree.
    pub tree: JoinTree,
    /// Total cost under the paper's cost function.
    pub total_cost: f64,
    /// Estimated cardinality per tree node (indexed by node id).
    pub node_cards: Vec<u64>,
    /// Connected relation subsets the optimizer held a DP entry for
    /// (0 for the greedy heuristic, which enumerates none).
    pub connected_subsets: usize,
    /// Csg-cmp pairs the optimizer costed; never 0 for an exact plan, 0
    /// for the greedy heuristic.
    pub pairs_costed: usize,
}

/// Counts one costed pair against [`PAIR_BUDGET`].
fn charge_pair(pairs: &mut usize) -> Result<()> {
    *pairs += 1;
    if *pairs > PAIR_BUDGET {
        return Err(RelalgError::PairBudgetExceeded {
            budget: PAIR_BUDGET,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_construction() {
        let g = QueryGraph::regular_chain(10, 5000).unwrap();
        assert_eq!(g.len(), 10);
        assert_eq!(g.edges().len(), 9);
        assert!(g.is_connected());
        assert!(QueryGraph::regular_chain(1, 10).is_err());
        assert!(QueryGraph::regular_chain(3, 0).is_err());
    }

    #[test]
    fn subset_card_chain_is_n_for_connected_subsets() {
        let g = QueryGraph::regular_chain(5, 100).unwrap();
        // {R1, R2, R3} connected: 100^3 * (1/100)^2 = 100.
        let mask = 0b01110;
        assert!((g.subset_card(mask) - 100.0).abs() < 1e-6);
        // Disconnected {R0, R2}: no internal edge: 100 * 100.
        assert!((g.subset_card(0b00101) - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn neighbours_and_connects() {
        let g = QueryGraph::regular_chain(4, 10).unwrap();
        assert_eq!(g.neighbours(0b0001), 0b0010);
        assert_eq!(g.neighbours(0b0110), 0b1001);
        assert!(g.connects(0b0011, 0b0100));
        assert!(!g.connects(0b0001, 0b0100));
    }

    #[test]
    fn edge_validation() {
        let mut g = QueryGraph::new();
        let a = g.add_relation("A", 10).unwrap();
        let b = g.add_relation("B", 10).unwrap();
        assert!(g.add_edge(a, a, 0.5).is_err());
        assert!(g.add_edge(a, 5, 0.5).is_err());
        assert!(g.add_edge(a, b, 0.0).is_err());
        assert!(g.add_edge(a, b, -0.25).is_err());
        assert!(g.add_edge(a, b, 1.5).is_err());
        assert!(g.add_edge(a, b, f64::NAN).is_err());
        assert!(g.add_edge(a, b, f64::INFINITY).is_err());
        assert!(g.add_edge(a, b, 1.0).is_ok());
    }

    #[test]
    fn relation_count_capped_at_bitmask_width() {
        // Regression: the 33rd relation used to be accepted silently and
        // then corrupt every `1 << i` in the adjacency/DP machinery.
        let mut g = QueryGraph::new();
        for i in 0..MAX_GRAPH_RELATIONS {
            g.add_relation(format!("R{i}"), 10).unwrap();
        }
        assert_eq!(g.len(), 32);
        let err = g.add_relation("R32", 10).unwrap_err();
        assert!(err.to_string().contains("at most 32"), "{err}");
        // The full graph still works: chain it up and check connectivity.
        for i in 0..31 {
            g.add_edge(i, i + 1, 0.5).unwrap();
        }
        assert!(g.is_connected());
        assert!(QueryGraph::regular_chain(33, 10).is_err());
        assert!(QueryGraph::regular_chain(32, 10).is_ok());
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut g = QueryGraph::new();
        g.add_relation("A", 10).unwrap();
        g.add_relation("B", 10).unwrap();
        assert!(!g.is_connected());
        assert!(g.check_optimizable().is_err());
    }
}
