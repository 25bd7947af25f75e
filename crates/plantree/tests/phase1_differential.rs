//! Differential test of the exact phase-1 optimizer against the
//! subset-walking DP it replaced.
//!
//! `optimize_bushy` used to be DPsub — a dense `2^n` table and a walk over
//! every submask of every mask. It now enumerates connected subsets
//! directly. The old algorithm lives on here, as an oracle: on generated
//! graphs of 2–12 relations the new code must return the *same tree* (not
//! merely the same cost: the benchmark's regular chains tie on cost
//! everywhere, and the tree shape decides the parallel plan), the same
//! cost to the bit, the same node cardinalities, and must have costed
//! exactly the splits the oracle accepted.

use mj_plan::cost::CostModel;
use mj_plan::tree::{JoinTree, JoinTreeBuilder, NodeId};
use mj_plan::{greedy_tree, optimize_bushy, OptimizedPlan, QueryGraph, PAIR_BUDGET};
use mj_relalg::RelalgError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

// ---- the oracle: the dense DP as it stood before DPccp ----

#[derive(Clone, Copy)]
struct SubEntry {
    cost: f64,
    card: f64,
    split: (u32, u32),
    reachable: bool,
}

/// DPsub. Returns the plan fields plus (reachable subsets, accepted splits).
fn dpsub(graph: &QueryGraph, cost: &CostModel) -> (JoinTree, f64, Vec<u64>, usize, usize) {
    let n = graph.len();
    let full: u32 = (1u32 << n) - 1;
    let unreachable = SubEntry {
        cost: f64::INFINITY,
        card: 0.0,
        split: (0, 0),
        reachable: false,
    };
    let mut table = vec![unreachable; full as usize + 1];
    for i in 0..n {
        table[1usize << i] = SubEntry {
            cost: 0.0,
            card: graph.cards()[i] as f64,
            split: (0, 0),
            reachable: true,
        };
    }
    let mut accepted = 0usize;
    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        let card = graph.subset_card(mask);
        let mut best = SubEntry {
            card,
            ..unreachable
        };
        let mut s1 = (mask - 1) & mask;
        while s1 != 0 {
            let s2 = mask ^ s1;
            if s1 < s2 {
                let (e1, e2) = (&table[s1 as usize], &table[s2 as usize]);
                if e1.reachable && e2.reachable && graph.connects(s1, s2) {
                    accepted += 1;
                    let jc = cost.join_cost(
                        e1.card as u64,
                        s1.count_ones() == 1,
                        e2.card as u64,
                        s2.count_ones() == 1,
                        card as u64,
                    );
                    let total = e1.cost + e2.cost + jc;
                    if total < best.cost {
                        best = SubEntry {
                            cost: total,
                            card,
                            split: (s1, s2),
                            reachable: true,
                        };
                    }
                }
            }
            s1 = (s1 - 1) & mask;
        }
        table[mask as usize] = best;
    }
    assert!(table[full as usize].reachable);

    fn rebuild(
        graph: &QueryGraph,
        table: &[SubEntry],
        mask: u32,
        builder: &mut JoinTreeBuilder,
        cards: &mut Vec<u64>,
    ) -> NodeId {
        if mask.count_ones() == 1 {
            let i = mask.trailing_zeros() as usize;
            cards.push(graph.cards()[i]);
            return builder.leaf(graph.names()[i].clone());
        }
        let (s1, s2) = table[mask as usize].split;
        let l = rebuild(graph, table, s1, builder, cards);
        let r = rebuild(graph, table, s2, builder, cards);
        cards.push(table[mask as usize].card as u64);
        builder.join(l, r)
    }
    let mut builder = JoinTree::builder();
    let mut cards = Vec::new();
    let root = rebuild(graph, &table, full, &mut builder, &mut cards);
    let reachable = table.iter().filter(|e| e.reachable).count();
    (
        builder.build(root).unwrap(),
        table[full as usize].cost,
        cards,
        reachable,
        accepted,
    )
}

// ---- the generator ----

#[derive(Clone, Copy, Debug)]
enum Shape {
    Chain,
    Star,
    Cycle,
    Clique,
    Grid,
    TreePlus,
}

const SHAPES: [Shape; 6] = [
    Shape::Chain,
    Shape::Star,
    Shape::Cycle,
    Shape::Clique,
    Shape::Grid,
    Shape::TreePlus,
];

/// Edges of `shape` over positions `0..n` (always connected).
fn shape_edges(shape: Shape, n: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = match shape {
        Shape::Chain => (1..n).map(|i| (i - 1, i)).collect(),
        Shape::Star => (1..n).map(|i| (0, i)).collect(),
        Shape::Cycle => (1..n).map(|i| (i - 1, i)).chain([(n - 1, 0)]).collect(),
        Shape::Clique => (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .collect(),
        Shape::Grid => {
            let w = (n as f64).sqrt().ceil() as usize;
            (0..n)
                .flat_map(|i| {
                    let right = (i % w + 1 < w && i + 1 < n).then_some((i, i + 1));
                    let down = (i + w < n).then_some((i, i + w));
                    right.into_iter().chain(down)
                })
                .collect()
        }
        Shape::TreePlus => {
            let mut e: Vec<(usize, usize)> = (1..n).map(|i| (rng.gen_range(0..i), i)).collect();
            for _ in 0..rng.gen_range(0..n) {
                e.push((rng.gen_range(0..n), rng.gen_range(0..n)));
            }
            e
        }
    };
    edges.retain(|&(a, b)| a != b);
    for e in &mut edges {
        *e = (e.0.min(e.1), e.0.max(e.1));
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// A graph of `shape` whose relation numbering is a random permutation of
/// the shape's positions (the tie-break and the enumeration both depend on
/// numbering). `regular` gives every relation the same cardinality `c` and
/// every edge selectivity `1/c`, so all trees tie on cost.
fn arb_graph(shape: Shape, n: usize, regular: bool, rng: &mut StdRng) -> QueryGraph {
    let mut relabel: Vec<usize> = (0..n).collect();
    relabel.shuffle(rng);
    let c = [1u64, 50, 5_000][rng.gen_range(0..3usize)];
    let mut g = QueryGraph::new();
    for i in 0..n {
        let card = if regular {
            c
        } else {
            10u64.pow(rng.gen_range(0..6u32)) * rng.gen_range(1..10u64)
        };
        g.add_relation(format!("R{i}"), card).unwrap();
    }
    for (a, b) in shape_edges(shape, n, rng) {
        let sel = if regular {
            1.0 / c as f64
        } else if rng.gen_bool(0.2) {
            1.0
        } else {
            10f64.powf(-rng.gen_range(0.0..6.0))
        };
        g.add_edge(relabel[a], relabel[b], sel).unwrap();
    }
    g
}

fn assert_same(
    what: &str,
    got: &OptimizedPlan,
    want: &(JoinTree, f64, Vec<u64>, usize, usize),
    graph: &QueryGraph,
) {
    let (tree, cost, cards, subsets, pairs) = want;
    let ctx = format!("{what}: {:?} cards {:?}", graph.edges(), graph.cards());
    assert_eq!(&got.tree, tree, "tree, {ctx}");
    assert_eq!(got.total_cost.to_bits(), cost.to_bits(), "cost, {ctx}");
    assert_eq!(&got.node_cards, cards, "node cards, {ctx}");
    assert_eq!(got.connected_subsets, *subsets, "subsets, {ctx}");
    assert_eq!(got.pairs_costed, *pairs, "pairs, {ctx}");
}

#[test]
fn exact_optimizers_match_the_dense_dps_on_generated_graphs() {
    let cm = CostModel::default();
    let mut rng = StdRng::seed_from_u64(0x00C5_6C39);
    let mut checked = 0;
    for shape in SHAPES {
        // Every size once (cliques: 12 relations is the budget's promise),
        // then random sizes, regular and irregular.
        let sizes: Vec<usize> = (2..=12)
            .chain((0..14).map(|_| rng.gen_range(2..11usize)))
            .collect();
        for (case, n) in sizes.into_iter().enumerate() {
            let g = arb_graph(shape, n, case % 3 == 0, &mut rng);
            let what = format!("{shape:?} n={n}");
            let bushy = optimize_bushy(&g, &cm).unwrap();
            assert_same(&format!("bushy {what}"), &bushy, &dpsub(&g, &cm), &g);
            checked += 1;
        }
    }
    assert_eq!(checked, 6 * 25);
}

#[test]
fn chain_pair_counts_follow_the_closed_form() {
    // (n^3 - n) / 6 csg-cmp pairs, n (n + 1) / 2 connected subsets: the
    // count (not a timing) that would expose a return to exponential work.
    let cm = CostModel::default();
    for (n, pairs) in [(2usize, 1usize), (6, 35), (10, 165), (14, 455), (20, 1330)] {
        let g = QueryGraph::regular_chain(n, 50).unwrap();
        let plan = optimize_bushy(&g, &cm).unwrap();
        assert_eq!(plan.pairs_costed, pairs, "n={n}");
        assert_eq!(plan.pairs_costed, (n * n * n - n) / 6);
        assert_eq!(plan.connected_subsets, n * (n + 1) / 2);
    }
}

#[test]
fn wide_sparse_graphs_plan_exactly() {
    // 24 and 32 relations: a dense table would hold 2^24 / 2^32 entries;
    // the sparse one holds n (n + 1) / 2.
    let cm = CostModel::default();
    let mut rng = StdRng::seed_from_u64(7);
    for n in [24usize, 32] {
        for regular in [true, false] {
            let g = arb_graph(Shape::Chain, n, regular, &mut rng);
            let exact = optimize_bushy(&g, &cm).unwrap();
            assert_eq!(exact.connected_subsets, n * (n + 1) / 2);
            assert_eq!(exact.pairs_costed, (n * n * n - n) / 6);
            assert_eq!(exact.tree.leaf_count(), n);
            assert!(exact.tree.validate().is_ok());
            let greedy = greedy_tree(&g, &cm).unwrap();
            assert!(
                exact.total_cost <= greedy.total_cost * (1.0 + 1e-12),
                "n={n}: exact {} > greedy {}",
                exact.total_cost,
                greedy.total_cost
            );
        }
    }
}

#[test]
fn dense_graphs_run_out_of_budget_not_out_of_time() {
    let cm = CostModel::default();
    let mut rng = StdRng::seed_from_u64(11);
    for shape in [Shape::Clique, Shape::Star] {
        let g = arb_graph(shape, 24, false, &mut rng);
        match optimize_bushy(&g, &cm) {
            Err(RelalgError::PairBudgetExceeded { budget }) => assert_eq!(budget, PAIR_BUDGET),
            other => panic!("{shape:?}: expected the budget outcome, got {other:?}"),
        }
        assert_eq!(greedy_tree(&g, &cm).unwrap().tree.leaf_count(), 24);
    }
}
