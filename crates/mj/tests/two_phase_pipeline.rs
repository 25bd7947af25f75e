//! Cross-crate integration: the full two-phase pipeline — query graph →
//! phase-1 optimizer → phase-2 strategy → execution — and the paper's
//! claims about the optimizers.

use std::sync::Arc;

use multijoin::plan::cardinality::node_cards;
use multijoin::plan::query::to_xra;
use multijoin::prelude::*;

fn catalog(k: usize, n: usize) -> Arc<Catalog> {
    let catalog = Arc::new(Catalog::new());
    for (name, rel) in WisconsinGenerator::new(n, 31).generate_named("R", k) {
        catalog.register(name, rel);
    }
    catalog
}

#[test]
fn optimized_tree_executes_correctly() {
    let k = 8;
    let n = 200usize;
    let catalog = catalog(k, n);
    let graph = QueryGraph::regular_chain(k, n as u64).unwrap();

    for plan1 in [
        optimize_bushy(&graph, &CostModel::default()).unwrap(),
        greedy_tree(&graph, &CostModel::default()).unwrap(),
    ] {
        let tree = &plan1.tree;
        let oracle = to_xra(tree, 3, JoinAlgorithm::Simple)
            .eval(catalog.as_ref())
            .expect("oracle");
        assert_eq!(oracle.len(), n);

        let cards = node_cards(tree, &UniformOneToOne { n: n as u64 });
        let costs = tree_costs(tree, &cards, &CostModel::default());
        let mut input = GeneratorInput::new(tree, &cards, &costs, 4);
        input.allow_oversubscribe = true;
        let plan2 = generate(Strategy::FP, &input).unwrap();
        let binding = QueryBinding::regular(tree, catalog.as_ref()).unwrap();
        let out = run_plan(&plan2, &binding, catalog.clone(), &ExecConfig::default()).unwrap();
        assert!(out.relation.multiset_eq(&oracle));
    }
}

#[test]
fn bushy_dp_never_loses_to_greedy() {
    // On several graph topologies with heterogeneous sizes.
    let cases: Vec<QueryGraph> = vec![
        QueryGraph::regular_chain(10, 5000).unwrap(),
        {
            // Star.
            let mut g = QueryGraph::new();
            let f = g.add_relation("F", 500_000).unwrap();
            for (i, card) in [100u64, 2_000, 40, 9_000].iter().enumerate() {
                let d = g.add_relation(format!("D{i}"), *card).unwrap();
                g.add_edge(f, d, 1.0 / *card as f64).unwrap();
            }
            g
        },
        {
            // Cycle with a chord.
            let mut g = QueryGraph::new();
            let ids: Vec<usize> = (0..6)
                .map(|i| {
                    g.add_relation(format!("T{i}"), 1000 + 300 * i as u64)
                        .unwrap()
                })
                .collect();
            for i in 0..6 {
                g.add_edge(ids[i], ids[(i + 1) % 6], 0.002).unwrap();
            }
            g.add_edge(ids[0], ids[3], 0.01).unwrap();
            g
        },
    ];
    for (i, g) in cases.iter().enumerate() {
        let bushy = optimize_bushy(g, &CostModel::default()).unwrap().total_cost;
        let greedy = greedy_tree(g, &CostModel::default()).unwrap().total_cost;
        assert!(
            bushy <= greedy * (1.0 + 1e-9),
            "case {i}: bushy {bushy} > greedy {greedy}"
        );
    }
}

#[test]
fn regular_chain_cost_is_shape_invariant_and_optimal() {
    // §4.1: every cartesian-free tree of the regular query costs (5k-6)N;
    // the optimizer must land exactly there.
    let n = 5000u64;
    let g = QueryGraph::regular_chain(10, n).unwrap();
    let best = optimize_bushy(&g, &CostModel::default()).unwrap();
    assert!((best.total_cost - 44.0 * n as f64).abs() < 1e-6);
    for shape in Shape::ALL {
        let tree = multijoin::plan::shapes::build(shape, 10).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        assert!((costs.total - best.total_cost).abs() < 1e-6, "{shape}");
    }
}

#[test]
fn segmentation_consistency_across_optimizer_outputs() {
    use multijoin::plan::segment::segments;
    let g = QueryGraph::regular_chain(9, 100).unwrap();
    for plan1 in [
        optimize_bushy(&g, &CostModel::default()).unwrap(),
        greedy_tree(&g, &CostModel::default()).unwrap(),
    ] {
        let seg = segments(&plan1.tree);
        let covered: usize = seg.segments.iter().map(|s| s.len()).sum();
        assert_eq!(covered, plan1.tree.join_count());
        assert!(!seg.waves().is_empty());
    }
}
