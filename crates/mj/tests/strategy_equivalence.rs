//! Cross-crate integration: every strategy × every shape, executed on the
//! real threaded engine, must return exactly the sequential oracle's
//! result — the end-to-end correctness statement of the whole system.

use std::sync::Arc;

use multijoin::plan::cardinality::node_cards;
use multijoin::plan::query::to_xra;
use multijoin::plan::shapes::build;
use multijoin::prelude::*;

fn catalog(k: usize, n: usize, seed: u64) -> Arc<Catalog> {
    let catalog = Arc::new(Catalog::new());
    for (name, rel) in WisconsinGenerator::new(n, seed).generate_named("R", k) {
        catalog.register(name, rel);
    }
    catalog
}

fn run_strategy(
    catalog: &Arc<Catalog>,
    tree: &JoinTree,
    strategy: Strategy,
    n: u64,
    procs: usize,
) -> Relation {
    let cards = node_cards(tree, &UniformOneToOne { n });
    let costs = tree_costs(tree, &cards, &CostModel::default());
    let mut input = GeneratorInput::new(tree, &cards, &costs, procs);
    input.allow_oversubscribe = procs < tree.join_count();
    let plan = generate(strategy, &input).expect("plan generation");
    validate_plan(&plan).expect("plan validation");
    let binding = QueryBinding::regular(tree, catalog.as_ref()).expect("binding");
    run_plan(&plan, &binding, catalog.clone(), &ExecConfig::default())
        .expect("execution")
        .relation
}

#[test]
fn all_strategies_all_shapes_match_oracle() {
    let k = 7;
    let n = 250usize;
    let catalog = catalog(k, n, 1234);
    for shape in Shape::ALL {
        let tree = build(shape, k).unwrap();
        let oracle = to_xra(&tree, 3, JoinAlgorithm::Simple)
            .eval(catalog.as_ref())
            .expect("oracle");
        assert_eq!(oracle.len(), n, "{shape}: regular query yields n tuples");
        for strategy in Strategy::ALL {
            let got = run_strategy(&catalog, &tree, strategy, n as u64, 6);
            assert!(
                got.multiset_eq(&oracle),
                "{strategy} on {shape} diverged from the sequential oracle"
            );
        }
    }
}

#[test]
fn strategies_agree_with_each_other_at_scale() {
    // Bigger relations, a single shape, all strategies pairwise equal.
    let k = 10;
    let n = 1000usize;
    let catalog = catalog(k, n, 77);
    let tree = build(Shape::RightBushy, k).unwrap();
    let results: Vec<Relation> = Strategy::ALL
        .iter()
        .map(|&s| run_strategy(&catalog, &tree, s, n as u64, 9))
        .collect();
    for pair in results.windows(2) {
        assert!(pair[0].multiset_eq(&pair[1]));
    }
    assert_eq!(results[0].len(), n);
}

#[test]
fn processor_count_does_not_change_results() {
    let k = 6;
    let n = 300usize;
    let catalog = catalog(k, n, 5);
    let tree = build(Shape::WideBushy, k).unwrap();
    let reference = run_strategy(&catalog, &tree, Strategy::FP, n as u64, 5);
    for procs in [1usize, 2, 3, 8, 16] {
        let got = run_strategy(&catalog, &tree, Strategy::FP, n as u64, procs);
        assert!(got.multiset_eq(&reference), "procs={procs}");
    }
}

/// Differential test on a *skewed* workload with duplicate join keys: the
/// same logical query runs through the simple-join materialized path (SP),
/// the pipelining streamed path (FP), and the mixed segmented path (RD/SE),
/// all over the shared-tuple representation, and every result must be the
/// identical sorted multiset — and match the sequential oracle.
#[test]
fn skewed_relations_agree_across_all_execution_paths() {
    use multijoin::storage::skew::zipf_keys;

    let k = 5;
    let n = 400usize;
    let catalog = Arc::new(Catalog::new());
    for r in 0..k {
        // Zipf-skewed unique1 keys (duplicates allowed, heavy head), so
        // both redistribution balance and duplicate-key join logic are
        // exercised; unique2/filler stay row-identifying.
        let keys = zipf_keys(n, n, 0.9, 100 + r as u64);
        let schema = multijoin::storage::wisconsin::compact_schema().shared();
        let tuples = keys
            .iter()
            .enumerate()
            .map(|(i, &u1)| Tuple::from_ints(&[u1, i as i64, i as i64]))
            .collect();
        catalog.register(
            format!("R{r}"),
            Arc::new(Relation::new(schema, tuples).unwrap()),
        );
    }
    let tree = build(Shape::RightBushy, k).unwrap();
    let oracle = to_xra(&tree, 3, JoinAlgorithm::Simple)
        .eval(catalog.as_ref())
        .expect("oracle");
    assert!(!oracle.is_empty(), "skewed join must produce matches");

    let mut sorted_results: Vec<Vec<Tuple>> = Vec::new();
    for strategy in Strategy::ALL {
        let got = run_strategy(&catalog, &tree, strategy, n as u64, 4);
        assert!(
            got.multiset_eq(&oracle),
            "{strategy} diverged from the oracle on the skewed workload"
        );
        let mut tuples = got.into_tuples();
        tuples.sort_unstable();
        sorted_results.push(tuples);
    }
    for pair in sorted_results.windows(2) {
        assert_eq!(pair[0], pair[1], "sorted multisets must be identical");
    }
}

/// Worker-pool concurrency: queries running simultaneously through one
/// shared engine must produce exactly the relations their sequential runs
/// produce — interleaving tasks of different queries on the fixed pool may
/// change timing, never results.
#[test]
fn concurrent_queries_match_sequential_runs() {
    use multijoin::core::{generate, GeneratorInput, Strategy};
    use multijoin::plan::cost::{tree_costs, CostModel};

    let k = 6;
    let n = 400usize;
    let catalog = catalog(k, n, 91);
    let tree = build(Shape::RightBushy, k).unwrap();
    let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
    let config = ExecConfig {
        workers: 4,
        ..ExecConfig::default()
    };
    let engine = Engine::new(catalog.clone(), config).unwrap();

    let plan_for = |strategy: Strategy| {
        let cards =
            multijoin::plan::cardinality::node_cards(&tree, &UniformOneToOne { n: n as u64 });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let mut input = GeneratorInput::new(&tree, &cards, &costs, 4);
        input.allow_oversubscribe = true;
        generate(strategy, &input).unwrap()
    };

    // Sequential reference runs through the same engine.
    let fp_plan = plan_for(Strategy::FP);
    let rd_plan = plan_for(Strategy::RD);
    let fp_sequential = engine.run(&fp_plan, &binding).unwrap().relation;
    let rd_sequential = engine.run(&rd_plan, &binding).unwrap().relation;

    // Two queries at once (one pipelined, one segmented), several rounds.
    for round in 0..3 {
        let (fp_concurrent, rd_concurrent) = std::thread::scope(|scope| {
            let fp = scope.spawn(|| engine.run(&fp_plan, &binding).unwrap());
            let rd = scope.spawn(|| engine.run(&rd_plan, &binding).unwrap());
            (fp.join().unwrap(), rd.join().unwrap())
        });
        assert!(
            fp_concurrent.relation.multiset_eq(&fp_sequential),
            "round {round}: concurrent FP diverged from its sequential run"
        );
        assert!(
            rd_concurrent.relation.multiset_eq(&rd_sequential),
            "round {round}: concurrent RD diverged from its sequential run"
        );
        // Per-query metrics stay separate: each run saw its own tuples.
        let fp_in: u64 = fp_concurrent
            .metrics
            .ops
            .iter()
            .map(|o| o.tuples_in[0] + o.tuples_in[1])
            .sum();
        let rd_in: u64 = rd_concurrent
            .metrics
            .ops
            .iter()
            .map(|o| o.tuples_in[0] + o.tuples_in[1])
            .sum();
        assert!(fp_in > 0 && rd_in > 0);
    }
    assert_eq!(engine.pool().threads(), 4, "pool never grows");
}

/// Differential: for seeded random acyclic queries (chain/star/skewed,
/// 3–8 relations) the planner-chosen plan must produce exactly the same
/// result relation as a fixed SP baseline executed on every shape whose
/// tree the query admits (a star query has no cartesian-free bushy trees,
/// so infeasible shapes are skipped — but the linear shapes always lower).
/// The tree-independent output column order makes results comparable
/// across shapes.
#[test]
fn planner_plan_matches_sp_baseline_on_every_shape() {
    use multijoin::exec::generate_family;

    let cases = [
        (QueryFamily::Chain, 3, 11u64),
        (QueryFamily::Star, 4, 5u64),
        (QueryFamily::Skewed, 5, 23u64),
        (QueryFamily::Chain, 6, 71u64),
        (QueryFamily::Star, 7, 3u64),
        (QueryFamily::Skewed, 8, 9u64),
    ];
    for (family, k, seed) in cases {
        let inst = generate_family(family, k, 48, seed).unwrap();
        let db = Database::open(DbConfig::default()).unwrap();
        inst.load(&db).unwrap();
        let catalog = db.catalog();
        let query = inst.query(catalog).unwrap();
        let planned = Planner::new(PlannerOptions::new(5)).plan(&query).unwrap();
        let chosen = run_plan(
            &planned.plan,
            &planned.binding,
            catalog.clone(),
            &ExecConfig::default(),
        )
        .unwrap()
        .relation;

        let mut compared = 0usize;
        for shape in Shape::ALL {
            let tree = build(shape, k).unwrap();
            // Star queries reject shapes that would pair two dimensions
            // (no connecting predicate) — skip those.
            let lowered = match lower(&tree, &query, None) {
                Ok(l) => l,
                Err(_) => continue,
            };
            let cards = lowered.est_cards().to_vec();
            let costs = tree_costs(&tree, &cards, &CostModel::default());
            let mut input = GeneratorInput::new(&tree, &cards, &costs, 5);
            input.allow_oversubscribe = true;
            let sp = generate(Strategy::SP, &input).unwrap();
            let binding = QueryBinding::from_lowered(&tree, &lowered).unwrap();
            let baseline = run_plan(&sp, &binding, catalog.clone(), &ExecConfig::default())
                .unwrap()
                .relation;
            assert!(
                chosen.multiset_eq(&baseline),
                "{family} k={k} seed={seed}: planner plan ({}) diverged from \
                 the SP baseline on {shape}",
                planned.strategy()
            );
            compared += 1;
        }
        let floor = if family == QueryFamily::Star { 2 } else { 5 };
        assert!(
            compared >= floor,
            "{family} k={k}: only {compared} shapes lowered"
        );
    }
}

#[test]
fn full_payload_tuples_flow_through_the_engine() {
    // 208-byte Wisconsin tuples (16 attributes) through a 4-relation query.
    let catalog = Arc::new(Catalog::new());
    let gen = WisconsinGenerator::new(120, 9).with_payload(PayloadMode::Full);
    for (name, rel) in gen.generate_named("R", 4) {
        catalog.register(name, rel);
    }
    let tree = build(Shape::RightLinear, 4).unwrap();
    let oracle = to_xra(&tree, 16, JoinAlgorithm::Simple)
        .eval(catalog.as_ref())
        .expect("oracle");
    let got = run_strategy(&catalog, &tree, Strategy::FP, 120, 3);
    assert_eq!(got.schema().arity(), 16);
    assert!(got.multiset_eq(&oracle));
}
