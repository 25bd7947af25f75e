//! Quickstart: the session facade, then the full two-phase pipeline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Part 1 is the public API: open a [`Database`], register relations,
//! stream a text query. Part 2 holds the low-level pieces by hand:
//!
//! 1. generate Wisconsin data;
//! 2. phase 1 — find the minimal-total-cost join tree;
//! 3. phase 2 — parallelize it with each of the four strategies;
//! 4. execute on the threaded engine and verify against the sequential
//!    oracle.

use std::sync::Arc;

use multijoin::plan::cardinality::node_cards;
use multijoin::plan::query::to_xra;
use multijoin::prelude::*;

fn main() {
    let relations = 8usize;
    let n = 2_000usize;
    let processors = 4usize;

    // --- Part 1: the front door. ---
    let db = Database::open(DbConfig::default()).expect("open");
    for (name, rel) in WisconsinGenerator::new(n, 42).generate_named("R", 3) {
        db.register(name, rel).expect("register");
    }
    db.analyze().expect("analyze");
    let mut handle = db
        .query(
            "SELECT * FROM R0 JOIN R1 ON R0.unique1 = R1.unique1 \
             JOIN R2 ON R1.unique1 = R2.unique1",
        )
        .expect("submit");
    let mut stream = handle.stream();
    let mut rows = 0usize;
    let mut batches = 0usize;
    while let Some(batch) = stream.next_batch() {
        rows += batch.len(); // batches arrive while the query runs
        batches += 1;
    }
    drop(stream);
    let outcome = handle.outcome().expect("outcome");
    println!(
        "session API: {rows} tuples streamed in {batches} batches \
         ({:.1} ms engine response time)\n",
        outcome.elapsed.as_secs_f64() * 1e3
    );

    // --- Part 2: the low-level pipeline, held by hand. ---

    // 1. Data: `relations` Wisconsin relations of `n` tuples each, with
    // mutually uncorrelated unique attributes (§4.1 of the paper).
    let catalog = Arc::new(Catalog::new());
    for (name, rel) in WisconsinGenerator::new(n, 42).generate_named("R", relations) {
        catalog.register(name, rel);
    }
    println!("generated {relations} relations x {n} tuples");

    // 2. Phase 1: minimal-total-cost tree over the chain query.
    let graph = QueryGraph::regular_chain(relations, n as u64).expect("query graph");
    let phase1 = optimize_bushy(&graph, &CostModel::default()).expect("optimize");
    println!(
        "phase 1: picked a tree with total cost {:.0} units ({} joins, depth {})",
        phase1.total_cost,
        phase1.tree.join_count(),
        phase1.tree.depth()
    );
    println!("{}", multijoin::plan::render::render(&phase1.tree));

    // Reference result from the sequential oracle.
    let oracle = to_xra(&phase1.tree, 3, JoinAlgorithm::Simple)
        .eval(catalog.as_ref())
        .expect("oracle evaluation");

    // 3 + 4. Phase 2 per strategy, then execute.
    let cards = node_cards(&phase1.tree, &UniformOneToOne { n: n as u64 });
    let costs = tree_costs(&phase1.tree, &cards, &CostModel::default());
    let binding = QueryBinding::regular(&phase1.tree, catalog.as_ref()).expect("binding");
    for strategy in Strategy::ALL {
        let mut input = GeneratorInput::new(&phase1.tree, &cards, &costs, processors);
        input.allow_oversubscribe = true; // host-scale: fewer procs than joins
        let plan = generate(strategy, &input).expect("parallel plan");
        let stats = plan.stats();
        let outcome =
            run_plan(&plan, &binding, catalog.clone(), &ExecConfig::default()).expect("execution");
        let ok = outcome.relation.multiset_eq(&oracle);
        println!(
            "{strategy}: {:>6.1} ms | {} processes, {} streams, {} pipeline edges | {} tuples | oracle: {}",
            outcome.elapsed.as_secs_f64() * 1e3,
            stats.operation_processes,
            stats.tuple_streams,
            stats.pipeline_edges,
            outcome.relation.len(),
            if ok { "match" } else { "MISMATCH" },
        );
        assert!(ok, "{strategy} diverged from the sequential oracle");
    }
    println!("all strategies returned identical results");
}
