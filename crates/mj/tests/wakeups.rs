//! The wake protocol end to end. A task that cannot progress parks on the
//! stream edge it waits for and is woken only by what unblocks it: a
//! message, a hang-up, or its query's cancel / abort token. A lost wake
//! leaves a query parked forever, so every query here runs under a stall
//! limit or a deadline: a missed wake fails typed instead of hanging.

use std::sync::Arc;
use std::time::{Duration, Instant};

use multijoin::exec::QueryOptions;
use multijoin::plan::cardinality::node_cards;
use multijoin::plan::query::to_xra;
use multijoin::plan::shapes::build;
use multijoin::prelude::*;
use multijoin::relalg::RelalgError;

fn catalog(k: usize, n: usize, seed: u64) -> Arc<Catalog> {
    let catalog = Arc::new(Catalog::new());
    for (name, rel) in WisconsinGenerator::new(n, seed).generate_named("R", k) {
        catalog.register(name, rel);
    }
    catalog
}

/// The paper's plan for `strategy` at grain 0: nothing fuses, every
/// pipelined operand is a stream.
fn plan(tree: &JoinTree, strategy: Strategy, n: u64, procs: usize) -> ParallelPlan {
    let cards = node_cards(tree, &UniformOneToOne { n });
    let costs = tree_costs(tree, &cards, &CostModel::default());
    let mut input = GeneratorInput::new(tree, &cards, &costs, procs);
    input.allow_oversubscribe = procs < tree.join_count();
    generate(strategy, &input).expect("plan generation")
}

/// One-row messages on one-slot edges: nearly every send meets a full edge
/// and nearly every receive an empty one, so tasks park and wake on almost
/// every row.
fn tight_engine(catalog: &Arc<Catalog>, workers: usize, stall: Option<Duration>) -> Engine {
    let config = ExecConfig {
        workers,
        batch_size: 1,
        channel_capacity: 1,
        stall_timeout: stall,
        ..ExecConfig::default()
    };
    Engine::new(catalog.clone(), config).expect("engine")
}

fn assert_quiescent(engine: &Engine, ctx: &str) {
    let pool = engine.pool();
    assert_eq!((pool.queued(), pool.parked()), (0, 0), "{ctx}: tasks left");
}

#[test]
fn every_strategy_matches_the_oracle_on_one_row_messages_and_one_slot_edges() {
    let (k, n) = (6, 200usize);
    let catalog = catalog(k, n, 2025);
    for shape in Shape::ALL {
        let tree = build(shape, k).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).expect("binding");
        let oracle = to_xra(&tree, 3, JoinAlgorithm::Simple)
            .eval(catalog.as_ref())
            .expect("oracle");
        let plans = Strategy::ALL.map(|s| (s, plan(&tree, s, n as u64, 4)));
        for workers in [1, 2, 4] {
            let engine = tight_engine(&catalog, workers, Some(Duration::from_secs(10)));
            // Each plan alone, three times: a wake race is a matter of
            // timing, and a lone query has no other query's tasks to keep
            // the workers awake.
            for ((strategy, plan), run) in plans.iter().flat_map(|p| [(p, 0), (p, 1), (p, 2)]) {
                let ctx = format!("{strategy} on {shape}, {workers} worker(s), run {run}");
                let got = engine
                    .run(plan, &binding)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert!(got.relation.multiset_eq(&oracle), "{ctx}: diverged");
                assert_quiescent(&engine, &ctx);
            }
            // Then two queries in flight, each strategy beside the next
            // one, each pair three times: tasks of two queries share every
            // worker's queue.
            for (i, run) in (0..plans.len()).flat_map(|i| [(i, 0), (i, 1), (i, 2)]) {
                let pair = [&plans[i], &plans[(i + 1) % plans.len()]];
                std::thread::scope(|scope| {
                    let queries = pair.map(|(strategy, plan)| {
                        let ctx = format!("{strategy} on {shape}, {workers} worker(s), run {run}");
                        let (engine, binding) = (&engine, &binding);
                        (ctx, scope.spawn(move || engine.run(plan, binding)))
                    });
                    for (ctx, query) in queries {
                        let got = query
                            .join()
                            .expect("query thread")
                            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        assert!(got.relation.multiset_eq(&oracle), "{ctx}: diverged");
                    }
                });
                let ctx = format!("{shape}, {workers} worker(s), pair {i} run {run}");
                assert_quiescent(&engine, &ctx);
            }
        }
    }
}

/// Submits an FP chain whose client never drains: once the result edge is
/// full the root parks on it, and every task upstream on its own.
fn undrained(engine: &Engine, catalog: &Arc<Catalog>, opts: QueryOptions) -> QueryHandle {
    let tree = build(Shape::RightLinear, 5).unwrap();
    let binding = QueryBinding::regular(&tree, catalog.as_ref()).expect("binding");
    engine
        .submit_with(&plan(&tree, Strategy::FP, 400, 4), &binding, opts)
        .expect("submit")
}

/// Returns once nothing on the pool is runnable or running while tasks are
/// parked, and no step is taken for a while: a parked query costs nothing.
fn await_parked(engine: &Engine) {
    let pool = engine.pool();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut quiet = 0;
    let mut steps = pool.steps();
    while quiet < 3 {
        assert!(Instant::now() < deadline, "the query never parked");
        std::thread::sleep(Duration::from_millis(5));
        let now = pool.steps();
        let parked = pool.queued() == 0 && pool.busy() == 0 && pool.parked() > 0;
        quiet = if parked && now == steps { quiet + 1 } else { 0 };
        steps = now;
    }
}

/// The query's outcome, failing the test instead of hanging it when the
/// query never concludes.
fn outcome_within(handle: QueryHandle, limit: Duration) -> Result<QueryOutcome, RelalgError> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.outcome());
    });
    rx.recv_timeout(limit)
        .expect("the query never concluded: a wake was lost")
}

#[test]
fn cancel_wakes_a_query_parked_behind_an_undrained_stream() {
    let catalog = catalog(5, 400, 7);
    let engine = tight_engine(&catalog, 2, None);
    let mut handle = undrained(&engine, &catalog, QueryOptions::new());
    let stream = handle.stream();
    await_parked(&engine);
    handle.cancel();
    let err =
        outcome_within(handle, Duration::from_secs(10)).expect_err("a canceled query must error");
    assert!(matches!(err, RelalgError::Canceled), "got {err}");
    assert_quiescent(&engine, "after cancel");
    drop(stream);
    assert_eq!(engine.stats().queries_canceled, 1);
}

#[test]
fn a_deadline_wakes_a_root_parked_on_its_full_result_edge() {
    let catalog = catalog(5, 400, 8);
    let engine = tight_engine(&catalog, 2, None);
    let opts = QueryOptions::new().with_deadline(Duration::from_millis(300));
    let mut handle = undrained(&engine, &catalog, opts);
    let stream = handle.stream();
    await_parked(&engine);
    let err = outcome_within(handle, Duration::from_secs(10)).expect_err("the deadline must fire");
    assert!(matches!(err, RelalgError::DeadlineExceeded), "got {err}");
    assert_quiescent(&engine, "after the deadline");
    drop(stream);
}
