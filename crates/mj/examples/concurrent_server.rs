//! Concurrent query serving through the session facade.
//!
//! ```text
//! cargo run --release -p multijoin --example concurrent_server
//! ```
//!
//! Opens one shared [`Database`] (one catalog, one 4-worker engine, one
//! planner) and fires **text queries** at it from 8 client threads at once
//! — the server-style workload the whole stack exists for. Each client
//! submits `SELECT ... FROM ... JOIN ...` strings of varying length; the
//! database parses, binds, plans (tree, strategy, allocation), and streams
//! each result back through a cancellable [`QueryHandle`]. Every query's
//! operator instances multiplex onto the same 4 workers; the engine never
//! holds more than `workers` execution threads no matter how many clients
//! are in flight, and every streamed result is checked against the
//! sequential oracle.

use std::sync::Arc;
use std::time::Instant;

use multijoin::exec::chain_query_sql;
use multijoin::prelude::*;
use multijoin::relalg::JoinAlgorithm;

fn main() {
    let relations = 6;
    let n = 2_000usize;
    let clients = 8;
    let queries_per_client = 3;

    // One shared session: fixed 4-worker engine, 6 logical processors.
    let mut config = DbConfig::default();
    config.exec.workers = 4;
    config.planner = PlannerOptions::new(6);
    let db = Database::open(config).expect("open database");

    // Register the data through the front door and analyze statistics.
    let instance = generate_family(QueryFamily::Chain, relations, n, 7).expect("family");
    instance.load(&db).expect("load");
    println!(
        "database up: {} relations, {} worker threads, serving {clients} clients x \
         {queries_per_client} text queries",
        relations,
        db.engine().workers()
    );

    // Clients rotate over chain queries of different lengths; precompute
    // each query's sequential oracle once.
    let query_lengths = [relations, relations - 1, relations - 2];
    let oracles: Vec<(String, Arc<Relation>)> = query_lengths
        .iter()
        .map(|&k| {
            let text = chain_query_sql(k);
            let planned = db.plan(&text).expect("plan");
            let oracle = planned
                .lowered
                .to_xra(&planned.tree, JoinAlgorithm::Simple)
                .expect("oracle plan")
                .eval(db.catalog().as_ref())
                .expect("oracle eval");
            (text, Arc::new(oracle))
        })
        .collect();

    let started = Instant::now();
    let mut total_rows = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let db = &db;
                let oracles = &oracles;
                scope.spawn(move || {
                    let mut rows = 0u64;
                    for q in 0..queries_per_client {
                        let (text, oracle) = &oracles[(client + q) % oracles.len()];
                        // Submit the text query; stream and collect.
                        let result = db
                            .query(text)
                            .expect("submit")
                            .collect()
                            .expect("stream + outcome");
                        assert!(
                            result.multiset_eq(oracle),
                            "client {client} query {q} diverged from the oracle"
                        );
                        rows += result.len() as u64;
                    }
                    rows
                })
            })
            .collect();
        for h in handles {
            total_rows += h.join().expect("client thread");
        }
    });
    let elapsed = started.elapsed().as_secs_f64();

    println!(
        "{} text queries ok ({} result rows, oracle-checked) in {elapsed:.2}s = {:.0} rows/s",
        clients * queries_per_client,
        total_rows,
        total_rows as f64 / elapsed
    );
    println!(
        "worker threads at exit: {} (pool is fixed; clients only add tasks)",
        db.engine().pool().threads()
    );
}
