//! The columnar execution path's early ends: a LIMIT that stops the
//! pipeline early and a cancel mid-stream, each with exact fragment
//! reclaim, then the full answer from the same session, checked against
//! the sequential XRA oracle on a seeded chain. Chunk boundaries, filters,
//! GROUP BY and every strategy are `differential.rs`'s dimensions.

use multijoin::core::ScheduleModel;
use multijoin::exec::{
    chain_query_sql, generate_family, Database, DbConfig, QueryFamily, QueryStatus,
};
use multijoin::relalg::RelalgError;

mod common;
use common::{oracle, settled};

/// Opens a Database over a seeded family instance.
fn family_db(family: QueryFamily, k: usize, n: usize, seed: u64, mut config: DbConfig) -> Database {
    // The paper's machine model keeps these few-hundred-tuple fixtures
    // partitioned; the measured default plans them at degree 1.
    config.planner.schedule_model = ScheduleModel::prisma();
    let instance = generate_family(family, k, n, seed).unwrap();
    let db = Database::open(config).unwrap();
    instance.load(&db).unwrap();
    db
}

/// Runs `text` on the columnar engine and asserts exact multiset equality
/// with the sequential oracle. Returns the row count.
fn assert_matches_oracle(db: &Database, text: &str) -> usize {
    let expected = oracle(db, text);
    let result = db
        .query(text)
        .unwrap_or_else(|e| panic!("{}", e.render(text)))
        .collect()
        .unwrap();
    assert!(
        result.multiset_eq(&expected),
        "{text}: engine returned {} rows, oracle {} rows",
        result.len(),
        expected.len()
    );
    result.len()
}

#[test]
fn limit_early_stop_quiesces_and_reclaims_fragments() {
    let mut config = DbConfig::default();
    config.exec.workers = 2;
    config.exec.batch_size = 16;
    config.exec.channel_capacity = 2;
    let db = family_db(QueryFamily::Chain, 5, 3_000, 71, config);
    let base = chain_query_sql(5);

    for _ in 0..2 {
        let handle = db.query(&format!("{base} LIMIT 5")).unwrap();
        let budget = handle.budget().clone();
        let got = handle.collect().unwrap();
        assert_eq!(got.len(), 5);
        // Early stop is the *successful* path: every charge is credited
        // back, exactly.
        assert_eq!(settled(&budget), 0, "exact reclaim");
    }
    // The limited rows must come from the true result (subset check: a
    // LIMIT picks a nondeterministic prefix).
    let full = oracle(&db, &base);
    let limited = db
        .query(&format!("{base} LIMIT 5"))
        .unwrap()
        .collect()
        .unwrap();
    for t in limited.tuples() {
        assert!(
            full.tuples().contains(t),
            "limited row {t:?} not in the full result"
        );
    }
    // And the engine still answers the unlimited query on the same pool.
    let all = db.query(&base).unwrap().collect().unwrap();
    assert!(all.multiset_eq(&full));
}

#[test]
fn mid_stream_cancel_quiesces_with_exact_fragment_reclaim() {
    // Tiny batches + capacity-1 channels guarantee the query is still in
    // flight (root blocked on client backpressure) when we cancel.
    let mut config = DbConfig::default();
    config.exec.workers = 2;
    config.exec.batch_size = 16;
    config.exec.channel_capacity = 1;
    let db = family_db(QueryFamily::Chain, 5, 4_000, 83, config);
    let text = chain_query_sql(5);

    let mut handle = db.query(&text).expect("submit");
    let mut stream = handle.stream();
    assert!(stream.next_batch().is_some(), "first batch must arrive");
    assert_eq!(handle.status(), QueryStatus::Running);
    handle.cancel();
    while stream.next_batch().is_some() {}
    drop(stream);
    let budget = handle.budget().clone();
    let err = handle.outcome().expect_err("cancelled query must error");
    assert!(matches!(err, RelalgError::Canceled), "got {err}");

    // Quiescence: every charge credited back, no zombie tasks, pool intact.
    let engine = db.engine();
    assert_eq!(settled(&budget), 0, "budget credited back");
    assert_eq!(engine.pool().queued(), 0, "no zombie tasks queued");
    assert_eq!(engine.pool().threads(), 2, "pool unchanged");

    // The same session then serves the query to completion, correctly.
    assert_matches_oracle(&db, &text);
}
