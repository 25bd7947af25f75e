//! Differential tests for the columnar execution path: the vectorized
//! engine (columnar batches + selection vectors end-to-end) versus the
//! sequential XRA oracle, on the seeded chain/star/skewed families.
//!
//! The row-era suite (`operator_pipeline.rs`) pins operator semantics;
//! this one stresses the surfaces the columnar rewrite added: chunk
//! boundaries at awkward batch sizes, both join algorithms over the same
//! key columns, every allocation strategy, LIMIT early-stop, and
//! mid-stream cancellation with exact fragment reclaim.

use multijoin::core::ScheduleModel;
use multijoin::exec::{
    chain_query_sql, generate_family, Database, DbConfig, QueryFamily, QueryStatus,
};
use multijoin::relalg::{JoinAlgorithm, RelalgError, Relation, RelationProvider};

mod common;
use common::settled;

/// Opens a Database over a seeded family instance.
fn family_db(family: QueryFamily, k: usize, n: usize, seed: u64, mut config: DbConfig) -> Database {
    // The paper's machine model keeps these few-hundred-tuple fixtures
    // partitioned; the measured default plans them at degree 1.
    config.planner.schedule_model = ScheduleModel::prisma();
    let instance = generate_family(family, k, n, seed).unwrap();
    let db = Database::open(config).unwrap();
    let mut names = instance.catalog.names();
    names.sort();
    for name in &names {
        db.register(name, instance.catalog.relation(name).unwrap())
            .unwrap();
    }
    db.analyze().unwrap();
    db
}

/// Evaluates `text`'s sequential oracle on `db`'s catalog.
fn oracle(db: &Database, text: &str) -> Relation {
    db.plan(text)
        .unwrap_or_else(|e| panic!("{}", e.render(text)))
        .oracle_xra(JoinAlgorithm::Simple)
        .unwrap()
        .eval(db.catalog().as_ref())
        .unwrap()
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
fn chunk_boundaries_are_invisible_across_batch_sizes() {
    // Columnar operands deliver chunk-at-a-time and the driver paces rows
    // per scheduling quantum; odd batch sizes force splits at every
    // boundary (mid-fragment, mid-chunk, mid-probe). The result must not
    // depend on any of it.
    let text = format!("{} WHERE R1.id < 170", chain_query_sql(4));
    for batch_size in [3, 16, 129, 4096] {
        let mut config = DbConfig::default();
        config.exec.batch_size = batch_size;
        config.exec.channel_capacity = 2;
        let db = family_db(QueryFamily::Chain, 4, 350, 17, config);
        assert_matches_oracle(&db, &text);
    }
}

#[test]
fn families_with_filters_and_group_by_match_oracle() {
    // Chain and skewed share the (a, b, id) schema; skewed concentrates
    // keys so probe batches hit long bucket chains.
    for family in [QueryFamily::Chain, QueryFamily::Skewed] {
        let db = family_db(family, 4, 400, 29, DbConfig::default());
        let base = chain_query_sql(4);
        assert_matches_oracle(&db, &format!("{base} WHERE R0.id < 120 AND R2.a <> 5"));
        assert_matches_oracle(
            &db,
            &format!(
                "SELECT R0.b, COUNT(*), SUM(R2.id), MIN(R1.id), MAX(R3.id) \
                 {} WHERE R1.id < 260 GROUP BY R0.b",
                &base["SELECT * ".len()..]
            ),
        );
    }
    // Star: a fact relation probing three dimension builds.
    let db = family_db(QueryFamily::Star, 4, 240, 41, DbConfig::default());
    assert_matches_oracle(
        &db,
        "SELECT R1.payload, COUNT(*), MAX(R3.measure) \
         FROM R0 JOIN R3 ON R0.key = R3.fk0 \
         JOIN R1 ON R1.key = R3.fk1 JOIN R2 ON R2.key = R3.fk2 \
         WHERE R3.measure < 180 GROUP BY R1.payload",
    );
}

#[test]
fn forced_strategies_agree_on_the_columnar_result() {
    // All four allocation strategies drive the same columnar kernels
    // through different stream/materialization topologies; each must
    // reproduce the oracle exactly.
    let text = format!("{} WHERE R0.id < 200", chain_query_sql(4));
    let reference = {
        let db = family_db(QueryFamily::Chain, 4, 300, 53, DbConfig::default());
        oracle(&db, &text)
    };
    for strategy in multijoin::core::Strategy::ALL {
        let mut config = DbConfig::default();
        config.planner.strategy = Some(strategy);
        let db = family_db(QueryFamily::Chain, 4, 300, 53, config);
        let result = db.query(&text).unwrap().collect().unwrap();
        assert!(
            result.multiset_eq(&reference),
            "{strategy}: diverged from the oracle ({} vs {} rows)",
            result.len(),
            reference.len()
        );
    }
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
