//! Differential tests for late materialization: ref-carrying narrow plans
//! (`LateMode::Always`) versus the sequential XRA oracle, on the seeded
//! chain/star/skewed families.
//!
//! `columnar_pipeline.rs` pins the eager columnar path; this suite forces
//! the late rewrite and stresses what it changed: joins move packed row
//! references instead of payloads, the root join gathers payloads from
//! the pinned registry, and everything downstream (stages, client
//! channel) must be byte-identical to the eager plan. Chunk boundaries,
//! every allocation strategy, LIMIT early-stop with refs still in
//! flight, and mid-stream cancellation all get the same treatment.

use multijoin::core::{ScheduleModel, Strategy};
use multijoin::exec::{
    chain_query_sql, generate_family, Database, DbConfig, LateMode, QueryFamily, QueryStatus,
};
use multijoin::relalg::{JoinAlgorithm, RelalgError, Relation};

mod common;
use common::settled;

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

/// Default config with the late rewrite forced on.
fn late_config() -> DbConfig {
    let mut config = DbConfig::default();
    config.exec.late = LateMode::Always;
    config
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

/// Runs `text` on the late-materialized engine and asserts exact multiset
/// equality with the sequential oracle. Returns the row count.
fn assert_matches_oracle(db: &Database, text: &str) -> usize {
    let expected = oracle(db, text);
    let result = db
        .query(text)
        .unwrap_or_else(|e| panic!("{}", e.render(text)))
        .collect()
        .unwrap();
    assert!(
        result.multiset_eq(&expected),
        "{text}: late engine returned {} rows, oracle {} rows",
        result.len(),
        expected.len()
    );
    result.len()
}

#[test]
fn late_families_match_oracle_with_filters_and_group_by() {
    // Chain and skewed share the (a, b, id) schema; skewed concentrates
    // keys so long bucket chains carry many refs per probe row.
    for family in [QueryFamily::Chain, QueryFamily::Skewed] {
        let db = family_db(family, 4, 400, 29, late_config());
        let base = chain_query_sql(4);
        assert_matches_oracle(&db, &base);
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
    // Star: the fact relation's refs survive three dimension probes.
    let db = family_db(QueryFamily::Star, 4, 240, 41, late_config());
    assert_matches_oracle(
        &db,
        "SELECT R1.payload, COUNT(*), MAX(R3.measure) \
         FROM R0 JOIN R3 ON R0.key = R3.fk0 \
         JOIN R1 ON R1.key = R3.fk1 JOIN R2 ON R2.key = R3.fk2 \
         WHERE R3.measure < 180 GROUP BY R1.payload",
    );
    // The root gather ran: join-side emission is counted either way, so
    // assert the engine's ref machinery is observable through stats.
    assert!(
        db.stats().gather_rows > 0,
        "join gather counter must move under the late plan"
    );
}

#[test]
fn late_chunk_boundaries_are_invisible_across_batch_sizes() {
    // Refs must resolve identically no matter where quantum and batch
    // boundaries fall: odd sizes force flushes mid-fragment, mid-chunk,
    // and mid-probe, each leaving refs in `out` across steps.
    let text = format!("{} WHERE R1.id < 170", chain_query_sql(4));
    for batch_size in [3, 16, 129, 4096] {
        let mut config = late_config();
        config.exec.batch_size = batch_size;
        config.exec.channel_capacity = 2;
        let db = family_db(QueryFamily::Chain, 4, 350, 17, config);
        assert_matches_oracle(&db, &text);
    }
}

#[test]
fn late_forced_strategies_agree_on_the_result() {
    // All four allocation strategies run the same narrow rewrite through
    // different stream/materialization topologies; materialized narrow
    // intermediates are re-scanned bucket-wise with refs intact.
    let text = format!("{} WHERE R0.id < 200", chain_query_sql(4));
    let reference = {
        let db = family_db(QueryFamily::Chain, 4, 300, 53, DbConfig::default());
        oracle(&db, &text)
    };
    for strategy in Strategy::ALL {
        let mut config = late_config();
        config.planner.strategy = Some(strategy);
        let db = family_db(QueryFamily::Chain, 4, 300, 53, config);
        let result = db.query(&text).unwrap().collect().unwrap();
        assert!(
            result.multiset_eq(&reference),
            "{strategy}: late plan diverged from the oracle ({} vs {} rows)",
            result.len(),
            reference.len()
        );
    }
}

#[test]
fn late_and_eager_return_identical_multisets() {
    // Same data, same query, both modes: the rewrite must be invisible in
    // the result. (`Never` forces the eager path even where `Auto` would
    // rewrite.)
    let text = format!("{} WHERE R0.id < 250", chain_query_sql(5));
    let eager = {
        let mut config = DbConfig::default();
        config.exec.late = LateMode::Never;
        let db = family_db(QueryFamily::Chain, 5, 300, 97, config);
        db.query(&text).unwrap().collect().unwrap()
    };
    let late = {
        let db = family_db(QueryFamily::Chain, 5, 300, 97, late_config());
        db.query(&text).unwrap().collect().unwrap()
    };
    assert!(
        late.multiset_eq(&eager),
        "late ({}) vs eager ({}) rows",
        late.len(),
        eager.len()
    );
}

#[test]
fn late_limit_early_stop_quiesces_and_reclaims_fragments() {
    // Early stop fires while refs are still unresolved in upstream joins;
    // the pinned registry must not leak and reclaim stays exact.
    let mut config = late_config();
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
    // The limited rows must come from the true (resolved) result.
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
    let all = db.query(&base).unwrap().collect().unwrap();
    assert!(all.multiset_eq(&full));
}

#[test]
fn late_mid_stream_cancel_quiesces_with_exact_reclaim() {
    // Cancel with refs in flight: narrow batches die with their channels,
    // the registry dies with the query, and the session keeps serving.
    let mut config = late_config();
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

    let engine = db.engine();
    assert_eq!(settled(&budget), 0, "budget credited back");
    assert_eq!(engine.pool().queued(), 0, "no zombie tasks queued");
    assert_eq!(engine.pool().threads(), 2, "pool unchanged");

    // The same session then serves the query to completion, correctly.
    assert_matches_oracle(&db, &text);
}

#[test]
fn late_budget_accounting_returns_to_zero() {
    // The registry's pinned payload bytes are charged for the query's
    // lifetime and credited at teardown; a completed query leaves the
    // budget exactly where it started.
    let db = family_db(QueryFamily::Chain, 4, 500, 11, late_config());
    let text = chain_query_sql(4);
    let before = db.stats();
    assert_matches_oracle(&db, &text);
    let after = db.stats();
    assert_eq!(
        before.queries_failed, after.queries_failed,
        "no hidden failures"
    );
    assert!(
        after.batch_pool_takes >= after.batch_pool_misses,
        "pool counters stay coherent ({} takes, {} misses)",
        after.batch_pool_takes,
        after.batch_pool_misses
    );
    assert!(
        after.gather_rows > before.gather_rows,
        "join emission gathers are counted"
    );
}

#[test]
fn late_query_pins_the_shared_resident_images_and_is_charged_for_them() {
    // Refs index the *unfiltered* resident image, so what the registry
    // pins — and the budget is charged for — is the whole image of every
    // relation with a payload column in the result, however few rows the
    // scan filter keeps: the pin is what keeps those bytes alive if the
    // relation is replaced mid-query, so they are this query's to account
    // for. The image itself is the catalog entry's single shared copy; a
    // second query pins the same one and builds nothing.
    let db = family_db(QueryFamily::Chain, 4, 500, 11, late_config());
    let text = format!("{} WHERE R1.id < 5", chain_query_sql(4));
    let catalog = db.catalog();
    let images = catalog.resident_stats();
    for _ in 0..2 {
        let mut handle = db.query(&text).unwrap();
        let budget = handle.budget().clone();
        let result = handle.stream().collect_relation();
        let metrics = handle.outcome().unwrap().metrics;
        assert_eq!(settled(&budget), 0, "the pins are credited back");
        assert!(result.multiset_eq(&oracle(&db, &text)));
        assert!(
            metrics.peak_bytes >= images.bytes,
            "peak {} below the {} pinned image bytes",
            metrics.peak_bytes,
            images.bytes
        );
        assert_eq!(
            (metrics.fragment_cache_hits, metrics.fragment_cache_built),
            (4, 0)
        );
    }
    let after = catalog.resident_stats();
    assert_eq!(after.bytes, images.bytes, "narrow leaves are per query");
    assert_eq!(after.misses, 0, "no base relation partitioned");
}
