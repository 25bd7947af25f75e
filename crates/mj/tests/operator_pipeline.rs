//! Differential tests for the physical-operator framework: WHERE / GROUP
//! BY / LIMIT queries executed by the parallel engine versus the
//! sequential XRA reference ([`PlannedQuery::oracle_xra`]), on the seeded
//! chain/star/skewed families — plus the LIMIT early-termination
//! quiescence contract (engine reusable, fragments reclaimed).

use multijoin::core::ScheduleModel;
use multijoin::exec::{chain_query_sql, generate_family, Database, DbConfig, QueryFamily};
use multijoin::relalg::{Predicate, Relation};

mod common;
use common::{oracle, settled};

/// Opens a Database over a seeded family instance (relations re-registered
/// through the front door, statistics analyzed).
fn family_db(family: QueryFamily, k: usize, n: usize, seed: u64, mut config: DbConfig) -> Database {
    // The paper's machine model keeps these few-hundred-tuple fixtures
    // partitioned; the measured default plans them at degree 1.
    config.planner.schedule_model = ScheduleModel::prisma();
    let instance = generate_family(family, k, n, seed).unwrap();
    let db = Database::open(config).unwrap();
    instance.load(&db).unwrap();
    db
}

/// Runs `text` on the engine and checks the result against the sequential
/// oracle of the same plan (exact multiset equality; `text` must not carry
/// a LIMIT). Returns the row count.
fn assert_matches_oracle(db: &Database, text: &str) -> usize {
    let planned = db
        .plan(text)
        .unwrap_or_else(|e| panic!("{}", e.render(text)));
    assert!(!planned.has_limit(), "use the subset check for LIMIT");
    let oracle = oracle(db, text);
    let result = db
        .query(text)
        .unwrap_or_else(|e| panic!("{}", e.render(text)))
        .collect()
        .unwrap();
    assert!(
        result.multiset_eq(&oracle),
        "{text}: engine returned {} rows, oracle {} rows",
        result.len(),
        oracle.len()
    );
    result.len()
}

/// True if `sub` is a multiset subset of `sup`.
fn is_multisubset(sub: &Relation, sup: &Relation) -> bool {
    let mut a: Vec<_> = sub.tuples().to_vec();
    let mut b: Vec<_> = sup.tuples().to_vec();
    a.sort_unstable();
    b.sort_unstable();
    let mut j = 0;
    'outer: for t in &a {
        while j < b.len() {
            match b[j].cmp(t) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[test]
fn filter_queries_match_oracle_on_every_family() {
    // Chain and skewed share the (a, b, id) schema; star has dims
    // (key, payload) and a fact (fk0.., measure).
    for family in [QueryFamily::Chain, QueryFamily::Skewed] {
        let db = family_db(family, 4, 400, 11, DbConfig::default());
        let base = chain_query_sql(4);
        // R0 holds 400 rows in the chain family but only 100 in skewed
        // (sizes alternate n/4, n, 2n): a 25-row id cut is selective in
        // both.
        let rows = assert_matches_oracle(&db, &format!("{base} WHERE R0.id < 25"));
        let all = assert_matches_oracle(&db, &base);
        assert!(rows < all, "{family:?}: the filter must be selective");
        // Multiple conjuncts across relations, range + equality shapes.
        assert_matches_oracle(
            &db,
            &format!("{base} WHERE R0.id < 200 AND R3.id >= 50 AND R1.a <> 3"),
        );
        // Literal-on-the-left comparisons bind mirrored.
        assert_matches_oracle(&db, &format!("{base} WHERE 100 > R2.id"));
        // Same-relation column-to-column predicate.
        assert_matches_oracle(&db, &format!("{base} WHERE R0.a < R0.b"));
    }
    let db = family_db(QueryFamily::Star, 4, 200, 7, DbConfig::default());
    assert_matches_oracle(
        &db,
        "SELECT R3.measure, R0.payload FROM R0 JOIN R3 ON R0.key = R3.fk0 \
         JOIN R1 ON R1.key = R3.fk1 JOIN R2 ON R2.key = R3.fk2 \
         WHERE R3.measure < 150 AND R1.payload >= 200",
    );
}

#[test]
fn aggregate_queries_match_oracle() {
    let db = family_db(QueryFamily::Chain, 3, 300, 3, DbConfig::default());
    let joins = "FROM R0 JOIN R1 ON R0.b = R1.a JOIN R2 ON R1.b = R2.a";
    // Grouped COUNT/SUM/MIN/MAX, group column interleaved with aggregates.
    assert_matches_oracle(
        &db,
        &format!("SELECT COUNT(*), R0.b, SUM(R2.id), MIN(R1.id), MAX(R1.id) {joins} GROUP BY R0.b"),
    );
    // Global aggregates (no GROUP BY): exactly one row.
    let rows = assert_matches_oracle(&db, &format!("SELECT COUNT(*), SUM(R1.id) {joins}"));
    assert_eq!(rows, 1);
    // Grouped-distinct: GROUP BY without aggregates.
    assert_matches_oracle(&db, &format!("SELECT R0.b {joins} GROUP BY R0.b"));
    // Filter below, aggregate above.
    assert_matches_oracle(
        &db,
        &format!("SELECT R0.b, COUNT(*) {joins} WHERE R1.id < 150 GROUP BY R0.b"),
    );
    // Multi-column grouping.
    assert_matches_oracle(
        &db,
        &format!("SELECT R0.b, R2.b, COUNT(*) {joins} GROUP BY R0.b, R2.b"),
    );
    // Duplicate aggregate calls get distinct output names.
    let planned = db
        .plan(&format!("SELECT SUM(R1.id), SUM(R1.id) {joins}"))
        .unwrap();
    let schema = planned.binding.stages().last().unwrap().schema.clone();
    assert_eq!(schema.attr(0).unwrap().name, "sum_id");
    assert_eq!(schema.attr(1).unwrap().name, "sum_id_2");
}

#[test]
fn every_where_conjunct_is_a_scan_filter() {
    // A WHERE conjunct names one relation, so it always runs where that
    // relation is read: one combined scan filter per relation, and no
    // post-join stage that selects.
    let db = family_db(QueryFamily::Chain, 4, 300, 9, DbConfig::default());
    let text = format!(
        "{} WHERE R1.id < 60 AND R2.id < 250 AND R1.id >= 5",
        chain_query_sql(4)
    );

    let planned = db.plan(&text).unwrap();
    let filters = planned.binding.scan_filters();
    let mut names: Vec<&String> = filters.keys().collect();
    names.sort();
    assert_eq!(names, ["R1", "R2"]);
    assert!(
        matches!(filters["R1"], Predicate::And(..)),
        "both R1 conjuncts fold into its one scan filter: {}",
        filters["R1"]
    );
    assert!(planned.binding.stages().is_empty());
    assert_matches_oracle(&db, &text);
    let explain = planned.explain();
    assert!(explain.contains("pushed scan filters"), "{explain}");
    assert!(!explain.contains("post-join pipeline"), "{explain}");

    // Above a GROUP BY the only stage is the aggregate.
    let grouped =
        chain_query_sql(4).replacen("*", "R0.b, COUNT(*)", 1) + " WHERE R1.id < 60 GROUP BY R0.b";
    let planned = db.plan(&grouped).unwrap();
    assert_eq!(planned.binding.scan_filters().len(), 1);
    let kinds: Vec<&str> = planned
        .binding
        .stages()
        .iter()
        .map(|s| s.kind.name())
        .collect();
    assert_eq!(kinds, ["aggregate"]);
    assert_matches_oracle(&db, &grouped);
}

#[test]
fn where_group_by_limit_streams_end_to_end() {
    // The acceptance-criterion query: SELECT g, COUNT(*) ... JOIN ...
    // WHERE ... GROUP BY g LIMIT k through the streaming session.
    let db = family_db(QueryFamily::Chain, 4, 500, 21, DbConfig::default());
    let text = format!(
        "SELECT R0.b, COUNT(*) {} WHERE R1.id < 300 GROUP BY R0.b LIMIT 7",
        &chain_query_sql(4)["SELECT * ".len()..]
    );
    assert!(db.plan(&text).unwrap().has_limit());
    let oracle = oracle(&db, &text);
    let result = db.query(&text).unwrap().collect().unwrap();
    assert_eq!(result.len(), 7.min(oracle.len()));
    assert_eq!(result.schema().arity(), 2);
    assert_eq!(result.schema().attr(1).unwrap().name, "count");
    assert!(
        is_multisubset(&result, &oracle),
        "limited rows must come from the oracle's multiset"
    );
}

#[test]
fn limit_stops_the_pipeline_early_and_engine_stays_usable() {
    // A long chain with tiny batches: LIMIT 3 must terminate the query
    // long before the joins finish, successfully (not via the error
    // path), reclaim every fragment, and leave the engine reusable.
    let mut config = DbConfig::default();
    config.exec.workers = 2;
    config.exec.batch_size = 16;
    config.exec.channel_capacity = 2;
    let db = family_db(QueryFamily::Chain, 5, 4_000, 5, config);
    let text = format!("{} LIMIT 3", chain_query_sql(5));

    for _ in 0..3 {
        let handle = db.query(&text).unwrap();
        let budget = handle.budget().clone();
        let result = handle.collect().unwrap();
        assert_eq!(result.len(), 3);
        assert_eq!(settled(&budget), 0, "every charge credited back");
    }
    // The engine still answers an unlimited query on the same pool.
    let full = db.query(&chain_query_sql(5)).unwrap().collect().unwrap();
    assert!(full.len() > 3);

    // LIMIT larger than the result passes everything through.
    let all = db
        .query(&format!("{} LIMIT 1000000", chain_query_sql(5)))
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(all.len(), full.len());

    // LIMIT 0 yields an empty result, still successfully.
    let none = db
        .query(&format!("{} LIMIT 0", chain_query_sql(5)))
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(none.len(), 0);
}

#[test]
fn aggregate_error_unwinds_without_hanging() {
    // MIN over an empty global group errors in the aggregate stage (same
    // contract as the sequential oracle); the failure must surface as an
    // error — not a hang — and the engine must stay usable.
    let db = family_db(QueryFamily::Chain, 3, 200, 13, DbConfig::default());
    let joins = "FROM R0 JOIN R1 ON R0.b = R1.a JOIN R2 ON R1.b = R2.a";
    let err = db
        .query(&format!("SELECT MIN(R1.id) {joins} WHERE R0.id < 0"))
        .unwrap()
        .collect()
        .unwrap_err();
    assert!(err.to_string().contains("MIN over empty"), "{err}");
    // COUNT over the same empty input succeeds with one zero row.
    let result = db
        .query(&format!("SELECT COUNT(*) {joins} WHERE R0.id < 0"))
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(result.len(), 1);
    assert_eq!(result.tuples()[0].int(0).unwrap(), 0);
}

#[test]
fn spanned_bind_errors_for_the_new_clauses() {
    let db = family_db(QueryFamily::Chain, 3, 100, 1, DbConfig::default());
    let cases: &[(&str, &str)] = &[
        (
            "SELECT * FROM R0 JOIN R1 ON R0.b = R1.a WHERE R0.id < R1.id",
            "only one relation",
        ),
        (
            "SELECT * FROM R0 JOIN R1 ON R0.b = R1.a WHERE 1 = 2",
            "must reference a column",
        ),
        (
            "SELECT * FROM R0 JOIN R1 ON R0.b = R1.a WHERE R0.nope = 1",
            "no column `nope`",
        ),
        (
            "SELECT * FROM R0 JOIN R1 ON R0.b = R1.a GROUP BY R0.b",
            "SELECT * cannot be combined with GROUP BY",
        ),
        (
            "SELECT R0.a, COUNT(*) FROM R0 JOIN R1 ON R0.b = R1.a GROUP BY R0.b",
            "must appear in GROUP BY",
        ),
        (
            "SELECT R0.a, COUNT(*) FROM R0 JOIN R1 ON R0.b = R1.a",
            "must appear in GROUP BY",
        ),
    ];
    for (text, frag) in cases {
        let err = db.query(text).unwrap_err();
        assert!(
            err.to_string().contains(frag),
            "{text}: `{err}` missing `{frag}`"
        );
        assert!(err.span().is_some(), "{text}: bind errors carry spans");
    }
}
