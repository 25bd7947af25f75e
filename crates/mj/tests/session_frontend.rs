//! End-to-end tests of the session facade: the text frontend (parse +
//! bind, spanned errors), the streaming result path (differential against
//! the sequential XRA oracle on all three seeded query families), and
//! quiescent cancellation.

use std::sync::Arc;

use multijoin::core::ScheduleModel;
use multijoin::exec::{chain_query_sql, star_query_sql, QueryStatus};
use multijoin::prelude::*;
use multijoin::relalg::RelalgError;

mod common;
use common::settled;

/// Opens a database over a generated family instance, registered through
/// the front door.
fn db_for(family: QueryFamily, k: usize, n: usize, seed: u64) -> Database {
    let instance = generate_family(family, k, n, seed).expect("family");
    // The paper's machine model keeps these few-hundred-tuple fixtures
    // partitioned; the measured default plans them at degree 1.
    let mut config = DbConfig::default();
    config.planner.schedule_model = ScheduleModel::prisma();
    let db = Database::open(config).expect("open");
    instance.load(&db).expect("load");
    db
}

#[test]
fn streamed_results_match_the_sequential_oracle_on_all_families() {
    for (family, seed) in [
        (QueryFamily::Chain, 11u64),
        (QueryFamily::Star, 12),
        (QueryFamily::Skewed, 13),
    ] {
        let k = 5;
        let db = db_for(family, k, 96, seed);
        let text = match family {
            QueryFamily::Star => star_query_sql(k),
            _ => chain_query_sql(k),
        };
        // Oracle: sequential XRA evaluation of the planner's lowering.
        let planned = db.plan(&text).expect("plan");
        let oracle = planned
            .lowered
            .to_xra(&planned.tree, JoinAlgorithm::Simple)
            .expect("oracle plan")
            .eval(db.catalog().as_ref())
            .expect("oracle eval");

        // Streamed-and-collected parallel result.
        let mut handle = db.query(&text).expect("submit");
        let mut stream = handle.stream();
        let schema = stream.schema().clone();
        let mut tuples: Vec<Tuple> = Vec::new();
        let mut batches = 0usize;
        while let Some(mut batch) = stream.next_batch() {
            tuples.extend(batch.drain());
            batches += 1;
        }
        drop(stream);
        handle.outcome().unwrap_or_else(|e| panic!("{family}: {e}"));
        let streamed = Relation::new_unchecked(schema, tuples);
        assert!(batches >= 1, "{family}: no batches streamed");
        assert!(
            streamed.multiset_eq(&oracle),
            "{family}: streamed result differs from the sequential oracle \
             ({} vs {} tuples)",
            streamed.len(),
            oracle.len()
        );
    }
}

#[test]
fn explicit_select_list_projects_and_orders() {
    let db = db_for(QueryFamily::Chain, 3, 64, 9);
    let result = db
        .query("SELECT R2.id, R0.id FROM R0 JOIN R1 ON R0.b = R1.a JOIN R2 ON R1.b = R2.a")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(result.schema().arity(), 2);
    assert_eq!(result.schema().attr(0).unwrap().name, "id");
    // Compare against the star query's full output narrowed by hand.
    let full = db.query(&chain_query_sql(3)).unwrap().collect().unwrap();
    assert_eq!(result.len(), full.len());
}

#[test]
fn cancellation_mid_stream_leaves_the_engine_quiescent_and_reusable() {
    let instance = generate_family(QueryFamily::Chain, 5, 4_000, 21).expect("family");
    // Tiny batches + capacity-1 channels guarantee the query is still in
    // flight (root blocked on client backpressure) when we cancel.
    let mut config = DbConfig::default();
    config.exec.workers = 2;
    config.exec.batch_size = 16;
    config.exec.channel_capacity = 1;
    let db = Database::open(config).expect("open");
    instance.load(&db).unwrap();

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

    // Quiescence: every charge credited back, no tasks left on the pool,
    // and the worker set unchanged.
    let engine = db.engine();
    assert_eq!(settled(&budget), 0, "budget credited back");
    assert_eq!(engine.pool().queued(), 0, "no zombie tasks queued");
    assert_eq!(engine.pool().threads(), 2, "pool unchanged");

    // The same session immediately serves the same query to completion.
    let result = db.query(&text).unwrap().collect().unwrap();
    let planned = db.plan(&text).unwrap();
    let oracle = planned
        .lowered
        .to_xra(&planned.tree, JoinAlgorithm::Simple)
        .unwrap()
        .eval(db.catalog().as_ref())
        .unwrap();
    assert!(result.multiset_eq(&oracle), "engine reusable after cancel");
}

#[test]
fn dropping_the_stream_cancels_the_query() {
    let db = db_for(QueryFamily::Chain, 4, 2_000, 5);
    let mut handle = db.query(&chain_query_sql(4)).unwrap();
    let mut stream = handle.stream();
    let _ = stream.next_batch();
    drop(stream); // live stream dropped -> implicit cancel
    let budget = handle.budget().clone();
    match handle.outcome() {
        Err(RelalgError::Canceled) => {}
        // The query may legitimately have finished before the drop landed.
        Ok(_) => {}
        Err(other) => panic!("unexpected error: {other}"),
    }
    assert_eq!(settled(&budget), 0);
}

// --- Frontend validation audit: errors, never panics ---

#[test]
fn zero_workers_and_zero_processors_are_config_errors() {
    let mut config = DbConfig::default();
    config.exec.workers = 0;
    assert!(matches!(Database::open(config), Err(MjError::Config(_))));

    let mut config = DbConfig::default();
    config.planner.processors = 0;
    assert!(matches!(Database::open(config), Err(MjError::Config(_))));

    // Direct planner use with zero processors errors too (no panic).
    let instance = generate_family(QueryFamily::Chain, 3, 32, 1).unwrap();
    let db = Database::open(DbConfig::default()).unwrap();
    instance.load(&db).unwrap();
    let (query, _) = db.bind(&chain_query_sql(3)).unwrap();
    assert!(Planner::new(PlannerOptions::new(0)).plan(&query).is_err());
}

#[test]
fn duplicate_registration_is_rejected_atomically() {
    let db = db_for(QueryFamily::Chain, 3, 32, 2);
    let schema = Schema::new(vec![Attribute::int("x")]).shared();
    let rel = Arc::new(Relation::new_unchecked(
        schema,
        vec![Tuple::from_ints(&[1])],
    ));
    let err = db.register("R0", rel).unwrap_err();
    assert!(
        matches!(err, MjError::DuplicateRelation(ref n) if n == "R0"),
        "{err}"
    );
    // The original arity-3 chain relation survives.
    assert_eq!(db.catalog().relation("R0").unwrap().schema().arity(), 3);
}

#[test]
fn querying_an_unregistered_relation_is_a_spanned_bind_error() {
    let db = db_for(QueryFamily::Chain, 3, 32, 4);
    let src = "SELECT * FROM R0 JOIN missing ON R0.b = missing.a";
    let err = db.query(src).unwrap_err();
    let span = err.span().expect("bind error carries a span");
    assert_eq!(&src[span.start..span.end], "missing");
    assert!(err.to_string().contains("unknown relation"), "{err}");
    // render() draws a caret under the offending token.
    let rendered = err.render(src);
    assert!(rendered.contains("^^^^^^^"), "{rendered}");
}

#[test]
fn parse_reject_table_via_the_facade() {
    let db = db_for(QueryFamily::Chain, 3, 32, 6);
    // (source, expected span start).
    let cases: &[(&str, usize)] = &[
        ("", 0),
        ("SELECT", 6),
        ("SELECT * FROM", 13),
        ("SELECT * FROM R0 JOIN R1", 24),
        ("SELECT * FROM R0 JOIN R1 ON R0.b R1.a", 33),
        ("SELECT * FROM R0 JOIN R1 ON b = R1.a", 30),
        ("SELECT * FROM R0; DROP TABLE R0", 16),
    ];
    for (src, start) in cases {
        let err = db.query(src).expect_err(src);
        assert!(matches!(err, MjError::Parse(_)), "{src}: {err}");
        assert_eq!(err.span().unwrap().start, *start, "{src}");
    }
}

#[test]
fn parse_accept_table_via_the_facade() {
    let db = db_for(QueryFamily::Chain, 4, 48, 8);
    let accept = [
        "SELECT * FROM R0 JOIN R1 ON R0.b = R1.a",
        "select * from R0 join R1 on R0.b = R1.a", // lowercase keywords
        "SELECT R0.id FROM R0 JOIN R1 ON R0.b = R1.a",
        "SELECT R1.a, R0.b FROM R0 JOIN R1 ON R0.b = R1.a",
        " SELECT\t*\nFROM R0 JOIN R1 ON R0.b = R1.a ", // whitespace
    ];
    for src in accept {
        let result = db.query(src).expect(src).collect().expect(src);
        assert!(!result.is_empty(), "{src}: empty result");
    }
}

#[test]
fn bind_rejects_type_mismatched_join_columns() {
    let db = Database::open(DbConfig::default()).unwrap();
    let ints = Schema::new(vec![Attribute::int("k")]).shared();
    let strs = Schema::new(vec![Attribute::str("k")]).shared();
    db.register(
        "A",
        Arc::new(Relation::new_unchecked(ints, vec![Tuple::from_ints(&[1])])),
    )
    .unwrap();
    db.register(
        "B",
        Arc::new(Relation::new_unchecked(
            strs,
            vec![Tuple::new(vec![Value::str("x")])],
        )),
    )
    .unwrap();
    let src = "SELECT * FROM A JOIN B ON A.k = B.k";
    let err = db.query(src).unwrap_err();
    assert!(matches!(err, MjError::Bind { .. }), "{err}");
    assert!(err.to_string().contains("types differ"), "{err}");
}

#[test]
fn texts_that_differ_only_past_a_comment_get_their_own_statements() {
    // In `with_newline` the comment ends before the WHERE clause; in
    // `swallowed` it swallows it. The plan cache must not serve one
    // statement's plan for the other, in either prepare order.
    let joins = "SELECT * FROM R0 JOIN R1 ON R0.b = R1.a -- note";
    let with_newline = format!("{joins}\nWHERE R0.id < 5");
    let swallowed = format!("{joins} WHERE R0.id < 5");
    let rows = |db: &Database, text: &str| {
        let stmt = db.prepare(text).expect("prepare");
        let rows = db
            .execute_prepared(&stmt, &[])
            .expect("execute")
            .collect()
            .expect("collect")
            .len();
        (stmt, rows)
    };
    let fresh = |text: &str| rows(&db_for(QueryFamily::Chain, 2, 200, 7), text).1;
    let (filtered, all) = (fresh(&with_newline), fresh(&swallowed));
    assert!(filtered < all, "{filtered} vs {all} rows");

    for order in [[&with_newline, &swallowed], [&swallowed, &with_newline]] {
        let db = db_for(QueryFamily::Chain, 2, 200, 7);
        let (first, first_rows) = rows(&db, order[0]);
        let (second, second_rows) = rows(&db, order[1]);
        assert!(!Arc::ptr_eq(&first, &second), "one statement for two texts");
        for (text, got) in [(order[0], first_rows), (order[1], second_rows)] {
            let want = if text == &with_newline { filtered } else { all };
            assert_eq!(got, want, "{text:?}");
        }
    }
}
