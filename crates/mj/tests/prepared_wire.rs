//! Differential tests for prepared statements and the binary columnar
//! wire format: every `execute` over the wire must return exactly the
//! multiset the equivalent ad-hoc query and the sequential XRA oracle
//! produce — across families, parameter boundary values, result
//! formats, statement lifecycle errors, and catalog mutation between
//! prepare and execute. A statement's run template is built once per
//! catalog generation, shared by every connection, and left intact by an
//! aborted execute.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use multijoin::core::ScheduleModel;
use multijoin::exec::{
    chain_query_sql, generate_family, star_query_sql, Database, DbConfig, QueryFamily, QueryOptions,
};
use multijoin::relalg::{RelalgError, RelationProvider};
use multijoin::server::{Client, ClientError, Server, ServerConfig};

mod common;
use common::{oracle_rows, rows, sorted, Rows};

/// Opens a served Database over a seeded family instance; returns the db
/// handle (for the oracle) and the running server.
fn family_server(family: QueryFamily, k: usize, n: usize, seed: u64) -> (Arc<Database>, Server) {
    let instance = generate_family(family, k, n, seed).unwrap();
    // The paper's machine model keeps these few-hundred-tuple fixtures
    // partitioned; the measured default plans them at degree 1.
    let mut config = DbConfig::default();
    config.planner.schedule_model = ScheduleModel::prisma();
    let db = Arc::new(Database::open(config).unwrap());
    instance.load(&db).unwrap();
    let server = Server::start(db.clone(), ServerConfig::default()).unwrap();
    (db, server)
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect_timeout(addr, Duration::from_secs(10)).unwrap()
}

#[test]
fn prepared_executions_match_adhoc_and_oracle_across_families() {
    let cases = [
        (
            QueryFamily::Chain,
            300usize,
            11u64,
            chain_query_sql(4),
            "R1.id",
        ),
        (QueryFamily::Star, 250, 13, star_query_sql(4), "R0.key"),
        (QueryFamily::Skewed, 300, 17, chain_query_sql(4), "R2.a"),
    ];
    for (family, n, seed, base, filter_col) in cases {
        let (db, server) = family_server(family, 4, n, seed);
        let mut client = connect(server.local_addr());
        let param_q = format!("{base} WHERE {filter_col} < ?1");
        let prep = client.prepare(&param_q).unwrap();
        assert_eq!(prep.params, 1, "{family:?}");
        assert!(!prep.columns.is_empty(), "{family:?}");
        // Boundary-hugging arguments: empty result, one row in, midpoint,
        // last row, everything, past the key range.
        let n = n as i64;
        for arg in [-1, 0, 1, n / 2, n - 1, n, 2 * n] {
            let wire = client.execute(prep.id, &[arg]).unwrap();
            let literal = format!("{base} WHERE {filter_col} < {arg}");
            let adhoc = client.query(&literal).unwrap();
            let oracle = oracle_rows(&db, &literal);
            assert_eq!(
                sorted(wire.rows),
                oracle,
                "{family:?} arg {arg}: prepared diverged from oracle"
            );
            assert_eq!(
                sorted(adhoc.rows),
                oracle,
                "{family:?} arg {arg}: ad-hoc diverged from oracle"
            );
        }
        client.close(prep.id).unwrap();
    }
}

#[test]
fn zero_parameter_statements_prepare_and_execute() {
    let (db, server) = family_server(QueryFamily::Chain, 3, 150, 19);
    let mut client = connect(server.local_addr());
    let text = chain_query_sql(3);
    let prep = client.prepare(&text).unwrap();
    assert_eq!(prep.params, 0);
    let oracle = oracle_rows(&db, &text);
    for _ in 0..3 {
        let reply = client.execute(prep.id, &[]).unwrap();
        assert_eq!(sorted(reply.rows), oracle);
    }
    // Repeated executions of the same statement must be plan-cache hits:
    // preparing the same text again returns without a fresh plan.
    let before = db.stats();
    let again = client.prepare(&text).unwrap();
    assert_ne!(again.id, prep.id, "wire ids are per-prepare");
    let after = db.stats();
    assert!(
        after.plan_cache_hits > before.plan_cache_hits,
        "re-preparing identical text must hit the shared plan cache"
    );
}

#[test]
fn binary_and_json_formats_deliver_identical_streams() {
    let (db, server) = family_server(QueryFamily::Chain, 4, 300, 29);
    let mut client = connect(server.local_addr());
    let texts = [
        chain_query_sql(4),
        format!("{} WHERE R0.id < 150", chain_query_sql(4)),
        "SELECT R0.b, COUNT(*) FROM R0 JOIN R1 ON R0.id = R1.id GROUP BY R0.b".to_string(),
    ];
    for t in &texts {
        let json = client.query(t).unwrap();
        let bin = client.query_bin(t).unwrap();
        let oracle = oracle_rows(&db, t);
        assert_eq!(sorted(json.rows.clone()), oracle, "json path: {t}");
        assert_eq!(sorted(bin.to_rows()), oracle, "bin path: {t}");
        assert_eq!(bin.rows as usize, oracle.len(), "done frame row count: {t}");
    }
    // Prepared + binary on the same connection, interleaved with JSON.
    let prep = client
        .prepare(&format!("{} WHERE R1.id < ?1", chain_query_sql(4)))
        .unwrap();
    for arg in [0, 100, 300] {
        let b = client.execute_bin(prep.id, &[arg]).unwrap();
        let j = client.execute(prep.id, &[arg]).unwrap();
        assert_eq!(
            sorted(b.to_rows()),
            sorted(j.rows),
            "prepared bin/json divergence at arg {arg}"
        );
    }
}

#[test]
fn statement_lifecycle_errors_are_typed_and_connection_survives() {
    let (db, server) = family_server(QueryFamily::Chain, 3, 100, 31);
    let mut client = connect(server.local_addr());
    let good = chain_query_sql(3);
    let expected = oracle_rows(&db, &good);

    // Executing / closing an id that was never prepared.
    match client.execute(999, &[]) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, "params");
            assert!(e.message.contains("unknown prepared statement"), "{e}");
        }
        other => panic!("expected params error, got {other:?}"),
    }
    match client.close(999) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "params"),
        other => panic!("expected params error, got {other:?}"),
    }

    // A parse error inside `prepare` carries its span code.
    match client.prepare("SELECT nonsense") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "parse"),
        other => panic!("expected parse error, got {other:?}"),
    }
    // Non-contiguous placeholder numbering is a bind error.
    match client.prepare(&format!("{good} WHERE R1.id < ?2")) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, "bind");
            assert!(e.message.contains("contiguously"), "{e}");
        }
        other => panic!("expected bind error, got {other:?}"),
    }
    // Placeholders in an ad-hoc query are rejected with a pointer to
    // prepare/execute.
    match client.query(&format!("{good} WHERE R1.id < ?1")) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, "bind");
            assert!(e.message.contains("prepared statement"), "{e}");
        }
        other => panic!("expected bind error, got {other:?}"),
    }

    // Arity mismatches on a live statement.
    let prep = client.prepare(&format!("{good} WHERE R1.id < ?1")).unwrap();
    for bad_args in [&[][..], &[1, 2][..]] {
        match client.execute(prep.id, bad_args) {
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, "params");
                assert!(e.message.contains("expects 1 argument"), "{e}");
            }
            other => panic!("expected params error, got {other:?}"),
        }
    }

    // Malformed execute frames are protocol-level rejections.
    for bad in [
        r#"{"execute": {"id": 1, "args": "x"}}"#,
        r#"{"execute": {"args": [1]}}"#,
        r#"{"execute": {"id": 1}, "options": {}}"#,
        r#"{"prepare": "q"}"#,
        r#"{"close": {}}"#,
    ] {
        client.send_line(bad).unwrap();
        let frame = client.read_frame().unwrap().unwrap();
        let err = frame
            .get("error")
            .unwrap_or_else(|| panic!("expected error frame for {bad}, got {frame:?}"));
        let code = format!("{:?}", err.get("code"));
        assert!(code.contains("protocol"), "{bad}: {code}");
    }

    // Executing after close is the same typed failure...
    client.close(prep.id).unwrap();
    match client.execute(prep.id, &[10]) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "params"),
        other => panic!("expected params error, got {other:?}"),
    }
    // ...and the connection survives all of the above.
    let reply = client.query(&good).unwrap();
    assert_eq!(sorted(reply.rows), expected);
}

#[test]
fn catalog_mutation_between_prepare_and_execute_stays_correct() {
    let (db, server) = family_server(QueryFamily::Chain, 3, 200, 37);
    let mut client = connect(server.local_addr());
    let param_q = format!("{} WHERE R1.id < ?1", chain_query_sql(3));
    let literal = format!("{} WHERE R1.id < 120", chain_query_sql(3));

    let prep = client.prepare(&param_q).unwrap();
    let before = client.execute(prep.id, &[120]).unwrap();
    assert_eq!(sorted(before.rows), oracle_rows(&db, &literal));

    // Mutate the catalog under the live statement: a new registration
    // bumps the generation (the `analyze` after it does not), so the
    // cached plan is stale and must be transparently re-prepared — never
    // run as-is.
    let misses_before = db.stats().plan_cache_misses;
    db.register("Zed", db.catalog().relation("R0").unwrap())
        .unwrap();
    db.analyze().unwrap();

    let after = client.execute(prep.id, &[120]).unwrap();
    assert_eq!(
        sorted(after.rows),
        oracle_rows(&db, &literal),
        "stale prepared statement must re-plan, not run a stale plan"
    );
    assert!(
        db.stats().plan_cache_misses > misses_before,
        "staleness detection must register as a plan-cache miss"
    );
    // The re-prepared plan is cached: further executions keep working.
    let again = client.execute(prep.id, &[120]).unwrap();
    assert_eq!(sorted(again.rows), oracle_rows(&db, &literal));
}

/// The literal form of `param_q` (`... < ?1`) for argument `arg`.
fn bound(param_q: &str, arg: i64) -> String {
    param_q.replace("?1", &arg.to_string())
}

#[test]
fn one_template_serves_two_connections_with_different_arguments() {
    let (db, server) = family_server(QueryFamily::Chain, 4, 300, 41);
    let param_q = format!("{} WHERE R1.id < ?1", chain_query_sql(4));
    // Planned once up front, so both connections' prepares hit the cache
    // and share the statement.
    db.prepare(&param_q).unwrap();
    let built = db.engine().templates_built();
    std::thread::scope(|scope| {
        for args in [[0i64, 150, 299], [300, 7, 151]] {
            let (db, param_q) = (&db, &param_q);
            let addr = server.local_addr();
            scope.spawn(move || {
                let mut client = connect(addr);
                let prep = client.prepare(param_q).unwrap();
                for _ in 0..3 {
                    for arg in args {
                        let reply = client.execute(prep.id, &[arg]).unwrap();
                        let expected = oracle_rows(db, &bound(param_q, arg));
                        assert_eq!(sorted(reply.rows), expected, "?1 = {arg}");
                    }
                }
            });
        }
    });
    assert_eq!(
        db.engine().templates_built(),
        built + 1,
        "both connections execute the one statement's template"
    );
}

#[test]
fn a_catalog_change_retires_the_template_once() {
    let instance = generate_family(QueryFamily::Chain, 3, 200, 43).unwrap();
    let donor = generate_family(QueryFamily::Chain, 3, 200, 44).unwrap();
    let mut config = DbConfig::default();
    config.planner.schedule_model = ScheduleModel::prisma();
    let db = Database::open(config).unwrap();
    instance.load(&db).unwrap();
    let param_q = format!("{} WHERE R1.id < ?1", chain_query_sql(3));
    let stmt = db.prepare(&param_q).unwrap();
    let engine = db.engine();
    let run = |arg: i64| -> Rows {
        let relation = db
            .execute_prepared(&stmt, &[arg])
            .unwrap()
            .collect()
            .unwrap();
        rows(&relation)
    };
    assert_eq!(run(120), oracle_rows(&db, &bound(&param_q, 120)));
    assert!(stmt.template().is_some(), "the first execute builds it");
    // R2 replaced under its name, then analyzed: after each, the old
    // statement answers from the catalog as it now is. The replacement's
    // template is built once, not per execute; `analyze` is no catalog
    // write, so after it every execute finds that same plan in the cache
    // and builds nothing.
    let replace = || {
        db.catalog()
            .register("R2", donor.catalog.relation("R2").unwrap())
    };
    let refresh = || db.analyze().unwrap();
    for (change, mutate) in [("register", &replace as &dyn Fn()), ("analyze", &refresh)] {
        let built = engine.templates_built();
        let (hits, misses) = (db.stats().plan_cache_hits, db.stats().plan_cache_misses);
        let before = oracle_rows(&db, &bound(&param_q, 150));
        mutate();
        let after = oracle_rows(&db, &bound(&param_q, 150));
        if change == "register" {
            assert_ne!(before, after, "the donor's R2 must change the answer");
        }
        for _ in 0..3 {
            assert_eq!(run(150), after, "{change}: old statement, new data");
        }
        if change == "register" {
            assert_eq!(engine.templates_built(), built + 1, "{change}");
        } else {
            assert_eq!(
                engine.templates_built(),
                built,
                "{change}: no template rebuilt"
            );
            let stats = db.stats();
            assert!(stats.plan_cache_hits > hits, "{change}: a cache hit");
            assert_eq!(stats.plan_cache_misses, misses, "{change}: no re-plan");
        }
    }
    assert!(
        !Arc::ptr_eq(
            stmt.template().unwrap(),
            db.prepare(&param_q).unwrap().template().unwrap()
        ),
        "the stale statement keeps its own template"
    );
}

#[test]
fn an_aborted_templated_execute_leaves_nothing_behind() {
    let instance = generate_family(QueryFamily::Chain, 3, 4_000, 47).unwrap();
    // Tiny batches and a one-slot result channel: the query blocks on the
    // client almost at once, so it is still running when it is canceled.
    let mut config = DbConfig::default();
    config.exec.workers = 2;
    config.exec.batch_size = 16;
    config.exec.channel_capacity = 1;
    let db = Database::open(config).unwrap();
    instance.load(&db).unwrap();
    let param_q = format!("{} WHERE R0.id < ?1", chain_query_sql(3));
    let stmt = db.prepare(&param_q).unwrap();
    let expected = oracle_rows(&db, &bound(&param_q, 3_000));
    let engine = db.engine();
    let answer = || {
        let relation = db
            .execute_prepared(&stmt, &[3_000])
            .unwrap()
            .collect()
            .unwrap();
        rows(&relation)
    };
    assert_eq!(answer(), expected);
    let built = engine.templates_built();

    // Everything the query charged is credited back once its tasks, edges
    // and stream are gone, a moment after its outcome.
    let settled = |budget: &Arc<multijoin::exec::MemoryBudget>, ctx: &str| {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while budget.used() > 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(budget.used(), 0, "{ctx}: budget");
        let pool = engine.pool();
        assert_eq!((pool.queued(), pool.parked()), (0, 0), "{ctx}: pool");
    };

    let mut handle = db.execute_prepared(&stmt, &[3_000]).unwrap();
    let budget = handle.budget().clone();
    let mut stream = handle.stream();
    assert!(stream.next_batch().is_some(), "a first batch arrives");
    handle.cancel();
    while stream.next_batch().is_some() {}
    drop(stream);
    let err = handle.outcome().expect_err("canceled");
    assert!(matches!(err, RelalgError::Canceled), "{err}");
    settled(&budget, "cancel");
    assert_eq!(answer(), expected);

    for (ctx, opts) in [
        (
            "deadline",
            QueryOptions::new().with_deadline(Duration::from_nanos(1)),
        ),
        ("budget", QueryOptions::new().with_memory_budget(1)),
    ] {
        let handle = db.execute_prepared_with(&stmt, &[3_000], opts).unwrap();
        let budget = handle.budget().clone();
        let err = handle.collect().expect_err(ctx);
        let typed = match ctx {
            "deadline" => matches!(err, RelalgError::DeadlineExceeded),
            _ => matches!(err, RelalgError::ResourceExhausted { budget: 1, .. }),
        };
        assert!(typed, "{ctx}: {err}");
        settled(&budget, ctx);
        assert_eq!(answer(), expected, "{ctx}: the next execute");
    }
    assert_eq!(engine.templates_built(), built, "aborts keep the template");
}
