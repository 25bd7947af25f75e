//! Differential tests for prepared statements and the binary columnar
//! wire format: every `execute` over the wire must return exactly the
//! multiset the equivalent ad-hoc query and the sequential XRA oracle
//! produce — across families, parameter boundary values, result
//! formats, statement lifecycle errors, and catalog mutation between
//! prepare and execute.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use multijoin::core::ScheduleModel;
use multijoin::exec::{
    chain_query_sql, generate_family, star_query_sql, Database, DbConfig, QueryFamily,
};
use multijoin::relalg::{JoinAlgorithm, Relation, RelationProvider, Value};
use multijoin::server::{Client, ClientError, Server, ServerConfig};

/// Opens a served Database over a seeded family instance; returns the db
/// handle (for the oracle) and the running server.
fn family_server(family: QueryFamily, k: usize, n: usize, seed: u64) -> (Arc<Database>, Server) {
    let instance = generate_family(family, k, n, seed).unwrap();
    // The paper's machine model keeps these few-hundred-tuple fixtures
    // partitioned; the measured default plans them at degree 1.
    let mut config = DbConfig::default();
    config.planner.schedule_model = ScheduleModel::prisma();
    let db = Arc::new(Database::open(config).unwrap());
    let mut names = instance.catalog.names();
    names.sort();
    for name in &names {
        db.register(name, instance.catalog.relation(name).unwrap())
            .unwrap();
    }
    db.analyze().unwrap();
    let server = Server::start(db.clone(), ServerConfig::default()).unwrap();
    (db, server)
}

/// Evaluates `text`'s sequential oracle on `db`'s catalog, canonically
/// sorted for multiset comparison.
fn oracle_rows(db: &Database, text: &str) -> Vec<Vec<Value>> {
    let relation: Relation = db
        .plan(text)
        .unwrap_or_else(|e| panic!("{}", e.render(text)))
        .oracle_xra(JoinAlgorithm::Simple)
        .unwrap()
        .eval(db.catalog().as_ref())
        .unwrap();
    let mut rows: Vec<Vec<Value>> = relation.iter().map(|t| t.values().to_vec()).collect();
    rows.sort();
    rows
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
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

    // Mutate the catalog under the live statement: a new registration and
    // a statistics refresh both bump the generation, so the cached plan
    // is stale and must be transparently re-prepared — never run as-is.
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
