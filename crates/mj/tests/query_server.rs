//! Differential test for the query server: N concurrent TCP clients,
//! each running queries over the wire against one shared engine, must
//! return exactly the multiset the sequential XRA oracle computes —
//! on the chain, star, and skewed families, under pipelining, and with
//! rejected/failed requests mixed into the load.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use multijoin::core::ScheduleModel;
use multijoin::exec::{
    chain_query_sql, generate_family, star_query_sql, Database, DbConfig, QueryFamily,
};
use multijoin::server::{Client, ClientError, Server, ServerConfig};

mod common;
use common::{oracle_rows, sorted, Rows};

/// Opens a served Database over a seeded family instance; returns the db
/// handle (for the oracle) and the running server.
fn family_server(
    family: QueryFamily,
    k: usize,
    n: usize,
    seed: u64,
    mut config: DbConfig,
) -> (Arc<Database>, Server) {
    let instance = generate_family(family, k, n, seed).unwrap();
    // The paper's machine model keeps these few-hundred-tuple fixtures
    // partitioned; the measured default plans them at degree 1.
    config.planner.schedule_model = ScheduleModel::prisma();
    let db = Arc::new(Database::open(config).unwrap());
    instance.load(&db).unwrap();
    let server = Server::start(db.clone(), ServerConfig::default()).unwrap();
    (db, server)
}

/// Runs `clients` concurrent wire clients, each issuing every query in
/// `texts` `rounds` times, and asserts every reply is multiset-identical
/// to the oracle.
fn hammer(addr: SocketAddr, db: &Database, texts: &[String], clients: usize, rounds: usize) {
    let expected: Vec<Rows> = texts.iter().map(|t| oracle_rows(db, t)).collect();
    let texts = Arc::new(texts.to_vec());
    let expected = Arc::new(expected);

    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let texts = texts.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_timeout(addr, Duration::from_secs(10)).unwrap();
                for round in 0..rounds {
                    // Rotate the starting query per client so concurrent
                    // traffic mixes different plans at all times.
                    for i in 0..texts.len() {
                        let q = (c + round + i) % texts.len();
                        let reply = client
                            .query(&texts[q])
                            .unwrap_or_else(|e| panic!("client {c} query {q}: {e}"));
                        assert_eq!(
                            sorted(reply.rows),
                            expected[q],
                            "client {c} round {round} query {q} diverged from oracle"
                        );
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

#[test]
fn concurrent_clients_match_oracle_on_chain() {
    let (db, server) = family_server(QueryFamily::Chain, 4, 300, 11, DbConfig::default());
    let texts = vec![
        chain_query_sql(4),
        format!("{} WHERE R1.id < 150", chain_query_sql(4)),
        // No LIMIT here: which rows a limit keeps is execution-order
        // dependent, so it cannot be compared against the oracle.
        "SELECT R0.b, COUNT(*) FROM R0 JOIN R1 ON R0.id = R1.id GROUP BY R0.b".to_string(),
    ];
    hammer(server.local_addr(), &db, &texts, 8, 3);
}

#[test]
fn concurrent_clients_match_oracle_on_star() {
    let (db, server) = family_server(QueryFamily::Star, 4, 250, 13, DbConfig::default());
    let texts = vec![
        star_query_sql(4),
        format!("{} WHERE R0.key < 120", star_query_sql(4)),
    ];
    hammer(server.local_addr(), &db, &texts, 6, 3);
}

#[test]
fn concurrent_clients_match_oracle_on_skewed() {
    let (db, server) = family_server(QueryFamily::Skewed, 4, 300, 17, DbConfig::default());
    let texts = vec![
        chain_query_sql(4),
        format!("{} WHERE R2.a < 200", chain_query_sql(4)),
    ];
    hammer(server.local_addr(), &db, &texts, 6, 3);
}

#[test]
fn pipelined_wire_replies_match_oracle_in_order() {
    let (db, server) = family_server(QueryFamily::Chain, 3, 200, 19, DbConfig::default());
    let texts: Vec<String> = vec![
        chain_query_sql(3),
        format!("{} WHERE R0.id < 60", chain_query_sql(3)),
        format!("{} WHERE R1.id < 140", chain_query_sql(3)),
    ];
    let expected: Vec<_> = texts.iter().map(|t| oracle_rows(&db, t)).collect();

    let mut client = Client::connect(server.local_addr()).unwrap();
    // Fire everything before reading anything; replies must come back in
    // request order, each matching its own oracle.
    for t in &texts {
        client.send_query(t).unwrap();
    }
    for (i, exp) in expected.iter().enumerate() {
        let reply = client.collect_reply().unwrap();
        assert_eq!(&sorted(reply.rows), exp, "pipelined reply {i}");
    }
}

#[test]
fn failures_mixed_into_concurrent_load_do_not_poison_results() {
    let (db, server) = family_server(QueryFamily::Chain, 3, 200, 23, DbConfig::default());
    let addr = server.local_addr();
    let good = chain_query_sql(3);
    let expected = oracle_rows(&db, &good);

    let threads: Vec<_> = (0..6)
        .map(|c| {
            let good = good.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_timeout(addr, Duration::from_secs(10)).unwrap();
                for round in 0..4 {
                    if (c + round) % 3 == 0 {
                        // A failing request (bind error) interleaved with
                        // the good ones.
                        match client.query("SELECT * FROM Nope JOIN R1 ON Nope.id = R1.id") {
                            Err(ClientError::Server(e)) => assert_eq!(e.code, "bind"),
                            other => panic!("expected bind error, got {other:?}"),
                        }
                    }
                    let reply = client.query(&good).unwrap();
                    assert_eq!(sorted(reply.rows), expected, "client {c} round {round}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}
