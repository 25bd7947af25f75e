//! Integration tests for the query server over real TCP sockets:
//! malformed-frame accept/reject behaviour (the connection must survive
//! every rejection), pipelining order, the ad-hoc pace, fairness between
//! connections, disconnect-cancels, graceful shutdown drain, the connection cap, both
//! metrics expositions, and deadlines that start no thread.

use std::io::{Read, Write};
use std::mem::ManuallyDrop;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mj_exec::{generate_family, Database, DbConfig, QueryFamily, METRICS_ACCEPT_LIST};
use mj_relalg::{Attribute, Relation, RelationProvider, Schema, Tuple, Value};
use mj_server::{Client, ClientError, MetricsFormat, Server, ServerConfig};
use serde::JsonValue;

/// A database over a seeded chain of three 120-tuple relations.
fn chain_db() -> Arc<Database> {
    chain_db_with(DbConfig::default())
}

/// [`chain_db`] on an engine configured by `config`.
fn chain_db_with(config: DbConfig) -> Arc<Database> {
    let instance = generate_family(QueryFamily::Chain, 3, 120, 7).unwrap();
    let db = Database::open(config).unwrap();
    instance.load(&db).unwrap();
    Arc::new(db)
}

fn chain_server() -> Server {
    Server::start(chain_db(), ServerConfig::default()).unwrap()
}

/// A served database whose one query is slow because of its data, not an
/// injected delay, plus the database handle for engine-side assertions:
/// `H0` and `H1` each hold `HOT_ROWS` rows on a single join key, so
/// [`HOT_QUERY`] counts `HOT_ROWS`² = 4 M joined rows.
fn hot_key_server() -> (Arc<Database>, Server) {
    hot_key_server_with(DbConfig::default(), HOT_ROWS)
}

/// [`hot_key_server`] on an engine configured by `config`, with `rows`
/// rows in each relation.
fn hot_key_server_with(config: DbConfig, rows: i64) -> (Arc<Database>, Server) {
    let schema = Schema::new(vec![Attribute::int("k"), Attribute::int("v")]).shared();
    let db = Arc::new(Database::open(config).unwrap());
    for name in ["H0", "H1"] {
        let rows = (0..rows).map(|v| Tuple::from_ints(&[0, v])).collect();
        db.register(name, Arc::new(Relation::new(schema.clone(), rows).unwrap()))
            .unwrap();
    }
    db.analyze().unwrap();
    let server = Server::start(db.clone(), ServerConfig::default()).unwrap();
    (db, server)
}

const HOT_ROWS: i64 = 2000;
const HOT_QUERY: &str = "SELECT COUNT(*) FROM H0 JOIN H1 ON H0.k = H1.k";

/// Rows per relation where a test needs [`HOT_QUERY`] to outlast another
/// request by a margin that does not depend on the build mode: 9 M joined
/// rows, which ran 120–145 ms in a release build on a two-vCPU VM beside
/// this file's other tests (4 M ran as short as 19 ms).
const HOTTER_ROWS: i64 = 3000;

/// The short prepared statement the interleaving tests send while
/// [`HOT_QUERY`] runs: `?1` = 1 counts `H1`'s rows.
const SHORT_COUNT: &str = "SELECT COUNT(*) FROM H0 JOIN H1 ON H0.k = H1.k WHERE H0.v < ?1";

/// Returns once `db` is running a query. A test acts on the in-flight
/// query (drops its connection, starts shutdown) right after, so it fails
/// rather than passes when the query finished before it could.
fn await_in_flight(db: &Database) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while db.stats().queries_active == 0 {
        assert!(Instant::now() < deadline, "the query never started");
        std::thread::yield_now();
    }
}

const CHAIN_QUERY: &str = "SELECT * FROM R0 JOIN R1 ON R0.id = R1.id JOIN R2 ON R1.id = R2.id";

/// On the chain database, `?1` rows for `?1` up to 120 (`id` is unique
/// and runs 0..120 in every relation).
const ID_BELOW: &str = "SELECT * FROM R0 JOIN R1 ON R0.id = R1.id WHERE R0.id < ?1";

/// Runs `body` on a thread of its own and fails, rather than hangs, when
/// it has not returned within `limit`. A test that uses it holds its server
/// in a `ManuallyDrop`, so that a failure does not then hang in the
/// server's drain.
fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let thread = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Ok(()) => thread.join().unwrap(),
        // The body panicked: surface its panic.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => thread.join().unwrap(),
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("not done within {limit:?}"),
    }
}

/// Tasks a running server keeps on the pool with no connection open: its
/// listener, parked until a connection arrives.
const LISTENER: usize = 1;

/// Waits until the server has closed every connection and the database's
/// pool holds no task but the server's parked listener.
fn assert_quiescent(server: &Server, db: &Database) {
    let pool = db.engine().pool();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_clients() > 0 || pool.queued() > 0 || pool.parked() != LISTENER {
        assert!(
            Instant::now() < deadline,
            "{} clients, {} queued, {} parked",
            server.active_clients(),
            pool.queued(),
            pool.parked()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let server = chain_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let bad_lines = [
        r#"{"query": "q""#,                          // truncated JSON
        r#"{"q": "SELECT"}"#,                        // unknown field
        r#"{"query": 42}"#,                          // ill-typed query
        r#"{"query": "q", "options": {"nope": 1}}"#, // unknown option
        r#"{"metrics": "xml"}"#,                     // unknown metrics format
        r#"[1, 2, 3]"#,                              // non-object frame
    ];
    for line in bad_lines {
        client.send_line(line).unwrap();
        let frame = client.read_frame().unwrap().expect("reply expected");
        let err = frame
            .get("error")
            .unwrap_or_else(|| panic!("expected error frame for {line}, got {frame:?}"));
        assert_eq!(
            err.get("code"),
            Some(&JsonValue::Str("protocol".to_string())),
            "line {line}"
        );
    }

    // Bad UTF-8 cannot go through Client::send_line (str-typed); write raw.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(b"\xff\xfe{}\n").unwrap();
    raw.write_all(b"{\"metrics\": \"json\"}\n").unwrap();
    let mut reply = String::new();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 4096];
    while !reply.contains("\n") || reply.matches('\n').count() < 2 {
        let n = raw.read(&mut buf).unwrap();
        assert!(n > 0, "server closed on bad UTF-8");
        reply.push_str(&String::from_utf8_lossy(&buf[..n]));
    }
    let mut lines = reply.lines();
    assert!(lines.next().unwrap().contains("\"protocol\""));
    assert!(lines.next().unwrap().contains("\"metrics\""));

    // The original connection still serves real queries after six rejects.
    let reply = client.query(CHAIN_QUERY).unwrap();
    assert!(!reply.rows.is_empty());
    assert!(reply.elapsed_ms >= 0.0);
}

#[test]
fn a_deeply_nested_frame_is_a_protocol_error_not_an_abort() {
    // 100 000 unclosed `[` (100 KB, well under the line cap) nest far past
    // the JSON parser's depth cap: the connection must answer with a typed
    // error, and the server must live on.
    let server = chain_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.send_line(&"[".repeat(100_000)).unwrap();
    let frame = client.read_frame().unwrap().expect("reply expected");
    let err = frame.get("error").expect("error frame");
    assert_eq!(
        err.get("code"),
        Some(&JsonValue::Str("protocol".to_string()))
    );
    assert!(client.metrics(MetricsFormat::Json).is_ok());
}

#[test]
fn query_errors_are_typed_with_spans() {
    let server = chain_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A parse error carries its span.
    client.send_line(r#"{"query": "SELECT * FRM R0"}"#).unwrap();
    let frame = client.read_frame().unwrap().unwrap();
    let err = frame.get("error").expect("error frame");
    assert_eq!(err.get("code"), Some(&JsonValue::Str("parse".to_string())));
    assert!(matches!(err.get("span"), Some(JsonValue::Obj(_))));

    // A bind error (unknown relation) also carries a span.
    match client.query("SELECT * FROM NoSuchRel JOIN R1 ON NoSuchRel.id = R1.id") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "bind"),
        other => panic!("expected bind error, got {other:?}"),
    }

    // And the connection still works.
    assert!(!client.query(CHAIN_QUERY).unwrap().rows.is_empty());
}

#[test]
fn oversized_lines_are_rejected_without_killing_the_connection() {
    let server = chain_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A 3 MiB line (> MAX_LINE_BYTES) that never parses; the server must
    // reject by length and keep draining.
    let huge = format!(r#"{{"query": "{}"}}"#, "x".repeat(3 << 20));
    client.send_line(&huge).unwrap();
    let frame = client.read_frame().unwrap().unwrap();
    assert_eq!(
        frame.get("error").unwrap().get("code"),
        Some(&JsonValue::Str("oversized_frame".to_string()))
    );

    // Connection survives.
    assert!(!client.query(CHAIN_QUERY).unwrap().rows.is_empty());
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = chain_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Three different queries fired back-to-back before reading anything;
    // replies must come back in request order. Distinguish them by row
    // width (2-way vs 3-way join).
    let two_way = "SELECT * FROM R0 JOIN R1 ON R0.id = R1.id";
    client.send_query(two_way).unwrap();
    client.send_query(CHAIN_QUERY).unwrap();
    client.send_line(r#"{"metrics": "json"}"#).unwrap();
    client.send_query(two_way).unwrap();

    let first = client.collect_reply().unwrap();
    let second = client.collect_reply().unwrap();
    let metrics = client.read_frame().unwrap().unwrap();
    let fourth = client.collect_reply().unwrap();

    assert_eq!(first.rows[0].len(), 6, "2-way join of 3-column relations");
    assert_eq!(second.rows[0].len(), 9, "3-way join of 3-column relations");
    // The in-protocol JSON frame carries every accept-listed series,
    // keyed by its exported name.
    let series = match metrics.get("metrics") {
        Some(JsonValue::Obj(pairs)) => pairs,
        other => panic!("expected a metrics object, got {other:?}"),
    };
    let keys: Vec<&str> = series.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = METRICS_ACCEPT_LIST.iter().map(|d| d.name).collect();
    assert_eq!(keys, names);
    assert_eq!(fourth.rows.len(), first.rows.len());
}

#[test]
fn sustained_adhoc_statements_are_paced_per_connection() {
    // conn.rs: a burst of 32 ad-hoc statements starts at once, the rest
    // one per 4 ms, counted from when the server adopted the connection.
    const BURST: u32 = 32;
    const INTERVAL: Duration = Duration::from_millis(4);
    let server = chain_server();
    let two_way = "SELECT * FROM R0 JOIN R1 ON R0.id = R1.id";

    let before_connect = Instant::now();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let rows = client.query(two_way).unwrap().rows.len();
    for _ in 1..BURST + 10 {
        assert_eq!(client.query(two_way).unwrap().rows.len(), rows);
    }
    assert!(
        before_connect.elapsed() >= INTERVAL * 10,
        "ten statements past the burst wait a turn each"
    );

    // The pace is the connection's own: a new one starts with a full
    // bucket, and pipelined statements still answer in order.
    let mut other = Client::connect(server.local_addr()).unwrap();
    for _ in 0..BURST + 3 {
        other.send_query(two_way).unwrap();
    }
    for _ in 0..BURST + 3 {
        assert_eq!(other.collect_reply().unwrap().rows.len(), rows);
    }
}

#[test]
fn an_adhoc_flood_on_one_connection_does_not_hold_up_another() {
    // Each connection is its own task on the pool, so B's statement gets
    // its turn in B's own steps while A's flood waits in A's queue (past
    // its burst, parked on a pool timer for its paced turn too).
    const FLOOD: u64 = 200;
    let db = chain_db();
    let server = Server::start(db.clone(), ServerConfig::default()).unwrap();
    let sorted = |mut rows: Vec<Vec<Value>>| {
        rows.sort();
        rows
    };
    let mut a = Client::connect(server.local_addr()).unwrap();
    let expected = sorted(a.query(CHAIN_QUERY).unwrap().rows);

    // The whole flood in one write, so the worker has all of it at once.
    let line = format!(r#"{{"query": "{CHAIN_QUERY}"}}"#);
    a.send_line(&vec![line; FLOOD as usize].join("\n")).unwrap();
    let flood = std::thread::spawn(move || {
        let reply = |_| a.collect_reply().unwrap().rows;
        (0..FLOOD).map(reply).collect::<Vec<_>>()
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while db.stats().queries_completed < 2 {
        assert!(Instant::now() < deadline, "the flood never started");
        std::thread::yield_now();
    }
    let mut b = Client::connect(server.local_addr()).unwrap();
    let b_rows = b.query(CHAIN_QUERY).unwrap().rows;
    // A query is counted before its reply goes out: this counts the first
    // query, B's, and A's flood so far.
    let completed = db.stats().queries_completed;
    assert_eq!(sorted(b_rows), expected);
    assert!(
        completed < FLOOD + 2,
        "B's one statement waited for A's whole flood"
    );
    // Every one of A's replies is whole and right: no frame of one
    // statement strays into another's reply.
    for rows in flood.join().unwrap() {
        assert_eq!(sorted(rows), expected);
    }
}

#[test]
fn disconnect_cancels_the_in_flight_query() {
    let (db, server) = hot_key_server();
    let _keep = &server;

    let before = db.stats();
    {
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.send_query(HOT_QUERY).unwrap();
        // Vanish while the server runs the query.
        await_in_flight(&db);
    }

    // The engine observes the drop as a cancellation — never a completion
    // nobody reads, never a leak: active must return to 0.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = db.stats();
        if s.queries_canceled > before.queries_canceled && s.queries_active == 0 {
            assert_eq!(s.queries_completed, before.queries_completed, "{s:?}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "query not canceled after disconnect: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn graceful_shutdown_drains_in_flight_queries() {
    let (db, server) = hot_key_server();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    client.send_query(HOT_QUERY).unwrap();

    // Shut down concurrently with the query in flight.
    await_in_flight(&db);
    let shutdown = std::thread::spawn(move || server.shutdown());

    // The in-flight query still delivers its full reply.
    let reply = client.collect_reply().unwrap();
    assert_eq!(reply.rows, vec![vec![Value::Int(HOT_ROWS * HOT_ROWS)]]);

    shutdown.join().unwrap();

    // After shutdown the listener is gone.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A TIME_WAIT race can let one connect through; it must at least
            // be closed immediately.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut buf = [0u8; 16];
            matches!(s.read(&mut buf), Ok(0) | Err(_))
        }
    );
}

#[test]
fn graceful_shutdown_closes_idle_connections_at_once() {
    // An idle connection is a parked task; shutdown must wake it, not
    // wait for a client to speak.
    let server = chain_server();
    let addr = server.local_addr();
    let mut talked = Client::connect(addr).unwrap();
    talked.query(CHAIN_QUERY).unwrap();
    let silent: Vec<TcpStream> = (0..5).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_clients() < 6 {
        assert!(Instant::now() < deadline, "connections never dealt");
        std::thread::sleep(Duration::from_millis(1));
    }

    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown with idle connections took {:?}",
        started.elapsed()
    );
    for mut conn in silent {
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut buf = [0u8; 16];
        assert!(
            matches!(conn.read(&mut buf), Ok(0)),
            "closed, not left open"
        );
    }
}

#[test]
fn requests_during_drain_are_rejected_as_overloaded() {
    // The first query's data keeps it in flight long enough for the drain
    // (and the mid-drain request) to land while it runs.
    let (db, server) = hot_key_server();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    client.send_query(HOT_QUERY).unwrap();
    await_in_flight(&db);

    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(10));

    // This request arrives while the server drains; it must be answered
    // with a typed overloaded error, not silence.
    client.send_query(HOT_QUERY).unwrap();
    assert!(
        db.stats().queries_active >= 1,
        "the first query finished before the mid-drain request was sent"
    );

    // First reply: the pre-drain query, completed in full.
    let first = client.collect_reply().unwrap();
    assert!(!first.rows.is_empty());

    // Second reply: overloaded.
    match client.collect_reply() {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, "overloaded");
            assert!(e.queue_depth.is_some());
        }
        other => panic!("expected overloaded during drain, got {other:?}"),
    }

    shutdown.join().unwrap();
}

#[test]
fn connection_cap_rejects_with_queue_depth() {
    let instance = generate_family(QueryFamily::Chain, 3, 60, 7).unwrap();
    let db = Database::open(DbConfig::default()).unwrap();
    instance.load(&db).unwrap();
    let server = Server::start(
        Arc::new(db),
        ServerConfig {
            max_clients: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut first = Client::connect(server.local_addr()).unwrap();
    // Prove the first client is fully admitted before the second connects.
    assert!(first.metrics(MetricsFormat::Json).is_ok());

    let mut second = Client::connect(server.local_addr()).unwrap();
    match second.collect_reply() {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, "overloaded");
            assert_eq!(e.queue_depth, Some(1));
        }
        other => panic!("expected overloaded from over-cap connect, got {other:?}"),
    }

    // The admitted client is unaffected.
    assert!(!first.query(CHAIN_QUERY).unwrap().rows.is_empty());
}

#[test]
fn metrics_are_served_in_protocol_and_over_http() {
    let server = chain_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Generate some engine activity first.
    let reply = client.query(CHAIN_QUERY).unwrap();
    assert!(!reply.rows.is_empty());

    // In-protocol JSON: accept-listed names resolve to values.
    let json = client.metrics(MetricsFormat::Json).unwrap();
    let completed = json
        .get("mj_queries_completed_total")
        .expect("counter present");
    assert!(matches!(completed, JsonValue::Int(n) if *n >= 1));
    assert!(json.get("mj_query_duration_ms").is_some());
    // The ad-hoc query above was planned once, in its connection's step.
    let planned = json
        .get("mj_plan_duration_seconds")
        .and_then(|h| h.get("count"));
    assert!(matches!(planned, Some(JsonValue::Int(1))), "{planned:?}");
    // "Was that query cold?": registration converted the three relations
    // to columnar images, so nothing missed, and the query found all three
    // resident.
    for (name, value) in [
        ("mj_fragment_cache_hits_total", 3),
        ("mj_fragment_cache_misses_total", 0),
        ("mj_fragment_cache_evictions_total", 0),
        ("mj_fragment_cache_bytes", 3 * 120 * 3 * 8),
        // "How many processes does a query cost?": two joins of 120-tuple
        // relations hold no grain of work between them, so the one
        // completed query ran as a single operation process.
        ("mj_queries_completed_total", 1),
        ("mj_operation_processes_total", 1),
    ] {
        let got = json.get(name);
        assert!(
            matches!(got, Some(JsonValue::Int(n)) if *n == value),
            "{name}: {got:?}"
        );
    }

    // In-protocol Prometheus text.
    let text = client.metrics(MetricsFormat::Prometheus).unwrap();
    let text = match text {
        JsonValue::Str(s) => s,
        other => panic!("expected text exposition, got {other:?}"),
    };
    assert!(text.contains("# TYPE mj_queries_total counter"));
    assert!(text.contains("mj_query_duration_ms_bucket"));
    assert!(text.contains("mj_plan_duration_seconds_bucket{le=\"0.001\"}"));
    assert!(text.contains("mj_plan_duration_seconds_count 1\n"));
    assert!(text.contains("# TYPE mj_fragment_cache_bytes gauge"));
    assert!(text.contains("mj_fragment_cache_hits_total 3\n"));
    assert!(text.contains("mj_fragment_cache_misses_total 0\n"));
    assert!(text.contains("mj_fragment_cache_evictions_total 0\n"));
    assert!(text.contains("mj_fragment_cache_bytes 8640\n"));
    assert!(text.contains("# TYPE mj_operation_processes_total counter"));
    assert!(text.contains("mj_operation_processes_total 1\n"));

    // HTTP one-shot scrape: Prometheus text.
    let mut scraper = TcpStream::connect(server.local_addr()).unwrap();
    scraper.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    scraper
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    scraper.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK"));
    assert!(response.contains("mj_queries_total"));

    // HTTP one-shot scrape: JSON.
    let mut scraper = TcpStream::connect(server.local_addr()).unwrap();
    scraper
        .write_all(b"GET /metrics.json HTTP/1.0\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    scraper
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    scraper.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK"));
    let body = response.split("\r\n\r\n").nth(1).expect("http body");
    let parsed: JsonValue = serde_json::from_str(body).unwrap();
    assert!(parsed.get("mj_queries_completed_total").is_some());
}

#[test]
fn wire_options_enforce_deadlines() {
    // A deadline of 1ms against a query with 4 M joined rows must come
    // back as a typed deadline_exceeded error over the wire.
    let (db, server) = hot_key_server();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.send_query_with(HOT_QUERY, Some(1), None).unwrap();
    match client.collect_reply() {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "deadline_exceeded"),
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
    assert_eq!(db.stats().queries_timed_out, 1);

    // Same connection, generous deadline: succeeds.
    client
        .send_query_with(HOT_QUERY, Some(60_000), None)
        .unwrap();
    assert!(!client.collect_reply().unwrap().rows.is_empty());
}

#[test]
fn a_connection_swaps_a_stale_statement_for_the_current_one() {
    // A wire statement id keeps the statement it was prepared as. Once a
    // catalog write makes that statement stale, the connection's next
    // execute takes the current one in its place: the stale plan and its
    // run template, with the scratch its executes lend, go then, not when
    // the client closes the id, and later executes skip the plan cache.
    let db = chain_db();
    let server = Server::start(db.clone(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let stmt = client.prepare(ID_BELOW).unwrap();
    assert_eq!(client.execute(stmt.id, &[5]).unwrap().rows.len(), 5);
    // The cache hands out the connection's statement, template built.
    let local = db.prepare(ID_BELOW).unwrap();
    let template = Arc::downgrade(local.template().expect("the execute built the template"));

    let replacement = db.catalog().relation("R0").unwrap();
    db.catalog().register("R0", replacement);
    assert_eq!(client.execute(stmt.id, &[5]).unwrap().rows.len(), 5);
    let hits = db.stats().plan_cache_hits;
    assert_eq!(client.execute(stmt.id, &[7]).unwrap().rows.len(), 7);
    assert_eq!(
        db.stats().plan_cache_hits,
        hits,
        "an execute of a current statement looked it up again"
    );

    drop(local);
    let deadline = Instant::now() + Duration::from_secs(10);
    while template.upgrade().is_some() {
        assert!(
            Instant::now() < deadline,
            "the stale statement's run template outlived its replacement"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // The id stays open.
    assert_eq!(client.execute(stmt.id, &[3]).unwrap().rows.len(), 3);
    drop(client);
    assert_quiescent(&server, &db);
    server.shutdown();
}

/// Entries of `/proc/self/task`: the process's threads.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// Whether this process runs the test `name` and nothing else. If it does
/// not, runs `name` alone in a child process of this test binary, asserts
/// that it passed, and returns false: a thread count is the whole
/// process's, and the other tests start servers of their own.
fn alone(name: &str) -> bool {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--exact") && args.iter().any(|a| a == name) {
        return true;
    }
    let exe = std::env::current_exe().unwrap();
    let child = std::process::Command::new(exe)
        .args([name, "--exact", "--test-threads=1"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(
        child.status.success() && stdout.contains("1 passed"),
        "{name} alone:\n{stdout}\n{}",
        String::from_utf8_lossy(&child.stderr)
    );
    false
}

#[test]
fn wire_deadlines_start_no_thread() {
    if !alone("wire_deadlines_start_no_thread") {
        return;
    }
    let server = chain_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let rows = client.query(CHAIN_QUERY).unwrap().rows.len();

    // The process's thread count, sampled while the statements run.
    let done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let done = done.clone();
        std::thread::spawn(move || {
            let mut peak = 0;
            while !done.load(Ordering::SeqCst) {
                peak = peak.max(threads());
                std::thread::sleep(Duration::from_micros(100));
            }
            peak
        })
    };
    let before = threads();
    for _ in 0..32 {
        client
            .send_query_with(CHAIN_QUERY, Some(60_000), None)
            .unwrap();
    }
    for _ in 0..32 {
        assert_eq!(client.collect_reply().unwrap().rows.len(), rows);
    }
    done.store(true, Ordering::SeqCst);
    assert_eq!(
        sampler.join().unwrap(),
        before,
        "a deadline started a thread"
    );
}

#[test]
fn one_worker_serves_pipelined_executes_from_three_connections() {
    // A connection step never waits. With one pool worker, three
    // connections' pipelined executes, their queries and the listener all
    // take turns on it: a step that waited for its own query would hold
    // the only worker, and this would hang.
    let mut config = DbConfig::default();
    config.exec.workers = 1;
    let db = chain_db_with(config);
    let server = ManuallyDrop::new(Server::start(db.clone(), ServerConfig::default()).unwrap());
    let addr = server.local_addr();
    within(Duration::from_secs(10), move || {
        let clients: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let stmt = client.prepare(ID_BELOW).unwrap();
                    for k in 1..=20 {
                        client.send_execute(stmt.id, &[k], false).unwrap();
                    }
                    for k in 1..=20 {
                        let reply = client.collect_reply().unwrap();
                        assert_eq!(reply.rows.len(), k as usize, "execute {k}");
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
    });
    assert_quiescent(&server, &db);
    ManuallyDrop::into_inner(server).shutdown();
}

#[test]
fn an_open_idle_connection_is_one_parked_task() {
    let db = chain_db();
    let pool = db.engine().pool();
    assert_eq!((pool.queued(), pool.parked()), (0, 0), "no server yet");
    let server = Server::start(db.clone(), ServerConfig::default()).unwrap();
    assert_quiescent(&server, &db);
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(!client.query(CHAIN_QUERY).unwrap().rows.is_empty());
    let deadline = Instant::now() + Duration::from_secs(10);
    while (pool.queued(), pool.parked()) != (0, LISTENER + 1) {
        assert!(
            Instant::now() < deadline,
            "{} queued, {} parked",
            pool.queued(),
            pool.parked()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(client);
    assert_quiescent(&server, &db);
    server.shutdown();
    assert_eq!((pool.queued(), pool.parked()), (0, 0), "shut down");
}

#[test]
fn one_pool_worker_interleaves_connections_and_queries() {
    // A's ad-hoc query counts 9 M joined rows on the only worker; B's
    // short prepared execute, sent while it runs, is answered first. A
    // connection step that waited for its own query would deadlock here.
    let mut config = DbConfig::default();
    config.exec.workers = 1;
    let (db, server) = hot_key_server_with(config, HOTTER_ROWS);
    let server = ManuallyDrop::new(server);
    let addr = server.local_addr();
    within(Duration::from_secs(30), move || {
        let mut a = Client::connect(addr).unwrap();
        let mut b = Client::connect(addr).unwrap();
        let stmt = b.prepare(SHORT_COUNT).unwrap();
        a.send_query(HOT_QUERY).unwrap();
        await_in_flight(&db);
        let a_reply = std::thread::spawn(move || {
            let reply = a.collect_reply().unwrap();
            (reply, Instant::now())
        });
        let b_reply = b.execute(stmt.id, &[1]).unwrap();
        let b_at = Instant::now();
        let (a_reply, a_at) = a_reply.join().unwrap();
        assert_eq!(b_reply.rows, vec![vec![Value::Int(HOTTER_ROWS)]]);
        let count = HOTTER_ROWS * HOTTER_ROWS;
        assert_eq!(a_reply.rows, vec![vec![Value::Int(count)]]);
        assert!(
            a_reply.elapsed_ms >= 20.0,
            "A's query ran {} ms: too short to overlap B's",
            a_reply.elapsed_ms
        );
        assert!(b_at < a_at, "B's reply came after A's");
    });
    ManuallyDrop::into_inner(server).shutdown();
}

#[test]
fn two_busy_workers_still_answer_a_third_connection_first() {
    // A and B each count 9 M joined rows, which keeps both workers
    // stepping; no worker waits on the sockets. C's prepared execute,
    // sent while both run, is picked up by a busy worker's look between
    // its steps and answered before either count.
    let mut config = DbConfig::default();
    config.exec.workers = 2;
    let (db, server) = hot_key_server_with(config, HOTTER_ROWS);
    let server = ManuallyDrop::new(server);
    let addr = server.local_addr();
    within(Duration::from_secs(60), move || {
        let mut c = Client::connect(addr).unwrap();
        let stmt = c.prepare(SHORT_COUNT).unwrap();
        let counts: Vec<_> = (0..2)
            .map(|_| {
                let mut client = Client::connect(addr).unwrap();
                client.send_query(HOT_QUERY).unwrap();
                client
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while db.stats().queries_active < 2 {
            assert!(Instant::now() < deadline, "the counts never both started");
            std::thread::yield_now();
        }
        let counts: Vec<_> = counts
            .into_iter()
            .map(|mut client| {
                std::thread::spawn(move || {
                    let reply = client.collect_reply().unwrap();
                    (reply, Instant::now())
                })
            })
            .collect();
        let c_reply = c.execute(stmt.id, &[1]).unwrap();
        let c_at = Instant::now();
        assert_eq!(c_reply.rows, vec![vec![Value::Int(HOTTER_ROWS)]]);
        for count in counts {
            let (reply, at) = count.join().unwrap();
            let joined = HOTTER_ROWS * HOTTER_ROWS;
            assert_eq!(reply.rows, vec![vec![Value::Int(joined)]]);
            assert!(
                reply.elapsed_ms >= 20.0,
                "a count ran {} ms: too short to overlap C's execute",
                reply.elapsed_ms
            );
            assert!(c_at < at, "C's reply came after a count's");
        }
        assert!(db.engine().pool().looks() > 0, "no busy worker looked");
    });
    ManuallyDrop::into_inner(server).shutdown();
}

#[test]
fn a_server_adds_no_thread() {
    // The listener is a task on the database's pool, like every
    // connection, and an idle pool worker waits on their sockets itself.
    if !alone("a_server_adds_no_thread") {
        return;
    }
    let db = chain_db();
    let before = threads();
    let server = Server::start(db, ServerConfig::default()).unwrap();
    assert_eq!(threads() - before, 0, "after start");
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(!client.query(CHAIN_QUERY).unwrap().rows.is_empty());
    assert_eq!(threads() - before, 0, "while serving");
    drop(client);
    server.shutdown();
}

#[test]
fn a_connection_opened_while_a_query_runs_on_the_only_worker_is_served_first() {
    // A's ad-hoc query counts 4 M joined rows on the only worker. B
    // connects only then: the listener's step, B's prepare and B's
    // execute all take turns with A's count on that worker, and B's reply
    // comes first.
    let mut config = DbConfig::default();
    config.exec.workers = 1;
    let (db, server) = hot_key_server_with(config, HOT_ROWS);
    let server = ManuallyDrop::new(server);
    let addr = server.local_addr();
    within(Duration::from_secs(30), move || {
        let mut a = Client::connect(addr).unwrap();
        a.send_query(HOT_QUERY).unwrap();
        await_in_flight(&db);
        let a_reply = std::thread::spawn(move || {
            let reply = a.collect_reply().unwrap();
            (reply, Instant::now())
        });
        let mut b = Client::connect(addr).unwrap();
        let stmt = b.prepare(SHORT_COUNT).unwrap();
        let b_reply = b.execute(stmt.id, &[1]).unwrap();
        let b_at = Instant::now();
        let (a_reply, a_at) = a_reply.join().unwrap();
        assert_eq!(b_reply.rows, vec![vec![Value::Int(HOT_ROWS)]]);
        assert_eq!(a_reply.rows, vec![vec![Value::Int(HOT_ROWS * HOT_ROWS)]]);
        assert!(
            a_reply.elapsed_ms >= 20.0,
            "A's query ran {} ms: too short to overlap B's",
            a_reply.elapsed_ms
        );
        assert!(b_at < a_at, "B's reply came after A's");
    });
    ManuallyDrop::into_inner(server).shutdown();
}

#[test]
fn once_shutdown_returns_the_port_refuses_connections() {
    let server = chain_server();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    assert!(!client.query(CHAIN_QUERY).unwrap().rows.is_empty());
    server.shutdown();
    let refused = TcpStream::connect(addr).expect_err("the listener is closed");
    assert_eq!(refused.kind(), std::io::ErrorKind::ConnectionRefused);
    drop(client);
}

/// Reads JSON lines from `reader` until a terminal frame and returns the
/// `rows` of its `done`.
fn done_rows(reader: &mut impl std::io::BufRead) -> i64 {
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "closed mid-reply");
        let frame: JsonValue = serde_json::from_str(&line).unwrap();
        if let Some(done) = frame.get("done") {
            return match done.get("rows") {
                Some(JsonValue::Int(rows)) => *rows,
                Some(JsonValue::UInt(rows)) => *rows as i64,
                other => panic!("done without rows: {other:?}"),
            };
        }
        assert!(frame.get("batch").is_some(), "unexpected frame {line}");
    }
}

#[test]
fn a_request_split_across_two_writes_gets_its_reply() {
    // The second half arrives on an edge of its own, after the first step
    // read the first half up to `WouldBlock` and parked.
    let server = chain_server();
    let mut socket = TcpStream::connect(server.local_addr()).unwrap();
    socket.set_nodelay(true).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let line = format!("{{\"query\": \"{CHAIN_QUERY}\"}}\n");
    let (head, tail) = line.split_at(line.len() / 2);
    socket.write_all(head.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    socket.write_all(tail.as_bytes()).unwrap();
    let mut reader = std::io::BufReader::new(socket);
    assert_eq!(done_rows(&mut reader), 120, "every id joins once");
}

#[test]
fn pipelined_executes_beyond_one_read_chunk_all_get_replies_in_order() {
    // 300 execute lines in one write of more than `READ_CHUNK` (16 KiB):
    // a step reads until the socket would block, so none is left unread
    // without an edge to wake for it. Then one line longer than a chunk,
    // whose tail no query's wake would come back for. Then two short lines
    // in one write: a short read counts as the socket drained, and both
    // lines are parsed from it.
    let server = ManuallyDrop::new(chain_server());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let stmt = client.prepare(ID_BELOW).unwrap();
    let rows = |i: usize| i % 100 + 1;
    // JSON allows the padding, which takes each line past 56 bytes.
    let pad = " ".repeat(24);
    let lines: Vec<String> = (0..300)
        .map(|i| {
            format!(
                "{{{pad}\"execute\": {{\"id\": {}, \"args\": [{}]}}}}",
                stmt.id,
                rows(i)
            )
        })
        .collect();
    let batch = lines.join("\n");
    assert!(batch.len() > 16 * 1024, "{} bytes", batch.len());
    client.send_line(&batch).unwrap();
    within(Duration::from_secs(10), move || {
        for i in 0..300 {
            assert_eq!(
                client.collect_reply().unwrap().rows.len(),
                rows(i),
                "reply {i}"
            );
        }
        let pad = " ".repeat(20 * 1024);
        client
            .send_line(&format!(
                "{{{pad}\"execute\": {{\"id\": {}, \"args\": [7]}}}}",
                stmt.id
            ))
            .unwrap();
        assert_eq!(client.collect_reply().unwrap().rows.len(), 7);
        let execute = |below: usize| {
            format!(
                "{{\"execute\": {{\"id\": {}, \"args\": [{below}]}}}}",
                stmt.id
            )
        };
        client
            .send_line(&format!("{}\n{}", execute(3), execute(5)))
            .unwrap();
        assert_eq!(client.collect_reply().unwrap().rows.len(), 3);
        assert_eq!(client.collect_reply().unwrap().rows.len(), 5);
    });
    ManuallyDrop::into_inner(server).shutdown();
}

#[test]
fn a_slow_reader_still_receives_a_large_binary_result() {
    // A 30 000-row binary result of 32 columns (7.7 MB) is more than the
    // loopback socket's buffers hold and many times `WRITE_HIGH_WATER`: the
    // connection fills the socket, parks on it, and goes on at each
    // writable edge once the client, after a 200 ms nap, starts reading.
    const ROWS: i64 = 30_000;
    const PAYLOAD: i64 = 15;
    let db = Arc::new(Database::open(DbConfig::default()).unwrap());
    for name in ["W0", "W1"] {
        let columns = std::iter::once("k".to_string())
            .chain((0..PAYLOAD).map(|c| format!("{name}_{c}")))
            .map(|c| Attribute::int(&c))
            .collect();
        let rows = (0..ROWS)
            .map(|k| {
                let row: Vec<i64> = std::iter::once(k)
                    .chain((0..PAYLOAD).map(|c| k * c))
                    .collect();
                Tuple::from_ints(&row)
            })
            .collect();
        let schema = Schema::new(columns).shared();
        db.register(name, Arc::new(Relation::new(schema, rows).unwrap()))
            .unwrap();
    }
    db.analyze().unwrap();
    let server = ManuallyDrop::new(Server::start(db, ServerConfig::default()).unwrap());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .send_query_bin("SELECT * FROM W0 JOIN W1 ON W0.k = W1.k")
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));
    within(Duration::from_secs(10), move || {
        let reply = client.collect_reply_bin().unwrap();
        assert_eq!(reply.rows, ROWS as u64);
        let rows = reply.to_rows();
        assert!(rows
            .iter()
            .all(|row| row.len() == 2 * (1 + PAYLOAD as usize)));
        let mut keys: Vec<Value> = rows.into_iter().map(|row| row[0].clone()).collect();
        keys.sort();
        assert_eq!(keys, (0..ROWS).map(Value::Int).collect::<Vec<_>>());
    });
    ManuallyDrop::into_inner(server).shutdown();
}
