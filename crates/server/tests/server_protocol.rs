//! Integration tests for the query server over real TCP sockets:
//! malformed-frame accept/reject behaviour (the connection must survive
//! every rejection), pipelining order, disconnect-cancels, graceful
//! shutdown drain, the connection cap, and both metrics expositions.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mj_exec::{generate_family, Database, DbConfig, QueryFamily};
use mj_relalg::RelationProvider;
use mj_server::{Client, ClientError, MetricsFormat, Server, ServerConfig};
use serde::JsonValue;

/// A served database over a seeded family instance.
fn family_server(family: QueryFamily, k: usize, n: usize, seed: u64, config: DbConfig) -> Server {
    let instance = generate_family(family, k, n, seed).unwrap();
    let db = Database::open(config).unwrap();
    let mut names = instance.catalog.names();
    names.sort();
    for name in &names {
        db.register(name, instance.catalog.relation(name).unwrap())
            .unwrap();
    }
    db.analyze().unwrap();
    Server::start(Arc::new(db), ServerConfig::default()).unwrap()
}

fn chain_server() -> Server {
    family_server(QueryFamily::Chain, 3, 120, 7, DbConfig::default())
}

/// A served chain database whose queries take at least `startup_ms` (the
/// paper's per-process startup cost), plus the database handle for
/// engine-side assertions.
///
/// The 120-tuple chain plans as two single-process joins that start
/// together, so a query stays in flight for about one `startup_ms` (it was
/// 16 processes queueing for 4 workers, four paddings deep, when the
/// planner priced a process start at PRISMA's 27 tuple actions).
fn padded_chain_server(startup_ms: u64) -> (Arc<Database>, Server) {
    let mut config = DbConfig::default();
    config.exec.startup_cost = Some(Duration::from_millis(startup_ms));
    let instance = generate_family(QueryFamily::Chain, 3, 120, 7).unwrap();
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

const CHAIN_QUERY: &str = "SELECT * FROM R0 JOIN R1 ON R0.id = R1.id JOIN R2 ON R1.id = R2.id";

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
    assert!(metrics.get("metrics").is_some());
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
fn disconnect_cancels_the_in_flight_query() {
    // Slow the query down so the disconnect happens mid-flight.
    let (db, server) = padded_chain_server(160);
    let _keep = &server;

    let before = db.stats();
    {
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.send_query(CHAIN_QUERY).unwrap();
        // Give the server a beat to start the query, then vanish.
        std::thread::sleep(Duration::from_millis(30));
    }

    // The engine observes the drop as a cancellation (or, if the race went
    // the other way, a completion) — never a leak: active must return to 0.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = db.stats();
        let done = s.queries_canceled > before.queries_canceled
            || s.queries_completed > before.queries_completed;
        if done && s.queries_active == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "query neither canceled nor completed after disconnect: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn graceful_shutdown_drains_in_flight_queries() {
    let (_db, server) = padded_chain_server(160);
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    client.send_query(CHAIN_QUERY).unwrap();

    // Give the server time to parse and start the query, then shut down
    // concurrently with it in flight.
    std::thread::sleep(Duration::from_millis(30));
    let shutdown = std::thread::spawn(move || server.shutdown());

    // The in-flight query still delivers its full reply.
    let reply = client.collect_reply().unwrap();
    assert!(!reply.rows.is_empty());

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
fn requests_during_drain_are_rejected_as_overloaded() {
    // Startup-cost padding keeps the first query in flight long enough
    // for the drain (and the mid-drain request) to land while it runs.
    let (_db, server) = padded_chain_server(240);
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    client.send_query(CHAIN_QUERY).unwrap();
    std::thread::sleep(Duration::from_millis(30));

    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(30));

    // This request arrives while the server drains; it must be answered
    // with a typed overloaded error, not silence.
    client.send_query(CHAIN_QUERY).unwrap();

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
    let mut names = instance.catalog.names();
    names.sort();
    for name in &names {
        db.register(name, instance.catalog.relation(name).unwrap())
            .unwrap();
    }
    db.analyze().unwrap();
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
    let completed = json.get("queries_completed").expect("counter present");
    assert!(matches!(completed, JsonValue::Int(n) if *n >= 1));
    assert!(json.get("query_duration_ms").is_some());
    // The ad-hoc query above was planned once, on the connection worker.
    let planned = json
        .get("plan_duration_seconds")
        .and_then(|h| h.get("count"));
    assert!(matches!(planned, Some(JsonValue::Int(1))), "{planned:?}");
    // "Was that query cold?": `analyze` built the three relations' columnar
    // images (three misses), the query found all three resident.
    for (name, value) in [
        ("fragment_cache_hits", 3),
        ("fragment_cache_misses", 3),
        ("fragment_cache_evictions", 0),
        ("fragment_cache_bytes", 3 * 120 * 3 * 8),
        // "How many processes does a query cost?": two joins of 120-tuple
        // relations hold no grain of work between them, so the one
        // completed query ran as a single operation process.
        ("queries_completed", 1),
        ("operation_processes", 1),
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
    assert!(text.contains("mj_fragment_cache_misses_total 3\n"));
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
    assert!(parsed.get("queries_completed").is_some());
}

#[test]
fn wire_options_enforce_deadlines() {
    // A deadline of 1ms against a startup-cost-padded query must come back
    // as a typed deadline_exceeded error over the wire.
    let mut config = DbConfig::default();
    config.exec.startup_cost = Some(Duration::from_millis(30));
    let instance = generate_family(QueryFamily::Chain, 3, 60, 7).unwrap();
    let db = Database::open(config).unwrap();
    let mut names = instance.catalog.names();
    names.sort();
    for name in &names {
        db.register(name, instance.catalog.relation(name).unwrap())
            .unwrap();
    }
    db.analyze().unwrap();
    let server = Server::start(Arc::new(db), ServerConfig::default()).unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.send_query_with(CHAIN_QUERY, Some(1), None).unwrap();
    match client.collect_reply() {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "deadline_exceeded"),
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }

    // Same connection, generous deadline: succeeds.
    client
        .send_query_with(CHAIN_QUERY, Some(60_000), None)
        .unwrap();
    assert!(!client.collect_reply().unwrap().rows.is_empty());
}
