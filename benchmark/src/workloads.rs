//! The five workloads: the data each runs on, what it sends through the
//! front door, set-up, the correctness check, and the load generators.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mj_exec::{generate_family, Database, DbConfig, QueryFamily};
use mj_relalg::{JoinAlgorithm, Relation, RelationProvider, Tuple, Value};
use mj_server::{Client, Prepared, Server, ServerConfig, WireColumn};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Generator threads, engine workers: the box has two cores, and more
/// load generators than cores measures the OS scheduler.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Seed of the `generate_family` instance every data set is relabelled
/// from: it pins the *shape* of the data (which rows join, duplicate keys,
/// every intermediate cardinality, hence the plan and the q-errors), so
/// that runs with different `--seed`s measure the same work. Left to the
/// seed, the result of a 14-way join of 50-tuple relations is a branching
/// process: interleaved runs of `short_prepared` on six such instances
/// gave p50s from 1.99 to 2.56 ms, each repeating within 0.1 ms.
const SHAPE_SEED: u64 = 1995;

/// A chain-family data set (`mj_exec::generate_family`) and the one query
/// the benchmark runs on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Data {
    /// 14 relations x 50 tuples, `SELECT * … WHERE S1.id < arg`: a result
    /// of a few dozen rows, so per-query fixed cost is all of the latency.
    Short,
    /// 6 relations x 40 000 tuples, `SELECT COUNT(*)`: join work is all of it.
    Heavy,
    /// 2 relations x 30 000 tuples, `SELECT *`: about 30 000 rows x 6
    /// columns, so moving the result is all of it.
    Wide,
}

impl Data {
    /// Relation-name prefix in the database; distinct per data set so one
    /// database can hold two of them (`mixed_paced`).
    pub fn prefix(self) -> &'static str {
        match self {
            Data::Short => "S",
            Data::Heavy => "H",
            Data::Wide => "W",
        }
    }

    pub fn relations(self) -> usize {
        match self {
            Data::Short => 14,
            Data::Heavy => 6,
            Data::Wide => 2,
        }
    }

    pub fn tuples(self) -> usize {
        match self {
            Data::Short => 50,
            Data::Heavy => 40_000,
            Data::Wide => 30_000,
        }
    }

    /// Number of `?N` parameters of the query (0 or 1).
    pub fn params(self) -> usize {
        usize::from(self == Data::Short)
    }

    /// The `execute` arguments for `arg`: itself, or none when the query
    /// takes no parameter.
    pub fn args(self, arg: &i64) -> &[i64] {
        &std::slice::from_ref(arg)[..self.params()]
    }

    /// Distinct argument values requests draw from (1 when the query takes
    /// no parameter: every request is the same).
    pub fn arg_values(self) -> usize {
        match self {
            Data::Short => self.tuples(),
            _ => 1,
        }
    }

    fn select_sql(self, filter: &str) -> String {
        let p = self.prefix();
        let list = if self == Data::Heavy { "COUNT(*)" } else { "*" };
        let mut q = format!("SELECT {list} FROM {p}0");
        for i in 1..self.relations() {
            q.push_str(&format!(" JOIN {p}{i} ON {p}{}.b = {p}{i}.a", i - 1));
        }
        if self.params() == 1 {
            q.push_str(&format!(" WHERE {p}1.id < {filter}"));
        }
        q
    }

    /// The query as ad-hoc text, the argument inlined as a literal.
    pub fn adhoc_sql(self, arg: i64) -> String {
        self.select_sql(&arg.to_string())
    }

    /// The query as prepared-statement text (`?1` where the argument goes).
    pub fn prepared_sql(self) -> String {
        self.select_sql("?1")
    }

    /// The data set for `seed`: the pinned-shape instance with its join
    /// keys relabelled by a seeded bijection of the key domain. Every tuple
    /// and every reply depends on the seed; no cardinality does.
    pub fn generate(self, seed: u64) -> Res<Vec<Arc<Relation>>> {
        let n = self.tuples();
        let family = generate_family(QueryFamily::Chain, self.relations(), n, SHAPE_SEED)?;
        let mut rng = Rng::new(seed.wrapping_mul(3).wrapping_add(self as u64));
        let mut label: Vec<i64> = (0..n as i64).collect();
        for i in (1..n).rev() {
            label.swap(i, rng.below(i + 1) as usize);
        }
        (0..self.relations())
            .map(|i| {
                let shape = family.catalog.relation(&format!("R{i}"))?;
                let tuples = shape
                    .iter()
                    .map(|t| {
                        let (a, b) = (t.int(0)? as usize, t.int(1)? as usize);
                        Ok(Tuple::from_ints(&[label[a], label[b], t.int(2)?]))
                    })
                    .collect::<Res<Vec<Tuple>>>()?;
                Ok(Arc::new(Relation::new(shape.schema().clone(), tuples)?))
            })
            .collect()
    }

    /// Largest pairwise comparison count the nested-loop XRA oracle would
    /// make; it is affordable on every run only for the small data set.
    fn oracle_affordable(self) -> bool {
        self.tuples() * self.tuples() * (self.relations() - 1) <= 50_000_000
    }
}

/// One stream of requests of a workload.
#[derive(Clone, Copy, Debug)]
pub struct StreamSpec {
    pub data: Data,
    /// One `prepare` per connection then `execute`, or ad-hoc `query` text.
    pub prepared: bool,
    /// Binary columnar result frames, or JSON lines.
    pub bin: bool,
    /// Closed-loop connections (each its own generator thread), capped at
    /// [`parallelism`].
    pub connections: usize,
    /// `Some(rate)`: one connection sending on a fixed schedule (open
    /// loop, one outstanding, timed from the due time) instead.
    pub pace_hz: Option<u32>,
}

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// `latency_p50_ms` is the first stream's, `throughput_qps` the last's.
    pub streams: &'static [StreamSpec],
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "short_prepared",
        why: "14x50 chain through one prepared statement, a few dozen rows back in binary frames: per-query fixed cost (cache hit, task/channel/coordinator set-up, wake latency, round trip) is all of it",
        streams: &[StreamSpec {
            data: Data::Short,
            prepared: true,
            bin: true,
            connections: 2,
            pace_hz: None,
        }],
    },
    Workload {
        name: "short_adhoc",
        why: "Same data and query as ad-hoc JSON text: the plan cache is bypassed and parse/bind/plan dominates, so a planner change moves only this and a prepare-path change must not",
        streams: &[StreamSpec {
            data: Data::Short,
            prepared: false,
            bin: false,
            connections: 2,
            pace_hz: None,
        }],
    },
    Workload {
        name: "join_heavy",
        why: "6x40000 chain COUNT(*) from two back-to-back connections: join kernels, operator busy/blocked time and per-query fragmentation are all of it, wire and planning a few percent",
        // Two connections, not one: a lone heavy query leaves workers
        // napping whenever its tasks are all blocked, and how long a 50 us
        // nap really lasts is the VM host's mood. Interleaved runs in a
        // noisy stretch ranged 27% with one connection and 14% with two.
        // The single-query response time is the traced pass's
        // `engine.response_ms`.
        streams: &[StreamSpec {
            data: Data::Heavy,
            prepared: false,
            bin: false,
            connections: 2,
            pace_hz: None,
        }],
    },
    Workload {
        name: "wide_result",
        why: "2x30000 chain SELECT * (about 30000 rows x 6 columns) in binary frames, every value decoded: root gather, frame encode, socket backpressure and client decode dominate",
        streams: &[StreamSpec {
            data: Data::Wide,
            prepared: false,
            bin: true,
            connections: 1,
            pace_hz: None,
        }],
    },
    Workload {
        name: "mixed_paced",
        why: "The short prepared query paced at 50/s (timed from its due time) beside back-to-back heavy joins on one engine: contention for the shared worker pool and conn worker",
        streams: &[
            StreamSpec {
                data: Data::Short,
                prepared: true,
                bin: true,
                connections: 1,
                pace_hz: Some(50),
            },
            StreamSpec {
                data: Data::Heavy,
                prepared: false,
                bin: false,
                connections: 1,
                pace_hz: None,
            },
        ],
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the harness's only randomness, so inputs depend on the
/// seed and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> i64 {
        (self.next() % n as u64) as i64
    }
}

/// What a correct reply to one request looks like: its row count and the
/// wrapping sum of every cell (all generated columns are integers), so a
/// timed reply is checked for content without sorting rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    pub rows: u64,
    pub checksum: i64,
}

fn value_sum(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        Value::Str(s) => s.len() as i64,
    }
}

impl Expected {
    pub fn of_rows(rows: &[Vec<Value>]) -> Self {
        let checksum = rows
            .iter()
            .flatten()
            .fold(0i64, |acc, v| acc.wrapping_add(value_sum(v)));
        Expected {
            rows: rows.len() as u64,
            checksum,
        }
    }
}

/// A decoded reply, reduced to what [`Expected`] compares. `done_rows` is
/// the server's own count from the terminal frame, where the client
/// exposes it.
#[derive(Clone, Debug)]
pub struct Reply {
    pub seen: Expected,
    pub done_rows: Option<u64>,
    pub rows: Option<Vec<Vec<Value>>>,
}

impl Reply {
    pub fn matches(&self, expected: &Expected) -> bool {
        self.seen == *expected && self.done_rows.is_none_or(|n| n == expected.rows)
    }
}

/// One client connection of a stream, with its prepared statement.
pub struct Conn {
    client: Client,
    spec: StreamSpec,
    stmt: Option<Prepared>,
    /// Ad-hoc texts by argument, rendered once so the timed loop does not
    /// measure `format!`.
    texts: Arc<Vec<String>>,
}

impl Conn {
    /// Sends the stream's query with `arg` and reads the whole reply.
    /// `keep_rows` also pivots it to rows (verification only).
    pub fn request(&mut self, arg: i64, keep_rows: bool) -> Res<Reply> {
        let args = self.spec.data.args(&arg);
        let text = &self.texts[arg as usize];
        if self.spec.bin {
            let reply = match &self.stmt {
                Some(stmt) => self.client.execute_bin(stmt.id, args)?,
                None => self.client.query_bin(text)?,
            };
            let mut seen = Expected {
                rows: 0,
                checksum: 0,
            };
            for batch in &reply.batches {
                seen.rows += batch.row_count as u64;
                for column in &batch.columns {
                    seen.checksum = match column {
                        WireColumn::Int(ints) => ints
                            .iter()
                            .fold(seen.checksum, |acc, v| acc.wrapping_add(*v)),
                        WireColumn::Val(vals) => vals
                            .iter()
                            .fold(seen.checksum, |acc, v| acc.wrapping_add(value_sum(v))),
                    };
                }
            }
            Ok(Reply {
                seen,
                done_rows: Some(reply.rows),
                rows: keep_rows.then(|| reply.to_rows()),
            })
        } else {
            let reply = match &self.stmt {
                Some(stmt) => self.client.execute(stmt.id, args)?,
                None => self.client.query(text)?,
            };
            Ok(Reply {
                seen: Expected::of_rows(&reply.rows),
                done_rows: None,
                rows: keep_rows.then_some(reply.rows),
            })
        }
    }
}

/// How long each part of one set-up took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub register_analyze_s: f64,
    pub total_s: f64,
}

/// A served database with the workload's connections open and prepared.
pub struct Fixture {
    pub db: Arc<Database>,
    server: Server,
    addr: SocketAddr,
    texts: HashMap<Data, Arc<Vec<String>>>,
    /// Connections per stream, in `Workload::streams` order.
    pub conns: Vec<Vec<Conn>>,
}

impl Fixture {
    /// Everything between nothing and a first reply in hand on every
    /// connection: generate the data from the seed, open the database,
    /// register and analyze, start the server, connect, prepare, and one
    /// request per connection (the first pays whatever is set up lazily).
    pub fn setup(workload: &Workload, seed: u64) -> Res<(Fixture, SetupTimes)> {
        let started = Instant::now();
        let mut times = SetupTimes::default();
        let mut config = DbConfig::default();
        config.exec.workers = parallelism();
        let db = Arc::new(Database::open(config)?);
        let mut texts = HashMap::new();
        for spec in workload.streams {
            let data = spec.data;
            if texts.contains_key(&data) {
                continue;
            }
            let at = Instant::now();
            let relations = data.generate(seed)?;
            times.generate_s += at.elapsed().as_secs_f64();
            let at = Instant::now();
            for (i, relation) in relations.into_iter().enumerate() {
                db.register(format!("{}{i}", data.prefix()), relation)?;
            }
            times.register_analyze_s += at.elapsed().as_secs_f64();
            let rendered = (0..data.arg_values())
                .map(|arg| data.adhoc_sql(arg as i64))
                .collect();
            texts.insert(data, Arc::new(rendered));
        }
        let at = Instant::now();
        db.analyze()?;
        times.register_analyze_s += at.elapsed().as_secs_f64();
        let server = Server::start(
            db.clone(),
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                conn_workers: 1,
                max_clients: 16,
            },
        )?;
        let mut fixture = Fixture {
            db,
            addr: server.local_addr(),
            server,
            texts,
            conns: Vec::new(),
        };
        for spec in workload.streams {
            let count = spec.connections.min(parallelism());
            let mut conns = (0..count)
                .map(|_| fixture.connect(spec))
                .collect::<Res<Vec<Conn>>>()?;
            for conn in &mut conns {
                conn.request(0, false)?;
            }
            fixture.conns.push(conns);
        }
        times.total_s = started.elapsed().as_secs_f64();
        Ok((fixture, times))
    }

    /// Opens one more connection for `spec` (and prepares its statement).
    pub fn connect(&self, spec: &StreamSpec) -> Res<Conn> {
        let mut client = Client::connect_timeout(self.addr, Duration::from_secs(10))?;
        let stmt = if spec.prepared {
            Some(client.prepare(&spec.data.prepared_sql())?)
        } else {
            None
        };
        Ok(Conn {
            client,
            spec: *spec,
            stmt,
            texts: self.texts[&spec.data].clone(),
        })
    }

    /// Closes the connections, drains and joins the server's threads.
    pub fn shutdown(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

fn relation_rows(relation: &Relation) -> Vec<Vec<Value>> {
    relation.iter().map(|t| t.values().to_vec()).collect()
}

/// The chain query evaluated by a sequential hash join written here, for
/// the data sets on which the nested-loop XRA oracle would take tens of
/// seconds per run. It shares no code with the engine; the unit tests hold
/// it equal to the XRA oracle on small chains.
pub fn reference_rows(db: &Database, data: Data, arg: i64) -> Res<Vec<Vec<Value>>> {
    let relation = |i: usize| db.catalog().relation(&format!("{}{i}", data.prefix()));
    let filtered = |i: usize, row: &[Value]| {
        !(data.params() == 1 && i == 1) || matches!(row[2], Value::Int(id) if id < arg)
    };
    let mut acc: Vec<Vec<Value>> = relation_rows(&*relation(0)?);
    for i in 1..data.relations() {
        let mut by_a: HashMap<Value, Vec<Vec<Value>>> = HashMap::new();
        for row in relation_rows(&*relation(i)?) {
            if filtered(i, &row) {
                by_a.entry(row[0].clone()).or_default().push(row);
            }
        }
        // `b` of the relation joined last sits second in its three columns.
        let b_at = (i - 1) * 3 + 1;
        acc = acc
            .iter()
            .flat_map(|left| {
                by_a.get(&left[b_at])
                    .into_iter()
                    .flatten()
                    .map(move |right| {
                        let mut row = left.clone();
                        row.extend_from_slice(right);
                        row
                    })
            })
            .collect();
    }
    Ok(if data == Data::Heavy {
        vec![vec![Value::Int(acc.len() as i64)]]
    } else {
        acc
    })
}

/// The sequential XRA oracle's answer to the ad-hoc text.
pub fn oracle_rows(db: &Database, text: &str) -> Res<Vec<Vec<Value>>> {
    let planned = db.plan(text)?;
    let relation = planned
        .oracle_xra(JoinAlgorithm::Simple)?
        .eval(db.catalog().as_ref())?;
    Ok(relation_rows(&relation))
}

fn sorted_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// Before timing: every distinct query of every stream goes over the wire
/// exactly as the timed loop sends it, and its reply must equal the
/// reference as a multiset of rows. Returns the expected reply per stream
/// and argument, and whether everything matched.
pub fn verify(fixture: &mut Fixture) -> Res<(Vec<Vec<Expected>>, bool)> {
    let mut all_match = true;
    let mut expected = Vec::new();
    for s in 0..fixture.conns.len() {
        let data = fixture.conns[s][0].spec.data;
        let mut per_arg = Vec::new();
        for arg in 0..data.arg_values() as i64 {
            let truth = sorted_rows(if data.oracle_affordable() {
                oracle_rows(&fixture.db, &data.adhoc_sql(arg))?
            } else {
                reference_rows(&fixture.db, data, arg)?
            });
            let want = Expected::of_rows(&truth);
            for conn in &mut fixture.conns[s] {
                let reply = conn.request(arg, true)?;
                let rows = sorted_rows(reply.rows.clone().unwrap_or_default());
                if rows != truth || !reply.matches(&want) {
                    eprintln!(
                        "verification failed: {} arg {arg}: got {} rows, want {}",
                        data.prefix(),
                        rows.len(),
                        truth.len()
                    );
                    all_match = false;
                }
            }
            per_arg.push(want);
        }
        expected.push(per_arg);
    }
    Ok((expected, all_match))
}

/// What one stream measured.
#[derive(Clone, Debug, Default)]
pub struct StreamOutcome {
    /// Latency of each correct request of the measured window, ms.
    pub latency_ms: Vec<f64>,
    /// When each of those requests completed, s after the window opened.
    pub done_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Rows received by correct requests.
    pub rows: u64,
    /// From the end of warm-up to the last completion, s.
    pub elapsed_s: f64,
    /// Paced streams: how late after its due time each request was sent, ms.
    pub lateness_ms: Vec<f64>,
}

impl StreamOutcome {
    fn merge(&mut self, other: StreamOutcome) {
        self.latency_ms.extend(other.latency_ms);
        self.done_s.extend(other.done_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rows += other.rows;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.lateness_ms.extend(other.lateness_ms);
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// The measured window: requests that start in `[measure_from, until)`.
#[derive(Clone, Copy)]
pub struct Window {
    pub measure_from: Instant,
    pub until: Instant,
}

/// One request of a load loop, already resolved to "correct reply or not".
fn checked(conn: &mut Conn, expected: &[Expected], arg: i64) -> Option<u64> {
    match conn.request(arg, false) {
        Ok(reply) if reply.matches(&expected[arg as usize]) => Some(reply.seen.rows),
        Ok(reply) => {
            eprintln!(
                "wrong reply: arg {arg}: got {:?} done {:?}, want {:?}",
                reply.seen, reply.done_rows, expected[arg as usize]
            );
            None
        }
        Err(e) => {
            eprintln!("request failed: arg {arg}: {e}");
            None
        }
    }
}

/// Closed loop: the next request goes out when the previous reply is in.
/// Runs until the window closes or `stop` is raised.
pub fn closed_loop(
    conn: &mut Conn,
    expected: &[Expected],
    rng: &mut Rng,
    window: Window,
    stop: &AtomicBool,
) -> StreamOutcome {
    let mut out = StreamOutcome::default();
    let values = conn.spec.data.arg_values();
    let mut last_done = window.measure_from;
    loop {
        let sent = Instant::now();
        if sent >= window.until || stop.load(Ordering::Relaxed) {
            break;
        }
        let arg = rng.below(values);
        let rows = checked(conn, expected, arg);
        let done = Instant::now();
        if sent < window.measure_from {
            continue;
        }
        out.attempted += 1;
        last_done = done;
        match rows {
            Some(rows) => {
                out.rows += rows;
                out.latency_ms.push((done - sent).as_secs_f64() * 1e3);
                out.done_s.push((done - window.measure_from).as_secs_f64());
            }
            None => out.failed += 1,
        }
    }
    out.elapsed_s = (last_done - window.measure_from).as_secs_f64();
    out
}

/// Open loop at a fixed rate with one request outstanding: request `i` is
/// due at `start + i * period` and its latency runs from that due time, so
/// the wait a slow reply imposes on the requests behind it is counted.
/// `request` returns the rows of a correct reply or `None` for a failure.
pub fn paced_loop(
    period: Duration,
    start: Instant,
    window: Window,
    mut request: impl FnMut() -> Option<u64>,
) -> StreamOutcome {
    let mut out = StreamOutcome::default();
    let mut last_done = window.measure_from;
    for i in 0u32.. {
        let due = start + period * i;
        if due >= window.until {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let rows = request();
        let done = Instant::now();
        if due < window.measure_from {
            continue;
        }
        out.attempted += 1;
        last_done = done;
        out.lateness_ms.push((sent - due).as_secs_f64() * 1e3);
        match rows {
            Some(rows) => {
                out.rows += rows;
                out.latency_ms.push((done - due).as_secs_f64() * 1e3);
                out.done_s.push((done - window.measure_from).as_secs_f64());
            }
            None => out.failed += 1,
        }
    }
    out.elapsed_s = (last_done - window.measure_from).as_secs_f64();
    out
}

/// Drives the given streams of a fixture, one generator thread per
/// connection, and returns each stream's outcome in order. `stop` ends
/// closed loops early (background streams of a traced pass).
pub fn drive(
    conns: &mut [Vec<Conn>],
    expected: &[Vec<Expected>],
    seed: u64,
    window: Window,
    stop: &AtomicBool,
) -> Vec<StreamOutcome> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<Vec<_>> = conns
            .iter_mut()
            .zip(expected)
            .enumerate()
            .map(|(s, (stream, expected))| {
                stream
                    .iter_mut()
                    .enumerate()
                    .map(|(c, conn)| {
                        let mut rng = Rng::new(seed ^ (((s as u64) << 32) | (c as u64 + 1)));
                        scope.spawn(move || match conn.spec.pace_hz {
                            Some(hz) => {
                                let values = conn.spec.data.arg_values();
                                paced_loop(Duration::from_secs(1) / hz, start, window, || {
                                    checked(conn, expected, rng.below(values))
                                })
                            }
                            None => closed_loop(conn, expected, &mut rng, window, stop),
                        })
                    })
                    .collect()
            })
            .collect();
        handles
            .into_iter()
            .map(|stream| {
                let mut merged = StreamOutcome::default();
                for handle in stream {
                    merged.merge(handle.join().expect("generator thread panicked"));
                }
                merged
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A served miniature of `data` (same shape and query, `n` tuples).
    fn small_db(relations: usize, n: usize, prefix: &str) -> Database {
        let db = Database::open(DbConfig::default()).unwrap();
        let family = generate_family(QueryFamily::Chain, relations, n, 5).unwrap();
        for i in 0..relations {
            let relation = family.catalog.relation(&format!("R{i}")).unwrap();
            db.register(format!("{prefix}{i}"), relation).unwrap();
        }
        db.analyze().unwrap();
        db
    }

    #[test]
    fn reference_join_equals_the_xra_oracle_on_small_chains() {
        // Same relation counts, select lists and filter as the real data
        // sets; only the tuple counts are shrunk to what nested loops afford.
        for (data, n, args) in [
            (Data::Short, 50, vec![0, 1, 25, 49]),
            (Data::Heavy, 300, vec![0]),
            (Data::Wide, 400, vec![0]),
        ] {
            let db = small_db(data.relations(), n, data.prefix());
            for arg in args {
                let oracle = sorted_rows(oracle_rows(&db, &data.adhoc_sql(arg)).unwrap());
                let reference = sorted_rows(reference_rows(&db, data, arg).unwrap());
                assert_eq!(oracle, reference, "{data:?} arg {arg}");
                if data != Data::Short {
                    assert!(!oracle.is_empty());
                }
            }
        }
    }

    #[test]
    fn the_seed_changes_the_keys_but_no_cardinality() {
        let db_for = |seed| {
            let db = Database::open(DbConfig::default()).unwrap();
            for (i, relation) in Data::Short.generate(seed).unwrap().into_iter().enumerate() {
                db.register(format!("S{i}"), relation).unwrap();
            }
            db
        };
        let (one, other) = (db_for(1), db_for(2));
        assert_ne!(
            relation_rows(&one.catalog().relation("S0").unwrap()),
            relation_rows(&other.catalog().relation("S0").unwrap())
        );
        let mut replies_differ = false;
        for arg in [0, 10, 25, 49] {
            let a = reference_rows(&one, Data::Short, arg).unwrap();
            let b = reference_rows(&other, Data::Short, arg).unwrap();
            assert_eq!(a.len(), b.len(), "arg {arg}");
            replies_differ |= sorted_rows(a) != sorted_rows(b);
        }
        assert!(replies_differ);
        // Same seed, same data.
        assert_eq!(
            relation_rows(&db_for(1).catalog().relation("S3").unwrap()),
            relation_rows(&one.catalog().relation("S3").unwrap())
        );
    }

    #[test]
    fn only_the_small_data_set_affords_the_nested_loop_oracle() {
        assert!(Data::Short.oracle_affordable());
        assert!(!Data::Heavy.oracle_affordable());
        assert!(!Data::Wide.oracle_affordable());
    }

    #[test]
    fn texts_name_the_prefixed_relations() {
        assert_eq!(
            Data::Wide.adhoc_sql(0),
            "SELECT * FROM W0 JOIN W1 ON W0.b = W1.a"
        );
        assert!(Data::Short.prepared_sql().ends_with("WHERE S1.id < ?1"));
        assert!(Data::Short.adhoc_sql(7).ends_with("WHERE S1.id < 7"));
        assert!(Data::Heavy
            .prepared_sql()
            .starts_with("SELECT COUNT(*) FROM H0 JOIN H1"));
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..8).map(|_| rng.below(50)).collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
        assert!(draw(11).iter().all(|v| (0..50).contains(v)));
    }

    #[test]
    fn checksum_ignores_row_order_but_not_content() {
        let a = vec![
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(3), Value::Int(4)],
        ];
        let b = vec![a[1].clone(), a[0].clone()];
        let c = vec![a[0].clone(), vec![Value::Int(3), Value::Int(5)]];
        assert_eq!(Expected::of_rows(&a), Expected::of_rows(&b));
        assert_ne!(Expected::of_rows(&a), Expected::of_rows(&c));
    }

    #[test]
    fn paced_latency_runs_from_the_due_time_across_a_stall() {
        // 10 ms period; request 2 stalls 35 ms, so requests 3, 4 and 5 are
        // sent late. Their own service time is ~0, but from their due
        // times they waited for the stall — that wait must be counted.
        let period = Duration::from_millis(10);
        let start = Instant::now();
        let window = Window {
            measure_from: start,
            until: start + period * 8,
        };
        let mut calls = 0;
        let out = paced_loop(period, start, window, || {
            calls += 1;
            if calls == 3 {
                std::thread::sleep(Duration::from_millis(35));
            }
            Some(1)
        });
        assert_eq!(out.attempted, 8);
        assert_eq!(out.failed, 0);
        assert_eq!(out.latency_ms.len(), 8);
        // Request 2 itself: at least the stall.
        assert!(out.latency_ms[2] >= 35.0, "{:?}", out.latency_ms);
        // Request 3 was due at 30 ms, sent at >= 55 ms: >= 25 ms from due.
        assert!(out.latency_ms[3] >= 24.0, "{:?}", out.latency_ms);
        assert!(out.lateness_ms[3] >= 24.0, "{:?}", out.lateness_ms);
        // Request 4 (due 40 ms) still >= 14 ms; by request 6 it caught up.
        assert!(out.latency_ms[4] >= 14.0, "{:?}", out.latency_ms);
        assert!(out.latency_ms[7] < 9.0, "{:?}", out.latency_ms);
        // Unstalled requests before the stall are near-instant.
        assert!(out.latency_ms[0] < 9.0 && out.latency_ms[1] < 9.0);
    }
}
