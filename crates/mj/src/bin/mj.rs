//! `mj` — the multijoin database on the command line.
//!
//! ```text
//! mj sql   "<query>" | -  [--query F --relations K --tuples N --seed X]
//!          [--procs P --workers W] [--explain] [--limit R] [--format FMT]
//! mj serve [--addr A --workers W --max-clients M]
//!          [--query F --relations K --tuples N --seed X --procs P]
//! ```
//!
//! Both verbs open a [`Database`] over a seeded `--query` family
//! (chain/star/skewed). `mj sql` parses and plans the given text query and
//! *streams* the result — rows print as batches arrive, long before the
//! query finishes. `mj sql -` reads the query from stdin; `--explain`
//! prints the costed plan alternatives and the chosen plan instead of
//! executing. `mj serve` exposes the database over TCP.
//!
//! Each verb accepts only its own flags: an unknown flag, a flag without
//! its value or a second query is an error, not ignored. The paper's
//! experiments (its shapes, simulated sweeps, Gantt charts and optimizer
//! comparison) are the `repro` binary's.

use std::collections::HashMap;
use std::io::Read as _;
use std::process::ExitCode;
use std::sync::Arc;

use multijoin::exec::{generate_family, Database, DbConfig, PlannerOptions, QueryFamily};
use multijoin::relalg::Value;
use multijoin::server::protocol::value_to_json;
use serde::JsonValue;

/// A verb: what it accepts (flags that take a value, bare switches, and
/// how many positional arguments follow it) and what it runs.
struct Verb {
    flags: &'static [&'static str],
    switches: &'static [&'static str],
    positionals: usize,
    run: fn(&Args) -> Result<(), String>,
}

const SQL: Verb = Verb {
    flags: &[
        "query",
        "relations",
        "tuples",
        "seed",
        "procs",
        "workers",
        "limit",
        "format",
    ],
    switches: &["explain"],
    positionals: 1,
    run: cmd_sql,
};

const SERVE: Verb = Verb {
    flags: &[
        "addr",
        "workers",
        "max-clients",
        "query",
        "relations",
        "tuples",
        "seed",
        "procs",
    ],
    switches: &[],
    positionals: 0,
    run: cmd_serve,
};

struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// Parses the arguments after the verb, rejecting any `verb` does not
/// accept.
fn parse_args(argv: &[String], verb: &Verb) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        flags: HashMap::new(),
        switches: Vec::new(),
    };
    let mut argv = argv.iter().peekable();
    while let Some(a) = argv.next() {
        match a.strip_prefix("--") {
            Some(name) if verb.switches.contains(&name) => args.switches.push(name.to_string()),
            Some(name) if verb.flags.contains(&name) => {
                let value = argv
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("`{a}` expects a value"))?;
                args.flags.insert(name.to_string(), value.clone());
            }
            Some(_) => return Err(format!("unknown flag `{a}`")),
            None if args.positional.len() < verb.positionals => args.positional.push(a.clone()),
            None => return Err(format!("unexpected argument `{a}`")),
        }
    }
    Ok(args)
}

impl Args {
    fn family(&self) -> Result<QueryFamily, String> {
        let f = self
            .flags
            .get("query")
            .map(String::as_str)
            .unwrap_or("chain");
        QueryFamily::parse(f).map_err(|e| e.to_string())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects a number, got `{v}`")),
        }
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn usage() -> &'static str {
    "usage:
  mj sql   \"<query>\" | -  [--query chain|star|skewed --relations K
           --tuples N --seed X --procs P --workers W] [--explain]
           [--limit R] [--format table|csv|json]
  mj serve [--addr HOST:PORT] [--workers W --max-clients M]
           [--query chain|star|skewed --relations K --tuples N --seed X
           --procs P]

Both open a Database over a seeded --query family (chain relations have
columns a, b, id; star has dims R0..R{K-2} (key, payload) and fact
R{K-1} (fk0.., measure)). `mj sql` parses, plans, and *streams* the query:

  mj sql \"SELECT * FROM R0 JOIN R1 ON R0.b = R1.a JOIN R2 ON R1.b = R2.a\"
  mj sql \"SELECT R0.b, COUNT(*) FROM R0 JOIN R1 ON R0.b = R1.a
          WHERE R1.id < 500 GROUP BY R0.b LIMIT 10\"
  echo \"SELECT R0.id, R2.id FROM ...\" | mj sql -    (newlines + -- comments ok)
  mj sql --explain \"SELECT ...\"        (costed alternatives and the chosen
                                       plan, no execution)

`mj serve` runs its listener and every connection as tasks on the
--workers engine pool and starts no thread of its own: an idle worker
waits for socket edges itself and serves the request that arrives.

Both plan over one logical processor per --workers unless --procs is
given. The paper's figures and experiments are `repro`'s."
}

/// Opens the database both verbs query: a fresh [`Database`] holding the
/// seeded `--query` family, registered and analyzed. The configuration is
/// validated before anything is generated. Also returns a line describing
/// the data.
fn open_family(args: &Args) -> Result<(Database, String), String> {
    let family = args.family()?;
    let k: usize = args.num("relations", 4)?;
    let tuples: usize = args.num("tuples", 2_000)?;
    let seed: u64 = args.num("seed", 42)?;
    let mut config = DbConfig::default();
    config.exec.workers = args.num("workers", config.exec.workers)?;
    config.planner.processors = args.num("procs", PlannerOptions::ONE_PER_WORKER)?;

    let db = Database::open(config).map_err(|e| e.to_string())?;
    generate_family(family, k, tuples, seed)
        .map_err(|e| e.to_string())?
        .load(&db)
        .map_err(|e| e.to_string())?;
    let data = format!(
        "`{family}` family, {k} relations x {tuples} base tuples (seed {seed}); \
         {} workers, {} logical processors",
        db.engine().workers(),
        db.planner_options().processors
    );
    Ok((db, data))
}

/// Output modes of the streaming row printer.
#[derive(Clone, Copy, PartialEq)]
enum OutFormat {
    Table,
    Csv,
    Json,
}

impl OutFormat {
    fn parse(s: &str) -> Result<OutFormat, String> {
        match s {
            "table" => Ok(OutFormat::Table),
            "csv" => Ok(OutFormat::Csv),
            "json" => Ok(OutFormat::Json),
            other => Err(format!(
                "unknown format `{other}` (expected table, csv, json)"
            )),
        }
    }
}

/// One value as a CSV field (RFC-4180-style quoting).
fn csv_field(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Str(s) => {
            if s.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
    }
}

/// `mj sql`: the session front door. Populates a [`Database`] with a
/// seeded query family, then parses, plans, and streams the given text
/// query — printing rows incrementally as batches arrive.
fn cmd_sql(args: &Args) -> Result<(), String> {
    use std::io::Write as _;

    let text = match args.positional.first().map(String::as_str) {
        None => {
            return Err("usage: mj sql \"<query>\"  (or `mj sql -` to read stdin)".into());
        }
        Some("-") => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            buf
        }
        Some(q) => q.to_string(),
    };
    let limit: usize = args.num("limit", 20)?;
    let format = OutFormat::parse(
        args.flags
            .get("format")
            .map(String::as_str)
            .unwrap_or("table"),
    )?;

    let (db, data) = open_family(args)?;
    eprintln!("data: {data}");

    if args.switch("explain") {
        let planned = db.plan(&text).map_err(|e| e.render(&text))?;
        println!("chosen join tree:");
        for line in multijoin::plan::render::render(&planned.tree).lines() {
            println!("  {line}");
        }
        println!("costed alternatives (estimated schedule cost, §4.3 units):");
        print!("{}", planned.explain());
        println!(
            "winner: {} — estimated cost {:.0} (startup {:.0}, coordination {:.0}, total work {:.0})",
            planned.strategy(),
            planned.estimate.makespan,
            planned.estimate.startup,
            planned.estimate.coordination,
            planned.estimate.total_work,
        );
        print!("{}", planned.plan);
        return Ok(());
    }

    let started = std::time::Instant::now();
    let mut handle = db.query(&text).map_err(|e| e.render(&text))?;
    let mut stream = handle.stream();
    let schema = stream.schema().clone();
    let names: Vec<&str> = schema.attrs().iter().map(|a| a.name.as_str()).collect();
    // JSON object keys must be unique; columns selected from different
    // relations can share a name (R0.id, R2.id), so suffix duplicates.
    let json_keys: Vec<String> = {
        let mut used: Vec<String> = Vec::with_capacity(names.len());
        for &n in &names {
            let mut key = n.to_string();
            let mut suffix = 2;
            while used.contains(&key) {
                key = format!("{n}_{suffix}");
                suffix += 1;
            }
            used.push(key);
        }
        used
    };
    match format {
        OutFormat::Table => println!("{}", names.join(" | ")),
        OutFormat::Csv => println!("{}", names.join(",")),
        OutFormat::Json => {} // every JSON line is self-describing
    }
    let mut first_batch: Option<std::time::Duration> = None;
    let mut rows = 0usize;
    let stdout = std::io::stdout();
    while let Some(mut batch) = stream.next_batch() {
        if first_batch.is_none() {
            first_batch = Some(started.elapsed());
        }
        let mut out = stdout.lock();
        for t in batch.drain() {
            rows += 1;
            if limit == 0 || rows <= limit {
                match format {
                    OutFormat::Table => writeln!(out, "{t}").map_err(|e| e.to_string())?,
                    OutFormat::Csv => {
                        let line = t
                            .values()
                            .iter()
                            .map(csv_field)
                            .collect::<Vec<_>>()
                            .join(",");
                        writeln!(out, "{line}").map_err(|e| e.to_string())?;
                    }
                    OutFormat::Json => {
                        let row = JsonValue::Obj(
                            json_keys
                                .iter()
                                .zip(t.values())
                                .map(|(n, v)| (n.clone(), value_to_json(v)))
                                .collect(),
                        );
                        let line = serde_json::to_string(&row).map_err(|e| e.to_string())?;
                        writeln!(out, "{line}").map_err(|e| e.to_string())?;
                    }
                }
            } else if rows == limit + 1 {
                // Keep machine-readable formats clean: the truncation
                // notice goes to stderr for csv/json.
                let note = "... (further rows counted, not printed; --limit 0 prints all)";
                match format {
                    OutFormat::Table => writeln!(out, "{note}").map_err(|e| e.to_string())?,
                    OutFormat::Csv | OutFormat::Json => eprintln!("{note}"),
                }
            }
        }
        // Flush per batch so the stream is visibly incremental.
        out.flush().map_err(|e| e.to_string())?;
    }
    drop(stream);
    let outcome = handle.outcome().map_err(|e| e.to_string())?;
    let total = started.elapsed();
    eprintln!(
        "{rows} tuples; first batch after {:.1} ms, drained in {:.1} ms \
         (engine response time {:.1} ms, {} processes, {} streams)",
        first_batch.map(|d| d.as_secs_f64() * 1e3).unwrap_or(0.0),
        total.as_secs_f64() * 1e3,
        outcome.elapsed.as_secs_f64() * 1e3,
        outcome.metrics.processes,
        outcome.metrics.streams,
    );
    Ok(())
}

/// `mj serve`: expose a seeded-family [`Database`] over TCP with the
/// line-delimited JSON protocol of [`multijoin::server`]. Runs until
/// stdin closes or a `quit` line arrives, then drains gracefully
/// (in-flight queries finish; new requests get a typed `overloaded`
/// error; the listener closes).
fn cmd_serve(args: &Args) -> Result<(), String> {
    use multijoin::server::{Server, ServerConfig};

    let addr = args
        .flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let max_clients: usize = args.num("max-clients", ServerConfig::default().max_clients)?;

    let (db, data) = open_family(args)?;
    let db = Arc::new(db);
    let server = Server::start(
        db.clone(),
        ServerConfig {
            addr,
            max_clients,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "serving on {} ({max_clients} clients max): {data}",
        server.local_addr()
    );
    eprintln!(
        "protocol: one JSON object per line — {{\"query\": \"SELECT ...\"}}, \
         {{\"prepare\": {{\"query\": \"... ?1 ...\"}}}} / {{\"execute\": {{\"id\": N, \
         \"args\": [...]}}}} / {{\"close\": {{\"id\": N}}}} (add \"format\": \"bin\" \
         for binary columnar batches), or {{\"metrics\": \"json\"|\"prometheus\"}}; \
         HTTP scrapers may GET /metrics. Type `quit` (or close stdin) to drain and stop."
    );

    // Block on stdin: `quit` or EOF triggers the graceful drain. This is
    // the shutdown path — no signal handling needed.
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    eprintln!("draining: in-flight queries finish, new requests are rejected ...");
    server.shutdown();
    let stats = db.stats();
    eprintln!(
        "plan cache: {} hits, {} misses, {} evictions ({} queries served)",
        stats.plan_cache_hits,
        stats.plan_cache_misses,
        stats.plan_cache_evictions,
        stats.queries_completed,
    );
    eprintln!("stopped.");
    Ok(())
}

fn main() -> ExitCode {
    // Exit quietly when stdout closes mid-write (e.g. `mj sql ... | head`);
    // print other panics without the default backtrace noise.
    std::panic::set_hook(Box::new(|info| {
        let msg = info.to_string();
        if msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        eprintln!("{msg}");
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("", &[][..]),
    };
    let verb = match cmd {
        "sql" => &SQL,
        "serve" => &SERVE,
        "" | "help" | "-h" | "--help" => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command `{other}`\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = parse_args(rest, verb)
        .map_err(|e| format!("{e}\n{}", usage()))
        .and_then(|args| (verb.run)(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
