//! `mj` — command-line front end to the multijoin library.
//!
//! ```text
//! mj sql      "<query>" | -  [--query F --relations K --tuples N --seed X]
//!             [--procs P --workers W] [--explain] [--limit R]
//! mj serve    [--addr A --workers W --max-clients M]
//!             [--query F --relations K --tuples N --seed X --procs P]
//! mj shapes   [--relations K]
//! mj plan     [--query F] [--strategy auto|ST] [--relations K --tuples N --procs P --seed X]
//! mj plan     --shape S --strategy ST [--relations K --tuples N --procs P]
//! mj simulate --shape S --strategy ST [--relations K --tuples N --procs P] [--gantt]
//! mj sweep    --shape S [--tuples N]
//! mj run      [--query F] [--strategy auto|ST] [--relations K --tuples N --procs P --seed X]
//! mj run      --shape S --strategy ST [--relations K --tuples N --procs P]
//! mj optimize --query chain|skewed|star [--relations K]
//! mj xra print --shape S [--relations K]
//! mj xra eval  [FILE] [--relations K --tuples N]   (plan from FILE or stdin)
//! ```
//!
//! `mj sql` is the session front door: it populates a [`Database`] with a
//! seeded `--query` family (chain/star/skewed), parses and plans the given
//! text query, and *streams* the result — rows print as batches arrive,
//! long before the query finishes. `mj sql -` reads the query from stdin;
//! `--explain` prints the costed plan alternatives instead of executing.
//!
//! Without `--shape`, `mj plan` and `mj run` are **planner-driven**: the
//! cost-based planner picks the join tree, the strategy (unless a concrete
//! `--strategy` overrides it), and the processor allocation for a generated
//! `--query` family instance (chain, star, skewed). With `--shape`, the
//! legacy fixed shape×strategy grid runs unchanged.
//!
//! Shapes: left-linear, left-bushy, wide-bushy, right-bushy, right-linear.
//! Strategies: sp, se, rd, fp (plus `auto` for plan/run without `--shape`).

use std::collections::HashMap;
use std::io::Read as _;
use std::process::ExitCode;
use std::sync::Arc;

use multijoin::core::generator::{generate, GeneratorInput};
use multijoin::core::strategy::Strategy;
use multijoin::exec::{
    generate_family, run_plan, Database, DbConfig, ExecConfig, Planner, PlannerOptions,
    QueryBinding, QueryFamily,
};
use multijoin::plan::cardinality::{node_cards, UniformOneToOne};
use multijoin::plan::cost::{tree_costs, CostModel};
use multijoin::plan::optimize::{
    greedy_tree, iterative_improvement, optimize_bushy, optimize_linear, random_tree,
    simulated_annealing, AnnealingOptions, IterativeOptions, OptimizedPlan,
};
use multijoin::plan::query::to_xra;
use multijoin::plan::shapes::{build, Shape};
use multijoin::plan::{render, QueryGraph};
use multijoin::relalg::RelationProvider;
use multijoin::relalg::{text, JoinAlgorithm, RelalgError, Value};
use multijoin::sim::{render_gantt, simulate, SimParams};
use multijoin::storage::{Catalog, WisconsinGenerator};

struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// Flags that never take a value, so `mj sql --explain "<query>"` does not
/// swallow the query text as the switch's value.
const BOOLEAN_SWITCHES: &[&str] = &["explain", "gantt"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut switches = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        if let Some(name) = a.strip_prefix("--") {
            // A flag with a value, or a bare switch.
            if !BOOLEAN_SWITCHES.contains(&name)
                && i + 1 < argv.len()
                && !argv[i + 1].starts_with("--")
            {
                flags.insert(name.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                switches.push(name.to_string());
                i += 1;
            }
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Ok(Args {
        positional,
        flags,
        switches,
    })
}

impl Args {
    fn shape(&self) -> Result<Shape, String> {
        let s = self
            .flags
            .get("shape")
            .map(String::as_str)
            .unwrap_or("wide-bushy");
        match s {
            "left-linear" => Ok(Shape::LeftLinear),
            "left-bushy" => Ok(Shape::LeftBushy),
            "wide-bushy" => Ok(Shape::WideBushy),
            "right-bushy" => Ok(Shape::RightBushy),
            "right-linear" => Ok(Shape::RightLinear),
            other => Err(format!(
                "unknown shape `{other}` (expected left-linear, left-bushy, wide-bushy, right-bushy, right-linear)"
            )),
        }
    }

    fn strategy(&self) -> Result<Strategy, String> {
        let s = self
            .flags
            .get("strategy")
            .map(String::as_str)
            .unwrap_or("fp");
        match s.to_ascii_lowercase().as_str() {
            "sp" => Ok(Strategy::SP),
            "se" => Ok(Strategy::SE),
            "rd" => Ok(Strategy::RD),
            "fp" => Ok(Strategy::FP),
            other => Err(format!(
                "unknown strategy `{other}` (expected sp, se, rd, fp)"
            )),
        }
    }

    /// `--strategy` with `auto` support: `None` means let the planner
    /// choose; a concrete value forces that strategy. Defaults to auto.
    fn strategy_or_auto(&self) -> Result<Option<Strategy>, String> {
        match self.flags.get("strategy").map(String::as_str) {
            None | Some("auto") => Ok(None),
            Some(_) => self.strategy().map(Some),
        }
    }

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
  mj sql      \"<query>\" | -  [--query chain|star|skewed --relations K
              --tuples N --seed X --procs P --workers W] [--explain]
              [--limit R] [--format table|csv|json]
  mj serve    [--addr HOST:PORT] [--workers W --max-clients M]
              [--query chain|star|skewed --relations K --tuples N --seed X
              --procs P]
  mj shapes   [--relations K]
  mj plan     [--query chain|star|skewed] [--strategy auto|ST]
              [--relations K --tuples N --procs P --seed X]   (planner explain)
  mj plan     --shape S --strategy ST [--relations K --tuples N --procs P]
  mj simulate --shape S --strategy ST [--relations K --tuples N --procs P] [--gantt]
  mj sweep    --shape S [--tuples N]
  mj run      [--query chain|star|skewed] [--strategy auto|ST]
              [--relations K --tuples N --procs P --seed X]   (planner-driven)
  mj run      --shape S --strategy ST [--relations K --tuples N --procs P]
  mj optimize --query chain|skewed|star [--relations K]
  mj xra print --shape S [--relations K]
  mj xra eval [FILE] [--relations K --tuples N]

`mj sql` opens a Database over a seeded --query family (chain relations
have columns a, b, id; star has dims R0..R{K-2} (key, payload) and fact
R{K-1} (fk0.., measure)), then parses, plans, and *streams* the query:

  mj sql \"SELECT * FROM R0 JOIN R1 ON R0.b = R1.a JOIN R2 ON R1.b = R2.a\"
  mj sql \"SELECT R0.b, COUNT(*) FROM R0 JOIN R1 ON R0.b = R1.a
          WHERE R1.id < 500 GROUP BY R0.b LIMIT 10\"
  echo \"SELECT R0.id, R2.id FROM ...\" | mj sql -    (newlines + -- comments ok)
  mj sql --explain \"SELECT ...\"        (costed alternatives, no execution)

`mj serve` runs its listener and every connection as tasks on the
--workers engine pool and starts no thread of its own: an idle worker
waits for socket edges itself and serves the request that arrives.

sql and serve plan over one logical processor per --workers unless --procs
is given; plan, run and simulate keep a fixed --procs default, the paper's
machine of one worker per processor.

Without --shape, plan/run use the cost-based planner (tree, strategy, and
processor allocation chosen from catalog statistics); --strategy with a
concrete value overrides only the strategy. With --shape, the legacy fixed
grid runs.

shapes: left-linear left-bushy wide-bushy right-bushy right-linear
strategies: sp se rd fp (the paper's four parallelization strategies);
`auto` additionally works for plan/run without --shape"
}

/// Plans a `--query` family instance with the cost-based planner.
fn plan_family(
    args: &Args,
) -> Result<
    (
        multijoin::exec::FamilyInstance,
        multijoin::exec::PlannedQuery,
        usize,
    ),
    String,
> {
    let family = args.family()?;
    let k: usize = args.num("relations", 6)?;
    let tuples: usize = args.num("tuples", 2_000)?;
    let procs: usize = args.num("procs", 8)?;
    let seed: u64 = args.num("seed", 42)?;
    let instance = generate_family(family, k, tuples, seed).map_err(|e| e.to_string())?;
    let mut options = PlannerOptions::new(procs);
    options.strategy = args.strategy_or_auto()?;
    // `mj run` executes on the default engine configuration: cost for its
    // pool, as a `Database` would.
    let planned = Planner::new(options)
        .with_workers(ExecConfig::default().workers)
        .plan(&instance.query)
        .map_err(|e| e.to_string())?;
    Ok((instance, planned, procs))
}

/// Plans a (shape, strategy, tuples, procs) configuration.
fn make_plan(
    args: &Args,
) -> Result<(multijoin::core::plan_ir::ParallelPlan, Shape, u64, usize), String> {
    let shape = args.shape()?;
    let strategy = args.strategy()?;
    let k: usize = args.num("relations", 10)?;
    let tuples: u64 = args.num("tuples", 40_000)?;
    let procs: usize = args.num("procs", 40)?;
    let tree = build(shape, k).map_err(|e| e.to_string())?;
    let cards = node_cards(&tree, &UniformOneToOne { n: tuples });
    let costs = tree_costs(&tree, &cards, &CostModel::default());
    let mut input = GeneratorInput::new(&tree, &cards, &costs, procs);
    input.allow_oversubscribe = procs < tree.join_count();
    let plan = generate(strategy, &input).map_err(|e| e.to_string())?;
    Ok((plan, shape, tuples, procs))
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

/// One value as a JSON literal.
fn json_value(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Str(s) => json_string(s),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `mj sql`: the session front door. Populates a [`Database`] with a
/// seeded query family, then parses, plans, and streams the given text
/// query — printing rows incrementally as batches arrive.
fn cmd_sql(args: &Args) -> Result<(), String> {
    use std::io::Write as _;

    let text = match args.positional.get(1).map(String::as_str) {
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

    // Data: a seeded family instance registered through the front door.
    let family = args.family()?;
    let k: usize = args.num("relations", 4)?;
    let tuples: usize = args.num("tuples", 2_000)?;
    let seed: u64 = args.num("seed", 42)?;
    let procs: usize = args.num("procs", PlannerOptions::ONE_PER_WORKER)?;
    let workers: usize = args.num("workers", ExecConfig::default().workers)?;
    let limit: usize = args.num("limit", 20)?;
    let format = OutFormat::parse(
        args.flags
            .get("format")
            .map(String::as_str)
            .unwrap_or("table"),
    )?;

    let instance = generate_family(family, k, tuples, seed).map_err(|e| e.to_string())?;
    let mut config = DbConfig::default();
    config.exec.workers = workers;
    config.planner.processors = procs;
    let db = Database::open(config).map_err(|e| e.to_string())?;
    let mut names = instance.catalog.names();
    names.sort();
    for name in &names {
        let rel = instance.catalog.relation(name).map_err(|e| e.to_string())?;
        db.register(name, rel).map_err(|e| e.to_string())?;
    }
    db.analyze().map_err(|e| e.to_string())?;
    eprintln!(
        "data: `{family}` family, {k} relations x {tuples} base tuples (seed {seed}); \
         {workers} workers, {} logical processors",
        db.planner_options().processors
    );

    if args.switch("explain") {
        let planned = db.plan(&text).map_err(|e| e.render(&text))?;
        println!("chosen join tree:");
        for line in multijoin::plan::render::render(&planned.tree).lines() {
            println!("  {line}");
        }
        println!("costed alternatives (estimated schedule cost, §4.3 units):");
        print!("{}", planned.explain());
        println!(
            "winner: {} — estimated cost {:.0} (startup {:.0}, coordination {:.0})",
            planned.strategy(),
            planned.estimate.makespan,
            planned.estimate.startup,
            planned.estimate.coordination,
        );
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
                        let line = json_keys
                            .iter()
                            .zip(t.values())
                            .map(|(n, v)| format!("{}:{}", json_string(n), json_value(v)))
                            .collect::<Vec<_>>()
                            .join(",");
                        writeln!(out, "{{{line}}}").map_err(|e| e.to_string())?;
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

    let family = args.family()?;
    let k: usize = args.num("relations", 4)?;
    let tuples: usize = args.num("tuples", 2_000)?;
    let seed: u64 = args.num("seed", 42)?;
    let procs: usize = args.num("procs", PlannerOptions::ONE_PER_WORKER)?;
    let workers: usize = args.num("workers", ExecConfig::default().workers)?;
    let addr = args
        .flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let max_clients: usize = args.num("max-clients", ServerConfig::default().max_clients)?;

    let instance = generate_family(family, k, tuples, seed).map_err(|e| e.to_string())?;
    let mut config = DbConfig::default();
    config.exec.workers = workers;
    config.planner.processors = procs;
    let db = Database::open(config).map_err(|e| e.to_string())?;
    let mut names = instance.catalog.names();
    names.sort();
    for name in &names {
        let rel = instance.catalog.relation(name).map_err(|e| e.to_string())?;
        db.register(name, rel).map_err(|e| e.to_string())?;
    }
    db.analyze().map_err(|e| e.to_string())?;

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
        "serving `{family}` family ({k} relations x {tuples} tuples, seed {seed}) \
         on {} — {} engine workers ({} logical processors), {} clients max",
        server.local_addr(),
        workers,
        db.planner_options().processors,
        max_clients,
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

fn cmd_shapes(args: &Args) -> Result<(), String> {
    let k: usize = args.num("relations", 10)?;
    for shape in Shape::ALL {
        let tree = build(shape, k).map_err(|e| e.to_string())?;
        println!(
            "--- {shape} (depth {}, right spine {}) ---",
            tree.depth(),
            tree.right_spine_len()
        );
        println!("{}", render::render(&tree));
    }
    Ok(())
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    if args.flags.contains_key("shape") {
        // Legacy fixed path: explicit shape and strategy.
        let (plan, shape, tuples, procs) = make_plan(args)?;
        let stats = plan.stats();
        println!("{plan}");
        println!(
            "shape {shape}, {tuples} tuples/relation, {procs} processors: \
             {} operation processes, {} tuple streams, {} pipeline edges",
            stats.operation_processes, stats.tuple_streams, stats.pipeline_edges
        );
        return Ok(());
    }
    // Planner explain: cost every (strategy, orientation) alternative.
    let (instance, planned, procs) = plan_family(args)?;
    println!(
        "query family `{}` over {} relations, {procs} processors",
        instance.family,
        instance.query.len()
    );
    println!("chosen join tree (phase-1 minimal total cost, winner's orientation):");
    for line in render::render(&planned.tree).lines() {
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
    println!("{}", planned.plan);
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let (plan, shape, tuples, procs) = make_plan(args)?;
    let params = SimParams::default();
    let sim = simulate(&plan, &params).map_err(|e| e.to_string())?;
    println!(
        "{shape} / {} on {procs} processors, {tuples} tuples/relation: \
         response {:.2}s, utilization {:.0}%",
        args.strategy()?,
        sim.response_time,
        100.0 * sim.utilization(procs)
    );
    if args.switch("gantt") {
        print!(
            "{}",
            render_gantt(&plan, &sim, 72, |j| char::from_digit((j % 10) as u32, 10))
        );
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let shape = args.shape()?;
    let tuples: u64 = args.num("tuples", 40_000)?;
    let params = SimParams::default();
    println!("{shape}, {tuples} tuples/relation — simulated response times (s)");
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>8}",
        "procs", "SP", "SE", "RD", "FP"
    );
    for procs in [20usize, 30, 40, 50, 60, 70, 80] {
        let mut row = format!("{procs:>6}");
        for strategy in Strategy::ALL {
            let tree = build(shape, 10).map_err(|e| e.to_string())?;
            let cards = node_cards(&tree, &UniformOneToOne { n: tuples });
            let costs = tree_costs(&tree, &cards, &CostModel::default());
            let input = GeneratorInput::new(&tree, &cards, &costs, procs);
            let plan = generate(strategy, &input).map_err(|e| e.to_string())?;
            let sim = simulate(&plan, &params).map_err(|e| e.to_string())?;
            row.push_str(&format!(" {:>8.2}", sim.response_time));
        }
        println!("{row}");
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    if !args.flags.contains_key("shape") {
        return cmd_run_planner(args);
    }
    let shape = args.shape()?;
    let strategy = args.strategy()?;
    let k: usize = args.num("relations", 8)?;
    let tuples: usize = args.num("tuples", 2_000)?;
    let procs: usize = args.num("procs", 4)?;

    let catalog = Arc::new(Catalog::new());
    for (name, rel) in WisconsinGenerator::new(tuples, 42).generate_named("R", k) {
        catalog.register(name, rel);
    }
    let tree = build(shape, k).map_err(|e| e.to_string())?;
    let cards = node_cards(&tree, &UniformOneToOne { n: tuples as u64 });
    let costs = tree_costs(&tree, &cards, &CostModel::default());
    let mut input = GeneratorInput::new(&tree, &cards, &costs, procs);
    input.allow_oversubscribe = true;
    let plan = generate(strategy, &input).map_err(|e| e.to_string())?;
    let binding = QueryBinding::regular(&tree, catalog.as_ref()).map_err(|e| e.to_string())?;
    let outcome = run_plan(&plan, &binding, catalog.clone(), &ExecConfig::default())
        .map_err(|e| e.to_string())?;

    let oracle = to_xra(&tree, 3, JoinAlgorithm::Simple)
        .eval(catalog.as_ref())
        .map_err(|e| e.to_string())?;
    let ok = outcome.relation.multiset_eq(&oracle);
    println!(
        "{shape} / {strategy}: {} tuples in {:.1} ms on {procs} logical processors \
         ({} processes, {} streams) — oracle {}",
        outcome.relation.len(),
        outcome.elapsed.as_secs_f64() * 1e3,
        outcome.metrics.processes,
        outcome.metrics.streams,
        if ok { "match" } else { "MISMATCH" }
    );
    if !ok {
        return Err("parallel result diverged from the sequential oracle".into());
    }
    Ok(())
}

/// Planner-driven execution: generate a `--query` family, let the planner
/// pick tree/strategy/allocation, run on the real engine, and report
/// estimated-vs-actual cardinalities per operator.
fn cmd_run_planner(args: &Args) -> Result<(), String> {
    let (instance, planned, procs) = plan_family(args)?;
    println!(
        "query family `{}`: planner chose {} on {procs} logical processors \
         (tree depth {}, right spine {}, estimated cost {:.0})",
        instance.family,
        planned.strategy(),
        planned.tree.depth(),
        planned.tree.right_spine_len(),
        planned.estimate.makespan,
    );
    let outcome = run_plan(
        &planned.plan,
        &planned.binding,
        instance.catalog.clone(),
        &ExecConfig::default(),
    )
    .map_err(|e| e.to_string())?;

    let oracle = planned
        .lowered
        .to_xra(&planned.tree, JoinAlgorithm::Simple)
        .map_err(|e| e.to_string())?
        .eval(instance.catalog.as_ref())
        .map_err(|e| e.to_string())?;
    let ok = outcome.relation.multiset_eq(&oracle);
    println!(
        "{} tuples in {:.1} ms ({} processes, {} streams) — oracle {}",
        outcome.relation.len(),
        outcome.elapsed.as_secs_f64() * 1e3,
        outcome.metrics.processes,
        outcome.metrics.streams,
        if ok { "match" } else { "MISMATCH" }
    );
    println!("estimated vs actual cardinalities per operator:");
    println!(
        "  {:>4} {:>12} {:>12} {:>8}",
        "op", "estimated", "actual", "q-err"
    );
    for (op, est, actual) in outcome.metrics.cardinality_report() {
        println!(
            "  {:>4} {:>12} {:>12} {:>8.2}",
            format!("op{op}"),
            est,
            actual,
            outcome.metrics.ops[op].q_error()
        );
    }
    println!("max q-error: {:.2}", outcome.metrics.max_q_error());
    if !ok {
        return Err("parallel result diverged from the sequential oracle".into());
    }
    Ok(())
}

fn cmd_optimize(args: &Args) -> Result<(), String> {
    let kind = args
        .flags
        .get("query")
        .map(String::as_str)
        .unwrap_or("chain");
    let k: usize = args.num("relations", 10)?;
    if k < 2 {
        return Err("--relations must be at least 2".into());
    }
    let graph = match kind {
        "chain" => QueryGraph::regular_chain(k, 10_000).map_err(|e| e.to_string())?,
        "skewed" => {
            let mut g = QueryGraph::new();
            for i in 0..k {
                g.add_relation(format!("R{i}"), 10u64.pow(1 + (i % 4) as u32) * 50)
                    .map_err(|e| e.to_string())?;
            }
            for i in 0..k - 1 {
                g.add_edge(i, i + 1, 1e-2).map_err(|e| e.to_string())?;
            }
            g
        }
        "star" => {
            let mut g = QueryGraph::new();
            let fact = g
                .add_relation("fact", 1_000_000)
                .map_err(|e| e.to_string())?;
            for d in 0..k - 1 {
                let dim = g
                    .add_relation(format!("dim{d}"), 100 + 50 * d as u64)
                    .map_err(|e| e.to_string())?;
                g.add_edge(fact, dim, 1e-3).map_err(|e| e.to_string())?;
            }
            g
        }
        other => {
            return Err(format!(
                "unknown query kind `{other}` (chain, skewed, star)"
            ))
        }
    };
    let cm = CostModel::default();
    let mut results: Vec<(&str, f64, Option<String>)> = Vec::new();
    // The exact optimizers give up on graphs too dense for their budget.
    let mut exact = |name, result: Result<OptimizedPlan, RelalgError>, show_tree: bool| match result
    {
        Ok(plan) => {
            let tree = show_tree.then(|| render::render(&plan.tree));
            results.push((name, plan.total_cost, tree));
            Ok(Some(plan.total_cost))
        }
        Err(e @ RelalgError::PairBudgetExceeded { .. }) => {
            println!("({name}: {e})");
            Ok(None)
        }
        Err(e) => Err(e.to_string()),
    };
    let dp_cost = exact("bushy DP (optimum)", optimize_bushy(&graph, &cm), true)?;
    exact("linear DP", optimize_linear(&graph, &cm), false)?;
    let gr = greedy_tree(&graph, &cm).map_err(|e| e.to_string())?;
    results.push(("greedy", gr.total_cost, None));
    let ii = iterative_improvement(&graph, &cm, IterativeOptions::default())
        .map_err(|e| e.to_string())?;
    results.push(("iterative improvement", ii.total_cost, None));
    let sa =
        simulated_annealing(&graph, &cm, AnnealingOptions::default()).map_err(|e| e.to_string())?;
    results.push(("simulated annealing", sa.total_cost, None));
    let rnd = random_tree(&graph, &cm, 1).map_err(|e| e.to_string())?;
    results.push(("random tree", rnd.total_cost, None));

    println!("{kind} query over {k} relations (total cost, paper cost model):");
    for (name, cost, tree) in &results {
        match dp_cost {
            Some(opt) => println!("  {name:<22} {cost:>14.3e}  ({:.2}x optimum)", cost / opt),
            None => println!("  {name:<22} {cost:>14.3e}"),
        }
        if let Some(t) = tree {
            for line in t.lines() {
                println!("      {line}");
            }
        }
    }
    Ok(())
}

fn cmd_xra(args: &Args) -> Result<(), String> {
    let sub = args
        .positional
        .get(1)
        .map(String::as_str)
        .unwrap_or("print");
    match sub {
        "print" => {
            let shape = args.shape()?;
            let k: usize = args.num("relations", 10)?;
            let tree = build(shape, k).map_err(|e| e.to_string())?;
            let plan = to_xra(&tree, 3, JoinAlgorithm::Pipelining);
            println!("{}", text::print(&plan));
            Ok(())
        }
        "eval" => {
            let src = match args.positional.get(2) {
                Some(path) => {
                    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
                }
                None => {
                    let mut buf = String::new();
                    std::io::stdin()
                        .read_to_string(&mut buf)
                        .map_err(|e| format!("cannot read stdin: {e}"))?;
                    buf
                }
            };
            let plan = text::parse(&src).map_err(|e| e.to_string())?;
            let k: usize = args.num("relations", 10)?;
            let tuples: usize = args.num("tuples", 1_000)?;
            let catalog = Arc::new(Catalog::new());
            for (name, rel) in WisconsinGenerator::new(tuples, 42).generate_named("R", k) {
                catalog.register(name, rel);
            }
            let out = plan.eval(catalog.as_ref()).map_err(|e| e.to_string())?;
            println!(
                "evaluated against {k} Wisconsin relations x {tuples} tuples: {} result tuples",
                out.len()
            );
            for t in out.iter().take(10) {
                println!("  {t}");
            }
            if out.len() > 10 {
                println!("  ... ({} more)", out.len() - 10);
            }
            Ok(())
        }
        other => Err(format!("unknown xra subcommand `{other}` (print, eval)")),
    }
}

fn main() -> ExitCode {
    // Exit quietly when stdout closes mid-write (e.g. `mj sweep | head`);
    // print other panics without the default backtrace noise.
    std::panic::set_hook(Box::new(|info| {
        let msg = info.to_string();
        if msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        eprintln!("{msg}");
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let cmd = args.positional.first().map(String::as_str).unwrap_or("");
    let result = match cmd {
        "sql" => cmd_sql(&args),
        "serve" => cmd_serve(&args),
        "shapes" => cmd_shapes(&args),
        "plan" => cmd_plan(&args),
        "simulate" => cmd_simulate(&args),
        "sweep" => cmd_sweep(&args),
        "run" => cmd_run(&args),
        "optimize" => cmd_optimize(&args),
        "xra" => cmd_xra(&args),
        "" | "help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
