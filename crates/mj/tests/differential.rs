//! One seeded differential harness: generated multi-join queries, run on
//! the engine under a seeded sample of configurations, against the
//! sequential XRA oracle, whose sort-merge joins share no hashing with the
//! engine's.
//!
//! A query joins a chain, star or skewed family end to end, at sizes on
//! both sides of the grain, with scan filters on key and non-key columns
//! (the first `?1`; some keep no row), `GROUP BY` with aggregates,
//! `COUNT(*)` or `LIMIT`. A configuration draws the strategy, the late
//! mode, the workers, the planner's processors and schedule model, a batch
//! cap, and ad hoc or prepared. Each query runs cold on a fresh database,
//! then maybe canceled, past a deadline or over a 1-byte budget, then warm.
//!
//! After every run the rows are the oracle's, the budget is back at 0, the
//! pool is quiescent, a prepared statement's slots hold their scratch, the
//! metrics count what the plan promised, and with one processor per worker
//! nothing ran wider than the pool; the warm run builds nothing. At the
//! end, the plans run must cover every feature the sample is for. A
//! failure names the seed, case, configuration, SQL and plan; a stall
//! timeout turns a hang into a `Stalled` failure.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use multijoin::core::{OperandSource, ParallelPlan, ScheduleModel, Split, Strategy};
use multijoin::exec::{
    chain_query_sql, generate_family, star_query_sql, Database, DbConfig, FamilyInstance, LateMode,
    Metrics, PlannedQuery, PlannerOptions, PreparedStatement, QueryFamily, QueryHandle,
    QueryOptions, QueryStatus,
};
use multijoin::relalg::RelalgError;

mod common;
use common::{conclude, finish, oracle_rows, scratch_back, Rows};

/// The seed of the case sample; each data set's rows use their own.
const SEED: u64 = 1;
const CASES: usize = 250;
/// The data sets, `(family, relations, tuples)`: a few hundred tuples are
/// many grains of the paper's machine and one of the measured one, eight
/// thousand several of it.
const DATA: [(QueryFamily, usize, usize); 6] = [
    (QueryFamily::Chain, 5, 300),
    (QueryFamily::Chain, 4, 1200),
    (QueryFamily::Star, 5, 240),
    (QueryFamily::Skewed, 5, 400),
    (QueryFamily::Chain, 4, 8000),
    (QueryFamily::Star, 4, 6000),
];

/// One draw of the execution dimensions.
#[derive(Debug)]
struct Config {
    strategy: Option<Strategy>,
    late: LateMode,
    workers: usize,
    /// `None`: one per worker.
    processors: Option<usize>,
    prisma: bool,
    batch_cap: Option<usize>,
    prepared: bool,
    abort: Option<Abort>,
}

/// How a run between the cold and the warm one is cut short.
#[derive(Clone, Copy, Debug)]
enum Abort {
    /// Canceled after this many pool steps.
    Cancel(u64),
    /// A deadline of this many microseconds.
    Deadline(u64),
    /// A memory budget of one byte.
    Budget,
}

impl Config {
    fn draw(rng: &mut StdRng) -> Config {
        let forced = rng.gen_range(0..=Strategy::ALL.len());
        Config {
            strategy: Strategy::ALL.get(forced).copied(),
            late: pick(rng, &[LateMode::Auto, LateMode::Always, LateMode::Never]),
            workers: pick(rng, &[1, 2, 4]),
            processors: pick(rng, &[None, Some(4), Some(8)]),
            prisma: rng.gen_bool(2.0 / 3.0),
            batch_cap: pick(rng, &[None, Some(3), Some(16), Some(129)]),
            prepared: rng.gen_bool(0.5),
            abort: match rng.gen_range(0..6) {
                0 => Some(Abort::Cancel(rng.gen_range(0..60))),
                1 => Some(Abort::Deadline(rng.gen_range(0..3000))),
                2 => Some(Abort::Budget),
                _ => None,
            },
        }
    }

    fn open(&self, instance: &FamilyInstance) -> Database {
        let mut config = DbConfig::default();
        config.planner.strategy = self.strategy;
        config.planner.processors = self.processors.unwrap_or(PlannerOptions::ONE_PER_WORKER);
        if self.prisma {
            config.planner.schedule_model = ScheduleModel::prisma();
        }
        config.exec.late = self.late;
        config.exec.workers = self.workers;
        if let Some(cap) = self.batch_cap {
            config.exec.batch_size = cap;
            config.exec.channel_capacity = 2;
        }
        config.exec.stall_timeout = Some(Duration::from_secs(10));
        let db = Database::open(config).unwrap();
        instance.load(&db).unwrap();
        db
    }
}

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

/// A generated query: its text with `?1` where a prepared execute binds
/// `arg`, the relations its filters read, and its LIMIT.
struct Query {
    template: String,
    arg: Option<i64>,
    filtered: Vec<String>,
    count: bool,
    limit: Option<usize>,
}

impl Query {
    /// Draws a query over `family`'s `k` relations of base size `n`.
    fn draw(rng: &mut StdRng, family: QueryFamily, k: usize, n: usize) -> Query {
        let (joins, columns) = match family {
            QueryFamily::Star => (star_query_sql(k), star_columns(k)),
            _ => (chain_query_sql(k), vec![vec!["a", "b", "id"]; k]),
        };
        let from = &joins["SELECT * ".len()..];
        let column = |rng: &mut StdRng| {
            let r = rng.gen_range(0..k);
            format!("R{r}.{}", pick(rng, &columns[r]))
        };
        // Filters on key and non-key columns, the first `?1`: on each
        // relation at random, or in half the queries on every relation but
        // one, by equality, so that sub-grain joins meet wide ones. Some
        // keep no row: every column's values lie in 0..2n.
        let (mut conjuncts, mut filtered, mut arg) = (Vec::new(), Vec::new(), None);
        let whole = rng.gen_bool(0.5).then(|| rng.gen_range(0..k));
        for (r, cols) in columns.iter().enumerate() {
            let (op, bound) = match (whole, rng.gen_range(0..20)) {
                (Some(w), _) if w == r => continue,
                (Some(_), _) => ("=", rng.gen_range(0..n as i64)),
                (None, 0..=7) => continue,
                (None, 8..=11) => ("<", rng.gen_range(1..40)),
                (None, 12..=13) => ("=", rng.gen_range(0..n as i64)),
                (None, 14) => ("<", -1),
                (None, 15..=17) => ("<", rng.gen_range(0..2 * n as i64)),
                (None, _) => ("<>", rng.gen_range(0..n as i64)),
            };
            let col = pick(rng, cols);
            let bound = match arg {
                None => {
                    arg = Some(bound);
                    "?1".to_string()
                }
                Some(_) => bound.to_string(),
            };
            conjuncts.push(format!("R{r}.{col} {op} {bound}"));
            filtered.push(format!("R{r}"));
        }
        let filter = match conjuncts.is_empty() {
            true => String::new(),
            false => format!(" WHERE {}", conjuncts.join(" AND ")),
        };
        let (select, group_by) = match rng.gen_range(0..4) {
            0 => ("COUNT(*)".to_string(), String::new()),
            1 => {
                let key = column(rng);
                let [s, lo, hi] = [column(rng), column(rng), column(rng)];
                (
                    format!("{key}, COUNT(*), SUM({s}), MIN({lo}), MAX({hi})"),
                    format!(" GROUP BY {key}"),
                )
            }
            _ => ("*".to_string(), String::new()),
        };
        let limit = rng.gen_bool(0.2).then(|| rng.gen_range(1..20));
        let limit_text = limit.map_or(String::new(), |l| format!(" LIMIT {l}"));
        Query {
            template: format!("SELECT {select} {from}{filter}{group_by}{limit_text}"),
            arg,
            filtered,
            count: select == "COUNT(*)",
            limit,
        }
    }

    /// The text with `?1` bound: what an ad-hoc run sends.
    fn text(&self) -> String {
        match self.arg {
            Some(arg) => self.template.replace("?1", &arg.to_string()),
            None => self.template.clone(),
        }
    }

    fn args(&self) -> Vec<i64> {
        self.arg.into_iter().collect()
    }
}

/// A star instance's columns: dimensions `R0..R{k-2}`, the fact last.
fn star_columns(k: usize) -> Vec<Vec<&'static str>> {
    const FKS: [&str; 4] = ["fk0", "fk1", "fk2", "fk3"];
    let mut fact = FKS[..k - 1].to_vec();
    fact.push("measure");
    let mut columns = vec![vec!["key", "payload"]; k - 1];
    columns.push(fact);
    columns
}

/// How many of the sampled plans had each feature, by name.
#[derive(Default)]
struct Coverage {
    seen: BTreeMap<String, usize>,
    widest: usize,
}

impl Coverage {
    fn note(&mut self, feature: impl Into<String>) {
        *self.seen.entry(feature.into()).or_default() += 1;
    }

    /// What `planned` is made of: its degree-changing edges, its edges
    /// between a fused group and a partitioned operation, the roles of its
    /// segment groups, and whether it runs in parallel.
    fn plan(&mut self, planned: &PlannedQuery, query: &Query) {
        let plan: &ParallelPlan = &planned.plan;
        let roots = plan.process_roots();
        let grouped = |op: usize| {
            roots[op] != op || roots.iter().enumerate().any(|(o, &r)| o != op && r == op)
        };
        for op in &plan.ops {
            for operand in [&op.left, &op.right] {
                let (from, stream) = match operand {
                    OperandSource::Stream { from } => (*from, true),
                    OperandSource::Materialized { from } => (*from, false),
                    OperandSource::Base { .. } | OperandSource::Fused { .. } => continue,
                };
                let (p, c) = (plan.ops[from].degree(), op.degree());
                let edge = if stream { "stream" } else { "mat" };
                match p.cmp(&c) {
                    Ordering::Less => self.note(format!("{edge} up")),
                    Ordering::Greater => self.note(format!("{edge} down")),
                    Ordering::Equal => {}
                }
                if grouped(from) && c > 1 {
                    self.note(format!("group up, {edge}"));
                } else if grouped(op.id) && p > 1 {
                    self.note(format!("group down, {edge}"));
                }
            }
        }
        let mut prev = plan.sink().degree();
        for stage in planned.binding.stages() {
            if stage.degree < prev {
                self.note("stage down");
            }
            prev = stage.degree;
        }
        let widest = plan.ops.iter().map(|op| op.degree()).max().unwrap_or(0);
        self.widest = self.widest.max(widest);
        if widest > 1 {
            self.note(format!("parallel {}", planned.strategy()));
        }
        // A segment group's roles: the relation it splits by range, those
        // it shares as build sides, and what the query asks of it.
        for group in plan.segment_groups() {
            self.note("segment group");
            if query.count {
                self.note("segment group: count");
            }
            for &id in &group {
                let op = &plan.ops[id];
                for (operand, role) in [(&op.left, "shared"), (&op.right, "range-split")] {
                    if let OperandSource::Base { relation } = operand {
                        if query.filtered.contains(relation) {
                            self.note(format!("segment group: filtered {role} relation"));
                        }
                    }
                }
            }
        }
    }

    /// Asserts the sample covered what the fixtures it replaces did.
    fn assert_complete(&self) {
        let mut want: BTreeSet<String> = [
            "stream up",
            "stream down",
            "mat up",
            "mat down",
            "stage down",
            "group up, stream",
            "group up, mat",
            "group down, stream",
            "group down, mat",
            "segment group",
            "segment group: count",
            "segment group: filtered range-split relation",
            "segment group: filtered shared relation",
            "late rewrite",
        ]
        .map(String::from)
        .into();
        want.extend(Strategy::ALL.map(|s| format!("parallel {s}")));
        println!("seed {SEED}: plans by feature {:?}", self.seen);
        let missing: Vec<_> = want
            .iter()
            .filter(|f| !self.seen.contains_key(*f))
            .collect();
        assert!(missing.is_empty(), "seed {SEED}: never covered {missing:?}");
        assert_eq!(self.widest, 8, "seed {SEED}: widest degree");
    }
}

/// A run's rows are `expected`, or under a LIMIT that many of its rows.
fn check(got: &Rows, expected: &Rows, limit: Option<usize>, ctx: &str) {
    let Some(limit) = limit else {
        assert!(
            got == expected,
            "{ctx}: {} rows, oracle {}",
            got.len(),
            expected.len()
        );
        return;
    };
    assert_eq!(got.len(), limit.min(expected.len()), "{ctx}");
    let mut left = expected.clone();
    for row in got {
        let at = left.iter().position(|r| r == row);
        left.swap_remove(at.unwrap_or_else(|| panic!("{ctx}: {row:?} is no answer")));
    }
}

/// One case's database, query and plan, and how to submit it.
struct Run<'a> {
    db: &'a Database,
    cfg: &'a Config,
    query: &'a Query,
    planned: &'a PlannedQuery,
    stmt: Option<Arc<PreparedStatement>>,
    expected: &'a Rows,
    ctx: String,
}

impl Run<'_> {
    fn submit(&self, opts: QueryOptions) -> QueryHandle {
        match &self.stmt {
            Some(stmt) => self
                .db
                .execute_prepared_with(stmt, &self.query.args(), opts),
            None => self.db.query_with(&self.query.text(), opts),
        }
        .unwrap_or_else(|e| panic!("{}: {e}", self.ctx))
    }

    fn scratch_back(&self, ctx: &str) {
        if let Some(stmt) = &self.stmt {
            scratch_back(stmt, ctx);
        }
    }

    /// A full run: the oracle's rows, and the metrics the plan promised.
    fn full(&self, temperature: &str) -> Metrics {
        let ctx = format!("{} ({temperature})", self.ctx);
        let result = finish(self.db, self.submit(QueryOptions::new()), &ctx);
        self.scratch_back(&ctx);
        let (got, metrics) = result.unwrap_or_else(|e| panic!("{ctx}: {e}"));
        check(&got, self.expected, self.query.limit, &ctx);
        let (plan, stages) = (&self.planned.plan, self.planned.binding.stages());
        let stats = plan.stats();
        let stage_processes: usize = stages.iter().map(|s| s.degree).sum();
        assert_eq!(metrics.fused_ops, stats.fused_ops, "{ctx}");
        assert_eq!(
            metrics.processes,
            stats.operation_processes + stage_processes,
            "{ctx}"
        );
        assert_eq!(metrics.ops.len(), plan.ops.len() + stages.len(), "{ctx}");
        assert!(metrics.ops.iter().all(|op| op.instances > 0), "{ctx}");
        if self.cfg.processors.is_none() {
            let instances: Vec<usize> = metrics.ops.iter().map(|op| op.instances).collect();
            let workers = self.cfg.workers;
            assert!(
                instances.iter().all(|&n| n <= workers),
                "{ctx}: instances per operation {instances:?} on {workers} workers"
            );
        }
        metrics
    }

    /// A run cut short by `abort`: its typed error or, if the query won
    /// the race, the whole answer. A run that charges nothing (`peak`, its
    /// cold run's peak bytes) fits in any budget.
    fn aborted(&self, abort: Abort, peak: u64) {
        let ctx = format!("{} ({abort:?})", self.ctx);
        let pool = self.db.engine().pool();
        let (from, opts) = (pool.steps(), QueryOptions::new());
        let mut handle = self.submit(match abort {
            Abort::Cancel(_) => opts,
            Abort::Deadline(micros) => opts.with_deadline(Duration::from_micros(micros)),
            Abort::Budget => opts.with_memory_budget(1),
        });
        let stream = handle.stream();
        // The result is read meanwhile: one nobody reads would hold the
        // query back before the step comes.
        let rows = std::thread::scope(|s| {
            let reader = s.spawn(move || stream.collect_relation());
            if let Abort::Cancel(steps) = abort {
                while pool.steps() < from + steps && handle.status() == QueryStatus::Running {
                    std::thread::yield_now();
                }
                handle.cancel();
            }
            reader.join().unwrap()
        });
        let result = conclude(self.db, handle, &rows, &ctx);
        self.scratch_back(&ctx);
        match (abort, result) {
            (Abort::Budget, Err(RelalgError::ResourceExhausted { .. })) => {}
            (Abort::Cancel(_), Err(RelalgError::Canceled)) => {}
            (Abort::Deadline(_), Err(RelalgError::DeadlineExceeded)) => {}
            (Abort::Budget, Ok(_)) if peak > 1 => panic!("{ctx}: finished within its budget"),
            (_, Ok((got, _))) => check(&got, self.expected, self.query.limit, &ctx),
            (_, Err(e)) => panic!("{ctx}: {e}"),
        }
    }
}

/// Whether a cold run of `planned` had to partition a base relation: an
/// eager plan that hash-splits one over two or more instances does; a late
/// plan narrows its leaves privately and never does.
fn partitions_a_base(planned: &PlannedQuery) -> bool {
    planned.plan.ops.iter().any(|op| {
        let operands = [&op.left, &op.right].into_iter().zip(op.split);
        op.degree() > 1
            && operands
                .into_iter()
                .any(|(o, split)| matches!(o, OperandSource::Base { .. }) && split == Split::Hash)
    })
}

#[test]
fn generated_queries_match_the_oracle_under_every_configuration() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut coverage = Coverage::default();
    let mut instances: HashMap<usize, FamilyInstance> = HashMap::new();
    let mut answers: HashMap<(usize, String), Rows> = HashMap::new();
    for case in 0..CASES {
        let data = rng.gen_range(0..DATA.len());
        let (family, k, n) = DATA[data];
        let cfg = Config::draw(&mut rng);
        let query = Query::draw(&mut rng, family, k, n);
        let instance = instances
            .entry(data)
            .or_insert_with(|| generate_family(family, k, n, SEED + data as u64).unwrap());
        let db = cfg.open(instance);
        let text = query.text();
        let planned = db
            .plan(&text)
            .unwrap_or_else(|e| panic!("case {case}: {}", e.render(&text)));
        let ctx = format!(
            "seed {SEED}, case {case}: {family} {k} x {n}, {cfg:?}\n{}\n{}",
            query.template,
            planned.explain()
        );
        coverage.plan(&planned, &query);
        let expected = answers
            .entry((data, text.clone()))
            .or_insert_with(|| oracle_rows(&db, &text));
        if cfg.processors.is_none() {
            let workers = cfg.workers;
            assert_eq!(db.planner_options().processors, workers, "{ctx}");
            let shown = format!("{db:?}");
            let plans_with = format!("{workers} workers, {workers} planner processors");
            assert!(shown.contains(&plans_with), "{ctx}: {shown}");
        }

        let stmt = cfg.prepared.then(|| db.prepare(&query.template).unwrap());
        let run = Run {
            db: &db,
            cfg: &cfg,
            query: &query,
            planned: &planned,
            stmt,
            expected,
            ctx,
        };
        let catalog = db.catalog();
        let gathered = db.stats().gather_rows;
        let cold = run.full("cold");
        if cfg.late != LateMode::Never
            && partitions_a_base(&planned)
            && cold.fragment_cache_built == 0
            && db.stats().gather_rows > gathered
        {
            coverage.note("late rewrite");
        }
        if let Some(abort) = cfg.abort {
            run.aborted(abort, cold.peak_bytes);
        }
        let resident = catalog.resident_stats();
        let warm = run.full("warm");
        let ctx = &run.ctx;
        assert_eq!(warm.fragment_cache_built, 0, "{ctx}: the warm run built");
        assert!(
            warm.fragment_cache_hits > 0,
            "{ctx}: warm run looked nothing up"
        );
        let after = catalog.resident_stats();
        assert_eq!(after.misses, resident.misses, "{ctx}: warm run missed");
        assert_eq!(after.bytes, resident.bytes, "{ctx}: the cache grew warm");
        assert_eq!(db.engine().pool().threads(), cfg.workers, "{ctx}");
    }
    coverage.assert_complete();
}
