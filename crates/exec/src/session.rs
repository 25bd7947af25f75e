//! The session facade: the front door a client actually calls.
//!
//! Everything below this module — catalogs, query graphs, phase-1
//! optimizers, strategy costing, plan generation, bindings, the worker
//! pool — is machinery the paper says a *system* should drive (§3–§4).
//! [`Database`] packages it behind three calls:
//!
//! ```text
//! let db = Database::open(DbConfig::default())?;
//! db.register("orders", orders)?;            // + the other relations
//! db.analyze()?;                             // count distinct values now
//! let mut handle = db.query("SELECT * FROM orders JOIN ...")?;
//! for batch in handle.stream() { /* results stream incrementally */ }
//! ```
//!
//! `query` parses the text ([`mj_plan::parse`]), resolves relation and
//! column names against the catalog (spanned errors), derives selectivities
//! from the catalog's exact per-column distinct counts (the System-R
//! formula; binding is the one place counts become selectivities), plans
//! with the cost-based [`Planner`], and submits to the shared [`Engine`]
//! — returning a cancellable [`QueryHandle`] whose
//! [`ResultStream`](crate::handle::ResultStream) delivers batches while
//! the query runs.
//!
//! Text is the only way in: ad-hoc and prepared queries alike pass the
//! binder. It binds a WHERE comparison in one place whichever side its
//! column stands on — a leading literal or `?N` swaps sides and flips the
//! operator ([`CmpOp::flip`]: `5 < r.a` is `r.a > 5`).
//!
//! Every failure mode surfaces as a [`MjError`] — the top-level error that
//! unifies the per-crate error types (`From` impls for [`ParseError`] and
//! [`RelalgError`]) and carries byte spans for parse/bind diagnostics.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use mj_plan::parse::{
    parse_query, render_span, ColumnRef, ParseError, QueryAst, Scalar, SelectItem, SelectList, Span,
};
use mj_plan::query::{JoinQuery, SelectItemSpec, SelectSpec};
use mj_relalg::expr::Expr;
use mj_relalg::ops::AggFunc;
use mj_relalg::{CmpOp, DataType, Predicate, RelalgError, Relation, RelationProvider, Value};
use mj_storage::Catalog;

use crate::config::{ExecConfig, QueryOptions};
use crate::engine::Engine;
use crate::handle::QueryHandle;
use crate::metrics::{EngineStats, LatencyHistogram};
use crate::planner::{PlannedQuery, Planner, PlannerOptions};
use crate::sched::lock;
use crate::template::RunTemplate;

/// The top-level error of the session API, unifying the per-crate error
/// types behind one enum. Parse and bind failures carry byte [`Span`]s
/// into the query text; [`MjError::render`] draws the caret line.
#[derive(Clone, Debug, PartialEq)]
pub enum MjError {
    /// The query text did not parse.
    Parse(ParseError),
    /// The query parsed but a name/column/type did not resolve against the
    /// catalog.
    Bind {
        /// What failed to bind.
        message: String,
        /// The offending token's byte range in the query text.
        span: Span,
    },
    /// A relation name was registered twice.
    DuplicateRelation(String),
    /// The database configuration is invalid (zero workers, zero
    /// processors, zero batch size, ...).
    Config(String),
    /// The planner could not produce an executable plan for the query.
    Plan(RelalgError),
    /// Execution failed after planning succeeded.
    Exec(RelalgError),
    /// The query was cancelled before it completed.
    Canceled,
    /// The query ran past its deadline and was aborted.
    DeadlineExceeded,
    /// The query exceeded its memory budget and was aborted; the engine
    /// and its sibling queries are unaffected.
    ResourceExhausted {
        /// Bytes the query had charged when the budget tripped.
        used: u64,
        /// The configured budget in bytes.
        budget: u64,
    },
    /// The pipeline made no progress for the configured stall timeout;
    /// the payload is a per-operator progress dump.
    Stalled(String),
    /// A worker task panicked; the panic was contained to this query and
    /// converted into this error (the payload is the panic message).
    Internal(String),
    /// A prepared-statement call failed before planning or execution:
    /// argument arity mismatch, an execute against an unknown or closed
    /// statement id, or a malformed argument. Unlike [`MjError::Bind`]
    /// there is no query-text span — the failure is in the *call*, not
    /// the statement text.
    Params(String),
}

impl MjError {
    /// A bind error at `span`.
    pub fn bind(message: impl Into<String>, span: Span) -> Self {
        MjError::Bind {
            message: message.into(),
            span,
        }
    }

    /// The span of a parse/bind error, if this error carries one.
    pub fn span(&self) -> Option<Span> {
        match self {
            MjError::Parse(e) => Some(e.span),
            MjError::Bind { span, .. } => Some(*span),
            _ => None,
        }
    }

    /// Renders the error against the query source: spanned errors get the
    /// offending line with a caret underline, everything else the plain
    /// message.
    pub fn render(&self, source: &str) -> String {
        match self.span() {
            Some(span) => render_span(source, span, &self.to_string()),
            None => format!("{self}\n"),
        }
    }
}

impl fmt::Display for MjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MjError::Parse(e) => write!(f, "{e}"),
            MjError::Bind { message, span } => {
                write!(f, "bind error at {}: {message}", span.start)
            }
            MjError::DuplicateRelation(name) => {
                write!(f, "relation `{name}` is already registered")
            }
            MjError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            MjError::Plan(e) => write!(f, "planning failed: {e}"),
            MjError::Exec(e) => write!(f, "execution failed: {e}"),
            MjError::Canceled => write!(f, "query canceled"),
            MjError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            MjError::ResourceExhausted { used, budget } => write!(
                f,
                "query memory budget exhausted: {used} bytes used of {budget} allowed"
            ),
            MjError::Stalled(dump) => write!(f, "query stalled: {dump}"),
            MjError::Internal(msg) => write!(f, "internal error (contained panic): {msg}"),
            MjError::Params(msg) => write!(f, "prepared-statement error: {msg}"),
        }
    }
}

impl std::error::Error for MjError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MjError::Parse(e) => Some(e),
            MjError::Plan(e) | MjError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for MjError {
    fn from(e: ParseError) -> Self {
        MjError::Parse(e)
    }
}

impl From<RelalgError> for MjError {
    fn from(e: RelalgError) -> Self {
        match e {
            RelalgError::Canceled => MjError::Canceled,
            RelalgError::DeadlineExceeded => MjError::DeadlineExceeded,
            RelalgError::ResourceExhausted { used, budget } => {
                MjError::ResourceExhausted { used, budget }
            }
            RelalgError::Stalled(dump) => MjError::Stalled(dump),
            RelalgError::Internal(msg) => MjError::Internal(msg),
            other => MjError::Exec(other),
        }
    }
}

/// Result alias of the session API.
pub type MjResult<T> = std::result::Result<T, MjError>;

/// Default capacity of a [`Database`]'s prepared-statement plan cache.
pub const PLAN_CACHE_CAPACITY: usize = 64;

/// A prepared statement: the parsed, bound, and cost-planned form of a
/// parameterized query, reusable across executions without re-planning.
///
/// Produced by [`Database::prepare`] (which consults the session's shared
/// plan cache) and executed by [`Database::execute_prepared`]. The first
/// execute builds the statement's [`RunTemplate`] — operations, waves,
/// process groups, edge shapes and resident base operands, derived once —
/// and every execute instantiates it, binding the `?N` placeholders into
/// the filtered leaves only: the tree, parallel allocation, estimates and
/// wiring are reused as-is.
pub struct PreparedStatement {
    /// Original statement text (re-prepared verbatim on staleness).
    text: String,
    /// Number of `?N` placeholders (contiguous from `?1`).
    params: u32,
    /// Result column names, in output order.
    columns: Vec<String>,
    /// The bound output spec (select list, grouping, limit).
    spec: SelectSpec,
    /// The cached cost-based plan, predicates still holding `?N` leaves.
    planned: PlannedQuery,
    /// Catalog generation the plan was built against.
    generation: u64,
    /// The run template, built by the first execute (or the reason it
    /// could not be, which no retry changes: it depends on the plan
    /// alone). It goes with the statement: a catalog change makes both
    /// stale at once.
    template: OnceLock<MjResult<Arc<RunTemplate>>>,
}

impl PreparedStatement {
    /// The statement text as given to [`Database::prepare`].
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Number of `?N` placeholders the statement expects (contiguous from
    /// `?1`, so this is also the required argument count).
    pub fn params(&self) -> u32 {
        self.params
    }

    /// Result column names, in output order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The bound select spec (output items, grouping, limit).
    pub fn spec(&self) -> &SelectSpec {
        &self.spec
    }

    /// The cached plan, with `?N` placeholders still unbound. Useful for
    /// explain output and oracle-based differential tests
    /// ([`PlannedQuery::bind_params`] produces the executable form).
    pub fn planned(&self) -> &PlannedQuery {
        &self.planned
    }

    /// The catalog generation this plan was built against. When the live
    /// catalog has moved past it, the plan is stale and
    /// [`Database::execute_prepared`] transparently re-prepares.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The run template, once an execute has built it.
    pub fn template(&self) -> Option<&Arc<RunTemplate>> {
        self.template.get().and_then(|built| built.as_ref().ok())
    }

    /// The run template on `engine`, built by the first call; concurrent
    /// first calls wait for that one build.
    fn template_on(&self, engine: &Engine) -> MjResult<Arc<RunTemplate>> {
        let built = self.template.get_or_init(|| {
            let planned = &self.planned;
            let template = engine.template(planned.plan.clone(), planned.binding.clone());
            template.map_err(MjError::from)
        });
        built.clone()
    }
}

impl fmt::Debug for PreparedStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PreparedStatement({:?}, {} params, gen {})",
            self.text, self.params, self.generation
        )
    }
}

/// A bounded LRU cache of prepared plans, keyed by normalized statement
/// text (comments dropped, whitespace collapsed) and shared by every
/// connection of a [`Database`].
///
/// Entries carry the catalog generation they were planned against; a
/// lookup whose entry is stale counts as a miss (and the refreshed plan
/// replaces the stale entry, counting an eviction). Eviction under
/// capacity pressure removes the least-recently-used entry. The hit,
/// miss and eviction counts are this cache's own, kept under its lock.
struct PlanCache {
    capacity: usize,
    inner: Mutex<PlanCacheInner>,
}

#[derive(Default)]
struct PlanCacheInner {
    entries: HashMap<String, PlanCacheSlot>,
    /// Monotonic use counter backing the LRU order.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct PlanCacheSlot {
    stmt: Arc<PreparedStatement>,
    last_used: u64,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(PlanCacheInner::default()),
        }
    }

    /// Looks up `key`, requiring the entry's generation to match
    /// `generation`. A fresh entry is a hit; a stale or absent entry is a
    /// miss (stale entries are left in place — `insert` replaces them).
    fn get(&self, key: &str, generation: u64) -> Option<Arc<PreparedStatement>> {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some(slot) if slot.stmt.generation == generation => {
                slot.last_used = tick;
                let stmt = slot.stmt.clone();
                inner.hits += 1;
                Some(stmt)
            }
            _ => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly planned statement, evicting the LRU entry if the
    /// cache is full (replacing a stale entry under the same key also
    /// counts as an eviction).
    fn insert(&self, key: String, stmt: Arc<PreparedStatement>) {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(slot) = inner.entries.get_mut(&key) {
            slot.stmt = stmt;
            slot.last_used = tick;
            inner.evictions += 1;
            return;
        }
        if inner.entries.len() >= self.capacity {
            if let Some(lru) = inner
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&lru);
                inner.evictions += 1;
            }
        }
        inner.entries.insert(
            key,
            PlanCacheSlot {
                stmt,
                last_used: tick,
            },
        );
    }

    fn len(&self) -> usize {
        lock(&self.inner).entries.len()
    }

    /// Copies this cache's hit, miss and eviction counts into `stats`.
    fn overlay(&self, stats: &mut EngineStats) {
        let inner = lock(&self.inner);
        stats.plan_cache_hits = inner.hits;
        stats.plan_cache_misses = inner.misses;
        stats.plan_cache_evictions = inner.evictions;
    }
}

/// The plan-cache key: `text` with every `--` comment dropped and
/// whitespace runs collapsed to single spaces, so re-formatted but
/// identical statements share one cached plan. A comment ends at its
/// newline, as the lexer reads it (the grammar has no string literals, so
/// `--` always starts one), and splits tokens as whitespace does.
fn normalize_query_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_ws = true;
    let mut chars = text.chars().peekable();
    while let Some(ch) = chars.next() {
        let comment = ch == '-' && chars.peek() == Some(&'-');
        if comment {
            while chars.next_if(|&c| c != '\n').is_some() {}
        }
        if comment || ch.is_whitespace() {
            if !in_ws {
                out.push(' ');
                in_ws = true;
            }
        } else {
            out.push(ch);
            in_ws = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Every `?N` placeholder of the AST with its span, in syntactic order.
fn collect_params(ast: &QueryAst) -> Vec<(u32, Span)> {
    let mut out = Vec::new();
    for clause in &ast.where_clauses {
        for side in [&clause.left, &clause.right] {
            if let Scalar::Param(n, span) = side {
                out.push((*n, *span));
            }
        }
    }
    out
}

/// Validates that the AST's placeholders are numbered contiguously from
/// `?1` and returns the parameter count (0 when the query has none).
fn validate_params(ast: &QueryAst) -> MjResult<u32> {
    let seen = collect_params(ast);
    let max = seen.iter().map(|(n, _)| *n).max().unwrap_or(0);
    for wanted in 1..=max {
        if !seen.iter().any(|(n, _)| *n == wanted) {
            let (_, span) = seen
                .iter()
                .find(|(n, _)| *n == max)
                .copied()
                .expect("max came from seen");
            return Err(MjError::bind(
                format!(
                    "parameters must be numbered contiguously from ?1: \
                     ?{max} is used but ?{wanted} is not"
                ),
                span,
            ));
        }
    }
    Ok(max)
}

/// Configuration of a [`Database`]: the execution engine's tunables plus
/// the planner's options (logical processors, schedule model, strategy
/// override).
///
/// `exec.workers` is the physical pool: that many threads, for all queries
/// together. `planner.processors` is how finely one query may be
/// partitioned: each operation is hash-split into at most that many
/// operation processes, which are tasks multiplexed onto the workers. By
/// default ([`PlannerOptions::ONE_PER_WORKER`]) it is derived from
/// `exec.workers` when the database opens, one logical processor per
/// worker, so no partition waits for a core while its tuples are routed;
/// set it explicitly to plan over more. The planner is also told the worker
/// count ([`Planner::with_workers`]) and prices every process start, so
/// small operations run as one process however many processors are on
/// offer.
#[derive(Clone, Copy, Debug)]
pub struct DbConfig {
    /// Worker pool, batching, and channel tunables.
    pub exec: ExecConfig,
    /// Cost-based planner options (notably `processors`, the logical
    /// parallelism every plan is allocated over: one per worker unless
    /// set).
    pub planner: PlannerOptions,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            exec: ExecConfig::default(),
            planner: PlannerOptions::new(PlannerOptions::ONE_PER_WORKER),
        }
    }
}

impl DbConfig {
    /// Validates the configuration without opening anything.
    pub fn validate(&self) -> MjResult<()> {
        self.exec.validate().map_err(MjError::Config)?;
        let processors = match self.planner.processors {
            PlannerOptions::ONE_PER_WORKER => self.exec.workers,
            explicit => explicit,
        };
        if processors == 0 {
            return Err(MjError::Config(
                "planner processors must be positive".into(),
            ));
        }
        if processors > PlannerOptions::MAX_PROCESSORS {
            return Err(MjError::Config(format!(
                "planner processors must be at most {}, got {processors}",
                PlannerOptions::MAX_PROCESSORS
            )));
        }
        Ok(())
    }
}

/// A database session: one [`Catalog`], one [`Engine`] (fixed worker
/// pool), one [`Planner`]. Shareable across client threads (`&Database` is
/// all a client needs); every in-flight query multiplexes onto the same
/// workers.
pub struct Database {
    catalog: Arc<Catalog>,
    engine: Engine,
    planner: Planner,
    /// Shared prepared-statement plan cache (bounded LRU, generation-
    /// validated against the catalog).
    plan_cache: PlanCache,
    /// How long each planner run took (`EngineStats::plan_duration`).
    plan_duration: Mutex<LatencyHistogram>,
}

impl Database {
    /// Opens an empty database. Validates the whole configuration up
    /// front: zero workers, zero processors, or zero batch/channel sizes
    /// are [`MjError::Config`], never a panic.
    pub fn open(config: DbConfig) -> MjResult<Database> {
        config.validate()?;
        let catalog = Arc::new(Catalog::new());
        let engine = Engine::new(catalog.clone(), config.exec)
            .map_err(|e| MjError::Config(e.to_string()))?;
        Ok(Database {
            catalog,
            engine,
            planner: Planner::new(config.planner).with_workers(config.exec.workers),
            plan_cache: PlanCache::new(PLAN_CACHE_CAPACITY),
            plan_duration: Mutex::new(LatencyHistogram::default()),
        })
    }

    /// Registers a relation under `name`. Duplicate names are rejected
    /// atomically ([`MjError::DuplicateRelation`]); the original stays.
    pub fn register(&self, name: impl Into<String>, relation: Arc<Relation>) -> MjResult<()> {
        let name = name.into();
        self.catalog
            .register_new(name.clone(), relation)
            .map_err(|e| match e {
                // `register_new` only rejects name collisions today; keep
                // any future failure mode's real cause visible.
                RelalgError::InvalidPlan(_) => MjError::DuplicateRelation(name),
                other => MjError::Exec(other),
            })
    }

    /// Counts the exact per-column distinct values of every registered
    /// relation now — what the planner's System-R selectivity formula runs
    /// on. Each relation is counted once, over its stored columnar image,
    /// by whichever comes first: this call or the first bind that reads
    /// the relation. So calling it is optional: it moves the cost from the
    /// first query to the load. It changes no plan and leaves the catalog
    /// generation, and so every cached plan, as it is.
    pub fn analyze(&self) -> MjResult<()> {
        for name in self.catalog.names() {
            self.catalog.analyze(&name)?;
        }
        Ok(())
    }

    /// The catalog behind this session.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The shared execution engine (worker pool, reading this catalog).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The planner options this session plans with, `processors` resolved
    /// to the count its plans are allocated over.
    pub fn planner_options(&self) -> &PlannerOptions {
        self.planner.options()
    }

    /// Parses and binds `text` into a validated [`JoinQuery`] (joins plus
    /// any WHERE filters) and the bound [`SelectSpec`] (output items,
    /// grouping, limit) — the frontend half of [`query`](Self::query),
    /// exposed for tools that want the bound query without planning it.
    pub fn bind(&self, text: &str) -> MjResult<(JoinQuery, SelectSpec)> {
        let ast = parse_query(text)?;
        if let Some((n, span)) = collect_params(&ast).first().copied() {
            return Err(MjError::bind(
                format!(
                    "placeholder ?{n} requires a prepared statement; \
                     use prepare/execute instead of an ad-hoc query"
                ),
                span,
            ));
        }
        bind_ast(&ast, &self.catalog)
    }

    /// Plans `text` end to end (parse → bind → cost-based planner) without
    /// executing — what `mj sql --explain` prints.
    pub fn plan(&self, text: &str) -> MjResult<PlannedQuery> {
        let (query, spec) = self.bind(text)?;
        self.plan_bound(&query, &spec)
    }

    /// Runs the planner on a bound query, observing how long it took
    /// (`EngineStats::plan_duration`).
    fn plan_bound(&self, query: &JoinQuery, spec: &SelectSpec) -> MjResult<PlannedQuery> {
        let started = Instant::now();
        let planned = self.planner.plan_select(query, spec);
        lock(&self.plan_duration).observe(started.elapsed());
        planned.map_err(MjError::Plan)
    }

    /// Parses, binds, plans, and submits `text`, returning a cancellable
    /// [`QueryHandle`] immediately. Results stream through
    /// [`QueryHandle::stream`] while the query runs on the shared pool.
    pub fn query(&self, text: &str) -> MjResult<QueryHandle> {
        self.query_with(text, QueryOptions::default())
    }

    /// [`query`](Self::query) with per-query [`QueryOptions`]: a deadline
    /// and/or memory budget. Limit violations surface as typed errors on the
    /// handle ([`MjError::DeadlineExceeded`], [`MjError::ResourceExhausted`])
    /// — never as a process abort — and leave the session reusable.
    pub fn query_with(&self, text: &str, opts: QueryOptions) -> MjResult<QueryHandle> {
        let planned = self.plan(text)?;
        self.engine
            .submit_planned(planned.plan.clone(), planned.binding, opts)
            .map_err(MjError::from)
    }

    /// Prepares `text` as a reusable statement: parse → validate `?N`
    /// placeholders (contiguous from `?1`) → bind → cost-based plan, all
    /// through the session's shared bounded-LRU plan cache. A repeated
    /// prepare of the same text, up to comments and whitespace, against
    /// an unchanged catalog is a cache hit and skips every one of those
    /// steps; any registration bumps the catalog generation and forces a
    /// re-plan on the next prepare — a stale plan never runs against a
    /// changed catalog. [`analyze`](Self::analyze) is no registration.
    pub fn prepare(&self, text: &str) -> MjResult<Arc<PreparedStatement>> {
        let key = normalize_query_text(text);
        let generation = self.catalog.generation();
        if let Some(stmt) = self.plan_cache.get(&key, generation) {
            return Ok(stmt);
        }
        let ast = parse_query(text)?;
        let params = validate_params(&ast)?;
        let (query, spec) = bind_ast(&ast, &self.catalog)?;
        let planned = self.plan_bound(&query, &spec)?;
        let columns = planned
            .binding
            .result_schema(planned.plan.tree.root())
            .map_err(MjError::Plan)?
            .attrs()
            .iter()
            .map(|a| a.name.clone())
            .collect();
        let stmt = Arc::new(PreparedStatement {
            text: text.to_string(),
            params,
            columns,
            spec,
            planned,
            generation,
            template: OnceLock::new(),
        });
        self.plan_cache.insert(key, stmt.clone());
        Ok(stmt)
    }

    /// Executes a prepared statement with the given placeholder arguments
    /// (`args[0]` binds `?1`). See
    /// [`execute_prepared_with`](Self::execute_prepared_with).
    pub fn execute_prepared(
        &self,
        stmt: &Arc<PreparedStatement>,
        args: &[i64],
    ) -> MjResult<QueryHandle> {
        self.execute_prepared_with(stmt, args, QueryOptions::default())
    }

    /// Executes a prepared statement with per-query [`QueryOptions`]:
    /// checks argument arity ([`MjError::Params`] on mismatch), re-prepares
    /// transparently through the shared cache if the catalog has mutated
    /// since the statement was planned, and submits one execution of the
    /// statement's [`RunTemplate`] ([`Engine::submit_template`]), which
    /// binds the `?N` placeholders into the predicates that hold them —
    /// nothing is re-planned, re-wired or copied.
    pub fn execute_prepared_with(
        &self,
        stmt: &Arc<PreparedStatement>,
        args: &[i64],
        opts: QueryOptions,
    ) -> MjResult<QueryHandle> {
        if args.len() != stmt.params as usize {
            return Err(MjError::Params(format!(
                "statement expects {} argument(s), got {}",
                stmt.params,
                args.len()
            )));
        }
        // Staleness check: a catalog mutation since planning means the
        // cached tree/estimates may no longer be valid — re-prepare (a
        // cache miss) rather than run a stale plan.
        let current = if stmt.generation == self.catalog.generation() {
            stmt.clone()
        } else {
            self.prepare(&stmt.text)?
        };
        let template = current.template_on(&self.engine)?;
        self.engine
            .submit_template(template, args, opts)
            .map_err(MjError::from)
    }

    /// Number of plans currently resident in the shared plan cache.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.len()
    }

    /// Engine-lifetime robustness counters: completions, cancellations,
    /// timeouts, budget aborts, contained panics, peak charged bytes, and
    /// the query-latency histograms — one atomically consistent snapshot
    /// (every per-query counter is read under a single lock), so
    /// `queries_completed + queries_failed + queries_canceled +
    /// queries_timed_out + queries_stalled + budget_aborts +
    /// queries_active == queries_submitted` holds even
    /// when polled concurrently with running queries. This database's
    /// plan-cache counts and planning histogram are overlaid. The query
    /// server renders it through [`crate::metrics::to_prometheus`]
    /// (`GET /metrics`) and [`crate::metrics::to_json`].
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.engine.stats();
        stats.plan_duration = *lock(&self.plan_duration);
        self.plan_cache.overlay(&mut stats);
        stats
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Database({} relations, {} workers, {} planner processors)",
            self.catalog.len(),
            self.engine.workers(),
            self.planner.options().processors
        )
    }
}

/// Binds a parsed query against the catalog: resolves relation and column
/// names (spanned errors), derives join *and filter* selectivities from
/// per-column distinct counts, lowers WHERE conjuncts onto their
/// relations, and maps the select list / GROUP BY / LIMIT into a
/// [`SelectSpec`].
fn bind_ast(ast: &QueryAst, catalog: &Catalog) -> MjResult<(JoinQuery, SelectSpec)> {
    if ast.joins.is_empty() {
        return Err(MjError::bind(
            format!(
                "the engine evaluates multi-join queries; join `{}` to at least one other \
                 relation",
                ast.from.name
            ),
            ast.from.span,
        ));
    }

    let mut query = JoinQuery::new();
    let mut index: HashMap<&str, usize> = HashMap::new();
    for ident in ast.relations() {
        if index.contains_key(ident.name.as_str()) {
            return Err(MjError::bind(
                format!("relation `{}` appears twice in the query", ident.name),
                ident.span,
            ));
        }
        let stats = catalog
            .stats(&ident.name)
            .map_err(|_| MjError::bind(format!("unknown relation `{}`", ident.name), ident.span))?;
        let schema = catalog
            .schema(&ident.name)
            .map_err(|_| MjError::bind(format!("unknown relation `{}`", ident.name), ident.span))?;
        let idx = query
            .add_relation(&ident.name, stats.cardinality, schema)
            .map_err(|e| MjError::bind(e.to_string(), ident.span))?;
        index.insert(ident.name.as_str(), idx);
    }

    // Resolve the join conditions left to right; each ON clause may only
    // reference relations already in scope (FROM plus earlier/this JOIN).
    let mut in_scope: Vec<&str> = vec![ast.from.name.as_str()];
    for clause in &ast.joins {
        in_scope.push(clause.relation.name.as_str());
        let (a, ca) = resolve_column(&clause.left, &index, &in_scope, &query)?;
        let (b, cb) = resolve_column(&clause.right, &index, &in_scope, &query)?;
        if a == b {
            return Err(MjError::bind(
                "a join condition must relate two different relations",
                clause.on_span,
            ));
        }
        let da = catalog
            .column_distinct(&query.graph().names()[a], ca)
            .map_err(MjError::Exec)?
            .max(1);
        let db = catalog
            .column_distinct(&query.graph().names()[b], cb)
            .map_err(MjError::Exec)?
            .max(1);
        let selectivity = 1.0 / da.max(db) as f64;
        query
            .add_join(a, b, ca, cb, selectivity)
            .map_err(|e| MjError::bind(e.to_string(), clause.on_span))?;
    }

    // WHERE: every relation is in scope (the clause sits after all JOINs).
    let all: Vec<&str> = index.keys().copied().collect();
    for clause in &ast.where_clauses {
        bind_where_clause(clause, catalog, &index, &all, &mut query)?;
    }

    // GROUP BY columns.
    let mut group_by: Vec<(usize, usize)> = Vec::new();
    for col in &ast.group_by {
        let rc = resolve_column(col, &index, &all, &query)?;
        if !group_by.contains(&rc) {
            group_by.push(rc);
        }
    }

    // Select list.
    let mut items: Vec<SelectItemSpec> = Vec::new();
    match &ast.select {
        SelectList::Star => {
            if !group_by.is_empty() {
                return Err(MjError::bind(
                    "SELECT * cannot be combined with GROUP BY; list the grouped columns \
                     and aggregates explicitly",
                    ast.group_by[0].span(),
                ));
            }
            items.extend(
                query
                    .all_columns()
                    .into_iter()
                    .map(|(r, c)| SelectItemSpec::Column(r, c)),
            );
        }
        SelectList::Items(list) => {
            let has_aggregates = list.iter().any(|i| matches!(i, SelectItem::Aggregate(_)));
            let mut used_names: Vec<String> = Vec::new();
            for item in list {
                match item {
                    SelectItem::Column(col) => {
                        let rc = resolve_column(col, &index, &all, &query)?;
                        if (has_aggregates || !group_by.is_empty()) && !group_by.contains(&rc) {
                            return Err(MjError::bind(
                                format!(
                                    "column `{}.{}` must appear in GROUP BY to be selected \
                                     alongside aggregates",
                                    col.relation.name, col.column.name
                                ),
                                col.span(),
                            ));
                        }
                        items.push(SelectItemSpec::Column(rc.0, rc.1));
                    }
                    SelectItem::Aggregate(call) => {
                        let input = match &call.arg {
                            Some(col) => {
                                let rc = resolve_column(col, &index, &all, &query)?;
                                if call.func != AggFunc::Count {
                                    let attr = query
                                        .schema(rc.0)
                                        .map_err(MjError::Exec)?
                                        .attr(rc.1)
                                        .map_err(MjError::Exec)?;
                                    if attr.ty != DataType::Int {
                                        return Err(MjError::bind(
                                            format!(
                                                "{:?} needs an integer column, `{}.{}` is {}",
                                                call.func,
                                                col.relation.name,
                                                col.column.name,
                                                attr.ty
                                            ),
                                            col.span(),
                                        ));
                                    }
                                }
                                Some(rc)
                            }
                            None => None,
                        };
                        let base = agg_output_name(call.func, call.arg.as_ref());
                        let mut name = base.clone();
                        let mut suffix = 2;
                        while used_names.contains(&name) {
                            name = format!("{base}_{suffix}");
                            suffix += 1;
                        }
                        used_names.push(name.clone());
                        items.push(SelectItemSpec::Aggregate {
                            func: call.func,
                            input,
                            name,
                        });
                    }
                }
            }
        }
    }
    // (`GROUP BY` with only plain columns is grouped-distinct output —
    // every selected column was already checked to be a group column.)

    // Estimated distinct-group count from catalog statistics (product of
    // per-column distincts, saturating).
    let group_distinct_hint = if group_by.is_empty() {
        None
    } else {
        let mut product: u64 = 1;
        for &(r, c) in &group_by {
            let d = catalog
                .column_distinct(&query.graph().names()[r], c)
                .map_err(MjError::Exec)?
                .max(1);
            product = product.saturating_mul(d);
        }
        Some(product)
    };

    let spec = SelectSpec {
        items,
        group_by,
        limit: ast.limit.map(|l| l.rows),
        group_distinct_hint,
    };
    Ok((query, spec))
}

/// Output attribute name for an aggregate call: `count` for `COUNT(*)`,
/// `sum_<col>` style otherwise.
fn agg_output_name(func: AggFunc, arg: Option<&ColumnRef>) -> String {
    let prefix = match func {
        AggFunc::Count => "count",
        AggFunc::Sum => "sum",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
    };
    match arg {
        Some(col) => format!("{prefix}_{}", col.column.name),
        None => prefix.to_string(),
    }
}

/// Binds one WHERE conjunct onto its relation as a pushed-down filter:
/// binds both sides once, swaps them (flipping the operator) when the
/// literal or `?N` leads, checks types, derives a System-R-style
/// selectivity from the catalog's distinct counts, and attaches the
/// predicate to the [`JoinQuery`].
fn bind_where_clause(
    clause: &mj_plan::parse::WhereClause,
    catalog: &Catalog,
    index: &HashMap<&str, usize>,
    scope: &[&str],
    query: &mut JoinQuery,
) -> MjResult<()> {
    let bind_side = |s: &Scalar| -> MjResult<BoundScalar> {
        match s {
            Scalar::Column(col) => {
                let (r, c) = resolve_column(col, index, scope, query)?;
                Ok(BoundScalar::Column(r, c))
            }
            Scalar::Int(v, _) => Ok(BoundScalar::Operand(Expr::Lit(Value::Int(*v)))),
            Scalar::Param(n, _) => Ok(BoundScalar::Operand(Expr::Param(*n))),
        }
    };
    let (mut left, mut right) = (bind_side(&clause.left)?, bind_side(&clause.right)?);
    let (mut op, mut column_side) = (clause.op, &clause.left);
    if let BoundScalar::Operand(_) = left {
        // `5 < r.a` is `r.a > 5`: swap so the attribute leads.
        std::mem::swap(&mut left, &mut right);
        op = op.flip();
        column_side = &clause.right;
    }

    let (rel, predicate, selectivity) = match (left, right) {
        (BoundScalar::Column(r, c), BoundScalar::Operand(operand)) => {
            check_int_column(query, r, c, column_side)?;
            // Placeholders plan exactly like literals: selectivity of a
            // literal comparison never depends on the literal's value, so
            // the cached plan is valid for every argument binding.
            (
                r,
                Predicate::Cmp {
                    left: Expr::Attr(c),
                    op,
                    right: operand,
                },
                literal_selectivity(catalog, query, r, c, op)?,
            )
        }
        (BoundScalar::Column(ra, ca), BoundScalar::Column(rb, cb)) => {
            if ra != rb {
                return Err(MjError::bind(
                    "a WHERE predicate may reference only one relation; cross-relation \
                     conditions belong in a JOIN ... ON clause",
                    clause.span,
                ));
            }
            let ta = query
                .schema(ra)
                .map_err(MjError::Exec)?
                .attr(ca)
                .map_err(MjError::Exec)?
                .ty;
            let tb = query
                .schema(rb)
                .map_err(MjError::Exec)?
                .attr(cb)
                .map_err(MjError::Exec)?
                .ty;
            if ta != tb {
                return Err(MjError::bind(
                    format!("cannot compare a {ta} column with a {tb} column"),
                    clause.span,
                ));
            }
            (
                ra,
                Predicate::Cmp {
                    left: Expr::Attr(ca),
                    op,
                    right: Expr::Attr(cb),
                },
                // Same-relation column comparison: the classic 1/10 guess.
                0.1,
            )
        }
        // Both sides are operands (the swap left one on the left).
        (BoundScalar::Operand(_), _) => {
            return Err(MjError::bind(
                "a WHERE predicate must reference a column",
                clause.span,
            ));
        }
    };
    query
        .add_filter(rel, predicate, selectivity)
        .map_err(|e| MjError::bind(e.to_string(), clause.span))
}

/// One side of a WHERE comparison: a resolved column, or the literal or
/// `?N` it is compared with.
enum BoundScalar {
    Column(usize, usize),
    Operand(Expr),
}

/// Rejects string columns in integer-literal comparisons, pointing at the
/// column reference.
fn check_int_column(query: &JoinQuery, rel: usize, col: usize, side: &Scalar) -> MjResult<()> {
    let attr = query
        .schema(rel)
        .map_err(MjError::Exec)?
        .attr(col)
        .map_err(MjError::Exec)?;
    if attr.ty != DataType::Int {
        return Err(MjError::bind(
            format!(
                "cannot compare {} column `{}` with an integer literal",
                attr.ty, attr.name
            ),
            side.span(),
        ));
    }
    Ok(())
}

/// System-R-style selectivity of `col op literal` from the catalog's
/// distinct counts: `1/d` for equality, `1 - 1/d` for inequality, the
/// classic 1/3 for ranges. Clamped into `(0, 1]`.
fn literal_selectivity(
    catalog: &Catalog,
    query: &JoinQuery,
    rel: usize,
    col: usize,
    op: CmpOp,
) -> MjResult<f64> {
    let d = catalog
        .column_distinct(&query.graph().names()[rel], col)
        .map_err(MjError::Exec)?
        .max(1) as f64;
    let sel = match op {
        CmpOp::Eq => 1.0 / d,
        CmpOp::Ne => 1.0 - 1.0 / d,
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => 1.0 / 3.0,
    };
    Ok(sel.clamp(1e-3, 1.0))
}

/// Resolves `relation.column` to `(relation index, column index)`,
/// checking the relation is in `scope`.
fn resolve_column(
    col: &ColumnRef,
    index: &HashMap<&str, usize>,
    scope: &[&str],
    query: &JoinQuery,
) -> MjResult<(usize, usize)> {
    let rel_name = col.relation.name.as_str();
    let rel = match index.get(rel_name) {
        Some(&idx) if scope.contains(&rel_name) => idx,
        Some(_) => {
            return Err(MjError::bind(
                format!(
                    "relation `{rel_name}` is not in scope yet; a join condition may only \
                     reference relations joined so far"
                ),
                col.relation.span,
            ))
        }
        None => {
            return Err(MjError::bind(
                format!("relation `{rel_name}` is not part of this query"),
                col.relation.span,
            ))
        }
    };
    let schema = query.schema(rel).map_err(MjError::Exec)?;
    let column = schema.index_of(&col.column.name).map_err(|_| {
        MjError::bind(
            format!(
                "relation `{rel_name}` has no column `{}` (columns: {})",
                col.column.name,
                schema
                    .attrs()
                    .iter()
                    .map(|a| a.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            col.column.span,
        )
    })?;
    Ok((rel, column))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::{Attribute, Schema, Tuple};

    fn rel(cols: &[&str], rows: usize) -> Arc<Relation> {
        let schema = Schema::new(cols.iter().map(|c| Attribute::int(*c)).collect()).shared();
        let arity = cols.len();
        let tuples = (0..rows as i64)
            .map(|i| Tuple::from_ints(&vec![i; arity]))
            .collect();
        Arc::new(Relation::new_unchecked(schema, tuples))
    }

    fn small_db() -> Database {
        let db = Database::open(DbConfig::default()).unwrap();
        db.register("users", rel(&["id", "team"], 32)).unwrap();
        db.register("orders", rel(&["user_id", "item"], 32))
            .unwrap();
        db.register("items", rel(&["id", "price"], 32)).unwrap();
        db.analyze().unwrap();
        db
    }

    #[test]
    fn open_rejects_bad_configs() {
        let mut config = DbConfig::default();
        config.exec.workers = 0;
        assert!(matches!(Database::open(config), Err(MjError::Config(_))));
        let mut config = DbConfig::default();
        config.planner.processors = 0;
        assert!(matches!(Database::open(config), Err(MjError::Config(_))));
        let mut config = DbConfig::default();
        config.exec.batch_size = 0;
        assert!(matches!(Database::open(config), Err(MjError::Config(_))));
        let mut config = DbConfig::default();
        config.exec.channel_capacity = 0;
        assert!(matches!(Database::open(config), Err(MjError::Config(_))));
        // Past the bounds: refused before a pool thread starts or a plan
        // lists a processor.
        let mut config = DbConfig::default();
        config.exec.workers = crate::config::MAX_WORKERS + 1;
        assert!(matches!(Database::open(config), Err(MjError::Config(e)) if e.contains("workers")));
        let mut config = DbConfig::default();
        config.planner.processors = 100_000_000;
        assert!(
            matches!(Database::open(config), Err(MjError::Config(e)) if e.contains("processors"))
        );
        let mut config = DbConfig::default();
        config.planner.processors = PlannerOptions::MAX_PROCESSORS;
        assert!(Database::open(config).is_ok());
    }

    #[test]
    fn duplicate_registration_is_an_error() {
        let db = small_db();
        let err = db.register("users", rel(&["id"], 4)).unwrap_err();
        assert!(
            matches!(err, MjError::DuplicateRelation(ref n) if n == "users"),
            "{err}"
        );
        // Original relation untouched.
        assert_eq!(db.catalog().relation("users").unwrap().schema().arity(), 2);
    }

    #[test]
    fn query_streams_a_two_way_join() {
        let db = small_db();
        let result = db
            .query("SELECT * FROM users JOIN orders ON users.id = orders.user_id")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(result.len(), 32, "id and user_id are both 0..32");
        assert_eq!(result.schema().arity(), 4);
    }

    #[test]
    fn explicit_projection_controls_output() {
        let db = small_db();
        let result = db
            .query(
                "SELECT orders.item, users.team FROM users \
                 JOIN orders ON users.id = orders.user_id",
            )
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(result.schema().arity(), 2);
        assert_eq!(result.schema().attr(0).unwrap().name, "item");
        assert_eq!(result.schema().attr(1).unwrap().name, "team");
        assert_eq!(result.len(), 32);
    }

    #[test]
    fn unknown_relation_is_a_spanned_bind_error() {
        let db = small_db();
        let src = "SELECT * FROM users JOIN ghosts ON users.id = ghosts.id";
        let err = db.query(src).unwrap_err();
        let span = err.span().expect("bind errors carry a span");
        assert_eq!(&src[span.start..span.end], "ghosts");
        assert!(
            err.to_string().contains("unknown relation `ghosts`"),
            "{err}"
        );
        assert!(err.render(src).contains("^"), "{}", err.render(src));
    }

    #[test]
    fn unknown_column_and_out_of_scope_are_bind_errors() {
        let db = small_db();
        let src = "SELECT * FROM users JOIN orders ON users.nope = orders.user_id";
        let err = db.query(src).unwrap_err();
        let span = err.span().unwrap();
        assert_eq!(&src[span.start..span.end], "nope");
        assert!(err.to_string().contains("no column `nope`"), "{err}");

        // `items` is referenced before it is joined.
        let src = "SELECT * FROM users JOIN orders ON users.id = items.id \
                   JOIN items ON orders.item = items.id";
        let err = db.query(src).unwrap_err();
        assert!(err.to_string().contains("not in scope"), "{err}");
    }

    #[test]
    fn single_relation_query_is_rejected_with_span() {
        let db = small_db();
        let err = db.query("SELECT * FROM users").unwrap_err();
        assert!(matches!(err, MjError::Bind { .. }), "{err}");
        assert!(err.to_string().contains("at least one"), "{err}");
    }

    #[test]
    fn parse_errors_pass_through_with_spans() {
        let db = small_db();
        let err = db.query("SELECT * FROM users JOIN").unwrap_err();
        assert!(matches!(err, MjError::Parse(_)), "{err}");
        assert_eq!(err.span().unwrap().start, 24);
    }

    #[test]
    fn self_join_condition_is_rejected() {
        let db = small_db();
        let err = db
            .query("SELECT * FROM users JOIN orders ON users.id = users.team")
            .unwrap_err();
        assert!(err.to_string().contains("two different relations"), "{err}");
    }

    const PREPARED_TEXT: &str = "SELECT * FROM users JOIN orders \
                                 ON users.id = orders.user_id WHERE users.id < ?1";

    #[test]
    fn prepared_execute_matches_adhoc_literals() {
        let db = small_db();
        let stmt = db.prepare(PREPARED_TEXT).unwrap();
        assert_eq!(stmt.params(), 1);
        assert_eq!(stmt.columns().len(), 4);
        // Boundary-hugging arguments: below, at, and past the key range.
        for k in [0i64, 1, 7, 31, 32, 100] {
            let got = db.execute_prepared(&stmt, &[k]).unwrap().collect().unwrap();
            let adhoc = db
                .query(&format!(
                    "SELECT * FROM users JOIN orders \
                     ON users.id = orders.user_id WHERE users.id < {k}"
                ))
                .unwrap()
                .collect()
                .unwrap();
            assert_eq!(got.len(), adhoc.len(), "arg {k}");
            assert_eq!(got.len() as i64, k.clamp(0, 32), "arg {k}");
        }
    }

    #[test]
    fn params_lead_and_flip_like_literals() {
        let db = small_db();
        // `?1 <= users.id` must flip into `users.id >= ?1`.
        let stmt = db
            .prepare(
                "SELECT * FROM users JOIN orders \
                 ON users.id = orders.user_id WHERE ?1 <= users.id",
            )
            .unwrap();
        let got = db
            .execute_prepared(&stmt, &[30])
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(got.len(), 2, "ids 30 and 31 remain");
    }

    #[test]
    fn a_comparison_binds_alike_with_its_column_on_either_side() {
        let db = small_db();
        let bound = |cond: String| {
            let text = format!(
                "SELECT * FROM users JOIN orders ON users.id = orders.user_id WHERE {cond}"
            );
            let (query, _) = bind_ast(&parse_query(&text).unwrap(), db.catalog()).unwrap();
            let filter = &query.filters()[0];
            (filter.rel, filter.predicate.clone(), filter.selectivity)
        };
        // `users` holds 32 distinct ids.
        let ops = [
            (CmpOp::Eq, "=", "=", 1.0 / 32.0),
            (CmpOp::Ne, "<>", "<>", 31.0 / 32.0),
            (CmpOp::Lt, "<", ">", 1.0 / 3.0),
            (CmpOp::Le, "<=", ">=", 1.0 / 3.0),
            (CmpOp::Gt, ">", "<", 1.0 / 3.0),
            (CmpOp::Ge, ">=", "<=", 1.0 / 3.0),
        ];
        for (op, text, mirrored, selectivity) in ops {
            for (operand, expr) in [("7", Expr::Lit(Value::Int(7))), ("?1", Expr::Param(1))] {
                let leading = bound(format!("users.id {text} {operand}"));
                let predicate = Predicate::Cmp {
                    left: Expr::Attr(0),
                    op,
                    right: expr,
                };
                assert_eq!(
                    leading,
                    (0, predicate, selectivity),
                    "users.id {text} {operand}"
                );
                let trailing = bound(format!("{operand} {mirrored} users.id"));
                assert_eq!(trailing, leading, "{operand} {mirrored} users.id");
            }
        }
    }

    fn plan_cache_counts(db: &Database) -> (u64, u64, u64) {
        let s = db.stats();
        (
            s.plan_cache_hits,
            s.plan_cache_misses,
            s.plan_cache_evictions,
        )
    }

    #[test]
    fn a_comment_ends_at_its_newline_in_the_cache_key() {
        let key = normalize_query_text;
        assert_eq!(
            key("SELECT * FROM r -- note\nWHERE r.id < 5"),
            "SELECT * FROM r WHERE r.id < 5"
        );
        assert_eq!(
            key("SELECT * FROM r -- note WHERE r.id < 5"),
            "SELECT * FROM r"
        );
        // A comment splits tokens as whitespace does; a lone `-` is kept.
        assert_eq!(key("SELECT *--x\nFROM r\n--y"), "SELECT * FROM r");
        assert_eq!(key("WHERE r.id > -5  --"), "WHERE r.id > -5");
    }

    #[test]
    fn plan_cache_hits_and_catalog_invalidation() {
        let db = small_db();
        assert_eq!(plan_cache_counts(&db), (0, 0, 0));
        let s1 = db.prepare(PREPARED_TEXT).unwrap();
        // Same statement, different whitespace: one shared cache entry.
        let s2 = db
            .prepare(
                "SELECT *  FROM users  JOIN orders \
                 ON users.id = orders.user_id\nWHERE users.id < ?1",
            )
            .unwrap();
        assert!(Arc::ptr_eq(&s1, &s2), "whitespace variants share the plan");
        assert_eq!(plan_cache_counts(&db), (1, 1, 0));

        // `register` bumps the catalog generation: next prepare re-plans,
        // and the fresh plan replaces the stale entry (an eviction).
        db.register("extra", rel(&["id"], 4)).unwrap();
        let s3 = db.prepare(PREPARED_TEXT).unwrap();
        assert!(!Arc::ptr_eq(&s1, &s3), "stale plan must be replaced");
        assert_eq!(plan_cache_counts(&db), (1, 2, 1));

        // `analyze` counts what the images already fix: no write, so the
        // plan and its template stay.
        db.execute_prepared(&s3, &[1]).unwrap().collect().unwrap();
        let built = db.engine().templates_built();
        db.analyze().unwrap();
        let s4 = db.prepare(PREPARED_TEXT).unwrap();
        assert!(Arc::ptr_eq(&s3, &s4), "analyze keeps the cached plan");
        db.execute_prepared(&s4, &[1]).unwrap().collect().unwrap();
        assert_eq!(plan_cache_counts(&db), (2, 2, 1));
        assert_eq!(db.engine().templates_built(), built, "no template rebuilt");
    }

    #[test]
    fn plan_cache_counts_belong_to_their_database() {
        let (a, b) = (small_db(), small_db());
        a.prepare(PREPARED_TEXT).unwrap();
        let (hits, misses, evictions) = plan_cache_counts(&a);
        a.prepare(PREPARED_TEXT).unwrap(); // a hit
        a.register("extra", rel(&["id"], 4)).unwrap();
        a.prepare(PREPARED_TEXT).unwrap(); // stale: a miss and an eviction
        assert_eq!(plan_cache_counts(&a), (hits + 1, misses + 1, evictions + 1));
        assert_eq!(plan_cache_counts(&b), (0, 0, 0), "a's traffic leaked");
    }

    #[test]
    fn every_planner_run_is_observed_and_cache_hits_are_not() {
        let db = small_db();
        assert_eq!(db.stats().plan_duration.count, 0);
        let text = "SELECT * FROM users JOIN orders ON users.id = orders.user_id";
        db.plan(text).unwrap();
        db.query(text).unwrap().collect().unwrap();
        db.prepare(PREPARED_TEXT).unwrap(); // miss: plans
        db.prepare(PREPARED_TEXT).unwrap(); // hit: does not
        assert!(db
            .plan("SELECT * FROM users JOIN nowhere ON a = b")
            .is_err()); // bind error
        let h = db.stats().plan_duration;
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
        assert!(h.sum_us > 0);
        assert!(crate::metrics::to_prometheus(&db.stats())
            .contains("mj_plan_duration_seconds_count 3\n"));
    }

    #[test]
    fn stale_statement_reprepares_transparently() {
        let db = small_db();
        let stmt = db.prepare(PREPARED_TEXT).unwrap();
        // Mutate the catalog between prepare and execute.
        db.register("latecomer", rel(&["id"], 4)).unwrap();
        db.analyze().unwrap();
        let got = db
            .execute_prepared(&stmt, &[10])
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(got.len(), 10, "stale handle still answers correctly");
    }

    #[test]
    fn prepared_argument_arity_is_checked() {
        let db = small_db();
        let stmt = db.prepare(PREPARED_TEXT).unwrap();
        for bad in [&[][..], &[1, 2][..]] {
            let err = db.execute_prepared(&stmt, bad).unwrap_err();
            assert!(matches!(err, MjError::Params(_)), "{err}");
            assert!(err.to_string().contains("expects 1 argument"), "{err}");
        }
    }

    #[test]
    fn adhoc_query_rejects_placeholders() {
        let db = small_db();
        let err = db.query(PREPARED_TEXT).unwrap_err();
        assert!(matches!(err, MjError::Bind { .. }), "{err}");
        assert!(err.to_string().contains("prepared statement"), "{err}");
        let span = err.span().unwrap();
        assert_eq!(&PREPARED_TEXT[span.start..span.end], "?1");
    }

    #[test]
    fn param_numbering_must_be_contiguous() {
        let db = small_db();
        let src = "SELECT * FROM users JOIN orders \
                   ON users.id = orders.user_id WHERE users.id < ?2";
        let err = db.prepare(src).unwrap_err();
        assert!(err.to_string().contains("contiguously"), "{err}");
        assert_eq!(
            &src[err.span().unwrap().start..err.span().unwrap().end],
            "?2"
        );
    }

    #[test]
    fn plan_cache_is_bounded_with_lru_eviction() {
        let db = small_db();
        for i in 0..(PLAN_CACHE_CAPACITY + 8) {
            db.prepare(&format!(
                "SELECT * FROM users JOIN orders \
                 ON users.id = orders.user_id WHERE users.id < {i}"
            ))
            .unwrap();
        }
        assert_eq!(db.plan_cache_len(), PLAN_CACHE_CAPACITY);
        assert_eq!(db.stats().plan_cache_evictions, 8);
    }
}
