//! Plan interpretation on the shared worker pool: build operator tasks,
//! wire streams, schedule phases, stream the result to the client.
//!
//! The [`Engine`] owns a fixed-size [`WorkerPool`] and reads the
//! [`Catalog`], whose entries hold the base relations' columnar images and
//! fragments resident across queries. Queries are submitted with
//! [`Engine::submit`], which returns a [`QueryHandle`] — the query's
//! operator instances are multiplexed onto the same bounded worker set (the
//! paper's fixed processor pool, §4): the submitting thread sets the query
//! up and puts its first wave of tasks on the pool; from then on every
//! task's completion report advances the query on the thread that makes it
//! (`Coordinator`) — releasing the waves that waited for it, and, when it
//! is the last, concluding the query. No thread is started for a query: a
//! deadline or a stall limit is a check armed on the pool for the instant
//! it is next due (`WorkerPool::run_at`). The query's last operation
//! streams its output to the client like any operation streams to its
//! consumer: over a bounded one-consumer edge that the handle's
//! [`ResultStream`] drains while the query is still running, so a slow
//! client backpressures the worker pool. [`Engine::run`] and [`run_plan`]
//! (the same on a transient engine) drain the stream into a materialized
//! [`ExecOutcome`].
//!
//! What no execution changes — the operations, their waves and process
//! groups, the shapes of the edges between them, the resident base
//! fragments they read — is a [`RunTemplate`], derived once per planned
//! query (a prepared statement keeps its own). Per-query state (tuple
//! streams, base operand references, metrics, the completions still
//! outstanding) lives in the query's run, instantiated from the template
//! by the one submission path, [`Engine::submit_template`]. So do its
//! materialized intermediates: a producer instance cuts its output into
//! one piece per consumer instance and hands them to the run with its
//! completion report; the run gives consumer instance `j` piece `j` of
//! every producer instance when it spawns it, and whatever is left dies
//! with the run — including when the query is cancelled: the handle's
//! cancel token is observed by every task on its next scheduling step,
//! each reports exactly once, and the last report concludes the run,
//! crediting the pieces' bytes to its budget, before the outcome is
//! released.
//!
//! Every operation of a query — each join of the plan, then each post-join
//! stage (GROUP BY, LIMIT) — is listed and wired once, in its template,
//! and spawned by one path. One task is one operation
//! *process*: an operation's instance, or — where the plan fused sub-grain
//! operations into their consumer (`OperandSource::Fused`) — a whole
//! process group evaluated member by member inside it ([`OpTask`]). A group
//! of one is the common case; a stage is always one, its operand a stream
//! from the operation before it. A *segment group* is a process group of
//! `d` instances: each probes its range of the segment's bottom relation
//! through every member, and every member adopts one table over its whole
//! build side. A table that is not resident — over an earlier operation's
//! materialized output or a filtered relation — is indexed once, by a
//! `SharedBuild` pool task, when the group is otherwise ready; the run
//! spawns the group's instances once every such table is built.
//!
//! Scheduling order follows the right-deep segmentation: every operator
//! task is submitted with its segment's topological wave index
//! ([`ValidPlan::waves`]) as its priority, so deeper segments start first
//! and independent segments of one wave interleave on the pool; stages come
//! after the root join.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

use mj_core::plan_ir::ParallelPlan;
use mj_core::validate::ValidPlan;
use mj_join::ColumnarTable;
use mj_relalg::column::ColumnBatch;
use mj_relalg::{RelalgError, Relation, Result, Tuple};
use mj_storage::{Catalog, Fragments};

use crate::binding::QueryBinding;
use crate::budget::MemoryBudget;
use crate::config::{ExecConfig, QueryOptions};
use crate::handle::{QueryCtrl, QueryHandle, QueryOutcome, QueryStatus, ResultStream};
use crate::metrics::counters::EngineCounters;
use crate::metrics::{EngineStats, Metrics};
use crate::operator::shared::SharedBuild;
use crate::operator::task::{DoneMsg, OpTask, Reporter, TaskMember};
use crate::operator::OutputPort;
use crate::sched::WorkerPool;
use crate::source::Source;
use crate::stream::{is_teardown, operand_channels, BatchPool, Msg, Receiver, Router, Sender};
use crate::template::{RunTemplate, Wiring};

/// The producer side of one stream edge: senders to the consumer's
/// instances, the column the producer routes on, and the edge's shared
/// batch-buffer pool.
type OutEdge = (Vec<Sender<Msg>>, usize, Arc<BatchPool>);

/// The pieces one materializing instance cut, one slot per consumer
/// instance: slot `j` until consumer instance `j` is spawned and takes it.
type Pieces = Vec<Option<Arc<ColumnBatch>>>;

/// The materialized result of executing a plan to completion — what the
/// blocking wrappers ([`Engine::run`], [`run_plan`]) assemble by draining
/// the [`ResultStream`]. Streaming clients use [`Engine::submit`] and
/// never materialize this.
#[derive(Debug)]
pub struct ExecOutcome {
    /// The query result (the root join's output, drained from the stream).
    pub relation: Relation,
    /// Response time: scheduling start to last operation process exit
    /// (the paper's metric; base fragments are resident before the clock
    /// starts, matching §4.1's pre-fragmented starting state).
    pub elapsed: Duration,
    /// End-to-end time from submission to the first result batch reaching
    /// the draining client; `None` when the query produced no batches.
    pub time_to_first_batch: Option<Duration>,
    /// Execution metrics.
    pub metrics: Metrics,
}

/// A shared, concurrency-safe execution engine: one fixed worker pool and
/// one catalog of resident base relations serving any number of in-flight
/// queries.
///
/// ```text
/// let engine = Engine::new(catalog, ExecConfig::default())?;   // N workers
/// // from any number of threads:
/// let mut handle = engine.submit(&plan, &binding)?;            // streaming
/// for batch in handle.stream() { /* incremental consumption */ }
/// let outcome = engine.run(&plan, &binding)?;                  // materialized
/// ```
///
/// The engine's thread count is `config.workers` for its whole lifetime —
/// running more queries multiplexes more tasks onto the same workers
/// instead of spawning threads, with or without deadlines and stall limits.
pub struct Engine {
    catalog: Arc<Catalog>,
    config: ExecConfig,
    pool: Arc<WorkerPool>,
    counters: Arc<EngineCounters>,
    /// Run templates built on this engine ([`Engine::template`]).
    templates_built: AtomicU64,
}

impl Engine {
    /// Creates an engine over `catalog` (the base-relation store shared
    /// by all queries) with `config.workers` pool threads.
    pub fn new(catalog: Arc<Catalog>, config: ExecConfig) -> Result<Engine> {
        config.validate().map_err(RelalgError::InvalidPlan)?;
        Ok(Engine {
            catalog,
            config,
            pool: WorkerPool::new(config.workers),
            counters: Arc::new(EngineCounters::default()),
            templates_built: AtomicU64::new(0),
        })
    }

    /// Engine-lifetime robustness counters: completions, timeouts, stalls,
    /// budget aborts, contained panics, peak bytes, latency histograms —
    /// one atomically consistent snapshot (all
    /// per-query counters read under a single lock), overlaid with the
    /// worker pool's live busy/idle gauges and the catalog's resident-state
    /// counters.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.counters.snapshot();
        stats.workers_total = self.pool.workers() as u64;
        stats.workers_busy = self.pool.busy().min(stats.workers_total);
        let resident = self.catalog.resident_stats();
        stats.fragment_cache_hits = resident.hits;
        stats.fragment_cache_misses = resident.misses;
        stats.fragment_cache_evictions = resident.evictions;
        stats.fragment_cache_bytes = resident.bytes;
        stats
    }

    /// The engine configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Worker threads in the shared pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The shared scheduler pool (diagnostics).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The catalog of base relations every query reads, with their
    /// resident images, fragments and join tables.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Submits `plan` for execution and returns a [`QueryHandle`] once the
    /// query is set up and its first wave of tasks is on the pool — set-up
    /// (see [`submit_template`](Engine::submit_template)) runs on the calling
    /// thread; results stream while the caller holds the handle. Callable
    /// concurrently from many threads; each query gets its own handle,
    /// stream, metrics, and cancel token while all of them share the
    /// engine's fixed worker pool.
    pub fn submit(&self, plan: &ParallelPlan, binding: &QueryBinding) -> Result<QueryHandle> {
        self.submit_with(plan, binding, QueryOptions::default())
    }

    /// [`submit`](Engine::submit) with per-query [`QueryOptions`]
    /// (deadline, memory budget, fault plan). The plan is validated and
    /// copied; a caller that holds a [`ValidPlan`] — the planner's output
    /// — uses [`submit_planned`](Engine::submit_planned) and pays neither,
    /// and one that executes it repeatedly keeps its [`RunTemplate`]
    /// ([`Engine::template`]) and pays for set-up once.
    pub fn submit_with(
        &self,
        plan: &ParallelPlan,
        binding: &QueryBinding,
        opts: QueryOptions,
    ) -> Result<QueryHandle> {
        self.submit_planned(ValidPlan::new(plan.clone())?, binding.clone(), opts)
    }

    /// Submits an already validated plan: builds its run template
    /// ([`Engine::template`]) and submits it once — what the session layer
    /// calls for every ad-hoc query. A deadline and a memory budget come
    /// from `opts` only.
    pub fn submit_planned(
        &self,
        plan: ValidPlan,
        binding: QueryBinding,
        opts: QueryOptions,
    ) -> Result<QueryHandle> {
        self.submit_template(self.template(plan, binding)?, &[], opts)
    }

    /// Submits one execution of `template` with its `?N` placeholders
    /// bound to `args` (`args[0]` binds `?1`): the one submission path, what
    /// an ad-hoc query and every execute of a prepared statement come to.
    ///
    /// Set-up runs on the calling thread before this returns: the
    /// execution's result edge and control block, its late rewrite if the
    /// template takes one, its base operands (held by the template while
    /// they stay resident; partitioning a relation its catalog entry has
    /// not held at this degree takes several milliseconds on a large one,
    /// once), its stream edges, and submitting every task whose
    /// dependencies are already met. Everything after that happens on the
    /// pool, completion report by completion report.
    pub fn submit_template(
        &self,
        template: Arc<RunTemplate>,
        args: &[i64],
        opts: QueryOptions,
    ) -> Result<QueryHandle> {
        // Submission instant: anchors the deadline, the duration histogram
        // and the client-side time-to-first-batch measurement.
        let submitted_at = Instant::now();
        self.counters.note_submitted();
        let (result, stream, ctrl) = self.open_result_edge(&template, &opts, submitted_at);
        // Set-up and the first wave of tasks, here on the submitting
        // thread; from then on the query is advanced by whichever thread
        // reports a completion.
        let run = QueryRun::new(self, template, args, &opts, result, &ctrl);
        let accounts = Accounts {
            ctrl: ctrl.clone(),
            counters: self.counters.clone(),
            submitted_at,
        };
        start(run, accounts);
        Ok(QueryHandle::new(stream, ctrl))
    }

    /// The run template of `plan` bound by `binding` on this engine (see
    /// [`RunTemplate`]): what [`submit_template`](Engine::submit_template)
    /// instantiates per execution.
    pub fn template(&self, plan: ValidPlan, binding: QueryBinding) -> Result<Arc<RunTemplate>> {
        let template = RunTemplate::new(plan, binding, self.config.late)?;
        self.templates_built.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(template))
    }

    /// Run templates built on this engine so far (diagnostics): one per
    /// ad-hoc submission, one per prepared statement and catalog
    /// generation.
    pub fn templates_built(&self) -> u64 {
        self.templates_built.load(Ordering::Relaxed)
    }

    /// Executes `plan` to completion, draining the result stream into a
    /// materialized [`ExecOutcome`]. Callable concurrently from many
    /// threads; each call gets its own [`Metrics`].
    pub fn run(&self, plan: &ParallelPlan, binding: &QueryBinding) -> Result<ExecOutcome> {
        materialize(self.submit(plan, binding)?)
    }

    /// Opens one execution's result edge and control block: a
    /// one-consumer stream from the instances of the query's last
    /// operation (the last post-join stage, or the root join) into the
    /// client-side [`ResultStream`], and the shared cancel/status block
    /// carrying the query's deadline and memory budget.
    fn open_result_edge(
        &self,
        template: &RunTemplate,
        opts: &QueryOptions,
        submitted_at: Instant,
    ) -> (OutEdge, ResultStream, Arc<QueryCtrl>) {
        let edge = template.edges().last().expect("the result edge is last");
        let (txs, mut rxs, pool) = operand_channels(
            edge.producers,
            1,
            self.config.channel_capacity,
            edge.layout.clone(),
        );
        let budget = match opts.memory_budget() {
            Some(limit) => MemoryBudget::with_limit(limit),
            None => MemoryBudget::unlimited(),
        };
        pool.set_budget(budget.clone());
        let deadline = opts.deadline().map(|d| submitted_at + d);
        let ctrl = QueryCtrl::on_pool(&self.pool, deadline, budget);
        let rx = rxs.pop().expect("one consumer");
        let stream = ResultStream::new(
            rx,
            edge.producers,
            template.result_schema().clone(),
            ctrl.clone(),
            submitted_at,
            self.counters.clone(),
        );
        ((txs, edge.key_col, pool), stream, ctrl)
    }
}

/// Drains `handle`'s stream into a materialized [`ExecOutcome`].
fn materialize(mut handle: QueryHandle) -> Result<ExecOutcome> {
    let mut stream = handle.stream();
    let schema = stream.schema().clone();
    let mut tuples: Vec<Tuple> = Vec::new();
    while let Some(mut batch) = stream.next_batch() {
        tuples.extend(batch.drain());
    }
    drop(stream); // fully drained: dropping a finished stream is a no-op
    let outcome = handle.outcome()?;
    Ok(ExecOutcome {
        relation: Relation::new_unchecked(schema, tuples),
        elapsed: outcome.elapsed,
        time_to_first_batch: outcome.time_to_first_batch,
        metrics: outcome.metrics,
    })
}

/// Executes `plan` against the relations in `catalog` on a transient
/// [`Engine`] — its `config.workers` pool threads are joined before this
/// returns — draining the stream into a materialized [`ExecOutcome`].
/// Long-lived callers, concurrent workloads, and streaming clients should
/// hold an [`Engine`] instead.
pub fn run_plan(
    plan: &ParallelPlan,
    binding: &QueryBinding,
    catalog: Arc<Catalog>,
    config: &ExecConfig,
) -> Result<ExecOutcome> {
    Engine::new(catalog, *config)?.run(plan, binding)
}

/// The engine's accounts of one query, settled when it concludes.
struct Accounts {
    ctrl: Arc<QueryCtrl>,
    counters: Arc<EngineCounters>,
    submitted_at: Instant,
}

impl Accounts {
    /// Counts the query's result and its edges' batch-pool takes and
    /// misses (`pools`), then publishes the outcome — in that order, so
    /// whoever holds the outcome sees the counters settled.
    fn settle(self, result: Result<QueryOutcome>, pools: (u64, u64)) {
        self.counters.record(
            &result,
            self.ctrl.panics(),
            self.ctrl.budget().peak(),
            self.submitted_at.elapsed(),
            pools,
        );
        self.ctrl.finish(result);
    }
}

/// One query's coordination. No thread waits for a query: the submitting
/// thread and every completion report [`advance`](Coordinator::advance) the
/// run under its lock, and whichever of them leaves it with no task to wait
/// for concludes the query on the spot.
struct Coordinator {
    /// The run and its accounts until the query concludes.
    state: Mutex<Option<(QueryRun, Accounts)>>,
}

impl Coordinator {
    fn new(mut run: QueryRun, accounts: Accounts) -> Arc<Coordinator> {
        let coordinator = Arc::new(Coordinator {
            state: Mutex::new(None),
        });
        // The run hands this to its tasks; it goes with the run when the
        // query concludes.
        let reporting = coordinator.clone();
        run.reporter = Some(Reporter::new(move |report| {
            reporting.advance(|run| run.on_report(report));
        }));
        run.coordinator = Arc::downgrade(&coordinator);
        *coordinator.lock() = Some((run, accounts));
        coordinator
    }

    fn lock(&self) -> MutexGuard<'_, Option<(QueryRun, Accounts)>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies `event` to the run; if every task submitted so far has then
    /// reported, the query has quiesced and is concluded here. Nothing that
    /// runs under the lock drops a task, so a report never finds it held by
    /// its own thread.
    fn advance(&self, event: impl FnOnce(&mut QueryRun)) {
        let mut state = self.lock();
        let Some((run, _)) = state.as_mut() else {
            return;
        };
        event(run);
        if run.received < run.spawned_instances {
            return;
        }
        let (run, accounts) = state.take().expect("checked above");
        drop(state);
        let pools = run.batch_pool_tally();
        accounts.settle(run.conclude(), pools);
    }

    /// Where the query stands, for a stall report.
    fn progress_dump(&self) -> String {
        let state = self.lock();
        state
            .as_ref()
            .map_or_else(String::new, |(run, _)| run.progress_dump())
    }
}

/// The deadline and the stall limit of one query, checked on the pool at
/// the instant each is next due (`WorkerPool::run_at`), so that both hold
/// even when every task is parked, e.g. wedged on a dead peer (tasks also
/// check the deadline on every step). A check only raises the abort; the
/// tasks observe it, report, and the last report concludes the query as
/// always. It holds the query only weakly: once the query has concluded, a
/// pending check keeps nothing alive and does nothing.
struct Guard {
    coordinator: Weak<Coordinator>,
    ctrl: Weak<QueryCtrl>,
    deadline: Option<Instant>,
    stall_timeout: Option<Duration>,
    /// The progress count the last stall check saw, and when the next one
    /// is due.
    seen: (u64, Instant),
}

impl Guard {
    /// When the guard is next due; `None` for a query without limits.
    fn due(&self) -> Option<Instant> {
        let stall = self.stall_timeout.map(|_| self.seen.1);
        self.deadline.into_iter().chain(stall).min()
    }

    /// Runs the checks due now and says when to run again: never once the
    /// query has concluded, been canceled or been aborted. A stall check
    /// that finds the progress count unmoved since the last one aborts with
    /// `Stalled`; otherwise the next one is due a stall window from now.
    fn check(&mut self) -> Option<Instant> {
        let ctrl = self.ctrl.upgrade()?;
        if ctrl.status() != QueryStatus::Running || ctrl.is_aborted() || ctrl.is_canceled() {
            return None;
        }
        if ctrl.deadline_exceeded() {
            ctrl.abort(RelalgError::DeadlineExceeded);
            return None;
        }
        let now = Instant::now();
        if let Some(timeout) = self.stall_timeout.filter(|_| now >= self.seen.1) {
            let progress = ctrl.progress();
            if progress == self.seen.0 {
                let coordinator = self.coordinator.upgrade()?;
                ctrl.abort(RelalgError::Stalled(coordinator.progress_dump()));
                return None;
            }
            self.seen = (progress, now + timeout);
        }
        self.due()
    }
}

/// Puts a prepared query under coordination and its first wave of tasks on
/// the pool. A query with a deadline or a stall limit also arms its
/// [`Guard`] on the pool; no query starts a thread. A set-up failure
/// concludes the query at once and surfaces from its outcome like any
/// other.
fn start(prepared: Result<QueryRun>, accounts: Accounts) {
    let run = match prepared {
        Ok(run) => run,
        Err(e) => return accounts.settle(Err(e), (0, 0)),
    };
    let (pool, ctrl, stall_timeout) =
        (run.pool.clone(), run.ctrl.clone(), run.config.stall_timeout);
    let coordinator = Coordinator::new(run, accounts);
    let mut guard = Guard {
        coordinator: Arc::downgrade(&coordinator),
        ctrl: Arc::downgrade(&ctrl),
        deadline: ctrl.deadline(),
        stall_timeout,
        seen: (
            ctrl.progress(),
            Instant::now() + stall_timeout.unwrap_or_default(),
        ),
    };
    if let Some(at) = guard.due() {
        pool.run_at(at, Box::new(move || guard.check()));
    }
    coordinator.advance(QueryRun::spawn_first_wave);
}

/// One execution of a [`RunTemplate`] from set-up to teardown.
/// [`new`](QueryRun::new) and the first wave of tasks run on the
/// submitting thread; after that the run sits in its [`Coordinator`] and is
/// advanced by completion reports on the pool's threads, so it owns (or
/// shares by `Arc`) everything it touches. What it adds to the template is
/// exactly the per-execution state: edges, base operands (their scan
/// filters bound to the arguments), materialized pieces, progress and
/// metrics.
struct QueryRun {
    template: Arc<RunTemplate>,
    config: ExecConfig,
    pool: Arc<WorkerPool>,
    ctrl: Arc<QueryCtrl>,
    /// Per base operand of the template and instance of its operation:
    /// the fragment (or resident table) it reads, until its task takes it.
    base_parts: Vec<Option<Source>>,
    /// Per edge of the template, the result edge last: the senders, taken
    /// at producer spawn (dropping the master senders lets consumers, the
    /// client too, observe teardown), and the edge's buffer pool, whose
    /// takes and misses reach the engine's counters when the query
    /// concludes.
    senders: Vec<(Option<OutEdge>, Arc<BatchPool>)>,
    /// Per edge between operations: the receivers, one taken per consumer
    /// instance at its spawn.
    receivers: Vec<std::vec::IntoIter<Receiver<Msg>>>,
    /// The pieces materializing instances reported, under their (op,
    /// instance) in that order.
    pieces: Vec<((usize, usize), Pieces)>,
    /// Bytes of every piece reported, charged to the budget as they were
    /// cut and credited back when the query concludes.
    piece_bytes: u64,
    /// What every task of the query reports its completions through; set
    /// when the run is put under its [`Coordinator`].
    reporter: Option<Reporter>,
    /// That coordinator, for the shared builds' reports.
    coordinator: Weak<Coordinator>,
    /// Per op whose build side every instance shares: the table, once the
    /// catalog or the execution's [`SharedBuild`] provided it (empty for a
    /// plan without segment groups).
    shared: Vec<Option<Arc<ColumnarTable>>>,
    /// When scheduling started: the paper's response time runs from here
    /// to the last completion report.
    started: Instant,
    /// Per op: where its instances and its process group stand.
    progress: Vec<Progress>,
    /// The first failure, from set-up or from a task.
    first_err: Option<RelalgError>,
    /// Bytes of resident images the late rewrite pinned for this query,
    /// charged to its budget until teardown.
    pinned_bytes: u64,
    /// Completion reports to wait for: one per member of every task.
    spawned_instances: usize,
    /// Completion reports received.
    received: usize,
    metrics: Metrics,
    /// Late-materialization resolver, attached to the root join's tasks.
    resolver: Option<Arc<crate::late::Resolver>>,
    /// Deterministic fault-injection plan (test harness only).
    #[cfg(feature = "faults")]
    fault_plan: Option<crate::faults::FaultPlan>,
}

/// Where one operation stands in one execution.
#[derive(Clone, Copy)]
struct Progress {
    /// Instances that have not reported yet.
    instances_left: usize,
    /// Under a group's root op: completions of ops in other processes the
    /// group still waits for.
    waiting: usize,
    /// Under a group's root op: its processes are submitted.
    spawned: bool,
    /// Under a group's root op: once it is otherwise ready, the shared
    /// tables still being built for it.
    building: Option<usize>,
}

impl QueryRun {
    /// Sets one execution of `template` up on `engine`'s pool — late
    /// rewrite, base operands, stream edges — with `args` bound to its
    /// placeholders and the output of its last operation streaming into
    /// `result`. Nothing is submitted yet
    /// ([`spawn_first_wave`](Self::spawn_first_wave)).
    fn new(
        engine: &Engine,
        template: Arc<RunTemplate>,
        args: &[i64],
        opts: &QueryOptions,
        result: OutEdge,
        ctrl: &Arc<QueryCtrl>,
    ) -> Result<QueryRun> {
        // Options beyond deadline and budget are resolved upstream.
        #[cfg(not(feature = "faults"))]
        let _ = opts;
        let config = &engine.config;
        let mut metrics = template.metrics().clone();

        // --- Late materialization. When the template takes the rewrite, the
        // join pipeline runs on narrow ref-carrying batches, the resident
        // images the refs index stay pinned in the rewrite's registry
        // (charged to the budget here), and the root join's tasks resolve
        // refs back to the original schema — so everything from the root's
        // output port on (stages, result edge) is untouched.
        let catalog = engine.catalog.as_ref();
        let late = template.late(args, catalog, &mut metrics)?;
        let pinned_bytes = late.as_ref().map_or(0, |l| l.pinned_bytes);
        if pinned_bytes > 0 && !ctrl.budget().charge(pinned_bytes) {
            ctrl.abort(ctrl.budget().exhausted_error());
        }

        // --- Setup (not timed): ideal base fragmentation per §4.1, resident.
        let resolved = template.resolve_bases(late.as_ref(), catalog, &mut metrics)?;

        // Fresh channels for every stream edge (receivers taken at consumer
        // spawn, senders at producer spawn), their buffer pools charged to
        // this query's budget. The last edge, to the client, is `result`.
        let edges = template.edges();
        let links = &edges[..edges.len() - 1];
        let mut senders = Vec::with_capacity(edges.len());
        let mut receivers = Vec::with_capacity(links.len());
        for edge in links {
            let (txs, rxs, pool) = operand_channels(
                edge.producers,
                edge.consumers,
                config.channel_capacity,
                edge.layout.clone(),
            );
            pool.set_budget(ctrl.budget().clone());
            senders.push((Some((txs, edge.key_col, pool.clone())), pool));
            receivers.push(rxs.into_iter());
        }
        let pool = result.2.clone();
        senders.push((Some(result), pool));

        // --- Scheduling (timed): from here on, starting the operation
        // processes, beginning with handing each its base operands.
        let started = Instant::now();
        let base_parts = template.base_parts(resolved, args, catalog, &mut metrics)?;
        let ops = template.ops().iter().zip(template.deps());
        let progress = ops
            .map(|(op, &waiting)| Progress {
                instances_left: op.degree,
                waiting,
                spawned: false,
                building: None,
            })
            .collect();

        Ok(QueryRun {
            template,
            config: *config,
            pool: engine.pool.clone(),
            ctrl: ctrl.clone(),
            base_parts,
            senders,
            receivers,
            pieces: Vec::new(),
            piece_bytes: 0,
            reporter: None,
            coordinator: Weak::new(),
            shared: Vec::new(),
            started,
            progress,
            first_err: None,
            pinned_bytes,
            spawned_instances: 0,
            received: 0,
            metrics,
            resolver: late.map(|l| l.resolver),
            #[cfg(feature = "faults")]
            fault_plan: opts.fault_plan().cloned(),
        })
    }

    /// Submits every operation process whose dependencies are met as pool
    /// tasks — once the tables its instances share are built.
    fn spawn_ready(&mut self) -> Result<()> {
        for root in 0..self.progress.len() {
            let p = self.progress[root];
            if p.spawned || p.waiting > 0 || self.template.group(root).is_empty() {
                continue;
            }
            if p.building.is_none() {
                self.build_shared(root)?;
            }
            if self.progress[root].building == Some(0) {
                self.spawn_group(root)?;
            }
        }
        Ok(())
    }

    /// Provides every shared build side of the group rooted at `root`: a
    /// resident table is taken as it is, anything else is indexed once by a
    /// [`SharedBuild`] on the pool, counted in the group's `building`.
    fn build_shared(&mut self, root: usize) -> Result<()> {
        let template = self.template.clone();
        let ops = template.ops();
        let members = template.group(root);
        let priority = members.iter().map(|&m| ops[m].priority).min();
        let priority = priority.expect("a group has members");
        self.progress[root].building = Some(0);
        for &m in members {
            for wiring in &ops[m].operands {
                let Wiring::Shared { over, key_col } = wiring else {
                    continue;
                };
                let source = match **over {
                    Wiring::Base(b) => template.base_source(b, 0, &mut self.base_parts),
                    Wiring::Materialized { from } => {
                        Some(Source::Materialized(self.take_pieces(from, 0)))
                    }
                    _ => None,
                };
                let source = source.ok_or_else(|| {
                    RelalgError::InvalidPlan(format!("op {m} shares a build side it cannot read"))
                })?;
                if let Source::Table(table) = source {
                    self.share(m, table);
                    continue;
                }
                let coordinator = self.coordinator.clone();
                let done = Box::new(move |built, steps| {
                    if let Some(coordinator) = coordinator.upgrade() {
                        coordinator.advance(|run| run.on_built(root, m, built, steps));
                    }
                });
                let build = SharedBuild::new(source, *key_col, self.ctrl.clone(), done);
                self.pool.submit(priority, Box::new(build));
                self.spawned_instances += 1;
                *self.progress[root].building.get_or_insert(0) += 1;
            }
        }
        Ok(())
    }

    /// Takes one shared build's report: keeps the table for op `m`, charged
    /// to the budget until the query concludes, and spawns the group rooted
    /// at `root` once its last table is in.
    fn on_built(&mut self, root: usize, m: usize, built: Result<Arc<ColumnarTable>>, steps: u64) {
        self.received += 1;
        self.metrics.sched_steps += steps;
        self.ctrl.note_progress();
        match built {
            Ok(table) => {
                let bytes = table.est_bytes() as u64;
                self.piece_bytes += bytes;
                if !self.ctrl.budget().charge(bytes) {
                    let reason = self.ctrl.budget().exhausted_error();
                    self.ctrl.abort(reason.clone());
                    self.fail(reason);
                }
                self.share(m, table);
            }
            Err(e) => self.fail(e),
        }
        if self.ctrl.is_canceled() {
            self.fail(RelalgError::Canceled);
        }
        let Some(building) = self.progress[root].building.as_mut() else {
            return;
        };
        *building -= 1;
        if *building == 0 && self.first_err.is_none() {
            if let Err(e) = self.spawn_group(root) {
                self.fail(e);
            }
        }
    }

    /// Keeps `table` as the build side every instance of op `m` shares.
    fn share(&mut self, m: usize, table: Arc<ColumnarTable>) {
        if self.shared.len() <= m {
            self.shared.resize(m + 1, None);
        }
        self.shared[m] = Some(table);
    }

    /// Piece `i` of every instance of op `from`'s materialized output, in
    /// instance order.
    fn take_pieces(&mut self, from: usize, i: usize) -> Vec<Arc<ColumnBatch>> {
        self.pieces
            .iter_mut()
            .filter(|((op, _), _)| *op == from)
            .filter_map(|(_, slots)| slots.get_mut(i)?.take())
            .collect()
    }

    /// Spawns one task per operation process of the group rooted at op
    /// `root`: the root's `degree` instances, each evaluating every member
    /// of the group in op order. A group of one is one operation; a larger
    /// one (fused sub-grain operations at degree 1, or a segment group)
    /// hands each member's result to its reader in memory, and only the
    /// root member is wired to an output.
    fn spawn_group(&mut self, root: usize) -> Result<()> {
        let template = self.template.clone();
        let ops = template.ops();
        let members = template.group(root);
        let degree = ops[root].degree;
        self.progress[root].spawned = true;
        self.metrics.processes += degree;
        for &m in members {
            self.metrics.ops[m].instances = ops[m].degree;
        }
        let mut out = ops[root].out_edge.and_then(|e| self.senders[e].0.take());
        let materialized = template.out_materialized(root);
        if out.is_none() && materialized.is_none() {
            return Err(RelalgError::InvalidPlan(format!(
                "op {root} has no consumer"
            )));
        }

        // The process starts with its earliest member's wave.
        let priority = members.iter().map(|&m| ops[m].priority).min();
        let priority = priority.expect("a group has members");
        // `i` indexes channels, fragments and pieces alike.
        for i in 0..degree {
            let mut task_members = Vec::with_capacity(members.len());
            for &m in members {
                let mut sources = [None, None];
                for (source, wiring) in sources.iter_mut().zip(&ops[m].operands) {
                    *source = match wiring {
                        Wiring::Base(b) => {
                            let part = template.base_source(*b, i, &mut self.base_parts);
                            Some(part.expect("each base part is read once"))
                        }
                        Wiring::Shared { .. } => {
                            let table = self.shared.get(m).cloned().flatten();
                            Some(Source::Table(table.expect("built before the spawn")))
                        }
                        Wiring::Materialized { from } => {
                            let pieces = self.take_pieces(*from, i);
                            if pieces.is_empty() {
                                return Err(RelalgError::InvalidPlan(format!(
                                    "op {m} reads op{from} before it materialized"
                                )));
                            }
                            Some(Source::Materialized(pieces))
                        }
                        Wiring::Stream { edge, producers } => Some(Source::Stream {
                            rx: self.receivers[*edge]
                                .next()
                                .expect("one receiver per consumer instance"),
                            producers: *producers,
                        }),
                        // Handed over by the member evaluating its producer.
                        Wiring::Fused => None,
                    };
                }
                let sources = sources.into_iter().take(ops[m].operands.len());
                #[cfg_attr(not(feature = "faults"), allow(unused_mut))]
                let mut member = TaskMember::new(template.operator(m), sources, m);
                if let Some((reader, side)) = template.feeds(m) {
                    member = member.feeding(reader, side);
                }
                #[cfg(feature = "faults")]
                if let Some(plan) = &self.fault_plan {
                    let label = self.metrics.ops[m].kind.label();
                    member.arm_fault(plan.arm(label, m, i));
                }
                task_members.push(member);
            }

            // The last instance takes the master senders: from then on
            // only the group's instances hold them.
            let edge = if i + 1 == degree {
                out.take()
            } else {
                out.clone()
            };
            let output = match edge {
                Some((txs, key_col, pool)) => {
                    OutputPort::Stream(Router::new(txs, key_col, self.config.batch_size, pool))
                }
                None => OutputPort::materialize(
                    &ops[root].schema,
                    materialized.expect("a materialized consumer"),
                    self.config.batch_size,
                    Some(self.ctrl.budget().clone()),
                ),
            };

            let mut task = OpTask::new(
                task_members,
                output,
                i,
                self.reporter(),
                Some(self.ctrl.clone()),
            );
            task.lend(template.lend(root, i));
            if root == template.root() {
                if let Some(resolver) = &self.resolver {
                    task.set_resolver(resolver.clone());
                }
            }
            self.pool.submit(priority, Box::new(task));
            self.spawned_instances += members.len();
        }
        Ok(())
    }

    fn reporter(&self) -> Reporter {
        let reporter = self.reporter.as_ref();
        reporter.expect("tasks spawn under coordination").clone()
    }

    /// Drops the channel endpoints of not-yet-spawned ops so already
    /// running producers/consumers observe a disconnect and unwind.
    fn release_unspawned_endpoints(&mut self) {
        self.senders.iter_mut().for_each(|(edge, _)| *edge = None);
        self.receivers.clear();
    }

    /// Submits every process that waits for nothing.
    fn spawn_first_wave(&mut self) {
        if self.ctrl.is_canceled() {
            self.fail(RelalgError::Canceled);
        } else if let Err(e) = self.spawn_ready() {
            // Spawning failed part-way: the tasks already submitted unwind
            // via dropped endpoints, and the query concludes — quiescent —
            // when the last of them has reported.
            self.fail(e);
        }
    }

    /// Records the query's first failure and unblocks every task wired to
    /// a peer that will now never be spawned. A torn-down edge is only the
    /// echo of a failure (its report can arrive before the failure's own),
    /// so a later root cause replaces it.
    fn fail(&mut self, e: RelalgError) {
        match &self.first_err {
            None => {
                self.first_err = Some(e);
                self.release_unspawned_endpoints();
            }
            Some(first) if is_teardown(first) && !is_teardown(&e) => self.first_err = Some(e),
            Some(_) => {}
        }
    }

    /// Takes one completion report: books the member's statistics, files
    /// the pieces it carries and, when that completes an operation,
    /// releases the processes waiting for it.
    fn on_report(&mut self, (op_id, res, pieces): DoneMsg) {
        self.received += 1;
        if let Some((instance, pieces)) = pieces {
            self.file(op_id, instance, pieces);
        }
        // Completions are progress too: don't let a long-running final
        // drain that makes no per-step progress look like a stall.
        self.ctrl.note_progress();
        if self.ctrl.is_canceled() {
            // Cancellation arrived while tasks were in flight: stop
            // spawning new waves and let running tasks observe the token.
            self.fail(RelalgError::Canceled);
        }
        match res {
            Ok(stats) => {
                let m = &mut self.metrics.ops[op_id];
                m.tuples_in[0] += stats.tuples_in[0];
                m.tuples_in[1] += stats.tuples_in[1];
                m.tuples_out += stats.tuples_out;
                m.table_bytes += stats.table_bytes;
                self.metrics.sched_steps += stats.steps;
                self.metrics.sched_blocked += stats.blocked;
            }
            Err(e) => self.fail(e),
        }
        self.progress[op_id].instances_left -= 1;
        if self.progress[op_id].instances_left == 0 && self.first_err.is_none() {
            // Op complete: release the processes waiting for it.
            for &root in self.template.dependents(op_id) {
                self.progress[root].waiting -= 1;
            }
            if let Err(e) = self.spawn_ready() {
                self.fail(e);
            }
        }
    }

    /// Files the pieces instance `instance` of op `op` cut, keeping the
    /// filed pieces in (op, instance) order.
    fn file(&mut self, op: usize, instance: usize, pieces: Fragments) {
        self.piece_bytes += pieces.iter().map(|p| p.est_bytes()).sum::<u64>();
        let key = (op, instance);
        let at = self.pieces.partition_point(|(filed, _)| *filed < key);
        self.pieces
            .insert(at, (key, pieces.iter().cloned().map(Some).collect()));
    }

    /// Buffer takes and misses of the query's edge pools so far: all of
    /// them once it has quiesced, since only its tasks take buffers.
    fn batch_pool_tally(&self) -> (u64, u64) {
        let pools = self.senders.iter().map(|(_, pool)| pool);
        pools.fold((0, 0), |(t, m), p| (t + p.takes(), m + p.misses()))
    }

    /// Tears a quiesced query down — every submitted task has reported
    /// exactly once — crediting what it held to its budget, and says how
    /// it went.
    fn conclude(mut self) -> Result<QueryOutcome> {
        let ctrl = self.ctrl.clone();
        let elapsed = self.started.elapsed();

        // The query is quiescent: every submitted instance has reported,
        // so every piece cut is filed; they die with the run.
        if self.piece_bytes > 0 {
            ctrl.budget().credit(self.piece_bytes);
        }
        // The registry's pins die with the query (its tasks hold the
        // resolver); return their charge too.
        if self.pinned_bytes > 0 {
            ctrl.budget().credit(self.pinned_bytes);
        }
        self.metrics.peak_bytes = ctrl.budget().peak();
        self.metrics.panics_contained = ctrl.panics();

        if let Some(e) = self.first_err {
            // A cancelled query reports `Canceled` even when teardown surfaced
            // racing stream errors first; likewise an aborted query reports
            // its typed abort reason (deadline / budget / stall / contained
            // panic), not whichever secondary teardown error arrived first.
            return Err(if ctrl.is_canceled() {
                RelalgError::Canceled
            } else if let Some(abort) = ctrl.abort_error() {
                abort
            } else {
                e
            });
        }
        // A guardrail can trip on the very last step of the last instance
        // (e.g. an allocation pushes past the budget while that instance
        // completes): the abort slot is set but no task is left running to
        // observe it, so every completion arrived `Ok`. The typed abort still
        // wins over an otherwise clean finish.
        if let Some(abort) = ctrl.abort_error() {
            return Err(abort);
        }
        let unspawned = (0..self.progress.len())
            .any(|root| !self.progress[root].spawned && !self.template.group(root).is_empty());
        if unspawned {
            return Err(RelalgError::InvalidPlan(
                "not all ops became ready (dependency cycle?)".into(),
            ));
        }

        Ok(QueryOutcome {
            elapsed,
            // Recorded client-side by the stream; the handle patches it in
            // when it hands the outcome out.
            time_to_first_batch: None,
            metrics: self.metrics,
        })
    }

    /// Renders one line per operation for [`RelalgError::Stalled`]: the op's
    /// kind and how many of its instances have finished, so a stall dump
    /// shows where the pipeline wedged.
    fn progress_dump(&self) -> String {
        self.template
            .ops()
            .iter()
            .enumerate()
            .map(|(op, o)| {
                let done = o.degree - self.progress[op].instances_left;
                let kind = self.metrics.ops[op].kind.label();
                format!("op{op}[{kind}] {done}/{}", o.degree)
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_core::generator::{generate, GeneratorInput};
    use mj_core::strategy::Strategy;
    use mj_plan::cardinality::{node_cards, UniformOneToOne};
    use mj_plan::cost::{tree_costs, CostModel};
    use mj_plan::query::to_xra;
    use mj_plan::shapes::{build, Shape};
    use mj_relalg::JoinAlgorithm;
    use mj_storage::{Catalog, WisconsinGenerator};

    fn setup(k: usize, n: usize) -> (Arc<Catalog>, u64) {
        let catalog = Arc::new(Catalog::new());
        let gen = WisconsinGenerator::new(n, 42);
        for (name, rel) in gen.generate_named("R", k) {
            catalog.register(name, rel);
        }
        (catalog, n as u64)
    }

    /// The bytes `budget` still holds once its query is fully gone: the
    /// task that concludes a query drops its edge buffers, crediting them
    /// back, a moment after the outcome is published.
    fn settled(budget: &MemoryBudget) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(10);
        while budget.used() > 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        budget.used()
    }

    fn run(
        shape: Shape,
        strategy: Strategy,
        k: usize,
        n: usize,
        procs: usize,
    ) -> (ExecOutcome, Relation) {
        let (catalog, nn) = setup(k, n);
        let tree = build(shape, k).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n: nn });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let mut input = GeneratorInput::new(&tree, &cards, &costs, procs);
        input.allow_oversubscribe = procs < tree.join_count();
        let plan = generate(strategy, &input).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let outcome = run_plan(&plan, &binding, catalog.clone(), &ExecConfig::default()).unwrap();
        // Oracle: sequential evaluation of the same logical plan.
        let xra = to_xra(&tree, 3, JoinAlgorithm::Simple);
        let expected = xra.eval(catalog.as_ref()).unwrap();
        (outcome, expected)
    }

    #[test]
    fn every_strategy_matches_the_sequential_oracle() {
        for strategy in Strategy::ALL {
            for shape in [Shape::LeftLinear, Shape::WideBushy, Shape::RightLinear] {
                let (outcome, expected) = run(shape, strategy, 5, 200, 4);
                assert_eq!(outcome.relation.len(), 200, "{strategy} {shape}");
                assert!(
                    outcome.relation.multiset_eq(&expected),
                    "{strategy} {shape}: parallel result differs from oracle"
                );
            }
        }
    }

    #[test]
    fn ten_relation_paper_query_all_strategies() {
        for strategy in Strategy::ALL {
            let (outcome, expected) = run(Shape::RightBushy, strategy, 10, 100, 9);
            assert_eq!(outcome.relation.len(), 100, "{strategy}");
            assert!(outcome.relation.multiset_eq(&expected), "{strategy}");
        }
    }

    #[test]
    fn metrics_reflect_the_plan() {
        let (outcome, _) = run(Shape::LeftLinear, Strategy::SP, 5, 200, 4);
        // SP: 4 joins x 4 processors.
        assert_eq!(outcome.metrics.processes, 16);
        // Every join outputs 200 tuples.
        for m in &outcome.metrics.ops {
            assert_eq!(m.tuples_out, 200);
            assert_eq!(m.instances, 4);
        }
        assert!(outcome.elapsed.as_nanos() > 0);
    }

    #[test]
    fn fp_uses_less_processes_but_more_table_memory() {
        let (sp, _) = run(Shape::WideBushy, Strategy::SP, 5, 400, 4);
        let (fp, _) = run(Shape::WideBushy, Strategy::FP, 5, 400, 4);
        assert!(sp.metrics.processes > fp.metrics.processes);
        let sp_bytes: u64 = sp.metrics.ops.iter().map(|o| o.table_bytes).sum();
        let fp_bytes: u64 = fp.metrics.ops.iter().map(|o| o.table_bytes).sum();
        assert!(fp_bytes > sp_bytes, "pipelining joins hold two tables");
    }

    #[test]
    fn oversubscribed_plan_still_correct() {
        // 9 joins on 2 "processors" with sharing allowed.
        let (outcome, expected) = run(Shape::WideBushy, Strategy::FP, 10, 50, 2);
        assert!(outcome.relation.multiset_eq(&expected));
    }

    #[test]
    fn single_processor_execution() {
        let (outcome, expected) = run(Shape::LeftLinear, Strategy::SP, 4, 64, 1);
        assert!(outcome.relation.multiset_eq(&expected));
    }

    /// Fails instance `instance` of op `op` with a typed error at its first
    /// step and asserts the engine reports the failure without hanging or
    /// panicking, then runs the query again cleanly.
    #[cfg(feature = "faults")]
    fn run_with_failure(shape: Shape, strategy: Strategy, op: usize, instance: usize) {
        let (catalog, n) = setup(6, 128);
        let tree = build(shape, 6).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let mut input = GeneratorInput::new(&tree, &cards, &costs, 4);
        input.allow_oversubscribe = true;
        let plan = generate(strategy, &input).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let engine = Engine::new(catalog, ExecConfig::default()).unwrap();
        let handle = engine.submit_with(&plan, &binding, fail_at(op, instance));
        let handle = handle.unwrap();
        let budget = handle.budget().clone();
        let err = handle.collect().expect_err("injected failure must surface");
        let msg = err.to_string();
        assert!(
            msg.contains("injected failure")
                // Racing teardown may surface a stream error first; both
                // prove the dataflow unwound instead of hanging.
                || msg.contains("closed before End")
                || msg.contains("consumer hung up"),
            "unexpected error: {msg}"
        );
        assert_eq!(settled(&budget), 0, "every charge credited back");
        assert_eq!(engine.run(&plan, &binding).unwrap().relation.len(), 128);
    }

    /// Options failing instance `instance` of op `op` at its first step.
    #[cfg(feature = "faults")]
    fn fail_at(op: usize, instance: usize) -> QueryOptions {
        use crate::faults::{FaultKind, FaultPlan, FaultPoint};
        let point = FaultPoint::new("join", 1, FaultKind::Error)
            .at_op(op)
            .at_instance(instance);
        QueryOptions::new().with_faults(FaultPlan::new().with_point(point))
    }

    #[test]
    #[cfg(feature = "faults")]
    fn injected_failure_in_pipelined_plan_terminates() {
        // FP: every op is live-streaming; killing the bottom producer must
        // unwind the whole pipeline.
        run_with_failure(Shape::RightLinear, Strategy::FP, 0, 0);
    }

    #[test]
    #[cfg(feature = "faults")]
    fn injected_failure_in_materialized_plan_terminates() {
        // SP: sequential materialized phases; downstream ops must never
        // spawn after the failure.
        run_with_failure(Shape::LeftLinear, Strategy::SP, 2, 1);
    }

    #[test]
    #[cfg(feature = "faults")]
    fn injected_failure_at_the_root_terminates() {
        run_with_failure(Shape::WideBushy, Strategy::FP, 4, 0);
    }

    fn plan_for(
        tree: &mj_plan::tree::JoinTree,
        strategy: Strategy,
        n: u64,
        procs: usize,
    ) -> ParallelPlan {
        let cards = node_cards(tree, &UniformOneToOne { n });
        let costs = tree_costs(tree, &cards, &CostModel::default());
        let mut input = GeneratorInput::new(tree, &cards, &costs, procs);
        input.allow_oversubscribe = procs < tree.join_count();
        generate(strategy, &input).unwrap()
    }

    /// SP over a four-relation left-linear chain of `n`-tuple Wisconsin
    /// relations, placed on `procs` processors.
    fn sp_chain(n: usize, procs: usize) -> (Arc<Catalog>, QueryBinding, ParallelPlan, Relation) {
        let (catalog, nn) = setup(4, n);
        let tree = build(Shape::LeftLinear, 4).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let expected = to_xra(&tree, 3, JoinAlgorithm::Simple)
            .eval(catalog.as_ref())
            .unwrap();
        (
            catalog,
            binding,
            plan_for(&tree, Strategy::SP, nn, procs),
            expected,
        )
    }

    #[test]
    fn a_plan_placing_two_instances_on_one_processor_is_rejected() {
        let (catalog, binding, mut plan, _) = sp_chain(400, 2);
        // Both instances of the first join on processor 0.
        plan.ops[0].procs = vec![0, 0];
        let engine = Engine::new(catalog, ExecConfig::default()).unwrap();
        let err = engine
            .submit_with(&plan, &binding, QueryOptions::new())
            .map(|_| ())
            .expect_err("a processor listed twice");
        assert!(
            matches!(&err, RelalgError::InvalidPlan(m) if m.contains("twice")),
            "{err}"
        );
    }

    #[test]
    fn materialized_pieces_cross_mixed_degrees_and_are_charged_until_the_end() {
        let (catalog, binding, mut plan, expected) = sp_chain(400, 4);
        // SP runs one join at a time, each materialized into the next:
        // give the three joins degrees 3, 1 and 4, so pieces go 3 -> 1
        // and 1 -> 4.
        for (op, procs) in plan
            .ops
            .iter_mut()
            .zip([vec![0, 1, 2], vec![3], vec![0, 1, 2, 3]])
        {
            op.procs = procs;
        }
        let producers: Vec<usize> = (plan.ops.iter())
            .flat_map(|op| [&op.left, &op.right])
            .filter_map(|operand| match operand {
                mj_core::plan_ir::OperandSource::Materialized { from } => Some(*from),
                _ => None,
            })
            .collect();
        assert_eq!(producers.len(), 2, "SP materializes every inner join");
        let config = ExecConfig {
            late: crate::config::LateMode::Never,
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog, config).unwrap();
        let opts = QueryOptions::new().with_memory_budget(1 << 30);
        let mut handle = engine.submit_with(&plan, &binding, opts).unwrap();
        let budget = handle.budget().clone();
        let result = handle.stream().collect_relation();
        let metrics = handle.outcome().unwrap().metrics;
        assert!(result.multiset_eq(&expected), "{} rows", result.len());
        // The pieces hold every row a producer emitted, in int columns,
        // and stay charged until the query concludes.
        let pieces: u64 = (producers.iter())
            .map(|&p| {
                let arity = binding.schema(plan.ops[p].join).unwrap().arity() as u64;
                metrics.ops[p].tuples_out * arity * 8
            })
            .sum();
        assert!(pieces > 0);
        assert!(
            metrics.peak_bytes >= pieces,
            "peak {} below the {pieces} piece bytes",
            metrics.peak_bytes
        );
        assert_eq!(settled(&budget), 0);
    }

    #[test]
    fn engine_runs_many_queries_on_one_fixed_pool() {
        let (catalog, n) = setup(6, 200);
        let config = ExecConfig {
            workers: 3,
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        assert_eq!(engine.workers(), 3);
        let tree = build(Shape::RightBushy, 6).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let xra = to_xra(&tree, 3, JoinAlgorithm::Simple);
        let expected = xra.eval(catalog.as_ref()).unwrap();
        for strategy in Strategy::ALL {
            let plan = plan_for(&tree, strategy, n, 4);
            let outcome = engine.run(&plan, &binding).unwrap();
            assert!(outcome.relation.multiset_eq(&expected), "{strategy}");
            assert!(outcome.metrics.sched_steps > 0);
        }
        assert_eq!(
            engine.pool().threads(),
            3,
            "four queries must not grow the worker-thread count"
        );
    }

    #[test]
    fn concurrent_queries_share_the_engine() {
        let (catalog, n) = setup(5, 150);
        let config = ExecConfig {
            workers: 4,
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let expected = to_xra(&tree, 3, JoinAlgorithm::Simple)
            .eval(catalog.as_ref())
            .unwrap();
        std::thread::scope(|scope| {
            for strategy in [Strategy::FP, Strategy::SP, Strategy::RD, Strategy::FP] {
                let engine = &engine;
                let binding = &binding;
                let expected = &expected;
                let tree = &tree;
                scope.spawn(move || {
                    let plan = plan_for(tree, strategy, n, 3);
                    let outcome = engine.run(&plan, binding).unwrap();
                    assert!(
                        outcome.relation.multiset_eq(expected),
                        "{strategy} diverged under concurrency"
                    );
                });
            }
        });
        assert_eq!(
            engine.pool().threads(),
            4,
            "concurrent queries must share the fixed pool"
        );
    }

    #[test]
    fn single_worker_pool_still_completes_pipelined_plans() {
        // The cooperative scheduler must finish an FP dataflow even when
        // one worker multiplexes every producer and consumer.
        let (catalog, n) = setup(6, 120);
        let config = ExecConfig {
            workers: 1,
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 6).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let expected = to_xra(&tree, 3, JoinAlgorithm::Simple)
            .eval(catalog.as_ref())
            .unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 4);
        let outcome = engine.run(&plan, &binding).unwrap();
        assert!(outcome.relation.multiset_eq(&expected));
    }

    #[test]
    #[cfg(feature = "faults")]
    fn failure_on_every_single_point_terminates() {
        // Exhaustive small-scale sweep: no (op, instance) fault anywhere in
        // an RD plan can deadlock the engine or leak its fragments.
        let (catalog, n) = setup(5, 64);
        let tree = build(Shape::RightBushy, 5).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let mut input = GeneratorInput::new(&tree, &cards, &costs, 4);
        input.allow_oversubscribe = true;
        let plan = generate(Strategy::RD, &input).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let engine = Engine::new(catalog, ExecConfig::default()).unwrap();
        for op in 0..plan.ops.len() {
            for instance in 0..plan.ops[op].degree() {
                let handle = engine.submit_with(&plan, &binding, fail_at(op, instance));
                let handle = handle.unwrap();
                let budget = handle.budget().clone();
                handle.collect().expect_err("fault must surface");
                assert_eq!(settled(&budget), 0, "op {op} instance {instance}");
            }
        }
    }

    // --- Streaming + handles ---

    #[test]
    fn submit_streams_batches_before_outcome() {
        let (catalog, n) = setup(5, 300);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 4);
        let mut handle = engine.submit(&plan, &binding).unwrap();
        let mut stream = handle.stream();
        assert_eq!(stream.schema().arity(), 3);
        let mut total = 0usize;
        let mut batches = 0usize;
        while let Some(batch) = stream.next_batch() {
            total += batch.len();
            batches += 1;
        }
        drop(stream);
        let budget = handle.budget().clone();
        let outcome = handle.outcome().unwrap();
        assert_eq!(total, 300);
        assert!(batches >= 1);
        assert_eq!(outcome.metrics.total_tuples_out(), 4 * 300);
        assert_eq!(settled(&budget), 0);
    }

    #[test]
    fn a_polling_client_gets_the_outcome_once_without_ever_blocking() {
        let (catalog, n) = setup(5, 300);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 4);
        let mut handle = engine.submit(&plan, &binding).unwrap();
        let mut stream = handle.stream();
        let mut total = 0usize;
        // A server connection's steps: poll the stream to its end, then
        // the outcome — published by the pool thread that made the last
        // completion report, a moment after the stream ended — sleeping
        // between polls until a batch, `End` or the conclusion wakes it.
        let waker = crate::sched::thread_waker();
        let outcome = loop {
            match stream.poll_next_batch(&waker) {
                crate::handle::BatchPoll::Batch(batch) => total += batch.len(),
                crate::handle::BatchPoll::Pending => std::thread::park(),
                crate::handle::BatchPoll::Done => match handle.poll_outcome(&waker) {
                    Some(outcome) => break outcome.unwrap(),
                    None => std::thread::park(),
                },
            }
        };
        assert_eq!(total, 300);
        assert_eq!(outcome.metrics.total_tuples_out(), 4 * 300);
        assert!(outcome.time_to_first_batch.is_some());
        assert_eq!(handle.status(), QueryStatus::Finished);
        assert!(handle.poll_outcome(&waker).is_none(), "handed out once");
        // Settled before the outcome was published, not some time after.
        assert_eq!(engine.stats().queries_completed, 1);
        assert_eq!(settled(handle.budget()), 0);
    }

    /// Entries of `/proc/self/task`: the process's threads.
    fn threads() -> usize {
        std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
    }

    /// Whether this process runs the test `name` and nothing else. If it
    /// does not, runs `name` alone in a child process of this test binary,
    /// asserts that it passed, and returns false: a thread count is the
    /// whole process's, and the other tests start threads of their own.
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
    fn no_query_starts_a_thread() {
        if !alone("engine::tests::no_query_starts_a_thread") {
            return;
        }
        let (catalog, n) = setup(3, 2_000);
        let config = ExecConfig {
            workers: 2,
            stall_timeout: Some(Duration::from_secs(30)),
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 3).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 2);
        let limited = || QueryOptions::new().with_deadline(Duration::from_secs(30));
        let pool = engine.pool();
        let before = threads();
        let handles: Vec<QueryHandle> = (0..16)
            .map(|_| engine.submit_with(&plan, &binding, limited()).unwrap())
            .collect();
        assert_eq!(threads(), before, "16 queries with limits in flight");
        // Each query's limits are one check armed on the pool, due in 30 s
        // whether or not the query has concluded by then.
        assert_eq!(pool.timers(), 16);
        for handle in handles {
            assert_eq!(handle.collect().unwrap().len(), 2_000);
            assert_eq!(threads(), before);
        }
        assert_eq!((pool.queued(), pool.parked()), (0, 0), "quiescent");
        let relation = engine.submit_with(&plan, &binding, limited()).unwrap();
        assert_eq!(relation.collect().unwrap().len(), 2_000);
        assert_eq!((pool.queued(), pool.parked()), (0, 0), "quiescent");
        assert_eq!(threads(), before);
    }

    #[test]
    fn collect_drains_and_checks_outcome() {
        let (catalog, n) = setup(4, 128);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 4).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 3);
        let relation = engine.submit(&plan, &binding).unwrap().collect().unwrap();
        assert_eq!(relation.len(), 128);
    }

    #[test]
    fn cancel_mid_stream_quiesces_and_engine_is_reusable() {
        let (catalog, n) = setup(5, 4_000);
        // Tiny batches and a capacity-1 channel: the root blocks on client
        // backpressure almost immediately, so the query is guaranteed to
        // still be in flight when we cancel.
        let config = ExecConfig {
            workers: 2,
            batch_size: 16,
            channel_capacity: 1,
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 4);
        let mut handle = engine.submit(&plan, &binding).unwrap();
        let mut stream = handle.stream();
        assert!(stream.next_batch().is_some(), "a first batch must arrive");
        assert_eq!(handle.status(), QueryStatus::Running);
        handle.cancel();
        // The stream ends (possibly after a few in-flight batches).
        while stream.next_batch().is_some() {}
        drop(stream);
        let budget = handle.budget().clone();
        let err = handle.outcome().expect_err("cancelled query must error");
        assert!(matches!(err, RelalgError::Canceled), "got {err}");
        // Quiescent: every charge credited, pool intact and reusable.
        assert_eq!(settled(&budget), 0);
        let outcome = engine.run(&plan, &binding).unwrap();
        assert_eq!(outcome.relation.len(), 4_000);
        assert_eq!(engine.pool().threads(), 2);
    }

    #[test]
    fn dropping_a_live_handle_cancels_and_quiesces() {
        let (catalog, n) = setup(5, 2_000);
        let config = ExecConfig {
            workers: 2,
            batch_size: 16,
            channel_capacity: 1,
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 4);
        let handle = engine.submit(&plan, &binding).unwrap();
        assert!(matches!(
            handle.status(),
            QueryStatus::Running | QueryStatus::Finished
        ));
        let budget = handle.budget().clone();
        drop(handle); // cancels, drains, waits for the conclusion
        assert_eq!(settled(&budget), 0);
        // Engine still serves queries.
        let outcome = engine.run(&plan, &binding).unwrap();
        assert_eq!(outcome.relation.len(), 2_000);
    }

    #[test]
    fn status_reaches_finished_after_outcome() {
        let (catalog, n) = setup(3, 64);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 3).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 2);
        let mut handle = engine.submit(&plan, &binding).unwrap();
        let relation = handle.stream().collect_relation();
        assert_eq!(relation.len(), 64);
        // The query concludes shortly after the
        // last End; poll briefly instead of racing it.
        for _ in 0..5_000 {
            if handle.status() == QueryStatus::Finished {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(handle.status(), QueryStatus::Finished);
        handle.outcome().unwrap();
    }

    // --- Guardrails: deadlines and budgets ---

    #[test]
    fn expired_deadline_aborts_with_typed_error_and_reclaims() {
        let (catalog, n) = setup(5, 2_000);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::SP, n, 4);
        // A zero-remaining deadline: every task sees it expired on its
        // first step, so the query aborts deterministically.
        let opts = QueryOptions::new().with_deadline(Duration::from_nanos(1));
        let handle = engine.submit_with(&plan, &binding, opts).unwrap();
        let budget = handle.budget().clone();
        let err = handle.collect().expect_err("expired deadline must abort");
        assert!(matches!(err, RelalgError::DeadlineExceeded), "got {err}");
        assert_eq!(settled(&budget), 0, "every charge credited back");
        // Engine unaffected: the same plan completes without a deadline.
        let outcome = engine.run(&plan, &binding).unwrap();
        assert_eq!(outcome.relation.len(), 2_000);
        let stats = engine.stats();
        assert_eq!(stats.queries_timed_out, 1);
        assert_eq!(stats.queries_completed, 1);
    }

    #[test]
    fn tiny_memory_budget_aborts_with_resource_exhausted() {
        let (catalog, n) = setup(5, 2_000);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        // SP materializes intermediates and builds hash tables: plenty of
        // charged bytes against a 1-byte budget.
        let plan = plan_for(&tree, Strategy::SP, n, 4);
        let opts = QueryOptions::new().with_memory_budget(1);
        let handle = engine.submit_with(&plan, &binding, opts).unwrap();
        let budget = handle.budget().clone();
        let err = handle.collect().expect_err("1-byte budget must trip");
        match err {
            RelalgError::ResourceExhausted { used, budget } => {
                assert_eq!(budget, 1);
                assert!(used > 1, "reported usage exceeds the budget: {used}");
            }
            other => panic!("expected ResourceExhausted, got {other}"),
        }
        assert_eq!(settled(&budget), 0, "every charge credited back");
        let outcome = engine.run(&plan, &binding).unwrap();
        assert_eq!(outcome.relation.len(), 2_000, "engine intact after abort");
        assert_eq!(engine.stats().budget_aborts, 1);
    }

    #[test]
    fn generous_budget_does_not_disturb_results_and_reports_peak() {
        let (catalog, n) = setup(4, 256);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 4).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::SP, n, 3);
        let opts = QueryOptions::new().with_memory_budget(1 << 30);
        let mut handle = engine.submit_with(&plan, &binding, opts).unwrap();
        let relation = handle.stream().collect_relation();
        assert_eq!(relation.len(), 256);
        let outcome = handle.outcome().unwrap();
        assert!(
            outcome.metrics.peak_bytes > 0,
            "SP plans charge materialized fragments and hash tables"
        );
        assert_eq!(outcome.metrics.panics_contained, 0);
        assert_eq!(engine.stats().peak_bytes, outcome.metrics.peak_bytes);
    }

    #[test]
    fn duration_histogram_buckets_sum_to_queries_total() {
        let (catalog, n) = setup(4, 256);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 4).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 3);
        for _ in 0..3 {
            let outcome = engine.run(&plan, &binding).unwrap();
            // TTFB is end-to-end (submission to client pull), so it can
            // exceed `elapsed` (which excludes teardown) only by the
            // drain gap; it must at least exist for a non-empty result.
            assert!(outcome.time_to_first_batch.is_some());
        }
        // One canceled query also reaches a terminal state and must be
        // observed by the duration histogram.
        let handle = engine.submit(&plan, &binding).unwrap();
        handle.cancel();
        let _ = handle.outcome();
        let stats = engine.stats();
        assert_eq!(
            stats.queries_total(),
            stats.queries_completed + stats.queries_canceled
        );
        assert_eq!(stats.query_duration.count, stats.queries_total());
        assert_eq!(
            stats.query_duration.buckets.iter().sum::<u64>(),
            stats.queries_total(),
            "histogram buckets must sum to queries_total"
        );
        assert!(stats.time_to_first_batch.count >= 3);
        assert_eq!(
            stats.time_to_first_batch.buckets.iter().sum::<u64>(),
            stats.time_to_first_batch.count
        );
        assert!(stats.query_duration.sum_us > 0);
    }

    #[test]
    fn batch_pool_counts_are_the_engines_own() {
        // A query's edge pools count their own takes and misses, and the
        // query adds them to its engine's counters when it concludes: an
        // engine beside it in the same process reads none of them.
        let (catalog, n) = setup(3, 96);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let idle = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 3).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 3);
        engine.run(&plan, &binding).unwrap();
        let once = engine.stats();
        assert!(once.batch_pool_takes > 0);
        assert!(once.batch_pool_misses <= once.batch_pool_takes);
        engine.run(&plan, &binding).unwrap();
        assert!(engine.stats().batch_pool_takes > once.batch_pool_takes);
        let idle = idle.stats();
        assert_eq!((idle.batch_pool_takes, idle.batch_pool_misses), (0, 0));
    }

    #[test]
    fn stats_snapshot_is_consistent_while_hammered() {
        // Regression test for the racy field-by-field snapshot: N threads
        // hammer queries while a poller reads stats. Every snapshot must
        // satisfy
        //   terminal outcomes + active == submitted
        // which only holds if all counters are read consistently.
        let (catalog, n) = setup(3, 96);
        let config = ExecConfig {
            workers: 2,
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 3).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 2);
        let done = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let engine = &engine;
                let plan = &plan;
                let binding = &binding;
                let done = &done;
                scope.spawn(move || {
                    for _ in 0..8 {
                        let handle = engine.submit(plan, binding).unwrap();
                        assert_eq!(handle.collect().unwrap().len(), 96);
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            let engine = &engine;
            let done = &done;
            scope.spawn(move || {
                let mut polls = 0u64;
                while done.load(Ordering::Relaxed) < 4 || polls == 0 {
                    let s = engine.stats();
                    let terminal = s.queries_total();
                    assert!(
                        terminal <= s.queries_submitted,
                        "inconsistent snapshot: {terminal} terminal > {} submitted",
                        s.queries_submitted
                    );
                    assert_eq!(terminal + s.queries_active, s.queries_submitted);
                    assert_eq!(s.query_duration.count, terminal);
                    polls += 1;
                    std::thread::yield_now();
                }
            });
        });
        // Quiesced: every submission is accounted for exactly once.
        let s = engine.stats();
        assert_eq!(s.queries_submitted, 32);
        assert_eq!(s.queries_total(), 32);
        assert_eq!(s.queries_active, 0);
        assert_eq!(s.query_duration.count, s.queries_total());
    }

    #[test]
    fn stall_watchdog_aborts_an_undrained_stream() {
        let (catalog, n) = setup(5, 4_000);
        // Opt-in stall detection: an idle client IS a stall under this
        // config, which is exactly what this test exploits.
        let config = ExecConfig {
            workers: 2,
            batch_size: 16,
            channel_capacity: 1,
            stall_timeout: Some(Duration::from_millis(100)),
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 4);
        let mut handle = engine.submit(&plan, &binding).unwrap();
        let mut stream = handle.stream();
        // Pull one batch, then stop draining: the pipeline wedges on
        // client backpressure and the stall check must fire.
        assert!(stream.next_batch().is_some());
        std::thread::sleep(Duration::from_millis(300));
        while stream.next_batch().is_some() {}
        drop(stream);
        let budget = handle.budget().clone();
        let err = handle.outcome().expect_err("stall must abort");
        match err {
            RelalgError::Stalled(dump) => {
                assert!(dump.contains("op0[join]"), "dump names ops: {dump}")
            }
            other => panic!("expected Stalled, got {other}"),
        }
        assert_eq!(settled(&budget), 0);
        assert_eq!(engine.stats().queries_stalled, 1);
    }
}
