//! Plan interpretation on the shared worker pool: build operator tasks,
//! wire streams, schedule phases, stream the result to the client.
//!
//! The [`Engine`] owns a fixed-size [`WorkerPool`], a shared
//! [`FragmentStore`] for materialized intermediates and a
//! [`FragmentCache`] holding the base relations' columnar fragments
//! resident across queries. Queries are submitted with [`Engine::submit`],
//! which returns a [`QueryHandle`] — the query's operator instances are
//! multiplexed onto the same bounded worker set (the paper's fixed
//! processor pool, §4): the submitting thread sets the query up and puts
//! its first wave of tasks on the pool; from then on every task's
//! completion report advances the query on the thread that makes it
//! (`Coordinator`) — releasing the waves that waited for it, and, when
//! it is the last, concluding the query. No thread is started for a query
//! (one with a deadline or a stall limit gets a watchdog). The root
//! operator's instances feed a bounded client
//! channel instead of materializing the result: the handle's
//! [`ResultStream`] pulls batches while the query is still running, and a
//! slow client backpressures the worker pool. [`Engine::run`] and
//! [`run_plan`] remain as thin wrappers that drain the stream into a
//! materialized [`ExecOutcome`].
//!
//! Per-query state (tuple streams, metrics, the completions still
//! outstanding) lives in the query's run; materialized
//! intermediates go into the shared store under a per-query namespace that
//! is reclaimed when the query finishes — including when it is cancelled:
//! the handle's cancel token is observed by every task on its next
//! scheduling step, each reports exactly once, and the last report
//! reclaims the namespace before the outcome is released.
//!
//! One task is one operation *process*: an operation's instance, or — where
//! the plan fused sub-grain operations into their consumer
//! (`OperandSource::Fused`) — a whole process group evaluated member by
//! member inside it ([`OpTask`]). There is one spawn path; a group of one
//! is the common case.
//!
//! Scheduling order follows the right-deep segmentation: every operator
//! task is submitted with its segment's topological wave index
//! ([`Segmentation::node_waves`](mj_plan::segment::Segmentation)) as its
//! priority, so deeper segments start first and independent segments of
//! one wave interleave on the pool.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};
use mj_core::plan_ir::{OperandSource, ParallelPlan, PlanOp};
use mj_core::validate::ValidPlan;
use mj_plan::segment::segments;
use mj_relalg::column::{select, ColumnBatch, ColumnLayout};
use mj_relalg::{Predicate, RelalgError, Relation, RelationProvider, Result, Tuple};
use mj_storage::{fragment_columns, FragmentCache, FragmentStore, Fragments};

use crate::binding::{QueryBinding, StageKind};
use crate::budget::MemoryBudget;
use crate::config::{ExecConfig, QueryOptions};
use crate::handle::{QueryCtrl, QueryHandle, QueryOutcome, ResultStream};
use crate::metrics::counters::EngineCounters;
use crate::metrics::{EngineStats, Metrics, MetricsSnapshot};
use crate::operator::task::{DoneMsg, OpTask, Reporter, TaskMember};
use crate::operator::{join_op, AggregateOp, FilterOp, LimitOp, OutputPort, PhysicalOp};
use crate::sched::WorkerPool;
use crate::source::Source;
use crate::stream::{client_channel, operand_channels, BatchPool, ClientSink, Msg, Router};

/// The producer side of one redistribution edge: senders to the consumer's
/// instances, the consumer's routing key column, and the edge's shared
/// batch-buffer pool.
type OutEdge = (Vec<Sender<Msg>>, usize, Arc<BatchPool>);

/// Producer op id -> its output edge.
type OutStreams = HashMap<usize, OutEdge>;

/// The endpoints of the query's root-result channel before the root
/// operation spawns.
type ClientEdge = (Sender<Msg>, Arc<BatchPool>);

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

/// A shared, concurrency-safe execution engine: one fixed worker pool, one
/// fragment store and one resident fragment cache serving any number of
/// in-flight queries.
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
/// instead of spawning threads. (Only a query with a deadline or a stall
/// limit additionally holds a mostly-idle watchdog thread for its own
/// lifetime.)
pub struct Engine {
    provider: Arc<dyn RelationProvider + Send + Sync>,
    config: ExecConfig,
    pool: Arc<WorkerPool>,
    store: Arc<FragmentStore>,
    cache: Arc<FragmentCache>,
    next_query: AtomicU64,
    admission: Option<Arc<Admission>>,
    counters: Arc<EngineCounters>,
}

/// Admission control: a counting gate of `max` concurrently running
/// queries fronted by a bounded FIFO ticket queue. Submissions beyond the
/// queue bound are rejected with [`RelalgError::Overloaded`].
struct Admission {
    max: usize,
    queue_limit: usize,
    state: Mutex<AdmissionState>,
    ready: Condvar,
}

struct AdmissionState {
    /// Queries currently holding a run slot.
    active: usize,
    /// Next ticket to hand out to a waiter.
    next_ticket: u64,
    /// Ticket currently at the head of the FIFO queue.
    serving: u64,
}

impl Admission {
    fn new(max: usize, queue_limit: usize) -> Arc<Self> {
        Arc::new(Admission {
            max,
            queue_limit,
            state: Mutex::new(AdmissionState {
                active: 0,
                next_ticket: 0,
                serving: 0,
            }),
            ready: Condvar::new(),
        })
    }

    /// Takes a run slot, waiting FIFO behind earlier submissions if the
    /// engine is saturated; errors with `Overloaded` when the wait queue
    /// is full. The returned permit releases the slot on drop.
    fn acquire(self: &Arc<Self>, counters: &EngineCounters) -> Result<AdmissionPermit> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let waiting = (s.next_ticket - s.serving) as usize;
        if s.active < self.max && waiting == 0 {
            s.active += 1;
            return Ok(AdmissionPermit {
                admission: self.clone(),
            });
        }
        if waiting >= self.queue_limit {
            counters.note_rejected();
            return Err(RelalgError::Overloaded {
                queue_depth: waiting,
            });
        }
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        while !(s.serving == ticket && s.active < self.max) {
            s = self.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.serving += 1;
        s.active += 1;
        drop(s);
        // The next waiter's ticket may already be serviceable (several
        // slots freed at once); make sure it rechecks.
        self.ready.notify_all();
        Ok(AdmissionPermit {
            admission: self.clone(),
        })
    }

    fn release(&self) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.active -= 1;
        drop(s);
        self.ready.notify_all();
    }
}

/// RAII run slot: held in the query's [`Accounts`] for the query's whole
/// lifetime, released (waking FIFO waiters) when the query concludes.
struct AdmissionPermit {
    admission: Arc<Admission>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.admission.release();
    }
}

impl Engine {
    /// Creates an engine over `provider` (the base-relation store shared
    /// by all queries) with `config.workers` pool threads.
    pub fn new(
        provider: Arc<dyn RelationProvider + Send + Sync>,
        config: ExecConfig,
    ) -> Result<Engine> {
        config.validate().map_err(RelalgError::InvalidPlan)?;
        Ok(Engine {
            provider,
            config,
            pool: WorkerPool::new(config.workers),
            store: Arc::new(FragmentStore::new(0)),
            cache: Arc::new(FragmentCache::new()),
            next_query: AtomicU64::new(0),
            admission: config
                .max_concurrent
                .map(|max| Admission::new(max, config.admission_queue)),
            counters: Arc::new(EngineCounters::default()),
        })
    }

    /// Engine-lifetime robustness counters: completions, rejections,
    /// timeouts, stalls, budget aborts, contained panics, peak bytes,
    /// latency histograms — one atomically consistent snapshot (all
    /// per-query counters read under a single lock), overlaid with the
    /// worker pool's live busy/idle gauges and the fragment cache's
    /// counters.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.counters.snapshot();
        stats.workers_total = self.pool.workers() as u64;
        stats.workers_busy = self.pool.busy().min(stats.workers_total);
        let cache = self.cache.stats();
        stats.fragment_cache_hits = cache.hits;
        stats.fragment_cache_misses = cache.misses;
        stats.fragment_cache_evictions = cache.evictions;
        stats.fragment_cache_bytes = cache.bytes;
        stats
    }

    /// The accept-listed metrics export built from [`stats`](Self::stats):
    /// only the series in [`crate::metrics::METRICS_ACCEPT_LIST`], ready
    /// to render as Prometheus text or JSON.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::from_stats(&self.stats())
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

    /// The shared fragment store holding materialized intermediates of all
    /// in-flight queries (query-namespaced; reclaimed per query).
    pub fn store(&self) -> &Arc<FragmentStore> {
        &self.store
    }

    /// The resident columnar fragments of the base relations, shared by
    /// all queries (validated against the provider on every lookup).
    pub fn fragment_cache(&self) -> &Arc<FragmentCache> {
        &self.cache
    }

    /// Submits `plan` for execution and returns a [`QueryHandle`] once the
    /// query is set up and its first wave of tasks is on the pool — set-up
    /// (see [`submit_planned`](Engine::submit_planned)) runs on the calling
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
    /// — uses [`submit_planned`](Engine::submit_planned) and pays neither.
    pub fn submit_with(
        &self,
        plan: &ParallelPlan,
        binding: &QueryBinding,
        opts: QueryOptions,
    ) -> Result<QueryHandle> {
        self.submit_planned(ValidPlan::new(plan.clone())?, binding.clone(), opts)
    }

    /// Submits an already validated plan: the one submission path, and
    /// what the session layer calls for every query and every execution
    /// of a prepared statement. Per-query options override the
    /// engine-wide [`ExecConfig`] defaults.
    ///
    /// Set-up runs on the calling thread before this returns: the late-
    /// materialization rewrite, base-fragment lookups (partitioning a
    /// relation the fragment cache has not seen at this degree — several
    /// milliseconds on a large one, once), channel wiring, and submitting
    /// every task whose dependencies are already met. Everything after
    /// that happens on the pool, completion report by completion report.
    ///
    /// When `max_concurrent` admission control is configured, this call
    /// blocks FIFO behind earlier submissions while the engine is
    /// saturated, and returns [`RelalgError::Overloaded`] once the wait
    /// queue is also full.
    pub fn submit_planned(
        &self,
        plan: ValidPlan,
        binding: QueryBinding,
        opts: QueryOptions,
    ) -> Result<QueryHandle> {
        // Submission instant: anchors both the duration histogram and the
        // client-side time-to-first-batch measurement.
        let submitted_at = Instant::now();
        // Count the submission before admission control so rejected
        // submissions are included in `queries_submitted` — that is what
        // keeps every terminal-outcome counter summing to at most it.
        self.counters.note_submitted();
        let permit = match &self.admission {
            Some(admission) => Some(admission.acquire(&self.counters)?),
            None => None,
        };
        let (client, stream, ctrl) = open_result_channel(
            &plan,
            &binding,
            &self.config,
            &opts,
            submitted_at,
            Some(self.counters.clone()),
        )?;
        self.counters.note_started();

        // Set-up and the first wave of tasks, here on the submitting
        // thread; from then on the query is advanced by whichever thread
        // reports a completion.
        let query_id = self.next_query.fetch_add(1, Ordering::Relaxed);
        let prepared = QueryRun::prepare(
            &plan,
            &binding,
            self.provider.as_ref(),
            &self.config,
            &opts,
            &self.pool,
            &self.store,
            &self.cache,
            query_id,
            client,
            &ctrl,
        );
        let accounts = Accounts {
            ctrl: ctrl.clone(),
            counters: Some(self.counters.clone()),
            permit,
            submitted_at,
        };
        let watchdog = start(prepared, accounts)?;
        Ok(QueryHandle::new(stream, ctrl, watchdog))
    }

    /// Executes `plan` to completion, draining the result stream into a
    /// materialized [`ExecOutcome`]. Callable concurrently from many
    /// threads; each call gets its own [`Metrics`].
    pub fn run(&self, plan: &ParallelPlan, binding: &QueryBinding) -> Result<ExecOutcome> {
        materialize(self.submit(plan, binding)?)
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

/// Executes `plan` against the relations in `provider` on a transient
/// single-query engine (a pool of `config.workers` threads is created for
/// the call and joined before it returns), draining the stream into a
/// materialized [`ExecOutcome`]. Long-lived callers, concurrent
/// workloads, and streaming clients should hold an [`Engine`] instead.
pub fn run_plan(
    plan: &ParallelPlan,
    binding: &QueryBinding,
    provider: &(dyn RelationProvider + Sync),
    config: &ExecConfig,
) -> Result<ExecOutcome> {
    let opts = QueryOptions::default();
    let plan = ValidPlan::new(plan.clone())?;
    let submitted_at = Instant::now();
    let (client, stream, ctrl) =
        open_result_channel(&plan, binding, config, &opts, submitted_at, None)?;
    let pool = WorkerPool::new(config.workers);
    let store = Arc::new(FragmentStore::new(plan.processors));
    // Same path as a long-lived engine; the cache just dies with the call.
    let cache = FragmentCache::new();
    let prepared = QueryRun::prepare(
        &plan, binding, provider, config, &opts, &pool, &store, &cache, 0, client, &ctrl,
    );
    let accounts = Accounts {
        ctrl: ctrl.clone(),
        counters: None,
        permit: None,
        submitted_at,
    };
    let watchdog = start(prepared, accounts)?;
    materialize(QueryHandle::new(stream, ctrl, watchdog))
}

/// Validates the configuration, locates the root operation of the
/// (already validated) plan, and opens one query's bounded result channel: the producer-side
/// [`ClientEdge`] for the query's run, the client-side [`ResultStream`],
/// and the shared cancel/status block. The single setup path behind both
/// [`Engine::submit`] and [`run_plan`].
fn open_result_channel(
    plan: &ParallelPlan,
    binding: &QueryBinding,
    config: &ExecConfig,
    opts: &QueryOptions,
    submitted_at: Instant,
    counters: Option<Arc<EngineCounters>>,
) -> Result<(ClientEdge, ResultStream, Arc<QueryCtrl>)> {
    config.validate().map_err(RelalgError::InvalidPlan)?;
    let root = plan.tree.root();
    let root_degree = plan
        .op_for_join(root)
        .map(PlanOp::degree)
        .ok_or_else(|| RelalgError::InvalidPlan("plan has no root operation".into()))?;
    // With pipeline stages attached, the *last stage* feeds the client.
    let producers = binding.stages().last().map_or(root_degree, |s| s.degree);
    let schema = binding.result_schema(root)?.clone();
    // The client edge's buffer pool is typed with the result's column
    // layout so its budget accounting charges real columnar bytes.
    let (tx, rx, bpool) = client_channel(
        producers,
        config.channel_capacity,
        ColumnLayout::of(&schema),
    );
    // Per-query limits override engine-wide defaults.
    let deadline = opts
        .deadline()
        .or(config.deadline)
        .map(|d| Instant::now() + d);
    let budget = match opts.memory_budget().or(config.memory_budget) {
        Some(limit) => MemoryBudget::with_limit(limit),
        None => MemoryBudget::unlimited(),
    };
    bpool.set_budget(budget.clone());
    let ctrl = QueryCtrl::with_limits(deadline, budget);
    let stream = ResultStream::new(rx, producers, schema, ctrl.clone(), submitted_at, counters);
    Ok(((tx, bpool), stream, ctrl))
}

/// The engine's accounts of one query, settled when it concludes.
struct Accounts {
    ctrl: Arc<QueryCtrl>,
    /// `None` on a transient single-query engine ([`run_plan`]).
    counters: Option<Arc<EngineCounters>>,
    permit: Option<AdmissionPermit>,
    submitted_at: Instant,
}

impl Accounts {
    /// Counts the query's result, frees its admission slot and publishes
    /// the outcome — in that order, so whoever holds the outcome sees the
    /// counters and the slot settled.
    fn settle(self, result: Result<QueryOutcome>) {
        if let Some(counters) = &self.counters {
            counters.record(
                &result,
                self.ctrl.panics(),
                self.ctrl.budget().peak(),
                self.submitted_at.elapsed(),
            );
        }
        // Released only now that the query has fully quiesced and its
        // fragments are reclaimed, so the concurrency cap bounds actual
        // resource use.
        drop(self.permit);
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
        accounts.settle(run.conclude());
    }

    /// Where the query stands, for a stall report.
    fn progress_dump(&self) -> String {
        let state = self.lock();
        state
            .as_ref()
            .map_or_else(String::new, |(run, _)| run.progress_dump())
    }
}

/// How often a query's watchdog looks at it.
const WATCHDOG_TICK: Duration = Duration::from_millis(5);

/// The watchdog of a query with a deadline or a stall limit: enforces both
/// centrally (tasks also check the deadline per step) so they hold even
/// when every task is parked, e.g. wedged on a dead peer. It only raises
/// the abort; the tasks observe it, report, and the last report concludes
/// the query as always.
fn watchdog(coordinator: &Coordinator, ctrl: &QueryCtrl, stall_timeout: Option<Duration>) {
    let mut last_progress = (ctrl.progress(), Instant::now());
    while !ctrl.wait_concluded(WATCHDOG_TICK) {
        if ctrl.is_aborted() || ctrl.is_canceled() {
            continue;
        }
        if ctrl.deadline_exceeded() {
            ctrl.abort(RelalgError::DeadlineExceeded);
        } else if let Some(timeout) = stall_timeout {
            let progress = ctrl.progress();
            if progress != last_progress.0 {
                last_progress = (progress, Instant::now());
            } else if last_progress.1.elapsed() >= timeout {
                ctrl.abort(RelalgError::Stalled(coordinator.progress_dump()));
            }
        }
    }
}

/// Puts a prepared query under coordination and its first wave of tasks on
/// the pool. A query with a deadline or a stall limit gets a watchdog
/// thread, returned for its handle to join; a query without limits — the
/// default — starts no thread at all. A set-up failure concludes the query
/// at once and surfaces from its outcome like any other.
fn start(
    prepared: Result<QueryRun>,
    accounts: Accounts,
) -> Result<Option<std::thread::JoinHandle<()>>> {
    let run = match prepared {
        Ok(run) => run,
        Err(e) => {
            accounts.settle(Err(e));
            return Ok(None);
        }
    };
    let (ctrl, stall_timeout) = (run.ctrl.clone(), run.config.stall_timeout);
    let coordinator = Coordinator::new(run, accounts);
    let mut guarded = None;
    if ctrl.deadline().is_some() || stall_timeout.is_some() {
        let watched = (coordinator.clone(), ctrl.clone());
        let spawned = std::thread::Builder::new()
            .name("mj-watchdog".into())
            .spawn(move || watchdog(&watched.0, &watched.1, stall_timeout));
        match spawned {
            Ok(thread) => guarded = Some(thread),
            Err(e) => {
                // Nothing runs yet: conclude the query as a canceled one
                // (counted as such, admission slot released).
                ctrl.cancel();
                coordinator.advance(QueryRun::spawn_first_wave);
                return Err(RelalgError::InvalidPlan(format!(
                    "cannot spawn watchdog: {e}"
                )));
            }
        }
    }
    coordinator.advance(QueryRun::spawn_first_wave);
    Ok(guarded)
}

/// One query from set-up to teardown. [`prepare`](QueryRun::prepare) and
/// the first wave of tasks run on the submitting thread; after that the run
/// sits in its [`Coordinator`] and is advanced by completion reports on the
/// pool's threads, so it owns (or shares by `Arc`) everything it touches.
struct QueryRun {
    plan: ValidPlan,
    /// The query as bound: its stages run on the resolved root output.
    query: QueryBinding,
    /// The binding join operators are wired from: the narrow rewrite of a
    /// late-materialized query, otherwise `query`.
    binding: QueryBinding,
    config: ExecConfig,
    pool: Arc<WorkerPool>,
    store: Arc<FragmentStore>,
    ctrl: Arc<QueryCtrl>,
    /// Fragment-name namespace of this query in the shared store.
    ns: String,
    /// Per-op scheduling priority: the op's segment wave (§4 order).
    priorities: Vec<usize>,
    /// base_fragments[(op, side)] = per-instance base fragments.
    base_fragments: HashMap<(usize, usize), Fragments>,
    /// Receivers for stream operands, taken at consumer spawn.
    stream_rx: HashMap<(usize, usize), Vec<Receiver<Msg>>>,
    /// Senders for stream outputs, taken at producer spawn.
    out_stream: OutStreams,
    /// Producer op -> consumer uses materialization.
    out_materialized: Vec<bool>,
    /// Per-stage input receivers (taken when the stages spawn).
    stage_rx: Vec<Vec<Receiver<Msg>>>,
    /// Per-stage output senders; `None` for the last stage (it feeds the
    /// client channel).
    stage_out: Vec<Option<OutEdge>>,
    /// Root-result channel endpoints, taken when the sink task spawns
    /// (the last stage, or the root op when no stages are attached);
    /// dropping the master sender lets the stream observe teardown.
    client: Option<ClientEdge>,
    /// What every task of the query reports its completions through; set
    /// when the run is put under its [`Coordinator`].
    reporter: Option<Reporter>,
    /// When scheduling started: the paper's response time runs from here
    /// to the last completion report.
    started: Instant,
    /// Per root op: completions of ops in other processes its group still
    /// waits for.
    deps_remaining: Vec<usize>,
    /// Per op: the root ops of the groups waiting for it.
    dependents: Vec<Vec<usize>>,
    /// Per op and stage: instances that have not reported yet.
    instances_left: Vec<usize>,
    /// The first failure, from set-up or from a task.
    first_err: Option<RelalgError>,
    /// Bytes of resident images the late rewrite pinned for this query,
    /// charged to its budget until teardown.
    pinned_bytes: u64,
    /// Per process group not yet submitted, under its root op's id: the
    /// ops it evaluates, in op order (the root last); empty under every
    /// other id.
    groups: Vec<Vec<usize>>,
    /// Per op read through a fused edge: its reader and the reader's side.
    feeds: Vec<Option<(usize, usize)>>,
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

impl QueryRun {
    /// Submits every operation process whose dependencies are met as pool
    /// tasks.
    fn spawn_ready(&mut self) -> Result<()> {
        for root in 0..self.groups.len() {
            if self.groups[root].is_empty() || self.deps_remaining[root] > 0 {
                continue;
            }
            self.spawn_group(root)?;
        }
        Ok(())
    }

    /// Spawns one task per operation process of the group rooted at op
    /// `root`: the root's `degree` instances, each evaluating every member
    /// of the group in op order. A group of one is one operation; a larger
    /// one (fused sub-grain operations, always at degree 1) hands each
    /// member's result to its reader in memory, and only the root member is
    /// wired to an output.
    fn spawn_group(&mut self, root: usize) -> Result<()> {
        let plan = self.plan.clone();
        let root_op = &plan.ops[root];
        let root_join = plan.tree.root();
        let degree = root_op.degree();
        let members = std::mem::take(&mut self.groups[root]);
        self.metrics.processes += degree;

        // Materialized operands, collected once per member and side.
        let mut mat_fragments: HashMap<(usize, usize), Vec<Arc<ColumnBatch>>> = HashMap::new();
        for &m in &members {
            let op = &plan.ops[m];
            self.metrics.ops[m].instances = op.degree();
            for (side, operand) in [(0usize, &op.left), (1usize, &op.right)] {
                if let OperandSource::Materialized { from } = operand {
                    let frags = self.store.collect(&format!("{}op{from}", self.ns));
                    if frags.is_empty() {
                        return Err(RelalgError::InvalidPlan(format!(
                            "op {m} reads op{from} before it materialized"
                        )));
                    }
                    mat_fragments.insert((m, side), frags);
                }
            }
        }
        let out = self.out_stream.remove(&root);
        // The sink op (no stream consumer, no materializing consumer)
        // feeds the client's result channel.
        let client = if out.is_none() && !self.out_materialized[root] {
            debug_assert_eq!(root_op.join, root_join, "only the root op feeds the client");
            Some(self.client.take().ok_or_else(|| {
                RelalgError::InvalidPlan("plan has more than one sink operation".into())
            })?)
        } else {
            None
        };

        // The process starts with its earliest member's wave.
        let priority = members.iter().map(|&m| self.priorities[m]).min();
        let priority = priority.expect("a group has members");
        // `i` indexes channels, fragments, and procs alike.
        for i in 0..degree {
            let mut task_members = Vec::with_capacity(members.len());
            for &m in &members {
                let op = &plan.ops[m];
                let spec = self.binding.spec(op.join)?;
                let mut sources: Vec<Option<Source>> = Vec::with_capacity(2);
                for (side, operand) in [(0usize, &op.left), (1usize, &op.right)] {
                    sources.push(match operand {
                        OperandSource::Base { .. } => {
                            Some(Source::Local(self.base_fragments[&(m, side)][i].clone()))
                        }
                        OperandSource::Materialized { .. } => Some(Source::Filtered {
                            fragments: mat_fragments[&(m, side)].clone(),
                            key_col: if side == 0 {
                                spec.left_key
                            } else {
                                spec.right_key
                            },
                            bucket: i,
                            of: degree,
                        }),
                        OperandSource::Stream { from } => Some(Source::Stream {
                            rx: self.stream_rx[&(m, side)][i].clone(),
                            producers: plan.ops[*from].degree(),
                        }),
                        // Handed over by the member evaluating `from`.
                        OperandSource::Fused { .. } => None,
                    });
                }
                let fail = self
                    .config
                    .fail
                    .is_some_and(|f| f.op == m && f.instance == i);
                #[cfg_attr(not(feature = "faults"), allow(unused_mut))]
                let mut member =
                    TaskMember::new(join_op(op.algorithm, spec.clone()), sources, m, fail);
                if let Some((reader, side)) = self.feeds[m] {
                    member = member.feeding(reader, side);
                }
                #[cfg(feature = "faults")]
                if let Some(plan) = &self.fault_plan {
                    member.arm_fault(plan.arm("join", m, i));
                }
                task_members.push(member);
            }

            let output = match &out {
                Some((txs, key_col, pool)) => OutputPort::Stream(Router::new(
                    txs.clone(),
                    *key_col,
                    self.config.batch_size,
                    pool.clone(),
                )),
                None if self.out_materialized[root] => OutputPort::materialize(
                    self.store.clone(),
                    root_op.procs[i],
                    format!("{}op{root}", self.ns),
                    self.binding.schema(root_op.join)?,
                    Some(self.ctrl.budget().clone()),
                ),
                None => {
                    let (tx, bpool) = client.as_ref().expect("taken above");
                    OutputPort::Client(ClientSink::new(
                        tx.clone(),
                        self.config.batch_size,
                        bpool.clone(),
                    ))
                }
            };

            let mut task = OpTask::new(
                task_members,
                output,
                self.config.batch_size,
                i,
                self.reporter(),
                Some(self.ctrl.clone()),
            );
            if root_op.join == root_join {
                if let Some(resolver) = &self.resolver {
                    task.set_resolver(resolver.clone());
                }
            }
            self.pool.submit(priority, Box::new(task));
            self.spawned_instances += members.len();
        }
        for &m in &members {
            self.stream_rx.remove(&(m, 0));
            self.stream_rx.remove(&(m, 1));
        }
        // `client` (the master sender) drops here once the sink op has
        // spawned: from now on only the sink instances hold senders.
        Ok(())
    }

    /// Spawns every post-join pipeline stage (residual filter, partitioned
    /// aggregate, limit). Stages consume only streams, so they are all
    /// submitted at query start and simply idle (blocked, yielding their
    /// worker) until the root join produces.
    fn spawn_stages(&mut self) -> Result<()> {
        let n_ops = self.plan.ops.len();
        let root = self.plan.tree.root();
        let mut producers = self
            .plan
            .op_for_join(root)
            .map(PlanOp::degree)
            .ok_or_else(|| RelalgError::InvalidPlan("plan has no root operation".into()))?;
        let query = self.query.clone();
        for (i, stage) in query.stages().iter().enumerate() {
            let op_id = n_ops + i;
            let rxs = std::mem::take(&mut self.stage_rx[i]);
            if rxs.len() != stage.degree {
                return Err(RelalgError::InvalidPlan(format!(
                    "stage {i} expects {} input channels, got {}",
                    stage.degree,
                    rxs.len()
                )));
            }
            let out_entry = self.stage_out[i].take();
            let client = if out_entry.is_none() {
                Some(self.client.take().ok_or_else(|| {
                    RelalgError::InvalidPlan("plan has more than one sink operation".into())
                })?)
            } else {
                None
            };
            self.metrics.ops[op_id].instances = stage.degree;
            self.metrics.processes += stage.degree;
            for (inst, rx) in rxs.iter().enumerate() {
                let source = Source::Stream {
                    rx: rx.clone(),
                    producers,
                };
                let output = match &out_entry {
                    Some((txs, key_col, pool)) => OutputPort::Stream(Router::new(
                        txs.clone(),
                        *key_col,
                        self.config.batch_size,
                        pool.clone(),
                    )),
                    None => {
                        let (tx, bpool) = client.as_ref().expect("taken above");
                        OutputPort::Client(ClientSink::new(
                            tx.clone(),
                            self.config.batch_size,
                            bpool.clone(),
                        ))
                    }
                };
                let op: Box<dyn PhysicalOp> = match &stage.kind {
                    StageKind::Filter {
                        predicate,
                        projection,
                    } => Box::new(FilterOp::new(predicate.clone(), projection.clone())),
                    StageKind::Aggregate {
                        group,
                        aggs,
                        projection,
                    } => Box::new(AggregateOp::new(
                        group.clone(),
                        aggs.clone(),
                        projection.clone(),
                    )),
                    StageKind::Limit { k } => Box::new(LimitOp::new(*k)),
                };
                let fail = self
                    .config
                    .fail
                    .is_some_and(|f| f.op == op_id && f.instance == inst);
                #[cfg_attr(not(feature = "faults"), allow(unused_mut))]
                let mut member = TaskMember::new(op, vec![Some(source)], op_id, fail);
                #[cfg(feature = "faults")]
                if let Some(plan) = &self.fault_plan {
                    let label = match &stage.kind {
                        StageKind::Filter { .. } => "filter",
                        StageKind::Aggregate { .. } => "aggregate",
                        StageKind::Limit { .. } => "limit",
                    };
                    member.arm_fault(plan.arm(label, op_id, inst));
                }
                let task = OpTask::new(
                    vec![member],
                    output,
                    self.config.batch_size,
                    inst,
                    self.reporter(),
                    Some(self.ctrl.clone()),
                );
                self.pool.submit(self.priorities[op_id], Box::new(task));
                self.spawned_instances += 1;
            }
            producers = stage.degree;
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
        self.stream_rx.clear();
        self.out_stream.clear();
        self.stage_rx.clear();
        self.stage_out.clear();
        self.client = None;
    }

    /// Sets one query up on a (shared) pool and store — resident base
    /// fragments, channels, process groups — with the root output streaming
    /// into `client`. `query_id` namespaces the query's materialized
    /// fragments within the store. Nothing is submitted yet
    /// ([`spawn_first_wave`](Self::spawn_first_wave)).
    #[allow(clippy::too_many_arguments)]
    fn prepare(
        plan: &ValidPlan,
        binding: &QueryBinding,
        provider: &dyn RelationProvider,
        config: &ExecConfig,
        opts: &QueryOptions,
        pool: &Arc<WorkerPool>,
        store: &Arc<FragmentStore>,
        cache: &FragmentCache,
        query_id: u64,
        client: ClientEdge,
        ctrl: &Arc<QueryCtrl>,
    ) -> Result<QueryRun> {
        // The config was validated by `open_result_channel`; options beyond
        // deadline and budget are resolved upstream.
        #[cfg(not(feature = "faults"))]
        let _ = opts;
        let n_ops = plan.ops.len();
        let n_stages = binding.stages().len();
        let n_tasks = n_ops + n_stages;
        let ns = format!("q{query_id}:");
        store.ensure_nodes(plan.processors);

        let mut metrics = Metrics::new(n_tasks);

        // --- Late materialization. When the binding's shape is taken, the
        // join pipeline runs on narrow ref-carrying batches wired from
        // `late.shape.narrow`, the resident images the refs index stay pinned
        // in the rewrite's registry (charged to the budget below), and the
        // root join's tasks resolve refs back to the original schema — so
        // everything from the root's output port on (stages, client channel)
        // is untouched.
        let late = crate::late::plan_late(binding, provider, cache, config.late, &mut metrics)?;
        let exec_binding: &QueryBinding = late.as_ref().map_or(binding, |l| &l.shape.narrow);
        let pinned_bytes = late.as_ref().map_or(0, |l| l.pinned_bytes);
        if pinned_bytes > 0 && !ctrl.budget().charge(pinned_bytes) {
            ctrl.abort(ctrl.budget().exhausted_error());
        }

        // --- Setup (not timed): ideal base fragmentation per §4.1, resident.
        let base_fragments =
            base_fragments(plan, binding, late.as_ref(), provider, cache, &mut metrics)?;

        // Stream channels, created up front (receivers taken at consumer
        // spawn, senders at producer spawn). Edge pools are sized from both
        // endpoint degrees.
        let mut stream_rx: HashMap<(usize, usize), Vec<Receiver<Msg>>> = HashMap::new();
        let mut out_stream: OutStreams = HashMap::new();
        let mut out_materialized: Vec<bool> = vec![false; n_ops];
        for op in &plan.ops {
            let spec = exec_binding.spec(op.join)?;
            for (side, operand) in [(0usize, &op.left), (1usize, &op.right)] {
                let key_col = if side == 0 {
                    spec.left_key
                } else {
                    spec.right_key
                };
                match operand {
                    OperandSource::Stream { from } => {
                        // The edge carries the producer op's output rows; its
                        // pool is typed with that schema's column layout.
                        let layout = ColumnLayout::of(exec_binding.schema(plan.ops[*from].join)?);
                        let (txs, rxs, pool) = operand_channels(
                            plan.ops[*from].degree(),
                            op.degree(),
                            config.channel_capacity,
                            layout,
                        );
                        pool.set_budget(ctrl.budget().clone());
                        stream_rx.insert((op.id, side), rxs);
                        if out_stream.insert(*from, (txs, key_col, pool)).is_some() {
                            return Err(RelalgError::InvalidPlan(format!(
                                "op {from} has multiple stream consumers"
                            )));
                        }
                    }
                    OperandSource::Materialized { from } => {
                        out_materialized[*from] = true;
                    }
                    // A fused edge never leaves its task.
                    OperandSource::Base { .. } | OperandSource::Fused { .. } => {}
                }
            }
        }

        // Post-join pipeline channels: the root op streams into stage 0, each
        // stage into the next, and the last stage into the client channel.
        let mut stage_rx: Vec<Vec<Receiver<Msg>>> = Vec::with_capacity(n_stages);
        let mut stage_out: Vec<Option<OutEdge>> = (0..n_stages).map(|_| None).collect();
        let mut stage_streams = 0usize;
        if n_stages > 0 {
            let root_op = plan
                .op_for_join(plan.tree.root())
                .ok_or_else(|| RelalgError::InvalidPlan("plan has no root operation".into()))?;
            let mut prev_degree = root_op.degree();
            for (i, stage) in binding.stages().iter().enumerate() {
                // Edge i carries the previous producer's output: the root
                // join's schema for stage 0, else the prior stage's.
                let in_schema = if i == 0 {
                    binding.schema(root_op.join)?
                } else {
                    &binding.stages()[i - 1].schema
                };
                let (txs, rxs, bpool) = operand_channels(
                    prev_degree,
                    stage.degree,
                    config.channel_capacity,
                    ColumnLayout::of(in_schema),
                );
                bpool.set_budget(ctrl.budget().clone());
                stage_streams += prev_degree * stage.degree;
                stage_rx.push(rxs);
                let entry = (txs, stage.partition_col, bpool);
                if i == 0 {
                    if out_stream.insert(root_op.id, entry).is_some() {
                        return Err(RelalgError::InvalidPlan(
                            "root op already has a stream consumer".into(),
                        ));
                    }
                } else {
                    stage_out[i - 1] = Some(entry);
                }
                prev_degree = stage.degree;
            }
        }

        // Scheduling priority: the op's right-deep segment wave (§4 order);
        // pipeline stages run after the root, in later waves still.
        let node_waves = segments(&plan.tree).node_waves();
        let mut priorities: Vec<usize> = plan
            .ops
            .iter()
            .map(|op| node_waves.get(op.join).copied().flatten().unwrap_or(0))
            .collect();
        let stage_base = priorities.iter().copied().max().unwrap_or(0) + 1;
        priorities.extend((0..n_stages).map(|i| stage_base + i));

        // --- Scheduling (timed). ---
        let started = Instant::now();

        // Process groups: a process starts once every op any of its members
        // waits for — in another process — has completed. `deps_remaining` is
        // kept under the group's root op id.
        let roots = plan.process_roots();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_ops];
        let mut feeds: Vec<Option<(usize, usize)>> = vec![None; n_ops];
        let mut deps_remaining: Vec<usize> = vec![0; n_ops];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n_ops];
        for op in &plan.ops {
            let root = roots[op.id];
            groups[root].push(op.id);
            for &d in &op.start_after {
                if roots[d] != root {
                    deps_remaining[root] += 1;
                    dependents[d].push(root);
                }
            }
            for (side, operand) in [(0usize, &op.left), (1usize, &op.right)] {
                if let OperandSource::Fused { from } = operand {
                    feeds[*from] = Some((op.id, side));
                }
            }
        }

        let stats = plan.stats();
        metrics.streams = stats.tuple_streams + stage_streams;
        metrics.fused_ops = stats.fused_ops;
        for op in &plan.ops {
            metrics.ops[op.id].est_out = op.est_out;
        }
        for (i, stage) in binding.stages().iter().enumerate() {
            metrics.ops[n_ops + i].est_out = stage.est_out;
            metrics.ops[n_ops + i].kind = stage.kind.metrics_kind();
        }
        let instances_left: Vec<usize> = plan
            .ops
            .iter()
            .map(|o| o.degree())
            .chain(binding.stages().iter().map(|s| s.degree))
            .collect();
        Ok(QueryRun {
            plan: plan.clone(),
            query: binding.clone(),
            binding: exec_binding.clone(),
            config: *config,
            pool: pool.clone(),
            store: store.clone(),
            ctrl: ctrl.clone(),
            ns,
            priorities,
            base_fragments,
            stream_rx,
            out_stream,
            out_materialized,
            stage_rx,
            stage_out,
            client: Some(client),
            reporter: None,
            started,
            deps_remaining,
            dependents,
            instances_left,
            first_err: None,
            pinned_bytes,
            groups,
            feeds,
            spawned_instances: 0,
            received: 0,
            metrics,
            resolver: late.as_ref().map(|l| l.resolver.clone()),
            #[cfg(feature = "faults")]
            fault_plan: opts.fault_plan().cloned(),
        })
    }

    /// Submits every process that waits for nothing, and the stages.
    fn spawn_first_wave(&mut self) {
        if self.ctrl.is_canceled() {
            self.fail(RelalgError::Canceled);
        } else if let Err(e) = self.spawn_ready().and_then(|()| self.spawn_stages()) {
            // Spawning failed part-way: the tasks already submitted unwind
            // via dropped endpoints, and the query concludes — quiescent,
            // the shared store clean — when the last of them has reported.
            self.fail(e);
        }
    }

    /// Records the query's first failure and unblocks every task wired to
    /// a peer that will now never be spawned.
    fn fail(&mut self, e: RelalgError) {
        if self.first_err.is_none() {
            self.first_err = Some(e);
            self.release_unspawned_endpoints();
        }
    }

    /// Takes one completion report: books the member's statistics and, when
    /// that completes an operation, releases the processes waiting for it.
    fn on_report(&mut self, (op_id, res): DoneMsg) {
        self.received += 1;
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
        self.instances_left[op_id] -= 1;
        // Pipeline stages (ids >= n_ops) have no dependents in the plan DAG.
        let n_ops = self.plan.ops.len();
        if op_id < n_ops && self.instances_left[op_id] == 0 && self.first_err.is_none() {
            // Op complete: release the processes waiting for it.
            for i in 0..self.dependents[op_id].len() {
                let root = self.dependents[op_id][i];
                self.deps_remaining[root] -= 1;
            }
            if let Err(e) = self.spawn_ready() {
                self.fail(e);
            }
        }
    }

    /// Tears a quiesced query down — every submitted task has reported
    /// exactly once — reclaiming its fragment namespace, and says how it
    /// went.
    fn conclude(mut self) -> Result<QueryOutcome> {
        let ctrl = self.ctrl.clone();
        let elapsed = self.started.elapsed();

        // The query is quiescent: every submitted instance has reported.
        // Reclaim its namespace in the shared store, crediting the freed
        // fragment bytes back to the query's budget.
        let freed = self.store.remove_prefix(&self.ns);
        ctrl.budget().credit(freed);
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
        if self.groups.iter().any(|members| !members.is_empty()) {
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
        let degrees = self
            .plan
            .ops
            .iter()
            .map(PlanOp::degree)
            .chain(self.query.stages().iter().map(|s| s.degree));
        degrees
            .enumerate()
            .map(|(op, degree)| {
                let done = degree - self.instances_left.get(op).copied().unwrap_or(0);
                format!(
                    "op{op}[{}] {done}/{degree}",
                    self.metrics.ops[op].kind.label()
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Resolves every base operand of `plan` to its per-instance columnar
/// fragments: a fragment-cache lookup, plus — for a pushed-down scan
/// filter — a selection over each *cached* fragment whose survivors are
/// gathered into a batch private to this query (filtering and hash
/// partitioning commute, and the filtered result is never cached: `?1`
/// changes per execution). A late plan's narrow leaves are per query
/// already and are partitioned privately.
fn base_fragments(
    plan: &ParallelPlan,
    binding: &QueryBinding,
    late: Option<&crate::late::LateRewrite>,
    provider: &dyn RelationProvider,
    cache: &FragmentCache,
    metrics: &mut Metrics,
) -> Result<HashMap<(usize, usize), Fragments>> {
    let exec_binding = late.map_or(binding, |l| &l.shape.narrow);
    // One resolution per name, so every leaf of a query reads the same
    // relation even while it is being replaced in the catalog.
    let mut resolved: HashMap<&str, Arc<Relation>> = HashMap::new();
    let mut out = HashMap::new();
    for op in &plan.ops {
        let spec = exec_binding.spec(op.join)?;
        for (side, operand) in [(0usize, &op.left), (1usize, &op.right)] {
            let OperandSource::Base { relation } = operand else {
                continue;
            };
            let key_col = if side == 0 {
                spec.left_key
            } else {
                spec.right_key
            };
            let fragments: Fragments = match late {
                Some(l) => {
                    let narrow = l.relations.get(relation).ok_or_else(|| {
                        RelalgError::InvalidPlan(format!("late plan lost relation {relation}"))
                    })?;
                    fragment_columns(narrow, key_col, op.degree())?
                }
                None => {
                    let source = match resolved.get(relation.as_str()) {
                        Some(source) => source.clone(),
                        None => {
                            let source = provider.relation(relation)?;
                            resolved.insert(relation, source.clone());
                            source
                        }
                    };
                    let (cached, hit) = cache.fragments(relation, &source, key_col, op.degree())?;
                    metrics.note_fragment_lookup(hit);
                    match binding.scan_filter(relation) {
                        Some(pred) => cached
                            .iter()
                            .map(|fragment| filter_fragment(fragment, pred))
                            .collect::<Result<_>>()?,
                        None => cached,
                    }
                }
            };
            out.insert((op.id, side), fragments);
        }
    }
    Ok(out)
}

/// The rows of `fragment` satisfying `pred`, gathered into a private
/// batch; the cached fragment itself when every row survives.
fn filter_fragment(fragment: &Arc<ColumnBatch>, pred: &Predicate) -> Result<Arc<ColumnBatch>> {
    let mut survivors = Vec::new();
    select(pred, fragment, 0..fragment.rows(), &mut survivors)?;
    if survivors.len() == fragment.rows() {
        return Ok(fragment.clone());
    }
    fragment.gather(&survivors).map(Arc::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::QueryStatus;
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
        let outcome = run_plan(&plan, &binding, catalog.as_ref(), &ExecConfig::default()).unwrap();
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

    /// Runs with a fault injected at (op, instance) and asserts the engine
    /// reports the failure without hanging or panicking.
    fn run_with_failure(shape: Shape, strategy: Strategy, fail: crate::config::FailPoint) {
        let (catalog, n) = setup(6, 128);
        let tree = build(shape, 6).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let mut input = GeneratorInput::new(&tree, &cards, &costs, 4);
        input.allow_oversubscribe = true;
        let plan = generate(strategy, &input).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let config = ExecConfig {
            fail: Some(fail),
            ..ExecConfig::default()
        };
        let err = run_plan(&plan, &binding, catalog.as_ref(), &config)
            .expect_err("injected failure must surface");
        let msg = err.to_string();
        assert!(
            msg.contains("injected failure")
                // Racing teardown may surface a stream error first; both
                // prove the dataflow unwound instead of hanging.
                || msg.contains("closed before End")
                || msg.contains("consumer hung up"),
            "unexpected error: {msg}"
        );
    }

    #[test]
    fn injected_failure_in_pipelined_plan_terminates() {
        // FP: every op is live-streaming; killing the bottom producer must
        // unwind the whole pipeline.
        run_with_failure(
            Shape::RightLinear,
            Strategy::FP,
            crate::config::FailPoint { op: 0, instance: 0 },
        );
    }

    #[test]
    fn injected_failure_in_materialized_plan_terminates() {
        // SP: sequential materialized phases; downstream ops must never
        // spawn after the failure.
        run_with_failure(
            Shape::LeftLinear,
            Strategy::SP,
            crate::config::FailPoint { op: 2, instance: 1 },
        );
    }

    #[test]
    fn injected_failure_at_the_root_terminates() {
        run_with_failure(
            Shape::WideBushy,
            Strategy::FP,
            crate::config::FailPoint { op: 4, instance: 0 },
        );
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
        // All per-query namespaces were reclaimed from the shared store.
        assert_eq!(engine.store().total_bytes(), 0);
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
    fn failure_on_every_single_point_terminates() {
        // Exhaustive small-scale sweep: no (op, instance) fault anywhere in
        // an RD plan can deadlock the engine.
        let (catalog, n) = setup(5, 64);
        let tree = build(Shape::RightBushy, 5).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let mut input = GeneratorInput::new(&tree, &cards, &costs, 4);
        input.allow_oversubscribe = true;
        let plan = generate(Strategy::RD, &input).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        for op in 0..plan.ops.len() {
            for instance in 0..plan.ops[op].degree() {
                let config = ExecConfig {
                    fail: Some(crate::config::FailPoint { op, instance }),
                    ..ExecConfig::default()
                };
                run_plan(&plan, &binding, catalog.as_ref(), &config)
                    .expect_err("fault must surface");
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
        let outcome = handle.outcome().unwrap();
        assert_eq!(total, 300);
        assert!(batches >= 1);
        assert_eq!(outcome.metrics.total_tuples_out(), 4 * 300);
        assert_eq!(engine.store().total_bytes(), 0);
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
        // The connection worker's loop: poll the stream to its end, then
        // the outcome — published by the pool thread that made the last
        // completion report, a moment after the stream ended.
        let outcome = loop {
            match stream.poll_next_batch() {
                crate::handle::BatchPoll::Batch(batch) => total += batch.len(),
                crate::handle::BatchPoll::Pending => std::thread::yield_now(),
                crate::handle::BatchPoll::Done => match handle.poll_outcome() {
                    Some(outcome) => break outcome.unwrap(),
                    None => std::thread::yield_now(),
                },
            }
        };
        assert_eq!(total, 300);
        assert_eq!(outcome.metrics.total_tuples_out(), 4 * 300);
        assert!(outcome.time_to_first_batch.is_some());
        assert_eq!(handle.status(), QueryStatus::Finished);
        assert!(handle.poll_outcome().is_none(), "handed out once");
        // Settled before the outcome was published, not some time after.
        assert_eq!(engine.stats().queries_completed, 1);
        assert_eq!(engine.store().total_bytes(), 0);
    }

    #[test]
    fn only_a_query_with_limits_starts_a_thread() {
        let (catalog, n) = setup(3, 64);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 3).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 2);
        let plain = engine.submit(&plan, &binding).unwrap();
        assert!(!plain.has_watchdog());
        assert_eq!(plain.collect().unwrap().len(), 64);
        let opts = QueryOptions::default().with_deadline(Duration::from_secs(30));
        let limited = engine.submit_with(&plan, &binding, opts).unwrap();
        assert!(limited.has_watchdog());
        assert_eq!(limited.collect().unwrap().len(), 64);
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
        let first = stream.next_batch();
        assert!(first.is_some(), "a first batch must arrive");
        assert_eq!(handle.status(), QueryStatus::Running);
        handle.cancel();
        // The stream ends (possibly after a few in-flight batches).
        while stream.next_batch().is_some() {}
        drop(stream);
        let err = handle.outcome().expect_err("cancelled query must error");
        assert!(matches!(err, RelalgError::Canceled), "got {err}");
        // Quiescent: fragments reclaimed, pool intact and reusable.
        assert_eq!(engine.store().total_bytes(), 0);
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
        drop(handle); // cancels, drains, waits for the conclusion
        assert_eq!(engine.store().total_bytes(), 0);
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

    // --- Guardrails: deadlines, budgets, admission control ---

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
        let err = engine
            .submit_with(&plan, &binding, opts)
            .unwrap()
            .collect()
            .expect_err("expired deadline must abort");
        assert!(matches!(err, RelalgError::DeadlineExceeded), "got {err}");
        assert_eq!(engine.store().total_bytes(), 0, "fragments reclaimed");
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
        let err = engine
            .submit_with(&plan, &binding, opts)
            .unwrap()
            .collect()
            .expect_err("1-byte budget must trip");
        match err {
            RelalgError::ResourceExhausted { used, budget } => {
                assert_eq!(budget, 1);
                assert!(used > 1, "reported usage exceeds the budget: {used}");
            }
            other => panic!("expected ResourceExhausted, got {other}"),
        }
        assert_eq!(engine.store().total_bytes(), 0, "fragments reclaimed");
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
    fn admission_rejects_beyond_queue_and_recovers() {
        let (catalog, n) = setup(5, 4_000);
        let config = ExecConfig {
            workers: 2,
            batch_size: 16,
            channel_capacity: 1,
            max_concurrent: Some(1),
            admission_queue: 0, // pure queue-or-reject: no waiting at all
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 4);
        // First query holds the only slot (it blocks on client
        // backpressure, so it stays in flight until we drain it).
        let mut first = engine.submit(&plan, &binding).unwrap();
        let mut stream = first.stream();
        assert!(stream.next_batch().is_some());
        let err = engine
            .submit(&plan, &binding)
            .expect_err("second query must be rejected");
        assert!(matches!(err, RelalgError::Overloaded { .. }), "got {err}");
        // Drain the first; its slot frees and the engine admits again.
        while stream.next_batch().is_some() {}
        drop(stream);
        first.outcome().unwrap();
        let outcome = engine.run(&plan, &binding).unwrap();
        assert_eq!(outcome.relation.len(), 4_000);
        let stats = engine.stats();
        assert_eq!(stats.queries_rejected, 1);
        assert_eq!(stats.queries_completed, 2);
    }

    #[test]
    fn admission_queue_serves_waiters_fifo() {
        let (catalog, n) = setup(4, 512);
        let config = ExecConfig {
            workers: 2,
            max_concurrent: Some(1),
            admission_queue: 8,
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 4).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 3);
        // Four threads submit through a 1-slot gate; all must complete.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let engine = &engine;
                let plan = &plan;
                let binding = &binding;
                scope.spawn(move || {
                    let outcome = engine.run(plan, binding).unwrap();
                    assert_eq!(outcome.relation.len(), 512);
                });
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.queries_completed, 4);
        assert_eq!(stats.queries_rejected, 0);
        assert_eq!(engine.store().total_bytes(), 0);
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
    fn stats_snapshot_is_consistent_while_hammered() {
        // Regression test for the racy field-by-field snapshot: N threads
        // hammer queries (some admitted, some rejected) while a poller
        // reads stats. Every snapshot must satisfy
        //   terminal outcomes + rejected <= submitted
        // which only holds if all counters are read consistently.
        let (catalog, n) = setup(3, 96);
        let config = ExecConfig {
            workers: 2,
            max_concurrent: Some(1),
            admission_queue: 1,
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
                        match engine.submit(plan, binding) {
                            Ok(handle) => {
                                let _ = handle.collect();
                            }
                            Err(RelalgError::Overloaded { queue_depth }) => {
                                assert_eq!(queue_depth, 1);
                            }
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
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
                        terminal + s.queries_rejected <= s.queries_submitted,
                        "inconsistent snapshot: {terminal} terminal + {} rejected > {} submitted",
                        s.queries_rejected,
                        s.queries_submitted
                    );
                    assert!(s.queries_active <= 2, "active beyond max_concurrent+queue");
                    assert_eq!(s.query_duration.count, terminal);
                    polls += 1;
                    std::thread::yield_now();
                }
            });
        });
        // Quiesced: every submission is accounted for exactly once.
        let s = engine.stats();
        assert_eq!(s.queries_submitted, 32);
        assert_eq!(s.queries_total() + s.queries_rejected, 32);
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
        // client backpressure and the watchdog must fire.
        assert!(stream.next_batch().is_some());
        std::thread::sleep(Duration::from_millis(300));
        while stream.next_batch().is_some() {}
        drop(stream);
        let err = handle.outcome().expect_err("stall must abort");
        match err {
            RelalgError::Stalled(dump) => {
                assert!(dump.contains("op0[join]"), "dump names ops: {dump}")
            }
            other => panic!("expected Stalled, got {other}"),
        }
        assert_eq!(engine.store().total_bytes(), 0);
        assert_eq!(engine.stats().queries_stalled, 1);
    }
}
