//! Cancellable query handles and pull-based result streams.
//!
//! [`Engine::submit`](crate::engine::Engine::submit) returns a
//! [`QueryHandle`] once the query's first tasks are on the shared worker
//! pool. No thread belongs to a query: each task's completion report
//! advances the query's coordination on the thread that reports, and the
//! last one concludes the query there and publishes its outcome in the
//! [`QueryCtrl`] the handle waits on. Results are **not** materialized into an
//! `ExecOutcome.relation` first — the instances of the query's last
//! operation stream into the handle's [`ResultStream`] over an ordinary
//! bounded one-consumer edge (the same [`Router`](crate::stream::Router)
//! and [`Msg`] protocol as every other stream), so the first result tuples
//! reach the client while deeper operators are still producing, and a
//! slow client backpressures the worker pool instead of buffering
//! unboundedly.
//!
//! A client that multiplexes many queries on one thread waits on wakers,
//! not timers: [`ResultStream::poll_next_batch`] registers the caller's
//! waker on the result edge when it finds it empty (the next batch or `End`
//! wakes it), and [`QueryHandle::poll_outcome`] registers it for the
//! query's conclusion.
//!
//! Cancellation is quiescent: [`QueryHandle::cancel`] flips the query's
//! cancel token and wakes every task of the query, parked ones included;
//! each observes the token on its next scheduling step, reports
//! [`RelalgError::Canceled`] exactly once through the completion protocol,
//! and the query's run — its materialized pieces with it — is torn down
//! before [`QueryHandle::outcome`] returns. The engine is immediately reusable.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::task::Waker;
use std::time::{Duration, Instant};

use mj_relalg::{RelalgError, Relation, Result, Schema, Tuple};

use crate::budget::MemoryBudget;
use crate::engine::Coordinated;
use crate::metrics::counters::EngineCounters;
use crate::metrics::Metrics;
use crate::sched::{block_on_spinning, lock, WorkerPool};
use crate::stream::{Batch, Msg, Receiver, TryRecvError};

/// Lifecycle state of a submitted query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryStatus {
    /// The query's tasks are still running (or queued).
    Running,
    /// Every task completed and all results were delivered.
    Finished,
    /// The query failed; [`QueryHandle::outcome`] carries the error.
    Failed,
    /// The query was cancelled and has quiesced.
    Canceled,
}

// Running is the (default) zero state; the query's conclusion writes the rest.
const STATE_FINISHED: u8 = 1;
const STATE_FAILED: u8 = 2;
const STATE_CANCELED: u8 = 3;

/// Shared control block of one submitted query: the cancel token the
/// operator tasks read on every step (and the wakers of those tasks, so a
/// token reaches parked ones), the terminal state and outcome its
/// conclusion publishes, and the guardrail state (deadline, memory budget,
/// abort reason, progress and contained-panic counters) added by the
/// robustness layer. It is also where the query's run sits while it is
/// coordinated, so the one allocation every task of the query holds is all
/// it needs to report its completions.
#[derive(Debug, Default)]
pub struct QueryCtrl {
    cancel: AtomicBool,
    /// Graceful early termination: the query's answer is already complete
    /// (a satisfied LIMIT), so upstream operators should stop producing
    /// and report success instead of an error.
    stop: AtomicBool,
    state: AtomicU8,
    /// The concluded query's outcome, until the handle takes it.
    outcome: Mutex<Option<Result<QueryOutcome>>>,
    /// Woken when the query concludes: the waker of the last wait for the
    /// outcome ([`QueryHandle::outcome`], [`QueryHandle::poll_outcome`])
    /// that found it running.
    waiter: Mutex<Option<Waker>>,
    /// Every task of the query, woken by each token (cancel, early stop,
    /// abort) so that a parked task observes it too.
    tasks: Mutex<Vec<Waker>>,
    /// Guardrail abort: like `cancel`, but carries a typed reason (deadline,
    /// budget, contained panic, stall). First reason wins; every task of the
    /// query observes it on its next scheduling step and reports it.
    aborted: AtomicBool,
    abort: Mutex<Option<RelalgError>>,
    /// Monotone count of productive task steps and completions, sampled by
    /// the query's stall check to detect stalled pipelines.
    progress: AtomicU64,
    /// Panics contained (converted to `Internal`) within this query.
    panics: AtomicU64,
    /// End-to-end time to first batch in microseconds, recorded once by
    /// the [`ResultStream`] when the client pulls its first batch
    /// (stored `+1` so 0 keeps meaning "no batch delivered yet").
    first_batch_us: AtomicU64,
    /// Wall-clock instant after which the query is aborted; `None` = none.
    deadline: Option<Instant>,
    /// The query's memory budget (unlimited when no cap was configured).
    budget: Arc<MemoryBudget>,
    /// The pool the query runs on, which its client's waits consult (none
    /// for a block made outside an engine).
    pool: Weak<WorkerPool>,
    /// The query's run and accounts while the engine coordinates it: from
    /// its first wave of tasks until it concludes.
    run: Mutex<Option<Coordinated>>,
}

impl QueryCtrl {
    /// Creates a control block in the `Running` state with no deadline and
    /// an unlimited budget.
    pub fn new() -> Arc<Self> {
        Arc::new(QueryCtrl::default())
    }

    /// Creates a control block with guardrails attached.
    pub fn with_limits(deadline: Option<Instant>, budget: Arc<MemoryBudget>) -> Arc<Self> {
        Arc::new(QueryCtrl {
            deadline,
            budget,
            ..QueryCtrl::default()
        })
    }

    /// A control block with guardrails, for a query on `pool`.
    pub(crate) fn on_pool(
        pool: &Arc<WorkerPool>,
        deadline: Option<Instant>,
        budget: Arc<MemoryBudget>,
    ) -> Arc<Self> {
        Arc::new(QueryCtrl {
            deadline,
            budget,
            pool: Arc::downgrade(pool),
            ..QueryCtrl::default()
        })
    }

    /// The query's run while the engine coordinates it.
    pub(crate) fn run(&self) -> MutexGuard<'_, Option<Coordinated>> {
        lock(&self.run)
    }

    /// Whether the query's pool leaves a worker idle: a client waiting on
    /// the query may then yield instead of parking.
    fn idle_worker(&self) -> bool {
        self.pool
            .upgrade()
            .is_some_and(|pool| pool.has_idle_worker())
    }

    /// Requests cancellation. Idempotent; observed by every task on its
    /// next scheduling step — a parked task is woken for it.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
        self.wake_tasks();
    }

    /// True once cancellation has been requested.
    pub fn is_canceled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// Signals that the query's result is complete (a LIMIT was satisfied):
    /// every other task of this query winds down *successfully* on its next
    /// scheduling step — the graceful sibling of [`cancel`](Self::cancel),
    /// raised by the operator framework, not the client.
    pub fn stop_early(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake_tasks();
    }

    /// True once a downstream operator declared the result complete.
    pub fn early_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Registers one task of the query to be woken by every token raised
    /// from now on. A task registers before it first reads the tokens, so
    /// the token store and the wake (both after that read) cannot miss it.
    pub(crate) fn register_task(&self, waker: &Waker) {
        lock(&self.tasks).push(waker.clone());
    }

    /// Wakes every registered task: a token was just raised.
    fn wake_tasks(&self) {
        lock(&self.tasks).iter().for_each(Waker::wake_by_ref);
    }

    /// Aborts the query with a typed guardrail reason. The first reason
    /// wins (idempotent for followers); every task — woken if parked —
    /// observes the abort on its next scheduling step, reports the reason
    /// exactly once through the completion protocol, and `outcome()`
    /// surfaces it after the usual quiesce/reclaim.
    pub fn abort(&self, reason: RelalgError) {
        let mut slot = lock(&self.abort);
        if slot.is_none() {
            *slot = Some(reason);
            drop(slot);
            self.aborted.store(true, Ordering::SeqCst);
            self.wake_tasks();
        }
    }

    /// True once a guardrail abort has been raised.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// The abort reason, if one has been raised.
    pub fn abort_error(&self) -> Option<RelalgError> {
        if !self.is_aborted() {
            return None;
        }
        lock(&self.abort).clone()
    }

    /// The query's wall-clock deadline, if one was configured.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True once the configured deadline has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The query's memory budget (unlimited when no cap was configured).
    pub fn budget(&self) -> &Arc<MemoryBudget> {
        &self.budget
    }

    /// Records one productive task step (the stall check's heartbeat).
    pub fn note_progress(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Total productive task steps so far.
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// Records one contained panic within this query.
    pub fn note_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Panics contained within this query so far.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Records the client pulling the first result batch `ttfb` after
    /// submission. First call wins; later calls are no-ops.
    pub(crate) fn note_first_batch(&self, ttfb: Duration) {
        let us = ttfb.as_micros().min(u64::MAX as u128 - 1) as u64;
        let _ =
            self.first_batch_us
                .compare_exchange(0, us + 1, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// End-to-end time from submission to the client pulling the first
    /// result batch; `None` while (or if) no batch was ever delivered.
    pub fn time_to_first_batch(&self) -> Option<Duration> {
        match self.first_batch_us.load(Ordering::Relaxed) {
            0 => None,
            us => Some(Duration::from_micros(us - 1)),
        }
    }

    /// Concludes the query: records its terminal state and publishes
    /// `result` for the handle, waking whoever waits for it — blocked in
    /// [`QueryHandle::outcome`] or polling with
    /// [`QueryHandle::poll_outcome`].
    pub(crate) fn finish(&self, result: Result<QueryOutcome>) {
        let state = match &result {
            Ok(_) => STATE_FINISHED,
            Err(RelalgError::Canceled) => STATE_CANCELED,
            Err(_) => STATE_FAILED,
        };
        let mut outcome = lock(&self.outcome);
        *outcome = Some(result);
        self.state.store(state, Ordering::Release);
        drop(outcome);
        let waiter = lock(&self.waiter).take();
        if let Some(waiter) = waiter {
            waiter.wake();
        }
    }

    /// The outcome, if the query has concluded; never blocks. Until then
    /// `waker` is registered for the conclusion: it is stored before the
    /// state is read, and `finish` stores the state before it takes the
    /// waker, so one of the two sees the other.
    fn poll_take_outcome(&self, waker: &Waker) -> Option<Result<QueryOutcome>> {
        if self.status() == QueryStatus::Running {
            *lock(&self.waiter) = Some(waker.clone());
            if self.status() == QueryStatus::Running {
                return None;
            }
        }
        lock(&self.outcome).take()
    }

    /// The query's current lifecycle state.
    pub fn status(&self) -> QueryStatus {
        match self.state.load(Ordering::Acquire) {
            STATE_FINISHED => QueryStatus::Finished,
            STATE_FAILED => QueryStatus::Failed,
            STATE_CANCELED => QueryStatus::Canceled,
            _ => QueryStatus::Running,
        }
    }
}

/// What a completed query reports: timing and metrics. The result tuples
/// themselves travel through the [`ResultStream`] — they are never
/// materialized inside the engine.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Response time: scheduling start to last operation-process exit (the
    /// paper's metric; base fragmentation is setup, not response time).
    pub elapsed: Duration,
    /// End-to-end time from submission to the client pulling the first
    /// result batch off the stream; `None` when no batch was delivered
    /// (empty result, or the query failed before producing output).
    pub time_to_first_batch: Option<Duration>,
    /// Execution metrics.
    pub metrics: Metrics,
}

/// The result of one non-blocking poll of a [`ResultStream`]
/// ([`ResultStream::poll_next_batch`]).
#[derive(Debug)]
pub enum BatchPoll {
    /// A result batch is ready.
    Batch(Batch),
    /// No batch buffered right now, but producers are still live — the
    /// caller's waker is registered and fires when the next batch or `End`
    /// arrives (the stream never blocks the caller).
    Pending,
    /// The stream is exhausted: every producer finished or unwound.
    /// Terminal status/errors surface from [`QueryHandle::outcome`].
    Done,
}

/// A pull-based iterator over the query's result [`Batch`]es: the one
/// consumer of the stream edge leaving the query's last operation.
///
/// Dropping the stream before it is exhausted cancels the query (there is
/// nobody left to deliver results to); dropping it after the final `End`
/// is a no-op.
pub struct ResultStream {
    rx: Receiver<Msg>,
    /// Producer instances that have not sent `End` yet.
    remaining: usize,
    schema: Arc<Schema>,
    ctrl: Arc<QueryCtrl>,
    ended: bool,
    /// Submission instant, for end-to-end time-to-first-batch.
    started: Instant,
    /// Whether the first batch has been delivered (TTFB recorded).
    first_seen: bool,
    /// Engine counters to feed the time-to-first-batch histogram.
    counters: Arc<EngineCounters>,
}

impl ResultStream {
    pub(crate) fn new(
        rx: Receiver<Msg>,
        producers: usize,
        schema: Arc<Schema>,
        ctrl: Arc<QueryCtrl>,
        started: Instant,
        counters: Arc<EngineCounters>,
    ) -> Self {
        ResultStream {
            rx,
            remaining: producers,
            schema,
            ctrl,
            ended: producers == 0,
            started,
            first_seen: false,
            counters,
        }
    }

    /// The schema of the streamed tuples.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Records time-to-first-batch on the first delivered batch: into the
    /// query's control block (surfaced by `QueryOutcome`) and the engine's
    /// TTFB histogram. Measured here, client-side, so it is genuinely
    /// end-to-end — submission to the client holding result tuples.
    fn note_first_batch(&mut self) {
        if self.first_seen {
            return;
        }
        self.first_seen = true;
        let ttfb = self.started.elapsed();
        self.ctrl.note_first_batch(ttfb);
        self.counters.note_first_batch(ttfb);
    }

    /// Blocks for the next batch: [`poll_next_batch`](Self::poll_next_batch)
    /// until it is not pending, the calling thread parked in between (after
    /// yielding for a moment while the pool has a worker idle). `None` once
    /// every producer instance has finished — or unwound: a query that
    /// failed (or was cancelled) simply ends the stream early, and the
    /// error surfaces from [`QueryHandle::outcome`].
    pub fn next_batch(&mut self) -> Option<Batch> {
        let ctrl = self.ctrl.clone();
        block_on_spinning(
            || ctrl.idle_worker(),
            |waker| match self.poll_next_batch(waker) {
                BatchPoll::Batch(batch) => Some(Some(batch)),
                BatchPoll::Pending => None,
                BatchPoll::Done => Some(None),
            },
        )
    }

    /// Non-blocking sibling of [`next_batch`](Self::next_batch): returns
    /// [`BatchPoll::Pending`] instead of parking the caller when no batch
    /// is buffered, with `waker` registered on the result edge — the next
    /// batch or `End` the query's last operation sends wakes it. This is
    /// what lets one connection-worker thread multiplex many clients'
    /// streams: it sleeps until one of them has something, never inside
    /// any single query.
    pub fn poll_next_batch(&mut self, waker: &Waker) -> BatchPoll {
        while !self.ended {
            match self.rx.poll_recv(waker) {
                Ok(Msg::Batch(batch)) => {
                    self.note_first_batch();
                    return BatchPoll::Batch(batch);
                }
                Ok(Msg::End) => {
                    self.remaining -= 1;
                    if self.remaining == 0 {
                        self.ended = true;
                    }
                }
                Err(TryRecvError::Empty) => return BatchPoll::Pending,
                // Every sender gone without the full End count: the
                // dataflow unwound (error or cancel).
                Err(TryRecvError::Disconnected) => self.ended = true,
            }
        }
        BatchPoll::Done
    }

    /// Drains the stream into a materialized [`Relation`] (convenience for
    /// clients that do not want incremental consumption). Completeness is
    /// not guaranteed unless [`QueryHandle::outcome`] reports success.
    pub fn collect_relation(mut self) -> Relation {
        let mut tuples: Vec<Tuple> = Vec::new();
        while let Some(mut batch) = self.next_batch() {
            tuples.extend(batch.drain());
        }
        Relation::new_unchecked(self.schema.clone(), tuples)
    }
}

impl Iterator for ResultStream {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        self.next_batch()
    }
}

impl Drop for ResultStream {
    fn drop(&mut self) {
        // Abandoning a live stream cancels the query; a drained stream
        // (all Ends seen) drops silently.
        if !self.ended {
            self.ctrl.cancel();
        }
    }
}

impl std::fmt::Debug for ResultStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ResultStream(schema {}, {} producers outstanding)",
            self.schema, self.remaining
        )
    }
}

/// A handle to an in-flight query: stream its results, poll its status,
/// cancel it, and collect its final outcome.
///
/// Dropping the handle cancels the query and waits for quiescence, so a
/// handle can never leak running tasks.
pub struct QueryHandle {
    stream: Option<ResultStream>,
    ctrl: Arc<QueryCtrl>,
    /// The outcome has been handed out.
    taken: bool,
}

impl QueryHandle {
    pub(crate) fn new(stream: ResultStream, ctrl: Arc<QueryCtrl>) -> Self {
        QueryHandle {
            stream: Some(stream),
            ctrl,
            taken: false,
        }
    }

    /// Takes the result stream. Panics if called twice — the stream is the
    /// single consumption point of the query's output.
    pub fn stream(&mut self) -> ResultStream {
        self.stream
            .take()
            .expect("QueryHandle::stream() may only be taken once")
    }

    /// The schema of the result tuples.
    pub fn schema(&self) -> Option<Arc<Schema>> {
        self.stream.as_ref().map(|s| s.schema().clone())
    }

    /// Requests cancellation: every task of this query observes the token
    /// on its next scheduling step and reports exactly once; fragments are
    /// reclaimed before [`outcome`](Self::outcome) returns. Cancelling a
    /// query that already completed is a no-op.
    pub fn cancel(&self) {
        self.ctrl.cancel();
    }

    /// The query's current lifecycle state.
    pub fn status(&self) -> QueryStatus {
        self.ctrl.status()
    }

    /// The memory budget the query charges. Every byte is credited back
    /// once the query's tasks, edges and stream are gone, a moment after
    /// its outcome, so a clone of it shows whether teardown was exact.
    pub fn budget(&self) -> &Arc<MemoryBudget> {
        self.ctrl.budget()
    }

    /// Waits for the query to quiesce and returns its outcome. If the
    /// stream was never taken, any undelivered results are drained and
    /// discarded first (so `outcome()` cannot deadlock against a full
    /// result channel). Returns [`RelalgError::Canceled`] if the query was
    /// cancelled before completing.
    ///
    /// If you **did** take the stream, finish with it before calling this:
    /// drain it to the end, drop it (which cancels a live query), or call
    /// [`cancel`](Self::cancel) first. `outcome()` blocks until the query
    /// quiesces, and a query cannot quiesce while the tasks feeding its
    /// stream are backpressured against a taken-but-idle stream — holding the
    /// undrained stream on the same thread that calls `outcome()` would
    /// wait forever. (Draining from another thread is fine; this call then
    /// simply waits for that drain.)
    pub fn outcome(mut self) -> Result<QueryOutcome> {
        self.wait()
    }

    /// Non-blocking sibling of [`outcome`](Self::outcome) for a caller that
    /// took the stream and multiplexes many queries on one thread: the
    /// outcome once the query has concluded — a few microseconds after its
    /// stream reported [`BatchPoll::Done`] — and `None` until then (and
    /// after it has been handed out). While the query runs, `waker` is
    /// registered for its conclusion.
    pub fn poll_outcome(&mut self, waker: &Waker) -> Option<Result<QueryOutcome>> {
        if self.taken {
            return None;
        }
        let result = self.ctrl.poll_take_outcome(waker)?;
        Some(self.hand_out(result))
    }

    /// Drains the stream into a relation once the query has succeeded —
    /// the one-call path for clients that want the whole result; the
    /// outcome (elapsed time, metrics) is not returned, and a failed
    /// query's error is.
    pub fn collect(mut self) -> Result<Relation> {
        let stream = self.stream.take().ok_or_else(|| {
            RelalgError::InvalidPlan("result stream already taken; drain it instead".into())
        })?;
        let relation = stream.collect_relation();
        self.wait()?;
        Ok(relation)
    }

    fn wait(&mut self) -> Result<QueryOutcome> {
        // Discard any untaken results so producing tasks are never wedged
        // on a full channel nobody reads.
        if let Some(mut stream) = self.stream.take() {
            while stream.next_batch().is_some() {}
        }
        if self.taken {
            return Err(RelalgError::InvalidPlan(
                "query outcome already taken".into(),
            ));
        }
        // Only the handle takes the outcome: until it has, the query is
        // running or its outcome is there.
        let ctrl = &self.ctrl;
        let result =
            block_on_spinning(|| ctrl.idle_worker(), |waker| ctrl.poll_take_outcome(waker));
        self.hand_out(result)
    }

    fn hand_out(&mut self, mut result: Result<QueryOutcome>) -> Result<QueryOutcome> {
        self.taken = true;
        // TTFB is recorded client-side by the stream; the query's
        // conclusion cannot know it, so patch it in here.
        if let Ok(outcome) = &mut result {
            outcome.time_to_first_batch = self.ctrl.time_to_first_batch();
        }
        result
    }
}

impl Drop for QueryHandle {
    fn drop(&mut self) {
        if !self.taken {
            self.ctrl.cancel();
            let _ = self.wait();
        }
    }
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QueryHandle({:?})", self.status())
    }
}
