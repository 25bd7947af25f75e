//! The generic operation-process driver: one cooperative task that runs
//! any [`PhysicalOp`] on the shared worker pool.
//!
//! The seed's operator loops were straight-line blocking code — fine when
//! every instance owned an OS thread, fatal on a fixed pool (a blocked
//! `recv` would park a worker and a handful of stalled instances could
//! deadlock the whole process). PR 2 restructured an instance as an
//! explicit state machine, but that machine *was* the join: algorithms and
//! scheduling were fused. [`OpTask`] is the scheduling skeleton alone —
//! resumable operand cursors, non-blocking output flushing, quantum
//! pacing, startup/fault injection, cancel and early-stop tokens,
//! exactly-once completion reporting — parameterized by the operator it
//! drives. Every channel interaction uses the non-blocking `try_*` forms,
//! and instead of waiting the task returns [`Step::Blocked`], yielding its
//! worker to some other instance — of this query or any other.
//!
//! Completion (stats or error) is reported exactly once on the query's
//! done channel, including when the task is dropped mid-flight (pool
//! shutdown, panic): the `Drop` impl reports non-completion so the query
//! coordinator can never hang waiting for a vanished instance.
//!
//! Two tokens shape teardown. *Cancellation* (client-raised) makes every
//! task report [`RelalgError::Canceled`]. *Early stop* (raised by a
//! satisfied [`LimitOp`](crate::operator::limit::LimitOp) through
//! [`QueryCtrl::stop_early`]) makes every *other* task of the query wind
//! down successfully — the pipeline stops because the answer is complete,
//! not because anything failed — while the satisfying task itself finishes
//! its output port normally so the client still receives the final batch
//! and `End`.

use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, TryRecvError};
use mj_relalg::column::ColumnBatch;
use mj_relalg::{EquiJoin, JoinAlgorithm, RelalgError, Result};
use mj_storage::scan_bucket_columns;

use crate::handle::QueryCtrl;
use crate::metrics::InstanceStats;
use crate::operator::op::{join_op, Absorb, InputMode, PhysicalOp};
use crate::operator::OutputPort;
use crate::sched::{Step, Task};
use crate::source::Source;
use crate::stream::{Batch, Msg};

/// Rows processed per scheduling step: long enough to amortize queue
/// round-trips, short enough that concurrent queries interleave finely.
const QUANTUM: usize = 512;

/// What a completed (or failed) instance sends to its query coordinator.
pub type DoneMsg = (usize, Result<InstanceStats>);

/// A resumable operand: the task-side view of a [`Source`], holding the
/// current columnar chunk plus an explicit row cursor so a blocked
/// instance picks up exactly where it stopped. Every variant reads
/// [`ColumnBatch`]es as they are — nothing is converted here.
enum Operand {
    /// A processor-local columnar fragment.
    Local { cols: Arc<ColumnBatch>, pos: usize },
    /// Materialized producer fragments filtered to this instance's bucket:
    /// each fragment is bucket-scanned ([`scan_bucket_columns`]) into one
    /// chunk holding exactly the surviving rows; a single-bucket read
    /// shares the stored fragment.
    Filtered {
        fragments: Vec<Arc<ColumnBatch>>,
        key_col: usize,
        bucket: usize,
        of: usize,
        frag: usize,
        cols: Option<Arc<ColumnBatch>>,
        pos: usize,
    },
    /// A live stream; `current` is a partially consumed in-flight batch.
    Stream {
        rx: Receiver<Msg>,
        remaining: usize,
        current: Option<Batch>,
        pos: usize,
    },
}

/// The state of an operand after [`Operand::ready`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Feed {
    /// A chunk with unconsumed rows is loaded ([`Operand::chunk`] is
    /// valid).
    Ready,
    /// A stream operand has nothing queued right now; yield and retry.
    Pending,
    /// The operand is fully consumed.
    Exhausted,
}

impl Operand {
    fn new(source: Source) -> Operand {
        match source {
            Source::Local(cols) => Operand::Local { cols, pos: 0 },
            Source::Filtered {
                fragments,
                key_col,
                bucket,
                of,
            } => Operand::Filtered {
                fragments,
                key_col,
                bucket,
                of,
                frag: 0,
                cols: None,
                pos: 0,
            },
            Source::Stream { rx, producers } => Operand::Stream {
                rx,
                remaining: producers,
                current: None,
                pos: 0,
            },
        }
    }

    fn is_stream(&self) -> bool {
        matches!(self, Operand::Stream { .. })
    }

    /// Ensures a chunk with unconsumed rows is loaded, without ever
    /// blocking. Spent chunks are released here (stream buffers return to
    /// their pool; bucket scans free their columns).
    fn ready(&mut self) -> Result<Feed> {
        match self {
            Operand::Local { cols, pos } => Ok(if *pos < cols.rows() {
                Feed::Ready
            } else {
                Feed::Exhausted
            }),
            Operand::Filtered {
                fragments,
                key_col,
                bucket,
                of,
                frag,
                cols,
                pos,
            } => loop {
                if let Some(c) = cols {
                    if *pos < c.rows() {
                        return Ok(Feed::Ready);
                    }
                    *cols = None;
                    *pos = 0;
                }
                if *frag >= fragments.len() {
                    return Ok(Feed::Exhausted);
                }
                let stored = &fragments[*frag];
                *cols = Some(if *of <= 1 {
                    stored.clone()
                } else {
                    Arc::new(scan_bucket_columns(stored, *key_col, *bucket, *of)?)
                });
                *frag += 1;
            },
            Operand::Stream {
                rx,
                remaining,
                current,
                pos,
            } => loop {
                if let Some(batch) = current {
                    if *pos < batch.len() {
                        return Ok(Feed::Ready);
                    }
                    // Dropping the batch returns its buffers to the pool.
                    *current = None;
                    *pos = 0;
                }
                if *remaining == 0 {
                    return Ok(Feed::Exhausted);
                }
                match rx.try_recv() {
                    Ok(Msg::Batch(b)) => {
                        *current = Some(b);
                        *pos = 0;
                    }
                    Ok(Msg::End) => *remaining -= 1,
                    Err(TryRecvError::Empty) => return Ok(Feed::Pending),
                    Err(TryRecvError::Disconnected) => {
                        return Err(RelalgError::InvalidPlan("stream closed before End".into()))
                    }
                }
            },
        }
    }

    /// The current chunk and its cursor. Only valid directly after
    /// [`ready`](Self::ready) returned [`Feed::Ready`].
    fn chunk(&self) -> (&ColumnBatch, usize) {
        match self {
            Operand::Local { cols, pos } => (cols, *pos),
            Operand::Filtered { cols, pos, .. } => (cols.as_ref().expect("ready chunk"), *pos),
            Operand::Stream { current, pos, .. } => {
                (current.as_ref().expect("ready chunk").columns(), *pos)
            }
        }
    }

    /// Advances the cursor past `n` consumed rows.
    fn consume(&mut self, n: usize) {
        match self {
            Operand::Local { pos, .. }
            | Operand::Filtered { pos, .. }
            | Operand::Stream { pos, .. } => *pos += n,
        }
    }
}

/// Execution phase of the instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Startup gate: fault injection and the configured startup cost.
    Start,
    /// Build-then-probe operators only: drain the (immediate) build side.
    Build,
    /// Feed operand tuples through the operator, flushing output batches.
    Feed,
    /// Drain held state, flush the output backlog, finalize the port.
    Finish,
    /// Completion has been reported; the task is inert.
    Done,
}

/// One operation-process instance as a schedulable [`Task`]: the generic
/// driver over any [`PhysicalOp`].
pub struct OpTask {
    op: Box<dyn PhysicalOp>,
    operands: Vec<Operand>,
    output: OutputPort,
    /// Result rows awaiting emission, column-wise (shared with the
    /// operator, which appends; the port drains).
    out: ColumnBatch,
    /// Emission cursor into `out` (or `resolved`, when a resolver is
    /// attached) for resumable routing.
    out_pos: usize,
    /// Late-materialization resolver: set only on the root join's tasks
    /// of a late plan. When present, `out` holds narrow (ref-carrying)
    /// rows which are resolved into `resolved` before emission, so the
    /// output port only ever sees the original root schema.
    resolver: Option<Arc<crate::late::Resolver>>,
    /// Resolved rows awaiting emission (original root schema).
    resolved: ColumnBatch,
    /// Per-ref-column row-index scratch for the resolver.
    ref_scratch: Vec<Vec<u32>>,
    batch: usize,
    phase: Phase,
    /// Which side the interleaved feed polls first next step (fairness).
    turn: usize,
    /// `finish` has been called on the operator (exactly-once guard).
    drained: bool,
    /// This task declared its output complete (satisfied LIMIT): it keeps
    /// finishing even though the early-stop token it raised is set.
    satisfied: bool,
    stats: InstanceStats,
    op_id: usize,
    instance: usize,
    done_tx: Sender<DoneMsg>,
    startup_deadline: Option<Instant>,
    fail: bool,
    reported: bool,
    /// The query's cancel/early-stop/abort tokens; observed at every step.
    ctrl: Option<Arc<QueryCtrl>>,
    /// Bytes of operator state currently charged against the query's
    /// memory budget (synced to `op.est_bytes()` after every step,
    /// credited back on completion).
    charged: u64,
    /// Bytes charged by an injected allocation spike (credited back on
    /// completion so sibling queries see clean global accounting).
    #[cfg(feature = "faults")]
    spiked: u64,
    /// Armed fault-injection point, if any (test harness).
    #[cfg(feature = "faults")]
    fault: Option<crate::faults::ArmedFault>,
}

impl OpTask {
    /// Builds the task driving `op` over `sources` (one or two operands).
    /// `startup` delays the instance's first progress (the paper's
    /// per-process startup cost); `fail` injects a deterministic fault for
    /// teardown tests.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        op: Box<dyn PhysicalOp>,
        sources: Vec<Source>,
        output: OutputPort,
        batch: usize,
        op_id: usize,
        instance: usize,
        done_tx: Sender<DoneMsg>,
        startup: Option<Duration>,
        fail: bool,
        ctrl: Option<Arc<QueryCtrl>>,
    ) -> OpTask {
        debug_assert!(
            (1..=2).contains(&sources.len()),
            "operators take one or two operands"
        );
        OpTask {
            op,
            operands: sources.into_iter().map(Operand::new).collect(),
            output,
            out: ColumnBatch::shapeless(),
            out_pos: 0,
            resolver: None,
            resolved: ColumnBatch::shapeless(),
            ref_scratch: Vec::new(),
            batch,
            phase: Phase::Start,
            turn: instance, // stagger polling order across instances
            drained: false,
            satisfied: false,
            stats: InstanceStats::default(),
            op_id,
            instance,
            done_tx,
            startup_deadline: startup.map(|d| Instant::now() + d),
            fail,
            reported: false,
            ctrl,
            charged: 0,
            #[cfg(feature = "faults")]
            spiked: 0,
            #[cfg(feature = "faults")]
            fault: None,
        }
    }

    /// Attaches the late-materialization resolver (root join tasks of a
    /// late plan only): every batch is resolved to the original root
    /// schema before it reaches the output port.
    pub(crate) fn set_resolver(&mut self, resolver: Arc<crate::late::Resolver>) {
        self.resolved = ColumnBatch::with_capacity(resolver.layout(), self.batch);
        self.ref_scratch = vec![Vec::new(); resolver.scratch_slots()];
        self.resolver = Some(resolver);
    }

    /// Arms a resolved fault-injection point on this task (test harness;
    /// only available with the `faults` cargo feature).
    #[cfg(feature = "faults")]
    pub fn arm_fault(&mut self, fault: Option<crate::faults::ArmedFault>) {
        self.fault = fault;
    }

    /// Convenience constructor for a hash-join task — the two join
    /// algorithms expressed through the generic driver.
    #[allow(clippy::too_many_arguments)]
    pub fn join(
        algorithm: JoinAlgorithm,
        spec: EquiJoin,
        left: Source,
        right: Source,
        output: OutputPort,
        batch: usize,
        op_id: usize,
        instance: usize,
        done_tx: Sender<DoneMsg>,
        startup: Option<Duration>,
        fail: bool,
        ctrl: Option<Arc<QueryCtrl>>,
    ) -> OpTask {
        OpTask::new(
            join_op(algorithm, spec),
            vec![left, right],
            output,
            batch,
            op_id,
            instance,
            done_tx,
            startup,
            fail,
            ctrl,
        )
    }

    fn report(&mut self, result: Result<InstanceStats>) {
        if !self.reported {
            self.reported = true;
            self.phase = Phase::Done;
            self.release_budget();
            let _ = self.done_tx.send((self.op_id, result));
        }
    }

    /// Returns every byte this instance charged against the query's memory
    /// budget (operator state plus injected spikes). Called exactly once,
    /// from `report`.
    fn release_budget(&mut self) {
        if let Some(ctrl) = &self.ctrl {
            #[allow(unused_mut)]
            let mut total = self.charged;
            #[cfg(feature = "faults")]
            {
                total += self.spiked;
                self.spiked = 0;
            }
            if total > 0 {
                ctrl.budget().credit(total);
            }
        }
        self.charged = 0;
    }

    /// Syncs the budget charge to the operator's current state size and
    /// reports whether the query's budget is now exhausted.
    fn sync_budget(&mut self) -> bool {
        let Some(ctrl) = &self.ctrl else {
            return false;
        };
        let budget = ctrl.budget();
        let held = self.op.est_bytes() as u64;
        match held.cmp(&self.charged) {
            std::cmp::Ordering::Greater => {
                budget.charge(held - self.charged);
            }
            std::cmp::Ordering::Less => budget.credit(self.charged - held),
            std::cmp::Ordering::Equal => {}
        }
        self.charged = held;
        budget.is_exhausted()
    }

    /// Emits rows `out_pos..` of `out`; `Ok(false)` means the output is
    /// backpressured and the task should yield. `tuples_out` counts rows
    /// here — *after* the operator's selection vectors dropped
    /// non-qualifying rows — so the metric reports rows actually produced,
    /// not rows scanned.
    fn flush_out(&mut self) -> Result<bool> {
        if let Some(resolver) = &self.resolver {
            // Late materialization: resolve the narrow backlog into the
            // original schema, then emit the resolved batch. `out` is
            // always fully absorbed here, so between flushes at most one
            // quantum of narrow rows accumulates — memory stays bounded
            // even under backpressure.
            if !self.out.is_empty() {
                resolver.resolve_into(&self.out, &mut self.ref_scratch, &mut self.resolved)?;
                self.out.clear();
            }
            let (emitted, done) = self
                .output
                .try_emit(&mut self.resolved, &mut self.out_pos)?;
            self.stats.tuples_out += emitted;
            return Ok(done);
        }
        let (emitted, done) = self.output.try_emit(&mut self.out, &mut self.out_pos)?;
        self.stats.tuples_out += emitted;
        Ok(done)
    }

    /// The build side index, if the operator has a build phase.
    fn build_side(&self) -> Option<usize> {
        match self.op.input_mode() {
            InputMode::BuildThenProbe { build } if self.operands.len() == 2 => Some(build),
            _ => None,
        }
    }

    fn step_start(&mut self) -> Result<Step> {
        if self.fail {
            return Err(RelalgError::InvalidPlan(format!(
                "injected failure at op {} instance {}",
                self.op_id, self.instance
            )));
        }
        if let Some(deadline) = self.startup_deadline {
            if Instant::now() < deadline {
                return Ok(Step::Blocked);
            }
        }
        self.phase = if self.build_side().is_some() {
            Phase::Build
        } else {
            Phase::Feed
        };
        Ok(Step::Progress)
    }

    /// Build phase: drain the immediate build side into the operator in
    /// chunk-sized bulk inserts. No output is produced, so this never
    /// blocks — it only paces itself by the quantum.
    fn step_build(&mut self) -> Result<Step> {
        let build = self.build_side().expect("build phase implies a build side");
        if self.operands[build].is_stream() {
            return Err(RelalgError::InvalidPlan(format!(
                "{} cannot stream its build operand",
                self.op.kind()
            )));
        }
        let mut budget = QUANTUM;
        while budget > 0 {
            match self.operands[build].ready()? {
                Feed::Ready => {
                    let take;
                    {
                        let (cols, pos) = self.operands[build].chunk();
                        let end = (pos + budget).min(cols.rows());
                        take = end - pos;
                        self.op.build_batch(cols, pos..end)?;
                    }
                    self.operands[build].consume(take);
                    self.stats.tuples_in[build] += take as u64;
                    budget -= take;
                }
                Feed::Exhausted => {
                    self.op.finish_build();
                    self.phase = Phase::Feed;
                    return Ok(Step::Progress);
                }
                Feed::Pending => unreachable!("immediate operands never pend"),
            }
        }
        Ok(Step::Progress)
    }

    /// The common feed loop: absorb a chunk range from whichever operand
    /// has rows ready, and flush full output batches.
    fn step_feed(&mut self) -> Result<Step> {
        if !self.flush_out()? {
            return Ok(Step::Blocked);
        }
        let mut moved = false;
        let mut budget = QUANTUM;
        while budget > 0 {
            // Polling order this iteration: single-input operators and
            // build-then-probe feeds have exactly one live side; the
            // interleaved two-input feed alternates, preferring `turn` so
            // two live streams are drained fairly.
            let sides: [usize; 2] = if self.operands.len() == 1 {
                [0, 0]
            } else {
                match self.op.input_mode() {
                    InputMode::BuildThenProbe { build } => [1 - build, 1 - build],
                    InputMode::Interleaved => [self.turn % 2, (self.turn + 1) % 2],
                }
            };
            self.turn = self.turn.wrapping_add(1);
            let mut chosen = None;
            let mut exhausted = 0usize;
            for &side in if sides[0] == sides[1] {
                &sides[..1]
            } else {
                &sides[..]
            } {
                match self.operands[side].ready()? {
                    Feed::Ready => {
                        chosen = Some(side);
                        break;
                    }
                    Feed::Exhausted => exhausted += 1,
                    Feed::Pending => {}
                }
            }
            let tried = if sides[0] == sides[1] { 1 } else { 2 };
            match chosen {
                Some(side) => {
                    let take;
                    let verdict;
                    {
                        let (cols, pos) = self.operands[side].chunk();
                        let end = (pos + budget).min(cols.rows());
                        take = end - pos;
                        verdict = self.op.absorb_batch(side, cols, pos..end, &mut self.out)?;
                    }
                    self.operands[side].consume(take);
                    self.stats.tuples_in[side] += take as u64;
                    budget -= take;
                    moved = true;
                    if verdict == Absorb::Satisfied {
                        // The output is complete: stop feeding, tell the
                        // rest of the query to wind down, and finish this
                        // instance's port normally.
                        self.satisfied = true;
                        if let Some(ctrl) = &self.ctrl {
                            ctrl.stop_early();
                        }
                        self.phase = Phase::Finish;
                        return Ok(Step::Progress);
                    }
                    if self.out.rows() >= self.batch && !self.flush_out()? {
                        // Output backpressure mid-quantum: we did move
                        // rows, so keep our rotation slot as Progress.
                        return Ok(Step::Progress);
                    }
                }
                None if exhausted == tried => {
                    self.phase = Phase::Finish;
                    return Ok(Step::Progress);
                }
                None => {
                    // At least one live side is pending and none has data.
                    return Ok(if moved { Step::Progress } else { Step::Blocked });
                }
            }
        }
        Ok(Step::Progress)
    }

    fn step_finish(&mut self) -> Result<Step> {
        if !self.drained {
            // Exactly-once drain of held state (aggregation results);
            // flushing below is resumable across backpressure.
            self.op.finish(&mut self.out)?;
            self.drained = true;
        }
        if !self.flush_out()? {
            return Ok(Step::Blocked);
        }
        if !self.output.try_finish()? {
            return Ok(Step::Blocked);
        }
        self.stats.table_bytes = self.op.est_bytes() as u64;
        let stats = self.stats;
        self.report(Ok(stats));
        Ok(Step::Done)
    }

    fn try_step(&mut self) -> Result<Step> {
        #[cfg(feature = "faults")]
        if let Some(fault) = self.fault.as_mut() {
            if fault.stalling() {
                return Ok(Step::Blocked);
            }
            match fault.fire(self.stats.steps) {
                Some(crate::faults::FaultKind::Panic) => panic!(
                    "injected panic at op {} instance {}",
                    self.op_id, self.instance
                ),
                Some(crate::faults::FaultKind::AllocSpike { bytes }) => {
                    if let Some(ctrl) = &self.ctrl {
                        // Raise the abort immediately: the spike may land on
                        // this task's final step, after which no poll of the
                        // budget would run before the query completes.
                        if !ctrl.budget().charge(bytes) {
                            ctrl.abort(ctrl.budget().exhausted_error());
                        }
                        self.spiked += bytes;
                    }
                }
                Some(crate::faults::FaultKind::Stall) => return Ok(Step::Blocked),
                None => {}
            }
        }
        match self.phase {
            Phase::Start => self.step_start(),
            Phase::Build => self.step_build(),
            Phase::Feed => self.step_feed(),
            Phase::Finish => self.step_finish(),
            Phase::Done => Ok(Step::Done),
        }
    }
}

impl Task for OpTask {
    fn step(&mut self) -> Step {
        self.stats.steps += 1;
        if self.phase != Phase::Done {
            if let Some(ctrl) = &self.ctrl {
                // Cancellation preempts whatever phase the instance is in:
                // report once and become inert, releasing endpoints on
                // drop.
                if ctrl.is_canceled() {
                    self.report(Err(RelalgError::Canceled));
                    return Step::Done;
                }
                // Early stop (a satisfied LIMIT downstream) winds every
                // *other* task down successfully; the satisfying task
                // keeps finishing its port so the client sees End.
                if ctrl.early_stopped() && !self.satisfied {
                    let stats = self.stats;
                    self.report(Ok(stats));
                    return Step::Done;
                }
                // A guardrail abort (deadline, budget, contained panic,
                // stall) is a cancel with a typed reason: every task of
                // the query reports that reason and winds down.
                if let Some(reason) = ctrl.abort_error() {
                    self.report(Err(reason));
                    return Step::Done;
                }
                // Deadline enforcement at quantum granularity: the first
                // instance past the deadline raises the abort for the
                // whole query.
                if ctrl.deadline_exceeded() {
                    ctrl.abort(RelalgError::DeadlineExceeded);
                    self.report(Err(RelalgError::DeadlineExceeded));
                    return Step::Done;
                }
            }
        }
        // Contain panics at the task boundary: a panicking operator must
        // unwind its own query, not the worker thread or the process.
        // `AssertUnwindSafe` is sound here because on panic the task is
        // immediately made inert (reported + `Phase::Done`), so its
        // possibly broken operator state is never touched again.
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.try_step()));
        let stepped = match stepped {
            Ok(result) => result,
            Err(payload) => {
                let reason = RelalgError::Internal(panic_message(payload.as_ref()));
                if let Some(ctrl) = &self.ctrl {
                    ctrl.note_panic();
                    ctrl.abort(reason.clone());
                }
                self.report(Err(reason));
                return Step::Done;
            }
        };
        match stepped {
            Ok(step) => {
                if step == Step::Blocked {
                    self.stats.blocked += 1;
                } else if step == Step::Progress {
                    if let Some(ctrl) = &self.ctrl {
                        ctrl.note_progress();
                    }
                }
                // Memory guardrail: keep the budget synced to the
                // operator's held state (hash tables, aggregation groups)
                // and abort this query — engine intact — once its cap is
                // crossed.
                if self.phase != Phase::Done && self.sync_budget() {
                    if let Some(ctrl) = &self.ctrl {
                        let reason = ctrl.budget().exhausted_error();
                        ctrl.abort(reason.clone());
                        self.report(Err(reason));
                        return Step::Done;
                    }
                }
                step
            }
            Err(e) => {
                // After an early stop, teardown races (consumers dropping
                // receivers mid-send) are expected, not failures.
                let early = self
                    .ctrl
                    .as_ref()
                    .map(|c| c.early_stopped() && !c.is_canceled())
                    .unwrap_or(false);
                if early {
                    let stats = self.stats;
                    self.report(Ok(stats));
                } else {
                    // Reporting drops nothing yet; the scheduler drops the
                    // task right after, releasing its channel endpoints so
                    // upstream and downstream instances unwind too.
                    self.report(Err(e));
                }
                Step::Done
            }
        }
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".into()
    }
}

impl Drop for OpTask {
    fn drop(&mut self) {
        // Dropped before completion (pool shutdown or a panic inside
        // step): tell the coordinator so it never hangs on a vanished
        // instance.
        if !self.reported {
            let op = self.op_id;
            let instance = self.instance;
            self.report(Err(RelalgError::InvalidPlan(format!(
                "op {op} instance {instance} dropped before completing"
            ))));
        }
    }
}

/// Drives a task to completion on the current thread (the dedicated-thread
/// path used by unit tests and benches). Yields, then naps, while blocked —
/// the counterpart of the worker pool's backoff.
pub fn drive_blocking(mut task: OpTask) -> Step {
    let mut blocked = 0u32;
    loop {
        match task.step() {
            Step::Done => return Step::Done,
            Step::Progress => blocked = 0,
            Step::Blocked => {
                blocked += 1;
                if blocked < 64 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }
}
