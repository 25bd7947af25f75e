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
//! pacing, fault injection, cancel and early-stop tokens,
//! exactly-once completion reporting — parameterized by the operator it
//! drives. Every channel interaction uses the non-blocking `try_*` forms,
//! and instead of waiting the task returns [`Step::Blocked`], yielding its
//! worker to some other instance — of this query or any other.
//!
//! A task runs one operation *process*, which is usually one operator —
//! and, where the plan fused sub-grain operations into their consumer
//! (`OperandSource::Fused`), several: the [`TaskMember`]s of a process
//! group are evaluated one after another, each member's complete output
//! becoming an in-memory operand of a later member, and only the last (the
//! group's root) emits through the task's [`OutputPort`]. Nothing between
//! members touches a channel, the fragment store or the scheduler; the task
//! still yields at least every `QUANTUM` (512) rows of whichever member it is
//! in, so cancel, deadline, abort and early stop are observed as for any
//! other task, and intermediates are charged to the query's budget like
//! hash tables are.
//!
//! Completion (stats or error) is reported exactly once *per member*
//! through the query's [`Reporter`], including when the task is dropped
//! mid-flight (pool shutdown, panic): the `Drop` impl reports
//! non-completion, so a query never waits for a vanished instance.
//!
//! Two tokens shape teardown. *Cancellation* (client-raised) makes every
//! task report [`RelalgError::Canceled`]. *Early stop* (raised by a
//! satisfied [`LimitOp`](crate::operator::limit::LimitOp) through
//! [`QueryCtrl::stop_early`]) makes every *other* task of the query wind
//! down successfully — the pipeline stops because the answer is complete,
//! not because anything failed — while the satisfying task itself finishes
//! its output port normally so the client still receives the final batch
//! and `End`.

use std::collections::VecDeque;
use std::sync::Arc;

use crossbeam::channel::{Receiver, TryRecvError};
use mj_relalg::column::ColumnBatch;
use mj_relalg::{RelalgError, Result};
use mj_storage::scan_bucket_columns;

use crate::handle::QueryCtrl;
use crate::metrics::InstanceStats;
use crate::operator::op::{Absorb, InputMode, PhysicalOp};
use crate::operator::OutputPort;
use crate::sched::{Step, Task};
use crate::source::Source;
use crate::stream::{Batch, Msg};

/// Rows processed per scheduling step: long enough to amortize queue
/// round-trips, short enough that concurrent queries interleave finely.
const QUANTUM: usize = 512;

/// What a completed (or failed) member reports to its query's coordinator:
/// its op id and its statistics.
pub type DoneMsg = (usize, Result<InstanceStats>);

/// Where a task's completion reports go. The engine's reporter runs the
/// query's coordination on the reporting thread — the last report of a query
/// concludes it there, no thread waits for it — so a task reports only when
/// it yields, never while it holds anything; unit tests collect reports
/// from a channel (`Sender::into`).
#[derive(Clone)]
pub struct Reporter(Arc<dyn Fn(DoneMsg) + Send + Sync>);

impl Reporter {
    /// A reporter that hands every report to `report`, on the thread that
    /// makes it.
    pub fn new(report: impl Fn(DoneMsg) + Send + Sync + 'static) -> Reporter {
        Reporter(Arc::new(report))
    }
}

#[cfg(test)]
impl From<std::sync::mpsc::Sender<DoneMsg>> for Reporter {
    fn from(tx: std::sync::mpsc::Sender<DoneMsg>) -> Reporter {
        Reporter::new(move |report| {
            let _ = tx.send(report);
        })
    }
}

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

/// Execution phase of the instance; `Build` to `Finish` repeat per member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Not yet begun: the first step starts the first member (where an
    /// injected failure surfaces).
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

/// One operator of a task: what it computes, its operand cursors, and
/// where its output goes. A task holds one per member of its process group
/// — exactly one, unless the plan fused operations.
pub struct TaskMember {
    op: Box<dyn PhysicalOp>,
    operands: Vec<Operand>,
    /// `Some((op id, side))`: the complete output becomes that operand of
    /// a later member of the same task. `None`: the root member, emitting
    /// through the task's output port.
    feeds: Option<(usize, usize)>,
    /// Bytes of earlier members' results this member holds as operands.
    handed_bytes: u64,
    stats: InstanceStats,
    op_id: usize,
    /// Which side the interleaved feed polls first next step (fairness).
    turn: usize,
    /// `finish` has been called on the operator (exactly-once guard).
    drained: bool,
    fail: bool,
    /// Armed fault-injection point, if any (test harness).
    #[cfg(feature = "faults")]
    fault: Option<crate::faults::ArmedFault>,
}

impl TaskMember {
    /// A member driving `op` (plan op `op_id`) over one or two operands.
    /// A `None` source is the output of an earlier member of the same
    /// task, handed over when that member finishes. `fail` injects a
    /// deterministic fault for teardown tests.
    pub fn new(
        op: Box<dyn PhysicalOp>,
        sources: Vec<Option<Source>>,
        op_id: usize,
        fail: bool,
    ) -> TaskMember {
        debug_assert!(
            (1..=2).contains(&sources.len()),
            "operators take one or two operands"
        );
        let awaited = || Source::Local(Arc::new(ColumnBatch::shapeless()));
        TaskMember {
            op,
            operands: sources
                .into_iter()
                .map(|s| Operand::new(s.unwrap_or_else(awaited)))
                .collect(),
            feeds: None,
            handed_bytes: 0,
            stats: InstanceStats::default(),
            op_id,
            turn: 0,
            drained: false,
            fail,
            #[cfg(feature = "faults")]
            fault: None,
        }
    }

    /// Hands this member's complete output to operand `side` of the later
    /// member evaluating plan op `consumer`, instead of the output port.
    pub fn feeding(mut self, consumer: usize, side: usize) -> TaskMember {
        self.feeds = Some((consumer, side));
        self
    }

    /// Arms a resolved fault-injection point on this member (test harness;
    /// only available with the `faults` cargo feature).
    #[cfg(feature = "faults")]
    pub fn arm_fault(&mut self, fault: Option<crate::faults::ArmedFault>) {
        self.fault = fault;
    }

    /// The build side index, if the operator has a build phase.
    fn build_side(&self) -> Option<usize> {
        match self.op.input_mode() {
            InputMode::BuildThenProbe { build } if self.operands.len() == 2 => Some(build),
            _ => None,
        }
    }
}

/// One operation process as a schedulable [`Task`]: the generic driver
/// over the [`PhysicalOp`]s of its members.
pub struct OpTask {
    /// The members still to evaluate, in order; the front one is running.
    /// A finished member reports and is dropped, hash table and all.
    members: VecDeque<TaskMember>,
    output: OutputPort,
    /// Result rows of the running member, column-wise (shared with the
    /// operator, which appends). The root member's are drained by the
    /// port between quanta; any other member's accumulate until it
    /// finishes and hands them over whole.
    out: ColumnBatch,
    /// Emission cursor into `out` (or `resolved`, when a resolver is
    /// attached) for resumable routing.
    out_pos: usize,
    /// Late-materialization resolver: set only on the root join's tasks
    /// of a late plan. When present, the root member's `out` holds narrow
    /// (ref-carrying) rows which are resolved into `resolved` before
    /// emission, so the output port only ever sees the original root
    /// schema.
    resolver: Option<Arc<crate::late::Resolver>>,
    /// Resolved rows awaiting emission (original root schema).
    resolved: ColumnBatch,
    /// Per-ref-column row-index scratch for the resolver.
    ref_scratch: Vec<Vec<u32>>,
    batch: usize,
    phase: Phase,
    /// This task declared its output complete (satisfied LIMIT): it keeps
    /// finishing even though the early-stop token it raised is set.
    satisfied: bool,
    instance: usize,
    reporter: Reporter,
    /// Completions of members that finished during the current step.
    reports: Vec<DoneMsg>,
    /// The query's cancel/early-stop/abort tokens; observed at every step.
    ctrl: Option<Arc<QueryCtrl>>,
    /// Bytes of task state currently charged against the query's memory
    /// budget: the running operator's ([`PhysicalOp::est_bytes`]) plus the
    /// results members have handed over or are still accumulating. Synced
    /// after every step, credited back on completion.
    charged: u64,
    /// Bytes charged by an injected allocation spike (credited back on
    /// completion so sibling queries see clean global accounting).
    #[cfg(feature = "faults")]
    spiked: u64,
}

impl OpTask {
    /// Builds the task evaluating `members` in order; the last one is the
    /// root and owns `output`.
    pub fn new(
        members: Vec<TaskMember>,
        output: OutputPort,
        batch: usize,
        instance: usize,
        reporter: Reporter,
        ctrl: Option<Arc<QueryCtrl>>,
    ) -> OpTask {
        debug_assert!(
            members.split_last().is_some_and(|(root, rest)| {
                root.feeds.is_none() && rest.iter().all(|m| m.feeds.is_some())
            }),
            "exactly the last member emits through the port"
        );
        let mut members: VecDeque<TaskMember> = members.into();
        for m in &mut members {
            m.turn = instance; // stagger polling order across instances
        }
        OpTask {
            members,
            output,
            out: ColumnBatch::shapeless(),
            out_pos: 0,
            resolver: None,
            resolved: ColumnBatch::shapeless(),
            ref_scratch: Vec::new(),
            batch,
            phase: Phase::Start,
            satisfied: false,
            instance,
            reporter,
            reports: Vec::new(),
            ctrl,
            charged: 0,
            #[cfg(feature = "faults")]
            spiked: 0,
        }
    }

    /// Attaches the late-materialization resolver (root join tasks of a
    /// late plan only): every batch the root member emits is resolved to
    /// the original root schema before it reaches the output port.
    pub(crate) fn set_resolver(&mut self, resolver: Arc<crate::late::Resolver>) {
        self.resolved = ColumnBatch::with_capacity(resolver.layout(), self.batch);
        self.ref_scratch = vec![Vec::new(); resolver.scratch_slots()];
        self.resolver = Some(resolver);
    }

    /// The running member. Only valid before the task is done.
    fn member(&mut self) -> &mut TaskMember {
        self.members.front_mut().expect("a live task has a member")
    }

    /// Records the running member's completion and drops it. The report
    /// goes out when the task next yields ([`send_reports`](Self::send_reports)):
    /// a report runs the query's coordination on this thread — it may
    /// submit the next wave of tasks, or conclude the query — and that
    /// belongs between quanta, not inside one.
    fn report_member(&mut self, result: Result<InstanceStats>) {
        if let Some(m) = self.members.pop_front() {
            self.reports.push((m.op_id, result));
        }
    }

    /// Sends the reports of the members that finished during this step.
    fn send_reports(&mut self) {
        for report in self.reports.drain(..) {
            (self.reporter.0)(report);
        }
    }

    /// Ends the task: every member that has not reported yet reports
    /// `result` (with its own stats so far, when `result` is a success),
    /// and the task becomes inert.
    fn report(&mut self, result: Result<()>) {
        while let Some(m) = self.members.front() {
            let stats = m.stats;
            self.report_member(result.clone().map(|()| stats));
        }
        self.phase = Phase::Done;
        self.release_budget();
        self.send_reports();
    }

    /// Returns every byte this task charged against the query's memory
    /// budget (operator state, intermediates, injected spikes).
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

    /// Syncs the budget charge to the task's current state size — the
    /// running operator's, the results waiting in later members' operands,
    /// and what a non-root member has accumulated so far — and reports
    /// whether the query's budget is now exhausted.
    fn sync_budget(&mut self) -> bool {
        let Some(ctrl) = &self.ctrl else {
            return false;
        };
        let budget = ctrl.budget();
        let mut held: u64 = self.members.iter().map(|m| m.handed_bytes).sum();
        if let Some(m) = self.members.front() {
            held += m.op.est_bytes() as u64;
            if m.feeds.is_some() {
                held += self.out.est_bytes();
            }
        }
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

    /// Emits rows `out_pos..` of the root member's `out`; `Ok(false)`
    /// means the output is backpressured and the task should yield.
    /// `tuples_out` counts rows here — *after* the operator's selection
    /// vectors dropped non-qualifying rows — so the metric reports rows
    /// actually produced, not rows scanned.
    fn flush_out(&mut self) -> Result<bool> {
        if self.members.len() > 1 {
            // Not the root: the output stays here until the member is done.
            return Ok(true);
        }
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
            self.member().stats.tuples_out += emitted;
            return Ok(done);
        }
        let (emitted, done) = self.output.try_emit(&mut self.out, &mut self.out_pos)?;
        self.member().stats.tuples_out += emitted;
        Ok(done)
    }

    /// Points the task at its (new) front member. The phase functions
    /// below return `None` when the task should simply carry on in the
    /// same step, and `Some(step)` when it must yield.
    fn begin_member(&mut self) -> Result<()> {
        let instance = self.instance;
        let m = self.member();
        if m.fail {
            return Err(RelalgError::InvalidPlan(format!(
                "injected failure at op {} instance {instance}",
                m.op_id
            )));
        }
        self.phase = if m.build_side().is_some() {
            Phase::Build
        } else {
            Phase::Feed
        };
        Ok(())
    }

    /// Build phase: drain the immediate build side into the operator in
    /// chunk-sized bulk inserts. No output is produced, so this never
    /// blocks — it only paces itself by the quantum.
    fn step_build(&mut self, budget: &mut usize) -> Result<Option<Step>> {
        let m = self.member();
        let build = m.build_side().expect("build phase implies a build side");
        if m.operands[build].is_stream() {
            return Err(RelalgError::InvalidPlan(format!(
                "{} cannot stream its build operand",
                m.op.kind()
            )));
        }
        while *budget > 0 {
            match m.operands[build].ready()? {
                Feed::Ready => {
                    let take;
                    {
                        let (cols, pos) = m.operands[build].chunk();
                        let end = (pos + *budget).min(cols.rows());
                        take = end - pos;
                        m.op.build_batch(cols, pos..end)?;
                    }
                    m.operands[build].consume(take);
                    m.stats.tuples_in[build] += take as u64;
                    *budget -= take;
                }
                Feed::Exhausted => {
                    m.op.finish_build();
                    self.phase = Phase::Feed;
                    return Ok(None);
                }
                Feed::Pending => unreachable!("immediate operands never pend"),
            }
        }
        Ok(Some(Step::Progress))
    }

    /// The common feed loop: absorb a chunk range from whichever operand
    /// has rows ready, and flush full output batches.
    fn step_feed(&mut self, budget: &mut usize) -> Result<Option<Step>> {
        if !self.flush_out()? {
            return Ok(Some(Step::Blocked));
        }
        let mut moved = false;
        while *budget > 0 {
            let m = self.members.front_mut().expect("a live task has a member");
            // Polling order this iteration: single-input operators and
            // build-then-probe feeds have exactly one live side; the
            // interleaved two-input feed alternates, preferring `turn` so
            // two live streams are drained fairly.
            let sides: [usize; 2] = if m.operands.len() == 1 {
                [0, 0]
            } else {
                match m.op.input_mode() {
                    InputMode::BuildThenProbe { build } => [1 - build, 1 - build],
                    InputMode::Interleaved => [m.turn % 2, (m.turn + 1) % 2],
                }
            };
            m.turn = m.turn.wrapping_add(1);
            let mut chosen = None;
            let mut exhausted = 0usize;
            for &side in if sides[0] == sides[1] {
                &sides[..1]
            } else {
                &sides[..]
            } {
                match m.operands[side].ready()? {
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
                        let (cols, pos) = m.operands[side].chunk();
                        let end = (pos + *budget).min(cols.rows());
                        take = end - pos;
                        verdict = m.op.absorb_batch(side, cols, pos..end, &mut self.out)?;
                    }
                    m.operands[side].consume(take);
                    m.stats.tuples_in[side] += take as u64;
                    *budget -= take;
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
                        return Ok(None);
                    }
                    if self.out.rows() >= self.batch && !self.flush_out()? {
                        // Output backpressure mid-quantum: we did move
                        // rows, so keep our rotation slot as Progress.
                        return Ok(Some(Step::Progress));
                    }
                }
                None if exhausted == tried => {
                    self.phase = Phase::Finish;
                    return Ok(None);
                }
                None => {
                    // At least one live side is pending and none has data.
                    return Ok(Some(if moved { Step::Progress } else { Step::Blocked }));
                }
            }
        }
        Ok(Some(Step::Progress))
    }

    fn step_finish(&mut self) -> Result<Option<Step>> {
        let m = self.members.front_mut().expect("a live task has a member");
        if !m.drained {
            // Exactly-once drain of held state (aggregation results);
            // flushing below is resumable across backpressure.
            m.op.finish(&mut self.out)?;
            m.drained = true;
        }
        m.stats.table_bytes = m.op.est_bytes() as u64;
        if let Some((consumer, side)) = m.feeds {
            // Hand the complete result to the member that reads it: no
            // channel, no store, no wake — and this member's table is gone
            // before the next one builds its own.
            let result = Arc::new(std::mem::replace(&mut self.out, ColumnBatch::shapeless()));
            m.stats.tuples_out = result.rows() as u64;
            let stats = m.stats;
            self.report_member(Ok(stats));
            let reader = self
                .members
                .iter_mut()
                .find(|m| m.op_id == consumer)
                .ok_or_else(|| {
                    RelalgError::InvalidPlan(format!("no later member evaluates op {consumer}"))
                })?;
            reader.handed_bytes += result.est_bytes();
            reader.operands[side] = Operand::new(Source::Local(result));
            self.begin_member()?;
            // The next member runs in what is left of this step: its first.
            #[cfg(feature = "faults")]
            if let Some(parked) = self.poll_fault() {
                return Ok(Some(parked));
            }
            return Ok(None);
        }
        if !self.flush_out()? {
            return Ok(Some(Step::Blocked));
        }
        if !self.output.try_finish()? {
            return Ok(Some(Step::Blocked));
        }
        self.report(Ok(()));
        Ok(Some(Step::Done))
    }

    /// Polls the running member's armed fault, once per scheduling step it
    /// runs in: `Some(Blocked)` parks the task (a fired stall).
    #[cfg(feature = "faults")]
    fn poll_fault(&mut self) -> Option<Step> {
        let (instance, m) = (self.instance, self.member());
        let op_id = m.op_id;
        let fault = m.fault.as_mut()?;
        if fault.stalling() {
            return Some(Step::Blocked);
        }
        match fault.fire()? {
            crate::faults::FaultKind::Panic => {
                panic!("injected panic at op {op_id} instance {instance}")
            }
            crate::faults::FaultKind::AllocSpike { bytes } => {
                if let Some(ctrl) = &self.ctrl {
                    // Raise the abort immediately: the spike may land on
                    // this task's final step, after which no poll of the
                    // budget would run before the query completes.
                    if !ctrl.budget().charge(bytes) {
                        ctrl.abort(ctrl.budget().exhausted_error());
                    }
                    self.spiked += bytes;
                }
                None
            }
            crate::faults::FaultKind::Stall => Some(Step::Blocked),
        }
    }

    fn try_step(&mut self) -> Result<Step> {
        #[cfg(feature = "faults")]
        if let Some(parked) = self.poll_fault() {
            return Ok(parked);
        }
        // One quantum of rows across however many phases — and members —
        // it reaches: a phase or member boundary is no reason to go back
        // through the run queue.
        let mut budget = QUANTUM;
        let mut advanced = false;
        loop {
            let step = match self.phase {
                Phase::Start => {
                    self.begin_member()?;
                    None
                }
                Phase::Build => self.step_build(&mut budget)?,
                Phase::Feed => self.step_feed(&mut budget)?,
                Phase::Finish => self.step_finish()?,
                Phase::Done => Some(Step::Done),
            };
            match step {
                None => advanced = true,
                Some(Step::Blocked) if advanced => return Ok(Step::Progress),
                Some(step) => return Ok(step),
            }
        }
    }
}

impl Task for OpTask {
    fn step(&mut self) -> Step {
        let step = self.run_step();
        self.send_reports();
        step
    }
}

impl OpTask {
    /// One scheduling step: observe the query's tokens, run a quantum,
    /// contain panics, sync the memory budget.
    fn run_step(&mut self) -> Step {
        if self.phase != Phase::Done {
            self.member().stats.steps += 1;
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
                    self.report(Ok(()));
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
                    self.member().stats.blocked += 1;
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
                    self.report(Ok(()));
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
        // step): tell the coordinator so the query never waits for a vanished
        // instance.
        if let Some(m) = self.members.front() {
            let (op, instance) = (m.op_id, self.instance);
            self.report(Err(RelalgError::InvalidPlan(format!(
                "op {op} instance {instance} dropped before completing"
            ))));
        }
    }
}

/// Drives a task to completion on the current thread (unit tests). Yields,
/// then naps, while blocked — the counterpart of the worker pool's backoff.
#[cfg(test)]
pub(crate) fn drive_blocking(mut task: OpTask) -> Step {
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
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::MemoryBudget;
    use crate::operator::op::join_op;
    use mj_relalg::column::ColumnLayout;
    use mj_relalg::{EquiJoin, JoinAlgorithm, Projection, Tuple};
    use parking_lot::Mutex;
    use std::sync::mpsc::{channel, Receiver as DoneRx};

    /// `rows` two-column rows `[key(i), i]`.
    fn rel(rows: i64, key: impl Fn(i64) -> i64) -> Arc<ColumnBatch> {
        let mut batch = ColumnBatch::with_capacity(&ColumnLayout::ints(2), rows as usize);
        for i in 0..rows {
            batch.push_tuple(&Tuple::from_ints(&[key(i), i])).unwrap();
        }
        Arc::new(batch)
    }

    /// Joins on column 0 of both sides, keeping `[key, left payload, right
    /// payload]` — again keyed on column 0 for the next join up.
    fn member(op_id: usize, left: Option<Source>, right: Arc<ColumnBatch>) -> TaskMember {
        let spec = EquiJoin::new(0, 0, Projection::new(vec![0, 1, 3]));
        TaskMember::new(
            join_op(JoinAlgorithm::Simple, spec),
            vec![left, Some(Source::Local(right))],
            op_id,
            false,
        )
    }

    /// op0 = L ⋈ R0 feeding the build side of op1 = op0 ⋈ R1, one task.
    fn group(
        rows: i64,
        key: impl Fn(i64) -> i64 + Copy,
        ctrl: Option<Arc<QueryCtrl>>,
    ) -> (OpTask, Arc<Mutex<Vec<Tuple>>>, DoneRx<DoneMsg>) {
        let collected = Arc::new(Mutex::new(Vec::new()));
        let (done_tx, done_rx) = channel();
        let members = vec![
            member(0, Some(Source::Local(rel(rows, key))), rel(rows, key)).feeding(1, 0),
            member(1, None, rel(rows, key)),
        ];
        let output = OutputPort::Sink {
            collected: collected.clone(),
            buffer: Vec::new(),
        };
        let task = OpTask::new(members, output, 64, 0, done_tx.into(), ctrl);
        (task, collected, done_rx)
    }

    #[test]
    fn members_hand_over_in_memory_and_each_reports_for_itself() {
        let (task, collected, done_rx) = group(40, |i| i, None);
        drive_blocking(task);
        let (op, first) = done_rx.recv().unwrap();
        let (root, second) = done_rx.recv().unwrap();
        assert!(done_rx.try_recv().is_err(), "one report per member");
        assert_eq!((op, root), (0, 1));
        let (first, second) = (first.unwrap(), second.unwrap());
        assert_eq!((first.tuples_in, first.tuples_out), ([40, 40], 40));
        // The root built on exactly what the first member produced.
        assert_eq!((second.tuples_in, second.tuples_out), ([40, 40], 40));
        assert!(first.table_bytes > 0 && second.table_bytes > 0);
        // 160 rows through builds and probes: one quantum, one step.
        assert_eq!(first.steps + second.steps, 1);
        let mut rows = collected.lock().clone();
        rows.sort_unstable();
        assert_eq!(rows.len(), 40);
        assert_eq!(rows[7], Tuple::from_ints(&[7, 7, 7]));
    }

    #[test]
    fn intermediates_and_tables_are_charged_and_the_budget_returns_to_zero() {
        let budget = MemoryBudget::with_limit(1 << 30);
        let ctrl = QueryCtrl::with_limits(None, budget.clone());
        // Ten hot keys: 200 x 200 / 10 = 4000 intermediate rows.
        let (task, collected, done_rx) = group(200, |i| i % 10, Some(ctrl));
        drive_blocking(task);
        let first = done_rx.recv().unwrap().1.unwrap();
        assert_eq!(first.tuples_out, 4000);
        done_rx.recv().unwrap().1.unwrap();
        assert_eq!(collected.lock().len(), 80_000);
        assert!(
            budget.peak() >= 4000 * 3 * 8,
            "the handed-over result was charged: {}",
            budget.peak()
        );
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn a_budget_the_intermediate_outgrows_aborts_the_task_with_the_typed_error() {
        let budget = MemoryBudget::with_limit(16 << 10);
        let ctrl = QueryCtrl::with_limits(None, budget.clone());
        let (task, collected, done_rx) = group(200, |i| i % 10, Some(ctrl.clone()));
        drive_blocking(task);
        // The first member fits one quantum: it had finished (and said so)
        // by the time the step's budget sync saw its 96 KB result.
        let (first, root) = (done_rx.recv().unwrap(), done_rx.recv().unwrap());
        assert_eq!((first.0, root.0), (0, 1));
        assert_eq!(first.1.unwrap().tuples_out, 4000);
        assert!(
            matches!(root.1, Err(RelalgError::ResourceExhausted { .. })),
            "{:?}",
            root.1
        );
        assert!(ctrl.is_aborted());
        assert!(collected.lock().is_empty());
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn a_group_yields_every_quantum_and_observes_cancel_between_them() {
        let ctrl = QueryCtrl::new();
        let (mut task, collected, done_rx) = group(2000, |i| i, Some(ctrl.clone()));
        // 2000 build rows: the first member is still building after three
        // quanta.
        for _ in 0..3 {
            assert_eq!(task.step(), Step::Progress);
        }
        assert!(done_rx.try_recv().is_err(), "nobody is done yet");
        ctrl.cancel();
        assert_eq!(task.step(), Step::Done);
        for op in 0..2 {
            let (reported, result) = done_rx.recv().unwrap();
            assert_eq!(reported, op);
            assert!(matches!(result, Err(RelalgError::Canceled)), "{result:?}");
        }
        assert!(collected.lock().is_empty());
        drop(task);
        assert!(done_rx.try_recv().is_err(), "drop reports nothing twice");
    }

    #[test]
    fn streamed_build_is_rejected() {
        // No strategy streams into a simple join's build side: the task
        // reports a typed plan error instead of waiting on the stream.
        let (_txs, rxs, _pool) = crate::stream::operand_channels(1, 1, 1, ColumnLayout::ints(2));
        let stream = Source::Stream {
            rx: rxs.into_iter().next().unwrap(),
            producers: 1,
        };
        let (done_tx, done_rx) = channel();
        let output = OutputPort::Sink {
            collected: Arc::new(Mutex::new(Vec::new())),
            buffer: Vec::new(),
        };
        let members = vec![member(0, Some(stream), rel(4, |i| i))];
        drive_blocking(OpTask::new(members, output, 64, 0, done_tx.into(), None));
        let (op, result) = done_rx.recv().unwrap();
        assert_eq!(op, 0);
        assert!(
            matches!(result, Err(RelalgError::InvalidPlan(_))),
            "{result:?}"
        );
    }
}
