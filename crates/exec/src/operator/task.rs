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
//! drives. Every stream interaction is non-blocking: instead of waiting, the
//! task registers the waker it is stepped with on exactly the edges it
//! waits for — the empty operand streams (both sides of an interleaved
//! feed), the full output destination — and returns [`Step::Blocked`],
//! leaving the run queue and yielding its worker to some other instance, of
//! this query or any other, until one of those edges wakes it. Its query's
//! cancel, abort and early-stop tokens wake it too: every task registers
//! with its [`QueryCtrl`] on its first step.
//!
//! A task runs one operation *process*, which is usually one operator —
//! and, where the plan fused sub-grain operations into their consumer
//! (`OperandSource::Fused`), several: the [`TaskMember`]s of a process
//! group are evaluated one after another, each member's complete output
//! becoming an in-memory operand of a later member, and only the last (the
//! group's root) emits through the task's [`OutputPort`]. A segment group
//! is the same with `d` tasks: each reads its window of the bottom probe
//! relation (an operand's rows are a range of its chunk) and every member
//! adopts a build table all `d` share, so the tasks differ only in the rows
//! they start from. Nothing between
//! members touches a channel, the coordinator or the scheduler; the task
//! still yields at least every `QUANTUM` (512) rows of whichever member it is
//! in, so cancel, deadline, abort and early stop are observed as for any
//! other task, and intermediates are charged to the query's budget like
//! hash tables are.
//!
//! The buffers the members work in — each member's output batch, its
//! join's match pairs and build-table arrays — are lent by the query's run
//! template ([`scratch`](crate::operator::scratch)): the task takes each
//! back, emptied, as the member using it finishes (a handed-over result
//! once its reader has), and gives the set back when it ends, so a
//! statement's next execute works in them again.
//!
//! Completion (stats or error) is reported exactly once *per member*
//! through the query's [`Reporter`] — the root's report carries a
//! materializing port's pieces to the query's run — including when the
//! task is dropped mid-flight (pool shutdown, panic): the `Drop` impl
//! reports non-completion, so a query never waits for a vanished instance.
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
use std::ops::Range;
use std::sync::Arc;
use std::task::Waker;

use mj_join::ColumnarTable;
use mj_relalg::column::{select, ColumnBatch};
use mj_relalg::{Predicate, RelalgError, Result};
use mj_storage::Fragments;

use crate::handle::QueryCtrl;
use crate::metrics::InstanceStats;
use crate::operator::op::{Absorb, InputMode, PhysicalOp};
use crate::operator::scratch::Lent;
use crate::operator::OutputPort;
use crate::sched::{Step, Task};
use crate::source::Source;
use crate::stream::{closed_early, Batch, Msg, Receiver, TryRecvError};

/// Rows processed per scheduling step: long enough to amortize queue
/// round-trips, short enough that concurrent queries interleave finely.
pub(crate) const QUANTUM: usize = 512;

/// What a completed (or failed) member reports to its query's coordinator:
/// its op id, its statistics and, from the root of a process whose port
/// materialized, the task's instance with the pieces it cut.
pub type DoneMsg = (usize, Result<InstanceStats>, Option<(usize, Fragments)>);

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
pub(crate) enum Operand {
    /// Immediate rows: rows `pos..end` of the chunk being read, then the
    /// chunks still to come. A processor-local fragment or a handed-over
    /// result is one chunk, a range split's window a part of one; a
    /// materialized operand is this instance's piece of every producer
    /// instance, read one after another — or, as a build operand, appended
    /// once into one chunk ([`merge`](Operand::merge)).
    Chunks {
        cols: Arc<ColumnBatch>,
        pos: usize,
        end: usize,
        rest: std::vec::IntoIter<Arc<ColumnBatch>>,
    },
    /// A live stream; `current` is a partially consumed in-flight batch.
    Stream {
        rx: Receiver<Msg>,
        remaining: usize,
        current: Option<Batch>,
        pos: usize,
    },
    /// A resident build table, which the operator adopts whole; it has no
    /// rows to read.
    Table(Arc<ColumnarTable>),
    /// No rows: a one-input operator's unused side, or the result of an
    /// earlier member of the task until it is handed over.
    Empty,
    /// A fragment still to be filtered ([`Source::Filtered`]): the first
    /// read makes it the chunk of the survivors among `rows`.
    Filtered {
        fragment: Arc<ColumnBatch>,
        predicate: Arc<Predicate>,
        rows: Range<usize>,
    },
}

/// The state of an operand after [`Operand::ready`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Feed {
    /// A chunk with unconsumed rows is loaded ([`Operand::chunk`] is
    /// valid).
    Ready,
    /// A stream operand has nothing queued right now (the waker is
    /// registered for its next message); yield and retry.
    Pending,
    /// The operand is fully consumed.
    Exhausted,
}

impl Operand {
    pub(crate) fn new(source: Source) -> Operand {
        match source {
            Source::Local(cols) => Operand::Chunks {
                end: cols.rows(),
                cols,
                pos: 0,
                rest: Vec::new().into_iter(),
            },
            Source::Window { cols, rows } => Operand::Chunks {
                cols,
                pos: rows.start,
                end: rows.end,
                rest: Vec::new().into_iter(),
            },
            Source::Materialized(pieces) => {
                let mut rest = pieces.into_iter();
                let cols: Arc<ColumnBatch> = rest.next().unwrap_or_default();
                Operand::Chunks {
                    end: cols.rows(),
                    cols,
                    pos: 0,
                    rest,
                }
            }
            Source::Stream { rx, producers } => Operand::Stream {
                rx,
                remaining: producers,
                current: None,
                pos: 0,
            },
            Source::Table(table) => Operand::Table(table),
            Source::Filtered {
                fragment,
                predicate,
                rows,
            } => Operand::Filtered {
                fragment,
                predicate,
                rows,
            },
        }
    }

    /// Applies a pending scan filter: the operand becomes the chunk of the
    /// survivors among its rows — the fragment itself when every row of it
    /// survives.
    fn filter(&mut self) -> Result<()> {
        let Operand::Filtered {
            fragment,
            predicate,
            rows,
        } = self
        else {
            return Ok(());
        };
        let mut survivors = Vec::with_capacity(rows.len());
        select(predicate, fragment, rows.clone(), &mut survivors)?;
        let cols = if survivors.len() == fragment.rows() {
            fragment.clone()
        } else {
            Arc::new(fragment.gather(&survivors)?)
        };
        *self = Operand::new(Source::Local(cols));
        Ok(())
    }

    fn is_stream(&self) -> bool {
        matches!(self, Operand::Stream { .. })
    }

    /// Makes what is left of an immediate operand one chunk, so a build
    /// indexes it in place: the remaining pieces are appended, once, into
    /// a chunk of exactly their size. One chunk, or a stream, stays as is.
    pub(crate) fn merge(&mut self) -> Result<()> {
        self.filter()?;
        let Operand::Chunks {
            cols,
            pos,
            end,
            rest,
        } = self
        else {
            return Ok(());
        };
        if rest.as_slice().is_empty() {
            return Ok(());
        }
        let pieces = std::mem::take(rest);
        let rows = pieces.as_slice().iter().map(|p| p.rows()).sum::<usize>();
        let mut merged = ColumnBatch::with_capacity(&cols.layout(), *end - *pos + rows);
        merged.append_rows(cols, *pos..*end)?;
        for piece in pieces {
            merged.append_rows(&piece, 0..piece.rows())?;
        }
        *end = merged.rows();
        *cols = Arc::new(merged);
        *pos = 0;
        Ok(())
    }

    /// Ensures a chunk with unconsumed rows is loaded, without ever
    /// blocking; a stream found empty registers `waker`. Spent chunks are
    /// released here (stream buffers return to their pool; spent pieces
    /// free their columns).
    fn ready(&mut self, waker: &Waker) -> Result<Feed> {
        self.filter()?;
        match self {
            Operand::Table(_) => Err(RelalgError::InvalidPlan(
                "a resident table is only ever a simple join's build side".into(),
            )),
            Operand::Empty => Ok(Feed::Exhausted),
            Operand::Filtered { .. } => unreachable!("filtered above"),
            Operand::Chunks {
                cols,
                pos,
                end,
                rest,
            } => loop {
                if *pos < *end {
                    return Ok(Feed::Ready);
                }
                let Some(next) = rest.next() else {
                    return Ok(Feed::Exhausted);
                };
                *end = next.rows();
                *cols = next;
                *pos = 0;
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
                match rx.poll_recv(waker) {
                    Ok(Msg::Batch(b)) => {
                        *current = Some(b);
                        *pos = 0;
                    }
                    Ok(Msg::End) => *remaining -= 1,
                    Err(TryRecvError::Empty) => return Ok(Feed::Pending),
                    Err(TryRecvError::Disconnected) => return Err(closed_early()),
                }
            },
        }
    }

    /// The current chunk and its unread rows. Only valid directly after
    /// [`ready`](Self::ready) returned [`Feed::Ready`].
    fn chunk(&self) -> (&ColumnBatch, Range<usize>) {
        match self {
            Operand::Stream { current, pos, .. } => {
                let batch = current.as_ref().expect("ready chunk").columns();
                (batch, *pos..batch.rows())
            }
            _ => {
                let (cols, rows) = self.shared_chunk().expect("an immediate operand");
                (cols, rows)
            }
        }
    }

    /// [`chunk`](Self::chunk) of an immediate operand, as the shared chunk
    /// itself; `None` for a stream, whose batches nobody else may keep.
    pub(crate) fn shared_chunk(&self) -> Option<(&Arc<ColumnBatch>, Range<usize>)> {
        match self {
            Operand::Chunks { cols, pos, end, .. } => Some((cols, *pos..*end)),
            _ => None,
        }
    }

    /// Advances the cursor past `n` consumed rows.
    pub(crate) fn consume(&mut self, n: usize) {
        match self {
            Operand::Chunks { pos, .. } | Operand::Stream { pos, .. } => *pos += n,
            Operand::Table(_) | Operand::Empty | Operand::Filtered { .. } => {}
        }
    }
}

/// Execution phase of the instance; `Build` to `Finish` repeat per member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Not yet begun: the first step starts the first member.
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
    /// Its operands; a one-input operator's is side 0, and side 1 stays
    /// empty.
    operands: [Operand; 2],
    /// Operands in use: 1 or 2.
    arity: usize,
    /// `Some((op id, side))`: the complete output becomes that operand of
    /// a later member of the same task. `None`: the root member, emitting
    /// through the task's output port.
    feeds: Option<(usize, usize)>,
    /// Its result rows, column-wise (the operator appends; made on first
    /// use unless lent). The root member's are drained by the port between
    /// quanta; any other member's accumulate until it finishes and are
    /// handed over whole, in this `Arc`.
    out: Option<Arc<ColumnBatch>>,
    /// Its position in the task's group, which names its lent buffers.
    pos: usize,
    /// Per side: the position of the earlier member whose result it reads
    /// there, handed over in memory.
    handed: [Option<usize>; 2],
    /// Bytes of earlier members' results this member holds as operands.
    handed_bytes: u64,
    stats: InstanceStats,
    op_id: usize,
    /// Which side the interleaved feed polls first next step (fairness).
    turn: usize,
    /// `finish` has been called on the operator (exactly-once guard).
    drained: bool,
    /// Armed fault-injection point, if any (test harness).
    #[cfg(feature = "faults")]
    fault: Option<crate::faults::ArmedFault>,
}

impl TaskMember {
    /// A member driving `op` (plan op `op_id`) over one or two operands.
    /// A `None` source is the output of an earlier member of the same
    /// task, handed over when that member finishes.
    pub fn new(
        op: Box<dyn PhysicalOp>,
        sources: impl IntoIterator<Item = Option<Source>>,
        op_id: usize,
    ) -> TaskMember {
        let mut sources = sources.into_iter();
        let mut next = || {
            sources
                .next()
                .map(|s| s.map_or(Operand::Empty, Operand::new))
        };
        let first = next().expect("operators take one or two operands");
        let (second, arity) = match next() {
            Some(second) => (second, 2),
            None => (Operand::Empty, 1),
        };
        debug_assert!(next().is_none(), "operators take one or two operands");
        TaskMember {
            op,
            operands: [first, second],
            arity,
            feeds: None,
            out: None,
            pos: 0,
            handed: [None; 2],
            handed_bytes: 0,
            stats: InstanceStats::default(),
            op_id,
            turn: 0,
            drained: false,
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
            InputMode::BuildThenProbe { build } if self.arity == 2 => Some(build),
            _ => None,
        }
    }

    /// Rows in its output so far.
    fn out_rows(&self) -> usize {
        self.out.as_ref().map_or(0, |out| out.rows())
    }
}

/// A member's output batch to append to, made on first use.
fn writable(out: &mut Option<Arc<ColumnBatch>>) -> &mut ColumnBatch {
    let out = out.get_or_insert_with(Default::default);
    Arc::get_mut(out).expect("a member's output is its own until it is handed over")
}

/// One operation process as a schedulable [`Task`]: the generic driver
/// over the [`PhysicalOp`]s of its members.
pub struct OpTask {
    /// The members still to evaluate, in order; the front one is running.
    /// A finished member reports and is dropped, hash table and all.
    members: VecDeque<TaskMember>,
    output: OutputPort,
    /// The buffers its run template lent it, per member position, while
    /// no member uses them; given back when the task ends.
    lent: Lent,
    /// Emission cursor into the root member's output (or `resolved`, when
    /// a resolver is attached) for resumable routing.
    out_pos: usize,
    /// Late-materialization resolver: set only on the root join's tasks
    /// of a late plan. When present, the root member's output holds narrow
    /// (ref-carrying) rows which are resolved into `resolved` before
    /// emission, so the output port only ever sees the original root
    /// schema.
    resolver: Option<Arc<crate::late::Resolver>>,
    /// Resolved rows awaiting emission (original root schema).
    resolved: ColumnBatch,
    /// Per-ref-column row-index scratch for the resolver.
    ref_scratch: Vec<Vec<u32>>,
    /// Rows gathered in the root member's output before they are emitted:
    /// the port's [`OutputPort::batch`].
    batch: usize,
    phase: Phase,
    /// This task declared its output complete (satisfied LIMIT): it keeps
    /// finishing even though the early-stop token it raised is set.
    satisfied: bool,
    /// The current step moved rows (or reached a new phase or member): a
    /// step that ends `Blocked` without this is a wasted one.
    moved: bool,
    /// The task's waker is registered with its query's tokens.
    registered: bool,
    instance: usize,
    reporter: Reporter,
    /// Completions of members that finished during the current step.
    reports: Vec<DoneMsg>,
    /// The query's cancel/early-stop/abort tokens; observed at every step.
    ctrl: Option<Arc<QueryCtrl>>,
    /// Bytes of task state currently charged against the query's memory
    /// budget: the lent buffers' capacity, the running operator's
    /// ([`PhysicalOp::est_bytes`]), and the results members have handed
    /// over or are still accumulating. Synced after every step, credited
    /// back on completion.
    charged: u64,
    /// Capacity of the buffers lent to the task, part of `charged`.
    lent_bytes: u64,
    /// Bytes charged by an injected allocation spike (credited back on
    /// completion so sibling queries see clean global accounting).
    #[cfg(feature = "faults")]
    spiked: u64,
}

impl OpTask {
    /// Builds the task evaluating `members` in order; the last one is the
    /// root and owns `output`, which also sets how many rows the task
    /// gathers before it emits them ([`OutputPort::batch`]).
    pub fn new(
        members: Vec<TaskMember>,
        output: OutputPort,
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
        for (pos, m) in members.iter_mut().enumerate() {
            m.turn = instance; // stagger polling order across instances
            m.pos = pos;
        }
        OpTask {
            members,
            batch: output.batch(),
            output,
            lent: Lent::default(),
            out_pos: 0,
            resolver: None,
            resolved: ColumnBatch::shapeless(),
            ref_scratch: Vec::new(),
            phase: Phase::Start,
            satisfied: false,
            moved: false,
            registered: false,
            instance,
            reporter,
            reports: Vec::new(),
            ctrl,
            charged: 0,
            lent_bytes: 0,
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

    /// Lends the task the buffers its members work in, before its first
    /// step: each member's output batch, and its operator's
    /// [`JoinScratch`](crate::operator::JoinScratch). Their capacity is
    /// charged to the query's budget while the task holds them.
    pub(crate) fn lend(&mut self, mut lent: Lent) {
        self.lent_bytes = lent.bytes();
        for m in &mut self.members {
            if let Some(kept) = lent.member(m.pos) {
                m.out = kept.out.take();
                if let Some(join) = m.op.scratch() {
                    std::mem::swap(join, &mut kept.join);
                }
            }
        }
        self.lent = lent;
    }

    /// The running member. Only valid before the task is done.
    fn member(&mut self) -> &mut TaskMember {
        self.members.front_mut().expect("a live task has a member")
    }

    /// Records the running member's completion and drops it, taking its
    /// buffers back. The report goes out when the task next yields
    /// ([`send_reports`](Self::send_reports)): a report runs the query's
    /// coordination on this thread — it may submit the next wave of tasks,
    /// or conclude the query — and that belongs between quanta, not inside
    /// one.
    fn report_member(&mut self, result: Result<InstanceStats>) {
        if let Some(m) = self.members.pop_front() {
            let pieces = if self.members.is_empty() {
                self.output.take_pieces().map(|p| (self.instance, p))
            } else {
                None
            };
            self.reports.push((m.op_id, result, pieces));
            self.take_back(m);
        }
    }

    /// Takes a finished member's buffers back into the lent set: its
    /// operator's join buffers (which lets go of the build operand they
    /// indexed), then its output unless it was handed over, then the
    /// results of earlier members it read, which nothing else holds now.
    fn take_back(&mut self, m: TaskMember) {
        let TaskMember {
            mut op,
            operands,
            out,
            pos,
            handed,
            ..
        } = m;
        if let Some(join) = op.scratch() {
            self.lent.keep_join(pos, join);
        }
        drop(op);
        if let Some(out) = out {
            self.lent.keep_out(pos, out);
        }
        for (operand, from) in operands.into_iter().zip(handed) {
            if let (Operand::Chunks { cols, .. }, Some(from)) = (operand, from) {
                self.lent.keep_out(from, cols);
            }
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
        // Back before the reports go out: the last may conclude the query,
        // and its statement's next execute finds the set.
        self.lent.give_back();
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
        let mut held: u64 = self.lent_bytes;
        held += self.members.iter().map(|m| m.handed_bytes).sum::<u64>();
        if let Some(m) = self.members.front() {
            held += m.op.est_bytes() as u64;
            if m.feeds.is_some() {
                held += m.out.as_ref().map_or(0, |out| out.est_bytes());
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

    /// Emits rows `out_pos..` of the root member's output; `Ok(false)`
    /// means the output is backpressured (`waker` registered on it) and the
    /// task should yield. `tuples_out` counts rows here — *after* the
    /// operator's selection vectors dropped non-qualifying rows — so the
    /// metric reports rows actually produced, not rows scanned.
    fn flush_out(&mut self, waker: &Waker) -> Result<bool> {
        if self.members.len() > 1 {
            // Not the root: the output stays here until the member is done.
            return Ok(true);
        }
        let m = self.members.front_mut().expect("a live task has a member");
        let out = writable(&mut m.out);
        let (emitted, done) = match &self.resolver {
            // Late materialization: resolve the narrow backlog into the
            // original schema, then emit the resolved batch. The output is
            // always fully absorbed here, so between flushes at most one
            // quantum of narrow rows accumulates — memory stays bounded
            // even under backpressure.
            Some(resolver) => {
                if !out.is_empty() {
                    resolver.resolve_into(out, &mut self.ref_scratch, &mut self.resolved)?;
                    out.clear();
                }
                self.output
                    .try_emit(&mut self.resolved, &mut self.out_pos, waker)?
            }
            None => self.output.try_emit(out, &mut self.out_pos, waker)?,
        };
        self.note_emitted(emitted);
        Ok(done)
    }

    fn note_emitted(&mut self, rows: u64) {
        self.moved |= rows > 0;
        self.member().stats.tuples_out += rows;
    }

    /// Points the task at its (new) front member. The phase functions
    /// below return `None` when the task should simply carry on in the
    /// same step, and `Some(step)` when it must yield.
    fn begin_member(&mut self) {
        self.phase = if self.member().build_side().is_some() {
            Phase::Build
        } else {
            Phase::Feed
        };
    }

    /// Build phase: hand the immediate build side to the operator a
    /// quantum of rows at a time, as ranges of its one shared chunk. No
    /// output is produced, so this never blocks — it only paces itself by
    /// the quantum. A resident table is handed over whole and takes none
    /// of the quantum: its rows were indexed when it was built.
    fn step_build(&mut self, budget: &mut usize, waker: &Waker) -> Result<Option<Step>> {
        let m = self.members.front_mut().expect("a live task has a member");
        let build = m.build_side().expect("build phase implies a build side");
        if let Operand::Table(table) = &m.operands[build] {
            m.stats.tuples_in[build] += table.len() as u64;
            m.op.adopt_table(table.clone())?;
            m.op.finish_build();
            self.phase = Phase::Feed;
            return Ok(None);
        }
        if m.operands[build].is_stream() {
            return Err(RelalgError::InvalidPlan(format!(
                "op{} cannot stream its build operand",
                m.op_id
            )));
        }
        m.operands[build].merge()?;
        while *budget > 0 {
            match m.operands[build].ready(waker)? {
                Feed::Ready => {
                    let take;
                    {
                        let (cols, rows) = m.operands[build]
                            .shared_chunk()
                            .expect("a build operand is immediate");
                        let end = (rows.start + *budget).min(rows.end);
                        take = end - rows.start;
                        m.op.build_batch(cols, rows.start..end)?;
                    }
                    m.operands[build].consume(take);
                    m.stats.tuples_in[build] += take as u64;
                    *budget -= take;
                    self.moved = true;
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
    /// has rows ready, and flush full output batches. Blocked — on the
    /// output, or on every live operand at once — it has registered `waker`
    /// on what it waits for.
    fn step_feed(&mut self, budget: &mut usize, waker: &Waker) -> Result<Option<Step>> {
        if !self.flush_out(waker)? {
            return Ok(Some(Step::Blocked));
        }
        while *budget > 0 {
            let m = self.members.front_mut().expect("a live task has a member");
            // Polling order this iteration: single-input operators and
            // build-then-probe feeds have exactly one live side; the
            // interleaved two-input feed alternates, preferring `turn` so
            // two live streams are drained fairly.
            let sides: [usize; 2] = if m.arity == 1 {
                [0, 0]
            } else {
                match m.op.input_mode() {
                    InputMode::BuildThenProbe { build } => [1 - build, 1 - build],
                    InputMode::Interleaved => [m.turn % 2, (m.turn + 1) % 2],
                }
            };
            m.turn = m.turn.wrapping_add(1);
            let live = if sides[0] == sides[1] {
                &sides[..1]
            } else {
                &sides[..]
            };
            let mut chosen = None;
            let mut exhausted = 0usize;
            for &side in live {
                match m.operands[side].ready(waker)? {
                    Feed::Ready => {
                        chosen = Some(side);
                        break;
                    }
                    Feed::Exhausted => exhausted += 1,
                    Feed::Pending => {}
                }
            }
            match chosen {
                Some(side) => {
                    let take;
                    let verdict;
                    {
                        let (cols, rows) = m.operands[side].chunk();
                        let end = (rows.start + *budget).min(rows.end);
                        take = end - rows.start;
                        verdict =
                            m.op.absorb_batch(side, cols, rows.start..end, writable(&mut m.out))?;
                    }
                    m.operands[side].consume(take);
                    m.stats.tuples_in[side] += take as u64;
                    let full = m.out_rows() >= self.batch;
                    *budget -= take;
                    self.moved = true;
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
                    if full && !self.flush_out(waker)? {
                        // Output backpressure mid-quantum: wait for room.
                        return Ok(Some(Step::Blocked));
                    }
                }
                None if exhausted == live.len() => {
                    self.phase = Phase::Finish;
                    return Ok(None);
                }
                // Every live side is pending, each with the waker on it.
                None => return Ok(Some(Step::Blocked)),
            }
        }
        Ok(Some(Step::Progress))
    }

    fn step_finish(&mut self, waker: &Waker) -> Result<Option<Step>> {
        let m = self.members.front_mut().expect("a live task has a member");
        if !m.drained {
            // Exactly-once drain of held state (aggregation results);
            // flushing below is resumable across backpressure.
            m.op.finish(writable(&mut m.out))?;
            m.drained = true;
        }
        m.stats.table_bytes = m.op.est_bytes() as u64;
        if let Some((consumer, side)) = m.feeds {
            // Hand the complete result to the member that reads it: no
            // channel, no wake — and this member's table is gone
            // before the next one builds its own.
            let result = m.out.take().unwrap_or_default();
            m.stats.tuples_out = result.rows() as u64;
            let (stats, from) = (m.stats, m.pos);
            self.report_member(Ok(stats));
            let reader = self
                .members
                .iter_mut()
                .find(|m| m.op_id == consumer)
                .ok_or_else(|| {
                    RelalgError::InvalidPlan(format!("no later member evaluates op {consumer}"))
                })?;
            reader.handed_bytes += result.est_bytes();
            reader.handed[side] = Some(from);
            reader.operands[side] = Operand::new(Source::Local(result));
            self.begin_member();
            // The next member runs in what is left of this step: its first.
            #[cfg(feature = "faults")]
            if let Some(parked) = self.poll_fault()? {
                return Ok(Some(parked));
            }
            return Ok(None);
        }
        if !self.flush_out(waker)? {
            return Ok(Some(Step::Blocked));
        }
        if !self.output.try_finish(waker)? {
            return Ok(Some(Step::Blocked));
        }
        // The budget is synced after every step a task is still running
        // at; one that finishes in the step it started in was never
        // checked, so its last state is, before it reports.
        if self.sync_budget() {
            if let Some(ctrl) = &self.ctrl {
                let reason = ctrl.budget().exhausted_error();
                ctrl.abort(reason.clone());
                return Err(reason);
            }
        }
        self.report(Ok(()));
        Ok(Some(Step::Done))
    }

    /// Polls the running member's armed fault, once per scheduling step it
    /// runs in: `Some(Blocked)` parks the task with no wake arranged (a
    /// fired stall: only its query's tokens wake it), an error fails it.
    #[cfg(feature = "faults")]
    fn poll_fault(&mut self) -> Result<Option<Step>> {
        let (instance, m) = (self.instance, self.member());
        let op_id = m.op_id;
        let Some(fault) = m.fault.as_mut() else {
            return Ok(None);
        };
        if fault.stalling() {
            return Ok(Some(Step::Blocked));
        }
        let Some(kind) = fault.fire() else {
            return Ok(None);
        };
        match kind {
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
                Ok(None)
            }
            crate::faults::FaultKind::Stall => Ok(Some(Step::Blocked)),
            crate::faults::FaultKind::Error => Err(RelalgError::InvalidPlan(format!(
                "injected failure at op {op_id} instance {instance}"
            ))),
        }
    }

    fn try_step(&mut self, waker: &Waker) -> Result<Step> {
        self.moved = false;
        #[cfg(feature = "faults")]
        if let Some(parked) = self.poll_fault()? {
            return Ok(parked);
        }
        // One quantum of rows across however many phases — and members —
        // it reaches: a phase or member boundary is no reason to go back
        // through the run queue. A step that moved rows and then ran dry
        // parks like any other blocked one.
        let mut budget = QUANTUM;
        loop {
            let step = match self.phase {
                Phase::Start => {
                    self.begin_member();
                    None
                }
                Phase::Build => self.step_build(&mut budget, waker)?,
                Phase::Feed => self.step_feed(&mut budget, waker)?,
                Phase::Finish => self.step_finish(waker)?,
                Phase::Done => Some(Step::Done),
            };
            match step {
                None => self.moved = true,
                Some(step) => return Ok(step),
            }
        }
    }
}

impl Task for OpTask {
    fn step(&mut self, waker: &Waker) -> Step {
        let step = self.run_step(waker);
        self.send_reports();
        step
    }
}

impl OpTask {
    /// One scheduling step: observe the query's tokens, run a quantum,
    /// contain panics, sync the memory budget.
    fn run_step(&mut self, waker: &Waker) -> Step {
        if self.phase != Phase::Done {
            self.member().stats.steps += 1;
            if let Some(ctrl) = &self.ctrl {
                // Registered before the tokens are read: a token raised
                // after this read wakes the task, wherever it then waits.
                if !self.registered {
                    ctrl.register_task(waker);
                    self.registered = true;
                }
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
        let stepped =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.try_step(waker)));
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
                if step == Step::Blocked && !self.moved {
                    self.member().stats.blocked += 1;
                } else if step != Step::Done {
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
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
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

/// Drives a task to completion on the current thread (unit tests), with the
/// pool's protocol: a blocked task parks the thread until its waker fires.
#[cfg(test)]
pub(crate) fn drive_blocking(mut task: OpTask) -> Step {
    let waker = crate::sched::thread_waker();
    loop {
        match task.step(&waker) {
            Step::Done => return Step::Done,
            Step::Progress => {}
            Step::Blocked => std::thread::park(),
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
        let task = OpTask::new(members, output, 0, done_tx.into(), ctrl);
        (task, collected, done_rx)
    }

    #[test]
    fn a_lent_set_comes_back_whole_and_serves_the_next_task_alike() {
        use crate::operator::scratch::ScratchLists;
        let lists = ScratchLists::new(1);
        let budget = MemoryBudget::unlimited();
        let mut first = None;
        for round in 0..3 {
            let ctrl = QueryCtrl::with_limits(None, budget.clone());
            // 360 intermediate rows, 2160 result rows: every buffer is
            // under the cap, so every one is kept.
            let (mut task, collected, done_rx) = group(60, |i| i % 10, Some(ctrl));
            task.lend(lists.lend(0, 2));
            drive_blocking(task);
            assert!(done_rx.iter().all(|(_, result, _)| result.is_ok()));
            assert_eq!(budget.used(), 0, "round {round}: the set is credited");
            let mut rows = collected.lock().clone();
            rows.sort_unstable();
            assert_eq!(rows.len(), 2160);
            assert_eq!(*first.get_or_insert_with(|| rows.clone()), rows);
            // Back in the list, before the reports went out: op0's result,
            // taken back from op1 once it finished, and the root's output,
            // both emptied; both joins' own tables and pairs.
            assert_eq!(lists.kept(), 1, "round {round}");
            let mut lent = lists.lend(0, 2);
            for pos in 0..2 {
                let kept = lent.member(pos).unwrap();
                let out = kept.out.as_ref().expect("the output came back");
                assert!(out.is_empty() && out.capacity_bytes() > 0, "{pos}");
                assert!(kept.join.table.is_empty());
                assert!(kept.join.table.index_capacity_bytes() > 0);
                assert!(kept.join.pairs.is_empty() && kept.join.pairs.capacity() > 0);
            }
            lent.give_back();
        }
        assert!(budget.peak() > 0);
    }

    #[test]
    fn members_hand_over_in_memory_and_each_reports_for_itself() {
        let (task, collected, done_rx) = group(40, |i| i, None);
        drive_blocking(task);
        let (op, first, _) = done_rx.recv().unwrap();
        let (root, second, _) = done_rx.recv().unwrap();
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
            assert_eq!(task.step(Waker::noop()), Step::Progress);
        }
        assert!(done_rx.try_recv().is_err(), "nobody is done yet");
        ctrl.cancel();
        assert_eq!(task.step(Waker::noop()), Step::Done);
        for op in 0..2 {
            let (reported, result, _) = done_rx.recv().unwrap();
            assert_eq!(reported, op);
            assert!(matches!(result, Err(RelalgError::Canceled)), "{result:?}");
        }
        assert!(collected.lock().is_empty());
        drop(task);
        assert!(done_rx.try_recv().is_err(), "drop reports nothing twice");
    }

    #[test]
    fn the_flush_threshold_is_the_ports_rows_per_message() {
        use crate::config::MESSAGE_BYTES;
        use crate::stream::{operand_channels, Router};
        let one = || vec![member(0, Some(Source::Local(rel(4, |i| i))), rel(4, |i| i))];
        // The members' rows: [key, left payload, right payload].
        let schema = mj_relalg::Schema::new(vec![
            mj_relalg::Attribute::int("k"),
            mj_relalg::Attribute::int("l"),
            mj_relalg::Attribute::int("r"),
        ]);
        for cap in [usize::MAX, 16] {
            let (txs, _rxs, pool) = operand_channels(1, 2, 1, ColumnLayout::of(&schema));
            let router = Router::new(txs, 0, cap, pool);
            let batch = router.batch();
            assert_eq!(batch, (MESSAGE_BYTES / 24).min(cap));
            let (done_tx, _done_rx) = channel();
            let task = OpTask::new(one(), OutputPort::Stream(router), 0, done_tx.into(), None);
            assert_eq!(task.batch, batch, "a stream port's router sets it");
            let port = OutputPort::materialize(&schema, (0, 2), cap, None);
            let (done_tx, _done_rx) = channel();
            let task = OpTask::new(one(), port, 0, done_tx.into(), None);
            assert_eq!(
                task.batch, batch,
                "a materialized schema gets the same count"
            );
        }
    }

    #[test]
    fn only_the_root_report_carries_the_pieces_with_the_instance() {
        let members = vec![
            member(0, Some(Source::Local(rel(40, |i| i))), rel(40, |i| i)).feeding(1, 0),
            member(1, None, rel(40, |i| i)),
        ];
        let schema = mj_relalg::Schema::new(vec![
            mj_relalg::Attribute::int("k"),
            mj_relalg::Attribute::int("l"),
            mj_relalg::Attribute::int("r"),
        ]);
        let output = OutputPort::materialize(&schema, (0, 3), usize::MAX, None);
        let (done_tx, done_rx) = channel();
        drive_blocking(OpTask::new(members, output, 2, done_tx.into(), None));
        let (op, _, pieces) = done_rx.recv().unwrap();
        assert_eq!(op, 0);
        assert!(pieces.is_none(), "a member feeding another cuts nothing");
        let (op, result, pieces) = done_rx.recv().unwrap();
        assert_eq!((op, result.unwrap().tuples_out), (1, 40));
        let (instance, pieces) = pieces.expect("the root hands its pieces over");
        assert_eq!((instance, pieces.len()), (2, 3));
        assert_eq!(pieces.iter().map(|p| p.rows()).sum::<usize>(), 40);
    }

    #[test]
    fn a_resident_build_table_takes_no_quanta() {
        let build = rel(2000, |i| i);
        let mut table = ColumnarTable::new();
        table.index(&build, 0, 0..build.rows()).unwrap();
        let spec = EquiJoin::new(0, 0, Projection::new(vec![0, 1, 3]));
        let sources = vec![
            Some(Source::Table(Arc::new(table))),
            Some(Source::Local(rel(300, |i| i * 7))),
        ];
        let members = vec![TaskMember::new(
            join_op(JoinAlgorithm::Simple, spec),
            sources,
            0,
        )];
        let collected = Arc::new(Mutex::new(Vec::new()));
        let output = OutputPort::Sink {
            collected: collected.clone(),
            buffer: Vec::new(),
        };
        let (done_tx, done_rx) = channel();
        drive_blocking(OpTask::new(members, output, 0, done_tx.into(), None));
        let stats = done_rx.recv().unwrap().1.unwrap();
        assert_eq!(stats.tuples_in, [2000, 300], "the table's rows count");
        assert_eq!(stats.steps, 1, "300 probe rows are one quantum");
        // Keys 0, 7, .., 1995 of the probe side are build keys.
        assert_eq!(collected.lock().len(), 286);
    }

    #[test]
    fn a_table_anywhere_but_a_simple_build_side_is_a_plan_error() {
        let mut table = ColumnarTable::new();
        table.index(&rel(4, |i| i), 0, 0..4).unwrap();
        let spec = EquiJoin::new(0, 0, Projection::new(vec![0, 1, 3]));
        let sources = vec![
            Some(Source::Table(Arc::new(table))),
            Some(Source::Local(rel(4, |i| i))),
        ];
        let members = vec![TaskMember::new(
            join_op(JoinAlgorithm::Pipelining, spec),
            sources,
            0,
        )];
        let output = OutputPort::Sink {
            collected: Arc::new(Mutex::new(Vec::new())),
            buffer: Vec::new(),
        };
        let (done_tx, done_rx) = channel();
        drive_blocking(OpTask::new(members, output, 0, done_tx.into(), None));
        let result = done_rx.recv().unwrap().1;
        assert!(
            matches!(result, Err(RelalgError::InvalidPlan(_))),
            "{result:?}"
        );
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
        drive_blocking(OpTask::new(members, output, 0, done_tx.into(), None));
        let (op, result, _) = done_rx.recv().unwrap();
        assert_eq!(op, 0);
        assert!(
            matches!(result, Err(RelalgError::InvalidPlan(_))),
            "{result:?}"
        );
    }
}
