//! The build of a table that every instance of a segment group shares.
//!
//! A segment group's instances probe one read-only table per build side
//! ([`Split::Shared`](mj_core::plan_ir::Split::Shared)). Over an unfiltered
//! base relation that table is resident on the catalog entry and costs a
//! query nothing. Over anything else — an earlier operation's materialized
//! output, a filtered relation, a late plan's narrowed one — a
//! [`SharedBuild`] indexes it once per query, on the pool, after its
//! producers concluded; the query's run spawns the group's instances only
//! when every such table is built, and hands each instance the same one.
//! It indexes a bounded number of rows per step and observes its query's cancel,
//! abort and deadline between them, but it never blocks, emits no rows and
//! is no operation process.

use std::sync::Arc;
use std::task::Waker;

use mj_join::ColumnarTable;
use mj_relalg::{RelalgError, Result};

use crate::handle::QueryCtrl;
use crate::operator::task::{panic_message, Operand, QUANTUM};
use crate::sched::{Step, Task};
use crate::source::Source;

/// Rows indexed per scheduling step: linking a row costs a fraction of
/// probing one, so a step indexes several probe quanta's worth.
const ROWS_PER_STEP: usize = 8 * QUANTUM;

/// What a finished build hands its query's run: the table, or why there is
/// none, and the scheduling steps it took.
pub(crate) type Built = Box<dyn FnOnce(Result<Arc<ColumnarTable>>, u64) + Send>;

/// Indexes one shared build side as a pool task
/// ([module docs](self)).
pub(crate) struct SharedBuild {
    operand: Operand,
    key_col: usize,
    table: ColumnarTable,
    ctrl: Arc<QueryCtrl>,
    steps: u64,
    /// Called exactly once: when the table is built, when the build fails
    /// or its query winds down, or when the task is dropped unfinished.
    done: Option<Built>,
}

impl SharedBuild {
    /// A build of `source`'s rows keyed on column `key_col` for the query
    /// `ctrl` controls, reporting through `done`.
    pub(crate) fn new(source: Source, key_col: usize, ctrl: Arc<QueryCtrl>, done: Built) -> Self {
        SharedBuild {
            operand: Operand::new(source),
            key_col,
            table: ColumnarTable::new(),
            ctrl,
            steps: 0,
            done: Some(done),
        }
    }

    fn finish(&mut self, result: Result<Arc<ColumnarTable>>) -> Step {
        if let Some(done) = self.done.take() {
            done(result, self.steps);
        }
        Step::Done
    }

    /// One step's rows indexed; `true` once every row is. The first
    /// step applies a pending scan filter and appends the producers'
    /// pieces into one chunk, which the table then indexes where it lies.
    fn index(&mut self) -> Result<bool> {
        self.operand.merge()?;
        let Some((cols, rows)) = self.operand.shared_chunk() else {
            return Err(RelalgError::InvalidPlan(
                "a shared build side is immediate rows".into(),
            ));
        };
        let end = (rows.start + ROWS_PER_STEP).min(rows.end);
        // Indexing an empty range still keys an empty table.
        self.table.index(cols, self.key_col, rows.start..end)?;
        let done = end == rows.end;
        self.operand.consume(end - rows.start);
        Ok(done)
    }
}

impl Task for SharedBuild {
    fn step(&mut self, _waker: &Waker) -> Step {
        self.steps += 1;
        let ctrl = self.ctrl.clone();
        if ctrl.is_canceled() {
            return self.finish(Err(RelalgError::Canceled));
        }
        if let Some(reason) = ctrl.abort_error() {
            return self.finish(Err(reason));
        }
        if ctrl.deadline_exceeded() {
            ctrl.abort(RelalgError::DeadlineExceeded);
            return self.finish(Err(RelalgError::DeadlineExceeded));
        }
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.index()));
        match stepped {
            Ok(Ok(false)) => {
                ctrl.note_progress();
                Step::Progress
            }
            Ok(Ok(true)) => {
                let table = std::mem::take(&mut self.table);
                self.finish(Ok(Arc::new(table)))
            }
            Ok(Err(e)) => self.finish(Err(e)),
            Err(payload) => {
                let reason = RelalgError::Internal(panic_message(payload.as_ref()));
                ctrl.note_panic();
                ctrl.abort(reason.clone());
                self.finish(Err(reason))
            }
        }
    }
}

impl Drop for SharedBuild {
    fn drop(&mut self) {
        // Dropped unfinished (pool shutdown): the run must not wait for it.
        self.finish(Err(RelalgError::InvalidPlan(
            "a shared build was dropped before completing".into(),
        )));
    }
}
