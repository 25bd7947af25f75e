//! Per-execution tasks that outlive the execution: the operation
//! processes a prepared statement's run template lends its executes.
//!
//! A short query's fixed cost is largely set-up: the benchmark's 14-way
//! chain runs as one fused task of thirteen members, each a boxed join
//! operator wired to a resident table or fragment, gathering its result
//! into a batch, collecting match pairs into a vector and indexing its
//! build side into bucket and chain arrays — all for a few dozen rows of
//! result. A prepared statement runs the same operations on the same
//! shapes every time, so its [`RunTemplate`](crate::RunTemplate) keeps the
//! task itself:
//! per task slot (a process group's instance) a free list of
//! `TaskBody`s — the members, each with its operator (and the
//! [`JoinScratch`] inside it) and its output batch. A task borrows a body
//! when it is spawned (`KeptTasks::take`, or a fresh body the template
//! builds when every kept one is lent: two connections executing one
//! cached statement, or the first execute), and the execution *re-arms*
//! it through the one code path a fresh body takes too: operands, cursors,
//! statistics, the output port. As each member finishes, the task readies
//! it for the next execute in place — empties its operator, lets go of the
//! operands it read, takes its output (and a handed-over intermediate,
//! once its reader has finished) back emptied — and it gives the body back
//! when it ends, however it ends, unless a panic left it unfit
//! (`KeptTasks::give_back`). An ad-hoc query goes the same way, its
//! template used once.
//!
//! The buffers a kept body holds are charged to its query's memory budget
//! by capacity while it is lent. A buffer that grew past `KEEP_BYTES`
//! (64 KiB) is freed instead of kept: past that size the work of filling it
//! dwarfs its allocation, and the bodies of every cached statement stay
//! small.

use std::sync::{Arc, Mutex, MutexGuard};

use mj_join::ColumnarTable;
use mj_relalg::column::ColumnBatch;

use crate::config::MESSAGE_BYTES;
use crate::operator::task::{DoneMsg, TaskMember};
use crate::sched::lock;
use crate::stream::Router;

/// The largest buffer a kept task keeps, in bytes of capacity; a larger
/// one is freed when it comes back. A stream message's size
/// ([`MESSAGE_BYTES`]), the largest buffer an edge's pool recycles: the
/// benchmark's 14-way chain keeps every buffer it uses (its widest
/// intermediate is 42 columns of about 50 rows, 17 KB), and a body of
/// fourteen members holds at most a few megabytes.
pub(crate) const KEEP_BYTES: u64 = MESSAGE_BYTES as u64;

/// The buffers a join works in that need not die with it: the match pairs
/// it collects and the table it indexes its own build side into. They stay
/// in the join when its statement keeps it for the next execute, emptied
/// ([`PhysicalOp::rearm`](crate::operator::PhysicalOp::rearm)).
#[derive(Debug, Default)]
pub struct JoinScratch {
    /// Match pairs of the probe batch at hand.
    pub(crate) pairs: Vec<(u32, u32)>,
    /// The build table the join indexes itself (an adopted resident table
    /// is not its own).
    pub(crate) table: ColumnarTable,
}

impl JoinScratch {
    /// Bytes of capacity held.
    pub(crate) fn bytes(&self) -> u64 {
        (self.pairs.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.table.index_capacity_bytes()) as u64
    }

    /// Empties both buffers for the next join, freeing any past the cap.
    pub(crate) fn recycle(&mut self) {
        self.table.clear();
        self.pairs.clear();
        if self.table.index_capacity_bytes() as u64 > KEEP_BYTES {
            self.table = ColumnarTable::new();
        }
        if (self.pairs.capacity() * std::mem::size_of::<(u32, u32)>()) as u64 > KEEP_BYTES {
            self.pairs = Vec::new();
        }
    }
}

/// Takes back a member's output batch into `slot`, once nothing else
/// holds it, emptied; one past the cap is freed.
pub(crate) fn keep_out(slot: &mut Option<Arc<ColumnBatch>>, mut out: Arc<ColumnBatch>) {
    let Some(batch) = Arc::get_mut(&mut out) else {
        return;
    };
    batch.clear();
    if batch.capacity_bytes() <= KEEP_BYTES {
        *slot = Some(out);
    }
}

/// What one task keeps between executes: its members, in group order,
/// each readied for the next execute as it finished, the vector its
/// completion reports gather in, and its stream port's router, detached.
#[derive(Default)]
pub(crate) struct TaskBody {
    pub(crate) members: Vec<TaskMember>,
    pub(crate) reports: Vec<DoneMsg>,
    pub(crate) router: Option<Router>,
}

/// A run template's free lists of task bodies, one list per task slot.
pub(crate) struct KeptTasks {
    free: Vec<Mutex<Vec<TaskBody>>>,
}

/// Where a lent body goes back to: the lists and the task's slot.
pub(crate) type Home = (Arc<KeptTasks>, usize);

impl KeptTasks {
    /// Empty lists for `slots` task slots.
    pub(crate) fn new(slots: usize) -> Arc<KeptTasks> {
        Arc::new(KeptTasks {
            free: (0..slots).map(|_| Mutex::default()).collect(),
        })
    }

    /// The body of slot `slot` given back last, if one is not lent.
    pub(crate) fn take(&self, slot: usize) -> Option<TaskBody> {
        self.list(slot).pop()
    }

    /// Keeps `body` for the next task of slot `slot`.
    pub(crate) fn give_back(&self, slot: usize, body: TaskBody) {
        self.list(slot).push(body);
    }

    /// Bodies kept, not lent, over every slot.
    pub(crate) fn kept(&self) -> usize {
        (0..self.free.len()).map(|slot| self.list(slot).len()).sum()
    }

    /// Slots holding at least one body not lent, and all slots.
    pub(crate) fn held(&self) -> (usize, usize) {
        let holding = (0..self.free.len()).filter(|&slot| !self.list(slot).is_empty());
        (holding.count(), self.free.len())
    }

    fn list(&self, slot: usize) -> MutexGuard<'_, Vec<TaskBody>> {
        // Every update is a single push or pop: the list is whole even if
        // a holder panicked.
        lock(&self.free[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::column::ColumnLayout;
    use mj_relalg::Tuple;

    /// A one-column batch of `rows` rows.
    fn batch(rows: usize) -> Arc<ColumnBatch> {
        let mut batch = ColumnBatch::with_capacity(&ColumnLayout::ints(1), rows);
        for i in 0..rows as i64 {
            batch.push_tuple(&Tuple::from_ints(&[i])).unwrap();
        }
        Arc::new(batch)
    }

    /// A join's buffers after indexing `rows` rows and collecting as many
    /// pairs.
    fn used_join(rows: usize) -> JoinScratch {
        let mut join = JoinScratch::default();
        let chunk = batch(rows);
        join.table.index(&chunk, 0, 0..rows).unwrap();
        join.pairs.extend((0..rows as u32).map(|r| (r, r)));
        join
    }

    #[test]
    fn a_set_is_lent_once_and_a_second_borrower_gets_a_new_one() {
        let lists = KeptTasks::new(2);
        assert!(lists.take(1).is_none(), "nothing is kept before an execute");
        let body = |reports| TaskBody {
            reports: Vec::with_capacity(reports),
            ..TaskBody::default()
        };
        lists.give_back(1, body(3));
        lists.give_back(1, body(50));
        assert_eq!(lists.kept(), 2);
        assert_eq!(lists.held(), (1, 2), "both in slot 1");
        assert!(lists.take(0).is_none(), "slot 0 has none");
        // The body given back last is lent first, and each is lent once.
        assert!(lists.take(1).unwrap().reports.capacity() >= 50);
        assert!(lists.take(1).unwrap().reports.capacity() < 50);
        assert!(lists.take(1).is_none(), "a third borrower gets a new one");
        assert_eq!(lists.held(), (0, 2));
    }

    #[test]
    fn buffers_past_the_cap_are_freed_and_the_rest_kept_empty() {
        // 8 KB and 128 KB of output; 500 and 20 000 rows of join.
        let (mut small, mut big) = (None, None);
        keep_out(&mut small, batch(1_000));
        keep_out(&mut big, batch(16_000));
        let out = small.as_ref().expect("a small batch is kept");
        assert_eq!((out.rows(), out.capacity_bytes()), (0, 8_000));
        assert!(big.is_none(), "a batch past the cap is freed");

        let (mut small, mut big) = (used_join(500), used_join(20_000));
        let index = small.table.index_capacity_bytes();
        small.recycle();
        big.recycle();
        assert_eq!(small.table.index_capacity_bytes(), index);
        assert!(small.table.is_empty() && small.pairs.is_empty());
        assert_eq!(small.pairs.capacity(), 500);
        assert_eq!(big.bytes(), 0, "so are join buffers past it");
    }

    #[test]
    fn a_batch_someone_still_holds_is_not_taken_back() {
        let mut slot = None;
        let out = batch(4);
        let held = out.clone();
        keep_out(&mut slot, out);
        assert!(slot.is_none());
        assert_eq!(held.rows(), 4, "the holder's rows are untouched");
    }
}
