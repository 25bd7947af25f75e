//! Per-execution scratch that outlives the execution: the buffers a task's
//! members work in, kept by the run template between executes.
//!
//! A short query's fixed cost is largely allocation: every member of a
//! fused process group gathers its result into a fresh batch, collects
//! match pairs into a fresh vector and indexes its build side into fresh
//! bucket and chain arrays — several hundred allocations for the
//! benchmark's 14-way chain, against a few dozen rows of result. A
//! prepared statement runs the same operations on the same shapes every
//! time, so its [`RunTemplate`](crate::RunTemplate) keeps those buffers:
//! per task slot (a process group's instance) a free list of
//! `MemberScratch` sets, one entry per member. A task borrows a set when
//! it is spawned (`ScratchLists::lend`), making a new one if every set
//! is lent (two connections executing one cached statement), works in its
//! buffers, takes each back emptied as the member using it finishes —
//! a handed-over intermediate once the member reading it has finished —
//! and gives the set back when it ends, however it ends
//! (`Lent::give_back`). An ad-hoc query goes the same way, its template's
//! lists empty, so it works in fresh buffers as before.
//!
//! A set is charged to its query's memory budget by capacity while it is
//! lent. A buffer that grew past `KEEP_BYTES` (64 KiB) is freed instead of
//! kept: past that size the work of filling it dwarfs its allocation, and
//! the sets of every cached statement stay small.

use std::sync::{Arc, Mutex, PoisonError};

use mj_join::ColumnarTable;
use mj_relalg::column::ColumnBatch;

use crate::config::MESSAGE_BYTES;

/// The largest buffer a scratch set keeps, in bytes of capacity; a larger
/// one is freed when it comes back. A stream message's size
/// ([`MESSAGE_BYTES`]), the largest buffer an edge's pool recycles: the
/// benchmark's 14-way chain keeps every buffer it uses (its widest
/// intermediate is 42 columns of about 50 rows, 17 KB), and a set of
/// fourteen members holds at most a few megabytes.
pub(crate) const KEEP_BYTES: u64 = MESSAGE_BYTES as u64;

/// The buffers a join works in that need not die with it: the match pairs
/// it collects and the table it indexes its own build side into. A task
/// lends a join the ones its statement kept
/// ([`PhysicalOp::scratch`](crate::operator::PhysicalOp::scratch)) and
/// takes them back when the join finishes.
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
    fn bytes(&self) -> u64 {
        (self.pairs.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.table.index_capacity_bytes()) as u64
    }

    /// Empties both buffers for the next join, freeing any past the cap.
    fn recycle(&mut self) {
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

/// The buffers of one member of a task, kept between executes.
#[derive(Default)]
pub(crate) struct MemberScratch {
    /// Its output batch, inside the `Arc` it is handed over in, so neither
    /// is allocated again.
    pub(crate) out: Option<Arc<ColumnBatch>>,
    /// Its join's buffers.
    pub(crate) join: JoinScratch,
}

impl MemberScratch {
    fn bytes(&self) -> u64 {
        let out = self.out.as_ref().map_or(0, |out| out.capacity_bytes());
        out + self.join.bytes()
    }
}

/// A run template's free lists of scratch sets, one list per task slot.
pub(crate) struct ScratchLists {
    free: Vec<Mutex<Vec<Vec<MemberScratch>>>>,
}

impl ScratchLists {
    /// Empty lists for `slots` task slots.
    pub(crate) fn new(slots: usize) -> Arc<ScratchLists> {
        Arc::new(ScratchLists {
            free: (0..slots).map(|_| Mutex::default()).collect(),
        })
    }

    /// Lends a set for the task of slot `slot`, whose group has `members`
    /// members: the one given back last, or a new, empty one if every set
    /// of the slot is lent.
    pub(crate) fn lend(self: &Arc<Self>, slot: usize, members: usize) -> Lent {
        let kept = self.list(slot).pop();
        let set = kept.unwrap_or_else(|| (0..members).map(|_| MemberScratch::default()).collect());
        Lent {
            lists: Some((self.clone(), slot)),
            set,
        }
    }

    /// Sets kept, not lent, over every slot (tests).
    #[cfg(test)]
    pub(crate) fn kept(&self) -> usize {
        (0..self.free.len()).map(|slot| self.list(slot).len()).sum()
    }

    /// Slots holding at least one set not lent, and all slots.
    pub(crate) fn held(&self) -> (usize, usize) {
        let holding = (0..self.free.len()).filter(|&slot| !self.list(slot).is_empty());
        (holding.count(), self.free.len())
    }

    fn list(&self, slot: usize) -> std::sync::MutexGuard<'_, Vec<Vec<MemberScratch>>> {
        // Every update is a single push or pop: the list is whole even if
        // a holder panicked.
        self.free[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// A scratch set lent to one task: per member position, its buffers while
/// they are not in use. A task that borrowed nothing (a unit test's) holds
/// an empty one, and what its members used dies with them.
#[derive(Default)]
pub(crate) struct Lent {
    /// Where the set goes back to: the lists and the task's slot.
    lists: Option<(Arc<ScratchLists>, usize)>,
    set: Vec<MemberScratch>,
}

impl Lent {
    /// Bytes of capacity held: what the task charges its budget for the set.
    pub(crate) fn bytes(&self) -> u64 {
        self.set.iter().map(MemberScratch::bytes).sum()
    }

    /// The buffers of the member at position `pos`, to work in.
    pub(crate) fn member(&mut self, pos: usize) -> Option<&mut MemberScratch> {
        self.set.get_mut(pos)
    }

    /// Takes back the output batch of the member at position `pos`, once
    /// nothing else holds it, emptied; one past the cap is freed.
    pub(crate) fn keep_out(&mut self, pos: usize, mut out: Arc<ColumnBatch>) {
        let (Some(slot), Some(batch)) = (self.set.get_mut(pos), Arc::get_mut(&mut out)) else {
            return;
        };
        batch.clear();
        if batch.capacity_bytes() <= KEEP_BYTES {
            slot.out = Some(out);
        }
    }

    /// Takes back the join buffers of the member at position `pos`,
    /// swapped out of its operator (which gets the empty ones the set
    /// held) and emptied.
    pub(crate) fn keep_join(&mut self, pos: usize, join: &mut JoinScratch) {
        if let Some(slot) = self.set.get_mut(pos) {
            std::mem::swap(&mut slot.join, join);
            slot.join.recycle();
        }
    }

    /// Gives the set back to the lists it came from. Called once the task
    /// has taken back every member's buffers; later calls do nothing.
    pub(crate) fn give_back(&mut self) {
        if let Some((lists, slot)) = self.lists.take() {
            lists.list(slot).push(std::mem::take(&mut self.set));
        }
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
        let lists = ScratchLists::new(2);
        let mut first = lists.lend(1, 3);
        let mut second = lists.lend(1, 3);
        first.keep_out(0, batch(10));
        assert_eq!(first.member(0).unwrap().out.as_ref().unwrap().rows(), 0);
        assert!(
            second.member(0).unwrap().out.is_none(),
            "a new set is empty"
        );
        first.give_back();
        second.give_back();
        first.give_back();
        assert_eq!(lists.kept(), 2, "both, in slot 1");
        assert!(lists.lend(0, 3).set[0].out.is_none(), "slot 0 has none");
        // The set given back last is lent first.
        let again = lists.lend(1, 3);
        assert!(again.set[0].out.is_none());
        assert_eq!(again.set.len(), 3);
    }

    #[test]
    fn buffers_past_the_cap_are_freed_and_the_rest_kept_empty() {
        let lists = ScratchLists::new(1);
        let mut lent = lists.lend(0, 2);
        // 8 KB and 128 KB of output; 500 and 20 000 rows of join.
        lent.keep_out(0, batch(1_000));
        lent.keep_out(1, batch(16_000));
        let (mut small, mut big) = (used_join(500), used_join(20_000));
        let index = small.table.index_capacity_bytes() as u64;
        lent.keep_join(0, &mut small);
        lent.keep_join(1, &mut big);
        assert!(small.table.is_empty() && big.table.is_empty(), "swapped");
        let bytes = lent.bytes();
        lent.give_back();

        let mut lent = lists.lend(0, 2);
        assert_eq!(lent.bytes(), bytes, "the set is charged by capacity");
        let kept = lent.member(0).unwrap();
        let out = kept.out.as_ref().expect("a small batch is kept");
        assert_eq!((out.rows(), out.capacity_bytes()), (0, 8_000));
        assert_eq!(kept.join.table.index_capacity_bytes() as u64, index);
        assert!(kept.join.table.is_empty() && kept.join.pairs.is_empty());
        assert_eq!(kept.join.pairs.capacity(), 500);
        let freed = lent.member(1).unwrap();
        assert!(freed.out.is_none(), "a batch past the cap is freed");
        assert_eq!(freed.join.bytes(), 0, "so are join buffers past it");
    }

    #[test]
    fn a_batch_someone_still_holds_is_not_taken_back() {
        let lists = ScratchLists::new(1);
        let mut lent = lists.lend(0, 1);
        let out = batch(4);
        let held = out.clone();
        lent.keep_out(0, out);
        assert!(lent.member(0).unwrap().out.is_none());
        assert_eq!(held.rows(), 4, "the holder's rows are untouched");
        // A task that borrowed nothing keeps nothing.
        let mut unlent = Lent::default();
        unlent.keep_out(0, batch(4));
        unlent.give_back();
        assert_eq!(unlent.bytes(), 0);
    }
}
