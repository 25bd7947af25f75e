//! Where an instance's results go.

use std::sync::Arc;
use std::task::Waker;

use mj_relalg::column::{columnar_row_bytes, ColumnBatch};
use mj_relalg::{Result, Schema};
use mj_storage::{fragment_columns, Fragments};

use crate::budget::MemoryBudget;
use crate::stream::{rows_per_message, Router};

/// The output port of one operation-process instance.
pub enum OutputPort {
    /// Live redistribution to the consumer's instances — or, from the
    /// query's last operation, to the client's
    /// [`ResultStream`](crate::handle::ResultStream): results flow before
    /// the query completes and a slow client backpressures the pool.
    Stream(Router),
    /// Keep the whole output for a consumer that starts only once this
    /// operation has completed (SP/SE materialization and RD inter-wave
    /// edges), split once into one piece per consumer instance: piece `j`
    /// holds the rows whose consumer key hashes to bucket `j`, so consumer
    /// instance `j` reads its piece of every producer instance without
    /// hashing anything. The pieces stay columnar end to end and leave
    /// with the instance's completion report for its query's run, which
    /// hands them to the consumer's instances.
    Materialize {
        /// Accumulated output rows, shaped for the op's output schema.
        buffer: ColumnBatch,
        /// The consumer's key column in these rows and its degree.
        parts: (usize, usize),
        /// Rows the task gathers before it appends them here: a stream
        /// message's worth of this schema ([`rows_per_message`]).
        batch: usize,
        /// The owning query's memory budget: the pieces' bytes are charged
        /// when they are cut and credited back when the query concludes.
        budget: Arc<MemoryBudget>,
        /// The pieces, once the port has finished.
        pieces: Option<Fragments>,
    },
}

impl OutputPort {
    /// A materializing port cutting `schema`-shaped rows into `parts.1`
    /// pieces, split on key column `parts.0`, taking rows a stream
    /// message's worth at a time (at most `cap`). The buffer is typed up
    /// front so an instance that produces nothing still gives well-formed
    /// (empty) pieces its consumers can read.
    pub fn materialize(
        schema: &Schema,
        parts: (usize, usize),
        cap: usize,
        budget: Arc<MemoryBudget>,
    ) -> OutputPort {
        OutputPort::Materialize {
            buffer: ColumnBatch::for_schema(schema),
            parts,
            batch: rows_per_message(columnar_row_bytes(schema), cap),
            budget,
            pieces: None,
        }
    }

    /// Rows the task gathers before it emits them through this port: the
    /// router's message size, or the same count of a materialized schema.
    pub fn batch(&self) -> usize {
        match self {
            OutputPort::Stream(router) => router.batch(),
            OutputPort::Materialize { batch, .. } => *batch,
        }
    }

    /// What a kept task keeps of the port for its statement's next
    /// execute: a stream port's router, detached from this execute's edge
    /// ([`Router::rearm`] attaches it to the next one's). A materializing
    /// port keeps nothing.
    pub(crate) fn kept(self) -> Option<Router> {
        match self {
            OutputPort::Stream(mut router) => {
                router.detach();
                Some(router)
            }
            OutputPort::Materialize { .. } => None,
        }
    }

    /// The pieces a finished materializing port cut, one per consumer
    /// instance; `None` for any other port, or before it finished.
    pub(crate) fn take_pieces(&mut self) -> Option<Fragments> {
        match self {
            OutputPort::Materialize { pieces, .. } => pieces.take(),
            _ => None,
        }
    }

    /// Non-blocking columnar emit of rows `*pos..` of `out`. Returns the
    /// number of rows emitted and whether the backlog fully drained; on a
    /// full drain `out` is cleared (keeping its column layout and
    /// capacity) and `pos` reset so the operator can refill it.
    /// `Ok((_, false))` means stream backpressure — `waker` is registered on
    /// the full edge, and the caller should yield and call again with the
    /// same arguments once woken.
    pub fn try_emit(
        &mut self,
        out: &mut ColumnBatch,
        pos: &mut usize,
        waker: &Waker,
    ) -> Result<(u64, bool)> {
        let (emitted, done) = match self {
            OutputPort::Stream(router) => router.try_route_batch(out, pos, waker)?,
            OutputPort::Materialize { buffer, .. } => {
                let n = out.rows() - *pos;
                // An operator that has produced nothing yet hands over a
                // still-shapeless batch; there is nothing to append.
                if n > 0 {
                    buffer.append_rows(out, *pos..out.rows())?;
                }
                (n as u64, true)
            }
        };
        if done {
            out.clear();
            *pos = 0;
        }
        Ok((emitted, done))
    }

    /// Non-blocking finalize: resumable stream flush + `End` for routers;
    /// cutting the pieces (which never blocks) for a materializing port.
    /// `Ok(false)` means backpressure (`waker` registered) — yield and call
    /// again once woken. Must be called until it returns `Ok(true)`,
    /// exactly once past that point.
    pub fn try_finish(&mut self, waker: &Waker) -> Result<bool> {
        match self {
            OutputPort::Stream(router) => router.try_finish(waker),
            OutputPort::Materialize {
                buffer,
                parts: (key_col, of),
                budget,
                pieces,
                ..
            } => {
                let output = Arc::new(std::mem::take(buffer));
                let cut = fragment_columns(&output, *key_col, *of)?;
                // Charge unconditionally; enforcement happens at the
                // consuming tasks' next budget poll. The query's run credits
                // these bytes back when it concludes.
                budget.charge(cut.iter().map(|piece| piece.est_bytes()).sum());
                *pieces = Some(cut);
                Ok(true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{operand_channels, Msg, Spares};
    use mj_relalg::column::ColumnLayout;
    use mj_relalg::{Attribute, Tuple};

    fn schema() -> Arc<Schema> {
        Schema::new(vec![Attribute::int("k")]).shared()
    }

    fn batch(keys: &[i64]) -> ColumnBatch {
        let mut out = ColumnBatch::shapeless();
        for &k in keys {
            out.push_tuple(&Tuple::from_ints(&[k])).unwrap();
        }
        out
    }

    #[test]
    fn sink_materializes_columnar_emits() {
        let mut port = OutputPort::materialize(&schema(), (0, 1), 64, MemoryBudget::unlimited());
        let mut out = batch(&[5, 6]);
        let mut pos = 0;
        let (n, done) = port.try_emit(&mut out, &mut pos, Waker::noop()).unwrap();
        assert_eq!((n, done, pos), (2, true, 0));
        assert!(out.is_empty(), "drained emit clears the batch");
        assert!(port.try_finish(Waker::noop()).unwrap());
        assert_eq!(port.take_pieces().unwrap()[0].rows(), 2);
    }

    /// Runs a materializing port over `keys` (from row `pos` on) and
    /// returns its pieces.
    fn materialized(keys: &[i64], pos: usize, of: usize, budget: Arc<MemoryBudget>) -> Fragments {
        let mut port = OutputPort::materialize(&schema(), (0, of), usize::MAX, budget);
        assert!(port.take_pieces().is_none(), "no pieces before the finish");
        let (mut out, mut pos) = (batch(keys), pos);
        port.try_emit(&mut out, &mut pos, Waker::noop()).unwrap();
        assert!(port.try_finish(Waker::noop()).unwrap());
        let pieces = port.take_pieces().expect("a finished port has its pieces");
        assert!(port.take_pieces().is_none(), "the pieces leave once");
        pieces
    }

    #[test]
    fn materialize_stores_a_columnar_fragment() {
        let pieces = materialized(&[7, 8, 9], 1, 1, MemoryBudget::unlimited());
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].int_col(0).unwrap(), &[8, 9]);
    }

    #[test]
    fn materialize_stores_one_piece_per_consumer_instance() {
        let budget = MemoryBudget::unlimited();
        let keys: Vec<i64> = (0..200).map(|i| i * 7 - 300).collect();
        let pieces = materialized(&keys, 0, 3, budget.clone());
        assert_eq!(pieces.len(), 3, "exactly three pieces");
        let mut union = Vec::new();
        for (j, piece) in pieces.iter().enumerate() {
            for &k in piece.int_col(0).unwrap() {
                assert_eq!(mj_relalg::hash::bucket_of(k, 3), j, "key {k}");
                union.push(k);
            }
        }
        union.sort_unstable();
        assert_eq!(union, keys, "the pieces partition the buffer");
        let cut: u64 = pieces.iter().map(|p| p.est_bytes()).sum();
        assert_eq!(budget.used(), cut, "every piece is charged");
    }

    #[test]
    fn an_instance_without_output_stores_a_typed_empty_fragment() {
        for of in [1, 3] {
            let mut port =
                OutputPort::materialize(&schema(), (0, of), usize::MAX, MemoryBudget::unlimited());
            assert!(port.try_finish(Waker::noop()).unwrap());
            let pieces = port.take_pieces().unwrap();
            assert_eq!(pieces.len(), of);
            for piece in pieces.iter() {
                assert_eq!((piece.rows(), piece.arity()), (0, 1));
            }
        }
    }

    #[test]
    fn materialize_charges_budget_for_stored_fragment() {
        let budget = MemoryBudget::unlimited();
        let pieces = materialized(&[7, 8], 0, 1, budget.clone());
        assert_eq!(pieces[0].est_bytes(), 16, "two dense integer values");
        assert_eq!(budget.used(), 16);
        let pieces = materialized(&[1, 2, 3, 4], 0, 2, budget.clone());
        let cut: u64 = pieces.iter().map(|p| p.est_bytes()).sum();
        assert_eq!(cut, 32, "the pieces hold every row once");
        assert_eq!(budget.used(), 16 + cut);
    }

    #[test]
    fn stream_forwards_and_ends() {
        let spares = Spares::new(ColumnLayout::ints(1));
        let (txs, rxs, pool) = operand_channels(1, 1, 8, &spares, MemoryBudget::unlimited());
        let mut port = OutputPort::Stream(Router::new(txs, 0, 2, pool));
        let mut out = batch(&[1, 2]);
        let mut pos = 0;
        let (n, done) = port.try_emit(&mut out, &mut pos, Waker::noop()).unwrap();
        assert_eq!((n, done), (2, true));
        while !port.try_finish(Waker::noop()).unwrap() {}
        let mut tuples = 0;
        let mut ends = 0;
        while let Ok(msg) = rxs[0].try_recv() {
            match msg {
                Msg::Batch(b) => tuples += b.len(),
                Msg::End => {
                    ends += 1;
                    break;
                }
            }
        }
        assert_eq!((tuples, ends), (2, 1));
    }
}
