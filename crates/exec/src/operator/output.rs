//! Where an instance's results go.

use std::sync::Arc;
use std::task::Waker;

use mj_core::plan_ir::ProcId;
use mj_relalg::column::ColumnBatch;
use mj_relalg::{Result, Schema};
use mj_storage::{fragment_columns, FragmentStore};

use crate::budget::MemoryBudget;
use crate::stream::Router;

/// The output port of one operation-process instance.
pub enum OutputPort {
    /// Live redistribution to the consumer's instances — or, from the
    /// query's last operation, to the client's
    /// [`ResultStream`](crate::handle::ResultStream): results flow before
    /// the query completes and a slow client backpressures the pool.
    Stream(Router),
    /// Store the output in this processor's memory (the consumer reads it
    /// later — SP/SE materialization and RD inter-wave edges), split once
    /// into one piece per consumer instance: piece `j` holds the rows
    /// whose consumer key hashes to bucket `j` and is stored as
    /// `{name}.{j}`, so consumer instance `j` reads its pieces of every
    /// producer instance without hashing anything. The pieces stay
    /// columnar end to end.
    Materialize {
        /// Shared node-memory store.
        store: Arc<FragmentStore>,
        /// This instance's processor (storage node).
        proc: ProcId,
        /// Fragment name prefix (`op{id}`).
        name: String,
        /// Accumulated output rows, shaped for the op's output schema.
        buffer: ColumnBatch,
        /// The consumer's key column in these rows and its degree.
        parts: (usize, usize),
        /// The owning query's memory budget: the stored fragment's bytes
        /// are charged on write and credited back when the coordinator
        /// reclaims the query's namespace.
        budget: Option<Arc<MemoryBudget>>,
    },
    /// A buffered row-collection sink (unit tests).
    #[cfg(test)]
    Sink {
        /// Shared collection buffer.
        collected: Arc<parking_lot::Mutex<Vec<mj_relalg::Tuple>>>,
        /// Local accumulation to amortize locking.
        buffer: Vec<mj_relalg::Tuple>,
    },
}

impl OutputPort {
    /// A materializing port storing `schema`-shaped rows at `proc` as
    /// `parts.1` pieces `{name}.{j}`, split on key column `parts.0`. The
    /// buffer is typed up front so an instance that produces nothing still
    /// stores well-formed (empty) pieces its consumers can read.
    pub fn materialize(
        store: Arc<FragmentStore>,
        proc: ProcId,
        name: String,
        schema: &Schema,
        parts: (usize, usize),
        budget: Option<Arc<MemoryBudget>>,
    ) -> OutputPort {
        OutputPort::Materialize {
            store,
            proc,
            name,
            buffer: ColumnBatch::for_schema(schema),
            parts,
            budget,
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
            #[cfg(test)]
            OutputPort::Sink { buffer, .. } => {
                let n = out.rows() - *pos;
                // Rows exist only here, at the test sink's boundary.
                out.rows_into(*pos..out.rows(), buffer)?;
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
    /// store write / sink merge (which never block) for the others.
    /// `Ok(false)` means backpressure (`waker` registered) — yield and call
    /// again once woken. Must be called until it returns `Ok(true)`,
    /// exactly once past that point.
    pub fn try_finish(&mut self, waker: &Waker) -> Result<bool> {
        match self {
            OutputPort::Stream(router) => router.try_finish(waker),
            OutputPort::Materialize {
                store,
                proc,
                name,
                buffer,
                parts: (key_col, of),
                budget,
            } => {
                let output = Arc::new(std::mem::take(buffer));
                for (j, piece) in fragment_columns(&output, *key_col, *of)?.iter().enumerate() {
                    if let Some(budget) = budget {
                        // Charge unconditionally; enforcement happens at the
                        // consuming tasks' next budget poll. The coordinator
                        // credits these bytes back via `remove_prefix`.
                        budget.charge(piece.est_bytes());
                    }
                    store.put(*proc, format!("{name}.{j}"), piece.clone())?;
                }
                Ok(true)
            }
            #[cfg(test)]
            OutputPort::Sink { collected, buffer } => {
                collected.lock().append(buffer);
                Ok(true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{operand_channels, Msg};
    use mj_relalg::column::ColumnLayout;
    use mj_relalg::{Attribute, Tuple};
    use parking_lot::Mutex;

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
        let collected = Arc::new(Mutex::new(Vec::new()));
        let mut port = OutputPort::Sink {
            collected: collected.clone(),
            buffer: Vec::new(),
        };
        let mut out = batch(&[5, 6]);
        let mut pos = 0;
        let (n, done) = port.try_emit(&mut out, &mut pos, Waker::noop()).unwrap();
        assert_eq!((n, done, pos), (2, true, 0));
        assert!(out.is_empty(), "drained emit clears the batch");
        assert!(port.try_finish(Waker::noop()).unwrap());
        assert_eq!(collected.lock().len(), 2);
    }

    #[test]
    fn materialize_stores_a_columnar_fragment() {
        let store = Arc::new(FragmentStore::new(2));
        let mut port =
            OutputPort::materialize(store.clone(), 1, "op0".into(), &schema(), (0, 1), None);
        let (mut out, mut pos) = (batch(&[7, 8, 9]), 1);
        port.try_emit(&mut out, &mut pos, Waker::noop()).unwrap();
        assert!(port.try_finish(Waker::noop()).unwrap());
        assert_eq!(store.get(1, "op0.0").unwrap().int_col(0).unwrap(), &[8, 9]);
        assert!(store.get(0, "op0.0").is_err());
    }

    #[test]
    fn materialize_stores_one_piece_per_consumer_instance() {
        let store = Arc::new(FragmentStore::new(1));
        let budget = MemoryBudget::unlimited();
        let mut port = OutputPort::materialize(
            store.clone(),
            0,
            "q1:op0".into(),
            &schema(),
            (0, 3),
            Some(budget.clone()),
        );
        let keys: Vec<i64> = (0..200).map(|i| i * 7 - 300).collect();
        let (mut out, mut pos) = (batch(&keys), 0);
        port.try_emit(&mut out, &mut pos, Waker::noop()).unwrap();
        assert!(port.try_finish(Waker::noop()).unwrap());
        let mut union = Vec::new();
        let mut stored = 0;
        for j in 0..3 {
            let piece = store.get(0, &format!("q1:op0.{j}")).unwrap();
            for &k in piece.int_col(0).unwrap() {
                assert_eq!(mj_relalg::hash::bucket_of(k, 3), j, "key {k}");
                union.push(k);
            }
            stored += piece.est_bytes();
        }
        assert!(store.get(0, "q1:op0.3").is_err(), "exactly three pieces");
        union.sort_unstable();
        assert_eq!(union, keys, "the pieces partition the buffer");
        assert_eq!(budget.used(), stored, "every piece is charged");
        let freed = store.remove_prefix("q1:");
        assert_eq!(freed, stored, "reclamation frees what was charged");
    }

    #[test]
    fn an_instance_without_output_stores_a_typed_empty_fragment() {
        let store = Arc::new(FragmentStore::new(1));
        for of in [1, 3] {
            let name = format!("op{of}");
            let mut port =
                OutputPort::materialize(store.clone(), 0, name.clone(), &schema(), (0, of), None);
            assert!(port.try_finish(Waker::noop()).unwrap());
            for j in 0..of {
                let stored = store.get(0, &format!("{name}.{j}")).unwrap();
                assert_eq!((stored.rows(), stored.arity()), (0, 1));
            }
        }
    }

    #[test]
    fn materialize_charges_budget_for_stored_fragment() {
        let store = Arc::new(FragmentStore::new(1));
        let budget = MemoryBudget::unlimited();
        let mut port = OutputPort::materialize(
            store.clone(),
            0,
            "q1:op0".into(),
            &schema(),
            (0, 1),
            Some(budget.clone()),
        );
        let (mut out, mut pos) = (batch(&[7, 8]), 0);
        port.try_emit(&mut out, &mut pos, Waker::noop()).unwrap();
        assert!(port.try_finish(Waker::noop()).unwrap());
        let stored = store.get(0, "q1:op0.0").unwrap().est_bytes();
        assert_eq!(stored, 16, "two dense integer values");
        assert_eq!(budget.used(), stored);
        let freed = store.remove_prefix("q1:");
        assert_eq!(freed, stored, "reclamation reports the bytes to credit");
    }

    #[test]
    fn stream_forwards_and_ends() {
        let (txs, rxs, pool) = operand_channels(1, 1, 8, ColumnLayout::ints(1));
        let mut port = OutputPort::Stream(Router::new(txs, 0, 2, pool));
        let mut out = batch(&[1, 2]);
        let mut pos = 0;
        let (n, done) = port.try_emit(&mut out, &mut pos, Waker::noop()).unwrap();
        assert_eq!((n, done), (2, true));
        while !port.try_finish(Waker::noop()).unwrap() {}
        let mut tuples = 0;
        let mut ends = 0;
        while let Ok(msg) = rxs[0].recv() {
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
