//! Where an instance's results go.

use std::sync::Arc;

use mj_core::plan_ir::ProcId;
use mj_relalg::column::ColumnBatch;
use mj_relalg::{Result, Schema};
use mj_storage::FragmentStore;

use crate::budget::MemoryBudget;
use crate::stream::{ClientSink, Router};

/// The output port of one operation-process instance.
pub enum OutputPort {
    /// Live redistribution to the consumer's instances.
    Stream(Router),
    /// Store the output fragment in this processor's memory (the consumer
    /// reads it later — SP/SE materialization and RD inter-wave edges).
    /// The fragment stays columnar end to end.
    Materialize {
        /// Shared node-memory store.
        store: Arc<FragmentStore>,
        /// This instance's processor (storage node).
        proc: ProcId,
        /// Fragment name (`op{id}`).
        name: String,
        /// Accumulated output rows, shaped for the op's output schema.
        buffer: ColumnBatch,
        /// The owning query's memory budget: the stored fragment's bytes
        /// are charged on write and credited back when the coordinator
        /// reclaims the query's namespace.
        budget: Option<Arc<MemoryBudget>>,
    },
    /// The root of a submitted query: batches stream to the client's
    /// [`ResultStream`](crate::handle::ResultStream) through a bounded
    /// channel, so results flow before the query completes and a slow
    /// client backpressures the pool.
    Client(ClientSink),
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
    /// A materializing port storing one fragment of `schema`-shaped rows
    /// under `name` at `proc`. The buffer is typed up front so an instance
    /// that produces nothing still stores a well-formed (empty) fragment
    /// its consumers can bucket-scan.
    pub fn materialize(
        store: Arc<FragmentStore>,
        proc: ProcId,
        name: String,
        schema: &Schema,
        budget: Option<Arc<MemoryBudget>>,
    ) -> OutputPort {
        OutputPort::Materialize {
            store,
            proc,
            name,
            buffer: ColumnBatch::for_schema(schema),
            budget,
        }
    }

    /// Non-blocking columnar emit of rows `*pos..` of `out`. Returns the
    /// number of rows emitted and whether the backlog fully drained; on a
    /// full drain `out` is cleared (keeping its column layout and
    /// capacity) and `pos` reset so the operator can refill it.
    /// `Ok((_, false))` means stream backpressure — the caller should
    /// yield and call again with the same arguments.
    pub fn try_emit(&mut self, out: &mut ColumnBatch, pos: &mut usize) -> Result<(u64, bool)> {
        let (emitted, done) = match self {
            OutputPort::Stream(router) => router.try_route_batch(out, pos)?,
            OutputPort::Client(sink) => sink.try_append_batch(out, pos)?,
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
    /// `Ok(false)` means backpressure — yield and call again. Must be
    /// called until it returns `Ok(true)`, exactly once past that point.
    pub fn try_finish(&mut self) -> Result<bool> {
        match self {
            OutputPort::Stream(router) => router.try_finish(),
            OutputPort::Client(sink) => sink.try_finish(),
            OutputPort::Materialize {
                store,
                proc,
                name,
                buffer,
                budget,
            } => {
                let fragment = Arc::new(std::mem::take(buffer));
                if let Some(budget) = budget {
                    // Charge unconditionally; enforcement happens at the
                    // consuming tasks' next budget poll. The coordinator
                    // credits these bytes back via `remove_prefix`.
                    budget.charge(fragment.est_bytes());
                }
                store.put(*proc, name.clone(), fragment)?;
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
        let (n, done) = port.try_emit(&mut out, &mut pos).unwrap();
        assert_eq!((n, done, pos), (2, true, 0));
        assert!(out.is_empty(), "drained emit clears the batch");
        assert!(port.try_finish().unwrap());
        assert_eq!(collected.lock().len(), 2);
    }

    #[test]
    fn materialize_stores_a_columnar_fragment() {
        let store = Arc::new(FragmentStore::new(2));
        let mut port = OutputPort::materialize(store.clone(), 1, "op0".into(), &schema(), None);
        let (mut out, mut pos) = (batch(&[7, 8, 9]), 1);
        port.try_emit(&mut out, &mut pos).unwrap();
        assert!(port.try_finish().unwrap());
        assert_eq!(store.get(1, "op0").unwrap().int_col(0).unwrap(), &[8, 9]);
        assert!(store.get(0, "op0").is_err());
    }

    #[test]
    fn an_instance_without_output_stores_a_typed_empty_fragment() {
        let store = Arc::new(FragmentStore::new(1));
        let mut port = OutputPort::materialize(store.clone(), 0, "op0".into(), &schema(), None);
        assert!(port.try_finish().unwrap());
        let stored = store.get(0, "op0").unwrap();
        assert_eq!((stored.rows(), stored.arity()), (0, 1));
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
            Some(budget.clone()),
        );
        let (mut out, mut pos) = (batch(&[7, 8]), 0);
        port.try_emit(&mut out, &mut pos).unwrap();
        assert!(port.try_finish().unwrap());
        let stored = store.get(0, "q1:op0").unwrap().est_bytes();
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
        let (n, done) = port.try_emit(&mut out, &mut pos).unwrap();
        assert_eq!((n, done), (2, true));
        while !port.try_finish().unwrap() {}
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
