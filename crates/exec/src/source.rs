//! Operand sources as seen by one operation-process instance.

use std::sync::Arc;

use mj_join::ColumnarTable;
use mj_relalg::column::ColumnBatch;
use mj_relalg::Predicate;

use crate::stream::{Msg, Receiver};

/// Where an instance's operand rows come from.
pub enum Source {
    /// A processor-local columnar fragment (ideal base fragmentation,
    /// §4.1): read directly, no network. Shared with its relation's
    /// catalog entry, or private to the query when a scan filter or the
    /// late-materialization narrowing produced it.
    Local(Arc<ColumnBatch>),
    /// A processor-local fragment under a pushed-down scan filter: the
    /// instance selects the rows satisfying `predicate` when it first reads
    /// the operand — a selection is the operation's own work, done on the
    /// pool — and gathers them into a batch private to the query (filtering
    /// and hash partitioning commute; the fragment itself is shared with
    /// the catalog entry and never changed).
    Filtered {
        /// The fragment, shared with its relation's catalog entry.
        fragment: Arc<ColumnBatch>,
        /// The scan filter, its `?N` placeholders bound.
        predicate: Arc<Predicate>,
    },
    /// A simple join's build operand already built: the resident join
    /// table over an unfiltered base fragment, shared with its relation's
    /// catalog entry ([`Catalog::tables`]), whose rows *are* the
    /// fragment. The join adopts it whole
    /// ([`PhysicalOp::adopt_table`](crate::operator::PhysicalOp::adopt_table))
    /// and builds nothing. Every other build operand — filtered, late,
    /// materialized or fused — is indexed per query.
    ///
    /// [`Catalog::tables`]: mj_storage::Catalog::tables
    Table(Arc<ColumnarTable>),
    /// A materialized intermediate: this instance's piece of every
    /// producer instance's output, which the producer split on this
    /// operand's join key at its consumer's degree
    /// ([`OutputPort::Materialize`](crate::operator::OutputPort::Materialize))
    /// — physically a redistribution read, with the hashing done once, at
    /// the producer.
    Materialized(Vec<Arc<ColumnBatch>>),
    /// A live stream from `producers` producer instances.
    Stream {
        /// This instance's receiver.
        rx: Receiver<Msg>,
        /// Producer instances; the side closes after this many `End`s.
        producers: usize,
    },
}
