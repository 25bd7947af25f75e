//! Operand sources as seen by one operation-process instance.

use std::sync::Arc;

use mj_relalg::column::ColumnBatch;

use crate::stream::{Msg, Receiver};

/// Where an instance's operand rows come from.
pub enum Source {
    /// A processor-local columnar fragment (ideal base fragmentation,
    /// §4.1): read directly, no network. Shared with the engine's
    /// fragment cache, or private to the query when a scan filter or the
    /// late-materialization narrowing produced it.
    Local(Arc<ColumnBatch>),
    /// A materialized intermediate: the instance pulls every producer
    /// fragment and keeps the rows that hash to its own bucket —
    /// physically a redistribution read.
    Filtered {
        /// All producer output fragments.
        fragments: Vec<Arc<ColumnBatch>>,
        /// Key column to bucket on (this operand's join key).
        key_col: usize,
        /// This instance's bucket.
        bucket: usize,
        /// Total buckets (= the consuming op's degree).
        of: usize,
    },
    /// A live stream from `producers` producer instances.
    Stream {
        /// This instance's receiver.
        rx: Receiver<Msg>,
        /// Producer instances; the side closes after this many `End`s.
        producers: usize,
    },
}
