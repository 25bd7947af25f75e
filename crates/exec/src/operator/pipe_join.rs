//! The pipelining hash-join operation process (\[WiA91\], §2.3.2): symmetric,
//! single-phase, producing output as early as possible so both operands can
//! be live pipelines.

use mj_relalg::{EquiJoin, Result};

use crate::metrics::InstanceStats;
use crate::operator::task::{drive_blocking, OpTask};
use crate::operator::OutputPort;
use crate::source::Source;

/// Runs one pipelining hash-join instance to completion on the current
/// thread (a blocking driver over the same [`OpTask`] state machine the
/// worker pool schedules).
///
/// The task's feed loop alternates sides whenever both have tuples
/// available — immediate operands interleave tuple-by-tuple (both-local
/// bottom joins exercise true symmetry), and live streams are drained from
/// whichever side is ready (two-sided pipelining).
pub fn run_pipelining_instance(
    spec: EquiJoin,
    left: Source,
    right: Source,
    output: OutputPort,
    batch_size: usize,
) -> Result<InstanceStats> {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let task = OpTask::join(
        mj_relalg::JoinAlgorithm::Pipelining,
        spec,
        left,
        right,
        output,
        batch_size,
        0,
        0,
        done_tx.into(),
        None,
        false,
        None,
    );
    drive_blocking(task);
    done_rx.recv().expect("task reports exactly once").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{operand_channels, Router};
    use mj_relalg::column::{ColumnBatch, ColumnLayout};
    use mj_relalg::{Projection, Tuple};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn rel(rows: &[[i64; 2]]) -> Arc<ColumnBatch> {
        let mut batch = ColumnBatch::with_capacity(&ColumnLayout::ints(2), rows.len());
        for r in rows {
            batch.push_tuple(&Tuple::from_ints(r)).unwrap();
        }
        Arc::new(batch)
    }

    fn spec() -> EquiJoin {
        EquiJoin::new(0, 0, Projection::new(vec![1, 3]))
    }

    #[test]
    fn both_local() {
        let collected = Arc::new(Mutex::new(Vec::new()));
        let stats = run_pipelining_instance(
            spec(),
            Source::Local(rel(&[[1, 10], [2, 20], [3, 30]])),
            Source::Local(rel(&[[2, 200], [3, 300], [4, 400]])),
            OutputPort::Sink {
                collected: collected.clone(),
                buffer: Vec::new(),
            },
            2,
        )
        .unwrap();
        assert_eq!(stats.tuples_in, [3, 3]);
        assert_eq!(collected.lock().len(), 2);
    }

    #[test]
    fn local_left_streamed_right() {
        let (txs, rxs, pool) = operand_channels(1, 1, 4, ColumnLayout::ints(2));
        let collected = Arc::new(Mutex::new(Vec::new()));
        let producer = std::thread::spawn(move || {
            let mut router = Router::new(txs, 0, 2, pool);
            for k in 0..10i64 {
                router.route(Tuple::from_ints(&[k, k])).unwrap();
            }
            router.finish().unwrap();
        });
        let stats = run_pipelining_instance(
            spec(),
            Source::Local(rel(&[[4, 40], [5, 50]])),
            Source::Stream {
                rx: rxs.into_iter().next().unwrap(),
                producers: 1,
            },
            OutputPort::Sink {
                collected: collected.clone(),
                buffer: Vec::new(),
            },
            3,
        )
        .unwrap();
        producer.join().unwrap();
        assert_eq!(stats.tuples_in, [2, 10]);
        assert_eq!(collected.lock().len(), 2);
    }

    #[test]
    fn two_streams_from_concurrent_producers() {
        let (ltxs, lrxs, lpool) = operand_channels(1, 1, 4, ColumnLayout::ints(2));
        let (rtxs, rrxs, rpool) = operand_channels(1, 1, 4, ColumnLayout::ints(2));
        let collected = Arc::new(Mutex::new(Vec::new()));
        let lp = std::thread::spawn(move || {
            let mut router = Router::new(ltxs, 0, 2, lpool);
            for k in 0..100i64 {
                router.route(Tuple::from_ints(&[k, k])).unwrap();
            }
            router.finish().unwrap();
        });
        let rp = std::thread::spawn(move || {
            let mut router = Router::new(rtxs, 0, 2, rpool);
            for k in 50..150i64 {
                router.route(Tuple::from_ints(&[k, k])).unwrap();
            }
            router.finish().unwrap();
        });
        let stats = run_pipelining_instance(
            spec(),
            Source::Stream {
                rx: lrxs.into_iter().next().unwrap(),
                producers: 1,
            },
            Source::Stream {
                rx: rrxs.into_iter().next().unwrap(),
                producers: 1,
            },
            OutputPort::Sink {
                collected: collected.clone(),
                buffer: Vec::new(),
            },
            8,
        )
        .unwrap();
        lp.join().unwrap();
        rp.join().unwrap();
        assert_eq!(stats.tuples_in, [100, 100]);
        assert_eq!(collected.lock().len(), 50, "keys 50..100 overlap");
    }
}
