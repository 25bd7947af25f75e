//! The simple hash-join operation process: build the left operand fully,
//! then stream the right operand past the table (§2.3.2).

use mj_relalg::{EquiJoin, Result};

use crate::metrics::InstanceStats;
use crate::operator::task::{drive_blocking, OpTask};
use crate::operator::OutputPort;
use crate::source::Source;

/// Runs one simple hash-join instance to completion on the current thread
/// (a blocking driver over the same [`OpTask`] state machine the worker
/// pool schedules).
///
/// The build (left) source must be immediate (base fragment or materialized
/// intermediate): no strategy in the paper streams into a simple join's
/// build side — SP/SE materialize everything, RD builds from bases or
/// prior-wave outputs.
pub fn run_simple_instance(
    spec: EquiJoin,
    left: Source,
    right: Source,
    output: OutputPort,
    batch_size: usize,
) -> Result<InstanceStats> {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let task = OpTask::join(
        mj_relalg::JoinAlgorithm::Simple,
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
        EquiJoin::new(0, 0, Projection::new(vec![0, 1, 3]))
    }

    #[test]
    fn local_build_local_probe() {
        let collected = Arc::new(Mutex::new(Vec::new()));
        let stats = run_simple_instance(
            spec(),
            Source::Local(rel(&[[1, 10], [2, 20]])),
            Source::Local(rel(&[[2, 200], [3, 300]])),
            OutputPort::Sink {
                collected: collected.clone(),
                buffer: Vec::new(),
            },
            4,
        )
        .unwrap();
        assert_eq!(stats.tuples_in, [2, 2]);
        assert_eq!(stats.tuples_out, 1);
        assert_eq!(collected.lock().len(), 1);
        assert!(stats.table_bytes > 0);
    }

    #[test]
    fn streamed_probe() {
        let (txs, rxs, pool) = operand_channels(1, 1, 8, ColumnLayout::ints(2));
        let collected = Arc::new(Mutex::new(Vec::new()));
        // Producer thread: sends 5 probe tuples then End.
        let producer = std::thread::spawn(move || {
            let mut router = Router::new(txs, 0, 2, pool);
            for k in 0..5i64 {
                router.route(Tuple::from_ints(&[k, k * 100])).unwrap();
            }
            router.finish().unwrap();
        });
        let stats = run_simple_instance(
            spec(),
            Source::Local(rel(&[[1, 10], [3, 30], [9, 90]])),
            Source::Stream {
                rx: rxs.into_iter().next().unwrap(),
                producers: 1,
            },
            OutputPort::Sink {
                collected: collected.clone(),
                buffer: Vec::new(),
            },
            2,
        )
        .unwrap();
        producer.join().unwrap();
        assert_eq!(stats.tuples_in[1], 5);
        assert_eq!(collected.lock().len(), 2, "keys 1 and 3 match");
    }

    #[test]
    fn streamed_build_is_rejected() {
        let (_txs, rxs, _pool) = operand_channels(1, 1, 1, ColumnLayout::ints(2));
        let collected = Arc::new(Mutex::new(Vec::new()));
        let r = run_simple_instance(
            spec(),
            Source::Stream {
                rx: rxs.into_iter().next().unwrap(),
                producers: 1,
            },
            Source::Local(rel(&[])),
            OutputPort::Sink {
                collected,
                buffer: Vec::new(),
            },
            2,
        );
        assert!(r.is_err());
    }
}
