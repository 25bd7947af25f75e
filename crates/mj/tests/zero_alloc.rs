//! The zero-allocation gate for the join hot path, in its own test binary:
//! a counting global allocator sees every allocation of the process, so
//! this binary holds exactly one `#[test]` and no parallel test pollutes
//! the count.
//!
//! * Probing a [`ColumnarTable`] into a pre-reserved pairs vector — the
//!   inner loop of both join operators — allocates nothing.
//! * A redistribution edge in steady state serves (almost) every buffer
//!   take from its batch pool: misses stay within the structural bound
//!   `edge_buffer_bound` (the cold-start buffer population) and the hit
//!   rate above 0.9. A regression here means flushed buffers are dropped
//!   and reallocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use multijoin::exec::stream::{edge_buffer_bound, operand_channels, Msg, Router};
use multijoin::join::ColumnarTable;
use multijoin::relalg::column::{ColumnBatch, ColumnLayout};
use multijoin::relalg::Tuple;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// `keys` as a one-column integer batch.
fn int_batch(keys: &[i64]) -> ColumnBatch {
    let mut batch = ColumnBatch::with_capacity(&ColumnLayout::ints(1), keys.len());
    for &k in keys {
        batch.push_tuple(&Tuple::from_ints(&[k])).unwrap();
    }
    batch
}

fn assert_probe_allocates_nothing() {
    const N: usize = 10_000;
    let build = int_batch(&(0..N as i64).collect::<Vec<_>>());
    let mut table = ColumnarTable::with_capacity(N);
    table.insert_batch(&build, 0, 0..N).unwrap();
    let probe_keys = build.int_col(0).unwrap();

    let mut pairs = Vec::with_capacity(N);
    let probes = allocations(|| table.probe_into(probe_keys, 0..N, &mut pairs));
    assert_eq!(probes, 0, "probing {N} keys allocated {probes} times");
    assert_eq!(pairs.len(), N, "every key matches its one build row");
}

fn assert_batch_pool_hit_rate() {
    const PRODUCERS: usize = 4;
    const CONSUMERS: usize = 4;
    const CAPACITY: usize = 8;
    const BATCH: usize = 64;
    const TUPLES: i64 = 100_000;

    let (txs, rxs, pool) = operand_channels(PRODUCERS, CONSUMERS, CAPACITY, ColumnLayout::ints(1));
    let consumers: Vec<_> = rxs
        .into_iter()
        .map(|rx| {
            std::thread::spawn(move || {
                let (mut rows, mut ends) = (0, 0);
                while ends < PRODUCERS {
                    match rx.recv().expect("stream open") {
                        Msg::Batch(b) => rows += b.len(),
                        Msg::End => ends += 1,
                    }
                }
                rows
            })
        })
        .collect();
    // Each producer routes its share batch by batch through the engine's
    // non-blocking path, yielding on backpressure like a pooled task.
    let producers: Vec<_> = (0..PRODUCERS as i64)
        .map(|p| {
            let (txs, pool) = (txs.clone(), pool.clone());
            std::thread::spawn(move || {
                let mut router = Router::new(txs, 0, BATCH, pool);
                let keys: Vec<i64> = (p..TUPLES).step_by(PRODUCERS).collect();
                for chunk in keys.chunks(BATCH) {
                    let cols = int_batch(chunk);
                    let mut pos = 0;
                    while !router.try_route_batch(&cols, &mut pos).unwrap().1 {
                        std::thread::yield_now();
                    }
                }
                while !router.try_finish().unwrap() {
                    std::thread::yield_now();
                }
            })
        })
        .collect();
    drop(txs);
    for p in producers {
        p.join().expect("producer");
    }
    let routed: usize = consumers
        .into_iter()
        .map(|c| c.join().expect("consumer"))
        .sum();
    assert_eq!(routed, TUPLES as usize);

    let bound = edge_buffer_bound(PRODUCERS, CONSUMERS, CAPACITY) as u64;
    assert!(
        pool.misses() <= bound,
        "batch pool thrashed: {} misses exceed the structural bound {bound}",
        pool.misses()
    );
    assert!(
        pool.hit_rate() > 0.9,
        "batch pool hit rate {:.3} below 0.9 ({} takes, {} misses)",
        pool.hit_rate(),
        pool.takes(),
        pool.misses()
    );
}

#[test]
fn join_hot_path_stays_allocation_free() {
    // Single-threaded first: nothing else is running while allocations
    // are counted.
    assert_probe_allocates_nothing();
    assert_batch_pool_hit_rate();
}
