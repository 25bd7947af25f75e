//! The zero-allocation gate for the join hot path, in its own test binary:
//! a counting global allocator sees every allocation of the process, so
//! this binary holds exactly one `#[test]` and no parallel test pollutes
//! the count.
//!
//! * A simple join's build indexes its shared build chunk where it lies
//!   ([`ColumnarTable::index`]): a whole chunk, fed in 512-row quanta,
//!   costs exactly two allocations (the bucket heads and the chain links),
//!   whatever its size. Copying the rows or rehashing would show here.
//! * Probing a [`ColumnarTable`] into a pre-reserved pairs vector — the
//!   inner loop of both join operators — allocates nothing, down a
//!   1000-deep chain too.
//! * A redistribution edge in steady state serves (almost) every buffer
//!   take from its batch pool: misses stay within the structural bound
//!   `edge_buffer_bound` (the cold-start buffer population) and the hit
//!   rate above 0.9. A regression here means flushed buffers are dropped
//!   and reallocated.
//! * A prepared execute of the benchmark's short query (the 14 x 50 chain,
//!   `short_prepared`) sets up in at most [`PREPARED_SETUP_ALLOCS`]
//!   allocations on the executing thread — its statement's run template
//!   holds everything no execution changes — and with the drain of its
//!   result allocates at most [`PREPARED_EXECUTE_ALLOCS`] times on
//!   average, counted on every thread. This pins the per-query fixed cost
//!   (ROADMAP item 7). CI runs this binary at release speed too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Waker;

use multijoin::exec::stream::{edge_buffer_bound, operand_channels, Msg, Router};
use multijoin::exec::{generate_family, Database, DbConfig, QueryFamily};
use multijoin::join::ColumnarTable;
use multijoin::relalg::column::{ColumnBatch, ColumnLayout};
use multijoin::relalg::{RelationProvider, Tuple};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations made by this thread.
    static MINE: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // Not during the thread's own teardown, when its locals are gone.
    let _ = MINE.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

fn assert_index_allocates_twice() {
    for n in [1_000usize, 10_000, 100_000] {
        let chunk = Arc::new(int_batch(&(0..n as i64).collect::<Vec<_>>()));
        let mut table = ColumnarTable::new();
        let indexing = allocations(|| {
            for start in (0..n).step_by(512) {
                table.index(&chunk, 0, start..(start + 512).min(n)).unwrap();
            }
        });
        assert_eq!(indexing, 2, "indexing {n} rows allocated {indexing} times");
        assert_eq!(table.len(), n);
    }
}

fn assert_probe_allocates_nothing() {
    const N: usize = 10_000;
    let build = Arc::new(int_batch(&(0..N as i64).collect::<Vec<_>>()));
    let mut inserted = ColumnarTable::with_capacity(N);
    inserted.insert_batch(&build, 0, 0..N).unwrap();
    let mut indexed = ColumnarTable::new();
    indexed.index(&build, 0, 0..N).unwrap();
    let probe_keys = build.int_col(0).unwrap();

    for table in [&inserted, &indexed] {
        let mut pairs = Vec::with_capacity(N);
        let probes = allocations(|| table.probe_into(probe_keys, 0..N, &mut pairs));
        assert_eq!(probes, 0, "probing {N} keys allocated {probes} times");
        assert_eq!(pairs.len(), N, "every key matches its one build row");
    }

    // One key a thousand rows deep, in a table large enough to probe in
    // lockstep: the walk takes a thousand rounds, and only the matches
    // reach `pairs`.
    let keys: Vec<i64> = [7; 1000].into_iter().chain(100..N as i64).collect();
    let deep = Arc::new(int_batch(&keys));
    let mut chain = ColumnarTable::new();
    chain.index(&deep, 0, 0..keys.len()).unwrap();
    let probe_keys = [7, 8, 7];
    let mut pairs = Vec::with_capacity(2000);
    let probes = allocations(|| chain.probe_into(&probe_keys, 0..3, &mut pairs));
    assert_eq!(
        probes, 0,
        "probing a 1000-deep chain allocated {probes} times"
    );
    assert_eq!(pairs.len(), 2000);
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
                    while !router
                        .try_route_batch(&cols, &mut pos, Waker::noop())
                        .unwrap()
                        .1
                    {
                        std::thread::yield_now();
                    }
                }
                while !router.try_finish(Waker::noop()).unwrap() {
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

/// Ceiling on the mean allocations of one prepared execute of the 14 x 50
/// chain plus its drain, counted by this test on a two-vCPU VM: 660 while
/// a simple join copied its build operand into its table, 488 once it
/// indexed the operand's chunk in place, 478 since its five unfiltered
/// base build sides adopt the tables resident with their fragments (two
/// arrays fewer each), 358 since an execute instantiates its statement's
/// run template (35 set-up, 323 drain), 357 since a buffer returning to
/// its edge's pool is checked against the pool's layout in place (322
/// drain), and 357 still (35 set-up) once a stream message is sized in
/// bytes of its edge's layout: the few dozen result rows are one message
/// either way; 357 still (35 set-up) once the catalog entry holds the
/// relation's image and its resident fragments; 84 (35 set-up, 49 drain;
/// 85 in a release build) since the fused members gather, match and index
/// in buffers their statement's run template lends each execute, and hand
/// their results over in the `Arc`s it keeps: what is left is set-up, the
/// result edge's buffers and frames, and the client's rows.
const PREPARED_EXECUTE_ALLOCS: u64 = 100;

/// Ceiling on the mean allocations of the set-up alone: what
/// `execute_prepared` allocates on the calling thread before it returns
/// the handle. 199 when every execute re-derived the run; 35 measured
/// since it instantiates the statement's template — the result edge and
/// control block, the bound filter, the task and its fourteen operators.
const PREPARED_SETUP_ALLOCS: u64 = 60;

/// The benchmark's `short_prepared` query on its pinned-shape data, two
/// workers: every `?1` value once, after a warm-up that fills the fragment
/// and plan caches.
fn assert_prepared_execute_allocations() {
    const RELATIONS: usize = 14;
    let mut config = DbConfig::default();
    config.exec.workers = 2;
    let db = Database::open(config).unwrap();
    let family = generate_family(QueryFamily::Chain, RELATIONS, 50, 1995).unwrap();
    let mut sql = String::from("SELECT * FROM S0");
    for i in 0..RELATIONS {
        let relation = family.catalog.relation(&format!("R{i}")).unwrap();
        db.register(format!("S{i}"), relation).unwrap();
        if i > 0 {
            sql.push_str(&format!(" JOIN S{i} ON S{}.b = S{i}.a", i - 1));
        }
    }
    sql.push_str(" WHERE S1.id < ?1");
    db.analyze().unwrap();
    let stmt = db.prepare(&sql).unwrap();
    // (set-up allocations on this thread, rows)
    let run = |arg: i64| {
        let mine = MINE.with(Cell::get);
        let mut handle = db.execute_prepared(&stmt, &[arg]).unwrap();
        let setup = MINE.with(Cell::get) - mine;
        let rows: usize = handle.stream().map(|batch| batch.len()).sum();
        handle.outcome().unwrap();
        (setup, rows)
    };
    for arg in 0..50 {
        run(arg);
    }
    let (mut rows, mut setup, executes) = (0, 0, 200);
    let total = allocations(|| {
        for i in 0..executes {
            let (allocs, n) = run(i % 50);
            setup += allocs;
            rows += n;
        }
    });
    assert!(rows > 0, "the query returns rows");
    let (mean, setup) = (total / executes as u64, setup / executes as u64);
    println!(
        "prepared execute + drain: {mean} allocations on average, {setup} of them set-up, \
         {} drain",
        mean - setup
    );
    assert!(
        setup <= PREPARED_SETUP_ALLOCS,
        "a prepared execute set up in {setup} allocations on average \
         (ceiling {PREPARED_SETUP_ALLOCS})"
    );
    assert!(
        mean <= PREPARED_EXECUTE_ALLOCS,
        "a prepared execute + drain allocated {mean} times on average \
         (ceiling {PREPARED_EXECUTE_ALLOCS})"
    );
}

#[test]
fn join_hot_path_stays_allocation_free() {
    // Single-threaded first: nothing else is running while allocations
    // are counted.
    assert_index_allocates_twice();
    assert_probe_allocates_nothing();
    assert_batch_pool_hit_rate();
    assert_prepared_execute_allocations();
}
