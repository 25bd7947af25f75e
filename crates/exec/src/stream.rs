//! Columnar batch streams: bounded channels plus the hash-split router.
//!
//! A redistribution between an n-instance producer and an m-instance
//! consumer opens n×m logical streams (§3.5): each producer instance holds
//! a sender to each consumer instance and routes every row by hashing the
//! consumer's key column — the same hash that fragments base relations,
//! so co-partitioned operands stay aligned.
//!
//! Batches travel **column-wise** ([`ColumnBatch`]): one `i64` buffer per
//! integer column, a `Value` fallback column otherwise. The router splits
//! a whole batch at a time — hash the key column into a destination vector
//! ([`bucket_keys`]), then gather each destination's rows column-at-a-time
//! — instead of dispatching per tuple. A one-destination edge (a degree-1
//! consumer, or the client's result stream) needs no split: it ships the
//! rows in order, at most a message's worth at a time. Rows ([`Tuple`]) are
//! materialized only at the client boundary ([`Batch::drain`]).
//!
//! A message is sized in bytes, not rows: every message costs the same
//! fixed work (a pool take and put, a send and a receive, a wake and a step
//! of the consumer), so each edge carries [`rows_per_message`] of its own
//! column layout — [`MESSAGE_BYTES`] of rows — and a narrow key-only edge
//! ships thousands of rows where a wide result edge ships a few hundred.
//!
//! Column buffers are pooled per redistribution edge: a consumer that
//! finishes a [`Batch`] returns the emptied buffers to the shared
//! [`BatchPool`], and producers reuse them for the next flush. The pool is
//! created with the edge's [`ColumnLayout`], so takes/misses and the
//! query's memory budget account **real columnar bytes** (8 bytes per
//! pooled `i64` slot, one `Value` slot per fallback column — see
//! [`ColumnLayout::row_bytes`]), not a per-row struct guess. The pool is
//! sized from **both** endpoint counts ([`edge_buffer_bound`]): every
//! in-flight channel slot plus every producer-side fill buffer can be
//! pooled, so in steady state the edge moves rows with **zero** buffer
//! allocations. The pool counts takes and misses so benches can assert the
//! hit rate.
//!
//! Every channel is an edge of this module ([`bounded`]): a bounded queue
//! from any number of producer instances ([`Sender`]) to one consumer
//! ([`Receiver`]) that also holds the wakers of whoever waits on it. A
//! pooled task that finds its input empty or its output full registers its
//! [`Waker`] on that edge *in the same critical section* as the failed
//! check, and the edge's next event — a send, a receive, a hang-up — wakes
//! it. Nothing polls an edge to find out.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Waker;

use mj_relalg::column::{bucket_keys, ColumnBatch, ColumnLayout};
use mj_relalg::{RelalgError, Result, Tuple};

use crate::budget::MemoryBudget;
use crate::config::MESSAGE_BYTES;
use crate::sched::lock;

/// Rows per message on an edge whose rows are `row_bytes` wide: as many as
/// fit in [`MESSAGE_BYTES`], at least one, at most `cap` (a test's
/// `ExecConfig::batch_size`). A row counts at least one 8-byte slot, so a
/// zero-width layout ships no more rows a message than a one-column edge.
pub fn rows_per_message(row_bytes: usize, cap: usize) -> usize {
    (MESSAGE_BYTES / row_bytes.max(std::mem::size_of::<i64>())).clamp(1, cap.max(1))
}

/// A bounded recycler of column-batch buffers shared by one execution of
/// a redistribution edge. Layout-aware: every pooled buffer has the edge's
/// column types, and budget accounting charges the buffers' real
/// allocated bytes.
pub struct BatchPool {
    free: Mutex<Vec<ColumnBatch>>,
    limit: usize,
    takes: AtomicU64,
    misses: AtomicU64,
    /// The owning query's memory budget: allocating takes charge it,
    /// dropped buffers credit it, and the remainder is credited when the
    /// pool itself drops at query teardown.
    budget: Arc<MemoryBudget>,
    charged: AtomicU64,
    /// Where the edge keeps buffers between executions: taken before
    /// allocating, refilled on drop. It also fixes the layout.
    spares: Arc<Spares>,
}

impl BatchPool {
    /// Creates a pool retaining at most `limit` spare buffers, which starts
    /// from the buffers earlier executions of its edge left in `spares`,
    /// leaves its own there when it drops, and charges every buffer it
    /// allocates against `budget`.
    pub fn new(limit: usize, spares: &Arc<Spares>, budget: Arc<MemoryBudget>) -> Arc<Self> {
        Arc::new(BatchPool {
            free: Mutex::new(Vec::new()),
            limit: limit.max(1),
            takes: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            budget,
            charged: AtomicU64::new(0),
            spares: spares.clone(),
        })
    }

    /// The column layout of this pool's buffers.
    pub fn layout(&self) -> &ColumnLayout {
        &self.spares.layout
    }

    /// Takes a spare buffer, or — one an earlier execution of its edge
    /// kept, or else a new one with room for `capacity` rows — a buffer
    /// new to this pool, which charges the budget with its actual
    /// columnar bytes. Only a new one counts as a miss.
    pub fn take(&self, capacity: usize) -> ColumnBatch {
        self.takes.fetch_add(1, Ordering::Relaxed);
        let free = lock(&self.free).pop();
        match free {
            Some(buf) => buf,
            None => {
                let kept = lock(&self.spares.kept).pop();
                let buf = kept.unwrap_or_else(|| {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    ColumnBatch::with_capacity(self.layout(), capacity)
                });
                let bytes = buf.capacity_bytes();
                if bytes > 0 {
                    self.budget.charge(bytes);
                    self.charged.fetch_add(bytes, Ordering::Relaxed);
                }
                buf
            }
        }
    }

    /// Returns an emptied buffer for reuse (dropped — and its bytes
    /// credited back — if the pool is full or the buffer has a foreign
    /// layout).
    pub fn put(&self, mut buf: ColumnBatch) {
        buf.clear();
        let bytes = buf.capacity_bytes();
        let dropped = {
            let mut free = lock(&self.free);
            if free.len() < self.limit && buf.has_layout(self.layout()) {
                free.push(buf);
                false
            } else {
                true
            }
        };
        if dropped {
            self.credit(bytes);
        }
    }

    /// Credits up to `bytes` back to the budget (bounded by what this pool
    /// actually charged, so shared edges never over-credit).
    fn credit(&self, bytes: u64) {
        let mut charged = self.charged.load(Ordering::Relaxed);
        loop {
            let credit = bytes.min(charged);
            if credit == 0 {
                return;
            }
            match self.charged.compare_exchange_weak(
                charged,
                charged - credit,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.budget.credit(credit);
                    return;
                }
                Err(seen) => charged = seen,
            }
        }
    }

    /// Spare buffers currently pooled (for tests).
    pub fn spares(&self) -> usize {
        lock(&self.free).len()
    }

    /// Buffers handed out so far.
    pub fn takes(&self) -> u64 {
        self.takes.load(Ordering::Relaxed)
    }

    /// Takes that had to allocate because the pool was empty. With a
    /// correctly sized pool this stays at the cold-start buffer count; a
    /// growing miss count means buffers are being dropped and reallocated
    /// in steady state.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of takes served from the pool (1.0 when nothing was taken).
    pub fn hit_rate(&self) -> f64 {
        let takes = self.takes();
        if takes == 0 {
            return 1.0;
        }
        1.0 - self.misses() as f64 / takes as f64
    }
}

impl Drop for BatchPool {
    fn drop(&mut self) {
        // Query teardown: return whatever the edge still holds (pooled
        // spares and in-flight buffers) to the budget, and the spares to
        // the edge, for its next execution.
        let remaining = self.charged.load(Ordering::Relaxed);
        if remaining > 0 {
            self.budget.credit(remaining);
        }
        self.spares.keep(std::mem::take(&mut *lock(&self.free)));
    }
}

/// A columnar batch of rows in flight. Dropping the batch returns its
/// column buffers to the owning pool — consumers read (or drain) and drop.
pub struct Batch {
    cols: ColumnBatch,
    pool: Option<Arc<BatchPool>>,
}

impl Batch {
    /// Wraps a full buffer for sending; `pool` receives the buffers back
    /// when the batch is dropped.
    pub fn new(cols: ColumnBatch, pool: Arc<BatchPool>) -> Self {
        Batch {
            cols,
            pool: Some(pool),
        }
    }

    /// A pool-less batch (tests and ad-hoc streams).
    pub fn unpooled(cols: ColumnBatch) -> Self {
        Batch { cols, pool: None }
    }

    /// A pool-less batch built from rows (tests).
    pub fn from_tuples(tuples: &[Tuple]) -> Result<Self> {
        let mut cols = ColumnBatch::shapeless();
        for t in tuples {
            cols.push_tuple(t)?;
        }
        Ok(Batch::unpooled(cols))
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.cols.rows()
    }

    /// True if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// The columns, borrowed (the zero-copy consumer path).
    pub fn columns(&self) -> &ColumnBatch {
        &self.cols
    }

    /// Logical bytes of the rows held.
    pub fn est_bytes(&self) -> u64 {
        self.cols.est_bytes()
    }

    /// Materializes row `i` as a [`Tuple`] (client boundary).
    pub fn row(&self, i: usize) -> Result<Tuple> {
        self.cols.row(i)
    }

    /// Materializes all rows (client boundary / tests).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.cols.rows());
        for i in 0..self.cols.rows() {
            // Rows of a well-formed batch always materialize.
            out.push(self.cols.row(i).expect("batch row within bounds"));
        }
        out
    }

    /// Materializes and consumes the rows, leaving the emptied column
    /// buffers to be recycled on drop. This is where the columnar world
    /// turns back into [`Tuple`]s for the client.
    pub fn drain(&mut self) -> std::vec::IntoIter<Tuple> {
        let tuples = self.to_tuples();
        self.cols.clear();
        tuples.into_iter()
    }
}

impl Drop for Batch {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put(std::mem::take(&mut self.cols));
        }
    }
}

impl std::fmt::Debug for Batch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Batch({} rows x {} cols)",
            self.cols.rows(),
            self.cols.arity()
        )
    }
}

/// A message on a batch stream.
#[derive(Debug)]
pub enum Msg {
    /// A columnar batch of rows.
    Batch(Batch),
    /// The sending producer instance is done.
    End,
}

/// One bounded stream edge: at most `cap` messages queued from any number
/// of producers ([`Sender`] clones) to one consumer ([`Receiver`]), and the
/// wakers of whoever waits on it. Every check, every registration and
/// every event happens under `state`'s lock, so a message or a hang-up that
/// lands between a failed attempt and the registration still finds the
/// waker.
struct Edge<T> {
    state: Mutex<EdgeState<T>>,
}

struct EdgeState<T> {
    queue: VecDeque<T>,
    cap: usize,
    senders: usize,
    /// The receiver is alive.
    receiving: bool,
    /// The consumer, waiting for a message: woken by the next send or the
    /// last sender's drop.
    consumer: Option<Waker>,
    /// Producers waiting for room: woken by the next receive or the
    /// receiver's drop.
    producers: Vec<Waker>,
}

/// Creates one bounded edge holding at most `cap` messages.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let edge = Arc::new(Edge {
        state: Mutex::new(EdgeState {
            queue: VecDeque::with_capacity(cap),
            cap: cap.max(1),
            senders: 1,
            receiving: true,
            consumer: None,
            producers: Vec::new(),
        }),
    });
    (Sender { edge: edge.clone() }, Receiver { edge })
}

/// Why [`Sender::poll_send`] did not enqueue; the message comes back.
pub enum TrySendError<T> {
    /// The edge is at capacity; the waker is registered for the next
    /// receive.
    Full(T),
    /// The receiver has been dropped.
    Disconnected(T),
}

impl<T> std::fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "Full(..)"),
            TrySendError::Disconnected(_) => write!(f, "Disconnected(..)"),
        }
    }
}

/// Why a receive returned nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing queued right now.
    Empty,
    /// Nothing queued and every sender gone.
    Disconnected,
}

/// A producer's end of an edge; clones share it.
pub struct Sender<T> {
    edge: Arc<Edge<T>>,
}

impl<T> Sender<T> {
    /// Enqueues `msg` and wakes the consumer if it waits, never blocking.
    /// On [`TrySendError::Full`], `waker` is registered for the next
    /// receive (or the receiver's drop).
    pub fn poll_send(&self, msg: T, waker: &Waker) -> std::result::Result<(), TrySendError<T>> {
        let mut st = lock(&self.edge.state);
        if !st.receiving {
            return Err(TrySendError::Disconnected(msg));
        }
        if st.queue.len() >= st.cap {
            if !st.producers.iter().any(|w| w.will_wake(waker)) {
                st.producers.push(waker.clone());
            }
            return Err(TrySendError::Full(msg));
        }
        st.queue.push_back(msg);
        let consumer = st.consumer.take();
        drop(st);
        if let Some(consumer) = consumer {
            consumer.wake();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock(&self.edge.state).senders += 1;
        Sender {
            edge: self.edge.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = lock(&self.edge.state);
        st.senders -= 1;
        let consumer = if st.senders == 0 {
            st.consumer.take()
        } else {
            None
        };
        drop(st);
        if let Some(consumer) = consumer {
            consumer.wake();
        }
    }
}

/// The consumer's end of an edge (one per edge).
pub struct Receiver<T> {
    edge: Arc<Edge<T>>,
}

impl<T> Receiver<T> {
    /// Takes the next message, if one is queued, and wakes the producers
    /// waiting for room; never blocks. On [`TryRecvError::Empty`], `waker`
    /// is registered for the next send (or the last sender's drop).
    pub fn poll_recv(&self, waker: &Waker) -> std::result::Result<T, TryRecvError> {
        let mut st = lock(&self.edge.state);
        if let Some(msg) = st.queue.pop_front() {
            let producers = std::mem::take(&mut st.producers);
            drop(st);
            producers.into_iter().for_each(Waker::wake);
            return Ok(msg);
        }
        if st.senders == 0 {
            return Err(TryRecvError::Disconnected);
        }
        match &mut st.consumer {
            Some(registered) if registered.will_wake(waker) => {}
            slot => *slot = Some(waker.clone()),
        }
        Err(TryRecvError::Empty)
    }

    /// [`poll_recv`](Self::poll_recv) with nobody to wake (unit tests).
    #[cfg(test)]
    pub fn try_recv(&self) -> std::result::Result<T, TryRecvError> {
        self.poll_recv(Waker::noop())
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = lock(&self.edge.state);
        st.receiving = false;
        let producers = std::mem::take(&mut st.producers);
        drop(st);
        producers.into_iter().for_each(Waker::wake);
    }
}

/// The number of batch buffers one redistribution edge can have live at
/// once: every in-flight channel slot, each producer's per-destination fill
/// buffers plus one parked (backpressured) batch, and one batch being
/// drained by each consumer. The edge pool must retain this many spares or
/// steady state drops and reallocates buffers.
pub fn edge_buffer_bound(producers: usize, consumers: usize, capacity: usize) -> usize {
    consumers * capacity + producers * (consumers + 1) + consumers
}

/// Creates the channels for one redistributed operand between a
/// `producers`-instance producer and a `consumers`-instance consumer:
/// `consumers` receivers, each of capacity `capacity` batches, plus this
/// execution's buffer pool over the edge's `spares` (which fix the
/// operand's column layout), charged to the query's `budget` and sized
/// from **both** endpoint counts (each producer instance holds
/// `consumers` fill buffers on top of the in-flight slots, so a
/// consumer-only bound would thrash the pool).
pub fn operand_channels(
    producers: usize,
    consumers: usize,
    capacity: usize,
    spares: &Arc<Spares>,
    budget: Arc<MemoryBudget>,
) -> (Vec<Sender<Msg>>, Vec<Receiver<Msg>>, Arc<BatchPool>) {
    let mut txs = Vec::with_capacity(consumers);
    let mut rxs = Vec::with_capacity(consumers);
    for _ in 0..consumers {
        let (tx, rx) = bounded(capacity);
        txs.push(tx);
        rxs.push(rx);
    }
    let pool = BatchPool::new(
        edge_buffer_bound(producers, consumers, capacity),
        spares,
        budget,
    );
    (txs, rxs, pool)
}

/// The spare batch buffers one edge keeps between its executions, at most
/// [`MESSAGE_BYTES`] of them — one message's worth, all a short query's
/// result needs: an execution's pool takes from them before it allocates,
/// and leaves its own spares here when the execution's last batch is gone.
/// A run template holds one per edge; an edge used once holds its own.
pub struct Spares {
    layout: ColumnLayout,
    kept: Mutex<Vec<ColumnBatch>>,
}

impl Spares {
    /// No spares yet, for an edge carrying rows of `layout`.
    pub fn new(layout: ColumnLayout) -> Arc<Spares> {
        Arc::new(Spares {
            layout,
            kept: Mutex::new(Vec::new()),
        })
    }

    /// Keeps `buffers`, emptied, while they fit in the cap; frees the rest.
    fn keep(&self, buffers: Vec<ColumnBatch>) {
        let mut kept = lock(&self.kept);
        let mut bytes: u64 = kept.iter().map(ColumnBatch::capacity_bytes).sum();
        for buffer in buffers {
            bytes += buffer.capacity_bytes();
            if bytes > MESSAGE_BYTES as u64 {
                return;
            }
            kept.push(buffer);
        }
    }
}

const HUNG_UP: &str = "consumer hung up";
const CLOSED_EARLY: &str = "stream closed before End";

fn hung_up() -> RelalgError {
    RelalgError::InvalidPlan(HUNG_UP.into())
}

/// What a consumer reports when its producers vanished before `End`.
pub(crate) fn closed_early() -> RelalgError {
    RelalgError::InvalidPlan(CLOSED_EARLY.into())
}

/// Whether `e` is an edge torn down under a task ([`hung_up`],
/// [`closed_early`]): the echo of a failure elsewhere in the query, never
/// its cause.
pub(crate) fn is_teardown(e: &RelalgError) -> bool {
    matches!(e, RelalgError::InvalidPlan(msg) if msg == HUNG_UP || msg == CLOSED_EARLY)
}

/// A producer instance's split sender: buffers rows per destination
/// (column-wise) and ships batches, reusing buffers from the edge's pool.
///
/// [`try_route_batch`](Router::try_route_batch) splits a whole batch at a
/// time: hash the key column into a destination vector, build one
/// selection vector per destination, and gather each destination's rows
/// column-at-a-time. A destination's buffer ships once it holds
/// [`batch`](Router::batch) rows, [`rows_per_message`] of the pool's
/// layout. With one destination the router only copies, and no message
/// holds more. It and [`try_finish`](Router::try_finish) never block: a
/// batch that cannot be sent right now parks in a one-slot `pending`
/// buffer, the caller's waker is registered on the full destination's
/// edge, and the worker-pool task yields its worker instead of parking a
/// thread — so a slow consumer, the client included, backpressures the
/// pool.
pub struct Router {
    senders: Vec<Sender<Msg>>,
    key_col: usize,
    batch: usize,
    buffers: Vec<ColumnBatch>,
    /// The edge's buffer pool; `None` while the router is detached between
    /// executes of a kept task ([`detach`](Router::detach)).
    pool: Option<Arc<BatchPool>>,
    sent: u64,
    /// A batch (or End) that hit a full channel and awaits retry.
    pending: Option<(usize, Msg)>,
    /// Destinations fully finished (flushed + End queued) so far.
    finish_pos: usize,
    /// Scratch: per-row destination of the batch being split.
    dest_scratch: Vec<u32>,
    /// Scratch: per-destination selection vectors for the gather (sized
    /// on first use: a one-destination router never splits).
    sel_scratch: Vec<Vec<u32>>,
}

impl Router {
    /// Creates a router over the destination senders, splitting on
    /// `key_col` of the routed rows. A message holds as many rows of the
    /// pool's layout as fit in [`MESSAGE_BYTES`], at most `cap`.
    pub fn new(
        senders: Vec<Sender<Msg>>,
        key_col: usize,
        cap: usize,
        pool: Arc<BatchPool>,
    ) -> Self {
        assert!(!senders.is_empty(), "router needs at least one destination");
        let buffers = senders.iter().map(|_| ColumnBatch::shapeless()).collect();
        Router {
            senders,
            key_col,
            batch: rows_per_message(pool.layout().row_bytes(), cap),
            buffers,
            pool: Some(pool),
            sent: 0,
            pending: None,
            finish_pos: 0,
            dest_scratch: Vec::new(),
            sel_scratch: Vec::new(),
        }
    }

    /// Lets go of the edge — its senders, a parked message, the buffers
    /// it holds (back to the pool) and the pool — keeping what the router
    /// allocated for itself, for [`rearm`](Self::rearm).
    pub(crate) fn detach(&mut self) {
        self.senders.clear();
        self.pending = None;
        let pool = self.pool.take();
        for buffer in &mut self.buffers {
            let buffer = std::mem::take(buffer);
            if let (Some(pool), true) = (&pool, buffer.arity() > 0) {
                pool.put(buffer);
            }
        }
    }

    /// Attaches a detached router to one execution of the edge it routed
    /// before: the same destinations, key column and message size.
    pub(crate) fn rearm(&mut self, senders: Vec<Sender<Msg>>, pool: Arc<BatchPool>) {
        debug_assert_eq!(senders.len(), self.buffers.len(), "the same edge");
        self.senders = senders;
        self.pool = Some(pool);
        self.sent = 0;
        self.finish_pos = 0;
    }

    /// Number of destinations.
    pub fn destinations(&self) -> usize {
        self.senders.len()
    }

    /// Rows a destination's buffer holds before it ships.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Rows routed so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Attempts to deliver the parked message, if any. `Ok(true)` means the
    /// router is clear to accept work; `Ok(false)` means the destination is
    /// still full and `waker` is registered for its next receive.
    pub fn poll_unblocked(&mut self, waker: &Waker) -> Result<bool> {
        match self.pending.take() {
            None => Ok(true),
            Some((dest, msg)) => self.try_send_or_park(dest, msg, waker),
        }
    }

    /// Sends or parks `msg` (registering `waker` on the full destination);
    /// `Ok(true)` if it was sent. Requires no parked message (callers clear
    /// via [`poll_unblocked`](Self::poll_unblocked)).
    fn try_send_or_park(&mut self, dest: usize, msg: Msg, waker: &Waker) -> Result<bool> {
        debug_assert!(self.pending.is_none(), "parked message not cleared");
        match self.senders[dest].poll_send(msg, waker) {
            Ok(()) => Ok(true),
            Err(TrySendError::Full(msg)) => {
                self.pending = Some((dest, msg));
                Ok(false)
            }
            Err(TrySendError::Disconnected(_)) => Err(hung_up()),
        }
    }

    fn flush_dest(&mut self, dest: usize, waker: &Waker) -> Result<bool> {
        let full = std::mem::take(&mut self.buffers[dest]);
        let pool = self.pool.clone().expect("an attached router");
        self.try_send_or_park(dest, Msg::Batch(Batch::new(full, pool)), waker)
    }

    /// Destination `dest`'s fill buffer, taken from the pool when the
    /// router first writes to it after starting or flushing — so a router
    /// that emits nothing, or nothing more, takes nothing.
    fn buffer(&mut self, dest: usize) -> &mut ColumnBatch {
        let buffer = &mut self.buffers[dest];
        if buffer.arity() == 0 {
            *buffer = self
                .pool
                .as_ref()
                .expect("an attached router")
                .take(self.batch);
        }
        buffer
    }

    /// Flushes every destination buffer at or over the batch threshold,
    /// stopping at the first park.
    fn flush_full(&mut self, waker: &Waker) -> Result<()> {
        for dest in 0..self.senders.len() {
            if self.pending.is_some() {
                return Ok(());
            }
            if self.buffers[dest].rows() >= self.batch {
                self.flush_dest(dest, waker)?;
            }
        }
        Ok(())
    }

    /// Non-blocking columnar route: splits rows `*pos..` of `cols` across
    /// the destinations in vectorized passes (hash the key column, then
    /// gather per destination) and flushes full buffers. A pass ends at the
    /// row that fills a destination's buffer, so no message holds more
    /// than [`batch`](Router::batch) rows and no buffer outgrows what the
    /// pool charged for it. Returns the rows accepted and whether the input
    /// was fully consumed (`false` means a parked batch still blocks the
    /// router and `waker` is registered on its destination — yield and
    /// retry once woken). `*pos` is advanced past the accepted rows.
    pub fn try_route_batch(
        &mut self,
        cols: &ColumnBatch,
        pos: &mut usize,
        waker: &Waker,
    ) -> Result<(u64, bool)> {
        if self.senders.len() == 1 {
            return self.try_append(cols, pos, waker);
        }
        let start = *pos;
        if start < cols.rows() {
            let keys = cols.int_col(self.key_col)?;
            bucket_keys(&keys[start..], self.senders.len(), &mut self.dest_scratch);
            self.sel_scratch.resize_with(self.senders.len(), Vec::new);
        }
        while *pos < cols.rows() {
            if !self.poll_unblocked(waker)? {
                break;
            }
            self.flush_full(waker)?;
            if self.pending.is_some() {
                break;
            }
            for sel in &mut self.sel_scratch {
                sel.clear();
            }
            let from = *pos;
            for (row, &d) in (from..).zip(&self.dest_scratch[from - start..]) {
                let sel = &mut self.sel_scratch[d as usize];
                sel.push(row as u32);
                *pos = row + 1;
                if self.buffers[d as usize].rows() + sel.len() >= self.batch {
                    break;
                }
            }
            for dest in 0..self.senders.len() {
                let sel = std::mem::take(&mut self.sel_scratch[dest]);
                if !sel.is_empty() {
                    self.buffer(dest).append_gather(cols, &sel)?;
                }
                self.sel_scratch[dest] = sel;
            }
        }
        let accepted = (*pos - start) as u64;
        self.sent += accepted;
        if *pos < cols.rows() {
            return Ok((accepted, false));
        }
        self.flush_full(waker)?;
        Ok((accepted, true))
    }

    /// The one-destination route: copies rows `*pos..` of `cols` in order,
    /// shipping each batch as it fills, and stops at a parked send with the
    /// rows accepted so far. No key is read, so a degree-1 consumer (LIMIT,
    /// a global aggregate) may receive a schema whose routing column is not
    /// an integer.
    fn try_append(
        &mut self,
        cols: &ColumnBatch,
        pos: &mut usize,
        waker: &Waker,
    ) -> Result<(u64, bool)> {
        let mut accepted = 0u64;
        while *pos < cols.rows() {
            if !self.poll_unblocked(waker)? {
                return Ok((accepted, false));
            }
            let room = self.batch.saturating_sub(self.buffers[0].rows()).max(1);
            let take = room.min(cols.rows() - *pos);
            self.buffer(0).append_rows(cols, *pos..*pos + take)?;
            *pos += take;
            accepted += take as u64;
            self.sent += take as u64;
            if self.buffers[0].rows() >= self.batch {
                self.flush_dest(0, waker)?;
            }
        }
        Ok((accepted, true))
    }

    /// Non-blocking finish: flushes every buffer and queues `End` to every
    /// destination, resumable across backpressure. Returns `Ok(true)` once
    /// everything (including the last `End`) has been delivered; `Ok(false)`
    /// means a send parked, `waker` is registered on that destination, and
    /// the caller should yield and call again once woken.
    pub fn try_finish(&mut self, waker: &Waker) -> Result<bool> {
        if !self.poll_unblocked(waker)? {
            return Ok(false);
        }
        while self.finish_pos < self.senders.len() {
            let dest = self.finish_pos;
            if !self.buffers[dest].is_empty() {
                let full = std::mem::take(&mut self.buffers[dest]);
                let pool = self.pool.clone().expect("an attached router");
                let batch = Msg::Batch(Batch::new(full, pool));
                if !self.try_send_or_park(dest, batch, waker)? {
                    return Ok(false);
                }
            }
            self.finish_pos = dest + 1;
            if !self.try_send_or_park(dest, Msg::End, waker)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::hash::bucket_of;
    use mj_relalg::{Attribute, DataType, Schema};

    /// `keys` as a batch of `arity` integer columns, each holding the key.
    fn keyed(keys: impl IntoIterator<Item = i64>, arity: usize) -> ColumnBatch {
        let keys: Vec<i64> = keys.into_iter().collect();
        let mut cols = ColumnBatch::with_capacity(&ColumnLayout::ints(arity), keys.len());
        for k in keys {
            cols.push_tuple(&Tuple::from_ints(&vec![k; arity])).unwrap();
        }
        cols
    }

    /// [`Receiver::poll_recv`], parking the calling thread until the edge
    /// wakes it: the next message, or `None` once the edge is empty and
    /// every sender gone.
    fn blocking_recv<T>(rx: &Receiver<T>) -> Option<T> {
        crate::sched::block_on(|waker| match rx.poll_recv(waker) {
            Ok(msg) => Some(Some(msg)),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(None),
        })
    }

    /// Routes every row of `cols`, parking the calling thread on
    /// backpressure as a dedicated producer thread would.
    fn route_all(router: &mut Router, cols: &ColumnBatch) -> Result<()> {
        let mut pos = 0;
        crate::sched::block_on(
            |waker| match router.try_route_batch(cols, &mut pos, waker) {
                Ok((_, false)) => None,
                done => Some(done.map(|_| ())),
            },
        )
    }

    /// Flushes every buffer and delivers `End` to every destination,
    /// parking the calling thread on backpressure.
    fn finish(router: &mut Router) -> Result<()> {
        crate::sched::block_on(|waker| match router.try_finish(waker) {
            Ok(false) => None,
            done => Some(done.map(|_| ())),
        })
    }

    #[test]
    fn routes_by_key_and_flushes_on_finish() {
        let (txs, rxs, pool) = operand_channels(
            1,
            3,
            8,
            &Spares::new(ColumnLayout::ints(2)),
            MemoryBudget::unlimited(),
        );
        // Consume concurrently: the channels are bounded, so routing 100
        // rows before draining anything would block on backpressure once
        // one destination exceeds capacity x batch rows.
        let consumers: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(dest, rx)| {
                std::thread::spawn(move || {
                    let mut n = 0usize;
                    let mut ended = false;
                    while let Some(msg) = blocking_recv(&rx) {
                        match msg {
                            Msg::Batch(batch) => {
                                for &k in batch.columns().int_col(0).unwrap() {
                                    assert_eq!(
                                        bucket_of(k, 3),
                                        dest,
                                        "row routed to wrong destination"
                                    );
                                }
                                n += batch.len();
                            }
                            Msg::End => {
                                ended = true;
                                break;
                            }
                        }
                    }
                    assert!(ended, "destination {dest} missing End");
                    n
                })
            })
            .collect();

        let mut router = Router::new(txs, 0, 4, pool);
        for chunk in 0..10i64 {
            route_all(&mut router, &keyed(chunk * 10..chunk * 10 + 10, 2)).unwrap();
        }
        assert_eq!(router.sent(), 100);
        finish(&mut router).unwrap();
        let total: usize = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn batch_route_splits_like_row_route() {
        let (txs, rxs, pool) = operand_channels(
            1,
            4,
            64,
            &Spares::new(ColumnLayout::ints(2)),
            MemoryBudget::unlimited(),
        );
        let mut router = Router::new(txs, 0, 16, pool);
        let mut cols = ColumnBatch::with_capacity(&ColumnLayout::ints(2), 100);
        for k in 0..100i64 {
            cols.push_tuple(&Tuple::from_ints(&[k, k * 2])).unwrap();
        }
        let mut pos = 0;
        let (n, done) = router
            .try_route_batch(&cols, &mut pos, Waker::noop())
            .unwrap();
        assert_eq!((n, done, pos), (100, true, 100));
        assert!(router.try_finish(Waker::noop()).unwrap());
        let mut total = 0usize;
        for (dest, rx) in rxs.into_iter().enumerate() {
            loop {
                match rx.try_recv() {
                    Ok(Msg::Batch(b)) => {
                        for &k in b.columns().int_col(0).unwrap() {
                            assert_eq!(bucket_of(k, 4), dest);
                        }
                        total += b.len();
                    }
                    Ok(Msg::End) => break,
                    Err(_) => panic!("destination {dest} missing End"),
                }
            }
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn single_destination_gets_everything() {
        // 10 rows at batch 2 = 5 batches + End; capacity must cover them
        // because this test drains only after finish().
        let (txs, rxs, pool) = operand_channels(
            1,
            1,
            8,
            &Spares::new(ColumnLayout::ints(1)),
            MemoryBudget::unlimited(),
        );
        let mut router = Router::new(txs, 0, 2, pool);
        route_all(&mut router, &keyed(0..10, 1)).unwrap();
        finish(&mut router).unwrap();
        let mut n = 0;
        while let Some(Msg::Batch(b)) = blocking_recv(&rxs[0]) {
            n += b.len();
        }
        assert_eq!(n, 10);
    }

    #[test]
    fn single_destination_ships_at_most_a_batch_per_message_in_order() {
        // A root's one-destination edge into the client: an input three
        // batches long leaves as three full messages, never as one.
        let (txs, rxs, pool) = operand_channels(
            1,
            1,
            8,
            &Spares::new(ColumnLayout::ints(1)),
            MemoryBudget::unlimited(),
        );
        let mut router = Router::new(txs, 0, 4, pool);
        let mut cols = ColumnBatch::with_capacity(&ColumnLayout::ints(1), 12);
        for k in 0..12i64 {
            cols.push_tuple(&Tuple::from_ints(&[k])).unwrap();
        }
        let mut pos = 0;
        assert_eq!(
            router
                .try_route_batch(&cols, &mut pos, Waker::noop())
                .unwrap(),
            (12, true)
        );
        assert!(router.try_finish(Waker::noop()).unwrap());
        let mut rows = Vec::new();
        while let Ok(Msg::Batch(b)) = rxs[0].try_recv() {
            assert!(b.len() <= 4, "a message of {} rows", b.len());
            rows.extend_from_slice(b.columns().int_col(0).unwrap());
        }
        assert_eq!(rows, (0..12).collect::<Vec<i64>>());
    }

    #[test]
    fn backpressure_blocks_until_drained() {
        // A full bounded channel must stall the producer rather than drop
        // or error; draining one message releases exactly one send.
        let (txs, rxs, pool) = operand_channels(
            1,
            1,
            1,
            &Spares::new(ColumnLayout::ints(1)),
            MemoryBudget::unlimited(),
        );
        let rx = rxs.into_iter().next().unwrap();
        let producer = std::thread::spawn(move || {
            let mut router = Router::new(txs, 0, 1, pool);
            // batch=1: every row is a send. Second send parks until the
            // consumer below drains the first.
            route_all(&mut router, &keyed(0..50, 1)).unwrap();
            finish(&mut router).unwrap();
        });
        let mut seen = 0usize;
        while let Some(msg) = blocking_recv(&rx) {
            match msg {
                Msg::Batch(b) => seen += b.len(),
                Msg::End => break,
            }
        }
        producer.join().unwrap();
        assert_eq!(seen, 50);
    }

    #[test]
    fn hung_up_consumer_is_an_error() {
        let (txs, rxs, pool) = operand_channels(
            1,
            2,
            1,
            &Spares::new(ColumnLayout::ints(1)),
            MemoryBudget::unlimited(),
        );
        drop(rxs);
        let mut router = Router::new(txs, 0, 1, pool);
        // The first route triggers a batch send into a closed channel.
        assert!(route_all(&mut router, &keyed([1], 1)).is_err());
    }

    #[test]
    fn dropped_batches_recycle_their_buffers() {
        let (txs, rxs, pool) = operand_channels(
            1,
            1,
            8,
            &Spares::new(ColumnLayout::ints(1)),
            MemoryBudget::unlimited(),
        );
        let mut router = Router::new(txs, 0, 2, pool.clone());
        route_all(&mut router, &keyed(0..8, 1)).unwrap();
        finish(&mut router).unwrap();
        assert_eq!(pool.spares(), 0, "buffers are in flight, not pooled");
        let mut drained = 0;
        while let Some(msg) = blocking_recv(&rxs[0]) {
            match msg {
                Msg::Batch(mut b) => {
                    drained += b.drain().count();
                    // Dropping `b` here returns the buffer to the pool.
                }
                Msg::End => break,
            }
        }
        assert_eq!(drained, 8);
        assert_eq!(pool.spares(), 4, "all four flushed buffers returned");

        // A new router on the same pool reuses those buffers, taking one
        // when it first writes.
        let (txs2, _rxs2, _) = operand_channels(
            1,
            1,
            8,
            &Spares::new(ColumnLayout::ints(1)),
            MemoryBudget::unlimited(),
        );
        let mut router2 = Router::new(txs2, 0, 2, pool.clone());
        assert_eq!(pool.spares(), 4, "a router that wrote nothing took nothing");
        route_all(&mut router2, &keyed([0], 1)).unwrap();
        assert_eq!(pool.spares(), 3, "router took a pooled buffer");
    }

    #[test]
    fn try_route_parks_on_backpressure_instead_of_blocking() {
        // Two destinations, capacity 1, batch 1: the second flush to a
        // destination cannot be delivered until its consumer drains. The
        // route must park it and keep accepting (bounded by one parked
        // batch), then accept nothing until the parked batch moves.
        let (txs, rxs, pool) = operand_channels(
            1,
            2,
            1,
            &Spares::new(ColumnLayout::ints(1)),
            MemoryBudget::unlimited(),
        );
        let mut router = Router::new(txs, 0, 1, pool);
        let k = (0..).find(|&k| bucket_of(k, 2) == 0).unwrap();
        let one = keyed([k], 1);
        let mut pos = 0;
        let mut route = |router: &mut Router| {
            pos = 0;
            let routed = router.try_route_batch(&one, &mut pos, Waker::noop());
            (routed.unwrap(), pos)
        };
        assert_eq!(route(&mut router), ((1, true), 1));
        // The second row is accepted; its flush parks (channel full).
        assert_eq!(route(&mut router), ((1, true), 1));
        // The third is not: the parked batch still can't move.
        assert_eq!(route(&mut router), ((0, false), 0));
        assert!(!router.poll_unblocked(Waker::noop()).unwrap());
        // Drain one message; the parked batch can now be delivered.
        let Msg::Batch(b) = blocking_recv(&rxs[0]).unwrap() else {
            panic!("expected batch");
        };
        assert_eq!(b.len(), 1);
        drop(b);
        assert!(router.poll_unblocked(Waker::noop()).unwrap());
        assert_eq!(route(&mut router), ((1, true), 1));
        assert_eq!(router.sent(), 3);
        assert!(rxs[1].try_recv().is_err(), "nothing routed to the other");
    }

    #[test]
    fn try_finish_resumes_across_backpressure() {
        let (txs, rxs, pool) = operand_channels(
            1,
            1,
            1,
            &Spares::new(ColumnLayout::ints(1)),
            MemoryBudget::unlimited(),
        );
        let mut router = Router::new(txs, 0, 8, pool);
        let mut pos = 0;
        assert_eq!(
            router
                .try_route_batch(&keyed(0..5, 1), &mut pos, Waker::noop())
                .unwrap(),
            (5, true)
        );
        // First try_finish flushes the batch into the single slot; the End
        // then parks, so finish is not yet complete.
        assert!(!router.try_finish(Waker::noop()).unwrap());
        let mut rows = 0;
        loop {
            match rxs[0].try_recv() {
                Ok(Msg::Batch(b)) => rows += b.len(),
                Ok(Msg::End) => break,
                Err(_) => {
                    // Everything queued? Keep draining until End arrives.
                    router.try_finish(Waker::noop()).unwrap();
                }
            }
        }
        assert_eq!(rows, 5);
        assert!(
            router.try_finish(Waker::noop()).unwrap(),
            "finish is idempotent"
        );
    }

    #[test]
    fn hung_up_consumer_errors_in_try_path() {
        let (txs, rxs, pool) = operand_channels(
            1,
            1,
            1,
            &Spares::new(ColumnLayout::ints(1)),
            MemoryBudget::unlimited(),
        );
        drop(rxs);
        let mut router = Router::new(txs, 0, 1, pool);
        let mut pos = 0;
        assert!(router
            .try_route_batch(&keyed([1], 1), &mut pos, Waker::noop())
            .is_err());
    }

    #[test]
    fn pool_counts_takes_and_misses() {
        let pool = BatchPool::new(
            8,
            &Spares::new(ColumnLayout::ints(1)),
            MemoryBudget::unlimited(),
        );
        let a = pool.take(4); // miss: pool starts empty
        pool.put(a);
        let _b = pool.take(4); // hit
        assert_eq!(pool.takes(), 2);
        assert_eq!(pool.misses(), 1);
        assert!((pool.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pool_drops_a_buffer_of_a_foreign_layout() {
        let pool = BatchPool::new(
            8,
            &Spares::new(ColumnLayout::ints(2)),
            MemoryBudget::unlimited(),
        );
        pool.put(ColumnBatch::with_capacity(&ColumnLayout::ints(1), 4));
        let mixed = Schema::new(vec![
            Attribute::new("a", DataType::Int),
            Attribute::new("b", DataType::Str),
        ]);
        pool.put(ColumnBatch::with_capacity(&ColumnLayout::of(&mixed), 4));
        assert_eq!(pool.spares(), 0, "neither arity nor types match");
        pool.put(ColumnBatch::with_capacity(&ColumnLayout::ints(2), 4));
        assert_eq!(pool.spares(), 1, "the edge's own layout is pooled");
    }

    #[test]
    fn pool_charges_and_credits_real_columnar_bytes() {
        let budget = MemoryBudget::unlimited();
        let layout = ColumnLayout::ints(2);
        let pool = BatchPool::new(1, &Spares::new(layout.clone()), budget.clone());
        // Columnar accounting: a 4-row buffer of two i64 columns is
        // exactly 4 x 16 bytes — not 4 x size_of::<Tuple>().
        let per = (4 * layout.row_bytes()) as u64;
        assert_eq!(per, 64);
        let a = pool.take(4);
        let b = pool.take(4);
        assert_eq!(budget.used(), 2 * per, "allocating takes charge");
        pool.put(a);
        assert_eq!(budget.used(), 2 * per, "pooled spares stay charged");
        pool.put(b);
        assert_eq!(budget.used(), per, "overflow drops credit back");
        drop(pool);
        assert_eq!(budget.used(), 0, "pool teardown returns the remainder");
    }

    #[test]
    fn an_edge_keeps_one_message_of_spares_for_its_next_execution() {
        let spares = Spares::new(ColumnLayout::ints(1));
        // 4096 rows of one i64 column: 32 KiB a buffer, two a message.
        let first = BatchPool::new(8, &spares, MemoryBudget::unlimited());
        let taken: Vec<_> = (0..3).map(|_| first.take(4096)).collect();
        taken.into_iter().for_each(|buf| first.put(buf));
        drop(first);
        let budget = MemoryBudget::unlimited();
        let next = BatchPool::new(8, &spares, budget.clone());
        let taken: Vec<_> = (0..3).map(|_| next.take(4096)).collect();
        assert_eq!(next.misses(), 1, "two came from the last execution");
        assert_eq!(budget.used(), 3 * 32_768, "and are charged like new ones");
        drop(taken);
        drop(next);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn steady_state_routing_reuses_pooled_buffers() {
        // Producer/consumer in lockstep on one edge: after the cold-start
        // allocations, every take must be served from the pool.
        let (txs, rxs, pool) = operand_channels(
            1,
            1,
            8,
            &Spares::new(ColumnLayout::ints(1)),
            MemoryBudget::unlimited(),
        );
        let mut router = Router::new(txs, 0, 2, pool.clone());
        let mut drained = 0usize;
        for k in 0..1000i64 {
            route_all(&mut router, &keyed([k], 1)).unwrap();
            while let Ok(Msg::Batch(mut b)) = rxs[0].try_recv() {
                drained += b.drain().count();
            }
        }
        finish(&mut router).unwrap();
        while let Some(Msg::Batch(mut b)) = blocking_recv(&rxs[0]) {
            drained += b.drain().count();
        }
        assert_eq!(drained, 1000);
        let bound = edge_buffer_bound(1, 1, 8) as u64;
        assert!(
            pool.misses() <= bound,
            "pool thrashes: {} misses > structural bound {bound}",
            pool.misses()
        );
        assert!(
            pool.hit_rate() > 0.95,
            "steady-state hit rate {:.3} too low",
            pool.hit_rate()
        );
    }

    // The client sink — the query's last operation feeding the client's
    // result stream — is a `Router` with one destination.

    #[test]
    fn client_sink_batches_and_finishes() {
        // Two producer instances, one result stream: each flushes its rows
        // and sends its own `End`.
        let (txs, rxs, pool) = operand_channels(
            2,
            1,
            8,
            &Spares::new(ColumnLayout::ints(1)),
            MemoryBudget::unlimited(),
        );
        let mut a = Router::new(txs.clone(), 0, 2, pool.clone());
        let mut b = Router::new(txs, 0, 2, pool);
        let mut pos = 0;
        assert_eq!(
            a.try_route_batch(&keyed(0..5, 1), &mut pos, Waker::noop())
                .unwrap(),
            (5, true)
        );
        route_all(&mut b, &keyed([99], 1)).unwrap();
        assert!(a.try_finish(Waker::noop()).unwrap());
        assert_eq!(a.sent(), 5);
        finish(&mut b).unwrap();
        let (mut rows, mut ends) = (0, 0);
        while let Ok(msg) = rxs[0].try_recv() {
            match msg {
                Msg::Batch(bt) => rows += bt.len(),
                Msg::End => ends += 1,
            }
        }
        assert_eq!((rows, ends), (6, 2), "both producers flush and End");
    }

    #[test]
    fn client_sink_appends_batches_columnar() {
        let (txs, rxs, pool) = operand_channels(
            1,
            1,
            16,
            &Spares::new(ColumnLayout::ints(2)),
            MemoryBudget::unlimited(),
        );
        let mut sink = Router::new(txs, 0, 4, pool);
        let mut cols = ColumnBatch::with_capacity(&ColumnLayout::ints(2), 10);
        for k in 0..10i64 {
            cols.push_tuple(&Tuple::from_ints(&[k, -k])).unwrap();
        }
        let mut pos = 0;
        let (n, done) = sink
            .try_route_batch(&cols, &mut pos, Waker::noop())
            .unwrap();
        assert_eq!((n, done), (10, true));
        assert!(sink.try_finish(Waker::noop()).unwrap());
        let mut got = Vec::new();
        loop {
            match rxs[0].try_recv() {
                Ok(Msg::Batch(mut b)) => got.extend(b.drain()),
                Ok(Msg::End) => break,
                Err(_) => panic!("missing End"),
            }
        }
        assert_eq!(got.len(), 10);
        assert_eq!(got[3], Tuple::from_ints(&[3, -3]));
    }

    #[test]
    fn client_sink_parks_on_backpressure_and_resumes() {
        // Capacity 1, batch 1: a three-row batch fills the channel, parks
        // the second message and stops there; draining releases it.
        let (txs, rxs, pool) = operand_channels(
            1,
            1,
            1,
            &Spares::new(ColumnLayout::ints(1)),
            MemoryBudget::unlimited(),
        );
        let mut sink = Router::new(txs, 0, 1, pool);
        let mut cols = ColumnBatch::with_capacity(&ColumnLayout::ints(1), 3);
        for k in 1..=3i64 {
            cols.push_tuple(&Tuple::from_ints(&[k])).unwrap();
        }
        let mut pos = 0;
        assert_eq!(
            sink.try_route_batch(&cols, &mut pos, Waker::noop())
                .unwrap(),
            (2, false)
        );
        assert_eq!(pos, 2);
        assert!(!sink.poll_unblocked(Waker::noop()).unwrap());
        let Msg::Batch(b) = blocking_recv(&rxs[0]).unwrap() else {
            panic!("expected batch");
        };
        assert_eq!(b.columns().int_col(0).unwrap(), &[1]);
        drop(b);
        assert!(sink.poll_unblocked(Waker::noop()).unwrap());
        // The last row is accepted; its message parks behind the second.
        assert_eq!(
            sink.try_route_batch(&cols, &mut pos, Waker::noop())
                .unwrap(),
            (1, true)
        );
        assert!(!sink.poll_unblocked(Waker::noop()).unwrap());
        // Finish resumes across the still-bounded channel; drain until End.
        let mut seen = vec![1];
        loop {
            match rxs[0].try_recv() {
                Ok(Msg::Batch(b)) => seen.extend_from_slice(b.columns().int_col(0).unwrap()),
                Ok(Msg::End) => break,
                Err(_) => {
                    sink.try_finish(Waker::noop()).unwrap();
                }
            }
        }
        assert_eq!(seen, [1, 2, 3]);
        assert_eq!(sink.sent(), 3);
    }

    #[test]
    fn client_sink_errors_when_stream_dropped() {
        let (txs, rxs, pool) = operand_channels(
            1,
            1,
            1,
            &Spares::new(ColumnLayout::ints(1)),
            MemoryBudget::unlimited(),
        );
        drop(rxs);
        let mut sink = Router::new(txs, 0, 1, pool);
        let mut one = ColumnBatch::with_capacity(&ColumnLayout::ints(1), 1);
        one.push_tuple(&Tuple::from_ints(&[1])).unwrap();
        let mut pos = 0;
        assert!(sink.try_route_batch(&one, &mut pos, Waker::noop()).is_err());
    }

    /// The rows per message of a router over a fresh `layout` edge.
    fn router_batch(layout: ColumnLayout, cap: usize) -> usize {
        let (txs, _rxs, pool) =
            operand_channels(1, 1, 1, &Spares::new(layout), MemoryBudget::unlimited());
        Router::new(txs, 0, cap, pool).batch()
    }

    #[test]
    fn a_message_holds_message_bytes_of_its_edges_rows() {
        assert_eq!(
            router_batch(ColumnLayout::ints(1), usize::MAX),
            MESSAGE_BYTES / 8
        );
        assert_eq!(
            router_batch(ColumnLayout::ints(2), usize::MAX),
            MESSAGE_BYTES / 16
        );
        // The short prepared query's result edge: 42 integer columns.
        assert_eq!(
            router_batch(ColumnLayout::ints(42), usize::MAX),
            MESSAGE_BYTES / 336
        );
        assert_eq!(MESSAGE_BYTES / 336, 195);
        // A row wider than a message still ships, one a message.
        assert_eq!(rows_per_message(MESSAGE_BYTES + 1, usize::MAX), 1);
    }

    #[test]
    fn an_explicit_cap_below_the_byte_count_wins() {
        for (layout, cap) in [(1, 1), (1, 256), (2, 3), (42, 194)] {
            assert_eq!(router_batch(ColumnLayout::ints(layout), cap), cap);
        }
        assert_eq!(
            router_batch(ColumnLayout::ints(42), 4096),
            195,
            "a cap above caps nothing"
        );
    }

    #[test]
    fn a_zero_width_edge_gets_a_finite_bounded_count() {
        let zero = ColumnLayout::ints(0);
        assert_eq!(zero.row_bytes(), 0);
        let batch = router_batch(zero, usize::MAX);
        assert!(
            (1..=MESSAGE_BYTES / 8).contains(&batch),
            "{batch} rows a message"
        );
        assert_eq!(rows_per_message(0, 0), 1, "a cap of zero still ships rows");
    }

    #[test]
    fn a_stalled_edge_holds_its_slots_of_messages_and_returns_every_byte() {
        // One producer into one consumer that does not read: the router
        // fills the channel's slots, parks one more message and stops.
        let capacity = 4;
        let budget = MemoryBudget::unlimited();
        let (txs, rxs, pool) = operand_channels(
            1,
            1,
            capacity,
            &Spares::new(ColumnLayout::ints(2)),
            budget.clone(),
        );
        let mut router = Router::new(txs, 0, usize::MAX, pool.clone());
        let batch = router.batch();
        let input = keyed(0..4 * (capacity * batch) as i64, 2);
        let mut pos = 0;
        let (rows, done) = router
            .try_route_batch(&input, &mut pos, Waker::noop())
            .unwrap();
        assert!(!done, "the stalled consumer backpressures the router");
        assert_eq!(
            rows as usize,
            (capacity + 1) * batch,
            "the slots plus one parked message"
        );
        // The channel's slots and the parked message, at most a message's
        // bytes each, plus the router's one fill buffer (none right after
        // a flush).
        let message = (batch * 16) as u64;
        assert!(message <= MESSAGE_BYTES as u64);
        let bound = (capacity as u64 + 1) * message + message;
        assert!(
            (capacity as u64 + 1) * message <= budget.used() && budget.used() <= bound,
            "{} bytes charged, bound {bound}",
            budget.used()
        );
        // Drain while routing the rest, then end the edge.
        let mut drained = 0usize;
        let mut ended = false;
        while !ended {
            match rxs[0].try_recv() {
                Ok(Msg::Batch(b)) => {
                    assert!(b.len() <= batch, "a message of {} rows", b.len());
                    drained += b.len();
                }
                Ok(Msg::End) => ended = true,
                Err(_) if pos < input.rows() => {
                    router
                        .try_route_batch(&input, &mut pos, Waker::noop())
                        .unwrap();
                }
                Err(_) => {
                    router.try_finish(Waker::noop()).unwrap();
                }
            }
            assert!(budget.used() <= bound, "{} bytes charged", budget.used());
        }
        assert_eq!(drained, input.rows());
        drop((router, rxs, pool));
        assert_eq!(budget.used(), 0, "the edge's teardown returns every byte");
    }

    #[test]
    fn a_split_edge_ships_at_most_a_batch_a_message_and_charges_what_it_ships() {
        // Chunks larger than a message, split over two destinations: every
        // message holds at most a batch, every buffer in flight is one the
        // pool charged for in full, and the drained edge returns every
        // byte.
        let budget = MemoryBudget::unlimited();
        let (txs, rxs, pool) =
            operand_channels(1, 2, 4, &Spares::new(ColumnLayout::ints(1)), budget.clone());
        let mut router = Router::new(txs, 0, usize::MAX, pool.clone());
        let batch = router.batch();
        assert!(batch < 12_000, "a chunk spans more than one message");
        // Messages received and not yet dropped: still in flight.
        let mut held: Vec<Batch> = Vec::new();
        let take_arrivals = |held: &mut Vec<Batch>| -> usize {
            let mut ended = 0;
            for rx in &rxs {
                while let Ok(msg) = rx.try_recv() {
                    match msg {
                        Msg::Batch(b) => {
                            assert!(b.len() <= batch, "a message of {} rows", b.len());
                            held.push(b);
                        }
                        Msg::End => ended += 1,
                    }
                }
            }
            let in_flight: u64 = held.iter().map(|b| b.columns().capacity_bytes()).sum();
            assert!(
                in_flight <= budget.used(),
                "{in_flight} bytes in flight, {} charged",
                budget.used()
            );
            ended
        };
        let mut rows = 0;
        for chunk in 0..6i64 {
            let input = keyed(chunk * 12_000..(chunk + 1) * 12_000, 1);
            let mut pos = 0;
            loop {
                let (_, done) = router
                    .try_route_batch(&input, &mut pos, Waker::noop())
                    .unwrap();
                take_arrivals(&mut held);
                if done {
                    break;
                }
            }
            // The consumers finish with what they took every other chunk.
            if chunk % 2 == 1 {
                rows += held.drain(..).map(|b| b.len()).sum::<usize>();
            }
        }
        let mut ended = 0;
        while !router.try_finish(Waker::noop()).unwrap() {
            ended += take_arrivals(&mut held);
        }
        ended += take_arrivals(&mut held);
        assert_eq!(ended, 2, "both destinations ended");
        rows += held.drain(..).map(|b| b.len()).sum::<usize>();
        assert_eq!(rows, 6 * 12_000);
        drop((router, rxs, pool));
        assert_eq!(budget.used(), 0, "the drained edge returns every byte");
    }

    /// Counts its wakes.
    struct Counting(std::sync::atomic::AtomicUsize);

    impl std::task::Wake for Counting {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting() -> (Arc<Counting>, Waker) {
        let count = Arc::new(Counting(Default::default()));
        (count.clone(), Waker::from(count))
    }

    fn wakes(count: &Counting) -> usize {
        count.0.load(Ordering::SeqCst)
    }

    #[test]
    fn an_empty_edge_wakes_its_consumer_on_send_and_on_hang_up() {
        let (tx, rx) = bounded::<i32>(2);
        let (count, waker) = counting();
        assert_eq!(rx.poll_recv(&waker), Err(TryRecvError::Empty));
        assert_eq!(rx.poll_recv(&waker), Err(TryRecvError::Empty));
        tx.poll_send(1, Waker::noop()).unwrap();
        tx.poll_send(2, Waker::noop()).unwrap();
        assert_eq!(wakes(&count), 1, "one registration, one wake");
        assert_eq!((rx.try_recv(), rx.try_recv()), (Ok(1), Ok(2)));
        assert_eq!(rx.poll_recv(&waker), Err(TryRecvError::Empty));
        let extra = tx.clone();
        drop(tx);
        assert_eq!(wakes(&count), 1, "a sender is still alive");
        drop(extra);
        assert_eq!(wakes(&count), 2, "the last sender's drop wakes");
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn a_full_edge_wakes_every_waiting_producer_on_receive_and_on_hang_up() {
        let (tx, rx) = bounded::<i32>(1);
        let other = tx.clone();
        let (a, wake_a) = counting();
        let (b, wake_b) = counting();
        tx.poll_send(1, &wake_a).unwrap();
        assert!(matches!(
            tx.poll_send(2, &wake_a),
            Err(TrySendError::Full(2))
        ));
        assert!(matches!(
            other.poll_send(3, &wake_b),
            Err(TrySendError::Full(3))
        ));
        assert_eq!((wakes(&a), wakes(&b)), (0, 0));
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!((wakes(&a), wakes(&b)), (1, 1));
        tx.poll_send(2, &wake_a).unwrap();
        assert!(matches!(
            other.poll_send(3, &wake_b),
            Err(TrySendError::Full(3))
        ));
        drop(rx);
        assert_eq!((wakes(&a), wakes(&b)), (1, 2), "the receiver's drop wakes");
        assert!(matches!(
            other.poll_send(3, &wake_b),
            Err(TrySendError::Disconnected(3))
        ));
    }

    #[test]
    fn pool_respects_limit() {
        let layout = ColumnLayout::ints(1);
        let pool = BatchPool::new(2, &Spares::new(layout.clone()), MemoryBudget::unlimited());
        for _ in 0..5 {
            pool.put(ColumnBatch::with_capacity(&layout, 4));
        }
        assert_eq!(pool.spares(), 2);
        let a = pool.take(4);
        assert!(a.capacity_bytes() >= 32, "reused buffer keeps its columns");
        assert_eq!(pool.spares(), 1);
    }
}
