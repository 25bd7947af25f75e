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
//! — instead of dispatching per tuple. Rows ([`Tuple`]) are materialized
//! only at the client boundary ([`ClientSink`] / [`Batch::drain`]).
//!
//! Column buffers are pooled per redistribution edge: a consumer that
//! finishes a [`Batch`] returns the emptied buffers to the shared
//! [`BatchPool`], and producers reuse them for the next flush. The pool is
//! created with the edge's [`ColumnLayout`], so takes/misses and the
//! attached memory budget account **real columnar bytes** (8 bytes per
//! pooled `i64` slot, one `Value` slot per fallback column — see
//! [`ColumnLayout::row_bytes`]), not a per-row struct guess. The pool is
//! sized from **both** endpoint counts ([`edge_buffer_bound`]): every
//! in-flight channel slot plus every producer-side fill buffer can be
//! pooled, so in steady state the edge moves rows with **zero** buffer
//! allocations. The pool counts takes and misses so benches can assert the
//! hit rate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use mj_relalg::column::{bucket_keys, ColumnBatch, ColumnLayout};
use mj_relalg::{RelalgError, Result, Tuple};
use parking_lot::Mutex;

/// Process-wide batch-pool take count, summed across every edge pool (the
/// per-pool counters die with their query; these feed `EngineStats`).
static POOL_TAKES: AtomicU64 = AtomicU64::new(0);
/// Process-wide batch-pool miss count (takes that had to allocate).
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);

/// Buffer takes served by all batch pools since process start.
pub fn pool_takes() -> u64 {
    POOL_TAKES.load(Ordering::Relaxed)
}

/// Buffer takes that missed (allocated) across all batch pools since
/// process start.
pub fn pool_misses() -> u64 {
    POOL_MISSES.load(Ordering::Relaxed)
}

/// A bounded recycler of column-batch buffers shared by one
/// redistribution edge. Layout-aware: every pooled buffer has the edge's
/// column types, and budget accounting charges the buffers' real
/// allocated bytes.
pub struct BatchPool {
    free: Mutex<Vec<ColumnBatch>>,
    limit: usize,
    layout: ColumnLayout,
    takes: AtomicU64,
    misses: AtomicU64,
    /// The owning query's memory budget, when one is attached: allocating
    /// takes charge it, dropped buffers credit it, and the remainder is
    /// credited when the pool itself drops at query teardown.
    budget: Mutex<Option<Arc<crate::budget::MemoryBudget>>>,
    charged: AtomicU64,
}

impl BatchPool {
    /// Creates a pool retaining at most `limit` spare buffers of the given
    /// column layout.
    pub fn new(limit: usize, layout: ColumnLayout) -> Arc<Self> {
        Arc::new(BatchPool {
            free: Mutex::new(Vec::new()),
            limit: limit.max(1),
            layout,
            takes: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            budget: Mutex::new(None),
            charged: AtomicU64::new(0),
        })
    }

    /// The column layout of this pool's buffers.
    pub fn layout(&self) -> &ColumnLayout {
        &self.layout
    }

    /// Attaches the owning query's memory budget: every buffer this pool
    /// allocates from here on is charged against it.
    pub fn set_budget(&self, budget: Arc<crate::budget::MemoryBudget>) {
        *self.budget.lock() = Some(budget);
    }

    /// Takes a spare buffer, or allocates one with room for `capacity`
    /// rows. Allocations charge the attached budget with the buffer's
    /// actual columnar bytes.
    pub fn take(&self, capacity: usize) -> ColumnBatch {
        self.takes.fetch_add(1, Ordering::Relaxed);
        POOL_TAKES.fetch_add(1, Ordering::Relaxed);
        match self.free.lock().pop() {
            Some(buf) => buf,
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                POOL_MISSES.fetch_add(1, Ordering::Relaxed);
                let buf = ColumnBatch::with_capacity(&self.layout, capacity);
                let bytes = buf.capacity_bytes();
                if bytes > 0 {
                    if let Some(budget) = self.budget.lock().as_ref() {
                        budget.charge(bytes);
                        self.charged.fetch_add(bytes, Ordering::Relaxed);
                    }
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
            let mut free = self.free.lock();
            if free.len() < self.limit && buf.layout() == self.layout {
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

    /// Credits up to `bytes` back to the attached budget (bounded by what
    /// this pool actually charged, so shared edges never over-credit).
    fn credit(&self, bytes: u64) {
        if let Some(budget) = self.budget.lock().as_ref() {
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
                        budget.credit(credit);
                        return;
                    }
                    Err(seen) => charged = seen,
                }
            }
        }
    }

    /// Spare buffers currently pooled (for tests).
    pub fn spares(&self) -> usize {
        self.free.lock().len()
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
        // spares and in-flight buffers) to the budget.
        let remaining = self.charged.load(Ordering::Relaxed);
        if remaining > 0 {
            if let Some(budget) = self.budget.lock().as_ref() {
                budget.credit(remaining);
            }
        }
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
/// `consumers` receivers, each of capacity `capacity` batches, plus the
/// edge's shared buffer pool (typed with the operand's column `layout`),
/// sized from **both** endpoint counts (each producer instance holds
/// `consumers` fill buffers on top of the in-flight slots, so a
/// consumer-only bound would thrash the pool).
pub fn operand_channels(
    producers: usize,
    consumers: usize,
    capacity: usize,
    layout: ColumnLayout,
) -> (Vec<Sender<Msg>>, Vec<Receiver<Msg>>, Arc<BatchPool>) {
    let mut txs = Vec::with_capacity(consumers);
    let mut rxs = Vec::with_capacity(consumers);
    for _ in 0..consumers {
        let (tx, rx) = bounded(capacity);
        txs.push(tx);
        rxs.push(rx);
    }
    let pool = BatchPool::new(edge_buffer_bound(producers, consumers, capacity), layout);
    (txs, rxs, pool)
}

fn hung_up() -> RelalgError {
    RelalgError::InvalidPlan("consumer hung up".into())
}

/// Creates the root-result channel of one query: `producers` root-operator
/// instances all send into one bounded channel the client side
/// (`ResultStream`) drains. The pool is sized like a redistribution edge
/// with a single consumer, so steady-state streaming recycles every batch
/// buffer the client drops.
pub fn client_channel(
    producers: usize,
    capacity: usize,
    layout: ColumnLayout,
) -> (Sender<Msg>, Receiver<Msg>, Arc<BatchPool>) {
    let (tx, rx) = bounded(capacity);
    let pool = BatchPool::new(edge_buffer_bound(producers, 1, capacity), layout);
    (tx, rx, pool)
}

/// A root instance's sender into the query's result channel: buffers rows
/// column-wise and ships them to the client with the same non-blocking,
/// one-parked-batch discipline as [`Router`], minus the hash split (all
/// root instances feed one [`ResultStream`](crate::handle::ResultStream)).
/// Backpressure from a slow client therefore propagates into the worker
/// pool: a root task whose send parks yields its worker instead of
/// buffering unboundedly.
pub struct ClientSink {
    tx: Sender<Msg>,
    batch: usize,
    buffer: ColumnBatch,
    pool: Arc<BatchPool>,
    sent: u64,
    /// A batch (or End) that hit the full channel and awaits retry.
    pending: Option<Msg>,
    /// Whether `End` has been queued (finish is then complete once
    /// `pending` clears).
    end_queued: bool,
}

impl ClientSink {
    /// Creates a sink over the query's result sender.
    pub fn new(tx: Sender<Msg>, batch: usize, pool: Arc<BatchPool>) -> Self {
        let buffer = pool.take(batch);
        ClientSink {
            tx,
            batch,
            buffer,
            pool,
            sent: 0,
            pending: None,
            end_queued: false,
        }
    }

    /// Rows accepted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Attempts to deliver the parked message, if any. `Ok(true)` means the
    /// sink can accept work; `Ok(false)` means the channel is still full.
    pub fn poll_unblocked(&mut self) -> Result<bool> {
        match self.pending.take() {
            None => Ok(true),
            Some(msg) => match self.tx.try_send(msg) {
                Ok(()) => Ok(true),
                Err(TrySendError::Full(msg)) => {
                    self.pending = Some(msg);
                    Ok(false)
                }
                Err(TrySendError::Disconnected(_)) => Err(hung_up()),
            },
        }
    }

    fn try_send_or_park(&mut self, msg: Msg) -> Result<()> {
        debug_assert!(self.pending.is_none(), "parked message not cleared");
        match self.tx.try_send(msg) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(msg)) => {
                self.pending = Some(msg);
                Ok(())
            }
            Err(TrySendError::Disconnected(_)) => Err(hung_up()),
        }
    }

    fn flush_buffer(&mut self) -> Result<()> {
        let full = std::mem::replace(&mut self.buffer, self.pool.take(self.batch));
        self.try_send_or_park(Msg::Batch(Batch::new(full, self.pool.clone())))
    }

    /// Non-blocking columnar append: moves rows `*pos..` of `cols` into
    /// the sink, flushing full buffers. Returns the rows accepted this
    /// call and whether the input was fully consumed (`false` means the
    /// channel is applying backpressure — yield and retry). `*pos` is
    /// advanced past the accepted rows.
    pub fn try_append_batch(&mut self, cols: &ColumnBatch, pos: &mut usize) -> Result<(u64, bool)> {
        let mut emitted = 0u64;
        while *pos < cols.rows() {
            if !self.poll_unblocked()? {
                return Ok((emitted, false));
            }
            let room = self.batch.saturating_sub(self.buffer.rows()).max(1);
            let take = room.min(cols.rows() - *pos);
            self.buffer.append_rows(cols, *pos..*pos + take)?;
            *pos += take;
            emitted += take as u64;
            self.sent += take as u64;
            if self.buffer.rows() >= self.batch {
                self.flush_buffer()?;
            }
        }
        Ok((emitted, true))
    }

    /// Non-blocking finish: flushes the remaining buffer and queues `End`,
    /// resumable across backpressure. `Ok(true)` once everything (including
    /// `End`) has been delivered.
    pub fn try_finish(&mut self) -> Result<bool> {
        if !self.poll_unblocked()? {
            return Ok(false);
        }
        if !self.end_queued {
            if !self.buffer.is_empty() {
                let full = std::mem::take(&mut self.buffer);
                self.try_send_or_park(Msg::Batch(Batch::new(full, self.pool.clone())))?;
                if self.pending.is_some() {
                    return Ok(false);
                }
            }
            self.end_queued = true;
            self.try_send_or_park(Msg::End)?;
        }
        Ok(self.pending.is_none())
    }
}

/// The row-at-a-time and blocking forms: unit tests drive the sink with
/// them; engine tasks only ever append batches.
#[cfg(test)]
impl ClientSink {
    /// Non-blocking row push: accepts the tuple unless a previously parked
    /// batch still cannot be delivered, in which case the tuple is handed
    /// back (`Ok(Some(tuple))`) and the caller should yield its worker.
    pub fn try_push(&mut self, tuple: Tuple) -> Result<Option<Tuple>> {
        if !self.poll_unblocked()? {
            return Ok(Some(tuple));
        }
        self.buffer.push_tuple(&tuple)?;
        self.sent += 1;
        if self.buffer.rows() >= self.batch {
            self.flush_buffer()?;
        }
        Ok(None)
    }

    /// Blocking push (dedicated-thread path; never call from a pooled task).
    pub fn push(&mut self, tuple: Tuple) -> Result<()> {
        let mut tuple = tuple;
        loop {
            match self.try_push(tuple)? {
                None => return Ok(()),
                Some(back) => {
                    tuple = back;
                    self.flush_pending_blocking()?;
                }
            }
        }
    }

    /// Blocking finish (dedicated-thread path).
    pub fn finish_blocking(&mut self) -> Result<()> {
        loop {
            if self.try_finish()? {
                return Ok(());
            }
            self.flush_pending_blocking()?;
        }
    }

    fn flush_pending_blocking(&mut self) -> Result<()> {
        if let Some(msg) = self.pending.take() {
            self.tx.send(msg).map_err(|_| hung_up())?;
        }
        Ok(())
    }
}

/// A producer instance's split sender: buffers rows per destination
/// (column-wise) and ships batches, reusing buffers from the edge's pool.
///
/// [`try_route_batch`](Router::try_route_batch) splits a whole batch at a
/// time: hash the key column into a destination vector, build one
/// selection vector per destination, and gather each destination's rows
/// column-at-a-time. It and [`try_finish`](Router::try_finish) never
/// block: a batch that cannot be sent right now parks in a one-slot
/// `pending` buffer and the worker-pool task yields its worker instead of
/// parking a thread. (Unit tests also get a row-at-a-time `try_route` and
/// blocking `route` / `finish` over the same state machine.)
pub struct Router {
    senders: Vec<Sender<Msg>>,
    key_col: usize,
    batch: usize,
    buffers: Vec<ColumnBatch>,
    pool: Arc<BatchPool>,
    sent: u64,
    /// A batch (or End) that hit a full channel and awaits retry.
    pending: Option<(usize, Msg)>,
    /// Destinations fully finished (flushed + End queued) so far.
    finish_pos: usize,
    /// Scratch: per-row destination of the batch being split.
    dest_scratch: Vec<u32>,
    /// Scratch: per-destination selection vectors for the gather.
    sel_scratch: Vec<Vec<u32>>,
}

impl Router {
    /// Creates a router over the destination senders, splitting on
    /// `key_col` of the routed rows.
    pub fn new(
        senders: Vec<Sender<Msg>>,
        key_col: usize,
        batch: usize,
        pool: Arc<BatchPool>,
    ) -> Self {
        assert!(!senders.is_empty(), "router needs at least one destination");
        let buffers = senders.iter().map(|_| pool.take(batch)).collect();
        let sel_scratch = senders.iter().map(|_| Vec::new()).collect();
        Router {
            senders,
            key_col,
            batch,
            buffers,
            pool,
            sent: 0,
            pending: None,
            finish_pos: 0,
            dest_scratch: Vec::new(),
            sel_scratch,
        }
    }

    /// Number of destinations.
    pub fn destinations(&self) -> usize {
        self.senders.len()
    }

    /// Rows routed so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Attempts to deliver the parked message, if any. `Ok(true)` means the
    /// router is clear to accept work; `Ok(false)` means the destination is
    /// still full (yield and retry).
    pub fn poll_unblocked(&mut self) -> Result<bool> {
        match self.pending.take() {
            None => Ok(true),
            Some((dest, msg)) => match self.senders[dest].try_send(msg) {
                Ok(()) => Ok(true),
                Err(TrySendError::Full(msg)) => {
                    self.pending = Some((dest, msg));
                    Ok(false)
                }
                Err(TrySendError::Disconnected(_)) => Err(hung_up()),
            },
        }
    }

    /// Sends or parks `msg`; `Ok(true)` if it was sent. Requires no parked
    /// message (callers clear via [`poll_unblocked`](Self::poll_unblocked)).
    fn try_send_or_park(&mut self, dest: usize, msg: Msg) -> Result<bool> {
        debug_assert!(self.pending.is_none(), "parked message not cleared");
        match self.senders[dest].try_send(msg) {
            Ok(()) => Ok(true),
            Err(TrySendError::Full(msg)) => {
                self.pending = Some((dest, msg));
                Ok(false)
            }
            Err(TrySendError::Disconnected(_)) => Err(hung_up()),
        }
    }

    fn flush_dest(&mut self, dest: usize) -> Result<bool> {
        let full = std::mem::replace(&mut self.buffers[dest], self.pool.take(self.batch));
        self.try_send_or_park(dest, Msg::Batch(Batch::new(full, self.pool.clone())))
    }

    /// Flushes every destination buffer at or over the batch threshold,
    /// stopping at the first park.
    fn flush_full(&mut self) -> Result<()> {
        for dest in 0..self.senders.len() {
            if self.pending.is_some() {
                return Ok(());
            }
            if self.buffers[dest].rows() >= self.batch {
                self.flush_dest(dest)?;
            }
        }
        Ok(())
    }

    /// Non-blocking columnar route: splits rows `*pos..` of `cols` across
    /// the destinations in one vectorized pass (hash the key column, then
    /// gather per destination) and flushes full buffers. Returns the rows
    /// accepted and whether the input was fully consumed (`false` means a
    /// previously parked batch still blocks the router — yield and retry).
    /// `*pos` is advanced past the accepted rows.
    pub fn try_route_batch(&mut self, cols: &ColumnBatch, pos: &mut usize) -> Result<(u64, bool)> {
        if *pos >= cols.rows() {
            self.flush_full()?;
            return Ok((0, true));
        }
        if !self.poll_unblocked()? {
            return Ok((0, false));
        }
        let n = cols.rows() - *pos;
        if self.senders.len() == 1 {
            self.buffers[0].append_rows(cols, *pos..cols.rows())?;
        } else {
            let keys = cols.int_col(self.key_col)?;
            bucket_keys(&keys[*pos..], self.senders.len(), &mut self.dest_scratch);
            for sel in &mut self.sel_scratch {
                sel.clear();
            }
            for (i, &d) in self.dest_scratch.iter().enumerate() {
                self.sel_scratch[d as usize].push((*pos + i) as u32);
            }
            for dest in 0..self.senders.len() {
                let sel = std::mem::take(&mut self.sel_scratch[dest]);
                if !sel.is_empty() {
                    self.buffers[dest].append_gather(cols, &sel)?;
                }
                self.sel_scratch[dest] = sel;
            }
        }
        *pos = cols.rows();
        self.sent += n as u64;
        self.flush_full()?;
        Ok((n as u64, true))
    }

    /// Non-blocking finish: flushes every buffer and queues `End` to every
    /// destination, resumable across backpressure. Returns `Ok(true)` once
    /// everything (including the last `End`) has been delivered; `Ok(false)`
    /// means a send parked and the caller should yield and call again.
    pub fn try_finish(&mut self) -> Result<bool> {
        if !self.poll_unblocked()? {
            return Ok(false);
        }
        while self.finish_pos < self.senders.len() {
            let dest = self.finish_pos;
            if !self.buffers[dest].is_empty() {
                let full = std::mem::take(&mut self.buffers[dest]);
                if !self.try_send_or_park(dest, Msg::Batch(Batch::new(full, self.pool.clone())))? {
                    return Ok(false);
                }
            }
            self.finish_pos = dest + 1;
            if !self.try_send_or_park(dest, Msg::End)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// The row-at-a-time and blocking routes: unit tests drive edges with
/// them from dedicated threads; engine tasks only ever route batches.
#[cfg(test)]
impl Router {
    /// Non-blocking row route: accepts the tuple unless a previously parked
    /// batch still cannot be delivered, in which case the tuple is handed
    /// back (`Ok(Some(tuple))`) and the caller should yield. A full destination
    /// buffer is flushed with `try_send`; on backpressure the flushed batch
    /// parks (the tuple itself is still accepted). The replacement buffer
    /// comes from the pool (take-and-swap), so steady state allocates
    /// nothing.
    pub fn try_route(&mut self, tuple: Tuple) -> Result<Option<Tuple>> {
        if !self.poll_unblocked()? {
            return Ok(Some(tuple));
        }
        // A single destination needs no key: this also lets degree-1
        // consumers (LIMIT, global aggregates) receive schemas whose
        // routing column is not an integer.
        let dest = if self.senders.len() == 1 {
            0
        } else {
            mj_relalg::hash::bucket_of(tuple.int(self.key_col)?, self.senders.len())
        };
        self.buffers[dest].push_tuple(&tuple)?;
        self.sent += 1;
        if self.buffers[dest].rows() >= self.batch {
            self.flush_dest(dest)?;
        }
        Ok(None)
    }

    /// Delivers any parked message with a blocking send (dedicated-thread
    /// path only; never call from a pooled task).
    fn flush_pending_blocking(&mut self) -> Result<()> {
        if let Some((dest, msg)) = self.pending.take() {
            self.senders[dest].send(msg).map_err(|_| hung_up())?;
        }
        Ok(())
    }

    /// Routes one tuple, blocking on backpressure (dedicated-thread path).
    pub fn route(&mut self, tuple: Tuple) -> Result<()> {
        self.flush_pending_blocking()?;
        match self.try_route(tuple)? {
            None => Ok(()),
            Some(_) => unreachable!("pending was flushed above"),
        }
    }

    /// Flushes all buffers and sends `End` to every destination, blocking
    /// on backpressure (dedicated-thread path).
    pub fn finish(mut self) -> Result<()> {
        loop {
            if self.try_finish()? {
                return Ok(());
            }
            self.flush_pending_blocking()?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::hash::bucket_of;

    #[test]
    fn routes_by_key_and_flushes_on_finish() {
        let (txs, rxs, pool) = operand_channels(1, 3, 8, ColumnLayout::ints(2));
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
                    while let Ok(msg) = rx.recv() {
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
        for k in 0..100i64 {
            router.route(Tuple::from_ints(&[k, k])).unwrap();
        }
        assert_eq!(router.sent(), 100);
        router.finish().unwrap();
        let total: usize = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn batch_route_splits_like_row_route() {
        let (txs, rxs, pool) = operand_channels(1, 4, 64, ColumnLayout::ints(2));
        let mut router = Router::new(txs, 0, 16, pool);
        let mut cols = ColumnBatch::with_capacity(&ColumnLayout::ints(2), 100);
        for k in 0..100i64 {
            cols.push_tuple(&Tuple::from_ints(&[k, k * 2])).unwrap();
        }
        let mut pos = 0;
        let (n, done) = router.try_route_batch(&cols, &mut pos).unwrap();
        assert_eq!((n, done, pos), (100, true, 100));
        assert!(router.try_finish().unwrap());
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
        let (txs, rxs, pool) = operand_channels(1, 1, 8, ColumnLayout::ints(1));
        let mut router = Router::new(txs, 0, 2, pool);
        for k in 0..10i64 {
            router.route(Tuple::from_ints(&[k])).unwrap();
        }
        router.finish().unwrap();
        let mut n = 0;
        while let Ok(Msg::Batch(b)) = rxs[0].recv() {
            n += b.len();
        }
        assert_eq!(n, 10);
    }

    #[test]
    fn backpressure_blocks_until_drained() {
        // A full bounded channel must stall route() rather than drop or
        // error; draining one message releases exactly one send.
        let (txs, rxs, pool) = operand_channels(1, 1, 1, ColumnLayout::ints(1));
        let rx = rxs.into_iter().next().unwrap();
        let producer = std::thread::spawn(move || {
            let mut router = Router::new(txs, 0, 1, pool);
            // batch=1: every route() is a send. Second send blocks until
            // the consumer below drains the first.
            for k in 0..50i64 {
                router.route(Tuple::from_ints(&[k])).unwrap();
            }
            router.finish().unwrap();
        });
        let mut seen = 0usize;
        while let Ok(msg) = rx.recv() {
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
        let (txs, rxs, pool) = operand_channels(1, 1, 1, ColumnLayout::ints(1));
        drop(rxs);
        let mut router = Router::new(txs, 0, 1, pool);
        // The first route triggers a batch send into a closed channel.
        let r = router.route(Tuple::from_ints(&[1]));
        assert!(r.is_err());
    }

    #[test]
    fn dropped_batches_recycle_their_buffers() {
        let (txs, rxs, pool) = operand_channels(1, 1, 8, ColumnLayout::ints(1));
        let mut router = Router::new(txs, 0, 2, pool.clone());
        for k in 0..8i64 {
            router.route(Tuple::from_ints(&[k])).unwrap();
        }
        router.finish().unwrap();
        assert_eq!(pool.spares(), 0, "buffers are in flight, not pooled");
        let mut drained = 0;
        while let Ok(msg) = rxs[0].recv() {
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

        // A new router on the same pool reuses those buffers.
        let (txs2, _rxs2, _) = operand_channels(1, 1, 8, ColumnLayout::ints(1));
        let _router2 = Router::new(txs2, 0, 2, pool.clone());
        assert_eq!(pool.spares(), 3, "router took a pooled buffer");
    }

    #[test]
    fn try_route_parks_on_backpressure_instead_of_blocking() {
        // capacity 1, batch 1: the second flush cannot be delivered until
        // the consumer drains. try_route must park it and keep accepting
        // (bounded by one parked batch), then hand tuples back.
        let (txs, rxs, pool) = operand_channels(1, 1, 1, ColumnLayout::ints(1));
        let mut router = Router::new(txs, 0, 1, pool);
        assert!(router.try_route(Tuple::from_ints(&[1])).unwrap().is_none());
        // Second tuple is accepted; its flush parks (channel full).
        assert!(router.try_route(Tuple::from_ints(&[2])).unwrap().is_none());
        // Third tuple is handed back: the parked batch still can't move.
        let back = router.try_route(Tuple::from_ints(&[3])).unwrap();
        assert_eq!(back.unwrap().int(0).unwrap(), 3);
        assert!(!router.poll_unblocked().unwrap());
        // Drain one message; the parked batch can now be delivered.
        let Msg::Batch(b) = rxs[0].recv().unwrap() else {
            panic!("expected batch");
        };
        assert_eq!(b.len(), 1);
        drop(b);
        assert!(router.poll_unblocked().unwrap());
        assert!(router.try_route(Tuple::from_ints(&[3])).unwrap().is_none());
        assert_eq!(router.sent(), 3);
    }

    #[test]
    fn try_finish_resumes_across_backpressure() {
        let (txs, rxs, pool) = operand_channels(1, 1, 1, ColumnLayout::ints(1));
        let mut router = Router::new(txs, 0, 8, pool);
        for k in 0..5i64 {
            assert!(router.try_route(Tuple::from_ints(&[k])).unwrap().is_none());
        }
        // First try_finish flushes the batch into the single slot; the End
        // then parks, so finish is not yet complete.
        assert!(!router.try_finish().unwrap());
        let mut rows = 0;
        loop {
            match rxs[0].try_recv() {
                Ok(Msg::Batch(b)) => rows += b.len(),
                Ok(Msg::End) => break,
                Err(_) => {
                    // Everything queued? Keep draining until End arrives.
                    router.try_finish().unwrap();
                }
            }
        }
        assert_eq!(rows, 5);
        assert!(router.try_finish().unwrap(), "finish is idempotent");
    }

    #[test]
    fn hung_up_consumer_errors_in_try_path() {
        let (txs, rxs, pool) = operand_channels(1, 1, 1, ColumnLayout::ints(1));
        drop(rxs);
        let mut router = Router::new(txs, 0, 1, pool);
        assert!(router.try_route(Tuple::from_ints(&[1])).is_err());
    }

    #[test]
    fn pool_counts_takes_and_misses() {
        let pool = BatchPool::new(8, ColumnLayout::ints(1));
        let a = pool.take(4); // miss: pool starts empty
        pool.put(a);
        let _b = pool.take(4); // hit
        assert_eq!(pool.takes(), 2);
        assert_eq!(pool.misses(), 1);
        assert!((pool.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pool_charges_and_credits_real_columnar_bytes() {
        let budget = crate::budget::MemoryBudget::unlimited();
        let layout = ColumnLayout::ints(2);
        let pool = BatchPool::new(1, layout.clone());
        pool.set_budget(budget.clone());
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
    fn steady_state_routing_reuses_pooled_buffers() {
        // Producer/consumer in lockstep on one edge: after the cold-start
        // allocations, every take must be served from the pool.
        let (txs, rxs, pool) = operand_channels(1, 1, 8, ColumnLayout::ints(1));
        let mut router = Router::new(txs, 0, 2, pool.clone());
        let mut drained = 0usize;
        for k in 0..1000i64 {
            router.route(Tuple::from_ints(&[k])).unwrap();
            while let Ok(Msg::Batch(mut b)) = rxs[0].try_recv() {
                drained += b.drain().count();
            }
        }
        router.finish().unwrap();
        while let Ok(Msg::Batch(mut b)) = rxs[0].recv() {
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

    #[test]
    fn client_sink_batches_and_finishes() {
        let (tx, rx, pool) = client_channel(2, 8, ColumnLayout::ints(1));
        let mut a = ClientSink::new(tx.clone(), 2, pool.clone());
        let mut b = ClientSink::new(tx, 2, pool);
        for k in 0..5i64 {
            assert!(a.try_push(Tuple::from_ints(&[k])).unwrap().is_none());
        }
        b.push(Tuple::from_ints(&[99])).unwrap();
        assert!(a.try_finish().unwrap());
        b.finish_blocking().unwrap();
        assert_eq!(a.sent(), 5);
        let (mut rows, mut ends) = (0, 0);
        while let Ok(msg) = rx.try_recv() {
            match msg {
                Msg::Batch(bt) => rows += bt.len(),
                Msg::End => ends += 1,
            }
        }
        assert_eq!((rows, ends), (6, 2), "both producers flush and End");
    }

    #[test]
    fn client_sink_appends_batches_columnar() {
        let (tx, rx, pool) = client_channel(1, 16, ColumnLayout::ints(2));
        let mut sink = ClientSink::new(tx, 4, pool);
        let mut cols = ColumnBatch::with_capacity(&ColumnLayout::ints(2), 10);
        for k in 0..10i64 {
            cols.push_tuple(&Tuple::from_ints(&[k, -k])).unwrap();
        }
        let mut pos = 0;
        let (n, done) = sink.try_append_batch(&cols, &mut pos).unwrap();
        assert_eq!((n, done), (10, true));
        assert!(sink.try_finish().unwrap());
        let mut got = Vec::new();
        loop {
            match rx.try_recv() {
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
        // Capacity 1, batch 1: the second flush parks; draining releases it.
        let (tx, rx, pool) = client_channel(1, 1, ColumnLayout::ints(1));
        let mut sink = ClientSink::new(tx, 1, pool);
        assert!(sink.try_push(Tuple::from_ints(&[1])).unwrap().is_none());
        assert!(sink.try_push(Tuple::from_ints(&[2])).unwrap().is_none());
        let back = sink.try_push(Tuple::from_ints(&[3])).unwrap();
        assert_eq!(back.unwrap().int(0).unwrap(), 3);
        assert!(!sink.poll_unblocked().unwrap());
        let Msg::Batch(b) = rx.recv().unwrap() else {
            panic!("expected batch");
        };
        drop(b);
        assert!(sink.poll_unblocked().unwrap());
        assert!(sink.try_push(Tuple::from_ints(&[3])).unwrap().is_none());
        // Finish resumes across the still-bounded channel; drain until End.
        let mut seen = 1usize; // the batch drained above held one row
        loop {
            match rx.try_recv() {
                Ok(Msg::Batch(b)) => seen += b.len(),
                Ok(Msg::End) => break,
                Err(_) => {
                    sink.try_finish().unwrap();
                }
            }
        }
        assert_eq!(seen, 3);
        assert_eq!(sink.sent(), 3);
    }

    #[test]
    fn client_sink_errors_when_stream_dropped() {
        let (tx, rx, pool) = client_channel(1, 1, ColumnLayout::ints(1));
        drop(rx);
        let mut sink = ClientSink::new(tx, 1, pool);
        assert!(sink.try_push(Tuple::from_ints(&[1])).is_err());
    }

    #[test]
    fn pool_respects_limit() {
        let layout = ColumnLayout::ints(1);
        let pool = BatchPool::new(2, layout.clone());
        for _ in 0..5 {
            pool.put(ColumnBatch::with_capacity(&layout, 4));
        }
        assert_eq!(pool.spares(), 2);
        let a = pool.take(4);
        assert!(a.capacity_bytes() >= 32, "reused buffer keeps its columns");
        assert_eq!(pool.spares(), 1);
    }
}
