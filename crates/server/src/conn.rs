//! Per-connection state machine, stepped as one task on the engine's
//! worker pool.
//!
//! One [`Conn`] wraps one non-blocking client socket, accepted by the
//! server's listener task, and is one cooperative [`Task`]. A step never
//! blocks: it reads until the socket would block, parses complete request
//! lines, starts the next request — planning an ad-hoc `query` or a
//! `prepare` right there, in the step — polls the active query's
//! [`ResultStream`], encodes what it yields, and writes whatever the
//! socket will take. Whatever it could not finish it parks on, with the
//! waker it was stepped with: the socket (registered in the pool's
//! readiness set, whose edge wakes a worker waiting there, which then
//! steps this task itself), the result stream, the query's conclusion, or
//! a pool timer. The waker is published before the first read, and the
//! socket enters the readiness set only after that, so no edge is lost.
//!
//! Ad-hoc `query` statements are paced per connection ([`AdhocPace`]): a
//! statement whose turn has not come stays queued, and the task arms a
//! pool timer for its turn and parks.
//!
//! Pipelining falls out of the design: requests parsed ahead of the
//! active query queue up in arrival order and responses are emitted
//! strictly in that order. A connection so runs at most one query at a
//! time, and the server's connection cap (`max_clients`) is the one bound
//! on queries in flight from the wire; the engine has no gate of its own.
//! Cancellation on disconnect falls out too — the task drops the active
//! query's stream and cancels its handle; it ends once that query has
//! concluded, without waiting for it in a step.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::task::Waker;
use std::time::{Duration, Instant};

use mj_exec::sched::{Registration, Step, Task};
use mj_exec::{BatchPoll, Database, MjError, PreparedStatement, QueryHandle, ResultStream};

use crate::protocol::{
    batch_frame_bin_into, batch_frame_into, closed_frame, done_frame, http_metrics_request,
    http_metrics_response, metrics_frame, parse_request, prepared_frame, Request, ResultFormat,
    WireError, MAX_LINE_BYTES,
};
use crate::server::{ClientSlot, Shared};

/// The typed rejection for an `execute`/`close` naming a statement id
/// this connection never prepared (or already closed). Routed through
/// [`MjError::Params`] so it shares the stable `params` wire code.
fn unknown_statement(id: u64) -> MjError {
    MjError::Params(format!(
        "unknown prepared statement id {id} (never prepared on this connection, or already closed)"
    ))
}

/// Stop polling the active query's stream once this many response bytes
/// are buffered for the socket: a slow reader backpressures its own
/// query instead of ballooning server memory.
const WRITE_HIGH_WATER: usize = 256 * 1024;

/// Per-read chunk.
const READ_CHUNK: usize = 16 * 1024;

/// Sustained pace of ad-hoc (`query`) statements per connection: one per
/// interval, i.e. 250/s. Every ad-hoc statement is parsed, bound and
/// planned inline, in a step of its connection's task on the worker pool
/// the queries share; a client that needs more than this prepares the
/// statement once and executes it (no planner run, not paced).
///
/// Sized from a measurement: unpaced, two closed-loop connections of the
/// benchmark's 14x50 ad-hoc query get ~650/s each on the two-vCPU VM and
/// that figure moves 6-10% between 10 s runs (and up to 2x for minutes);
/// 250/s leaves 2.6x of headroom, so the sustained rate is set by this
/// clock and holds to 0.01% run to run, a busy neighbour included.
const ADHOC_INTERVAL: Duration = Duration::from_millis(4);

/// Ad-hoc statements a connection may start back to back before the pace
/// applies (the bucket refills at one per [`ADHOC_INTERVAL`]).
const ADHOC_BURST: u32 = 32;

/// The ad-hoc pace of one connection: a token bucket kept as one instant
/// (GCRA). `due` is when the bucket would be full again; a statement may
/// start while `due` is at most `ADHOC_BURST - 1` intervals ahead, and
/// starting one pushes `due` an interval further. The schedule advances by
/// whole intervals, never from "now", so a task that wakes late for one
/// statement starts the next one early and the sustained rate is exact.
struct AdhocPace {
    due: Instant,
}

impl AdhocPace {
    /// The earliest instant the next ad-hoc statement may start.
    fn start_at(&self) -> Instant {
        let ahead = ADHOC_INTERVAL * (ADHOC_BURST - 1);
        self.due.checked_sub(ahead).unwrap_or(self.due)
    }

    fn started(&mut self, now: Instant) {
        self.due = self.due.max(now) + ADHOC_INTERVAL;
    }
}

/// A query in flight on this connection.
struct ActiveQuery {
    handle: QueryHandle,
    /// `None` once drained to its end: only the outcome is outstanding.
    stream: Option<ResultStream>,
    rows: u64,
    /// How this query's result batches are encoded on the wire.
    format: ResultFormat,
}

/// One client connection: socket, buffers, parsed-but-unstarted
/// requests, and at most one active query.
pub(crate) struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Offset of the first unwritten byte in `write_buf`.
    write_pos: usize,
    /// Inside an oversized line: discard bytes until the next newline.
    discarding: bool,
    /// Parsed requests — and already-decided rejections — in arrival
    /// order. Rejections ride the same queue so every request's response
    /// (including its error) is emitted strictly in request order.
    pending: VecDeque<Result<Request, WireError>>,
    active: Option<ActiveQuery>,
    /// Queries canceled before they concluded (the client went away, or a
    /// batch failed to encode): their handles until their outcomes come, so
    /// that dropping one never waits.
    abandoned: Vec<QueryHandle>,
    /// Prepared statements this client opened: wire id → the (possibly
    /// cross-connection-shared) cached statement. Ids are per-connection;
    /// the plans behind them live in the database's shared plan cache.
    stmts: HashMap<u64, Arc<PreparedStatement>>,
    /// Next statement id to hand out.
    next_stmt_id: u64,
    /// Reusable JSON batch-frame scratch: steady-state frames reuse one
    /// allocation instead of building a fresh `String` per batch.
    json_scratch: String,
    /// Reusable binary batch-frame scratch.
    bin_scratch: Vec<u8>,
    /// An HTTP one-shot was answered: flush `write_buf` and close.
    closing: bool,
    /// The socket is shut: only the queries canceled on the way out are
    /// left to conclude.
    closed: bool,
    /// Set once any line has been parsed; an HTTP `GET /metrics` is only
    /// honoured as the first line of a connection.
    saw_line: bool,
    adhoc: AdhocPace,
    /// The turn a pool timer is armed to wake this task for.
    timer_at: Option<Instant>,
    /// The socket's place in the pool's readiness set, from the first
    /// step until the socket closes.
    registration: Option<Registration>,
    db: Arc<Database>,
    server: Arc<Shared>,
    /// Dropped last, once everything above is gone.
    _slot: ClientSlot,
}

impl Conn {
    pub(crate) fn new(
        stream: TcpStream,
        db: &Arc<Database>,
        server: &Arc<Shared>,
        slot: ClientSlot,
    ) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        Ok(Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            discarding: false,
            pending: VecDeque::new(),
            active: None,
            abandoned: Vec::new(),
            stmts: HashMap::new(),
            next_stmt_id: 1,
            json_scratch: String::new(),
            bin_scratch: Vec::new(),
            closing: false,
            closed: false,
            saw_line: false,
            adhoc: AdhocPace {
                due: Instant::now(),
            },
            timer_at: None,
            registration: None,
            db: db.clone(),
            server: server.clone(),
            _slot: slot,
        })
    }

    /// When the ad-hoc statement at the head of the queue may start, if
    /// one is waiting for its turn.
    fn wake_at(&self) -> Option<Instant> {
        match (&self.active, self.pending.front()) {
            (None, Some(Ok(Request::Query { .. }))) => Some(self.adhoc.start_at()),
            _ => None,
        }
    }

    fn push_line(&mut self, line: String) {
        self.write_buf.extend_from_slice(line.as_bytes());
        self.write_buf.push(b'\n');
    }

    fn write_buffered(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// True when the connection has nothing in flight and nothing
    /// buffered — the state in which a draining server may close it.
    fn is_quiescent(&self) -> bool {
        self.active.is_none()
            && self.pending.is_empty()
            && self.write_buffered() == 0
            && self.read_buf.is_empty()
    }

    /// Publishes `waker` for the socket — on the first step, before the
    /// first read, and only then adds the socket to the pool's readiness
    /// set — and runs one [`tick`](Self::tick).
    fn serve(&mut self, waker: &Waker) -> Option<Step> {
        match &self.registration {
            Some(registration) => registration.update(waker),
            None => {
                let fd = self.stream.as_raw_fd();
                let pool = self.db.engine().pool();
                self.registration = Some(pool.register(fd, waker).ok()?);
            }
        }
        self.tick(waker)
    }

    /// One non-blocking pass: read, parse, advance, flush. Says whether the
    /// connection is finished, and otherwise whether to step again at once
    /// (the result stream was left unpolled at the write high-water mark
    /// and the socket has since taken enough) or to park until a wake.
    ///
    /// In-flight and already-pipelined work completes while the server
    /// drains, but *newly arriving* query and metrics requests are
    /// rejected with `overloaded`.
    fn tick(&mut self, waker: &Waker) -> Option<Step> {
        // Peer gone: nothing further to deliver.
        self.fill_read_buf().ok()?;
        let draining = self.server.draining();
        self.parse_lines(draining);
        let backed_up = self.advance_active(waker);
        self.flush().ok()?;
        if self.closing && self.write_buffered() == 0 {
            return None;
        }
        if draining && self.is_quiescent() {
            return None;
        }
        if backed_up && self.write_buffered() < WRITE_HIGH_WATER {
            return Some(Step::Progress);
        }
        self.arm_pace_timer(waker);
        Some(Step::Blocked)
    }

    /// Arms a pool timer for the turn of the ad-hoc statement waiting at
    /// the head of the queue, unless one is armed for it already.
    fn arm_pace_timer(&mut self, waker: &Waker) {
        let Some(at) = self.wake_at() else {
            return;
        };
        if self.timer_at == Some(at) {
            return;
        }
        self.timer_at = Some(at);
        let waker = waker.clone();
        let wake = move || {
            waker.wake_by_ref();
            None
        };
        self.db.engine().pool().run_at(at, Box::new(wake));
    }

    /// Closes the socket and cancels the active query; the task ends once
    /// every query it canceled has concluded.
    fn close(&mut self) {
        self.closed = true;
        self.registration = None;
        let _ = self.stream.shutdown(Shutdown::Both);
        self.pending.clear();
        if let Some(active) = self.active.take() {
            self.abandon(active);
        }
    }

    /// Cancels `active` without waiting for it: dropping its live stream
    /// cancels the query, and its handle waits in `abandoned` for the
    /// outcome.
    fn abandon(&mut self, active: ActiveQuery) {
        drop(active.stream);
        active.handle.cancel();
        self.abandoned.push(active.handle);
    }

    /// Reads until the socket would block. `Err(())` means the connection
    /// is dead (EOF or a fatal socket error).
    fn fill_read_buf(&mut self) -> Result<(), ()> {
        if self.closing {
            return Ok(());
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    if self.discarding {
                        // Keep only what follows the newline that ends
                        // the oversized line, if it has arrived.
                        if let Some(pos) = chunk[..n].iter().position(|&b| b == b'\n') {
                            self.discarding = false;
                            self.read_buf.extend_from_slice(&chunk[pos + 1..n]);
                        }
                    } else {
                        self.read_buf.extend_from_slice(&chunk[..n]);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        // A partial line (no newline yet) that already exceeds the cap is
        // rejected now, without waiting for — or buffering — the rest of
        // it; its remaining bytes are drained as they come. Complete
        // oversized lines are rejected by length in `parse_lines`.
        if !self.discarding {
            let tail = self
                .read_buf
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1);
            if self.read_buf.len() - tail > MAX_LINE_BYTES {
                self.pending.push_back(Err(WireError::oversized()));
                self.read_buf.truncate(tail);
                self.discarding = true;
            }
        }
        Ok(())
    }

    /// Splits complete lines off `read_buf` and parses each.
    fn parse_lines(&mut self, draining: bool) {
        while let Some(pos) = self.read_buf.iter().position(|&b| b == b'\n') {
            let mut line: Vec<u8> = self.read_buf.drain(..=pos).collect();
            line.pop(); // the newline
            if line.last() == Some(&b'\r') {
                line.pop();
            }

            if !self.saw_line {
                self.saw_line = true;
                if let Some(format) = http_metrics_request(&line) {
                    let response = http_metrics_response(&self.db.stats(), format);
                    self.write_buf.extend_from_slice(response.as_bytes());
                    self.closing = true;
                    self.read_buf.clear();
                    return;
                }
            }
            if self.closing {
                break;
            }
            if line.len() > MAX_LINE_BYTES {
                self.pending.push_back(Err(WireError::oversized()));
                continue;
            }
            if line.is_empty() {
                // Bare keep-alive newline: ignore rather than error, so
                // `printf '\n'` probes don't pollute the response stream.
                continue;
            }
            match parse_request(&line) {
                Ok(_) if draining => {
                    let depth = self.pending.len() as u64;
                    self.pending
                        .push_back(Err(WireError::overloaded("server is shutting down", depth)));
                }
                Ok(req) => self.pending.push_back(Ok(req)),
                Err(err) => self.pending.push_back(Err(err)),
            }
        }
    }

    /// Starts queued requests and polls the active query's stream. Returns
    /// true when it left the stream unpolled because the write buffer had
    /// reached its high-water mark (nothing then wakes this task for the
    /// stream).
    fn advance_active(&mut self, waker: &Waker) -> bool {
        loop {
            // Start the next pipelined request when nothing is active.
            if self.active.is_none() {
                if let Some(start) = self.wake_at() {
                    let now = Instant::now();
                    if now < start {
                        return false;
                    }
                    self.adhoc.started(now);
                }
                let started = match self.pending.pop_front() {
                    None => return false,
                    Some(Err(err)) => {
                        self.push_line(err.to_frame());
                        continue;
                    }
                    Some(Ok(Request::Metrics(format))) => {
                        self.push_line(metrics_frame(&self.db.stats(), format));
                        continue;
                    }
                    Some(Ok(Request::Prepare { query })) => {
                        match self.db.prepare(&query) {
                            Ok(stmt) => {
                                let id = self.next_stmt_id;
                                self.next_stmt_id += 1;
                                let frame = prepared_frame(id, stmt.params(), stmt.columns());
                                self.stmts.insert(id, stmt);
                                self.push_line(frame);
                            }
                            Err(e) => self.push_line(WireError::from_mj(&e).to_frame()),
                        }
                        continue;
                    }
                    Some(Ok(Request::Close { id })) => {
                        match self.stmts.remove(&id) {
                            Some(_) => self.push_line(closed_frame(id)),
                            None => self
                                .push_line(WireError::from_mj(&unknown_statement(id)).to_frame()),
                        }
                        continue;
                    }
                    Some(Ok(Request::Execute {
                        id,
                        args,
                        options,
                        format,
                    })) => {
                        let Some(stmt) = self.stmts.get(&id) else {
                            self.push_line(WireError::from_mj(&unknown_statement(id)).to_frame());
                            continue;
                        };
                        self.db
                            .execute_prepared_with(stmt, &args, options)
                            .map(|handle| (handle, format))
                    }
                    Some(Ok(Request::Query {
                        query,
                        options,
                        format,
                    })) => self
                        .db
                        .query_with(&query, options)
                        .map(|handle| (handle, format)),
                };
                match started {
                    Ok((mut handle, format)) => {
                        let stream = Some(handle.stream());
                        self.active = Some(ActiveQuery {
                            handle,
                            stream,
                            rows: 0,
                            format,
                        });
                    }
                    Err(e) => {
                        self.push_line(WireError::from_mj(&e).to_frame());
                        continue;
                    }
                }
            }

            // Poll the active stream until it yields nothing, finishes,
            // or the write buffer backs up.
            let active = self.active.as_mut().expect("active query set above");
            let mut finished = false;
            let mut encode_failed = false;
            while self.write_buf.len() - self.write_pos < WRITE_HIGH_WATER {
                let Some(stream) = active.stream.as_mut() else {
                    finished = true;
                    break;
                };
                match stream.poll_next_batch(waker) {
                    BatchPoll::Batch(batch) => {
                        // Serialize straight from the columnar buffers
                        // into the per-connection scratch — no row pivot,
                        // no per-frame allocation at steady state. Binary
                        // frames are length-prefixed, so no newline.
                        let encoded = match active.format {
                            ResultFormat::Json => batch_frame_into(&batch, &mut self.json_scratch)
                                .map(|()| {
                                    self.write_buf
                                        .extend_from_slice(self.json_scratch.as_bytes());
                                    self.write_buf.push(b'\n');
                                }),
                            ResultFormat::Bin => {
                                batch_frame_bin_into(&batch, &mut self.bin_scratch).map(|()| {
                                    self.write_buf.extend_from_slice(&self.bin_scratch);
                                })
                            }
                        };
                        match encoded {
                            Ok(()) => active.rows += batch.len() as u64,
                            Err(err) => {
                                // A ragged batch cannot reach the sink;
                                // if it somehow does, the error frame is
                                // this query's terminal frame.
                                let frame = err.to_frame();
                                self.write_buf.extend_from_slice(frame.as_bytes());
                                self.write_buf.push(b'\n');
                                encode_failed = true;
                                break;
                            }
                        }
                    }
                    BatchPoll::Pending => break,
                    BatchPoll::Done => {
                        finished = true;
                        break;
                    }
                }
            }
            if encode_failed {
                let active = self.active.take().expect("active query set above");
                self.abandon(active);
                continue;
            }
            if !finished {
                return self.write_buffered() >= WRITE_HIGH_WATER;
            }

            // Terminal frame, in request order, as soon as the query has
            // concluded — the pool thread that ended the stream does that
            // next, and wakes this task; until then this step has nothing
            // more to do here, and does not wait either.
            active.stream = None; // fully drained: dropping does not cancel
            let Some(outcome) = active.handle.poll_outcome(waker) else {
                return false;
            };
            let rows = active.rows;
            self.active = None;
            match outcome {
                Ok(outcome) => self.push_line(done_frame(
                    rows,
                    outcome.elapsed,
                    outcome.time_to_first_batch,
                )),
                Err(e) => self.push_line(WireError::from_mj(&MjError::from(e)).to_frame()),
            }
        }
    }

    /// Writes as much of `write_buf` as the socket will take.
    fn flush(&mut self) -> Result<(), ()> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(()),
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        } else if self.write_pos > WRITE_HIGH_WATER {
            // Compact occasionally so a long-lived slow reader does not
            // pin an ever-growing buffer.
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
        Ok(())
    }
}

impl Task for Conn {
    fn step(&mut self, waker: &Waker) -> Step {
        if !self.closed {
            if let Some(step) = self.serve(waker) {
                return step;
            }
            self.close();
        }
        self.abandoned
            .retain_mut(|handle| handle.poll_outcome(waker).is_none());
        if self.abandoned.is_empty() {
            Step::Done
        } else {
            Step::Blocked
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Starts statements as early as the pace allows from `now` on and
    /// returns when the last of `n` started.
    fn start_n(pace: &mut AdhocPace, mut now: Instant, n: u32) -> Instant {
        for _ in 0..n {
            now = now.max(pace.start_at());
            pace.started(now);
        }
        now
    }

    #[test]
    fn a_burst_starts_at_once_and_the_rest_one_per_interval() {
        let t0 = Instant::now();
        let mut pace = AdhocPace { due: t0 };
        assert_eq!(start_n(&mut pace, t0, ADHOC_BURST), t0);
        assert_eq!(start_n(&mut pace, t0, 1), t0 + ADHOC_INTERVAL);
        assert_eq!(start_n(&mut pace, t0, 10), t0 + ADHOC_INTERVAL * 11);
    }

    #[test]
    fn a_late_start_does_not_slow_the_sustained_rate() {
        let t0 = Instant::now();
        let mut pace = AdhocPace { due: t0 };
        start_n(&mut pace, t0, ADHOC_BURST + 1);
        // The worker notices the next turn 3 ms late; the one after it is
        // still due on the original schedule.
        let late = pace.start_at() + Duration::from_millis(3);
        pace.started(late);
        assert_eq!(pace.start_at(), t0 + ADHOC_INTERVAL * 3);
    }

    #[test]
    fn an_idle_connection_regains_one_burst_and_no_more() {
        let t0 = Instant::now();
        let mut pace = AdhocPace { due: t0 };
        start_n(&mut pace, t0, ADHOC_BURST + 5);
        let later = t0 + Duration::from_secs(60);
        assert_eq!(start_n(&mut pace, later, ADHOC_BURST), later);
        assert_eq!(start_n(&mut pace, later, 1), later + ADHOC_INTERVAL);
    }
}
