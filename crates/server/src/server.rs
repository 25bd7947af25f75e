//! The server proper: on the engine's worker pool, one task for the
//! listener and one per connection, and no thread of its own.
//!
//! No async runtime, and no thread: [`Server::start`] submits the listener
//! task (`Listener`) and returns. Its step accepts until the non-blocking
//! [`TcpListener`] would block, turns each accepted socket into a
//! connection task (`Conn`) and submits it to the database's
//! [`WorkerPool`](mj_exec::sched::WorkerPool). From then on the
//! connection's whole life — read, parse, plan or look up the prepared
//! statement, start the query, poll its result stream, encode and write —
//! runs in that task's steps on a pool worker, beside the queries' own
//! operation processes. A query a connection starts from a worker goes onto
//! that worker's own queue, and the batch it emits wakes the connection
//! onto the same queue, so a short query's request and reply run on one
//! worker with no hand-off between threads.
//!
//! Sockets are registered in the pool's readiness set
//! ([`WorkerPool::register`](mj_exec::sched::WorkerPool::register)). One
//! idle worker waits in that set, so a request's edge wakes it straight
//! from the kernel and it steps the connection itself; while every worker
//! is busy, one looks at the set between its steps. A task that cannot go
//! on parks on what it waits for: a socket edge, its query's result stream
//! or conclusion, or a pool timer — for the turn of a paced ad-hoc
//! statement (`Conn` in `conn.rs`), or for the listener's retry after a
//! failed `accept`. Nothing here naps on a timer.
//!
//! Graceful shutdown ([`Server::shutdown`]): stop accepting, let
//! in-flight (and already-pipelined) requests drain, answer any request
//! that arrives during the drain with a typed `overloaded` error, close
//! each connection as it goes quiescent, and wait for the listener task
//! and every connection task to end.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::Waker;
use std::time::{Duration, Instant};

use mj_exec::sched::{Registration, Step, Task};
use mj_exec::Database;

use crate::conn::Conn;
use crate::protocol::WireError;

/// How long the listener waits before retrying after `accept` failed for a
/// reason other than "nothing to accept" (e.g. out of descriptors): the
/// listener stays readable, so no new edge would wake it. Also how often
/// it looks for connections while its socket is not in the readiness set.
const ACCEPT_RETRY: Duration = Duration::from_millis(1);

/// Tuning knobs for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `"127.0.0.1:7878"`. Port `0` picks a free
    /// port; read it back from [`Server::local_addr`].
    pub addr: String,
    /// Has no effect: the server starts no thread, and an idle pool worker
    /// waits on the sockets itself. Kept only because the benchmark
    /// harness (`benchmark/src/workloads.rs`) still sets it by name; it
    /// goes once the harness stops naming it.
    pub conn_workers: usize,
    /// Connections above this are turned away at accept time with a
    /// typed `overloaded` error frame (carrying the current client
    /// count as its queue depth), then closed.
    pub max_clients: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            conn_workers: 1,
            max_clients: 1024,
        }
    }
}

impl ServerConfig {
    /// Validates the knobs (a non-zero client cap).
    pub fn validate(&self) -> Result<(), String> {
        if self.max_clients == 0 {
            return Err("max_clients must be positive".into());
        }
        Ok(())
    }
}

/// A running query server. Dropping it performs a graceful
/// [`shutdown`](Server::shutdown).
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    /// Held until shutdown has waited out the listener and every
    /// connection task, so the last reference to the database (and its
    /// pool) never drops on one of the pool's own workers.
    db: Option<Arc<Database>>,
}

/// What the server, its listener and its connection tasks share.
pub(crate) struct Shared {
    draining: AtomicBool,
    open: Mutex<Open>,
    /// Signalled whenever the listener or a connection task ends.
    closed: Condvar,
}

/// The server's tasks not yet dropped.
struct Open {
    /// Open connections.
    clients: usize,
    listening: bool,
}

impl Shared {
    /// The server's graceful-shutdown flag.
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn open(&self) -> MutexGuard<'_, Open> {
        self.open.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One open connection's place in the client count, given back when its
/// task is dropped.
pub(crate) struct ClientSlot(Arc<Shared>);

impl Drop for ClientSlot {
    fn drop(&mut self) {
        self.0.open().clients -= 1;
        self.0.closed.notify_all();
    }
}

/// The listener's place among the open tasks, given back when its task is
/// dropped, after the socket has closed.
struct ListenerSlot(Arc<Shared>);

impl Drop for ListenerSlot {
    fn drop(&mut self) {
        self.0.open().listening = false;
        self.0.closed.notify_all();
    }
}

impl Server {
    /// Binds `config.addr` and submits the listener task to the shared
    /// `db`'s worker pool, which runs the connections too; starts no
    /// thread. Returns once the listener is live — clients may connect
    /// immediately.
    pub fn start(db: Arc<Database>, config: ServerConfig) -> std::io::Result<Server> {
        config
            .validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            draining: AtomicBool::new(false),
            open: Mutex::new(Open {
                clients: 0,
                listening: true,
            }),
            closed: Condvar::new(),
        });
        let listener = Listener {
            registration: None,
            listener,
            db: db.clone(),
            shared: shared.clone(),
            max_clients: config.max_clients,
            _slot: ListenerSlot(shared.clone()),
        };
        db.engine().pool().submit(0, Box::new(listener));

        Ok(Server {
            local_addr,
            shared,
            db: Some(db),
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Currently connected clients.
    pub fn active_clients(&self) -> usize {
        self.shared.open().clients
    }

    /// Graceful shutdown: stop accepting, drain in-flight and pipelined
    /// requests (new arrivals get `overloaded`), close connections as
    /// they go quiescent, wait for the listener to close and every
    /// connection task to end. Blocks until done.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(db) = self.db.take() else {
            return;
        };
        self.shared.draining.store(true, Ordering::SeqCst);
        // The listener and each connection, woken, see the drain flag: the
        // listener ends, closing its socket, and a connection ends once
        // quiescent. A task not yet stepped sees the flag on its first
        // step, so one the listener submits from here on ends too.
        db.engine().pool().wake_registered();
        let mut open = self.shared.open();
        while open.listening || open.clients > 0 {
            open = self
                .shared
                .closed
                .wait(open)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(open);
        drop(db);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The listening socket, stepped as one task on the worker pool. Its
/// step accepts until the socket would block and submits each new
/// connection as a task of its own; between steps it parks on the
/// socket's edges in the pool's readiness set. It ends once
/// the server drains, and dropping it closes the socket, so the OS refuses
/// new connections from then on.
struct Listener {
    /// The socket's place in the pool's readiness set, from the first
    /// step on; dropped before the socket closes.
    registration: Option<Registration>,
    listener: TcpListener,
    db: Arc<Database>,
    shared: Arc<Shared>,
    max_clients: usize,
    /// Dropped last, once the socket is closed.
    _slot: ListenerSlot,
}

impl Listener {
    /// Publishes `waker` for the socket — on the first step, before the
    /// first `accept`, and only then adds the socket to the pool's
    /// readiness set. False while the socket could not be added (the next
    /// step tries again).
    fn publish(&mut self, waker: &Waker) -> bool {
        match &self.registration {
            Some(registration) => registration.update(waker),
            None => match self
                .db
                .engine()
                .pool()
                .register(self.listener.as_raw_fd(), waker)
            {
                Ok(registration) => self.registration = Some(registration),
                Err(_) => return false,
            },
        }
        true
    }

    /// Counts `stream` as a client and submits it as a connection task, or
    /// turns it away above the connection cap.
    fn admit(&mut self, stream: TcpStream) {
        let mut open = self.shared.open();
        let connected = open.clients;
        if connected >= self.max_clients {
            drop(open);
            turn_away(&stream, connected as u64);
            return;
        }
        open.clients += 1;
        drop(open);
        let slot = ClientSlot(self.shared.clone());
        // Setup fails only if the socket died between accept and
        // configuration; dropping it (and its slot) closes it silently.
        if let Ok(conn) = Conn::new(stream, &self.db, &self.shared, slot) {
            self.db.engine().pool().submit(0, Box::new(conn));
        }
    }

    /// Wakes this task again after [`ACCEPT_RETRY`].
    fn retry(&self, waker: &Waker) {
        let waker = waker.clone();
        let wake = move || {
            waker.wake_by_ref();
            None
        };
        let at = Instant::now() + ACCEPT_RETRY;
        self.db.engine().pool().run_at(at, Box::new(wake));
    }
}

impl Task for Listener {
    fn step(&mut self, waker: &Waker) -> Step {
        // Read after publishing the waker: a drain that began since then
        // wakes this task again.
        let published = self.publish(waker);
        if self.shared.draining() {
            return Step::Done;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                // No edge wakes a socket outside the readiness set: look
                // again after the retry interval.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if !published {
                        self.retry(waker);
                    }
                    return Step::Blocked;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.retry(waker);
                    return Step::Blocked;
                }
            }
        }
    }
}

/// Turns away an over-cap connection with a typed `overloaded` frame: one
/// non-blocking write of one small line (a fresh socket's send buffer
/// takes it whole), then close. Never made a task, never counted as a
/// client.
fn turn_away(stream: &TcpStream, connected: u64) {
    let mut line = WireError::overloaded("connection limit reached", connected)
        .to_frame()
        .into_bytes();
    line.push(b'\n');
    if stream.set_nonblocking(true).is_ok() {
        let _ = (&*stream).write(&line);
    }
}
