//! The server proper: an acceptor thread, a few readiness threads, and
//! one task per connection on the engine's worker pool.
//!
//! No async runtime. One acceptor thread owns the non-blocking
//! [`TcpListener`]: it turns each accepted socket into a connection task
//! (`Conn`), deals it round-robin to a readiness thread's `epoll` set and
//! submits the task to the database's [`WorkerPool`](mj_exec::sched::WorkerPool).
//! From then on the connection's whole life — read, parse, plan or look up
//! the prepared statement, start the query, poll its result stream, encode
//! and write — runs in that task's steps on a pool worker, beside the
//! queries' own operation processes. A query a connection starts from a
//! worker goes onto that worker's own queue, and the batch it emits wakes
//! the connection onto the same queue, so a short query's request and
//! reply run on one worker with no hand-off between threads.
//!
//! A readiness thread owns only socket readiness: it waits in
//! `epoll_wait(2)` for edges on the sockets dealt to it and wakes the task
//! that owns each one. It never reads a byte and never calls the engine.
//! A connection task that cannot go on parks on what it waits for: a socket
//! edge, its query's result stream or conclusion, or a pool timer for the
//! turn of a paced ad-hoc statement (`Conn` in `conn.rs`). Nothing here
//! naps on a timer. The acceptor blocks in `ppoll(2)` on the listener and a
//! stop signal.
//!
//! Graceful shutdown ([`Server::shutdown`]): stop accepting, let
//! in-flight (and already-pipelined) requests drain, answer any request
//! that arrives during the drain with a typed `overloaded` error, close
//! each connection as it goes quiescent, wait for every connection task to
//! end, then join every thread.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use mj_exec::Database;

use crate::conn::Conn;
use crate::poll::{PollFd, Readiness, Signal, POLLIN};
use crate::protocol::WireError;

/// How long the acceptor waits before retrying after `accept` failed for a
/// reason other than "nothing to accept" (e.g. out of descriptors): the
/// listener stays readable, so waiting on it would spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(1);

/// Tuning knobs for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `"127.0.0.1:7878"`. Port `0` picks a free
    /// port; read it back from [`Server::local_addr`].
    pub addr: String,
    /// Readiness threads: each waits on the sockets dealt to it and wakes
    /// their connection tasks, which run on the database's worker pool. A
    /// readiness thread moves no bytes, so one serves many sockets.
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
    /// Validates the knobs (non-zero readiness threads and client cap).
    pub fn validate(&self) -> Result<(), String> {
        if self.conn_workers == 0 {
            return Err("conn_workers must be positive".into());
        }
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
    /// Raised by shutdown: ends the acceptor.
    stop_accepting: Arc<Signal>,
    acceptor: Option<JoinHandle<()>>,
    /// Raised once every connection task has ended: ends the readiness
    /// threads.
    stop_readiness: Signal,
    readiness: Vec<(JoinHandle<()>, Arc<Readiness>)>,
    /// Held until shutdown has waited out every connection task, so the
    /// last reference to the database (and its pool) never drops on one of
    /// the pool's own workers.
    db: Option<Arc<Database>>,
}

/// What the server and its connection tasks share.
pub(crate) struct Shared {
    draining: AtomicBool,
    /// Open connections (tasks not yet dropped).
    clients: Mutex<usize>,
    /// Signalled whenever a connection task ends.
    closed: Condvar,
}

impl Shared {
    /// The server's graceful-shutdown flag.
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn clients(&self) -> MutexGuard<'_, usize> {
        self.clients.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One open connection's place in the client count, given back when its
/// task is dropped.
pub(crate) struct ClientSlot(Arc<Shared>);

impl Drop for ClientSlot {
    fn drop(&mut self) {
        *self.0.clients() -= 1;
        self.0.closed.notify_all();
    }
}

impl Server {
    /// Binds `config.addr` and starts the acceptor and readiness threads
    /// against the shared `db`, whose worker pool runs the connections.
    /// Returns once the listener is live — clients may connect
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
            clients: Mutex::new(0),
            closed: Condvar::new(),
        });
        let stop_accepting = Arc::new(Signal::new()?);
        let stop_readiness = Signal::new()?;
        let sets = (0..config.conn_workers)
            .map(|_| Readiness::new(&stop_readiness))
            .collect::<std::io::Result<Vec<_>>>()?;
        let readiness = sets
            .iter()
            .enumerate()
            .map(|(i, set)| {
                let own = set.clone();
                let thread = std::thread::Builder::new()
                    .name(format!("mj-ready-{i}"))
                    .spawn(move || own.run())
                    .expect("spawn readiness thread");
                (thread, set.clone())
            })
            .collect();

        let acceptor = {
            let acceptor = Acceptor {
                listener,
                sets,
                db: db.clone(),
                shared: shared.clone(),
                max_clients: config.max_clients,
            };
            let stop = stop_accepting.clone();
            std::thread::Builder::new()
                .name("mj-accept".to_string())
                .spawn(move || acceptor.run(&stop))
                .expect("spawn acceptor")
        };

        Ok(Server {
            local_addr,
            shared,
            stop_accepting,
            acceptor: Some(acceptor),
            stop_readiness,
            readiness,
            db: Some(db),
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Currently connected clients.
    pub fn active_clients(&self) -> usize {
        *self.shared.clients()
    }

    /// Graceful shutdown: stop accepting, drain in-flight and pipelined
    /// requests (new arrivals get `overloaded`), close connections as
    /// they go quiescent, wait for every connection task to end, join
    /// every thread. Blocks until done.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(db) = self.db.take() else {
            return;
        };
        self.shared.draining.store(true, Ordering::SeqCst);
        self.stop_accepting.raise();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // No connection arrives from here on. Each one, woken, sees the
        // drain flag and ends once quiescent; one not yet stepped sees it
        // on its first step.
        for (_, set) in &self.readiness {
            set.wake_all();
        }
        let mut clients = self.shared.clients();
        while *clients > 0 {
            clients = self
                .shared
                .closed
                .wait(clients)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(clients);
        self.stop_readiness.raise();
        for (thread, _) in self.readiness.drain(..) {
            let _ = thread.join();
        }
        drop(db);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// What the acceptor thread owns.
struct Acceptor {
    listener: TcpListener,
    sets: Vec<Arc<Readiness>>,
    db: Arc<Database>,
    shared: Arc<Shared>,
    max_clients: usize,
}

impl Acceptor {
    /// Accepts sockets and deals them round-robin to the readiness sets,
    /// each as a connection task on the pool; with nothing to accept it
    /// blocks in `ppoll` on the listener and `stop`. Owns the listener:
    /// exiting (on drain) closes it, so the OS refuses new connections from
    /// that point on.
    fn run(self, stop: &Signal) {
        let mut fds = [
            PollFd::new(stop.fd(), POLLIN),
            PollFd::new(self.listener.as_raw_fd(), POLLIN),
        ];
        let pool = self.db.engine().pool();
        let mut next = 0usize;
        while !self.shared.draining() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let mut clients = self.shared.clients();
                    let connected = *clients;
                    if connected >= self.max_clients {
                        drop(clients);
                        reject_inline(stream, connected as u64);
                        continue;
                    }
                    *clients += 1;
                    drop(clients);
                    let slot = ClientSlot(self.shared.clone());
                    // Setup fails only if the socket died between accept
                    // and configuration; dropping it (and its slot) closes
                    // it silently.
                    let set = &self.sets[next];
                    next = (next + 1) % self.sets.len();
                    if let Ok(conn) = Conn::new(stream, &self.db, set, &self.shared, slot) {
                        pool.submit(0, Box::new(conn));
                    }
                }
                // Shutdown's signal is the only thing `stop` carries, and
                // it ends the loop.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let _ = crate::poll::wait(&mut fds, None);
                }
                Err(_) => {
                    let _ = crate::poll::wait(&mut fds[..1], Some(ACCEPT_RETRY));
                }
            }
        }
    }
}

/// Turns away an over-cap connection with a typed `overloaded` frame: a
/// bounded blocking write of one small line, then close. Never made a
/// task, never counted as a client.
fn reject_inline(mut stream: TcpStream, connected: u64) {
    let frame = WireError::overloaded("connection limit reached", connected).to_frame();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(frame.as_bytes());
    let _ = stream.write_all(b"\n");
}
