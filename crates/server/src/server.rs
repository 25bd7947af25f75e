//! The server proper: acceptor thread + fixed connection-worker pool.
//!
//! No async runtime. One acceptor thread owns the non-blocking
//! [`TcpListener`] and deals accepted sockets round-robin to a small
//! fixed pool of connection workers; each worker owns its connections
//! outright and sweeps them with non-blocking `Conn::tick`s. Query
//! execution itself happens in the engine (set-up on the submitting
//! connection worker, everything else on the shared worker pool), so a
//! connection worker never blocks inside a query — it only shuttles bytes
//! and polls result streams and outcomes.
//!
//! Nothing here naps on a timer. A worker whose sweep moved nothing blocks
//! in `ppoll(2)` over its sockets (readable; writable only while it has
//! bytes buffered for one) and its own wake descriptor. The engine signals
//! that descriptor through the worker's [`Waker`] when a batch or `End`
//! reaches one of its result streams or one of its queries concludes; the
//! acceptor signals it when it deals a connection, and shutdown when it
//! starts. The only timeout is the earliest turn of a paced ad-hoc
//! statement (`Conn::wake_at`). The acceptor blocks the same way on the
//! listener and a wake descriptor of its own.
//!
//! Graceful shutdown ([`Server::shutdown`]): stop accepting, let
//! in-flight (and already-pipelined) requests drain, answer any request
//! that arrives during the drain with a typed `overloaded` error, close
//! each connection as it goes quiescent, then join every thread.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mj_exec::Database;

use crate::conn::{Conn, Tick};
use crate::poll::{PollFd, WakeFd, POLLIN};
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
    /// Connection-worker threads (byte shuttling, not query execution).
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
            conn_workers: 4,
            max_clients: 1024,
        }
    }
}

impl ServerConfig {
    /// Validates the knobs (non-zero workers and client cap).
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
    draining: Arc<AtomicBool>,
    clients: Arc<AtomicUsize>,
    acceptor: Option<(JoinHandle<()>, Arc<WakeFd>)>,
    workers: Vec<(JoinHandle<()>, Arc<WakeFd>)>,
}

/// What the acceptor needs to hand a connection to one worker.
struct Dealer {
    conns: Sender<Conn>,
    waker: Waker,
}

impl Server {
    /// Binds `config.addr` and starts the acceptor and connection
    /// workers against the shared `db`. Returns once the listener is
    /// live — clients may connect immediately.
    ///
    /// Deployment note: if the engine is configured with admission
    /// control (`ExecConfig::max_concurrent`), prefer a small
    /// `admission_queue` — a connection worker submitting a query waits
    /// in that queue, and while it waits its other connections are not
    /// swept.
    pub fn start(db: Arc<Database>, config: ServerConfig) -> std::io::Result<Server> {
        config
            .validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let draining = Arc::new(AtomicBool::new(false));
        let clients = Arc::new(AtomicUsize::new(0));

        let wakes = (0..config.conn_workers)
            .map(|_| WakeFd::new())
            .collect::<std::io::Result<Vec<_>>>()?;
        let accept_wake = WakeFd::new()?;
        let mut dealers = Vec::with_capacity(config.conn_workers);
        let mut workers = Vec::with_capacity(config.conn_workers);
        for (i, wake) in wakes.into_iter().enumerate() {
            let (tx, rx) = std::sync::mpsc::channel::<Conn>();
            dealers.push(Dealer {
                conns: tx,
                waker: Waker::from(wake.clone()),
            });
            let db = db.clone();
            let draining = draining.clone();
            let clients = clients.clone();
            let own = wake.clone();
            let thread = std::thread::Builder::new()
                .name(format!("mj-conn-{i}"))
                .spawn(move || worker_loop(rx, &own, db, draining, clients))
                .expect("spawn connection worker");
            workers.push((thread, wake));
        }

        let acceptor = {
            let draining = draining.clone();
            let clients = clients.clone();
            let max_clients = config.max_clients;
            let own = accept_wake.clone();
            std::thread::Builder::new()
                .name("mj-accept".to_string())
                .spawn(move || {
                    acceptor_loop(listener, dealers, &own, draining, clients, max_clients)
                })
                .expect("spawn acceptor")
        };

        Ok(Server {
            local_addr,
            draining,
            clients,
            acceptor: Some((acceptor, accept_wake)),
            workers,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Currently connected clients.
    pub fn active_clients(&self) -> usize {
        self.clients.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, drain in-flight and pipelined
    /// requests (new arrivals get `overloaded`), close connections as
    /// they go quiescent, join every thread. Blocks until done.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.draining.store(true, Ordering::SeqCst);
        if let Some((acceptor, wake)) = self.acceptor.take() {
            wake.wake_by_ref();
            let _ = acceptor.join();
        }
        // The acceptor is gone (its senders with it): each worker, woken,
        // sees that and the drain flag, and exits once its connections are
        // quiescent.
        for (worker, wake) in self.workers.drain(..) {
            wake.wake_by_ref();
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Accepts sockets and deals them round-robin to the workers, waking the
/// one dealt to; with nothing to accept it blocks in `ppoll` on the
/// listener and its wake descriptor (signalled by shutdown). Owns the
/// listener: exiting (on drain) closes it, so the OS refuses new
/// connections from that point on. The `Sender`s drop with this function,
/// which is what tells the workers no more connections are coming.
fn acceptor_loop(
    listener: TcpListener,
    dealers: Vec<Dealer>,
    wake: &WakeFd,
    draining: Arc<AtomicBool>,
    clients: Arc<AtomicUsize>,
    max_clients: usize,
) {
    let mut fds = [
        PollFd::new(wake.fd(), POLLIN),
        PollFd::new(listener.as_raw_fd(), POLLIN),
    ];
    let mut next = 0usize;
    while !draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let connected = clients.load(Ordering::Relaxed);
                if connected >= max_clients {
                    reject_inline(stream, connected as u64);
                    continue;
                }
                let dealer = &dealers[next];
                // Setup (`Conn::new`) fails only if the socket died
                // between accept and configuration; drop it silently.
                if let Ok(conn) = Conn::new(stream, dealer.waker.clone()) {
                    clients.fetch_add(1, Ordering::Relaxed);
                    // A send can only fail if the worker died, which
                    // only happens at shutdown.
                    if dealer.conns.send(conn).is_err() {
                        clients.fetch_sub(1, Ordering::Relaxed);
                    }
                    dealer.waker.wake_by_ref();
                    next = (next + 1) % dealers.len();
                }
            }
            // Shutdown's wake is the only one this descriptor gets, and it
            // ends the loop: no need to re-arm or drain.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let _ = crate::poll::wait(&mut fds, None);
            }
            Err(_) => {
                let _ = crate::poll::wait(&mut fds[..1], Some(ACCEPT_RETRY));
            }
        }
    }
}

/// Turns away an over-cap connection with a typed `overloaded` frame: a
/// bounded blocking write of one small line, then close. Never handed
/// to a worker, never counted as a client.
fn reject_inline(mut stream: TcpStream, connected: u64) {
    let frame = WireError::overloaded("connection limit reached", connected).to_frame();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(frame.as_bytes());
    let _ = stream.write_all(b"\n");
}

/// One connection worker: adopt newly dealt connections, sweep each
/// with a non-blocking tick, drop the closed ones, and block in `ppoll`
/// once a sweep moved nothing. Exits when the acceptor is gone (channel
/// disconnected) and every owned connection has finished — i.e. only at
/// shutdown, after the drain.
fn worker_loop(
    rx: Receiver<Conn>,
    wake: &WakeFd,
    db: Arc<Database>,
    draining: Arc<AtomicBool>,
    clients: Arc<AtomicUsize>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut acceptor_gone = false;
    loop {
        // Re-armed before the sweep looks at anything, so whatever happens
        // after this point makes the descriptor readable.
        wake.rearm();
        loop {
            match rx.try_recv() {
                Ok(conn) => conns.push(conn),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    acceptor_gone = true;
                    break;
                }
            }
        }

        let drain_now = draining.load(Ordering::SeqCst);
        let mut progress = false;
        conns.retain_mut(|conn| match conn.tick(&db, drain_now) {
            Tick::Progress => {
                progress = true;
                true
            }
            Tick::Idle => {
                if drain_now && conn.is_quiescent() {
                    clients.fetch_sub(1, Ordering::Relaxed);
                    false
                } else {
                    true
                }
            }
            Tick::Closed => {
                clients.fetch_sub(1, Ordering::Relaxed);
                false
            }
        });

        if acceptor_gone && conns.is_empty() && drain_now {
            break;
        }
        if progress {
            continue;
        }
        fds.clear();
        fds.push(PollFd::new(wake.fd(), POLLIN));
        fds.extend(conns.iter().map(Conn::poll_fd));
        let due = conns.iter().filter_map(Conn::wake_at).min();
        let timeout = due.map(|at| at.saturating_duration_since(Instant::now()));
        if crate::poll::wait(&mut fds, timeout).is_ok() && fds[0].ready() {
            wake.drain();
        }
    }
}
