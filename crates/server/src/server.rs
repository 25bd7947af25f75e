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
//! Graceful shutdown ([`Server::shutdown`]): stop accepting, let
//! in-flight (and already-pipelined) requests drain, answer any request
//! that arrives during the drain with a typed `overloaded` error, close
//! each connection as it goes quiescent, then join every thread.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mj_exec::Database;

use crate::conn::{Conn, Tick};
use crate::protocol::WireError;

/// The deepest nap an idle connection worker takes between sweeps.
/// Workers back off to this only after a sustained idle streak (see
/// [`idle_pause`]), so a thousand idle connections do not saturate one
/// core with speculative `read(2)`s — while a request that arrives
/// mid-conversation is noticed in microseconds, not milliseconds.
const IDLE_NAP_MAX: Duration = Duration::from_millis(2);

/// Empty sweeps a worker burns as plain `yield_now` before it starts
/// sleeping. An engine round trip on a warm query is ~100 µs; yielding
/// through it keeps wire latency at the same scale instead of rounding
/// every round trip up to a multi-millisecond nap.
const IDLE_SPIN_SWEEPS: u32 = 64;

/// The first real nap after the spin phase; doubles every empty sweep
/// until [`IDLE_NAP_MAX`].
const IDLE_NAP_FLOOR: Duration = Duration::from_micros(20);

/// Progressive idle pause: yield for the first [`IDLE_SPIN_SWEEPS`]
/// empty sweeps, then sleep with exponential backoff from
/// [`IDLE_NAP_FLOOR`] up to [`IDLE_NAP_MAX`] — but never past `wake_at`,
/// the earliest turn of a paced ad-hoc statement ([`Conn::wake_at`]).
fn idle_pause(idle_streak: u32, wake_at: Option<Instant>) {
    if idle_streak <= IDLE_SPIN_SWEEPS {
        std::thread::yield_now();
        return;
    }
    let exp = (idle_streak - IDLE_SPIN_SWEEPS - 1).min(10);
    let mut nap = (IDLE_NAP_FLOOR * 2u32.pow(exp)).min(IDLE_NAP_MAX);
    if let Some(at) = wake_at {
        nap = nap.min(at.saturating_duration_since(Instant::now()));
    }
    std::thread::sleep(nap);
}

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
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
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

        let mut txs: Vec<Sender<Conn>> = Vec::with_capacity(config.conn_workers);
        let mut workers = Vec::with_capacity(config.conn_workers);
        for i in 0..config.conn_workers {
            let (tx, rx) = std::sync::mpsc::channel::<Conn>();
            txs.push(tx);
            let db = db.clone();
            let draining = draining.clone();
            let clients = clients.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("mj-conn-{i}"))
                    .spawn(move || worker_loop(rx, db, draining, clients))
                    .expect("spawn connection worker"),
            );
        }

        let acceptor = {
            let draining = draining.clone();
            let clients = clients.clone();
            let max_clients = config.max_clients;
            std::thread::Builder::new()
                .name("mj-accept".to_string())
                .spawn(move || acceptor_loop(listener, txs, draining, clients, max_clients))
                .expect("spawn acceptor")
        };

        Ok(Server {
            local_addr,
            draining,
            clients,
            acceptor: Some(acceptor),
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
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Accepts sockets and deals them round-robin to the workers. Owns the
/// listener: exiting (on drain) closes it, so the OS refuses new
/// connections from that point on. The `Sender`s drop with this
/// function, which is what tells the workers no more connections are
/// coming.
fn acceptor_loop(
    listener: TcpListener,
    txs: Vec<Sender<Conn>>,
    draining: Arc<AtomicBool>,
    clients: Arc<AtomicUsize>,
    max_clients: usize,
) {
    let mut next = 0usize;
    while !draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let connected = clients.load(Ordering::Relaxed);
                if connected >= max_clients {
                    reject_inline(stream, connected as u64);
                    continue;
                }
                // Setup (`Conn::new`) fails only if the socket died
                // between accept and configuration; drop it silently.
                if let Ok(conn) = Conn::new(stream) {
                    clients.fetch_add(1, Ordering::Relaxed);
                    // A send can only fail if the worker died, which
                    // only happens at shutdown.
                    if txs[next].send(conn).is_err() {
                        clients.fetch_sub(1, Ordering::Relaxed);
                    }
                    next = (next + 1) % txs.len();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
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
/// with a non-blocking tick, drop the closed ones, nap when idle. Exits
/// when the acceptor is gone (channel disconnected) and every owned
/// connection has finished — i.e. only at shutdown, after the drain.
fn worker_loop(
    rx: Receiver<Conn>,
    db: Arc<Database>,
    draining: Arc<AtomicBool>,
    clients: Arc<AtomicUsize>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut acceptor_gone = false;
    let mut idle_streak: u32 = 0;
    loop {
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
            idle_streak = 0;
        } else {
            idle_streak = idle_streak.saturating_add(1);
            idle_pause(idle_streak, conns.iter().filter_map(Conn::wake_at).min());
        }
    }
}
