//! Socket readiness for the server, and nothing more.
//!
//! Each readiness thread owns one edge-triggered `epoll(7)` set
//! ([`Readiness`]) of the sockets dealt to it (the first set also holds the
//! listener): it waits for edges and wakes the task that owns the socket.
//! It never reads a byte and never calls the engine; the task, stepped on
//! the engine's worker pool, does both. A [`Signal`] that shutdown raises
//! ends the threads.
//!
//! Std already links libc, so the few foreign functions are declared here
//! rather than pulled in from a crate.

use std::collections::HashMap;
use std::io::Write;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::c_int;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::Waker;

/// `struct epoll_event`, which the kernel packs on x86-64 only.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLLIN: u32 = 0x1;
const EPOLLOUT: u32 = 0x4;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

/// A one-shot flag a descriptor carries: once [`raise`](Signal::raise)d,
/// its read end stays readable for good, so every `epoll` set that holds
/// it sees it, now and later.
pub(crate) struct Signal {
    rx: UnixStream,
    tx: UnixStream,
}

impl Signal {
    pub(crate) fn new() -> std::io::Result<Signal> {
        let (rx, tx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        Ok(Signal { rx, tx })
    }

    /// The descriptor to wait on for readability.
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    pub(crate) fn raise(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

/// The token of the stop signal in every readiness set.
const STOP: u64 = u64::MAX;

/// One readiness thread's edge-triggered `epoll` set, and per socket in
/// it the waker of the connection task that owns the socket.
pub(crate) struct Readiness {
    epoll: OwnedFd,
    wakers: Mutex<HashMap<u64, Waker>>,
    next_token: AtomicU64,
}

impl Readiness {
    /// An empty set that also holds `stop` (level-triggered): once that is
    /// raised, [`run`](Readiness::run) returns.
    pub(crate) fn new(stop: &Signal) -> std::io::Result<Arc<Readiness>> {
        // SAFETY: no pointer arguments.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh descriptor that nothing else owns.
        let epoll = unsafe { OwnedFd::from_raw_fd(fd) };
        let readiness = Readiness {
            epoll,
            wakers: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(0),
        };
        readiness.ctl(EPOLL_CTL_ADD, stop.fd(), EPOLLIN, STOP)?;
        Ok(Arc::new(readiness))
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` is a live `epoll_event` for the duration of the
        // call (the kernel ignores it for `EPOLL_CTL_DEL`).
        let rc = unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn wakers(&self) -> MutexGuard<'_, HashMap<u64, Waker>> {
        self.wakers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes `waker` for socket `fd`, then adds the socket to the set,
    /// edge-triggered for reading and writing: from then on every edge on
    /// it wakes `waker`. Adding a socket that already has bytes to read
    /// reports an edge at once.
    pub(crate) fn register(
        self: &Arc<Self>,
        fd: RawFd,
        waker: &Waker,
    ) -> std::io::Result<Registration> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.wakers().insert(token, waker.clone());
        let registration = Registration {
            readiness: self.clone(),
            fd,
            token,
        };
        self.ctl(
            EPOLL_CTL_ADD,
            fd,
            EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
            token,
        )?;
        Ok(registration)
    }

    /// Wakes the owner of every socket in the set (shutdown: each one
    /// looks at the drain flag again).
    pub(crate) fn wake_all(&self) {
        self.wakers().values().for_each(Waker::wake_by_ref);
    }

    /// The readiness thread: waits for edges and wakes the owners of the
    /// sockets they are on, until the stop signal is raised.
    pub(crate) fn run(&self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; 64];
        loop {
            // SAFETY: `events` is an exclusively borrowed array of 64
            // `epoll_event`s the kernel may write into.
            let n = unsafe { epoll_wait(self.epoll.as_raw_fd(), events.as_mut_ptr(), 64, -1) };
            if n < 0 {
                if std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted {
                    continue;
                }
                return;
            }
            let wakers = self.wakers();
            for event in &events[..n as usize] {
                let token = event.data;
                if token == STOP {
                    return;
                }
                // A socket whose task deregistered after the edge: nothing
                // to wake.
                if let Some(waker) = wakers.get(&token) {
                    waker.wake_by_ref();
                }
            }
        }
    }
}

/// A socket's place in a [`Readiness`] set; dropping it takes the socket
/// out (before the socket itself closes) and forgets its waker.
pub(crate) struct Registration {
    readiness: Arc<Readiness>,
    fd: RawFd,
    token: u64,
}

impl Registration {
    /// Replaces the published waker, if the task is now stepped with
    /// another one.
    pub(crate) fn update(&self, waker: &Waker) {
        let mut wakers = self.readiness.wakers();
        if let Some(published) = wakers.get_mut(&self.token) {
            if !published.will_wake(waker) {
                *published = waker.clone();
            }
        }
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        let _ = self.readiness.ctl(EPOLL_CTL_DEL, self.fd, 0, self.token);
        self.readiness.wakers().remove(&self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::sync::atomic::AtomicUsize;
    use std::task::Wake;
    use std::time::{Duration, Instant};

    /// Runs `set`'s readiness loop on a thread of its own and fails,
    /// rather than hangs, unless it returns within ten seconds.
    fn runs_to_its_end(set: &Arc<Readiness>) {
        let (done, ended) = std::sync::mpsc::channel();
        let set = set.clone();
        let thread = std::thread::spawn(move || {
            set.run();
            let _ = done.send(());
        });
        ended
            .recv_timeout(Duration::from_secs(10))
            .expect("the raised signal ends the wait");
        thread.join().unwrap();
    }

    #[test]
    fn a_raised_signal_ends_every_wait_for_good() {
        let signal = Signal::new().unwrap();
        let before = Readiness::new(&signal).unwrap();
        signal.raise();
        let after = Readiness::new(&signal).unwrap();
        // Sets that held it before and since it was raised, each again.
        for set in [&before, &after, &before, &after] {
            runs_to_its_end(set);
        }
    }

    /// Counts its wakes.
    struct Count(AtomicUsize);
    impl Wake for Count {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn wait_for(count: &Count, at_least: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while count.0.load(Ordering::SeqCst) < at_least {
            assert!(Instant::now() < deadline, "no wake");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn an_edge_wakes_the_sockets_owner_until_it_deregisters() {
        let stop = Signal::new().unwrap();
        let readiness = Readiness::new(&stop).unwrap();
        let thread = {
            let readiness = readiness.clone();
            std::thread::spawn(move || readiness.run())
        };
        let (mut peer, socket) = UnixStream::pair().unwrap();
        socket.set_nonblocking(true).unwrap();
        let count = Arc::new(Count(AtomicUsize::new(0)));
        let registration = readiness
            .register(socket.as_raw_fd(), &Waker::from(count.clone()))
            .unwrap();
        // Writable at once: the edge of being added.
        wait_for(&count, 1);
        let before = count.0.load(Ordering::SeqCst);
        peer.write_all(b"x").unwrap();
        wait_for(&count, before + 1);

        drop(registration);
        let after = count.0.load(Ordering::SeqCst);
        peer.write_all(b"y").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(count.0.load(Ordering::SeqCst), after, "deregistered");

        stop.raise();
        thread.join().unwrap();
        // Read side untouched by the readiness thread: both bytes wait.
        let mut buf = [0u8; 4];
        assert_eq!((&socket).read(&mut buf).unwrap(), 2);
    }
}
