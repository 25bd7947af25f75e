//! The worker pool's readiness set: one edge-triggered `epoll(7)` set of
//! every registered socket, plus one `eventfd`, the bell, that the pool
//! rings to wake the worker waiting in the set.
//!
//! It never reads a byte of a socket: an edge wakes the task that owns
//! the socket, and the task reads — only after an edge: dispatching one
//! marks the socket's [`Registration`] readable before it wakes the task,
//! and the task takes the mark before it reads
//! ([`Registration::take_edge`]), so a wake for anything else (a result
//! stream, a query's outcome) costs no `read` that returns `EAGAIN`, and
//! an edge landing mid-read is kept for the next step. Which worker waits
//! here, and when a busy one looks, is the pool's business (`sched.rs`).
//!
//! Std already links libc, so the few foreign functions are declared here
//! rather than pulled in from a crate.

use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_long, c_uint, c_void};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Waker;
use std::time::Duration;

use crate::sched::lock;

/// `struct epoll_event`, which the kernel packs on x86-64 only.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct timespec`.
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Timespec {
    pub(crate) tv_sec: c_long,
    pub(crate) tv_nsec: c_long,
}

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLLIN: u32 = 0x1;
const EPOLLOUT: u32 = 0x4;
const EPOLLERR: u32 = 0x8;
const EPOLLHUP: u32 = 0x10;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;
const EFD_CLOEXEC: c_int = 0o2_000_000;
const EFD_NONBLOCK: c_int = 0o4_000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

/// Events one wait or look takes from the set at most; the rest stay
/// ready for the next.
const MAX_EVENTS: usize = 64;

/// The token of the bell in the set.
const BELL: u64 = u64::MAX;

/// How long `epoll_pwait2` waits: to the nanosecond, where `epoll_wait`
/// would round up to whole milliseconds.
pub(crate) fn timespec(timeout: Duration) -> Timespec {
    Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: timeout.subsec_nanos() as c_long,
    }
}

/// Takes ownership of a descriptor a foreign call returned.
fn owned(fd: c_int) -> std::io::Result<OwnedFd> {
    if fd < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // SAFETY: `fd` is a fresh descriptor that nothing else owns.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// An edge brought bytes to read ([`Registration::take_edge`]).
pub const EDGE_READABLE: u8 = 1;
/// An edge said the peer hung up, or the socket failed: read to the end,
/// a short read included ([`Registration::take_edge`]).
pub const EDGE_HUNG_UP: u8 = 2;

/// Per socket in the set: the waker of the task that owns it, and the
/// edges dispatched since the task last took them.
struct Owner {
    waker: Waker,
    edges: Arc<AtomicU8>,
}

/// The set, and per socket in it its [`Owner`].
pub(crate) struct Poller {
    epoll: OwnedFd,
    /// The bell: an `eventfd` in the set, level-triggered, so a ring stays
    /// readable until the worker it woke clears it.
    bell: File,
    wakers: Mutex<HashMap<u64, Owner>>,
    next_token: AtomicU64,
}

/// What one wait or look took from the set.
pub(crate) struct Events {
    events: [EpollEvent; MAX_EVENTS],
    len: usize,
}

impl Events {
    fn tokens(&self) -> impl Iterator<Item = u64> + '_ {
        self.events[..self.len].iter().map(|event| event.data)
    }

    /// Each token with the [`EDGE_READABLE`] and [`EDGE_HUNG_UP`] marks
    /// its events carry.
    fn edges(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        self.events[..self.len].iter().map(|event| {
            let events = event.events;
            let mut edges = 0;
            if events & EPOLLIN != 0 {
                edges |= EDGE_READABLE;
            }
            if events & (EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                edges |= EDGE_HUNG_UP;
            }
            (event.data, edges)
        })
    }

    /// Whether the bell rang.
    pub(crate) fn rang(&self) -> bool {
        self.tokens().any(|token| token == BELL)
    }
}

impl Poller {
    /// An empty set that holds only the bell.
    pub(crate) fn new() -> std::io::Result<Arc<Poller>> {
        // SAFETY: no pointer arguments.
        let epoll = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: no pointer arguments.
        let bell = File::from(owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?);
        let poller = Poller {
            epoll,
            bell,
            wakers: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(0),
        };
        poller.ctl(EPOLL_CTL_ADD, poller.bell.as_raw_fd(), EPOLLIN, BELL)?;
        Ok(Arc::new(poller))
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

    /// Publishes `waker` for socket `fd`, then adds the socket to the set,
    /// edge-triggered for reading and writing: from then on every edge on
    /// it wakes `waker`. Adding a socket that already has bytes to read
    /// reports an edge at once. The registration starts marked as if the
    /// socket had hung up, so its owner's first read goes to the end.
    pub(crate) fn register(
        self: &Arc<Self>,
        fd: RawFd,
        waker: &Waker,
    ) -> std::io::Result<Registration> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let edges = Arc::new(AtomicU8::new(EDGE_READABLE | EDGE_HUNG_UP));
        let owner = Owner {
            waker: waker.clone(),
            edges: edges.clone(),
        };
        lock(&self.wakers).insert(token, owner);
        let registration = Registration {
            poller: self.clone(),
            fd,
            token,
            edges,
        };
        self.ctl(
            EPOLL_CTL_ADD,
            fd,
            EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
            token,
        )?;
        Ok(registration)
    }

    /// Wakes the owner of every socket in the set.
    pub(crate) fn wake_all(&self) {
        lock(&self.wakers)
            .values()
            .for_each(|owner| owner.waker.wake_by_ref());
    }

    /// Rings the bell: the worker waiting in the set, or the next one to
    /// wait there, returns.
    pub(crate) fn ring(&self) {
        let _ = (&self.bell).write(&1u64.to_ne_bytes());
    }

    /// Silences the bell. Only the worker the rings were for may: a look
    /// that cleared a ring would lose that worker its wake.
    pub(crate) fn clear(&self) {
        let _ = (&self.bell).read(&mut [0; 8]);
    }

    /// Waits for edges or a ring for up to `timeout` (`None`: until one
    /// comes); `Some(ZERO)` only looks.
    pub(crate) fn wait(&self, timeout: Option<Duration>) -> Events {
        let mut events = Events {
            events: [EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
            len: 0,
        };
        let timeout = timeout.map(timespec);
        let timeout = timeout.as_ref().map_or(std::ptr::null(), |t| t as *const _);
        // SAFETY: `events` is an exclusively borrowed array of MAX_EVENTS
        // `epoll_event`s the kernel may write into, `timeout` is null or
        // points at a live `timespec`, and a null mask keeps the caller's.
        let n = unsafe {
            epoll_pwait2(
                self.epoll.as_raw_fd(),
                events.events.as_mut_ptr(),
                MAX_EVENTS as c_int,
                timeout,
                std::ptr::null(),
            )
        };
        // An interrupted or failed wait took nothing: the caller looks at
        // its queues and waits again.
        events.len = usize::try_from(n).unwrap_or(0);
        events
    }

    /// Wakes the owner of every socket `events` holds an edge for, once
    /// it has marked the socket's registration with what the edge brought.
    pub(crate) fn dispatch(&self, events: &Events) {
        // Most looks find nothing: they take no lock.
        if events.tokens().all(|token| token == BELL) {
            return;
        }
        let wakers = lock(&self.wakers);
        for (token, edges) in events.edges() {
            // A socket whose task deregistered after the edge, or the
            // bell: nothing to wake.
            if let Some(owner) = wakers.get(&token) {
                // Marked before the wake: the step the wake brings sees it.
                owner.edges.fetch_or(edges, Ordering::AcqRel);
                owner.waker.wake_by_ref();
            }
        }
    }
}

/// A socket's place in the pool's set; dropping it takes the socket out
/// (before the socket itself closes) and forgets its waker.
pub struct Registration {
    poller: Arc<Poller>,
    fd: RawFd,
    token: u64,
    /// The edges dispatched since [`take_edge`](Self::take_edge) last
    /// took them.
    edges: Arc<AtomicU8>,
}

impl Registration {
    /// Replaces the published waker, if the task is now stepped with
    /// another one.
    pub fn update(&self, waker: &Waker) {
        let mut wakers = lock(&self.poller.wakers);
        if let Some(owner) = wakers.get_mut(&self.token) {
            if !owner.waker.will_wake(waker) {
                owner.waker = waker.clone();
            }
        }
    }

    /// Takes the marks of the edges dispatched since the last take —
    /// [`EDGE_READABLE`], [`EDGE_HUNG_UP`], or 0 when none came. Take them
    /// before reading: an edge that lands while the owner reads marks the
    /// registration again, and the owner reads again on its next step.
    pub fn take_edge(&self) -> u8 {
        self.edges.swap(0, Ordering::AcqRel)
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        let _ = self.poller.ctl(EPOLL_CTL_DEL, self.fd, 0, self.token);
        lock(&self.poller.wakers).remove(&self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    #[test]
    fn an_edge_marks_the_registration_and_taking_the_mark_clears_it() {
        let poller = Poller::new().unwrap();
        let (mut peer, socket) = UnixStream::pair().unwrap();
        let registration = poller.register(socket.as_raw_fd(), Waker::noop()).unwrap();
        // A new registration reads to the end once, whatever came before.
        assert_eq!(registration.take_edge(), EDGE_READABLE | EDGE_HUNG_UP);
        assert_eq!(registration.take_edge(), 0, "taken");
        // Writable at once: an edge, but nothing to read.
        poller.dispatch(&poller.wait(Some(Duration::from_secs(5))));
        assert_eq!(registration.take_edge(), 0, "no bytes, no mark");

        peer.write_all(b"ping\n").unwrap();
        poller.dispatch(&poller.wait(Some(Duration::from_secs(5))));
        assert_eq!(registration.take_edge(), EDGE_READABLE);
        assert_eq!(registration.take_edge(), 0, "taking the mark clears it");

        // Edge-triggered: the unread bytes bring no second edge.
        poller.dispatch(&poller.wait(Some(Duration::ZERO)));
        assert_eq!(registration.take_edge(), 0);

        drop(peer);
        poller.dispatch(&poller.wait(Some(Duration::from_secs(5))));
        assert_ne!(registration.take_edge() & EDGE_HUNG_UP, 0, "a hang-up");
    }
}
