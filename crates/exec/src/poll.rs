//! The worker pool's readiness set: one edge-triggered `epoll(7)` set of
//! every registered socket, plus one `eventfd`, the bell, that the pool
//! rings to wake the worker waiting in the set.
//!
//! It never reads a byte of a socket: an edge wakes the task that owns
//! the socket, and the task reads. Which worker waits here, and when a
//! busy one looks, is the pool's business (`sched.rs`).
//!
//! Std already links libc, so the few foreign functions are declared here
//! rather than pulled in from a crate.

use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_long, c_uint, c_void};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::Waker;
use std::time::Duration;

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

/// The set, and per socket in it the waker of the task that owns it.
pub(crate) struct Poller {
    epoll: OwnedFd,
    /// The bell: an `eventfd` in the set, level-triggered, so a ring stays
    /// readable until the worker it woke clears it.
    bell: File,
    wakers: Mutex<HashMap<u64, Waker>>,
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
            poller: self.clone(),
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

    /// Wakes the owner of every socket in the set.
    pub(crate) fn wake_all(&self) {
        self.wakers().values().for_each(Waker::wake_by_ref);
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

    /// Wakes the owner of every socket `events` holds an edge for.
    pub(crate) fn dispatch(&self, events: &Events) {
        // Most looks find nothing: they take no lock.
        if events.tokens().all(|token| token == BELL) {
            return;
        }
        let wakers = self.wakers();
        for token in events.tokens() {
            // A socket whose task deregistered after the edge, or the
            // bell: nothing to wake.
            if let Some(waker) = wakers.get(&token) {
                waker.wake_by_ref();
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
}

impl Registration {
    /// Replaces the published waker, if the task is now stepped with
    /// another one.
    pub fn update(&self, waker: &Waker) {
        let mut wakers = self.poller.wakers();
        if let Some(published) = wakers.get_mut(&self.token) {
            if !published.will_wake(waker) {
                *published = waker.clone();
            }
        }
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        let _ = self.poller.ctl(EPOLL_CTL_DEL, self.fd, 0, self.token);
        self.poller.wakers().remove(&self.token);
    }
}
