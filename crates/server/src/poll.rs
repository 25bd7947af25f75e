//! Blocking readiness waits for the acceptor and the connection workers:
//! `ppoll(2)` (Linux) over a set of sockets plus one [`WakeFd`], which
//! anything holding its [`Waker`](std::task::Waker) — a query's result edge, a query's
//! conclusion, the acceptor, shutdown — can signal.
//!
//! Std already links libc, so the one foreign function is declared here
//! rather than pulled in from a crate. `ppoll` rather than `poll` because
//! its timeout is a `timespec`: a paced statement's turn
//! ([`Conn::wake_at`](crate::conn::Conn::wake_at)) is kept at nanosecond
//! resolution, not rounded to milliseconds.

use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::Wake;
use std::time::Duration;

/// Readable (or, on a listener, a connection to accept).
pub(crate) const POLLIN: c_short = 0x1;
/// Writable.
pub(crate) const POLLOUT: c_short = 0x4;

/// `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Waits for `events` on `fd` (errors and hang-ups are always reported).
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported anything on this descriptor.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// `struct timespec` (`time_t` is a `long` on Linux).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Blocks until a descriptor of `fds` is ready or `timeout` (none: no
/// limit) has passed, and records what happened in each entry. A signal
/// ends the wait early, like a timeout.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<()> {
    let timeout = timeout.map(|t| Timespec {
        tv_sec: c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX),
        // Below 10^9, so it fits a `long` of any width.
        tv_nsec: t.subsec_nanos() as c_long,
    });
    let timeout_ptr = timeout
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    let nfds = c_ulong::try_from(fds.len()).expect("a poll set fits the platform's nfds_t");
    // An interrupted call writes nothing back: start from "nothing seen".
    fds.iter_mut().for_each(|fd| fd.revents = 0);
    // SAFETY: `fds` is an exclusively borrowed slice of `nfds` `#[repr(C)]`
    // pollfd records that ppoll may write `revents` into; `timeout_ptr` is
    // null or points at `timeout`, alive until the call returns; a null
    // signal mask leaves the thread's mask unchanged.
    let n = unsafe { ppoll(fds.as_mut_ptr(), nfds, timeout_ptr, std::ptr::null()) };
    if n < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// A descriptor a [`Waker`](std::task::Waker) makes readable: a non-blocking socket pair whose
/// read end sits in the owner's poll set. Wakes coalesce — only the first
/// one after the owner [`rearm`](WakeFd::rearm)ed writes a byte.
pub(crate) struct WakeFd {
    rx: UnixStream,
    tx: UnixStream,
    signalled: AtomicBool,
}

impl WakeFd {
    pub(crate) fn new() -> std::io::Result<Arc<WakeFd>> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Arc::new(WakeFd {
            rx,
            tx,
            signalled: AtomicBool::new(false),
        }))
    }

    /// The descriptor to poll for `POLLIN`.
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Lets the next wake write again. The owner re-arms *before* it looks
    /// at the state the wakes are about: a wake after that look then finds
    /// the flag clear and makes the descriptor readable.
    pub(crate) fn rearm(&self) {
        self.signalled.store(false, Ordering::SeqCst);
    }

    /// Reads away the bytes of past wakes (after a poll reported the
    /// descriptor readable).
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

impl Wake for WakeFd {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.signalled.swap(true, Ordering::SeqCst) {
            // A full socket buffer already holds unread wakes.
            let _ = (&self.tx).write(&[1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::Waker;
    use std::time::Instant;

    #[test]
    fn a_wake_ends_the_wait_and_repeated_wakes_coalesce() {
        let wake = WakeFd::new().unwrap();
        let waker = Waker::from(wake.clone());
        let mut fds = [PollFd::new(wake.fd(), POLLIN)];
        wait(&mut fds, Some(Duration::ZERO)).unwrap();
        assert!(!fds[0].ready(), "nothing signalled yet");

        let remote = waker.clone();
        let signaller = std::thread::spawn(move || {
            remote.wake_by_ref();
            remote.wake_by_ref();
        });
        wait(&mut fds, None).unwrap();
        signaller.join().unwrap();
        assert!(fds[0].ready());
        let mut buf = [0u8; 8];
        assert_eq!(
            (&wake.rx).read(&mut buf).unwrap(),
            1,
            "one byte for two wakes"
        );

        // Until re-armed, wakes write nothing more.
        waker.wake_by_ref();
        wait(&mut fds, Some(Duration::ZERO)).unwrap();
        assert!(!fds[0].ready());
        wake.rearm();
        waker.wake_by_ref();
        wait(&mut fds, Some(Duration::ZERO)).unwrap();
        assert!(fds[0].ready());
        wake.drain();
        wait(&mut fds, Some(Duration::ZERO)).unwrap();
        assert!(!fds[0].ready(), "drained");
    }

    #[test]
    fn the_timeout_ends_an_idle_wait() {
        let wake = WakeFd::new().unwrap();
        let mut fds = [PollFd::new(wake.fd(), POLLIN)];
        let t0 = Instant::now();
        wait(&mut fds, Some(Duration::from_millis(20))).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(!fds[0].ready());
    }
}
