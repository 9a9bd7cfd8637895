//! Offline stand-in for an I/O readiness crate: a minimal `poll(2)`
//! wrapper, plus a registration-based [`Poller`] with an `epoll`
//! fast path.
//!
//! The workspace builds in a hermetic environment with no access to
//! crates.io, so the readiness primitive the event-driven server in
//! `rdfsum-server` needs — *block until one of these sockets is readable
//! or writable* — is provided here as a tiny FFI wrapper over the POSIX
//! `poll(2)` syscall (the symbol every unix libc exports and `std`
//! already links). This crate holds the only `unsafe` code in the
//! workspace; it is confined to the readiness syscalls and the
//! `#[repr(C)]` descriptor layouts they dictate.
//!
//! Two layers:
//!
//! * [`poll`] — the stateless `poll(2)` call over a caller-built slice.
//!   Portable across unix targets; O(fds) kernel scan per wait.
//! * [`Poller`] — persistent registrations with per-fd tokens and a
//!   `wait` that reports only ready fds. On Linux it is backed by
//!   `epoll` (O(ready) wakeups — what lets thousands of idle keep-alive
//!   sockets cost nothing per wakeup); everywhere else, and on request
//!   ([`Backend::Poll`]), it degrades to persistent `poll(2)` slots with
//!   identical observable semantics, so one test suite pins both
//!   backends.
//!
//! Semantics match `poll(2)`/`epoll(7)`: level-triggered readiness, and
//! terminal states (`POLLERR`/`POLLHUP`/`POLLNVAL`) are folded into both
//! the readable and writable flags of an [`Event`] — a reader or writer
//! must observe them via `read()`/`write()` anyway, and folding them
//! identically is what keeps the two backends indistinguishable to the
//! event loop. A registration whose interest is neither readable nor
//! writable reports *nothing*, hangups included: the server parks busy
//! connections that way, and a level-triggered `POLLHUP` on a parked fd
//! would otherwise spin the loop.

#![warn(missing_docs)]
// The whole point of this shim is the FFI readiness calls below.
#![deny(unsafe_op_in_unsafe_fn)]

use std::io;

#[cfg(unix)]
use std::os::fd::RawFd;
#[cfg(not(unix))]
/// Fallback alias so the crate still type-checks off-unix (the wait
/// itself is unsupported there).
pub type RawFd = i32;

/// The descriptor is readable (`poll(2)` `POLLIN`).
pub const POLLIN: i16 = 0x001;
/// The descriptor is writable (`poll(2)` `POLLOUT`).
pub const POLLOUT: i16 = 0x004;
/// Error condition (reported in `revents` even when not requested).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (reported in `revents` even when not requested).
pub const POLLHUP: i16 = 0x010;
/// The descriptor is not open (reported in `revents` only).
pub const POLLNVAL: i16 = 0x020;

/// One `poll(2)` descriptor entry: the fd, the requested interest set,
/// and the kernel-filled readiness set. Layout is the C `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PollFd {
    /// The file descriptor to watch (a negative fd is ignored by the
    /// kernel — the standard way to keep slots without interest).
    pub fd: RawFd,
    /// Requested events ([`POLLIN`] | [`POLLOUT`]).
    pub events: i16,
    /// Kernel-reported events; valid after [`poll`] returns.
    pub revents: i16,
}

impl PollFd {
    /// A descriptor entry asking for `events`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Did the kernel report the fd readable — or in a state (`POLLHUP`,
    /// `POLLERR`, `POLLNVAL`) a reader must observe via `read()` anyway?
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    /// Did the kernel report the fd writable — or in an error state a
    /// writer must observe via `write()` anyway?
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

#[cfg(unix)]
mod sys {
    use super::PollFd;

    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: std::ffi::c_int) -> std::ffi::c_int;
    }

    pub(super) fn poll_impl(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        loop {
            // SAFETY: `PollFd` is `#[repr(C)]` with the exact layout of
            // the C `struct pollfd`, the pointer/length pair comes from a
            // live mutable slice, and `poll` writes only within it.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
            // EINTR: retry the wait (the caller's deadline, if any, is
            // coarse — event loops re-derive timeouts per iteration).
        }
    }
}

/// Blocks until at least one entry has pending events, the timeout
/// elapses, or a signal interrupts (retried internally). Returns the
/// number of entries with non-zero `revents`.
///
/// `timeout_ms` < 0 blocks indefinitely; `0` polls without blocking.
///
/// An empty `fds` slice with a non-negative timeout is a plain sleep.
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    #[cfg(unix)]
    {
        sys::poll_impl(fds, timeout_ms)
    }
    #[cfg(not(unix))]
    {
        let _ = (fds, timeout_ms);
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "poll(2) readiness is only available on unix targets",
        ))
    }
}

/// Which readiness syscall backs a [`Poller`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Persistent `poll(2)` slots: portable, O(fds) per wait.
    Poll,
    /// Linux `epoll(7)`: O(ready) per wait. Unsupported off-Linux.
    Epoll,
}

impl Backend {
    /// The default backend: `epoll` on Linux and `poll` elsewhere.
    pub fn default_backend() -> Backend {
        if cfg!(target_os = "linux") {
            Backend::Epoll
        } else {
            Backend::Poll
        }
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable — or in a terminal state (`HUP`/`ERR`/`NVAL`) a reader
    /// must observe via `read()`.
    pub readable: bool,
    /// Writable — or in a terminal state a writer must observe via
    /// `write()`.
    pub writable: bool,
}

/// A registration-based readiness multiplexer over [`Backend::Poll`] or
/// [`Backend::Epoll`], with identical observable semantics (see the
/// crate docs). Registrations persist across waits; interest changes are
/// incremental. Not `Sync`: one thread owns the poller, matching the
/// single event-thread design it serves.
pub struct Poller {
    inner: PollerInner,
}

enum PollerInner {
    Poll(PollSlots),
    #[cfg(target_os = "linux")]
    Epoll(EpollSet),
}

impl Poller {
    /// A poller on the platform's default backend (see
    /// [`Backend::default_backend`]).
    pub fn new() -> io::Result<Poller> {
        Poller::with_backend(Backend::default_backend())
    }

    /// A poller on an explicit backend — the seam the dual-backend test
    /// suites drive.
    pub fn with_backend(backend: Backend) -> io::Result<Poller> {
        match backend {
            Backend::Poll => Ok(Poller {
                inner: PollerInner::Poll(PollSlots::default()),
            }),
            #[cfg(target_os = "linux")]
            Backend::Epoll => Ok(Poller {
                inner: PollerInner::Epoll(EpollSet::new()?),
            }),
            #[cfg(not(target_os = "linux"))]
            Backend::Epoll => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "epoll is only available on linux",
            )),
        }
    }

    /// Which backend this poller runs on.
    pub fn backend(&self) -> Backend {
        match self.inner {
            PollerInner::Poll(_) => Backend::Poll,
            #[cfg(target_os = "linux")]
            PollerInner::Epoll(_) => Backend::Epoll,
        }
    }

    /// Registers `fd` or updates its registration (upsert): report under
    /// `token` whenever the requested direction is ready. Asking for
    /// neither direction parks the fd — tracked, but reporting nothing
    /// until re-armed.
    pub fn interest(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        match &mut self.inner {
            PollerInner::Poll(s) => {
                s.interest(fd, token, readable, writable);
                Ok(())
            }
            #[cfg(target_os = "linux")]
            PollerInner::Epoll(e) => e.interest(fd, token, readable, writable),
        }
    }

    /// Drops `fd`'s registration entirely. Removing an unknown fd is a
    /// no-op (the event loop removes on close paths that may race a
    /// never-registered fd).
    pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.inner {
            PollerInner::Poll(s) => {
                s.remove(fd);
                Ok(())
            }
            #[cfg(target_os = "linux")]
            PollerInner::Epoll(e) => e.remove(fd),
        }
    }

    /// Blocks until at least one armed registration is ready, the timeout
    /// elapses, or a signal interrupts (retried internally). Ready fds
    /// are appended to `events` (cleared first); returns the count.
    ///
    /// `timeout_ms` < 0 blocks indefinitely; `0` polls without blocking.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        events.clear();
        match &mut self.inner {
            PollerInner::Poll(s) => s.wait(events, timeout_ms),
            #[cfg(target_os = "linux")]
            PollerInner::Epoll(e) => e.wait(events, timeout_ms),
        }
    }
}

/// The portable backend: persistent `poll(2)` slots. A parked or
/// lapsed registration keeps its slot with `fd = -1` (the kernel ignores
/// negative fds), so arming again never reallocates.
#[derive(Default)]
struct PollSlots {
    /// The poll entries handed to the kernel; `fd = -1` for parked slots.
    slots: Vec<PollFd>,
    /// The real fd of each slot (parked slots keep theirs).
    fds: Vec<RawFd>,
    /// The token of each slot.
    tokens: Vec<u64>,
    /// fd → slot index, `usize::MAX` for untracked fds.
    slot_of_fd: Vec<usize>,
    /// Recycled slot indices of removed fds.
    free: Vec<usize>,
}

impl PollSlots {
    fn slot_of(&self, fd: RawFd) -> Option<usize> {
        let i = *self.slot_of_fd.get(fd as usize)?;
        (i != usize::MAX).then_some(i)
    }

    fn interest(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool) {
        let events = if readable { POLLIN } else { 0 } | if writable { POLLOUT } else { 0 };
        let slot = match self.slot_of(fd) {
            Some(i) => i,
            None => {
                let i = self.free.pop().unwrap_or_else(|| {
                    self.slots.push(PollFd::default());
                    self.fds.push(-1);
                    self.tokens.push(0);
                    self.slots.len() - 1
                });
                if self.slot_of_fd.len() <= fd as usize {
                    self.slot_of_fd.resize(fd as usize + 1, usize::MAX);
                }
                self.slot_of_fd[fd as usize] = i;
                i
            }
        };
        self.fds[slot] = fd;
        self.tokens[slot] = token;
        // Parked (no-interest) slots hide their fd from the kernel: a
        // level-triggered HUP on a parked connection must not spin the
        // wait loop.
        self.slots[slot] = PollFd::new(if events == 0 { -1 } else { fd }, events);
    }

    fn remove(&mut self, fd: RawFd) {
        if let Some(i) = self.slot_of(fd) {
            self.slot_of_fd[fd as usize] = usize::MAX;
            self.slots[i] = PollFd::new(-1, 0);
            self.fds[i] = -1;
            self.free.push(i);
        }
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        let n = poll(&mut self.slots, timeout_ms)?;
        if n > 0 {
            for (i, s) in self.slots.iter().enumerate() {
                if s.fd >= 0 && s.revents != 0 {
                    events.push(Event {
                        token: self.tokens[i],
                        readable: s.readable(),
                        writable: s.writable(),
                    });
                }
            }
        }
        Ok(events.len())
    }
}

#[cfg(target_os = "linux")]
mod epoll_sys {
    use super::{Event, RawFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
    use std::ffi::c_int;
    use std::io;

    // epoll event masks share the low poll(2) bit values.
    const EPOLLIN: u32 = POLLIN as u32;
    const EPOLLOUT: u32 = POLLOUT as u32;
    const EPOLLERR: u32 = POLLERR as u32;
    const EPOLLHUP: u32 = POLLHUP as u32;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    /// The C `struct epoll_event`. The kernel ABI packs it on x86-64
    /// (12 bytes); other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// The `epoll` backend: one epoll instance plus fd-indexed
    /// bookkeeping. Parking (interest in neither direction) detaches the
    /// fd from the epoll set (`EPOLL_CTL_DEL`) while keeping it tracked,
    /// reproducing the poll backend's parked-slot semantics.
    pub(super) struct EpollSet {
        epfd: RawFd,
        /// fd-indexed: is the fd tracked at all?
        tracked: Vec<bool>,
        /// fd-indexed: is the fd currently in the epoll set?
        armed: Vec<bool>,
        /// fd-indexed token.
        tokens: Vec<u64>,
        /// Reused readiness buffer for `epoll_wait`.
        buf: Vec<EpollEvent>,
    }

    impl EpollSet {
        pub(super) fn new() -> io::Result<EpollSet> {
            // SAFETY: plain syscall, no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EpollSet {
                epfd,
                tracked: Vec::new(),
                armed: Vec::new(),
                tokens: Vec::new(),
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask,
                data: token,
            };
            // SAFETY: `EpollEvent` matches the kernel ABI layout for this
            // architecture; the pointer is to a live stack value (ignored
            // by the kernel for DEL).
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn interest(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            let idx = fd as usize;
            if self.tracked.len() <= idx {
                self.tracked.resize(idx + 1, false);
                self.armed.resize(idx + 1, false);
                self.tokens.resize(idx + 1, 0);
            }
            let mask = if readable { EPOLLIN } else { 0 } | if writable { EPOLLOUT } else { 0 };
            if mask == 0 {
                // Park: out of the epoll set, still tracked.
                if self.armed[idx] {
                    self.ctl(EPOLL_CTL_DEL, fd, 0, 0)?;
                    self.armed[idx] = false;
                }
            } else if self.armed[idx] {
                self.ctl(EPOLL_CTL_MOD, fd, mask, token)?;
            } else {
                self.ctl(EPOLL_CTL_ADD, fd, mask, token)?;
                self.armed[idx] = true;
            }
            self.tracked[idx] = true;
            self.tokens[idx] = token;
            Ok(())
        }

        pub(super) fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            let idx = fd as usize;
            if self.tracked.get(idx) != Some(&true) {
                return Ok(());
            }
            if self.armed[idx] {
                self.ctl(EPOLL_CTL_DEL, fd, 0, 0)?;
                self.armed[idx] = false;
            }
            self.tracked[idx] = false;
            Ok(())
        }

        pub(super) fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout_ms: i32,
        ) -> io::Result<usize> {
            let n = loop {
                // SAFETY: the buffer is a live mutable Vec of the ABI
                // struct; the kernel writes at most `len` entries.
                let rc = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as c_int,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &self.buf[..n] {
                let (mask, token) = (ev.events, ev.data);
                events.push(Event {
                    token,
                    readable: mask & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0,
                    writable: mask & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(events.len())
        }
    }

    impl Drop for EpollSet {
        fn drop(&mut self) {
            // SAFETY: closing the fd we created; errors are ignorable.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(target_os = "linux")]
use epoll_sys::EpollSet;

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    /// A connected loopback socket pair, std-only.
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn fresh_socket_is_writable_not_readable() {
        let (a, _b) = tcp_pair();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN | POLLOUT)];
        let n = poll(&mut fds, 1000).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].writable());
        assert_eq!(fds[0].revents & POLLIN, 0, "nothing to read yet");
    }

    #[test]
    fn data_arrival_reports_readable() {
        let (a, mut b) = tcp_pair();
        b.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, 1000).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        let mut buf = [0u8; 1];
        (&a).read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"x");
    }

    #[test]
    fn peer_close_reports_readable_eof() {
        let (a, b) = tcp_pair();
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, 1000).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable(), "EOF must wake a reader");
    }

    #[test]
    fn zero_timeout_with_no_events_returns_zero() {
        let (a, _b) = tcp_pair();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, 0).unwrap(), 0);
        assert_eq!(fds[0].revents, 0);
    }

    #[test]
    fn negative_fd_slots_are_ignored() {
        let (a, mut b) = tcp_pair();
        b.write_all(b"y").unwrap();
        let mut fds = [PollFd::new(-1, POLLIN), PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(fds[0].revents, 0, "negative fds never report events");
        assert!(fds[1].readable());
    }

    /// Every backend available on this platform.
    fn backends() -> Vec<Backend> {
        let mut v = vec![Backend::Poll];
        if cfg!(target_os = "linux") {
            v.push(Backend::Epoll);
        }
        v
    }

    #[test]
    fn poller_reports_ready_fds_with_tokens() {
        for backend in backends() {
            let (a, mut b) = tcp_pair();
            let (c, _d) = tcp_pair();
            let mut p = Poller::with_backend(backend).unwrap();
            assert_eq!(p.backend(), backend);
            p.interest(a.as_raw_fd(), 7, true, false).unwrap();
            p.interest(c.as_raw_fd(), 9, true, false).unwrap();
            b.write_all(b"x").unwrap();
            let mut events = Vec::new();
            let n = p.wait(&mut events, 1000).unwrap();
            assert_eq!(n, 1, "{backend:?}");
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);
        }
    }

    #[test]
    fn poller_interest_update_switches_directions() {
        for backend in backends() {
            let (a, mut b) = tcp_pair();
            let mut p = Poller::with_backend(backend).unwrap();
            b.write_all(b"x").unwrap();
            // Write-only interest on a readable socket: reports writable.
            p.interest(a.as_raw_fd(), 1, false, true).unwrap();
            let mut events = Vec::new();
            p.wait(&mut events, 1000).unwrap();
            assert!(events.iter().all(|e| e.token == 1 && e.writable));
            // Flip to read-only: reports readable.
            p.interest(a.as_raw_fd(), 2, true, false).unwrap();
            p.wait(&mut events, 1000).unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            assert_eq!(events[0].token, 2);
            assert!(events[0].readable);
        }
    }

    /// The parked-fd contract both backends must share: interest in
    /// neither direction reports nothing — even when the fd has pending
    /// data or the peer hung up (a level-triggered HUP on a parked
    /// connection must not spin the event loop).
    #[test]
    fn poller_parked_fd_reports_nothing() {
        for backend in backends() {
            let (a, b) = tcp_pair();
            let mut p = Poller::with_backend(backend).unwrap();
            p.interest(a.as_raw_fd(), 3, true, true).unwrap();
            p.interest(a.as_raw_fd(), 3, false, false).unwrap(); // park
            drop(b); // HUP while parked
            let mut events = Vec::new();
            assert_eq!(p.wait(&mut events, 50).unwrap(), 0, "{backend:?}");
            // Re-arm: the hangup surfaces as readable EOF.
            p.interest(a.as_raw_fd(), 3, true, false).unwrap();
            assert_eq!(p.wait(&mut events, 1000).unwrap(), 1, "{backend:?}");
            assert!(events[0].readable);
        }
    }

    #[test]
    fn poller_remove_stops_reports_and_recycles() {
        for backend in backends() {
            let (a, mut b) = tcp_pair();
            let mut p = Poller::with_backend(backend).unwrap();
            p.interest(a.as_raw_fd(), 4, true, false).unwrap();
            b.write_all(b"x").unwrap();
            p.remove(a.as_raw_fd()).unwrap();
            p.remove(a.as_raw_fd()).unwrap(); // idempotent
            let mut events = Vec::new();
            assert_eq!(p.wait(&mut events, 50).unwrap(), 0, "{backend:?}");
            // Re-register the same fd afresh.
            p.interest(a.as_raw_fd(), 5, true, false).unwrap();
            assert_eq!(p.wait(&mut events, 1000).unwrap(), 1);
            assert_eq!(events[0].token, 5);
        }
    }

    #[test]
    fn poller_hup_folds_into_both_directions() {
        for backend in backends() {
            let (a, b) = tcp_pair();
            drop(b);
            let mut p = Poller::with_backend(backend).unwrap();
            p.interest(a.as_raw_fd(), 6, true, true).unwrap();
            let mut events = Vec::new();
            assert_eq!(p.wait(&mut events, 1000).unwrap(), 1, "{backend:?}");
            assert!(events[0].readable, "{backend:?}: EOF must wake a reader");
            assert!(events[0].writable, "{backend:?}: EOF must wake a writer");
        }
    }

    #[test]
    fn many_sockets_report_exactly_the_ready_ones() {
        let pairs: Vec<_> = (0..64).map(|_| tcp_pair()).collect();
        for (i, (_, b)) in pairs.iter().enumerate() {
            if i % 3 == 0 {
                let mut w = b;
                w.write_all(b"z").unwrap();
            }
        }
        let mut fds: Vec<PollFd> = pairs
            .iter()
            .map(|(a, _)| PollFd::new(a.as_raw_fd(), POLLIN))
            .collect();
        let n = poll(&mut fds, 1000).unwrap();
        let ready: Vec<usize> = fds
            .iter()
            .enumerate()
            .filter(|(_, f)| f.readable())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(n, ready.len());
        assert_eq!(ready, (0..64).filter(|i| i % 3 == 0).collect::<Vec<_>>());
    }
}
