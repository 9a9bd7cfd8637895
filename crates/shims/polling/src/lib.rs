//! Offline stand-in for an I/O readiness crate: a registration-based
//! [`Poller`] over persistent `poll(2)` slots.
//!
//! The workspace builds in a hermetic environment with no access to
//! crates.io, so the readiness primitive the event-driven server in
//! `rdfsum-server` needs — *block until one of these sockets is readable
//! or writable* — is provided here as a tiny FFI wrapper over the POSIX
//! `poll(2)` syscall (the symbol every unix libc exports and `std`
//! already links). This crate holds the only `unsafe` code in the
//! workspace; it is confined to that one syscall and the `#[repr(C)]`
//! `struct pollfd` layout it dictates.
//!
//! A [`Poller`] keeps one `pollfd` slot per registered fd across waits,
//! with a per-fd token, and its `wait` reports only the ready fds. Each
//! wait hands the kernel every slot, so it costs O(registered fds); one
//! wait over a thousand idle keep-alive sockets is still a single
//! syscall, and it is the one readiness path on every unix platform.
//!
//! Semantics are `poll(2)`'s: level-triggered readiness, and terminal
//! states (`POLLERR`/`POLLHUP`/`POLLNVAL`) are folded into both the
//! readable and writable flags of an [`Event`] — a reader or writer must
//! observe them via `read()`/`write()` anyway. A registration whose
//! interest is neither readable nor writable reports *nothing*, hangups
//! included: the server parks busy connections that way, and a
//! level-triggered `POLLHUP` on a parked fd would otherwise spin the loop.

#![warn(missing_docs)]
// The whole point of this shim is the FFI readiness call below.
#![deny(unsafe_op_in_unsafe_fn)]

use std::io;
use std::os::fd::RawFd;

/// The descriptor is readable (`poll(2)` `POLLIN`).
pub const POLLIN: i16 = 0x001;
/// The descriptor is writable (`poll(2)` `POLLOUT`).
pub const POLLOUT: i16 = 0x004;
/// Error condition (reported in `revents` even when not requested).
const POLLERR: i16 = 0x008;
/// Peer hung up (reported in `revents` even when not requested).
const POLLHUP: i16 = 0x010;
/// The descriptor is not open (reported in `revents` only).
const POLLNVAL: i16 = 0x020;

/// One `poll(2)` descriptor entry: the fd, the requested interest set,
/// and the kernel-filled readiness set. Layout is the C `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct PollFd {
    /// The file descriptor to watch (a negative fd is ignored by the
    /// kernel — the standard way to keep slots without interest).
    fd: RawFd,
    /// Requested events ([`POLLIN`] | [`POLLOUT`]).
    events: i16,
    /// Kernel-reported events; valid after [`poll`] returns.
    revents: i16,
}

impl PollFd {
    /// A descriptor entry asking for `events`.
    fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Did the kernel report the fd readable — or in a state (`POLLHUP`,
    /// `POLLERR`, `POLLNVAL`) a reader must observe via `read()` anyway?
    fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    /// Did the kernel report the fd writable — or in an error state a
    /// writer must observe via `write()` anyway?
    fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

mod sys {
    use super::PollFd;

    #[cfg(target_os = "linux")]
    pub(super) type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub(super) type Nfds = std::ffi::c_uint;

    extern "C" {
        pub(super) fn poll(
            fds: *mut PollFd,
            nfds: Nfds,
            timeout: std::ffi::c_int,
        ) -> std::ffi::c_int;
    }
}

/// Blocks until at least one entry has pending events, the timeout
/// elapses, or a signal interrupts (retried internally). Returns the
/// number of entries with non-zero `revents`.
///
/// `timeout_ms` < 0 blocks indefinitely; `0` polls without blocking.
///
/// An empty `fds` slice with a non-negative timeout is a plain sleep.
fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `PollFd` is `#[repr(C)]` with the exact layout of the C
        // `struct pollfd`, the pointer/length pair comes from a live
        // mutable slice, and `poll` writes only within it.
        let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as sys::Nfds, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
        // EINTR: retry the wait (the caller's deadline, if any, is
        // coarse — event loops re-derive timeouts per iteration).
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

/// A registration-based readiness multiplexer: persistent `poll(2)`
/// slots (see the crate docs). Registrations persist across waits;
/// interest changes are bookkeeping, with no syscall. A parked or lapsed
/// registration keeps its slot with `fd = -1` (the kernel ignores
/// negative fds), so arming again never reallocates. Every method takes
/// `&mut self`: one thread owns the poller, matching the single
/// event-thread design it serves.
#[derive(Default)]
pub struct Poller {
    /// The poll entries handed to the kernel; `fd = -1` for parked slots.
    slots: Vec<PollFd>,
    /// The token of each slot.
    tokens: Vec<u64>,
    /// fd → slot index, `usize::MAX` for untracked fds.
    slot_of_fd: Vec<usize>,
    /// Recycled slot indices of removed fds.
    free: Vec<usize>,
}

impl Poller {
    /// A poller with no registrations.
    pub fn new() -> Poller {
        Poller::default()
    }

    fn slot_of(&self, fd: RawFd) -> Option<usize> {
        let i = *self.slot_of_fd.get(fd as usize)?;
        (i != usize::MAX).then_some(i)
    }

    /// Registers `fd` or updates its registration (upsert): report under
    /// `token` whenever the requested direction is ready. Asking for
    /// neither direction parks the fd — tracked, but reporting nothing
    /// until re-armed.
    pub fn interest(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool) {
        let events = if readable { POLLIN } else { 0 } | if writable { POLLOUT } else { 0 };
        let slot = match self.slot_of(fd) {
            Some(i) => i,
            None => {
                let i = self.free.pop().unwrap_or_else(|| {
                    self.slots.push(PollFd::default());
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
        self.tokens[slot] = token;
        // Parked (no-interest) slots hide their fd from the kernel: a
        // level-triggered HUP on a parked connection must not spin the
        // wait loop.
        self.slots[slot] = PollFd::new(if events == 0 { -1 } else { fd }, events);
    }

    /// Drops `fd`'s registration entirely. Removing an unknown fd is a
    /// no-op (the event loop removes on close paths that may race a
    /// never-registered fd).
    pub fn remove(&mut self, fd: RawFd) {
        if let Some(i) = self.slot_of(fd) {
            self.slot_of_fd[fd as usize] = usize::MAX;
            self.slots[i] = PollFd::new(-1, 0);
            self.free.push(i);
        }
    }

    /// Blocks until at least one armed registration is ready, the timeout
    /// elapses, or a signal interrupts (retried internally). Ready fds
    /// are appended to `events` (cleared first); returns the count.
    ///
    /// `timeout_ms` < 0 blocks indefinitely; `0` polls without blocking.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        events.clear();
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

#[cfg(test)]
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

    #[test]
    fn poller_reports_ready_fds_with_tokens() {
        let (a, mut b) = tcp_pair();
        let (c, _d) = tcp_pair();
        let mut p = Poller::new();
        p.interest(a.as_raw_fd(), 7, true, false);
        p.interest(c.as_raw_fd(), 9, true, false);
        b.write_all(b"x").unwrap();
        let mut events = Vec::new();
        let n = p.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn poller_interest_update_switches_directions() {
        let (a, mut b) = tcp_pair();
        let mut p = Poller::new();
        b.write_all(b"x").unwrap();
        // Write-only interest on a readable socket: reports writable.
        p.interest(a.as_raw_fd(), 1, false, true);
        let mut events = Vec::new();
        p.wait(&mut events, 1000).unwrap();
        assert!(events.iter().all(|e| e.token == 1 && e.writable));
        // Flip to read-only: reports readable.
        p.interest(a.as_raw_fd(), 2, true, false);
        p.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 2);
        assert!(events[0].readable);
    }

    /// The parked-fd contract: interest in neither direction reports
    /// nothing — even when the fd has pending data or the peer hung up (a
    /// level-triggered HUP on a parked connection must not spin the event
    /// loop).
    #[test]
    fn poller_parked_fd_reports_nothing() {
        let (a, b) = tcp_pair();
        let mut p = Poller::new();
        p.interest(a.as_raw_fd(), 3, true, true);
        p.interest(a.as_raw_fd(), 3, false, false); // park
        drop(b); // HUP while parked
        let mut events = Vec::new();
        assert_eq!(p.wait(&mut events, 50).unwrap(), 0);
        // Re-arm: the hangup surfaces as readable EOF.
        p.interest(a.as_raw_fd(), 3, true, false);
        assert_eq!(p.wait(&mut events, 1000).unwrap(), 1);
        assert!(events[0].readable);
    }

    #[test]
    fn poller_remove_stops_reports_and_recycles() {
        let (a, mut b) = tcp_pair();
        let mut p = Poller::new();
        p.interest(a.as_raw_fd(), 4, true, false);
        b.write_all(b"x").unwrap();
        p.remove(a.as_raw_fd());
        p.remove(a.as_raw_fd()); // idempotent
        let mut events = Vec::new();
        assert_eq!(p.wait(&mut events, 50).unwrap(), 0);
        // Re-register the same fd afresh.
        p.interest(a.as_raw_fd(), 5, true, false);
        assert_eq!(p.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!(events[0].token, 5);
    }

    #[test]
    fn poller_hup_folds_into_both_directions() {
        let (a, b) = tcp_pair();
        drop(b);
        let mut p = Poller::new();
        p.interest(a.as_raw_fd(), 6, true, true);
        let mut events = Vec::new();
        assert_eq!(p.wait(&mut events, 1000).unwrap(), 1);
        assert!(events[0].readable, "EOF must wake a reader");
        assert!(events[0].writable, "EOF must wake a writer");
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
