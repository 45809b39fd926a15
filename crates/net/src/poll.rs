//! Level-triggered readiness poller over `epoll`, via a thin syscall
//! shim — `extern "C"` declarations of symbols the Rust standard
//! library already links (std itself calls into libc on Linux), so no
//! crate dependency is added. This is what lets one event-loop thread
//! watch many nonblocking sockets instead of parking a reader and a
//! writer thread on every connection.
//!
//! The poller is deliberately small: register / modify / deregister a
//! file descriptor under a caller-chosen `u64` token, wait for
//! readiness with a timeout, and a self-pipe [`Poller::wake`] so other
//! threads (shutdown, connection hand-off) can interrupt a wait. All
//! registrations are level-triggered — a socket with unread bytes or
//! writable space keeps reporting until the caller drains it, which is
//! the forgiving mode: a missed event costs a lap, not a hang.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

// -- syscall shim -----------------------------------------------------
//
// Values are the Linux generic ABI (x86_64 and aarch64 agree on every
// constant used here).

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const O_NONBLOCK: i32 = 0o4000;
const O_CLOEXEC: i32 = 0o2000000;

const MSG_DONTWAIT: i32 = 0x40;

/// `struct epoll_event`. Packed on x86_64 (kernel ABI quirk), natural
/// alignment everywhere else.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn pipe2(fds: *mut i32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Reads a socket without blocking, whatever its mode: each read is one
/// `recv(2)` with `MSG_DONTWAIT`, and an empty socket reports
/// `WouldBlock`. A socket that blocks everywhere else can be polled
/// this way without the two mode switches of `set_nonblocking`.
pub(crate) struct DontWait<'a>(pub(crate) &'a std::net::TcpStream);

impl io::Read for DontWait<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        use std::os::fd::AsRawFd as _;
        // SAFETY: `buf` is valid for writes of `buf.len()` bytes, and
        // the descriptor is open for as long as the borrowed stream.
        let n = unsafe {
            recv(
                self.0.as_raw_fd(),
                buf.as_mut_ptr(),
                buf.len(),
                MSG_DONTWAIT,
            )
        };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }
}

// -- public surface ---------------------------------------------------

/// Token reserved for the poller's internal wake pipe. User
/// registrations must stay below it.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the file descriptor was registered under —
    /// [`WAKE_TOKEN`] for a cross-thread [`Poller::wake`].
    pub token: u64,
    /// Bytes (or an EOF) are waiting to be read.
    pub readable: bool,
    /// The socket can accept more bytes.
    pub writable: bool,
    /// The peer closed or the socket errored; a read will surface the
    /// exact condition.
    pub hangup: bool,
}

/// A level-triggered readiness multiplexer with a cross-thread waker.
///
/// `wait` is intended for one owning event-loop thread;
/// `wake`, `register`, `modify` and `deregister` are safe from any
/// thread (epoll control operations are kernel-synchronised).
pub struct Poller {
    epfd: RawFd,
    wake_r: RawFd,
    wake_w: RawFd,
}

impl Poller {
    /// Creates the epoll instance and its wake pipe.
    ///
    /// # Errors
    /// Propagates `epoll_create1` / `pipe2` failure.
    pub fn new() -> io::Result<Poller> {
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        let mut fds = [0i32; 2];
        if let Err(e) = cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) }) {
            unsafe { close(epfd) };
            return Err(e);
        }
        let poller = Poller {
            epfd,
            wake_r: fds[0],
            wake_w: fds[1],
        };
        poller.register(poller.wake_r, WAKE_TOKEN, true, false)?;
        Ok(poller)
    }

    fn ctl(
        &self,
        op: i32,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: (if readable { EPOLLIN } else { 0 })
                | (if writable { EPOLLOUT } else { 0 })
                | EPOLLRDHUP,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Starts watching `fd` under `token` with the given interests.
    ///
    /// # Errors
    /// Propagates `epoll_ctl` failure (e.g. the fd is already
    /// registered).
    pub fn register(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, readable, writable)
    }

    /// Replaces the interests (and token) of a registered `fd`.
    ///
    /// # Errors
    /// Propagates `epoll_ctl` failure.
    pub fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, readable, writable)
    }

    /// Stops watching `fd`. Closing a registered fd also deregisters it
    /// kernel-side, so this is only needed when the fd outlives the
    /// interest.
    ///
    /// # Errors
    /// Propagates `epoll_ctl` failure.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
    }

    /// Blocks until readiness, a [`Poller::wake`], or `timeout`
    /// (forever when `None`). Events are appended to `events` (cleared
    /// first). A signal interruption reports zero events rather than
    /// an error. Wake-pipe readiness is drained internally and
    /// reported as a [`WAKE_TOKEN`] event.
    ///
    /// # Errors
    /// Propagates `epoll_wait` failure.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            // Round up so a 100µs timeout does not busy-spin at 0ms.
            Some(t) => i32::try_from(t.as_millis().max(u128::from(u32::from(!t.is_zero()))))
                .unwrap_or(i32::MAX),
            None => -1,
        };
        let mut raw = [EpollEvent { events: 0, data: 0 }; 64];
        let n = match cvt(unsafe {
            epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms)
        }) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in raw.iter().take(n) {
            let (bits, token) = (ev.events, ev.data);
            if token == WAKE_TOKEN {
                self.drain_wake();
            }
            events.push(Event {
                token,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(events.len())
    }

    /// Interrupts a concurrent (or the next) [`Poller::wait`]. Safe
    /// and cheap from any thread.
    pub fn wake(&self) {
        let byte = 1u8;
        // EAGAIN on a full pipe is fine: pending bytes already
        // guarantee the next wait wakes.
        let _ = unsafe { write(self.wake_w, &byte, 1) };
    }

    fn drain_wake(&self) {
        let mut buf = [0u8; 256];
        loop {
            let n = unsafe { read(self.wake_r, buf.as_mut_ptr(), buf.len()) };
            if n < buf.len() as isize {
                break;
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            close(self.wake_r);
            close(self.wake_w);
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::Arc;
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn timeout_expires_with_no_events() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let started = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(started.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn readable_when_peer_writes() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, true, false).unwrap();
        let mut events = Vec::new();
        // Nothing written yet: no readiness.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7));
        a.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("readable");
        assert!(ev.readable && !ev.writable);
        // Level-triggered: unread bytes keep reporting.
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
    }

    #[test]
    fn writable_reported_and_maskable() {
        let poller = Poller::new().unwrap();
        let (_a, b) = pair();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 3, true, true).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));
        // Mask the write interest: an idle socket reports nothing.
        poller.modify(b.as_raw_fd(), 3, true, false).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 3));
    }

    #[test]
    fn hangup_reported_on_peer_close() {
        let poller = Poller::new().unwrap();
        let (a, b) = pair();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 9, true, false).unwrap();
        drop(a);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 9).expect("hangup event");
        // EOF arrives as readable (a read returns 0) with the hangup
        // hint set.
        assert!(ev.readable && ev.hangup);
    }

    #[test]
    fn deregistered_fd_goes_silent() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 5, true, false).unwrap();
        a.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 5));
        poller.deregister(b.as_raw_fd()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 5));
    }

    #[test]
    fn wake_interrupts_a_waiting_thread() {
        let poller = Arc::new(Poller::new().unwrap());
        let waker = Arc::clone(&poller);
        let waited = std::thread::spawn(move || {
            let mut events = Vec::new();
            let started = Instant::now();
            waker
                .wait(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            (started.elapsed(), events)
        });
        std::thread::sleep(Duration::from_millis(30));
        poller.wake();
        let (elapsed, events) = waited.join().unwrap();
        assert!(
            elapsed < Duration::from_secs(5),
            "wake did not interrupt the wait ({elapsed:?})"
        );
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN));
        // The wake byte was drained: the next wait times out quietly.
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn redundant_wakes_collapse_but_none_is_lost() {
        let poller = Poller::new().unwrap();
        for _ in 0..1000 {
            poller.wake();
        }
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN));
        // All thousand wakes collapsed into that one event.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
        // And the waker re-arms afterwards.
        poller.wake();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN));
    }

    #[test]
    fn dont_wait_reads_a_blocking_socket_without_blocking() {
        use std::io::Read as _;
        let (mut a, b) = pair();
        let mut buf = [0u8; 8];
        let empty = DontWait(&b).read(&mut buf).unwrap_err();
        assert_eq!(empty.kind(), io::ErrorKind::WouldBlock);
        a.write_all(b"hi").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let n = loop {
            match DontWait(&b).read(&mut buf) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock && Instant::now() < deadline => {}
                Err(e) => panic!("recv failed: {e}"),
            }
        };
        assert_eq!(&buf[..n], b"hi");
        drop(a);
        let eof = loop {
            match DontWait(&b).read(&mut buf) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock && Instant::now() < deadline => {}
                Err(e) => panic!("recv failed: {e}"),
            }
        };
        assert_eq!(eof, 0, "EOF reads as zero bytes");
    }

    #[test]
    fn many_sockets_multiplex_on_one_poller() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        for i in 0..16u64 {
            let w = TcpStream::connect(addr).unwrap();
            let (r, _) = listener.accept().unwrap();
            r.set_nonblocking(true).unwrap();
            poller.register(r.as_raw_fd(), i, true, false).unwrap();
            writers.push(w);
            readers.push(r);
        }
        for (i, w) in writers.iter_mut().enumerate() {
            if i % 2 == 0 {
                w.write_all(b"ping").unwrap();
            }
        }
        let mut seen = std::collections::HashSet::new();
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while seen.len() < 8 && Instant::now() < deadline {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            for ev in &events {
                assert_eq!(ev.token % 2, 0, "odd socket {} reported idle", ev.token);
                let mut buf = [0u8; 8];
                let _ = (&readers[ev.token as usize]).read(&mut buf);
                seen.insert(ev.token);
            }
        }
        assert_eq!(seen.len(), 8, "only {seen:?} of the written sockets fired");
    }
}
