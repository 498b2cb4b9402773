//! Readiness polling for the event-driven connection layer.
//!
//! [`Poller`] answers one question — *which registered sockets are
//! readable?* — with level-triggered Linux `epoll`, declared
//! `extern "C"` against the C library std already links, keeping the
//! crate std-only with no `libc` dependency.  Idle keep-alive
//! connections cost one table slot and zero threads.  The server runs on
//! Linux only: there is no fallback poller, so an `epoll_create1` failure
//! is an error of [`Poller::new`] rather than a silently slower server.
//!
//! Tokens are opaque `u64`s chosen by the caller (the server uses
//! connection ids, with token 0 reserved for the listener).  The poller
//! never owns the fds; the caller keeps them alive and deregisters
//! before close.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[cfg(not(target_os = "linux"))]
compile_error!("mbb-server polls its sockets with epoll, so it builds on Linux only");

mod sys {
    //! Just enough of the Linux epoll ABI, from the C library.

    use std::os::raw::c_int;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    /// `struct epoll_event`: packed on x86_64 (the kernel ABI), naturally
    /// aligned elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
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

    fn check(ret: c_int) -> std::io::Result<usize> {
        if ret < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(ret as usize)
        }
    }

    pub fn create() -> std::io::Result<c_int> {
        // SAFETY: epoll_create1 takes one flag argument and no pointers.
        check(unsafe { epoll_create1(EPOLL_CLOEXEC) }).map(|fd| fd as c_int)
    }

    pub fn ctl(
        epfd: c_int,
        op: c_int,
        fd: c_int,
        event: Option<&mut EpollEvent>,
    ) -> std::io::Result<()> {
        let ptr = event.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
        // SAFETY: `ptr` is either null (DEL) or a live &mut EpollEvent.
        check(unsafe { epoll_ctl(epfd, op, fd, ptr) }).map(|_| ())
    }

    pub fn wait(
        epfd: c_int,
        events: &mut [EpollEvent],
        timeout_ms: c_int,
    ) -> std::io::Result<usize> {
        let max = events.len().min(c_int::MAX as usize) as c_int;
        // SAFETY: the kernel writes at most `max` events into the live
        // mutable slice.
        check(unsafe { epoll_wait(epfd, events.as_mut_ptr(), max, timeout_ms) })
    }

    pub fn close_fd(fd: c_int) {
        // SAFETY: closing an fd we own; errors are ignorable on this path.
        let _ = unsafe { close(fd) };
    }
}

/// A readiness poller over nonblocking sockets.
pub struct Poller {
    epfd: RawFd,
    buf: Vec<sys::EpollEvent>,
}

impl Poller {
    /// Opens an epoll instance.
    pub fn new() -> io::Result<Poller> {
        let epfd = sys::create()?;
        Ok(Poller { epfd, buf: vec![sys::EpollEvent { events: 0, data: 0 }; 64] })
    }

    /// Watches `fd` for readability under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events: sys::EPOLLIN | sys::EPOLLRDHUP, data: token };
        sys::ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, Some(&mut ev))
    }

    /// Stops watching `fd`.  Call *before* closing the fd.
    pub fn deregister(&mut self, fd: RawFd) {
        let _ = sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, None);
    }

    /// Blocks up to `timeout` and appends the tokens of ready sockets to
    /// `out`.  Errors, hangups and half-closes count as ready: the
    /// subsequent read surfaces them as EOF or an IO error, which is the
    /// one code path the caller already has.
    pub fn wait(&mut self, out: &mut Vec<u64>, timeout: Duration) {
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // EINTR or a transient failure reports nothing this round; the
        // caller loops.
        if let Ok(n) = sys::wait(self.epfd, &mut self.buf, ms) {
            out.extend(self.buf[..n].iter().map(|ev| ev.data));
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_backend_sees_a_pending_connection_and_times_out_when_idle() {
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;

        let mut p = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        p.register(listener.as_raw_fd(), 0).unwrap();

        // Idle: a short wait yields nothing.
        let mut out = Vec::new();
        p.wait(&mut out, Duration::from_millis(10));
        assert!(out.is_empty(), "{out:?}");

        // A pending connection makes the listener readable.
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while out.is_empty() && std::time::Instant::now() < deadline {
            p.wait(&mut out, Duration::from_millis(50));
        }
        assert_eq!(out, [0]);

        // Level-triggered: still readable until accepted.
        out.clear();
        p.wait(&mut out, Duration::from_millis(100));
        assert_eq!(out, [0]);
        let (conn, _) = listener.accept().unwrap();

        // A registered idle connection reports nothing...
        conn.set_nonblocking(true).unwrap();
        p.register(conn.as_raw_fd(), 5).unwrap();
        out.clear();
        p.wait(&mut out, Duration::from_millis(10));
        assert!(out.is_empty(), "{out:?}");

        // ...until bytes (or a close) arrive.
        drop(client);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !out.contains(&5) && std::time::Instant::now() < deadline {
            out.clear();
            p.wait(&mut out, Duration::from_millis(50));
        }
        assert!(out.contains(&5), "{out:?}");
        p.deregister(conn.as_raw_fd());
    }
}
