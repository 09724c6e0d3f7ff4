//! In-tree epoll mini-reactor: the readiness-driven HTTP server arm.
//!
//! The blocking server pins one worker thread per live connection — an
//! idle keep-alive connection occupies a worker for its whole lifetime
//! (waking on a 100 ms read timeout only to check for shutdown), so
//! closed-loop throughput goes flat as soon as connections outnumber
//! workers. This module removes the pin: each worker thread owns an epoll
//! instance and drives *every* connection assigned to it through a
//! nonblocking state machine, so one worker sustains thousands of parked
//! keep-alive connections.
//!
//! Connection lifecycle (`Accepted → ReadingHead → ReadingBody → Handling
//! → Writing → Idle`): the reading states live inside the connection's
//! [`RequestParser`]; handling is the request path both arms share
//! (`server::RequestPath::serve_next`: parse, admit, dispatch, serialize,
//! chaos verdict); writing drains the connection's serialize scratch
//! through nonblocking writes (registering `EPOLLOUT` only while bytes are
//! pending). The buffer-ownership rule from E11 — *scratch moves with the
//! connection, not the thread* — holds: each connection (`Conn`) owns its
//! read scratch (the parser buffer) and its response serialize scratch,
//! both of which keep their capacity across keep-alive requests.
//!
//! What the reactor owns beyond its I/O loop:
//!
//! * **Admission**: a per-worker dispatch budget per epoll cycle
//!   ([`ServerConfig::queue_cap`]), the analogue of the blocking arm's
//!   accept queue, and a connection cap that pauses the listener
//!   ([`ServerConfig::max_connections`]).
//! * **Chaos delay**: the blocking arm *sleeps* for `Delay`; a reactor
//!   worker must never sleep, so a delayed connection is parked with its
//!   response held in the serialize scratch until the deadline, while
//!   other connections keep being served.
//! * **Shutdown** joins promptly even with idle connections parked: the
//!   `ServerHandle::stop` poke wakes the listener in every worker's
//!   epoll, and the wait also times out at a 25 ms backstop.
//! * **Pipelining**: bytes beyond the current request stay in the parser
//!   and are served before the reactor returns to `epoll_wait`.
//!
//! There is no external runtime (the build is offline): epoll is reached
//! through three `extern "C"` declarations against the libc every Rust
//! binary already links (the `shims/` discipline of PR 1, applied to a
//! syscall surface instead of a crate). Everything else — nonblocking
//! sockets, accept, read, write — is std.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::http::{RequestParser, Response};
use crate::server::{RequestPath, ServerConfig, ServerHandle, READ_CHUNK};
use crate::Result;

/// Raw epoll bindings. The symbols live in the libc the binary is linked
/// against anyway; declaring them here keeps the build offline with no
/// new crate (see module docs).
mod sys {
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// `struct epoll_event`. The kernel packs it on x86_64 only
    /// (`linux/eventpoll.h`), so it is 12 bytes there and 16 elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    const _: () = assert!(
        std::mem::size_of::<EpollEvent>() == if cfg!(target_arch = "x86_64") { 12 } else { 16 }
    );

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }
}

/// Backstop poll interval: the longest a worker waits in `epoll_wait`
/// before re-checking the shutdown flag (the blocking arm polls its
/// shutdown flag at 100 ms; the reactor is strictly more responsive).
const IDLE_POLL_MS: i32 = 25;

/// Events drained per `epoll_wait` call.
const EVENT_BATCH: usize = 256;

/// RAII epoll instance.
struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // the only failure signal and is checked before the fd is owned.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: `fd` is a freshly created, unowned epoll descriptor.
        let fd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it out.
        let rc = unsafe { sys::epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    /// Wait for events; returns how many of `events` were filled.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
        let max = events.len().min(i32::MAX as usize) as i32;
        // SAFETY: `events` is a valid, writable slice of `max` entries for
        // the duration of the call.
        let rc =
            unsafe { sys::epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), max, timeout_ms) };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

/// What a connection is doing, beyond what the parser/buffers encode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Reading/handling/writing as bytes allow (the common state; the
    /// fine-grained ReadingHead/ReadingBody distinction lives in the
    /// parser, Writing in the non-empty serialize scratch).
    Open,
    /// Chaos-delayed: the serialized response is held in the scratch
    /// until `Instant`; no reads are processed while parked.
    Delayed(Instant),
}

/// One connection's state machine. Both buffers — the parser's read
/// scratch and the serialize scratch — are owned here, so they move with
/// the connection and are reused across every keep-alive request it
/// carries, regardless of which readiness event wakes it.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Response serialize scratch; cleared (capacity kept) once drained.
    out: Vec<u8>,
    /// How much of `out` has been written so far.
    out_pos: usize,
    state: ConnState,
    /// Close once `out` drains (non-keep-alive, chaos drop/truncate, or a
    /// 400 answer).
    close_after_flush: bool,
    /// Whether the current epoll registration includes `EPOLLOUT`.
    armed_for_write: bool,
    /// When the bytes of the request currently being assembled started
    /// arriving — the anchor the deadline budget is charged from. Reset
    /// whenever bytes land in an empty parser, so idle keep-alive time is
    /// never billed to the next request.
    arrival: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(),
            out: Vec::new(),
            out_pos: 0,
            state: ConnState::Open,
            close_after_flush: false,
            armed_for_write: false,
            arrival: Instant::now(),
        }
    }

    fn has_pending_write(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

/// Why `drive` finished with this connection for now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Keep the connection registered.
    Keep,
    /// Deregister and drop it.
    Close,
}

/// Start the reactor arm on `listener`: spawns `config.workers` reactor
/// threads onto `server`, each owning an epoll instance. The shared
/// listener is registered in every worker's epoll (level-triggered), so
/// any worker can accept; an accepted connection stays with its worker
/// for life.
pub(crate) fn start(
    server: &mut ServerHandle,
    listener: TcpListener,
    path: RequestPath,
    config: ServerConfig,
) -> Result<()> {
    listener.set_nonblocking(true)?;
    // Workers are named `rx<server>-<worker>`, short enough to survive
    // the kernel's 15-byte thread name, so each server's threads can be
    // told apart from every other thread in the process.
    let id = NEXT_SERVER.fetch_add(1, Ordering::Relaxed);
    for i in 0..config.workers.max(1) {
        let mut worker = Worker::new(
            listener.try_clone()?,
            path.clone(),
            Arc::clone(&server.shutdown),
            config,
        );
        server.workers.push(
            std::thread::Builder::new()
                .name(format!("rx{id}-{i}"))
                .spawn(move || worker.run())?,
        );
    }
    Ok(())
}

/// Numbers reactor servers for their worker thread names.
static NEXT_SERVER: AtomicU64 = AtomicU64::new(0);

/// One reactor thread: epoll instance + connection slab.
struct Worker {
    listener: TcpListener,
    path: RequestPath,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Number of connections currently in `ConnState::Delayed` (skip the
    /// slab scan entirely while zero — the overwhelmingly common case).
    delayed: usize,
    /// Live connections this worker owns (`conns` occupancy).
    open: usize,
    /// Whether the listener has been deregistered because `open` hit
    /// `config.max_connections`; re-registered on the next close.
    listener_paused: bool,
    /// Requests dispatched to the handler in the current epoll cycle;
    /// reset each `epoll_wait` return. With `config.queue_cap: Some(n)`
    /// requests beyond `n` in one cycle are shed instead of dispatched.
    dispatched: usize,
}

/// Token 0 is the listener; connection tokens are `slot + 1`.
const LISTENER_TOKEN: u64 = 0;

impl Worker {
    fn new(
        listener: TcpListener,
        path: RequestPath,
        shutdown: Arc<AtomicBool>,
        config: ServerConfig,
    ) -> Worker {
        Worker {
            listener,
            path,
            shutdown,
            config,
            conns: Vec::new(),
            free: Vec::new(),
            delayed: 0,
            open: 0,
            listener_paused: false,
            dispatched: 0,
        }
    }

    // portalint: reactor-entry
    fn run(&mut self) {
        let Ok(epoll) = Epoll::new() else { return };
        if epoll
            .ctl(
                sys::EPOLL_CTL_ADD,
                self.listener.as_raw_fd(),
                sys::EPOLLIN,
                LISTENER_TOKEN,
            )
            .is_err()
        {
            return;
        }
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
        let mut read_chunk = vec![0u8; READ_CHUNK];
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let timeout = self.next_timeout();
            let n = match epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => return,
            };
            self.dispatched = 0;
            for ev in events.iter().take(n) {
                // Copy the packed fields out before use.
                let token = ev.data;
                let flags = ev.events;
                if token == LISTENER_TOKEN {
                    self.accept_ready(&epoll);
                    continue;
                }
                let slot = (token - 1) as usize;
                let readable = flags & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP) != 0;
                let writable = flags & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0;
                self.drive(&epoll, slot, readable, writable, &mut read_chunk);
            }
            if self.delayed > 0 {
                self.expire_delays(&epoll, &mut read_chunk);
            }
        }
    }

    /// Milliseconds until the nearest chaos-delay deadline, capped at the
    /// idle backstop.
    fn next_timeout(&self) -> i32 {
        if self.delayed == 0 {
            return IDLE_POLL_MS;
        }
        let now = Instant::now();
        let mut timeout = IDLE_POLL_MS;
        for conn in self.conns.iter().flatten() {
            if let ConnState::Delayed(until) = conn.state {
                let ms = until.saturating_duration_since(now).as_millis() as i32;
                timeout = timeout.min(ms.max(1));
            }
        }
        timeout
    }

    fn accept_ready(&mut self, epoll: &Epoll) {
        loop {
            // Connection cap: at the bound, stop accepting — deregister
            // the listener so a flood parks in the kernel backlog instead
            // of growing the slab without bound. `close` re-registers.
            if self.open >= self.config.max_connections {
                if !self.listener_paused
                    && epoll
                        .ctl(sys::EPOLL_CTL_DEL, self.listener.as_raw_fd(), 0, 0)
                        .is_ok()
                {
                    self.listener_paused = true;
                    self.path.stats.record_listener_pause();
                }
                return;
            }
            // portalint: allow(reactor-blocking) — listener is registered nonblocking; accept returns WouldBlock instead of parking
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.path.stats.record_connection();
                    let conn = Conn::new(stream);
                    let slot = match self.free.pop() {
                        Some(slot) => slot,
                        None => {
                            self.conns.push(None);
                            self.conns.len() - 1
                        }
                    };
                    let token = slot as u64 + 1;
                    let fd = conn.stream.as_raw_fd();
                    if epoll
                        .ctl(sys::EPOLL_CTL_ADD, fd, sys::EPOLLIN, token)
                        .is_err()
                    {
                        self.free.push(slot);
                        continue; // dropping `conn` closes the socket
                    }
                    if let Some(entry) = self.conns.get_mut(slot) {
                        *entry = Some(conn);
                        self.open += 1;
                        self.path.stats.record_conn_open();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Advance one connection's state machine as far as readiness allows.
    fn drive(
        &mut self,
        epoll: &Epoll,
        slot: usize,
        readable: bool,
        writable: bool,
        read_chunk: &mut [u8],
    ) {
        let Some(Some(mut conn)) = self.conns.get_mut(slot).map(Option::take) else {
            return; // stale event for a slot already closed this batch
        };
        let verdict = self.step(&mut conn, readable, writable, read_chunk);
        match verdict {
            Verdict::Keep => {
                let _ = self.rearm(epoll, slot, &mut conn);
                if let Some(entry) = self.conns.get_mut(slot) {
                    *entry = Some(conn);
                }
            }
            Verdict::Close => self.close(epoll, slot, conn),
        }
    }

    fn close(&mut self, epoll: &Epoll, slot: usize, conn: Conn) {
        if matches!(conn.state, ConnState::Delayed(_)) {
            self.delayed = self.delayed.saturating_sub(1);
        }
        let _ = epoll.ctl(sys::EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
        self.path.stats.record_conn_close();
        self.free.push(slot);
        self.open = self.open.saturating_sub(1);
        // A close frees a slot below the cap: resume accepting.
        if self.listener_paused
            && self.open < self.config.max_connections
            && epoll
                .ctl(
                    sys::EPOLL_CTL_ADD,
                    self.listener.as_raw_fd(),
                    sys::EPOLLIN,
                    LISTENER_TOKEN,
                )
                .is_ok()
        {
            self.listener_paused = false;
        }
        // `conn` drops here, closing the socket.
    }

    /// Keep the epoll registration in sync with write interest.
    fn rearm(&self, epoll: &Epoll, slot: usize, conn: &mut Conn) -> std::io::Result<()> {
        let want_write = conn.has_pending_write() && !matches!(conn.state, ConnState::Delayed(_));
        if want_write == conn.armed_for_write {
            return Ok(());
        }
        let events = if want_write {
            sys::EPOLLIN | sys::EPOLLOUT
        } else {
            sys::EPOLLIN
        };
        epoll.ctl(
            sys::EPOLL_CTL_MOD,
            conn.stream.as_raw_fd(),
            events,
            slot as u64 + 1,
        )?;
        conn.armed_for_write = want_write;
        Ok(())
    }

    /// One readiness step: flush pending writes, read what the socket
    /// has, serve every complete request, flush again.
    fn step(
        &mut self,
        conn: &mut Conn,
        readable: bool,
        writable: bool,
        read_chunk: &mut [u8],
    ) -> Verdict {
        if writable && self.flush(conn) == Verdict::Close {
            return Verdict::Close;
        }
        if readable && self.fill(conn, read_chunk) == Verdict::Close {
            return Verdict::Close;
        }
        self.serve_buffered(conn);
        self.flush(conn)
    }

    /// Read whatever the socket holds into the connection's parser.
    fn fill(&mut self, conn: &mut Conn, read_chunk: &mut [u8]) -> Verdict {
        // A parked (chaos-delayed) connection reads nothing: back-pressure
        // mirrors the blocking arm, which sleeps before writing.
        if matches!(conn.state, ConnState::Delayed(_)) {
            return Verdict::Keep;
        }
        loop {
            // portalint: allow(reactor-blocking) — stream was set_nonblocking at accept; read returns WouldBlock instead of parking
            match conn.stream.read(read_chunk) {
                Ok(0) => {
                    // Peer closed. Clean EOF (no partial request buffered,
                    // e.g. the shutdown poke or an idle keep-alive hangup)
                    // closes quietly; a half-sent request is malformed.
                    if !conn.parser.is_empty() {
                        self.path
                            .bad_request(&mut conn.out, "connection closed mid-request");
                        // The peer is gone; flush is best-effort.
                        let _ = self.flush(conn);
                    }
                    return Verdict::Close;
                }
                Ok(n) => {
                    if conn.parser.is_empty() {
                        // First bytes of a fresh request: (re)anchor the
                        // deadline clock here, not at connection accept.
                        conn.arrival = Instant::now();
                    }
                    if let Some(chunk) = read_chunk.get(..n) {
                        conn.parser.feed(chunk);
                    }
                    if n < read_chunk.len() {
                        return Verdict::Keep; // drained the socket
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Verdict::Keep,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Verdict::Close,
            }
        }
    }

    /// Serve every complete request already buffered (pipelining: no
    /// return to `epoll_wait` while a full request is waiting in memory)
    /// through the shared request path, behind this worker's per-cycle
    /// dispatch budget.
    fn serve_buffered(&mut self, conn: &mut Conn) {
        while !conn.close_after_flush && !matches!(conn.state, ConnState::Delayed(_)) {
            let (dispatched, config, stats) = (self.dispatched, self.config, &self.path.stats);
            // The budget is checked before the deadline so an overloaded
            // worker sheds without even reading header values.
            let gate = || {
                let budget = config.queue_cap?;
                (dispatched >= budget).then(|| {
                    stats.record_shed_queue_full();
                    Response::shed_fault(
                        &format!("dispatch budget ({budget}) spent this cycle"),
                        config.shed_retry_after_ms,
                    )
                })
            };
            let Some(answer) =
                self.path
                    .serve_next(&mut conn.parser, conn.arrival, &mut conn.out, gate)
            else {
                return;
            };
            if answer.dispatched {
                self.dispatched += 1;
                stats.record_queue_depth(self.dispatched as u64);
            }
            conn.close_after_flush = answer.close;
            if let Some(delay) = answer.delay {
                conn.state = ConnState::Delayed(Instant::now() + delay);
                self.delayed += 1;
            }
        }
    }

    /// Drain the serialize scratch as far as the socket accepts.
    fn flush(&mut self, conn: &mut Conn) -> Verdict {
        if matches!(conn.state, ConnState::Delayed(_)) {
            return Verdict::Keep; // response held until the delay expires
        }
        while conn.has_pending_write() {
            let Some(pending) = conn.out.get(conn.out_pos..) else {
                break;
            };
            // portalint: allow(reactor-blocking) — stream was set_nonblocking at accept; write returns WouldBlock instead of parking
            match conn.stream.write(pending) {
                Ok(0) => return Verdict::Close,
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Verdict::Keep,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Verdict::Close,
            }
        }
        // Fully drained: clear keeps capacity — this is the per-connection
        // serialize scratch reuse the E11 counters account for.
        conn.out.clear();
        conn.out_pos = 0;
        if conn.close_after_flush {
            return Verdict::Close;
        }
        Verdict::Keep
    }

    /// Un-park connections whose chaos delay has expired: release the held
    /// response and resume serving whatever is buffered behind it.
    fn expire_delays(&mut self, epoll: &Epoll, read_chunk: &mut [u8]) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let expired = matches!(
                self.conns.get(slot),
                Some(Some(conn)) if matches!(conn.state, ConnState::Delayed(until) if until <= now)
            );
            if !expired {
                continue;
            }
            if let Some(Some(conn)) = self.conns.get_mut(slot) {
                conn.state = ConnState::Open;
            }
            self.delayed = self.delayed.saturating_sub(1);
            // Readable too: bytes may have queued while parked.
            self.drive(epoll, slot, true, true, read_chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ServerChaos;
    use crate::http::{Request, Status};
    use crate::server::{Handler, HttpServer, ServerArm};
    use std::io::BufReader;
    use std::time::Duration;

    fn echo_handler() -> Arc<dyn Handler> {
        Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone()))
    }

    /// An echo server on the reactor arm, on an ephemeral port.
    fn start(config: ServerConfig, chaos: Option<Arc<dyn ServerChaos>>) -> ServerHandle {
        let config = ServerConfig {
            arm: ServerArm::Reactor,
            ..config
        };
        HttpServer::start("127.0.0.1:0", echo_handler(), config, chaos).unwrap()
    }

    /// Threads of this process that belong to `server` (Linux): the tasks
    /// whose kernel name is one of its workers'. A thread a worker spawns
    /// inherits the worker's name, so it counts too; threads of tests
    /// running beside this one do not.
    fn server_threads(server: &ServerHandle) -> usize {
        let names = server.worker_names();
        std::fs::read_dir("/proc/self/task")
            .expect("read /proc")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| names.iter().any(|n| n == comm.trim_end()))
            .count()
    }

    #[test]
    fn non_keep_alive_connection_closes_after_response() {
        let server = start(ServerConfig::with_workers(1), None);
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(&Request::post("/x", "one-shot").to_bytes())
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let resp = Response::read_from_buffered(&mut reader).unwrap();
        assert_eq!(resp.body_str(), "one-shot");
        // The server closes: the next read sees EOF.
        let mut probe = [0u8; 1];
        use std::io::Read as _;
        assert_eq!(reader.read(&mut probe).unwrap(), 0);
        server.shutdown();
    }

    #[test]
    fn keep_alive_sequence_on_one_connection() {
        let server = start(ServerConfig::with_workers(1), None);
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        for i in 0..8 {
            let body = format!("msg-{i}");
            let req = Request::post("/x", body.clone()).with_header("Connection", "keep-alive");
            conn.write_all(&req.to_bytes()).unwrap();
            let resp = Response::read_from_buffered(&mut reader).unwrap();
            assert_eq!(resp.body_str(), body);
        }
        let snap = server.stats().snapshot();
        assert_eq!(snap.requests, 8);
        assert_eq!(snap.connections, 1);
        server.shutdown();
    }

    #[test]
    fn thousand_idle_keep_alive_connections_on_one_worker() {
        // The acceptance claim: one reactor worker sustains ≥1k parked
        // keep-alive connections with no per-connection thread, and still
        // serves active traffic. (The blocking arm would pin its single
        // worker on the first idle connection and starve the rest.)
        let server = start(ServerConfig::with_workers(1), None);
        let addr = server.addr();
        let mut parked = Vec::with_capacity(1000);
        let mut threads_before = 0;
        for i in 0..1000 {
            let mut conn = TcpStream::connect(addr).unwrap();
            let req =
                Request::post("/x", format!("park-{i}")).with_header("Connection", "keep-alive");
            conn.write_all(&req.to_bytes()).unwrap();
            let resp = Response::read_from(&conn).unwrap();
            assert_eq!(resp.body_str(), format!("park-{i}"));
            parked.push(conn);
            if i == 0 {
                // A worker names its kernel thread as it starts, so count
                // once it has answered.
                threads_before = server_threads(&server);
                assert_eq!(threads_before, 1, "one named reactor worker");
            }
        }
        // No thread per connection: the server grew by zero threads
        // while 1000 connections went idle.
        assert_eq!(
            server_threads(&server),
            threads_before,
            "reactor must not spawn per-connection threads"
        );
        let snap = server.stats().snapshot();
        assert!(snap.connections_high_water >= 1000, "snapshot: {snap:?}");
        // Active traffic still flows across the parked herd...
        let mut active = TcpStream::connect(addr).unwrap();
        active
            .write_all(&Request::post("/x", "still-alive").to_bytes())
            .unwrap();
        assert_eq!(
            Response::read_from(&active).unwrap().body_str(),
            "still-alive"
        );
        // ...and so do the parked connections themselves.
        for (i, conn) in parked.iter_mut().enumerate().step_by(250) {
            let req =
                Request::post("/x", format!("wake-{i}")).with_header("Connection", "keep-alive");
            conn.write_all(&req.to_bytes()).unwrap();
            let resp = Response::read_from(&*conn).unwrap();
            assert_eq!(resp.body_str(), format!("wake-{i}"));
        }
        assert_eq!(server.stats().snapshot().requests, 1005);
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_promptly_with_idle_connections_parked() {
        let server = start(ServerConfig::with_workers(2), None);
        let addr = server.addr();
        let mut parked = Vec::new();
        for _ in 0..50 {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(
                &Request::post("/x", "park")
                    .with_header("Connection", "keep-alive")
                    .to_bytes(),
            )
            .unwrap();
            let _ = Response::read_from(&conn).unwrap();
            parked.push(conn);
        }
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown took {:?} with idle connections parked",
            t0.elapsed()
        );
    }

    #[test]
    fn chaos_delay_parks_without_blocking_other_connections() {
        use crate::chaos::ServerFault;
        // Deterministic hook: delay responses to /slow, deliver the rest.
        struct SlowPath;
        impl ServerChaos for SlowPath {
            fn decide(&self, req: &Request) -> ServerFault {
                if req.path == "/slow" {
                    ServerFault::Delay(Duration::from_millis(300))
                } else {
                    ServerFault::Deliver
                }
            }
        }
        let server = start(ServerConfig::with_workers(1), Some(Arc::new(SlowPath)));
        let addr = server.addr();
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(&Request::post("/slow", "delayed").to_bytes())
            .unwrap();
        // While /slow is parked, the same single worker serves /fast.
        let t0 = Instant::now();
        let mut fast = TcpStream::connect(addr).unwrap();
        fast.write_all(&Request::post("/fast", "now").to_bytes())
            .unwrap();
        assert_eq!(Response::read_from(&fast).unwrap().body_str(), "now");
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "fast path stalled behind a parked delay: {:?}",
            t0.elapsed()
        );
        // The delayed response still arrives.
        assert_eq!(Response::read_from(&slow).unwrap().body_str(), "delayed");
        server.shutdown();
    }

    #[test]
    fn connection_cap_pauses_listener_and_resumes_on_close() {
        // Pinned regression: the reactor used to accept without bound —
        // every connection grew the slab. With a cap, the extra connection
        // must park unaccepted in the kernel backlog (no reply) until an
        // admitted connection closes, then be served.
        let config = ServerConfig {
            workers: 1,
            max_connections: 2,
            ..ServerConfig::default()
        };
        let server = start(config, None);
        let addr = server.addr();
        // Fill the cap with two parked keep-alive connections.
        let mut held = Vec::new();
        for i in 0..2 {
            let mut conn = TcpStream::connect(addr).unwrap();
            let req =
                Request::post("/x", format!("hold-{i}")).with_header("Connection", "keep-alive");
            conn.write_all(&req.to_bytes()).unwrap();
            assert_eq!(
                Response::read_from(&conn).unwrap().body_str(),
                format!("hold-{i}")
            );
            held.push(conn);
        }
        // The third connection lands in the backlog: connect succeeds, but
        // no response arrives while the cap is full.
        let mut third = TcpStream::connect(addr).unwrap();
        third
            .write_all(&Request::post("/x", "overflow").to_bytes())
            .unwrap();
        third
            .set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let mut probe = [0u8; 1];
        use std::io::Read as _;
        match (&third).read(&mut probe) {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            other => panic!("third connection served past the cap: {other:?}"),
        }
        let snap = server.stats().snapshot();
        assert!(snap.listener_pauses >= 1, "{snap:?}");
        assert_eq!(snap.requests, 2, "{snap:?}");
        // Free a slot: the listener resumes and the parked connection is
        // accepted and served.
        drop(held.remove(0));
        third
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let resp = Response::read_from(&third).unwrap();
        assert_eq!(resp.body_str(), "overflow");
        server.shutdown();
    }

    #[test]
    fn dispatch_budget_sheds_burst_with_retry_hint() {
        // A pipelined burst past the per-cycle dispatch budget: admitted
        // requests are served correctly, the excess get well-formed BUSY
        // faults with retry hints on the same keep-alive connection.
        use crate::http::{RETRY_AFTER_HEADER, RETRY_AFTER_MS_HEADER};
        let config = ServerConfig {
            workers: 1,
            queue_cap: Some(2),
            shed_retry_after_ms: 40,
            ..ServerConfig::default()
        };
        let server = start(config, None);
        let conn = TcpStream::connect(server.addr()).unwrap();
        let n = 6;
        let mut burst = Vec::new();
        for i in 0..n {
            Request::post("/x", format!("m{i}"))
                .with_header("Connection", "keep-alive")
                .write_into(&mut burst);
        }
        (&conn).write_all(&burst).unwrap();
        let mut reader = BufReader::new(&conn);
        let mut ok = 0usize;
        let mut shed = 0usize;
        for i in 0..n {
            let resp = Response::read_from_buffered(&mut reader).unwrap();
            match resp.status {
                Status::Ok => {
                    ok += 1;
                    assert_eq!(resp.body_str(), format!("m{i}"));
                }
                Status::ServiceUnavailable => {
                    shed += 1;
                    assert_eq!(resp.header(RETRY_AFTER_MS_HEADER), Some("40"));
                    assert_eq!(resp.header(RETRY_AFTER_HEADER), Some("1"));
                    assert!(resp.body_str().contains("<code>BUSY</code>"));
                }
                other => panic!("unexpected status {other:?}"),
            }
        }
        assert_eq!(ok + shed, n, "every request answered, none dropped");
        assert!(shed > 0, "burst of {n} must overrun budget 2");
        let snap = server.stats().snapshot();
        assert_eq!(snap.shed_queue_full, shed as u64, "{snap:?}");
        assert_eq!(snap.requests, ok as u64, "{snap:?}");
        assert!(snap.queue_depth_high_water <= 2, "{snap:?}");
        server.shutdown();
    }

    #[test]
    fn reactor_restarts_on_a_known_port() {
        let server = start(ServerConfig::with_workers(1), None);
        let addr = server.addr();
        server.shutdown();
        let config = ServerConfig {
            arm: ServerArm::Reactor,
            ..ServerConfig::with_workers(1)
        };
        let server = HttpServer::start(addr, echo_handler(), config, None).unwrap();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&Request::post("/x", "back").to_bytes())
            .unwrap();
        assert_eq!(Response::read_from(&conn).unwrap().body_str(), "back");
        server.shutdown();
    }
}
