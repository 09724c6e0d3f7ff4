//! HTTP server with a path router, in two arms over one request path.
//!
//! Each portal service in the paper ran on its own server ("Each of these
//! runs on a separate web server", §2). [`HttpServer`] plays that role: one
//! instance per logical server (UI server, UDDI server, SOAP Service
//! Provider, Authentication Service), each with its own [`Router`] mapping
//! paths to [`Handler`]s.
//!
//! [`ServerConfig::arm`] picks the loop that drives the connections:
//!
//! * [`ServerArm::Blocking`] — the classic fixed-worker-pool shape: an
//!   acceptor thread pushes connections into a bounded crossbeam channel
//!   and each worker serves one connection at a time with timed blocking
//!   reads (HTTP/1.0 semantics, as deployed in 2002, plus opt-in
//!   keep-alive).
//! * [`ServerArm::Reactor`] — [`crate::reactor`]: each worker drives many
//!   nonblocking connections through an epoll loop.
//!
//! Everything between "request bytes are buffered" and "the response
//! bytes are ready" is one function both loops call:
//! `RequestPath::serve_next` parses, decides `Connection`, admits against
//! the deadline budget, dispatches, serializes into the caller's scratch
//! and applies the chaos verdict; its `bad_request` writes the `400`. Each
//! loop keeps only its I/O and its own admission point: the accept-queue
//! shed here, the per-cycle dispatch budget in the reactor.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, TrySendError};
use parking_lot::RwLock;

use crate::chaos::{cut_inside, ServerChaos, ServerFault};
use crate::http::{wants_keep_alive, Request, RequestParser, Response, Status};
use crate::pool::DEADLINE_HEADER;
use crate::stats::{ChaosClass, WireStats};
use crate::Result;

/// The loop that drives a server's connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerArm {
    /// Fixed worker pool, one blocking connection per worker at a time
    /// (the 2002 regime and the ablation baseline).
    #[default]
    Blocking,
    /// Epoll reactor: each worker multiplexes many nonblocking
    /// connections ([`crate::reactor`]).
    Reactor,
}

/// Server loop and admission-control tuning. The defaults reproduce the
/// historical behavior (blocking arm, blocking-send backpressure, a
/// generous connection cap); production deployments pass explicit
/// bounds to [`HttpServer::start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Which loop drives the connections.
    pub arm: ServerArm,
    /// Worker threads (both arms).
    pub workers: usize,
    /// Admission queue bound. Blocking arm: capacity of the
    /// acceptor→worker connection queue — when full, the acceptor answers
    /// a `Retry-After` shed fault instead of blocking (`None` keeps the
    /// legacy backpressure of a blocking send into a `workers * 4` deep
    /// channel). Reactor arm: per-worker dispatch budget per epoll cycle —
    /// requests parsed beyond it in one readiness batch are shed.
    pub queue_cap: Option<usize>,
    /// Reactor arm: per-worker cap on concurrently open connections. At
    /// the cap the worker deregisters the listener from its epoll set
    /// (stops `EPOLLIN`) and resumes accepting when a connection closes,
    /// so a connection flood parks in the kernel backlog instead of
    /// growing the slab without bound.
    pub max_connections: usize,
    /// Retry hint stamped on queue-full shed faults, in milliseconds.
    pub shed_retry_after_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            arm: ServerArm::Blocking,
            workers: 2,
            queue_cap: None,
            max_connections: 4096,
            shed_retry_after_ms: 50,
        }
    }
}

impl ServerConfig {
    /// Config with `workers` threads and every other default.
    pub fn with_workers(workers: usize) -> ServerConfig {
        ServerConfig {
            workers,
            ..ServerConfig::default()
        }
    }
}

/// A request handler. Handlers are shared across worker threads, so they
/// must provide their own interior synchronization.
pub trait Handler: Send + Sync {
    /// Produce a response for `req`.
    fn handle(&self, req: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

/// Longest-prefix path router.
#[derive(Default)]
pub struct Router {
    routes: RwLock<Vec<(String, Arc<dyn Handler>)>>,
}

impl Router {
    /// New empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mount `handler` at `prefix`. Later mounts with the same prefix win.
    pub fn mount(&self, prefix: impl Into<String>, handler: Arc<dyn Handler>) {
        let mut routes = self.routes.write();
        let prefix = prefix.into();
        routes.retain(|(p, _)| *p != prefix);
        routes.push((prefix, handler));
        // Longest prefix first so matching can stop at the first hit.
        routes.sort_by_key(|(p, _)| std::cmp::Reverse(p.len()));
    }

    /// Resolve a path to its handler.
    pub fn resolve(&self, path: &str) -> Option<Arc<dyn Handler>> {
        let routes = self.routes.read();
        routes
            .iter()
            .find(|(prefix, _)| path.starts_with(prefix.as_str()))
            .map(|(_, h)| Arc::clone(h))
    }

    /// Mounted prefixes, longest first.
    pub fn prefixes(&self) -> Vec<String> {
        self.routes.read().iter().map(|(p, _)| p.clone()).collect()
    }
}

impl Handler for Router {
    fn handle(&self, req: &Request) -> Response {
        match self.resolve(req.path_only()) {
            Some(h) => h.handle(req),
            None => Response::error(Status::NotFound, format!("no route for {}", req.path)),
        }
    }
}

/// A running server; dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    pub(crate) shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    pub(crate) workers: Vec<JoinHandle<()>>,
    stats: Arc<WireStats>,
}

impl ServerHandle {
    /// The bound address (use for clients).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server-side wire statistics.
    pub fn stats(&self) -> &Arc<WireStats> {
        &self.stats
    }

    /// Names of the server's worker threads.
    #[cfg(test)]
    pub(crate) fn worker_names(&self) -> Vec<String> {
        self.workers
            .iter()
            .filter_map(|w| w.thread().name().map(str::to_owned))
            .collect()
    }

    /// Request shutdown and join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor (blocking arm) or every worker's epoll
        // (reactor) with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The server: binds a listener and serves a [`Handler`] with a fixed
/// worker pool.
pub struct HttpServer;

impl HttpServer {
    /// Start serving `handler` on `addr` (`"127.0.0.1:0"` for an
    /// ephemeral port; tests pass a known address to restart a server a
    /// client already knows) on the arm and admission bounds of `config`.
    /// When `chaos` is given it is consulted per dispatched request after
    /// the handler runs and may drop, delay, or truncate the response
    /// (the fault classes of [`crate::chaos`]).
    pub fn start(
        addr: impl ToSocketAddrs,
        handler: Arc<dyn Handler>,
        config: ServerConfig,
        chaos: Option<Arc<dyn ServerChaos>>,
    ) -> Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let stats = Arc::new(WireStats::new());
        // A failed start drops `server`, which stops what already runs.
        let mut server = ServerHandle {
            addr: listener.local_addr()?,
            shutdown: Arc::new(AtomicBool::new(false)),
            acceptor: None,
            workers: Vec::new(),
            stats: Arc::clone(&stats),
        };
        let path = RequestPath {
            handler,
            stats,
            chaos,
        };
        match config.arm {
            ServerArm::Blocking => start_blocking(&mut server, listener, path, config),
            ServerArm::Reactor => crate::reactor::start(&mut server, listener, path, config)?,
        }
        Ok(server)
    }
}

/// The request path both arms share: the handler, the server's counters
/// and its chaos hook.
#[derive(Clone)]
pub(crate) struct RequestPath {
    handler: Arc<dyn Handler>,
    pub(crate) stats: Arc<WireStats>,
    chaos: Option<Arc<dyn ServerChaos>>,
}

/// What [`RequestPath::serve_next`] left in the caller's scratch, and what
/// the loop must do with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Answer {
    /// Close once the frame is written: the client asked to, the request
    /// could not parse, or chaos dropped or cut the frame.
    pub(crate) close: bool,
    /// Chaos `Delay`: hold the frame this long before writing it. The
    /// blocking arm sleeps; the reactor parks the connection.
    pub(crate) delay: Option<Duration>,
    /// The handler ran (sheds and `400`s are not dispatches).
    pub(crate) dispatched: bool,
}

impl RequestPath {
    /// Serve the next request buffered in `parser`, appending its response
    /// frame to `out`; `None` while the buffered bytes are only a prefix
    /// of a request. `arrival` is the instant the deadline budget is
    /// charged from. `gate` is the arm's own admission point, asked before
    /// the deadline budget: a fault it returns is answered instead of
    /// dispatching.
    ///
    /// A shed is not a dispatch: it skips the exchange counters and the
    /// chaos hook (a shed reply is a promise the work did NOT run, so it
    /// must never be torn into the ambiguity chaos models), and it keeps a
    /// keep-alive connection open. The chaos hook runs after the handler:
    /// `Drop` and `Truncate` cut the frame in place — "the operation
    /// executed but the reply never (fully) arrived", the ambiguity
    /// clients must survive — and `Delay` goes back to the loop.
    pub(crate) fn serve_next(
        &self,
        parser: &mut RequestParser,
        arrival: Instant,
        out: &mut Vec<u8>,
        gate: impl FnOnce() -> Option<Response>,
    ) -> Option<Answer> {
        let mut req = match parser.try_next() {
            Ok(Some(req)) => req,
            Ok(None) => return None,
            Err(e) => return Some(self.bad_request(out, &e.to_string())),
        };
        let frame_start = out.len();
        let shed = gate().or_else(|| admit_deadline(&mut req, arrival, &self.stats));
        let dispatched = shed.is_none();
        let resp = shed.unwrap_or_else(|| self.handler.handle(&req));
        self.write_frame(&resp, out);
        let mut answer = Answer {
            close: !wants_keep_alive(req.header("Connection")),
            delay: None,
            dispatched,
        };
        if !dispatched {
            return Some(answer);
        }
        self.stats
            .record_exchange(out.len() - frame_start, req.wire_len());
        let fault = self
            .chaos
            .as_deref()
            .map_or(ServerFault::Deliver, |c| c.decide(&req));
        let cut = match fault {
            ServerFault::Deliver => return Some(answer),
            ServerFault::Delay(d) => {
                self.stats.record_chaos(ChaosClass::Delay);
                answer.delay = Some(d);
                return Some(answer);
            }
            ServerFault::Drop => {
                self.stats.record_chaos(ChaosClass::Drop);
                0
            }
            ServerFault::Truncate(unit) => {
                self.stats.record_chaos(ChaosClass::Truncation);
                cut_inside(out.len() - frame_start, unit)
            }
        };
        out.truncate(frame_start + cut);
        answer.close = true;
        Some(answer)
    }

    /// Answer a `400` SOAP fault for bytes that can never become a request
    /// (so the client learns something instead of hanging until its own
    /// deadline), and close.
    pub(crate) fn bad_request(&self, out: &mut Vec<u8>, detail: &str) -> Answer {
        self.stats.record_bad_request();
        self.write_frame(&Response::bad_request_fault(detail), out);
        Answer {
            close: true,
            delay: None,
            dispatched: false,
        }
    }

    /// Serialize onto the caller's scratch, counting its growths and its
    /// capacity high-water mark.
    fn write_frame(&self, resp: &Response, out: &mut Vec<u8>) {
        let cap_before = out.capacity();
        resp.write_into(out);
        if out.capacity() > cap_before {
            self.stats.record_scratch_growth();
        }
        self.stats.record_scratch_high_water(out.capacity() as u64);
    }
}

/// Server-side deadline admission. Reads the client-stamped
/// `X-Deadline-Ms` budget (a duration in milliseconds, stamped at send
/// time by `pool::PooledTransport`); when the budget is already spent by
/// `arrival`-relative elapsed time the request is shed *before* the
/// handler runs, with a deadline-exceeded SOAP fault. Otherwise the header
/// is rewritten to the remaining budget so handlers and their downstream
/// calls inherit an honest end-to-end deadline. Requests without the
/// header (or with a malformed value) are admitted untouched — the
/// contract is opt-in and never invents a deadline.
fn admit_deadline(req: &mut Request, arrival: Instant, stats: &WireStats) -> Option<Response> {
    let val = req.header(DEADLINE_HEADER)?;
    let Ok(budget_ms) = val.trim().parse::<u64>() else {
        return None;
    };
    let elapsed_ms = arrival.elapsed().as_millis() as u64;
    if elapsed_ms >= budget_ms {
        stats.record_shed_deadline();
        return Some(Response::deadline_fault(&format!(
            "budget of {budget_ms} ms spent before dispatch ({elapsed_ms} ms since arrival)"
        )));
    }
    let remaining = budget_ms - elapsed_ms;
    for (k, v) in req.headers.iter_mut() {
        if k.eq_ignore_ascii_case(DEADLINE_HEADER) {
            *v = remaining.to_string();
        }
    }
    None
}

/// Read staging chunk: bytes move socket → chunk → connection parser.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// How long a blocking read waits before it checks the shutdown flag.
const POLL: Duration = Duration::from_millis(100);

/// An accepted connection's place in the open-connection gauge: counted
/// open when it is accepted, closed when this is dropped, which is when
/// the connection is shed, served to its end, or left queued at shutdown.
struct OpenConn(Arc<WireStats>);

impl OpenConn {
    fn open(stats: &Arc<WireStats>) -> OpenConn {
        stats.record_conn_open();
        OpenConn(Arc::clone(stats))
    }
}

impl Drop for OpenConn {
    fn drop(&mut self) {
        self.0.record_conn_close();
    }
}

/// Blocking arm: an acceptor thread feeds a bounded queue that a fixed
/// pool of workers drains. With the legacy `queue_cap: None` the queue
/// applies back-pressure to the acceptor; with an explicit cap the
/// acceptor sheds instead of blocking. Each item carries the accept
/// instant so the deadline budget charges queue wait, and its place in
/// the open-connection gauge.
fn start_blocking(
    server: &mut ServerHandle,
    listener: TcpListener,
    path: RequestPath,
    config: ServerConfig,
) {
    let workers = config.workers.max(1);
    let cap = config.queue_cap.unwrap_or(workers * 4);
    let (tx, rx) = bounded::<(TcpStream, Instant, OpenConn)>(cap);

    let shutdown = Arc::clone(&server.shutdown);
    let stats = Arc::clone(&path.stats);
    server.acceptor = Some(std::thread::spawn(move || {
        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            stats.record_connection();
            let item = (stream, Instant::now(), OpenConn::open(&stats));
            if config.queue_cap.is_none() {
                // Legacy arm: block until a worker frees a slot.
                if tx.send(item).is_err() {
                    break;
                }
            } else {
                match tx.try_send(item) {
                    Ok(()) => {}
                    Err(TrySendError::Full((stream, _, _open))) => {
                        // Admission control: answer a well-formed shed
                        // fault with a retry hint instead of letting the
                        // queue (and client latency) grow without bound.
                        stats.record_shed_queue_full();
                        let fault = Response::shed_fault(
                            &format!("accept queue at capacity ({cap})"),
                            config.shed_retry_after_ms,
                        )
                        .with_header("Connection", "close");
                        let _ = fault.write_to(&stream);
                        continue;
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            stats.record_queue_depth(tx.len() as u64);
        }
    }));

    for _ in 0..workers {
        let rx = rx.clone();
        let path = path.clone();
        let shutdown = Arc::clone(&server.shutdown);
        server.workers.push(std::thread::spawn(move || {
            let mut scratch = WorkerScratch::default();
            while let Ok((stream, accepted, _open)) = rx.recv() {
                serve_connection(&path, stream, accepted, &shutdown, &mut scratch);
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }));
    }
}

/// Per-worker reusable buffers. Workers are fixed threads, so the scratch
/// warms up once and every later request on the worker reads and
/// serializes into already-sized memory; [`WireStats`] records serialize
/// growths and the capacity high-water mark so experiments can verify the
/// steady state.
struct WorkerScratch {
    /// Request read scratch, kept across connections that end clean.
    parser: RequestParser,
    /// Staging chunk between the socket and the parser.
    chunk: Vec<u8>,
    /// Response serialize buffer, cleared (capacity kept) per request.
    out: Vec<u8>,
}

impl Default for WorkerScratch {
    fn default() -> Self {
        WorkerScratch {
            parser: RequestParser::new(),
            chunk: vec![0; READ_CHUNK],
            out: Vec::new(),
        }
    }
}

/// Serve one connection on a blocking worker: a single HTTP/1.0 exchange
/// by default, or a sequence of exchanges when the client sends
/// `Connection: keep-alive`. Every read times out after [`POLL`] to check
/// the shutdown flag, so neither an idle keep-alive peer nor a client that
/// stalls before or inside a request can keep the server from joining its
/// workers.
fn serve_connection(
    path: &RequestPath,
    mut stream: TcpStream,
    accepted: Instant,
    shutdown: &AtomicBool,
    scratch: &mut WorkerScratch,
) {
    let WorkerScratch { parser, chunk, out } = scratch;
    // Deadline anchor: the first request is charged from the accept
    // instant (queue wait counts against the client's budget). Later ones
    // are charged from the end of the previous response, re-anchored when
    // their first byte arrives, so idle keep-alive time is not billed.
    let mut arrival = accepted;
    let mut served = false;
    if stream.set_read_timeout(Some(POLL)).is_ok() {
        loop {
            out.clear();
            if let Some(answer) = path.serve_next(parser, arrival, out, || None) {
                if let Some(delay) = answer.delay {
                    std::thread::sleep(delay);
                }
                if stream.write_all(out).is_err() || answer.close {
                    break;
                }
                served = true;
                arrival = Instant::now();
                continue;
            }
            match stream.read(chunk) {
                Ok(0) => {
                    // A clean EOF before any request byte (the shutdown
                    // poke, a keep-alive hangup) closes quietly; a
                    // half-sent request is malformed.
                    if !parser.is_empty() {
                        path.bad_request(out, "connection closed mid-request");
                        let _ = stream.write_all(out);
                    }
                    break;
                }
                Ok(n) => {
                    if served && parser.is_empty() {
                        arrival = Instant::now();
                    }
                    parser.feed(chunk.get(..n).unwrap_or_default());
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
    }
    if !parser.is_empty() {
        // Leftover bytes belong to this connection alone.
        *parser = RequestParser::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    const ARMS: [ServerArm; 2] = [ServerArm::Blocking, ServerArm::Reactor];

    fn echo_handler() -> Arc<dyn Handler> {
        Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone()))
    }

    /// `handler` on `arm` with `workers` workers, on an ephemeral port.
    fn start(arm: ServerArm, workers: usize, handler: Arc<dyn Handler>) -> ServerHandle {
        let config = ServerConfig {
            arm,
            ..ServerConfig::with_workers(workers)
        };
        HttpServer::start("127.0.0.1:0", handler, config, None).unwrap()
    }

    #[test]
    fn serves_and_shuts_down_on_both_arms() {
        for arm in ARMS {
            let server = start(arm, 2, echo_handler());
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            conn.write_all(&Request::post("/x", "hello").to_bytes())
                .unwrap();
            let resp = Response::read_from(&conn).unwrap();
            assert_eq!(resp.body_str(), "hello", "{arm:?}");
            assert_eq!(server.stats().snapshot().requests, 1, "{arm:?}");
            server.shutdown();
        }
    }

    #[test]
    fn shutdown_returns_behind_a_stalled_client_on_both_arms() {
        // Pinned regression: the blocking arm read a connection's first
        // request with no timeout, so a client that connected and went
        // silent, or stalled inside a request head or body, held
        // `shutdown()` for as long as it held the socket. Shutdown runs on
        // its own thread so that a regression fails here, not hangs.
        let stalls: [&[u8]; 3] = [
            b"",
            b"POST /x HTTP/1.0\r\n",
            b"POST /x HTTP/1.0\r\nContent-Length: 10\r\n\r\nab",
        ];
        for arm in ARMS {
            for stall in stalls {
                let server = start(arm, 1, echo_handler());
                let mut conn = TcpStream::connect(server.addr()).unwrap();
                conn.write_all(stall).unwrap();
                // Let the worker take the connection and wait on it.
                std::thread::sleep(Duration::from_millis(50));
                let (done, joined) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    server.shutdown();
                    let _ = done.send(());
                });
                assert!(
                    joined.recv_timeout(Duration::from_secs(3)).is_ok(),
                    "{arm:?}: shutdown blocked for 3 s behind a client stalled after {:?}",
                    String::from_utf8_lossy(stall)
                );
                drop(conn);
            }
        }
    }

    #[test]
    fn router_longest_prefix_wins() {
        let router = Router::new();
        router.mount("/soap", Arc::new(|_: &Request| Response::html("general")));
        router.mount(
            "/soap/jobsub",
            Arc::new(|_: &Request| Response::html("specific")),
        );
        let resp = router.handle(&Request::get("/soap/jobsub/run"));
        assert_eq!(resp.body_str(), "specific");
        let resp = router.handle(&Request::get("/soap/other"));
        assert_eq!(resp.body_str(), "general");
    }

    #[test]
    fn router_miss_is_404() {
        let router = Router::new();
        let resp = router.handle(&Request::get("/nope"));
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn router_remount_replaces() {
        let router = Router::new();
        router.mount("/a", Arc::new(|_: &Request| Response::html("one")));
        router.mount("/a", Arc::new(|_: &Request| Response::html("two")));
        assert_eq!(router.handle(&Request::get("/a")).body_str(), "two");
        assert_eq!(router.prefixes().len(), 1);
    }

    #[test]
    fn concurrent_clients() {
        let server = start(ServerArm::Blocking, 4, echo_handler());
        let addr = server.addr();
        std::thread::scope(|scope| {
            for i in 0..16 {
                scope.spawn(move || {
                    let body = format!("msg-{i}");
                    let mut conn = TcpStream::connect(addr).unwrap();
                    conn.write_all(&Request::post("/x", body.clone()).to_bytes())
                        .unwrap();
                    let resp = Response::read_from(&conn).unwrap();
                    assert_eq!(resp.body_str(), body);
                });
            }
        });
        assert_eq!(server.stats().snapshot().requests, 16);
    }

    #[test]
    fn keep_alive_scratch_grows_exactly_once_on_both_arms() {
        // One worker, one keep-alive connection, N identical-size
        // exchanges: the serialize scratch (the worker's on the blocking
        // arm, the connection's on the reactor) must grow on the first
        // response and then be reused untouched for every later one.
        for arm in ARMS {
            let server = start(arm, 1, echo_handler());
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let n = 16;
            for _ in 0..n {
                let req = Request::post("/x", "fixed-size-payload")
                    .with_header("Connection", "keep-alive");
                conn.write_all(&req.to_bytes()).unwrap();
                let resp = Response::read_from_buffered(&mut reader).unwrap();
                assert_eq!(resp.body_str(), "fixed-size-payload", "{arm:?}");
            }
            let snap = server.stats().snapshot();
            assert_eq!(snap.requests, n, "{arm:?}");
            assert_eq!(snap.connections, 1, "{arm:?}");
            assert_eq!(snap.scratch_growths, 1, "{arm:?} snapshot: {snap:?}");
            // The high-water mark covers at least one serialized response.
            let resp_len = Response::ok("text/plain", "fixed-size-payload").wire_len() as u64;
            assert!(
                snap.scratch_high_water >= resp_len,
                "{arm:?} snapshot: {snap:?}"
            );
            server.shutdown();
        }
    }

    #[test]
    fn pipelined_keep_alive_requests_both_served_on_both_arms() {
        // Two requests written back-to-back before any response is read:
        // the second lands in the parser behind the first and must be
        // served from there, without waiting on the socket.
        for arm in ARMS {
            let server = start(arm, 1, echo_handler());
            let conn = TcpStream::connect(server.addr()).unwrap();
            let mut burst = Vec::new();
            Request::post("/x", "first")
                .with_header("Connection", "keep-alive")
                .write_into(&mut burst);
            Request::post("/x", "second")
                .with_header("Connection", "keep-alive")
                .write_into(&mut burst);
            (&conn).write_all(&burst).unwrap();
            let mut reader = BufReader::new(&conn);
            let r1 = Response::read_from_buffered(&mut reader).unwrap();
            let r2 = Response::read_from_buffered(&mut reader).unwrap();
            assert_eq!(r1.body_str(), "first", "{arm:?}");
            assert_eq!(r2.body_str(), "second", "{arm:?}");
            assert_eq!(server.stats().snapshot().requests, 2, "{arm:?}");
            server.shutdown();
        }
    }

    #[test]
    fn chaotic_server_drops_and_truncates_but_always_executes_on_both_arms() {
        use crate::chaos::{SeededServerChaos, ServerChaosConfig};
        // Heavy mix so a small sample exercises every class.
        let cfg = ServerChaosConfig {
            drop: 0.3,
            delay: 0.1,
            truncate: 0.3,
            max_delay_ms: 2,
        };
        for arm in ARMS {
            let chaos = Arc::new(SeededServerChaos::new(0x5EED, cfg));
            let config = ServerConfig {
                arm,
                ..ServerConfig::with_workers(2)
            };
            let server =
                HttpServer::start("127.0.0.1:0", echo_handler(), config, Some(chaos)).unwrap();
            let addr = server.addr();
            let n = 40;
            let mut failures = 0u64;
            for i in 0..n {
                let mut conn = TcpStream::connect(addr).unwrap();
                let body = format!("m{i}");
                conn.write_all(&Request::post("/x", body.clone()).to_bytes())
                    .unwrap();
                match Response::read_from(&conn) {
                    Ok(resp) => assert_eq!(resp.body_str(), body, "{arm:?}"),
                    Err(_) => failures += 1,
                }
            }
            let snap = server.stats().snapshot();
            assert_eq!(
                snap.requests, n,
                "{arm:?}: handler runs even when the reply is dropped: {snap:?}"
            );
            assert!(
                failures > 0,
                "{arm:?}: mix should break some replies: {snap:?}"
            );
            assert_eq!(
                snap.chaos_drops + snap.chaos_truncations,
                failures,
                "{arm:?}: every client-visible failure is an injected one: {snap:?}"
            );
            server.shutdown();
        }
    }

    #[test]
    fn chaos_verdicts_cut_the_scratch_in_place() {
        // The shared path applies the hook's verdict to the frame it just
        // wrote and leaves an earlier frame in the scratch alone: Drop
        // removes the frame, Truncate keeps a prefix strictly inside it,
        // Delay hands the hold back to the loop, and a shed is never cut.
        use crate::chaos::ServerChaos;
        struct ByPath;
        impl ServerChaos for ByPath {
            fn decide(&self, req: &Request) -> ServerFault {
                match req.path.as_str() {
                    "/deliver" => ServerFault::Deliver,
                    "/drop" => ServerFault::Drop,
                    "/delay" => ServerFault::Delay(Duration::from_millis(7)),
                    _ => ServerFault::Truncate(0.5),
                }
            }
        }
        let path = RequestPath {
            handler: echo_handler(),
            stats: Arc::new(WireStats::new()),
            chaos: Some(Arc::new(ByPath)),
        };
        let serve = |target: &str, out: &mut Vec<u8>, gate: Option<Response>| {
            let mut parser = RequestParser::new();
            parser.feed(
                &Request::post(target, "body")
                    .with_header("Connection", "keep-alive")
                    .to_bytes(),
            );
            path.serve_next(&mut parser, Instant::now(), out, || gate)
                .unwrap()
        };
        let frame = Response::ok("text/plain", "body").to_bytes();
        let held = b"held".len();
        let mut out = b"held".to_vec();
        let deliver = serve("/deliver", &mut out, None);
        assert_eq!(
            deliver,
            Answer {
                close: false,
                delay: None,
                dispatched: true
            }
        );
        assert_eq!(out, [&b"held"[..], &frame].concat());
        out.truncate(held);
        let delay = serve("/delay", &mut out, None);
        assert_eq!(
            (delay.close, delay.delay),
            (false, Some(Duration::from_millis(7)))
        );
        assert_eq!(
            out.len(),
            held + frame.len(),
            "a delayed frame is held whole"
        );
        out.truncate(held);
        assert!(serve("/drop", &mut out, None).close);
        assert_eq!(out, b"held", "drop removes its own frame only");
        assert!(serve("/truncate", &mut out, None).close);
        assert!(
            out.len() > held && out.len() < held + frame.len(),
            "partial write"
        );
        assert!(Response::read_from(&out[held..]).is_err());
        out.truncate(held);
        let shed = serve("/truncate", &mut out, Some(Response::shed_fault("busy", 5)));
        assert!(!shed.dispatched && !shed.close, "{shed:?}");
        let shed_frame = Response::read_from(&out[held..]).unwrap();
        assert_eq!(shed_frame.status, Status::ServiceUnavailable);
        let snap = path.stats.snapshot();
        assert_eq!(
            (snap.chaos_drops, snap.chaos_delays, snap.chaos_truncations),
            (1, 1, 1)
        );
        assert_eq!(snap.requests, 4, "a shed is not a dispatch: {snap:?}");
    }

    #[test]
    fn malformed_request_gets_400_soap_fault_on_both_arms() {
        // Pinned regression: garbage used to be closed on silently,
        // leaving the client to hang until its own deadline.
        for arm in ARMS {
            for garbage in [
                &b"NONSENSE\r\nthis is not a header\r\n\r\n"[..],
                b"GARBAGE WITHOUT MEANING\r\nbadheader\r\n\r\n",
            ] {
                let server = start(arm, 1, echo_handler());
                let mut conn = TcpStream::connect(server.addr()).unwrap();
                conn.write_all(garbage).unwrap();
                let resp = Response::read_from(&conn).unwrap();
                assert_eq!(resp.status, Status::BadRequest, "{arm:?}");
                assert!(resp.body_str().contains("SOAP-ENV:Fault"), "{arm:?}");
                assert_eq!(resp.header("Connection"), Some("close"), "{arm:?}");
                assert_eq!(server.stats().snapshot().bad_requests, 1, "{arm:?}");
                server.shutdown();
            }
        }
    }

    #[test]
    fn unterminated_over_cap_head_gets_400_on_both_arms() {
        // A peer that never ends a header line. Both arms refuse it once
        // the head passes the cap; the read timeout fails the test rather
        // than hanging it on an arm that keeps reading.
        let mut probe = b"POST /x HTTP/1.0\r\nX-Big: ".to_vec();
        probe.resize(probe.len() + crate::http::MAX_HEAD_BYTES + 1024, b'a');
        for arm in ARMS {
            let server = start(arm, 1, echo_handler());
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
            conn.write_all(&probe).unwrap();
            let resp = Response::read_from(&conn)
                .unwrap_or_else(|e| panic!("{arm:?}: no reply within 3 s: {e}"));
            assert_eq!(resp.status, Status::BadRequest, "{arm:?}");
            assert_eq!(server.stats().snapshot().bad_requests, 1, "{arm:?}");
            server.shutdown();
        }
    }

    #[test]
    fn clean_eof_before_any_byte_closes_quietly_on_both_arms() {
        // Pinned regression companion: the shutdown poke's shape — connect
        // then hang up without a byte — is not a malformed request.
        for arm in ARMS {
            let server = start(arm, 1, echo_handler());
            {
                let _conn = TcpStream::connect(server.addr()).unwrap();
            }
            // Let the worker observe the close before sampling the counters.
            std::thread::sleep(Duration::from_millis(100));
            let snap = server.stats().snapshot();
            assert_eq!(snap.bad_requests, 0, "{arm:?} {snap:?}");
            assert_eq!(snap.requests, 0, "{arm:?} {snap:?}");
            server.shutdown();
        }
    }

    #[test]
    fn connection_header_token_list_respected_on_both_arms() {
        // Pinned regression: `Connection: keep-alive, TE` is a legal token
        // list and must keep the connection alive; `close` anywhere in the
        // list must close it.
        for arm in ARMS {
            let server = start(arm, 1, echo_handler());
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            for _ in 0..2 {
                conn.write_all(
                    &Request::post("/x", "hi")
                        .with_header("Connection", "keep-alive, TE")
                        .to_bytes(),
                )
                .unwrap();
                let resp = Response::read_from_buffered(&mut reader).unwrap();
                assert_eq!(resp.body_str(), "hi", "{arm:?}");
            }
            assert_eq!(server.stats().snapshot().connections, 1, "{arm:?}");
            // Release the single blocking worker before dialing again.
            drop(reader);
            drop(conn);

            let mut conn = TcpStream::connect(server.addr()).unwrap();
            conn.write_all(
                &Request::post("/x", "bye")
                    .with_header("Connection", "keep-alive, close")
                    .to_bytes(),
            )
            .unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            assert_eq!(
                Response::read_from_buffered(&mut reader)
                    .unwrap()
                    .body_str(),
                "bye",
                "{arm:?}"
            );
            let mut probe = [0u8; 1];
            assert_eq!(
                reader.read(&mut probe).unwrap(),
                0,
                "{arm:?}: server must close"
            );
            server.shutdown();
        }
    }

    #[test]
    fn expired_deadline_is_shed_before_handler_on_both_arms() {
        // Pinned regression: clients have stamped `X-Deadline-Ms` since the
        // pool landed, but the server ignored it — a request whose budget
        // was already spent still burned a handler dispatch. Now it must be
        // shed pre-dispatch with a deadline fault and zero handler runs.
        use std::sync::atomic::AtomicUsize;
        for arm in ARMS {
            let calls = Arc::new(AtomicUsize::new(0));
            let handler: Arc<dyn Handler> = {
                let calls = Arc::clone(&calls);
                Arc::new(move |req: &Request| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    // Echo the (rewritten) budget so the propagation half
                    // of the contract is observable from the client side.
                    let budget = req.header(DEADLINE_HEADER).unwrap_or("none").to_string();
                    Response::ok("text/plain", budget)
                })
            };
            let server = start(arm, 1, handler);

            // Budget already spent: shed before dispatch.
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            conn.write_all(
                &Request::post("/x", "late")
                    .with_header(DEADLINE_HEADER, "0")
                    .to_bytes(),
            )
            .unwrap();
            let resp = Response::read_from(&conn).unwrap();
            assert_eq!(resp.status, Status::ServiceUnavailable, "{arm:?}");
            assert!(
                resp.body_str().contains("DEADLINE_EXCEEDED"),
                "{arm:?} {resp:?}"
            );
            assert_eq!(
                calls.load(Ordering::SeqCst),
                0,
                "{arm:?}: handler must not run"
            );
            drop(conn);

            // A live budget is admitted, rewritten to the remaining budget.
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            conn.write_all(
                &Request::post("/x", "on-time")
                    .with_header(DEADLINE_HEADER, "10000")
                    .to_bytes(),
            )
            .unwrap();
            let resp = Response::read_from(&conn).unwrap();
            assert_eq!(resp.status, Status::Ok, "{arm:?}");
            let remaining: u64 = resp.body_str().parse().unwrap();
            assert!(remaining > 0 && remaining <= 10_000, "{arm:?} {remaining}");
            assert_eq!(calls.load(Ordering::SeqCst), 1, "{arm:?}");

            let snap = server.stats().snapshot();
            assert_eq!(snap.shed_deadline, 1, "{arm:?} {snap:?}");
            assert_eq!(
                snap.requests, 1,
                "{arm:?}: sheds are not dispatches: {snap:?}"
            );
            server.shutdown();
        }
    }

    #[test]
    fn burst_beyond_queue_cap_sheds_with_retry_hint() {
        // Pinned: with an explicit queue cap, a burst past it must produce
        // well-formed `Retry-After` shed faults — never silent drops, never
        // an unboundedly growing queue — while every admitted request
        // completes correctly.
        use crate::http::{RETRY_AFTER_HEADER, RETRY_AFTER_MS_HEADER};
        let slow: Arc<dyn Handler> = Arc::new(|req: &Request| {
            std::thread::sleep(Duration::from_millis(80));
            Response::ok("text/plain", req.body.clone())
        });
        let config = ServerConfig {
            workers: 1,
            queue_cap: Some(1),
            shed_retry_after_ms: 25,
            ..ServerConfig::default()
        };
        let server = HttpServer::start("127.0.0.1:0", slow, config, None).unwrap();
        let addr = server.addr();

        let n = 8;
        let results: Vec<(Status, Option<String>, Option<String>, String)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .map(|i| {
                        scope.spawn(move || {
                            let mut conn = TcpStream::connect(addr).unwrap();
                            let body = format!("m{i}");
                            conn.write_all(&Request::post("/x", body).to_bytes())
                                .unwrap();
                            let resp = Response::read_from(&conn).unwrap();
                            (
                                resp.status,
                                resp.header(RETRY_AFTER_HEADER).map(str::to_string),
                                resp.header(RETRY_AFTER_MS_HEADER).map(str::to_string),
                                resp.body_str().to_string(),
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

        let admitted = results.iter().filter(|r| r.0 == Status::Ok).count();
        let shed = results.iter().filter(|r| r.0 == Status::ServiceUnavailable);
        let mut shed_count = 0;
        for (_, retry_after, retry_after_ms, body) in shed {
            shed_count += 1;
            assert_eq!(retry_after.as_deref(), Some("1"), "ceil(25ms) = 1s");
            assert_eq!(retry_after_ms.as_deref(), Some("25"));
            assert!(body.contains("<code>BUSY</code>"), "{body}");
        }
        assert_eq!(admitted + shed_count, n, "no silent drops: {results:?}");
        assert!(
            shed_count > 0,
            "burst of {n} must overrun cap 1: {results:?}"
        );
        for (status, _, _, body) in &results {
            if *status == Status::Ok {
                assert!(body.starts_with('m'), "admitted echo intact: {body}");
            }
        }
        let snap = server.stats().snapshot();
        assert_eq!(snap.shed_queue_full, shed_count as u64, "{snap:?}");
        assert_eq!(snap.requests, admitted as u64, "{snap:?}");
        assert!(snap.queue_depth_high_water <= 1, "{snap:?}");
        server.shutdown();
    }

    /// Replies on `conn`, up to `burst` of them, stopping at the first
    /// that does not parse.
    fn read_replies(conn: &TcpStream, burst: usize) -> Vec<crate::Result<Response>> {
        let mut reader = BufReader::new(conn);
        let mut replies = Vec::new();
        while replies.len() < burst {
            let reply = Response::read_from_buffered(&mut reader);
            let failed = reply.is_err();
            replies.push(reply);
            if failed {
                break;
            }
        }
        replies
    }

    #[test]
    fn sheds_are_never_torn_by_server_chaos() {
        // Pinned: a shed is a promise the work did NOT run, so the chaos
        // hook must never apply to it. Under a hook that truncates every
        // delivered response, admitted replies arrive torn — but every
        // 503 shed fault still arrives whole and parseable, hints intact.
        // The blocking arm sheds at its accept queue, so each connection
        // carries one request. The reactor sheds past its per-cycle
        // dispatch budget, so each connection carries a pipelined
        // keep-alive burst: in a cycle that finds several connections
        // readable, the first request dispatches (and is torn, closing
        // its connection) and every other request sheds.
        use crate::chaos::ServerChaos;
        use crate::http::{RETRY_AFTER_HEADER, RETRY_AFTER_MS_HEADER};
        struct AlwaysTruncate;
        impl ServerChaos for AlwaysTruncate {
            fn decide(&self, _req: &Request) -> ServerFault {
                ServerFault::Truncate(0.5)
            }
        }
        let slow: Arc<dyn Handler> = Arc::new(|req: &Request| {
            std::thread::sleep(Duration::from_millis(80));
            Response::ok("text/plain", req.body.clone())
        });
        for arm in ARMS {
            let config = ServerConfig {
                arm,
                workers: 1,
                queue_cap: Some(1),
                shed_retry_after_ms: 25,
                ..ServerConfig::default()
            };
            let chaos: Arc<dyn ServerChaos> = Arc::new(AlwaysTruncate);
            let server =
                HttpServer::start("127.0.0.1:0", Arc::clone(&slow), config, Some(chaos)).unwrap();
            let addr = server.addr();
            let replies: Vec<Vec<crate::Result<Response>>> = match arm {
                ServerArm::Blocking => std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..8)
                        .map(|i| {
                            scope.spawn(move || {
                                let conn = TcpStream::connect(addr).unwrap();
                                (&conn)
                                    .write_all(&Request::post("/x", format!("m{i}")).to_bytes())
                                    .unwrap();
                                read_replies(&conn, 1)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                }),
                ServerArm::Reactor => {
                    let conns: Vec<TcpStream> =
                        (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
                    // Let the worker register every connection, then land
                    // the bursts back to back: the first dispatch sleeps
                    // while the rest arrive.
                    std::thread::sleep(Duration::from_millis(50));
                    for (i, conn) in conns.iter().enumerate() {
                        let mut burst = Vec::new();
                        for j in 0..4 {
                            Request::post("/x", format!("m{i}-{j}"))
                                .with_header("Connection", "keep-alive")
                                .write_into(&mut burst);
                        }
                        (&*conn).write_all(&burst).unwrap();
                    }
                    conns.iter().map(|conn| read_replies(conn, 4)).collect()
                }
            };

            let (mut shed, mut torn) = (0u64, 0u64);
            for reply in replies.iter().flatten() {
                match reply {
                    Ok(resp) if resp.status == Status::ServiceUnavailable => {
                        shed += 1;
                        assert_eq!(resp.header(RETRY_AFTER_HEADER), Some("1"), "{arm:?}");
                        assert_eq!(resp.header(RETRY_AFTER_MS_HEADER), Some("25"), "{arm:?}");
                        let body = resp.body_str();
                        assert!(body.contains("<code>BUSY</code>"), "{arm:?} {body}");
                        assert!(
                            body.contains("</SOAP-ENV:Envelope>"),
                            "{arm:?} whole frame: {body}"
                        );
                    }
                    // An admitted-then-truncated reply, or a 200 whose cut
                    // happened to land after the body — either way, not a
                    // shed.
                    _ => torn += 1,
                }
            }
            assert!(shed > 0, "{arm:?}: a burst past cap 1 must shed");
            assert!(torn > 0, "{arm:?}: the hook tears every delivered response");
            // Every shed the server sent arrived whole, and every
            // dispatch was torn: none went missing or changed class.
            let snap = server.stats().snapshot();
            assert_eq!(snap.shed_queue_full, shed, "{arm:?} {snap:?}");
            assert_eq!(snap.chaos_truncations, torn, "{arm:?} {snap:?}");
            server.shutdown();
        }
    }

    #[test]
    fn query_routing_ignores_query_string() {
        let router = Router::new();
        router.mount("/wsdl", Arc::new(|_: &Request| Response::html("w")));
        assert_eq!(
            router.handle(&Request::get("/wsdl?svc=jobsub")).body_str(),
            "w"
        );
    }
}
