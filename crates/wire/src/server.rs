//! Thread-pooled HTTP server with a path router.
//!
//! Each portal service in the paper ran on its own server ("Each of these
//! runs on a separate web server", §2). [`HttpServer`] plays that role: one
//! instance per logical server (UI server, UDDI server, SOAP Service
//! Provider, Authentication Service), each with its own [`Router`] mapping
//! paths to [`Handler`]s.
//!
//! The design follows the classic fixed-worker-pool shape: an acceptor
//! thread pushes connections into a crossbeam channel; `worker` threads pop
//! and serve one request per connection (HTTP/1.0 semantics, as deployed in
//! 2002).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::RwLock;

use crate::chaos::{apply_server_fault, ServerChaos, ServerFault};
use crate::http::{wants_keep_alive, Request, Response, Status};
use crate::pool::DEADLINE_HEADER;
use crate::stats::WireStats;
use crate::Result;

/// Admission-control tuning shared by both server arms. The defaults
/// reproduce the historical behavior (blocking-send backpressure, a
/// generous connection cap) so existing constructors stay bit-compatible;
/// production deployments pass explicit bounds via
/// [`HttpServer::start_tuned`] / [`HttpServer::start_reactor_tuned`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
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
            workers: 2,
            queue_cap: None,
            max_connections: 4096,
            shed_retry_after_ms: 50,
        }
    }
}

impl ServerConfig {
    /// Config with `workers` threads and every admission default.
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
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<WireStats>,
}

impl ServerHandle {
    /// Assemble a handle from already-spawned threads (the reactor arm
    /// builds its own workers but shares the handle's shutdown protocol:
    /// flag + wake-up poke + join).
    pub(crate) fn from_parts(
        addr: SocketAddr,
        shutdown: Arc<AtomicBool>,
        acceptor: Option<JoinHandle<()>>,
        workers: Vec<JoinHandle<()>>,
        stats: Arc<WireStats>,
    ) -> ServerHandle {
        ServerHandle {
            addr,
            shutdown,
            acceptor,
            workers,
            stats,
        }
    }

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
        // Unblock the acceptor with a throwaway connection.
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
    /// Start serving `handler` on an ephemeral localhost port with
    /// `workers` worker threads.
    pub fn start(handler: Arc<dyn Handler>, workers: usize) -> Result<ServerHandle> {
        HttpServer::start_on("127.0.0.1:0", handler, workers)
    }

    /// Start serving `handler` on a specific address (tests use this to
    /// restart a server on a port a client already knows).
    pub fn start_on(
        addr: impl std::net::ToSocketAddrs,
        handler: Arc<dyn Handler>,
        workers: usize,
    ) -> Result<ServerHandle> {
        HttpServer::start_inner(addr, handler, ServerConfig::with_workers(workers), None)
    }

    /// Start the blocking arm with explicit admission bounds (queue cap,
    /// shed hint) instead of the legacy defaults.
    pub fn start_tuned(handler: Arc<dyn Handler>, config: ServerConfig) -> Result<ServerHandle> {
        HttpServer::start_inner("127.0.0.1:0", handler, config, None)
    }

    /// Blocking arm with admission bounds *and* the server-side chaos hook.
    pub fn start_tuned_chaotic(
        handler: Arc<dyn Handler>,
        config: ServerConfig,
        chaos: Arc<dyn ServerChaos>,
    ) -> Result<ServerHandle> {
        HttpServer::start_inner("127.0.0.1:0", handler, config, Some(chaos))
    }

    /// Start serving with a server-side chaos hook: `chaos` is consulted
    /// per request after the handler runs and may drop, delay, or truncate
    /// the response (the fault classes of `wire::chaos`).
    pub fn start_chaotic(
        handler: Arc<dyn Handler>,
        workers: usize,
        chaos: Arc<dyn ServerChaos>,
    ) -> Result<ServerHandle> {
        HttpServer::start_inner(
            "127.0.0.1:0",
            handler,
            ServerConfig::with_workers(workers),
            Some(chaos),
        )
    }

    /// Start the epoll reactor arm (see [`crate::reactor`]): the same
    /// handler contract, but each of the `workers` threads drives many
    /// nonblocking connections through an epoll loop instead of blocking
    /// on one connection at a time. The blocking [`HttpServer::start`]
    /// path stays available as the ablation arm.
    pub fn start_reactor(handler: Arc<dyn Handler>, workers: usize) -> Result<ServerHandle> {
        crate::reactor::start(
            "127.0.0.1:0",
            handler,
            ServerConfig::with_workers(workers),
            None,
        )
    }

    /// Reactor arm with explicit admission bounds (connection cap,
    /// per-cycle dispatch budget, shed hint).
    pub fn start_reactor_tuned(
        handler: Arc<dyn Handler>,
        config: ServerConfig,
    ) -> Result<ServerHandle> {
        crate::reactor::start("127.0.0.1:0", handler, config, None)
    }

    /// Reactor arm with admission bounds *and* the server-side chaos hook.
    pub fn start_reactor_tuned_chaotic(
        handler: Arc<dyn Handler>,
        config: ServerConfig,
        chaos: Arc<dyn ServerChaos>,
    ) -> Result<ServerHandle> {
        crate::reactor::start("127.0.0.1:0", handler, config, Some(chaos))
    }

    /// Reactor arm on a specific address (tests use this to restart a
    /// server on a port a client already knows).
    pub fn start_reactor_on(
        addr: impl std::net::ToSocketAddrs,
        handler: Arc<dyn Handler>,
        workers: usize,
    ) -> Result<ServerHandle> {
        crate::reactor::start(addr, handler, ServerConfig::with_workers(workers), None)
    }

    /// Reactor arm with the server-side chaos hook (drop/delay/truncate
    /// after the handler runs, as in [`HttpServer::start_chaotic`]).
    pub fn start_reactor_chaotic(
        handler: Arc<dyn Handler>,
        workers: usize,
        chaos: Arc<dyn ServerChaos>,
    ) -> Result<ServerHandle> {
        crate::reactor::start(
            "127.0.0.1:0",
            handler,
            ServerConfig::with_workers(workers),
            Some(chaos),
        )
    }

    fn start_inner(
        addr: impl std::net::ToSocketAddrs,
        handler: Arc<dyn Handler>,
        config: ServerConfig,
        chaos: Option<Arc<dyn ServerChaos>>,
    ) -> Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(WireStats::new());
        let workers = config.workers;
        // Bounded queue: with the legacy default (`queue_cap: None`) it
        // applies back-pressure to the acceptor; with an explicit cap the
        // acceptor sheds instead of blocking (below). Each item carries the
        // accept instant so the deadline budget charges queue wait.
        let cap = config.queue_cap.unwrap_or(workers.max(1) * 4);
        type QueueItem = (TcpStream, std::time::Instant);
        let (tx, rx): (Sender<QueueItem>, Receiver<QueueItem>) = bounded(cap);

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    stats.record_connection();
                    let item = (stream, std::time::Instant::now());
                    if config.queue_cap.is_none() {
                        // Legacy arm: block until a worker frees a slot.
                        if tx.send(item).is_err() {
                            break;
                        }
                    } else {
                        match tx.try_send(item) {
                            Ok(()) => {}
                            Err(TrySendError::Full((stream, _))) => {
                                // Admission control: answer a well-formed
                                // shed fault with a retry hint instead of
                                // letting the queue (and client latency)
                                // grow without bound.
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
            })
        };

        let worker_handles = (0..workers.max(1))
            .map(|_| {
                let rx = rx.clone();
                let handler = Arc::clone(&handler);
                let stats = Arc::clone(&stats);
                let shutdown = Arc::clone(&shutdown);
                let chaos = chaos.clone();
                std::thread::spawn(move || {
                    // Per-worker scratch: the response serialize buffer
                    // lives as long as the worker and is reused across
                    // every connection (and keep-alive request) it serves.
                    let mut scratch = WorkerScratch::default();
                    while let Ok((stream, accepted)) = rx.recv() {
                        serve_one(
                            &*handler,
                            stream,
                            accepted,
                            &stats,
                            &shutdown,
                            &mut scratch,
                            chaos.as_deref(),
                        );
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                })
            })
            .collect();

        Ok(ServerHandle {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            workers: worker_handles,
            stats,
        })
    }
}

/// Per-worker reusable buffers. Workers are fixed threads, so the scratch
/// warms up once and every later request on the worker serializes into
/// already-sized memory; [`WireStats`] records growths and the capacity
/// high-water mark so experiments can verify the steady state.
#[derive(Default)]
struct WorkerScratch {
    /// Response serialize buffer, cleared (capacity kept) per request.
    out: Vec<u8>,
}

/// Serve one connection: a single HTTP/1.0 exchange by default, or a
/// sequence of exchanges when the client sends `Connection: keep-alive`
/// (the ablation that shows what the 2002 per-call-connection regime
/// cost). Idle keep-alive waits poll the shutdown flag so the server can
/// always join its workers. One [`std::io::BufReader`] is created per
/// connection (not per request) and responses are serialized into the
/// worker's reusable scratch.
fn serve_one(
    handler: &dyn Handler,
    stream: TcpStream,
    accepted: std::time::Instant,
    stats: &WireStats,
    shutdown: &AtomicBool,
    scratch: &mut WorkerScratch,
    chaos: Option<&dyn ServerChaos>,
) {
    let Ok(mut out) = stream.try_clone() else {
        return;
    };
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = std::io::BufReader::new(read_half);
    let mut first = true;
    // Deadline anchor: the first request is charged from the accept
    // instant (queue wait counts against the client's budget); later
    // keep-alive requests are re-anchored after the idle wait so time the
    // client spent *not* sending is not billed to the next request.
    let mut arrival = accepted;
    loop {
        // Wait for the next request without consuming bytes, so a timeout
        // never corrupts a partially-read frame. Skip the wait when the
        // connection reader already buffered pipelined bytes: peeking the
        // socket would block even though a request is waiting in memory.
        if !first && reader.buffer().is_empty() {
            if stream
                .set_read_timeout(Some(std::time::Duration::from_millis(100)))
                .is_err()
            {
                return;
            }
            let mut probe = [0u8; 1];
            loop {
                match stream.peek(&mut probe) {
                    Ok(0) => return, // peer closed the keep-alive connection
                    Ok(_) => break,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            }
            if stream.set_read_timeout(None).is_err() {
                return;
            }
            arrival = std::time::Instant::now();
        }
        // Distinguish a clean EOF before any byte (the shutdown poke, or a
        // keep-alive peer hanging up between requests: close quietly) from
        // bytes that arrived but failed to parse (answer a 400 SOAP fault
        // so the client learns something instead of hanging until its own
        // deadline).
        {
            use std::io::BufRead;
            match reader.fill_buf() {
                Ok([]) => return, // clean EOF, no bytes
                Ok(_) => {}
                Err(_) => return,
            }
        }
        let mut req = match Request::read_from_buffered(&mut reader) {
            Ok(req) => req,
            Err(e) => {
                stats.record_bad_request();
                scratch.out.clear();
                Response::bad_request_fault(&e.to_string()).write_into(&mut scratch.out);
                use std::io::Write;
                let _ = out.write_all(&scratch.out);
                let _ = out.flush();
                return;
            }
        };
        first = false;
        let keep_alive = wants_keep_alive(req.header("Connection"));
        // Deadline admission runs before dispatch: an already-expired
        // budget never reaches the handler, it just costs a shed fault.
        // Sheds are not dispatches — they skip the exchange counters (the
        // shed_* counters account for them) and the chaos hook (a shed
        // reply is a promise the work did NOT run, so it must never be
        // torn into the ambiguity chaos models).
        let shed = admit_deadline(&mut req, arrival, stats);
        let was_shed = shed.is_some();
        let resp = match shed {
            Some(fault) => fault,
            None => handler.handle(&req),
        };
        scratch.out.clear();
        let cap_before = scratch.out.capacity();
        resp.write_into(&mut scratch.out);
        if scratch.out.capacity() > cap_before {
            stats.record_scratch_growth();
        }
        stats.record_scratch_high_water(scratch.out.capacity() as u64);
        if !was_shed {
            stats.record_exchange(scratch.out.len(), req.wire_len());
        }
        // The chaos hook runs after the handler: its drop/truncate classes
        // model "the operation executed but the reply never (fully)
        // arrived", which is exactly the ambiguity clients must survive.
        let fault = if was_shed {
            ServerFault::Deliver
        } else {
            chaos
                .map(|c| c.decide(&req))
                .unwrap_or(ServerFault::Deliver)
        };
        {
            use std::io::Write;
            if !apply_server_fault(fault, &mut out, &scratch.out, stats) {
                return; // response dropped or truncated: close mid-frame
            }
            if out.write_all(&scratch.out).is_err() || out.flush().is_err() {
                return;
            }
        }
        if !keep_alive {
            return;
        }
        // Re-anchor for the next keep-alive request; a pipelined request
        // is charged from the end of the previous response, not from the
        // connection's accept instant.
        arrival = std::time::Instant::now();
    }
}

/// Server-side deadline admission, shared by both arms. Reads the
/// client-stamped `X-Deadline-Ms` budget (a duration in milliseconds,
/// stamped at send time by `pool::PooledTransport`); when the budget is
/// already spent by `arrival`-relative elapsed time the request is shed
/// *before* the handler runs, with a deadline-exceeded SOAP fault.
/// Otherwise the header is rewritten to the remaining budget so handlers
/// and their downstream calls inherit an honest end-to-end deadline.
/// Requests without the header (or with a malformed value) are admitted
/// untouched — the contract is opt-in and never invents a deadline.
pub(crate) fn admit_deadline(
    req: &mut Request,
    arrival: std::time::Instant,
    stats: &WireStats,
) -> Option<Response> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn echo_handler() -> Arc<dyn Handler> {
        Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone()))
    }

    #[test]
    fn serves_and_shuts_down() {
        let server = HttpServer::start(echo_handler(), 2).unwrap();
        let addr = server.addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&Request::post("/x", "hello").to_bytes())
            .unwrap();
        let resp = Response::read_from(&conn).unwrap();
        assert_eq!(resp.body_str(), "hello");
        assert_eq!(server.stats().snapshot().requests, 1);
        server.shutdown();
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
        let server = HttpServer::start(echo_handler(), 4).unwrap();
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
    fn keep_alive_scratch_grows_exactly_once() {
        // One worker, one keep-alive connection, N identical-size
        // exchanges: the worker's serialize scratch must grow on the first
        // response and then be reused untouched for every later one.
        let server = HttpServer::start(echo_handler(), 1).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let n = 16;
        for _ in 0..n {
            let req =
                Request::post("/x", "fixed-size-payload").with_header("Connection", "keep-alive");
            conn.write_all(&req.to_bytes()).unwrap();
            let resp = Response::read_from(&conn).unwrap();
            assert_eq!(resp.body_str(), "fixed-size-payload");
        }
        let snap = server.stats().snapshot();
        assert_eq!(snap.requests, n);
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.scratch_growths, 1, "snapshot: {snap:?}");
        // The high-water mark covers at least one serialized response.
        let resp_len = Response::ok("text/plain", "fixed-size-payload").wire_len() as u64;
        assert!(snap.scratch_high_water >= resp_len, "snapshot: {snap:?}");
        server.shutdown();
    }

    #[test]
    fn pipelined_keep_alive_requests_both_served() {
        // Two requests written back-to-back before any response is read:
        // the second lands in the connection reader's buffer, and the
        // keep-alive wait must notice it instead of peeking the socket.
        let server = HttpServer::start(echo_handler(), 1).unwrap();
        let conn = TcpStream::connect(server.addr()).unwrap();
        let mut burst = Vec::new();
        Request::post("/x", "first")
            .with_header("Connection", "keep-alive")
            .write_into(&mut burst);
        Request::post("/x", "second")
            .with_header("Connection", "keep-alive")
            .write_into(&mut burst);
        (&conn).write_all(&burst).unwrap();
        let mut reader = std::io::BufReader::new(&conn);
        let r1 = Response::read_from_buffered(&mut reader).unwrap();
        let r2 = Response::read_from_buffered(&mut reader).unwrap();
        assert_eq!(r1.body_str(), "first");
        assert_eq!(r2.body_str(), "second");
        assert_eq!(server.stats().snapshot().requests, 2);
        server.shutdown();
    }

    #[test]
    fn chaotic_server_drops_and_truncates_but_always_executes() {
        use crate::chaos::{SeededServerChaos, ServerChaosConfig};
        // Heavy mix so a small sample exercises every class.
        let cfg = ServerChaosConfig {
            drop: 0.3,
            delay: 0.1,
            truncate: 0.3,
            max_delay_ms: 2,
        };
        let chaos = Arc::new(SeededServerChaos::new(0x5EED, cfg));
        let server = HttpServer::start_chaotic(echo_handler(), 2, chaos).unwrap();
        let addr = server.addr();
        let n = 40;
        let mut failures = 0u64;
        for i in 0..n {
            let mut conn = TcpStream::connect(addr).unwrap();
            let body = format!("m{i}");
            conn.write_all(&Request::post("/x", body.clone()).to_bytes())
                .unwrap();
            match Response::read_from(&conn) {
                Ok(resp) => assert_eq!(resp.body_str(), body),
                Err(_) => failures += 1,
            }
        }
        let snap = server.stats().snapshot();
        assert_eq!(
            snap.requests, n,
            "handler runs even when the reply is dropped: {snap:?}"
        );
        assert!(failures > 0, "mix should break some replies: {snap:?}");
        assert_eq!(
            snap.chaos_drops + snap.chaos_truncations,
            failures,
            "every client-visible failure is an injected one: {snap:?}"
        );
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_400_soap_fault() {
        // Pinned regression: garbage used to be closed on silently,
        // leaving the client to hang until its own deadline.
        let server = HttpServer::start(echo_handler(), 1).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(b"NONSENSE\r\nthis is not a header\r\n\r\n")
            .unwrap();
        let resp = Response::read_from(&conn).unwrap();
        assert_eq!(resp.status, Status::BadRequest);
        assert!(resp.body_str().contains("SOAP-ENV:Fault"));
        assert_eq!(resp.header("Connection"), Some("close"));
        assert_eq!(server.stats().snapshot().bad_requests, 1);
        server.shutdown();
    }

    #[test]
    fn unterminated_over_cap_head_gets_400_on_both_arms() {
        // A peer that never ends a header line. Both arms refuse it once
        // the head passes the cap; the read timeout fails the test rather
        // than hanging it on an arm that keeps reading.
        let mut probe = b"POST /x HTTP/1.0\r\nX-Big: ".to_vec();
        probe.resize(probe.len() + crate::http::MAX_HEAD_BYTES + 1024, b'a');
        for arm in ["blocking", "reactor"] {
            let server = match arm {
                "reactor" => HttpServer::start_reactor(echo_handler(), 1),
                _ => HttpServer::start(echo_handler(), 1),
            }
            .unwrap();
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            conn.set_read_timeout(Some(std::time::Duration::from_secs(3)))
                .unwrap();
            conn.write_all(&probe).unwrap();
            let resp = Response::read_from(&conn)
                .unwrap_or_else(|e| panic!("{arm}: no reply within 3 s: {e}"));
            assert_eq!(resp.status, Status::BadRequest, "{arm}");
            assert_eq!(server.stats().snapshot().bad_requests, 1, "{arm}");
            server.shutdown();
        }
    }

    #[test]
    fn clean_eof_before_any_byte_closes_quietly() {
        // Pinned regression companion: the shutdown poke's shape — connect
        // then hang up without a byte — is not a malformed request.
        let server = HttpServer::start(echo_handler(), 1).unwrap();
        {
            let _conn = TcpStream::connect(server.addr()).unwrap();
        }
        // Let the worker observe the close before sampling the counters.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let snap = server.stats().snapshot();
        assert_eq!(snap.bad_requests, 0, "{snap:?}");
        assert_eq!(snap.requests, 0, "{snap:?}");
        server.shutdown();
    }

    #[test]
    fn connection_header_token_list_respected() {
        // Pinned regression: `Connection: keep-alive, TE` is a legal token
        // list and must keep the connection alive; `close` anywhere in the
        // list must close it.
        let server = HttpServer::start(echo_handler(), 1).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
        for _ in 0..2 {
            conn.write_all(
                &Request::post("/x", "hi")
                    .with_header("Connection", "keep-alive, TE")
                    .to_bytes(),
            )
            .unwrap();
            let resp = Response::read_from_buffered(&mut reader).unwrap();
            assert_eq!(resp.body_str(), "hi");
        }
        assert_eq!(server.stats().snapshot().connections, 1);
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
        let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
        assert_eq!(
            Response::read_from_buffered(&mut reader)
                .unwrap()
                .body_str(),
            "bye"
        );
        use std::io::Read;
        let mut probe = [0u8; 1];
        assert_eq!(reader.read(&mut probe).unwrap(), 0, "server must close");
        server.shutdown();
    }

    #[test]
    fn expired_deadline_is_shed_before_handler() {
        // Pinned regression: clients have stamped `X-Deadline-Ms` since the
        // pool landed, but the server ignored it — a request whose budget
        // was already spent still burned a handler dispatch. Now it must be
        // shed pre-dispatch with a deadline fault and zero handler runs.
        use std::sync::atomic::AtomicUsize;
        let calls = Arc::new(AtomicUsize::new(0));
        let handler: Arc<dyn Handler> = {
            let calls = Arc::clone(&calls);
            Arc::new(move |req: &Request| {
                calls.fetch_add(1, Ordering::SeqCst);
                // Echo the (rewritten) budget so the propagation half of
                // the contract is observable from the client side.
                let budget = req.header(DEADLINE_HEADER).unwrap_or("none").to_string();
                Response::ok("text/plain", budget)
            })
        };
        let server = HttpServer::start(handler, 1).unwrap();

        // Budget already spent: shed before dispatch.
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(
            &Request::post("/x", "late")
                .with_header(DEADLINE_HEADER, "0")
                .to_bytes(),
        )
        .unwrap();
        let resp = Response::read_from(&conn).unwrap();
        assert_eq!(resp.status, Status::ServiceUnavailable);
        assert!(resp.body_str().contains("DEADLINE_EXCEEDED"), "{resp:?}");
        assert_eq!(calls.load(Ordering::SeqCst), 0, "handler must not run");
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
        assert_eq!(resp.status, Status::Ok);
        let remaining: u64 = resp.body_str().parse().unwrap();
        assert!(remaining > 0 && remaining <= 10_000, "{remaining}");
        assert_eq!(calls.load(Ordering::SeqCst), 1);

        let snap = server.stats().snapshot();
        assert_eq!(snap.shed_deadline, 1, "{snap:?}");
        assert_eq!(snap.requests, 1, "sheds are not dispatches: {snap:?}");
        server.shutdown();
    }

    #[test]
    fn burst_beyond_queue_cap_sheds_with_retry_hint() {
        // Pinned: with an explicit queue cap, a burst past it must produce
        // well-formed `Retry-After` shed faults — never silent drops, never
        // an unboundedly growing queue — while every admitted request
        // completes correctly.
        use crate::http::{RETRY_AFTER_HEADER, RETRY_AFTER_MS_HEADER};
        let slow: Arc<dyn Handler> = Arc::new(|req: &Request| {
            std::thread::sleep(std::time::Duration::from_millis(80));
            Response::ok("text/plain", req.body.clone())
        });
        let config = ServerConfig {
            workers: 1,
            queue_cap: Some(1),
            shed_retry_after_ms: 25,
            ..ServerConfig::default()
        };
        let server = HttpServer::start_tuned(slow, config).unwrap();
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

    #[test]
    fn sheds_are_never_torn_by_server_chaos() {
        // Pinned: a shed is a promise the work did NOT run, so the chaos
        // hook must never apply to it. Under a hook that truncates every
        // delivered response, admitted replies arrive torn — but every
        // 503 shed fault still arrives whole and parseable, hints intact.
        use crate::chaos::{ServerChaos, ServerFault};
        use crate::http::{RETRY_AFTER_HEADER, RETRY_AFTER_MS_HEADER};
        struct AlwaysTruncate;
        impl ServerChaos for AlwaysTruncate {
            fn decide(&self, _req: &Request) -> ServerFault {
                ServerFault::Truncate(0.5)
            }
        }
        let slow: Arc<dyn Handler> = Arc::new(|req: &Request| {
            std::thread::sleep(std::time::Duration::from_millis(80));
            Response::ok("text/plain", req.body.clone())
        });
        let config = ServerConfig {
            workers: 1,
            queue_cap: Some(1),
            shed_retry_after_ms: 25,
            ..ServerConfig::default()
        };
        let server =
            HttpServer::start_tuned_chaotic(slow, config, Arc::new(AlwaysTruncate)).unwrap();
        let addr = server.addr();

        let n = 8;
        let results: Vec<std::result::Result<Response, crate::WireError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .map(|i| {
                        scope.spawn(move || {
                            let conn = TcpStream::connect(addr).unwrap();
                            (&conn)
                                .write_all(&Request::post("/x", format!("m{i}")).to_bytes())
                                .unwrap();
                            Response::read_from(&conn)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

        let mut shed = 0;
        let mut torn = 0;
        for result in &results {
            match result {
                Ok(resp) if resp.status == Status::ServiceUnavailable => {
                    shed += 1;
                    assert_eq!(resp.header(RETRY_AFTER_HEADER), Some("1"));
                    assert_eq!(resp.header(RETRY_AFTER_MS_HEADER), Some("25"));
                    let body = resp.body_str();
                    assert!(body.contains("<code>BUSY</code>"), "{body}");
                    assert!(body.contains("</SOAP-ENV:Envelope>"), "whole frame: {body}");
                }
                // An admitted-then-truncated reply, or a 200 whose cut
                // happened to land after the body — either way, not a shed.
                Ok(_) => torn += 1,
                Err(_) => torn += 1,
            }
        }
        assert!(shed > 0, "burst of {n} past cap 1 must shed");
        assert!(torn > 0, "the hook tears every delivered response");
        assert_eq!(shed + torn, n, "no silent drops");
        server.shutdown();
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
