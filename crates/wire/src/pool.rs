//! Connection-pooled keep-alive client transport.
//!
//! The 2002 deployment opened a TCP connection per SOAP call
//! ([`crate::transport::HttpTransport`]); every portal action paid
//! connection setup once per hop. [`PooledTransport`] amortizes that tax:
//! a shared [`Pool`] keeps idle keep-alive connections per endpoint and
//! hands them back out on the next call, with
//!
//! * **max-idle / max-age eviction** — at most [`PoolConfig::max_idle`]
//!   idle connections per endpoint, none older than
//!   [`PoolConfig::max_age`];
//! * **a liveness check on checkout** — an idle connection the server has
//!   since closed is detected with a non-blocking peek, discarded, and
//!   replaced by a fresh dial (counted as a reuse *miss*, never surfaced
//!   to the caller);
//! * **per-request deadlines** ([`Deadline`]) enforced via socket
//!   read/write timeouts, so a hung server fails the call instead of the
//!   portal session;
//! * **bounded retry with exponential backoff + jitter**
//!   ([`RetryPolicy`]), applied only to idempotent requests (`GET`, or
//!   requests the caller marked with the [`IDEMPOTENT_HEADER`]).
//!
//! Every outcome is visible in [`WireStats`]: reuse hits/misses,
//! evictions, retries, and timeouts all surface through
//! [`WireStats::snapshot`], which is how the E1/E6 experiments report the
//! pooled regime against the 2002 one.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::http::{Request, Response, Status, RETRY_AFTER_HEADER, RETRY_AFTER_MS_HEADER};
use crate::stats::WireStats;
use crate::transport::Transport;
use crate::{Result, WireError};

/// Request header marking a call safe to re-send after a transport
/// failure. `GET` requests are always treated as idempotent; `POST`
/// bodies (SOAP calls) are retried only when the SOAP layer sets this
/// header, mirroring the paper's read-only operations (UDDI queries, WSDL
/// fetches, status polls).
pub const IDEMPOTENT_HEADER: &str = "X-Idempotent";

/// Request header carrying a per-call deadline override in milliseconds,
/// set by the SOAP client. Analogous in spirit to later conventions like
/// `grpc-timeout`: the budget travels with the request.
pub const DEADLINE_HEADER: &str = "X-Deadline-Ms";

/// Request header marking a call issued to (re)fill a client-side
/// `ReadCache` after a miss. The pool counts reuse hits serving such
/// requests separately ([`WireStats::record_pool_cache_fill_hit`]) so the
/// E6 experiment can attribute round-trip savings to caching vs pooling.
pub const CACHE_FILL_HEADER: &str = "X-Cache-Fill";

/// A wall-clock budget for one logical call, covering every dial, write,
/// read, and retry made on its behalf.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    expires_at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Deadline {
        Deadline {
            expires_at: Instant::now() + budget,
        }
    }

    /// Time left, or `None` once expired.
    pub fn remaining(&self) -> Option<Duration> {
        let now = Instant::now();
        if now >= self.expires_at {
            None
        } else {
            Some(self.expires_at - now)
        }
    }

    /// Whether the budget is exhausted.
    pub fn expired(&self) -> bool {
        self.remaining().is_none()
    }
}

/// Bounded exponential backoff with jitter for idempotent retries.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 disables retry entirely).
    pub max_retries: u32,
    /// Backoff before the first retry; doubled each further retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry number `retry` (1-based): full jitter over
    /// `[0, min(base * 2^(retry-1), max_backoff)]`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let ceiling = self
            .base_backoff
            .saturating_mul(1u32 << (retry - 1).min(16))
            .min(self.max_backoff);
        ceiling.mul_f64(jitter_unit())
    }
}

/// Process-wide jitter source in `[0, 1)`. A tiny splitmix64 over an
/// atomic counter: statistically fine for spreading retries, and keeps
/// the wire crate free of an RNG dependency.
fn jitter_unit() -> f64 {
    static STATE: AtomicU64 = AtomicU64::new(0x243F_6A88_85A3_08D3);
    let mut z = STATE.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Sizing and aging limits for a [`Pool`].
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Idle connections kept per endpoint; the oldest beyond this is
    /// evicted at check-in.
    pub max_idle: usize,
    /// Idle connections older than this are evicted at checkout.
    pub max_age: Duration,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            max_idle: 4,
            max_age: Duration::from_secs(30),
        }
    }
}

struct Idle {
    conn: TcpStream,
    parked_at: Instant,
}

/// Per-endpoint idle keep-alive connections, shareable across transports
/// (one pool per deployment is typical, keyed by `host:port`).
pub struct Pool {
    cfg: PoolConfig,
    idle: Mutex<HashMap<String, VecDeque<Idle>>>,
}

impl Pool {
    /// Empty pool with `cfg` limits.
    pub fn new(cfg: PoolConfig) -> Pool {
        Pool {
            cfg,
            idle: Mutex::new(HashMap::new()),
        }
    }

    /// Limits this pool enforces.
    pub fn config(&self) -> PoolConfig {
        self.cfg
    }

    /// Idle connections currently parked for `addr`.
    pub fn idle_count(&self, addr: &str) -> usize {
        self.idle.lock().get(addr).map_or(0, VecDeque::len)
    }

    /// Take a live idle connection for `addr`, if one exists. Over-age and
    /// dead connections found along the way are evicted (recorded against
    /// `stats`); a live one is a reuse hit. Returns `None` on a miss — the
    /// caller dials and records the miss.
    fn checkout(&self, addr: &str, stats: &WireStats) -> Option<TcpStream> {
        let mut idle = self.idle.lock();
        let queue = idle.get_mut(addr)?;
        // Most-recently-parked first: warm connections are likelier live.
        while let Some(entry) = queue.pop_back() {
            if entry.parked_at.elapsed() > self.cfg.max_age {
                // Everything before this entry is older still; evict all.
                stats.record_pool_evictions(queue.len() as u64 + 1);
                queue.clear();
                return None;
            }
            if is_live(&entry.conn) {
                stats.record_pool_reuse_hit();
                return Some(entry.conn);
            }
            stats.record_pool_evictions(1);
        }
        None
    }

    /// Park a connection for later reuse, evicting the oldest entry if the
    /// endpoint is at its idle limit.
    fn checkin(&self, addr: &str, conn: TcpStream, stats: &WireStats) {
        if self.cfg.max_idle == 0 {
            stats.record_pool_evictions(1);
            return;
        }
        let mut idle = self.idle.lock();
        let queue = idle.entry(addr.to_owned()).or_default();
        if queue.len() >= self.cfg.max_idle {
            queue.pop_front();
            stats.record_pool_evictions(1);
        }
        queue.push_back(Idle {
            conn,
            parked_at: Instant::now(),
        });
    }

    /// Drop all idle connections (e.g. when a deployment shuts down).
    pub fn clear(&self) {
        self.idle.lock().clear();
    }
}

/// Liveness probe: a parked keep-alive connection should have nothing to
/// read. A readable zero (orderly close), unexpected bytes, or a hard
/// error all mean "do not reuse"; only `WouldBlock` means alive.
fn is_live(conn: &TcpStream) -> bool {
    if conn.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let live = matches!(conn.peek(&mut probe), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
    conn.set_nonblocking(false).is_ok() && live
}

/// Keep-alive HTTP transport drawing connections from a [`Pool`].
///
/// Drop-in replacement for [`crate::transport::HttpTransport`] behind the
/// same [`Transport`] trait; construct via [`PooledTransport::new`] or
/// share a pool across endpoints with [`PooledTransport::with_pool`].
pub struct PooledTransport {
    addr: String,
    pool: Arc<Pool>,
    stats: Arc<WireStats>,
    deadline: Option<Duration>,
    retry: RetryPolicy,
}

impl PooledTransport {
    /// Pooled transport to `addr` with default pool limits, a private
    /// pool, the default retry policy, and no deadline.
    pub fn new(addr: impl ToString) -> PooledTransport {
        PooledTransport::with_pool(addr, Arc::new(Pool::new(PoolConfig::default())))
    }

    /// Pooled transport to `addr` drawing from a shared `pool`.
    pub fn with_pool(addr: impl ToString, pool: Arc<Pool>) -> PooledTransport {
        PooledTransport {
            addr: addr.to_string(),
            pool,
            stats: Arc::new(WireStats::new()),
            deadline: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Builder: default per-call deadline (overridable per request via
    /// [`DEADLINE_HEADER`]).
    pub fn with_deadline(mut self, budget: Duration) -> PooledTransport {
        self.deadline = Some(budget);
        self
    }

    /// Builder: retry policy for idempotent requests.
    pub fn with_retry(mut self, retry: RetryPolicy) -> PooledTransport {
        self.retry = retry;
        self
    }

    /// Target address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The pool this transport draws from.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// One attempt: checkout-or-dial, exchange, park on success.
    ///
    /// A *reused* connection that fails before any response byte arrives
    /// was merely closed idle under us; the pool absorbs that with one
    /// fresh dial for any method — re-sending cannot double-execute a
    /// request the server never started answering — without consuming the
    /// caller's retry budget. Once response bytes have arrived the server
    /// may have executed the request, so only idempotent requests redial;
    /// a non-idempotent request surfaces the error.
    fn attempt(
        &self,
        bytes: &[u8],
        deadline: Option<&Deadline>,
        idempotent: bool,
        cache_fill: bool,
    ) -> Result<Response> {
        if let Some(conn) = self.pool.checkout(&self.addr, &self.stats) {
            if cache_fill {
                self.stats.record_pool_cache_fill_hit();
            }
            match self.exchange(conn, bytes, deadline) {
                Ok(resp) => return Ok(resp),
                Err(failure) => {
                    self.stats.record_pool_reuse_miss();
                    if failure.response_started && !idempotent {
                        return Err(failure.err);
                    }
                }
            }
        } else {
            self.stats.record_pool_reuse_miss();
        }
        let conn = self.dial(deadline)?;
        self.exchange(conn, bytes, deadline).map_err(|f| f.err)
    }

    fn dial(&self, deadline: Option<&Deadline>) -> Result<TcpStream> {
        let conn = match deadline {
            Some(d) => {
                let budget = d
                    .remaining()
                    .ok_or_else(|| WireError::Timeout(format!("dialing {}", self.addr)))?;
                let sockaddr = self
                    .addr
                    .parse()
                    .map_err(|e| WireError::BadFrame(format!("bad address {}: {e}", self.addr)))?;
                TcpStream::connect_timeout(&sockaddr, budget)?
            }
            None => TcpStream::connect(&self.addr)?,
        };
        self.stats.record_connection();
        Ok(conn)
    }

    fn exchange(
        &self,
        mut conn: TcpStream,
        bytes: &[u8],
        deadline: Option<&Deadline>,
    ) -> std::result::Result<Response, AttemptFailure> {
        if let Some(d) = deadline {
            let budget = d.remaining().ok_or_else(|| {
                AttemptFailure::before_response(WireError::Timeout(format!(
                    "calling {}",
                    self.addr
                )))
            })?;
            conn.set_write_timeout(Some(budget))
                .map_err(AttemptFailure::before_response)?;
            conn.set_read_timeout(Some(budget))
                .map_err(AttemptFailure::before_response)?;
        } else {
            conn.set_write_timeout(None)
                .map_err(AttemptFailure::before_response)?;
            conn.set_read_timeout(None)
                .map_err(AttemptFailure::before_response)?;
        }
        {
            use std::io::Write;
            conn.write_all(bytes)
                .map_err(AttemptFailure::before_response)?;
            conn.flush().map_err(AttemptFailure::before_response)?;
        }
        // Block for the first response byte without consuming it, so a
        // failure splits cleanly into before/after the response started —
        // the fact `attempt` needs to know whether a redial is safe.
        let mut probe = [0u8; 1];
        match conn.peek(&mut probe) {
            Ok(0) => {
                return Err(AttemptFailure::before_response(WireError::Io(
                    io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed before sending any response byte",
                    ),
                )))
            }
            Ok(_) => {}
            Err(e) => return Err(AttemptFailure::before_response(e)),
        }
        let resp = Response::read_from(&conn).map_err(|err| AttemptFailure {
            err,
            response_started: true,
        })?;
        self.stats.record_exchange(bytes.len(), resp.wire_len());
        self.pool.checkin(&self.addr, conn, &self.stats);
        Ok(resp)
    }
}

/// Failure detail for one exchange attempt: whether any response bytes had
/// already arrived when it failed. Before the first byte, the server
/// cannot have answered (and a reused-connection failure is just a stale
/// keep-alive); after it, the request may have executed.
struct AttemptFailure {
    err: WireError,
    response_started: bool,
}

impl AttemptFailure {
    fn before_response(err: impl Into<WireError>) -> AttemptFailure {
        AttemptFailure {
            err: err.into(),
            response_started: false,
        }
    }
}

/// Whether a failed request may be transparently re-sent.
fn is_idempotent(req: &Request) -> bool {
    req.method.eq_ignore_ascii_case("GET")
        || req
            .header(IDEMPOTENT_HEADER)
            .is_some_and(|v| v.eq_ignore_ascii_case("true"))
}

/// The retry hint on a load-shed response, if this is one: a `503` whose
/// server stamped `X-Retry-After-Ms` (preferred, millisecond precision)
/// or `Retry-After` (whole seconds). A `503` *without* a hint — e.g. a
/// deadline-exceeded shed, where retrying can never help — yields `None`
/// and is surfaced to the caller as-is.
fn shed_retry_hint(resp: &Response) -> Option<Duration> {
    if resp.status != Status::ServiceUnavailable {
        return None;
    }
    if let Some(ms) = resp
        .header(RETRY_AFTER_MS_HEADER)
        .and_then(|v| v.trim().parse::<u64>().ok())
    {
        return Some(Duration::from_millis(ms));
    }
    resp.header(RETRY_AFTER_HEADER)
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_secs)
}

/// A socket timeout surfaces as `WouldBlock` or `TimedOut` depending on
/// platform; both mean the deadline, not the peer, killed the attempt.
fn is_timeout_io(err: &WireError) -> bool {
    matches!(
        err,
        WireError::Io(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
    )
}

impl Transport for PooledTransport {
    fn round_trip(&self, req: Request) -> Result<Response> {
        // A malformed deadline header is a caller bug; silently dropping
        // it would run an intended-to-be-bounded call with no budget.
        let budget = match req.header(DEADLINE_HEADER) {
            Some(v) => Some(Duration::from_millis(v.parse::<u64>().map_err(|_| {
                WireError::BadFrame(format!("malformed {DEADLINE_HEADER} header {v:?}"))
            })?)),
            None => self.deadline,
        };
        let deadline = budget.map(Deadline::within);
        let retryable = is_idempotent(&req);
        let cache_fill = req
            .header(CACHE_FILL_HEADER)
            .is_some_and(|v| v.eq_ignore_ascii_case("true"));
        let req = req.with_header("Connection", "keep-alive");
        let bytes = req.to_bytes();

        let mut retry = 0u32;
        loop {
            match self.attempt(&bytes, deadline.as_ref(), retryable, cache_fill) {
                Ok(resp) => {
                    // A load-shed reply is not a transport failure — the
                    // server answered, saying "not now". Honor the hint:
                    // never retry before it elapses, and only retry at all
                    // when the request is idempotent, budget remains, and
                    // the deadline can cover the wait. Otherwise the shed
                    // surfaces so the SOAP layer sees the Busy fault.
                    let Some(hint) = shed_retry_hint(&resp) else {
                        return Ok(resp);
                    };
                    if !retryable || retry >= self.retry.max_retries {
                        return Ok(resp);
                    }
                    if let Some(d) = &deadline {
                        match d.remaining() {
                            Some(left) if left > hint => {}
                            _ => return Ok(resp),
                        }
                    }
                    retry += 1;
                    self.stats.record_retry();
                    std::thread::sleep(hint);
                }
                Err(err) => {
                    self.stats.record_error();
                    let timed_out = matches!(err, WireError::Timeout(_)) || is_timeout_io(&err);
                    if timed_out && deadline.as_ref().is_some_and(Deadline::expired) {
                        self.stats.record_timeout();
                        return Err(WireError::Timeout(format!(
                            "{} after {retry} retries",
                            self.addr
                        )));
                    }
                    if !retryable || retry >= self.retry.max_retries {
                        return Err(err);
                    }
                    retry += 1;
                    self.stats.record_retry();
                    let mut pause = self.retry.backoff(retry);
                    if let Some(d) = &deadline {
                        match d.remaining() {
                            Some(left) => pause = pause.min(left),
                            None => {
                                self.stats.record_timeout();
                                return Err(WireError::Timeout(format!(
                                    "{} after {retry} retries",
                                    self.addr
                                )));
                            }
                        }
                    }
                    std::thread::sleep(pause);
                }
            }
        }
    }

    fn stats(&self) -> Arc<WireStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Status;
    use crate::server::{Handler, HttpServer};

    fn upper_handler() -> Arc<dyn Handler> {
        Arc::new(|req: &Request| Response::ok("text/plain", req.body_str().to_uppercase()))
    }

    #[test]
    fn reuses_pooled_connection() {
        let server = HttpServer::start(upper_handler(), 2).unwrap();
        let t = PooledTransport::new(server.addr());
        let mut received = 0;
        for _ in 0..8 {
            let resp = t.round_trip(Request::post("/x", "grid")).unwrap();
            assert_eq!(resp.body_str(), "GRID");
            received += resp.to_bytes().len() as u64;
        }
        let snap = t.stats().snapshot();
        assert_eq!(snap.connections, 1, "one dial serves all calls");
        assert_eq!(snap.pool_reuse_misses, 1, "only the cold start misses");
        assert_eq!(snap.pool_reuse_hits, 7);
        assert_eq!(snap.requests, 8);
        // Counted from `wire_len`, byte-for-byte what serializing gives.
        assert_eq!(snap.bytes_received, received);
        server.shutdown();
    }

    #[test]
    fn checkout_of_peer_closed_connection_redials() {
        let server = HttpServer::start(upper_handler(), 2).unwrap();
        let addr = server.addr();
        let pool = Arc::new(Pool::new(PoolConfig::default()));
        let t = PooledTransport::with_pool(addr, Arc::clone(&pool));
        t.round_trip(Request::post("/x", "a")).unwrap();
        assert_eq!(pool.idle_count(&t.addr), 1);

        // Kill the server; the parked connection is now dead. A new server
        // cannot listen on the same port reliably, so instead assert the
        // failure path: checkout detects the dead connection, evicts it,
        // and the redial (a reuse miss, not a reuse of a corpse) fails
        // with connection-refused rather than a bad frame off a dead pipe.
        server.shutdown();
        std::thread::sleep(Duration::from_millis(30));
        let err = t.round_trip(Request::post("/x", "b")).unwrap_err();
        assert!(matches!(err, WireError::Io(_)), "got {err}");
        let snap = t.stats().snapshot();
        assert_eq!(snap.pool_reuse_misses, 2, "cold start + dead checkout");
        assert_eq!(
            snap.pool_reuse_hits, 0,
            "the corpse never counts as a reuse"
        );
        assert!(snap.pool_evictions >= 1, "the corpse was evicted");
        assert_eq!(pool.idle_count(&t.addr), 0);
    }

    #[test]
    fn max_idle_bounds_parked_connections() {
        let server = HttpServer::start(upper_handler(), 4).unwrap();
        let pool = Arc::new(Pool::new(PoolConfig {
            max_idle: 2,
            max_age: Duration::from_secs(30),
        }));
        // Three transports to one endpoint, each call parking a connection.
        let addr = server.addr().to_string();
        let ts: Vec<_> = (0..3)
            .map(|_| PooledTransport::with_pool(&addr, Arc::clone(&pool)))
            .collect();
        std::thread::scope(|s| {
            for t in &ts {
                s.spawn(move || t.round_trip(Request::post("/x", "a")).unwrap());
            }
        });
        assert!(pool.idle_count(&addr) <= 2, "max_idle enforced");
        server.shutdown();
    }

    #[test]
    fn max_age_evicts_stale_connections() {
        let server = HttpServer::start(upper_handler(), 2).unwrap();
        let pool = Arc::new(Pool::new(PoolConfig {
            max_idle: 4,
            max_age: Duration::from_millis(20),
        }));
        let t = PooledTransport::with_pool(server.addr(), Arc::clone(&pool));
        t.round_trip(Request::post("/x", "a")).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        t.round_trip(Request::post("/x", "b")).unwrap();
        let snap = t.stats().snapshot();
        assert_eq!(snap.connections, 2, "stale connection not reused");
        assert!(snap.pool_evictions >= 1, "stale connection evicted");
        assert_eq!(snap.pool_reuse_hits, 0);
        server.shutdown();
    }

    #[test]
    fn deadline_expires_against_unresponsive_server() {
        // A listener that accepts but never answers.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hold = std::thread::spawn(move || {
            let conns: Vec<_> = listener.incoming().take(1).collect();
            std::thread::sleep(Duration::from_millis(400));
            drop(conns);
        });
        let t = PooledTransport::new(&addr).with_deadline(Duration::from_millis(60));
        let start = Instant::now();
        let err = t.round_trip(Request::post("/x", "a")).unwrap_err();
        assert!(matches!(err, WireError::Timeout(_)), "got {err}");
        assert!(
            start.elapsed() < Duration::from_millis(350),
            "deadline cut the wait"
        );
        assert_eq!(t.stats().snapshot().timeouts, 1);
        hold.join().unwrap();
    }

    #[test]
    fn idempotent_get_retries_post_does_not() {
        // Nothing listens on port 1, so every attempt fails fast.
        let t = PooledTransport::new("127.0.0.1:1").with_retry(RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        });
        assert!(t.round_trip(Request::get("/wsdl/x")).is_err());
        assert_eq!(t.stats().snapshot().retries, 2, "GET retried to budget");

        assert!(t.round_trip(Request::post("/soap/x", "<e/>")).is_err());
        assert_eq!(t.stats().snapshot().retries, 2, "bare POST never retried");

        let marked = Request::post("/soap/x", "<e/>").with_header(IDEMPOTENT_HEADER, "true");
        assert!(t.round_trip(marked).is_err());
        assert_eq!(t.stats().snapshot().retries, 4, "marked POST retried");
    }

    #[test]
    fn retry_recovers_when_server_comes_back() {
        // Bind, learn the port, then close — the first attempt gets
        // connection-refused; the server starts before the retry lands.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let t = PooledTransport::new(addr).with_retry(RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(30),
            max_backoff: Duration::from_millis(60),
        });
        let starter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            HttpServer::start_on(addr, upper_handler(), 2)
        });
        let resp = t.round_trip(Request::get("/x")).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert!(t.stats().snapshot().retries >= 1);
        if let Ok(Ok(server)) = starter.join() {
            server.shutdown();
        }
    }

    #[test]
    fn deadline_header_overrides_default() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hold = std::thread::spawn(move || {
            let conns: Vec<_> = listener.incoming().take(1).collect();
            std::thread::sleep(Duration::from_millis(300));
            drop(conns);
        });
        // Generous transport default, tight per-request override.
        let t = PooledTransport::new(&addr).with_deadline(Duration::from_secs(5));
        let req = Request::post("/x", "a").with_header(DEADLINE_HEADER, "50");
        let start = Instant::now();
        assert!(matches!(
            t.round_trip(req).unwrap_err(),
            WireError::Timeout(_)
        ));
        assert!(start.elapsed() < Duration::from_millis(300));
        hold.join().unwrap();
    }

    #[test]
    fn stale_reused_connection_redials_once_for_non_idempotent() {
        // Regression for the e12_chaos stale-keep-alive class (any seeded
        // schedule with `stale_keep_alive > 0`, e.g. seed 0x1 under
        // `ChaosConfig::from_seed`): a POST on a reused keep-alive
        // connection that dies *before any response byte* must be re-sent
        // transparently on a fresh dial, not surfaced — the server never
        // started answering, so re-sending cannot double-execute.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let srv = std::thread::spawn(move || {
            // Connection 1: answer the first request, leave the connection
            // parked, then read the second request and close unanswered.
            let (c1, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(c1.try_clone().unwrap());
            let r1 = Request::read_from_buffered(&mut reader).unwrap();
            Response::ok("text/plain", r1.body).write_to(&c1).unwrap();
            let _r2 = Request::read_from_buffered(&mut reader).unwrap();
            drop(reader); // the reader clones the socket: close both halves
            drop(c1);
            // Connection 2: the transparent redial carries the re-send.
            let (c2, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(c2.try_clone().unwrap());
            let r3 = Request::read_from_buffered(&mut reader).unwrap();
            Response::ok("text/plain", r3.body.clone())
                .write_to(&c2)
                .unwrap();
            r3.body_str()
        });
        // RetryPolicy::none(): the redial must come from the pool's
        // stale-connection handling, not the retry loop.
        let t = PooledTransport::new(&addr).with_retry(RetryPolicy::none());
        t.round_trip(Request::post("/x", "first")).unwrap();
        let resp = t.round_trip(Request::post("/x", "second")).unwrap();
        assert_eq!(resp.body_str(), "second");
        let snap = t.stats().snapshot();
        assert_eq!(snap.connections, 2, "exactly one redial");
        assert_eq!(snap.pool_reuse_hits, 1);
        assert_eq!(snap.pool_reuse_misses, 2, "cold start + failed reuse");
        assert_eq!(snap.retries, 0, "no retry budget consumed");
        assert_eq!(srv.join().unwrap(), "second", "server saw the re-send");
    }

    #[test]
    fn non_idempotent_failure_after_response_started_is_surfaced() {
        // Regression for the e12_chaos mid-stream-close class: once
        // response bytes have arrived, the server may have executed the
        // POST, so the pool must NOT re-send it — the error surfaces and
        // the caller decides.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let srv = std::thread::spawn(move || {
            let (c1, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(c1.try_clone().unwrap());
            let r1 = Request::read_from_buffered(&mut reader).unwrap();
            Response::ok("text/plain", r1.body).write_to(&c1).unwrap();
            let _r2 = Request::read_from_buffered(&mut reader).unwrap();
            // Start the response, then die mid-frame.
            use std::io::Write;
            (&c1).write_all(b"HTTP/1.0 200 OK\r\nContent-Le").unwrap();
            drop(reader); // the reader clones the socket: close both halves
            drop(c1);
            // A (buggy) re-send would dial again; watch for it briefly.
            listener.set_nonblocking(true).unwrap();
            std::thread::sleep(Duration::from_millis(100));
            listener.accept().is_ok()
        });
        let t = PooledTransport::new(&addr).with_retry(RetryPolicy::none());
        t.round_trip(Request::post("/x", "first")).unwrap();
        let err = t.round_trip(Request::post("/x", "second")).unwrap_err();
        assert!(
            matches!(err, WireError::Io(_) | WireError::BadFrame(_)),
            "got {err}"
        );
        assert!(
            !srv.join().unwrap(),
            "POST must not be re-sent after response bytes arrived"
        );
        assert_eq!(t.stats().snapshot().connections, 1, "no redial");
    }

    #[test]
    fn idempotent_request_redials_even_after_response_started() {
        // The counterpart: a GET interrupted mid-response is safe to
        // re-send, and the pool does so on a fresh connection.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let srv = std::thread::spawn(move || {
            let (c1, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(c1.try_clone().unwrap());
            let _r1 = Request::read_from_buffered(&mut reader).unwrap();
            Response::ok("text/plain", "one").write_to(&c1).unwrap();
            let _r2 = Request::read_from_buffered(&mut reader).unwrap();
            use std::io::Write;
            (&c1).write_all(b"HTTP/1.0 200 OK\r\nContent-Le").unwrap();
            drop(reader); // the reader clones the socket: close both halves
            drop(c1);
            let (c2, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(c2.try_clone().unwrap());
            let _r3 = Request::read_from_buffered(&mut reader).unwrap();
            Response::ok("text/plain", "redial-ok")
                .write_to(&c2)
                .unwrap();
        });
        let t = PooledTransport::new(&addr).with_retry(RetryPolicy::none());
        t.round_trip(Request::get("/status")).unwrap();
        let resp = t.round_trip(Request::get("/status")).unwrap();
        assert_eq!(resp.body_str(), "redial-ok");
        assert_eq!(t.stats().snapshot().connections, 2);
        srv.join().unwrap();
    }

    #[test]
    fn malformed_deadline_header_is_rejected_not_ignored() {
        // Regression: `parse().ok()` used to drop a malformed deadline
        // header silently, running the call with no budget at all.
        let t = PooledTransport::new("127.0.0.1:1");
        for bad in ["soon", "-5", "1.5", "", "10s"] {
            let req = Request::post("/x", "a").with_header(DEADLINE_HEADER, bad);
            match t.round_trip(req) {
                Err(WireError::BadFrame(msg)) => {
                    assert!(msg.contains(DEADLINE_HEADER), "{msg}")
                }
                other => panic!("{bad:?}: expected BadFrame, got {other:?}"),
            }
        }
        assert_eq!(
            t.stats().snapshot().connections,
            0,
            "rejected before any dial"
        );
    }

    #[test]
    fn shed_fault_retry_waits_for_the_hint() {
        // Pinned regression: a shed reply used to be returned like any
        // other response — an idempotent caller's own retry loop would
        // hammer the overloaded server immediately. The pool must honor
        // the server's hint: no retry lands before `Retry-After` elapses.
        use std::sync::atomic::AtomicUsize;
        let calls = Arc::new(AtomicUsize::new(0));
        let handler: Arc<dyn crate::server::Handler> = {
            let calls = Arc::clone(&calls);
            Arc::new(move |req: &Request| {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    Response::shed_fault("warming up", 80)
                } else {
                    Response::ok("text/plain", req.body.clone())
                }
            })
        };
        let server = HttpServer::start(handler, 1).unwrap();
        let t = PooledTransport::new(server.addr());

        // Idempotent call: shed once, retried after >= the 80 ms hint.
        let start = Instant::now();
        let resp = t.round_trip(Request::get("/status")).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert!(
            start.elapsed() >= Duration::from_millis(80),
            "retried before the hint elapsed: {:?}",
            start.elapsed()
        );
        assert_eq!(t.stats().snapshot().retries, 1);
        server.shutdown();

        // Non-idempotent call: the shed surfaces immediately, no retry.
        let calls = Arc::new(AtomicUsize::new(0));
        let handler: Arc<dyn crate::server::Handler> = {
            let calls = Arc::clone(&calls);
            Arc::new(move |_: &Request| {
                calls.fetch_add(1, Ordering::SeqCst);
                Response::shed_fault("always busy", 500)
            })
        };
        let server = HttpServer::start(handler, 1).unwrap();
        let t = PooledTransport::new(server.addr());
        let start = Instant::now();
        let resp = t.round_trip(Request::post("/soap/x", "<e/>")).unwrap();
        assert_eq!(resp.status, Status::ServiceUnavailable);
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "non-idempotent POST must not wait out the hint"
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1, "sent exactly once");
        assert_eq!(t.stats().snapshot().retries, 0);
        server.shutdown();
    }

    #[test]
    fn deadline_shed_fault_surfaces_without_retry() {
        // A 503 with no retry hint (the deadline-exceeded shape) must not
        // be retried even for idempotent requests — waiting cannot revive
        // a spent budget.
        let handler: Arc<dyn crate::server::Handler> =
            Arc::new(|_: &Request| Response::deadline_fault("spent"));
        let server = HttpServer::start(handler, 1).unwrap();
        let t = PooledTransport::new(server.addr());
        let resp = t.round_trip(Request::get("/status")).unwrap();
        assert_eq!(resp.status, Status::ServiceUnavailable);
        assert!(resp.body_str().contains("DEADLINE_EXCEEDED"));
        assert_eq!(t.stats().snapshot().retries, 0);
        server.shutdown();
    }

    #[test]
    fn backoff_grows_and_respects_ceiling() {
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(50),
        };
        for retry in 1..=8 {
            let ceiling =
                Duration::from_millis(10 * (1 << (retry - 1))).min(Duration::from_millis(50));
            for _ in 0..20 {
                assert!(p.backoff(retry) <= ceiling);
            }
        }
    }

    #[test]
    fn cache_fill_reuse_hits_attributed_separately() {
        let server = HttpServer::start(upper_handler(), 2).unwrap();
        let t = PooledTransport::new(server.addr());
        // Cold start: a plain call parks the connection.
        t.round_trip(Request::post("/x", "warm")).unwrap();
        // Two cache-fill reads and one plain call, all reuse hits.
        for _ in 0..2 {
            let req = Request::post("/x", "fill").with_header(CACHE_FILL_HEADER, "true");
            t.round_trip(req).unwrap();
        }
        t.round_trip(Request::post("/x", "plain")).unwrap();
        let snap = t.stats().snapshot();
        assert_eq!(snap.pool_reuse_hits, 3);
        assert_eq!(
            snap.pool_cache_fill_hits, 2,
            "only cache-fill requests counted in the attribution bucket"
        );
        server.shutdown();
    }

    #[test]
    fn pool_shared_across_transports() {
        let server = HttpServer::start(upper_handler(), 2).unwrap();
        let pool = Arc::new(Pool::new(PoolConfig::default()));
        let a = PooledTransport::with_pool(server.addr(), Arc::clone(&pool));
        let b = PooledTransport::with_pool(server.addr(), Arc::clone(&pool));
        a.round_trip(Request::post("/x", "a")).unwrap();
        b.round_trip(Request::post("/x", "b")).unwrap();
        assert_eq!(
            b.stats().snapshot().pool_reuse_hits,
            1,
            "b reused the connection a parked"
        );
        server.shutdown();
    }
}
