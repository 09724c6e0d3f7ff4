//! Client-side transports.
//!
//! [`Transport`] is the seam between the SOAP layer and the wire: the SOAP
//! client hands a framed [`Request`] to a transport and gets a [`Response`]
//! back. Two implementations:
//!
//! * [`HttpTransport`] — a real TCP connection *per call*, matching the
//!   HTTP/1.0 deployment of 2002. The per-call connection cost is exactly
//!   what the paper's `xml_call` batching amortizes (experiment E6).
//! * [`InMemoryTransport`] — dispatches straight into a [`Handler`] but
//!   still serializes the request and response to bytes and reparses them,
//!   so the XML/HTTP framing tax is preserved while kernel networking noise
//!   is removed. Used by micro-benchmarks and most tests.

use std::net::TcpStream;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::http::{Request, Response};
use crate::server::Handler;
use crate::stats::WireStats;
use crate::{Result, WireError};

/// A client transport: performs one request/response exchange.
pub trait Transport: Send + Sync {
    /// Execute one exchange.
    fn round_trip(&self, req: Request) -> Result<Response>;

    /// Client-side wire statistics for this transport.
    fn stats(&self) -> Arc<WireStats>;
}

/// One-TCP-connection-per-call HTTP transport (the 2002 regime), with an
/// optional keep-alive mode as the transport ablation.
pub struct HttpTransport {
    addr: String,
    stats: Arc<WireStats>,
    /// When set, a pooled connection reused across calls.
    pooled: Option<Mutex<Option<TcpStream>>>,
}

impl HttpTransport {
    /// Transport targeting `addr` (e.g. `"127.0.0.1:4321"` or a
    /// `SocketAddr` rendered to a string). One connection per call.
    pub fn new(addr: impl ToString) -> Self {
        HttpTransport {
            addr: addr.to_string(),
            stats: Arc::new(WireStats::new()),
            pooled: None,
        }
    }

    /// Keep-alive variant: one connection reused across calls (the
    /// regime commodity HTTP moved to after the paper's era). Used by the
    /// E1/E6 ablations to isolate connection-setup cost.
    pub fn keep_alive(addr: impl ToString) -> Self {
        HttpTransport {
            addr: addr.to_string(),
            stats: Arc::new(WireStats::new()),
            pooled: Some(Mutex::new(None)),
        }
    }

    /// Target address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn exchange_on(&self, conn: &mut TcpStream, bytes: &[u8]) -> Result<Response> {
        {
            use std::io::Write;
            conn.write_all(bytes)?;
            conn.flush()?;
        }
        let resp = Response::read_from(&*conn)?;
        self.stats.record_exchange(bytes.len(), resp.wire_len());
        Ok(resp)
    }
}

impl Transport for HttpTransport {
    fn round_trip(&self, req: Request) -> Result<Response> {
        let run = || -> Result<Response> {
            match &self.pooled {
                None => {
                    let bytes = req.to_bytes();
                    let mut conn = TcpStream::connect(&self.addr)?;
                    self.stats.record_connection();
                    self.exchange_on(&mut conn, &bytes)
                }
                Some(pool) => {
                    let req = req.with_header("Connection", "keep-alive");
                    let bytes = req.to_bytes();
                    let mut slot = pool.lock();
                    if let Some(mut conn) = slot.take() {
                        // Reuse; on failure (server closed the idle
                        // connection) fall through to a fresh one.
                        if let Ok(resp) = self.exchange_on(&mut conn, &bytes) {
                            *slot = Some(conn);
                            return Ok(resp);
                        }
                    }
                    let mut conn = TcpStream::connect(&self.addr)?;
                    self.stats.record_connection();
                    let resp = self.exchange_on(&mut conn, &bytes)?;
                    *slot = Some(conn);
                    Ok(resp)
                }
            }
        };
        run().inspect_err(|_| self.stats.record_error())
    }

    fn stats(&self) -> Arc<WireStats> {
        Arc::clone(&self.stats)
    }
}

/// In-memory transport: full framing, no sockets.
pub struct InMemoryTransport {
    handler: Arc<dyn Handler>,
    stats: Arc<WireStats>,
    frame: bool,
}

impl InMemoryTransport {
    /// Wrap `handler`, round-tripping every message through its byte
    /// framing (the faithful default).
    pub fn new(handler: Arc<dyn Handler>) -> Self {
        InMemoryTransport {
            handler,
            stats: Arc::new(WireStats::new()),
            frame: true,
        }
    }

    /// Wrap `handler` without byte framing — dispatches structs directly.
    /// This is the "stove-pipe" baseline for experiment E1: the cost of a
    /// direct in-process call with no wire representation at all.
    pub fn direct(handler: Arc<dyn Handler>) -> Self {
        InMemoryTransport {
            handler,
            stats: Arc::new(WireStats::new()),
            frame: false,
        }
    }
}

impl Transport for InMemoryTransport {
    fn round_trip(&self, req: Request) -> Result<Response> {
        if !self.frame {
            let resp = self.handler.handle(&req);
            self.stats.record_exchange(0, 0);
            return Ok(resp);
        }
        // Serialize and reparse both directions so byte counts and framing
        // costs match what a socket would carry.
        let req_bytes = req.to_bytes();
        let parsed_req = Request::read_from(&req_bytes[..])
            .map_err(|e| WireError::BadFrame(format!("request reframe: {e}")))?;
        let resp = self.handler.handle(&parsed_req);
        let resp_bytes = resp.to_bytes();
        let parsed_resp = Response::read_from(&resp_bytes[..])
            .map_err(|e| WireError::BadFrame(format!("response reframe: {e}")))?;
        self.stats
            .record_exchange(req_bytes.len(), resp_bytes.len());
        Ok(parsed_resp)
    }

    fn stats(&self) -> Arc<WireStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Status;
    use crate::server::HttpServer;

    fn upper_handler() -> Arc<dyn Handler> {
        Arc::new(|req: &Request| Response::ok("text/plain", req.body_str().to_uppercase()))
    }

    #[test]
    fn in_memory_frames_and_counts() {
        let t = InMemoryTransport::new(upper_handler());
        let resp = t.round_trip(Request::post("/x", "abc")).unwrap();
        assert_eq!(resp.body_str(), "ABC");
        let snap = t.stats().snapshot();
        assert_eq!(snap.requests, 1);
        assert!(snap.bytes_sent > 3, "framing bytes counted");
        assert_eq!(snap.connections, 0);
    }

    #[test]
    fn direct_skips_framing() {
        let t = InMemoryTransport::direct(upper_handler());
        let resp = t.round_trip(Request::post("/x", "abc")).unwrap();
        assert_eq!(resp.body_str(), "ABC");
        assert_eq!(t.stats().snapshot().total_bytes(), 0);
    }

    #[test]
    fn http_transport_end_to_end() {
        let server = HttpServer::start(upper_handler(), 2).unwrap();
        let t = HttpTransport::new(server.addr());
        let resp = t.round_trip(Request::post("/x", "grid")).unwrap();
        assert_eq!(resp.body_str(), "GRID");
        let snap = t.stats().snapshot();
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.requests, 1);
        server.shutdown();
    }

    #[test]
    fn each_call_opens_new_connection() {
        let server = HttpServer::start(upper_handler(), 2).unwrap();
        let t = HttpTransport::new(server.addr());
        for _ in 0..5 {
            t.round_trip(Request::post("/x", "a")).unwrap();
        }
        assert_eq!(t.stats().snapshot().connections, 5);
        server.shutdown();
    }

    #[test]
    fn keep_alive_reuses_one_connection() {
        let server = HttpServer::start(upper_handler(), 2).unwrap();
        let t = HttpTransport::keep_alive(server.addr());
        let mut received = 0;
        for _ in 0..8 {
            let resp = t.round_trip(Request::post("/x", "grid")).unwrap();
            assert_eq!(resp.body_str(), "GRID");
            received += resp.to_bytes().len() as u64;
        }
        assert_eq!(t.stats().snapshot().connections, 1);
        assert_eq!(t.stats().snapshot().requests, 8);
        // Counted from `wire_len`, byte-for-byte what serializing gives.
        assert_eq!(t.stats().snapshot().bytes_received, received);
        server.shutdown();
    }

    #[test]
    fn keep_alive_reconnects_after_server_restart() {
        let server = HttpServer::start(upper_handler(), 2).unwrap();
        let t = HttpTransport::keep_alive(server.addr());
        t.round_trip(Request::post("/x", "a")).unwrap();
        let addr = server.addr();
        server.shutdown();
        // Old pooled stream is dead; a new server on a fresh port means
        // this call must fail…
        assert!(t.round_trip(Request::post("/x", "b")).is_err());
        // …and a transport against the live server works regardless of
        // the dead pool entry.
        let server2 = HttpServer::start(upper_handler(), 2).unwrap();
        let _ = addr;
        let t2 = HttpTransport::keep_alive(server2.addr());
        assert!(t2.round_trip(Request::post("/x", "c")).is_ok());
        server2.shutdown();
    }

    #[test]
    fn connection_refused_is_error_and_counted() {
        // Port 1 is essentially never listening.
        let t = HttpTransport::new("127.0.0.1:1");
        assert!(t.round_trip(Request::get("/")).is_err());
        assert_eq!(t.stats().snapshot().errors, 1);
    }

    #[test]
    fn status_propagates_through_transport() {
        let handler: Arc<dyn Handler> =
            Arc::new(|_: &Request| Response::error(Status::NotFound, "missing"));
        let t = InMemoryTransport::new(handler);
        let resp = t.round_trip(Request::get("/nope")).unwrap();
        assert_eq!(resp.status, Status::NotFound);
    }
}
