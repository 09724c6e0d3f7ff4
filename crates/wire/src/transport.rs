//! Client-side transports.
//!
//! [`Transport`] is the seam between the SOAP layer and the wire: the SOAP
//! client hands a framed [`Request`] to a transport and gets a [`Response`]
//! back. Two client transports implement it:
//!
//! * [`crate::pool::PooledTransport`] — TCP connections from a
//!   [`crate::pool::Pool`]. Over a pool that parks none (`max_idle: 0`) it
//!   dials once per call, the HTTP/1.0 deployment of 2002 whose connection
//!   cost the paper's `xml_call` batching amortizes (experiment E6).
//! * [`InMemoryTransport`] — dispatches straight into a [`Handler`] but
//!   still serializes the request and response to bytes and reparses them,
//!   so the XML/HTTP framing tax is preserved while kernel networking noise
//!   is removed. Used by micro-benchmarks and most tests.

use std::sync::Arc;

use crate::http::{parse_frame, Request, Response};
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
        // costs match what a socket would carry. Each message is dropped
        // once serialized and parsed where its bytes lie, so a hop holds
        // one copy of each message at a time.
        let bytes = req.to_bytes();
        drop(req);
        let sent = bytes.len();
        let req = parse_frame::<Request>(bytes)
            .map_err(|e| WireError::BadFrame(format!("request reframe: {e}")))?;
        let resp = self.handler.handle(&req);
        drop(req);
        let bytes = resp.to_bytes();
        drop(resp);
        let received = bytes.len();
        let resp = parse_frame::<Response>(bytes)
            .map_err(|e| WireError::BadFrame(format!("response reframe: {e}")))?;
        self.stats.record_exchange(sent, received);
        Ok(resp)
    }

    fn stats(&self) -> Arc<WireStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Status;

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
        assert_eq!(
            snap.bytes_sent,
            Request::post("/x", "abc").wire_len() as u64
        );
        assert_eq!(snap.bytes_received, resp.wire_len() as u64);
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
    fn status_propagates_through_transport() {
        let handler: Arc<dyn Handler> =
            Arc::new(|_: &Request| Response::error(Status::NotFound, "missing"));
        let t = InMemoryTransport::new(handler);
        let resp = t.round_trip(Request::get("/nope")).unwrap();
        assert_eq!(resp.status, Status::NotFound);
    }
}
