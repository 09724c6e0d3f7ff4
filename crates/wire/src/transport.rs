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
//!   still writes each request's and response's head to bytes and reparses
//!   it, and hands the body over in the allocation it was written in, so
//!   the XML/HTTP framing tax is preserved while kernel networking noise is
//!   removed. Used by micro-benchmarks and most tests.

use std::sync::Arc;

use crate::http::{head_bytes, parse_parts, Message, Request, Response};
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
///
/// Each message crosses the hop as a socket would carry it, less the
/// kernel's copy of its body: the head is written by the one head writer
/// into a buffer of its own and read back by the one head grammar, with
/// the same caps and refusals as a socket's reader; its `Content-Length`
/// is checked against the body; and the body moves, in the allocation it
/// was written in, into the message the far side reads. Byte accounting
/// counts head and body, as [`Request::wire_len`] and
/// [`Response::wire_len`] do.
pub struct InMemoryTransport {
    handler: Arc<dyn Handler>,
    stats: Arc<WireStats>,
    frame: bool,
}

impl InMemoryTransport {
    /// Wrap `handler`, round-tripping every message's head through its
    /// byte framing (the faithful default).
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
        let (req, sent) =
            hop(req).map_err(|e| WireError::BadFrame(format!("request reframe: {e}")))?;
        let resp = self.handler.handle(&req);
        drop(req);
        let (resp, received) =
            hop(resp).map_err(|e| WireError::BadFrame(format!("response reframe: {e}")))?;
        self.stats.record_exchange(sent, received);
        Ok(resp)
    }

    fn stats(&self) -> Arc<WireStats> {
        Arc::clone(&self.stats)
    }
}

/// One message across the in-memory hop: its head written and reparsed,
/// its body handed over. Returns the message the far side reads and the
/// bytes a socket would have carried. The sent message is dropped before
/// the head is parsed, so the hop holds one copy of each message at a time.
fn hop<M: Message>(mut msg: M) -> Result<(M, usize)> {
    let head = head_bytes(&msg);
    let body = std::mem::take(msg.body_mut());
    drop(msg);
    let len = head.len() + body.len();
    Ok((parse_parts(&head, body)?, len))
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
    fn bodies_cross_the_hop_in_the_allocation_they_were_sent_in() {
        use std::sync::Mutex;
        // The handler records where the request body it reads lies, and
        // where the reply body it returns does.
        let seen: Arc<Mutex<Vec<usize>>> = Arc::default();
        let handler: Arc<dyn Handler> = Arc::new({
            let seen = Arc::clone(&seen);
            move |req: &Request| {
                let reply = req.body.to_ascii_uppercase();
                let mut seen = seen.lock().unwrap();
                seen.extend([req.body.as_ptr() as usize, reply.as_ptr() as usize]);
                Response::ok("application/octet-stream", reply)
            }
        });
        let t = InMemoryTransport::new(handler);
        let body = vec![b'a'; 300 * 1024];
        let sent_at = body.as_ptr() as usize;
        let resp = t.round_trip(Request::post("/x", body)).unwrap();
        assert_eq!(resp.body, vec![b'A'; 300 * 1024]);
        let seen = seen.lock().unwrap();
        assert_eq!(seen[0], sent_at, "the request body was copied on the hop");
        assert_eq!(
            seen[1],
            resp.body.as_ptr() as usize,
            "the reply body was copied on the hop"
        );
    }

    #[test]
    fn every_hop_counts_head_and_body() {
        let echo: Arc<dyn Handler> =
            Arc::new(|req: &Request| Response::ok("application/octet-stream", req.body.clone()));
        let t = InMemoryTransport::new(echo);
        let (mut sent, mut received) = (0, 0);
        for len in [0, 1, 300 * 1024] {
            let req = Request::post("/x", vec![7u8; len]).with_header("X-K", "v");
            sent += req.wire_len() as u64;
            let resp = t.round_trip(req).unwrap();
            assert_eq!(resp.body.len(), len);
            received += resp.wire_len() as u64;
            let snap = t.stats().snapshot();
            assert_eq!(
                (snap.bytes_sent, snap.bytes_received),
                (sent, received),
                "{len}"
            );
        }
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
