//! Wire transport for the portal's Web services.
//!
//! The 2002 deployment ran every service on its own web server (Tomcat,
//! Apache SOAP, Python SOAP servers) and spoke HTTP between them; each SOAP
//! call opened its own connection, which is why the paper highlights the
//! `xml_call` batching trick ("multiple SRB commands … sent to the Web
//! Service using a single connection", §3.2). This crate reproduces that
//! transport regime:
//!
//! * [`http`] — minimal HTTP/1.0-style request/response framing, with an
//!   incremental [`http::RequestParser`] for nonblocking reads.
//! * [`server`] — the TCP server with a path [`server::Router`]: one
//!   constructor, one request path, and two loops to drive it, picked by
//!   [`ServerArm`]. The blocking arm is a thread-per-connection worker
//!   pool.
//! * [`reactor`] — the epoll arm: each worker thread drives many
//!   nonblocking connections through readiness-driven state machines, so
//!   idle keep-alive connections park instead of pinning a worker.
//! * [`transport`] — the client-side [`Transport`] abstraction with two
//!   implementations: a real [`transport::HttpTransport`] (one connection
//!   per call, as in 2002) and an [`transport::InMemoryTransport`] that
//!   still frames messages to bytes so that byte counts stay honest while
//!   removing kernel networking from micro-benchmarks.
//! * [`pool`] — the modern counterpoint: a [`pool::PooledTransport`]
//!   drawing keep-alive connections from a shared per-endpoint
//!   [`pool::Pool`], with per-request deadlines and bounded
//!   idempotent-only retry. The experiments run both regimes side by side.
//! * [`stats`] — atomic counters for requests, connections, bytes, and
//!   pool behavior (reuse, evictions, retries, timeouts), read by the
//!   experiment harness.
//! * [`chaos`] — deterministic, seed-driven fault injection: a client-side
//!   [`chaos::ChaosTransport`] wrapper and a server-side response hook
//!   ([`chaos::ServerChaos`]), every decision replayable from a printed
//!   seed and counted per fault class in [`stats`].

pub mod arc_cell;
pub mod chaos;
pub mod http;
pub mod pool;
pub mod reactor;
pub mod server;
pub mod stats;
pub mod transport;

pub use arc_cell::ArcCell;
pub use chaos::{
    derive_seed, ChaosConfig, ChaosRng, ChaosTransport, SeededServerChaos, ServerChaos,
    ServerChaosConfig, ServerFault,
};
pub use http::{
    wants_keep_alive, Request, RequestParser, Response, Status, MAX_BODY_BYTES, MAX_HEAD_BYTES,
    RETRY_AFTER_HEADER, RETRY_AFTER_MS_HEADER,
};
pub use pool::{
    Deadline, Pool, PoolConfig, PooledTransport, RetryPolicy, CACHE_FILL_HEADER, DEADLINE_HEADER,
    IDEMPOTENT_HEADER,
};
pub use server::{Handler, HttpServer, Router, ServerArm, ServerConfig, ServerHandle};
pub use stats::{ChaosClass, StatsSnapshot, WireStats};
pub use transport::{HttpTransport, InMemoryTransport, Transport};

use std::fmt;

/// Errors raised by the wire layer.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket I/O failed.
    Io(std::io::Error),
    /// The peer sent a frame we could not parse.
    BadFrame(String),
    /// The response indicated an HTTP-level failure.
    HttpStatus(u16, String),
    /// The call's deadline expired before a response arrived.
    Timeout(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::BadFrame(msg) => write!(f, "bad frame: {msg}"),
            WireError::HttpStatus(code, reason) => write!(f, "http {code} {reason}"),
            WireError::Timeout(msg) => write!(f, "deadline exceeded: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, WireError>;
