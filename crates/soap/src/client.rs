//! Client-side proxy to a remote SOAP service.
//!
//! The Figure 1 User Interface server "maintains client proxies to the
//! UDDI and SOAP Service Providers"; [`SoapClient`] is such a proxy. It is
//! transport-agnostic (real HTTP or in-memory) and supports an installable
//! *header supplier* so the auth layer can attach a fresh signed SAML
//! assertion to every outgoing call without the call sites knowing.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use portalws_wire::{
    Request, Transport, WireError, CACHE_FILL_HEADER, DEADLINE_HEADER, IDEMPOTENT_HEADER,
};
use portalws_xml::{Element, XmlError};

use crate::cache::{fnv1a, ReadCache};
use crate::envelope::{body_text, Envelope};
use crate::fault::Fault;
use crate::server::{endpoint_path, GENERATION_HEADER};
use crate::value::SoapValue;

/// Errors seen by SOAP callers.
#[derive(Debug)]
pub enum SoapError {
    /// The wire transport failed.
    Transport(WireError),
    /// The response was not a parsable envelope.
    Protocol(String),
    /// The response XML failed to parse.
    Xml(XmlError),
    /// The service returned a SOAP fault (possibly with a typed portal
    /// error in its detail).
    Fault(Fault),
}

impl fmt::Display for SoapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoapError::Transport(e) => write!(f, "transport: {e}"),
            SoapError::Protocol(msg) => write!(f, "protocol: {msg}"),
            SoapError::Xml(e) => write!(f, "xml: {e}"),
            SoapError::Fault(fault) => write!(f, "{fault}"),
        }
    }
}

impl std::error::Error for SoapError {}

impl From<WireError> for SoapError {
    fn from(e: WireError) -> Self {
        SoapError::Transport(e)
    }
}

impl From<XmlError> for SoapError {
    fn from(e: XmlError) -> Self {
        SoapError::Xml(e)
    }
}

impl SoapError {
    /// The fault, if this error is one.
    pub fn as_fault(&self) -> Option<&Fault> {
        match self {
            SoapError::Fault(f) => Some(f),
            _ => None,
        }
    }
}

/// Supplies SOAP header entries for every outgoing call (e.g. a signed
/// SAML assertion from the auth layer).
pub type HeaderSupplier = Arc<dyn Fn() -> Vec<Element> + Send + Sync>;

/// Verifies the *reply* envelope before its value is returned (the
/// client half of mutual authentication). Return an error string to
/// reject the reply.
pub type ReplyVerifier = Arc<dyn Fn(&Envelope) -> std::result::Result<(), String> + Send + Sync>;

/// A client proxy bound to one service on one transport.
pub struct SoapClient {
    transport: Arc<dyn Transport>,
    service: String,
    path: String,
    header_supplier: RwLock<Option<HeaderSupplier>>,
    reply_verifier: RwLock<Option<ReplyVerifier>>,
    /// Methods safe to re-send after a transport failure; calls to these
    /// carry the wire layer's idempotency marker so a pooled transport's
    /// [`portalws_wire::RetryPolicy`] may retry them.
    idempotent_methods: RwLock<HashSet<String>>,
    /// Per-call wall-clock budget attached to every request; honored by
    /// deadline-aware transports ([`portalws_wire::PooledTransport`]),
    /// ignored by the 2002-regime ones.
    call_deadline: RwLock<Option<Duration>>,
    /// Versioned read cache with single-flight coalescing; applies only
    /// to methods in `cacheable_methods`.
    read_cache: RwLock<Option<Arc<ReadCache>>>,
    /// Methods whose results may be served from the read cache — pure
    /// reads (WSDL fetches, UDDI find/get, descriptor reads).
    cacheable_methods: RwLock<HashSet<String>>,
}

impl SoapClient {
    /// Bind a proxy for `service` over `transport` at the canonical
    /// `/soap/<service>` path.
    pub fn new(transport: Arc<dyn Transport>, service: impl Into<String>) -> SoapClient {
        let service = service.into();
        let path = endpoint_path(&service);
        SoapClient {
            transport,
            service,
            path,
            header_supplier: RwLock::new(None),
            reply_verifier: RwLock::new(None),
            idempotent_methods: RwLock::new(HashSet::new()),
            call_deadline: RwLock::new(None),
            read_cache: RwLock::new(None),
            cacheable_methods: RwLock::new(HashSet::new()),
        }
    }

    /// Service name this proxy is bound to.
    pub fn service(&self) -> &str {
        &self.service
    }

    /// The transport in use (for stats inspection).
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Install a header supplier applied to every call.
    pub fn set_header_supplier(&self, supplier: HeaderSupplier) {
        *self.header_supplier.write() = Some(supplier);
    }

    /// Install a reply verifier: every reply envelope (including faults)
    /// must pass before its value is surfaced — mutual authentication's
    /// client half.
    pub fn set_reply_verifier(&self, verifier: ReplyVerifier) {
        *self.reply_verifier.write() = Some(verifier);
    }

    /// Declare `methods` safe to re-send after a transport failure
    /// (queries, lookups, status polls — anything without side effects).
    /// Calls to them are marked idempotent on the wire, which is the
    /// precondition for a pooled transport's retry policy to apply.
    pub fn set_idempotent_methods(&self, methods: &[&str]) {
        let mut set = self.idempotent_methods.write();
        set.clear();
        set.extend(methods.iter().map(|m| (*m).to_owned()));
    }

    /// Like [`SoapClient::set_idempotent_methods`] but additive: marks
    /// `methods` without unmarking what is already declared. Layers that
    /// decorate an existing proxy (e.g. the chunked transfer client) use
    /// this so they never clobber the owner's declarations.
    pub fn add_idempotent_methods(&self, methods: &[&str]) {
        let mut set = self.idempotent_methods.write();
        set.extend(methods.iter().map(|m| (*m).to_owned()));
    }

    /// Attach a wall-clock `budget` to every subsequent call. The budget
    /// rides the request as a header; deadline-aware transports enforce
    /// it across dial, exchange, and retries.
    pub fn set_call_deadline(&self, budget: Duration) {
        *self.call_deadline.write() = Some(budget);
    }

    /// Install a read cache and declare which `methods` are cacheable.
    /// Only pure reads belong here (WSDL fetches, UDDI find/get,
    /// descriptor reads); everything else keeps going straight to the
    /// wire. The cache may be shared across clients, but entries are
    /// keyed per service so sharing never mixes results.
    pub fn enable_read_cache(&self, cache: Arc<ReadCache>, methods: &[&str]) {
        *self.read_cache.write() = Some(cache);
        let mut set = self.cacheable_methods.write();
        set.clear();
        set.extend(methods.iter().map(|m| (*m).to_owned()));
    }

    /// The read cache, if one is installed (stats inspection).
    pub fn read_cache(&self) -> Option<Arc<ReadCache>> {
        self.read_cache.read().clone()
    }

    /// Invoke `method` with positional arguments, each copied once, into
    /// the request envelope.
    pub fn call(&self, method: &str, args: &[SoapValue]) -> Result<SoapValue, SoapError> {
        self.call_envelope(Envelope::request(
            &self.service,
            method,
            args.iter().cloned(),
        ))
    }

    /// Invoke `method` with named arguments.
    pub fn call_named(
        &self,
        method: &str,
        args: &[(&str, SoapValue)],
    ) -> Result<SoapValue, SoapError> {
        let env = Envelope::request_named(&self.service, method, args.iter().map(|(n, v)| (*n, v)));
        self.call_envelope(env)
    }

    /// Invoke with a fully built envelope (headers may already be set; the
    /// supplier's headers are appended).
    ///
    /// If a read cache is installed and the method is declared cacheable,
    /// the call is served through it: the cache key digests the request
    /// *body* only (supplier headers such as per-call assertions must not
    /// fragment keys), concurrent identical calls coalesce onto one wire
    /// call, and stale-past-TTL versioned entries revalidate with a
    /// `generation` probe instead of a body refetch.
    pub fn call_envelope(&self, mut envelope: Envelope) -> Result<SoapValue, SoapError> {
        if let Some(supplier) = self.header_supplier.read().clone() {
            envelope.headers.extend(supplier());
        }
        let cacheable = self.cacheable_methods.read().contains(envelope.method());
        let cache = if cacheable {
            self.read_cache.read().clone()
        } else {
            None
        };
        match cache {
            Some(cache) => {
                let mut body = String::new();
                envelope.write_body_into(&mut body);
                let digest = fnv1a(body.as_bytes());
                let probe = || self.probe_generation();
                let fetch = || self.exchange(&envelope, true);
                // Entries are shared; the caller gets its own copy.
                cache
                    .get_or_fetch(
                        &self.service,
                        envelope.method(),
                        digest,
                        Some(&probe),
                        &fetch,
                    )
                    .map(Arc::unwrap_or_clone)
            }
            None => self.exchange(&envelope, false).map(|(value, _)| value),
        }
    }

    /// One wire round trip: serialize, send, parse, verify. Returns the
    /// reply value and the service generation piggybacked on the reply
    /// header, if any. Every observed generation — including those on
    /// faults and mutation replies — is fed to the read cache so stale
    /// entries die at the next lookup.
    fn exchange(
        &self,
        envelope: &Envelope,
        cache_fill: bool,
    ) -> Result<(SoapValue, Option<u64>), SoapError> {
        let mut req = Request::post(self.path.clone(), envelope.to_xml())
            .with_header("Content-Type", "text/xml; charset=utf-8")
            .with_header(
                "SOAPAction",
                format!("urn:{}#{}", self.service, envelope.method()),
            );
        if cache_fill {
            // Lets the pool attribute this reuse to the caching layer.
            req = req.with_header(CACHE_FILL_HEADER, "true");
        }
        if self.idempotent_methods.read().contains(envelope.method()) {
            req = req.with_header(IDEMPOTENT_HEADER, "true");
        }
        // Effective budget: the tighter of this client's configured
        // per-call deadline and any budget inherited from an enclosing
        // dispatch (see [`crate::deadline`]). A spent inherited budget
        // fails fast — no wire call can possibly complete in time.
        let inherited = crate::deadline::remaining();
        if inherited == Some(Duration::ZERO) {
            return Err(SoapError::Fault(Fault::portal(
                crate::fault::PortalErrorKind::DeadlineExceeded,
                format!(
                    "deadline budget spent before calling {}.{}",
                    self.service,
                    envelope.method()
                ),
            )));
        }
        let explicit = *self.call_deadline.read();
        let budget = match (explicit, inherited) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if let Some(budget) = budget {
            // Round up to a whole millisecond so a nonzero budget never
            // serializes as an already-expired "0".
            req = req.with_header(DEADLINE_HEADER, budget.as_millis().max(1).to_string());
        }
        let resp = self.transport.round_trip(req)?;
        let reply = Envelope::parse(&body_text(&resp.body))
            .map_err(|e| SoapError::Protocol(format!("unparsable reply: {e}")))?;
        let generation = reply
            .header(GENERATION_HEADER)
            .and_then(|h| h.text().trim().parse::<u64>().ok());
        if let (Some(generation), Some(cache)) = (generation, self.read_cache.read().as_ref()) {
            cache.observe_generation(&self.service, generation);
        }
        if let Some(verifier) = self.reply_verifier.read().clone() {
            verifier(&reply)
                .map_err(|msg| SoapError::Protocol(format!("reply rejected: {msg}")))?;
        }
        if let Some(fault) = reply.as_fault() {
            return Err(SoapError::Fault(fault));
        }
        let value = reply.into_return_value().map_err(SoapError::Protocol)?;
        Ok((value, generation))
    }

    /// Cheap revalidation probe: ask the service for its current mutation
    /// generation (every versioned service exposes a `generation` method).
    /// `None` when the service is unreachable or unversioned — the cache
    /// then treats the entry as unprovable and refetches.
    fn probe_generation(&self) -> Option<u64> {
        let mut envelope = Envelope::request(&self.service, "generation", []);
        if let Some(supplier) = self.header_supplier.read().clone() {
            envelope.headers.extend(supplier());
        }
        let (value, generation) = self.exchange(&envelope, false).ok()?;
        // Checked conversion on the body fallback: a negative or garbage
        // reply must not wrap into a huge generation — observe_generation
        // only ever advances, so one bad probe would permanently
        // invalidate every future entry for the service.
        generation.or_else(|| value.as_i64().and_then(|g| u64::try_from(g).ok()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::PortalErrorKind;
    use crate::server::test_support::Calculator;
    use crate::server::SoapServer;
    use portalws_wire::{Handler, HttpServer, HttpTransport, InMemoryTransport};

    fn in_memory_client() -> SoapClient {
        let server = SoapServer::new();
        server.mount(Arc::new(Calculator));
        let handler: Arc<dyn Handler> = Arc::new(server);
        SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "Calc")
    }

    #[test]
    fn call_success() {
        let client = in_memory_client();
        let out = client
            .call("add", &[SoapValue::Int(20), SoapValue::Int(22)])
            .unwrap();
        assert_eq!(out, SoapValue::Int(42));
    }

    #[test]
    fn call_named_success() {
        let client = in_memory_client();
        let out = client
            .call_named("echo", &[("value", SoapValue::str("marco"))])
            .unwrap();
        assert_eq!(out, SoapValue::str("marco"));
    }

    #[test]
    fn fault_surfaces_typed_error() {
        let client = in_memory_client();
        let err = client.call("add", &[SoapValue::str("bad")]).unwrap_err();
        let fault = err.as_fault().expect("fault");
        assert_eq!(fault.kind(), Some(PortalErrorKind::BadArguments));
    }

    #[test]
    fn unknown_method_is_fault() {
        let client = in_memory_client();
        assert!(matches!(
            client.call("frobnicate", &[]),
            Err(SoapError::Fault(_))
        ));
    }

    #[test]
    fn header_supplier_attaches_headers() {
        let server = SoapServer::new();
        server.mount(Arc::new(Calculator));
        server.set_guard(Arc::new(|ctx| {
            if ctx.header("Token").is_some() {
                Ok(())
            } else {
                Err(Fault::portal(PortalErrorKind::AuthFailed, "no token"))
            }
        }));
        let handler: Arc<dyn Handler> = Arc::new(server);
        let client = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "Calc");

        // Without supplier: rejected.
        assert!(client.call("echo", &[SoapValue::str("x")]).is_err());

        client.set_header_supplier(Arc::new(|| vec![Element::new("Token").with_text("t")]));
        assert_eq!(
            client.call("echo", &[SoapValue::str("x")]).unwrap(),
            SoapValue::str("x")
        );
    }

    #[test]
    fn over_real_http() {
        let soap = SoapServer::new();
        soap.mount(Arc::new(Calculator));
        let handler: Arc<dyn Handler> = Arc::new(soap);
        let server = HttpServer::start(handler, 2).unwrap();
        let client = SoapClient::new(Arc::new(HttpTransport::new(server.addr())), "Calc");
        assert_eq!(
            client
                .call("add", &[SoapValue::Int(4), SoapValue::Int(5)])
                .unwrap(),
            SoapValue::Int(9)
        );
        server.shutdown();
    }

    #[test]
    fn pooled_transport_reuses_connections_across_soap_calls() {
        use portalws_wire::PooledTransport;
        let soap = SoapServer::new();
        soap.mount(Arc::new(Calculator));
        let handler: Arc<dyn Handler> = Arc::new(soap);
        let server = HttpServer::start(handler, 2).unwrap();
        let client = SoapClient::new(Arc::new(PooledTransport::new(server.addr())), "Calc");
        for i in 0..5 {
            assert_eq!(
                client
                    .call("add", &[SoapValue::Int(i), SoapValue::Int(1)])
                    .unwrap(),
                SoapValue::Int(i + 1)
            );
        }
        let snap = client.transport().stats().snapshot();
        assert_eq!(snap.connections, 1, "pool amortized the per-call dial");
        assert_eq!(snap.pool_reuse_hits, 4);
        server.shutdown();
    }

    #[test]
    fn over_the_reactor_server_arm() {
        // The SOAP glue is arm-agnostic: the same SoapServer handler
        // round-trips over the epoll reactor, and pooled keep-alive
        // connections stay reusable across calls.
        use portalws_wire::PooledTransport;
        let soap = SoapServer::new();
        soap.mount(Arc::new(Calculator));
        let handler: Arc<dyn Handler> = Arc::new(soap);
        let server = HttpServer::start_reactor(handler, 2).unwrap();
        let client = SoapClient::new(Arc::new(PooledTransport::new(server.addr())), "Calc");
        for i in 0..5 {
            assert_eq!(
                client
                    .call("add", &[SoapValue::Int(i), SoapValue::Int(1)])
                    .unwrap(),
                SoapValue::Int(i + 1)
            );
        }
        let snap = client.transport().stats().snapshot();
        assert_eq!(snap.connections, 1, "reactor kept the connection alive");
        assert_eq!(snap.pool_reuse_hits, 4);
        server.shutdown();
    }

    #[test]
    fn idempotent_and_deadline_markers_ride_the_request() {
        use parking_lot::Mutex;
        use portalws_wire::{DEADLINE_HEADER, IDEMPOTENT_HEADER};
        let soap = SoapServer::new();
        soap.mount(Arc::new(Calculator));
        let inner: Arc<dyn Handler> = Arc::new(soap);
        type SeenMarkers = Vec<(bool, Option<String>)>;
        let seen: Arc<Mutex<SeenMarkers>> = Arc::new(Mutex::new(Vec::new()));
        let observer = Arc::clone(&seen);
        let handler: Arc<dyn Handler> = Arc::new(move |req: &Request| {
            observer.lock().push((
                req.header(IDEMPOTENT_HEADER).is_some(),
                req.header(DEADLINE_HEADER).map(str::to_owned),
            ));
            inner.handle(req)
        });
        let client = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "Calc");
        client.set_idempotent_methods(&["echo"]);
        client.set_call_deadline(std::time::Duration::from_millis(1500));

        client.call("echo", &[SoapValue::str("x")]).unwrap();
        client
            .call("add", &[SoapValue::Int(1), SoapValue::Int(2)])
            .unwrap();

        let seen = seen.lock();
        assert_eq!(seen[0], (true, Some("1500".into())), "echo is idempotent");
        assert_eq!(
            seen[1],
            (false, Some("1500".into())),
            "add is not marked idempotent"
        );
    }

    #[test]
    fn inherited_budget_tightens_the_deadline_header() {
        use parking_lot::Mutex;
        use portalws_wire::DEADLINE_HEADER;
        let soap = SoapServer::new();
        soap.mount(Arc::new(Calculator));
        let inner: Arc<dyn Handler> = Arc::new(soap);
        let seen: Arc<Mutex<Vec<Option<u64>>>> = Arc::new(Mutex::new(Vec::new()));
        let observer = Arc::clone(&seen);
        let handler: Arc<dyn Handler> = Arc::new(move |req: &Request| {
            observer.lock().push(
                req.header(DEADLINE_HEADER)
                    .and_then(|v| v.parse::<u64>().ok()),
            );
            inner.handle(req)
        });
        let client = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "Calc");
        client.set_call_deadline(std::time::Duration::from_millis(1500));

        // Enclosing budget tighter than the configured deadline wins.
        {
            let _scope = crate::deadline::install(std::time::Duration::from_millis(100));
            client.call("echo", &[SoapValue::str("x")]).unwrap();
        }
        // Looser enclosing budget leaves the configured deadline alone.
        {
            let _scope = crate::deadline::install(std::time::Duration::from_secs(60));
            client.call("echo", &[SoapValue::str("x")]).unwrap();
        }
        // No configured deadline: the inherited budget still rides alone.
        let bare = in_memory_client();
        {
            let _scope = crate::deadline::install(std::time::Duration::from_millis(250));
            bare.call("echo", &[SoapValue::str("x")]).unwrap();
        }

        let seen = seen.lock();
        let tightened = seen[0].expect("deadline header present");
        assert!(
            tightened > 0 && tightened <= 100,
            "inherited 100 ms budget capped the header, got {tightened}"
        );
        assert_eq!(seen[1], Some(1500), "60 s inherited budget did not loosen");
    }

    #[test]
    fn spent_inherited_budget_fails_fast_without_a_wire_call() {
        use parking_lot::Mutex;
        let soap = SoapServer::new();
        soap.mount(Arc::new(Calculator));
        let inner: Arc<dyn Handler> = Arc::new(soap);
        let calls = Arc::new(Mutex::new(0u32));
        let observer = Arc::clone(&calls);
        let handler: Arc<dyn Handler> = Arc::new(move |req: &Request| {
            *observer.lock() += 1;
            inner.handle(req)
        });
        let client = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "Calc");

        let _scope = crate::deadline::install(std::time::Duration::ZERO);
        let err = client.call("echo", &[SoapValue::str("x")]).unwrap_err();
        let fault = err.as_fault().expect("typed fault");
        assert_eq!(fault.kind(), Some(PortalErrorKind::DeadlineExceeded));
        assert_eq!(*calls.lock(), 0, "no wire call once the budget is spent");
    }

    #[test]
    fn transport_error_propagates() {
        let client = SoapClient::new(Arc::new(HttpTransport::new("127.0.0.1:1")), "Calc");
        assert!(matches!(
            client.call("add", &[]),
            Err(SoapError::Transport(_))
        ));
    }

    /// Wrap `inner` so every wire call is counted; returns the handler
    /// and the counter.
    fn counting_handler(
        inner: Arc<dyn Handler>,
    ) -> (Arc<dyn Handler>, Arc<std::sync::atomic::AtomicU64>) {
        use std::sync::atomic::{AtomicU64, Ordering};
        let calls = Arc::new(AtomicU64::new(0));
        let observer = Arc::clone(&calls);
        let handler: Arc<dyn Handler> = Arc::new(move |req: &Request| {
            observer.fetch_add(1, Ordering::SeqCst);
            inner.handle(req)
        });
        (handler, calls)
    }

    #[test]
    fn cacheable_method_served_from_cache() {
        use crate::cache::{ReadCache, ReadCacheConfig};
        let soap = SoapServer::new();
        soap.mount(Arc::new(Calculator));
        let (handler, calls) = counting_handler(Arc::new(soap));
        let client = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "Calc");
        let cache = Arc::new(ReadCache::new(ReadCacheConfig::default()));
        client.enable_read_cache(Arc::clone(&cache), &["echo"]);

        for _ in 0..4 {
            assert_eq!(
                client.call("echo", &[SoapValue::str("x")]).unwrap(),
                SoapValue::str("x")
            );
        }
        // One fill, three hits; non-cacheable methods still hit the wire.
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        client
            .call("add", &[SoapValue::Int(1), SoapValue::Int(2)])
            .unwrap();
        client
            .call("add", &[SoapValue::Int(1), SoapValue::Int(2)])
            .unwrap();
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 3);
        let snap = cache.stats().snapshot();
        assert_eq!(snap.cache_hits, 3);
        assert_eq!(snap.cache_misses, 1);
        // Distinct args are distinct cache keys.
        assert_eq!(
            client.call("echo", &[SoapValue::str("y")]).unwrap(),
            SoapValue::str("y")
        );
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 4);
    }

    #[test]
    fn coalesced_identical_lookups_issue_one_wire_call() {
        // Satellite: M threads issuing the identical cacheable lookup
        // against a counting transport produce exactly one wire call and
        // M identical results. The handler holds the leader's call open
        // until released, so every other thread provably arrives while
        // the flight is pending and parks on it.
        use crate::cache::{ReadCache, ReadCacheConfig};
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Barrier;

        const M: usize = 8;
        let soap = SoapServer::new();
        soap.mount(Arc::new(Calculator));
        let inner: Arc<dyn Handler> = Arc::new(soap);
        let calls = Arc::new(AtomicU64::new(0));
        let release = Arc::new(AtomicBool::new(false));
        let (observer, gate) = (Arc::clone(&calls), Arc::clone(&release));
        let handler: Arc<dyn Handler> = Arc::new(move |req: &Request| {
            observer.fetch_add(1, Ordering::SeqCst);
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            inner.handle(req)
        });
        let client = Arc::new(SoapClient::new(
            Arc::new(InMemoryTransport::new(handler)),
            "Calc",
        ));
        let cache = Arc::new(ReadCache::new(ReadCacheConfig::default()));
        client.enable_read_cache(Arc::clone(&cache), &["echo"]);

        let barrier = Arc::new(Barrier::new(M));
        let workers: Vec<_> = (0..M)
            .map(|_| {
                let client = Arc::clone(&client);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    client.call("echo", &[SoapValue::str("same")])
                })
            })
            .collect();
        // Give every non-leader time to park on the flight, then let the
        // leader's wire call complete.
        std::thread::sleep(Duration::from_millis(100));
        release.store(true, Ordering::SeqCst);

        for worker in workers {
            let value = worker.join().expect("no stuck or panicked waiter");
            assert_eq!(value.unwrap(), SoapValue::str("same"));
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1, "exactly one wire call");
        let snap = cache.stats().snapshot();
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(
            snap.coalesced_calls + snap.cache_hits,
            (M - 1) as u64,
            "every other caller was served without a wire call"
        );
    }

    #[test]
    fn failed_leader_does_not_strand_followers() {
        // Chaos variant: the leader's wire call fails (unparsable reply).
        // Followers must wake, re-race for leadership, and succeed on the
        // retry — no waiter parks forever behind a dead leader.
        use crate::cache::{ReadCache, ReadCacheConfig};
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Barrier;

        const M: usize = 6;
        let soap = SoapServer::new();
        soap.mount(Arc::new(Calculator));
        let inner: Arc<dyn Handler> = Arc::new(soap);
        let calls = Arc::new(AtomicU64::new(0));
        let release = Arc::new(AtomicBool::new(false));
        let (observer, gate) = (Arc::clone(&calls), Arc::clone(&release));
        let handler: Arc<dyn Handler> = Arc::new(move |req: &Request| {
            let n = observer.fetch_add(1, Ordering::SeqCst);
            if n == 0 {
                // First (leader) call: hold until followers are parked,
                // then fail with a body that cannot parse as an envelope.
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return portalws_wire::Response::ok("text/xml", "garbage");
            }
            inner.handle(req)
        });
        let client = Arc::new(SoapClient::new(
            Arc::new(InMemoryTransport::new(handler)),
            "Calc",
        ));
        let cache = Arc::new(ReadCache::new(ReadCacheConfig::default()));
        client.enable_read_cache(Arc::clone(&cache), &["echo"]);

        let barrier = Arc::new(Barrier::new(M));
        let workers: Vec<_> = (0..M)
            .map(|_| {
                let client = Arc::clone(&client);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    client.call("echo", &[SoapValue::str("same")])
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        release.store(true, Ordering::SeqCst);

        let results: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("no stuck or panicked waiter"))
            .collect();
        let failures = results.iter().filter(|r| r.is_err()).count();
        let successes = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(failures, 1, "only the failed leader surfaces the error");
        assert_eq!(successes, M - 1, "every follower retried and succeeded");
        for r in results.iter().flatten() {
            assert_eq!(*r, SoapValue::str("same"));
        }
        // The retry path issued exactly one more wire call.
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }
}
