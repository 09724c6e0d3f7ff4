//! HTTP handler that publishes WSDL documents.
//!
//! Figure 1: "The UDDI maintains links to the service providers' WSDL
//! files and server URLs." Each SOAP Service Provider therefore also
//! serves its interface definitions over plain GET; this handler mounts at
//! `/wsdl` and answers `/wsdl/<ServiceName>`.

use std::collections::HashMap;

use parking_lot::RwLock;
use portalws_soap::SoapService;
use portalws_wire::{Handler, Request, Response, Status};

use crate::model::WsdlDefinition;

/// Serves WSDL documents for a set of services.
#[derive(Default)]
pub struct WsdlHandler {
    defs: RwLock<HashMap<String, WsdlDefinition>>,
}

impl WsdlHandler {
    /// New empty publisher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish an explicit definition.
    pub fn publish(&self, wsdl: WsdlDefinition) {
        self.defs.write().insert(wsdl.service.clone(), wsdl);
    }

    /// Publish the generated definition of a live service with its
    /// endpoint location.
    pub fn publish_service(&self, service: &dyn SoapService, endpoint: impl Into<String>) {
        self.publish(WsdlDefinition::from_service(service).with_endpoint(endpoint));
    }

    /// Retrieve a published definition.
    pub fn get(&self, service: &str) -> Option<WsdlDefinition> {
        self.defs.read().get(service).cloned()
    }

    /// Names of all published services.
    pub fn services(&self) -> Vec<String> {
        let mut names: Vec<String> = self.defs.read().keys().cloned().collect();
        names.sort();
        names
    }
}

impl Handler for WsdlHandler {
    fn handle(&self, req: &Request) -> Response {
        let service = req
            .path_only()
            .trim_start_matches('/')
            .split('/')
            .nth(1)
            .unwrap_or("");
        match self.get(service) {
            Some(wsdl) => Response::xml(wsdl.to_xml().to_document()),
            None => Response::error(Status::NotFound, format!("no WSDL for {service:?}")),
        }
    }
}

/// Fetch and parse a WSDL document from a transport (the Fig. 1 "examine
/// then bind" step).
pub fn fetch_wsdl(
    transport: &dyn portalws_wire::Transport,
    service: &str,
) -> crate::Result<WsdlDefinition> {
    WsdlDefinition::from_xml(&fetch_wsdl_root(transport, service)?)
}

/// The raw fetch: GET the document and parse it to a DOM root.
fn fetch_wsdl_root(
    transport: &dyn portalws_wire::Transport,
    service: &str,
) -> crate::Result<portalws_xml::Element> {
    let resp = transport
        .round_trip(Request::get(format!("/wsdl/{service}")))
        .map_err(|e| crate::WsdlError::Parse(format!("wsdl fetch failed: {e}")))?;
    if resp.status != Status::Ok {
        return Err(crate::WsdlError::Parse(format!(
            "wsdl fetch returned {}",
            resp.status.code()
        )));
    }
    portalws_xml::Element::parse(&resp.body_str())
        .map_err(|e| crate::WsdlError::Parse(format!("wsdl xml: {e}")))
}

/// Pseudo-service name WSDL documents are cached under (interface
/// definitions come over plain GET, not SOAP, so there is no real service
/// name on the wire to key by).
pub const WSDL_CACHE_SERVICE: &str = "__wsdl__";

/// Like [`fetch_wsdl`], but served through a [`ReadCache`]: repeated
/// binds of the same service skip the GET entirely within the cache TTL,
/// and concurrent binds coalesce onto one fetch. WSDL documents carry no
/// mutation generation (interface definitions change on redeploy, not at
/// runtime), so entries are TTL-bounded only. The cached artifact is the
/// parsed DOM root, shared with the cache rather than copied out of it;
/// stub generation from it still runs per call.
///
/// `endpoint` identifies *which host* the transport reaches (resolved
/// URL or host name) and is folded into the cache key: one shared cache
/// may front binds to several hosts, and two hosts exposing a service
/// with the same name must not collide on one entry.
pub fn fetch_wsdl_cached(
    transport: &dyn portalws_wire::Transport,
    endpoint: &str,
    service: &str,
    cache: &portalws_soap::ReadCache,
) -> crate::Result<WsdlDefinition> {
    let fetch = || {
        fetch_wsdl_root(transport, service).map(|root| (portalws_soap::SoapValue::Xml(root), None))
    };
    let value = cache.get_or_fetch(
        WSDL_CACHE_SERVICE,
        service,
        portalws_soap::fnv1a(endpoint.as_bytes()),
        None,
        &fetch,
    )?;
    let root = value
        .as_xml()
        .ok_or_else(|| crate::WsdlError::Parse("cached WSDL is not XML".into()))?;
    WsdlDefinition::from_xml(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_support::FakeScriptgen;
    use portalws_wire::InMemoryTransport;
    use std::sync::Arc;

    #[test]
    fn serves_published_wsdl() {
        let h = WsdlHandler::new();
        h.publish_service(&FakeScriptgen, "http://127.0.0.1:1/soap/BatchScriptGen");
        let resp = h.handle(&Request::get("/wsdl/BatchScriptGen"));
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.body_str().contains("generateScript"));
    }

    #[test]
    fn unknown_service_404() {
        let h = WsdlHandler::new();
        assert_eq!(
            h.handle(&Request::get("/wsdl/Ghost")).status,
            Status::NotFound
        );
    }

    #[test]
    fn fetch_round_trip() {
        let h = WsdlHandler::new();
        h.publish_service(&FakeScriptgen, "http://127.0.0.1:1/soap/BatchScriptGen");
        let transport = InMemoryTransport::new(Arc::new(h));
        let wsdl = fetch_wsdl(&transport, "BatchScriptGen").unwrap();
        assert_eq!(wsdl.service, "BatchScriptGen");
        assert_eq!(
            wsdl.endpoint.as_deref(),
            Some("http://127.0.0.1:1/soap/BatchScriptGen")
        );
        assert_eq!(wsdl.operations.len(), 2);
    }

    #[test]
    fn fetch_missing_errors() {
        let h = WsdlHandler::new();
        let transport = InMemoryTransport::new(Arc::new(h));
        assert!(fetch_wsdl(&transport, "Ghost").is_err());
    }

    #[test]
    fn cached_fetch_skips_the_wire_on_rebind() {
        use portalws_soap::{ReadCache, ReadCacheConfig};
        use portalws_wire::Handler;
        use std::sync::atomic::{AtomicU64, Ordering};

        let h = WsdlHandler::new();
        h.publish_service(&FakeScriptgen, "http://x/soap/BatchScriptGen");
        let inner: Arc<dyn Handler> = Arc::new(h);
        let gets = Arc::new(AtomicU64::new(0));
        let observer = Arc::clone(&gets);
        let handler: Arc<dyn Handler> = Arc::new(move |req: &Request| {
            observer.fetch_add(1, Ordering::SeqCst);
            inner.handle(req)
        });
        let transport = InMemoryTransport::new(handler);
        let cache = ReadCache::new(ReadCacheConfig::default());
        for _ in 0..5 {
            let wsdl = fetch_wsdl_cached(&transport, "http://x", "BatchScriptGen", &cache).unwrap();
            assert_eq!(wsdl.operations.len(), 2);
        }
        assert_eq!(
            gets.load(Ordering::SeqCst),
            1,
            "four rebinds were cache hits"
        );
        // A missing service errors every time — failures are not cached.
        assert!(fetch_wsdl_cached(&transport, "http://x", "Ghost", &cache).is_err());
        assert!(fetch_wsdl_cached(&transport, "http://x", "Ghost", &cache).is_err());
        assert_eq!(gets.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn same_service_name_on_two_hosts_does_not_collide_in_the_cache() {
        use portalws_soap::{ReadCache, ReadCacheConfig};

        // Two independent deployments of the same service name behind one
        // shared cache: each bind must receive its own host's WSDL.
        let mk = |endpoint: &str| {
            let h = WsdlHandler::new();
            h.publish_service(&FakeScriptgen, endpoint);
            InMemoryTransport::new(Arc::new(h))
        };
        let iu = mk("http://gateway.iu.edu/soap/BatchScriptGen");
        let sdsc = mk("http://hotpage.sdsc.edu/soap/BatchScriptGen");
        let cache = ReadCache::new(ReadCacheConfig::default());

        let wsdl_iu =
            fetch_wsdl_cached(&iu, "http://gateway.iu.edu", "BatchScriptGen", &cache).unwrap();
        let wsdl_sdsc =
            fetch_wsdl_cached(&sdsc, "http://hotpage.sdsc.edu", "BatchScriptGen", &cache).unwrap();
        assert_eq!(
            wsdl_iu.endpoint.as_deref(),
            Some("http://gateway.iu.edu/soap/BatchScriptGen")
        );
        assert_eq!(
            wsdl_sdsc.endpoint.as_deref(),
            Some("http://hotpage.sdsc.edu/soap/BatchScriptGen"),
            "second host must not be served the first host's cached WSDL"
        );
        assert_eq!(cache.entry_count(), 2, "one entry per endpoint");
    }

    #[test]
    fn services_listing() {
        let h = WsdlHandler::new();
        h.publish_service(&FakeScriptgen, "http://x/soap/BatchScriptGen");
        assert_eq!(h.services(), vec!["BatchScriptGen".to_string()]);
    }
}
