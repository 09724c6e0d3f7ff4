//! Server-side SOAP dispatch: the SOAP Service Provider (SSP) of Figure 1.
//!
//! A [`SoapServer`] mounts one or more [`SoapService`]s and implements the
//! wire [`Handler`] trait, so it can be served by `wire::HttpServer` or
//! driven directly through an in-memory transport. Services are addressed
//! by path: `POST /soap/<ServiceName>`.
//!
//! A [`Guard`] hook runs before dispatch; the auth crate installs one that
//! forwards the envelope's SAML assertion to the Authentication Service —
//! the Figure 2 "atomic step" in which the SSP "does not check the
//! signature of the request directly but instead forwards to the
//! Authentication Service".

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use portalws_wire::{
    Handler, Request, Response, Status, DEADLINE_HEADER, RETRY_AFTER_HEADER, RETRY_AFTER_MS_HEADER,
};
use portalws_xml::Element;

use crate::envelope::{body_text, Envelope};
use crate::fault::Fault;
use crate::value::{SoapType, SoapValue};
use crate::SoapResult;

/// Per-call context handed to service implementations.
#[derive(Debug, Clone)]
pub struct CallContext {
    /// SOAP header entries from the request envelope.
    pub headers: Vec<Element>,
    /// Service name the call was addressed to.
    pub service: String,
    /// Method name invoked.
    pub method: String,
}

impl CallContext {
    /// Find a header entry by local name.
    pub fn header(&self, local_name: &str) -> Option<&Element> {
        self.headers.iter().find(|h| h.local_name() == local_name)
    }
}

/// Description of one method, used for WSDL generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodDesc {
    /// Method name.
    pub name: String,
    /// Named, typed parameters in order.
    pub params: Vec<(String, SoapType)>,
    /// Return type.
    pub ret: SoapType,
    /// Documentation string.
    pub doc: String,
}

impl MethodDesc {
    /// Describe a method.
    pub fn new(
        name: impl Into<String>,
        params: Vec<(&str, SoapType)>,
        ret: SoapType,
        doc: impl Into<String>,
    ) -> MethodDesc {
        MethodDesc {
            name: name.into(),
            params: params.into_iter().map(|(n, t)| (n.to_owned(), t)).collect(),
            ret,
            doc: doc.into(),
        }
    }
}

/// Reply header carrying a service's mutation generation (see
/// [`SoapService::generation`]). Clients with a read cache watch this
/// header on every reply and invalidate entries the moment they observe a
/// newer generation.
pub const GENERATION_HEADER: &str = "Generation";

/// A SOAP-exposed service implementation.
pub trait SoapService: Send + Sync {
    /// Service name (used in the endpoint path and the `urn:` namespace).
    fn name(&self) -> &str;

    /// Invoke `method` with decoded arguments.
    fn invoke(
        &self,
        method: &str,
        args: &[(String, SoapValue)],
        ctx: &CallContext,
    ) -> SoapResult<SoapValue>;

    /// Method descriptions for interface publication (WSDL generation).
    fn methods(&self) -> Vec<MethodDesc>;

    /// Monotonic mutation generation of the service's backing store, if it
    /// is versioned. When `Some`, the dispatcher piggybacks the value on
    /// every reply as a [`GENERATION_HEADER`] SOAP header, letting clients
    /// revalidate cached reads with a cheap probe instead of refetching
    /// bodies. The default (`None`) means "not versioned": clients fall
    /// back to TTL-bounded caching.
    fn generation(&self) -> Option<u64> {
        None
    }
}

/// Pre-dispatch hook: may reject the call with a fault (used for auth).
/// It sees the request's headers, service and method through the
/// [`CallContext`]; arguments are decoded only once it has passed.
pub type Guard = Arc<dyn Fn(&CallContext) -> SoapResult<()> + Send + Sync>;

/// Supplies SOAP header entries attached to every *reply* (mutual
/// authentication: the server proves its identity to the client).
pub type ResponseHeaderSupplier = Arc<dyn Fn() -> Vec<Element> + Send + Sync>;

/// The SOAP Service Provider: routes envelopes to mounted services.
#[derive(Default)]
pub struct SoapServer {
    services: RwLock<HashMap<String, Arc<dyn SoapService>>>,
    guard: RwLock<Option<Guard>>,
    response_headers: RwLock<Option<ResponseHeaderSupplier>>,
}

impl SoapServer {
    /// New empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mount a service (addressable as `/soap/<name>`).
    pub fn mount(&self, service: Arc<dyn SoapService>) {
        self.services
            .write()
            .insert(service.name().to_owned(), service);
    }

    /// Install a pre-dispatch guard (replacing any existing one).
    pub fn set_guard(&self, guard: Guard) {
        *self.guard.write() = Some(guard);
    }

    /// Attach header entries to every reply envelope — the server half of
    /// a mutual-authentication scheme (§4: "mutual authentication schemes
    /// can also be developed").
    pub fn set_response_header_supplier(&self, supplier: ResponseHeaderSupplier) {
        *self.response_headers.write() = Some(supplier);
    }

    /// Names of mounted services.
    pub fn service_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.services.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Look up a mounted service.
    pub fn service(&self, name: &str) -> Option<Arc<dyn SoapService>> {
        self.services.read().get(name).map(Arc::clone)
    }

    fn stamp(&self, mut reply: Envelope) -> Envelope {
        if let Some(supplier) = self.response_headers.read().clone() {
            reply.headers.extend(supplier());
        }
        reply
    }

    /// Dispatch a parsed envelope addressed to `service_name`.
    ///
    /// The envelope is consumed: its headers move into the
    /// [`CallContext`], its decoded arguments move to the service, and the
    /// service's value moves into the reply. Nothing is deep-copied.
    pub fn dispatch(&self, service_name: &str, mut envelope: Envelope) -> Envelope {
        let Some(service) = self.service(service_name) else {
            return self.stamp(Envelope::fault(&Fault::client(format!(
                "no such service {service_name:?}"
            ))));
        };
        let ctx = CallContext {
            headers: std::mem::take(&mut envelope.headers),
            service: service_name.to_owned(),
            method: envelope.method().to_owned(),
        };
        // Every reply from a resolved service — success, fault, or guard
        // rejection — carries a service generation, so even a failed call
        // lets the client advance its observed generation. The value is
        // captured BEFORE the method runs: stamping may under-claim (a
        // mutation landing mid-call costs at most a spurious client-side
        // invalidation) but must never over-claim — a read that returned
        // pre-mutation data stamped with the post-mutation generation
        // would be cached as current and pinned past the bump it
        // predates. A mutator therefore observes its own bump on its
        // *next* reply, not on the mutation's own acknowledgment.
        let generation = service.generation();
        let finish = |reply: Envelope| {
            let mut reply = self.stamp(reply);
            if let Some(generation) = generation {
                reply
                    .headers
                    .push(Element::new(GENERATION_HEADER).with_text(generation.to_string()));
            }
            reply
        };
        if let Some(guard) = self.guard.read().clone() {
            if let Err(fault) = guard(&ctx) {
                return finish(Envelope::fault(&fault));
            }
        }
        // A malformed argument fails here, after the guard has run.
        let args = match envelope.into_args() {
            Ok(args) => args,
            Err(msg) => {
                return finish(Envelope::fault(&Fault::client(format!(
                    "argument decode failed: {msg}"
                ))))
            }
        };
        finish(match service.invoke(&ctx.method, &args, &ctx) {
            Ok(value) => Envelope::response(&ctx.method, value),
            Err(fault) => Envelope::fault(&fault),
        })
    }
}

/// Retry hint stamped on replies carrying a [`PortalErrorKind::Busy`]
/// fault raised *inside* a service (quota exhaustion, capacity limits) —
/// the application-level counterpart of the wire layer's queue-full shed.
const BUSY_RETRY_AFTER_MS: u64 = 50;

impl Handler for SoapServer {
    fn handle(&self, req: &Request) -> Response {
        if req.method != "POST" {
            return Response::error(Status::BadRequest, "SOAP endpoint expects POST");
        }
        // Install the request's remaining deadline budget (the server arm
        // already rewrote the header to what is left) around dispatch, so
        // downstream SoapClient calls made by the handler inherit it.
        let _budget = req
            .header(DEADLINE_HEADER)
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(|ms| crate::deadline::install(std::time::Duration::from_millis(ms)));
        // Path shape: /soap/<ServiceName>[...]
        let service_name = req
            .path_only()
            .trim_start_matches('/')
            .split('/')
            .nth(1)
            .unwrap_or("")
            .to_owned();
        let envelope = match Envelope::parse(&body_text(&req.body)) {
            Ok(env) => env,
            Err(e) => {
                let fault = Fault::client(format!("envelope parse failed: {e}"));
                return xml_response(Status::InternalError, &Envelope::fault(&fault));
            }
        };
        let reply = self.dispatch(&service_name, envelope);
        let status = if reply.is_fault() {
            // SOAP-over-HTTP convention: faults ride on 500.
            Status::InternalError
        } else {
            Status::Ok
        };
        let mut resp = xml_response(status, &reply);
        // Application-level sheds advise like wire-level ones: a Busy
        // fault carries retry hints so deadline-aware clients back off
        // instead of hammering an at-capacity service.
        if let Some(fault) = reply.as_fault() {
            if fault.kind() == Some(crate::fault::PortalErrorKind::Busy) {
                resp = resp
                    .with_header(
                        RETRY_AFTER_HEADER,
                        BUSY_RETRY_AFTER_MS.div_ceil(1000).max(1).to_string(),
                    )
                    .with_header(RETRY_AFTER_MS_HEADER, BUSY_RETRY_AFTER_MS.to_string());
            }
        }
        resp
    }
}

/// Build the HTTP reply for an envelope: its serialization is the body.
fn xml_response(status: Status, reply: &Envelope) -> Response {
    Response {
        status,
        headers: vec![("Content-Type".into(), "text/xml; charset=utf-8".into())],
        body: reply.to_xml().into_bytes(),
    }
}

/// The canonical endpoint path for a service name.
pub fn endpoint_path(service_name: &str) -> String {
    format!("/soap/{service_name}")
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::fault::PortalErrorKind;

    /// A tiny echo/add service used across the crate's tests.
    pub struct Calculator;

    impl SoapService for Calculator {
        fn name(&self) -> &str {
            "Calc"
        }

        fn invoke(
            &self,
            method: &str,
            args: &[(String, SoapValue)],
            _ctx: &CallContext,
        ) -> SoapResult<SoapValue> {
            match method {
                "add" => {
                    let a = args
                        .first()
                        .and_then(|(_, v)| v.as_i64())
                        .ok_or_else(|| Fault::portal(PortalErrorKind::BadArguments, "a"))?;
                    let b = args
                        .get(1)
                        .and_then(|(_, v)| v.as_i64())
                        .ok_or_else(|| Fault::portal(PortalErrorKind::BadArguments, "b"))?;
                    Ok(SoapValue::Int(a + b))
                }
                "echo" => Ok(args
                    .first()
                    .map(|(_, v)| v.clone())
                    .unwrap_or(SoapValue::Null)),
                other => Err(Fault::client(format!("no method {other:?}"))),
            }
        }

        fn methods(&self) -> Vec<MethodDesc> {
            vec![
                MethodDesc::new(
                    "add",
                    vec![("a", SoapType::Int), ("b", SoapType::Int)],
                    SoapType::Int,
                    "Add two integers",
                ),
                MethodDesc::new(
                    "echo",
                    vec![("value", SoapType::String)],
                    SoapType::String,
                    "Echo the argument",
                ),
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::Calculator;
    use super::*;
    use crate::fault::{FaultCode, PortalErrorKind};

    fn server() -> SoapServer {
        let s = SoapServer::new();
        s.mount(Arc::new(Calculator));
        s
    }

    #[test]
    fn dispatch_success() {
        let env = Envelope::request("Calc", "add", [SoapValue::Int(2), SoapValue::Int(40)]);
        let reply = server().dispatch("Calc", env);
        assert_eq!(reply.return_value().unwrap(), SoapValue::Int(42));
    }

    #[test]
    fn dispatch_unknown_service() {
        let env = Envelope::request("Nope", "x", []);
        let reply = server().dispatch("Nope", env);
        assert!(reply.is_fault());
        assert_eq!(reply.as_fault().unwrap().code, FaultCode::Client);
    }

    #[test]
    fn dispatch_bad_args_gives_portal_error() {
        let env = Envelope::request("Calc", "add", [SoapValue::str("x")]);
        let reply = server().dispatch("Calc", env);
        assert_eq!(
            reply.as_fault().unwrap().kind(),
            Some(PortalErrorKind::BadArguments)
        );
    }

    #[test]
    fn http_handler_round_trip() {
        let srv = server();
        let env = Envelope::request("Calc", "add", [SoapValue::Int(1), SoapValue::Int(2)]);
        let req = Request::post(endpoint_path("Calc"), env.to_xml());
        let resp = srv.handle(&req);
        assert_eq!(resp.status, Status::Ok);
        let reply = Envelope::parse(&resp.body_str()).unwrap();
        assert_eq!(reply.return_value().unwrap(), SoapValue::Int(3));
    }

    #[test]
    fn http_fault_is_500() {
        let srv = server();
        let env = Envelope::request("Calc", "nosuch", []);
        let resp = srv.handle(&Request::post(endpoint_path("Calc"), env.to_xml()));
        assert_eq!(resp.status, Status::InternalError);
        assert!(Envelope::parse(&resp.body_str()).unwrap().is_fault());
    }

    #[test]
    fn get_rejected() {
        let resp = server().handle(&Request::get("/soap/Calc"));
        assert_eq!(resp.status, Status::BadRequest);
    }

    #[test]
    fn malformed_envelope_is_fault() {
        let resp = server().handle(&Request::post("/soap/Calc", "not xml"));
        assert_eq!(resp.status, Status::InternalError);
        assert!(Envelope::parse(&resp.body_str()).unwrap().is_fault());
    }

    #[test]
    fn guard_can_reject() {
        let srv = server();
        srv.set_guard(Arc::new(|ctx: &CallContext| {
            if ctx.header("Assertion").is_some() {
                Ok(())
            } else {
                Err(Fault::portal(PortalErrorKind::AuthFailed, "no assertion"))
            }
        }));
        let env = Envelope::request("Calc", "add", [SoapValue::Int(1), SoapValue::Int(1)]);
        let reply = srv.dispatch("Calc", env.clone());
        assert_eq!(
            reply.as_fault().unwrap().kind(),
            Some(PortalErrorKind::AuthFailed)
        );

        let ok_env = env.with_header(Element::new("Assertion"));
        let reply = srv.dispatch("Calc", ok_env);
        assert!(!reply.is_fault());
    }

    #[test]
    fn service_names_listed() {
        assert_eq!(server().service_names(), vec!["Calc".to_string()]);
    }

    /// Calculator wrapped with a fixed generation, for header stamping.
    struct VersionedCalc(u64);

    impl SoapService for VersionedCalc {
        fn name(&self) -> &str {
            "Calc"
        }
        fn invoke(
            &self,
            method: &str,
            args: &[(String, SoapValue)],
            ctx: &CallContext,
        ) -> SoapResult<SoapValue> {
            Calculator.invoke(method, args, ctx)
        }
        fn methods(&self) -> Vec<MethodDesc> {
            Calculator.methods()
        }
        fn generation(&self) -> Option<u64> {
            Some(self.0)
        }
    }

    #[test]
    fn generation_header_stamped_on_success_and_fault() {
        let srv = SoapServer::new();
        srv.mount(Arc::new(VersionedCalc(7)));
        let env = Envelope::request("Calc", "add", [SoapValue::Int(1), SoapValue::Int(2)]);
        let reply = srv.dispatch("Calc", env);
        assert_eq!(
            reply.header(GENERATION_HEADER).map(|h| h.text()).as_deref(),
            Some("7")
        );
        // Faults from a resolved service still advance the client's view.
        let reply = srv.dispatch("Calc", Envelope::request("Calc", "nosuch", []));
        assert!(reply.is_fault());
        assert_eq!(
            reply.header(GENERATION_HEADER).map(|h| h.text()).as_deref(),
            Some("7")
        );
    }

    #[test]
    fn unversioned_service_has_no_generation_header() {
        let env = Envelope::request("Calc", "add", [SoapValue::Int(1), SoapValue::Int(2)]);
        let reply = server().dispatch("Calc", env);
        assert!(reply.header(GENERATION_HEADER).is_none());
    }

    /// Service that reports the thread-local deadline budget it sees at
    /// invoke time, in whole milliseconds (-1 when none is installed).
    struct BudgetProbe;

    impl SoapService for BudgetProbe {
        fn name(&self) -> &str {
            "Probe"
        }
        fn invoke(
            &self,
            _method: &str,
            _args: &[(String, SoapValue)],
            _ctx: &CallContext,
        ) -> SoapResult<SoapValue> {
            let ms = match crate::deadline::remaining() {
                Some(left) => left.as_millis() as i64,
                None => -1,
            };
            Ok(SoapValue::Int(ms))
        }
        fn methods(&self) -> Vec<MethodDesc> {
            vec![MethodDesc::new(
                "probe",
                vec![],
                SoapType::Int,
                "Report remaining budget in ms",
            )]
        }
    }

    #[test]
    fn deadline_header_installs_budget_around_dispatch() {
        let srv = SoapServer::new();
        srv.mount(Arc::new(BudgetProbe));
        let env = Envelope::request("Probe", "probe", []);
        let req = Request::post(endpoint_path("Probe"), env.to_xml())
            .with_header(DEADLINE_HEADER, "2000");
        let resp = srv.handle(&req);
        assert_eq!(resp.status, Status::Ok);
        let reply = Envelope::parse(&resp.body_str()).unwrap();
        let seen = reply.return_value().unwrap().as_i64().unwrap();
        assert!(
            seen > 0 && seen <= 2000,
            "handler saw the installed budget, got {seen} ms"
        );
        // The scope unwinds with the dispatch: no budget leaks to the
        // next request on this thread.
        let bare = srv.handle(&Request::post(endpoint_path("Probe"), env.to_xml()));
        let reply = Envelope::parse(&bare.body_str()).unwrap();
        assert_eq!(reply.return_value().unwrap(), SoapValue::Int(-1));
    }

    /// Service that always reports itself at capacity.
    struct AlwaysBusy;

    impl SoapService for AlwaysBusy {
        fn name(&self) -> &str {
            "Busy"
        }
        fn invoke(
            &self,
            _method: &str,
            _args: &[(String, SoapValue)],
            _ctx: &CallContext,
        ) -> SoapResult<SoapValue> {
            Err(Fault::portal(PortalErrorKind::Busy, "tenant quota spent"))
        }
        fn methods(&self) -> Vec<MethodDesc> {
            vec![MethodDesc::new("go", vec![], SoapType::Int, "Always busy")]
        }
    }

    #[test]
    fn busy_fault_reply_carries_retry_hints() {
        let srv = SoapServer::new();
        srv.mount(Arc::new(AlwaysBusy));
        let env = Envelope::request("Busy", "go", []);
        let resp = srv.handle(&Request::post(endpoint_path("Busy"), env.to_xml()));
        assert_eq!(resp.status, Status::InternalError, "faults ride on 500");
        assert_eq!(resp.header(RETRY_AFTER_HEADER), Some("1"));
        assert_eq!(
            resp.header(RETRY_AFTER_MS_HEADER),
            Some(BUSY_RETRY_AFTER_MS.to_string().as_str())
        );
        // Non-Busy faults advise nothing: retrying cannot help them.
        let srv = server();
        let env = Envelope::request("Calc", "nosuch", []);
        let resp = srv.handle(&Request::post(endpoint_path("Calc"), env.to_xml()));
        assert!(resp.header(RETRY_AFTER_HEADER).is_none());
        assert!(resp.header(RETRY_AFTER_MS_HEADER).is_none());
    }
}
