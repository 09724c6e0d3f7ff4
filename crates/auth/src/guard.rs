//! SOAP-server guards implementing the Figure 2 "atomic step".
//!
//! "The SPP does not check the signature of the request directly but
//! instead forwards to the Authentication Service, which verifies the
//! signature. The Authentication Service responds positively or
//! negatively to the SPP, which may then fulfill the client's request."
//!
//! [`remote_guard`] is exactly that: every guarded call costs one extra
//! SOAP round trip to the Authentication Service, which carries the
//! client's assertion entry as the verify request's own header entry,
//! byte for byte and never parsed on the way. [`local_guard`] is the
//! decentralized ablation (the SSP verifies in-process against shared
//! context state), and [`no_auth_guard`] the unauthenticated baseline —
//! the three arms of experiment E2.

use std::sync::Arc;

use portalws_soap::{
    CallContext, Envelope, Fault, Guard, HeaderEntry, PortalErrorKind, SoapClient, SoapValue,
};

use crate::assertion::Assertion;
use crate::service::AuthService;
#[cfg(test)]
use crate::service::AuthSoapFacade;
use crate::session::UserSession;

/// The request's assertion entry, or an AUTH_FAILED fault if it has none.
fn assertion_entry(ctx: &CallContext) -> Result<&HeaderEntry, Fault> {
    UserSession::find_assertion(&ctx.headers).ok_or_else(|| {
        Fault::portal(
            PortalErrorKind::AuthFailed,
            "request carries no SAML assertion",
        )
    })
}

/// The request's assertion, read from its entry.
pub(crate) fn extract_assertion(ctx: &CallContext) -> Result<Assertion, Fault> {
    Assertion::read(assertion_entry(ctx)?.as_str())
        .map_err(|e| Fault::portal(PortalErrorKind::AuthFailed, e.to_string()))
}

/// The verify hop: `entry` goes to the Authentication Service unchanged,
/// as the verify request's own header entry. The service's verdict when
/// it accepts (`valid` and `principal`), its reason when it refuses.
pub(crate) fn verify_remotely(
    auth_client: &SoapClient,
    entry: &HeaderEntry,
) -> Result<SoapValue, String> {
    let request = Envelope::request(auth_client.service(), "verify", []).with_header(entry.clone());
    let verdict = auth_client
        .call_envelope(request)
        .map_err(|e| format!("authentication service unreachable: {e}"))?;
    match verdict.field("valid").and_then(SoapValue::as_bool) {
        Some(true) => Ok(verdict),
        _ => Err(verdict
            .field("reason")
            .and_then(SoapValue::as_str)
            .unwrap_or("assertion rejected")
            .to_owned()),
    }
}

/// Central verification: forward the assertion to the Authentication
/// Service over SOAP.
pub fn remote_guard(auth_client: Arc<SoapClient>) -> Guard {
    Arc::new(move |ctx: &CallContext| {
        verify_remotely(&auth_client, assertion_entry(ctx)?)
            .map(drop)
            .map_err(|reason| Fault::portal(PortalErrorKind::AuthFailed, reason))
    })
}

/// Decentralized ablation: verify in-process against the shared service
/// state (no extra round trip, but every SSP must hold verification
/// state — the containment property the paper argues against losing).
/// The same verify path as the service's: [`AuthService::verify_entry`].
pub fn local_guard(auth: Arc<AuthService>) -> Guard {
    Arc::new(move |ctx: &CallContext| {
        auth.verify_entry(assertion_entry(ctx)?)
            .map(drop)
            .map_err(|e| Fault::portal(PortalErrorKind::AuthFailed, e.to_string()))
    })
}

/// Unauthenticated baseline: accept everything.
pub fn no_auth_guard() -> Guard {
    Arc::new(|_ctx: &CallContext| Ok(()))
}

/// Compose an authentication guard with an Akenti-style policy engine:
/// after `inner` accepts the caller, the assertion subject must be
/// permitted to invoke `(service, method)`. The paper's §4 access-control
/// future work, realized.
pub fn authorized(inner: Guard, policy: Arc<crate::access::PolicyEngine>) -> Guard {
    Arc::new(move |ctx: &CallContext| {
        inner(ctx)?;
        let assertion = extract_assertion(ctx)?;
        let decision = policy.authorize(&assertion.subject, &ctx.service, &ctx.method);
        match decision.effect {
            crate::access::Effect::Permit => Ok(()),
            crate::access::Effect::Deny => Err(Fault::portal(
                PortalErrorKind::PermissionDenied,
                format!(
                    "{} may not invoke {}.{} ({})",
                    assertion.subject,
                    ctx.service,
                    ctx.method,
                    decision.statement_value()
                ),
            )),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use portalws_gridsim::clock::SimClock;
    use portalws_gridsim::cred::Mechanism;
    use portalws_soap::{MethodDesc, SoapResult, SoapServer, SoapService, SoapType};
    use portalws_wire::{Handler, InMemoryTransport};

    struct Ping;
    impl SoapService for Ping {
        fn name(&self) -> &str {
            "Ping"
        }
        fn invoke(
            &self,
            _m: &str,
            _a: &[(String, SoapValue)],
            _c: &CallContext,
        ) -> SoapResult<SoapValue> {
            Ok(SoapValue::str("pong"))
        }
        fn methods(&self) -> Vec<MethodDesc> {
            vec![MethodDesc::new("ping", vec![], SoapType::String, "Ping")]
        }
    }

    /// Full Figure 2 topology: auth server + guarded SSP + UI session.
    fn figure2() -> (Arc<AuthService>, Arc<UserSession>, SoapClient) {
        let auth = AuthService::new(SimClock::new());
        auth.register_user("alice@GCE.ORG", "pw");

        // Authentication Service on its own SOAP server.
        let auth_server = SoapServer::new();
        auth_server.mount(Arc::new(AuthSoapFacade(Arc::clone(&auth))));
        let auth_handler: Arc<dyn Handler> = Arc::new(auth_server);
        let auth_client = Arc::new(SoapClient::new(
            Arc::new(InMemoryTransport::new(auth_handler)),
            "Authentication",
        ));

        // Guarded SSP hosting Ping.
        let ssp = SoapServer::new();
        ssp.mount(Arc::new(Ping));
        ssp.set_guard(remote_guard(auth_client));
        let ssp_handler: Arc<dyn Handler> = Arc::new(ssp);
        let ping_client = SoapClient::new(Arc::new(InMemoryTransport::new(ssp_handler)), "Ping");

        // UI-server session.
        let gss = auth
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        let session = UserSession::new(gss, Arc::clone(auth.clock()));
        (auth, session, ping_client)
    }

    #[test]
    fn atomic_step_end_to_end() {
        let (auth, session, ping) = figure2();
        ping.set_header_supplier(session.header_supplier());
        assert_eq!(ping.call("ping", &[]).unwrap(), SoapValue::str("pong"));
        // The verification happened on the Authentication Service.
        assert_eq!(auth.verification_count(), 1);
    }

    #[test]
    fn missing_assertion_rejected() {
        let (_, _, ping) = figure2();
        let err = ping.call("ping", &[]).unwrap_err();
        assert_eq!(
            err.as_fault().and_then(|f| f.kind()),
            Some(PortalErrorKind::AuthFailed)
        );
    }

    #[test]
    fn logout_invalidates_future_requests() {
        let (auth, session, ping) = figure2();
        ping.set_header_supplier(session.header_supplier());
        ping.call("ping", &[]).unwrap();
        auth.logout(session.context_id());
        assert!(ping.call("ping", &[]).is_err());
    }

    #[test]
    fn local_guard_verifies_without_round_trip() {
        let auth = AuthService::new(SimClock::new());
        auth.register_user("alice@GCE.ORG", "pw");
        let ssp = SoapServer::new();
        ssp.mount(Arc::new(Ping));
        ssp.set_guard(local_guard(Arc::clone(&auth)));
        let handler: Arc<dyn Handler> = Arc::new(ssp);
        let ping = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "Ping");

        let gss = auth
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        let session = UserSession::new(gss, Arc::clone(auth.clock()));
        ping.set_header_supplier(session.header_supplier());
        assert!(ping.call("ping", &[]).is_ok());
    }

    #[test]
    fn no_auth_guard_accepts_bare_requests() {
        let ssp = SoapServer::new();
        ssp.mount(Arc::new(Ping));
        ssp.set_guard(no_auth_guard());
        let handler: Arc<dyn Handler> = Arc::new(ssp);
        let ping = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "Ping");
        assert!(ping.call("ping", &[]).is_ok());
    }

    #[test]
    fn authorized_guard_enforces_policy() {
        let auth = AuthService::new(SimClock::new());
        auth.register_user("alice@GCE.ORG", "pw");
        auth.register_user("bob@GCE.ORG", "pw2");
        let policy = Arc::new(crate::access::PolicyEngine::default_deny());
        policy.permit("alice@GCE.ORG", "Ping", "*");

        let ssp = SoapServer::new();
        ssp.mount(Arc::new(Ping));
        ssp.set_guard(authorized(local_guard(Arc::clone(&auth)), policy));
        let handler: Arc<dyn Handler> = Arc::new(ssp);

        let client_for = |principal: &str, secret: &str| {
            let gss = auth.login(principal, secret, Mechanism::Kerberos).unwrap();
            let session = UserSession::new(gss, Arc::clone(auth.clock()));
            let c = SoapClient::new(
                Arc::new(InMemoryTransport::new(Arc::clone(&handler))),
                "Ping",
            );
            c.set_header_supplier(session.header_supplier());
            c
        };

        // Alice is permitted; Bob is authenticated but not authorized.
        assert!(client_for("alice@GCE.ORG", "pw").call("ping", &[]).is_ok());
        let err = client_for("bob@GCE.ORG", "pw2")
            .call("ping", &[])
            .unwrap_err();
        assert_eq!(
            err.as_fault().and_then(|f| f.kind()),
            Some(portalws_soap::PortalErrorKind::PermissionDenied)
        );
    }

    #[test]
    fn authorized_guard_still_requires_authentication() {
        let auth = AuthService::new(SimClock::new());
        let policy = Arc::new(crate::access::PolicyEngine::default_permit());
        let ssp = SoapServer::new();
        ssp.mount(Arc::new(Ping));
        ssp.set_guard(authorized(local_guard(auth), policy));
        let handler: Arc<dyn Handler> = Arc::new(ssp);
        let bare = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "Ping");
        // No assertion: authn fails before the (permissive) policy runs.
        let err = bare.call("ping", &[]).unwrap_err();
        assert_eq!(
            err.as_fault().and_then(|f| f.kind()),
            Some(portalws_soap::PortalErrorKind::AuthFailed)
        );
    }

    #[test]
    fn garbage_assertion_header_rejected() {
        let (_, _, ping) = figure2();
        ping.set_header_supplier(Arc::new(|| {
            vec![HeaderEntry::parse(r#"<saml:Assertion AssertionID="x"/>"#).unwrap()]
        }));
        assert!(ping.call("ping", &[]).is_err());
    }
}
