//! Mutual authentication (§4: "Minimally, each server in the system would
//! authenticate itself, and mutual authentication schemes can also be
//! developed").
//!
//! The server half: an SSP holds its own [`UserSession`] (its principal is
//! registered in the keytab like any user's) and stamps a fresh signed
//! assertion into every *reply* envelope. The client half: a
//! [`ReplyVerifier`] that extracts the server's assertion, verifies it —
//! locally or through the Authentication Service — and checks that the
//! subject is the principal the client expects to be talking to. A
//! man-in-the-middle SSP cannot produce a valid assertion for the expected
//! server principal.

use std::sync::Arc;

use portalws_soap::client::ReplyVerifier;
use portalws_soap::server::ResponseHeaderSupplier;
use portalws_soap::{Envelope, HeaderEntry, SoapClient, SoapValue};

use crate::guard::verify_remotely;
use crate::service::AuthService;
use crate::session::UserSession;

/// The server half: stamp every reply with a fresh signed assertion from
/// the server's own session.
pub fn server_identity(session: Arc<UserSession>) -> ResponseHeaderSupplier {
    Arc::new(move || vec![session.make_assertion().to_header()])
}

fn entry(reply: &Envelope) -> Result<&HeaderEntry, String> {
    UserSession::find_assertion(&reply.headers)
        .ok_or_else(|| "reply carries no server assertion".to_string())
}

/// The client half, verifying in-process against the Authentication
/// Service state.
pub fn expect_server(auth: Arc<AuthService>, expected_principal: &str) -> ReplyVerifier {
    let expected = expected_principal.to_owned();
    Arc::new(move |reply| {
        let principal = auth
            .verify_entry(entry(reply)?)
            .map_err(|e| format!("server assertion invalid: {e}"))?;
        if principal != expected {
            return Err(format!(
                "server identified as {principal:?}, expected {expected:?}"
            ));
        }
        Ok(())
    })
}

/// The client half over SOAP: forward the server's assertion entry,
/// unparsed, to the Authentication Service, exactly as SSPs do for client
/// assertions, and check the principal it vouches for.
pub fn expect_server_remote(
    auth_client: Arc<SoapClient>,
    expected_principal: &str,
) -> ReplyVerifier {
    let expected = expected_principal.to_owned();
    Arc::new(move |reply| {
        let verdict = verify_remotely(&auth_client, entry(reply)?)
            .map_err(|reason| format!("server assertion rejected: {reason}"))?;
        let principal = verdict
            .field("principal")
            .and_then(SoapValue::as_str)
            .unwrap_or_default();
        if principal != expected {
            return Err(format!(
                "server identified as {principal:?}, expected {expected:?}"
            ));
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::Assertion;
    use portalws_gridsim::clock::SimClock;
    use portalws_gridsim::cred::Mechanism;
    use portalws_soap::{CallContext, MethodDesc, SoapResult, SoapServer, SoapService, SoapType};
    use portalws_wire::{Handler, InMemoryTransport};

    struct Ping;
    impl SoapService for Ping {
        fn name(&self) -> &str {
            "Ping"
        }
        fn invoke(
            &self,
            m: &str,
            _a: &[(String, SoapValue)],
            _c: &CallContext,
        ) -> SoapResult<SoapValue> {
            match m {
                "ping" => Ok(SoapValue::str("pong")),
                other => Err(portalws_soap::Fault::client(format!("no method {other:?}"))),
            }
        }
        fn methods(&self) -> Vec<MethodDesc> {
            vec![MethodDesc::new("ping", vec![], SoapType::String, "Ping")]
        }
    }

    /// Auth service + an SSP that authenticates itself as
    /// `grid.sdsc.edu@GCE.ORG`.
    fn mutual_setup() -> (Arc<AuthService>, SoapClient) {
        let auth = AuthService::new(SimClock::new());
        auth.register_user("grid.sdsc.edu@GCE.ORG", "host-secret");
        let server_gss = auth
            .login("grid.sdsc.edu@GCE.ORG", "host-secret", Mechanism::Kerberos)
            .unwrap();
        let server_session = UserSession::new(server_gss, Arc::clone(auth.clock()));

        let ssp = SoapServer::new();
        ssp.mount(Arc::new(Ping));
        ssp.set_response_header_supplier(server_identity(server_session));
        let handler: Arc<dyn Handler> = Arc::new(ssp);
        let client = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "Ping");
        (auth, client)
    }

    #[test]
    fn client_accepts_genuine_server() {
        let (auth, client) = mutual_setup();
        client.set_reply_verifier(expect_server(auth, "grid.sdsc.edu@GCE.ORG"));
        assert_eq!(client.call("ping", &[]).unwrap(), SoapValue::str("pong"));
    }

    #[test]
    fn client_rejects_wrong_server_principal() {
        let (auth, client) = mutual_setup();
        client.set_reply_verifier(expect_server(auth, "gateway.iu.edu@GCE.ORG"));
        let err = client.call("ping", &[]).unwrap_err();
        assert!(err.to_string().contains("identified as"), "{err}");
    }

    #[test]
    fn client_rejects_unidentified_server() {
        let auth = AuthService::new(SimClock::new());
        let ssp = SoapServer::new();
        ssp.mount(Arc::new(Ping));
        // No response header supplier: the server never proves itself.
        let handler: Arc<dyn Handler> = Arc::new(ssp);
        let client = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "Ping");
        client.set_reply_verifier(expect_server(auth, "grid.sdsc.edu@GCE.ORG"));
        let err = client.call("ping", &[]).unwrap_err();
        assert!(err.to_string().contains("no server assertion"), "{err}");
    }

    #[test]
    fn impostor_with_unregistered_key_rejected() {
        let (auth, _) = mutual_setup();
        // An impostor SSP signs with a key the auth service never issued.
        let ssp = SoapServer::new();
        ssp.mount(Arc::new(Ping));
        ssp.set_response_header_supplier(Arc::new(|| {
            let mut fake = Assertion::new(
                "f1",
                "ctx-999999",
                "grid.sdsc.edu@GCE.ORG",
                "kerberos",
                "t",
                u64::MAX,
            );
            fake.sign("made-up-key");
            vec![fake.to_header()]
        }));
        let handler: Arc<dyn Handler> = Arc::new(ssp);
        let client = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "Ping");
        client.set_reply_verifier(expect_server(auth, "grid.sdsc.edu@GCE.ORG"));
        assert!(client.call("ping", &[]).is_err());
    }

    #[test]
    fn fault_replies_are_stamped_too() {
        let (auth, client) = mutual_setup();
        client.set_reply_verifier(expect_server(auth, "grid.sdsc.edu@GCE.ORG"));
        // Unknown method → a fault, but a *verified* fault: the error we
        // get is the fault itself, not a verifier rejection.
        let err = client.call("nosuch", &[]).unwrap_err();
        assert!(err.as_fault().is_some(), "{err}");
    }

    #[test]
    fn remote_verifier_round_trip() {
        let (auth, client) = mutual_setup();
        // The verification service itself, over SOAP.
        let auth_server = SoapServer::new();
        auth_server.mount(Arc::new(crate::service::AuthSoapFacade(Arc::clone(&auth))));
        let auth_handler: Arc<dyn Handler> = Arc::new(auth_server);
        let auth_client = Arc::new(SoapClient::new(
            Arc::new(InMemoryTransport::new(auth_handler)),
            "Authentication",
        ));
        client.set_reply_verifier(expect_server_remote(auth_client, "grid.sdsc.edu@GCE.ORG"));
        assert_eq!(client.call("ping", &[]).unwrap(), SoapValue::str("pong"));
    }
}
