//! Figure 2 end-to-end: the assertion-based single-sign-on protocol.
//!
//! "Subsequent user interaction generates a SOAP request that includes a
//! SAML assertion that is signed by the client object on the UI server…
//! The SPP does not check the signature of the request directly but
//! instead forwards to the Authentication Service."

use std::sync::Arc;

use portalws::auth::Assertion;
use portalws::portal::{PortalDeployment, SecurityMode, UiServer};
use portalws::soap::SoapClient;

#[test]
fn single_sign_on_spans_all_ssps() {
    let deployment = PortalDeployment::in_memory(SecurityMode::Central);
    let ui = UiServer::new(Arc::clone(&deployment));
    ui.login("alice@GCE.ORG", "alice-pass").unwrap();

    // One login, three different guarded servers, no re-authentication.
    let jobs = ui.proxy("grid.sdsc.edu", "JobSubmission").unwrap();
    jobs.call("listHosts", &[]).unwrap();
    let gen = ui.proxy("gateway.iu.edu", "BatchScriptGen").unwrap();
    gen.call("supportedSchedulers", &[]).unwrap();
    let gen2 = ui.proxy("hotpage.sdsc.edu", "BatchScriptGen").unwrap();
    gen2.call("supportedSchedulers", &[]).unwrap();

    // Every verification landed on the central Authentication Service.
    assert_eq!(deployment.auth.verification_count(), 3);
}

#[test]
fn requests_without_assertions_rejected_by_every_ssp() {
    let deployment = PortalDeployment::in_memory(SecurityMode::Central);
    for (host, service) in [
        ("grid.sdsc.edu", "JobSubmission"),
        ("gateway.iu.edu", "BatchScriptGen"),
        ("hotpage.sdsc.edu", "BatchScriptGen"),
    ] {
        let bare = SoapClient::new(deployment.transport(host).unwrap(), service);
        let err = bare.call("supportedSchedulers", &[]).unwrap_err();
        assert!(
            err.to_string().contains("AUTH_FAILED") || err.to_string().contains("assertion"),
            "{host}/{service}: {err}"
        );
    }
}

#[test]
fn forged_assertions_rejected() {
    let deployment = PortalDeployment::in_memory(SecurityMode::Central);
    let jobs = SoapClient::new(
        deployment.transport("grid.sdsc.edu").unwrap(),
        "JobSubmission",
    );
    // An attacker mints an assertion with a made-up context and key.
    let mut forged = Assertion::new(
        "a-evil",
        "ctx-999999",
        "alice@GCE.ORG",
        "kerberos",
        "2002-11-16T00:00:00Z",
        u64::MAX,
    );
    forged.sign("guessed-key");
    jobs.set_header_supplier(Arc::new(move || vec![forged.to_header()]));
    assert!(jobs.call("listHosts", &[]).is_err());
}

#[test]
fn stolen_context_id_with_wrong_key_rejected() {
    // An attacker who learned alice's context id (it travels in the
    // clear) but not her session key cannot mint acceptable assertions.
    let deployment = PortalDeployment::in_memory(SecurityMode::Central);
    let ui = UiServer::new(Arc::clone(&deployment));
    ui.login("alice@GCE.ORG", "alice-pass").unwrap();
    let mut tampered = Assertion::new(
        "a-1",
        "ctx-000001", // alice's real context id (first login)
        "alice@GCE.ORG",
        "kerberos",
        "t",
        u64::MAX,
    );
    tampered.sign("not-the-session-key");
    let bare = SoapClient::new(
        deployment.transport("grid.sdsc.edu").unwrap(),
        "JobSubmission",
    );
    bare.set_header_supplier(Arc::new(move || vec![tampered.to_header()]));
    assert!(bare.call("listHosts", &[]).is_err());
}

#[test]
fn replayed_assertions_expire_with_the_clock() {
    let deployment = PortalDeployment::in_memory(SecurityMode::Central);
    let gss = deployment
        .auth
        .login(
            "alice@GCE.ORG",
            "alice-pass",
            portalws::gridsim::cred::Mechanism::Kerberos,
        )
        .unwrap();
    let session = portalws::auth::UserSession::new(gss, Arc::clone(&deployment.clock));

    // Capture ONE assertion and replay it from a client that never mints
    // fresh ones.
    let captured = session.make_assertion();
    let replayer = SoapClient::new(
        deployment.transport("grid.sdsc.edu").unwrap(),
        "JobSubmission",
    );
    let fixed = captured.clone();
    replayer.set_header_supplier(Arc::new(move || vec![fixed.to_header()]));
    replayer.call("listHosts", &[]).unwrap();

    deployment.clock.advance(6 * 60 * 1000); // beyond the 5-minute TTL
    assert!(replayer.call("listHosts", &[]).is_err());

    // A freshly minted assertion from the live session still works.
    let fresh_client = SoapClient::new(
        deployment.transport("grid.sdsc.edu").unwrap(),
        "JobSubmission",
    );
    fresh_client.set_header_supplier(session.header_supplier());
    fresh_client.call("listHosts", &[]).unwrap();
}

#[test]
fn local_mode_avoids_central_round_trips() {
    let deployment = PortalDeployment::in_memory(SecurityMode::Local);
    let ui = UiServer::new(Arc::clone(&deployment));
    ui.login("alice@GCE.ORG", "alice-pass").unwrap();
    let auth_transport = deployment.transport("auth.gce.org").unwrap();
    let before = auth_transport.stats().snapshot();
    let jobs = ui.proxy("grid.sdsc.edu", "JobSubmission").unwrap();
    for _ in 0..5 {
        jobs.call("listHosts", &[]).unwrap();
    }
    // Verification happened (counter moved) but no SOAP traffic reached
    // the auth host from the SSP side through this transport.
    assert_eq!(deployment.auth.verification_count(), 5);
    assert_eq!(auth_transport.stats().snapshot().since(&before).requests, 0);
}

#[test]
fn central_mode_doubles_wire_requests_per_call() {
    // The measurable cost of the Figure 2 atomic step: each application
    // call drags one extra verification exchange behind it.
    let deployment = PortalDeployment::in_memory(SecurityMode::Central);
    let ui = UiServer::new(Arc::clone(&deployment));
    ui.login("alice@GCE.ORG", "alice-pass").unwrap();
    let jobs = ui.proxy("grid.sdsc.edu", "JobSubmission").unwrap();
    let v0 = deployment.auth.verification_count();
    for _ in 0..4 {
        jobs.call("listHosts", &[]).unwrap();
    }
    assert_eq!(deployment.auth.verification_count() - v0, 4);
}

#[test]
fn sso_works_over_real_tcp() {
    let deployment = PortalDeployment::over_tcp(SecurityMode::Central);
    let ui = UiServer::new(Arc::clone(&deployment));
    ui.login("alice@GCE.ORG", "alice-pass").unwrap();
    let jobs = ui.proxy("grid.sdsc.edu", "JobSubmission").unwrap();
    let out = jobs.call("listHosts", &[]).unwrap();
    assert_eq!(out.as_array().unwrap().len(), 2);
}

#[test]
fn assertion_survives_wire_and_verifies_against_service() {
    // The mechanism-independent claim: the assertion is a document; any
    // consumer holding the context key can verify it.
    let deployment = PortalDeployment::in_memory(SecurityMode::Open);
    let gss = deployment
        .auth
        .login(
            "alice@GCE.ORG",
            "alice-pass",
            portalws::gridsim::cred::Mechanism::Kerberos,
        )
        .unwrap();
    let session = portalws::auth::UserSession::new(gss, Arc::clone(&deployment.clock));
    let assertion = session.make_assertion();
    // Round-trip the document through XML text, as the SOAP header does:
    // the text is the tree's serialization, and reads back unchanged.
    let entry = assertion.to_header();
    assert_eq!(entry.as_str(), assertion.to_element().to_xml());
    let parsed = Assertion::read(entry.as_str()).unwrap();
    assert_eq!(parsed, assertion);
    assert_eq!(
        deployment.auth.verify_assertion(&parsed).unwrap(),
        "alice@GCE.ORG"
    );
}

#[test]
fn mechanisms_pki_and_gsi_also_supported() {
    use portalws::gridsim::cred::Mechanism;
    let deployment = PortalDeployment::in_memory(SecurityMode::Open);
    for mech in [Mechanism::Pki, Mechanism::Gsi] {
        let gss = deployment
            .auth
            .login("alice@GCE.ORG", "alice-pass", mech)
            .unwrap();
        let session = portalws::auth::UserSession::new(gss, Arc::clone(&deployment.clock));
        let a = session.make_assertion();
        assert_eq!(a.mechanism, mech.name());
        deployment.auth.verify_assertion(&a).unwrap();
    }
}

// ---- the forwarded bytes fail closed ----------------------------------------

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use portalws::auth::{guard, AuthService, AuthSoapFacade, GssSession, UserSession};
use portalws::gridsim::clock::SimClock;
use portalws::gridsim::cred::Mechanism;
use portalws::services::caller_principal;
use portalws::soap::{
    CallContext, Envelope, HeaderEntry, MethodDesc, PortalErrorKind, SoapResult, SoapServer,
    SoapService, SoapType, SoapValue,
};
use portalws::wire::{Handler, InMemoryTransport, Request};

/// `whoami`: answers with the caller principal, and counts its runs.
struct WhoAmI(Arc<AtomicUsize>);

impl SoapService for WhoAmI {
    fn name(&self) -> &str {
        "WhoAmI"
    }
    fn invoke(
        &self,
        _method: &str,
        _args: &[(String, SoapValue)],
        ctx: &CallContext,
    ) -> SoapResult<SoapValue> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Ok(SoapValue::str(caller_principal(ctx)))
    }
    fn methods(&self) -> Vec<MethodDesc> {
        vec![MethodDesc::new(
            "whoami",
            vec![],
            SoapType::String,
            "Caller",
        )]
    }
}

/// Figure 2 in miniature: an SSP hosting `WhoAmI` behind the remote
/// guard, and the Authentication Service behind a tap that keeps every
/// header entry a verify request carried.
struct Fig2 {
    auth: Arc<AuthService>,
    alice: GssSession,
    ssp: Arc<dyn Handler>,
    runs: Arc<AtomicUsize>,
    verified: Arc<Mutex<Vec<String>>>,
}

impl Fig2 {
    fn new() -> Fig2 {
        let auth = AuthService::new(SimClock::new());
        auth.register_user("alice@GCE.ORG", "pw");
        auth.register_user("bob@GCE.ORG", "pw2");
        let auth_server = SoapServer::new();
        auth_server.mount(Arc::new(AuthSoapFacade(Arc::clone(&auth))));
        let verified = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&verified);
        let tap: Arc<dyn Handler> = Arc::new(move |req: &Request| {
            let env = Envelope::parse(&req.body_str()).expect("verify request parses");
            for entry in &env.headers {
                seen.lock().unwrap().push(entry.as_str().to_owned());
            }
            auth_server.handle(req)
        });
        let auth_client = SoapClient::new(Arc::new(InMemoryTransport::new(tap)), "Authentication");
        let runs = Arc::new(AtomicUsize::new(0));
        let ssp = SoapServer::new();
        ssp.mount(Arc::new(WhoAmI(Arc::clone(&runs))));
        ssp.set_guard(guard::remote_guard(Arc::new(auth_client)));
        let alice = auth
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        Fig2 {
            auth,
            alice,
            ssp: Arc::new(ssp),
            runs,
            verified,
        }
    }

    /// Alice's assertion `id`, with one attribute statement, signed with
    /// her session key.
    fn signed(&self, id: &str) -> Assertion {
        let mut a = Assertion::new(
            id,
            self.alice.context_id.clone(),
            "alice@GCE.ORG",
            "kerberos",
            self.auth.clock().timestamp(),
            self.auth.clock().now() + 60_000,
        )
        .with_statement("akenti:role", "pi");
        a.sign(&self.alice.key);
        a
    }

    /// Call `whoami` with exactly these header entries.
    fn call(&self, headers: Vec<HeaderEntry>) -> Result<SoapValue, portalws::soap::SoapError> {
        let client = SoapClient::new(
            Arc::new(InMemoryTransport::new(Arc::clone(&self.ssp))),
            "WhoAmI",
        );
        client.set_header_supplier(Arc::new(move || headers.clone()));
        client.call("whoami", &[])
    }

    /// The call must fail AUTH_FAILED without the service running.
    fn assert_rejected(&self, headers: Vec<HeaderEntry>, case: &str) {
        let runs = self.runs.load(Ordering::SeqCst);
        let err = self.call(headers).expect_err(case);
        assert_eq!(
            err.as_fault().and_then(|f| f.kind()),
            Some(PortalErrorKind::AuthFailed),
            "{case}: {err}"
        );
        assert_eq!(
            self.runs.load(Ordering::SeqCst),
            runs,
            "{case}: the service ran"
        );
    }
}

/// `xml` with the byte at the first match of `needle` + `offset` changed
/// to another character of the same class, so the text stays well formed.
fn flip(xml: &str, needle: &str, offset: usize) -> HeaderEntry {
    let at = xml.find(needle).expect("needle present") + offset;
    let mut bytes = xml.as_bytes().to_vec();
    bytes[at] = match bytes[at] {
        b'9' => b'0',
        b'z' | b'Z' => bytes[at] - 1,
        b => b + 1,
    };
    HeaderEntry::parse(String::from_utf8(bytes).unwrap()).expect("still one element")
}

#[test]
fn one_flipped_byte_in_any_signed_field_is_refused_before_dispatch() {
    let fig = Fig2::new();
    let genuine = fig.signed("a-1").to_header();
    assert_eq!(
        fig.call(vec![genuine.clone()]).unwrap(),
        SoapValue::str("alice@GCE.ORG")
    );
    let xml = genuine.as_str();
    let sig_at = "<Signature>".len();
    for (field, needle, offset) in [
        ("subject", ">alice@GCE.ORG<", 1),
        ("signature", "<Signature>", sig_at + 7),
        (
            "NotOnOrAfter",
            "NotOnOrAfter=\"",
            "NotOnOrAfter=\"".len() + 2,
        ),
        (
            "context",
            "NameQualifier=\"ctx-",
            "NameQualifier=\"ctx-".len() + 5,
        ),
        ("statement", ">pi<", 1),
        (
            "statement name",
            "AttributeName=\"akenti",
            "AttributeName=\"".len(),
        ),
    ] {
        fig.assert_rejected(vec![flip(xml, needle, offset)], field);
    }
    assert_eq!(fig.runs.load(Ordering::SeqCst), 1);
}

#[test]
fn malformed_first_assertion_entry_is_refused_even_beside_a_good_one() {
    let fig = Fig2::new();
    let genuine = fig.signed("a-1").to_header();
    for malformed in [
        r#"<saml:Assertion AssertionID="x"/>"#,
        r#"<saml:Assertion IssueInstant="t"><saml:AuthenticationStatement NotOnOrAfter="1"/></saml:Assertion>"#,
        "<saml:Assertion>not an assertion</saml:Assertion>",
    ] {
        let malformed = HeaderEntry::parse(malformed).unwrap();
        fig.assert_rejected(vec![malformed, genuine.clone()], "malformed first entry");
    }
}

#[test]
fn with_two_assertion_entries_guard_and_service_both_take_the_first() {
    let fig = Fig2::new();
    let genuine = fig.signed("a-1").to_header();
    let tampered = flip(genuine.as_str(), ">pi<", 1);
    fig.assert_rejected(vec![tampered.clone(), genuine.clone()], "tampered first");
    assert_eq!(
        fig.verified.lock().unwrap().last().map(String::as_str),
        Some(tampered.as_str()),
        "the verify hop carried the first entry only"
    );
    // Genuine first: verified, and the service reads the same entry.
    let bob = {
        let gss = fig
            .auth
            .login("bob@GCE.ORG", "pw2", Mechanism::Kerberos)
            .unwrap();
        UserSession::new(gss, Arc::clone(fig.auth.clock())).make_assertion()
    };
    let out = fig.call(vec![genuine.clone(), bob.to_header()]).unwrap();
    assert_eq!(out, SoapValue::str("alice@GCE.ORG"));
    assert_eq!(
        fig.verified.lock().unwrap().last().map(String::as_str),
        Some(genuine.as_str())
    );
}

#[test]
fn an_entity_escaped_subject_is_refused() {
    // The same subject, spelled the way no signer writes it: an XML reader
    // decodes it to the signed value, so only the byte form gives it away.
    let fig = Fig2::new();
    let genuine = fig.signed("a-1").to_header();
    for spelled in [
        ">&#97;lice@GCE.ORG<",
        ">alice&#64;GCE.ORG<",
        ">alice@GCE.ORG <",
    ] {
        let respelled = genuine.as_str().replace(">alice@GCE.ORG<", spelled);
        let entry = HeaderEntry::parse(respelled).unwrap();
        assert_eq!(
            Assertion::read(entry.as_str()).unwrap().subject,
            "alice@GCE.ORG",
            "{spelled} reads as the signed subject"
        );
        fig.assert_rejected(vec![entry], spelled);
    }
}

#[test]
fn the_verify_hop_carries_the_clients_bytes_unchanged() {
    let fig = Fig2::new();
    let session = UserSession::new(fig.alice.clone(), Arc::clone(fig.auth.clock()));
    let supplier = session.header_supplier();
    let sent = Arc::new(Mutex::new(Vec::new()));
    let record = Arc::clone(&sent);
    let client = SoapClient::new(
        Arc::new(InMemoryTransport::new(Arc::clone(&fig.ssp))),
        "WhoAmI",
    );
    client.set_header_supplier(Arc::new(move || {
        let headers = supplier();
        record
            .lock()
            .unwrap()
            .extend(headers.iter().map(|h| h.as_str().to_owned()));
        headers
    }));
    for _ in 0..3 {
        client.call("whoami", &[]).unwrap();
    }
    let sent = sent.lock().unwrap();
    assert_eq!(sent.len(), 3);
    assert_eq!(
        *fig.verified.lock().unwrap(),
        *sent,
        "verified bytes are the sent bytes"
    );
    for xml in sent.iter() {
        // And the sent bytes are the assertion tree's serialization.
        let assertion = Assertion::read(xml).unwrap();
        assert_eq!(*xml, assertion.to_element().to_xml());
    }
    assert_eq!(fig.auth.verification_count(), 3);
}
