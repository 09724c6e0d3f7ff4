//! The UI-server-side session object.
//!
//! Figure 2: "a user logs in through a web browser and gets a Kerberos
//! ticket on the User Interface server. This server creates a client
//! session object… Subsequent user interaction generates a SOAP request
//! that includes a SAML assertion that is signed by the client object on
//! the UI server." [`UserSession`] is that client object: it holds one
//! half of the GSS key and mints a fresh signed assertion per request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use portalws_gridsim::clock::SimClock;
use portalws_soap::client::HeaderSupplier;
use portalws_soap::{header, HeaderEntry};

use crate::assertion::Assertion;
use crate::service::GssSession;

/// Per-user signing session on the UI server.
pub struct UserSession {
    gss: GssSession,
    clock: Arc<SimClock>,
    counter: AtomicU64,
    /// Validity window for each minted assertion (ms).
    assertion_ttl_ms: u64,
    /// Opt-in reuse window (ms): within it, [`UserSession::make_assertion`]
    /// re-issues the last minted assertion instead of signing a new one.
    /// 0 = mint fresh per request (the default, required when the server
    /// enforces replay protection).
    assertion_reuse_ms: AtomicU64,
    /// The assertion being reused, when reuse is enabled.
    cached_assertion: Mutex<Option<Assertion>>,
}

impl UserSession {
    /// Wrap a completed login.
    pub fn new(gss: GssSession, clock: Arc<SimClock>) -> Arc<UserSession> {
        Arc::new(UserSession {
            gss,
            clock,
            counter: AtomicU64::new(0),
            assertion_ttl_ms: 5 * 60 * 1000,
            assertion_reuse_ms: AtomicU64::new(0),
            cached_assertion: Mutex::new(None),
        })
    }

    /// Reuse each minted assertion for `window_ms` instead of signing a
    /// fresh one per request. This is the client half of the assertion
    /// hot path: re-presenting one signed assertion lets a verify-caching
    /// Authentication Service ([`crate::AuthService::enable_verify_cache`])
    /// skip the MAC on every call after the first. Incompatible with
    /// server-side replay protection, which by design rejects the second
    /// presentation of any assertion id — deployments pick one posture.
    pub fn set_assertion_reuse(&self, window_ms: u64) {
        self.assertion_reuse_ms.store(window_ms, Ordering::Relaxed);
        if window_ms == 0 {
            *self.cached_assertion.lock() = None;
        }
    }

    /// The authenticated principal.
    pub fn principal(&self) -> &str {
        &self.gss.principal
    }

    /// The GSS context id.
    pub fn context_id(&self) -> &str {
        &self.gss.context_id
    }

    /// Assertions minted so far.
    pub fn assertions_minted(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// Mint and sign a fresh assertion — or, within an enabled reuse
    /// window, re-issue the previous one while it is still comfortably
    /// inside both the window and its own validity.
    pub fn make_assertion(&self) -> Assertion {
        let reuse_ms = self.assertion_reuse_ms.load(Ordering::Relaxed);
        if reuse_ms > 0 {
            let now = self.clock.now();
            let mut cached = self.cached_assertion.lock();
            if let Some(a) = cached.as_ref() {
                let reuse_until = (a.expires_at_ms - self.assertion_ttl_ms) + reuse_ms;
                if now < reuse_until && !a.is_expired_at(now) {
                    return a.clone();
                }
            }
            let a = self.mint();
            *cached = Some(a.clone());
            return a;
        }
        self.mint()
    }

    fn mint(&self) -> Assertion {
        let n = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        let mut a = Assertion::new(
            format!("{}-a{n:06}", self.gss.context_id),
            self.gss.context_id.clone(),
            self.gss.principal.clone(),
            self.gss.mechanism.name(),
            self.clock.timestamp(),
            self.clock.now() + self.assertion_ttl_ms,
        );
        a.sign(&self.gss.key);
        a
    }

    /// A SOAP header supplier that attaches a fresh signed assertion to
    /// every outgoing call (install on any `SoapClient`), written
    /// straight into its header entry.
    pub fn header_supplier(self: &Arc<Self>) -> HeaderSupplier {
        let me = Arc::clone(self);
        Arc::new(move || vec![me.make_assertion().to_header()])
    }

    /// The assertion entry among a set of SOAP headers: the first one
    /// named `Assertion`, the one every guard and the Authentication
    /// Service agree on.
    pub fn find_assertion(headers: &[HeaderEntry]) -> Option<&HeaderEntry> {
        header::find(headers, "Assertion")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::AuthService;
    use portalws_gridsim::cred::Mechanism;

    fn session() -> (Arc<AuthService>, Arc<UserSession>) {
        let svc = AuthService::new(SimClock::new());
        svc.register_user("alice@GCE.ORG", "pw");
        let gss = svc
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        let session = UserSession::new(gss, Arc::clone(svc.clock()));
        (svc, session)
    }

    #[test]
    fn minted_assertions_verify_centrally() {
        let (svc, session) = session();
        for _ in 0..3 {
            let a = session.make_assertion();
            assert_eq!(svc.verify_assertion(&a).unwrap(), "alice@GCE.ORG");
        }
        assert_eq!(session.assertions_minted(), 3);
    }

    #[test]
    fn assertion_ids_are_unique() {
        let (_, session) = session();
        let a = session.make_assertion();
        let b = session.make_assertion();
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn assertion_reuse_window_reissues_then_rotates() {
        let (svc, session) = session();
        session.set_assertion_reuse(10_000);
        let a = session.make_assertion();
        let b = session.make_assertion();
        assert_eq!(a, b, "inside the window the same assertion is reused");
        assert_eq!(session.assertions_minted(), 1);
        assert_eq!(svc.verify_assertion(&b).unwrap(), "alice@GCE.ORG");
        // Past the window a fresh assertion is minted and signed.
        svc.clock().advance(10_001);
        let c = session.make_assertion();
        assert_ne!(a.id, c.id);
        assert_eq!(session.assertions_minted(), 2);
        // Turning reuse off reverts to fresh-per-request.
        session.set_assertion_reuse(0);
        let d = session.make_assertion();
        let e = session.make_assertion();
        assert_ne!(d.id, e.id);
    }

    #[test]
    fn header_supplier_produces_assertion_header() {
        let (svc, session) = session();
        let headers = (session.header_supplier())();
        assert_eq!(headers.len(), 1);
        let entry = UserSession::find_assertion(&headers).expect("assertion header");
        let a = Assertion::read(entry.as_str()).unwrap();
        assert_eq!(entry.as_str(), a.to_element().to_xml());
        assert_eq!(svc.verify_assertion(&a).unwrap(), "alice@GCE.ORG");
    }

    #[test]
    fn assertions_expire_after_ttl() {
        let (svc, session) = session();
        let a = session.make_assertion();
        svc.clock().advance(5 * 60 * 1000 + 1);
        assert!(svc.verify_assertion(&a).is_err());
        // …but a freshly minted one still works.
        let fresh = session.make_assertion();
        assert!(svc.verify_assertion(&fresh).is_ok());
    }
}
