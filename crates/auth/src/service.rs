//! The Authentication Service of Figure 2.
//!
//! One hardened server holds the keytab ("limiting the use of keytabs to
//! a single, well secured server is desirable") and every GSS context.
//! The login flow establishes a context whose symmetric key is shared
//! with the UI server's session object; subsequent verification requests
//! from SOAP Service Providers are answered by recomputing the assertion
//! MAC under the context key.
//!
//! The service is exposed both as a Rust API (for in-process use by the
//! UI server) and as a [`SoapService`] (for the Figure 2 wire protocol,
//! where even the UI server logs in over SOAP).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use portalws_gridsim::clock::SimClock;
use portalws_gridsim::cred::{CredentialAuthority, Mechanism};
use portalws_soap::{
    CallContext, Fault, HeaderEntry, MethodDesc, PortalErrorKind, SoapResult, SoapService,
    SoapType, SoapValue,
};
use portalws_wire::{ArcCell, WireStats};

use crate::assertion::Assertion;
use crate::session::UserSession;
use crate::{AuthError, Result};

/// What a successful login hands back to the UI server's session object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GssSession {
    /// Context identifier (public).
    pub context_id: String,
    /// Symmetric session key (one "half" lives here, the other stays in
    /// the Authentication Service — shipping it in the login response is
    /// the simulation's stand-in for the GSS key exchange).
    pub key: String,
    /// The authenticated principal.
    pub principal: String,
    /// Mechanism used.
    pub mechanism: Mechanism,
    /// Context expiry (sim ms).
    pub expires_at_ms: u64,
}

struct GssContext {
    principal: String,
    key: String,
    expires_at_ms: u64,
}

/// Below this the replay cache never bothers pruning — the `retain` scan
/// costs more than the memory it frees.
const REPLAY_PRUNE_FLOOR: usize = 32;

/// Seen-assertion-id set with amortized pruning: instead of scanning the
/// whole map under the write lock on *every* verification (O(n) each), it
/// scans only when the map has doubled since the last scan, keeping the
/// live set bounded at the same asymptote for O(1) amortized cost.
struct ReplayCache {
    /// Seen assertion id → its expiry (sim ms).
    seen: HashMap<String, u64>,
    /// Prune when `seen` reaches this size.
    prune_at: usize,
}

impl ReplayCache {
    fn new() -> ReplayCache {
        ReplayCache {
            seen: HashMap::new(),
            prune_at: REPLAY_PRUNE_FLOOR,
        }
    }

    /// Drop expired entries if the map has grown to its prune threshold,
    /// then re-arm the threshold at double the live size.
    fn maybe_prune(&mut self, now: u64) {
        if self.seen.len() >= self.prune_at {
            self.seen.retain(|_, expires| *expires > now);
            self.prune_at = (self.seen.len() * 2).max(REPLAY_PRUNE_FLOOR);
        }
    }
}

/// Most entries the verification cache holds. Past it, a fill first drops
/// expired entries and then, if the cache is still full, evicts an eighth
/// of it: safe at any moment, because a miss only recomputes the MAC.
/// (The replay cache has no such cap: evicting a live id there would let
/// a replay through.)
pub const VERIFY_CACHE_CAP: usize = 4096;

/// Opt-in positive verification cache: the signatures of assertions
/// whose MAC has already been recomputed and matched, mapped to
/// `(canonical form, expiry)`, at most [`VERIFY_CACHE_CAP`] of them. A
/// hit additionally requires the stored canonical bytes (which include
/// the assertion id) to equal the presented assertion's — byte-for-byte
/// equality, not a hash, so there is no collision to engineer: any
/// tampered copy riding the original signature string misses and falls
/// through to the (failing) MAC recomputation. The cached path skips the
/// expensive part (the MAC's two 128-bit keyed passes) and allocates
/// nothing: the lookup borrows the signature, and the canonical form is
/// written into a reused buffer for the compare. Context lookup and
/// expiry, assertion expiry, subject match, and the replay check run on
/// every verification. Negative results are never cached (see DESIGN.md).
struct VerifyCache {
    proven: HashMap<String, (String, u64)>,
    prune_at: usize,
}

impl VerifyCache {
    fn new() -> VerifyCache {
        VerifyCache {
            proven: HashMap::new(),
            prune_at: REPLAY_PRUNE_FLOOR,
        }
    }

    /// Make room for one more entry: the amortized sweep of expired
    /// entries, then, at the cap, eviction of an eighth of the cache, so
    /// a cache full of live entries pays one scan per eighth refilled.
    fn make_room(&mut self, now: u64) {
        if self.proven.len() >= self.prune_at {
            self.proven.retain(|_, (_, expires)| *expires > now);
            self.prune_at = (self.proven.len() * 2).clamp(REPLAY_PRUNE_FLOOR, VERIFY_CACHE_CAP);
        }
        if self.proven.len() >= VERIFY_CACHE_CAP {
            let evict = self.proven.len() - VERIFY_CACHE_CAP * 7 / 8;
            let victims: Vec<_> = self.proven.keys().take(evict).cloned().collect();
            for victim in &victims {
                self.proven.remove(victim);
            }
        }
    }
}

/// The Authentication Service.
pub struct AuthService {
    clock: Arc<SimClock>,
    authority: CredentialAuthority,
    contexts: RwLock<HashMap<String, GssContext>>,
    next_ctx: AtomicU64,
    verifications: AtomicU64,
    /// GSS context lifetime (ms).
    context_ttl_ms: u64,
    /// Opt-in replay protection. `None` preserves the historical behavior
    /// where one assertion may be verified many times (E2 replays the
    /// same assertion deliberately).
    replay_cache: RwLock<Option<ReplayCache>>,
    /// Opt-in MAC-skip cache for assertions already proven authentic.
    verify_cache: RwLock<Option<VerifyCache>>,
    /// Counter sink (`auth_verify_cached`); replaceable so a deployment
    /// can aggregate auth counters with its wire stats. An [`ArcCell`]
    /// (PR 10) so the per-verification read is one atomic pointer load —
    /// no read-lock, no double indirection — while `set_stats` stays a
    /// rare wiring-time swap.
    stats: ArcCell<WireStats>,
}

impl AuthService {
    /// A service over `clock` with an empty keytab and 8-hour contexts.
    pub fn new(clock: Arc<SimClock>) -> Arc<AuthService> {
        let authority = CredentialAuthority::new(Arc::clone(&clock));
        Arc::new(AuthService {
            clock,
            authority,
            contexts: RwLock::new(HashMap::new()),
            next_ctx: AtomicU64::new(0),
            verifications: AtomicU64::new(0),
            context_ttl_ms: 8 * 3600 * 1000,
            replay_cache: RwLock::new(None),
            verify_cache: RwLock::new(None),
            stats: ArcCell::new(Arc::new(WireStats::new())),
        })
    }

    /// Turn on assertion replay protection: after this call, each
    /// assertion id passes verification at most once before its expiry.
    /// Pruning is amortized — expired entries are swept only once the map
    /// has doubled since the last sweep — so the map stays within a
    /// constant factor of the live-assertion count without paying an
    /// O(n) scan on every verification.
    pub fn enable_replay_protection(&self) {
        let mut cache = self.replay_cache.write();
        if cache.is_none() {
            *cache = Some(ReplayCache::new());
        }
    }

    /// Number of entries in the replay cache (0 when disabled). Between
    /// amortized sweeps this may count already-expired ids; it is bounded
    /// by `max(2 × live, floor)`.
    pub fn replay_cache_len(&self) -> usize {
        self.replay_cache
            .read()
            .as_ref()
            .map(|c| c.seen.len())
            .unwrap_or(0)
    }

    /// Turn on the assertion-verification cache: a `(id, signature)` pair
    /// whose MAC has already been recomputed and matched skips the MAC on
    /// re-presentation. Positive results only — failures are never
    /// cached — and every other check (context, expiry, subject, replay)
    /// still runs, so replay protection and revocation-by-logout are
    /// unaffected. Hits are visible as `auth_verify_cached` in the stats.
    pub fn enable_verify_cache(&self) {
        let mut cache = self.verify_cache.write();
        if cache.is_none() {
            *cache = Some(VerifyCache::new());
        }
    }

    /// Number of entries in the verification cache (0 when disabled); at
    /// most [`VERIFY_CACHE_CAP`].
    pub fn verify_cache_len(&self) -> usize {
        self.verify_cache
            .read()
            .as_ref()
            .map(|c| c.proven.len())
            .unwrap_or(0)
    }

    /// The counter sink this service records into.
    pub fn stats(&self) -> Arc<WireStats> {
        self.stats.load()
    }

    /// Aggregate this service's counters into `stats` (e.g. a
    /// deployment's shared wire stats).
    pub fn set_stats(&self, stats: Arc<WireStats>) {
        self.stats.store(stats);
    }

    /// Register a principal in the keytab.
    pub fn register_user(&self, principal: &str, secret: &str) {
        self.authority.register_principal(principal, secret);
    }

    /// The shared simulation clock.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// Count of signature verifications performed (experiment E2 reports
    /// the load concentrated on this server under central verification).
    pub fn verification_count(&self) -> u64 {
        self.verifications.load(Ordering::Relaxed)
    }

    /// Authenticate and establish a GSS context.
    pub fn login(&self, principal: &str, secret: &str, mechanism: Mechanism) -> Result<GssSession> {
        let cred = self
            .authority
            .login(principal, secret, mechanism)
            .map_err(|e| AuthError::LoginFailed(e.to_string()))?;
        let n = self.next_ctx.fetch_add(1, Ordering::Relaxed) + 1;
        let context_id = format!("ctx-{n:06}");
        // Session key derivation: bound to the credential token, which
        // only the authority and this login response ever see.
        let key = crate::mac::sign(&cred.token, &context_id);
        let expires_at_ms = self.clock.now() + self.context_ttl_ms;
        self.contexts.write().insert(
            context_id.clone(),
            GssContext {
                principal: principal.to_owned(),
                key: key.clone(),
                expires_at_ms,
            },
        );
        Ok(GssSession {
            context_id,
            key,
            principal: principal.to_owned(),
            mechanism,
            expires_at_ms,
        })
    }

    /// Tear down a context.
    pub fn logout(&self, context_id: &str) {
        self.contexts.write().remove(context_id);
    }

    /// Verify a signed assertion: context known and unexpired, subject
    /// matches the context principal, assertion unexpired, MAC valid,
    /// and (when [`AuthService::enable_replay_protection`] has been
    /// called) the assertion id not previously presented. Returns the
    /// authenticated principal.
    pub fn verify_assertion(&self, assertion: &Assertion) -> Result<String> {
        self.verifications.fetch_add(1, Ordering::Relaxed);
        let now = self.clock.now();
        let contexts = self.contexts.read();
        let ctx = contexts
            .get(&assertion.context_id)
            .ok_or_else(|| AuthError::UnknownContext(assertion.context_id.clone()))?;
        if now >= ctx.expires_at_ms {
            return Err(AuthError::Expired);
        }
        if assertion.is_expired_at(now) {
            return Err(AuthError::Expired);
        }
        if ctx.principal != assertion.subject {
            return Err(AuthError::BadSignature);
        }
        // MAC check, with the opt-in verification cache in front: an
        // assertion whose (signature, canonical form) was already proven
        // skips the MAC recomputation. The canonical comparison is exact
        // byte equality — a tampered body riding a previously proven
        // signature string cannot collide its way into a hit; it misses
        // and fails the recomputed MAC below.
        let sig = assertion.signature.as_deref();
        let cached = match (self.verify_cache.read().as_ref(), sig) {
            (Some(cache), Some(sig)) => Some(cache.proven.get(sig).is_some_and(|(proven, _)| {
                assertion.with_canonical(|canonical| canonical == proven)
            })),
            _ => None,
        };
        if cached == Some(true) {
            self.stats.load().record_auth_verify_cached();
        } else {
            assertion.verify_signature(&ctx.key)?;
            if let (Some(false), Some(sig)) = (cached, sig) {
                if let Some(cache) = self.verify_cache.write().as_mut() {
                    cache.make_room(now);
                    let proven = (assertion.canonical(), assertion.expires_at_ms);
                    cache.proven.insert(sig.to_owned(), proven);
                }
            }
        }
        // Replay check last, so only authenticated assertions can occupy
        // cache entries. Expired ids can never verify again (the expiry
        // check above fires first), so the amortized sweep may keep them
        // around a while without changing any verdict.
        if let Some(cache) = self.replay_cache.write().as_mut() {
            cache.maybe_prune(now);
            if cache.seen.contains_key(&assertion.id) {
                return Err(AuthError::Replayed(assertion.id.clone()));
            }
            cache
                .seen
                .insert(assertion.id.clone(), assertion.expires_at_ms);
        }
        Ok(assertion.subject.clone())
    }

    /// Verify the assertion a header entry carries, as its sender wrote
    /// it: the one verify path, whether the entry arrived on a verify hop
    /// or an SSP checks it in process. The assertion is read from the
    /// entry's text by the tokenizer, and the text must be byte for byte
    /// what [`Assertion::write_xml`] writes for it, so any spelling a
    /// signer never writes (an entity-escaped field, a repeated element)
    /// is refused, and every later reader of the entry, here or
    /// downstream, sees exactly what was verified. Then
    /// [`AuthService::verify_assertion`] decides.
    pub fn verify_entry(&self, entry: &HeaderEntry) -> Result<String> {
        let assertion = Assertion::read(entry.as_str())?;
        if !assertion.is_written_as(entry.as_str()) {
            return Err(AuthError::Malformed(
                "not in the form its signer writes".into(),
            ));
        }
        self.verify_assertion(&assertion)
    }

    /// Look up the key for a context — only used by the *local
    /// verification* ablation, which deliberately violates the paper's
    /// keytab-containment argument to measure what centralization costs.
    pub fn context_key(&self, context_id: &str) -> Option<String> {
        self.contexts.read().get(context_id).map(|c| c.key.clone())
    }

    /// Live context count.
    pub fn context_count(&self) -> usize {
        self.contexts.read().len()
    }
}

/// Newtype exposing an [`AuthService`] as a SOAP service (the orphan rule
/// forbids implementing the foreign trait directly on `Arc<AuthService>`).
pub struct AuthSoapFacade(pub Arc<AuthService>);

impl SoapService for AuthSoapFacade {
    fn name(&self) -> &str {
        "Authentication"
    }

    fn invoke(
        &self,
        method: &str,
        args: &[(String, SoapValue)],
        ctx: &CallContext,
    ) -> SoapResult<SoapValue> {
        let arg_str = |i: usize, name: &str| -> SoapResult<&str> {
            args.get(i).and_then(|(_, v)| v.as_str()).ok_or_else(|| {
                Fault::portal(PortalErrorKind::BadArguments, format!("missing {name}"))
            })
        };
        match method {
            "login" => {
                let principal = arg_str(0, "principal")?;
                let secret = arg_str(1, "secret")?;
                let mechanism =
                    Mechanism::from_name(arg_str(2, "mechanism")?).ok_or_else(|| {
                        Fault::portal(PortalErrorKind::BadArguments, "unknown mechanism")
                    })?;
                let session = self
                    .0
                    .login(principal, secret, mechanism)
                    .map_err(|e| Fault::portal(PortalErrorKind::AuthFailed, e.to_string()))?;
                Ok(SoapValue::Struct(vec![
                    ("contextId".into(), SoapValue::str(session.context_id)),
                    ("sessionKey".into(), SoapValue::str(session.key)),
                    (
                        "expiresAt".into(),
                        SoapValue::Int(session.expires_at_ms as i64),
                    ),
                ]))
            }
            "verify" => {
                // The assertion rides as the request's own header entry,
                // as the client wrote it; it is read from that text.
                let verdict = UserSession::find_assertion(&ctx.headers)
                    .ok_or_else(|| AuthError::Malformed("no Assertion header entry".into()))
                    .and_then(|entry| self.0.verify_entry(entry));
                match verdict {
                    Ok(principal) => Ok(SoapValue::Struct(vec![
                        ("valid".into(), SoapValue::Bool(true)),
                        ("principal".into(), SoapValue::str(principal)),
                    ])),
                    // A negative answer is a *result*, not a fault — the
                    // SPP turns it into its own AUTH_FAILED fault.
                    Err(e) => Ok(SoapValue::Struct(vec![
                        ("valid".into(), SoapValue::Bool(false)),
                        ("reason".into(), SoapValue::str(e.to_string())),
                    ])),
                }
            }
            "logout" => {
                let context_id = arg_str(0, "contextId")?;
                self.0.logout(context_id);
                Ok(SoapValue::Null)
            }
            other => Err(Fault::client(format!(
                "Authentication has no method {other:?}"
            ))),
        }
    }

    fn methods(&self) -> Vec<MethodDesc> {
        vec![
            MethodDesc::new(
                "login",
                vec![
                    ("principal", SoapType::String),
                    ("secret", SoapType::String),
                    ("mechanism", SoapType::String),
                ],
                SoapType::Struct,
                "Authenticate and establish a GSS context",
            ),
            MethodDesc::new(
                "verify",
                vec![],
                SoapType::Struct,
                "Verify the signed SAML assertion in the request header; returns valid/principal",
            ),
            MethodDesc::new(
                "logout",
                vec![("contextId", SoapType::String)],
                SoapType::Void,
                "Tear down a GSS context",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> Arc<AuthService> {
        let svc = AuthService::new(SimClock::new());
        svc.register_user("alice@GCE.ORG", "pw");
        svc
    }

    fn signed_assertion(svc: &AuthService, session: &GssSession) -> Assertion {
        let mut a = Assertion::new(
            "a-1",
            session.context_id.clone(),
            session.principal.clone(),
            session.mechanism.name(),
            svc.clock().timestamp(),
            svc.clock().now() + 60_000,
        );
        a.sign(&session.key);
        a
    }

    #[test]
    fn login_verify_logout_cycle() {
        let svc = service();
        let session = svc
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        assert_eq!(svc.context_count(), 1);
        let a = signed_assertion(&svc, &session);
        assert_eq!(svc.verify_assertion(&a).unwrap(), "alice@GCE.ORG");
        svc.logout(&session.context_id);
        assert!(matches!(
            svc.verify_assertion(&a),
            Err(AuthError::UnknownContext(_))
        ));
    }

    #[test]
    fn bad_login_rejected() {
        let svc = service();
        assert!(svc
            .login("alice@GCE.ORG", "bad", Mechanism::Kerberos)
            .is_err());
        assert!(svc.login("bob@GCE.ORG", "pw", Mechanism::Kerberos).is_err());
    }

    #[test]
    fn forged_signature_rejected() {
        let svc = service();
        let session = svc
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        let mut a = signed_assertion(&svc, &session);
        a.sign("wrong-key");
        assert_eq!(svc.verify_assertion(&a), Err(AuthError::BadSignature));
    }

    #[test]
    fn subject_must_match_context() {
        let svc = service();
        svc.register_user("bob@GCE.ORG", "pw2");
        let alice = svc
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        // Bob's subject signed under Alice's context key.
        let mut a = Assertion::new(
            "a-2",
            alice.context_id.clone(),
            "bob@GCE.ORG",
            "kerberos",
            "t",
            1_000_000,
        );
        a.sign(&alice.key);
        assert_eq!(svc.verify_assertion(&a), Err(AuthError::BadSignature));
    }

    #[test]
    fn expired_assertion_rejected() {
        let svc = service();
        let session = svc
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        let a = signed_assertion(&svc, &session);
        svc.clock().advance(61_000);
        assert_eq!(svc.verify_assertion(&a), Err(AuthError::Expired));
    }

    #[test]
    fn expired_context_rejected() {
        let svc = service();
        let session = svc
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        svc.clock().advance(9 * 3600 * 1000);
        let mut a = Assertion::new(
            "a-3",
            session.context_id.clone(),
            session.principal.clone(),
            "kerberos",
            "t",
            svc.clock().now() + 1000,
        );
        a.sign(&session.key);
        assert_eq!(svc.verify_assertion(&a), Err(AuthError::Expired));
    }

    #[test]
    fn distinct_logins_get_distinct_contexts_and_keys() {
        let svc = service();
        let s1 = svc
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        let s2 = svc.login("alice@GCE.ORG", "pw", Mechanism::Pki).unwrap();
        assert_ne!(s1.context_id, s2.context_id);
        assert_ne!(s1.key, s2.key);
    }

    #[test]
    fn verification_counter_tracks() {
        let svc = service();
        let session = svc
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        let a = signed_assertion(&svc, &session);
        for _ in 0..5 {
            svc.verify_assertion(&a).unwrap();
        }
        assert_eq!(svc.verification_count(), 5);
    }

    fn signed_assertion_with_id(svc: &AuthService, session: &GssSession, id: &str) -> Assertion {
        let mut a = Assertion::new(
            id,
            session.context_id.clone(),
            session.principal.clone(),
            session.mechanism.name(),
            svc.clock().timestamp(),
            svc.clock().now() + 60_000,
        );
        a.sign(&session.key);
        a
    }

    #[test]
    fn replay_protection_is_opt_in() {
        // E2 deliberately verifies one assertion many times; until a
        // deployment opts in, that must keep working.
        let svc = service();
        let session = svc
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        let a = signed_assertion(&svc, &session);
        svc.verify_assertion(&a).unwrap();
        svc.verify_assertion(&a).unwrap();
        assert_eq!(svc.replay_cache_len(), 0);
    }

    #[test]
    fn replayed_assertion_rejected_when_protection_enabled() {
        // Regression (e12 chaos soak, mid-stream-close schedules): a
        // retried request re-presents the same assertion id; with replay
        // protection on, the second presentation must be refused.
        let svc = service();
        svc.enable_replay_protection();
        let session = svc
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        let a = signed_assertion_with_id(&svc, &session, "r-1");
        assert_eq!(svc.verify_assertion(&a).unwrap(), "alice@GCE.ORG");
        assert_eq!(
            svc.verify_assertion(&a),
            Err(AuthError::Replayed("r-1".into()))
        );
        // A fresh id under the same context still verifies.
        let b = signed_assertion_with_id(&svc, &session, "r-2");
        assert_eq!(svc.verify_assertion(&b).unwrap(), "alice@GCE.ORG");
        assert_eq!(svc.replay_cache_len(), 2);
    }

    fn signed_assertion_expiring(
        svc: &AuthService,
        session: &GssSession,
        id: &str,
        expires_at_ms: u64,
    ) -> Assertion {
        let mut a = Assertion::new(
            id,
            session.context_id.clone(),
            session.principal.clone(),
            session.mechanism.name(),
            svc.clock().timestamp(),
            expires_at_ms,
        );
        a.sign(&session.key);
        a
    }

    #[test]
    fn replay_cache_prunes_amortized_and_stays_bounded() {
        // The prune is amortized: expired ids are swept only when the map
        // doubles, not scanned on every verification — but the map stays
        // within a constant factor of the live set, and the replay
        // verdicts are exactly what the eager-prune version gave.
        let svc = service();
        svc.enable_replay_protection();
        let session = svc
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        // 40 short-lived assertions (past the 32-entry prune floor).
        for i in 0..40 {
            let a = signed_assertion_expiring(
                &svc,
                &session,
                &format!("e-{i}"),
                svc.clock().now() + 1_000,
            );
            svc.verify_assertion(&a).unwrap();
        }
        assert_eq!(svc.replay_cache_len(), 40);
        svc.clock().advance(2_000); // all 40 expire
                                    // One fresh verification must NOT trigger a full sweep (the old
                                    // implementation pruned to 1 entry here, paying O(n) every call).
        let fresh = signed_assertion_expiring(&svc, &session, "f-0", svc.clock().now() + 600_000);
        svc.verify_assertion(&fresh).unwrap();
        assert_eq!(svc.replay_cache_len(), 41, "no per-verify sweep");
        // Replay semantics are unchanged while entries linger: a live id
        // re-presented is Replayed, an expired one is Expired (never
        // Replayed — the expiry check fires first).
        assert_eq!(
            svc.verify_assertion(&fresh),
            Err(AuthError::Replayed("f-0".into()))
        );
        let stale = signed_assertion_expiring(&svc, &session, "e-0", svc.clock().now() - 1_000);
        assert_eq!(svc.verify_assertion(&stale), Err(AuthError::Expired));
        // Keep verifying fresh ids: crossing the doubled threshold sweeps
        // the 40 expired entries, so the map tracks the live set instead
        // of growing without bound.
        for i in 1..100 {
            let a = signed_assertion_expiring(
                &svc,
                &session,
                &format!("f-{i}"),
                svc.clock().now() + 600_000,
            );
            svc.verify_assertion(&a).unwrap();
            assert!(
                svc.replay_cache_len() <= 2 * (i + 1) + 40,
                "bounded by a constant factor of live entries"
            );
        }
        assert_eq!(svc.replay_cache_len(), 100, "expired ids were swept");
    }

    #[test]
    fn verify_cache_skips_mac_and_counts_hits() {
        let svc = service();
        svc.enable_verify_cache();
        let session = svc
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        let a = signed_assertion(&svc, &session);
        for _ in 0..5 {
            assert_eq!(svc.verify_assertion(&a).unwrap(), "alice@GCE.ORG");
        }
        assert_eq!(svc.verify_cache_len(), 1);
        assert_eq!(
            svc.stats().snapshot().auth_verify_cached,
            4,
            "first verify recomputes the MAC, the four re-presentations hit"
        );
    }

    #[test]
    fn verify_cache_composes_with_every_other_check() {
        // A cached MAC skips only the MAC: replay protection, context
        // revocation, and expiry all still apply to re-presentations.
        let svc = service();
        svc.enable_verify_cache();
        svc.enable_replay_protection();
        let session = svc
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        let a = signed_assertion_with_id(&svc, &session, "vc-1");
        assert_eq!(svc.verify_assertion(&a).unwrap(), "alice@GCE.ORG");
        // Replay check still fires even though the MAC is now cached.
        assert_eq!(
            svc.verify_assertion(&a),
            Err(AuthError::Replayed("vc-1".into()))
        );
        // Expiry still fires on a cached assertion.
        let b = signed_assertion_with_id(&svc, &session, "vc-2");
        svc.verify_assertion(&b).unwrap();
        svc.clock().advance(61_000);
        assert_eq!(svc.verify_assertion(&b), Err(AuthError::Expired));
        // Logout revokes the context; the cached MAC cannot resurrect it.
        let c = signed_assertion_expiring(&svc, &session, "vc-3", svc.clock().now() + 60_000);
        svc.verify_assertion(&c).unwrap();
        svc.logout(&session.context_id);
        assert!(matches!(
            svc.verify_assertion(&c),
            Err(AuthError::UnknownContext(_))
        ));
    }

    #[test]
    fn verify_cache_never_caches_negatives_and_misses_on_tamper() {
        let svc = service();
        svc.enable_verify_cache();
        let session = svc
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        // A forged assertion fails and occupies no cache entry.
        let mut forged = signed_assertion_with_id(&svc, &session, "vc-f");
        forged.sign("wrong-key");
        assert_eq!(svc.verify_assertion(&forged), Err(AuthError::BadSignature));
        assert_eq!(svc.verify_cache_len(), 0);
        // Prove the genuine assertion, then tamper with its content: the
        // signature differs, so the tampered copy misses the cache and
        // fails the MAC — the cache cannot be used to smuggle content.
        let real = signed_assertion_with_id(&svc, &session, "vc-f");
        svc.verify_assertion(&real).unwrap();
        assert_eq!(svc.verify_cache_len(), 1);
        let mut tampered = real.clone();
        tampered.statements.push(("role".into(), "admin".into()));
        assert_eq!(
            svc.verify_assertion(&tampered),
            Err(AuthError::BadSignature)
        );
        assert_eq!(svc.stats().snapshot().auth_verify_cached, 0);
    }

    #[test]
    fn verify_cache_stays_within_its_cap_under_a_frozen_clock() {
        // The clock never moves, so no entry ever expires and only the cap
        // bounds the cache. Ten caps' worth of distinct assertions, with
        // re-presentations of recent and long-evicted ones and a forgery
        // now and then: the cache never passes its cap, and every verdict
        // is the one a service without the cache gives.
        let cached = service();
        cached.enable_verify_cache();
        let plain = service();
        let on = cached
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        let off = plain
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        let assertion = |svc: &AuthService, session: &GssSession, i: usize| {
            let mut a = signed_assertion_with_id(svc, session, &format!("cap-{i}"));
            if i % 7 == 3 {
                a.sign("forged-key");
            }
            a
        };
        let n = 10 * VERIFY_CACHE_CAP;
        for i in 0..n {
            let want = plain.verify_assertion(&assertion(&plain, &off, i));
            let fresh = assertion(&cached, &on, i);
            assert_eq!(cached.verify_assertion(&fresh), want, "assertion {i}");
            assert_eq!(cached.verify_assertion(&fresh), want, "{i} again");
            let old = i / 2;
            let got = cached.verify_assertion(&assertion(&cached, &on, old));
            let want = plain.verify_assertion(&assertion(&plain, &off, old));
            assert_eq!(got, want, "assertion {old}, presented at step {i}");
            assert!(cached.verify_cache_len() <= VERIFY_CACHE_CAP, "step {i}");
        }
        assert!(cached.verify_cache_len() >= VERIFY_CACHE_CAP * 7 / 8);
        // Every genuine assertion presented twice in a row hit the second
        // time: eviction makes room before a fill, never after it.
        let genuine = (0..n).filter(|i| i % 7 != 3).count() as u64;
        assert!(cached.stats().snapshot().auth_verify_cached >= genuine);
    }

    #[test]
    fn unauthenticated_assertions_cannot_occupy_replay_cache() {
        let svc = service();
        svc.enable_replay_protection();
        let session = svc
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        let mut forged = signed_assertion_with_id(&svc, &session, "r-forged");
        forged.sign("wrong-key");
        assert_eq!(svc.verify_assertion(&forged), Err(AuthError::BadSignature));
        assert_eq!(svc.replay_cache_len(), 0);
        // The legitimate holder of that id is not locked out by the forgery.
        let real = signed_assertion_with_id(&svc, &session, "r-forged");
        assert_eq!(svc.verify_assertion(&real).unwrap(), "alice@GCE.ORG");
    }

    #[test]
    fn clock_skew_rejected_even_with_valid_signature() {
        // A client whose clock runs behind the Authentication Service
        // mints a correctly signed assertion that is already beyond its
        // NotOnOrAfter by server time. The server clock wins: Expired,
        // never accepted, and never cached as a live id.
        let svc = service();
        svc.enable_replay_protection();
        let session = svc
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        svc.clock().advance(120_000);
        let mut stale = Assertion::new(
            "r-skew",
            session.context_id.clone(),
            session.principal.clone(),
            session.mechanism.name(),
            "2002-11-16T09:00:00Z",
            60_000, // 60s past by server time
        );
        stale.sign(&session.key);
        assert_eq!(svc.verify_assertion(&stale), Err(AuthError::Expired));
        // Boundary: NotOnOrAfter exactly equal to server "now" is also out.
        let mut edge = Assertion::new(
            "r-edge",
            session.context_id.clone(),
            session.principal.clone(),
            session.mechanism.name(),
            "2002-11-16T09:00:00Z",
            svc.clock().now(),
        );
        edge.sign(&session.key);
        assert_eq!(svc.verify_assertion(&edge), Err(AuthError::Expired));
        assert_eq!(svc.replay_cache_len(), 0);
    }

    #[test]
    fn soap_facade_login_and_verify() {
        let svc = service();
        let ctx = CallContext {
            headers: vec![],
            service: "Authentication".into(),
            method: "login".into(),
        };
        let facade = AuthSoapFacade(Arc::clone(&svc));
        let out = SoapService::invoke(
            &facade,
            "login",
            &[
                ("p".into(), SoapValue::str("alice@GCE.ORG")),
                ("s".into(), SoapValue::str("pw")),
                ("m".into(), SoapValue::str("kerberos")),
            ],
            &ctx,
        )
        .unwrap();
        let context_id = out.field("contextId").unwrap().as_str().unwrap().to_owned();
        let key = out
            .field("sessionKey")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();

        let mut a = Assertion::new("a-9", context_id, "alice@GCE.ORG", "kerberos", "t", 60_000);
        a.sign(&key);
        let facade = AuthSoapFacade(Arc::clone(&svc));
        let verify = CallContext {
            headers: vec![a.to_header()],
            method: "verify".into(),
            ..ctx
        };
        let out = SoapService::invoke(&facade, "verify", &[], &verify).unwrap();
        assert_eq!(out.field("valid").unwrap().as_bool(), Some(true));
        assert_eq!(
            out.field("principal").unwrap().as_str(),
            Some("alice@GCE.ORG")
        );
    }

    #[test]
    fn soap_facade_negative_verify_is_result_not_fault() {
        let svc = service();
        let ctx = CallContext {
            headers: vec![],
            service: "Authentication".into(),
            method: "verify".into(),
        };
        let mut a = Assertion::new("a-9", "ctx-none", "x", "kerberos", "t", 60_000);
        a.sign("k");
        let facade = AuthSoapFacade(Arc::clone(&svc));
        let malformed = HeaderEntry::parse(r#"<saml:Assertion AssertionID="x"/>"#).unwrap();
        for headers in [vec![a.to_header()], vec![], vec![malformed]] {
            let ctx = CallContext {
                headers,
                ..ctx.clone()
            };
            let out = SoapService::invoke(&facade, "verify", &[], &ctx).unwrap();
            assert_eq!(out.field("valid").unwrap().as_bool(), Some(false));
        }
        assert_eq!(
            svc.verification_count(),
            1,
            "only a readable assertion is verified"
        );
    }
}
