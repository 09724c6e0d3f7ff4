//! Per-tenant admission quotas keyed off the verified assertion subject.
//!
//! The wire layer's bounded queues protect a host from *aggregate*
//! overload, but they are tenant-blind: one portal user replaying a
//! tight submit loop can starve everyone else before the queue ever
//! fills. [`TenantQuotas`] adds the fairness half of admission control —
//! a token bucket per assertion subject, consulted *after* the
//! authentication guard has verified the assertion (an unverified
//! subject must never burn another tenant's tokens).
//!
//! On exhaustion the guard raises [`PortalErrorKind::Busy`], which the
//! SOAP dispatcher decorates with `Retry-After` hints, so a quota shed
//! looks to clients exactly like a queue-full shed: typed, advisory,
//! retryable.
//!
//! The bucket map is lock-striped by subject hash (PR 10) so concurrent
//! tenants on different stripes never contend, and each stripe prunes
//! itself with an amortized sweep: a bucket that has refilled to full and
//! sat idle past the TTL carries no information (a fresh bucket starts at
//! full burst anyway), so dropping it is invisible to admission decisions
//! while bounding memory to O(live tenants), not O(subjects ever seen).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use portalws_soap::{CallContext, Fault, Guard, PortalErrorKind};

/// Lock stripes over the bucket map.
const QUOTA_STRIPES: usize = 8;

/// A bucket both refilled-to-full and untouched this long is pruned —
/// recreating it lazily yields the identical full-burst bucket.
pub const DEFAULT_IDLE_TTL: Duration = Duration::from_secs(300);

/// Smallest per-stripe occupancy that triggers an amortized sweep.
const PRUNE_FLOOR: usize = 8;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Token-bucket parameters shared by every tenant.
#[derive(Clone, Copy, Debug)]
pub struct QuotaConfig {
    /// Bucket capacity: how many calls a tenant may burst before the
    /// sustained rate applies.
    pub burst: f64,
    /// Sustained admission rate, in calls per second.
    pub refill_per_sec: f64,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig {
            burst: 16.0,
            refill_per_sec: 64.0,
        }
    }
}

struct Bucket {
    tokens: f64,
    refilled: Instant,
}

/// One lock stripe of the bucket map, with its amortized prune trigger.
struct Stripe {
    buckets: HashMap<String, Bucket>,
    /// Sweep when occupancy reaches this; doubled after each sweep so the
    /// amortized cost per acquire stays O(1) (the PR 8 replay-cache
    /// pattern).
    prune_at: usize,
}

/// Per-tenant token buckets. Buckets are created lazily at full burst on
/// a tenant's first call and refill continuously at the sustained rate.
/// Striped by subject hash; each stripe prunes refilled-and-idle buckets
/// with an amortized sweep, so memory is bounded by live tenants.
pub struct TenantQuotas {
    config: QuotaConfig,
    idle_ttl: Duration,
    stripes: Box<[Mutex<Stripe>]>,
}

impl TenantQuotas {
    pub fn new(config: QuotaConfig) -> Arc<Self> {
        TenantQuotas::with_idle_ttl(config, DEFAULT_IDLE_TTL)
    }

    /// A quota table with an explicit idle TTL (tests pin this low to
    /// exercise the prune path deterministically).
    pub fn with_idle_ttl(config: QuotaConfig, idle_ttl: Duration) -> Arc<Self> {
        let stripes: Vec<Mutex<Stripe>> = (0..QUOTA_STRIPES)
            .map(|i| {
                Mutex::new_named(
                    Stripe {
                        buckets: HashMap::new(),
                        prune_at: PRUNE_FLOOR,
                    },
                    &format!("quota-stripe-{i}"),
                )
            })
            .collect();
        Arc::new(TenantQuotas {
            config,
            idle_ttl,
            stripes: stripes.into_boxed_slice(),
        })
    }

    fn stripe_for(&self, subject: &str) -> Option<&Mutex<Stripe>> {
        let idx = (fnv1a(subject.as_bytes()) % self.stripes.len().max(1) as u64) as usize;
        self.stripes.get(idx)
    }

    /// Amortized sweep: once a stripe's occupancy reaches its trigger,
    /// drop every bucket that is both refilled-to-full (its tokens plus
    /// accrued refill reach the burst cap — recreating it lazily is
    /// indistinguishable) and idle past the TTL. A *spent* bucket is
    /// never pruned, no matter how idle: pruning it would forgive debt.
    fn prune(&self, stripe: &mut Stripe, now: Instant) {
        if stripe.buckets.len() < stripe.prune_at {
            return;
        }
        let burst = self.config.burst;
        let refill = self.config.refill_per_sec;
        let ttl = self.idle_ttl;
        stripe.buckets.retain(|_, b| {
            let idle = now.saturating_duration_since(b.refilled);
            let full = b.tokens + idle.as_secs_f64() * refill >= burst;
            !(full && idle >= ttl)
        });
        stripe.prune_at = (stripe.buckets.len() * 2).max(PRUNE_FLOOR);
    }

    /// Spend one token for `subject`. On exhaustion returns the advisory
    /// wait, in milliseconds, until the bucket holds a whole token again.
    pub fn try_acquire(&self, subject: &str) -> Result<(), u64> {
        let now = Instant::now();
        let Some(stripe) = self.stripe_for(subject) else {
            // Unreachable (the stripe array is never empty); admit rather
            // than invent a shed that no configuration can produce.
            return Ok(());
        };
        let mut stripe = stripe.lock();
        self.prune(&mut stripe, now);
        let bucket = stripe.buckets.entry(subject.to_owned()).or_insert(Bucket {
            tokens: self.config.burst,
            refilled: now,
        });
        let elapsed = now.saturating_duration_since(bucket.refilled).as_secs_f64();
        bucket.tokens =
            (bucket.tokens + elapsed * self.config.refill_per_sec).min(self.config.burst);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            return Ok(());
        }
        let deficit = 1.0 - bucket.tokens;
        let wait_ms = (deficit / self.config.refill_per_sec * 1000.0).ceil() as u64;
        Err(wait_ms.max(1))
    }

    /// Number of tenants currently holding a bucket (pruned tenants drop
    /// out once their bucket is swept).
    pub fn tenants(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().buckets.len()).sum()
    }
}

/// Callback invoked on every quota shed — deployments hang the host's
/// `WireStats::record_shed_quota` here so quota pressure shows up next
/// to the wire-level shed counters.
pub type ShedHook = Arc<dyn Fn() + Send + Sync>;

/// Compose an authentication guard with per-tenant quotas: after `inner`
/// accepts the caller, the verified assertion subject must hold a token.
/// Ordering matters — quota runs second so a forged assertion cannot
/// drain a legitimate tenant's bucket.
pub fn quota_guard(inner: Guard, quotas: Arc<TenantQuotas>, on_shed: Option<ShedHook>) -> Guard {
    Arc::new(move |ctx: &CallContext| {
        inner(ctx)?;
        let assertion = crate::guard::extract_assertion(ctx)?;
        match quotas.try_acquire(&assertion.subject) {
            Ok(()) => Ok(()),
            Err(retry_ms) => {
                if let Some(hook) = &on_shed {
                    hook();
                }
                Err(Fault::portal(
                    PortalErrorKind::Busy,
                    format!(
                        "tenant {} over admission quota on {}.{}; retry in ~{} ms",
                        assertion.subject, ctx.service, ctx.method, retry_ms
                    ),
                ))
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::local_guard;
    use crate::service::AuthService;
    use crate::session::UserSession;
    use portalws_gridsim::clock::SimClock;
    use portalws_gridsim::cred::Mechanism;
    use portalws_soap::{
        CallContext, MethodDesc, SoapClient, SoapResult, SoapServer, SoapService, SoapType,
        SoapValue,
    };
    use portalws_wire::{Handler, InMemoryTransport};

    #[test]
    fn bucket_bursts_then_sheds_then_refills() {
        let quotas = TenantQuotas::new(QuotaConfig {
            burst: 2.0,
            refill_per_sec: 20.0,
        });
        assert!(quotas.try_acquire("alice").is_ok());
        assert!(quotas.try_acquire("alice").is_ok());
        let wait = quotas.try_acquire("alice").unwrap_err();
        assert!(
            (1..=50).contains(&wait),
            "one token at 20/s is ~50 ms: {wait}"
        );
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert!(quotas.try_acquire("alice").is_ok(), "bucket refilled");
    }

    #[test]
    fn tenants_are_isolated() {
        let quotas = TenantQuotas::new(QuotaConfig {
            burst: 1.0,
            refill_per_sec: 0.001,
        });
        assert!(quotas.try_acquire("alice").is_ok());
        assert!(quotas.try_acquire("alice").is_err(), "alice is spent");
        assert!(
            quotas.try_acquire("bob").is_ok(),
            "alice's exhaustion never touches bob"
        );
        assert_eq!(quotas.tenants(), 2);
    }

    #[test]
    fn idle_full_buckets_are_pruned_bounding_memory() {
        // Fast refill + tiny TTL: a bucket is prunable almost immediately
        // after its tenant goes quiet.
        let quotas = TenantQuotas::with_idle_ttl(
            QuotaConfig {
                burst: 1.0,
                refill_per_sec: 1000.0,
            },
            Duration::from_millis(10),
        );
        // Generation one: 512 distinct subjects touch once and go idle.
        for i in 0..512 {
            let _ = quotas.try_acquire(&format!("gen1-{i}"));
        }
        assert_eq!(quotas.tenants(), 512);
        std::thread::sleep(Duration::from_millis(25));
        // Generation two churns through; the amortized sweeps triggered by
        // its inserts must reclaim generation one instead of letting the
        // map grow one entry per subject ever seen.
        for i in 0..512 {
            let _ = quotas.try_acquire(&format!("gen2-{i}"));
        }
        let tenants = quotas.tenants();
        assert!(
            tenants < 700,
            "prune must bound the map near live tenants, got {tenants}"
        );
    }

    #[test]
    fn spent_buckets_survive_pruning_and_keep_their_debt() {
        // Near-zero refill: a spent bucket never returns to full, so no
        // amount of idling may prune it — pruning would forgive the debt.
        let quotas = TenantQuotas::with_idle_ttl(
            QuotaConfig {
                burst: 1.0,
                refill_per_sec: 0.001,
            },
            Duration::ZERO,
        );
        assert!(quotas.try_acquire("debtor").is_ok());
        assert!(quotas.try_acquire("debtor").is_err(), "bucket is spent");
        // Force sweeps by pushing every stripe past its prune trigger.
        for i in 0..256 {
            let _ = quotas.try_acquire(&format!("filler-{i}"));
        }
        assert!(
            quotas.try_acquire("debtor").is_err(),
            "debt must survive the sweep"
        );
    }

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

    #[test]
    fn quota_guard_sheds_busy_after_burst_and_counts() {
        let auth = AuthService::new(SimClock::new());
        auth.register_user("alice@GCE.ORG", "pw");
        let quotas = TenantQuotas::new(QuotaConfig {
            burst: 3.0,
            refill_per_sec: 0.001,
        });
        let sheds = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let counter = Arc::clone(&sheds);
        let ssp = SoapServer::new();
        ssp.mount(Arc::new(Ping));
        ssp.set_guard(quota_guard(
            local_guard(Arc::clone(&auth)),
            quotas,
            Some(Arc::new(move || {
                counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            })),
        ));
        let handler: Arc<dyn Handler> = Arc::new(ssp);
        let ping = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "Ping");
        let gss = auth
            .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
            .unwrap();
        let session = UserSession::new(gss, Arc::clone(auth.clock()));
        ping.set_header_supplier(session.header_supplier());

        for _ in 0..3 {
            assert!(ping.call("ping", &[]).is_ok());
        }
        let err = ping.call("ping", &[]).unwrap_err();
        assert_eq!(
            err.as_fault().and_then(|f| f.kind()),
            Some(PortalErrorKind::Busy),
            "fourth call in the burst sheds as Busy"
        );
        assert_eq!(sheds.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn unauthenticated_caller_cannot_burn_tokens() {
        let auth = AuthService::new(SimClock::new());
        let quotas = TenantQuotas::new(QuotaConfig {
            burst: 1.0,
            refill_per_sec: 0.001,
        });
        let probe = Arc::clone(&quotas);
        let ssp = SoapServer::new();
        ssp.mount(Arc::new(Ping));
        ssp.set_guard(quota_guard(local_guard(auth), quotas, None));
        let handler: Arc<dyn Handler> = Arc::new(ssp);
        let bare = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "Ping");

        let err = bare.call("ping", &[]).unwrap_err();
        assert_eq!(
            err.as_fault().and_then(|f| f.kind()),
            Some(PortalErrorKind::AuthFailed),
            "authn fails before quota is consulted"
        );
        assert_eq!(probe.tenants(), 0, "no bucket was created for the reject");
    }
}
