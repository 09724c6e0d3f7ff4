//! Client-side versioned read caching with single-flight coalescing.
//!
//! At portal scale most traffic is repeated reads — WSDL fetches,
//! registry/UDDI lookups, descriptor reads — each paying a full wire round
//! trip for a result that rarely changed. [`ReadCache`] removes that tax
//! with two cooperating mechanisms:
//!
//! * **Versioned entries.** Registries expose a monotonic mutation
//!   generation ([`crate::SoapService::generation`]) piggybacked on every
//!   reply header. The cache tracks the latest generation *observed* per
//!   service and lazily drops any entry cached at an older generation, so
//!   once a client has seen generation N it can never serve a read from
//!   N-1 — the staleness contract the e12 chaos soak asserts. Entries
//!   inside their TTL are served directly; past the TTL a versioned entry
//!   is revalidated with a cheap generation probe instead of a body
//!   refetch, and an unversioned entry simply expires.
//!
//! * **Single-flight coalescing.** N concurrent identical lookups issue
//!   exactly one wire call: the first caller becomes the *leader* and
//!   fetches; the rest park (bounded) on the leader's published result.
//!   A woken follower re-checks the fill's generation against the latest
//!   observed one before returning — a mutation reply landing while it
//!   was parked invalidates the fill for followers exactly as it does for
//!   the cached entry. If the leader's call fails, its followers wake,
//!   re-race for leadership, and after a few failed rounds fall back to
//!   direct calls — no thundering herd, and no waiter stuck behind a
//!   dead leader.
//!
//! Failures are never cached: a fault or transport error propagates to
//! exactly the callers that were coalesced onto it, and the next lookup
//! starts fresh. All outcomes are visible in [`WireStats`]
//! (`cache_hits`, `cache_misses`, `cache_invalidations`,
//! `coalesced_calls`).

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use portalws_wire::WireStats;

use crate::value::SoapValue;

/// FNV-1a over a byte stream: the args digest for cache keys. Not
/// cryptographic — a collision merely serves one cached read for another,
/// and keys are produced by this client's own serializer.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Sizing and freshness limits for a [`ReadCache`].
#[derive(Debug, Clone, Copy)]
pub struct ReadCacheConfig {
    /// Entries younger than this are served without revalidation; older
    /// versioned entries are revalidated with a generation probe, older
    /// unversioned entries expire.
    pub ttl: Duration,
    /// Entry cap; the oldest entry is evicted to admit a new one.
    pub max_entries: usize,
}

impl Default for ReadCacheConfig {
    fn default() -> ReadCacheConfig {
        ReadCacheConfig {
            ttl: Duration::from_secs(5),
            max_entries: 1024,
        }
    }
}

/// Cache key: `(service, method, args digest)`.
type Key = (String, String, u64);

struct Entry {
    value: Arc<SoapValue>,
    /// Service generation the value was fetched at; `None` for
    /// unversioned services (plain TTL expiry).
    generation: Option<u64>,
    cached_at: Instant,
}

/// Result of one in-flight leader call, published to its followers: the
/// value plus the generation it was fetched at, so a woken follower can
/// re-check the fill against the latest observed generation.
enum FlightState {
    Pending,
    Done(Arc<SoapValue>, Option<u64>),
    Failed,
}

/// One in-flight fetch that concurrent identical lookups coalesce onto.
/// Plain `std::sync` primitives: the parking_lot shim's lock-order
/// discipline tracks map locks, while this wait is leaf-level and bounded.
struct Flight {
    state: StdMutex<FlightState>,
    cv: Condvar,
}

/// How long a follower parks on its leader before treating the flight as
/// failed and re-racing for leadership. A bound, not a latency target:
/// every normal wake-up is via notify_all.
const FOLLOW_WAIT: Duration = Duration::from_secs(2);

/// Failed follow rounds before a caller stops coalescing and fetches
/// directly (guards against livelock under a storm of failing leaders).
const MAX_FOLLOW_FAILURES: u32 = 3;

impl Flight {
    fn new() -> Flight {
        Flight {
            state: StdMutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Publish the leader's outcome (`None` = failed) and wake followers.
    fn publish(&self, outcome: Option<(Arc<SoapValue>, Option<u64>)>) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state = match outcome {
            Some((value, generation)) => FlightState::Done(value, generation),
            None => FlightState::Failed,
        };
        self.cv.notify_all();
    }

    /// Bounded follower park. `Some(Some((v, gen)))` = leader succeeded,
    /// `Some(None)` = leader failed, `None` = timed out still pending.
    #[allow(clippy::type_complexity)]
    fn wait_for_outcome(&self, bound: Duration) -> Option<Option<(Arc<SoapValue>, Option<u64>)>> {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (state, _timeout) = self
            .cv
            .wait_timeout_while(state, bound, |s| matches!(s, FlightState::Pending))
            .unwrap_or_else(PoisonError::into_inner);
        match &*state {
            FlightState::Pending => None,
            FlightState::Done(value, generation) => Some(Some((Arc::clone(value), *generation))),
            FlightState::Failed => Some(None),
        }
    }
}

/// A versioned read cache with single-flight coalescing (module docs).
/// Shareable across clients; typically one per logical client endpoint so
/// observed generations and entries stay per-service-consistent.
pub struct ReadCache {
    cfg: ReadCacheConfig,
    entries: Mutex<HashMap<Key, Entry>>,
    /// Latest generation observed per service, from reply headers and
    /// probes. Only ever advances.
    latest_gen: Mutex<HashMap<String, u64>>,
    inflight: Mutex<HashMap<Key, Arc<Flight>>>,
    stats: Arc<WireStats>,
}

impl Default for ReadCache {
    fn default() -> Self {
        ReadCache::new(ReadCacheConfig::default())
    }
}

impl ReadCache {
    /// Empty cache with `cfg` limits and fresh counters.
    pub fn new(cfg: ReadCacheConfig) -> ReadCache {
        ReadCache {
            cfg,
            entries: Mutex::new(HashMap::new()),
            latest_gen: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            stats: Arc::new(WireStats::new()),
        }
    }

    /// Limits this cache enforces.
    pub fn config(&self) -> ReadCacheConfig {
        self.cfg
    }

    /// Counters: `cache_hits` / `cache_misses` / `cache_invalidations` /
    /// `coalesced_calls` tell the full story of every lookup.
    pub fn stats(&self) -> &Arc<WireStats> {
        &self.stats
    }

    /// Entries currently cached (tests and reporting).
    pub fn entry_count(&self) -> usize {
        self.entries.lock().len()
    }

    /// Record a generation seen for `service` (reply header or probe).
    /// Generations only advance; a delayed older observation is ignored.
    pub fn observe_generation(&self, service: &str, generation: u64) {
        let mut latest = self.latest_gen.lock();
        match latest.get_mut(service) {
            Some(current) => {
                if *current < generation {
                    *current = generation;
                }
            }
            None => {
                latest.insert(service.to_owned(), generation);
            }
        }
    }

    /// Latest generation observed for `service`, if any.
    pub fn latest_generation(&self, service: &str) -> Option<u64> {
        self.latest_gen.lock().get(service).copied()
    }

    /// The read path: serve a fresh cached value, or coalesce concurrent
    /// identical fetches into one `fetch` call.
    ///
    /// `fetch` performs the wire call and returns the parsed value plus
    /// the generation piggybacked on its reply (if the service is
    /// versioned). `probe`, when given, cheaply returns the service's
    /// current generation and is used to revalidate versioned entries
    /// past their TTL without refetching bodies.
    ///
    /// The value is shared, never copied: the entry, the in-flight result
    /// and every caller hold the same `Arc`.
    ///
    /// Errors are not cached: a failed fetch propagates to the leader and
    /// every follower coalesced onto it, and the next caller starts over.
    pub fn get_or_fetch<E>(
        &self,
        service: &str,
        method: &str,
        digest: u64,
        probe: Option<&dyn Fn() -> Option<u64>>,
        fetch: &dyn Fn() -> Result<(SoapValue, Option<u64>), E>,
    ) -> Result<Arc<SoapValue>, E> {
        let key: Key = (service.to_owned(), method.to_owned(), digest);
        let mut follow_failures = 0u32;
        loop {
            if let Some(value) = self.try_serve(&key, probe) {
                self.stats.record_cache_hit();
                return Ok(value);
            }
            if follow_failures > MAX_FOLLOW_FAILURES {
                // Too many dead leaders: stop coalescing, call directly.
                return self.fetch_and_fill(&key, None, fetch);
            }
            // Join the in-flight fetch for this key, or lead a new one.
            let (flight, leader) = {
                let mut inflight = self.inflight.lock();
                match inflight.get(&key) {
                    Some(flight) => (Arc::clone(flight), false),
                    None => {
                        let flight = Arc::new(Flight::new());
                        inflight.insert(key.clone(), Arc::clone(&flight));
                        (flight, true)
                    }
                }
            };
            if leader {
                return self.fetch_and_fill(&key, Some(&flight), fetch);
            }
            match flight.wait_for_outcome(FOLLOW_WAIT) {
                Some(Some((value, fill_gen))) => {
                    // While this follower was parked, a mutation reply
                    // may have advanced the observed generation past the
                    // leader's fill; serving that value would be a stale
                    // read after an observed bump. Re-check before
                    // returning and re-race on mismatch (the invalidated
                    // entry forces a fresh fetch next round).
                    let stale = fill_gen.is_some_and(|g| {
                        self.latest_generation(&key.0)
                            .is_some_and(|latest| latest > g)
                    });
                    if !stale {
                        self.stats.record_coalesced_call();
                        return Ok(value);
                    }
                    follow_failures += 1;
                }
                // Leader failed or timed out: re-check the cache and
                // re-race for leadership.
                Some(None) | None => follow_failures += 1,
            }
        }
    }

    /// Leader half of a fetch: wire call, cache fill, publish to
    /// followers, retire the flight.
    fn fetch_and_fill<E>(
        &self,
        key: &Key,
        flight: Option<&Arc<Flight>>,
        fetch: &dyn Fn() -> Result<(SoapValue, Option<u64>), E>,
    ) -> Result<Arc<SoapValue>, E> {
        self.stats.record_cache_miss();
        let result = fetch();
        if flight.is_some() {
            // Callers arriving from here on start a fresh flight; current
            // followers still hold their Arc and see the published state.
            self.inflight.lock().remove(key);
        }
        match result {
            Ok((value, generation)) => {
                if let Some(g) = generation {
                    self.observe_generation(&key.0, g);
                }
                let value = Arc::new(value);
                self.insert(key.clone(), Arc::clone(&value), generation);
                if let Some(flight) = flight {
                    flight.publish(Some((Arc::clone(&value), generation)));
                }
                Ok(value)
            }
            Err(e) => {
                if let Some(flight) = flight {
                    flight.publish(None);
                }
                Err(e)
            }
        }
    }

    /// Serve from the cache if the entry is present and provably fresh:
    /// not invalidated by an observed generation bump, and either inside
    /// its TTL or revalidated by a generation probe.
    fn try_serve(
        &self,
        key: &Key,
        probe: Option<&dyn Fn() -> Option<u64>>,
    ) -> Option<Arc<SoapValue>> {
        let latest = self.latest_gen.lock().get(&key.0).copied();
        {
            let mut entries = self.entries.lock();
            let entry = entries.get(key)?;
            if let (Some(cached_gen), Some(latest)) = (entry.generation, latest) {
                if cached_gen < latest {
                    // A newer generation has been *observed*: this entry
                    // must never be served again.
                    entries.remove(key);
                    self.stats.record_cache_invalidation();
                    return None;
                }
            }
            if entry.cached_at.elapsed() <= self.cfg.ttl {
                return Some(Arc::clone(&entry.value));
            }
            if entry.generation.is_none() || probe.is_none() {
                // Unversioned (or unprobable) entry past its TTL: expire.
                entries.remove(key);
                return None;
            }
        }
        // Versioned entry past its TTL: revalidate with a cheap generation
        // probe — no cache locks held across the wire call.
        let current = probe?()?;
        self.observe_generation(&key.0, current);
        let mut entries = self.entries.lock();
        let entry = entries.get_mut(key)?;
        if entry.generation == Some(current) {
            // Unchanged: the entry is fresh again for a full TTL.
            entry.cached_at = Instant::now();
            return Some(Arc::clone(&entry.value));
        }
        entries.remove(key);
        self.stats.record_cache_invalidation();
        None
    }

    fn insert(&self, key: Key, value: Arc<SoapValue>, generation: Option<u64>) {
        let mut entries = self.entries.lock();
        if entries.len() >= self.cfg.max_entries && !entries.contains_key(&key) {
            // Evict the oldest entry to stay bounded (the cap is portal
            // scale — hundreds — so a scan beats extra bookkeeping).
            let oldest = entries
                .iter()
                .min_by_key(|(_, e)| e.cached_at)
                .map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                entries.remove(&oldest);
            }
        }
        entries.insert(
            key,
            Entry {
                value,
                generation,
                cached_at: Instant::now(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cache_with_ttl(ttl: Duration) -> ReadCache {
        ReadCache::new(ReadCacheConfig {
            ttl,
            max_entries: 8,
        })
    }

    /// A fetch closure that counts calls and returns a fixed value at a
    /// fixed generation.
    fn counted_fetch(
        calls: &AtomicU64,
        value: i64,
        generation: Option<u64>,
    ) -> impl Fn() -> Result<(SoapValue, Option<u64>), ()> + '_ {
        move || {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok((SoapValue::Int(value), generation))
        }
    }

    #[test]
    fn second_read_is_a_hit_without_refetch() {
        let cache = cache_with_ttl(Duration::from_secs(60));
        let calls = AtomicU64::new(0);
        let fetch = counted_fetch(&calls, 7, Some(1));
        for _ in 0..5 {
            let v = cache.get_or_fetch("Svc", "read", 42, None, &fetch).unwrap();
            assert_eq!(*v, SoapValue::Int(7));
        }
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "one wire call for five reads"
        );
        let snap = cache.stats().snapshot();
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_hits, 4);
    }

    #[test]
    fn distinct_args_and_methods_key_separately() {
        let cache = cache_with_ttl(Duration::from_secs(60));
        let calls = AtomicU64::new(0);
        let fetch = counted_fetch(&calls, 1, None);
        cache
            .get_or_fetch::<()>("Svc", "read", 1, None, &fetch)
            .unwrap();
        cache
            .get_or_fetch::<()>("Svc", "read", 2, None, &fetch)
            .unwrap();
        cache
            .get_or_fetch::<()>("Svc", "other", 1, None, &fetch)
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(cache.entry_count(), 3);
    }

    #[test]
    fn observed_generation_bump_invalidates_before_serving() {
        let cache = cache_with_ttl(Duration::from_secs(60));
        let calls = AtomicU64::new(0);
        let fetch = counted_fetch(&calls, 7, Some(1));
        cache.get_or_fetch("Svc", "read", 42, None, &fetch).unwrap();
        // A mutation reply (any reply) carries generation 2.
        cache.observe_generation("Svc", 2);
        // The stale entry is dropped and refetched — never served.
        cache.get_or_fetch("Svc", "read", 42, None, &fetch).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let snap = cache.stats().snapshot();
        assert_eq!(snap.cache_invalidations, 1);
        assert_eq!(snap.cache_hits, 0);
    }

    #[test]
    fn generations_only_advance() {
        let cache = cache_with_ttl(Duration::from_secs(60));
        cache.observe_generation("Svc", 5);
        cache.observe_generation("Svc", 3); // delayed older reply
        assert_eq!(cache.latest_generation("Svc"), Some(5));
        assert_eq!(cache.latest_generation("Other"), None);
    }

    #[test]
    fn unversioned_entry_expires_at_ttl() {
        let cache = cache_with_ttl(Duration::from_millis(30));
        let calls = AtomicU64::new(0);
        let fetch = counted_fetch(&calls, 7, None);
        cache.get_or_fetch("Svc", "read", 1, None, &fetch).unwrap();
        cache.get_or_fetch("Svc", "read", 1, None, &fetch).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "inside TTL: served");
        std::thread::sleep(Duration::from_millis(50));
        cache.get_or_fetch("Svc", "read", 1, None, &fetch).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2, "past TTL: refetched");
    }

    #[test]
    fn versioned_entry_revalidates_with_probe_past_ttl() {
        let cache = cache_with_ttl(Duration::from_millis(20));
        let calls = AtomicU64::new(0);
        let probes = AtomicU64::new(0);
        let fetch = counted_fetch(&calls, 7, Some(3));
        let probe = || {
            probes.fetch_add(1, Ordering::SeqCst);
            Some(3u64) // unchanged generation
        };
        cache
            .get_or_fetch("Svc", "read", 1, Some(&probe), &fetch)
            .unwrap();
        std::thread::sleep(Duration::from_millis(40));
        let v = cache
            .get_or_fetch("Svc", "read", 1, Some(&probe), &fetch)
            .unwrap();
        assert_eq!(*v, SoapValue::Int(7));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "no body refetch");
        assert_eq!(probes.load(Ordering::SeqCst), 1, "one cheap probe");
        // The probe refreshed the TTL: an immediate third read needs none.
        cache
            .get_or_fetch("Svc", "read", 1, Some(&probe), &fetch)
            .unwrap();
        assert_eq!(probes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn probe_seeing_new_generation_forces_refetch() {
        let cache = cache_with_ttl(Duration::from_millis(20));
        let calls = AtomicU64::new(0);
        let generation = AtomicU64::new(3);
        let fetch = || {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok::<_, ()>((SoapValue::Int(7), Some(generation.load(Ordering::SeqCst))))
        };
        let probe = || Some(generation.load(Ordering::SeqCst));
        cache
            .get_or_fetch("Svc", "read", 1, Some(&probe), &fetch)
            .unwrap();
        generation.store(4, Ordering::SeqCst); // registry mutated
        std::thread::sleep(Duration::from_millis(40));
        cache
            .get_or_fetch("Svc", "read", 1, Some(&probe), &fetch)
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2, "stale entry refetched");
        assert_eq!(cache.stats().snapshot().cache_invalidations, 1);
    }

    #[test]
    fn failed_probe_never_serves_past_ttl() {
        let cache = cache_with_ttl(Duration::from_millis(20));
        let calls = AtomicU64::new(0);
        let fetch_ok = counted_fetch(&calls, 7, Some(3));
        let probe_dead = || None; // registry unreachable
        cache
            .get_or_fetch("Svc", "read", 1, Some(&probe_dead), &fetch_ok)
            .unwrap();
        std::thread::sleep(Duration::from_millis(40));
        // Probe fails → miss → the fetch error surfaces; the unprovable
        // entry is never served.
        let fetch_err = || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(())
        };
        let res: Result<Arc<SoapValue>, ()> =
            cache.get_or_fetch("Svc", "read", 1, Some(&probe_dead), &fetch_err);
        assert!(res.is_err());
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = cache_with_ttl(Duration::from_secs(60));
        let calls = AtomicU64::new(0);
        let failing = || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err::<(SoapValue, Option<u64>), &str>("boom")
        };
        assert!(cache
            .get_or_fetch("Svc", "read", 1, None, &failing)
            .is_err());
        assert!(cache
            .get_or_fetch("Svc", "read", 1, None, &failing)
            .is_err());
        assert_eq!(calls.load(Ordering::SeqCst), 2, "each attempt refetches");
        assert_eq!(cache.entry_count(), 0);
    }

    #[test]
    fn entry_cap_evicts_oldest() {
        let cache = ReadCache::new(ReadCacheConfig {
            ttl: Duration::from_secs(60),
            max_entries: 2,
        });
        let calls = AtomicU64::new(0);
        let fetch = counted_fetch(&calls, 1, None);
        cache
            .get_or_fetch::<()>("Svc", "read", 1, None, &fetch)
            .unwrap();
        cache
            .get_or_fetch::<()>("Svc", "read", 2, None, &fetch)
            .unwrap();
        cache
            .get_or_fetch::<()>("Svc", "read", 3, None, &fetch)
            .unwrap();
        assert_eq!(cache.entry_count(), 2, "cap enforced");
        // The newest two remain cached; digest 1 was evicted.
        cache
            .get_or_fetch::<()>("Svc", "read", 3, None, &fetch)
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn follower_revalidates_leader_fill_against_latest_generation() {
        // A mutation reply observed while a follower is parked must not
        // let the follower serve the leader's pre-bump fill: the follower
        // re-checks on wake-up and refetches instead.
        use std::sync::atomic::AtomicBool;

        let cache = Arc::new(cache_with_ttl(Duration::from_secs(60)));
        let calls = Arc::new(AtomicU64::new(0));
        let release = Arc::new(AtomicBool::new(false));
        let generation = Arc::new(AtomicU64::new(1));
        let spawn_reader = |label: i64| {
            let (cache, calls, release, generation) = (
                Arc::clone(&cache),
                Arc::clone(&calls),
                Arc::clone(&release),
                Arc::clone(&generation),
            );
            std::thread::spawn(move || {
                let fetch = || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    // The registry read happens when the call enters the
                    // wire; the reply is then held until released.
                    let g = generation.load(Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok::<_, ()>((SoapValue::Int(g as i64 * 100 + label), Some(g)))
                };
                cache.get_or_fetch("Svc", "read", 1, None, &fetch)
            })
        };
        let leader = spawn_reader(1);
        std::thread::sleep(Duration::from_millis(50)); // leader in flight
        let follower = spawn_reader(2);
        std::thread::sleep(Duration::from_millis(50)); // follower parked
        assert_eq!(calls.load(Ordering::SeqCst), 1, "follower coalesced");
        // A mutation reply bumps the observed generation, then the
        // leader's (generation-1) wire call completes.
        cache.observe_generation("Svc", 2);
        generation.store(2, Ordering::SeqCst);
        release.store(true, Ordering::SeqCst);
        // The leader returns its own wire-fresh read (fetched at gen 1).
        assert_eq!(leader.join().unwrap(), Ok(Arc::new(SoapValue::Int(101))));
        // The follower must NOT accept that pre-bump fill: it refetches
        // and comes back with post-bump data.
        assert_eq!(follower.join().unwrap(), Ok(Arc::new(SoapValue::Int(202))));
        assert_eq!(calls.load(Ordering::SeqCst), 2, "follower refetched");
        assert_eq!(cache.stats().snapshot().coalesced_calls, 0);
    }

    #[test]
    fn fnv1a_digest_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b" "));
    }
}
