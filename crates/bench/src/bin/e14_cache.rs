//! E14 — versioned read caching + single-flight coalescing on the
//! discovery and auth hot paths.
//!
//! Three series, cache-on vs cache-off:
//!
//! 1. **Repeated discovery reads** (pooled TCP, central security): the
//!    same UDDI keyword query and the same WSDL bind, repeated — the
//!    portal UI's idle-loop workload. Cache-on serves repeats from the
//!    client read cache, revalidated by the registry's mutation
//!    generation; cache-off pays a full wire round trip each time.
//! 2. **Assertion re-verification** (in-process AuthService): one signed
//!    assertion presented repeatedly, as a gateway fanning one user
//!    request out to several providers does. The verify cache skips the
//!    two-pass MAC recomputation on re-presentation; every other check
//!    (context, expiry, subject, replay posture) still runs.
//! 3. **Mixed flow** (pooled TCP, central security): rounds of
//!    login-backed discover → bind → submit → poll × 2. Cache-on also
//!    enables client-side assertion reuse so the server's verify cache
//!    sees re-presentations. Reports µs/round, the read-cache hit rate,
//!    and `auth_verify_cached`.
//!
//! ```sh
//! cargo run -p portalws-bench --release --bin e14_cache -- \
//!     [--quick] [--json PATH] [--baseline PATH]
//! ```
//!
//! Gates: repeated discovery reads ≥5× faster cached; assertion
//! re-verification ≥2× faster cached; mixed-flow read hit rate ≥0.8.
//! `--baseline` additionally fails on a >2× regression of the cached
//! read µs/op.

use std::sync::Arc;
use std::time::Instant;

use portalws_auth::{AuthService, UserSession};
use portalws_bench::{read_baseline, Flags, Gates, Json};
use portalws_core::{PortalDeployment, SecurityMode, UiServer};
use portalws_gridsim::clock::SimClock;
use portalws_gridsim::cred::Mechanism;
use portalws_soap::{ReadCache, SoapValue};

const PBS_SCRIPT: &str =
    "#!/bin/sh\n#PBS -N e14\n#PBS -q batch\n#PBS -l nodes=1\n#PBS -l walltime=00:01:00\nhostname\n";

fn logged_in_ui(cached: bool) -> (Arc<PortalDeployment>, UiServer) {
    let dep = PortalDeployment::over_tcp_pooled(SecurityMode::Central);
    let ui = UiServer::new(Arc::clone(&dep));
    ui.login("alice@GCE.ORG", "alice-pass").expect("login");
    if cached {
        ui.enable_read_caching(Arc::new(ReadCache::default()));
    }
    (dep, ui)
}

struct DiscoveryRow {
    arm: &'static str,
    find_us: f64,
    bind_us: f64,
    hit_rate: f64,
}

/// Series 1: repeated UDDI query and repeated WSDL bind, µs/op.
fn discovery(cached: bool, iters: usize) -> DiscoveryRow {
    let (_dep, ui) = logged_in_ui(cached);
    // Warm: first read fills the cache (or just the pool).
    let hits = ui.find_services("script").expect("find");
    let hit = hits.first().expect("populated registry").clone();
    ui.bind(&hit).expect("bind");

    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(ui.find_services("script").expect("find"));
    }
    let find_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(ui.bind(&hit).expect("bind"));
    }
    let bind_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    let hit_rate = ui
        .read_cache()
        .map(|c| c.stats().snapshot().cache_hit_rate())
        .unwrap_or(0.0);
    DiscoveryRow {
        arm: if cached { "cache-on" } else { "cache-off" },
        find_us,
        bind_us,
        hit_rate,
    }
}

/// Series 2: one signed assertion re-verified `iters` times, µs/verify.
fn reverify(cached: bool, iters: usize) -> f64 {
    let svc = AuthService::new(SimClock::new());
    svc.register_user("alice@GCE.ORG", "pw");
    if cached {
        svc.enable_verify_cache();
    }
    let gss = svc
        .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
        .expect("login");
    let session = UserSession::new(gss, Arc::clone(svc.clock()));
    let assertion = session.make_assertion();
    // First presentation recomputes (and caches) the MAC either way.
    svc.verify_assertion(&assertion).expect("verify");

    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(svc.verify_assertion(&assertion).expect("verify"));
    }
    t0.elapsed().as_secs_f64() * 1e6 / iters as f64
}

struct FlowRow {
    arm: &'static str,
    us_per_round: f64,
    read_hit_rate: f64,
    auth_verify_cached: u64,
    coalesced: u64,
}

/// Series 3: the mixed portal flow — discover → bind → submit → poll ×2
/// per round, against a central-security pooled-TCP deployment.
fn mixed_flow(cached: bool, rounds: usize) -> FlowRow {
    let (dep, ui) = logged_in_ui(cached);
    if cached {
        // Client half of the auth hot path: re-present one signed
        // assertion so the server's verify cache can skip the MAC.
        dep.auth.enable_verify_cache();
        ui.session().expect("session").set_assertion_reuse(60_000);
    }

    let t0 = Instant::now();
    for _ in 0..rounds {
        let job = ui.discover_and_bind("JobSubmission").expect("bind");
        let id = job
            .call(
                "submit",
                &[
                    SoapValue::str("tg-login"),
                    SoapValue::str("PBS"),
                    SoapValue::str(PBS_SCRIPT),
                ],
            )
            .expect("submit");
        for _ in 0..2 {
            std::hint::black_box(
                job.call("status", std::slice::from_ref(&id))
                    .expect("status"),
            );
        }
    }
    let us_per_round = t0.elapsed().as_secs_f64() * 1e6 / rounds as f64;

    let (read_hit_rate, coalesced) = ui
        .read_cache()
        .map(|c| {
            let snap = c.stats().snapshot();
            (snap.cache_hit_rate(), snap.coalesced_calls)
        })
        .unwrap_or((0.0, 0));
    FlowRow {
        arm: if cached { "cache-on" } else { "cache-off" },
        us_per_round,
        read_hit_rate,
        auth_verify_cached: dep.auth.stats().snapshot().auth_verify_cached,
        coalesced,
    }
}

fn main() {
    let flags = Flags::from_env(&["--quick"], &["--json", "--baseline"]);
    let quick = flags.has("--quick");
    let baseline = flags.value("--baseline").map(read_baseline);

    let (read_iters, verify_iters, rounds) = if quick {
        (200, 2_000, 20)
    } else {
        (1_000, 20_000, 60)
    };

    println!("E14 — versioned read caching + single-flight coalescing");

    // --- Series 1: repeated discovery reads ------------------------------
    println!("\n  repeated reads (pooled TCP, central security, {read_iters} iters)");
    println!(
        "  {:<10} {:>12} {:>12} {:>9}",
        "arm", "find µs/op", "bind µs/op", "hit rate"
    );
    let disc_off = discovery(false, read_iters);
    let disc_on = discovery(true, read_iters);
    for row in [&disc_off, &disc_on] {
        println!(
            "  {:<10} {:>12.1} {:>12.1} {:>9.3}",
            row.arm, row.find_us, row.bind_us, row.hit_rate
        );
    }
    let find_speedup = disc_off.find_us / disc_on.find_us;
    let bind_speedup = disc_off.bind_us / disc_on.bind_us;
    println!("  speedup: find {find_speedup:.1}x, bind {bind_speedup:.1}x");

    // --- Series 2: assertion re-verification -----------------------------
    let verify_off = reverify(false, verify_iters);
    let verify_on = reverify(true, verify_iters);
    let verify_speedup = verify_off / verify_on;
    println!("\n  assertion re-verification ({verify_iters} iters)");
    println!("  cache-off {verify_off:.3} µs/verify, cache-on {verify_on:.3} µs/verify ({verify_speedup:.1}x)");

    // --- Series 3: mixed flow --------------------------------------------
    println!("\n  mixed flow: discover → bind → submit → poll × 2 ({rounds} rounds)");
    println!(
        "  {:<10} {:>12} {:>9} {:>12} {:>10}",
        "arm", "µs/round", "hit rate", "auth-cached", "coalesced"
    );
    let flow_off = mixed_flow(false, rounds);
    let flow_on = mixed_flow(true, rounds);
    for row in [&flow_off, &flow_on] {
        println!(
            "  {:<10} {:>12.0} {:>9.3} {:>12} {:>10}",
            row.arm, row.us_per_round, row.read_hit_rate, row.auth_verify_cached, row.coalesced
        );
    }

    // --- Gates ------------------------------------------------------------
    let mut gates = Gates::default();
    const MIN_READ_SPEEDUP: f64 = 5.0;
    gates.check(
        find_speedup >= MIN_READ_SPEEDUP && bind_speedup >= MIN_READ_SPEEDUP,
        format!(
            "repeated discovery reads must be ≥{MIN_READ_SPEEDUP}x faster cached (find {find_speedup:.1}x, bind {bind_speedup:.1}x)"
        ),
    );
    const MIN_VERIFY_SPEEDUP: f64 = 2.0;
    gates.check(
        verify_speedup >= MIN_VERIFY_SPEEDUP,
        format!(
            "assertion re-verification must be ≥{MIN_VERIFY_SPEEDUP}x faster cached (got {verify_speedup:.1}x)"
        ),
    );
    const MIN_HIT_RATE: f64 = 0.8;
    gates.check(
        flow_on.read_hit_rate >= MIN_HIT_RATE,
        format!(
            "mixed-flow read hit rate must be ≥{MIN_HIT_RATE} (got {:.3})",
            flow_on.read_hit_rate
        ),
    );
    gates.check(
        flow_on.auth_verify_cached > 0,
        "mixed flow with assertion reuse produced no verify-cache hits".into(),
    );
    let cached_read_us = disc_on.find_us.max(disc_on.bind_us);

    // --- JSON artifact ----------------------------------------------------
    if let Some(path) = flags.value("--json") {
        Json::obj()
            .with("find_us_off", Json::num(disc_off.find_us, 3))
            .with("find_us_on", Json::num(disc_on.find_us, 3))
            .with("bind_us_off", Json::num(disc_off.bind_us, 3))
            .with("bind_us_on", Json::num(disc_on.bind_us, 3))
            .with("cached_read_us", Json::num(cached_read_us, 3))
            .with("verify_us_off", Json::num(verify_off, 4))
            .with("verify_us_on", Json::num(verify_on, 4))
            .with("flow_us_off", Json::num(flow_off.us_per_round, 1))
            .with("flow_us_on", Json::num(flow_on.us_per_round, 1))
            .with("hit_rate", Json::num(flow_on.read_hit_rate, 4))
            .with("min_hit_rate", Json::num(MIN_HIT_RATE, 1))
            .with("auth_verify_cached", flow_on.auth_verify_cached)
            .write_to(path);
    }

    // --- Baseline gate ----------------------------------------------------
    if let Some(baseline) = &baseline {
        const CACHED_READ_FACTOR: f64 = 2.0;
        gates.within(
            baseline,
            "cached_read_us",
            cached_read_us,
            CACHED_READ_FACTOR,
        );
    }

    gates.finish(&format!(
        "cache gates passed: reads ≥{MIN_READ_SPEEDUP}x, re-verification ≥{MIN_VERIFY_SPEEDUP}x, hit rate ≥ {MIN_HIT_RATE}"
    ));
}
