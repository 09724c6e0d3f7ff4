//! E16 — state-plane sharding: lock-striped broker scaling and the
//! consistent-hash shard router.
//!
//! Three series:
//!
//! 1. **Stripe scaling**: 8 worker threads drive the E15-style mixed data
//!    flow (put → get → ls → stat per group) against one broker built
//!    with 1, 4 and 8 namespace stripes over 64 top-level collections.
//!    The broker's simulated storage device (150 µs service time per
//!    stripe, the e16 opt-in — zero in every server deployment) makes
//!    each stripe a single-head disk, so throughput scales with the
//!    number of stripes the collections spread across, independent of
//!    host core count. Reports req/s per arm and the p99 per-op latency
//!    of the 1-stripe (the old knee) vs the 8-stripe arm.
//! 2. **Shard-router scaling**: the same flow through the
//!    [`DataManagementService`] facade over 1 vs 4 single-stripe brokers,
//!    calls entering through the SOAP `invoke` surface with routed
//!    paths.
//! 3. **Placement quality**: the consistent-hash ring's per-shard key
//!    counts for 64 collections over 4 shards (balance = max/mean), and
//!    the fraction of 256 keys that move when a fifth shard joins
//!    (consistent hashing moves ~1/5, a mod-N rehash would move ~4/5).
//!
//! ```sh
//! cargo run -p portalws-bench --release --bin e16_shard -- \
//!     [--quick] [--json PATH] [--baseline PATH]
//! ```
//!
//! Gates: mixed-flow req/s ≥1.8× at 4 stripes vs 1 (8 workers); ring
//! balance max/mean ≤ 1.25 at 64 collections over 4 shards; rebalance
//! fraction < 0.5. `--baseline` holds the committed run's measured
//! scaling and balance to the same two bounds.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use portalws_bench::{percentile, read_baseline, Flags, Gates, Json};
use portalws_gridsim::srb::Srb;
use portalws_services::{DataManagementService, ShardMap};
use portalws_soap::{CallContext, SoapService, SoapValue};

const WORKERS: usize = 8;
const COLLECTIONS: usize = 64;
/// Simulated per-stripe storage service time (µs): the device-channel
/// model that makes stripe parallelism measurable on any core count.
const SERVICE_US: u64 = 150;

fn coll(i: usize) -> String {
    format!("/coll-{:02}", i % COLLECTIONS)
}

/// One worker's share of the mixed flow against a raw broker; returns
/// per-op latencies in µs.
fn drive_srb(srb: &Srb, worker: usize, ops: usize) -> Vec<f64> {
    let mut lat = Vec::with_capacity(ops);
    for k in 0..ops {
        let c = (worker * 31 + k / 4) % COLLECTIONS;
        let path = format!("{}/f-{worker}", coll(c));
        let t = Instant::now();
        match k % 4 {
            0 => {
                srb.put("bench", &path, b"mixed-flow payload for e16")
                    .expect("put");
            }
            1 => {
                std::hint::black_box(srb.get("bench", &path).expect("get"));
            }
            2 => {
                std::hint::black_box(srb.ls("bench", &coll(c)).expect("ls"));
            }
            _ => {
                std::hint::black_box(srb.stat("bench", &path).expect("stat"));
            }
        }
        lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    lat
}

/// Series 1 arm: req/s and per-op latencies for a broker with `stripes`
/// stripes under the full worker pool.
fn stripe_arm(stripes: usize, ops_per_worker: usize) -> (f64, Vec<f64>) {
    let srb = Arc::new(Srb::with_stripes(stripes));
    for i in 0..COLLECTIONS {
        srb.mkdir(&coll(i)).expect("mkdir");
    }
    srb.set_service_time_us(SERVICE_US);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let srb = Arc::clone(&srb);
            thread::spawn(move || drive_srb(&srb, w, ops_per_worker))
        })
        .collect();
    let mut lat = Vec::new();
    for h in handles {
        lat.extend(h.join().expect("worker"));
    }
    let rps = (WORKERS * ops_per_worker) as f64 / t0.elapsed().as_secs_f64();
    (rps, lat)
}

/// One worker's share of the mixed flow through the facade's SOAP
/// `invoke` surface.
fn drive_router(svc: &DataManagementService, worker: usize, ops: usize) {
    let ctx = CallContext {
        headers: vec![],
        service: "DataManagement".into(),
        method: "bench".into(),
    };
    for k in 0..ops {
        let c = (worker * 31 + k / 4) % COLLECTIONS;
        let path = format!("{}/f-{worker}", coll(c));
        match k % 4 {
            0 => {
                svc.invoke(
                    "put",
                    &[
                        ("path".into(), SoapValue::str(path)),
                        ("content".into(), SoapValue::str("mixed-flow payload")),
                    ],
                    &ctx,
                )
                .expect("put");
            }
            1 => {
                std::hint::black_box(
                    svc.invoke("get", &[("path".into(), SoapValue::str(path))], &ctx)
                        .expect("get"),
                );
            }
            2 => {
                std::hint::black_box(
                    svc.invoke(
                        "ls",
                        &[("collection".into(), SoapValue::str(coll(c)))],
                        &ctx,
                    )
                    .expect("ls"),
                );
            }
            _ => {
                std::hint::black_box(
                    svc.invoke("getB64", &[("path".into(), SoapValue::str(path))], &ctx)
                        .expect("getB64"),
                );
            }
        }
    }
}

/// Series 2 arm: req/s through the facade over `shards` single-stripe
/// brokers (so every speedup comes from sharding, not striping).
fn shard_arm(shards: usize, ops_per_worker: usize) -> f64 {
    let brokers: Vec<_> = (0..shards)
        .map(|_| {
            let srb = Arc::new(Srb::with_stripes(1));
            srb.set_service_time_us(SERVICE_US);
            srb
        })
        .collect();
    let svc = Arc::new(DataManagementService::with_brokers(brokers));
    for i in 0..COLLECTIONS {
        svc.mkdir(&coll(i)).expect("mkdir");
    }
    let t0 = Instant::now();
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let svc = Arc::clone(&svc);
            thread::spawn(move || drive_router(&svc, w, ops_per_worker))
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }
    (WORKERS * ops_per_worker) as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let flags = Flags::from_env(&["--quick"], &["--json", "--baseline"]);
    let quick = flags.has("--quick");
    let baseline = flags.value("--baseline").map(read_baseline);

    let ops_per_worker = if quick { 200 } else { 800 };

    println!("E16 — state-plane sharding: lock striping + the consistent-hash shard router");

    // --- Series 1: stripe scaling ----------------------------------------
    println!(
        "\n  stripe scaling ({WORKERS} workers × {ops_per_worker} ops, {COLLECTIONS} collections, {SERVICE_US} µs/op device)"
    );
    println!("  {:<10} {:>10} {:>12}", "stripes", "req/s", "p99 µs/op");
    let mut stripe_rps = Vec::new();
    let mut p99_unsharded = 0.0;
    let mut p99_sharded = 0.0;
    for stripes in [1usize, 4, 8] {
        let (rps, mut lat) = stripe_arm(stripes, ops_per_worker);
        lat.sort_by(f64::total_cmp);
        let p = percentile(&lat, 0.99);
        if stripes == 1 {
            p99_unsharded = p;
        }
        if stripes == 8 {
            p99_sharded = p;
        }
        println!("  {stripes:<10} {rps:>10.0} {p:>12.1}");
        stripe_rps.push(rps);
    }
    let stripe_scaling = stripe_rps.get(1).copied().unwrap_or(0.0)
        / stripe_rps.first().copied().unwrap_or(f64::INFINITY);
    println!("  scaling at 4 stripes vs 1: {stripe_scaling:.2}x");

    // --- Series 2: shard-router scaling ----------------------------------
    println!("\n  shard-router scaling (single-stripe backends, calls through invoke)");
    println!("  {:<10} {:>10}", "shards", "req/s");
    let shard_rps_1 = shard_arm(1, ops_per_worker);
    println!("  {:<10} {shard_rps_1:>10.0}", 1);
    let shard_rps_4 = shard_arm(4, ops_per_worker);
    println!("  {:<10} {shard_rps_4:>10.0}", 4);
    let shard_scaling = shard_rps_4 / shard_rps_1;
    println!("  scaling at 4 shards vs 1: {shard_scaling:.2}x");

    // --- Series 3: placement quality -------------------------------------
    let map = ShardMap::new(4);
    let mut counts = vec![0usize; 4];
    for i in 0..COLLECTIONS {
        if let Some(c) = counts.get_mut(map.owner_of_top(&format!("coll-{i:02}"))) {
            *c += 1;
        }
    }
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let balance = max / (COLLECTIONS as f64 / 4.0);
    let after = ShardMap::new(5);
    let moved = (0..256)
        .filter(|i| {
            let top = format!("coll-{i}");
            map.owner_of_top(&top) != after.owner_of_top(&top)
        })
        .count();
    let rebalance_fraction = moved as f64 / 256.0;
    println!(
        "\n  placement: per-shard keys {counts:?}, balance max/mean {balance:.3}; \
         4→5 shards moved {moved}/256 keys ({rebalance_fraction:.3})"
    );

    // --- Gates ------------------------------------------------------------
    let mut gates = Gates::default();
    const MIN_SCALING: f64 = 1.8;
    const MAX_BALANCE: f64 = 1.25;
    let mut check_run = |run: &str, scaling: f64, balance: f64| {
        gates.check(
            scaling >= MIN_SCALING,
            format!(
                "{run}mixed flow must scale ≥{MIN_SCALING}x at 4 stripes vs 1 (got {scaling:.2}x)"
            ),
        );
        gates.check(
            balance <= MAX_BALANCE,
            format!("{run}ring balance max/mean must be ≤{MAX_BALANCE} at {COLLECTIONS} collections (got {balance:.3})"),
        );
    };
    check_run("", stripe_scaling, balance);
    // A committed baseline must itself meet the bounds; a missing key
    // reads as NaN, which meets none.
    if let Some(baseline) = &baseline {
        let measured = |key| baseline.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        check_run(
            "baseline: ",
            measured("stripe_scaling_4"),
            measured("balance_max_mean"),
        );
    }
    const MAX_REBALANCE: f64 = 0.5;
    gates.check(
        rebalance_fraction < MAX_REBALANCE,
        format!(
            "adding one shard must move <{:.0}% of keys (got {rebalance_fraction:.3})",
            MAX_REBALANCE * 100.0
        ),
    );

    // --- JSON artifact ----------------------------------------------------
    if let Some(path) = flags.value("--json") {
        let stripe_rps = |i: usize| Json::num(stripe_rps.get(i).copied().unwrap_or(0.0), 1);
        Json::obj()
            .with("stripe_rps_1", stripe_rps(0))
            .with("stripe_rps_4", stripe_rps(1))
            .with("stripe_rps_8", stripe_rps(2))
            .with("stripe_scaling_4", Json::num(stripe_scaling, 3))
            .with("shard_rps_1", Json::num(shard_rps_1, 1))
            .with("shard_rps_4", Json::num(shard_rps_4, 1))
            .with("shard_scaling_4", Json::num(shard_scaling, 3))
            .with("p99_us_unsharded", Json::num(p99_unsharded, 1))
            .with("p99_us_sharded", Json::num(p99_sharded, 1))
            .with("balance_max_mean", Json::num(balance, 4))
            .with("rebalance_fraction", Json::num(rebalance_fraction, 4))
            .with("min_scaling", Json::num(MIN_SCALING, 1))
            .with("max_balance", Json::num(MAX_BALANCE, 2))
            .write_to(path);
    }

    gates.finish(&format!(
        "shard gates passed: ≥{MIN_SCALING}x at 4 stripes, balance ≤{MAX_BALANCE}, rebalance <{MAX_REBALANCE}",
    ));
}
