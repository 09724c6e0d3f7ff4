//! E12 — chaos soak: seeded fault schedules against the integrated
//! deployment.
//!
//! Each schedule stands up the full Fig. 4 topology under a
//! [`ChaosPolicy`] derived from one printed seed, then drives the portal
//! shell through a representative session while asserting the shell
//! invariants of DESIGN.md §9:
//!
//! 1. **No panics** — a schedule that panics anywhere in the stack fails
//!    the soak and prints its seed for replay.
//! 2. **No hangs** — every shell operation completes within a generous
//!    wall-clock bound even while faults delay, truncate, and close
//!    connections.
//! 3. **Idempotent ops eventually succeed** — bounded retry absorbs any
//!    finite fault schedule at the configured rates.
//! 4. **Non-idempotent ops fail cleanly** — a `put` either acknowledges
//!    with the object intact, fails with the object absent, or lands in
//!    the unavoidable "executed but unacknowledged" state with the object
//!    intact. A torn object is a soak failure.
//!
//! Per-fault-class injection counts come from each host transport's
//! `WireStats`, so the soak also verifies the counters are observable.
//!
//! TCP schedules alternate between the blocking thread-per-connection
//! server arm and the epoll reactor arm, and every schedule includes
//! zero-byte-object round trips — the empty-body frames that corruption
//! and truncation faults must survive without underflowing.
//!
//! Two further fault families ride on the same seed stream: the E15
//! admission path soaked at seed offset `0x20_0000` (sheds must arrive
//! typed, never torn) and the E16 cross-shard move protocol at offset
//! `0x30_0000` (coordinator killed at rotating protocol points; journal
//! recovery must leave exactly one visible copy and no staging residue).
//!
//! ```sh
//! cargo run -p portalws-bench --release --bin e12_chaos -- \
//!     [--quick] [--json PATH] [--seed N]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use portalws_auth::{QuotaConfig, TenantQuotas, UserSession};
use portalws_core::{
    ChaosPolicy, PortalDeployment, PortalShell, SecurityMode, ServerArm, Topology, TransferClient,
    TransferConfig, TransportMode, UiServer,
};
use portalws_gridsim::cred::Mechanism;
use portalws_soap::{PortalErrorKind, ReadCache, SoapClient, SoapValue};
use portalws_wire::{ChaosClass, ServerConfig};

/// Retry budget for idempotent operations (invariant 3). Fault rates top
/// out well under 50% per call, so the chance of exhausting this budget
/// on a healthy stack is negligible.
const IDEMPOTENT_ATTEMPTS: usize = 25;

/// Wall-clock bound per shell operation (invariant 2), far above any sum
/// of configured fault delays.
const OP_DEADLINE_MS: u128 = 10_000;

/// What one schedule observed.
#[derive(Default)]
struct ScheduleOutcome {
    ops: u64,
    attempt_failures: u64,
    /// `put` acknowledged, object intact.
    put_acknowledged: u64,
    /// `put` reported failure, object absent — clean failure.
    put_clean_failure: u64,
    /// `put` reported failure but the object is intact — executed,
    /// acknowledgment lost in the fault. Allowed; counted for visibility.
    put_unacknowledged: u64,
    /// Chunked-transfer put settled with the destination intact.
    transfer_put_acknowledged: u64,
    /// Chunked-transfer put failed with the destination absent.
    transfer_put_clean_failure: u64,
    /// Chunked-transfer put reported failure but committed intact.
    transfer_put_unacknowledged: u64,
    /// Chunked-transfer gets that resumed to the full object.
    transfer_gets_resumed: u64,
    /// Zero-byte-object round trips (empty staged put + empty get) that
    /// settled cleanly — the empty-body edge every fault class must
    /// survive without underflowing.
    empty_body_settled: u64,
    /// E14 cache-coherence checks that ran: a registry mutation whose
    /// reply (and thus generation bump) was observed by the shared read
    /// cache, followed by a re-read that must see the new state.
    stale_read_checks: u64,
    /// Per-class injected-fault counts summed over every host transport.
    chaos: [u64; ChaosClass::ALL.len()],
    /// Invariant violations (empty on a clean schedule).
    violations: Vec<String>,
}

/// Drive one seeded schedule end to end. `arm` picks the server
/// concurrency regime for TCP modes (ignored in-memory): the soak runs
/// the same invariants against both the blocking pool and the reactor.
fn run_schedule(
    seed: u64,
    security: SecurityMode,
    mode: TransportMode,
    arm: ServerArm,
) -> ScheduleOutcome {
    let mut out = ScheduleOutcome::default();
    let policy = ChaosPolicy::from_seed(seed);
    let deployment = PortalDeployment::new(Topology {
        transport: mode,
        server: ServerConfig {
            arm,
            ..ServerConfig::default()
        },
        chaos: Some(policy),
        ..Topology::new(security)
    });
    let ui = Arc::new(UiServer::new(Arc::clone(&deployment)));
    // Every schedule runs with versioned read caching on, so the cached
    // discovery path itself soaks under chaos (invariant 5 below).
    let cache = ui.enable_read_caching(Arc::new(ReadCache::default()));
    let shell = PortalShell::new(Arc::clone(&ui));

    // Bounded retry for operations that are safe to repeat. Login rides
    // here too: re-presenting credentials is idempotent.
    let retried = |label: &str, line: &str, out: &mut ScheduleOutcome| {
        out.ops += 1;
        let t0 = Instant::now();
        let mut ok = false;
        for _ in 0..IDEMPOTENT_ATTEMPTS {
            match shell.exec(line) {
                Ok(_) => {
                    ok = true;
                    break;
                }
                Err(_) => out.attempt_failures += 1,
            }
        }
        let elapsed = t0.elapsed().as_millis();
        if elapsed > OP_DEADLINE_MS {
            out.violations.push(format!(
                "{label}: took {elapsed} ms (> {OP_DEADLINE_MS} ms)"
            ));
        }
        if !ok {
            out.violations.push(format!(
                "{label}: failed all {IDEMPOTENT_ATTEMPTS} attempts"
            ));
        }
    };

    retried("login", "login alice@GCE.ORG alice-pass", &mut out);
    retried("hosts", "hosts", &mut out);
    retried("ls", "ls /public", &mut out);
    retried("cat", "cat /public/README", &mut out);
    retried("find", "find script", &mut out);
    retried("inspect", "inspect grid.sdsc.edu", &mut out);

    // Invariant 5 (E14): **no stale read after an observed generation
    // bump**. The find above primed the cached "script" query. A
    // publisher sharing the same read cache now mutates the registry; if
    // any publish *reply* arrives, its piggybacked generation has been
    // observed, and from that point serving the pre-mutation result is a
    // soak failure. A publish whose acknowledgment is lost to a fault
    // does not qualify — the client never saw the bump, so a TTL-bounded
    // stale serve would be legal; chaos may execute-without-ack, hence
    // the retry loop can double-publish, which the containment check
    // (`any`, not an exact count) tolerates.
    let wizard = format!("ScriptWizard{seed:08x}");
    if let Ok(transport) = deployment.transport("registry.gce.org") {
        let publisher = SoapClient::new(transport, "Uddi");
        publisher.enable_read_cache(Arc::clone(&cache), &[]);
        let mut published = false;
        'publish: for _ in 0..IDEMPOTENT_ATTEMPTS {
            let bkey = match publisher.call(
                "publishBusiness",
                &[SoapValue::str(&wizard), SoapValue::str("chaos newcomer")],
            ) {
                Ok(k) => k,
                Err(_) => {
                    out.attempt_failures += 1;
                    continue;
                }
            };
            for _ in 0..IDEMPOTENT_ATTEMPTS {
                match publisher.call(
                    "publishService",
                    &[
                        bkey.clone(),
                        SoapValue::str(&wizard),
                        SoapValue::str("script generator minted under chaos"),
                        SoapValue::str("http://grid.sdsc.edu/soap/BatchScriptGen"),
                    ],
                ) {
                    Ok(_) => {
                        published = true;
                        break 'publish;
                    }
                    Err(_) => out.attempt_failures += 1,
                }
            }
        }
        if published {
            out.ops += 1;
            out.stale_read_checks += 1;
            let mut seen = None;
            for _ in 0..IDEMPOTENT_ATTEMPTS {
                match ui.find_services("script") {
                    Ok(hits) => {
                        seen = Some(hits.iter().any(|h| h.name == wizard));
                        break;
                    }
                    Err(_) => out.attempt_failures += 1,
                }
            }
            match seen {
                Some(true) => {}
                Some(false) => out.violations.push(format!(
                    "stale read after observed generation bump: {wizard} missing (seed {seed:#x})"
                )),
                None => out.violations.push(format!(
                    "post-publish find failed all {IDEMPOTENT_ATTEMPTS} attempts (seed {seed:#x})"
                )),
            }
        }
    }

    // Non-idempotent op: one shot, then inspect ground truth directly in
    // the broker to classify the outcome.
    let payload = format!("payload-{seed:016x}");
    let path = format!("/home-alice@GCE.ORG/chaos-{seed:016x}.txt");
    out.ops += 1;
    let t0 = Instant::now();
    let put = shell.exec(&format!("echo {payload} | put {path}"));
    let elapsed = t0.elapsed().as_millis();
    if elapsed > OP_DEADLINE_MS {
        out.violations
            .push(format!("put: took {elapsed} ms (> {OP_DEADLINE_MS} ms)"));
    }
    let stored = deployment.srb.get("alice@GCE.ORG", &path).ok();
    match (put.is_ok(), stored) {
        (true, Some(bytes)) if bytes == payload.as_bytes() => out.put_acknowledged += 1,
        (true, Some(_)) => out
            .violations
            .push(format!("put acknowledged but object torn (seed {seed:#x})")),
        (true, None) => out.violations.push(format!(
            "put acknowledged but object absent (seed {seed:#x})"
        )),
        (false, None) => {
            out.attempt_failures += 1;
            out.put_clean_failure += 1;
        }
        (false, Some(bytes)) if bytes == payload.as_bytes() => {
            out.attempt_failures += 1;
            out.put_unacknowledged += 1;
        }
        (false, Some(_)) => out
            .violations
            .push(format!("put failed and object torn (seed {seed:#x})")),
    }

    // --- E13 chunked-transfer ops under the same fault schedule ----------
    // Small chunks so every transfer is a real pipeline (several chunk
    // round trips), each exposed to the fault schedule independently.
    let cfg = TransferConfig {
        chunk_bytes: 8 * 1024,
        window: 2,
        chunk_attempts: 12,
    };
    let stream_payload: Vec<u8> = (0..48 * 1024_u32).map(|i| (i % 251) as u8).collect();

    // Staged put: the destination must never be torn. Commit is an
    // atomic rename of a fully validated staging object, so the only
    // legal outcomes mirror the single-envelope put's — acknowledged
    // intact, clean failure (absent), or executed-but-unacknowledged.
    let stream_path = format!("/home-alice@GCE.ORG/chaos-stream-{seed:016x}.bin");
    out.ops += 1;
    let t0 = Instant::now();
    let put_res = match ui.proxy("grid.sdsc.edu", "DataManagement") {
        Ok(client) => TransferClient::with_config(&client, cfg)
            .put(&stream_path, &stream_payload)
            .map(|_| ())
            .map_err(|e| e.to_string()),
        Err(e) => Err(e.to_string()),
    };
    let elapsed = t0.elapsed().as_millis();
    if elapsed > OP_DEADLINE_MS {
        out.violations.push(format!(
            "chunked put: took {elapsed} ms (> {OP_DEADLINE_MS} ms)"
        ));
    }
    let stored = deployment.srb.get("alice@GCE.ORG", &stream_path).ok();
    match (put_res.is_ok(), stored) {
        (true, Some(bytes)) if bytes == stream_payload => out.transfer_put_acknowledged += 1,
        (true, _) => out.violations.push(format!(
            "chunked put acknowledged but object torn or absent (seed {seed:#x})"
        )),
        (false, None) => {
            out.attempt_failures += 1;
            out.transfer_put_clean_failure += 1;
        }
        (false, Some(bytes)) if bytes == stream_payload => {
            out.attempt_failures += 1;
            out.transfer_put_unacknowledged += 1;
        }
        (false, Some(_)) => out.violations.push(format!(
            "chunked put failed and object torn (seed {seed:#x})"
        )),
    }

    // Chunked get: every chunk read is a pure ranged read, so a fresh
    // handle resumes cleanly — the full object must come back within the
    // retry budget, bit for bit.
    let src_path = format!("/home-alice@GCE.ORG/chaos-src-{seed:016x}.bin");
    if deployment
        .srb
        .put("alice@GCE.ORG", &src_path, &stream_payload)
        .is_ok()
    {
        out.ops += 1;
        let mut got = None;
        for _ in 0..IDEMPOTENT_ATTEMPTS {
            let Ok(client) = ui.proxy("grid.sdsc.edu", "DataManagement") else {
                out.attempt_failures += 1;
                continue;
            };
            match TransferClient::with_config(&client, cfg).get(&src_path) {
                Ok((bytes, _)) => {
                    got = Some(bytes);
                    break;
                }
                Err(_) => out.attempt_failures += 1,
            }
        }
        match got {
            Some(bytes) if bytes == stream_payload => out.transfer_gets_resumed += 1,
            Some(_) => out.violations.push(format!(
                "chunked get resumed to torn bytes (seed {seed:#x})"
            )),
            None => out.violations.push(format!(
                "chunked get failed all {IDEMPOTENT_ATTEMPTS} attempts (seed {seed:#x})"
            )),
        }
    }

    // Abort reclaims: open a handle, land one chunk, abort — once the
    // abort is acknowledged, both the staging sibling and the destination
    // must be gone. (Abort is idempotent, so it rides the retry budget.)
    let abandon_path = format!("/home-alice@GCE.ORG/chaos-abandon-{seed:016x}.bin");
    if let Ok(client) = ui.proxy("grid.sdsc.edu", "DataManagement") {
        let mut handle = None;
        for _ in 0..IDEMPOTENT_ATTEMPTS {
            match client.call("open_put", &[SoapValue::str(&abandon_path)]) {
                Ok(v) => {
                    handle = v.as_str().map(str::to_owned);
                    break;
                }
                Err(_) => out.attempt_failures += 1,
            }
        }
        if let Some(handle) = handle {
            // Best-effort chunk; torn or lost is fine — abort must win
            // regardless of how much staging data landed.
            let _ = client.call(
                "put_chunk",
                &[
                    SoapValue::str(&handle),
                    SoapValue::Int(0),
                    SoapValue::Base64(stream_payload[..4096].to_vec()),
                ],
            );
            let mut aborted = false;
            for _ in 0..IDEMPOTENT_ATTEMPTS {
                match client.call("abort", &[SoapValue::str(&handle)]) {
                    Ok(_) => {
                        aborted = true;
                        break;
                    }
                    Err(_) => out.attempt_failures += 1,
                }
            }
            if aborted {
                out.ops += 1;
                let staging =
                    format!("/home-alice@GCE.ORG/.part-{handle}-chaos-abandon-{seed:016x}.bin");
                if deployment.srb.get("alice@GCE.ORG", &staging).is_ok() {
                    out.violations.push(format!(
                        "abort acknowledged but staging object remains (seed {seed:#x})"
                    ));
                }
                if deployment.srb.get("alice@GCE.ORG", &abandon_path).is_ok() {
                    out.violations.push(format!(
                        "abort acknowledged but destination exists (seed {seed:#x})"
                    ));
                }
            }
        }
    }

    // Empty-body edge: a zero-byte object exercises the degenerate frame
    // every fault class must survive — corruption has no byte to flip,
    // truncation has no interior to cut. The staged put must still settle
    // to one of the three legal outcomes, and a seeded empty object must
    // come back as exactly zero bytes.
    let empty_path = format!("/home-alice@GCE.ORG/chaos-empty-{seed:016x}.bin");
    out.ops += 1;
    let put_res = match ui.proxy("grid.sdsc.edu", "DataManagement") {
        Ok(client) => TransferClient::with_config(&client, cfg)
            .put(&empty_path, &[])
            .map(|_| ())
            .map_err(|e| e.to_string()),
        Err(e) => Err(e.to_string()),
    };
    let stored = deployment.srb.get("alice@GCE.ORG", &empty_path).ok();
    match (put_res.is_ok(), stored) {
        (true, Some(bytes)) if bytes.is_empty() => out.empty_body_settled += 1,
        (true, _) => out.violations.push(format!(
            "empty put acknowledged but object non-empty or absent (seed {seed:#x})"
        )),
        (false, None) => {
            out.attempt_failures += 1;
            out.empty_body_settled += 1;
        }
        (false, Some(bytes)) if bytes.is_empty() => {
            out.attempt_failures += 1;
            out.empty_body_settled += 1;
        }
        (false, Some(_)) => out.violations.push(format!(
            "empty put failed and object non-empty (seed {seed:#x})"
        )),
    }

    let empty_src = format!("/home-alice@GCE.ORG/chaos-empty-src-{seed:016x}.bin");
    if deployment.srb.put("alice@GCE.ORG", &empty_src, &[]).is_ok() {
        out.ops += 1;
        let mut got = None;
        for _ in 0..IDEMPOTENT_ATTEMPTS {
            let Ok(client) = ui.proxy("grid.sdsc.edu", "DataManagement") else {
                out.attempt_failures += 1;
                continue;
            };
            match TransferClient::with_config(&client, cfg).get(&empty_src) {
                Ok((bytes, _)) => {
                    got = Some(bytes);
                    break;
                }
                Err(_) => out.attempt_failures += 1,
            }
        }
        match got {
            Some(bytes) if bytes.is_empty() => out.empty_body_settled += 1,
            Some(bytes) => out.violations.push(format!(
                "empty get returned {} bytes (seed {seed:#x})",
                bytes.len()
            )),
            None => out.violations.push(format!(
                "empty get failed all {IDEMPOTENT_ATTEMPTS} attempts (seed {seed:#x})"
            )),
        }
    }

    retried("logout", "logout", &mut out);

    for host in deployment.hosts() {
        // Client-side chaos lands on the host transport's stats;
        // server-side chaos (drops, truncations, delays) on the TCP
        // server's own counters.
        if let Ok(t) = deployment.transport(&host) {
            let snap = t.stats().snapshot();
            for (i, class) in ChaosClass::ALL.iter().enumerate() {
                out.chaos[i] += snap.chaos_class(*class);
            }
        }
        if let Some(stats) = deployment.server_wire_stats(&host) {
            let snap = stats.snapshot();
            for (i, class) in ChaosClass::ALL.iter().enumerate() {
                out.chaos[i] += snap.chaos_class(*class);
            }
        }
    }
    out
}

/// What one shed-under-chaos schedule observed (E15 admission path).
#[derive(Default)]
struct ShedOutcome {
    calls: u64,
    admitted: u64,
    /// Typed `BUSY` faults the clients observed — each one is a shed that
    /// traversed the fault schedule whole (a torn shed cannot parse to a
    /// typed fault).
    busy_typed: u64,
    /// Typed `DEADLINE_EXCEEDED` faults — pre-dispatch deadline sheds.
    deadline_typed: u64,
    /// Transport-level errors from injected faults on non-shed frames
    /// (drops, delays past the pool deadline, corrupted replies). Allowed
    /// under chaos; counted for visibility.
    chaos_errors: u64,
    /// Server-side shed counters summed over every host transport
    /// (queue-full + deadline + quota).
    server_sheds: u64,
    violations: Vec<String>,
}

/// Wall-clock bound for one whole shed schedule: every call carries a
/// short deadline budget, so even a fully adversarial fault schedule
/// cannot stretch the burst past this.
const SHED_SCHEDULE_DEADLINE_MS: u128 = 30_000;

/// E15 admission control soaked under chaos: a deployment in a *tight*
/// admission posture (2 workers, 2-deep queue, small per-tenant quotas)
/// faces concurrent idempotent bursts from two authenticated tenants
/// while the seeded fault schedule drops, delays, and truncates frames
/// around it. The invariant under test is **sheds are never torn**:
/// every shed a client observes must parse to a typed `BUSY` or
/// `DEADLINE_EXCEEDED` fault. Family-level assertions (checked by the
/// caller): the servers actually shed (counters > 0) and at least one
/// typed shed reached a client intact.
fn run_shed_schedule(seed: u64, arm: ServerArm) -> ShedOutcome {
    let mut out = ShedOutcome::default();
    let policy = ChaosPolicy::from_seed(seed);
    let deployment = PortalDeployment::new(Topology {
        transport: TransportMode::TcpPooled,
        server: ServerConfig {
            arm,
            workers: 2,
            queue_cap: Some(2),
            max_connections: 64,
            shed_retry_after_ms: 5,
        },
        chaos: Some(policy),
        ..Topology::new(SecurityMode::Local)
    });
    deployment.enable_tenant_quotas(TenantQuotas::new(QuotaConfig {
        burst: 8.0,
        refill_per_sec: 20.0,
    }));

    // Real sessions for both tenants: the quota guard keys off the
    // *verified* assertion subject, so the burst must authenticate.
    let mut sessions = Vec::new();
    for (user, pass) in [("alice@GCE.ORG", "alice-pass"), ("bob@GCE.ORG", "bob-pass")] {
        let gss = deployment
            .auth
            .login(user, pass, Mechanism::Kerberos)
            .expect("tenant login");
        sessions.push(UserSession::new(gss, Arc::clone(deployment.auth.clock())));
    }

    // Concurrent burst: 6 clients (3 per tenant) × 15 idempotent calls,
    // each with a 250 ms deadline budget, against 2 workers and a 2-deep
    // queue — the excess must shed, and every shed must arrive whole.
    const BURST_CLIENTS_PER_TENANT: usize = 3;
    const CALLS_PER_CLIENT: usize = 15;
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for session in &sessions {
        for _ in 0..BURST_CLIENTS_PER_TENANT {
            let client = SoapClient::new(
                deployment.transport("grid.sdsc.edu").expect("host"),
                "JobSubmission",
            );
            client.set_header_supplier(session.header_supplier());
            client.set_call_deadline(Duration::from_millis(250));
            client.set_idempotent_methods(&["listHosts"]);
            handles.push(std::thread::spawn(move || {
                let mut counts = (0u64, 0u64, 0u64, 0u64); // admitted, busy, deadline, chaos
                for _ in 0..CALLS_PER_CLIENT {
                    match client.call("listHosts", &[]) {
                        Ok(_) => counts.0 += 1,
                        Err(e) => match e.as_fault().and_then(|f| f.kind()) {
                            Some(PortalErrorKind::Busy) => counts.1 += 1,
                            Some(PortalErrorKind::DeadlineExceeded) => counts.2 += 1,
                            _ => counts.3 += 1,
                        },
                    }
                }
                counts
            }));
        }
    }
    for handle in handles {
        let (admitted, busy, deadline, chaos) = handle.join().expect("burst client");
        out.calls += admitted + busy + deadline + chaos;
        out.admitted += admitted;
        out.busy_typed += busy;
        out.deadline_typed += deadline;
        out.chaos_errors += chaos;
    }
    let elapsed = t0.elapsed().as_millis();
    if elapsed > SHED_SCHEDULE_DEADLINE_MS {
        out.violations.push(format!(
            "shed burst: took {elapsed} ms (> {SHED_SCHEDULE_DEADLINE_MS} ms) (seed {seed:#x})"
        ));
    }

    for host in deployment.hosts() {
        if let Some(stats) = deployment.server_wire_stats(&host) {
            let snap = stats.snapshot();
            out.server_sheds += snap.shed_queue_full + snap.shed_deadline + snap.shed_quota;
        }
    }
    out
}

/// What one cross-shard move schedule observed (E16 shard router).
#[derive(Default)]
struct MoveOutcome {
    moves: u64,
    /// Coordinator faults actually injected at a protocol point.
    injected: u64,
    recovered_forward: u64,
    recovered_back: u64,
    violations: Vec<String>,
}

/// E16 cross-shard moves soaked under injected coordinator faults: a
/// sharded deployment serves `DataManagement` through the consistent-hash
/// router while each schedule kills the move coordinator at a different
/// protocol point (`copy-chunk` mid-stream, `pre-commit`, the `delete-leg`
/// after commit) and the wire chaos schedule faults the SOAP call around
/// it. After every move (clean or killed) the router's journal recovery
/// runs, and the invariant under test is **exactly one visible copy**:
/// precisely one of the user-facing source/destination names resolves,
/// with the complete payload, and no `.mv-` tombstone or `.part-` staging
/// residue survives on any shard. `cp` moves additionally require the
/// source untouched.
fn run_move_schedule(seed: u64, arm: ServerArm) -> MoveOutcome {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let mut out = MoveOutcome::default();
    let policy = ChaosPolicy::from_seed(seed);
    let deployment = PortalDeployment::new(Topology {
        transport: TransportMode::TcpPooled,
        server: ServerConfig {
            arm,
            ..ServerConfig::default()
        },
        chaos: Some(policy),
        data_shards: 3,
        ..Topology::new(SecurityMode::Open)
    });
    let router = Arc::clone(
        deployment
            .data_shards
            .as_ref()
            .expect("sharded deployment exposes the router"),
    );

    // Two top-level collections guaranteed to live on different shards.
    let src_top = "/mv-src".to_owned();
    let mut dst_top = String::new();
    for i in 0..1000 {
        let cand = format!("/mv-dst-{i}");
        if router.owner_of(&cand) != router.owner_of(&src_top) {
            dst_top = cand;
            break;
        }
    }
    router.mkdir(&src_top).expect("mkdir src");
    router.mkdir(&dst_top).expect("mkdir dst");

    let client = SoapClient::new(
        deployment.transport("grid.sdsc.edu").expect("host"),
        "DataManagement",
    );
    client.set_call_deadline(Duration::from_millis(2_000));

    const MOVES_PER_SCHEDULE: usize = 8;
    let points = ["none", "copy-chunk", "pre-commit", "delete-leg"];
    for i in 0..MOVES_PER_SCHEDULE {
        let is_cp = i % 2 == 1;
        let point = points[(seed as usize + i) % points.len()];
        let body: Vec<u8> = (0..120_000u32)
            .map(|b| (b.wrapping_mul(31).wrapping_add(seed as u32 + i as u32) % 251) as u8)
            .collect();
        let src = format!("{src_top}/obj-{i}");
        let dst = format!("{dst_top}/obj-{i}");
        router
            .put_bytes("anonymous", &src, &body)
            .expect("seed object");

        let fired = Arc::new(AtomicUsize::new(0));
        if point != "none" {
            let fired = Arc::clone(&fired);
            let target = point.to_owned();
            router.set_fault_hook(Some(Arc::new(move |p: &str| {
                p == target && fired.fetch_add(1, Ordering::Relaxed) == 0
            })));
        }
        let op = if is_cp { "cp" } else { "rename" };
        // The SOAP call may fail from the injected coordinator fault OR
        // from wire chaos; either way the recovery path must restore the
        // exactly-one-copy invariant.
        let _ = client.call(
            op,
            &[SoapValue::str(src.clone()), SoapValue::str(dst.clone())],
        );
        router.set_fault_hook(None);
        if fired.load(Ordering::Relaxed) > 0 {
            out.injected += 1;
        }
        let report = router.recover();
        out.recovered_forward += report.rolled_forward as u64;
        out.recovered_back += report.rolled_back as u64;
        out.moves += 1;

        // --- exactly-one-visible-copy assertions -------------------------
        let src_read = router.get_bytes("anonymous", &src);
        let dst_read = router.get_bytes("anonymous", &dst);
        if is_cp {
            // cp never disturbs its source.
            match src_read {
                Ok(bytes) if bytes == body => {}
                Ok(_) => out
                    .violations
                    .push(format!("cp left a torn source {src} (seed {seed:#x})")),
                Err(e) => out
                    .violations
                    .push(format!("cp lost its source {src}: {e} (seed {seed:#x})")),
            }
            if let Ok(bytes) = dst_read {
                if bytes != body {
                    out.violations
                        .push(format!("cp left a torn copy at {dst} (seed {seed:#x})"));
                }
            }
        } else {
            match (src_read, dst_read) {
                (Ok(bytes), Err(_)) | (Err(_), Ok(bytes)) => {
                    if bytes != body {
                        out.violations.push(format!(
                            "rename left a torn surviving copy for obj-{i} (seed {seed:#x})"
                        ));
                    }
                }
                (Ok(_), Ok(_)) => out.violations.push(format!(
                    "rename left obj-{i} visible under BOTH names (seed {seed:#x})"
                )),
                (Err(_), Err(_)) => out.violations.push(format!(
                    "rename LOST obj-{i} — neither name resolves (seed {seed:#x})"
                )),
            }
        }
        // No tombstone or staging residue on any shard after recovery.
        for (k, backend) in router.backends().iter().enumerate() {
            for top in [&src_top, &dst_top] {
                if let Ok(entries) = backend.srb().ls("anonymous", top) {
                    for e in entries {
                        if e.name.starts_with(".mv-") || e.name.starts_with(".part-") {
                            out.violations.push(format!(
                                "residue {:?} on shard {k} under {top} after recovery (seed {seed:#x})",
                                e.name
                            ));
                        }
                    }
                }
            }
        }
        if router.pending_moves() != 0 {
            out.violations
                .push(format!("journal not empty after recovery (seed {seed:#x})"));
        }
        // Clean up both names so the next move starts fresh.
        for b in router.backends() {
            let _ = b.srb().rm("anonymous", &dst);
            let _ = b.srb().rm("anonymous", &src);
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag_value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let json_path = flag_value("--json");
    let base_seed: u64 = flag_value("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xE12_5EED);

    // ≥50 distinct schedules even in quick mode; the full soak widens the
    // sweep. TCP schedules (server-side chaos included) alternate between
    // the blocking worker pool and the epoll reactor so both server arms
    // soak under identical fault classes — even in quick mode.
    let (in_memory_schedules, tcp_schedules) = if quick { (50u64, 2u64) } else { (120u64, 6u64) };

    println!(
        "E12 — chaos soak: {} in-memory + {} tcp-pooled schedules (both server arms), base seed {base_seed:#x}",
        in_memory_schedules, tcp_schedules
    );

    let mut total = ScheduleOutcome::default();
    let mut schedules = 0u64;
    let mut panicked: Vec<u64> = Vec::new();
    let mut violating: Vec<u64> = Vec::new();

    let mut run = |seed: u64, security: SecurityMode, mode: TransportMode, arm: ServerArm| {
        schedules += 1;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_schedule(seed, security, mode, arm)
        }));
        match outcome {
            Ok(out) => {
                if !out.violations.is_empty() {
                    violating.push(seed);
                    for v in &out.violations {
                        eprintln!("  seed {seed:#x} [{security:?}/{mode:?}/{arm:?}]: {v}");
                    }
                }
                total.ops += out.ops;
                total.attempt_failures += out.attempt_failures;
                total.put_acknowledged += out.put_acknowledged;
                total.put_clean_failure += out.put_clean_failure;
                total.put_unacknowledged += out.put_unacknowledged;
                total.transfer_put_acknowledged += out.transfer_put_acknowledged;
                total.transfer_put_clean_failure += out.transfer_put_clean_failure;
                total.transfer_put_unacknowledged += out.transfer_put_unacknowledged;
                total.transfer_gets_resumed += out.transfer_gets_resumed;
                total.empty_body_settled += out.empty_body_settled;
                total.stale_read_checks += out.stale_read_checks;
                for (i, n) in out.chaos.iter().enumerate() {
                    total.chaos[i] += n;
                }
                total.violations.extend(out.violations);
            }
            Err(_) => {
                panicked.push(seed);
                eprintln!("  seed {seed:#x} [{security:?}/{mode:?}/{arm:?}]: PANIC");
            }
        }
    };

    let t0 = Instant::now();
    for i in 0..in_memory_schedules {
        let seed = base_seed.wrapping_add(i);
        // Alternate the E2 security arms so the Fig. 2 auth hop also runs
        // under chaos on half the schedules.
        let security = if i % 2 == 0 {
            SecurityMode::Central
        } else {
            SecurityMode::Open
        };
        run(seed, security, TransportMode::InMemory, ServerArm::Blocking);
    }
    for i in 0..tcp_schedules {
        let seed = base_seed.wrapping_add(0x10_0000 + i);
        // Alternate arms so every TCP fault class soaks both the blocking
        // pool and the reactor under the same schedule family.
        let arm = if i % 2 == 0 {
            ServerArm::Blocking
        } else {
            ServerArm::Reactor
        };
        run(seed, SecurityMode::Open, TransportMode::TcpPooled, arm);
    }

    // --- E15 admission path under the same chaos classes -----------------
    // Tight admission bounds force sheds while faults land around them;
    // both arms soak. Family gates: the servers really shed, and typed
    // sheds reached clients whole (a torn shed cannot parse to one).
    let shed_schedules = if quick { 2u64 } else { 4u64 };
    let mut shed_total = ShedOutcome::default();
    for i in 0..shed_schedules {
        let seed = base_seed.wrapping_add(0x20_0000 + i);
        let arm = if i % 2 == 0 {
            ServerArm::Blocking
        } else {
            ServerArm::Reactor
        };
        schedules += 1;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_shed_schedule(seed, arm)
        })) {
            Ok(out) => {
                if !out.violations.is_empty() {
                    violating.push(seed);
                    for v in &out.violations {
                        eprintln!("  seed {seed:#x} [shed/{arm:?}]: {v}");
                    }
                }
                shed_total.calls += out.calls;
                shed_total.admitted += out.admitted;
                shed_total.busy_typed += out.busy_typed;
                shed_total.deadline_typed += out.deadline_typed;
                shed_total.chaos_errors += out.chaos_errors;
                shed_total.server_sheds += out.server_sheds;
                shed_total.violations.extend(out.violations);
            }
            Err(_) => {
                panicked.push(seed);
                eprintln!("  seed {seed:#x} [shed/{arm:?}]: PANIC");
            }
        }
    }
    let mut shed_family_failures: Vec<String> = Vec::new();
    if shed_total.server_sheds == 0 {
        shed_family_failures.push(
            "shed-under-chaos family: servers never shed — admission control never engaged"
                .to_string(),
        );
    }
    if shed_total.busy_typed + shed_total.deadline_typed == 0 {
        shed_family_failures
            .push("shed-under-chaos family: no typed shed reached any client intact".to_string());
    }

    // --- E16 cross-shard moves under coordinator + wire faults -----------
    // Each schedule kills the cross-shard move protocol at a rotating
    // point while wire chaos faults the SOAP call; journal recovery must
    // restore exactly one visible copy. Family gates: coordinator faults
    // actually fired, recovery actually ran, and zero invariant breaks.
    let move_schedules = if quick { 2u64 } else { 4u64 };
    let mut move_total = MoveOutcome::default();
    for i in 0..move_schedules {
        let seed = base_seed.wrapping_add(0x30_0000 + i);
        let arm = if i % 2 == 0 {
            ServerArm::Blocking
        } else {
            ServerArm::Reactor
        };
        schedules += 1;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_move_schedule(seed, arm)
        })) {
            Ok(out) => {
                if !out.violations.is_empty() {
                    violating.push(seed);
                    for v in &out.violations {
                        eprintln!("  seed {seed:#x} [move/{arm:?}]: {v}");
                    }
                }
                move_total.moves += out.moves;
                move_total.injected += out.injected;
                move_total.recovered_forward += out.recovered_forward;
                move_total.recovered_back += out.recovered_back;
                move_total.violations.extend(out.violations);
            }
            Err(_) => {
                panicked.push(seed);
                eprintln!("  seed {seed:#x} [move/{arm:?}]: PANIC");
            }
        }
    }
    let mut move_family_failures: Vec<String> = Vec::new();
    if move_total.injected == 0 {
        move_family_failures.push(
            "cross-shard move family: no coordinator fault ever fired — the protocol was never stressed"
                .to_string(),
        );
    }
    if move_total.recovered_forward + move_total.recovered_back == 0 {
        move_family_failures.push(
            "cross-shard move family: journal recovery never rolled a move forward or back"
                .to_string(),
        );
    }

    let elapsed = t0.elapsed().as_secs_f64();

    println!("\n  schedules: {schedules} in {elapsed:.1}s");
    println!(
        "  ops: {} ({} attempt-level failures absorbed by retry)",
        total.ops, total.attempt_failures
    );
    println!(
        "  put outcomes: {} acknowledged, {} clean failures, {} executed-unacknowledged",
        total.put_acknowledged, total.put_clean_failure, total.put_unacknowledged
    );
    println!(
        "  chunked put outcomes: {} acknowledged, {} clean failures, {} executed-unacknowledged",
        total.transfer_put_acknowledged,
        total.transfer_put_clean_failure,
        total.transfer_put_unacknowledged
    );
    println!(
        "  chunked gets resumed to full object: {}",
        total.transfer_gets_resumed
    );
    println!(
        "  empty-body round trips settled:      {}",
        total.empty_body_settled
    );
    println!(
        "  cache-coherence checks (0 stale):    {}",
        total.stale_read_checks
    );
    println!("  injected faults by class:");
    for (i, class) in ChaosClass::ALL.iter().enumerate() {
        println!("    {:<18} {}", class.name(), total.chaos[i]);
    }
    println!(
        "  shed-under-chaos: {} calls — {} admitted, {} typed busy, {} typed deadline, {} chaos errors; {} server-side sheds",
        shed_total.calls,
        shed_total.admitted,
        shed_total.busy_typed,
        shed_total.deadline_typed,
        shed_total.chaos_errors,
        shed_total.server_sheds
    );
    println!(
        "  cross-shard moves: {} moves — {} coordinator faults injected, {} rolled forward, {} rolled back",
        move_total.moves,
        move_total.injected,
        move_total.recovered_forward,
        move_total.recovered_back
    );

    if let Some(path) = json_path {
        let mut doc = String::new();
        doc.push_str("{\n");
        doc.push_str(&format!("  \"schedules\": {schedules},\n"));
        doc.push_str(&format!("  \"base_seed\": {base_seed},\n"));
        doc.push_str(&format!("  \"ops\": {},\n", total.ops));
        doc.push_str(&format!(
            "  \"attempt_failures\": {},\n",
            total.attempt_failures
        ));
        doc.push_str(&format!(
            "  \"put_acknowledged\": {},\n",
            total.put_acknowledged
        ));
        doc.push_str(&format!(
            "  \"put_clean_failure\": {},\n",
            total.put_clean_failure
        ));
        doc.push_str(&format!(
            "  \"put_unacknowledged\": {},\n",
            total.put_unacknowledged
        ));
        doc.push_str(&format!(
            "  \"transfer_put_acknowledged\": {},\n",
            total.transfer_put_acknowledged
        ));
        doc.push_str(&format!(
            "  \"transfer_put_clean_failure\": {},\n",
            total.transfer_put_clean_failure
        ));
        doc.push_str(&format!(
            "  \"transfer_put_unacknowledged\": {},\n",
            total.transfer_put_unacknowledged
        ));
        doc.push_str(&format!(
            "  \"transfer_gets_resumed\": {},\n",
            total.transfer_gets_resumed
        ));
        doc.push_str(&format!(
            "  \"empty_body_settled\": {},\n",
            total.empty_body_settled
        ));
        doc.push_str(&format!(
            "  \"stale_read_checks\": {},\n",
            total.stale_read_checks
        ));
        doc.push_str("  \"chaos\": {\n");
        for (i, class) in ChaosClass::ALL.iter().enumerate() {
            doc.push_str(&format!(
                "    \"{}\": {}{}\n",
                class.name(),
                total.chaos[i],
                if i + 1 < ChaosClass::ALL.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        doc.push_str("  },\n");
        doc.push_str(&format!("  \"shed_calls\": {},\n", shed_total.calls));
        doc.push_str(&format!("  \"shed_admitted\": {},\n", shed_total.admitted));
        doc.push_str(&format!(
            "  \"shed_busy_typed\": {},\n",
            shed_total.busy_typed
        ));
        doc.push_str(&format!(
            "  \"shed_deadline_typed\": {},\n",
            shed_total.deadline_typed
        ));
        doc.push_str(&format!(
            "  \"shed_chaos_errors\": {},\n",
            shed_total.chaos_errors
        ));
        doc.push_str(&format!(
            "  \"shed_server_sheds\": {},\n",
            shed_total.server_sheds
        ));
        doc.push_str(&format!("  \"move_calls\": {},\n", move_total.moves));
        doc.push_str(&format!("  \"move_injected\": {},\n", move_total.injected));
        doc.push_str(&format!(
            "  \"move_rolled_forward\": {},\n",
            move_total.recovered_forward
        ));
        doc.push_str(&format!(
            "  \"move_rolled_back\": {},\n",
            move_total.recovered_back
        ));
        doc.push_str(&format!("  \"panics\": {},\n", panicked.len()));
        doc.push_str(&format!(
            "  \"violations\": {}\n",
            total.violations.len()
                + shed_total.violations.len()
                + shed_family_failures.len()
                + move_total.violations.len()
                + move_family_failures.len()
        ));
        doc.push_str("}\n");
        std::fs::write(&path, doc).expect("write json");
        println!("\nwrote {path}");
    }

    if !panicked.is_empty()
        || !violating.is_empty()
        || !shed_family_failures.is_empty()
        || !move_family_failures.is_empty()
    {
        eprintln!(
            "\nFAIL: {} panicking, {} violating schedules, {} family-gate failures",
            panicked.len(),
            violating.len(),
            shed_family_failures.len() + move_family_failures.len()
        );
        for f in shed_family_failures
            .iter()
            .chain(move_family_failures.iter())
        {
            eprintln!("  {f}");
        }
        for seed in panicked.iter().chain(violating.iter()) {
            eprintln!("  replay with: e12_chaos --seed {seed} (schedule seed {seed:#x})");
        }
        std::process::exit(1);
    }
    println!("\nall schedules clean");
}
