//! Non-timing checks for every quantitative prose claim the benchmarks
//! measure (E5–E9): byte amplification, connection counts, discovery
//! precision/recall, context overhead, and sequential-vs-parallel
//! makespan in simulated time. The `report` binary of `portalws-bench`
//! measures the *time* side of the same claims; these tests pin the
//! *counts*, which are deterministic.

use std::sync::Arc;

use portalws::portal::{PortalDeployment, SecurityMode};
use portalws::registry::{ContainerRegistry, ServiceEntry, UddiRegistry};
use portalws::services::context::ContextStore;
use portalws::services::scriptgen::{ContextCoupling, HotPageClient, IuScriptGen, ScriptRequest};
use portalws::soap::{SoapClient, SoapServer, SoapValue};
use portalws::wire::{
    Handler, HttpServer, InMemoryTransport, Pool, PoolConfig, PooledTransport, RetryPolicy,
    ServerConfig, Transport,
};
use portalws::xml::Element;

// -------------------------------------------------------------------------
// E5 — "This transfer mechanism does not scale well": string streaming
// amplifies markup-heavy payloads; base64 grows by a fixed 4/3.
// -------------------------------------------------------------------------

#[test]
fn e5_string_streaming_amplifies_markup_payloads() {
    let deployment = PortalDeployment::in_memory(SecurityMode::Open);
    let transport = deployment.transport("grid.sdsc.edu").unwrap();
    let data = SoapClient::new(Arc::clone(&transport), "DataManagement");

    // A worst-case payload: every char needs escaping ("<" → "&lt;").
    let payload = "<".repeat(64 * 1024);
    let before = transport.stats().snapshot();
    data.call(
        "put",
        &[
            SoapValue::str("/public/markup.dat"),
            SoapValue::str(&payload),
        ],
    )
    .unwrap();
    let string_delta = transport.stats().snapshot().since(&before);
    let string_bytes = string_delta.bytes_sent;

    // Same bytes via the base64 ablation.
    let before = transport.stats().snapshot();
    data.call(
        "putB64",
        &[
            SoapValue::str("/public/markup64.dat"),
            SoapValue::Base64(payload.clone().into_bytes()),
        ],
    )
    .unwrap();
    let b64_delta = transport.stats().snapshot().since(&before);
    let b64_bytes = b64_delta.bytes_sent;

    // Substrate fast-path hit rates (lower bounds — the counters are
    // process-global, so parallel tests can only add to them). The all-'<'
    // payload must take the allocating escape path; the base64 payload has
    // no escapable characters, so escape *and* unescape must borrow. A
    // regression to always-allocate leaves the borrowed counters flat here.
    assert!(
        string_delta.escape_owned >= 1,
        "markup payload escaped without allocating? {string_delta:?}"
    );
    assert!(
        b64_delta.escape_borrowed >= 1,
        "base64 escape fast path missed: {b64_delta:?}"
    );
    assert!(
        b64_delta.unescape_borrowed >= 1,
        "base64 unescape fast path missed: {b64_delta:?}"
    );

    // Escaping quadruples the payload (4 bytes per "<"); base64 costs 4/3.
    assert!(
        string_bytes as f64 > 3.5 * payload.len() as f64,
        "string wire bytes {} for {} payload",
        string_bytes,
        payload.len()
    );
    assert!(
        (b64_bytes as f64) < 1.6 * payload.len() as f64,
        "base64 wire bytes {} for {} payload",
        b64_bytes,
        payload.len()
    );
    assert!(string_bytes > 2 * b64_bytes);
}

#[test]
fn e5_transfer_fidelity_both_encodings() {
    let deployment = PortalDeployment::in_memory(SecurityMode::Open);
    let data = SoapClient::new(
        deployment.transport("grid.sdsc.edu").unwrap(),
        "DataManagement",
    );
    let content = "a&b<c>d\"e'f\n".repeat(1000);
    data.call(
        "put",
        &[SoapValue::str("/public/f.txt"), SoapValue::str(&content)],
    )
    .unwrap();
    let back = data
        .call("get", &[SoapValue::str("/public/f.txt")])
        .unwrap();
    assert_eq!(back.as_str().unwrap(), content);
}

// -------------------------------------------------------------------------
// E6 — xml_call: "multiple SRB commands … sent to the Web Service using a
// single connection."
// -------------------------------------------------------------------------

#[test]
fn e6_xml_call_uses_one_connection_for_n_commands() {
    // Over *real TCP*, where connections are what the paper was saving.
    let deployment = PortalDeployment::over_tcp(SecurityMode::Open);
    let transport = deployment.transport("grid.sdsc.edu").unwrap();
    let data = SoapClient::new(Arc::clone(&transport), "DataManagement");
    data.call("mkdir", &[SoapValue::str("/public/batch")])
        .unwrap();

    let n = 16;
    // Separate calls: one connection each.
    let before = transport.stats().snapshot();
    for i in 0..n {
        data.call(
            "put",
            &[
                SoapValue::str(format!("/public/batch/sep-{i}")),
                SoapValue::str("x"),
            ],
        )
        .unwrap();
    }
    let separate = transport.stats().snapshot().since(&before);
    assert_eq!(separate.connections, n);

    // One xml_call carrying the same n commands: one connection.
    let mut request = Element::new("request");
    for i in 0..n {
        request.push_child(
            Element::new("put")
                .with_attr("path", format!("/public/batch/batched-{i}"))
                .with_text("x"),
        );
    }
    let before = transport.stats().snapshot();
    let out = data.call("xml_call", &[SoapValue::Xml(request)]).unwrap();
    let batched = transport.stats().snapshot().since(&before);
    assert_eq!(batched.connections, 1);
    assert_eq!(
        out.as_xml().unwrap().children().count(),
        n as usize,
        "all commands executed"
    );
}

#[test]
fn e6_keep_alive_ablation_also_reaches_one_connection() {
    // The post-2002 fix for the same cost xml_call addressed: reuse the
    // TCP connection instead of batching the application payload.
    let srb = Arc::new(portalws::gridsim::srb::Srb::new());
    srb.mkdir("/ka").unwrap();
    let server = SoapServer::new();
    server.mount(Arc::new(portalws::services::DataManagementService::new(
        srb,
    )));
    let handler: Arc<dyn Handler> = Arc::new(server);
    let tcp_server =
        HttpServer::start("127.0.0.1:0", handler, ServerConfig::with_workers(2), None).unwrap();
    let transport: Arc<dyn Transport> = Arc::new(PooledTransport::new(tcp_server.addr()));
    let data = SoapClient::new(Arc::clone(&transport), "DataManagement");
    for i in 0..16 {
        data.call(
            "put",
            &[SoapValue::str(format!("/ka/f{i}")), SoapValue::str("x")],
        )
        .unwrap();
    }
    let snap = transport.stats().snapshot();
    assert_eq!(snap.connections, 1);
    assert_eq!(snap.requests, 16);
    drop(data);
    drop(transport);
    tcp_server.shutdown();
}

// -------------------------------------------------------------------------
// E7 — UDDI string search vs typed container-registry search:
// precision/recall on a synthetic population with misleading prose.
// -------------------------------------------------------------------------

/// Build matched registries: `n` script-generator services, each
/// supporting a known scheduler subset, with descriptions that mention
/// other schedulers in misleading prose for odd-numbered services.
fn discovery_population(n: usize) -> (UddiRegistry, ContainerRegistry, usize) {
    let uddi = UddiRegistry::new();
    let container = ContainerRegistry::new();
    let biz = uddi
        .publish_business("TestBed", "synthetic population")
        .unwrap();
    let mut truly_lsf = 0;
    for i in 0..n {
        let supports_lsf = i % 4 == 0;
        if supports_lsf {
            truly_lsf += 1;
        }
        let schedulers: &[&str] = if supports_lsf { &["LSF"] } else { &["PBS"] };
        let description = if supports_lsf {
            format!("Service {i}. Supports LSF.")
        } else if i % 2 == 1 {
            // The misleading mention: LSF appears in prose only.
            format!("Service {i}. Supports PBS. Migrated away from LSF in 2001.")
        } else {
            format!("Service {i}. Supports PBS.")
        };
        uddi.publish_service(&biz, format!("scriptgen-{i}"), description, vec![])
            .unwrap();
        let mut meta = Element::new("serviceMetadata");
        let mut s = Element::new("schedulers");
        for sch in schedulers {
            s.push_child(Element::new("scheduler").with_text(*sch));
        }
        meta.push_child(s);
        container
            .register(
                "/gce/scriptgen",
                ServiceEntry {
                    name: format!("scriptgen-{i}"),
                    access_point: format!("http://svc-{i}/soap/BatchScriptGen"),
                    wsdl_url: String::new(),
                    metadata: meta,
                },
            )
            .unwrap();
    }
    (uddi, container, truly_lsf)
}

#[test]
fn e7_typed_queries_beat_string_search_on_precision() {
    let (uddi, container, truly_lsf) = discovery_population(64);

    let uddi_hits = uddi.find_service("LSF");
    let typed_hits = container.query("schedulers/scheduler", "LSF");

    // Recall: both find every true LSF service.
    assert!(uddi_hits.len() >= truly_lsf);
    assert_eq!(typed_hits.len(), truly_lsf);

    // Precision: UDDI string search drags in the misleading mentions.
    let uddi_precision = truly_lsf as f64 / uddi_hits.len() as f64;
    assert!(
        uddi_precision < 0.55,
        "expected poor UDDI precision, got {uddi_precision}"
    );
    // The typed registry is exact.
    assert!(typed_hits
        .iter()
        .all(|(_, e)| e.metadata.to_xml().contains(">LSF<")));
}

// -------------------------------------------------------------------------
// E8 — "Making this into an independent service introduced unnecessary
// overhead because we needed to create artificial contexts."
// -------------------------------------------------------------------------

#[test]
fn e8_context_coupling_overhead_counts() {
    let req = ScriptRequest {
        scheduler: portalws::gridsim::sched::SchedulerKind::Pbs,
        queue: "batch".into(),
        job_name: "j".into(),
        command: "date".into(),
        cpus: 1,
        wall_minutes: 10,
    };
    let calls = 50;

    let run = |coupling: ContextCoupling, store: Arc<ContextStore>| -> (u64, usize) {
        let server = SoapServer::new();
        server.mount(Arc::new(IuScriptGen::new(coupling)));
        let handler: Arc<dyn Handler> = Arc::new(server);
        let client = HotPageClient::connect(Arc::new(InMemoryTransport::new(handler)));
        for _ in 0..calls {
            client.generate(&req).unwrap();
        }
        (store.placeholder_count(), store.total_count())
    };

    // (a) integrated: one durable session, no placeholders.
    let store = ContextStore::new();
    let (ph, total) = run(
        ContextCoupling::Integrated(Arc::clone(&store)),
        Arc::clone(&store),
    );
    assert_eq!((ph, total), (0, 3));

    // (b) standalone conversion: one artificial context pair per call.
    let store = ContextStore::new();
    let (ph, total) = run(
        ContextCoupling::Placeholder(Arc::clone(&store)),
        Arc::clone(&store),
    );
    assert_eq!(ph, calls as u64);
    assert_eq!(total, 1 + 2 * calls); // user + (problem+session) per call

    // (c) decoupled: nothing touches the store.
    let store = ContextStore::new();
    let (ph, total) = run(ContextCoupling::Decoupled, Arc::clone(&store));
    assert_eq!((ph, total), (0, 0));
}

#[test]
fn e8_monolith_vs_decomposed_interface_sizes() {
    use portalws::services::context::{ContextManagerMonolith, DecomposedContextServices};
    use portalws::soap::SoapService;
    let store = ContextStore::new();
    let monolith = ContextManagerMonolith::new(Arc::clone(&store))
        .methods()
        .len();
    let d = DecomposedContextServices::new(store);
    let decomposed =
        d.tree.methods().len() + d.properties.methods().len() + d.archive.methods().len();
    assert!(monolith > 60, "monolith has {monolith} methods");
    assert!(decomposed <= 12, "decomposed total {decomposed}");
    assert!(monolith / decomposed >= 5);
}

// -------------------------------------------------------------------------
// E9 — "The Web Service executes the jobs sequentially": the makespan
// cost in simulated time, vs the parallel ablation.
// -------------------------------------------------------------------------

#[test]
fn e9_sequential_execution_costs_makespan() {
    fn jobs_xml(n: usize) -> Element {
        let mut jobs = Element::new("jobs");
        for i in 0..n {
            jobs.push_child(
                Element::new("job")
                    .with_text_child("host", "tg-login")
                    .with_text_child("scheduler", "PBS")
                    .with_text_child("queue", "batch")
                    .with_text_child("name", format!("j{i}"))
                    .with_text_child("cpus", "4")
                    .with_text_child("wallMinutes", "10")
                    .with_text_child("command", "sleep 4"),
            );
        }
        jobs
    }
    let n = 6;

    // Sequential (paper behavior): simulated makespan ≈ n × 4s.
    let d1 = PortalDeployment::in_memory(SecurityMode::Open);
    let c1 = SoapClient::new(d1.transport("grid.sdsc.edu").unwrap(), "JobSubmission");
    let t0 = d1.clock.now();
    c1.call("runXml", &[SoapValue::Xml(jobs_xml(n))]).unwrap();
    let sequential_ms = d1.clock.now() - t0;

    // Parallel ablation: 6 × 4-cpu jobs fit a 32-cpu host at once.
    let d2 = PortalDeployment::in_memory(SecurityMode::Open);
    let c2 = SoapClient::new(d2.transport("grid.sdsc.edu").unwrap(), "JobSubmission");
    let t0 = d2.clock.now();
    c2.call("runXmlParallel", &[SoapValue::Xml(jobs_xml(n))])
        .unwrap();
    let parallel_ms = d2.clock.now() - t0;

    assert!(
        sequential_ms >= (n as u64) * 4000,
        "sequential {sequential_ms}ms"
    );
    assert!(parallel_ms <= 6000, "parallel {parallel_ms}ms");
    assert!(sequential_ms >= 4 * parallel_ms);
}

// -------------------------------------------------------------------------
// E1-adjacent sanity: SOAP vs direct dispatch traffic.
// -------------------------------------------------------------------------

#[test]
fn soap_tax_is_visible_in_bytes() {
    // The same logical call, three regimes: direct (no framing), framed
    // in-memory, real TCP — bytes identical for the latter two, zero for
    // the first.
    let server = SoapServer::new();
    server.mount(Arc::new(portalws::services::scriptgen::SdscScriptGen));
    let handler: Arc<dyn Handler> = Arc::new(server);

    let call = |t: Arc<dyn Transport>| -> u64 {
        let before = t.stats().snapshot();
        let c = SoapClient::new(Arc::clone(&t), "BatchScriptGen");
        c.call("supportedSchedulers", &[]).unwrap();
        t.stats().snapshot().since(&before).total_bytes()
    };

    let direct = call(Arc::new(InMemoryTransport::direct(Arc::clone(&handler))));
    let framed = call(Arc::new(InMemoryTransport::new(Arc::clone(&handler))));
    assert_eq!(direct, 0);
    assert!(framed > 500, "framed={framed}");

    let tcp_server =
        HttpServer::start("127.0.0.1:0", handler, ServerConfig::with_workers(2), None).unwrap();
    // The 2002 regime: a connection per call, from a pool that parks none.
    let per_call = Pool::new(PoolConfig {
        max_idle: 0,
        ..PoolConfig::default()
    });
    let tcp = call(Arc::new(
        PooledTransport::with_pool(tcp_server.addr(), Arc::new(per_call))
            .with_retry(RetryPolicy::none()),
    ));
    assert_eq!(tcp, framed, "framing is transport-independent");
    tcp_server.shutdown();
}
