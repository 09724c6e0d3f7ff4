//! The experiment report: regenerates every figure- and claim-series in
//! EXPERIMENTS.md, printing paper-shaped rows (latencies, bytes on the
//! wire, connection counts, precision/recall, simulated makespans,
//! interface sizes).
//!
//! ```sh
//! cargo run -p portalws-bench --release --bin report
//! ```
//!
//! No other program runs E1–E10. Each timing is the median of
//! repeated runs ([`portalws_bench::median`]): enough for the *shape* of
//! each result table, which is what the experiments compare.

use std::sync::Arc;
use std::time::Duration;

use portalws_bench::{
    discovery_population, jobs_request, median, payload, per_call_transport, synthetic_form,
    synthetic_schema, Flags,
};
use portalws_core::{PortalDeployment, PortalShell, SecurityMode, UiServer};
use portalws_gridsim::sched::{parse_script, SchedulerKind};
use portalws_services::context::{ContextManagerMonolith, ContextStore, DecomposedContextServices};
use portalws_services::scriptgen::{
    ContextCoupling, GatewayClient, HotPageClient, IuScriptGen, ScriptRequest, SdscScriptGen,
};
use portalws_soap::{SoapClient, SoapServer, SoapService, SoapValue};
use portalws_wire::{Handler, InMemoryTransport, Transport};
use portalws_wizard::{BeanRegistry, SchemaWizard, Som};
use portalws_xml::Element;

fn us(d: Duration) -> String {
    format!("{:.1} µs", d.as_secs_f64() * 1e6)
}

fn ms(d: Duration) -> String {
    format!("{:.2} ms", d.as_secs_f64() * 1e3)
}

fn heading(s: &str) {
    println!("\n================================================================");
    println!("{s}");
    println!("================================================================");
}

fn main() {
    Flags::from_env(&[], &[]);
    heading("E1 (Fig. 1) — basic Web-Services interactions");
    e1();
    heading("E2 (Fig. 2) — assertion-based single sign-on");
    e2();
    heading("E3 (Fig. 3) — schema wizard");
    e3();
    heading("E4 (Fig. 4) — integrated portal");
    e4();
    heading("E5 — SRB string-streamed transfer ('does not scale well')");
    e5();
    heading("E6 — xml_call batching ('a single connection')");
    e6();
    heading("E7 — UDDI string search vs typed container registry");
    e7();
    heading("E8 — context-manager coupling overhead");
    e8();
    heading("E9 — sequential multi-job execution");
    e9();
    heading("E10 — batch-script interoperability matrix");
    e10();
    println!();
}

fn e1() {
    for (label, deployment) in [
        ("in-memory", PortalDeployment::in_memory(SecurityMode::Open)),
        ("over TCP", PortalDeployment::over_tcp(SecurityMode::Open)),
        (
            "over TCP, pooled",
            PortalDeployment::over_tcp_pooled(SecurityMode::Open),
        ),
    ] {
        let ui = UiServer::new(Arc::clone(&deployment));
        let hit = ui.find_services("JobSubmission").unwrap().remove(0);
        let client = ui.bind(&hit).unwrap();
        let find = median(200, || {
            ui.find_services("JobSubmission").unwrap();
        });
        let bind = median(200, || {
            ui.bind(&hit).unwrap();
        });
        let invoke = median(200, || {
            client.call("listHosts", &[]).unwrap();
        });
        let full = median(100, || {
            let c = ui.discover_and_bind("JobSubmission").unwrap();
            c.call("listHosts", &[]).unwrap();
        });
        println!("\n  transport: {label}");
        println!("    {:<28} {:>12}", "stage", "median");
        println!("    {:<28} {:>12}", "find (UDDI)", us(find));
        println!("    {:<28} {:>12}", "fetch WSDL + bind", us(bind));
        println!("    {:<28} {:>12}", "invoke", us(invoke));
        println!("    {:<28} {:>12}", "full find->bind->invoke", us(full));
    }

    // Stove-pipe overhead comparison plus bytes per call.
    let make_server = || -> Arc<dyn Handler> {
        let server = SoapServer::new();
        server.mount(Arc::new(portalws_services::JobSubmissionService::new(
            portalws_gridsim::grid::Grid::testbed(),
        )));
        Arc::new(server)
    };
    println!("\n  the stove-pipe comparison (listHosts):");
    println!("    {:<28} {:>12} {:>14}", "regime", "median", "bytes/call");
    let direct: Arc<dyn Transport> = Arc::new(InMemoryTransport::direct(make_server()));
    let framed: Arc<dyn Transport> = Arc::new(InMemoryTransport::new(make_server()));
    let tcp_server = portalws_wire::HttpServer::start(
        "127.0.0.1:0",
        make_server(),
        portalws_wire::ServerConfig::with_workers(4),
        None,
    )
    .unwrap();
    let tcp = per_call_transport(tcp_server.addr());
    let tcp_pooled: Arc<dyn Transport> =
        Arc::new(portalws_wire::PooledTransport::new(tcp_server.addr()));
    for (label, transport) in [
        ("direct (three-tier)", direct),
        ("SOAP, in-memory", framed),
        ("SOAP, TCP per-call conn", tcp),
        ("SOAP, TCP pooled", tcp_pooled),
    ] {
        let client = SoapClient::new(Arc::clone(&transport), "JobSubmission");
        let before = transport.stats().snapshot();
        let t = median(200, || {
            client.call("listHosts", &[]).unwrap();
        });
        let delta = transport.stats().snapshot().since(&before);
        let per_call = delta.total_bytes().checked_div(delta.requests).unwrap_or(0);
        if delta.pool_reuse_hits + delta.pool_reuse_misses > 0 {
            println!(
                "    {:<28} {:>12} {:>14}   (pool: {} reuse hits, {} misses)",
                label,
                us(t),
                per_call,
                delta.pool_reuse_hits,
                delta.pool_reuse_misses
            );
        } else {
            println!("    {:<28} {:>12} {:>14}", label, us(t), per_call);
        }
    }
    tcp_server.shutdown();
}

fn e2() {
    println!(
        "\n  {:<26} {:>12} {:>12} {:>16}",
        "security mode", "mem median", "tcp median", "auth-verify/call"
    );
    for (label, mode) in [
        ("open (baseline)", SecurityMode::Open),
        ("central (Fig. 2)", SecurityMode::Central),
        ("local (ablation)", SecurityMode::Local),
    ] {
        let mem = PortalDeployment::in_memory(mode);
        let ui = UiServer::new(Arc::clone(&mem));
        ui.login("alice@GCE.ORG", "alice-pass").unwrap();
        let client = ui.proxy("grid.sdsc.edu", "JobSubmission").unwrap();
        let v0 = mem.auth.verification_count();
        let t_mem = median(200, || {
            client.call("listHosts", &[]).unwrap();
        });
        let verifies = (mem.auth.verification_count() - v0) as f64 / 200.0;

        let tcp = PortalDeployment::over_tcp(mode);
        let ui = UiServer::new(Arc::clone(&tcp));
        ui.login("alice@GCE.ORG", "alice-pass").unwrap();
        let client = ui.proxy("grid.sdsc.edu", "JobSubmission").unwrap();
        let t_tcp = median(100, || {
            client.call("listHosts", &[]).unwrap();
        });
        println!(
            "  {:<26} {:>12} {:>12} {:>16.2}",
            label,
            us(t_mem),
            us(t_tcp),
            verifies
        );
    }

    let deployment = PortalDeployment::in_memory(SecurityMode::Open);
    let gss = deployment
        .auth
        .login(
            "alice@GCE.ORG",
            "alice-pass",
            portalws_gridsim::cred::Mechanism::Kerberos,
        )
        .unwrap();
    let session = portalws_auth::UserSession::new(gss, Arc::clone(&deployment.clock));
    let mint = median(500, || {
        session.make_assertion();
    });
    let a = session.make_assertion();
    let verify = median(500, || {
        deployment.auth.verify_assertion(&a).unwrap();
    });
    println!(
        "\n  primitives: mint+sign {} | verify {}",
        us(mint),
        us(verify)
    );
}

fn e3() {
    println!(
        "\n  {:<8} {:>8} {:>13} {:>12} {:>12} {:>14}",
        "leaves", "classes", "constituents", "form bytes", "gen form", "form->inst"
    );
    for leaves in [4usize, 16, 64, 256] {
        let schema = synthetic_schema(leaves, 4, 2);
        let registry = BeanRegistry::generate(&schema, "root").unwrap();
        let constituents = Som::new(&schema).walk("root").unwrap().len();
        let wizard = SchemaWizard::new(schema.clone());
        let page = wizard.generate_page("root", "/x", &[]).unwrap();
        let form = synthetic_form(&schema);
        let t_gen = median(50, || {
            wizard.generate_page("root", "/x", &[]).unwrap();
        });
        let t_inst = median(50, || {
            wizard.instance_from_form("root", &form).unwrap();
        });
        println!(
            "  {:<8} {:>8} {:>13} {:>12} {:>12} {:>14}",
            leaves,
            registry.class_count(),
            constituents,
            page.len(),
            us(t_gen),
            us(t_inst)
        );
    }

    let schema = portalws_appws::descriptor::descriptor_schema();
    let wizard = SchemaWizard::new(schema);
    let t = median(100, || {
        wizard.generate_page("application", "/x", &[]).unwrap();
    });
    println!("\n  real descriptor schema: form generation {}", us(t));
}

fn e4() {
    let deployment = PortalDeployment::in_memory(SecurityMode::Open);
    let ui = Arc::new(UiServer::new(deployment));
    let shell = PortalShell::new(ui);
    shell.exec("mkdir /public/report").unwrap();
    println!("\n  shell pipelines (in-memory deployment):");
    for (label, line) in [
        ("hosts", "hosts"),
        (
            "echo | put ; cat",
            "echo data | put /public/report/f; cat /public/report/f",
        ),
        (
            "scriptgen | jobsub",
            "scriptgen iu PBS batch r 2 10 -- date | jobsub tg-login PBS",
        ),
    ] {
        let t = median(50, || {
            shell.exec(line).unwrap();
        });
        println!("    {:<22} {:>12}", label, us(t));
    }

    use portalws_portlets::{HtmlPortlet, PortalPage, PortletRegistry, WebFormPortlet};
    let remote: Arc<dyn Handler> =
        Arc::new(|_req: &portalws_wire::Request| portalws_wire::Response::html("<p>app</p>"));
    println!("\n  portlet aggregation:");
    println!(
        "    {:<10} {:>12} {:>12}",
        "portlets", "render", "page bytes"
    );
    for count in [1usize, 4, 8, 16, 24] {
        let registry = Arc::new(PortletRegistry::new());
        for i in 0..count {
            if i % 2 == 0 {
                registry.register(Arc::new(HtmlPortlet::new(
                    format!("h{i}"),
                    format!("H{i}"),
                    "<p>local</p>",
                )));
                registry
                    .add_to_layout("u", &format!("h{i}"), i % 3)
                    .unwrap();
            } else {
                registry.register(Arc::new(WebFormPortlet::new(
                    format!("w{i}"),
                    format!("W{i}"),
                    "/app",
                    Arc::new(InMemoryTransport::new(Arc::clone(&remote))),
                )));
                registry
                    .add_to_layout("u", &format!("w{i}"), i % 3)
                    .unwrap();
            }
        }
        let portal = PortalPage::new(registry, "/portal");
        let page = portal.render("u", None);
        let t = median(50, || {
            portal.render("u", None);
        });
        println!("    {:<10} {:>12} {:>12}", count, us(t), page.len());
    }
}

fn e5() {
    let srb = Arc::new(portalws_gridsim::srb::Srb::new());
    srb.mkdir("/bench").unwrap();
    let server = SoapServer::new();
    server.mount(Arc::new(portalws_services::DataManagementService::new(srb)));
    let handler: Arc<dyn Handler> = Arc::new(server);
    let transport: Arc<dyn Transport> = Arc::new(InMemoryTransport::new(handler));
    let data = SoapClient::new(Arc::clone(&transport), "DataManagement");

    println!(
        "\n  {:<10} {:>14} {:>8} {:>14} {:>8} {:>12} {:>12}",
        "payload", "string bytes", "amp", "base64 bytes", "amp", "put string", "put base64"
    );
    for kib in [1usize, 16, 64, 256, 1024] {
        let len = kib * 1024;
        let content = payload(len, 0.1);
        let before = transport.stats().snapshot();
        data.call(
            "put",
            &[SoapValue::str("/bench/s"), SoapValue::str(&content)],
        )
        .unwrap();
        let s_bytes = transport.stats().snapshot().since(&before).bytes_sent;
        let before = transport.stats().snapshot();
        data.call(
            "putB64",
            &[
                SoapValue::str("/bench/b"),
                SoapValue::Base64(content.clone().into_bytes()),
            ],
        )
        .unwrap();
        let b_bytes = transport.stats().snapshot().since(&before).bytes_sent;
        let iters = (64 / kib).clamp(3, 30);
        let t_s = median(iters, || {
            data.call(
                "put",
                &[SoapValue::str("/bench/s"), SoapValue::str(&content)],
            )
            .unwrap();
        });
        let bytes_payload = content.clone().into_bytes();
        let t_b = median(iters, || {
            data.call(
                "putB64",
                &[
                    SoapValue::str("/bench/b"),
                    SoapValue::Base64(bytes_payload.clone()),
                ],
            )
            .unwrap();
        });
        println!(
            "  {:<10} {:>14} {:>8.2} {:>14} {:>8.2} {:>12} {:>12}",
            format!("{kib} KiB"),
            s_bytes,
            s_bytes as f64 / len as f64,
            b_bytes,
            b_bytes as f64 / len as f64,
            ms(t_s),
            ms(t_b)
        );
    }
    println!(
        "\n  (string amplification grows with markup density; base64 is a flat 4/3 + envelope)"
    );

    // Where the string path actually loses: markup-dense payloads.
    println!(
        "\n  {:<14} {:>14} {:>8} {:>14} {:>8}",
        "markup density", "string bytes", "amp", "base64 bytes", "amp"
    );
    let len = 256 * 1024;
    for pct in [0usize, 10, 50, 100] {
        let content = payload(len, pct as f64 / 100.0);
        let before = transport.stats().snapshot();
        data.call(
            "put",
            &[SoapValue::str("/bench/esc"), SoapValue::str(&content)],
        )
        .unwrap();
        let s_bytes = transport.stats().snapshot().since(&before).bytes_sent;
        let before = transport.stats().snapshot();
        data.call(
            "putB64",
            &[
                SoapValue::str("/bench/escb"),
                SoapValue::Base64(content.into_bytes()),
            ],
        )
        .unwrap();
        let b_bytes = transport.stats().snapshot().since(&before).bytes_sent;
        println!(
            "  {:<14} {:>14} {:>8.2} {:>14} {:>8.2}",
            format!("{pct}%"),
            s_bytes,
            s_bytes as f64 / len as f64,
            b_bytes,
            b_bytes as f64 / len as f64
        );
    }
}

fn e6() {
    let srb = Arc::new(portalws_gridsim::srb::Srb::new());
    srb.mkdir("/bench").unwrap();
    let server = SoapServer::new();
    server.mount(Arc::new(portalws_services::DataManagementService::new(srb)));
    let handler: Arc<dyn Handler> = Arc::new(server);
    let tcp_server = portalws_wire::HttpServer::start(
        "127.0.0.1:0",
        handler,
        portalws_wire::ServerConfig::with_workers(4),
        None,
    )
    .unwrap();
    let per_call = per_call_transport(tcp_server.addr());
    let pooled: Arc<dyn Transport> =
        Arc::new(portalws_wire::PooledTransport::new(tcp_server.addr()));

    for (regime, transport) in [
        ("TCP per-call conn (2002 regime)", per_call),
        ("TCP pooled keep-alive", pooled),
    ] {
        let data = SoapClient::new(Arc::clone(&transport), "DataManagement");
        println!("\n  transport: {regime}");
        println!(
            "  {:<6} {:>14} {:>12} {:>14} {:>12} {:>9}",
            "N", "separate conn", "time", "xml_call conn", "time", "speedup"
        );
        for n in [1usize, 4, 16, 64] {
            let before = transport.stats().snapshot();
            let t_sep = median(10, || {
                for i in 0..n {
                    data.call(
                        "put",
                        &[
                            SoapValue::str(format!("/bench/s{i}")),
                            SoapValue::str("payload"),
                        ],
                    )
                    .unwrap();
                }
            });
            let sep_conns = transport.stats().snapshot().since(&before).connections as f64 / 10.0;

            let mut request = Element::new("request");
            for i in 0..n {
                request.push_child(
                    Element::new("put")
                        .with_attr("path", format!("/bench/b{i}"))
                        .with_text("payload"),
                );
            }
            let before = transport.stats().snapshot();
            let t_batch = median(10, || {
                data.call("xml_call", &[SoapValue::Xml(request.clone())])
                    .unwrap();
            });
            let batch_conns = transport.stats().snapshot().since(&before).connections as f64 / 10.0;
            println!(
                "  {:<6} {:>14.1} {:>12} {:>14.1} {:>12} {:>8.1}x",
                n,
                sep_conns,
                ms(t_sep),
                batch_conns,
                ms(t_batch),
                t_sep.as_secs_f64() / t_batch.as_secs_f64()
            );
        }
    }

    // Attribution: layer the E14 read cache over the same pooled
    // transport and repeat one read. Pooling saves *dials* (reuse hits);
    // caching saves whole *round trips* (wire calls that never reach the
    // pool). The miss-driven fills are tagged on the wire and show up in
    // `pool_cache_fill_hits`, so the reuse column decomposes exactly.
    let pooled: Arc<dyn Transport> =
        Arc::new(portalws_wire::PooledTransport::new(tcp_server.addr()));
    let data = SoapClient::new(Arc::clone(&pooled), "DataManagement");
    data.call(
        "put",
        &[SoapValue::str("/bench/attr"), SoapValue::str("payload")],
    )
    .unwrap();
    let cache = Arc::new(portalws_soap::ReadCache::new(
        portalws_soap::ReadCacheConfig {
            ttl: std::time::Duration::from_secs(60),
            ..Default::default()
        },
    ));
    data.enable_read_cache(Arc::clone(&cache), &["get"]);
    let before = pooled.stats().snapshot();
    const READS: usize = 200;
    for _ in 0..READS {
        data.call("get", &[SoapValue::str("/bench/attr")]).unwrap();
    }
    let wire = pooled.stats().snapshot().since(&before);
    let read = cache.stats().snapshot();
    println!(
        "\n  attribution ({READS} repeated `get` over pooled + read cache):\n    \
         round trips saved by cache: {} hits / {} wire call(s)\n    \
         dials saved by pool: {} reuse(s), of which cache-miss fills: {}",
        read.cache_hits, wire.requests, wire.pool_reuse_hits, wire.pool_cache_fill_hits
    );
    tcp_server.shutdown();
}

fn e7() {
    println!(
        "\n  {:<6} {:>10} {:>10} {:>11} {:>11} {:>12} {:>12}",
        "N", "true LSF", "uddi hits", "uddi prec", "typed prec", "uddi time", "typed time"
    );
    for n in [16usize, 64, 256, 1024] {
        let (uddi, container, truly) = discovery_population(n);
        let uddi_hits = uddi.find_service("LSF").len();
        let typed_hits = container.query("schedulers/scheduler", "LSF").len();
        let t_uddi = median(50, || {
            uddi.find_service("LSF");
        });
        let t_typed = median(50, || {
            container.query("schedulers/scheduler", "LSF");
        });
        println!(
            "  {:<6} {:>10} {:>10} {:>11.2} {:>11.2} {:>12} {:>12}",
            n,
            truly,
            uddi_hits,
            truly as f64 / uddi_hits as f64,
            truly as f64 / typed_hits as f64,
            us(t_uddi),
            us(t_typed)
        );
    }
    println!(
        "\n  (both searches achieve full recall; only the typed query achieves full precision)"
    );
}

fn e8() {
    let req = ScriptRequest {
        scheduler: SchedulerKind::Pbs,
        queue: "batch".into(),
        job_name: "r".into(),
        command: "date".into(),
        cpus: 1,
        wall_minutes: 10,
    };
    println!(
        "\n  {:<26} {:>12} {:>16} {:>16}",
        "coupling", "per call", "contexts/100", "placeholders/100"
    );
    for (label, make) in [
        (
            "decoupled (refactored)",
            Box::new(|| (ContextCoupling::Decoupled, ContextStore::new()))
                as Box<dyn Fn() -> (ContextCoupling, Arc<ContextStore>)>,
        ),
        (
            "integrated (Gateway)",
            Box::new(|| {
                let s = ContextStore::new();
                (ContextCoupling::Integrated(Arc::clone(&s)), s)
            }),
        ),
        (
            "placeholder (standalone)",
            Box::new(|| {
                let s = ContextStore::new();
                (ContextCoupling::Placeholder(Arc::clone(&s)), s)
            }),
        ),
    ] {
        let (coupling, store) = make();
        let server = SoapServer::new();
        server.mount(Arc::new(IuScriptGen::new(coupling)));
        let handler: Arc<dyn Handler> = Arc::new(server);
        let client = HotPageClient::connect(Arc::new(InMemoryTransport::new(handler)));
        for _ in 0..100 {
            client.generate(&req).unwrap();
        }
        let contexts = store.total_count();
        let placeholders = store.placeholder_count();
        let t = median(100, || {
            client.generate(&req).unwrap();
        });
        println!(
            "  {:<26} {:>12} {:>16} {:>16}",
            label,
            us(t),
            contexts,
            placeholders
        );
    }

    let store = ContextStore::new();
    let monolith = ContextManagerMonolith::new(Arc::clone(&store));
    let d = DecomposedContextServices::new(store);
    println!(
        "\n  interface sizes: monolith {} methods | decomposed {} + {} + {} = {} methods",
        monolith.methods().len(),
        d.tree.methods().len(),
        d.properties.methods().len(),
        d.archive.methods().len(),
        d.tree.methods().len() + d.properties.methods().len() + d.archive.methods().len()
    );
    println!(
        "  WSDL sizes: monolith {} bytes | decomposed {} bytes",
        portalws_wsdl::WsdlDefinition::from_service(&monolith)
            .to_xml()
            .to_xml()
            .len(),
        portalws_wsdl::WsdlDefinition::from_service(&*d.tree)
            .to_xml()
            .to_xml()
            .len()
            + portalws_wsdl::WsdlDefinition::from_service(&*d.properties)
                .to_xml()
                .to_xml()
                .len()
            + portalws_wsdl::WsdlDefinition::from_service(&*d.archive)
                .to_xml()
                .to_xml()
                .len()
    );
}

fn e9() {
    println!(
        "\n  {:<6} {:>22} {:>22} {:>9}",
        "jobs", "sequential makespan", "parallel makespan", "ratio"
    );
    for n in [2usize, 4, 8, 16] {
        let seq_ms = {
            let d = PortalDeployment::in_memory(SecurityMode::Open);
            let c = SoapClient::new(d.transport("grid.sdsc.edu").unwrap(), "JobSubmission");
            let t0 = d.clock.now();
            c.call("runXml", &[SoapValue::Xml(jobs_request(n, 4, 2))])
                .unwrap();
            d.clock.now() - t0
        };
        let par_ms = {
            let d = PortalDeployment::in_memory(SecurityMode::Open);
            let c = SoapClient::new(d.transport("grid.sdsc.edu").unwrap(), "JobSubmission");
            let t0 = d.clock.now();
            c.call("runXmlParallel", &[SoapValue::Xml(jobs_request(n, 4, 2))])
                .unwrap();
            d.clock.now() - t0
        };
        println!(
            "  {:<6} {:>20}s {:>20}s {:>8.1}x",
            n,
            seq_ms / 1000,
            par_ms / 1000,
            seq_ms as f64 / par_ms as f64
        );
    }
    println!("\n  (simulated time: 4s jobs, 2 cpus each, 32-cpu host; the paper's service ran them sequentially)");

    // The wall-clock side: zero-second jobs leave only the processing
    // cost of each request form.
    let d = PortalDeployment::in_memory(SecurityMode::Open);
    let c = SoapClient::new(d.transport("grid.sdsc.edu").unwrap(), "JobSubmission");
    let run = |jobs: &Element| {
        c.call("runXml", &[SoapValue::Xml(jobs.clone())]).unwrap();
    };
    println!(
        "\n  {:<6} {:>22} {:>22} {:>9}",
        "jobs", "one n-job request", "n 1-job requests", "ratio"
    );
    let one_job = jobs_request(1, 0, 1);
    for n in [2usize, 4, 8, 16] {
        let n_jobs = jobs_request(n, 0, 1);
        let batched = median(20, || run(&n_jobs));
        let separate = median(20, || (0..n).for_each(|_| run(&one_job)));
        println!(
            "  {:<6} {:>22} {:>22} {:>8.2}x",
            n,
            us(batched),
            us(separate),
            separate.as_secs_f64() / batched.as_secs_f64()
        );
    }
    println!("\n  (wall clock, in-memory transport: 0 s jobs, 1 cpu each)");
}

fn e10() {
    let sites: [(&str, Arc<dyn SoapService>, &[SchedulerKind]); 2] = [
        (
            "IU",
            Arc::new(IuScriptGen::decoupled()),
            &[SchedulerKind::Pbs, SchedulerKind::Grd],
        ),
        (
            "SDSC",
            Arc::new(SdscScriptGen),
            &[SchedulerKind::Lsf, SchedulerKind::Nqs],
        ),
    ];
    println!(
        "\n  {:<8} {:<10} {:<10} {:>10} {:>12}",
        "service", "client", "scheduler", "accepted", "gen time"
    );
    for (site, service, kinds) in sites {
        let wsdl = portalws_wsdl::WsdlDefinition::from_service(&*service);
        let server = SoapServer::new();
        server.mount(service);
        let handler: Arc<dyn Handler> = Arc::new(server);
        let transport: Arc<dyn Transport> = Arc::new(InMemoryTransport::new(handler));
        let gateway = GatewayClient::bind(wsdl, Arc::clone(&transport));
        let hotpage = HotPageClient::connect(Arc::clone(&transport));
        for &kind in kinds {
            let req = ScriptRequest {
                scheduler: kind,
                queue: "batch".into(),
                job_name: "m".into(),
                command: "./a.out".into(),
                cpus: 8,
                wall_minutes: 120,
            };
            for (client_name, generate) in [
                (
                    "gateway",
                    Box::new(|| gateway.generate(&req).unwrap()) as Box<dyn Fn() -> String>,
                ),
                ("hotpage", Box::new(|| hotpage.generate(&req).unwrap())),
            ] {
                let script = generate();
                let accepted = parse_script(kind, &script).is_ok();
                let t = median(100, || {
                    generate();
                });
                println!(
                    "  {:<8} {:<10} {:<10} {:>10} {:>12}",
                    site,
                    client_name,
                    kind.name(),
                    accepted,
                    us(t)
                );
            }
        }
    }
}
