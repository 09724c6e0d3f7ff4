//! E1 / Figure 1: the basic Web-Services interactions.
//!
//! Measures each stage of the find → fetch → bind → invoke flow, the
//! SOAP-vs-direct ("stove-pipe") overhead, and invoke throughput under
//! concurrent clients.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use portalws_core::{PortalDeployment, SecurityMode, UiServer};
use portalws_gridsim::sched::{render_script, JobRequirements, SchedulerKind};
use portalws_soap::{SoapClient, SoapServer, SoapValue};
use portalws_wire::{Handler, InMemoryTransport, Transport};

fn pbs_script() -> String {
    render_script(
        SchedulerKind::Pbs,
        &JobRequirements {
            name: "bench".into(),
            queue: "batch".into(),
            cpus: 1,
            wall_minutes: 10,
            command: "date".into(),
        },
    )
}

fn stages(c: &mut Criterion) {
    let deployment = PortalDeployment::in_memory(SecurityMode::Open);
    let ui = UiServer::new(Arc::clone(&deployment));
    let mut g = c.benchmark_group("fig1_stages");

    g.bench_function("find_uddi", |b| {
        b.iter(|| ui.find_services("JobSubmission").unwrap())
    });
    let hit = ui.find_services("JobSubmission").unwrap().remove(0);
    g.bench_function("fetch_wsdl_and_bind", |b| b.iter(|| ui.bind(&hit).unwrap()));
    let client = ui.bind(&hit).unwrap();
    g.bench_function("invoke", |b| {
        b.iter(|| client.call("listHosts", &[]).unwrap())
    });
    g.bench_function("full_flow", |b| {
        b.iter(|| {
            let client = ui.discover_and_bind("JobSubmission").unwrap();
            client.call("listHosts", &[]).unwrap()
        })
    });
    g.bench_function("submit_job_end_to_end", |b| {
        let script = pbs_script();
        b.iter(|| {
            client
                .call(
                    "submit",
                    &[
                        SoapValue::str("tg-login"),
                        SoapValue::str("PBS"),
                        SoapValue::str(&script),
                    ],
                )
                .unwrap()
        })
    });
    g.finish();
}

fn overhead(c: &mut Criterion) {
    // The stove-pipe comparison: the identical logical call as (a) direct
    // in-process dispatch, (b) SOAP over in-memory framing, (c) SOAP over
    // real TCP.
    let mut g = c.benchmark_group("fig1_overhead");
    let make_server = || -> Arc<dyn Handler> {
        let grid = portalws_gridsim::grid::Grid::testbed();
        let server = SoapServer::new();
        server.mount(Arc::new(portalws_services::JobSubmissionService::new(grid)));
        Arc::new(server)
    };

    let direct = SoapClient::new(
        Arc::new(InMemoryTransport::direct(make_server())),
        "JobSubmission",
    );
    g.bench_function("direct_dispatch", |b| {
        b.iter(|| direct.call("listHosts", &[]).unwrap())
    });

    let framed = SoapClient::new(
        Arc::new(InMemoryTransport::new(make_server())),
        "JobSubmission",
    );
    g.bench_function("soap_framed", |b| {
        b.iter(|| framed.call("listHosts", &[]).unwrap())
    });

    let tcp_server = portalws_wire::HttpServer::start(
        "127.0.0.1:0",
        make_server(),
        portalws_wire::ServerConfig::with_workers(4),
        None,
    )
    .unwrap();
    let tcp = SoapClient::new(
        Arc::new(portalws_wire::HttpTransport::new(tcp_server.addr())),
        "JobSubmission",
    );
    g.bench_function("soap_over_tcp", |b| {
        b.iter(|| tcp.call("listHosts", &[]).unwrap())
    });
    // Ablation: connection reuse (the post-2002 HTTP regime).
    let ka = SoapClient::new(
        Arc::new(portalws_wire::HttpTransport::keep_alive(tcp_server.addr())),
        "JobSubmission",
    );
    g.bench_function("soap_over_tcp_keepalive", |b| {
        b.iter(|| ka.call("listHosts", &[]).unwrap())
    });
    // Ablation: the pooled keep-alive transport (shared per-endpoint pool
    // with liveness checks), versus the single-slot keep-alive above.
    let pooled = SoapClient::new(
        Arc::new(portalws_wire::PooledTransport::new(tcp_server.addr())),
        "JobSubmission",
    );
    g.bench_function("soap_over_tcp_pooled", |b| {
        b.iter(|| pooled.call("listHosts", &[]).unwrap())
    });
    g.finish();
    drop(ka);
    drop(pooled);
    tcp_server.shutdown();
}

fn concurrency(c: &mut Criterion) {
    let deployment = PortalDeployment::over_tcp(SecurityMode::Open);
    let mut g = c.benchmark_group("fig1_concurrent_clients");
    g.sample_size(10);
    const CALLS_PER_CLIENT: usize = 20;
    for clients in [1usize, 4, 8, 16] {
        g.bench_with_input(
            BenchmarkId::from_parameter(clients),
            &clients,
            |b, &clients| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for _ in 0..clients {
                            let transport: Arc<dyn Transport> =
                                deployment.transport("grid.sdsc.edu").unwrap();
                            scope.spawn(move || {
                                let c = SoapClient::new(transport, "JobSubmission");
                                for _ in 0..CALLS_PER_CLIENT {
                                    c.call("listHosts", &[]).unwrap();
                                }
                            });
                        }
                    })
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, stages, overhead, concurrency);
criterion_main!(benches);
