//! E6: "The `xml_call` method allows the client to create a single
//! request string consisting of multiple SRB commands … sent to the Web
//! Service using a single connection."
//!
//! N separate SOAP calls vs one batched `xml_call`, over real TCP (the
//! regime where per-call connections actually cost) and in memory (the
//! pure protocol cost).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use portalws_gridsim::srb::Srb;
use portalws_services::DataManagementService;
use portalws_soap::{SoapClient, SoapServer, SoapValue};
use portalws_wire::{
    Handler, HttpServer, HttpTransport, InMemoryTransport, PooledTransport, ServerConfig, Transport,
};
use portalws_xml::Element;

fn handler() -> Arc<dyn Handler> {
    let srb = Arc::new(Srb::new());
    srb.mkdir("/bench").unwrap();
    let server = SoapServer::new();
    server.mount(Arc::new(DataManagementService::new(srb)));
    Arc::new(server)
}

fn batched_request(n: usize) -> Element {
    let mut request = Element::new("request");
    for i in 0..n {
        request.push_child(
            Element::new("put")
                .with_attr("path", format!("/bench/b{i}"))
                .with_text("payload"),
        );
    }
    request
}

fn run_group(c: &mut Criterion, label: &str, transport: Arc<dyn Transport>) {
    let data = SoapClient::new(transport, "DataManagement");
    let mut g = c.benchmark_group(label);
    g.sample_size(20);
    for n in [1usize, 4, 16, 64] {
        g.bench_with_input(BenchmarkId::new("separate_calls", n), &n, |b, &n| {
            b.iter(|| {
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
            })
        });
        let request = batched_request(n);
        g.bench_with_input(
            BenchmarkId::new("one_xml_call", n),
            &request,
            |b, request| {
                b.iter(|| {
                    data.call("xml_call", &[SoapValue::Xml(request.clone())])
                        .unwrap()
                })
            },
        );
    }
    g.finish();
}

fn over_tcp(c: &mut Criterion) {
    let server = HttpServer::start(
        "127.0.0.1:0",
        handler(),
        ServerConfig::with_workers(4),
        None,
    )
    .unwrap();
    let transport: Arc<dyn Transport> = Arc::new(HttpTransport::new(server.addr()));
    run_group(c, "e6_xml_call_tcp", transport);
    server.shutdown();
}

fn over_tcp_pooled(c: &mut Criterion) {
    // Pooled keep-alive ablation: batching still wins on protocol bytes,
    // but the connection-per-call tax the 2002 paper worked around is gone.
    let server = HttpServer::start(
        "127.0.0.1:0",
        handler(),
        ServerConfig::with_workers(4),
        None,
    )
    .unwrap();
    let transport: Arc<dyn Transport> = Arc::new(PooledTransport::new(server.addr()));
    run_group(c, "e6_xml_call_tcp_pooled", transport);
    server.shutdown();
}

fn in_memory(c: &mut Criterion) {
    let transport: Arc<dyn Transport> = Arc::new(InMemoryTransport::new(handler()));
    run_group(c, "e6_xml_call_mem", transport);
}

criterion_group!(benches, over_tcp, over_tcp_pooled, in_memory);
criterion_main!(benches);
