//! E11 — substrate throughput: the zero-copy XML substrate and per-worker
//! buffer reuse, measured end to end.
//!
//! Two series:
//!
//! 1. **µs/envelope** — median parse and serialize time for the
//!    representative SOAP envelope (a `submitXml` request with a SAML
//!    header), the unit the whole SOAP hot path is built from.
//! 2. **req/s vs worker count, per server arm** — closed-loop load
//!    against a pooled TCP server: one keep-alive client per server
//!    worker, each echoing the representative job payload through a full
//!    SOAP round trip, run on both the blocking thread-per-connection arm
//!    and the epoll reactor arm. Reuse diagnostics (scratch growths,
//!    capacity high-water, escape/unescape fast-path rates) come from the
//!    server's `WireStats`.
//! 3. **req/s vs idle connection count** — the axis the blocking arm
//!    cannot run at all: N idle keep-alive connections parked on ONE
//!    reactor worker while a handful of active clients drive closed-loop
//!    traffic through the same worker. (The blocking arm pins its worker
//!    on the first idle connection and starves every later one.)
//! 4. **µs/KiB for the base64 kernel** — median encode and decode of a
//!    seeded, incompressible 256 KiB payload (one transfer chunk), per KiB
//!    of payload, through `Base64Encoder::update` into a cleared, reused
//!    `String` and `Base64Decoder::update` into a cleared, reused `Vec`:
//!    fresh buffers would put page faults in every sample. Every byte of
//!    the chunked transfer path (E13) goes through both. The report names
//!    the block kernel that ran (`avx2` or `scalar`).
//!
//! ```sh
//! cargo run -p portalws-bench --release --bin e11_substrate -- \
//!     [--quick] [--json PATH] [--baseline PATH]
//! ```
//!
//! `--json` writes the measurements as `BENCH_substrate.json`. `--baseline`
//! compares them against a committed baseline and exits nonzero on a >2×
//! regression of parse µs/envelope, or a >3× regression of either base64
//! µs/KiB (the CI smoke gate). The baseline comes from the AVX2 kernel,
//! and the table kernel alone runs at 4–7× it in both directions, so the
//! 3× bound catches a silent fall back to it without tripping on runner
//! speed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use portalws_bench::{jobs_request, representative_envelope};
use portalws_soap::base64::{self, Base64Decoder, Base64Encoder};
use portalws_soap::{
    CallContext, Envelope, Fault, MethodDesc, SoapClient, SoapResult, SoapServer, SoapService,
    SoapType, SoapValue,
};
use portalws_wire::{Handler, HttpServer, PooledTransport};

/// Echo service: one full envelope decode + encode per call, so the
/// round trip is dominated by the substrate under measurement.
struct EchoService;

impl SoapService for EchoService {
    fn name(&self) -> &str {
        "Echo"
    }

    fn invoke(
        &self,
        method: &str,
        args: &[(String, SoapValue)],
        _ctx: &CallContext,
    ) -> SoapResult<SoapValue> {
        match method {
            "echo" => Ok(args
                .first()
                .map(|(_, v)| v.clone())
                .unwrap_or(SoapValue::Null)),
            other => Err(Fault::client(format!("no method {other:?}"))),
        }
    }

    fn methods(&self) -> Vec<MethodDesc> {
        vec![MethodDesc::new(
            "echo",
            vec![("value", SoapType::Xml)],
            SoapType::Xml,
            "Echo the argument",
        )]
    }
}

/// Median wall time of `f` over `n` runs, in microseconds.
fn median_us(n: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<Duration> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e6
}

struct ThroughputRow {
    arm: &'static str,
    workers: usize,
    req_per_s: f64,
    scratch_growths: u64,
    scratch_high_water: u64,
    escape_fast_path_rate: f64,
    unescape_fast_path_rate: f64,
}

/// Closed-loop load: `workers` keep-alive clients against a server with
/// `workers` worker threads, `per_client` echo calls each, on the chosen
/// server arm (`"blocking"` or `"reactor"`).
fn throughput(arm: &'static str, workers: usize, per_client: usize) -> ThroughputRow {
    let soap = SoapServer::new();
    soap.mount(Arc::new(EchoService));
    let handler: Arc<dyn Handler> = Arc::new(soap);
    let server = match arm {
        "reactor" => HttpServer::start_reactor(handler, workers),
        _ => HttpServer::start(handler, workers),
    }
    .expect("bind");
    let addr = server.addr();

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move || {
                let client = SoapClient::new(Arc::new(PooledTransport::new(addr)), "Echo");
                let payload = SoapValue::Xml(jobs_request(4, 30, 2));
                for _ in 0..per_client {
                    client
                        .call("echo", std::slice::from_ref(&payload))
                        .expect("echo");
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let snap = server.stats().snapshot();
    let row = ThroughputRow {
        arm,
        workers,
        req_per_s: (workers * per_client) as f64 / elapsed,
        scratch_growths: snap.scratch_growths,
        scratch_high_water: snap.scratch_high_water,
        escape_fast_path_rate: snap.escape_fast_path_rate(),
        unescape_fast_path_rate: snap.unescape_fast_path_rate(),
    };
    server.shutdown();
    row
}

struct IdleMixRow {
    idle: usize,
    active: usize,
    req_per_s: f64,
    connections_high_water: u64,
}

/// The connection-count axis: park `idle` keep-alive connections on ONE
/// reactor worker, then run `active` closed-loop clients through the same
/// worker. The parked herd must neither block the active traffic nor cost
/// a thread apiece — the server-side `connections_high_water` gauge
/// verifies the herd was actually simultaneous.
fn idle_mix(idle: usize, active: usize, per_client: usize) -> IdleMixRow {
    let soap = SoapServer::new();
    soap.mount(Arc::new(EchoService));
    let handler: Arc<dyn Handler> = Arc::new(soap);
    let server = HttpServer::start_reactor(handler, 1).expect("bind");
    let addr = server.addr();

    let parked: Vec<std::net::TcpStream> = (0..idle)
        .map(|_| std::net::TcpStream::connect(addr).expect("dial idle"))
        .collect();
    // Let the single worker register the whole herd before measuring.
    std::thread::sleep(Duration::from_millis(100));

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..active {
            scope.spawn(move || {
                let client = SoapClient::new(Arc::new(PooledTransport::new(addr)), "Echo");
                let payload = SoapValue::Xml(jobs_request(4, 30, 2));
                for _ in 0..per_client {
                    client
                        .call("echo", std::slice::from_ref(&payload))
                        .expect("echo");
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let snap = server.stats().snapshot();
    let row = IdleMixRow {
        idle,
        active,
        req_per_s: (active * per_client) as f64 / elapsed,
        connections_high_water: snap.connections_high_water,
    };
    drop(parked);
    server.shutdown();
    row
}

/// Median base64 encode and decode time, in µs per KiB of a seeded,
/// incompressible 256 KiB payload (one transfer chunk), each into a
/// cleared buffer reused across samples.
fn base64_kernel(iters: usize) -> (f64, f64) {
    const PAYLOAD_BYTES: usize = 256 * 1024;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let data: Vec<u8> = (0..PAYLOAD_BYTES)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect();
    let text = base64::encode(&data);
    assert_eq!(base64::decode(&text).as_deref(), Some(&data[..]));
    let kib = PAYLOAD_BYTES as f64 / 1024.0;
    let mut chars = String::with_capacity(text.len());
    let encode = median_us(iters, || {
        chars.clear();
        let mut enc = Base64Encoder::new();
        enc.update(std::hint::black_box(&data), &mut chars);
        enc.finish(&mut chars);
        std::hint::black_box(&chars);
    });
    let mut bytes = Vec::with_capacity(data.len());
    let decode = median_us(iters, || {
        bytes.clear();
        let mut dec = Base64Decoder::new();
        let decoded = dec.update(std::hint::black_box(&text), &mut bytes);
        std::hint::black_box((decoded, dec.finish(), &bytes));
    });
    assert_eq!((chars.as_str(), &bytes[..]), (text.as_str(), &data[..]));
    (encode / kib, decode / kib)
}

/// Pull the number after `"key":` out of a flat JSON document. Enough for
/// the baseline file this binary writes itself.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let tail = doc.get(at..)?.trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail.get(..end)?.parse().ok()
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
    let baseline_path = flag_value("--baseline");
    let assert_no_alloc = args.iter().any(|a| a == "--assert-no-alloc");

    let (micro_iters, per_client) = if quick { (300, 100) } else { (3000, 1500) };

    // --- Series 1: µs/envelope for the representative envelope ----------
    let env = representative_envelope();
    let xml = env.to_xml();

    if assert_no_alloc {
        // Dynamic cross-check of portalint's static hot-path-alloc gate.
        // The lint proves no allocation site (outside audited allows) is
        // reachable from the tokenizer (`Tokenizer::next_event`) or from
        // the serializers (`Envelope::write_xml_into`,
        // `SoapValue::write_xml`, `write_compact_into`,
        // `Request`/`Response::write_into`). Envelope parsing is no
        // longer an entry: it decodes RPC values into owned `SoapValue`s
        // by design. What both directions share is the escape/unescape
        // layer, so its owned-path counters must stay flat — identical
        // envelope batches must produce identical escape/unescape
        // allocate counts, at the borrow-path rate the zero-copy rework
        // pinned.
        for _ in 0..10 {
            std::hint::black_box(Envelope::parse(&xml).expect("parse"));
            std::hint::black_box(env.to_xml());
        }
        let iters = 200u64;
        let run_batch = || {
            let before = portalws_xml::stats::snapshot();
            for _ in 0..iters {
                std::hint::black_box(Envelope::parse(&xml).expect("parse"));
                std::hint::black_box(env.to_xml());
            }
            portalws_xml::stats::snapshot().since(&before)
        };
        let first = run_batch();
        let second = run_batch();
        println!(
            "E11 --assert-no-alloc: per {iters} envelopes — escape_owned {}→{}, unescape_owned {}→{}, escape-fast {:.3}, unescape-fast {:.3}",
            first.escape_owned,
            second.escape_owned,
            first.unescape_owned,
            second.unescape_owned,
            second.escape_fast_path_rate(),
            second.unescape_fast_path_rate(),
        );
        assert_eq!(
            (second.escape_owned, second.unescape_owned),
            (first.escape_owned, first.unescape_owned),
            "substrate allocate-rate changed between identical batches: a data-dependent allocation is hiding on the hot path"
        );
        assert_eq!(
            (second.escape_owned, second.unescape_owned),
            (0, 0),
            "representative envelope took an owned escape/unescape path: the static hot-path-alloc result (0 unsuppressed) no longer matches runtime"
        );
        println!(
            "E11 --assert-no-alloc: OK (owned-path rate 0 per envelope, matching the static gate)"
        );
        return;
    }
    let parse_us = median_us(micro_iters, || {
        let parsed = Envelope::parse(&xml).expect("parse");
        std::hint::black_box(parsed);
    });
    let serialize_us = median_us(micro_iters, || {
        std::hint::black_box(env.to_xml());
    });

    let (b64_encode_us_per_kib, b64_decode_us_per_kib) =
        base64_kernel(if quick { 40 } else { 200 });

    println!("E11 — substrate throughput (envelope: {} bytes)", xml.len());
    println!("  parse:     {parse_us:>8.2} µs/envelope");
    println!("  serialize: {serialize_us:>8.2} µs/envelope");
    let b64_kernel = base64::kernel();
    println!("  base64 encode: {b64_encode_us_per_kib:>6.3} µs/KiB (256 KiB payload, {b64_kernel} kernel)");
    println!("  base64 decode: {b64_decode_us_per_kib:>6.3} µs/KiB (256 KiB payload, {b64_kernel} kernel)");

    // --- Series 2: closed-loop req/s vs worker count, per arm ------------
    println!(
        "\n  arm        workers   req/s   scratch-growths   high-water   escape-fast   unescape-fast"
    );
    let mut rows = Vec::new();
    for arm in ["blocking", "reactor"] {
        for workers in [1usize, 2, 4, 8] {
            let row = throughput(arm, workers, per_client);
            println!(
                "  {:<9}  {:>7}   {:>7.0}   {:>15}   {:>10}   {:>10.3}   {:>12.3}",
                row.arm,
                row.workers,
                row.req_per_s,
                row.scratch_growths,
                row.scratch_high_water,
                row.escape_fast_path_rate,
                row.unescape_fast_path_rate,
            );
            rows.push(row);
        }
    }

    // --- Series 3: req/s vs idle keep-alive connections (reactor only) ---
    // The blocking arm cannot run this axis: its workers would pin on the
    // idle herd and the active clients would never be served.
    let idle_counts: &[usize] = if quick { &[100] } else { &[100, 1000] };
    println!("\n  idle-conns   active   req/s   conn-high-water   (1 reactor worker)");
    let mut idle_rows = Vec::new();
    for &idle in idle_counts {
        let row = idle_mix(idle, 4, per_client);
        println!(
            "  {:>10}   {:>6}   {:>7.0}   {:>15}",
            row.idle, row.active, row.req_per_s, row.connections_high_water,
        );
        idle_rows.push(row);
    }

    // --- JSON artifact ----------------------------------------------------
    if let Some(path) = json_path {
        let mut doc = String::new();
        doc.push_str("{\n");
        doc.push_str(&format!("  \"envelope_bytes\": {},\n", xml.len()));
        doc.push_str(&format!("  \"parse_us\": {parse_us:.3},\n"));
        doc.push_str(&format!("  \"serialize_us\": {serialize_us:.3},\n"));
        doc.push_str(&format!(
            "  \"b64_encode_us_per_kib\": {b64_encode_us_per_kib:.3},\n"
        ));
        doc.push_str(&format!(
            "  \"b64_decode_us_per_kib\": {b64_decode_us_per_kib:.3},\n"
        ));
        doc.push_str(&format!("  \"b64_kernel\": \"{b64_kernel}\",\n"));
        doc.push_str("  \"throughput\": [\n");
        for (i, row) in rows.iter().enumerate() {
            doc.push_str(&format!(
                "    {{\"arm\": \"{}\", \"workers\": {}, \"req_per_s\": {:.1}, \"scratch_growths\": {}, \"scratch_high_water\": {}, \"escape_fast_path_rate\": {:.4}, \"unescape_fast_path_rate\": {:.4}}}{}\n",
                row.arm,
                row.workers,
                row.req_per_s,
                row.scratch_growths,
                row.scratch_high_water,
                row.escape_fast_path_rate,
                row.unescape_fast_path_rate,
                if i + 1 < rows.len() { "," } else { "" },
            ));
        }
        doc.push_str("  ],\n");
        doc.push_str("  \"idle_mix\": [\n");
        for (i, row) in idle_rows.iter().enumerate() {
            doc.push_str(&format!(
                "    {{\"idle\": {}, \"active\": {}, \"req_per_s\": {:.1}, \"connections_high_water\": {}}}{}\n",
                row.idle,
                row.active,
                row.req_per_s,
                row.connections_high_water,
                if i + 1 < idle_rows.len() { "," } else { "" },
            ));
        }
        doc.push_str("  ]\n}\n");
        std::fs::write(&path, doc).expect("write json");
        println!("\nwrote {path}");
    }

    // --- Baseline gate ----------------------------------------------------
    if let Some(path) = baseline_path {
        let doc = std::fs::read_to_string(&path).expect("read baseline");
        let gates = [
            ("parse_us", parse_us, 2.0),
            ("b64_encode_us_per_kib", b64_encode_us_per_kib, 3.0),
            ("b64_decode_us_per_kib", b64_decode_us_per_kib, 3.0),
        ];
        let mut failed = false;
        for (key, current, bound) in gates {
            let base = json_number(&doc, key).unwrap_or_else(|| panic!("baseline {key}"));
            println!("baseline {key}: {base:.3}, current: {current:.3} (gate {bound}x)");
            if current > bound * base {
                eprintln!("FAIL: {key} regressed >{bound}x ({current:.3} vs baseline {base:.3})");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("baseline gates passed");
    }
}
