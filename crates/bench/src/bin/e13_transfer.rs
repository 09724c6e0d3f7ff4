//! E13 — chunked streaming data path: bounded-memory, pipelined SRB
//! transfer over the pooled wire, against the single-envelope 2002 path.
//!
//! Three arms per file size, all through a real TCP `HttpServer` with a
//! pooled keep-alive client:
//!
//! 1. **string** — the paper's `put`/`get` string round trip: the whole
//!    file travels as one SOAP envelope, so peak buffering is the file
//!    size and the wire frame cap (`MAX_BODY_BYTES`) is a hard ceiling.
//! 2. **base64** — `putB64`/`getB64`: same single envelope, ~4/3 the
//!    bytes on the wire, same linear buffering and the same ceiling.
//! 3. **chunked** — the E13 transfer protocol (`open_put`/`put_chunk`/
//!    `commit`, `open_get`/`get_chunk`), pipelined by [`TransferClient`]
//!    with a bounded in-flight window, swept over chunk size × window.
//!
//! For each run we record MiB/s per direction and the peak per-transfer
//! buffering: the materialized payload for the single-envelope arms
//! (linear in file size), the client resident high-water plus the
//! server reorder-buffer high-water for the chunked arm (bounded by
//! window × chunk by construction). An arm whose envelope exceeds the
//! frame cap records 0 MiB/s — that is the measurement, not an error.
//!
//! ```sh
//! cargo run -p portalws-bench --release --bin e13_transfer -- \
//!     [--quick] [--json PATH]
//! ```
//!
//! Exits nonzero if any chunked run's peak buffering exceeds
//! (window + 1) × chunk — the bounded-memory claim is the gate.

use std::sync::Arc;
use std::time::Instant;

use portalws_bench::{Flags, Gates, Json};
use portalws_core::{TransferClient, TransferConfig};
use portalws_gridsim::Srb;
use portalws_services::DataManagementService;
use portalws_soap::{SoapClient, SoapValue};
use portalws_wire::{Handler, HttpServer, PooledTransport, ServerConfig, ServerHandle};

const MIB: usize = 1024 * 1024;

/// One measured transfer.
struct Row {
    arm: String,
    size: usize,
    /// 0 for the single-envelope arms (no chunking).
    chunk: usize,
    /// 0 for the single-envelope arms (no pipelining).
    window: usize,
    put_mib_s: f64,
    get_mib_s: f64,
    /// Peak bytes buffered for one transfer, client + server.
    peak_buffer: usize,
    /// Chunk round trips for the chunked arm (0 otherwise).
    chunks: usize,
}

/// A payload that is valid UTF-8, XML-inert, and incompressible enough
/// to be honest: repeated 64-byte lines with a rolling counter.
fn payload(size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(size);
    let mut i = 0usize;
    while out.len() < size {
        let line = format!("{i:08x} the quick brown fox jumps over the lazy dog 0123456789a\n");
        let take = line.len().min(size - out.len());
        out.extend_from_slice(&line.as_bytes()[..take]);
        i = i.wrapping_add(1);
    }
    out
}

struct Rig {
    srb: Arc<Srb>,
    data: Arc<DataManagementService>,
    server: ServerHandle,
    client: SoapClient,
}

fn rig() -> Rig {
    let srb = Arc::new(Srb::new());
    srb.mkdir("/data").expect("mkdir /data");
    let data = Arc::new(DataManagementService::new(Arc::clone(&srb)));
    let server = portalws_soap::SoapServer::new();
    server.mount(Arc::clone(&data) as Arc<dyn portalws_soap::SoapService>);
    let handler: Arc<dyn Handler> = Arc::new(server);
    let server = HttpServer::start("127.0.0.1:0", handler, ServerConfig::with_workers(8), None)
        .expect("bind");
    let client = SoapClient::new(
        Arc::new(PooledTransport::new(server.addr())),
        "DataManagement",
    );
    Rig {
        srb,
        data,
        server,
        client,
    }
}

/// Single-envelope arm: one `put`-flavored call up, one `get`-flavored
/// call down. Returns MiB/s per direction; a frame-cap rejection (or
/// any other failure) measures as 0.
fn single_envelope(rig: &Rig, arm: &str, body: &[u8]) -> Row {
    let size = body.len();
    let up_path = format!("/data/up-{arm}-{size}");
    let down_path = format!("/data/down-{arm}-{size}");
    rig.srb
        .put("anonymous", &down_path, body)
        .expect("seed download object");

    let (put_method, put_args): (&str, Vec<SoapValue>) = match arm {
        "string" => (
            "put",
            vec![
                SoapValue::str(&up_path),
                SoapValue::String(String::from_utf8(body.to_vec()).expect("utf8 payload")),
            ],
        ),
        _ => (
            "putB64",
            vec![SoapValue::str(&up_path), SoapValue::Base64(body.to_vec())],
        ),
    };
    let t0 = Instant::now();
    let put_ok = rig.client.call(put_method, &put_args).is_ok();
    let put_s = t0.elapsed().as_secs_f64();

    let get_method = if arm == "string" { "get" } else { "getB64" };
    let t0 = Instant::now();
    let get_ok = rig
        .client
        .call(get_method, &[SoapValue::str(&down_path)])
        .is_ok();
    let get_s = t0.elapsed().as_secs_f64();

    let mib = size as f64 / MIB as f64;
    Row {
        arm: arm.to_owned(),
        size,
        chunk: 0,
        window: 0,
        put_mib_s: if put_ok { mib / put_s } else { 0.0 },
        get_mib_s: if get_ok { mib / get_s } else { 0.0 },
        // The whole payload is materialized at once on both ends; base64
        // expands 4/3 on the wire. Linear in file size by definition.
        peak_buffer: if arm == "string" { size } else { size * 4 / 3 },
        chunks: 0,
    }
}

/// Chunked arm: a pipelined put then a pipelined get through the
/// transfer protocol. Peak buffering is measured, not assumed: client
/// resident high-water from the [`TransferClient`] report, server
/// reorder-buffer high-water from the transfer table.
fn chunked(rig: &Rig, body: &[u8], chunk: usize, window: usize) -> Row {
    let size = body.len();
    let path = format!("/data/chunked-{size}-{chunk}-{window}");
    let cfg = TransferConfig {
        chunk_bytes: chunk,
        window,
        ..TransferConfig::default()
    };
    let tc = TransferClient::with_config(&rig.client, cfg);

    let t0 = Instant::now();
    let put_report = tc.put(&path, body).expect("chunked put");
    let put_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let (back, get_report) = tc.get(&path).expect("chunked get");
    let get_s = t0.elapsed().as_secs_f64();
    assert_eq!(back, body, "chunked round trip must be lossless");

    // The rig has one shard, so this sum is its own high-water.
    let server_high: usize = (rig.data.shards().iter())
        .map(|s| s.transfers().buffered_high_water())
        .sum();
    let client_high = put_report
        .buffer_high_water
        .max(get_report.buffer_high_water);
    let mib = size as f64 / MIB as f64;
    Row {
        arm: "chunked".into(),
        size,
        chunk,
        window,
        put_mib_s: mib / put_s,
        get_mib_s: mib / get_s,
        peak_buffer: client_high.max(server_high),
        chunks: put_report.chunks + get_report.chunks,
    }
}

fn main() {
    let flags = Flags::from_env(&["--quick"], &["--json"]);
    let quick = flags.has("--quick");

    // 64 MiB is always in the sweep: it is the point past the wire frame
    // cap where the single-envelope arms stop working at all, which is
    // the headline comparison.
    let sizes: &[usize] = if quick {
        &[MIB, 64 * MIB]
    } else {
        &[MIB, 4 * MIB, 16 * MIB, 64 * MIB]
    };
    let chunks: &[usize] = if quick {
        &[256 * 1024]
    } else {
        &[256 * 1024, MIB]
    };
    let windows: &[usize] = &[2, 4];

    println!("E13 — chunked streaming vs single-envelope transfer (pooled TCP)");
    println!(
        "\n  {:<8} {:>8} {:>9} {:>7} {:>10} {:>10} {:>13} {:>7}",
        "arm", "size", "chunk", "window", "put MiB/s", "get MiB/s", "peak buffer", "chunks"
    );

    let print_row = |row: &Row| {
        println!(
            "  {:<8} {:>8} {:>9} {:>7} {:>10.1} {:>10.1} {:>13} {:>7}",
            row.arm,
            row.size,
            row.chunk,
            row.window,
            row.put_mib_s,
            row.get_mib_s,
            row.peak_buffer,
            row.chunks,
        );
    };

    let mut rows: Vec<Row> = Vec::new();
    for &size in sizes {
        let body = payload(size);
        let r = rig();
        for arm in ["string", "base64"] {
            let row = single_envelope(&r, arm, &body);
            print_row(&row);
            rows.push(row);
        }
        r.server.shutdown();
        for &chunk in chunks {
            for &window in windows {
                // A fresh rig per run so the server-side buffering
                // high-water is attributable to this one transfer.
                let r = rig();
                let row = chunked(&r, &body, chunk, window);
                print_row(&row);
                rows.push(row);
                r.server.shutdown();
            }
        }
    }

    // --- The bounded-memory gate -----------------------------------------
    // Client residency is bounded by window × chunk by construction, and
    // the server reorder buffer can hold at most the in-flight window.
    // Allow one chunk of slack for the frontier chunk being appended.
    let mut gates = Gates::default();
    for row in rows.iter().filter(|r| r.arm == "chunked") {
        let bound = (row.window + 1) * row.chunk;
        gates.check(
            row.peak_buffer <= bound,
            format!(
                "chunked {} MiB (chunk {}, window {}): peak buffer {} > bound {}",
                row.size / MIB,
                row.chunk,
                row.window,
                row.peak_buffer,
                bound
            ),
        );
    }

    // Headline comparison at the largest size: the chunked path must beat
    // the single-envelope base64 arm (which scores 0 past the frame cap).
    let top = *sizes.last().expect("sizes nonempty");
    let best_chunked = rows
        .iter()
        .filter(|r| r.arm == "chunked" && r.size == top)
        .map(|r| r.put_mib_s.min(r.get_mib_s))
        .fold(0.0f64, f64::max);
    let b64 = rows
        .iter()
        .find(|r| r.arm == "base64" && r.size == top)
        .map(|r| r.put_mib_s.min(r.get_mib_s))
        .unwrap_or(0.0);
    println!(
        "\n  at {} MiB: chunked {best_chunked:.1} MiB/s vs single-envelope base64 {b64:.1} MiB/s",
        top / MIB
    );
    gates.check(
        best_chunked > b64,
        format!(
            "chunked ({best_chunked:.1} MiB/s) did not beat single-envelope base64 ({b64:.1} MiB/s) at {} MiB",
            top / MIB
        ),
    );

    if let Some(path) = flags.value("--json") {
        let rows = rows.iter().map(|row| {
            Json::obj()
                .with("arm", row.arm.as_str())
                .with("size", row.size)
                .with("chunk", row.chunk)
                .with("window", row.window)
                .with("put_mib_s", Json::num(row.put_mib_s, 2))
                .with("get_mib_s", Json::num(row.get_mib_s, 2))
                .with("peak_buffer", row.peak_buffer)
                .with("chunks", row.chunks)
        });
        Json::obj()
            .with("rows", rows.collect::<Vec<_>>())
            .write_to(path);
    }

    gates.finish("bounded-memory gate passed: chunked peak ≤ (window + 1) × chunk");
}
