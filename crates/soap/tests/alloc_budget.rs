//! Allocation budget for one SOAP call, client to server and back.
//!
//! `SoapClient` → `InMemoryTransport` (framed, so HTTP bytes are written
//! and re-read) → `SoapServer`, with a header supplier on the client and
//! a guard on the server, all on the calling thread. A counting global
//! allocator, scoped to this test binary, counts the allocations of one
//! warm call per thread and sums the bytes they ask for. A budget fails
//! the build if a body DOM or a deep copy of a value comes back on the
//! call path, or a chunk-sized payload is copied once more than it must
//! be.
//!
//! Each budget is about 1.2× the figure measured when it was set; the
//! figure for the same call on the code it replaced is recorded beside
//! it, and every budget sits below it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use portalws_soap::{
    CallContext, Envelope, Fault, MethodDesc, PortalErrorKind, SoapClient, SoapResult, SoapServer,
    SoapService, SoapType, SoapValue,
};
use portalws_wire::{Handler, InMemoryTransport};
use portalws_xml::Element;

/// Counts allocation calls (a `realloc` is one) on the current thread,
/// and sums the bytes they ask for (a `realloc`'s new size).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Allocations and bytes asked for so far on this thread.
fn counters() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// const-initialized thread-local `Cell`s, which touch no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// `add`, `echo` and `info` over typed values.
struct Calc;

impl SoapService for Calc {
    fn name(&self) -> &str {
        "Calc"
    }

    fn invoke(
        &self,
        method: &str,
        args: &[(String, SoapValue)],
        _ctx: &CallContext,
    ) -> SoapResult<SoapValue> {
        match method {
            "add" => Ok(SoapValue::Int(
                args.iter().filter_map(|(_, v)| v.as_i64()).sum(),
            )),
            "echo" => Ok(args
                .first()
                .map(|(_, v)| v.clone())
                .unwrap_or(SoapValue::Null)),
            "info" => Ok(SoapValue::Struct(vec![
                ("host".into(), SoapValue::str("tg-login.sdsc.edu")),
                ("cpus".into(), SoapValue::Int(16)),
                ("load".into(), SoapValue::Double(0.75)),
                ("up".into(), SoapValue::Bool(true)),
                (
                    "queues".into(),
                    SoapValue::Array(vec![SoapValue::str("normal"), SoapValue::str("debug")]),
                ),
            ])),
            other => Err(Fault::client(format!("no method {other:?}"))),
        }
    }

    fn methods(&self) -> Vec<MethodDesc> {
        vec![
            MethodDesc::new(
                "add",
                vec![("a", SoapType::Int), ("b", SoapType::Int)],
                SoapType::Int,
                "Add",
            ),
            MethodDesc::new("echo", vec![("v", SoapType::Xml)], SoapType::Xml, "Echo"),
            MethodDesc::new("info", vec![], SoapType::Struct, "Host info"),
        ]
    }
}

fn client() -> SoapClient {
    let server = SoapServer::new();
    server.mount(Arc::new(Calc));
    server.set_guard(Arc::new(|ctx: &CallContext| match ctx.header("Token") {
        Some(_) => Ok(()),
        None => Err(Fault::portal(PortalErrorKind::AuthFailed, "no token")),
    }));
    let handler: Arc<dyn Handler> = Arc::new(server);
    let client = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "Calc");
    client.set_header_supplier(Arc::new(|| {
        vec![Element::new("Token")
            .with_attr("user", "alice@GCE.ORG")
            .with_text("t0k3n")]
    }));
    client
}

/// A job document of 49 elements.
fn jobs() -> Element {
    Element::new("jobs").with_children((0..12).map(|i| {
        Element::new("job")
            .with_attr("id", i.to_string())
            .with_text_child("host", "tg-login.sdsc.edu")
            .with_text_child("command", "/bin/date")
            .with_text_child("cpus", "4")
    }))
}

/// Allocations and bytes of one warm `method(args)` call on this thread.
fn measure(method: &str, args: &[SoapValue], want: &SoapValue) -> (u64, u64) {
    let client = client();
    for _ in 0..3 {
        assert_eq!(&client.call(method, args).unwrap(), want);
    }
    let (allocs, bytes) = counters();
    let out = client.call(method, args).unwrap();
    let (allocs_after, bytes_after) = counters();
    assert_eq!(&out, want);
    (allocs_after - allocs, bytes_after - bytes)
}

/// Allocations of one warm `method(args)` call on this thread.
fn allocations(method: &str, args: &[SoapValue], want: &SoapValue) -> u64 {
    measure(method, args, want).0
}

#[test]
fn add_two_ints() {
    // Measured 94 with this codec; the DOM codec took 156.
    const BUDGET: u64 = 112;
    let n = allocations(
        "add",
        &[SoapValue::Int(20), SoapValue::Int(22)],
        &SoapValue::Int(42),
    );
    assert!(n <= BUDGET, "add: {n} allocations, budget {BUDGET}");
}

#[test]
fn echo_a_fifty_element_document() {
    // Measured 773 with this codec; the DOM codec took 1,331.
    const BUDGET: u64 = 927;
    let doc = SoapValue::Xml(jobs());
    let n = allocations("echo", std::slice::from_ref(&doc), &doc);
    assert!(n <= BUDGET, "echo: {n} allocations, budget {BUDGET}");
}

#[test]
fn return_a_struct() {
    // Measured 112 with this codec; the DOM codec took 240.
    const BUDGET: u64 = 134;
    let client = client();
    let want = client.call("info", &[]).unwrap();
    let n = allocations("info", &[], &want);
    assert!(n <= BUDGET, "info: {n} allocations, budget {BUDGET}");
}

#[test]
fn echo_a_chunk_on_a_fresh_thread() {
    // A 256 KiB base64 echo with its argument moved into the envelope,
    // made on a fresh thread as the transfer client's window workers make
    // their chunk calls. Measured 2,907,281 bytes in 91 allocations; the
    // code before it asked for 4,220,074 in 99 (a second copy of the
    // argument, and a thread-local serialization scratch grown on first
    // use). The budget is 1.05×, not 1.2×: one more 256 KiB copy adds
    // 9 % to this call.
    const BUDGET: u64 = 3_050_000;
    let client = client();
    let payload = SoapValue::Base64((0..256 * 1024).map(|i| (i * 31 % 251) as u8).collect());
    for _ in 0..3 {
        assert_eq!(
            client.call("echo", std::slice::from_ref(&payload)).unwrap(),
            payload
        );
    }
    let (n, bytes) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let args = [payload.clone()];
                let (allocs, bytes) = counters();
                let out = client.call_envelope(Envelope::request("Calc", "echo", args));
                let (allocs_after, bytes_after) = counters();
                assert_eq!(out.unwrap(), payload);
                (allocs_after - allocs, bytes_after - bytes)
            })
            .join()
            .unwrap()
    });
    assert!(
        bytes <= BUDGET,
        "chunk echo: {bytes} bytes in {n} allocations, budget {BUDGET}"
    );
}
