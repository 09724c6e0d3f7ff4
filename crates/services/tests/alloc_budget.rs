//! Allocation budget for one `xml_call` listing, client to server and back.
//!
//! `SoapClient` → `InMemoryTransport` (framed: each HTTP head is written
//! and re-read, and each body handed over) → `SoapServer` →
//! `DataManagementService`, all on the
//! calling thread: one warm `xml_call` whose single `ls` lists a
//! collection of 128 objects, as each `write_churn` batch does. A
//! counting global allocator, scoped to this test binary, counts the
//! allocations of that one call. The budget fails the build if a listing
//! entry goes back to owning its names and values, on the server that
//! builds it or on the client that parses it.
//!
//! The budget is about 1.2× the figure measured (in a debug build, as
//! `cargo test` runs) when it was set; the figure for the same call on
//! the code it replaced is recorded beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use portalws_gridsim::srb::Srb;
use portalws_services::DataManagementService;
use portalws_soap::{SoapClient, SoapServer, SoapValue};
use portalws_wire::{Handler, InMemoryTransport};
use portalws_xml::Element;

/// Counts allocation calls (a `realloc` is one) on the current thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn record() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialized thread-local `Cell`, which touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

#[test]
fn list_a_collection_of_128_objects() {
    // Measured 343: about one attribute vector per entry where the
    // server builds it and one where the client parses it, and the reply's
    // generation stamp, written into one buffer sized once and read back
    // through `text()` (344 with the stamp formatted through `to_string`,
    // 337 before replies carried it). With each name cloned out of the
    // broker and every name and value of the result tree its own
    // `String`, the same call took 2,149.
    const BUDGET: u64 = 405;
    let srb = Arc::new(Srb::new());
    srb.mkdir("/data").unwrap();
    srb.mkdir("/data/c0").unwrap();
    for k in 0..128u32 {
        let path = format!("/data/c0/s{k}-{:08x}", k.wrapping_mul(2_654_435_761));
        srb.put("anonymous", &path, &[b'x'; 64]).unwrap();
    }
    let server = SoapServer::new();
    server.mount(Arc::new(DataManagementService::new(srb)));
    let handler: Arc<dyn Handler> = Arc::new(server);
    let client = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "DataManagement");
    let request =
        Element::new("request").with_child(Element::new("ls").with_attr("collection", "/data/c0"));
    let args = [SoapValue::Xml(request)];
    let listed = |out: &SoapValue| {
        let ls = out.as_xml().and_then(|response| response.children().next());
        ls.map_or(0, |ls| ls.children().count())
    };
    for _ in 0..3 {
        assert_eq!(listed(&client.call("xml_call", &args).unwrap()), 128);
    }
    let before = ALLOCS.with(Cell::get);
    let out = client.call("xml_call", &args).unwrap();
    let n = ALLOCS.with(Cell::get) - before;
    assert_eq!(listed(&out), 128);
    assert!(n <= BUDGET, "listing: {n} allocations, budget {BUDGET}");
}
