//! Allocations of `RequestParser::try_next` while a body is arriving.
//!
//! A counting global allocator, scoped to this test binary, counts the
//! allocations made on the current thread. Once a request's head is
//! complete, the parser keeps it parsed, so each `try_next` that waits for
//! more of the body allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use portalws_wire::{Request, RequestParser};

/// Counts allocation calls (a `realloc` is one) on the current thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn record() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
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
fn waiting_for_the_body_allocates_nothing() {
    let body = "x".repeat(256 * 1024);
    let req = Request::post("/soap/DataManagement", body)
        .with_header("Content-Type", "text/xml; charset=utf-8")
        .with_header("SOAPAction", "urn:DataManagement#put_chunk")
        .with_header("Connection", "keep-alive");
    let bytes = req.to_bytes();
    let head_len = bytes.len() - req.body.len();
    let mut parser = RequestParser::new();
    // The head and the first bytes of the body, as a first read brings.
    parser.feed(&bytes[..head_len + 10]);
    assert!(parser.try_next().unwrap().is_none());
    let mut waits = 0;
    let mut fed = head_len + 10;
    while fed < bytes.len() {
        let next = (fed + 64 * 1024).min(bytes.len());
        parser.feed(&bytes[fed..next]);
        fed = next;
        if fed == bytes.len() {
            break;
        }
        let before = allocs();
        assert!(parser.try_next().unwrap().is_none());
        assert_eq!(allocs() - before, 0, "a wait for the body allocated");
        waits += 1;
    }
    assert_eq!(waits, 3, "three of four 64 KiB reads leave the body short");
    let got = parser.try_next().unwrap().expect("body complete");
    assert_eq!(got.header("SOAPAction"), req.header("SOAPAction"));
    assert!(got.body == req.body, "body read intact");
    assert!(parser.is_empty());
}
