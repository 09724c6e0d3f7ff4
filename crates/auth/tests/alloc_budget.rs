//! Allocation budget for one guarded call under central verification.
//!
//! The Figure 2 path, all in memory and on the calling thread: the
//! client's header supplier mints and writes an assertion, the call goes
//! through `InMemoryTransport` (framed, so HTTP bytes are written and
//! re-read) to an SSP whose `remote_guard` forwards the assertion entry to
//! the Authentication Service over a second in-memory transport, which
//! reads and verifies it. A counting global allocator, scoped to this test
//! binary, counts the allocations of one warm call on this thread.
//!
//! The budget is about 1.2× the figure measured (in a debug build, as
//! `cargo test` runs) when it was set; the figure for the same call on
//! the code before it, which built the assertion as a tree four times per
//! call, is recorded beside it. If a tree comes back onto this path, the
//! budget fails.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use portalws_auth::{guard, AuthService, AuthSoapFacade, UserSession};
use portalws_gridsim::clock::SimClock;
use portalws_gridsim::cred::Mechanism;
use portalws_soap::{
    CallContext, MethodDesc, SoapClient, SoapResult, SoapServer, SoapService, SoapType, SoapValue,
};
use portalws_wire::{Handler, InMemoryTransport};

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

/// `ping` → `"pong"`: the guard is the whole cost.
struct Ping;

impl SoapService for Ping {
    fn name(&self) -> &str {
        "Ping"
    }
    fn invoke(
        &self,
        _method: &str,
        _args: &[(String, SoapValue)],
        _ctx: &CallContext,
    ) -> SoapResult<SoapValue> {
        Ok(SoapValue::str("pong"))
    }
    fn methods(&self) -> Vec<MethodDesc> {
        vec![MethodDesc::new("ping", vec![], SoapType::String, "Ping")]
    }
}

#[test]
fn one_guarded_call_through_the_verify_hop() {
    // Measured 194 with each in-memory hop reparsing its frames in place
    // (220 with a reader and a copy per frame); the code that built the
    // assertion as a tree took 338.
    const BUDGET: u64 = 233;
    let auth = AuthService::new(SimClock::new());
    auth.register_user("alice@GCE.ORG", "pw");
    let auth_server = SoapServer::new();
    auth_server.mount(Arc::new(AuthSoapFacade(Arc::clone(&auth))));
    let auth_handler: Arc<dyn Handler> = Arc::new(auth_server);
    let auth_client = Arc::new(SoapClient::new(
        Arc::new(InMemoryTransport::new(auth_handler)),
        "Authentication",
    ));
    let ssp = SoapServer::new();
    ssp.mount(Arc::new(Ping));
    ssp.set_guard(guard::remote_guard(auth_client));
    let ssp_handler: Arc<dyn Handler> = Arc::new(ssp);
    let ping = SoapClient::new(Arc::new(InMemoryTransport::new(ssp_handler)), "Ping");
    let gss = auth
        .login("alice@GCE.ORG", "pw", Mechanism::Kerberos)
        .unwrap();
    let session = UserSession::new(gss, Arc::clone(auth.clock()));
    ping.set_header_supplier(session.header_supplier());
    for _ in 0..3 {
        assert_eq!(ping.call("ping", &[]).unwrap(), SoapValue::str("pong"));
    }
    let before = allocs();
    let out = ping.call("ping", &[]);
    let n = allocs() - before;
    assert_eq!(out.unwrap(), SoapValue::str("pong"));
    assert_eq!(
        auth.verification_count(),
        4,
        "every call took the verify hop"
    );
    assert!(
        n <= BUDGET,
        "guarded call: {n} allocations, budget {BUDGET}"
    );
}
