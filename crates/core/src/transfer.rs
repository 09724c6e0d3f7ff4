//! Client side of the chunked streaming transfer protocol (E13).
//!
//! [`TransferClient`] decorates a bound `DataManagement` proxy and moves a
//! file as a *pipeline* of bounded chunk calls over the pooled keep-alive
//! transport: up to `window` chunk requests are in flight concurrently
//! across pooled connections, so the wire stays busy while the client's
//! resident transfer memory stays O(window × chunk) — never O(file), the
//! failure mode of the paper's single-envelope string streaming.
//!
//! The calling thread is one of the window's workers: it spawns `window − 1`
//! scoped helpers, and it and the helpers all run one claim → call →
//! deposit step. Between steps the caller hands the frontier chunk of a
//! download to the sink whenever it is ready, so the caller is the only
//! thread that calls the sink, in file order. A window-1 transfer thus
//! spawns no thread: every chunk call runs on the calling thread, with no
//! hand-off between threads per chunk. Helpers install the caller's
//! [`portalws_soap::deadline`] budget, so every chunk call carries it.
//!
//! The memory bound is enforced by construction, not measured after the
//! fact: a thread may only claim the next chunk while the claimed-but-
//! undelivered span is under `window × chunk_bytes`, and the high-water of
//! that span is reported per transfer (and into the transport's
//! [`portalws_wire::WireStats`]) so E13 can assert it.
//!
//! Resume semantics lean on the server's idempotent protocol: every chunk
//! method is marked idempotent (the pooled transport's retry policy
//! re-sends it after a transport fault), `get_chunk` is a pure ranged
//! read, a duplicate `put_chunk` is acknowledged without re-appending, and
//! a retried `commit`/`abort` of a settled handle succeeds. On top of
//! that, a small bounded per-chunk retry loop rides out fault bursts;
//! transport errors that exhaust it are surfaced through the canonical
//! [`Fault::from_wire`] taxonomy.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use portalws_soap::{deadline, Envelope, Fault, PortalErrorKind, SoapClient, SoapError, SoapValue};

/// Default chunk payload size.
pub const DEFAULT_CHUNK_BYTES: usize = 256 * 1024;

/// Default window of in-flight chunk requests.
pub const DEFAULT_WINDOW: usize = 4;

/// Default bound on attempts per chunk call (on top of the pooled
/// transport's own idempotent retries).
pub const DEFAULT_CHUNK_ATTEMPTS: usize = 8;

/// Most bytes [`TransferClient::get`] reserves up front for the size
/// `open_get` reports. The size comes from a peer, so it is only a hint:
/// the cap keeps a wrong one from becoming an arbitrary allocation. It is
/// the wire's cap on one frame's body.
const MAX_GET_RESERVE: usize = portalws_wire::MAX_BODY_BYTES;

/// The six protocol methods; all safe to re-send, so all are marked
/// idempotent on the proxy.
const TRANSFER_METHODS: [&str; 6] = [
    "open_get",
    "get_chunk",
    "open_put",
    "put_chunk",
    "commit",
    "abort",
];

/// Tunables for one transfer client.
#[derive(Debug, Clone, Copy)]
pub struct TransferConfig {
    /// Payload bytes per chunk call.
    pub chunk_bytes: usize,
    /// In-flight chunk requests allowed concurrently.
    pub window: usize,
    /// Attempts per chunk call before the transfer fails.
    pub chunk_attempts: usize,
}

impl Default for TransferConfig {
    fn default() -> TransferConfig {
        TransferConfig {
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            window: DEFAULT_WINDOW,
            chunk_attempts: DEFAULT_CHUNK_ATTEMPTS,
        }
    }
}

/// What one transfer did: the asserted numbers of E13.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransferReport {
    /// File-content bytes moved.
    pub bytes: usize,
    /// Chunk round-trips performed.
    pub chunks: usize,
    /// Peak resident transfer memory on this client (bytes claimed but
    /// not yet delivered/acknowledged). Bounded by window × chunk_bytes.
    pub buffer_high_water: usize,
}

/// Streaming transfer client over a bound `DataManagement` proxy.
pub struct TransferClient<'a> {
    client: &'a SoapClient,
    cfg: TransferConfig,
}

/// The claim bookkeeping one transfer's threads share.
#[derive(Default)]
struct Window {
    /// Next byte offset a thread may claim.
    next_claim: usize,
    /// A get's bytes delivered to the sink, in order; a put's highest
    /// append frontier the server has acknowledged. Claims stay below it
    /// plus `window × chunk_bytes`.
    frontier: usize,
    /// A get's fetched chunks, waiting for the frontier to reach them.
    done: BTreeMap<usize, Vec<u8>>,
    /// Claimed bytes not yet delivered (a get: in flight or parked in
    /// `done`) or acknowledged (a put: chunk copies in flight).
    resident: usize,
    high_water: usize,
    chunks: usize,
    failed: Option<SoapError>,
}

/// What a finished chunk call leaves in the window.
enum Landed {
    /// A get's chunk, parked until the frontier reaches it.
    Fetched(Vec<u8>),
    /// A put's acknowledged append frontier.
    Acked(usize),
}

impl Window {
    fn deposit(&mut self, off: usize, len: usize, landed: Result<Landed, SoapError>) {
        match landed {
            Ok(Landed::Fetched(data)) => {
                self.done.insert(off, data);
            }
            Ok(Landed::Acked(acked)) => {
                self.frontier = self.frontier.max(acked);
                self.resident -= len;
            }
            Err(e) => {
                self.failed.get_or_insert(e);
                return;
            }
        }
        self.chunks += 1;
    }
}

/// The chunk calls of one transfer, shared by the calling thread and its
/// helpers. `call(off, len)` makes one chunk's call.
struct Pipeline<C> {
    state: Mutex<Window>,
    cv: Condvar,
    size: usize,
    chunk: usize,
    /// `window × chunk`: how far claims may run ahead of the frontier.
    budget: usize,
    call: C,
}

impl<C> Pipeline<C>
where
    C: Fn(usize, usize) -> Result<Landed, SoapError> + Sync,
{
    fn lock(&self) -> MutexGuard<'_, Window> {
        self.state.lock().expect("transfer lock")
    }

    /// The step every thread of the transfer runs: claim the next chunk
    /// if the window has room, make its call with the lock released, and
    /// deposit the reply. Returns the state relocked, and whether a chunk
    /// was claimed. Claims are contiguous, so the lowest claimed chunk is
    /// always the frontier chunk, and its completion re-opens the window.
    fn step<'s>(&'s self, mut st: MutexGuard<'s, Window>) -> (MutexGuard<'s, Window>, bool) {
        if st.failed.is_some()
            || st.next_claim >= self.size
            || st.next_claim >= st.frontier.saturating_add(self.budget)
        {
            return (st, false);
        }
        let off = st.next_claim;
        let len = self.chunk.min(self.size - off);
        st.next_claim += len;
        st.resident += len;
        st.high_water = st.high_water.max(st.resident);
        drop(st);
        let landed = (self.call)(off, len);
        let mut st = self.lock();
        st.deposit(off, len, landed);
        self.cv.notify_all();
        (st, true)
    }

    /// A helper thread: steps until nothing is left to claim, waiting
    /// while the window is full.
    fn help(&self) {
        let mut st = self.lock();
        while st.failed.is_none() && st.next_claim < self.size {
            let (next, stepped) = self.step(st);
            st = if stepped {
                next
            } else {
                self.cv.wait(next).expect("transfer lock")
            };
        }
    }

    /// The calling thread: hands the frontier chunk to `sink` whenever it
    /// is ready, steps like a helper otherwise, and waits only while
    /// helpers hold every claimable chunk. Returns once every claimed
    /// byte is delivered or acknowledged, or the transfer has failed.
    fn drive(&self, mut sink: impl FnMut(&[u8])) {
        let mut st = self.lock();
        loop {
            if st.failed.is_some() || (st.next_claim >= self.size && st.resident == 0) {
                return;
            }
            let frontier = st.frontier;
            if let Some(data) = st.done.remove(&frontier) {
                drop(st);
                sink(&data);
                st = self.lock();
                st.frontier += data.len();
                st.resident -= data.len();
                self.cv.notify_all();
                continue;
            }
            let (next, stepped) = self.step(st);
            st = next;
            if stepped {
                continue;
            }
            if st.resident == 0 {
                // Nothing in flight, yet the window is full: the server
                // acknowledged less than it was sent, and no reply will
                // move the frontier.
                st.failed = Some(SoapError::Protocol(format!(
                    "put_chunk acknowledged {} of {} bytes sent",
                    st.frontier, st.next_claim
                )));
                self.cv.notify_all();
                return;
            }
            st = self.cv.wait(st).expect("transfer lock");
        }
    }
}

impl<'a> TransferClient<'a> {
    /// Wrap a proxy with default tunables.
    pub fn new(client: &'a SoapClient) -> TransferClient<'a> {
        TransferClient::with_config(client, TransferConfig::default())
    }

    /// Wrap a proxy with explicit tunables. Marks the protocol methods
    /// idempotent on the proxy (additively) so the pooled transport's
    /// retry policy covers every chunk call.
    pub fn with_config(client: &'a SoapClient, cfg: TransferConfig) -> TransferClient<'a> {
        client.add_idempotent_methods(&TRANSFER_METHODS);
        TransferClient { client, cfg }
    }

    /// Is this failure worth retrying on an idempotent method? Transport
    /// errors and garbled replies (`Protocol`/`Xml`) are wire damage;
    /// *untyped* faults are a corrupted request the server could only
    /// answer with a generic parse fault; `Busy`, `AuthFailed`, and
    /// `HostUnavailable` are transient infrastructure answers (capacity
    /// pressure, an auth-verification hop that lost its own connection).
    /// Every other typed fault is a real protocol answer — fail fast.
    fn transient(err: &SoapError) -> bool {
        match err {
            SoapError::Transport(_) | SoapError::Protocol(_) | SoapError::Xml(_) => true,
            SoapError::Fault(f) => matches!(
                f.kind(),
                None | Some(PortalErrorKind::Busy)
                    | Some(PortalErrorKind::AuthFailed)
                    | Some(PortalErrorKind::HostUnavailable)
            ),
        }
    }

    /// One protocol call with a bounded retry loop over transient
    /// failures (every transfer method is idempotent by design). A
    /// transport error that survives the loop is folded through the
    /// canonical wire→fault table so callers always see the portal's
    /// typed taxonomy. `args` builds each attempt's arguments, which move
    /// into its envelope: a chunk payload is copied once per attempt,
    /// straight from the caller's slice.
    fn call_retry<A>(&self, method: &str, args: impl Fn() -> A) -> Result<SoapValue, SoapError>
    where
        A: IntoIterator<Item = SoapValue>,
    {
        let attempts = self.cfg.chunk_attempts.max(1);
        let mut attempt = 0;
        loop {
            let request = Envelope::request(self.client.service(), method, args());
            match self.client.call_envelope(request) {
                Err(e) if Self::transient(&e) => {
                    attempt += 1;
                    if attempt >= attempts {
                        return Err(match e {
                            SoapError::Transport(w) => SoapError::Fault(Fault::from_wire(&w)),
                            other => other,
                        });
                    }
                    // Deterministic linear backoff; the pooled transport
                    // already jitters its own idempotent retries.
                    std::thread::sleep(Duration::from_millis((attempt as u64).min(8)));
                }
                other => return other,
            }
        }
    }

    /// Download `path` into memory. See [`TransferClient::get_with`]. The
    /// output is reserved once for the size `open_get` reports, up to the
    /// wire's 64 MiB body cap ([`portalws_wire::MAX_BODY_BYTES`]); a file
    /// larger than that grows it past the cap.
    pub fn get(&self, path: &str) -> Result<(Vec<u8>, TransferReport), SoapError> {
        let (handle, size) = self.open_get(path)?;
        let mut out = Vec::with_capacity(size.min(MAX_GET_RESERVE));
        let report = self.read_open(handle, size, |chunk| out.extend_from_slice(chunk))?;
        Ok((out, report))
    }

    /// Stream `path` to `sink` in order, with up to `window` chunk reads
    /// in flight. The sink sees each byte exactly once, in file order, and
    /// is only ever called on the calling thread.
    pub fn get_with(
        &self,
        path: &str,
        sink: impl FnMut(&[u8]),
    ) -> Result<TransferReport, SoapError> {
        let (handle, size) = self.open_get(path)?;
        self.read_open(handle, size, sink)
    }

    /// Open `path` for reading: its read handle and the size the server
    /// reports.
    fn open_get(&self, path: &str) -> Result<(String, usize), SoapError> {
        let opened = self.call_retry("open_get", || [SoapValue::str(path)])?;
        let handle = opened
            .field("handle")
            .and_then(|v| v.as_str())
            .ok_or_else(|| SoapError::Protocol("open_get reply missing handle".into()))?
            .to_owned();
        let size = opened
            .field("size")
            .and_then(|v| v.as_i64())
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| SoapError::Protocol("open_get reply missing size".into()))?;
        Ok((handle, size))
    }

    /// Read the `size` bytes of the file open under `handle` into `sink`,
    /// then release the handle.
    fn read_open(
        &self,
        handle: String,
        size: usize,
        sink: impl FnMut(&[u8]),
    ) -> Result<TransferReport, SoapError> {
        let fetch = |off: usize, len: usize| {
            let fetched = self.call_retry("get_chunk", || {
                [
                    SoapValue::str(handle.as_str()),
                    SoapValue::Int(off as i64),
                    SoapValue::Int(len as i64),
                ]
            })?;
            match fetched {
                SoapValue::Base64(data) if data.len() == len => Ok(Landed::Fetched(data)),
                SoapValue::Base64(data) => Err(SoapError::Protocol(format!(
                    "get_chunk at {off} returned {} bytes, wanted {len}",
                    data.len()
                ))),
                _ => Err(SoapError::Protocol(
                    "get_chunk reply was not base64 data".into(),
                )),
            }
        };
        let st = self.run_chunks(size, fetch, sink);

        // Free the handle server-side; best effort (it would idle out).
        let _ = self.client.call("abort", &[SoapValue::str(handle)]);

        if let Some(e) = st.failed {
            return Err(e);
        }
        let report = TransferReport {
            bytes: size,
            chunks: st.chunks,
            buffer_high_water: st.high_water,
        };
        self.record(&report);
        Ok(report)
    }

    /// Upload `data` to `path` with up to `window` chunk writes in
    /// flight. The destination only ever flips to the complete content
    /// (server-side staging + atomic commit); on failure the staged
    /// partial is abandoned via `abort`.
    pub fn put(&self, path: &str, data: &[u8]) -> Result<TransferReport, SoapError> {
        let handle = self
            .call_retry("open_put", || [SoapValue::str(path)])?
            .as_str()
            .ok_or_else(|| SoapError::Protocol("open_put reply was not a handle".into()))?
            .to_owned();
        let size = data.len();

        let send = |off: usize, len: usize| {
            // The owned chunk copy below is the resident memory the
            // window bounds.
            let acked = self.call_retry("put_chunk", || {
                [
                    SoapValue::str(handle.as_str()),
                    SoapValue::Int(off as i64),
                    SoapValue::Base64(data[off..off + len].to_vec()),
                ]
            })?;
            let acked = acked
                .as_i64()
                .ok_or_else(|| SoapError::Protocol("put_chunk reply was not a frontier".into()))?;
            Ok(Landed::Acked(usize::try_from(acked).unwrap_or(0)))
        };
        let st = self.run_chunks(size, send, |_| {});

        if let Some(e) = st.failed {
            // Reclaim the staged partial; best effort (abort of a settled
            // or expired handle also succeeds).
            let _ = self.client.call("abort", &[SoapValue::str(handle)]);
            return Err(e);
        }
        let total = self
            .call_retry("commit", || [SoapValue::str(handle.as_str())])?
            .as_i64()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| SoapError::Protocol("commit reply was not a total".into()))?;
        if total != size {
            let _ = self.client.call("abort", &[SoapValue::str(handle)]);
            return Err(SoapError::Protocol(format!(
                "commit acknowledged {total} bytes, sent {size}"
            )));
        }
        let report = TransferReport {
            bytes: size,
            chunks: st.chunks,
            buffer_high_water: st.high_water,
        };
        self.record(&report);
        Ok(report)
    }

    /// Make the chunk calls of a `size`-byte transfer, `call` making one:
    /// on this thread and `window − 1` scoped helpers (fewer when the
    /// file has fewer chunks), with fetched chunks handed to `sink` here,
    /// in file order.
    fn run_chunks<C>(&self, size: usize, call: C, sink: impl FnMut(&[u8])) -> Window
    where
        C: Fn(usize, usize) -> Result<Landed, SoapError> + Sync,
    {
        let chunk = self.cfg.chunk_bytes.max(1);
        let window = self.cfg.window.max(1);
        let pipeline = Pipeline {
            state: Mutex::new(Window::default()),
            cv: Condvar::new(),
            size,
            chunk,
            budget: window.saturating_mul(chunk),
            call,
        };
        let helpers = window.min(size.div_ceil(chunk)).saturating_sub(1);
        // The caller's chunk calls inherit any deadline budget installed
        // on its thread; the helpers' carry the same one.
        let budget = deadline::remaining();
        std::thread::scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(|| {
                    let _budget = budget.map(deadline::install);
                    pipeline.help()
                });
            }
            pipeline.drive(sink);
        });
        pipeline.state.into_inner().expect("transfer lock")
    }

    /// Publish a finished transfer's numbers into the transport's wire
    /// stats so E13 reads them the same way it reads every other counter.
    fn record(&self, report: &TransferReport) {
        let stats = self.client.transport().stats();
        stats.record_transfer_chunks(report.chunks as u64, report.bytes as u64);
        stats.record_transfer_buffer(report.buffer_high_water as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portalws_gridsim::srb::Srb;
    use portalws_services::DataManagementService;
    use portalws_soap::SoapServer;
    use portalws_wire::{
        Handler, InMemoryTransport, Request, Response, Transport, DEADLINE_HEADER,
    };
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::thread::ThreadId;

    fn harness() -> (Arc<Srb>, SoapClient) {
        let (srb, client, _) = recording_harness(|_| None);
        (srb, client)
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn put_then_get_round_trip_pipelined() {
        let (srb, client) = harness();
        let tc = TransferClient::with_config(
            &client,
            TransferConfig {
                chunk_bytes: 1024,
                window: 4,
                chunk_attempts: 2,
            },
        );
        let data = payload(10_000);
        let up = tc.put("/data/f.bin", &data).unwrap();
        assert_eq!(up.bytes, 10_000);
        assert_eq!(up.chunks, 10);
        assert_eq!(srb.get("anonymous", "/data/f.bin").unwrap(), data);

        let (back, down) = tc.get("/data/f.bin").unwrap();
        assert_eq!(back, data);
        assert_eq!(back.capacity(), back.len(), "reserved once, for the size");
        assert_eq!(down.bytes, 10_000);
        assert_eq!(down.chunks, 10);
    }

    #[test]
    fn buffer_high_water_is_bounded_by_window_times_chunk() {
        // The satellite's deterministic pin: with window ≤ 2 the client's
        // resident transfer memory never exceeds 2 × chunk — asserted on
        // the report, which tracks the bound the claim rule enforces.
        let (_, client) = harness();
        let chunk = 512;
        let tc = TransferClient::with_config(
            &client,
            TransferConfig {
                chunk_bytes: chunk,
                window: 2,
                chunk_attempts: 2,
            },
        );
        let data = payload(64 * 512); // 64 chunks
        let up = tc.put("/data/bounded.bin", &data).unwrap();
        assert!(
            up.buffer_high_water <= 2 * chunk,
            "put high-water {} > {}",
            up.buffer_high_water,
            2 * chunk
        );
        let (_, down) = tc.get("/data/bounded.bin").unwrap();
        assert!(
            down.buffer_high_water <= 2 * chunk,
            "get high-water {} > {}",
            down.buffer_high_water,
            2 * chunk
        );
        // And the numbers surface through the transport's wire stats.
        let snap = client.transport().stats().snapshot();
        assert!(snap.transfer_chunks >= 128);
        assert!(snap.transfer_bytes >= 2 * data.len() as u64);
        assert!(snap.transfer_buffer_high_water <= 2 * chunk as u64);
    }

    #[test]
    fn zero_length_file_round_trips() {
        let (srb, client) = harness();
        let tc = TransferClient::new(&client);
        let up = tc.put("/data/empty", b"").unwrap();
        assert_eq!(up.bytes, 0);
        assert_eq!(up.chunks, 0);
        assert_eq!(srb.get("anonymous", "/data/empty").unwrap(), b"");
        let (back, down) = tc.get("/data/empty").unwrap();
        assert_eq!(back, b"");
        assert_eq!(down.chunks, 0);
    }

    #[test]
    fn unaligned_tail_chunk_round_trips() {
        let (_, client) = harness();
        let tc = TransferClient::with_config(
            &client,
            TransferConfig {
                chunk_bytes: 1000,
                window: 3,
                chunk_attempts: 2,
            },
        );
        // 3 full chunks + 1-byte tail, and an exactly-one-chunk file.
        for n in [3001, 1000, 1, 999] {
            let data = payload(n);
            let path = format!("/data/tail-{n}");
            tc.put(&path, &data).unwrap();
            let (back, _) = tc.get(&path).unwrap();
            assert_eq!(back, data, "size {n}");
            assert_eq!(back.capacity(), n, "size {n}");
        }
    }

    /// The in-memory transport, with every `open_get` reply claiming a
    /// file of 1 TiB.
    struct Inflating(InMemoryTransport);

    impl Transport for Inflating {
        fn round_trip(&self, req: Request) -> portalws_wire::Result<Response> {
            let opening = String::from_utf8_lossy(&req.body).contains("open_get");
            let resp = self.0.round_trip(req)?;
            if !opening {
                return Ok(resp);
            }
            let reply = Envelope::parse(&resp.body_str()).unwrap();
            let SoapValue::Struct(mut fields) = reply.into_return_value().unwrap() else {
                panic!("open_get reply was not a struct");
            };
            for (name, value) in &mut fields {
                if name == "size" {
                    *value = SoapValue::Int(1 << 40);
                }
            }
            let reply = Envelope::response("open_get", SoapValue::Struct(fields));
            Ok(Response::xml(reply.to_xml()))
        }

        fn stats(&self) -> Arc<portalws_wire::WireStats> {
            self.0.stats()
        }
    }

    #[test]
    fn a_peer_claiming_a_huge_file_fails_the_get_instead_of_its_reservation() {
        let (srb, handler) = data_server();
        srb.put("anonymous", "/data/small.bin", &payload(3_000))
            .unwrap();
        let transport = Inflating(InMemoryTransport::new(handler));
        let client = SoapClient::new(Arc::new(transport), "DataManagement");
        let tc = TransferClient::with_config(&client, config(1));
        let err = tc.get("/data/small.bin").unwrap_err();
        assert!(
            matches!(&err, SoapError::Protocol(m) if m.contains("returned 0 bytes")),
            "{err:?}"
        );
    }

    /// Names of the staging objects left in `/data`.
    fn staging_debris(srb: &Srb) -> Vec<String> {
        srb.ls("anonymous", "/data")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .filter(|n| n.starts_with(".part-"))
            .collect()
    }

    /// Answers the `n`-th `put_chunk` (from 1) in the server's stead.
    type PutAnswer = fn(usize) -> Option<Envelope>;

    /// The in-memory transport, recording which thread makes each chunk
    /// call, with `answer_put` answering `put_chunk`s it picks.
    struct Recording {
        inner: InMemoryTransport,
        /// Each chunk call's method, thread, and whether it carried a
        /// deadline budget.
        calls: Mutex<Vec<(&'static str, ThreadId, bool)>>,
        answer_put: PutAnswer,
    }

    impl Transport for Recording {
        fn round_trip(&self, req: Request) -> portalws_wire::Result<Response> {
            let head = &req.body[..req.body.len().min(600)];
            let method = ["get_chunk", "put_chunk"]
                .into_iter()
                .find(|m| head.windows(m.len()).any(|w| w == m.as_bytes()));
            if let Some(method) = method {
                let mut calls = self.calls.lock().unwrap();
                let budget = req.header(DEADLINE_HEADER).is_some();
                calls.push((method, std::thread::current().id(), budget));
                let puts = calls.iter().filter(|(m, ..)| *m == "put_chunk").count();
                if method == "put_chunk" {
                    if let Some(answer) = (self.answer_put)(puts) {
                        return Ok(Response::xml(answer.to_xml()));
                    }
                }
            }
            self.inner.round_trip(req)
        }

        fn stats(&self) -> Arc<portalws_wire::WireStats> {
            self.inner.stats()
        }
    }

    /// A broker with an empty `/data`, and a `DataManagement` server over it.
    fn data_server() -> (Arc<Srb>, Arc<dyn Handler>) {
        let srb = Arc::new(Srb::new());
        srb.mkdir("/data").unwrap();
        let server = SoapServer::new();
        server.mount(Arc::new(DataManagementService::new(Arc::clone(&srb))));
        (srb, Arc::new(server))
    }

    fn recording_harness(answer_put: PutAnswer) -> (Arc<Srb>, SoapClient, Arc<Recording>) {
        let (srb, handler) = data_server();
        let transport = Arc::new(Recording {
            inner: InMemoryTransport::new(handler),
            calls: Mutex::new(Vec::new()),
            answer_put,
        });
        let client = SoapClient::new(transport.clone(), "DataManagement");
        (srb, client, transport)
    }

    fn config(window: usize) -> TransferConfig {
        TransferConfig {
            chunk_bytes: 1000,
            window,
            chunk_attempts: 2,
        }
    }

    #[test]
    fn window_one_makes_every_chunk_call_on_the_calling_thread() {
        let (_, client, transport) = recording_harness(|_| None);
        let tc = TransferClient::with_config(&client, config(1));
        let data = payload(9_500);
        tc.put("/data/one.bin", &data).unwrap();
        let (back, _) = tc.get("/data/one.bin").unwrap();
        assert_eq!(back, data);
        let calls = transport.calls.lock().unwrap();
        let me = std::thread::current().id();
        for method in ["put_chunk", "get_chunk"] {
            let on_me = calls.iter().filter(|&&(m, t, _)| m == method && t == me);
            assert_eq!(on_me.count(), 10, "{method}: {calls:?}");
        }
        assert_eq!(calls.len(), 20, "{calls:?}");
    }

    #[test]
    fn window_three_adds_at_most_two_threads() {
        let (_, client, transport) = recording_harness(|_| None);
        let tc = TransferClient::with_config(&client, config(3));
        let data = payload(30_000);
        tc.put("/data/three.bin", &data).unwrap();
        let (back, _) = tc.get("/data/three.bin").unwrap();
        assert_eq!(back, data);
        let calls = transport.calls.lock().unwrap();
        assert_eq!(calls.len(), 60, "{calls:?}");
        let me = std::thread::current().id();
        for method in ["put_chunk", "get_chunk"] {
            let others: HashSet<ThreadId> = (calls.iter())
                .filter(|&&(m, t, _)| m == method && t != me)
                .map(|&(_, t, _)| t)
                .collect();
            assert!(
                others.len() <= 2,
                "{method}: {} other threads",
                others.len()
            );
        }
    }

    #[test]
    fn every_chunk_call_carries_the_callers_deadline_budget() {
        let (_, client, transport) = recording_harness(|_| None);
        let tc = TransferClient::with_config(&client, config(3));
        let data = payload(30_000);
        {
            let _budget = deadline::install(Duration::from_secs(60));
            tc.put("/data/budget.bin", &data).unwrap();
            tc.get("/data/budget.bin").unwrap();
        }
        let calls = transport.calls.lock().unwrap();
        assert_eq!(calls.len(), 60);
        assert!(calls.iter().all(|&(.., budget)| budget), "{calls:?}");
    }

    #[test]
    fn a_typed_fault_on_the_third_put_chunk_leaves_no_staging_object() {
        for window in [1, 3] {
            let (srb, client, transport) = recording_harness(|n| {
                let fault = Fault::portal(PortalErrorKind::DiskFull, "staging device full");
                (n == 3).then(|| Envelope::fault(&fault))
            });
            let tc = TransferClient::with_config(&client, config(window));
            let err = tc.put("/data/partial.bin", &payload(8_000)).unwrap_err();
            let fault = err.as_fault().expect("a typed fault");
            assert_eq!(
                fault.kind(),
                Some(PortalErrorKind::DiskFull),
                "window {window}"
            );
            assert!(
                srb.get("anonymous", "/data/partial.bin").is_err(),
                "window {window}: the destination appeared"
            );
            assert!(
                staging_debris(&srb).is_empty(),
                "window {window}: {:?}",
                staging_debris(&srb)
            );
            // The fault stopped the claims: at most the window's other
            // calls ran past it.
            let puts = (transport.calls.lock().unwrap().iter())
                .filter(|(m, ..)| *m == "put_chunk")
                .count();
            assert!(puts < 3 + window, "window {window}: {puts} put_chunk calls");
        }
    }

    #[test]
    fn a_server_that_never_acknowledges_fails_the_put_instead_of_stalling_it() {
        for window in [1, 3] {
            let (srb, client, _) =
                recording_harness(|_| Some(Envelope::response("put_chunk", SoapValue::Int(0))));
            let tc = TransferClient::with_config(&client, config(window));
            let err = tc.put("/data/stalled.bin", &payload(8_000)).unwrap_err();
            assert!(
                matches!(&err, SoapError::Protocol(m) if m.contains("acknowledged 0 of")),
                "window {window}: {err:?}"
            );
            assert!(staging_debris(&srb).is_empty(), "window {window}");
        }
    }

    #[test]
    fn typed_faults_surface_and_putting_missing_collection_fails_clean() {
        let (srb, client) = harness();
        let tc = TransferClient::new(&client);
        let err = tc.get("/data/ghost").unwrap_err();
        assert!(err.as_fault().is_some());
        let err = tc.put("/ghost/file", b"x").unwrap_err();
        assert!(err.as_fault().is_some());
        // No staging debris anywhere.
        let names: Vec<String> = srb
            .ls("anonymous", "/data")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(names.iter().all(|n| !n.starts_with(".part-")), "{names:?}");
    }
}
