//! Spans for the traced run, and the `Transport` wrapper that times the
//! wire round trip and keeps copies of exchanges for replay.
//!
//! Spans are taken only around the benchmark's own calls into the
//! program's public API; nothing inside the program is instrumented.
//! Each span carries a layer depth fixed by its name (op 0, core 1,
//! wsdl/soap 2, wire 3), so a layer's self time is its span minus the
//! part of that interval covered by deeper spans of the same op. That
//! also covers the chunk round trips `TransferClient` issues from its
//! own worker thread, which is not the op's.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use portalws_wire::{Request, Response, Result as WireResult, Transport, WireStats};

static ON: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());
/// The op in progress; every workload runs one op at a time.
static OP: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Layer depth, from the name's module prefix.
    pub fn depth(&self) -> u8 {
        depth_of(self.name)
    }
}

fn depth_of(name: &str) -> u8 {
    match name.split('.').next() {
        Some("op") => 0,
        Some("core") => 1,
        Some("wsdl") | Some("soap") => 2,
        _ => 3,
    }
}

/// Start recording; `capacity` spans are reserved up front so the
/// recorder does not allocate while ops run.
pub fn start(capacity: usize) {
    epoch();
    let mut sink = SINK.lock().expect("span sink poisoned");
    sink.clear();
    sink.reserve(capacity);
    ON.store(true, Relaxed);
}

/// Stop recording and hand back every span.
pub fn stop() -> Vec<Span> {
    ON.store(false, Relaxed);
    std::mem::take(&mut *SINK.lock().expect("span sink poisoned"))
}

fn enabled() -> bool {
    ON.load(Relaxed)
}

/// Mark op `id` as the one in progress.
pub fn set_op(id: u64) {
    OP.store(id, Relaxed);
}

/// Run `f` inside a span named `name` (a no-op wrapper when off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    SINK.lock().expect("span sink poisoned").push(Span {
        name,
        start_ns,
        end_ns,
        op: OP.load(Relaxed),
    });
    out
}

/// Most exchanges kept for the replays; enough for several whole ops of
/// every workload without holding more than a few MiB of bulk chunks.
const CAPTURE_CAP: usize = 96;

/// A `Transport` wrapper on one of the deployment's transports: times
/// each round trip as a `wire.round_trip` span, counts requests and SOAP
/// body bytes, and keeps the first exchanges for replay.
pub struct Tap {
    inner: Arc<dyn Transport>,
    counters: Arc<TapCounters>,
}

/// Shared by every `Tap` of one traced phase.
#[derive(Default)]
pub struct TapCounters {
    pub requests: AtomicU64,
    pub body_bytes: AtomicU64,
    captured: Mutex<Vec<(Request, Response)>>,
}

impl TapCounters {
    pub fn wrap(self: &Arc<Self>, inner: Arc<dyn Transport>) -> Arc<dyn Transport> {
        Arc::new(Tap {
            inner,
            counters: Arc::clone(self),
        })
    }

    pub fn take_captured(&self) -> Vec<(Request, Response)> {
        std::mem::take(&mut *self.captured.lock().expect("capture poisoned"))
    }
}

impl Transport for Tap {
    fn round_trip(&self, req: Request) -> WireResult<Response> {
        let c = &self.counters;
        c.requests.fetch_add(1, Relaxed);
        let keep =
            (c.captured.lock().expect("capture poisoned").len() < CAPTURE_CAP).then(|| req.clone());
        let req_len = req.body.len();
        let resp = span("wire.round_trip", || self.inner.round_trip(req))?;
        c.body_bytes
            .fetch_add((req_len + resp.body.len()) as u64, Relaxed);
        if let Some(req) = keep {
            let mut captured = c.captured.lock().expect("capture poisoned");
            if captured.len() < CAPTURE_CAP {
                captured.push((req, resp.clone()));
            }
        }
        Ok(resp)
    }

    fn stats(&self) -> Arc<WireStats> {
        self.inner.stats()
    }
}

/// Measure of the union of `intervals` clipped to `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

/// Layer of a span: its name's module prefix (`op`, `core`, `wsdl`,
/// `soap`, `wire`).
fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// Self time (ns) summed per layer over all ops: each span's duration
/// minus the part of it covered by deeper spans of the same op.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_op: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_op.entry(s.op).or_default().push(s);
    }
    let mut out = BTreeMap::new();
    for op_spans in by_op.values() {
        for s in op_spans {
            let d = s.depth();
            let mut deeper: Vec<(u64, u64)> = op_spans
                .iter()
                .filter(|c| c.depth() > d && c.start_ns >= s.start_ns && c.end_ns <= s.end_ns)
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            let cov = covered(&mut deeper, s.start_ns, s.end_ns);
            *out.entry(layer_of(s.name)).or_insert(0) += s.dur_ns() - cov;
        }
    }
    out
}

/// Write spans as tab-separated `op name start_ns end_ns parent`, where
/// `parent` is the row number of the innermost shallower span of the
/// same op that contains this one (`-` for an op's root).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].op, spans[i].start_ns, spans[i].depth()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "row\top\tname\tstart_ns\tend_ns\tparent")?;
    let mut op_start = 0;
    for (row, &i) in order.iter().enumerate() {
        let s = spans[i];
        if row == 0 || spans[order[row - 1]].op != s.op {
            op_start = row;
        }
        let parent = (op_start..row)
            .rev()
            .map(|r| (r, spans[order[r]]))
            .find(|(_, p)| {
                p.depth() < s.depth() && p.start_ns <= s.start_ns && p.end_ns >= s.end_ns
            })
            .map(|(r, _)| r.to_string())
            .unwrap_or_else(|| "-".into());
        writeln!(
            out,
            "{row}\t{}\t{}\t{}\t{}\t{parent}",
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 14), (20, 30)];
        assert_eq!(covered(&mut iv, 2, 25), 1 + 9 + 5);
    }

    #[test]
    fn self_time_subtracts_deeper_spans_of_the_same_op() {
        let sp = |name, start_ns, end_ns, op| Span {
            name,
            start_ns,
            end_ns,
            op,
        };
        let spans = [
            sp("op", 0, 100, 1),
            sp("core.transfer", 10, 90, 1),
            // Two overlapping round trips.
            sp("wire.round_trip", 20, 50, 1),
            sp("wire.round_trip", 40, 70, 1),
            // Another op's span inside this op's interval is ignored.
            sp("wire.round_trip", 0, 100, 2),
        ];
        let st = self_times(&spans);
        assert_eq!(st["op"], 100 - 80);
        assert_eq!(st["core"], 80 - 50);
        assert_eq!(st["wire"], 30 + 30 + 100);
    }
}
