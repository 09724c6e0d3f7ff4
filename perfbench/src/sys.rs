//! Process and machine probes: CPU clocks, `getrusage`, `/proc`, a
//! fixed calibration kernel, and the counting global allocator.
//!
//! Everything here reads the kernel through the C library std already
//! links, so the benchmark needs no crate beyond the repository's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;
/// glibc's `mallopt` parameter for the most malloc arenas.
const M_ARENA_MAX: i32 = -8;

/// Make every thread allocate from glibc's one main arena; call before
/// any thread starts. With an arena per thread, which arena the transfer
/// client's short-lived worker threads landed in varied from run to run,
/// and `bulk_transfer`'s peak resident set with it (24 or 30-33 MiB at
/// the same op; 20-21 MiB with one arena, at the same speed).
pub fn single_malloc_arena() {
    // SAFETY: `mallopt` takes two plain integers and only changes
    // allocator settings; glibc documents `M_ARENA_MAX` (-8) as a valid
    // parameter.
    let rc = unsafe { mallopt(M_ARENA_MAX, 1) };
    assert_eq!(rc, 1, "mallopt(M_ARENA_MAX, 1) failed");
}

/// CPU time consumed by every thread of this process, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration, and the clock id is a Linux constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// What `getrusage(RUSAGE_SELF)` reports for every thread of this
/// process so far, of the fields the ledger uses.
pub struct Usage {
    pub minor_faults: u64,
    /// Voluntary plus involuntary context switches.
    pub context_switches: u64,
}

pub fn rusage() -> Usage {
    // SAFETY: `RUsage` matches the 64-bit Linux `struct rusage` layout
    // and is plain old data, so all-zero bytes are a valid value.
    let mut ru: RUsage = unsafe { std::mem::zeroed() };
    // SAFETY: `ru` is a valid, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    Usage {
        minor_faults: ru.minflt as u64,
        context_switches: (ru.nvcsw + ru.nivcsw) as u64,
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .expect("aggregate cpu line in /proc/stat")
        .split_whitespace()
        .map(|f| f.parse().expect("numeric /proc/stat field"))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so the total stops at steal.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Steal share of all CPU time between two [`cpu_jiffies`] readings, in
/// percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 * 100.0 / total as f64
}

/// Items one calibration sample builds: 0.3-0.5 ms of work on a 2-vCPU
/// shared VM.
const CALIB_ITEMS: usize = 500;

/// Time one run of the calibration kernel, in milliseconds. Its work is
/// fixed and shaped like an op's: short XML-like strings formatted, each
/// in a fresh allocation, indexed in a map, sorted, then unescaped and
/// parsed back. It uses only the standard library, so no change to the
/// repository's crates changes its time; its spread is the machine's.
/// On a 2-vCPU shared VM that spread reached 2x within a second, and a
/// fixed integer multiply chain did not follow it, so the kernel does
/// the kinds of work the ops do.
pub fn calib_ms() -> f64 {
    let t0 = Instant::now();
    let mut items = Vec::with_capacity(CALIB_ITEMS);
    let mut index = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..black_box(CALIB_ITEMS) {
        x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        let item = format!(
            "<item id=\"{i}\" key=\"{:x}\">value &amp; {}</item>",
            x >> 20,
            x % 977
        );
        index.insert(item.clone(), i);
        items.push(item);
    }
    items.sort_unstable();
    let mut sum = 0;
    for item in &items {
        sum += index[item];
        let body = &item[item.find('>').map_or(0, |i| i + 1)..item.rfind('<').unwrap_or(0)];
        sum += body.replace("&amp;", "&").len();
        sum += item
            .split('"')
            .filter_map(|t| t.parse::<usize>().ok())
            .sum::<usize>();
    }
    black_box(sum);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The system allocator, counting calls and bytes while counting is on.
/// Off (one relaxed load per call) outside the traced phase.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Turn allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// `(allocation calls, bytes requested)` counted so far. A `realloc`
/// counts as one call for its new size.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

fn record(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// allocation.
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
