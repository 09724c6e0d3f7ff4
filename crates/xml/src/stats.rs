//! Process-wide fast-path counters for the zero-copy substrate.
//!
//! The escape/unescape fast paths ([`crate::escape`]) return
//! `Cow::Borrowed` without allocating; these counters record how often
//! that happened so the wire layer (`wire::stats`) and the E5/E11
//! experiments can report allocations avoided, not just time. Counters
//! are global atomics with relaxed ordering — they are telemetry, not
//! synchronization — and tests compare snapshots with
//! [`SubstrateCounters::since`] rather than resetting, so parallel test
//! threads do not interfere. Each count also lands in a per-thread copy,
//! read with [`thread_snapshot`], so a test can check exact deltas while
//! other threads count alongside.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ESCAPE_BORROWED: AtomicU64 = AtomicU64::new(0);
static ESCAPE_OWNED: AtomicU64 = AtomicU64::new(0);
static UNESCAPE_BORROWED: AtomicU64 = AtomicU64::new(0);
static UNESCAPE_OWNED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's counts, in [`SubstrateCounters`] field order.
    static ON_THREAD: [Cell<u64>; 4] = const { [const { Cell::new(0) }; 4] };
}

fn bump(global: &AtomicU64, field: usize) {
    global.fetch_add(1, Relaxed);
    let _ = ON_THREAD.try_with(|counts| {
        if let Some(n) = counts.get(field) {
            Cell::set(n, n.get() + 1);
        }
    });
}

pub(crate) fn count_escape(borrowed: bool) {
    if borrowed {
        bump(&ESCAPE_BORROWED, 0);
    } else {
        bump(&ESCAPE_OWNED, 1);
    }
}

pub(crate) fn count_unescape(borrowed: bool) {
    if borrowed {
        bump(&UNESCAPE_BORROWED, 2);
    } else {
        bump(&UNESCAPE_OWNED, 3);
    }
}

/// A point-in-time copy of the substrate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubstrateCounters {
    /// `escape_text`/`escape_attr` calls that borrowed (no allocation).
    pub escape_borrowed: u64,
    /// Escape calls that had to allocate.
    pub escape_owned: u64,
    /// `unescape` calls that borrowed (no allocation).
    pub unescape_borrowed: u64,
    /// Unescape calls that had to allocate.
    pub unescape_owned: u64,
}

impl SubstrateCounters {
    /// Counter deltas relative to an earlier snapshot.
    pub fn since(&self, earlier: &SubstrateCounters) -> SubstrateCounters {
        SubstrateCounters {
            escape_borrowed: self.escape_borrowed.wrapping_sub(earlier.escape_borrowed),
            escape_owned: self.escape_owned.wrapping_sub(earlier.escape_owned),
            unescape_borrowed: self
                .unescape_borrowed
                .wrapping_sub(earlier.unescape_borrowed),
            unescape_owned: self.unescape_owned.wrapping_sub(earlier.unescape_owned),
        }
    }

    /// Fraction of escape calls that avoided allocation (0.0 when none ran).
    pub fn escape_fast_path_rate(&self) -> f64 {
        rate(self.escape_borrowed, self.escape_owned)
    }

    /// Fraction of unescape calls that avoided allocation.
    pub fn unescape_fast_path_rate(&self) -> f64 {
        rate(self.unescape_borrowed, self.unescape_owned)
    }
}

fn rate(hit: u64, miss: u64) -> f64 {
    let total = hit + miss;
    if total == 0 {
        0.0
    } else {
        hit as f64 / total as f64
    }
}

/// Read the current counter values.
pub fn snapshot() -> SubstrateCounters {
    SubstrateCounters {
        escape_borrowed: ESCAPE_BORROWED.load(Relaxed),
        escape_owned: ESCAPE_OWNED.load(Relaxed),
        unescape_borrowed: UNESCAPE_BORROWED.load(Relaxed),
        unescape_owned: UNESCAPE_OWNED.load(Relaxed),
    }
}

/// The counts made on the calling thread so far: unlike [`snapshot`],
/// untouched by other threads.
pub fn thread_snapshot() -> SubstrateCounters {
    let [a, b, c, d] = ON_THREAD
        .try_with(|counts| counts.each_ref().map(Cell::get))
        .unwrap_or_default();
    SubstrateCounters {
        escape_borrowed: a,
        escape_owned: b,
        unescape_borrowed: c,
        unescape_owned: d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts() {
        let a = SubstrateCounters {
            escape_borrowed: 10,
            escape_owned: 2,
            unescape_borrowed: 5,
            unescape_owned: 1,
        };
        let b = SubstrateCounters {
            escape_borrowed: 4,
            escape_owned: 2,
            unescape_borrowed: 1,
            unescape_owned: 0,
        };
        let d = a.since(&b);
        assert_eq!(d.escape_borrowed, 6);
        assert_eq!(d.escape_owned, 0);
        assert!((d.escape_fast_path_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn thread_counts_see_only_this_thread() {
        let before = thread_snapshot();
        std::thread::scope(|s| {
            s.spawn(|| count_unescape(true));
        });
        count_escape(false);
        let d = thread_snapshot().since(&before);
        assert_eq!(
            d,
            SubstrateCounters {
                escape_owned: 1,
                ..SubstrateCounters::default()
            }
        );
    }

    #[test]
    fn rate_of_empty_is_zero() {
        assert_eq!(SubstrateCounters::default().escape_fast_path_rate(), 0.0);
    }
}
