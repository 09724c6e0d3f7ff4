//! A lock-free cell holding an `Arc<T>`, for read-mostly configuration
//! handoff (PR 10).
//!
//! [`AuthService`]-style hot paths previously kept swappable shared state
//! as `RwLock<Arc<T>>`: every reader paid a read-lock acquire plus a
//! double pointer chase just to bump a counter that is itself atomic.
//! `ArcCell` replaces that with one `Acquire` pointer load per reader —
//! the swap (`store`) is the rare operation (deployment wiring swaps a
//! service's stats sink exactly once), so it may pay for the readers.
//!
//! Reclamation: a racing `load` may read the old pointer an instant
//! before a `store` swaps it out, *before* bumping the strong count. To
//! keep that window sound without epochs or hazard pointers, the cell
//! retains one `Arc` for every value ever installed; memory is therefore
//! O(installs), which is the right trade for a cell that is stored into a
//! handful of times per process lifetime. This is NOT a general-purpose
//! `ArcSwap` — do not use it for high-rate value churn.
//!
//! [`AuthService`]: ../portalws_auth/service/struct.AuthService.html

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Lock-free readable, rarely-written `Arc<T>` holder. `load` is one
/// atomic pointer read; `store` is a swap plus a small allocation kept
/// for the cell's lifetime.
pub struct ArcCell<T> {
    /// Always points at a value kept alive by `history`, so a raw
    /// increment on the loaded pointer can never race a final drop.
    ptr: AtomicPtr<T>,
    /// One retained `Arc` per installed value (see module docs).
    history: Mutex<Vec<Arc<T>>>,
}

impl<T> ArcCell<T> {
    /// A cell initially holding `value`.
    pub fn new(value: Arc<T>) -> ArcCell<T> {
        let raw = Arc::into_raw(Arc::clone(&value)).cast_mut();
        ArcCell {
            ptr: AtomicPtr::new(raw),
            history: Mutex::new_named(vec![value], "arc-cell-history"),
        }
    }

    /// Current value. One `Acquire` load; never blocks, never spins.
    pub fn load(&self) -> Arc<T> {
        let p = self.ptr.load(Ordering::Acquire);
        // SAFETY: `p` was produced by `Arc::into_raw` and the pointee is
        // kept alive by the `history` vec for the cell's whole lifetime,
        // so incrementing its strong count cannot race deallocation; the
        // increment balances the `from_raw` below.
        unsafe {
            Arc::increment_strong_count(p);
            Arc::from_raw(p)
        }
    }

    /// Replace the value. Readers that already loaded keep their old
    /// `Arc`; readers that load afterwards see `value`.
    pub fn store(&self, value: Arc<T>) {
        let raw = Arc::into_raw(Arc::clone(&value)).cast_mut();
        let mut history = self.history.lock();
        let old = self.ptr.swap(raw, Ordering::AcqRel);
        // SAFETY: `old` carries the strong count taken by `into_raw` at
        // its install; reconstituting releases that count. The value
        // itself stays alive via its `history` entry, so a `load` that
        // read `old` just before the swap still increments a live Arc.
        unsafe {
            drop(Arc::from_raw(old));
        }
        history.push(value);
    }
}

impl<T> Drop for ArcCell<T> {
    fn drop(&mut self) {
        let p = *self.ptr.get_mut();
        // SAFETY: releases the install-time strong count of the current
        // value; `history` drops the retained Arcs right after.
        unsafe {
            drop(Arc::from_raw(p));
        }
    }
}

// SAFETY: the cell owns `Arc<T>`s and hands out clones; it is exactly as
// thread-safe as `Arc<T>` itself.
unsafe impl<T: Send + Sync> Send for ArcCell<T> {}
// SAFETY: as for `Send`: shared use only loads the pointer and clones the
// `Arc` it names, or swaps it under the `history` lock, so `&ArcCell<T>`
// gives other threads what `&Arc<T>` would.
unsafe impl<T: Send + Sync> Sync for ArcCell<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn load_and_store_round_trip() {
        let cell = ArcCell::new(Arc::new(1u32));
        assert_eq!(*cell.load(), 1);
        cell.store(Arc::new(2));
        assert_eq!(*cell.load(), 2);
        // A reader that loaded before the store keeps its value.
        let held = cell.load();
        cell.store(Arc::new(3));
        assert_eq!(*held, 2);
        assert_eq!(*cell.load(), 3);
    }

    #[test]
    fn values_are_released_when_the_cell_drops() {
        let value = Arc::new(String::from("tracked"));
        let weak = Arc::downgrade(&value);
        let cell = ArcCell::new(value);
        cell.store(Arc::new(String::from("replacement")));
        // The old value is retained by the cell (reclamation guarantee).
        assert!(weak.upgrade().is_some());
        drop(cell);
        assert!(weak.upgrade().is_none(), "drop releases every install");
    }

    #[test]
    fn concurrent_loads_race_stores_without_tearing() {
        let cell = Arc::new(ArcCell::new(Arc::new(0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = *cell.load();
                    assert!(v >= last, "values are monotone: {v} < {last}");
                    last = v;
                }
            }));
        }
        for i in 1..=64 {
            cell.store(Arc::new(i));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*cell.load(), 64);
    }
}
