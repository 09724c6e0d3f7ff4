//! Server side of the chunked streaming transfer protocol (E13).
//!
//! The paper's string-streamed `get`/`put` "does not scale well, and was
//! only used as a proof of concept" (§3.2): the whole payload is
//! materialized in one envelope at every hop. This module is the modern
//! fix — SOAP stays the control channel, but the payload moves as a
//! sequence of bounded chunks against a server-side *transfer handle*:
//!
//! * `open_get` / `get_chunk*` / (`abort`) — ranged reads straight out of
//!   the broker; a read never clones more than one chunk.
//! * `open_put` / `put_chunk*` / `commit` / `abort` — chunks append to a
//!   hidden staging object (`.part-<handle>` beside the destination);
//!   `commit` atomically promotes staging → final, so the destination is
//!   only ever absent, old, or complete — never torn.
//!
//! Retries are first-class because the chunk calls ride the pooled
//! transport's idempotent-retry machinery: `get_chunk` is a pure ranged
//! read; a duplicate `put_chunk` (response lost, client resent) is
//! detected by offset and acknowledged without re-appending; a retried
//! `commit`/`abort` of an already-settled handle succeeds out of a small
//! completed-handle memory. Out-of-order `put_chunk`s (pipelined windows
//! race across pooled connections) park in a per-handle reorder buffer
//! that is charged against a service-wide buffered-byte budget, so server
//! memory per transfer is O(window × chunk), not O(file).
//!
//! The handle table is lock-striped (PR 10): a handle's numeric id picks
//! its stripe, so concurrent transfers on different handles never contend
//! on one table mutex. The service-wide invariants — open-handle cap,
//! buffered-byte budget, buffered high-water — live in atomics above the
//! stripes and stay strict (reserve-then-insert, never check-then-race).
//!
//! Every limit is a declared constant; hitting one is a typed
//! [`PortalErrorKind::Busy`]-style fault, not an allocation.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use portalws_gridsim::srb::{Srb, SrbError};
use portalws_soap::{Fault, PortalErrorKind};

use crate::data::srb_fault;

/// Largest chunk a single `get_chunk`/`put_chunk` call may carry. Keeps
/// one chunk comfortably inside the wire's body cap even after base64
/// expansion and XML framing.
pub const MAX_CHUNK_BYTES: usize = 4 * 1024 * 1024;

/// Default cap on concurrently open handles (gets + puts) per service.
pub const DEFAULT_MAX_HANDLES: usize = 64;

/// Default service-wide budget for bytes parked in reorder buffers.
pub const DEFAULT_MAX_BUFFERED_BYTES: usize = 32 * 1024 * 1024;

/// Default idle TTL: a handle untouched this long is expired and its
/// staging object reclaimed.
pub const DEFAULT_IDLE_TTL: Duration = Duration::from_secs(120);

/// How many settled (committed or aborted) put handles are remembered per
/// stripe so that a *retried* `commit`/`abort` — the first response was
/// lost on the wire — succeeds instead of faulting `NoSuchHandle`.
pub const COMPLETED_MEMORY: usize = 64;

/// Lock stripes over the handle table. A handle's numeric id picks its
/// stripe, so retries of the same handle always land on the same lock.
const TRANSFER_STRIPES: usize = 8;

/// Transfer-protocol errors, mapped onto the portal's common fault
/// vocabulary by [`TransferError::to_fault`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferError {
    /// Unknown, expired, or already-settled handle.
    NoSuchHandle(String),
    /// The handle was opened by a different principal.
    NotYourHandle(String),
    /// `put_chunk` offset is not contiguous, duplicate, or bufferable.
    BadOffset {
        /// Handle id.
        handle: String,
        /// Next byte the server can durably accept.
        expected: usize,
        /// Offset the chunk arrived with.
        got: usize,
    },
    /// Chunk exceeds [`MAX_CHUNK_BYTES`].
    ChunkTooLarge(usize),
    /// Handle table is at its concurrency cap.
    HandleLimit(usize),
    /// Reorder buffers are at the service-wide byte budget.
    BufferLimit(usize),
    /// `commit` called while chunks are still missing.
    Incomplete {
        /// Handle id.
        handle: String,
        /// First missing byte.
        missing_at: usize,
    },
    /// Underlying broker error.
    Srb(SrbError),
}

impl TransferError {
    /// Map onto the portal fault taxonomy (the §3 consistent-error
    /// vocabulary): capacity limits are `BUSY` (retry later), protocol
    /// misuse is `BAD_ARGUMENTS`, lost handles are `NOT_FOUND`, and
    /// broker errors keep their canonical mapping.
    pub fn to_fault(&self) -> Fault {
        match self {
            TransferError::NoSuchHandle(h) => Fault::portal(
                PortalErrorKind::NotFound,
                format!("no such transfer handle {h:?} (expired or settled)"),
            ),
            TransferError::NotYourHandle(h) => Fault::portal(
                PortalErrorKind::PermissionDenied,
                format!("transfer handle {h:?} belongs to another principal"),
            ),
            TransferError::BadOffset {
                handle,
                expected,
                got,
            } => Fault::portal(
                PortalErrorKind::BadArguments,
                format!("put_chunk on {handle:?}: offset {got} not acceptable (next expected {expected})"),
            ),
            TransferError::ChunkTooLarge(n) => Fault::portal(
                PortalErrorKind::BadArguments,
                format!("chunk of {n} bytes exceeds MAX_CHUNK_BYTES ({MAX_CHUNK_BYTES})"),
            ),
            TransferError::HandleLimit(cap) => Fault::portal(
                PortalErrorKind::Busy,
                format!("transfer handle table full ({cap} handles); retry later"),
            ),
            TransferError::BufferLimit(cap) => Fault::portal(
                PortalErrorKind::Busy,
                format!("transfer reorder buffers at byte budget ({cap}); retry later"),
            ),
            TransferError::Incomplete { handle, missing_at } => Fault::portal(
                PortalErrorKind::BadArguments,
                format!("commit on {handle:?} with missing bytes from offset {missing_at}"),
            ),
            TransferError::Srb(e) => srb_fault(e.clone()),
        }
    }
}

impl From<SrbError> for TransferError {
    fn from(e: SrbError) -> TransferError {
        TransferError::Srb(e)
    }
}

/// Result alias for transfer operations.
pub type TransferResult<T> = Result<T, TransferError>;

struct GetHandle {
    principal: String,
    path: String,
    last_used: Instant,
}

struct PutHandle {
    principal: String,
    /// Destination path; only written at commit.
    path: String,
    /// Hidden staging sibling the chunks append into.
    staging: String,
    /// Bytes durably appended to staging (the acknowledged frontier).
    next_off: usize,
    /// Out-of-order chunks parked until the frontier reaches them.
    pending: BTreeMap<usize, Vec<u8>>,
    /// Total bytes across `pending` (charged against the table budget).
    pending_bytes: usize,
    last_used: Instant,
}

/// One lock stripe of the handle table.
struct StripeInner {
    gets: HashMap<String, GetHandle>,
    puts: HashMap<String, PutHandle>,
    /// Recently settled put handles: `(id, total bytes, committed?)`.
    completed: VecDeque<(String, usize, bool)>,
}

impl StripeInner {
    fn empty() -> StripeInner {
        StripeInner {
            gets: HashMap::new(),
            puts: HashMap::new(),
            completed: VecDeque::new(),
        }
    }
}

/// The server-side transfer handle table. One per
/// [`crate::DataManagementService`]; every method is safe to retry.
///
/// Striping: handle `t-<id>` lives on stripe `id % TRANSFER_STRIPES`, so
/// every call on one handle serializes on one stripe lock while distinct
/// handles proceed in parallel. The open-handle cap and the buffered-byte
/// budget are enforced by atomic reserve-before-mutate, so they remain
/// strict service-wide bounds even with all stripes active at once.
pub struct TransferTable {
    srb: Arc<Srb>,
    stripes: Box<[Mutex<StripeInner>]>,
    next_id: AtomicU64,
    /// Open handles across all stripes (gets + puts).
    open_count: AtomicUsize,
    /// Service-wide bytes parked in reorder buffers.
    buffered_bytes: AtomicUsize,
    /// High-water of `buffered_bytes` since construction.
    buffered_high_water: AtomicUsize,
    max_handles: usize,
    max_buffered: usize,
    idle_ttl: Mutex<Duration>,
}

impl TransferTable {
    /// A table over `srb` with the default caps.
    pub fn new(srb: Arc<Srb>) -> TransferTable {
        TransferTable::with_caps(srb, DEFAULT_MAX_HANDLES, DEFAULT_MAX_BUFFERED_BYTES)
    }

    /// A table with explicit concurrency and buffering caps (tests and
    /// benches pin these to small values).
    pub fn with_caps(srb: Arc<Srb>, max_handles: usize, max_buffered: usize) -> TransferTable {
        let stripes: Vec<Mutex<StripeInner>> = (0..TRANSFER_STRIPES)
            .map(|i| Mutex::new_named(StripeInner::empty(), &format!("transfer-stripe-{i}")))
            .collect();
        TransferTable {
            srb,
            stripes: stripes.into_boxed_slice(),
            next_id: AtomicU64::new(1),
            open_count: AtomicUsize::new(0),
            buffered_bytes: AtomicUsize::new(0),
            buffered_high_water: AtomicUsize::new(0),
            max_handles,
            max_buffered,
            idle_ttl: Mutex::new_named(DEFAULT_IDLE_TTL, "transfer-ttl"),
        }
    }

    /// Override the idle TTL (tests set this to zero to force expiry).
    pub fn set_idle_ttl(&self, ttl: Duration) {
        *self.idle_ttl.lock() = ttl;
    }

    /// Number of lock stripes over the handle table.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Open handles right now (gets + puts). Sweeps every stripe first so
    /// the answer reflects the TTL.
    pub fn open_handles(&self) -> usize {
        let now = Instant::now();
        let mut total = 0;
        for stripe in self.stripes.iter() {
            let mut inner = stripe.lock();
            self.expire_idle(&mut inner, now);
            total += inner.gets.len() + inner.puts.len();
        }
        total
    }

    /// Bytes currently parked in reorder buffers.
    pub fn buffered_bytes(&self) -> usize {
        self.buffered_bytes.load(Ordering::Acquire)
    }

    /// High-water of parked reorder-buffer bytes since construction — the
    /// asserted server-memory bound in E13.
    pub fn buffered_high_water(&self) -> usize {
        self.buffered_high_water.load(Ordering::Acquire)
    }

    /// Stripe owning a handle id.
    fn stripe_of_id(&self, id: u64) -> Option<&Mutex<StripeInner>> {
        let idx = (id % self.stripes.len().max(1) as u64) as usize;
        self.stripes.get(idx)
    }

    /// Stripe owning a `t-<id>` handle string; `None` for a handle that
    /// was never minted by this table (malformed id).
    fn stripe_of_handle(&self, handle: &str) -> Option<&Mutex<StripeInner>> {
        let id = handle.strip_prefix("t-")?.parse::<u64>().ok()?;
        self.stripe_of_id(id)
    }

    /// Drop handles idle past the TTL within one stripe; a dropped put
    /// handle's staging object is reclaimed and its parked bytes and
    /// handle slots are returned to the global accounting. Runs at the
    /// head of every operation on that stripe.
    fn expire_idle(&self, inner: &mut StripeInner, now: Instant) {
        let ttl = *self.idle_ttl.lock();
        let mut dropped = 0usize;
        inner.gets.retain(|_, h| {
            let live = now.saturating_duration_since(h.last_used) < ttl;
            if !live {
                dropped += 1;
            }
            live
        });
        let mut reclaimed: Vec<(String, String)> = Vec::new();
        let mut freed = 0usize;
        inner.puts.retain(|_, h| {
            let live = now.saturating_duration_since(h.last_used) < ttl;
            if !live {
                dropped += 1;
                freed = freed.saturating_add(h.pending_bytes);
                reclaimed.push((h.principal.clone(), h.staging.clone()));
            }
            live
        });
        if dropped > 0 {
            self.open_count.fetch_sub(dropped, Ordering::AcqRel);
        }
        if freed > 0 {
            self.buffered_bytes.fetch_sub(freed, Ordering::AcqRel);
        }
        for (principal, staging) in &reclaimed {
            // Best effort: the staging object may already be gone.
            let _ = self.srb.rm(principal, staging);
        }
    }

    /// Reserve one slot against the open-handle cap. If the cap is hit,
    /// sweep every stripe once — idle handles must not hold slots hostage
    /// — and retry before faulting `HandleLimit`.
    fn reserve_slot(&self, now: Instant) -> TransferResult<()> {
        if self.try_reserve_slot() {
            return Ok(());
        }
        for stripe in self.stripes.iter() {
            let mut inner = stripe.lock();
            self.expire_idle(&mut inner, now);
        }
        if self.try_reserve_slot() {
            return Ok(());
        }
        Err(TransferError::HandleLimit(self.max_handles))
    }

    fn try_reserve_slot(&self) -> bool {
        self.open_count
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                if n >= self.max_handles {
                    None
                } else {
                    Some(n + 1)
                }
            })
            .is_ok()
    }

    fn release_slot(&self) {
        self.open_count.fetch_sub(1, Ordering::AcqRel);
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Staging path for a destination: a `.part-<handle>` sibling, so the
    /// ACL and quota keys (both keyed on the top-level collection) match
    /// the destination's exactly.
    fn staging_path(path: &str, id: &str) -> String {
        match path.rsplit_once('/') {
            Some((parent, name)) if !parent.is_empty() => {
                format!("{parent}/.part-{id}-{name}")
            }
            _ => format!("{path}.part-{id}"),
        }
    }

    /// Open a read handle: validates access now, returns `(handle, size)`
    /// so the client can plan its chunk schedule.
    pub fn open_get(&self, principal: &str, path: &str) -> TransferResult<(String, usize)> {
        let size = self.srb.stat(principal, path)?;
        let now = Instant::now();
        self.reserve_slot(now)?;
        let id = self.fresh_id();
        let handle = format!("t-{id}");
        let Some(stripe) = self.stripe_of_id(id) else {
            self.release_slot();
            return Err(TransferError::NoSuchHandle(handle));
        };
        let mut inner = stripe.lock();
        self.expire_idle(&mut inner, now);
        inner.gets.insert(
            handle.clone(),
            GetHandle {
                principal: principal.to_owned(),
                path: path.to_owned(),
                last_used: now,
            },
        );
        Ok((handle, size))
    }

    /// Ranged read through a get handle. A read landing exactly on EOF
    /// returns an empty chunk (the client's end-of-stream signal); pure
    /// and therefore safe to retry at any offset.
    pub fn get_chunk(
        &self,
        principal: &str,
        handle: &str,
        off: usize,
        len: usize,
    ) -> TransferResult<Vec<u8>> {
        if len > MAX_CHUNK_BYTES {
            return Err(TransferError::ChunkTooLarge(len));
        }
        let now = Instant::now();
        let Some(stripe) = self.stripe_of_handle(handle) else {
            return Err(TransferError::NoSuchHandle(handle.to_owned()));
        };
        let (owner, path) = {
            let mut inner = stripe.lock();
            self.expire_idle(&mut inner, now);
            let h = inner
                .gets
                .get_mut(handle)
                .ok_or_else(|| TransferError::NoSuchHandle(handle.to_owned()))?;
            h.last_used = now;
            (h.principal.clone(), h.path.clone())
        };
        if owner != principal {
            return Err(TransferError::NotYourHandle(handle.to_owned()));
        }
        // The ranged read happens outside the stripe lock: the broker does
        // its own locking and a slow read must not stall other handles.
        Ok(self.srb.read_at(principal, &path, off, len)?)
    }

    /// Open a write handle: creates the (empty) staging object so quota
    /// and ACL surface immediately, not at the first chunk. Safe to retry:
    /// a duplicate open just allocates a second handle, which idles out.
    pub fn open_put(&self, principal: &str, path: &str) -> TransferResult<String> {
        let now = Instant::now();
        self.reserve_slot(now)?;
        let id = self.fresh_id();
        let handle = format!("t-{id}");
        let staging = Self::staging_path(path, &handle);
        // Creating the empty staging object validates path, ACL, and (for
        // the zero-byte case) materializes the object a zero-chunk commit
        // will promote.
        if let Err(e) = self.srb.append_at(principal, &staging, 0, b"") {
            self.release_slot();
            return Err(TransferError::Srb(e));
        }
        let Some(stripe) = self.stripe_of_id(id) else {
            self.release_slot();
            let _ = self.srb.rm(principal, &staging);
            return Err(TransferError::NoSuchHandle(handle));
        };
        let mut inner = stripe.lock();
        self.expire_idle(&mut inner, now);
        inner.puts.insert(
            handle.clone(),
            PutHandle {
                principal: principal.to_owned(),
                path: path.to_owned(),
                staging,
                next_off: 0,
                pending: BTreeMap::new(),
                pending_bytes: 0,
                last_used: now,
            },
        );
        Ok(handle)
    }

    /// Accept one chunk at `off`. Contiguous chunks append to staging and
    /// drain any now-contiguous parked chunks; a chunk entirely below the
    /// acknowledged frontier is a retry duplicate and is acknowledged
    /// without re-appending; a chunk ahead of the frontier parks in the
    /// reorder buffer (within budget). Returns the acknowledged frontier.
    pub fn put_chunk(
        &self,
        principal: &str,
        handle: &str,
        off: usize,
        data: &[u8],
    ) -> TransferResult<usize> {
        if data.len() > MAX_CHUNK_BYTES {
            return Err(TransferError::ChunkTooLarge(data.len()));
        }
        let now = Instant::now();
        let Some(stripe) = self.stripe_of_handle(handle) else {
            return Err(TransferError::NoSuchHandle(handle.to_owned()));
        };
        let mut inner = stripe.lock();
        self.expire_idle(&mut inner, now);
        let budget = self.max_buffered;
        let h = inner
            .puts
            .get_mut(handle)
            .ok_or_else(|| TransferError::NoSuchHandle(handle.to_owned()))?;
        if h.principal != principal {
            return Err(TransferError::NotYourHandle(handle.to_owned()));
        }
        h.last_used = now;
        let end = off.saturating_add(data.len());
        if end <= h.next_off {
            // Duplicate of an already-applied chunk (lost response,
            // client resent): acknowledge idempotently.
            return Ok(h.next_off);
        }
        if off < h.next_off {
            // Partial overlap means the client and server disagree about
            // chunk boundaries — that is a protocol bug, not a retry.
            return Err(TransferError::BadOffset {
                handle: handle.to_owned(),
                expected: h.next_off,
                got: off,
            });
        }
        if off > h.next_off {
            // Ahead of the frontier: park it, within budget. A duplicate
            // of an already-parked chunk re-acknowledges for free. The
            // budget reservation is a strict atomic add-within-cap, so
            // concurrent stripes can never overshoot it together.
            if h.pending.contains_key(&off) {
                return Ok(h.next_off);
            }
            let want = data.len();
            let reserved =
                self.buffered_bytes
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| {
                        let total = b.saturating_add(want);
                        if total > budget {
                            None
                        } else {
                            Some(total)
                        }
                    });
            let Ok(before) = reserved else {
                return Err(TransferError::BufferLimit(budget));
            };
            self.buffered_high_water
                .fetch_max(before.saturating_add(want), Ordering::AcqRel);
            h.pending_bytes = h.pending_bytes.saturating_add(want);
            h.pending.insert(off, data.to_vec());
            return Ok(h.next_off);
        }
        // Contiguous: append, then drain any parked chunks that became
        // contiguous. Appends happen under the stripe lock so the staging
        // length and `next_off` can never diverge.
        let principal_owned = h.principal.clone();
        let staging = h.staging.clone();
        let pending_before = h.pending_bytes;
        let mut frontier = off.saturating_add(data.len());
        let mut drained: Vec<Vec<u8>> = Vec::new();
        let drain: TransferResult<()> = loop {
            let head = h
                .pending
                .first_key_value()
                .map(|(&poff, pdata)| (poff, pdata.len()));
            let Some((poff, plen)) = head else {
                break Ok(());
            };
            if poff.saturating_add(plen) <= frontier {
                // Entirely behind the new frontier: stale duplicate.
                if let Some(pdata) = h.pending.remove(&poff) {
                    h.pending_bytes = h.pending_bytes.saturating_sub(pdata.len());
                }
                continue;
            }
            if poff < frontier {
                // Misaligned overlap: protocol bug, not a retry.
                break Err(TransferError::BadOffset {
                    handle: handle.to_owned(),
                    expected: frontier,
                    got: poff,
                });
            }
            if poff > frontier {
                break Ok(());
            }
            if let Some(pdata) = h.pending.remove(&poff) {
                h.pending_bytes = h.pending_bytes.saturating_sub(pdata.len());
                frontier = frontier.saturating_add(pdata.len());
                drained.push(pdata);
            }
        };
        let mut acked = h.next_off;
        let append: TransferResult<()> = match drain {
            Err(e) => Err(e),
            Ok(()) => {
                // The caller's chunk is appended borrowed, never copied.
                let mut out = Ok(());
                for chunk in std::iter::once(data).chain(drained.iter().map(Vec::as_slice)) {
                    match self
                        .srb
                        .append_at(&principal_owned, &staging, h.next_off, chunk)
                    {
                        Ok(_) => {
                            h.next_off = h.next_off.saturating_add(chunk.len());
                            acked = h.next_off;
                        }
                        Err(e) => {
                            out = Err(TransferError::Srb(e));
                            break;
                        }
                    }
                }
                out
            }
        };
        // Whatever happened above, return exactly the bytes this handle
        // released from its reorder buffer to the global budget.
        let freed = pending_before.saturating_sub(h.pending_bytes);
        if freed > 0 {
            self.buffered_bytes.fetch_sub(freed, Ordering::AcqRel);
        }
        append.map(|()| acked)
    }

    /// Promote staging to the destination atomically. Fails `Incomplete`
    /// if parked chunks show bytes are still missing. A retried commit of
    /// an already-committed handle succeeds out of the completed memory.
    pub fn commit(&self, principal: &str, handle: &str) -> TransferResult<usize> {
        let now = Instant::now();
        let Some(stripe) = self.stripe_of_handle(handle) else {
            return Err(TransferError::NoSuchHandle(handle.to_owned()));
        };
        let mut inner = stripe.lock();
        self.expire_idle(&mut inner, now);
        let Some(h) = inner.puts.get(handle) else {
            // Retried commit: the first response was lost after the rename
            // happened. The completed memory keeps that retry idempotent.
            if let Some((_, total, committed)) = inner
                .completed
                .iter()
                .find(|(id, _, _)| id == handle)
                .cloned()
            {
                if committed {
                    return Ok(total);
                }
                return Err(TransferError::NoSuchHandle(handle.to_owned()));
            }
            return Err(TransferError::NoSuchHandle(handle.to_owned()));
        };
        if h.principal != principal {
            return Err(TransferError::NotYourHandle(handle.to_owned()));
        }
        if !h.pending.is_empty() {
            return Err(TransferError::Incomplete {
                handle: handle.to_owned(),
                missing_at: h.next_off,
            });
        }
        // The rename is the atomic step: destination flips old → complete
        // in one broker write-lock critical section.
        self.srb.rename(&h.principal, &h.staging, &h.path)?;
        let total = h.next_off;
        inner.puts.remove(handle);
        self.release_slot();
        Self::remember_completed(&mut inner, handle, total, true);
        Ok(total)
    }

    /// Abandon a transfer: reclaims the staging object (puts) or just the
    /// handle (gets). Idempotent — aborting an unknown or already-settled
    /// handle succeeds, so a retried abort never faults.
    pub fn abort(&self, principal: &str, handle: &str) -> TransferResult<()> {
        let now = Instant::now();
        let Some(stripe) = self.stripe_of_handle(handle) else {
            return Ok(());
        };
        let mut inner = stripe.lock();
        self.expire_idle(&mut inner, now);
        if let Some(h) = inner.gets.get(handle) {
            if h.principal != principal {
                return Err(TransferError::NotYourHandle(handle.to_owned()));
            }
            inner.gets.remove(handle);
            self.release_slot();
            return Ok(());
        }
        let Some(h) = inner.puts.get(handle) else {
            return Ok(());
        };
        if h.principal != principal {
            return Err(TransferError::NotYourHandle(handle.to_owned()));
        }
        let staging = h.staging.clone();
        let owner = h.principal.clone();
        let freed = h.pending_bytes;
        inner.puts.remove(handle);
        self.release_slot();
        if freed > 0 {
            self.buffered_bytes.fetch_sub(freed, Ordering::AcqRel);
        }
        Self::remember_completed(&mut inner, handle, 0, false);
        // Best effort: staging may already be gone if expiry raced.
        let _ = self.srb.rm(&owner, &staging);
        Ok(())
    }

    fn remember_completed(inner: &mut StripeInner, handle: &str, total: usize, committed: bool) {
        if inner.completed.len() >= COMPLETED_MEMORY {
            inner.completed.pop_front();
        }
        inner
            .completed
            .push_back((handle.to_owned(), total, committed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (Arc<Srb>, TransferTable) {
        let srb = Arc::new(Srb::new());
        srb.mkdir("/data").unwrap();
        srb.put("u", "/data/src", b"0123456789abcdef").unwrap();
        let t = TransferTable::new(Arc::clone(&srb));
        (srb, t)
    }

    #[test]
    fn get_handle_ranged_reads_and_eof() {
        let (_, t) = table();
        let (h, size) = t.open_get("u", "/data/src").unwrap();
        assert_eq!(size, 16);
        assert_eq!(t.get_chunk("u", &h, 0, 8).unwrap(), b"01234567");
        assert_eq!(t.get_chunk("u", &h, 8, 8).unwrap(), b"89abcdef");
        // Exactly-at-EOF read is a clean empty chunk.
        assert_eq!(t.get_chunk("u", &h, 16, 8).unwrap(), b"");
        // Retry of an earlier chunk is a pure re-read.
        assert_eq!(t.get_chunk("u", &h, 0, 8).unwrap(), b"01234567");
    }

    #[test]
    fn put_in_order_commit_promotes_atomically() {
        let (srb, t) = table();
        let h = t.open_put("u", "/data/out").unwrap();
        assert_eq!(t.put_chunk("u", &h, 0, b"hello ").unwrap(), 6);
        assert_eq!(t.put_chunk("u", &h, 6, b"world").unwrap(), 11);
        // Destination does not exist until commit.
        assert!(srb.get("u", "/data/out").is_err());
        assert_eq!(t.commit("u", &h).unwrap(), 11);
        assert_eq!(srb.get("u", "/data/out").unwrap(), b"hello world");
        // Staging is gone.
        let names: Vec<String> = srb
            .ls("u", "/data")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(names.iter().all(|n| !n.starts_with(".part-")), "{names:?}");
    }

    #[test]
    fn put_zero_length_round_trips() {
        let (srb, t) = table();
        let h = t.open_put("u", "/data/empty").unwrap();
        assert_eq!(t.commit("u", &h).unwrap(), 0);
        assert_eq!(srb.get("u", "/data/empty").unwrap(), b"");
    }

    #[test]
    fn duplicate_put_chunk_is_acknowledged_not_reapplied() {
        let (srb, t) = table();
        let h = t.open_put("u", "/data/out").unwrap();
        assert_eq!(t.put_chunk("u", &h, 0, b"abc").unwrap(), 3);
        // Retry of the same chunk (lost response).
        assert_eq!(t.put_chunk("u", &h, 0, b"abc").unwrap(), 3);
        assert_eq!(t.put_chunk("u", &h, 3, b"def").unwrap(), 6);
        t.commit("u", &h).unwrap();
        assert_eq!(srb.get("u", "/data/out").unwrap(), b"abcdef");
    }

    #[test]
    fn out_of_order_chunks_park_then_drain() {
        let (srb, t) = table();
        let h = t.open_put("u", "/data/out").unwrap();
        // Window of 3 racing across connections: chunk 2 and 1 land first.
        assert_eq!(t.put_chunk("u", &h, 6, b"ghi").unwrap(), 0);
        assert_eq!(t.put_chunk("u", &h, 3, b"def").unwrap(), 0);
        assert_eq!(t.buffered_bytes(), 6);
        // Chunk 0 arrives, everything drains.
        assert_eq!(t.put_chunk("u", &h, 0, b"abc").unwrap(), 9);
        assert_eq!(t.buffered_bytes(), 0);
        assert!(t.buffered_high_water() >= 6);
        t.commit("u", &h).unwrap();
        assert_eq!(srb.get("u", "/data/out").unwrap(), b"abcdefghi");
    }

    #[test]
    fn commit_with_gap_is_incomplete() {
        let (_, t) = table();
        let h = t.open_put("u", "/data/out").unwrap();
        t.put_chunk("u", &h, 0, b"abc").unwrap();
        t.put_chunk("u", &h, 6, b"ghi").unwrap();
        assert!(matches!(
            t.commit("u", &h),
            Err(TransferError::Incomplete { missing_at: 3, .. })
        ));
    }

    #[test]
    fn retried_commit_and_abort_are_idempotent() {
        let (srb, t) = table();
        let h = t.open_put("u", "/data/out").unwrap();
        t.put_chunk("u", &h, 0, b"xyz").unwrap();
        assert_eq!(t.commit("u", &h).unwrap(), 3);
        // Retry (response was lost): same answer, no fault.
        assert_eq!(t.commit("u", &h).unwrap(), 3);
        assert_eq!(srb.get("u", "/data/out").unwrap(), b"xyz");
        // Abort of unknown/settled handles succeeds.
        t.abort("u", &h).unwrap();
        t.abort("u", "t-9999").unwrap();
    }

    #[test]
    fn abort_reclaims_staging() {
        let (srb, t) = table();
        let h = t.open_put("u", "/data/out").unwrap();
        t.put_chunk("u", &h, 0, b"partial").unwrap();
        t.abort("u", &h).unwrap();
        assert!(srb.get("u", "/data/out").is_err());
        let names: Vec<String> = srb
            .ls("u", "/data")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(names.iter().all(|n| !n.starts_with(".part-")), "{names:?}");
    }

    #[test]
    fn handle_cap_is_busy() {
        let (srb, _) = table();
        let t = TransferTable::with_caps(srb, 2, DEFAULT_MAX_BUFFERED_BYTES);
        t.open_get("u", "/data/src").unwrap();
        t.open_get("u", "/data/src").unwrap();
        let err = t.open_get("u", "/data/src").unwrap_err();
        assert!(matches!(err, TransferError::HandleLimit(2)));
        assert_eq!(
            err.to_fault().kind(),
            Some(portalws_soap::PortalErrorKind::Busy)
        );
    }

    #[test]
    fn handle_cap_reclaims_idle_slots_before_faulting() {
        let (srb, _) = table();
        let t = TransferTable::with_caps(srb, 2, DEFAULT_MAX_BUFFERED_BYTES);
        t.open_get("u", "/data/src").unwrap();
        t.open_get("u", "/data/src").unwrap();
        // Both slots are held by now-idle handles: hitting the cap sweeps
        // every stripe, so the open succeeds instead of faulting Busy.
        t.set_idle_ttl(Duration::ZERO);
        t.open_get("u", "/data/src").unwrap();
    }

    #[test]
    fn buffer_budget_is_busy() {
        let (srb, _) = table();
        let t = TransferTable::with_caps(srb, DEFAULT_MAX_HANDLES, 4);
        let h = t.open_put("u", "/data/out").unwrap();
        // Out-of-order chunk larger than the budget cannot park.
        let err = t.put_chunk("u", &h, 100, b"12345").unwrap_err();
        assert!(matches!(err, TransferError::BufferLimit(4)));
        assert_eq!(
            err.to_fault().kind(),
            Some(portalws_soap::PortalErrorKind::Busy)
        );
    }

    #[test]
    fn idle_handles_expire_and_reclaim_staging() {
        let (srb, t) = table();
        let h = t.open_put("u", "/data/out").unwrap();
        t.put_chunk("u", &h, 0, b"data").unwrap();
        t.set_idle_ttl(Duration::ZERO);
        // Any operation sweeps; the stale handle and its staging go away.
        let _ = t.open_handles();
        let err = {
            t.set_idle_ttl(Duration::ZERO);
            // Trigger a sweep via another op.
            t.put_chunk("u", &h, 4, b"more").unwrap_err()
        };
        assert!(matches!(err, TransferError::NoSuchHandle(_)));
        let names: Vec<String> = srb
            .ls("u", "/data")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(names.iter().all(|n| !n.starts_with(".part-")), "{names:?}");
    }

    #[test]
    fn handles_spread_across_stripes_with_strict_global_accounting() {
        let (srb, t) = table();
        srb.put("u", "/data/big", &[7u8; 64]).unwrap();
        // Mint more handles than stripes: ids are sequential so they land
        // round-robin on every stripe, yet the global count stays exact.
        let mut handles = Vec::new();
        for _ in 0..(TRANSFER_STRIPES * 2) {
            handles.push(t.open_get("u", "/data/big").unwrap().0);
        }
        assert_eq!(t.open_handles(), TRANSFER_STRIPES * 2);
        for h in &handles {
            assert_eq!(t.get_chunk("u", h, 0, 64).unwrap().len(), 64);
            t.abort("u", h).unwrap();
        }
        assert_eq!(t.open_handles(), 0);
        assert_eq!(t.buffered_bytes(), 0);
    }

    #[test]
    fn expiry_releases_parked_bytes_to_the_global_budget() {
        let (srb, _) = table();
        let t = TransferTable::with_caps(srb, DEFAULT_MAX_HANDLES, 8);
        let h = t.open_put("u", "/data/out").unwrap();
        // Park 6 of the 8-byte budget out of order.
        assert_eq!(t.put_chunk("u", &h, 10, b"xxxxxx").unwrap(), 0);
        assert_eq!(t.buffered_bytes(), 6);
        // Expire the handle: its parked bytes must come back to the budget
        // or every future transfer would inherit a phantom reservation.
        t.set_idle_ttl(Duration::ZERO);
        assert_eq!(t.open_handles(), 0);
        assert_eq!(t.buffered_bytes(), 0);
        t.set_idle_ttl(DEFAULT_IDLE_TTL);
        let h2 = t.open_put("u", "/data/out2").unwrap();
        assert_eq!(t.put_chunk("u", &h2, 10, b"yyyyyy").unwrap(), 0);
        assert_eq!(t.buffered_bytes(), 6);
    }

    #[test]
    fn foreign_principal_rejected() {
        let (_, t) = table();
        let (h, _) = t.open_get("u", "/data/src").unwrap();
        assert!(matches!(
            t.get_chunk("mallory", &h, 0, 4),
            Err(TransferError::NotYourHandle(_))
        ));
        let hp = t.open_put("u", "/data/out").unwrap();
        assert!(matches!(
            t.put_chunk("mallory", &hp, 0, b"x"),
            Err(TransferError::NotYourHandle(_))
        ));
        assert!(matches!(
            t.commit("mallory", &hp),
            Err(TransferError::NotYourHandle(_))
        ));
        assert!(matches!(
            t.abort("mallory", &hp),
            Err(TransferError::NotYourHandle(_))
        ));
    }

    #[test]
    fn oversized_chunk_rejected() {
        let (_, t) = table();
        let (h, _) = t.open_get("u", "/data/src").unwrap();
        assert!(matches!(
            t.get_chunk("u", &h, 0, MAX_CHUNK_BYTES + 1),
            Err(TransferError::ChunkTooLarge(_))
        ));
    }
}
