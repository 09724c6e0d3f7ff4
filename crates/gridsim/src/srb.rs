//! In-memory Storage Resource Broker (SRB) simulation.
//!
//! §3.2 wraps "a small subset of SRB's functionality": `ls`, `cat`, `get`,
//! `put`, and the batched `xml_call`. This module is the broker itself —
//! hierarchical *collections* holding byte objects, per-user permissions
//! (the real SRB calls were "GSI authenticated"), and per-collection
//! quotas so that the paper's canonical implementation error ("the file
//! didn't get transferred because the disk was full") is reachable.
//!
//! # Lock striping
//!
//! The namespace is split across N stripes keyed by the FNV-1a hash of the
//! *top-level* collection name, so every path-addressed operation takes
//! only the owning stripe's lock and operations on unrelated collections
//! never contend. ACL and quota entries are keyed on the top-level
//! collection, so they live on the same stripe as the tree they govern —
//! one lock still covers the whole check-then-mutate sequence.
//!
//! Beside those maps, each stripe keeps a running byte total per top-level
//! collection. Every mutation that adds, replaces or removes object bytes
//! updates it under the stripe write lock it already holds, so a quota
//! check reads one map entry instead of walking every object under the
//! top. Cross-stripe moves and copies update both totals while holding both
//! stripe locks, so no reader sees the bytes counted in neither top or in
//! both.
//!
//! Cross-stripe `rename`/`cp` take both stripe locks in **ascending stripe
//! index** order (the canonical global order). Since every multi-stripe
//! acquisition in the process uses the same order, the acquired-before
//! graph the parking_lot shim maintains in debug builds stays acyclic.
//!
//! Each stripe also carries a *device channel*: an optional simulated
//! storage service time (one op at a time per stripe, like a disk with one
//! head). It is zero — a no-op — unless a bench opts in via
//! [`Srb::set_service_time_us`]; the e16 shard bench uses it to measure
//! how lock/stripe granularity bounds the concurrency of disk-like
//! service times independently of host core count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::{Mutex, RwLock, RwLockWriteGuard};

use std::fmt;

/// Default stripe count for [`Srb::new`].
pub const DEFAULT_STRIPES: usize = 8;

/// SRB operation failures, mapped by the data-management service onto the
/// portal's common error codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SrbError {
    /// No such collection or object.
    NotFound(String),
    /// The principal lacks access to the collection.
    PermissionDenied(String),
    /// Writing would exceed the collection quota.
    DiskFull { path: String, quota: usize },
    /// Object exists where a collection is needed, or vice versa.
    Invalid(String),
}

impl fmt::Display for SrbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SrbError::NotFound(p) => write!(f, "not found: {p}"),
            SrbError::PermissionDenied(p) => write!(f, "permission denied: {p}"),
            SrbError::DiskFull { path, quota } => {
                write!(f, "disk full: {path} (quota {quota} bytes)")
            }
            SrbError::Invalid(msg) => write!(f, "invalid: {msg}"),
        }
    }
}

impl std::error::Error for SrbError {}

type SrbResult<T> = std::result::Result<T, SrbError>;

/// A directory listing entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name.
    pub name: String,
    /// True for sub-collections.
    pub is_collection: bool,
    /// Object size in bytes (0 for collections).
    pub size: usize,
}

#[derive(Debug, Default)]
struct Collection {
    children: BTreeMap<String, Node>,
}

#[derive(Debug)]
enum Node {
    Collection(Collection),
    Object(Vec<u8>),
}

struct SrbState {
    root: Collection,
    /// Principals allowed per top-level collection; empty = world-readable.
    acls: BTreeMap<String, Vec<String>>,
    /// Byte quota per top-level collection.
    quotas: BTreeMap<String, usize>,
    /// Object bytes stored under each top-level collection: the running
    /// total the quota checks read. Only tops holding bytes have an entry,
    /// so the map is bounded by the live namespace.
    usage: BTreeMap<String, usize>,
}

impl SrbState {
    fn empty() -> SrbState {
        SrbState {
            root: Collection::default(),
            acls: BTreeMap::new(),
            quotas: BTreeMap::new(),
            usage: BTreeMap::new(),
        }
    }

    /// Object bytes stored under `top`.
    fn used(&self, top: &str) -> usize {
        self.usage.get(top).copied().unwrap_or(0)
    }

    /// Record `added` bytes arriving under `top` and `removed` bytes
    /// leaving it.
    fn charge(&mut self, top: &str, added: usize, removed: usize) {
        match self.usage.get_mut(top) {
            Some(used) => {
                *used = *used + added - removed;
                if *used == 0 {
                    self.usage.remove(top);
                }
            }
            None if added > removed => {
                self.usage.insert(top.to_owned(), added - removed);
            }
            None => {}
        }
    }
}

/// One namespace stripe: the state it owns, its op counter, and its
/// simulated storage device channel.
struct Stripe {
    state: RwLock<SrbState>,
    /// Operations routed to this stripe (balance diagnostics).
    ops: AtomicU64,
    /// Serializes the simulated per-stripe storage service time.
    device: Mutex<()>,
}

/// The broker.
pub struct Srb {
    stripes: Box<[Stripe]>,
    /// Simulated per-op storage service time, in microseconds; zero (the
    /// default) disables the device model entirely.
    service_time_us: AtomicU64,
}

/// FNV-1a over the top-level collection name — the stripe routing hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Parse a logical SRB path. Paths are absolute with non-empty segments;
/// a missing leading slash, a doubled slash, or a trailing slash is
/// malformed and faults rather than being silently collapsed —
/// `//home-alice` must not resolve as if it were `/home-alice` (or, worse,
/// skip the top-level segment the ACL and quota lookups key on).
fn split(path: &str) -> SrbResult<Vec<&str>> {
    let rest = path
        .strip_prefix('/')
        .ok_or_else(|| SrbError::Invalid(format!("path {path:?} is not absolute")))?;
    if rest.is_empty() {
        return Err(SrbError::Invalid("empty path".into()));
    }
    let segs: Vec<&str> = rest.split('/').collect();
    if segs.iter().any(|s| s.is_empty()) {
        return Err(SrbError::Invalid(format!(
            "path {path:?} has an empty segment"
        )));
    }
    Ok(segs)
}

impl Default for Srb {
    fn default() -> Self {
        Srb::new()
    }
}

impl Srb {
    /// An empty broker with [`DEFAULT_STRIPES`] stripes.
    pub fn new() -> Srb {
        Srb::with_stripes(DEFAULT_STRIPES)
    }

    /// An empty broker whose namespace is split across `stripes` locks
    /// (clamped to at least one).
    pub fn with_stripes(stripes: usize) -> Srb {
        let n = stripes.max(1);
        let stripes: Vec<Stripe> = (0..n)
            .map(|i| Stripe {
                state: RwLock::new_named(SrbState::empty(), &format!("srb-stripe-{i}")),
                ops: AtomicU64::new(0),
                device: Mutex::new_named((), &format!("srb-device-{i}")),
            })
            .collect();
        Srb {
            stripes: stripes.into_boxed_slice(),
            service_time_us: AtomicU64::new(0),
        }
    }

    /// Number of namespace stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Operations routed to each stripe so far (balance diagnostics for
    /// the shard bench).
    pub fn stripe_op_counts(&self) -> Vec<u64> {
        self.stripes
            .iter()
            .map(|s| s.ops.load(Ordering::Relaxed))
            .collect()
    }

    /// Enable the per-stripe simulated storage device: every operation
    /// holds its stripe's device channel for `us` microseconds before
    /// touching state, so a stripe serves one op per service time like a
    /// single-head disk. Zero disables the model (the default; no
    /// deployment sets it — only benches opt in).
    pub fn set_service_time_us(&self, us: u64) {
        self.service_time_us.store(us, Ordering::Relaxed);
    }

    /// Stripe index owning top-level collection `top`.
    fn stripe_idx(&self, top: &str) -> usize {
        (fnv1a(top.as_bytes()) % self.stripes.len() as u64) as usize
    }

    fn stripe_for(&self, segs: &[&str]) -> usize {
        segs.first().map(|top| self.stripe_idx(top)).unwrap_or(0)
    }

    /// Count an op against stripe `idx` and, when the device model is on,
    /// occupy the stripe's device channel for one service time. The
    /// channel mutex is released before any state lock is taken, so the
    /// simulated I/O never extends state critical sections.
    fn touch(&self, idx: usize) {
        self.stripes[idx].ops.fetch_add(1, Ordering::Relaxed);
        let us = self.service_time_us.load(Ordering::Relaxed);
        if us > 0 {
            let _channel = self.stripes[idx].device.lock();
            // portalint: allow(reactor-blocking) — simulated storage service time; zero (never reached) in every server deployment, enabled only by the e16 shard bench
            std::thread::sleep(Duration::from_micros(us));
        }
    }

    /// Write-lock stripes `i` and `j` (`i != j`) in ascending index order —
    /// the canonical global order every multi-stripe operation uses — and
    /// return the guards as `(stripe i, stripe j)`.
    fn write_pair(
        &self,
        i: usize,
        j: usize,
    ) -> (
        RwLockWriteGuard<'_, SrbState>,
        RwLockWriteGuard<'_, SrbState>,
    ) {
        debug_assert_ne!(i, j);
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let g_lo = self.stripes[lo].state.write();
        let g_hi = self.stripes[hi].state.write();
        if i < j {
            (g_lo, g_hi)
        } else {
            (g_hi, g_lo)
        }
    }

    /// Restrict a top-level collection to `principals`.
    pub fn set_acl(&self, top: &str, principals: Vec<String>) {
        let top = top.trim_matches('/').to_owned();
        let idx = self.stripe_idx(&top);
        self.stripes[idx].state.write().acls.insert(top, principals);
    }

    /// Set a byte quota on a top-level collection.
    pub fn set_quota(&self, top: &str, bytes: usize) {
        let top = top.trim_matches('/').to_owned();
        let idx = self.stripe_idx(&top);
        self.stripes[idx].state.write().quotas.insert(top, bytes);
    }

    /// The top-level segment: the key of the ACL, quota and usage maps.
    /// `split` guarantees a non-empty, non-blank top segment; an empty
    /// slice here is a caller bug, not a world-readable root.
    fn top<'s>(segs: &[&'s str]) -> SrbResult<&'s str> {
        segs.first()
            .copied()
            .ok_or_else(|| SrbError::Invalid("empty path".into()))
    }

    fn check_access(state: &SrbState, principal: &str, segs: &[&str]) -> SrbResult<()> {
        let top = Self::top(segs)?;
        if let Some(allowed) = state.acls.get(top) {
            if !allowed.iter().any(|p| p == principal) {
                return Err(SrbError::PermissionDenied(format!("/{top}")));
            }
        }
        Ok(())
    }

    /// Refuse `incoming` bytes landing at `segs` when they would take its
    /// top-level collection past its quota. With `replacing`, the bytes of
    /// an object already at `segs` leave with the write and do not count.
    /// The top must exist before its quota is read, so a missing top fails
    /// `NotFound` first.
    fn check_quota(
        state: &SrbState,
        segs: &[&str],
        incoming: usize,
        replacing: bool,
    ) -> SrbResult<()> {
        let top = Self::top(segs)?;
        if let Some(&quota) = state.quotas.get(top) {
            let existing = if replacing {
                let (name, dirs) = Self::leaf(segs)?;
                match Self::descend(&state.root, dirs).map(|c| c.children.get(name)) {
                    Ok(Some(Node::Object(bytes))) => bytes.len(),
                    _ => 0,
                }
            } else {
                0
            };
            Self::descend(&state.root, &segs[..1])?;
            if state.used(top) - existing + incoming > quota {
                return Err(SrbError::DiskFull {
                    path: format!("/{top}"),
                    quota,
                });
            }
        }
        Ok(())
    }

    fn descend<'c>(root: &'c Collection, segs: &[&str]) -> SrbResult<&'c Collection> {
        let mut cur = root;
        for seg in segs {
            match cur.children.get(*seg) {
                Some(Node::Collection(c)) => cur = c,
                Some(Node::Object(_)) => {
                    return Err(SrbError::Invalid(format!("{seg:?} is an object")))
                }
                None => return Err(SrbError::NotFound(format!("collection {seg:?}"))),
            }
        }
        Ok(cur)
    }

    fn descend_mut<'c>(root: &'c mut Collection, segs: &[&str]) -> SrbResult<&'c mut Collection> {
        let mut cur = root;
        for seg in segs {
            match cur.children.get_mut(*seg) {
                Some(Node::Collection(c)) => cur = c,
                Some(Node::Object(_)) => {
                    return Err(SrbError::Invalid(format!("{seg:?} is an object")))
                }
                None => return Err(SrbError::NotFound(format!("collection {seg:?}"))),
            }
        }
        Ok(cur)
    }

    /// Create a collection (and intermediates).
    pub fn mkdir(&self, path: &str) -> SrbResult<()> {
        let segs = split(path)?;
        let idx = self.stripe_for(&segs);
        self.touch(idx);
        let mut state = self.stripes[idx].state.write();
        let mut cur = &mut state.root;
        for seg in segs {
            let entry = cur
                .children
                .entry(seg.to_owned())
                .or_insert_with(|| Node::Collection(Collection::default()));
            match entry {
                Node::Collection(c) => cur = c,
                Node::Object(_) => return Err(SrbError::Invalid(format!("{seg:?} is an object"))),
            }
        }
        Ok(())
    }

    /// List the root: every top-level collection across all stripes, in
    /// name order. Paths below the root go through [`Srb::ls`]; the root
    /// itself has no single owning stripe, so this merges them. Names
    /// only — per-collection ACLs still guard everything beneath.
    pub fn ls_root(&self) -> Vec<DirEntry> {
        let mut entries: Vec<DirEntry> = Vec::new();
        for stripe in self.stripes.iter() {
            let state = stripe.state.read();
            entries.extend(state.root.children.iter().map(|(name, node)| match node {
                Node::Collection(_) => DirEntry {
                    name: name.clone(),
                    is_collection: true,
                    size: 0,
                },
                Node::Object(bytes) => DirEntry {
                    name: name.clone(),
                    is_collection: false,
                    size: bytes.len(),
                },
            }));
        }
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// List a collection.
    pub fn ls(&self, principal: &str, path: &str) -> SrbResult<Vec<DirEntry>> {
        let mut entries = Vec::new();
        self.ls_each(principal, path, |name, is_collection, size| {
            entries.push(DirEntry {
                name: name.to_owned(),
                is_collection,
                size,
            })
        })?;
        Ok(entries)
    }

    /// Visit a collection's entries in name order, copying nothing: `f`
    /// gets each entry's name, whether it is a collection, and its size
    /// (0 for a collection), as [`Srb::ls`] would list them.
    ///
    /// `f` runs under the stripe's read lock, so it must not call back
    /// into the broker: a call that writes the same stripe deadlocks, and
    /// even a read can wait behind a writer queued for the lock `f` holds.
    pub fn ls_each(
        &self,
        principal: &str,
        path: &str,
        mut f: impl FnMut(&str, bool, usize),
    ) -> SrbResult<()> {
        let segs = split(path)?;
        let idx = self.stripe_for(&segs);
        self.touch(idx);
        let state = self.stripes[idx].state.read();
        Self::check_access(&state, principal, &segs)?;
        let col = Self::descend(&state.root, &segs)?;
        for (name, node) in &col.children {
            match node {
                Node::Collection(_) => f(name, true, 0),
                Node::Object(bytes) => f(name, false, bytes.len()),
            }
        }
        Ok(())
    }

    /// Read an object's bytes.
    pub fn get(&self, principal: &str, path: &str) -> SrbResult<Vec<u8>> {
        let segs = split(path)?;
        let idx = self.stripe_for(&segs);
        self.touch(idx);
        let state = self.stripes[idx].state.read();
        Self::check_access(&state, principal, &segs)?;
        let (name, dirs) = segs.split_last().expect("split checked non-empty");
        let col = Self::descend(&state.root, dirs)?;
        match col.children.get(*name) {
            Some(Node::Object(bytes)) => Ok(bytes.clone()),
            Some(Node::Collection(_)) => {
                Err(SrbError::Invalid(format!("{name:?} is a collection")))
            }
            None => Err(SrbError::NotFound(path.to_owned())),
        }
    }

    /// Read an object as UTF-8 text (the `cat` call).
    pub fn cat(&self, principal: &str, path: &str) -> SrbResult<String> {
        let bytes = self.get(principal, path)?;
        String::from_utf8(bytes).map_err(|_| SrbError::Invalid("object is not UTF-8".into()))
    }

    /// Write (create or replace) an object. Enforces the top-level quota.
    pub fn put(&self, principal: &str, path: &str, data: &[u8]) -> SrbResult<()> {
        let segs = split(path)?;
        let idx = self.stripe_for(&segs);
        self.touch(idx);
        let mut state = self.stripes[idx].state.write();
        Self::check_access(&state, principal, &segs)?;
        Self::check_quota(&state, &segs, data.len(), true)?;
        let (top, (name, dirs)) = (Self::top(&segs)?, Self::leaf(&segs)?);
        let col = Self::descend_mut(&mut state.root, dirs)?;
        let replaced = match col.children.get_mut(name) {
            Some(Node::Collection(_)) => {
                return Err(SrbError::Invalid(format!("{name:?} is a collection")))
            }
            Some(Node::Object(bytes)) => std::mem::replace(bytes, data.to_vec()).len(),
            None => {
                col.children
                    .insert(name.to_owned(), Node::Object(data.to_vec()));
                0
            }
        };
        state.charge(top, data.len(), replaced);
        Ok(())
    }

    /// Delete an object.
    pub fn rm(&self, principal: &str, path: &str) -> SrbResult<()> {
        let segs = split(path)?;
        let idx = self.stripe_for(&segs);
        self.touch(idx);
        let mut state = self.stripes[idx].state.write();
        Self::check_access(&state, principal, &segs)?;
        Self::remove_object(&mut state, &segs, path).map(drop)
    }

    /// Size of an object, without transferring (or cloning) it.
    pub fn stat(&self, principal: &str, path: &str) -> SrbResult<usize> {
        let segs = split(path)?;
        let idx = self.stripe_for(&segs);
        self.touch(idx);
        let state = self.stripes[idx].state.read();
        Self::check_access(&state, principal, &segs)?;
        let (name, dirs) = Self::leaf(&segs)?;
        let col = Self::descend(&state.root, dirs)?;
        match col.children.get(name) {
            Some(Node::Object(bytes)) => Ok(bytes.len()),
            Some(Node::Collection(_)) => {
                Err(SrbError::Invalid(format!("{name:?} is a collection")))
            }
            None => Err(SrbError::NotFound(path.to_owned())),
        }
    }

    /// Split validated segments into `(leaf name, parent dirs)`.
    fn leaf<'s>(segs: &'s [&'s str]) -> SrbResult<(&'s str, &'s [&'s str])> {
        match segs.split_last() {
            Some((name, dirs)) => Ok((name, dirs)),
            None => Err(SrbError::Invalid("empty path".into())),
        }
    }

    /// Read up to `len` bytes of an object starting at byte `off`, without
    /// cloning the rest of it — the ranged read under the chunked transfer
    /// path (E13). `off == size` is a clean EOF (empty result); `off >
    /// size` faults, flagging a client offset bug rather than hiding it.
    pub fn read_at(
        &self,
        principal: &str,
        path: &str,
        off: usize,
        len: usize,
    ) -> SrbResult<Vec<u8>> {
        let segs = split(path)?;
        let idx = self.stripe_for(&segs);
        self.touch(idx);
        let state = self.stripes[idx].state.read();
        Self::check_access(&state, principal, &segs)?;
        let (name, dirs) = Self::leaf(&segs)?;
        let col = Self::descend(&state.root, dirs)?;
        match col.children.get(name) {
            Some(Node::Object(bytes)) => {
                if off > bytes.len() {
                    return Err(SrbError::Invalid(format!(
                        "read_at offset {off} past end of {path:?} ({} bytes)",
                        bytes.len()
                    )));
                }
                let end = off.saturating_add(len).min(bytes.len());
                Ok(bytes.get(off..end).unwrap_or_default().to_vec())
            }
            Some(Node::Collection(_)) => {
                Err(SrbError::Invalid(format!("{name:?} is a collection")))
            }
            None => Err(SrbError::NotFound(path.to_owned())),
        }
    }

    /// Append `data` to an object whose current size must equal
    /// `expected_off` (creating it when `expected_off == 0` and it does
    /// not exist). Returns the new size. The expected-offset check is the
    /// server-side seam the chunked `put` protocol validates against: a
    /// duplicate or out-of-order chunk shows up as a mismatch here instead
    /// of silently corrupting the object. Enforces the top-level quota
    /// against only the appended bytes.
    pub fn append_at(
        &self,
        principal: &str,
        path: &str,
        expected_off: usize,
        data: &[u8],
    ) -> SrbResult<usize> {
        let segs = split(path)?;
        let idx = self.stripe_for(&segs);
        self.touch(idx);
        let mut state = self.stripes[idx].state.write();
        Self::check_access(&state, principal, &segs)?;
        let (name, dirs) = Self::leaf(&segs)?;
        let current = match Self::descend(&state.root, dirs)
            .ok()
            .and_then(|c| c.children.get(name))
        {
            Some(Node::Object(bytes)) => Some(bytes.len()),
            Some(Node::Collection(_)) => {
                return Err(SrbError::Invalid(format!("{name:?} is a collection")))
            }
            None => None,
        };
        match current {
            Some(size) if size != expected_off => {
                return Err(SrbError::Invalid(format!(
                    "append_at expected offset {expected_off} but {path:?} has {size} bytes"
                )))
            }
            None if expected_off != 0 => return Err(SrbError::NotFound(path.to_owned())),
            _ => {}
        }
        Self::check_quota(&state, &segs, data.len(), false)?;
        let top = Self::top(&segs)?;
        let col = Self::descend_mut(&mut state.root, dirs)?;
        let size = match col.children.get_mut(name) {
            Some(Node::Object(bytes)) => {
                bytes.extend_from_slice(data);
                bytes.len()
            }
            Some(Node::Collection(_)) => {
                return Err(SrbError::Invalid(format!("{name:?} is a collection")))
            }
            None => {
                col.children
                    .insert(name.to_owned(), Node::Object(data.to_vec()));
                data.len()
            }
        };
        state.charge(top, data.len(), 0);
        Ok(size)
    }

    /// Source-side validation for a move/copy: the principal may access
    /// the tree and the source is an existing object. Returns its size.
    fn peek_object_size(
        state: &SrbState,
        principal: &str,
        segs: &[&str],
        path: &str,
    ) -> SrbResult<usize> {
        Self::check_access(state, principal, segs)?;
        let (name, dirs) = Self::leaf(segs)?;
        let col = Self::descend(&state.root, dirs)?;
        match col.children.get(name) {
            Some(Node::Object(bytes)) => Ok(bytes.len()),
            Some(Node::Collection(_)) => {
                Err(SrbError::Invalid(format!("{name:?} is a collection")))
            }
            None => Err(SrbError::NotFound(path.to_owned())),
        }
    }

    /// Destination-side validation for a move/copy: access, an existing
    /// parent collection, the target not being a collection, and — when
    /// the destination top-level collection carries a quota — room for
    /// `incoming` bytes net of the object being replaced. Returns nothing;
    /// a failure here leaves both trees untouched.
    fn check_dest(
        state: &SrbState,
        principal: &str,
        segs: &[&str],
        incoming: usize,
    ) -> SrbResult<()> {
        Self::check_access(state, principal, segs)?;
        let (name, dirs) = Self::leaf(segs)?;
        let dest = Self::descend(&state.root, dirs)?;
        if let Some(Node::Collection(_)) = dest.children.get(name) {
            return Err(SrbError::Invalid(format!("{name:?} is a collection")));
        }
        Self::check_quota(state, segs, incoming, true)
    }

    /// Detach a source object, returning its bytes.
    fn remove_object(state: &mut SrbState, segs: &[&str], path: &str) -> SrbResult<Vec<u8>> {
        let (top, (name, dirs)) = (Self::top(segs)?, Self::leaf(segs)?);
        let col = Self::descend_mut(&mut state.root, dirs)?;
        let bytes = match col.children.remove(name) {
            Some(Node::Object(bytes)) => bytes,
            Some(other) => {
                // Not an object: put whatever it was back rather than
                // dropping it.
                col.children.insert(name.to_owned(), other);
                return Err(SrbError::Invalid(format!("{name:?} is a collection")));
            }
            None => return Err(SrbError::NotFound(path.to_owned())),
        };
        state.charge(top, 0, bytes.len());
        Ok(bytes)
    }

    /// Attach `bytes` at a validated destination (replacing any object).
    fn insert_object(state: &mut SrbState, segs: &[&str], bytes: Vec<u8>) -> SrbResult<()> {
        let (top, (name, dirs)) = (Self::top(segs)?, Self::leaf(segs)?);
        let added = bytes.len();
        let col = Self::descend_mut(&mut state.root, dirs)?;
        let replaced = match col.children.insert(name.to_owned(), Node::Object(bytes)) {
            Some(Node::Object(old)) => old.len(),
            _ => 0,
        };
        state.charge(top, added, replaced);
        Ok(())
    }

    /// Atomically move an object from `from` to `to` (replacing any
    /// existing object at `to`) — the commit step of the chunked `put`:
    /// the destination either keeps its old content or gains the complete
    /// staged content, never a torn mixture.
    ///
    /// Moves may now cross top-level collections (and therefore stripes):
    /// the caller must be allowed on both trees, the destination quota is
    /// enforced on the incoming bytes when the tops differ, and when the
    /// two tops live on different stripes both stripe locks are taken in
    /// the canonical ascending-index order so every interleaving with
    /// other multi-stripe operations is deadlock-free.
    pub fn rename(&self, principal: &str, from: &str, to: &str) -> SrbResult<()> {
        let from_segs = split(from)?;
        let to_segs = split(to)?;
        let cross_top = from_segs.first() != to_segs.first();
        let si = self.stripe_for(&from_segs);
        let di = self.stripe_for(&to_segs);
        self.touch(si);
        if di != si {
            self.touch(di);
        }
        if si == di {
            let mut state = self.stripes[si].state.write();
            let size = Self::peek_object_size(&state, principal, &from_segs, from)?;
            // Within one top-level collection a move brings no new bytes;
            // it can only free the object it replaces.
            Self::check_dest(
                &state,
                principal,
                &to_segs,
                if cross_top { size } else { 0 },
            )?;
            let bytes = Self::remove_object(&mut state, &from_segs, from)?;
            Self::insert_object(&mut state, &to_segs, bytes)
        } else {
            let (mut src, mut dst) = self.write_pair(si, di);
            let size = Self::peek_object_size(&src, principal, &from_segs, from)?;
            Self::check_dest(&dst, principal, &to_segs, size)?;
            let bytes = Self::remove_object(&mut src, &from_segs, from)?;
            Self::insert_object(&mut dst, &to_segs, bytes)
        }
    }

    /// Copy an object from `from` to `to` (replacing any existing object
    /// at `to`), leaving the source in place. The destination quota is
    /// always charged for the incoming bytes; cross-stripe copies take
    /// both stripe locks in the canonical ascending-index order, so the
    /// destination gains either nothing or the complete source content.
    pub fn cp(&self, principal: &str, from: &str, to: &str) -> SrbResult<()> {
        let from_segs = split(from)?;
        let to_segs = split(to)?;
        if from_segs == to_segs {
            // A self-copy is a no-op once validated.
            let idx = self.stripe_for(&from_segs);
            self.touch(idx);
            let state = self.stripes[idx].state.read();
            Self::peek_object_size(&state, principal, &from_segs, from)?;
            return Ok(());
        }
        let si = self.stripe_for(&from_segs);
        let di = self.stripe_for(&to_segs);
        self.touch(si);
        if di != si {
            self.touch(di);
        }
        if si == di {
            let mut state = self.stripes[si].state.write();
            let size = Self::peek_object_size(&state, principal, &from_segs, from)?;
            Self::check_dest(&state, principal, &to_segs, size)?;
            let bytes = {
                let (name, dirs) = Self::leaf(&from_segs)?;
                match Self::descend(&state.root, dirs)?.children.get(name) {
                    Some(Node::Object(bytes)) => bytes.clone(),
                    _ => return Err(SrbError::NotFound(from.to_owned())),
                }
            };
            Self::insert_object(&mut state, &to_segs, bytes)
        } else {
            let (src, mut dst) = self.write_pair(si, di);
            let size = Self::peek_object_size(&src, principal, &from_segs, from)?;
            Self::check_dest(&dst, principal, &to_segs, size)?;
            let bytes = {
                let (name, dirs) = Self::leaf(&from_segs)?;
                match Self::descend(&src.root, dirs)?.children.get(name) {
                    Some(Node::Object(bytes)) => bytes.clone(),
                    _ => return Err(SrbError::NotFound(from.to_owned())),
                }
            };
            Self::insert_object(&mut dst, &to_segs, bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A broker with one home collection per user, open only to its user.
    fn homes(users: &[&str]) -> Srb {
        let srb = Srb::new();
        for user in users {
            let home = format!("/home-{user}");
            srb.mkdir(&home).unwrap();
            srb.set_acl(&home, vec![(*user).to_owned()]);
        }
        srb
    }

    #[test]
    fn put_get_cat_round_trip() {
        let srb = Srb::new();
        srb.mkdir("/data").unwrap();
        srb.put("u", "/data/hello.txt", b"hello srb").unwrap();
        assert_eq!(srb.get("u", "/data/hello.txt").unwrap(), b"hello srb");
        assert_eq!(srb.cat("u", "/data/hello.txt").unwrap(), "hello srb");
        assert_eq!(srb.stat("u", "/data/hello.txt").unwrap(), 9);
    }

    #[test]
    fn ls_lists_objects_and_collections() {
        let srb = Srb::new();
        srb.mkdir("/data/sub").unwrap();
        srb.put("u", "/data/a.txt", b"aaa").unwrap();
        let entries = srb.ls("u", "/data").unwrap();
        assert_eq!(entries.len(), 2);
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a.txt", "sub"]);
        assert!(!entries[0].is_collection);
        assert_eq!(entries[0].size, 3);
        assert!(entries[1].is_collection);
    }

    #[test]
    fn missing_paths_error() {
        let srb = Srb::new();
        assert!(matches!(srb.ls("u", "/ghost"), Err(SrbError::NotFound(_))));
        assert!(matches!(
            srb.get("u", "/ghost/x"),
            Err(SrbError::NotFound(_))
        ));
        assert!(matches!(
            srb.rm("u", "/ghost/x"),
            Err(SrbError::NotFound(_))
        ));
    }

    #[test]
    fn acl_enforced() {
        let srb = homes(&["alice"]);
        srb.mkdir("/public").unwrap();
        srb.put("anonymous", "/public/README", b"readme").unwrap();
        assert!(srb.ls("alice", "/home-alice").is_ok());
        assert!(matches!(
            srb.ls("mallory", "/home-alice"),
            Err(SrbError::PermissionDenied(_))
        ));
        // Public collection readable by anyone.
        assert!(srb.cat("mallory", "/public/README").is_ok());
    }

    #[test]
    fn quota_produces_disk_full() {
        let srb = Srb::new();
        srb.mkdir("/small").unwrap();
        srb.set_quota("/small", 10);
        srb.put("u", "/small/a", b"12345").unwrap();
        let err = srb.put("u", "/small/b", b"123456").unwrap_err();
        assert!(matches!(err, SrbError::DiskFull { .. }));
        // Replacing an object reuses its budget.
        srb.put("u", "/small/a", b"1234567890").unwrap();
    }

    #[test]
    fn replace_and_remove() {
        let srb = Srb::new();
        srb.mkdir("/d").unwrap();
        srb.put("u", "/d/f", b"one").unwrap();
        srb.put("u", "/d/f", b"two").unwrap();
        assert_eq!(srb.cat("u", "/d/f").unwrap(), "two");
        srb.rm("u", "/d/f").unwrap();
        assert!(srb.get("u", "/d/f").is_err());
    }

    #[test]
    fn object_collection_confusion_rejected() {
        let srb = Srb::new();
        srb.mkdir("/d").unwrap();
        srb.put("u", "/d/f", b"x").unwrap();
        assert!(matches!(srb.mkdir("/d/f"), Err(SrbError::Invalid(_))));
        assert!(matches!(srb.get("u", "/d"), Err(SrbError::Invalid(_))));
        assert!(matches!(
            srb.put("u", "/d", b"y"),
            Err(SrbError::Invalid(_))
        ));
    }

    #[test]
    fn non_utf8_cat_rejected_but_get_works() {
        let srb = Srb::new();
        srb.mkdir("/d").unwrap();
        srb.put("u", "/d/bin", &[0xFF, 0xFE]).unwrap();
        assert!(srb.cat("u", "/d/bin").is_err());
        assert_eq!(srb.get("u", "/d/bin").unwrap(), vec![0xFF, 0xFE]);
    }

    #[test]
    fn malformed_paths_fault_instead_of_resolving_as_root() {
        // Regression (flushed out by the e12 chaos soak's path fuzzing):
        // `segs.first().copied().unwrap_or("")` silently treated these as
        // the root collection, so `//home-alice` bypassed the ACL keyed on
        // "home-alice". Each malformed shape must fault.
        let srb = homes(&["alice"]);
        for bad in [
            "",
            "/",
            "//",
            "home-alice",         // not absolute
            "//home-alice",       // doubled leading slash
            "/home-alice//notes", // empty middle segment
            "/home-alice/",       // trailing slash
        ] {
            assert!(
                matches!(srb.ls("mallory", bad), Err(SrbError::Invalid(_))),
                "ls({bad:?}) must be Invalid"
            );
            assert!(
                matches!(srb.get("mallory", bad), Err(SrbError::Invalid(_))),
                "get({bad:?}) must be Invalid"
            );
            assert!(
                matches!(srb.put("mallory", bad, b"x"), Err(SrbError::Invalid(_))),
                "put({bad:?}) must be Invalid"
            );
            assert!(
                matches!(srb.mkdir(bad), Err(SrbError::Invalid(_))),
                "mkdir({bad:?}) must be Invalid"
            );
        }
        // The well-formed path still works for its owner and still denies
        // everyone else.
        assert!(srb.ls("alice", "/home-alice").is_ok());
        assert!(matches!(
            srb.ls("mallory", "/home-alice"),
            Err(SrbError::PermissionDenied(_))
        ));
    }

    #[test]
    fn deep_collections() {
        let srb = Srb::new();
        srb.mkdir("/a/b/c").unwrap();
        srb.put("u", "/a/b/c/deep.txt", b"d").unwrap();
        assert_eq!(srb.cat("u", "/a/b/c/deep.txt").unwrap(), "d");
    }

    #[test]
    fn read_at_ranges_and_eof_boundaries() {
        let srb = Srb::new();
        srb.mkdir("/d").unwrap();
        srb.put("u", "/d/f", b"0123456789").unwrap();
        assert_eq!(srb.read_at("u", "/d/f", 0, 4).unwrap(), b"0123");
        assert_eq!(srb.read_at("u", "/d/f", 4, 4).unwrap(), b"4567");
        // A read that overruns the end is clipped, not faulted.
        assert_eq!(srb.read_at("u", "/d/f", 8, 4).unwrap(), b"89");
        // A read starting exactly at EOF is a clean empty result (the
        // chunked get protocol's end-of-stream probe lands here).
        assert_eq!(srb.read_at("u", "/d/f", 10, 4).unwrap(), b"");
        // Past EOF is a client offset bug and must fault.
        assert!(matches!(
            srb.read_at("u", "/d/f", 11, 4),
            Err(SrbError::Invalid(_))
        ));
        // Zero-length reads inside the object are fine too.
        assert_eq!(srb.read_at("u", "/d/f", 5, 0).unwrap(), b"");
    }

    #[test]
    fn read_at_zero_length_object() {
        let srb = Srb::new();
        srb.mkdir("/d").unwrap();
        srb.put("u", "/d/empty", b"").unwrap();
        assert_eq!(srb.read_at("u", "/d/empty", 0, 4).unwrap(), b"");
        assert!(srb.read_at("u", "/d/empty", 1, 4).is_err());
        assert_eq!(srb.stat("u", "/d/empty").unwrap(), 0);
    }

    #[test]
    fn append_at_builds_object_incrementally() {
        let srb = Srb::new();
        srb.mkdir("/d").unwrap();
        assert_eq!(srb.append_at("u", "/d/f", 0, b"abc").unwrap(), 3);
        assert_eq!(srb.append_at("u", "/d/f", 3, b"def").unwrap(), 6);
        assert_eq!(srb.get("u", "/d/f").unwrap(), b"abcdef");
        // A duplicate (retried) chunk shows up as an offset mismatch.
        assert!(matches!(
            srb.append_at("u", "/d/f", 3, b"def"),
            Err(SrbError::Invalid(_))
        ));
        // A skipped-ahead chunk likewise.
        assert!(matches!(
            srb.append_at("u", "/d/f", 9, b"x"),
            Err(SrbError::Invalid(_))
        ));
        // Appending at a nonzero offset to a missing object is NotFound,
        // distinguishing "lost handle" from "wrong offset".
        assert!(matches!(
            srb.append_at("u", "/d/ghost", 3, b"x"),
            Err(SrbError::NotFound(_))
        ));
    }

    #[test]
    fn append_at_creates_zero_length_object() {
        let srb = Srb::new();
        srb.mkdir("/d").unwrap();
        // A zero-length put streams zero chunks; the create-at-offset-0
        // call with no data must still materialize the (empty) object.
        assert_eq!(srb.append_at("u", "/d/empty", 0, b"").unwrap(), 0);
        assert_eq!(srb.get("u", "/d/empty").unwrap(), b"");
    }

    #[test]
    fn append_at_enforces_quota_and_acl() {
        let srb = Srb::new();
        srb.mkdir("/small").unwrap();
        srb.set_quota("/small", 10);
        assert_eq!(srb.append_at("u", "/small/f", 0, b"12345678").unwrap(), 8);
        assert!(matches!(
            srb.append_at("u", "/small/f", 8, b"90123"),
            Err(SrbError::DiskFull { .. })
        ));
        // The failed append left the object untouched.
        assert_eq!(srb.stat("u", "/small/f").unwrap(), 8);

        let acl = homes(&["alice"]);
        assert!(matches!(
            acl.append_at("mallory", "/home-alice/f", 0, b"x"),
            Err(SrbError::PermissionDenied(_))
        ));
    }

    #[test]
    fn rename_promotes_staging_atomically() {
        let srb = Srb::new();
        srb.mkdir("/d").unwrap();
        srb.put("u", "/d/final", b"old").unwrap();
        srb.put("u", "/d/.part-1", b"new content").unwrap();
        srb.rename("u", "/d/.part-1", "/d/final").unwrap();
        assert_eq!(srb.get("u", "/d/final").unwrap(), b"new content");
        assert!(matches!(
            srb.get("u", "/d/.part-1"),
            Err(SrbError::NotFound(_))
        ));
        // Renaming a missing source faults and touches nothing.
        assert!(matches!(
            srb.rename("u", "/d/ghost", "/d/final"),
            Err(SrbError::NotFound(_))
        ));
        assert_eq!(srb.get("u", "/d/final").unwrap(), b"new content");
    }

    #[test]
    fn rename_moves_across_top_level_collections() {
        // Cross-top moves are now first-class (the shard router's same-
        // backend fast path): ACLs are checked on both trees and the
        // destination quota is charged for the incoming bytes.
        let srb = Srb::new();
        srb.mkdir("/a").unwrap();
        srb.mkdir("/b").unwrap();
        srb.put("u", "/a/f", b"payload").unwrap();
        srb.rename("u", "/a/f", "/b/f").unwrap();
        assert!(matches!(srb.get("u", "/a/f"), Err(SrbError::NotFound(_))));
        assert_eq!(srb.get("u", "/b/f").unwrap(), b"payload");
        // Renaming onto a collection is rejected with both ends intact.
        srb.mkdir("/b/sub").unwrap();
        assert!(matches!(
            srb.rename("u", "/b/f", "/b/sub"),
            Err(SrbError::Invalid(_))
        ));
        assert_eq!(srb.get("u", "/b/f").unwrap(), b"payload");
    }

    #[test]
    fn cross_top_rename_enforces_destination_acl_and_quota() {
        let srb = homes(&["alice", "bob"]);
        srb.put("alice", "/home-alice/f", b"secret").unwrap();
        // bob cannot pull alice's object, and alice cannot push into bob's
        // home: both sides of the move are access-checked.
        assert!(matches!(
            srb.rename("bob", "/home-alice/f", "/home-bob/f"),
            Err(SrbError::PermissionDenied(_))
        ));
        assert!(matches!(
            srb.rename("alice", "/home-alice/f", "/home-bob/f"),
            Err(SrbError::PermissionDenied(_))
        ));
        assert_eq!(srb.get("alice", "/home-alice/f").unwrap(), b"secret");

        // The destination quota is charged for the moved bytes, and a
        // failed move leaves the source in place.
        srb.mkdir("/tiny").unwrap();
        srb.set_quota("/tiny", 3);
        assert!(matches!(
            srb.rename("alice", "/home-alice/f", "/tiny/f"),
            Err(SrbError::DiskFull { .. })
        ));
        assert_eq!(srb.get("alice", "/home-alice/f").unwrap(), b"secret");
        // Within quota it goes through, and the source side is freed.
        srb.set_quota("/tiny", 64);
        srb.rename("alice", "/home-alice/f", "/tiny/f").unwrap();
        assert_eq!(srb.get("alice", "/tiny/f").unwrap(), b"secret");
        assert!(srb.get("alice", "/home-alice/f").is_err());
    }

    #[test]
    fn cp_copies_within_and_across_tops() {
        let srb = Srb::new();
        srb.mkdir("/a").unwrap();
        srb.mkdir("/b").unwrap();
        srb.put("u", "/a/f", b"dup me").unwrap();
        // Same-top copy.
        srb.cp("u", "/a/f", "/a/g").unwrap();
        assert_eq!(srb.get("u", "/a/g").unwrap(), b"dup me");
        // Cross-top copy leaves the source intact.
        srb.cp("u", "/a/f", "/b/f").unwrap();
        assert_eq!(srb.get("u", "/a/f").unwrap(), b"dup me");
        assert_eq!(srb.get("u", "/b/f").unwrap(), b"dup me");
        // Self-copy is a validated no-op.
        srb.cp("u", "/a/f", "/a/f").unwrap();
        assert_eq!(srb.get("u", "/a/f").unwrap(), b"dup me");
        // The destination quota counts the copy even within one top.
        srb.set_quota("/b", 8);
        assert!(matches!(
            srb.cp("u", "/a/f", "/b/g"),
            Err(SrbError::DiskFull { .. })
        ));
        assert!(srb.get("u", "/b/g").is_err());
    }

    #[test]
    fn behavior_is_invariant_across_stripe_counts() {
        for stripes in [1, 2, 8, 17] {
            let srb = Srb::with_stripes(stripes);
            assert_eq!(srb.stripe_count(), stripes);
            for top in ["a", "b", "c", "d", "e"] {
                srb.mkdir(&format!("/{top}/sub")).unwrap();
                srb.put("u", &format!("/{top}/f"), top.as_bytes()).unwrap();
            }
            for top in ["a", "b", "c", "d", "e"] {
                assert_eq!(srb.get("u", &format!("/{top}/f")).unwrap(), top.as_bytes());
                assert_eq!(srb.ls("u", &format!("/{top}")).unwrap().len(), 2);
            }
            srb.rename("u", "/a/f", "/e/moved").unwrap();
            assert_eq!(srb.get("u", "/e/moved").unwrap(), b"a");
            assert!(srb.get("u", "/a/f").is_err());
            // Every op landed on some stripe.
            let total: u64 = srb.stripe_op_counts().iter().sum();
            assert!(total > 0, "{stripes} stripes counted no ops");
        }
    }

    #[test]
    fn stripes_spread_distinct_top_collections() {
        let srb = Srb::with_stripes(8);
        for i in 0..64 {
            srb.mkdir(&format!("/col-{i:02}")).unwrap();
        }
        let counts = srb.stripe_op_counts();
        let used = counts.iter().filter(|&&c| c > 0).count();
        assert!(
            used >= 4,
            "64 distinct tops should land on several of 8 stripes: {counts:?}"
        );
    }

    /// The satellite-3 lock-ordering proof. Two threads move objects
    /// between the same pair of stripes in *opposite* semantic directions
    /// at once. Under naive source-then-destination acquisition the two
    /// threads would take the stripe locks in reverse orders — in debug
    /// builds the parking_lot shim's cycle detector panics deterministically
    /// on the first such inversion (and without it the pair can deadlock).
    /// Canonical ascending-index ordering makes both directions take the
    /// same lock order, so the test must complete with no panic.
    #[test]
    fn opposite_direction_cross_stripe_renames_are_deadlock_free() {
        let srb = Arc::new(Srb::with_stripes(8));
        // Find two top-level collections on distinct stripes.
        let tops: Vec<String> = (0..32).map(|i| format!("t{i}")).collect();
        let a = tops[0].clone();
        let b = tops
            .iter()
            .find(|t| srb.stripe_idx(t) != srb.stripe_idx(&a))
            .expect("32 names cover more than one of 8 stripes")
            .clone();
        srb.mkdir(&format!("/{a}")).unwrap();
        srb.mkdir(&format!("/{b}")).unwrap();
        srb.put("u", &format!("/{a}/x"), b"x").unwrap();
        srb.put("u", &format!("/{b}/y"), b"y").unwrap();

        let barrier = Arc::new(std::sync::Barrier::new(2));
        let mut handles = Vec::new();
        for (from_top, to_top, name) in [(a.clone(), b.clone(), "x"), (b.clone(), a.clone(), "y")] {
            let srb = Arc::clone(&srb);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for round in 0..50 {
                    let (src, dst) = if round % 2 == 0 {
                        (&from_top, &to_top)
                    } else {
                        (&to_top, &from_top)
                    };
                    srb.rename("u", &format!("/{src}/{name}"), &format!("/{dst}/{name}"))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().expect("no deadlock and no lock-order panic");
        }
        // Both objects ended up back where they started (50 moves each).
        assert_eq!(srb.get("u", &format!("/{a}/x")).unwrap(), b"x");
        assert_eq!(srb.get("u", &format!("/{b}/y")).unwrap(), b"y");
    }

    #[test]
    fn service_time_serializes_per_stripe_device() {
        // With the device model on, one stripe serves one op per service
        // time; distinct stripes serve concurrently. This is the seam the
        // e16 scaling arm measures — here we only pin that it is off by
        // default and togglable.
        let srb = Srb::with_stripes(2);
        srb.mkdir("/a").unwrap();
        srb.set_service_time_us(100);
        let t0 = std::time::Instant::now();
        srb.put("u", "/a/f", b"x").unwrap();
        assert!(
            t0.elapsed() >= Duration::from_micros(100),
            "device service time applies"
        );
        srb.set_service_time_us(0);
        let t1 = std::time::Instant::now();
        for _ in 0..50 {
            srb.get("u", "/a/f").unwrap();
        }
        assert!(
            t1.elapsed() < Duration::from_millis(500),
            "zero service time means no sleeping"
        );
    }

    #[test]
    fn rename_over_an_object_frees_its_bytes() {
        let srb = Srb::new();
        srb.mkdir("/small").unwrap();
        srb.set_quota("/small", 10);
        srb.put("u", "/small/old", b"123456").unwrap();
        srb.put("u", "/small/new", b"1234").unwrap();
        // The home is full. Moving `new` over `old` frees old's 6 bytes.
        srb.rename("u", "/small/new", "/small/old").unwrap();
        srb.put("u", "/small/more", b"123456").unwrap();
        assert!(matches!(
            srb.put("u", "/small/over", b"1"),
            Err(SrbError::DiskFull { .. })
        ));
    }

    /// The walk the running totals replaced: every object byte under
    /// `col`. Tests keep it as the oracle for the totals.
    fn collection_size(col: &Collection) -> usize {
        col.children
            .values()
            .map(|n| match n {
                Node::Object(bytes) => bytes.len(),
                Node::Collection(c) => collection_size(c),
            })
            .sum()
    }

    /// Bytes under the top-level entry `top`, found by walking it.
    fn walked(state: &SrbState, top: &str) -> usize {
        match state.root.children.get(top) {
            Some(Node::Collection(c)) => collection_size(c),
            Some(Node::Object(bytes)) => bytes.len(),
            None => 0,
        }
    }

    /// Every stripe's running totals against a walk of its tree, and no
    /// entry left holding zero.
    fn totals_match_walk(srb: &Srb) -> Result<(), String> {
        for (i, stripe) in srb.stripes.iter().enumerate() {
            let state = stripe.state.read();
            if let Some((top, _)) = state.usage.iter().find(|(_, &used)| used == 0) {
                return Err(format!("stripe {i}: /{top} keeps an entry at zero bytes"));
            }
            for top in state.root.children.keys().chain(state.usage.keys()) {
                let (used, walk) = (state.used(top), walked(&state, top));
                if used != walk {
                    return Err(format!(
                        "stripe {i}: /{top} totals {used} bytes, the walk finds {walk}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Size of the object at `path`, read past any ACL.
    fn size_of(srb: &Srb, path: &str) -> Option<usize> {
        let segs = split(path).ok()?;
        let state = srb.stripes[srb.stripe_for(&segs)].state.read();
        let (name, dirs) = segs.split_last()?;
        match Srb::descend(&state.root, dirs).ok()?.children.get(*name) {
            Some(Node::Object(bytes)) => Some(bytes.len()),
            _ => None,
        }
    }

    /// Would the quota check as it stood before the running totals, a
    /// walk of the top, refuse `incoming` bytes landing at `path`? With
    /// `replacing`, the object already at `path` does not count.
    fn walk_refuses(srb: &Srb, path: &str, incoming: usize, replacing: bool) -> bool {
        let existing = if replacing {
            size_of(srb, path).unwrap_or(0)
        } else {
            0
        };
        let segs = split(path).unwrap();
        let state = srb.stripes[srb.stripe_for(&segs)].state.read();
        match state.quotas.get(segs[0]) {
            Some(&quota) => walked(&state, segs[0]) - existing + incoming > quota,
            None => false,
        }
    }

    /// Top-level collections of the property below. With 2 stripes `qb`
    /// sits alone and the other four share a stripe; with 8 each has its
    /// own. `open` has no quota and `locked` admits only `owner`.
    const TOPS: [&str; 5] = ["qa", "qb", "qc", "open", "locked"];
    /// Leaves under each top: two objects, an object in a sub-collection,
    /// the sub-collection itself, and an object under a missing one.
    const LEAVES: [&str; 5] = ["f", "g", "sub/h", "sub", "ghost/x"];
    const WHO: [&str; 2] = ["u", "owner"];
    /// Every top × leaf, plus one path under a top that does not exist.
    const PATHS: usize = TOPS.len() * LEAVES.len() + 1;

    fn path(i: usize) -> String {
        match TOPS.get(i / LEAVES.len()) {
            Some(top) => format!("/{top}/{}", LEAVES[i % LEAVES.len()]),
            None => "/nowhere/f".to_owned(),
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Put {
            who: usize,
            to: usize,
            len: usize,
        },
        /// `aligned` appends at the object's size; otherwise one past it.
        Append {
            who: usize,
            to: usize,
            len: usize,
            aligned: bool,
        },
        Rm {
            who: usize,
            at: usize,
        },
        Rename {
            who: usize,
            from: usize,
            to: usize,
        },
        Cp {
            who: usize,
            from: usize,
            to: usize,
        },
        Mkdir {
            at: usize,
        },
    }

    fn op_strategy() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        prop_oneof![
            (0..2usize, 0..PATHS, 0..40usize).prop_map(|(who, to, len)| Op::Put { who, to, len }),
            (0..2usize, 0..PATHS, 0..40usize, any::<bool>()).prop_map(|(who, to, len, aligned)| {
                Op::Append {
                    who,
                    to,
                    len,
                    aligned,
                }
            }),
            (0..2usize, 0..PATHS).prop_map(|(who, at)| Op::Rm { who, at }),
            (0..2usize, 0..PATHS, 0..PATHS).prop_map(|(who, from, to)| Op::Rename {
                who,
                from,
                to
            }),
            (0..2usize, 0..PATHS, 0..PATHS).prop_map(|(who, from, to)| Op::Cp { who, from, to }),
            (0..PATHS).prop_map(|at| Op::Mkdir { at }),
        ]
    }

    /// Run `ops` on a fresh broker of `stripes` stripes. After every op
    /// each top's running total must equal the walk, and a `DiskFull` (or
    /// a success) must match what the walk would have decided. `seen`
    /// tallies the outcomes and move shapes reached.
    fn replay(
        stripes: usize,
        ops: &[Op],
        seen: &mut BTreeMap<&'static str, usize>,
    ) -> Result<(), String> {
        let srb = Srb::with_stripes(stripes);
        for top in TOPS {
            srb.mkdir(&format!("/{top}/sub")).unwrap();
        }
        for (top, quota) in [("/qa", 48), ("/qb", 120), ("/qc", 200), ("/locked", 96)] {
            srb.set_quota(top, quota);
        }
        srb.set_acl("/locked", vec!["owner".into()]);
        for (step, op) in ops.iter().enumerate() {
            let (result, refused, replacing) = match *op {
                Op::Put { who, to, len } => {
                    let to = path(to);
                    let refused = walk_refuses(&srb, &to, len, true);
                    let replacing = size_of(&srb, &to).is_some();
                    (srb.put(WHO[who], &to, &vec![b'p'; len]), refused, replacing)
                }
                Op::Append {
                    who,
                    to,
                    len,
                    aligned,
                } => {
                    let to = path(to);
                    let off = size_of(&srb, &to).unwrap_or(0) + usize::from(!aligned);
                    let refused = walk_refuses(&srb, &to, len, false);
                    let result = srb.append_at(WHO[who], &to, off, &vec![b'a'; len]);
                    (result.map(drop), refused, false)
                }
                Op::Rm { who, at } => (srb.rm(WHO[who], &path(at)), false, false),
                Op::Rename { who, from, to } | Op::Cp { who, from, to } => {
                    let (from, to) = (path(from), path(to));
                    let (ft, tt) = (split(&from).unwrap()[0], split(&to).unwrap()[0]);
                    let is_cp = matches!(op, Op::Cp { .. });
                    // A same-top rename brings no bytes; a self-copy is a
                    // no-op that checks no quota.
                    let incoming = match (is_cp, ft == tt) {
                        (false, true) => 0,
                        _ => size_of(&srb, &from).unwrap_or(0),
                    };
                    let refused = !(is_cp && from == to) && walk_refuses(&srb, &to, incoming, true);
                    let replacing = from != to && size_of(&srb, &to).is_some();
                    let shape = if is_cp && from == to {
                        "self cp"
                    } else if srb.stripe_idx(ft) != srb.stripe_idx(tt) {
                        "cross-stripe move"
                    } else if ft != tt {
                        "same-stripe cross-top move"
                    } else {
                        "same-top move"
                    };
                    let result = if is_cp {
                        srb.cp(WHO[who], &from, &to)
                    } else {
                        srb.rename(WHO[who], &from, &to)
                    };
                    if result.is_ok() {
                        *seen.entry(shape).or_default() += 1;
                    }
                    (result, refused, replacing)
                }
                Op::Mkdir { at } => (srb.mkdir(&path(at)), false, false),
            };
            let outcome = match &result {
                Ok(()) if refused => {
                    return Err(format!(
                        "step {step} {op:?}: succeeded where the walk refuses"
                    ))
                }
                Ok(()) if replacing => "ok (replaced)",
                Ok(()) => "ok",
                Err(SrbError::DiskFull { .. }) if !refused => {
                    return Err(format!(
                        "step {step} {op:?}: DiskFull where the walk has room"
                    ))
                }
                Err(SrbError::DiskFull { .. }) => "disk full",
                Err(SrbError::NotFound(_)) => "not found",
                Err(SrbError::Invalid(_)) => "invalid",
                Err(SrbError::PermissionDenied(_)) => "permission denied",
            };
            *seen.entry(outcome).or_default() += 1;
            totals_match_walk(&srb).map_err(|e| format!("step {step} {op:?}: {e}"))?;
        }
        Ok(())
    }

    /// Random op sequences over several tops, on 1, 2 and 8 stripes: the
    /// running totals always equal the walk they replaced.
    #[test]
    fn running_totals_match_a_full_walk() {
        use proptest::strategy::Strategy;
        let ops = proptest::collection::vec(op_strategy(), 1..60);
        let mut gen = proptest::Gen::from_name("srb::running_totals_match_a_full_walk");
        let mut seen = BTreeMap::new();
        for case in 0..128 {
            let ops = ops.generate(&mut gen);
            for stripes in [1, 2, 8] {
                if let Err(e) = replay(stripes, &ops, &mut seen) {
                    panic!("case {case}, {stripes} stripes: {e}\nops: {ops:?}");
                }
            }
        }
        for reached in [
            "ok",
            "ok (replaced)",
            "disk full",
            "not found",
            "invalid",
            "permission denied",
            "self cp",
            "same-top move",
            "same-stripe cross-top move",
            "cross-stripe move",
        ] {
            assert!(
                seen.contains_key(reached),
                "no op reached {reached:?}: {seen:?}"
            );
        }
    }
}
