//! Cross-process namespace sharding for the data plane (PR 10).
//!
//! One [`DataManagementService`] scales until a single broker's stripes
//! saturate; past that the namespace itself must be split across
//! processes. [`ShardedDataService`] is a drop-in `DataManagement` SOAP
//! service that consistent-hashes the **top-level collection** of every
//! path onto one of M backend brokers and routes the call there:
//!
//! * [`ShardMap`] is a consistent-hash ring with virtual nodes, so adding
//!   a shard moves only ~1/M of the keyspace instead of rehashing it all.
//! * Transfer handles are wrapped as `s<k>/t-<id>` so chunked reads and
//!   writes keep flowing to the backend that opened them, with no router
//!   state per handle.
//! * The shard map carries a **generation**: the router implements
//!   [`SoapService::generation`], bumping it on every mutation and on
//!   every topology change, so the E14 versioned read cache and clients
//!   revalidate instead of serving reads from a stale layout.
//! * `rename`/`cp` whose source and destination land on different shards
//!   cannot use a broker's atomic move. The router runs a journaled
//!   copy-then-delete protocol built from the E13 chunked-transfer
//!   primitives, designed so that a coordinator crash at any step leaves
//!   the namespace recoverable with **exactly one** complete copy
//!   visible under the *user-facing* names:
//!
//!   1. stage a chunked put at the destination shard (validates the
//!      destination ACL before anything moves),
//!   2. atomically rename the source to a hidden `.mv-<id>-…` tombstone
//!      on its own shard — from here the source *name* is gone, but the
//!      bytes are not,
//!   3. stream the tombstone into the destination staging area,
//!   4. commit the destination (atomic promote — the point of no return),
//!   5. delete the tombstone.
//!
//!   A journal entry recorded before step 2 drives [`recover`]: entries
//!   that reached step 4 roll forward (re-run the delete leg), earlier
//!   ones roll back (abort staging, rename the tombstone home). The e12
//!   chaos harness injects coordinator faults at `copy-chunk`,
//!   `pre-commit` and `delete-leg` and asserts the exactly-one-copy
//!   invariant after recovery.
//!
//! [`recover`]: ShardedDataService::recover

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use portalws_gridsim::srb::{DirEntry, Srb, SrbError};

type SrbResult<T> = std::result::Result<T, SrbError>;
use portalws_soap::{
    CallContext, Fault, MethodDesc, PortalErrorKind, SoapResult, SoapService, SoapType, SoapValue,
};
use portalws_wire::ArcCell;
use portalws_xml::Element;

use crate::caller_principal;
use crate::data::{arg_str, arg_usize, ls_entry, srb_fault, DataManagementService};

/// Virtual nodes per shard on the ring. Enough that 64 top-level
/// collections over 4 shards balance within the e16 gate (max/mean ≤
/// 1.25) while keeping the ring a few hundred entries.
pub const DEFAULT_VNODES: usize = 160;

/// Bytes streamed per chunk while a cross-shard move copies the
/// tombstone into the destination staging area.
const COPY_CHUNK: usize = 64 * 1024;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// splitmix64 finalizer. Raw FNV-1a of near-identical strings (the ring's
/// `shard-s/vnode-v` labels differ only in trailing digits) clusters so
/// tightly that each shard's vnodes form one contiguous arc and the ring
/// degenerates to a single owner; the finalizer's avalanche restores a
/// uniform spread.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Position of a label on the hash ring.
fn ring_point(label: &str) -> u64 {
    mix64(fnv1a(label.as_bytes()))
}

/// Top-level collection segment of a path, the unit of placement.
/// `None` for the root itself.
fn top_of(path: &str) -> Option<&str> {
    path.trim_matches('/')
        .split('/')
        .next()
        .filter(|s| !s.is_empty())
}

/// Consistent-hash ring mapping top-level collections onto shard
/// indices. Pure data: the router swaps whole maps atomically.
#[derive(Clone)]
pub struct ShardMap {
    /// `(point, shard)` sorted by point; a key owns the first point at or
    /// after its own hash, wrapping at the top.
    ring: Vec<(u64, usize)>,
    shards: usize,
    vnodes: usize,
}

impl ShardMap {
    /// A ring of `shards` shards with `vnodes` virtual nodes each.
    pub fn new(shards: usize, vnodes: usize) -> ShardMap {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut ring = Vec::with_capacity(shards * vnodes);
        for s in 0..shards {
            for v in 0..vnodes {
                ring.push((ring_point(&format!("shard-{s}/vnode-{v}")), s));
            }
        }
        ring.sort_unstable();
        // A hash collision between vnodes would make ownership depend on
        // sort stability; keep the first (lowest shard) deterministically.
        ring.dedup_by_key(|e| e.0);
        ShardMap {
            ring,
            shards,
            vnodes,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Virtual nodes per shard.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Shard owning top-level collection `top`.
    pub fn owner_of_top(&self, top: &str) -> usize {
        let h = ring_point(top);
        let idx = self.ring.partition_point(|e| e.0 < h);
        self.ring
            .get(idx)
            .or_else(|| self.ring.first())
            .map(|e| e.1)
            .unwrap_or(0)
    }
}

/// Decides whether an injected coordinator fault fires at a named
/// protocol point (`copy-chunk`, `pre-commit`, `delete-leg`).
pub type FaultHook = Arc<dyn Fn(&str) -> bool + Send + Sync>;

/// Journal entry for one in-flight cross-shard move; drives `recover`.
struct MoveRecord {
    principal: String,
    src_shard: usize,
    dst_shard: usize,
    /// Original user-facing source path (rollback target).
    src: String,
    /// Hidden tombstone the source was renamed to; empty for `cp`,
    /// which never hides its source.
    tombstone: String,
    /// Backend-local read handle streaming the source, if still open.
    src_handle: Option<String>,
    /// Backend-local staged-put handle at the destination, if still open.
    dst_handle: Option<String>,
    /// True once the destination committed: roll forward from here.
    committed: bool,
    /// True for `cp`: no tombstone, no delete leg, rollback only ever
    /// aborts staging.
    copy_only: bool,
}

/// Counts of moves repaired by [`ShardedDataService::recover`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Moves past the commit point whose delete leg was re-run.
    pub rolled_forward: usize,
    /// Moves before the commit point whose source was restored.
    pub rolled_back: usize,
}

/// Consistent-hash router over M backend data services, itself a
/// `DataManagement` SOAP service (drop-in for the unsharded one).
pub struct ShardedDataService {
    backends: Box<[Arc<DataManagementService>]>,
    map: ArcCell<ShardMap>,
    /// Bumped on every mutation and on every topology change. Excess
    /// bumps only cost cache refills, staleness is never possible.
    generation: AtomicU64,
    fault_hook: RwLock<Option<FaultHook>>,
    moves: Mutex<HashMap<u64, MoveRecord>>,
    next_move: AtomicU64,
}

impl ShardedDataService {
    /// A router over `shards` fresh brokers.
    pub fn new(shards: usize) -> ShardedDataService {
        let backends = (0..shards.max(1))
            .map(|_| Arc::new(DataManagementService::new(Arc::new(Srb::new()))))
            .collect();
        Self::with_backends(backends, DEFAULT_VNODES)
    }

    /// A router over existing backends with `vnodes` virtual nodes each.
    pub fn with_backends(
        backends: Vec<Arc<DataManagementService>>,
        vnodes: usize,
    ) -> ShardedDataService {
        let shards = backends.len().max(1);
        ShardedDataService {
            backends: backends.into_boxed_slice(),
            map: ArcCell::new(Arc::new(ShardMap::new(shards, vnodes))),
            generation: AtomicU64::new(0),
            fault_hook: RwLock::new_named(None, "shard-fault-hook"),
            moves: Mutex::new_named(HashMap::new(), "shard-move-journal"),
            next_move: AtomicU64::new(1),
        }
    }

    /// A sharded namespace populated like the GCE testbed (one home
    /// collection per user plus a world-readable `/public`), with each
    /// top-level collection provisioned only on its owning shard.
    pub fn testbed(users: &[&str], shards: usize) -> ShardedDataService {
        let svc = Self::new(shards);
        for user in users {
            let home = format!("/home-{user}");
            let _ = svc.mkdir(&home);
            svc.set_acl(&home, vec![(*user).to_owned()]);
            svc.set_quota(&home, 1 << 20);
        }
        let _ = svc.mkdir("/public");
        let _ = svc.put_bytes(
            "anonymous",
            "/public/README",
            b"GCE testbed public collection\n",
        );
        svc
    }

    /// The backend data services, in shard order.
    pub fn backends(&self) -> &[Arc<DataManagementService>] {
        &self.backends
    }

    /// The current shard map.
    pub fn map(&self) -> Arc<ShardMap> {
        self.map.load()
    }

    /// Install a new shard map (topology change) and bump the
    /// generation so cached reads revalidate against the new layout.
    pub fn install_map(&self, map: ShardMap) {
        self.map.store(Arc::new(map));
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Current namespace generation (also stamped on SOAP replies).
    pub fn current_generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Shard index owning `path`, or `None` for the root.
    pub fn owner_of(&self, path: &str) -> Option<usize> {
        top_of(path).map(|top| self.map.load().owner_of_top(top))
    }

    /// Install (or clear) the chaos hook fired at cross-shard move
    /// protocol points. Test/chaos instrumentation only.
    pub fn set_fault_hook(&self, hook: Option<FaultHook>) {
        *self.fault_hook.write() = hook;
    }

    /// Cross-shard moves still in the journal (0 after clean runs and
    /// after `recover`).
    pub fn pending_moves(&self) -> usize {
        self.moves.lock().len()
    }

    fn bump(&self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    fn backend(&self, k: usize) -> SoapResult<&Arc<DataManagementService>> {
        self.backends.get(k).ok_or_else(|| {
            Fault::portal(
                PortalErrorKind::NotFound,
                format!("no shard {k} in a {}-shard map", self.backends.len()),
            )
        })
    }

    /// Backend owning `path`; the root routes to shard 0, whose broker
    /// then produces the same error an unsharded deployment would.
    fn route(&self, path: &str) -> SoapResult<&Arc<DataManagementService>> {
        let k = self.owner_of(path).unwrap_or(0);
        self.backend(k)
    }

    /// Split a wrapped `s<k>/t-<id>` handle into its shard and the
    /// backend-local handle.
    fn parse_handle<'a>(&self, handle: &'a str) -> SoapResult<(usize, &'a str)> {
        let parsed = handle
            .strip_prefix('s')
            .and_then(|rest| rest.split_once('/'))
            .and_then(|(shard, inner)| shard.parse::<usize>().ok().map(|k| (k, inner)));
        let Some((k, inner)) = parsed else {
            return Err(Fault::portal(
                PortalErrorKind::NotFound,
                format!("no transfer handle {handle:?}"),
            ));
        };
        if k >= self.backends.len() {
            return Err(Fault::portal(
                PortalErrorKind::NotFound,
                format!("no transfer handle {handle:?}"),
            ));
        }
        Ok((k, inner))
    }

    fn fault_point(&self, point: &str, op: &str) -> SoapResult<()> {
        let hook = self.fault_hook.read().clone();
        if let Some(hook) = hook {
            if hook(point) {
                return Err(Fault::portal(
                    PortalErrorKind::Internal,
                    format!("injected coordinator fault at {point} during {op}"),
                ));
            }
        }
        Ok(())
    }

    // ---- provisioning helpers (routed equivalents of the Srb admin API)

    /// Create a collection on the owning shard.
    pub fn mkdir(&self, path: &str) -> SrbResult<()> {
        self.bump();
        self.route(path)
            .map_err(|_| SrbError::Invalid(path.to_owned()))?
            .srb()
            .mkdir(path)
    }

    /// Restrict a top-level collection on its owning shard.
    pub fn set_acl(&self, top: &str, principals: Vec<String>) {
        self.bump();
        if let Ok(b) = self.route(top) {
            b.srb().set_acl(top, principals);
        }
    }

    /// Set a byte quota on a top-level collection's owning shard.
    pub fn set_quota(&self, top: &str, bytes: usize) {
        self.bump();
        if let Ok(b) = self.route(top) {
            b.srb().set_quota(top, bytes);
        }
    }

    /// Routed write (testbed seeding and chaos ground truth).
    pub fn put_bytes(&self, principal: &str, path: &str, bytes: &[u8]) -> SrbResult<()> {
        self.bump();
        self.route(path)
            .map_err(|_| SrbError::Invalid(path.to_owned()))?
            .srb()
            .put(principal, path, bytes)
    }

    /// Routed read (chaos ground truth).
    pub fn get_bytes(&self, principal: &str, path: &str) -> SrbResult<Vec<u8>> {
        self.route(path)
            .map_err(|_| SrbError::Invalid(path.to_owned()))?
            .srb()
            .get(principal, path)
    }

    // ---- routed operations

    /// Root listing: the union of every shard's top-level collections
    /// (each top exists only on its owner, so entries never collide);
    /// any other path lists on its owning shard.
    fn ls_routed(&self, principal: &str, path: &str) -> SoapResult<Vec<DirEntry>> {
        if top_of(path).is_some() {
            return self
                .route(path)?
                .srb()
                .ls(principal, path)
                .map_err(srb_fault);
        }
        let mut entries = Vec::new();
        for b in self.backends.iter() {
            entries.extend(b.srb().ls_root());
        }
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(entries)
    }

    /// Copy `src_path` on shard `si` into a staged put of `dst_path` on
    /// shard `di` using the chunked-transfer primitives, updating the
    /// journal entry `id` with the open handles as they appear. Returns
    /// the destination's backend-local staging handle, **not yet
    /// committed**.
    fn copy_across(
        &self,
        id: u64,
        op: &str,
        principal: &str,
        (si, src_path): (usize, &str),
        (di, dst_path): (usize, &str),
    ) -> SoapResult<String> {
        let src_b = self.backend(si)?;
        let dst_b = self.backend(di)?;
        let dst_handle = dst_b
            .transfers()
            .open_put(principal, dst_path)
            .map_err(|e| e.to_fault())?;
        if let Some(rec) = self.moves.lock().get_mut(&id) {
            rec.dst_handle = Some(dst_handle.clone());
        }
        let (src_handle, size) = match src_b.transfers().open_get(principal, src_path) {
            Ok(opened) => opened,
            Err(e) => {
                let _ = dst_b.transfers().abort(principal, &dst_handle);
                if let Some(rec) = self.moves.lock().get_mut(&id) {
                    rec.dst_handle = None;
                }
                return Err(e.to_fault());
            }
        };
        if let Some(rec) = self.moves.lock().get_mut(&id) {
            rec.src_handle = Some(src_handle.clone());
        }
        let stream = (|| -> SoapResult<()> {
            let mut off = 0usize;
            while off < size {
                self.fault_point("copy-chunk", op)?;
                let chunk = src_b
                    .transfers()
                    .get_chunk(principal, &src_handle, off, COPY_CHUNK)
                    .map_err(|e| e.to_fault())?;
                if chunk.is_empty() {
                    break;
                }
                dst_b
                    .transfers()
                    .put_chunk(principal, &dst_handle, off, &chunk)
                    .map_err(|e| e.to_fault())?;
                off += chunk.len();
            }
            Ok(())
        })();
        stream?;
        // Done reading: release the source handle eagerly rather than
        // letting the idle TTL reclaim it.
        let _ = src_b.transfers().abort(principal, &src_handle);
        if let Some(rec) = self.moves.lock().get_mut(&id) {
            rec.src_handle = None;
        }
        Ok(dst_handle)
    }

    /// Cross-shard `rename`: the journaled hide → copy → commit → delete
    /// protocol described in the module docs.
    fn rename_across(
        &self,
        principal: &str,
        si: usize,
        from: &str,
        di: usize,
        to: &str,
    ) -> SoapResult<()> {
        let src_b = self.backend(si)?;
        let (parent, leaf) = from.rsplit_once('/').unwrap_or(("", from));
        let id = self.next_move.fetch_add(1, Ordering::Relaxed);
        let tombstone = format!("{parent}/.mv-{id}-{leaf}");
        self.moves.lock().insert(
            id,
            MoveRecord {
                principal: principal.to_owned(),
                src_shard: si,
                dst_shard: di,
                src: from.to_owned(),
                tombstone: tombstone.clone(),
                src_handle: None,
                dst_handle: None,
                committed: false,
                copy_only: false,
            },
        );
        let outcome = (|| -> SoapResult<()> {
            // Hide the source under its tombstone name first: an atomic
            // single-shard rename, so the user-facing source name is
            // either fully present or fully gone.
            src_b
                .srb()
                .rename(principal, from, &tombstone)
                .map_err(srb_fault)?;
            let dst_handle =
                self.copy_across(id, "rename", principal, (si, &tombstone), (di, to))?;
            self.fault_point("pre-commit", "rename")?;
            let dst_b = self.backend(di)?;
            dst_b
                .transfers()
                .commit(principal, &dst_handle)
                .map_err(|e| e.to_fault())?;
            // Point of no return: the destination is visible and complete.
            if let Some(rec) = self.moves.lock().get_mut(&id) {
                rec.committed = true;
                rec.dst_handle = None;
            }
            self.fault_point("delete-leg", "rename")?;
            src_b.srb().rm(principal, &tombstone).map_err(srb_fault)?;
            Ok(())
        })();
        match outcome {
            Ok(()) => {
                self.moves.lock().remove(&id);
                Ok(())
            }
            // The journal entry stays: `recover` rolls it forward or
            // back depending on whether the commit landed.
            Err(e) => Err(e),
        }
    }

    /// Cross-shard `cp`: copy → commit, no tombstone and no delete leg.
    fn cp_across(
        &self,
        principal: &str,
        si: usize,
        from: &str,
        di: usize,
        to: &str,
    ) -> SoapResult<()> {
        let id = self.next_move.fetch_add(1, Ordering::Relaxed);
        self.moves.lock().insert(
            id,
            MoveRecord {
                principal: principal.to_owned(),
                src_shard: si,
                dst_shard: di,
                src: from.to_owned(),
                tombstone: String::new(),
                src_handle: None,
                dst_handle: None,
                committed: false,
                copy_only: true,
            },
        );
        let outcome = (|| -> SoapResult<()> {
            let dst_handle = self.copy_across(id, "cp", principal, (si, from), (di, to))?;
            self.fault_point("pre-commit", "cp")?;
            self.backend(di)?
                .transfers()
                .commit(principal, &dst_handle)
                .map_err(|e| e.to_fault())?;
            if let Some(rec) = self.moves.lock().get_mut(&id) {
                rec.committed = true;
                rec.dst_handle = None;
            }
            Ok(())
        })();
        match outcome {
            Ok(()) => {
                self.moves.lock().remove(&id);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Repair every journaled move: committed entries roll forward
    /// (re-run the delete leg), uncommitted ones roll back (abort
    /// staging, rename the tombstone back to the source name). Safe to
    /// call repeatedly; the journal is empty afterwards.
    pub fn recover(&self) -> RecoveryReport {
        let drained: Vec<MoveRecord> = {
            let mut moves = self.moves.lock();
            moves.drain().map(|(_, rec)| rec).collect()
        };
        let mut report = RecoveryReport::default();
        for rec in drained {
            self.bump();
            let src_b = self.backends.get(rec.src_shard);
            let dst_b = self.backends.get(rec.dst_shard);
            // Open handles die first: staging `.part-` files and read
            // handles must not outlive the move.
            if let (Some(b), Some(h)) = (src_b, rec.src_handle.as_deref()) {
                let _ = b.transfers().abort(&rec.principal, h);
            }
            if let (Some(b), Some(h)) = (dst_b, rec.dst_handle.as_deref()) {
                let _ = b.transfers().abort(&rec.principal, h);
            }
            if rec.committed {
                // The destination is complete: finish the delete leg
                // (`cp` has none — its source was never hidden).
                if !rec.copy_only {
                    if let Some(b) = src_b {
                        let _ = b.srb().rm(&rec.principal, &rec.tombstone);
                    }
                }
                report.rolled_forward += 1;
            } else {
                // The destination never committed: restore the source.
                if !rec.copy_only {
                    if let Some(b) = src_b {
                        if b.srb().stat(&rec.principal, &rec.tombstone).is_ok() {
                            let _ = b.srb().rename(&rec.principal, &rec.tombstone, &rec.src);
                        }
                    }
                }
                report.rolled_back += 1;
            }
        }
        report
    }

    /// Route one `xml_call` command to its owning backend (a root `ls`
    /// merges across shards like the `ls` method does).
    fn run_routed_command(&self, principal: &str, cmd: &Element) -> Element {
        let op = cmd.local_name();
        let path_attr = if op == "ls" {
            cmd.attr("collection")
        } else {
            cmd.attr("path")
        };
        if op == "ls" && path_attr.is_some_and(|p| top_of(p).is_none()) {
            return match self.ls_routed(principal, "/") {
                Ok(entries) => Element::new("result").with_attr("op", "ls").with_children(
                    (entries.iter()).map(|e| ls_entry(&e.name, e.is_collection, e.size)),
                ),
                Err(e) => Element::new("result")
                    .with_attr("op", "ls")
                    .with_attr("error", "true")
                    .with_text(e.string),
            };
        }
        // A missing path attribute routes to shard 0, whose broker
        // reports the same inline error an unsharded service would.
        let k = path_attr.and_then(|p| self.owner_of(p)).unwrap_or(0);
        match self.backend(k) {
            Ok(b) => b.run_command(principal, cmd),
            Err(e) => Element::new("result")
                .with_attr("op", op)
                .with_attr("error", "true")
                .with_text(e.string),
        }
    }
}

impl SoapService for ShardedDataService {
    fn name(&self) -> &str {
        "DataManagement"
    }

    fn generation(&self) -> Option<u64> {
        Some(self.generation.load(Ordering::Relaxed))
    }

    fn invoke(
        &self,
        method: &str,
        args: &[(String, SoapValue)],
        ctx: &CallContext,
    ) -> SoapResult<SoapValue> {
        let principal = caller_principal(ctx);
        // Over-approximate mutation detection: anything that can change
        // visible namespace state bumps the generation up front, so the
        // versioned read cache can never serve across a write.
        if matches!(
            method,
            "put"
                | "putB64"
                | "rm"
                | "mkdir"
                | "rename"
                | "cp"
                | "open_put"
                | "put_chunk"
                | "commit"
                | "abort"
                | "xml_call"
        ) {
            self.bump();
        }
        match method {
            "ls" => {
                let path = arg_str(args, 0, "collection")?;
                let entries = self.ls_routed(&principal, path)?;
                Ok(SoapValue::Array(
                    entries
                        .into_iter()
                        .map(|e| {
                            SoapValue::Struct(vec![
                                ("name".into(), SoapValue::str(e.name)),
                                ("isCollection".into(), SoapValue::Bool(e.is_collection)),
                                ("size".into(), SoapValue::Int(e.size as i64)),
                            ])
                        })
                        .collect(),
                ))
            }
            "cat" => {
                let path = arg_str(args, 0, "path")?;
                Ok(SoapValue::String(
                    self.route(path)?.cat_utf8(&principal, path)?,
                ))
            }
            "get" => {
                let path = arg_str(args, 0, "path")?;
                Ok(SoapValue::String(
                    self.route(path)?.cat_utf8(&principal, path)?,
                ))
            }
            "put" => {
                let path = arg_str(args, 0, "path")?;
                let content = arg_str(args, 1, "content")?;
                self.route(path)?
                    .srb()
                    .put(&principal, path, content.as_bytes())
                    .map_err(srb_fault)?;
                Ok(SoapValue::Int(content.len() as i64))
            }
            "getB64" => {
                let path = arg_str(args, 0, "path")?;
                let bytes = self
                    .route(path)?
                    .srb()
                    .get(&principal, path)
                    .map_err(srb_fault)?;
                Ok(SoapValue::Base64(bytes))
            }
            "putB64" => {
                let path = arg_str(args, 0, "path")?;
                let bytes = args
                    .get(1)
                    .and_then(|(_, v)| v.as_bytes())
                    .ok_or_else(|| Fault::portal(PortalErrorKind::BadArguments, "missing data"))?;
                self.route(path)?
                    .srb()
                    .put(&principal, path, bytes)
                    .map_err(srb_fault)?;
                Ok(SoapValue::Int(bytes.len() as i64))
            }
            "rm" => {
                let path = arg_str(args, 0, "path")?;
                self.route(path)?
                    .srb()
                    .rm(&principal, path)
                    .map_err(srb_fault)?;
                Ok(SoapValue::Null)
            }
            "mkdir" => {
                let path = arg_str(args, 0, "path")?;
                self.route(path)?.srb().mkdir(path).map_err(srb_fault)?;
                Ok(SoapValue::Null)
            }
            "rename" => {
                let from = arg_str(args, 0, "from")?;
                let to = arg_str(args, 1, "to")?;
                let (si, di) = (
                    self.owner_of(from).unwrap_or(0),
                    self.owner_of(to).unwrap_or(0),
                );
                if si == di {
                    self.backend(si)?
                        .srb()
                        .rename(&principal, from, to)
                        .map_err(srb_fault)?;
                } else {
                    self.rename_across(&principal, si, from, di, to)?;
                }
                Ok(SoapValue::Null)
            }
            "cp" => {
                let from = arg_str(args, 0, "from")?;
                let to = arg_str(args, 1, "to")?;
                let (si, di) = (
                    self.owner_of(from).unwrap_or(0),
                    self.owner_of(to).unwrap_or(0),
                );
                if si == di {
                    self.backend(si)?
                        .srb()
                        .cp(&principal, from, to)
                        .map_err(srb_fault)?;
                } else {
                    self.cp_across(&principal, si, from, di, to)?;
                }
                Ok(SoapValue::Null)
            }
            "open_get" => {
                let path = arg_str(args, 0, "path")?;
                let k = self.owner_of(path).unwrap_or(0);
                let (handle, size) = self
                    .backend(k)?
                    .transfers()
                    .open_get(&principal, path)
                    .map_err(|e| e.to_fault())?;
                Ok(SoapValue::Struct(vec![
                    ("handle".into(), SoapValue::str(format!("s{k}/{handle}"))),
                    ("size".into(), SoapValue::Int(size as i64)),
                ]))
            }
            "get_chunk" => {
                let handle = arg_str(args, 0, "handle")?;
                let off = arg_usize(args, 1, "offset")?;
                let len = arg_usize(args, 2, "length")?;
                let (k, inner) = self.parse_handle(handle)?;
                let bytes = self
                    .backend(k)?
                    .transfers()
                    .get_chunk(&principal, inner, off, len)
                    .map_err(|e| e.to_fault())?;
                Ok(SoapValue::Base64(bytes))
            }
            "open_put" => {
                let path = arg_str(args, 0, "path")?;
                let k = self.owner_of(path).unwrap_or(0);
                let handle = self
                    .backend(k)?
                    .transfers()
                    .open_put(&principal, path)
                    .map_err(|e| e.to_fault())?;
                Ok(SoapValue::String(format!("s{k}/{handle}")))
            }
            "put_chunk" => {
                let handle = arg_str(args, 0, "handle")?;
                let off = arg_usize(args, 1, "offset")?;
                let data = args
                    .get(2)
                    .and_then(|(_, v)| v.as_bytes())
                    .ok_or_else(|| Fault::portal(PortalErrorKind::BadArguments, "missing data"))?;
                let (k, inner) = self.parse_handle(handle)?;
                let acked = self
                    .backend(k)?
                    .transfers()
                    .put_chunk(&principal, inner, off, data)
                    .map_err(|e| e.to_fault())?;
                Ok(SoapValue::Int(acked as i64))
            }
            "commit" => {
                let handle = arg_str(args, 0, "handle")?;
                let (k, inner) = self.parse_handle(handle)?;
                let total = self
                    .backend(k)?
                    .transfers()
                    .commit(&principal, inner)
                    .map_err(|e| e.to_fault())?;
                Ok(SoapValue::Int(total as i64))
            }
            "abort" => {
                let handle = arg_str(args, 0, "handle")?;
                let (k, inner) = self.parse_handle(handle)?;
                self.backend(k)?
                    .transfers()
                    .abort(&principal, inner)
                    .map_err(|e| e.to_fault())?;
                Ok(SoapValue::Null)
            }
            "xml_call" => {
                let request = args.first().and_then(|(_, v)| v.as_xml()).ok_or_else(|| {
                    Fault::portal(PortalErrorKind::BadArguments, "missing request document")
                })?;
                if request.local_name() != "request" {
                    return Err(Fault::portal(
                        PortalErrorKind::BadArguments,
                        "xml_call expects a <request> document",
                    ));
                }
                let mut response = Element::new("response");
                for cmd in request.children() {
                    response.push_child(self.run_routed_command(&principal, cmd));
                }
                Ok(SoapValue::Xml(response))
            }
            other => Err(Fault::client(format!(
                "DataManagement has no method {other:?}"
            ))),
        }
    }

    fn methods(&self) -> Vec<MethodDesc> {
        vec![
            MethodDesc::new(
                "ls",
                vec![("collection", SoapType::String)],
                SoapType::Array,
                "Directory listing of an SRB collection (root merges all shards)",
            ),
            MethodDesc::new(
                "cat",
                vec![("path", SoapType::String)],
                SoapType::String,
                "Contents of a file in an SRB collection",
            ),
            MethodDesc::new(
                "get",
                vec![("path", SoapType::String)],
                SoapType::String,
                "Transfer a file to the client as a string",
            ),
            MethodDesc::new(
                "put",
                vec![("path", SoapType::String), ("content", SoapType::String)],
                SoapType::Int,
                "Transfer a file from the client as a string",
            ),
            MethodDesc::new(
                "getB64",
                vec![("path", SoapType::String)],
                SoapType::Base64,
                "Binary-safe transfer to the client (ablation)",
            ),
            MethodDesc::new(
                "putB64",
                vec![("path", SoapType::String), ("data", SoapType::Base64)],
                SoapType::Int,
                "Binary-safe transfer from the client (ablation)",
            ),
            MethodDesc::new(
                "rm",
                vec![("path", SoapType::String)],
                SoapType::Void,
                "Delete an object",
            ),
            MethodDesc::new(
                "mkdir",
                vec![("path", SoapType::String)],
                SoapType::Void,
                "Create a collection",
            ),
            MethodDesc::new(
                "rename",
                vec![("from", SoapType::String), ("to", SoapType::String)],
                SoapType::Void,
                "Move an object; cross-shard moves run the journaled copy-then-delete protocol",
            ),
            MethodDesc::new(
                "cp",
                vec![("from", SoapType::String), ("to", SoapType::String)],
                SoapType::Void,
                "Copy an object, leaving the source in place",
            ),
            MethodDesc::new(
                "open_get",
                vec![("path", SoapType::String)],
                SoapType::Struct,
                "Open a chunked read handle; returns {handle, size}",
            ),
            MethodDesc::new(
                "get_chunk",
                vec![
                    ("handle", SoapType::String),
                    ("offset", SoapType::Int),
                    ("length", SoapType::Int),
                ],
                SoapType::Base64,
                "Ranged read through a transfer handle; empty at EOF",
            ),
            MethodDesc::new(
                "open_put",
                vec![("path", SoapType::String)],
                SoapType::String,
                "Open a chunked write handle staging beside the destination",
            ),
            MethodDesc::new(
                "put_chunk",
                vec![
                    ("handle", SoapType::String),
                    ("offset", SoapType::Int),
                    ("data", SoapType::Base64),
                ],
                SoapType::Int,
                "Append one chunk; returns the acknowledged frontier",
            ),
            MethodDesc::new(
                "commit",
                vec![("handle", SoapType::String)],
                SoapType::Int,
                "Atomically promote a staged put to its destination",
            ),
            MethodDesc::new(
                "abort",
                vec![("handle", SoapType::String)],
                SoapType::Void,
                "Abandon a transfer and reclaim its handle and staging",
            ),
            MethodDesc::new(
                "xml_call",
                vec![("request", SoapType::Xml)],
                SoapType::Xml,
                "Execute multiple SRB commands from one XML request over one connection",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portalws_soap::{SoapClient, SoapServer};
    use portalws_wire::{Handler, InMemoryTransport};
    use std::sync::atomic::AtomicUsize;

    fn client(shards: usize) -> (Arc<ShardedDataService>, SoapClient) {
        let svc = Arc::new(ShardedDataService::new(shards));
        let server = SoapServer::new();
        server.mount(Arc::clone(&svc) as Arc<dyn SoapService>);
        let handler: Arc<dyn Handler> = Arc::new(server);
        (
            svc,
            SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "DataManagement"),
        )
    }

    /// Two top-level collections owned by different shards, by probing
    /// names until ownership differs.
    fn two_cross_shard_tops(svc: &ShardedDataService) -> (String, String) {
        let map = svc.map();
        let first = "proj-0".to_owned();
        let owner = map.owner_of_top(&first);
        for i in 1..1000 {
            let cand = format!("proj-{i}");
            if map.owner_of_top(&cand) != owner {
                return (first, cand);
            }
        }
        unreachable!("fnv spreads 1000 names over ≥2 shards");
    }

    #[test]
    fn ring_balances_64_collections_within_gate() {
        let map = ShardMap::new(4, DEFAULT_VNODES);
        let mut counts = vec![0usize; 4];
        for i in 0..64 {
            counts[map.owner_of_top(&format!("coll-{i:02}"))] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let mean = 64.0 / 4.0;
        assert!(
            max / mean <= 1.25,
            "balance max/mean {:.3} over gate; counts {counts:?}",
            max / mean
        );
    }

    #[test]
    fn topology_change_moves_a_bounded_key_fraction() {
        let before = ShardMap::new(4, DEFAULT_VNODES);
        let after = ShardMap::new(5, DEFAULT_VNODES);
        let moved = (0..256)
            .filter(|i| {
                let top = format!("coll-{i}");
                before.owner_of_top(&top) != after.owner_of_top(&top)
            })
            .count();
        // Consistent hashing: going 4 → 5 shards should move ~1/5 of
        // keys, nowhere near the ~4/5 a mod-N rehash would.
        assert!(
            moved * 2 < 256,
            "adding one shard moved {moved}/256 keys — not consistent"
        );
        assert!(moved > 0, "a new shard must own something");
    }

    #[test]
    fn ops_route_to_the_owning_shard_and_root_ls_merges() {
        let (svc, c) = client(4);
        let (a, b) = two_cross_shard_tops(&svc);
        for top in [&a, &b] {
            c.call("mkdir", &[SoapValue::str(format!("/{top}"))])
                .unwrap();
            c.call(
                "put",
                &[
                    SoapValue::str(format!("/{top}/f.txt")),
                    SoapValue::str(top.clone()),
                ],
            )
            .unwrap();
        }
        // Each top exists only on its owning backend.
        let (ka, kb) = (
            svc.owner_of(&format!("/{a}")).unwrap(),
            svc.owner_of(&format!("/{b}")).unwrap(),
        );
        assert_ne!(ka, kb);
        assert!(svc.backends()[ka]
            .srb()
            .stat("anonymous", &format!("/{a}/f.txt"))
            .is_ok());
        assert!(svc.backends()[kb]
            .srb()
            .stat("anonymous", &format!("/{a}/f.txt"))
            .is_err());
        // Reads route back.
        let got = c
            .call("cat", &[SoapValue::str(format!("/{a}/f.txt"))])
            .unwrap();
        assert_eq!(got.as_str(), Some(a.as_str()));
        // Root ls is the merged union.
        let root = c.call("ls", &[SoapValue::str("/")]).unwrap();
        let names: Vec<&str> = root
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|e| e.field("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.contains(&a.as_str()) && names.contains(&b.as_str()));
    }

    #[test]
    fn wrapped_handles_keep_chunked_transfers_on_their_backend() {
        let (svc, c) = client(4);
        let (a, _) = two_cross_shard_tops(&svc);
        c.call("mkdir", &[SoapValue::str(format!("/{a}"))]).unwrap();
        let payload: Vec<u8> = (0..40_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let handle = c
            .call("open_put", &[SoapValue::str(format!("/{a}/big.bin"))])
            .unwrap();
        let handle = handle.as_str().unwrap().to_owned();
        assert!(
            handle.starts_with('s') && handle.contains("/t-"),
            "{handle}"
        );
        let mut off = 0;
        while off < payload.len() {
            let end = (off + 9_000).min(payload.len());
            c.call(
                "put_chunk",
                &[
                    SoapValue::str(handle.clone()),
                    SoapValue::Int(off as i64),
                    SoapValue::Base64(payload[off..end].to_vec()),
                ],
            )
            .unwrap();
            off = end;
        }
        let total = c.call("commit", &[SoapValue::str(handle)]).unwrap();
        assert_eq!(total.as_i64(), Some(payload.len() as i64));
        assert_eq!(
            svc.get_bytes("anonymous", &format!("/{a}/big.bin"))
                .unwrap(),
            payload
        );
        // Unknown / malformed handles surface NOT_FOUND, not a panic.
        for bad in ["t-1", "s9/t-1", "sX/t-1"] {
            let err = c
                .call(
                    "get_chunk",
                    &[SoapValue::str(bad), SoapValue::Int(0), SoapValue::Int(16)],
                )
                .unwrap_err();
            assert_eq!(
                err.as_fault().and_then(|f| f.kind()),
                Some(PortalErrorKind::NotFound),
                "{bad}"
            );
        }
    }

    #[test]
    fn cross_shard_rename_moves_exactly_one_visible_copy() {
        let (svc, c) = client(4);
        let (a, b) = two_cross_shard_tops(&svc);
        svc.mkdir(&format!("/{a}")).unwrap();
        svc.mkdir(&format!("/{b}")).unwrap();
        let body: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        svc.put_bytes("anonymous", &format!("/{a}/data.bin"), &body)
            .unwrap();
        c.call(
            "rename",
            &[
                SoapValue::str(format!("/{a}/data.bin")),
                SoapValue::str(format!("/{b}/data.bin")),
            ],
        )
        .unwrap();
        assert!(svc
            .get_bytes("anonymous", &format!("/{a}/data.bin"))
            .is_err());
        assert_eq!(
            svc.get_bytes("anonymous", &format!("/{b}/data.bin"))
                .unwrap(),
            body
        );
        assert_eq!(svc.pending_moves(), 0);
        // No tombstone or staging residue on either shard.
        for top in [&a, &b] {
            let names = svc
                .ls_routed("anonymous", &format!("/{top}"))
                .unwrap()
                .into_iter()
                .map(|e| e.name)
                .collect::<Vec<_>>();
            assert!(
                names
                    .iter()
                    .all(|n| !n.starts_with(".mv-") && !n.starts_with(".part-")),
                "residue in /{top}: {names:?}"
            );
        }
    }

    #[test]
    fn cross_shard_cp_leaves_source_in_place() {
        let (svc, c) = client(4);
        let (a, b) = two_cross_shard_tops(&svc);
        svc.mkdir(&format!("/{a}")).unwrap();
        svc.mkdir(&format!("/{b}")).unwrap();
        svc.put_bytes("anonymous", &format!("/{a}/f"), b"payload")
            .unwrap();
        c.call(
            "cp",
            &[
                SoapValue::str(format!("/{a}/f")),
                SoapValue::str(format!("/{b}/f")),
            ],
        )
        .unwrap();
        assert_eq!(
            svc.get_bytes("anonymous", &format!("/{a}/f")).unwrap(),
            b"payload"
        );
        assert_eq!(
            svc.get_bytes("anonymous", &format!("/{b}/f")).unwrap(),
            b"payload"
        );
        assert_eq!(svc.pending_moves(), 0);
    }

    #[test]
    fn faulted_moves_recover_to_exactly_one_visible_copy() {
        for point in ["copy-chunk", "pre-commit", "delete-leg"] {
            let (svc, c) = client(4);
            let (a, b) = two_cross_shard_tops(&svc);
            svc.mkdir(&format!("/{a}")).unwrap();
            svc.mkdir(&format!("/{b}")).unwrap();
            let body: Vec<u8> = (0..150_000u32).map(|i| (i % 241) as u8).collect();
            svc.put_bytes("anonymous", &format!("/{a}/data.bin"), &body)
                .unwrap();
            let fired = Arc::new(AtomicUsize::new(0));
            let fired2 = Arc::clone(&fired);
            let target = point.to_owned();
            svc.set_fault_hook(Some(Arc::new(move |p: &str| {
                p == target && fired2.fetch_add(1, Ordering::Relaxed) == 0
            })));
            let err = c
                .call(
                    "rename",
                    &[
                        SoapValue::str(format!("/{a}/data.bin")),
                        SoapValue::str(format!("/{b}/data.bin")),
                    ],
                )
                .unwrap_err();
            assert!(err.to_string().contains("injected"), "{point}: {err}");
            assert_eq!(svc.pending_moves(), 1, "{point}");
            svc.set_fault_hook(None);
            let report = svc.recover();
            assert_eq!(report.rolled_forward + report.rolled_back, 1, "{point}");
            // Exactly one complete copy under the user-facing names.
            let src = svc.get_bytes("anonymous", &format!("/{a}/data.bin"));
            let dst = svc.get_bytes("anonymous", &format!("/{b}/data.bin"));
            match (src, dst) {
                (Ok(bytes), Err(_)) | (Err(_), Ok(bytes)) => {
                    assert_eq!(bytes, body, "{point}: surviving copy must be complete")
                }
                (Ok(_), Ok(_)) => panic!("{point}: both names visible after recovery"),
                (Err(_), Err(_)) => panic!("{point}: payload lost after recovery"),
            }
            // Delete-leg faults roll forward (dst); earlier ones roll back.
            if point == "delete-leg" {
                assert_eq!(report.rolled_forward, 1, "{point}");
            } else {
                assert_eq!(report.rolled_back, 1, "{point}");
            }
            // No tombstones or staging residue anywhere.
            for (k, backend) in svc.backends().iter().enumerate() {
                for top in [&a, &b] {
                    if let Ok(entries) = backend.srb().ls("anonymous", &format!("/{top}")) {
                        for e in entries {
                            assert!(
                                !e.name.starts_with(".mv-") && !e.name.starts_with(".part-"),
                                "{point}: residue {:?} on shard {k}",
                                e.name
                            );
                        }
                    }
                }
            }
            assert_eq!(svc.pending_moves(), 0, "{point}");
        }
    }

    #[test]
    fn recovered_moves_leave_each_home_its_exact_headroom() {
        // Journaled moves and their recovery go through the brokers'
        // own put/append/rename/rm, so each home's running byte total
        // must come out of any crash point counting exactly the objects
        // still visible: no tombstone, staging or lost bytes.
        const QUOTA: usize = 400_000;
        let cases = [
            ("rename", "copy-chunk"),
            ("rename", "pre-commit"),
            ("rename", "delete-leg"),
            ("cp", "copy-chunk"),
            ("cp", "pre-commit"),
        ];
        for (method, point) in cases {
            let (svc, c) = client(4);
            let (a, b) = two_cross_shard_tops(&svc);
            for top in [&a, &b] {
                svc.mkdir(&format!("/{top}")).unwrap();
                svc.set_quota(&format!("/{top}"), QUOTA);
            }
            let body: Vec<u8> = (0..150_000u32).map(|i| (i % 239) as u8).collect();
            svc.put_bytes("anonymous", &format!("/{a}/data.bin"), &body)
                .unwrap();
            let fired = Arc::new(AtomicUsize::new(0));
            let fired2 = Arc::clone(&fired);
            let target = point.to_owned();
            svc.set_fault_hook(Some(Arc::new(move |p: &str| {
                p == target && fired2.fetch_add(1, Ordering::Relaxed) == 0
            })));
            let from = SoapValue::str(format!("/{a}/data.bin"));
            let to = SoapValue::str(format!("/{b}/data.bin"));
            let err = c.call(method, &[from, to]).unwrap_err();
            assert!(
                err.to_string().contains("injected"),
                "{method} {point}: {err}"
            );
            svc.set_fault_hook(None);
            let report = svc.recover();
            // A rename rolled forward leaves the bytes only in b; every
            // other recovery leaves them only in a.
            let expected = if report.rolled_forward == 1 {
                assert_eq!((method, point), ("rename", "delete-leg"));
                [(&a, 0), (&b, body.len())]
            } else {
                assert_eq!(report.rolled_back, 1, "{method} {point}");
                [(&a, body.len()), (&b, 0)]
            };
            for (top, used) in expected {
                let visible = svc.get_bytes("anonymous", &format!("/{top}/data.bin"));
                assert_eq!(visible.is_ok(), used > 0, "{method} {point}: /{top}");
                let k = svc.owner_of(&format!("/{top}")).unwrap();
                let srb = svc.backends()[k].srb();
                let probe = format!("/{top}/probe");
                srb.put("anonymous", &probe, &vec![0; QUOTA - used])
                    .unwrap_or_else(|e| {
                        panic!("{method} {point}: /{top} refuses its headroom: {e}")
                    });
                srb.rm("anonymous", &probe).unwrap();
                assert!(
                    matches!(
                        srb.put("anonymous", &probe, &vec![0; QUOTA - used + 1]),
                        Err(SrbError::DiskFull { .. })
                    ),
                    "{method} {point}: /{top} admits a byte past its quota"
                );
            }
        }
    }

    #[test]
    fn generation_bumps_on_mutations_and_topology_changes() {
        let (svc, c) = client(2);
        let g0 = svc.current_generation();
        c.call("ls", &[SoapValue::str("/")]).unwrap();
        assert_eq!(svc.current_generation(), g0, "reads must not bump");
        c.call("mkdir", &[SoapValue::str("/gen-test")]).unwrap();
        let g1 = svc.current_generation();
        assert!(g1 > g0, "mkdir must bump");
        svc.install_map(ShardMap::new(2, DEFAULT_VNODES));
        assert!(svc.current_generation() > g1, "topology change must bump");
        assert_eq!(svc.generation(), Some(svc.current_generation()));
    }

    #[test]
    fn xml_call_routes_commands_and_merges_root_ls() {
        let (svc, c) = client(4);
        let (a, b) = two_cross_shard_tops(&svc);
        let request = Element::new("request")
            .with_child(Element::new("mkdir").with_attr("path", format!("/{a}")))
            .with_child(Element::new("mkdir").with_attr("path", format!("/{b}")))
            .with_child(
                Element::new("put")
                    .with_attr("path", format!("/{a}/x"))
                    .with_text("alpha"),
            )
            .with_child(Element::new("cat").with_attr("path", format!("/{a}/x")))
            .with_child(Element::new("ls").with_attr("collection", "/"));
        let out = c.call("xml_call", &[SoapValue::Xml(request)]).unwrap();
        let response = out.as_xml().unwrap();
        let results: Vec<&Element> = response.children().collect();
        assert_eq!(results.len(), 5);
        assert_eq!(results[3].text(), "alpha");
        let listed: Vec<_> = results[4]
            .children()
            .filter_map(|e| e.attr("name"))
            .collect();
        assert!(listed.contains(&a.as_str()) && listed.contains(&b.as_str()));
    }

    #[test]
    fn testbed_provisions_each_top_only_on_its_owner() {
        let svc = ShardedDataService::testbed(&["alice@GCE.ORG", "bob@GCE.ORG"], 3);
        for top in ["home-alice@GCE.ORG", "home-bob@GCE.ORG", "public"] {
            let owner = svc.map().owner_of_top(top);
            for (k, backend) in svc.backends().iter().enumerate() {
                let present = backend.srb().ls_root().iter().any(|e| e.name == top);
                if k == owner {
                    assert!(present, "{top} missing on owner {k}");
                } else {
                    assert!(!present, "{top} duplicated on {k}");
                }
            }
        }
        // ACLs hold through the router.
        assert!(svc
            .get_bytes("bob@GCE.ORG", "/home-alice@GCE.ORG/x")
            .is_err());
        assert_eq!(
            svc.get_bytes("anonymous", "/public/README").unwrap(),
            b"GCE testbed public collection\n"
        );
    }
}
