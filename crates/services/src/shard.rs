//! Namespace sharding for the `DataManagement` facade.
//!
//! One broker scales until its stripes saturate; past that the namespace
//! itself must be split across processes. [`DataManagementService`]
//! consistent-hashes the **top-level collection** of every path onto one
//! of its shards and runs the call there:
//!
//! * [`ShardMap`] is a consistent-hash ring with virtual nodes, so adding
//!   a shard moves only ~1/M of the keyspace instead of rehashing it all.
//!   A one-shard map builds no ring: its shard owns every key.
//! * Transfer handles are wrapped as `s<k>/t-<id>` so chunked reads and
//!   writes keep flowing to the shard that opened them, with no facade
//!   state per handle.
//! * The facade carries a **generation**: it implements
//!   [`SoapService::generation`] and answers the `generation` method,
//!   bumping the counter on every mutation and on every topology change,
//!   so the E14 versioned read cache and clients revalidate instead of
//!   serving reads from a stale layout.
//! * `rename`/`cp` whose source and destination land on different shards
//!   cannot use a broker's atomic move. The facade runs a journaled
//!   copy-then-delete protocol built from the E13 chunked-transfer
//!   primitives, designed so that a coordinator crash at any step leaves
//!   the namespace recoverable with **exactly one** complete copy
//!   visible under the *user-facing* names:
//!
//!   1. atomically rename the source to a hidden `.mv-<id>-…` tombstone
//!      on its own shard — from here the source *name* is gone, but the
//!      bytes are not,
//!   2. stage a chunked put at the destination shard (its ACL and quota
//!      apply here and to every chunk),
//!   3. stream the tombstone into the destination staging area,
//!   4. commit the destination (atomic promote — the point of no return),
//!   5. delete the tombstone.
//!
//!   A journal entry recorded before step 1 drives [`recover`]: entries
//!   that reached step 4 roll forward (re-run the delete leg), earlier
//!   ones roll back (abort staging, rename the tombstone home if step 1
//!   made one), and an entry whose repair a broker refuses stays for the
//!   next call. A step before the commit point that a broker refuses (a
//!   missing source, a destination the caller may not write or that is
//!   full) is rolled back the same way before the call returns, so the
//!   caller sees the refusal with the namespace as it was, as on one
//!   broker. Past the commit point the move has happened and the call
//!   succeeds; a tombstone already gone counts as deleted, and a delete
//!   leg the broker refuses leaves its entry for [`recover`], as does a
//!   coordinator that dies mid-move. The e12 chaos harness injects such
//!   deaths at `copy-chunk`, `pre-commit` and `delete-leg` and asserts
//!   the exactly-one-copy invariant after recovery.
//!
//! [`recover`]: DataManagementService::recover
//! [`SoapService::generation`]: portalws_soap::SoapService::generation

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use portalws_gridsim::srb::{DirEntry, Srb, SrbError};

type SrbResult<T> = std::result::Result<T, SrbError>;
use portalws_soap::{Fault, PortalErrorKind, SoapResult};
use portalws_xml::Element;

use crate::data::{error_result, ls_entry, srb_fault, DataManagementService, Shard};

/// Virtual nodes per shard on a ring of two or more shards. Enough that
/// 64 top-level collections over 4 shards balance within the e16 gate
/// (max/mean ≤ 1.25) while keeping the ring a few hundred entries.
const VNODES: usize = 160;

/// Bytes streamed per chunk while a cross-shard move copies the
/// tombstone into the destination staging area.
const COPY_CHUNK: usize = 64 * 1024;

/// The one path that lists the root: the union of every shard's
/// top-level collections. Every other spelling goes to a broker, which
/// refuses the ones it does not accept.
const ROOT: &str = "/";

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
/// indices. Pure data: the facade swaps whole maps atomically.
#[derive(Clone)]
pub struct ShardMap {
    /// `(point, shard)` sorted by point; a key owns the first point at or
    /// after its own hash, wrapping at the top. Empty for one shard.
    ring: Vec<(u64, usize)>,
}

impl ShardMap {
    /// A map of `shards` shards (at least one). Two or more get a ring of
    /// 160 virtual nodes each; one shard owns every key, so it builds
    /// none.
    pub fn new(shards: usize) -> ShardMap {
        let shards = shards.max(1);
        let vnodes = if shards > 1 { VNODES } else { 0 };
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
        ShardMap { ring }
    }

    /// Shard owning top-level collection `top`.
    pub fn owner_of_top(&self, top: &str) -> usize {
        if self.ring.is_empty() {
            return 0;
        }
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
    /// Shard-local read handle streaming the source, if still open.
    src_handle: Option<String>,
    /// Shard-local staged-put handle at the destination, if still open.
    dst_handle: Option<String>,
    /// True once the source was renamed to its tombstone; `cp` never
    /// hides its source. Only a hidden source has a tombstone to delete
    /// or rename back.
    hidden: bool,
    /// True once the destination committed: roll forward from here.
    committed: bool,
}

/// The cross-shard move journal, and the chaos hook fired at its
/// protocol points.
pub(crate) struct Journal {
    fault_hook: RwLock<Option<FaultHook>>,
    moves: Mutex<HashMap<u64, MoveRecord>>,
    next_move: AtomicU64,
}

impl Journal {
    pub(crate) fn new() -> Journal {
        Journal {
            fault_hook: RwLock::new_named(None, "shard-fault-hook"),
            moves: Mutex::new_named(HashMap::new(), "shard-move-journal"),
            next_move: AtomicU64::new(1),
        }
    }
}

/// Counts of moves repaired by [`DataManagementService::recover`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Moves past the commit point whose delete leg was re-run.
    pub rolled_forward: usize,
    /// Moves before the commit point whose source was restored.
    pub rolled_back: usize,
    /// Moves whose repair a broker refused; their entries stay in the
    /// journal for a later `recover`.
    pub pending: usize,
}

impl DataManagementService {
    /// The current shard map.
    pub fn map(&self) -> Arc<ShardMap> {
        self.map.load()
    }

    /// Install a new shard map (topology change) and bump the
    /// generation so cached reads revalidate against the new layout.
    pub fn install_map(&self, map: ShardMap) {
        self.map.store(Arc::new(map));
        self.bump();
    }

    /// Shard index owning `path`, or `None` for the root.
    pub fn owner_of(&self, path: &str) -> Option<usize> {
        top_of(path).map(|top| self.map.load().owner_of_top(top))
    }

    /// Install (or clear) the chaos hook fired at cross-shard move
    /// protocol points. Test/chaos instrumentation only.
    pub fn set_fault_hook(&self, hook: Option<FaultHook>) {
        *self.journal.fault_hook.write() = hook;
    }

    /// Cross-shard moves still in the journal (0 after clean runs and
    /// after `recover`).
    pub fn pending_moves(&self) -> usize {
        self.journal.moves.lock().len()
    }

    pub(crate) fn bump(&self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Shard index a path routes to: its top's owner, or shard 0 for a
    /// path with no top (`/`, `""`). A path the brokers refuse gets the
    /// same error from every shard.
    pub(crate) fn owner(&self, path: &str) -> usize {
        self.owner_of(path).unwrap_or(0)
    }

    pub(crate) fn shard(&self, k: usize) -> SoapResult<&Shard> {
        self.shards.get(k).ok_or_else(|| {
            Fault::portal(
                PortalErrorKind::NotFound,
                format!("no shard {k} in a {}-shard map", self.shards.len()),
            )
        })
    }

    /// Shard owning `path`.
    pub(crate) fn route(&self, path: &str) -> SoapResult<&Shard> {
        self.shard(self.owner(path))
    }

    /// Open a chunked read on the shard owning `path`, returning the
    /// handle wrapped as `s<k>/<handle>` and the object's size.
    pub(crate) fn open_get(&self, principal: &str, path: &str) -> SoapResult<(String, usize)> {
        let k = self.owner(path);
        let (handle, size) = (self.shard(k)?.transfers())
            .open_get(principal, path)
            .map_err(|e| e.to_fault())?;
        Ok((format!("s{k}/{handle}"), size))
    }

    /// Open a staged put on the shard owning `path`, returning the handle
    /// wrapped as `s<k>/<handle>`.
    pub(crate) fn open_put(&self, principal: &str, path: &str) -> SoapResult<String> {
        let k = self.owner(path);
        let handle = (self.shard(k)?.transfers())
            .open_put(principal, path)
            .map_err(|e| e.to_fault())?;
        Ok(format!("s{k}/{handle}"))
    }

    /// The shard a wrapped `s<k>/t-<id>` handle names, and its shard-local
    /// handle.
    pub(crate) fn handle_shard<'a>(&self, handle: &'a str) -> SoapResult<(&Shard, &'a str)> {
        handle
            .strip_prefix('s')
            .and_then(|rest| rest.split_once('/'))
            .and_then(|(k, inner)| Some((self.shards.get(k.parse::<usize>().ok()?)?, inner)))
            .ok_or_else(|| {
                Fault::portal(
                    PortalErrorKind::NotFound,
                    format!("no transfer handle {handle:?}"),
                )
            })
    }

    fn fault_point(&self, point: &str, op: &str) -> Result<(), Stop> {
        let hook = self.journal.fault_hook.read().clone();
        if let Some(hook) = hook {
            if hook(point) {
                return Err(Stop::Crashed(Fault::portal(
                    PortalErrorKind::Internal,
                    format!("injected coordinator fault at {point} during {op}"),
                )));
            }
        }
        Ok(())
    }

    // ---- provisioning helpers (routed equivalents of the Srb admin API)

    /// The broker owning `path`.
    fn broker(&self, path: &str) -> SrbResult<&Arc<Srb>> {
        (self.route(path).map(Shard::srb)).map_err(|_| SrbError::Invalid(path.to_owned()))
    }

    // Each write bumps the generation after it lands, as `invoke` does.

    /// Create a collection on the owning shard.
    pub fn mkdir(&self, path: &str) -> SrbResult<()> {
        let made = self.broker(path)?.mkdir(path);
        self.bump();
        made
    }

    /// Restrict a top-level collection on its owning shard.
    pub fn set_acl(&self, top: &str, principals: Vec<String>) {
        if let Ok(srb) = self.broker(top) {
            srb.set_acl(top, principals);
        }
        self.bump();
    }

    /// Set a byte quota on a top-level collection's owning shard.
    pub fn set_quota(&self, top: &str, bytes: usize) {
        if let Ok(srb) = self.broker(top) {
            srb.set_quota(top, bytes);
        }
        self.bump();
    }

    /// Routed write (testbed seeding and chaos ground truth).
    pub fn put_bytes(&self, principal: &str, path: &str, bytes: &[u8]) -> SrbResult<()> {
        let put = self.broker(path)?.put(principal, path, bytes);
        self.bump();
        put
    }

    /// Routed read (chaos ground truth).
    pub fn get_bytes(&self, principal: &str, path: &str) -> SrbResult<Vec<u8>> {
        self.broker(path)?.get(principal, path)
    }

    // ---- routed operations

    /// Every shard's top-level collections in name order (each top exists
    /// only on its owner, so entries never collide). Names only: each
    /// top's ACL still guards what lies beneath.
    fn root_entries(&self) -> Vec<DirEntry> {
        let mut entries: Vec<DirEntry> =
            self.shards.iter().flat_map(|s| s.srb().ls_root()).collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// List `path` on its owning shard; exactly [`ROOT`] lists the root.
    pub(crate) fn ls_routed(&self, principal: &str, path: &str) -> SoapResult<Vec<DirEntry>> {
        if path == ROOT {
            return Ok(self.root_entries());
        }
        self.route(path)?
            .srb()
            .ls(principal, path)
            .map_err(srb_fault)
    }

    /// Route one `xml_call` command to the shard owning its path; an `ls`
    /// of exactly [`ROOT`] lists the root, as the `ls` method does.
    pub(crate) fn run_routed_command(&self, principal: &str, cmd: &Element) -> Element {
        let op = cmd.local_name();
        let path = cmd.attr(if op == "ls" { "collection" } else { "path" });
        if op == "ls" && path == Some(ROOT) {
            return Element::new("result").with_attr("op", "ls").with_children(
                (self.root_entries().iter()).map(|e| ls_entry(&e.name, e.is_collection, e.size)),
            );
        }
        // A missing path attribute routes to shard 0, whose broker
        // reports the inline error every shard count reports.
        match self.shard(path.map_or(0, |p| self.owner(p))) {
            Ok(shard) => shard.run_command(principal, cmd),
            Err(e) => error_result(op, e.string),
        }
    }

    /// `rename` (or `cp`, with `copy`): one broker's atomic move when
    /// both paths live on one shard, the journaled protocol across shards.
    pub(crate) fn move_object(
        &self,
        principal: &str,
        from: &str,
        to: &str,
        copy: bool,
    ) -> SoapResult<()> {
        let (si, di) = (self.owner(from), self.owner(to));
        if si != di {
            return if copy {
                self.cp_across(principal, si, from, di, to)
            } else {
                self.rename_across(principal, si, from, di, to)
            };
        }
        let srb = self.shard(si)?.srb();
        let moved = if copy {
            srb.cp(principal, from, to)
        } else {
            srb.rename(principal, from, to)
        };
        moved.map_err(srb_fault)
    }

    /// Journal a move of `src` from shard `si` to shard `di` before its
    /// first step. Returns the move's id and, unless `copy_only`, the
    /// hidden tombstone name the source moves to first.
    fn journal_move(
        &self,
        principal: &str,
        (si, src): (usize, &str),
        di: usize,
        copy_only: bool,
    ) -> (u64, String) {
        let id = self.journal.next_move.fetch_add(1, Ordering::Relaxed);
        let tombstone = match src.rsplit_once('/') {
            _ if copy_only => String::new(),
            Some((parent, leaf)) => format!("{parent}/.mv-{id}-{leaf}"),
            None => format!("/.mv-{id}-{src}"),
        };
        let record = MoveRecord {
            principal: principal.to_owned(),
            src_shard: si,
            dst_shard: di,
            src: src.to_owned(),
            tombstone: tombstone.clone(),
            src_handle: None,
            dst_handle: None,
            hidden: false,
            committed: false,
        };
        self.journal.moves.lock().insert(id, record);
        (id, tombstone)
    }

    /// Retire move `id` once it stopped. A finished move leaves no entry.
    /// Neither does one a broker refused before the commit point: the
    /// coordinator is alive, so it rolls the move back at once, as
    /// `recover` would, and the caller sees the refusal with the
    /// namespace as it was (a roll-back the broker refuses in turn keeps
    /// its entry for `recover`). Past the commit point the move has
    /// happened, so a refused delete leg leaves its entry for `recover`
    /// and the call succeeds. An injected fault, which stands for a
    /// coordinator that died mid-move, leaves its entry and reaches the
    /// caller.
    fn settle(&self, id: u64, outcome: Result<(), Stop>) -> SoapResult<()> {
        let mut moves = self.journal.moves.lock();
        match outcome {
            Err(Stop::Crashed(f)) => Err(f),
            Err(Stop::Refused(_)) if moves.get(&id).is_some_and(|r| r.committed) => Ok(()),
            Err(Stop::Refused(f)) => {
                let rec = moves.remove(&id);
                drop(moves);
                if let Some(rec) = rec {
                    self.retire(id, rec);
                }
                Err(f)
            }
            Ok(()) => {
                moves.remove(&id);
                Ok(())
            }
        }
    }

    /// Copy `src_path` on shard `si` into a staged put of `dst_path` on
    /// shard `di` using the chunked-transfer primitives, updating the
    /// journal entry `id` with the open handles as they appear. Returns
    /// the destination's shard-local staging handle, **not yet
    /// committed**.
    fn copy_across(
        &self,
        id: u64,
        op: &str,
        principal: &str,
        (si, src_path): (usize, &str),
        (di, dst_path): (usize, &str),
    ) -> Result<String, Stop> {
        let src_s = self.shard(si)?;
        let dst_s = self.shard(di)?;
        let dst_handle = dst_s
            .transfers()
            .open_put(principal, dst_path)
            .map_err(|e| e.to_fault())?;
        if let Some(rec) = self.journal.moves.lock().get_mut(&id) {
            rec.dst_handle = Some(dst_handle.clone());
        }
        let (src_handle, size) = src_s
            .transfers()
            .open_get(principal, src_path)
            .map_err(|e| e.to_fault())?;
        if let Some(rec) = self.journal.moves.lock().get_mut(&id) {
            rec.src_handle = Some(src_handle.clone());
        }
        let mut off = 0usize;
        while off < size {
            self.fault_point("copy-chunk", op)?;
            let chunk = src_s
                .transfers()
                .get_chunk(principal, &src_handle, off, COPY_CHUNK)
                .map_err(|e| e.to_fault())?;
            if chunk.is_empty() {
                break;
            }
            dst_s
                .transfers()
                .put_chunk(principal, &dst_handle, off, &chunk)
                .map_err(|e| e.to_fault())?;
            off += chunk.len();
        }
        // Done reading: release the source handle eagerly rather than
        // letting the idle TTL reclaim it.
        let _ = src_s.transfers().abort(principal, &src_handle);
        if let Some(rec) = self.journal.moves.lock().get_mut(&id) {
            rec.src_handle = None;
        }
        Ok(dst_handle)
    }

    /// Promote move `id`'s staged destination: the point of no return.
    fn commit_across(&self, id: u64, di: usize, principal: &str, staged: &str) -> Result<(), Stop> {
        self.shard(di)?
            .transfers()
            .commit(principal, staged)
            .map_err(|e| e.to_fault())?;
        if let Some(rec) = self.journal.moves.lock().get_mut(&id) {
            rec.committed = true;
            rec.dst_handle = None;
        }
        Ok(())
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
        let src_s = self.shard(si)?;
        let (id, tombstone) = self.journal_move(principal, (si, from), di, false);
        let outcome = (|| -> Result<(), Stop> {
            // Hide the source under its tombstone name first: an atomic
            // single-shard rename, so the user-facing source name is
            // either fully present or fully gone.
            src_s
                .srb()
                .rename(principal, from, &tombstone)
                .map_err(srb_fault)?;
            if let Some(rec) = self.journal.moves.lock().get_mut(&id) {
                rec.hidden = true;
            }
            let staged = self.copy_across(id, "rename", principal, (si, &tombstone), (di, to))?;
            self.fault_point("pre-commit", "rename")?;
            self.commit_across(id, di, principal, &staged)?;
            self.fault_point("delete-leg", "rename")?;
            // A tombstone already gone leaves nothing to delete.
            match src_s.srb().rm(principal, &tombstone) {
                Ok(()) | Err(SrbError::NotFound(_)) => Ok(()),
                Err(e) => Err(srb_fault(e).into()),
            }
        })();
        self.settle(id, outcome)
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
        let (id, _) = self.journal_move(principal, (si, from), di, true);
        let outcome = (|| -> Result<(), Stop> {
            let staged = self.copy_across(id, "cp", principal, (si, from), (di, to))?;
            self.fault_point("pre-commit", "cp")?;
            self.commit_across(id, di, principal, &staged)
        })();
        self.settle(id, outcome)
    }

    /// Repair every journaled move: committed entries roll forward
    /// (re-run the delete leg), uncommitted ones roll back (abort
    /// staging, rename the tombstone back to the source name). Safe to
    /// call repeatedly. A move whose repair a broker refuses (the mover
    /// may no longer write the source's collection) keeps its entry and
    /// counts as pending, so a later call can finish it; the journal is
    /// empty afterwards only when every repair went through.
    pub fn recover(&self) -> RecoveryReport {
        let drained: Vec<(u64, MoveRecord)> = self.journal.moves.lock().drain().collect();
        let mut report = RecoveryReport::default();
        for (id, rec) in drained {
            let repaired = self.retire(id, rec);
            // A refused move's repair rides on its call's own bump;
            // recovery is a write of its own.
            self.bump();
            match repaired {
                Some(true) => report.rolled_forward += 1,
                Some(false) => report.rolled_back += 1,
                None => report.pending += 1,
            }
        }
        report
    }

    /// Repair move `id`: `Some(true)` when it rolled forward,
    /// `Some(false)` when it rolled back, and `None` when a broker
    /// refused the repair, which puts the entry back in the journal.
    fn retire(&self, id: u64, mut rec: MoveRecord) -> Option<bool> {
        match self.repair(&mut rec) {
            Ok(()) => Some(rec.committed),
            Err(_) => {
                self.journal.moves.lock().insert(id, rec);
                None
            }
        }
    }

    /// Roll one move forward if its destination committed, back if not.
    /// A tombstone already gone counts as deleted or restored; any other
    /// refusal is the broker's.
    fn repair(&self, rec: &mut MoveRecord) -> SrbResult<()> {
        let src_s = self.shards.get(rec.src_shard);
        let dst_s = self.shards.get(rec.dst_shard);
        // Open handles die first: staging `.part-` files and read
        // handles must not outlive the move.
        if let (Some(s), Some(h)) = (src_s, rec.src_handle.take()) {
            let _ = s.transfers().abort(&rec.principal, &h);
        }
        if let (Some(s), Some(h)) = (dst_s, rec.dst_handle.take()) {
            let _ = s.transfers().abort(&rec.principal, &h);
        }
        // A `cp`, or a rename whose hide step was refused, made no
        // tombstone: nothing else to do either way.
        let (true, Some(s)) = (rec.hidden, src_s) else {
            return Ok(());
        };
        let srb = s.srb();
        let done = if rec.committed {
            // The destination is complete: finish the delete leg.
            srb.rm(&rec.principal, &rec.tombstone)
        } else {
            // The destination never committed: restore the source.
            srb.rename(&rec.principal, &rec.tombstone, &rec.src)
        };
        match done {
            Ok(()) | Err(SrbError::NotFound(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Why a cross-shard move stopped short.
enum Stop {
    /// A broker or transfer table refused a step.
    Refused(Fault),
    /// An injected coordinator fault: the coordinator "died" here.
    Crashed(Fault),
}

impl From<Fault> for Stop {
    fn from(f: Fault) -> Stop {
        Stop::Refused(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portalws_soap::{
        CallContext, PortalErrorKind, ReadCache, ReadCacheConfig, SoapClient, SoapServer,
        SoapService, SoapValue,
    };
    use portalws_wire::{Handler, InMemoryTransport};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Duration;

    fn client(shards: usize) -> (Arc<DataManagementService>, SoapClient) {
        let brokers = (0..shards).map(|_| Arc::new(Srb::new())).collect();
        let svc = Arc::new(DataManagementService::with_brokers(brokers));
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
    fn two_cross_shard_tops(svc: &DataManagementService) -> (String, String) {
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
        let map = ShardMap::new(4);
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
        let before = ShardMap::new(4);
        let after = ShardMap::new(5);
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
        assert!(svc.shards()[ka]
            .srb()
            .stat("anonymous", &format!("/{a}/f.txt"))
            .is_ok());
        assert!(svc.shards()[kb]
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
            for (k, backend) in svc.shards().iter().enumerate() {
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
    fn a_refused_cross_shard_move_leaves_the_namespace_as_it_was() {
        // A destination the caller may not write, one too small for the
        // object (refused mid-copy, with the source already hidden), a
        // source that does not exist, and a source the caller may not
        // move (refused at the hide step, so no tombstone was made). Each
        // refusal reaches the caller with the source in place, nothing
        // staged, and no journal entry left for `recover`: a one-broker
        // rename refuses the same way.
        let cases = [
            ("rename", "denied", PortalErrorKind::PermissionDenied),
            ("cp", "denied", PortalErrorKind::PermissionDenied),
            ("rename", "full", PortalErrorKind::DiskFull),
            ("cp", "full", PortalErrorKind::DiskFull),
            ("rename", "missing", PortalErrorKind::FileNotFound),
            ("rename", "source denied", PortalErrorKind::PermissionDenied),
        ];
        for (method, case, kind) in cases {
            let (svc, c) = client(4);
            let (a, b) = two_cross_shard_tops(&svc);
            let (src, dst) = (format!("/{a}/data.bin"), format!("/{b}/data.bin"));
            for top in [&a, &b] {
                svc.mkdir(&format!("/{top}")).unwrap();
            }
            match case {
                "denied" => svc.set_acl(&format!("/{b}"), vec!["alice".into()]),
                "full" => svc.set_quota(&format!("/{b}"), 100_000),
                _ => {}
            }
            let body: Vec<u8> = (0..150_000u32).map(|i| (i % 233) as u8).collect();
            if case != "missing" {
                svc.put_bytes("anonymous", &src, &body).unwrap();
            }
            if case == "source denied" {
                svc.set_acl(&format!("/{a}"), vec!["alice".into()]);
            }
            let err = c
                .call(method, &[SoapValue::str(&src), SoapValue::str(&dst)])
                .unwrap_err();
            assert_eq!(
                err.as_fault().and_then(|f| f.kind()),
                Some(kind),
                "{method} {case}: {err}"
            );
            assert_eq!(svc.pending_moves(), 0, "{method} {case}");
            assert_eq!(
                svc.get_bytes("alice", &src).ok(),
                (case != "missing").then_some(body)
            );
            for (k, shard) in svc.shards().iter().enumerate() {
                for top in [&a, &b] {
                    let Ok(entries) = shard.srb().ls("alice", &format!("/{top}")) else {
                        continue;
                    };
                    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
                    let expected: &[&str] = if *top == a && case != "missing" {
                        &["data.bin"]
                    } else {
                        &[]
                    };
                    assert_eq!(names, expected, "{method} {case}: /{top} on shard {k}");
                }
            }
        }
    }

    #[test]
    fn a_move_past_its_commit_point_succeeds_whatever_its_delete_leg_meets() {
        // Just before the delete leg, another client removes the tombstone
        // (the leg has nothing left to do), or the source top's ACL stops
        // the caller from removing it (the entry waits for `recover`).
        // The destination has committed either way, so the rename happened
        // and the caller is told so.
        for case in ["tombstone gone", "delete refused"] {
            let (svc, c) = client(4);
            let (a, b) = two_cross_shard_tops(&svc);
            let (src, dst) = (format!("/{a}/data.bin"), format!("/{b}/data.bin"));
            for top in [&a, &b] {
                svc.mkdir(&format!("/{top}")).unwrap();
            }
            svc.put_bytes("anonymous", &src, b"payload").unwrap();
            // The source shard's broker, and the tombstones in the source
            // top as paths (`alice` may list them in either case).
            let (srb, top) = (Arc::clone(svc.route(&src).unwrap().srb()), format!("/{a}"));
            let tombstones = move || -> Vec<String> {
                (srb.ls("alice", &top).unwrap().into_iter())
                    .filter(|e| e.name.starts_with(".mv-"))
                    .map(|e| format!("{top}/{}", e.name))
                    .collect()
            };
            let (hook_srb, hook_stones) = (
                Arc::clone(svc.route(&src).unwrap().srb()),
                tombstones.clone(),
            );
            let hook_top = format!("/{a}");
            svc.set_fault_hook(Some(Arc::new(move |point: &str| {
                if point == "delete-leg" {
                    if case == "tombstone gone" {
                        for t in hook_stones() {
                            hook_srb.rm("anonymous", &t).unwrap();
                        }
                    } else {
                        hook_srb.set_acl(&hook_top, vec!["alice".into()]);
                    }
                }
                false
            })));
            c.call("rename", &[SoapValue::str(&src), SoapValue::str(&dst)])
                .unwrap_or_else(|e| panic!("{case}: {e}"));
            assert_eq!(svc.get_bytes("anonymous", &dst).unwrap(), b"payload");
            if case == "delete refused" {
                assert_eq!(svc.pending_moves(), 1, "{case}");
                assert_eq!(tombstones().len(), 1, "{case}");
                // While the ACL still refuses the delete, recovery keeps
                // the entry instead of counting the move as done.
                let report = svc.recover();
                let pending = RecoveryReport {
                    pending: 1,
                    ..RecoveryReport::default()
                };
                assert_eq!(report, pending, "{case}");
                assert_eq!(svc.pending_moves(), 1, "{case}");
                assert_eq!(tombstones().len(), 1, "{case}");
                svc.set_acl(&format!("/{a}"), vec!["alice".into(), "anonymous".into()]);
                let report = svc.recover();
                let forward = RecoveryReport {
                    rolled_forward: 1,
                    ..RecoveryReport::default()
                };
                assert_eq!(report, forward, "{case}");
            }
            assert_eq!(svc.pending_moves(), 0, "{case}");
            assert_eq!(tombstones(), Vec::<String>::new(), "{case}");
            assert!(svc.get_bytes("alice", &src).is_err(), "{case}");
        }
    }

    #[test]
    fn a_roll_back_the_broker_refuses_waits_for_the_next_recover() {
        // The coordinator dies before the commit point, and the source
        // top's ACL then stops the mover from renaming the tombstone back.
        let (svc, c) = client(4);
        let (a, b) = two_cross_shard_tops(&svc);
        let (src, dst) = (format!("/{a}/data.bin"), format!("/{b}/data.bin"));
        for top in [&a, &b] {
            svc.mkdir(&format!("/{top}")).unwrap();
        }
        svc.put_bytes("anonymous", &src, b"payload").unwrap();
        let srb = Arc::clone(svc.route(&src).unwrap().srb());
        let top = format!("/{a}");
        let tombstones = || -> Vec<String> {
            (srb.ls("alice", &top).unwrap().into_iter())
                .filter(|e| e.name.starts_with(".mv-"))
                .map(|e| e.name)
                .collect()
        };
        svc.set_fault_hook(Some(Arc::new(|point: &str| point == "pre-commit")));
        let err = c
            .call("rename", &[SoapValue::str(&src), SoapValue::str(&dst)])
            .unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        svc.set_fault_hook(None);
        svc.set_acl(&top, vec!["alice".into()]);
        let report = svc.recover();
        let pending = RecoveryReport {
            pending: 1,
            ..RecoveryReport::default()
        };
        assert_eq!(report, pending);
        assert_eq!(svc.pending_moves(), 1);
        assert_eq!(tombstones().len(), 1);
        svc.set_acl(&top, vec!["alice".into(), "anonymous".into()]);
        let report = svc.recover();
        let back = RecoveryReport {
            rolled_back: 1,
            ..RecoveryReport::default()
        };
        assert_eq!(report, back);
        assert_eq!(svc.pending_moves(), 0);
        assert_eq!(tombstones(), Vec::<String>::new());
        assert_eq!(svc.get_bytes("anonymous", &src).unwrap(), b"payload");
        assert!(svc.get_bytes("anonymous", &dst).is_err());
        // Nothing staged is left at the destination either.
        let dst_srb = svc.route(&dst).unwrap().srb();
        assert_eq!(dst_srb.ls("anonymous", &format!("/{b}")).unwrap().len(), 0);
    }

    #[test]
    fn a_listing_read_mid_move_is_not_revalidated_after_it() {
        // A read that lands inside a write must not carry the generation
        // the write leaves behind, or a cache would revalidate what it saw
        // as current once the write is done. The fault hook holds a
        // cross-shard rename at its first copied chunk, with the source
        // hidden and the destination not yet committed, while a caching
        // client lists the destination's collection.
        let (svc, c) = client(4);
        let (a, b) = two_cross_shard_tops(&svc);
        for top in [&a, &b] {
            svc.mkdir(&format!("/{top}")).unwrap();
        }
        svc.put_bytes("anonymous", &format!("/{a}/f"), b"payload")
            .unwrap();
        let cache = Arc::new(ReadCache::new(ReadCacheConfig {
            ttl: Duration::from_millis(1),
            ..ReadCacheConfig::default()
        }));
        c.enable_read_cache(Arc::clone(&cache), &["ls"]);
        let (held, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let first = AtomicUsize::new(0);
        let (h, r) = (Arc::clone(&held), Arc::clone(&release));
        svc.set_fault_hook(Some(Arc::new(move |point: &str| {
            if point == "copy-chunk" && first.fetch_add(1, Ordering::SeqCst) == 0 {
                h.wait();
                r.wait();
            }
            false
        })));
        let mover = {
            let svc = Arc::clone(&svc);
            let args = [
                ("from".to_owned(), SoapValue::str(format!("/{a}/f"))),
                ("to".to_owned(), SoapValue::str(format!("/{b}/f"))),
            ];
            std::thread::spawn(move || {
                let ctx = CallContext {
                    headers: vec![],
                    service: "DataManagement".into(),
                    method: "rename".into(),
                };
                svc.invoke("rename", &args, &ctx).map(|_| ())
            })
        };
        let listed = |c: &SoapClient| -> Vec<String> {
            let out = c.call("ls", &[SoapValue::str(format!("/{b}"))]).unwrap();
            (out.as_array().unwrap().iter())
                .filter_map(|e| e.field("name").and_then(|n| n.as_str()).map(str::to_owned))
                .collect()
        };
        held.wait();
        let mid_move = listed(&c);
        assert!(
            !mid_move.contains(&"f".to_owned()),
            "committed early: {mid_move:?}"
        );
        release.wait();
        mover.join().unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(
            listed(&c),
            ["f"],
            "a listing read mid-move was revalidated after it"
        );
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
                let srb = svc.shards()[k].srb();
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
        let current = || svc.generation().expect("the facade is versioned");
        let g0 = current();
        c.call("ls", &[SoapValue::str("/")]).unwrap();
        assert_eq!(current(), g0, "reads must not bump");
        c.call("mkdir", &[SoapValue::str("/gen-test")]).unwrap();
        let g1 = current();
        assert!(g1 > g0, "mkdir must bump");
        svc.install_map(ShardMap::new(2));
        assert!(current() > g1, "topology change must bump");
        // The `generation` method answers the counter replies carry.
        let answered = c.call("generation", &[]).unwrap();
        assert_eq!(answered.as_i64(), Some(current() as i64));
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
        let svc = DataManagementService::testbed(&["alice@GCE.ORG", "bob@GCE.ORG"], 3);
        for top in ["home-alice@GCE.ORG", "home-bob@GCE.ORG", "public"] {
            let owner = svc.map().owner_of_top(top);
            for (k, backend) in svc.shards().iter().enumerate() {
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
