//! The PASSv2 kernel module: interceptor glue, observer and
//! distributor.
//!
//! The [`Pass`] struct is installed into the simulated kernel as its
//! provenance module. The kernel's hook calls are the *interceptor*;
//! the translation of those events into provenance records is the
//! *observer*; duplicate elimination and cycle avoidance are the
//! *analyzer* ([`crate::analyzer`]); and the caching of provenance for
//! objects that are not persistent PASS files — processes, pipes,
//! non-PASS files, application objects — until they join the ancestry
//! of a persistent object is the *distributor*.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::rc::Rc;

use dpapi::{
    wire, Attribute, Bundle, DpapiError, DpapiOp, Handle, IdMap, IdSet, ObjectRef, OpResult, Pnode,
    ProvenanceRecord, ReadResult, Txn, Value, Version, VolumeId, WriteResult,
};
use sim_os::events::{ExecImage, HookCtx, PassModule, ProvenanceKernel};
use sim_os::fs::{FsError, FsResult};
use sim_os::proc::{FileLoc, Pid};

use crate::analyzer::{CycleAvoidance, NodeId};

/// The identity key of a tracked provenance object.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ObjKey {
    /// A file (on any volume, PASS or not).
    File(FileLoc),
    /// A process.
    Proc(Pid),
    /// A pipe.
    Pipe(u64),
    /// An application object created via `pass_mkobj`; the value is
    /// the node id itself (app objects are never looked up by key).
    App(NodeId),
}

/// A cached record value: either a plain DPAPI value or a reference to
/// another tracked node at a specific version, resolved to a pnode
/// cross-reference at flush time.
#[derive(Clone, Debug)]
enum CachedValue {
    Plain(Value),
    Ref(NodeId, u32),
}

#[derive(Clone, Debug)]
struct CachedRecord {
    attr: Attribute,
    value: CachedValue,
}

#[derive(Debug, Default)]
struct NodeInfo {
    pnode: Option<Pnode>,
    /// Volume where this node's provenance lives once materialized.
    home: Option<VolumeId>,
    /// Volume-level handle for disclosing against `home`.
    home_handle: Option<Handle>,
    /// Volume requested at `pass_mkobj` time.
    volume_hint: Option<VolumeId>,
    /// The distributor's record cache for this node.
    cached: Vec<CachedRecord>,
    /// Whether this node is a file on a PASS volume (identity owned by
    /// the volume rather than the distributor).
    pass_file: Option<FileLoc>,
}

/// Counters for the module's activity.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassStats {
    /// Records disclosed to volumes (after analysis).
    pub records_emitted: u64,
    /// Records parked in the distributor cache.
    pub records_cached: u64,
    /// Nodes materialized onto a volume by the distributor.
    pub materializations: u64,
    /// User-level DPAPI calls served.
    pub dpapi_calls: u64,
    /// Disclosure transactions committed through `dp_commit`.
    pub txn_commits: u64,
    /// Operations carried by those transactions.
    pub txn_ops: u64,
}

impl provscope::MetricSource for PassStats {
    fn record(&self, out: &mut dyn FnMut(&str, u64)) {
        out("records_emitted", self.records_emitted);
        out("records_cached", self.records_cached);
        out("materializations", self.materializations);
        out("dpapi_calls", self.dpapi_calls);
        out("txn_commits", self.txn_commits);
        out("txn_ops", self.txn_ops);
    }
}

/// The working sets of [`Inner::flush_nodes`], kept between calls so
/// the distributor's flush — one per first write of a version —
/// allocates nothing once they have grown.
#[derive(Default)]
struct FlushScratch {
    closure: Vec<NodeId>,
    seen: IdSet<NodeId>,
    work: Vec<NodeId>,
}

struct Inner {
    analyzer: CycleAvoidance,
    // Every table below is keyed by ids the kernel, a volume or this
    // module allocated (inode numbers, pids, pipe ids, node ids,
    // pnodes, handles), never by bytes from outside: see
    // `dpapi::IdHasher`.
    nodes: IdMap<ObjKey, NodeId>,
    info: IdMap<NodeId, NodeInfo>,
    pnode_to_node: IdMap<Pnode, NodeId>,
    next_node: NodeId,
    uhandles: IdMap<u64, NodeId>,
    next_uhandle: u64,
    exempt: IdSet<Pid>,
    flush_scratch: FlushScratch,
    stats: PassStats,
    scope: provscope::Scope,
}

/// The PASSv2 provenance module.
pub struct Pass {
    inner: RefCell<Inner>,
}

impl Default for Pass {
    fn default() -> Self {
        Self::new()
    }
}

impl Pass {
    /// Creates a fresh module.
    pub fn new() -> Pass {
        Pass {
            inner: RefCell::new(Inner {
                analyzer: CycleAvoidance::new(),
                nodes: IdMap::default(),
                info: IdMap::default(),
                pnode_to_node: IdMap::default(),
                next_node: 1,
                uhandles: IdMap::default(),
                next_uhandle: 1,
                exempt: IdSet::default(),
                flush_scratch: FlushScratch::default(),
                stats: PassStats::default(),
                scope: provscope::Scope::default(),
            }),
        }
    }

    /// Attaches a tracing scope; the module records its `dp_commit`
    /// validate/analyze phases in it.
    pub fn set_scope(&self, scope: provscope::Scope) {
        self.inner.borrow_mut().scope = scope;
    }

    /// Creates a module already wrapped for kernel installation.
    pub fn new_shared() -> Rc<Pass> {
        Rc::new(Pass::new())
    }

    /// Exempts a pid from observation (the Waldo daemon, which must
    /// not generate provenance about the provenance log itself).
    pub fn exempt(&self, pid: Pid) {
        self.inner.borrow_mut().exempt.insert(pid);
    }

    /// Module statistics.
    pub fn stats(&self) -> PassStats {
        self.inner.borrow().stats
    }

    /// Analyzer statistics (dedup/freeze counters).
    pub fn analyzer_stats(&self) -> crate::analyzer::AnalyzerStats {
        self.inner.borrow().analyzer.stats()
    }
}

impl Inner {
    fn new_node(&mut self) -> NodeId {
        let id = self.next_node;
        self.next_node += 1;
        self.info.insert(id, NodeInfo::default());
        id
    }

    /// The node tracking `key`, and whether this call created it.
    fn node_for_key(&mut self, key: ObjKey) -> (NodeId, bool) {
        match self.nodes.entry(key) {
            Entry::Occupied(e) => (*e.get(), false),
            Entry::Vacant(e) => {
                let id = self.next_node;
                self.next_node += 1;
                self.info.insert(id, NodeInfo::default());
                (*e.insert(id), true)
            }
        }
    }

    fn node_for_proc(&mut self, pid: Pid) -> NodeId {
        let (n, fresh) = self.node_for_key(ObjKey::Proc(pid));
        if fresh {
            self.cache_record(n, Attribute::Type, CachedValue::Plain(Value::str("PROC")));
        }
        n
    }

    fn node_for_pipe(&mut self, id: u64) -> NodeId {
        let (n, fresh) = self.node_for_key(ObjKey::Pipe(id));
        if fresh {
            self.cache_record(n, Attribute::Type, CachedValue::Plain(Value::str("PIPE")));
        }
        n
    }

    /// Creates or finds the node for a file, binding volume identity
    /// if the file lives on a PASS volume.
    fn node_for_file(&mut self, ctx: &mut HookCtx<'_>, loc: FileLoc) -> NodeId {
        let (n, _) = self.node_for_key(ObjKey::File(loc));
        let info = self.info.get_mut(&n).expect("node info");
        if info.pnode.is_some() {
            return n;
        }
        if let Some(vol) = ctx.dpapi(loc.mount) {
            if let Ok(id) = vol.identity_of_ino(loc.ino) {
                let volume = vol.volume();
                info.pnode = Some(id.pnode);
                info.home = Some(volume);
                info.pass_file = Some(loc);
                self.pnode_to_node.insert(id.pnode, n);
                self.analyzer.set_version(n, id.version.0);
            }
        }
        let fresh = self
            .info
            .get(&n)
            .map(|i| i.cached.is_empty())
            .unwrap_or(false);
        if fresh {
            self.cache_record(n, Attribute::Type, CachedValue::Plain(Value::str("FILE")));
        }
        n
    }

    fn cache_record(&mut self, node: NodeId, attr: Attribute, value: CachedValue) {
        self.stats.records_cached += 1;
        if let Some(info) = self.info.get_mut(&node) {
            info.cached.push(CachedRecord { attr, value });
        }
    }

    fn identity(&self, node: NodeId) -> Option<ObjectRef> {
        let info = self.info.get(&node)?;
        let p = info.pnode?;
        Some(ObjectRef::new(p, Version(self.analyzer.version(node))))
    }

    /// The distributor's flush: materialize `roots` (and every cached
    /// ancestor reachable through cached references) and emit their
    /// cached records. Records for nodes homed on `target` are
    /// returned in a bundle to ride the triggering `pass_write`;
    /// records homed elsewhere are disclosed to their own volume
    /// immediately.
    fn flush_nodes(&mut self, ctx: &mut HookCtx<'_>, roots: &[NodeId], target: VolumeId) -> Bundle {
        let mut scratch = std::mem::take(&mut self.flush_scratch);
        self.close_over_cached_refs(roots, &mut scratch);
        let ride_along = self.flush_closure(ctx, &scratch.closure, target);
        self.flush_scratch = scratch;
        ride_along
    }

    /// Phase 0 of the flush: `scratch.closure` becomes `roots` and
    /// every node reachable from them through cached references.
    fn close_over_cached_refs(&self, roots: &[NodeId], scratch: &mut FlushScratch) {
        let FlushScratch {
            closure,
            seen,
            work,
        } = scratch;
        closure.clear();
        seen.clear();
        work.clear();
        work.extend_from_slice(roots);
        while let Some(n) = work.pop() {
            if !seen.insert(n) {
                continue;
            }
            closure.push(n);
            if let Some(info) = self.info.get(&n) {
                for rec in &info.cached {
                    match &rec.value {
                        CachedValue::Ref(m, _) => work.push(*m),
                        CachedValue::Plain(Value::Xref(r)) => {
                            if let Some(&m) = self.pnode_to_node.get(&r.pnode) {
                                work.push(m);
                            }
                        }
                        CachedValue::Plain(_) => {}
                    }
                }
            }
        }
    }

    /// Phases 1 and 2 of the flush, over the closure phase 0 found.
    fn flush_closure(
        &mut self,
        ctx: &mut HookCtx<'_>,
        closure: &[NodeId],
        target: VolumeId,
    ) -> Bundle {
        // Phase 1: assign pnodes to everything lacking one.
        for &n in closure {
            let (needs, hint) = {
                let info = self.info.get(&n).expect("node info");
                (info.pnode.is_none(), info.volume_hint)
            };
            if !needs {
                continue;
            }
            let home = hint.unwrap_or(target);
            let vol = match ctx.find_volume(home).is_some() {
                true => home,
                false => target,
            };
            if let Some(v) = ctx.find_volume(vol) {
                if let Ok(h) = v.pass_mkobj(Some(vol)) {
                    if let Ok(r) = v.pass_read(h, 0, 0) {
                        let info = self.info.get_mut(&n).expect("node info");
                        info.pnode = Some(r.identity.pnode);
                        info.home = Some(vol);
                        info.home_handle = Some(h);
                        self.pnode_to_node.insert(r.identity.pnode, n);
                        self.stats.materializations += 1;
                    }
                }
            }
        }
        // Phase 2: resolve cached records and route them.
        let mut ride_along = Bundle::new();
        for &n in closure {
            let (cached, home, home_handle, pass_file) = {
                let info = self.info.get_mut(&n).expect("node info");
                if info.cached.is_empty() || info.pnode.is_none() {
                    continue;
                }
                (
                    std::mem::take(&mut info.cached),
                    info.home,
                    info.home_handle,
                    info.pass_file,
                )
            };
            let resolved: Vec<ProvenanceRecord> = cached
                .into_iter()
                .filter_map(|r| {
                    let value = match r.value {
                        CachedValue::Plain(v) => v,
                        CachedValue::Ref(m, ver) => {
                            let p = self.info.get(&m).and_then(|i| i.pnode)?;
                            Value::Xref(ObjectRef::new(p, Version(ver)))
                        }
                    };
                    Some(ProvenanceRecord::new(r.attr, value))
                })
                .collect();
            self.stats.records_emitted += resolved.len() as u64;
            let home = home.unwrap_or(target);
            if home == target {
                // Handle on the target volume.
                let h = match (home_handle, pass_file) {
                    (Some(h), _) => Some(h),
                    (None, Some(loc)) => ctx
                        .dpapi(loc.mount)
                        .and_then(|v| v.handle_for_ino(loc.ino).ok()),
                    (None, None) => None,
                };
                if let Some(h) = h {
                    ride_along.push_all(h, resolved);
                }
            } else if let Some(v) = ctx.find_volume(home) {
                let h = match (home_handle, pass_file) {
                    (Some(h), _) => Some(h),
                    (None, Some(loc)) => v.handle_for_ino(loc.ino).ok(),
                    (None, None) => None,
                };
                if let Some(h) = h {
                    let mut b = Bundle::new();
                    b.push_all(h, resolved);
                    let _ = v.disclose(h, b);
                }
            }
        }
        ride_along
    }

    /// The write path shared by intercepted writes and user-level
    /// `pass_write` on files: runs the analyzer, materializes the
    /// ancestry and issues the volume `pass_write` with data and
    /// bundle together.
    fn provenanced_write(
        &mut self,
        ctx: &mut HookCtx<'_>,
        source: NodeId,
        loc: FileLoc,
        offset: u64,
        data: &[u8],
        extra: Bundle,
    ) -> FsResult<WriteResult> {
        let file_node = self.node_for_file(ctx, loc);
        let out = self.analyzer.add_dependency(file_node, source);
        let volume = ctx.volume_of(loc.mount);
        match volume {
            Some(vol_id) => {
                let mut bundle = Bundle::new();
                let h = ctx
                    .dpapi(loc.mount)
                    .and_then(|v| v.handle_for_ino(loc.ino).ok())
                    .ok_or(FsError::Provenance(DpapiError::NotPassVolume))?;
                if let Some(newv) = out.frozen {
                    bundle.push(h, ProvenanceRecord::freeze(Version(newv)));
                    self.stats.records_emitted += 1;
                }
                if !out.duplicate {
                    // Flush the writer's ancestry and the target's own
                    // cached records (NAME, TYPE) in one closure.
                    let side = self.flush_nodes(ctx, &[source, file_node], vol_id);
                    bundle.merge(side);
                    if let Some(src_id) = self.identity(source) {
                        let edge = ObjectRef::new(src_id.pnode, Version(out.source_version));
                        bundle.push(h, ProvenanceRecord::input(edge));
                        self.stats.records_emitted += 1;
                    }
                }
                bundle.merge(extra);
                let vol = ctx
                    .dpapi(loc.mount)
                    .ok_or(FsError::Provenance(DpapiError::NotPassVolume))?;
                let res = vol.pass_write(h, offset, data, bundle)?;
                Ok(res)
            }
            None => {
                // Non-PASS volume: write plainly, cache the dependency.
                let n = ctx.fs(loc.mount).write(loc.ino, offset, data)?;
                if !out.duplicate {
                    self.cache_record(
                        file_node,
                        Attribute::Input,
                        CachedValue::Ref(source, out.source_version),
                    );
                }
                // Any disclosed extras are cached for later flushing.
                for (_, rec) in extra.into_records() {
                    self.cache_record(file_node, rec.attribute, CachedValue::Plain(rec.value));
                }
                Ok(WriteResult {
                    written: n,
                    identity: ObjectRef::new(
                        self.info
                            .get(&file_node)
                            .and_then(|i| i.pnode)
                            .unwrap_or(Pnode::NULL),
                        Version(self.analyzer.version(file_node)),
                    ),
                })
            }
        }
    }

    /// The read path shared by intercepted reads and user-level
    /// `pass_read` on files.
    fn provenanced_read(
        &mut self,
        ctx: &mut HookCtx<'_>,
        pid: Pid,
        loc: FileLoc,
        offset: u64,
        len: usize,
    ) -> FsResult<ReadResult> {
        let file_node = self.node_for_file(ctx, loc);
        let proc_node = self.node_for_proc(pid);
        let out = self.analyzer.add_dependency(proc_node, file_node);
        if !out.duplicate {
            self.cache_record(
                proc_node,
                Attribute::Input,
                CachedValue::Ref(file_node, out.source_version),
            );
        }
        if let Some(vol) = ctx.dpapi(loc.mount) {
            let h = vol.handle_for_ino(loc.ino)?;
            let res = vol.pass_read(h, offset, len)?;
            Ok(res)
        } else {
            let data = ctx.fs(loc.mount).read(loc.ino, offset, len)?;
            Ok(ReadResult {
                data,
                identity: ObjectRef::new(
                    self.info
                        .get(&file_node)
                        .and_then(|i| i.pnode)
                        .unwrap_or(Pnode::NULL),
                    Version(self.analyzer.version(file_node)),
                ),
            })
        }
    }

    fn resolve_uhandle(&self, h: Handle) -> dpapi::Result<NodeId> {
        self.uhandles
            .get(&h.raw())
            .copied()
            .ok_or(DpapiError::InvalidHandle)
    }

    fn new_uhandle(&mut self, node: NodeId) -> Handle {
        let h = Handle::from_raw(self.next_uhandle);
        self.next_uhandle += 1;
        self.uhandles.insert(h.raw(), node);
        h
    }

    fn default_volume(&self, ctx: &mut HookCtx<'_>) -> Option<VolumeId> {
        ctx.mounts
            .iter_mut()
            .find_map(|m| m.fs.as_dpapi().map(|d| d.volume()))
    }

    /// Creates a provenance-only object (the `dp_mkobj` body, shared
    /// with transaction commits). Allocates the pnode eagerly (cheap
    /// server state, no log entry); records remain cached until the
    /// object joins a persistent ancestry or `pass_sync` is called.
    fn mkobj_for(
        &mut self,
        ctx: &mut HookCtx<'_>,
        volume: Option<VolumeId>,
    ) -> dpapi::Result<Handle> {
        let node = self.new_node();
        self.nodes.insert(ObjKey::App(node), node);
        let home = volume
            .or_else(|| self.default_volume(ctx))
            .ok_or(DpapiError::NotPassVolume)?;
        let vol = ctx.find_volume(home).ok_or(DpapiError::NotPassVolume)?;
        let vh = vol.pass_mkobj(Some(home))?;
        let identity = vol.pass_read(vh, 0, 0)?.identity;
        {
            let info = self.info.get_mut(&node).expect("node info");
            info.pnode = Some(identity.pnode);
            info.home = Some(home);
            info.home_handle = Some(vh);
            info.volume_hint = volume;
        }
        self.pnode_to_node.insert(identity.pnode, node);
        Ok(self.new_uhandle(node))
    }

    /// Revives an object by identity (the `dp_reviveobj` body, shared
    /// with transaction commits).
    fn revive_for(
        &mut self,
        ctx: &mut HookCtx<'_>,
        pnode: Pnode,
        version: Version,
    ) -> dpapi::Result<Handle> {
        let vol = ctx
            .find_volume(pnode.volume)
            .ok_or(DpapiError::UnknownPnode(pnode))?;
        let vh = vol.pass_reviveobj(pnode, version)?;
        let node = match self.pnode_to_node.get(&pnode).copied() {
            Some(n) => n,
            None => {
                let n = self.new_node();
                self.nodes.insert(ObjKey::App(n), n);
                let info = self.info.get_mut(&n).expect("node info");
                info.pnode = Some(pnode);
                info.home = Some(pnode.volume);
                info.home_handle = Some(vh);
                self.pnode_to_node.insert(pnode, n);
                self.analyzer.set_version(n, version.0);
                n
            }
        };
        Ok(self.new_uhandle(node))
    }

    /// Re-keys a user bundle from user handles onto module nodes,
    /// running every ancestry record through the analyzer and caching
    /// the survivors (the first half of `dp_write`, shared with
    /// transaction commits). The bundle is the caller's to give: its
    /// records move into the cache. Returns the described nodes.
    fn rekey_user_bundle(
        &mut self,
        subject: NodeId,
        pid: Pid,
        bundle: Bundle,
    ) -> dpapi::Result<Vec<NodeId>> {
        let proc_node = self.node_for_proc(pid);
        let mut described: Vec<NodeId> = vec![subject, proc_node];
        for (uh, rec) in bundle.into_records() {
            let n = self.resolve_uhandle(uh)?;
            if !described.contains(&n) {
                described.push(n);
            }
            let keep = if let (true, Some(r)) = (rec.attribute.is_ancestry(), rec.value.as_xref()) {
                match self.pnode_to_node.get(&r.pnode).copied() {
                    Some(src) => {
                        let out = self.analyzer.add_dependency(n, src);
                        !out.duplicate
                    }
                    None => true, // unknown ancestor (revived elsewhere): keep as-is
                }
            } else {
                true
            };
            if keep {
                self.cache_record(n, rec.attribute, CachedValue::Plain(rec.value));
            }
        }
        Ok(described)
    }
}

impl Inner {
    /// Phase-1 check of one transaction op against pre-transaction
    /// state: handles must resolve, records must be representable on
    /// the wire, target volumes must exist. Nothing is mutated.
    ///
    /// Validation is deliberately against *pre-transaction* state:
    /// a handle minted by an earlier `Mkobj` of the same batch is not
    /// yet visible (see the handle-scope rule in [`dpapi::txn`]).
    fn validate_user_op(&self, ctx: &mut HookCtx<'_>, op: &DpapiOp) -> dpapi::Result<()> {
        match op {
            DpapiOp::Write { handle, bundle, .. } => {
                self.resolve_uhandle(*handle)?;
                for (uh, rec) in bundle.iter() {
                    self.resolve_uhandle(uh)?;
                    wire::validate_record(rec)?;
                }
                Ok(())
            }
            DpapiOp::Mkobj { volume_hint } => {
                let home = volume_hint
                    .or_else(|| self.default_volume(ctx))
                    .ok_or(DpapiError::NotPassVolume)?;
                if ctx.find_volume(home).is_none() {
                    return Err(DpapiError::NotPassVolume);
                }
                Ok(())
            }
            DpapiOp::Freeze { handle } => self.resolve_uhandle(*handle).map(|_| ()),
            DpapiOp::Revive { pnode, .. } => {
                if ctx.find_volume(pnode.volume).is_none() {
                    return Err(DpapiError::UnknownPnode(*pnode));
                }
                Ok(())
            }
            DpapiOp::Sync { handle } => {
                let node = self.resolve_uhandle(*handle)?;
                let info = self.info.get(&node).ok_or(DpapiError::InvalidHandle)?;
                if info.home.or_else(|| self.default_volume(ctx)).is_none() {
                    return Err(DpapiError::NotPassVolume);
                }
                if info.home_handle.is_none() {
                    return Err(DpapiError::InvalidHandle);
                }
                Ok(())
            }
        }
    }

    /// Phase-2 translation of one validated op: analyzer and
    /// distributor work happens now, in op order; every volume-bound
    /// disclosure is deferred into the op's target volume's [`VolTxn`].
    /// Returns `Some(result)` for ops resolved module-side, `None` for
    /// ops whose result is backfilled from the volume commit.
    fn translate_op(
        &mut self,
        ctx: &mut HookCtx<'_>,
        pid: Pid,
        user_op: usize,
        op: DpapiOp,
        vol_txns: &mut Vec<VolTxn>,
    ) -> dpapi::Result<Option<OpResult>> {
        match op {
            DpapiOp::Mkobj { volume_hint } => {
                Ok(Some(OpResult::Made(self.mkobj_for(ctx, volume_hint)?)))
            }
            DpapiOp::Revive { pnode, version } => Ok(Some(OpResult::Revived(
                self.revive_for(ctx, pnode, version)?,
            ))),
            DpapiOp::Freeze { handle } => {
                let node = self.resolve_uhandle(handle)?;
                let new_version = self.analyzer.freeze(node);
                // Mirror the freeze at the volume, deferred into the
                // batch (order relative to the batch's writes is
                // preserved inside the volume transaction).
                let info = self
                    .info
                    .get(&node)
                    .map(|i| (i.home, i.home_handle, i.pass_file));
                if let Some((home, home_handle, pass_file)) = info {
                    if let Some(loc) = pass_file {
                        if let Some(vol_id) = ctx.volume_of(loc.mount) {
                            let vh = ctx
                                .dpapi(loc.mount)
                                .ok_or(DpapiError::NotPassVolume)?
                                .handle_for_ino(loc.ino)?;
                            let vt = vol_txn_for(vol_txns, vol_id);
                            vt.txn.freeze(vh);
                            vt.slots.push((user_op, false));
                        }
                    } else if let (Some(home), Some(vh)) = (home, home_handle) {
                        if ctx.find_volume(home).is_some() {
                            let vt = vol_txn_for(vol_txns, home);
                            vt.txn.freeze(vh);
                            vt.slots.push((user_op, false));
                        }
                    }
                }
                Ok(Some(OpResult::Frozen(Version(new_version))))
            }
            DpapiOp::Sync { handle } => {
                let node = self.resolve_uhandle(handle)?;
                let home = self
                    .info
                    .get(&node)
                    .and_then(|i| i.home)
                    .or_else(|| self.default_volume(ctx))
                    .ok_or(DpapiError::NotPassVolume)?;
                let side = self.flush_nodes(ctx, &[node], home);
                let vh = self
                    .info
                    .get(&node)
                    .and_then(|i| i.home_handle)
                    .ok_or(DpapiError::InvalidHandle)?;
                let vt = vol_txn_for(vol_txns, home);
                if !side.is_empty() {
                    vt.txn.disclose(vh, side);
                    vt.slots.push((user_op, false));
                }
                vt.txn.sync(vh);
                vt.slots.push((user_op, false));
                Ok(Some(OpResult::Synced))
            }
            DpapiOp::Write {
                handle,
                offset,
                data,
                bundle,
            } => {
                let subject = self.resolve_uhandle(handle)?;
                let proc_node = self.node_for_proc(pid);
                let described = self.rekey_user_bundle(subject, pid, bundle)?;
                if let Some(loc) = self.info.get(&subject).and_then(|i| i.pass_file) {
                    // Writing to a real file: the deferred twin of
                    // `provenanced_write` — same analyzer work and
                    // bundle construction, with the volume write
                    // queued into the batch instead of issued.
                    let file_node = self.node_for_file(ctx, loc);
                    let out = self.analyzer.add_dependency(file_node, proc_node);
                    let Some(vol_id) = ctx.volume_of(loc.mount) else {
                        // Non-PASS volume (mirrors `provenanced_write`'s
                        // fallback): write plainly now, cache the
                        // dependency for a later flush. No volume log
                        // exists, so there is nothing to defer.
                        let n = ctx
                            .fs(loc.mount)
                            .write(loc.ino, offset, &data)
                            .map_err(DpapiError::from)?;
                        if !out.duplicate {
                            self.cache_record(
                                file_node,
                                Attribute::Input,
                                CachedValue::Ref(proc_node, out.source_version),
                            );
                        }
                        return Ok(Some(OpResult::Written(WriteResult {
                            written: n,
                            identity: ObjectRef::new(
                                self.info
                                    .get(&file_node)
                                    .and_then(|i| i.pnode)
                                    .unwrap_or(Pnode::NULL),
                                Version(self.analyzer.version(file_node)),
                            ),
                        })));
                    };
                    let h = ctx
                        .dpapi(loc.mount)
                        .ok_or(DpapiError::NotPassVolume)?
                        .handle_for_ino(loc.ino)?;
                    let mut vbundle = Bundle::new();
                    if let Some(newv) = out.frozen {
                        vbundle.push(h, ProvenanceRecord::freeze(Version(newv)));
                        self.stats.records_emitted += 1;
                    }
                    if !out.duplicate {
                        let side = self.flush_nodes(ctx, &[proc_node, file_node], vol_id);
                        vbundle.merge(side);
                        if let Some(src_id) = self.identity(proc_node) {
                            let edge = ObjectRef::new(src_id.pnode, Version(out.source_version));
                            vbundle.push(h, ProvenanceRecord::input(edge));
                            self.stats.records_emitted += 1;
                        }
                    }
                    {
                        let vt = vol_txn_for(vol_txns, vol_id);
                        vt.txn.write(h, offset, data, vbundle);
                        vt.slots.push((user_op, true));
                    }
                    // Flush the described objects' caches (they are now
                    // part of a persistent object's ancestry), riding
                    // the same volume transaction.
                    let side2 = self.flush_nodes(ctx, &described, vol_id);
                    if !side2.is_empty() {
                        let vt = vol_txn_for(vol_txns, vol_id);
                        vt.txn.disclose(h, side2);
                        vt.slots.push((user_op, false));
                    }
                    Ok(None)
                } else {
                    // Provenance-only disclosure about app objects:
                    // implicit dependency on the disclosing process,
                    // records stay cached until a persistent
                    // descendant appears.
                    let out = self.analyzer.add_dependency(subject, proc_node);
                    if !out.duplicate {
                        self.cache_record(
                            subject,
                            Attribute::Input,
                            CachedValue::Ref(proc_node, out.source_version),
                        );
                    }
                    let identity = self.identity(subject).ok_or(DpapiError::InvalidHandle)?;
                    Ok(Some(OpResult::Written(WriteResult {
                        written: 0,
                        identity,
                    })))
                }
            }
        }
    }
}

/// A per-volume disclosure transaction a user-level commit is being
/// translated into, plus the mapping from volume-op index back to the
/// originating user op (and whether that op's result is backfilled
/// from the volume's).
struct VolTxn {
    vol: VolumeId,
    txn: Txn,
    /// `(user_op, backfill)` per volume op, in order.
    slots: Vec<(usize, bool)>,
}

fn vol_txn_for(vol_txns: &mut Vec<VolTxn>, vol: VolumeId) -> &mut VolTxn {
    if let Some(i) = vol_txns.iter().position(|t| t.vol == vol) {
        return &mut vol_txns[i];
    }
    vol_txns.push(VolTxn {
        vol,
        txn: Txn::new(),
        slots: Vec::new(),
    });
    vol_txns.last_mut().expect("just pushed")
}

impl PassModule for Pass {
    fn on_fork(&self, _ctx: &mut HookCtx<'_>, parent: Pid, child: Pid) {
        let mut inner = self.inner.borrow_mut();
        if inner.exempt.contains(&parent) {
            inner.exempt.insert(child);
            return;
        }
        let p = inner.node_for_proc(parent);
        let c = inner.node_for_proc(child);
        let out = inner.analyzer.add_dependency(c, p);
        if !out.duplicate {
            inner.cache_record(c, Attribute::Input, CachedValue::Ref(p, out.source_version));
        }
    }

    fn on_execve(&self, ctx: &mut HookCtx<'_>, pid: Pid, image: &ExecImage<'_>) {
        let mut inner = self.inner.borrow_mut();
        if inner.exempt.contains(&pid) {
            return;
        }
        let p = inner.node_for_proc(pid);
        inner.cache_record(
            p,
            Attribute::Name,
            CachedValue::Plain(Value::str(image.path)),
        );
        inner.cache_record(
            p,
            Attribute::Argv,
            CachedValue::Plain(Value::StrList(image.argv.to_vec())),
        );
        if !image.env.is_empty() {
            inner.cache_record(
                p,
                Attribute::Env,
                CachedValue::Plain(Value::StrList(image.env.to_vec())),
            );
        }
        if let Some(loc) = image.loc {
            let bin = inner.node_for_file(ctx, loc);
            let out = inner.analyzer.add_dependency(p, bin);
            if !out.duplicate {
                inner.cache_record(
                    p,
                    Attribute::Input,
                    CachedValue::Ref(bin, out.source_version),
                );
            }
        }
    }

    fn on_exit(&self, ctx: &mut HookCtx<'_>, pid: Pid) {
        let mut inner = self.inner.borrow_mut();
        if inner.exempt.remove(&pid) {
            return;
        }
        let Some(&node) = inner.nodes.get(&ObjKey::Proc(pid)) else {
            return;
        };
        // If the process was materialized (it has persistent
        // descendants), flush its remaining provenance; otherwise the
        // cache is dropped — transient objects with no descendants
        // leave no trace, per §5.5.
        let materialized = inner
            .info
            .get(&node)
            .filter(|i| i.pnode.is_some())
            .and_then(|i| i.home.zip(i.home_handle));
        if let Some((home, vh)) = materialized {
            // The records homed on the process's own volume come back
            // as the ride-along bundle; no `pass_write` is coming to
            // carry them, so disclose them here, as `dp_sync` does.
            let side = inner.flush_nodes(ctx, &[node], home);
            if !side.is_empty() {
                if let Some(v) = ctx.find_volume(home) {
                    let _ = v.disclose(vh, side);
                }
            }
        }
        inner.analyzer.forget(node);
        inner.nodes.remove(&ObjKey::Proc(pid));
    }

    fn on_open(&self, ctx: &mut HookCtx<'_>, pid: Pid, loc: FileLoc, path: &str, _created: bool) {
        let mut inner = self.inner.borrow_mut();
        if inner.exempt.contains(&pid) {
            return;
        }
        let node = inner.node_for_file(ctx, loc);
        // Cache the name; it rides the next flush that reaches this
        // node (its own first write, or a reader's materialization).
        let already_named = inner
            .info
            .get(&node)
            .map(|i| i.cached.iter().any(|r| r.attr == Attribute::Name))
            .unwrap_or(false);
        if !already_named {
            inner.cache_record(node, Attribute::Name, CachedValue::Plain(Value::str(path)));
        }
    }

    fn handle_read(
        &self,
        ctx: &mut HookCtx<'_>,
        pid: Pid,
        loc: FileLoc,
        offset: u64,
        len: usize,
    ) -> FsResult<Vec<u8>> {
        let mut inner = self.inner.borrow_mut();
        if inner.exempt.contains(&pid) {
            return ctx.fs(loc.mount).read(loc.ino, offset, len);
        }
        Ok(inner.provenanced_read(ctx, pid, loc, offset, len)?.data)
    }

    fn handle_write(
        &self,
        ctx: &mut HookCtx<'_>,
        pid: Pid,
        loc: FileLoc,
        offset: u64,
        data: &[u8],
    ) -> FsResult<usize> {
        let mut inner = self.inner.borrow_mut();
        if inner.exempt.contains(&pid) {
            return ctx.fs(loc.mount).write(loc.ino, offset, data);
        }
        let source = inner.node_for_proc(pid);
        Ok(inner
            .provenanced_write(ctx, source, loc, offset, data, Bundle::new())?
            .written)
    }

    fn on_pipe_read(&self, _ctx: &mut HookCtx<'_>, pid: Pid, pipe: u64, _len: usize) {
        let mut inner = self.inner.borrow_mut();
        if inner.exempt.contains(&pid) {
            return;
        }
        let p = inner.node_for_proc(pid);
        let q = inner.node_for_pipe(pipe);
        let out = inner.analyzer.add_dependency(p, q);
        if !out.duplicate {
            inner.cache_record(p, Attribute::Input, CachedValue::Ref(q, out.source_version));
        }
    }

    fn on_pipe_write(&self, _ctx: &mut HookCtx<'_>, pid: Pid, pipe: u64, _len: usize) {
        let mut inner = self.inner.borrow_mut();
        if inner.exempt.contains(&pid) {
            return;
        }
        let p = inner.node_for_proc(pid);
        let q = inner.node_for_pipe(pipe);
        let out = inner.analyzer.add_dependency(q, p);
        if !out.duplicate {
            inner.cache_record(q, Attribute::Input, CachedValue::Ref(p, out.source_version));
        }
    }

    fn on_mmap(&self, ctx: &mut HookCtx<'_>, pid: Pid, loc: FileLoc, writable: bool) {
        let mut inner = self.inner.borrow_mut();
        if inner.exempt.contains(&pid) {
            return;
        }
        let file_node = inner.node_for_file(ctx, loc);
        let proc_node = inner.node_for_proc(pid);
        let out = inner.analyzer.add_dependency(proc_node, file_node);
        if !out.duplicate {
            inner.cache_record(
                proc_node,
                Attribute::Input,
                CachedValue::Ref(file_node, out.source_version),
            );
        }
        if writable {
            // A writable shared mapping also makes the process an
            // input of the file.
            let _ = inner.provenanced_write(ctx, proc_node, loc, 0, &[], Bundle::new());
        }
    }

    fn on_rename(&self, ctx: &mut HookCtx<'_>, pid: Pid, loc: FileLoc, _from: &str, to: &str) {
        let mut inner = self.inner.borrow_mut();
        if inner.exempt.contains(&pid) {
            return;
        }
        let node = inner.node_for_file(ctx, loc);
        // Record the new name; provenance already follows the pnode.
        inner.cache_record(node, Attribute::Name, CachedValue::Plain(Value::str(to)));
        // A renamed PASS file may never be written again; disclose
        // the new name now so queries by the new name resolve.
        let home = inner.info.get(&node).and_then(|i| i.home);
        if let Some(home) = home {
            let side = inner.flush_nodes(ctx, &[node], home);
            if !side.is_empty() {
                if let Some(v) = ctx.find_volume(home) {
                    if let Some(loc) = inner.info.get(&node).and_then(|i| i.pass_file) {
                        if let Ok(h) = v.handle_for_ino(loc.ino) {
                            let _ = v.disclose(h, side);
                        }
                    }
                }
            }
        }
    }

    fn on_drop_inode(&self, _ctx: &mut HookCtx<'_>, loc: FileLoc) {
        let mut inner = self.inner.borrow_mut();
        let Some(&node) = inner.nodes.get(&ObjKey::File(loc)) else {
            return;
        };
        // The file is gone; drop live tracking state. Its pnode (if
        // any) remains valid in the database — provenance outlives
        // objects.
        inner.analyzer.forget(node);
        inner.nodes.remove(&ObjKey::File(loc));
    }
}

impl ProvenanceKernel for Pass {
    fn dp_mkobj(
        &self,
        ctx: &mut HookCtx<'_>,
        _pid: Pid,
        volume: Option<VolumeId>,
    ) -> dpapi::Result<Handle> {
        let mut inner = self.inner.borrow_mut();
        inner.stats.dpapi_calls += 1;
        inner.mkobj_for(ctx, volume)
    }

    fn dp_reviveobj(
        &self,
        ctx: &mut HookCtx<'_>,
        _pid: Pid,
        pnode: Pnode,
        version: Version,
    ) -> dpapi::Result<Handle> {
        let mut inner = self.inner.borrow_mut();
        inner.stats.dpapi_calls += 1;
        inner.revive_for(ctx, pnode, version)
    }

    fn dp_read(
        &self,
        ctx: &mut HookCtx<'_>,
        pid: Pid,
        h: Handle,
        offset: u64,
        len: usize,
    ) -> dpapi::Result<ReadResult> {
        let mut inner = self.inner.borrow_mut();
        inner.stats.dpapi_calls += 1;
        let node = inner.resolve_uhandle(h)?;
        if let Some(loc) = inner.info.get(&node).and_then(|i| i.pass_file) {
            return inner
                .provenanced_read(ctx, pid, loc, offset, len)
                .map_err(|e| DpapiError::Io(e.to_string()));
        }
        // App object: no data, identity only.
        let identity = inner.identity(node).ok_or(DpapiError::InvalidHandle)?;
        Ok(ReadResult {
            data: Vec::new(),
            identity,
        })
    }

    fn dp_write(
        &self,
        ctx: &mut HookCtx<'_>,
        pid: Pid,
        h: Handle,
        offset: u64,
        data: &[u8],
        bundle: Bundle,
    ) -> dpapi::Result<WriteResult> {
        let mut inner = self.inner.borrow_mut();
        inner.stats.dpapi_calls += 1;
        let subject = inner.resolve_uhandle(h)?;
        let proc_node = inner.node_for_proc(pid);

        // Re-key the user bundle from user handles onto nodes, running
        // every ancestry record through the analyzer.
        let described = inner.rekey_user_bundle(subject, pid, bundle)?;

        if let Some(loc) = inner.info.get(&subject).and_then(|i| i.pass_file) {
            // Writing to a real file: everything flushes now, riding
            // the data write. The implicit app→file dependency is
            // added by provenanced_write.
            let res = inner
                .provenanced_write(ctx, proc_node, loc, offset, data, Bundle::new())
                .map_err(|e| DpapiError::Io(e.to_string()))?;
            // Flush the described objects' caches (they are now part
            // of a persistent object's ancestry).
            if let Some(vol_id) = ctx.volume_of(loc.mount) {
                let side = inner.flush_nodes(ctx, &described, vol_id);
                if !side.is_empty() {
                    if let Some(v) = ctx.dpapi(loc.mount) {
                        let hf = v.handle_for_ino(loc.ino)?;
                        v.disclose(hf, side)?;
                    }
                }
            }
            Ok(res)
        } else {
            // Provenance-only disclosure about app objects: implicit
            // dependency on the disclosing process, records stay
            // cached until a persistent descendant appears.
            let out = inner.analyzer.add_dependency(subject, proc_node);
            if !out.duplicate {
                inner.cache_record(
                    subject,
                    Attribute::Input,
                    CachedValue::Ref(proc_node, out.source_version),
                );
            }
            let identity = inner.identity(subject).ok_or(DpapiError::InvalidHandle)?;
            Ok(WriteResult {
                written: 0,
                identity,
            })
        }
    }

    fn dp_freeze(&self, ctx: &mut HookCtx<'_>, _pid: Pid, h: Handle) -> dpapi::Result<Version> {
        let mut inner = self.inner.borrow_mut();
        inner.stats.dpapi_calls += 1;
        let node = inner.resolve_uhandle(h)?;
        let new_version = inner.analyzer.freeze(node);
        // Mirror the freeze at the volume if the object lives there.
        let info = inner
            .info
            .get(&node)
            .map(|i| (i.home, i.home_handle, i.pass_file));
        if let Some((home, home_handle, pass_file)) = info {
            if let Some(loc) = pass_file {
                if let Some(v) = ctx.dpapi(loc.mount) {
                    let vh = v.handle_for_ino(loc.ino)?;
                    v.pass_freeze(vh)?;
                }
            } else if let (Some(home), Some(vh)) = (home, home_handle) {
                if let Some(v) = ctx.find_volume(home) {
                    v.pass_freeze(vh)?;
                }
            }
        }
        Ok(Version(new_version))
    }

    fn dp_sync(&self, ctx: &mut HookCtx<'_>, _pid: Pid, h: Handle) -> dpapi::Result<()> {
        let mut inner = self.inner.borrow_mut();
        inner.stats.dpapi_calls += 1;
        let node = inner.resolve_uhandle(h)?;
        let home = inner
            .info
            .get(&node)
            .and_then(|i| i.home)
            .or_else(|| inner.default_volume(ctx))
            .ok_or(DpapiError::NotPassVolume)?;
        let side = inner.flush_nodes(ctx, &[node], home);
        let vh = inner
            .info
            .get(&node)
            .and_then(|i| i.home_handle)
            .ok_or(DpapiError::InvalidHandle)?;
        let v = ctx.find_volume(home).ok_or(DpapiError::NotPassVolume)?;
        if !side.is_empty() {
            v.disclose(vh, side)?;
        }
        v.pass_sync(vh)
    }

    fn dp_close(&self, _ctx: &mut HookCtx<'_>, _pid: Pid, h: Handle) -> dpapi::Result<()> {
        let mut inner = self.inner.borrow_mut();
        inner.stats.dpapi_calls += 1;
        inner
            .uhandles
            .remove(&h.raw())
            .map(|_| ())
            .ok_or(DpapiError::InvalidHandle)
    }

    fn dp_handle_for_file(
        &self,
        ctx: &mut HookCtx<'_>,
        _pid: Pid,
        loc: FileLoc,
    ) -> dpapi::Result<Handle> {
        let mut inner = self.inner.borrow_mut();
        inner.stats.dpapi_calls += 1;
        let node = inner.node_for_file(ctx, loc);
        Ok(inner.new_uhandle(node))
    }

    /// Commits a user-level disclosure transaction as a unit.
    ///
    /// Three phases:
    ///
    /// 1. **Validate** every op against pre-transaction state —
    ///    handles resolve, records are wire-representable, target
    ///    volumes exist. A failure aborts with the op's index and no
    ///    durable effect.
    /// 2. **Analyze and translate**: ops run through the analyzer and
    ///    distributor in order (so the batch's dependency edges,
    ///    freezes and dedup decisions are computed over the whole
    ///    batch *before* anything is disclosed), while every
    ///    volume-bound disclosure is deferred into a per-volume
    ///    [`Txn`].
    /// 3. **Commit** each per-volume transaction with a single
    ///    `pass_commit`, which the volume frames as one contiguous log
    ///    group. Volume-assigned results (write identities) are then
    ///    backfilled into the per-op result vector.
    ///
    /// Atomicity is per target volume (the common single-volume case
    /// is fully atomic): validation makes a phase-3 failure all but
    /// impossible, but on a transaction spanning volumes such a
    /// failure would leave volumes committed earlier in phase 3
    /// durable — callers needing cross-volume atomicity must use one
    /// volume per transaction until a prepare/seal protocol exists
    /// (see ROADMAP). Pnode allocation for `mkobj`/`revive` is eager
    /// because it is pure server state with no log footprint, exactly
    /// as in the single-shot calls.
    fn dp_commit(&self, ctx: &mut HookCtx<'_>, pid: Pid, txn: Txn) -> dpapi::Result<Vec<OpResult>> {
        let scope = self.inner.borrow().scope.clone();
        let span = scope.open("dpapi", "dp_commit");
        let r = self.dp_commit_inner(ctx, pid, txn, &scope);
        scope.close(span);
        r
    }
}

impl Pass {
    fn dp_commit_inner(
        &self,
        ctx: &mut HookCtx<'_>,
        pid: Pid,
        txn: Txn,
        scope: &provscope::Scope,
    ) -> dpapi::Result<Vec<OpResult>> {
        let ops = txn.into_ops();
        let n_ops = ops.len() as u64;
        let mut inner = self.inner.borrow_mut();
        inner.stats.dpapi_calls += 1;
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        // ---- Phase 1: validate against pre-transaction state ------------
        let span = scope.open("dpapi", "validate");
        let mut failed = None;
        for (i, op) in ops.iter().enumerate() {
            if let Err(e) = inner.validate_user_op(ctx, op) {
                failed = Some(DpapiError::aborted_at(i, e));
                break;
            }
        }
        scope.close(span);
        if let Some(e) = failed {
            return Err(e);
        }
        // ---- Phase 2: analyze the batch; defer volume disclosure --------
        let span = scope.open("dpapi", "analyze");
        let mut vol_txns: Vec<VolTxn> = Vec::new();
        let mut results: Vec<Option<OpResult>> = Vec::with_capacity(ops.len());
        for _ in 0..ops.len() {
            results.push(None);
        }
        let mut failed = None;
        for (i, op) in ops.into_iter().enumerate() {
            match inner.translate_op(ctx, pid, i, op, &mut vol_txns) {
                Ok(r) => results[i] = r,
                Err(e) => {
                    failed = Some(DpapiError::aborted_at(i, e));
                    break;
                }
            }
        }
        scope.close(span);
        if let Some(e) = failed {
            return Err(e);
        }
        // ---- Phase 3: one group commit per touched volume ---------------
        for vt in vol_txns {
            let first_op = vt.slots.first().map(|s| s.0).unwrap_or(0);
            let Some(v) = ctx.find_volume(vt.vol) else {
                return Err(DpapiError::aborted_at(first_op, DpapiError::NotPassVolume));
            };
            match v.pass_commit(vt.txn) {
                Ok(rs) => {
                    for (j, r) in rs.into_iter().enumerate() {
                        if let Some(&(user_op, backfill)) = vt.slots.get(j) {
                            if backfill {
                                results[user_op] = Some(r);
                            }
                        }
                    }
                }
                Err(DpapiError::TxnAborted { failed_op, cause }) => {
                    let user_op = vt.slots.get(failed_op).map(|s| s.0).unwrap_or(first_op);
                    return Err(DpapiError::aborted_at(user_op, *cause));
                }
                Err(e) => return Err(DpapiError::aborted_at(first_op, e)),
            }
        }
        // Count the transaction only once it actually committed, so
        // the batch-path counters (which CI gates on being non-zero)
        // cannot be satisfied by aborted batches.
        inner.stats.txn_commits += 1;
        inner.stats.txn_ops += n_ops;
        results
            .into_iter()
            .map(|r| {
                r.ok_or_else(|| {
                    DpapiError::Inconsistent("transaction op produced no result".into())
                })
            })
            .collect()
    }
}
