//! The PA-NFS server.
//!
//! The server exports one volume — Lasagna-backed when provenance-
//! aware — and runs its own analyzer instance, because records from
//! *different clients* meet only here (paper §6.1.1: "we must have an
//! analyzer on every client and also an analyzer on every server",
//! which works precisely because both speak the DPAPI and share one
//! record representation).

use dpapi::{
    Attribute, Bundle, DpapiError, IdMap, OpResult, Pnode, ProvenanceRecord, Txn, Value, Version,
};
use lasagna::PASS_DIR;
use passv2::analyzer::{CycleAvoidance, NodeId};
use sim_os::fs::{FileSystem, FsError, Ino};

use crate::proto::{ErrKind, Request, Response, WireObj, WireOp, WireOpResult, WireRecord};

/// Counters for one server.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Requests handled.
    pub requests: u64,
    /// Provenance transactions begun.
    pub txns: u64,
    /// Records accepted (after server-side dedup).
    pub records_accepted: u64,
    /// Records dropped as duplicates by the server analyzer.
    pub records_deduped: u64,
    /// `OP_PASSCOMMIT` batches handled.
    pub batch_requests: u64,
    /// Operations carried by those batches.
    pub batched_ops: u64,
}

impl provscope::MetricSource for ServerStats {
    fn record(&self, out: &mut dyn FnMut(&str, u64)) {
        out("requests", self.requests);
        out("txns", self.txns);
        out("records_accepted", self.records_accepted);
        out("records_deduped", self.records_deduped);
        out("batch_requests", self.batch_requests);
        out("batched_ops", self.batched_ops);
    }
}

/// The server.
pub struct NfsServer {
    fs: Box<dyn FileSystem>,
    next_txn: u64,
    analyzer: CycleAvoidance,
    // Keyed by inode and pnode numbers the export allocated: see
    // `dpapi::IdHasher`.
    nodes: IdMap<WireObj, NodeId>,
    pnode_nodes: IdMap<Pnode, NodeId>,
    next_node: NodeId,
    stats: ServerStats,
    scope: provscope::Scope,
}

impl NfsServer {
    /// Creates a server exporting `fs`.
    pub fn new(fs: Box<dyn FileSystem>) -> NfsServer {
        NfsServer {
            fs,
            next_txn: 1,
            analyzer: CycleAvoidance::new(),
            nodes: IdMap::default(),
            pnode_nodes: IdMap::default(),
            next_node: 1,
            stats: ServerStats::default(),
            scope: provscope::Scope::default(),
        }
    }

    /// Attaches a tracing scope to the server and to its exported
    /// volume, so one trace covers the RPC boundary and the export's
    /// log commit.
    pub fn set_scope(&mut self, scope: provscope::Scope) {
        if let Some(d) = self.fs.as_dpapi() {
            d.set_scope(scope.clone());
        }
        self.scope = scope;
    }

    /// Server statistics.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// The export's root filehandle.
    pub fn root(&self) -> Ino {
        self.fs.root()
    }

    /// True if the export is provenance-aware.
    pub fn is_pass(&mut self) -> bool {
        self.fs.as_dpapi().is_some()
    }

    /// The exported volume id, if provenance-aware.
    pub fn volume(&mut self) -> Option<dpapi::VolumeId> {
        self.fs.as_dpapi().map(|d| d.volume())
    }

    /// Direct access to the exported file system (Waldo, tests).
    pub fn fs_mut(&mut self) -> &mut dyn FileSystem {
        &mut *self.fs
    }

    /// Space usage of the export.
    pub fn fs_usage(&self) -> sim_os::fs::FsUsage {
        self.fs.usage()
    }

    /// Rotates and drains the provenance logs of the exported volume,
    /// returning raw log images for the server-side Waldo. Processed
    /// logs are removed, as Waldo would.
    pub fn drain_provenance_logs(&mut self) -> Vec<Vec<u8>> {
        let Some(d) = self.fs.as_dpapi() else {
            return Vec::new();
        };
        d.force_log_rotation();
        let rotated = d.take_log_rotations();
        let mut out = Vec::new();
        let root = self.fs.root();
        let Ok(dir) = self.fs.lookup(root, PASS_DIR) else {
            return out;
        };
        for rel in rotated {
            let name = rel.rsplit('/').next().unwrap_or(&rel).to_string();
            if let Ok(ino) = self.fs.lookup(dir, &name) {
                if let Ok(attr) = self.fs.getattr(ino) {
                    if let Ok(bytes) = self.fs.read(ino, 0, attr.size as usize) {
                        out.push(bytes);
                    }
                }
                let _ = self.fs.unlink(dir, &name);
            }
        }
        out
    }

    fn node_for(&mut self, obj: WireObj) -> NodeId {
        if let Some(&n) = self.nodes.get(&obj) {
            return n;
        }
        let n = self.next_node;
        self.next_node += 1;
        self.nodes.insert(obj, n);
        if let WireObj::App(p) = obj {
            self.pnode_nodes.insert(p, n);
        }
        n
    }

    fn node_for_pnode(&mut self, p: Pnode) -> NodeId {
        if let Some(&n) = self.pnode_nodes.get(&p) {
            return n;
        }
        let n = self.next_node;
        self.next_node += 1;
        self.pnode_nodes.insert(p, n);
        n
    }

    /// Runs incoming records through the server analyzer and converts
    /// them to a volume bundle. Freeze records bump the analyzer's
    /// mirror of the version; duplicate ancestry records are dropped.
    fn apply_records(&mut self, records: Vec<WireRecord>) -> Result<Bundle, FsError> {
        let mut bundle = Bundle::new();
        for wr in records {
            let subject_node = self.node_for(wr.subject);
            // Analyzer bookkeeping.
            match (&wr.record.attribute, &wr.record.value) {
                (Attribute::Freeze, Value::Int(v)) => {
                    self.analyzer.set_version(subject_node, *v as u32);
                }
                (attr, Value::Xref(ancestor)) if attr.is_ancestry() => {
                    let src = self.node_for_pnode(ancestor.pnode);
                    self.analyzer.set_version(src, ancestor.version.0);
                    let out = self.analyzer.add_dependency(subject_node, src);
                    if out.duplicate {
                        self.stats.records_deduped += 1;
                        continue;
                    }
                }
                _ => {}
            }
            // Resolve the subject to a volume handle.
            let d = self
                .fs
                .as_dpapi()
                .ok_or(FsError::Provenance(dpapi::DpapiError::NotPassVolume))?;
            let h = match wr.subject {
                WireObj::File(ino) => d.handle_for_ino(ino)?,
                WireObj::App(p) => d.pass_reviveobj(p, Version(0))?,
            };
            self.stats.records_accepted += 1;
            bundle.push(h, wr.record);
        }
        Ok(bundle)
    }

    /// Handles one request.
    pub fn handle(&mut self, req: Request) -> Response {
        self.stats.requests += 1;
        match self.try_handle(req) {
            Ok(resp) => resp,
            Err(e) => {
                let kind = match &e {
                    FsError::NotFound(_) => crate::proto::ErrKind::NotFound,
                    FsError::Exists(_) => crate::proto::ErrKind::Exists,
                    FsError::NotEmpty(_) => crate::proto::ErrKind::NotEmpty,
                    FsError::NotADirectory(_) => crate::proto::ErrKind::NotDir,
                    FsError::Invalid(_) => crate::proto::ErrKind::Invalid,
                    FsError::Provenance(_) => crate::proto::ErrKind::Provenance,
                    FsError::NoSpace => crate::proto::ErrKind::NoSpace,
                };
                Response::Error {
                    kind,
                    msg: e.to_string(),
                }
            }
        }
    }

    fn try_handle(&mut self, req: Request) -> Result<Response, FsError> {
        match req {
            Request::Lookup { dir, name } => Ok(Response::Handle(self.fs.lookup(dir, &name)?)),
            Request::Create { dir, name } => Ok(Response::Handle(self.fs.create(dir, &name)?)),
            Request::Mkdir { dir, name } => Ok(Response::Handle(self.fs.mkdir(dir, &name)?)),
            Request::Remove { dir, name } => {
                self.fs.unlink(dir, &name)?;
                Ok(Response::Ok)
            }
            Request::Rename {
                from,
                name,
                to,
                to_name,
            } => {
                self.fs.rename(from, &name, to, &to_name)?;
                Ok(Response::Ok)
            }
            Request::Read { ino, offset, len } => {
                Ok(Response::Data(self.fs.read(ino, offset, len)?))
            }
            Request::Write { ino, offset, data } => {
                let n = self.fs.write(ino, offset, &data)?;
                Ok(Response::Written {
                    n,
                    pnode: Pnode::NULL,
                    version: Version(0),
                })
            }
            Request::Truncate { ino, size } => {
                self.fs.truncate(ino, size)?;
                Ok(Response::Ok)
            }
            Request::Getattr { ino } => {
                let a = self.fs.getattr(ino)?;
                Ok(Response::Attr {
                    size: a.size,
                    is_dir: matches!(a.ftype, sim_os::fs::FileType::Directory),
                })
            }
            Request::Readdir { dir } => {
                let entries = self
                    .fs
                    .readdir(dir)?
                    .into_iter()
                    .map(|e| {
                        (
                            e.name,
                            e.ino,
                            matches!(e.ftype, sim_os::fs::FileType::Directory),
                        )
                    })
                    .collect();
                Ok(Response::Entries(entries))
            }
            Request::Commit { ino } => {
                self.fs.fsync(ino)?;
                Ok(Response::Ok)
            }
            Request::PassRead { ino, offset, len } => {
                let d = self
                    .fs
                    .as_dpapi()
                    .ok_or(FsError::Provenance(dpapi::DpapiError::NotPassVolume))?;
                let h = d.handle_for_ino(ino)?;
                let r = d.pass_read(h, offset, len)?;
                Ok(Response::PassData {
                    data: r.data,
                    pnode: r.identity.pnode,
                    version: r.identity.version,
                })
            }
            Request::PassWrite {
                ino,
                offset,
                data,
                records,
            } => {
                let bundle = self.apply_records(records)?;
                let d = self
                    .fs
                    .as_dpapi()
                    .ok_or(FsError::Provenance(dpapi::DpapiError::NotPassVolume))?;
                let h = d.handle_for_ino(ino)?;
                let w = d.pass_write(h, offset, &data, bundle)?;
                Ok(Response::Written {
                    n: w.written,
                    pnode: w.identity.pnode,
                    version: w.identity.version,
                })
            }
            Request::BeginTxn => {
                let id = self.next_txn;
                self.next_txn += 1;
                self.stats.txns += 1;
                // Record the transaction id in a BEGINTXN record at
                // the server.
                let root = self.fs.root();
                let d = self
                    .fs
                    .as_dpapi()
                    .ok_or(FsError::Provenance(dpapi::DpapiError::NotPassVolume))?;
                let h = d.handle_for_ino(root)?;
                d.disclose(
                    h,
                    Bundle::single(
                        h,
                        ProvenanceRecord::new(Attribute::BeginTxn, Value::Int(id as i64)),
                    ),
                )?;
                Ok(Response::Txn(id))
            }
            Request::PassProv { txn: _, records } => {
                let bundle = self.apply_records(records)?;
                if !bundle.is_empty() {
                    let root = self.fs.root();
                    let d = self
                        .fs
                        .as_dpapi()
                        .ok_or(FsError::Provenance(dpapi::DpapiError::NotPassVolume))?;
                    let h = d.handle_for_ino(root)?;
                    d.disclose(h, bundle)?;
                }
                Ok(Response::Ok)
            }
            Request::PassMkobj => {
                let d = self
                    .fs
                    .as_dpapi()
                    .ok_or(FsError::Provenance(dpapi::DpapiError::NotPassVolume))?;
                let h = d.pass_mkobj(None)?;
                let id = d.pass_read(h, 0, 0)?.identity;
                Ok(Response::PnodeReply(id.pnode))
            }
            Request::PassReviveObj { pnode, version } => {
                let d = self
                    .fs
                    .as_dpapi()
                    .ok_or(FsError::Provenance(dpapi::DpapiError::NotPassVolume))?;
                // The server only needs enough state to verify that
                // the pnode is valid (§6.1.2).
                let _h = d.pass_reviveobj(pnode, version)?;
                Ok(Response::PnodeReply(pnode))
            }
            Request::PassCommit { ops } => Ok(self.handle_pass_commit(ops)),
        }
    }

    fn abort_at(i: usize, e: DpapiError) -> Response {
        Response::TxnAborted {
            failed_op: i as u32,
            kind: ErrKind::Provenance,
            msg: e.to_string(),
        }
    }

    /// `OP_PASSCOMMIT`: translates the batch into one volume-level
    /// disclosure transaction (running every record through the server
    /// analyzer, as the single-shot paths do) and commits it with a
    /// single `pass_commit` — one contiguous log group on the export.
    /// Any failure aborts the whole batch with the failing op's index.
    fn handle_pass_commit(&mut self, ops: Vec<WireOp>) -> Response {
        let span = self.scope.open("pa-nfs", "server_commit");
        let r = self.handle_pass_commit_inner(ops);
        self.scope.close(span);
        r
    }

    fn handle_pass_commit_inner(&mut self, ops: Vec<WireOp>) -> Response {
        self.stats.batch_requests += 1;
        self.stats.batched_ops += ops.len() as u64;
        // Pre-validate every record up front so the analyzer
        // bookkeeping below cannot be spent on a batch that a later
        // op's malformed record would abort anyway.
        for (i, op) in ops.iter().enumerate() {
            if let WireOp::Write { records, .. } = op {
                for r in records {
                    if let Err(e) = dpapi::wire::validate_record(&r.record) {
                        return Self::abort_at(i, e);
                    }
                }
            }
        }
        if self.fs.as_dpapi().is_none() {
            return Self::abort_at(0, DpapiError::NotPassVolume);
        }
        // Resolve every addressed object — each op's own target *and*
        // the subject of every record a Write carries — and dry-run
        // every revive *before* any analyzer bookkeeping: apply_records
        // marks ancestry edges as seen, so an abort after it would make
        // a retried batch's records look like duplicates and silently
        // drop them. After this pass the translation and the volume
        // commit below cannot fail.
        for (i, op) in ops.iter().enumerate() {
            let resolve_obj = |server: &mut Self, obj: &WireObj| match obj {
                WireObj::File(_) => Ok(()),
                WireObj::App(p) => {
                    let d = server.fs.as_dpapi().expect("checked above");
                    d.pass_reviveobj(*p, Version(0)).map(|_| ())
                }
            };
            let check = match op {
                WireOp::Write { obj, records, .. } => resolve_obj(self, obj).and_then(|()| {
                    records
                        .iter()
                        .try_for_each(|wr| resolve_obj(self, &wr.subject))
                }),
                WireOp::Freeze { obj } | WireOp::Sync { obj } => resolve_obj(self, obj),
                WireOp::Revive { pnode, version } => {
                    let d = self.fs.as_dpapi().expect("checked above");
                    d.pass_reviveobj(*pnode, *version).map(|_| ())
                }
                WireOp::Mkobj => Ok(()),
            };
            if let Err(e) = check {
                return Self::abort_at(i, e);
            }
        }
        // Translate into a volume transaction, remembering per-op
        // shape details the wire result needs but the volume result
        // does not carry (the revived pnode, the frozen object).
        enum Shape {
            Plain,
            Revive(Pnode),
            Freeze(WireObj),
        }
        let mut vtxn = Txn::new();
        let mut shapes: Vec<Shape> = Vec::with_capacity(ops.len());
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                WireOp::Write {
                    obj,
                    offset,
                    data,
                    records,
                } => {
                    let bundle = match self.apply_records(records) {
                        Ok(b) => b,
                        Err(e) => return Self::abort_at(i, e.into()),
                    };
                    let d = self.fs.as_dpapi().expect("checked above");
                    let h = match obj {
                        WireObj::File(ino) => d.handle_for_ino(ino),
                        WireObj::App(p) => d.pass_reviveobj(p, Version(0)),
                    };
                    match h {
                        Ok(h) => vtxn.write(h, offset, data, bundle),
                        Err(e) => return Self::abort_at(i, e),
                    };
                    shapes.push(Shape::Plain);
                }
                WireOp::Mkobj => {
                    vtxn.mkobj(None);
                    shapes.push(Shape::Plain);
                }
                WireOp::Freeze { obj } => {
                    let d = self.fs.as_dpapi().expect("checked above");
                    let h = match obj {
                        WireObj::File(ino) => d.handle_for_ino(ino),
                        WireObj::App(p) => d.pass_reviveobj(p, Version(0)),
                    };
                    match h {
                        Ok(h) => vtxn.freeze(h),
                        Err(e) => return Self::abort_at(i, e),
                    };
                    shapes.push(Shape::Freeze(obj));
                }
                WireOp::Revive { pnode, version } => {
                    vtxn.revive(pnode, version);
                    shapes.push(Shape::Revive(pnode));
                }
                WireOp::Sync { obj } => {
                    let d = self.fs.as_dpapi().expect("checked above");
                    let h = match obj {
                        WireObj::File(ino) => d.handle_for_ino(ino),
                        WireObj::App(p) => d.pass_reviveobj(p, Version(0)),
                    };
                    match h {
                        Ok(h) => vtxn.sync(h),
                        Err(e) => return Self::abort_at(i, e),
                    };
                    shapes.push(Shape::Plain);
                }
            }
        }
        let d = self.fs.as_dpapi().expect("checked above");
        let results = match d.pass_commit(vtxn) {
            Ok(rs) => rs,
            Err(DpapiError::TxnAborted { failed_op, cause }) => {
                return Self::abort_at(failed_op, *cause);
            }
            Err(e) => return Self::abort_at(0, e),
        };
        let mut out = Vec::with_capacity(results.len());
        for (r, shape) in results.into_iter().zip(shapes) {
            let wire = match (r, shape) {
                (OpResult::Written(w), _) => WireOpResult::Written {
                    n: w.written,
                    pnode: w.identity.pnode,
                    version: w.identity.version,
                },
                (OpResult::Made(h), _) => {
                    let d = self.fs.as_dpapi().expect("checked above");
                    match d.pass_read(h, 0, 0) {
                        Ok(r) => WireOpResult::Made(r.identity.pnode),
                        Err(e) => return Self::abort_at(0, e),
                    }
                }
                (OpResult::Frozen(v), shape) => {
                    // Mirror the new version in the server analyzer,
                    // as freeze *records* do on the single-shot path.
                    if let Shape::Freeze(obj) = shape {
                        let node = self.node_for(obj);
                        self.analyzer.set_version(node, v.0);
                    }
                    WireOpResult::Frozen(v)
                }
                (OpResult::Revived(_), Shape::Revive(p)) => WireOpResult::Revived(p),
                (OpResult::Revived(_), _) => {
                    return Self::abort_at(0, DpapiError::Inconsistent("revive shape".into()));
                }
                (OpResult::Synced, _) => WireOpResult::Synced,
            };
            out.push(wire);
        }
        Response::Committed(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpapi::{ObjectRef, VolumeId};
    use lasagna::{Lasagna, LasagnaConfig};
    use sim_os::clock::Clock;
    use sim_os::cost::CostModel;
    use sim_os::fs::basefs::BaseFs;

    fn pa_server() -> NfsServer {
        let clock = Clock::new();
        let model = CostModel::default();
        let base = BaseFs::new(clock.clone(), model);
        let fs = Lasagna::new(
            Box::new(base),
            clock,
            model,
            LasagnaConfig::new(VolumeId(2)),
        )
        .unwrap();
        NfsServer::new(Box::new(fs))
    }

    fn plain_server() -> NfsServer {
        let clock = Clock::new();
        NfsServer::new(Box::new(BaseFs::new(clock, CostModel::default())))
    }

    #[test]
    fn basic_namespace_ops() {
        let mut s = pa_server();
        let root = s.root();
        let Response::Handle(f) = s.handle(Request::Create {
            dir: root,
            name: "a".into(),
        }) else {
            panic!("create failed")
        };
        s.handle(Request::Write {
            ino: f,
            offset: 0,
            data: b"hello".to_vec(),
        });
        let Response::Data(d) = s.handle(Request::Read {
            ino: f,
            offset: 0,
            len: 5,
        }) else {
            panic!("read failed")
        };
        assert_eq!(d, b"hello");
    }

    #[test]
    fn passread_returns_identity() {
        let mut s = pa_server();
        let root = s.root();
        let Response::Handle(f) = s.handle(Request::Create {
            dir: root,
            name: "x".into(),
        }) else {
            panic!()
        };
        let Response::PassData { pnode, version, .. } = s.handle(Request::PassRead {
            ino: f,
            offset: 0,
            len: 0,
        }) else {
            panic!("passread failed")
        };
        assert_eq!(pnode.volume, VolumeId(2));
        assert_eq!(version, Version(0));
    }

    #[test]
    fn pass_ops_fail_on_plain_export() {
        let mut s = plain_server();
        let resp = s.handle(Request::PassRead {
            ino: s.root(),
            offset: 0,
            len: 0,
        });
        assert!(matches!(resp, Response::Error { .. }));
        assert!(matches!(
            s.handle(Request::BeginTxn),
            Response::Error { .. }
        ));
    }

    #[test]
    fn server_analyzer_dedups_across_requests() {
        let mut s = pa_server();
        let root = s.root();
        let Response::Handle(f) = s.handle(Request::Create {
            dir: root,
            name: "f".into(),
        }) else {
            panic!()
        };
        let Response::PnodeReply(proc_pnode) = s.handle(Request::PassMkobj) else {
            panic!()
        };
        let edge = WireRecord {
            subject: WireObj::File(f),
            record: ProvenanceRecord::input(ObjectRef::new(proc_pnode, Version(0))),
        };
        for _ in 0..5 {
            s.handle(Request::PassWrite {
                ino: f,
                offset: 0,
                data: b"d".to_vec(),
                records: vec![edge.clone()],
            });
        }
        assert_eq!(s.stats().records_deduped, 4);
        assert_eq!(s.stats().records_accepted, 1);
    }

    #[test]
    fn freeze_records_bump_server_version() {
        let mut s = pa_server();
        let root = s.root();
        let Response::Handle(f) = s.handle(Request::Create {
            dir: root,
            name: "f".into(),
        }) else {
            panic!()
        };
        let freeze = WireRecord {
            subject: WireObj::File(f),
            record: ProvenanceRecord::freeze(Version(1)),
        };
        let Response::Written { version, .. } = s.handle(Request::PassWrite {
            ino: f,
            offset: 0,
            data: b"v1 data".to_vec(),
            records: vec![freeze],
        }) else {
            panic!()
        };
        assert_eq!(version, Version(1));
    }

    #[test]
    fn txn_markers_reach_the_log() {
        let mut s = pa_server();
        let Response::Txn(id) = s.handle(Request::BeginTxn) else {
            panic!()
        };
        assert_eq!(id, 1);
        let logs = s.drain_provenance_logs();
        assert!(!logs.is_empty());
        let all: Vec<u8> = logs.concat();
        let (entries, _) = lasagna::parse_log(&all);
        assert!(entries
            .iter()
            .any(|e| matches!(e, lasagna::LogEntry::TxnBegin { id: 1 })));
    }

    #[test]
    fn drain_removes_processed_logs() {
        let mut s = pa_server();
        let root = s.root();
        s.handle(Request::Create {
            dir: root,
            name: "f".into(),
        });
        let first = s.drain_provenance_logs();
        assert!(!first.is_empty());
        let second = s.drain_provenance_logs();
        assert!(second.is_empty(), "second drain must find nothing");
    }
}
