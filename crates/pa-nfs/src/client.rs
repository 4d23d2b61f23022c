//! The PA-NFS client.
//!
//! Mounted into a client machine's kernel as an ordinary file system,
//! the client forwards VFS operations over the simulated network and
//! exports the DPAPI downward to the server (paper §6.1.2):
//!
//! * `pass_write` sends data and provenance together in
//!   `OP_PASSWRITE`; bundles exceeding the 64 KB wire block are
//!   chunked through an `OP_BEGINTXN` / `OP_PASSPROV` /
//!   `OP_PASSWRITE`-with-`ENDTXN` transaction so the server can
//!   garbage-collect orphans after a client crash;
//! * `pass_freeze` increments the version *locally* and attaches a
//!   freeze record to the file, which ships inside the next
//!   `OP_PASSWRITE` — a record rather than an operation, because
//!   operations may arrive out of order;
//! * `pass_mkobj` obtains a pnode from the server, which needs no
//!   other state, making crash recovery on either side trivial.

use std::cell::RefCell;
use std::rc::Rc;

use dpapi::{
    Attribute, Bundle, Dpapi, DpapiError, Handle, IdMap, ObjectRef, Pnode, ProvenanceRecord,
    ReadResult, Value, Version, VolumeId, WriteResult,
};
use sim_os::clock::Clock;
use sim_os::cost::NetParams;
use sim_os::fs::{
    DirEntry, DpapiVolume, FileAttr, FileSystem, FileType, FsError, FsResult, FsUsage, Ino,
};

use crate::proto::{
    chunk_records, Request, Response, WireObj, WireOp, WireOpResult, WireRecord, WIRE_BLOCK,
};
use crate::server::NfsServer;

/// Counters for one client.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// RPCs issued.
    pub rpcs: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Provenance transactions started.
    pub txns: u64,
    /// `OP_PASSCOMMIT` batches shipped (one RPC each).
    pub batch_rpcs: u64,
    /// Operations carried by those batches.
    pub batched_ops: u64,
}

impl provscope::MetricSource for ClientStats {
    fn record(&self, out: &mut dyn FnMut(&str, u64)) {
        out("rpcs", self.rpcs);
        out("bytes_sent", self.bytes_sent);
        out("bytes_received", self.bytes_received);
        out("txns", self.txns);
        out("batch_rpcs", self.batch_rpcs);
        out("batched_ops", self.batched_ops);
    }
}

/// The client file system.
pub struct NfsClient {
    server: Rc<RefCell<NfsServer>>,
    clock: Clock,
    net: NetParams,
    volume: Option<VolumeId>,
    root: Ino,
    // Keyed by handles this client mints and by inode and pnode
    // numbers the server allocated: see `dpapi::IdHasher`.
    handles: IdMap<u64, WireObj>,
    handle_of_ino: IdMap<u64, Handle>,
    next_handle: u64,
    /// Client-side version cache: server version + local freezes.
    versions: IdMap<u64, Version>,
    pnode_of_ino: IdMap<u64, Pnode>,
    app_versions: IdMap<Pnode, Version>,
    stats: ClientStats,
    scope: provscope::Scope,
}

impl NfsClient {
    /// Mounts a client against `server` over a link with `net`
    /// parameters, advancing `clock` per RPC.
    pub fn new(server: Rc<RefCell<NfsServer>>, clock: Clock, net: NetParams) -> NfsClient {
        let (root, volume) = {
            let mut s = server.borrow_mut();
            (s.root(), s.volume())
        };
        NfsClient {
            server,
            clock,
            net,
            volume,
            root,
            handles: IdMap::default(),
            handle_of_ino: IdMap::default(),
            next_handle: 1,
            versions: IdMap::default(),
            pnode_of_ino: IdMap::default(),
            app_versions: IdMap::default(),
            stats: ClientStats::default(),
            scope: provscope::Scope::default(),
        }
    }

    /// Client statistics.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// One synchronous RPC, charging round trip and transfer time.
    fn rpc(&mut self, req: Request) -> Response {
        let req_size = req.wire_size();
        let resp = self.server.borrow_mut().handle(req);
        let resp_size = resp.wire_size();
        self.clock
            .advance(self.net.rtt_ns + (req_size + resp_size) as u64 * self.net.per_byte_ns);
        self.stats.rpcs += 1;
        self.stats.bytes_sent += req_size as u64;
        self.stats.bytes_received += resp_size as u64;
        resp
    }

    fn rpc_fs(&mut self, req: Request) -> FsResult<Response> {
        match self.rpc(req) {
            Response::Error { kind, msg } => Err(match kind {
                crate::proto::ErrKind::NotFound => FsError::NotFound(msg),
                crate::proto::ErrKind::Exists => FsError::Exists(msg),
                crate::proto::ErrKind::NotEmpty => FsError::NotEmpty(msg),
                crate::proto::ErrKind::NotDir => FsError::NotADirectory(msg),
                crate::proto::ErrKind::Invalid => FsError::Invalid(format!("nfs: {msg}")),
                crate::proto::ErrKind::Provenance => {
                    FsError::Provenance(DpapiError::Io(format!("nfs: {msg}")))
                }
                crate::proto::ErrKind::NoSpace => FsError::NoSpace,
            }),
            ok => Ok(ok),
        }
    }

    fn rpc_dp(&mut self, req: Request) -> dpapi::Result<Response> {
        match self.rpc(req) {
            Response::Error { msg, .. } => Err(DpapiError::Io(format!("nfs: {msg}"))),
            ok => Ok(ok),
        }
    }

    fn resolve(&self, h: Handle) -> dpapi::Result<WireObj> {
        self.handles
            .get(&h.raw())
            .copied()
            .ok_or(DpapiError::InvalidHandle)
    }

    fn new_handle(&mut self, obj: WireObj) -> Handle {
        let h = Handle::from_raw(self.next_handle);
        self.next_handle += 1;
        self.handles.insert(h.raw(), obj);
        h
    }

    /// Translates a client-side bundle into wire records — the
    /// records move, only their addressing changes — noticing freeze
    /// records so the local version cache stays correct.
    fn bundle_to_wire(&mut self, bundle: Bundle) -> dpapi::Result<Vec<WireRecord>> {
        let mut out = Vec::with_capacity(bundle.record_count());
        for (h, record) in bundle.into_records() {
            let subject = self.resolve(h)?;
            if record.attribute == Attribute::Freeze {
                match subject {
                    WireObj::File(ino) => {
                        let v = self.versions.entry(ino.0).or_insert(Version(0));
                        *v = v.next();
                    }
                    WireObj::App(p) => {
                        let v = self.app_versions.entry(p).or_insert(Version(0));
                        *v = v.next();
                    }
                }
            }
            out.push(WireRecord { subject, record });
        }
        Ok(out)
    }
}

impl NfsClient {
    fn pass_commit_inner(&mut self, txn: dpapi::Txn) -> dpapi::Result<Vec<dpapi::OpResult>> {
        use dpapi::{DpapiOp, OpResult};
        let ops = txn.into_ops();
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        // Client-side op shape, for post-commit cache updates.
        enum Shape {
            WroteFile(Ino),
            Froze(WireObj),
            Revive(Version),
            Other,
        }
        let mut wire_ops = Vec::with_capacity(ops.len());
        let mut shapes = Vec::with_capacity(ops.len());
        for (i, op) in ops.into_iter().enumerate() {
            let aborted = |e| DpapiError::aborted_at(i, e);
            match op {
                DpapiOp::Write {
                    handle,
                    offset,
                    data,
                    bundle,
                } => {
                    let obj = self.resolve(handle).map_err(aborted)?;
                    let records = self.bundle_to_wire(bundle).map_err(aborted)?;
                    shapes.push(match obj {
                        WireObj::File(ino) => Shape::WroteFile(ino),
                        WireObj::App(_) => Shape::Other,
                    });
                    wire_ops.push(WireOp::Write {
                        obj,
                        offset,
                        data,
                        records,
                    });
                }
                DpapiOp::Mkobj { .. } => {
                    shapes.push(Shape::Other);
                    wire_ops.push(WireOp::Mkobj);
                }
                DpapiOp::Freeze { handle } => {
                    let obj = self.resolve(handle).map_err(aborted)?;
                    shapes.push(Shape::Froze(obj));
                    wire_ops.push(WireOp::Freeze { obj });
                }
                DpapiOp::Revive { pnode, version } => {
                    shapes.push(Shape::Revive(version));
                    wire_ops.push(WireOp::Revive { pnode, version });
                }
                DpapiOp::Sync { handle } => {
                    let obj = self.resolve(handle).map_err(aborted)?;
                    shapes.push(Shape::Other);
                    wire_ops.push(WireOp::Sync { obj });
                }
            }
        }
        self.stats.batch_rpcs += 1;
        self.stats.batched_ops += wire_ops.len() as u64;
        let resp = self.rpc(Request::PassCommit { ops: wire_ops });
        let results = match resp {
            Response::Committed(rs) => rs,
            Response::TxnAborted { failed_op, msg, .. } => {
                return Err(DpapiError::aborted_at(
                    failed_op as usize,
                    DpapiError::Io(format!("nfs: {msg}")),
                ));
            }
            Response::Error { msg, .. } => return Err(DpapiError::Io(format!("nfs: {msg}"))),
            _ => return Err(DpapiError::Io("bad PASSCOMMIT reply".into())),
        };
        if results.len() != shapes.len() {
            return Err(DpapiError::Io("short PASSCOMMIT reply".into()));
        }
        let mut out = Vec::with_capacity(results.len());
        for (r, shape) in results.into_iter().zip(shapes) {
            let mapped = match (r, shape) {
                (WireOpResult::Written { n, pnode, version }, shape) => {
                    if let Shape::WroteFile(ino) = shape {
                        self.versions.insert(ino.0, version);
                        self.pnode_of_ino.insert(ino.0, pnode);
                    }
                    OpResult::Written(WriteResult {
                        written: n,
                        identity: ObjectRef::new(pnode, version),
                    })
                }
                (WireOpResult::Made(p), _) => {
                    self.app_versions.insert(p, Version(0));
                    OpResult::Made(self.new_handle(WireObj::App(p)))
                }
                (WireOpResult::Frozen(v), Shape::Froze(obj)) => {
                    // The server's version is authoritative for the
                    // batch, but a local freeze may already be ahead.
                    let slot = match obj {
                        WireObj::File(ino) => self.versions.entry(ino.0).or_insert(Version(0)),
                        WireObj::App(p) => self.app_versions.entry(p).or_insert(Version(0)),
                    };
                    *slot = (*slot).max(v);
                    OpResult::Frozen(*slot)
                }
                (WireOpResult::Frozen(v), _) => OpResult::Frozen(v),
                (WireOpResult::Revived(p), Shape::Revive(version)) => {
                    self.app_versions.entry(p).or_insert(version);
                    OpResult::Revived(self.new_handle(WireObj::App(p)))
                }
                (WireOpResult::Revived(p), _) => {
                    OpResult::Revived(self.new_handle(WireObj::App(p)))
                }
                (WireOpResult::Synced, _) => OpResult::Synced,
            };
            out.push(mapped);
        }
        Ok(out)
    }
}

impl Dpapi for NfsClient {
    /// Ships a whole disclosure transaction as **one** COMPOUND
    /// request (`OP_PASSCOMMIT`), amortizing the 96-byte RPC header
    /// across the batch, and maps the per-op reply back onto client
    /// handles and version caches. A server abort surfaces as
    /// [`DpapiError::TxnAborted`] with the failing op's index.
    fn pass_commit(&mut self, txn: dpapi::Txn) -> dpapi::Result<Vec<dpapi::OpResult>> {
        let span = self.scope.open("pa-nfs", "client_commit");
        let r = self.pass_commit_inner(txn);
        self.scope.close(span);
        r
    }

    fn pass_read(&mut self, h: Handle, offset: u64, len: usize) -> dpapi::Result<ReadResult> {
        match self.resolve(h)? {
            WireObj::File(ino) => {
                let resp = self.rpc_dp(Request::PassRead { ino, offset, len })?;
                let Response::PassData {
                    data,
                    pnode,
                    version,
                } = resp
                else {
                    return Err(DpapiError::Io("bad PASSREAD reply".into()));
                };
                // Local freezes may be ahead of the server; the cache
                // wins (the freeze records are attached to the file
                // and will reach the server with the next write).
                let local = self.versions.get(&ino.0).copied();
                let version = local.filter(|l| *l > version).unwrap_or(version);
                self.versions.insert(ino.0, version);
                self.pnode_of_ino.insert(ino.0, pnode);
                Ok(ReadResult {
                    data,
                    identity: ObjectRef::new(pnode, version),
                })
            }
            WireObj::App(p) => {
                let version = self.app_versions.get(&p).copied().unwrap_or(Version(0));
                Ok(ReadResult {
                    data: Vec::new(),
                    identity: ObjectRef::new(p, version),
                })
            }
        }
    }

    fn pass_write(
        &mut self,
        h: Handle,
        offset: u64,
        data: &[u8],
        bundle: Bundle,
    ) -> dpapi::Result<WriteResult> {
        let subject = self.resolve(h)?;
        let records = self.bundle_to_wire(bundle)?;
        let ino = match subject {
            WireObj::File(ino) => ino,
            WireObj::App(p) => {
                // Provenance-only disclosure for an app object rides
                // OP_PASSPROV directly.
                if !records.is_empty() {
                    self.rpc_dp(Request::PassProv { txn: None, records })?;
                }
                let version = self.app_versions.get(&p).copied().unwrap_or(Version(0));
                return Ok(WriteResult {
                    written: 0,
                    identity: ObjectRef::new(p, version),
                });
            }
        };
        let prov_size: usize = records.iter().map(WireRecord::wire_size).sum();
        let (final_records, txn_used) = if data.len() + prov_size <= WIRE_BLOCK {
            (records, None)
        } else {
            // Chunked transaction: BEGINTXN, n × PASSPROV, then the
            // data write carrying the ENDTXN record.
            let resp = self.rpc_dp(Request::BeginTxn)?;
            let Response::Txn(txn) = resp else {
                return Err(DpapiError::Io("bad BEGINTXN reply".into()));
            };
            self.stats.txns += 1;
            for chunk in chunk_records(records) {
                self.rpc_dp(Request::PassProv {
                    txn: Some(txn),
                    records: chunk,
                })?;
            }
            let end = WireRecord {
                subject,
                record: ProvenanceRecord::new(Attribute::EndTxn, Value::Int(txn as i64)),
            };
            (vec![end], Some(txn))
        };
        let _ = txn_used;
        let resp = self.rpc_dp(Request::PassWrite {
            ino,
            offset,
            data: data.to_vec(),
            records: final_records,
        })?;
        let Response::Written { n, pnode, version } = resp else {
            return Err(DpapiError::Io("bad PASSWRITE reply".into()));
        };
        self.versions.insert(ino.0, version);
        self.pnode_of_ino.insert(ino.0, pnode);
        Ok(WriteResult {
            written: n,
            identity: ObjectRef::new(pnode, version),
        })
    }

    fn pass_freeze(&mut self, h: Handle) -> dpapi::Result<Version> {
        // Version locally; the freeze record travels with the next
        // write (no round trip).
        match self.resolve(h)? {
            WireObj::File(ino) => {
                let v = self.versions.entry(ino.0).or_insert(Version(0));
                *v = v.next();
                let new = *v;
                let rec = ProvenanceRecord::freeze(new);
                // Attach the record to the file immediately so the
                // order relative to subsequent writes is preserved.
                let wire = WireRecord {
                    subject: WireObj::File(ino),
                    record: rec,
                };
                self.rpc_dp(Request::PassProv {
                    txn: None,
                    records: vec![wire],
                })?;
                Ok(new)
            }
            WireObj::App(p) => {
                let v = self.app_versions.entry(p).or_insert(Version(0));
                *v = v.next();
                Ok(*v)
            }
        }
    }

    fn pass_mkobj(&mut self, _volume_hint: Option<VolumeId>) -> dpapi::Result<Handle> {
        let resp = self.rpc_dp(Request::PassMkobj)?;
        let Response::PnodeReply(p) = resp else {
            return Err(DpapiError::Io("bad PASSMKOBJ reply".into()));
        };
        self.app_versions.insert(p, Version(0));
        Ok(self.new_handle(WireObj::App(p)))
    }

    fn pass_reviveobj(&mut self, pnode: Pnode, version: Version) -> dpapi::Result<Handle> {
        let resp = self.rpc_dp(Request::PassReviveObj { pnode, version })?;
        let Response::PnodeReply(p) = resp else {
            return Err(DpapiError::Io("bad PASSREVIVEOBJ reply".into()));
        };
        self.app_versions.entry(p).or_insert(version);
        Ok(self.new_handle(WireObj::App(p)))
    }

    fn pass_sync(&mut self, h: Handle) -> dpapi::Result<()> {
        let obj = self.resolve(h)?;
        if let WireObj::File(ino) = obj {
            self.rpc_dp(Request::Commit { ino })?;
        }
        Ok(())
    }

    fn pass_close(&mut self, h: Handle) -> dpapi::Result<()> {
        let obj = self.resolve(h)?;
        self.handles.remove(&h.raw());
        if let WireObj::File(ino) = obj {
            if self.handle_of_ino.get(&ino.0) == Some(&h) {
                self.handle_of_ino.remove(&ino.0);
            }
        }
        Ok(())
    }
}

impl DpapiVolume for NfsClient {
    fn volume(&self) -> VolumeId {
        self.volume.unwrap_or(VolumeId(0))
    }

    fn handle_for_ino(&mut self, ino: Ino) -> dpapi::Result<Handle> {
        if let Some(h) = self.handle_of_ino.get(&ino.0) {
            return Ok(*h);
        }
        let h = self.new_handle(WireObj::File(ino));
        self.handle_of_ino.insert(ino.0, h);
        Ok(h)
    }

    fn identity_of_ino(&mut self, ino: Ino) -> dpapi::Result<ObjectRef> {
        if let (Some(p), Some(v)) = (
            self.pnode_of_ino.get(&ino.0).copied(),
            self.versions.get(&ino.0).copied(),
        ) {
            return Ok(ObjectRef::new(p, v));
        }
        let h = self.handle_for_ino(ino)?;
        let r = self.pass_read(h, 0, 0)?;
        Ok(r.identity)
    }

    /// Shares the scope with the server side too, so one trace covers
    /// both halves of the RPC boundary.
    fn set_scope(&mut self, scope: provscope::Scope) {
        self.server.borrow_mut().set_scope(scope.clone());
        self.scope = scope;
    }
}

impl FileSystem for NfsClient {
    fn root(&self) -> Ino {
        self.root
    }

    fn lookup(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        match self.rpc_fs(Request::Lookup {
            dir,
            name: name.into(),
        })? {
            Response::Handle(ino) => Ok(ino),
            _ => Err(FsError::Invalid("bad LOOKUP reply".into())),
        }
    }

    fn create(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        match self.rpc_fs(Request::Create {
            dir,
            name: name.into(),
        })? {
            Response::Handle(ino) => Ok(ino),
            _ => Err(FsError::Invalid("bad CREATE reply".into())),
        }
    }

    fn mkdir(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        match self.rpc_fs(Request::Mkdir {
            dir,
            name: name.into(),
        })? {
            Response::Handle(ino) => Ok(ino),
            _ => Err(FsError::Invalid("bad MKDIR reply".into())),
        }
    }

    fn unlink(&mut self, dir: Ino, name: &str) -> FsResult<()> {
        self.rpc_fs(Request::Remove {
            dir,
            name: name.into(),
        })?;
        Ok(())
    }

    fn rename(&mut self, from: Ino, name: &str, to: Ino, to_name: &str) -> FsResult<()> {
        self.rpc_fs(Request::Rename {
            from,
            name: name.into(),
            to,
            to_name: to_name.into(),
        })?;
        Ok(())
    }

    fn read(&mut self, ino: Ino, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        match self.rpc_fs(Request::Read { ino, offset, len })? {
            Response::Data(d) => Ok(d),
            _ => Err(FsError::Invalid("bad READ reply".into())),
        }
    }

    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        if self.volume.is_some() {
            // A PA export keeps WAP coverage even for plain writes.
            let h = self.handle_for_ino(ino)?;
            let w = self.pass_write(h, offset, data, Bundle::new())?;
            return Ok(w.written);
        }
        match self.rpc_fs(Request::Write {
            ino,
            offset,
            data: data.to_vec(),
        })? {
            Response::Written { n, .. } => Ok(n),
            _ => Err(FsError::Invalid("bad WRITE reply".into())),
        }
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        self.rpc_fs(Request::Truncate { ino, size })?;
        Ok(())
    }

    fn getattr(&mut self, ino: Ino) -> FsResult<FileAttr> {
        match self.rpc_fs(Request::Getattr { ino })? {
            Response::Attr { size, is_dir } => Ok(FileAttr {
                ino,
                ftype: if is_dir {
                    FileType::Directory
                } else {
                    FileType::Regular
                },
                size,
                nlink: 1,
            }),
            _ => Err(FsError::Invalid("bad GETATTR reply".into())),
        }
    }

    fn readdir(&mut self, dir: Ino) -> FsResult<Vec<DirEntry>> {
        match self.rpc_fs(Request::Readdir { dir })? {
            Response::Entries(es) => Ok(es
                .into_iter()
                .map(|(name, ino, is_dir)| DirEntry {
                    name,
                    ino,
                    ftype: if is_dir {
                        FileType::Directory
                    } else {
                        FileType::Regular
                    },
                })
                .collect()),
            _ => Err(FsError::Invalid("bad READDIR reply".into())),
        }
    }

    fn sync(&mut self) -> FsResult<()> {
        let root = self.root;
        self.rpc_fs(Request::Commit { ino: root })?;
        Ok(())
    }

    fn fsync(&mut self, ino: Ino) -> FsResult<()> {
        self.rpc_fs(Request::Commit { ino })?;
        Ok(())
    }

    fn close_hint(&mut self, ino: Ino) -> FsResult<()> {
        // Close-to-open consistency: flush the file at the server
        // when a writer closes it.
        self.rpc_fs(Request::Commit { ino })?;
        Ok(())
    }

    fn usage(&self) -> FsUsage {
        self.server.borrow().fs_usage()
    }

    fn as_dpapi(&mut self) -> Option<&mut dyn DpapiVolume> {
        if self.volume.is_some() {
            Some(self)
        } else {
            None
        }
    }
}
