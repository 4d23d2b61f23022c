//! End-to-end tests for `OP_PASSCOMMIT`: a disclosure transaction
//! crosses the PA-NFS wire as one COMPOUND, matches the single-shot
//! path record for record, and aborts atomically with the failing
//! op's index.

use dpapi::{
    Attribute, Bundle, Dpapi, DpapiError, Handle, ObjectRef, OpResult, Pnode, ProvenanceRecord,
    ReadResult, Value, Version, VolumeId,
};
use lasagna::{Lasagna, LasagnaConfig, LogEntry};
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::fs::basefs::BaseFs;
use sim_os::fs::{DirEntry, DpapiVolume, FileAttr, FileSystem, FsResult, FsUsage, Ino};

use std::cell::RefCell;
use std::rc::Rc;

type ServerRc = Rc<RefCell<pa_nfs::NfsServer>>;

fn setup(volume: u32) -> (pa_nfs::NfsClient, Ino, ServerRc) {
    let clock = Clock::new();
    let model = CostModel::default();
    let server = pa_nfs::pa_server(clock.clone(), model, VolumeId(volume));
    let mut client = pa_nfs::client(&server, clock, model);
    let root = client.root();
    let ino = client.create(root, "target").unwrap();
    (client, ino, server)
}

fn record(i: usize) -> ProvenanceRecord {
    ProvenanceRecord::new(
        Attribute::Other(format!("ATTR{i}")),
        Value::str(format!("payload number {i}")),
    )
}

/// Drains `server` and returns the parsed entries.
fn drain(server: &ServerRc) -> Vec<LogEntry> {
    let logs = server.borrow_mut().drain_provenance_logs();
    let all: Vec<u8> = logs.concat();
    let (entries, tail) = lasagna::parse_log(&all);
    assert_eq!(tail, lasagna::LogTail::Clean);
    entries
}

#[test]
fn batched_commit_is_one_rpc_and_matches_singles() {
    const N: usize = 32;

    // Single-shot: one OP_PASSWRITE RPC per record.
    let (mut single, ino_s, single_srv) = setup(7);
    let h = single.handle_for_ino(ino_s).unwrap();
    let base = single.stats();
    for i in 0..N {
        let b = Bundle::single(h, record(i));
        single.pass_write(h, 0, &[], b).unwrap();
    }
    let s = single.stats();
    let single_rpcs = s.rpcs - base.rpcs;
    let single_bytes = (s.bytes_sent + s.bytes_received) - (base.bytes_sent + base.bytes_received);

    // Batched: the same N disclosures in one transaction.
    let (mut batched, ino_b, batched_srv) = setup(7);
    let h = batched.handle_for_ino(ino_b).unwrap();
    let base = batched.stats();
    let mut txn = dpapi::Txn::new();
    for i in 0..N {
        txn.disclose(h, Bundle::single(h, record(i)));
    }
    let results = batched.pass_commit(txn).unwrap();
    assert_eq!(results.len(), N);
    let b = batched.stats();
    let batch_rpcs = b.rpcs - base.rpcs;
    let batch_bytes = (b.bytes_sent + b.bytes_received) - (base.bytes_sent + base.bytes_received);
    assert_eq!(b.batch_rpcs, 1);
    assert_eq!(b.batched_ops, N as u64);

    assert_eq!(single_rpcs, N as u64);
    assert_eq!(batch_rpcs, 1, "a transaction is one COMPOUND");
    assert!(
        single_bytes as f64 >= 1.5 * batch_bytes as f64,
        "batched disclosure must save >=1.5x wire bytes at N={N}: \
         single={single_bytes}, batched={batch_bytes}"
    );

    // Both paths leave the same provenance records on the export
    // (the batch adds its transaction markers around them).
    let recs = |entries: &[LogEntry]| -> Vec<ProvenanceRecord> {
        entries
            .iter()
            .filter_map(|e| match e {
                LogEntry::Prov { record, .. }
                    if matches!(record.attribute, Attribute::Other(_)) =>
                {
                    Some(record.clone())
                }
                _ => None,
            })
            .collect()
    };
    let from_singles = recs(&drain(&single_srv));
    let batched_entries = drain(&batched_srv);
    let from_batch = recs(&batched_entries);
    assert_eq!(from_singles, from_batch);
    assert!(
        batched_entries
            .iter()
            .any(|e| matches!(e, LogEntry::TxnBegin { .. })),
        "the batch must be bracketed by transaction markers"
    );
}

#[test]
fn server_abort_names_failing_op_and_applies_nothing() {
    let (mut client, ino, server) = setup(9);
    let h = client.handle_for_ino(ino).unwrap();
    let mut txn = dpapi::Txn::new();
    txn.write(h, 0, b"must not land".to_vec(), Bundle::new())
        .revive(Pnode::new(VolumeId(9), 424_242), Version(0));
    let err = client.pass_commit(txn).unwrap_err();
    match err {
        DpapiError::TxnAborted { failed_op, .. } => assert_eq!(failed_op, 1),
        other => panic!("expected TxnAborted, got {other:?}"),
    }
    // Atomicity: the valid write before the failing op never landed.
    assert!(client.read(ino, 0, 64).unwrap().is_empty());
    let entries = drain(&server);
    assert!(
        !entries
            .iter()
            .any(|e| matches!(e, LogEntry::DataWrite { .. })),
        "no data write may reach the log from an aborted batch"
    );
}

#[test]
fn client_abort_on_unresolvable_handle_sends_nothing() {
    let (mut client, _ino, _server) = setup(3);
    let bogus = dpapi::Handle::from_raw(555);
    let before = client.stats();
    let mut txn = dpapi::Txn::new();
    txn.mkobj(None).freeze(bogus);
    let err = client.pass_commit(txn).unwrap_err();
    assert_eq!(err, DpapiError::aborted_at(1, DpapiError::InvalidHandle));
    let after = client.stats();
    assert_eq!(before.rpcs, after.rpcs, "nothing crossed the wire");
}

#[test]
fn batched_mkobj_and_revive_roundtrip() {
    let (mut client, ino, _server) = setup(4);
    let file_h = client.handle_for_ino(ino).unwrap();
    let mut txn = dpapi::Txn::new();
    txn.mkobj(None).freeze(file_h).sync(file_h);
    let results = client.pass_commit(txn).unwrap();
    let session = results[0].as_handle().expect("mkobj handle");
    assert_eq!(results[1].as_version(), Some(Version(1)));
    // The new object is usable immediately after the commit.
    let id = client.pass_read(session, 0, 0).unwrap().identity;
    let mut txn = dpapi::Txn::new();
    txn.revive(id.pnode, id.version);
    let results = client.pass_commit(txn).unwrap();
    let revived = results[0].as_handle().expect("revive handle");
    let id2 = client.pass_read(revived, 0, 0).unwrap().identity;
    assert_eq!(id.pnode, id2.pnode);
}

/// A Lasagna export the test keeps a second reference to: the server
/// boxes its file system away, and the open-handle count is a field of
/// the concrete volume's stats.
struct SharedExport(Rc<RefCell<Lasagna>>);

impl FileSystem for SharedExport {
    fn root(&self) -> Ino {
        self.0.borrow().root()
    }
    fn lookup(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        self.0.borrow_mut().lookup(dir, name)
    }
    fn create(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        self.0.borrow_mut().create(dir, name)
    }
    fn mkdir(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        self.0.borrow_mut().mkdir(dir, name)
    }
    fn unlink(&mut self, dir: Ino, name: &str) -> FsResult<()> {
        self.0.borrow_mut().unlink(dir, name)
    }
    fn rename(&mut self, from: Ino, name: &str, to: Ino, to_name: &str) -> FsResult<()> {
        self.0.borrow_mut().rename(from, name, to, to_name)
    }
    fn read(&mut self, ino: Ino, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        self.0.borrow_mut().read(ino, offset, len)
    }
    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.0.borrow_mut().write(ino, offset, data)
    }
    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        self.0.borrow_mut().truncate(ino, size)
    }
    fn getattr(&mut self, ino: Ino) -> FsResult<FileAttr> {
        self.0.borrow_mut().getattr(ino)
    }
    fn readdir(&mut self, dir: Ino) -> FsResult<Vec<DirEntry>> {
        self.0.borrow_mut().readdir(dir)
    }
    fn sync(&mut self) -> FsResult<()> {
        self.0.borrow_mut().sync()
    }
    fn usage(&self) -> FsUsage {
        self.0.borrow().usage()
    }
    fn as_dpapi(&mut self) -> Option<&mut dyn DpapiVolume> {
        Some(self)
    }
}

impl Dpapi for SharedExport {
    fn pass_read(&mut self, h: Handle, offset: u64, len: usize) -> dpapi::Result<ReadResult> {
        self.0.borrow_mut().pass_read(h, offset, len)
    }
    fn pass_commit(&mut self, txn: dpapi::Txn) -> dpapi::Result<Vec<OpResult>> {
        self.0.borrow_mut().pass_commit(txn)
    }
    fn pass_close(&mut self, h: Handle) -> dpapi::Result<()> {
        self.0.borrow_mut().pass_close(h)
    }
}

impl DpapiVolume for SharedExport {
    fn volume(&self) -> VolumeId {
        self.0.borrow().volume()
    }
    fn handle_for_ino(&mut self, ino: Ino) -> dpapi::Result<Handle> {
        self.0.borrow_mut().handle_for_ino(ino)
    }
    fn identity_of_ino(&mut self, ino: Ino) -> dpapi::Result<ObjectRef> {
        self.0.borrow_mut().identity_of_ino(ino)
    }
}

#[test]
fn describing_one_app_object_again_opens_no_more_export_handles() {
    let (clock, model) = (Clock::new(), CostModel::default());
    let export = Lasagna::new(
        Box::new(BaseFs::new(clock.clone(), model)),
        clock.clone(),
        model,
        LasagnaConfig::new(VolumeId(6)),
    )
    .unwrap();
    let export = Rc::new(RefCell::new(export));
    let server = Rc::new(RefCell::new(pa_nfs::NfsServer::new(Box::new(
        SharedExport(export.clone()),
    ))));
    let mut client = pa_nfs::client(&server, clock, model);
    let session = client.pass_mkobj(None).unwrap();
    // Each commit names the object twice on the wire: as the target of
    // its write and as the subject of the record the write carries.
    let mut describe = |i: usize| {
        let mut txn = dpapi::Txn::new();
        txn.disclose(session, Bundle::single(session, record(i)));
        client.pass_commit(txn).unwrap();
    };
    describe(0);
    let after_one = export.borrow().stats().open_handles;
    for i in 1..=16 {
        describe(i);
    }
    assert_eq!(export.borrow().stats().open_handles, after_one);
}
