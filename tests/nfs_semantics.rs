//! PA-NFS protocol semantics across the full stack: version
//! branching between clients, orphaned-transaction garbage
//! collection, and freeze-as-record ordering (paper §6.1) — and what
//! the sluice front door buys on that wire, in RPCs and bytes.

use dpapi::{Attribute, Bundle, Dpapi, ProvenanceRecord, Value, Version, VolumeId};
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::fs::{DpapiVolume, FileSystem};

#[test]
fn two_clients_can_branch_versions() {
    // Close-to-open consistency lets two clients modify the same file
    // version concurrently; "our approach of versioning at the client
    // and updating versions at the server can lead to version
    // branching" (§6.1.2).
    let clock = Clock::new();
    let model = CostModel::default();
    let server = pa_nfs::pa_server(clock.clone(), model, VolumeId(7));
    let mut a = pa_nfs::client(&server, clock.clone(), model);
    let mut b = pa_nfs::client(&server, clock.clone(), model);

    let root = a.root();
    let ino = a.create(root, "shared").unwrap();
    // Both clients see version 0.
    let ha = a.handle_for_ino(ino).unwrap();
    let hb = b.handle_for_ino(ino).unwrap();
    assert_eq!(a.pass_read(ha, 0, 0).unwrap().identity.version, Version(0));
    assert_eq!(b.pass_read(hb, 0, 0).unwrap().identity.version, Version(0));

    // Each freezes locally: both believe they created version 1.
    let va = a.pass_freeze(ha).unwrap();
    let vb = b.pass_freeze(hb).unwrap();
    assert_eq!(va, Version(1));
    assert_eq!(vb, Version(1));

    // At the server, the two freeze records materialize as two
    // *distinct* versions — the branch resolved by arrival order.
    let sv = server
        .borrow_mut()
        .fs_mut()
        .as_dpapi()
        .unwrap()
        .identity_of_ino(ino)
        .unwrap()
        .version;
    assert_eq!(sv, Version(2), "server version reflects both freezes");
}

#[test]
fn orphaned_transaction_is_garbage_collected() {
    // A client begins a chunked provenance transaction, ships some
    // chunks, and "crashes" before the final OP_PASSWRITE. The
    // transaction id lets the server-side Waldo identify and discard
    // the orphaned provenance (§6.1.2).
    let clock = Clock::new();
    let model = CostModel::default();
    let server = pa_nfs::pa_server(clock.clone(), model, VolumeId(8));
    let mut client = pa_nfs::client(&server, clock.clone(), model);
    let root = client.root();
    let ino = client.create(root, "victim").unwrap();

    // Simulate the crash at the protocol level: BEGINTXN + PASSPROV
    // without the concluding ENDTXN.
    let resp = server.borrow_mut().handle(pa_nfs::Request::BeginTxn);
    let pa_nfs::Response::Txn(txn) = resp else {
        panic!("no txn")
    };
    server.borrow_mut().handle(pa_nfs::Request::PassProv {
        txn: Some(txn),
        records: vec![pa_nfs::WireRecord {
            subject: pa_nfs::WireObj::File(ino),
            record: ProvenanceRecord::new(Attribute::Name, Value::str("ghost-name")),
        }],
    });

    // Waldo ingests the logs: the orphaned records stay pending and
    // are discarded, never entering the database.
    let db = waldo::ProvDb::new();
    for image in server.borrow_mut().drain_provenance_logs() {
        let (entries, _) = lasagna::parse_log(&image);
        db.ingest(&entries);
    }
    assert_eq!(db.open_txns(), vec![txn]);
    assert!(db.find_by_name("ghost-name").is_empty());
    let dropped = db.discard_txn(txn);
    assert!(dropped >= 1, "orphaned records were garbage-collected");
}

#[test]
fn committed_transaction_applies_atomically() {
    let clock = Clock::new();
    let model = CostModel::default();
    let server = pa_nfs::pa_server(clock.clone(), model, VolumeId(9));
    let mut client = pa_nfs::client(&server, clock.clone(), model);
    let root = client.root();
    let ino = client.create(root, "big-bundle").unwrap();
    let h = client.handle_for_ino(ino).unwrap();

    // An oversized bundle (must chunk through a transaction).
    let mut bundle = Bundle::new();
    for i in 0..3000 {
        bundle.push(
            h,
            ProvenanceRecord::new(
                Attribute::Other("NOTE".into()),
                Value::str(format!("bulk record {i} padded to a realistic size......")),
            ),
        );
    }
    client.pass_write(h, 0, b"the data", bundle).unwrap();
    assert!(client.stats().txns >= 1, "the bundle used a transaction");

    let db = waldo::ProvDb::new();
    for image in server.borrow_mut().drain_provenance_logs() {
        let (entries, _) = lasagna::parse_log(&image);
        db.ingest(&entries);
    }
    assert!(db.open_txns().is_empty(), "transaction committed");
    // All 3000 records present on the file object.
    let id = {
        let mut s = server.borrow_mut();
        s.fs_mut().as_dpapi().unwrap().identity_of_ino(ino).unwrap()
    };
    let obj = db.object(id.pnode).expect("file in db");
    let notes = obj
        .versions
        .values()
        .flat_map(|v| v.attrs.iter())
        .filter(|(a, _)| *a == Attribute::Other("NOTE".into()))
        .count();
    assert_eq!(notes, 3000);
}

#[test]
fn freeze_record_orders_before_subsequent_write() {
    // The freeze must apply before the data write it precedes (the
    // reason freeze is a record, not an operation).
    let clock = Clock::new();
    let model = CostModel::default();
    let server = pa_nfs::pa_server(clock.clone(), model, VolumeId(10));
    let mut client = pa_nfs::client(&server, clock.clone(), model);
    let root = client.root();
    let ino = client.create(root, "f").unwrap();
    let h = client.handle_for_ino(ino).unwrap();
    let mut bundle = Bundle::new();
    bundle.push(h, ProvenanceRecord::freeze(Version(1)));
    let w = client.pass_write(h, 0, b"v1 bytes", bundle).unwrap();
    assert_eq!(
        w.identity.version,
        Version(1),
        "data written at the post-freeze version"
    );
}

#[test]
fn plain_and_pa_exports_coexist() {
    let clock = Clock::new();
    let model = CostModel::default();
    let plain = pa_nfs::plain_server(clock.clone(), model);
    let pa = pa_nfs::pa_server(clock.clone(), model, VolumeId(30));
    let mut c1 = pa_nfs::client(&plain, clock.clone(), model);
    let mut c2 = pa_nfs::client(&pa, clock.clone(), model);
    assert!(c1.as_dpapi().is_none(), "plain export has no DPAPI");
    assert!(c2.as_dpapi().is_some(), "PA export speaks DPAPI");
    // Both serve ordinary file I/O.
    for c in [&mut c1, &mut c2] {
        let root = c.root();
        let ino = c.create(root, "x").unwrap();
        c.write(ino, 0, b"data").unwrap();
        assert_eq!(c.read(ino, 0, 4).unwrap(), b"data");
    }
}

/// One PA export, one client and a file on it, plus the client's
/// counters before any disclosure: the fixture both sides of the
/// sluice gate below start from.
struct WireRig {
    server: std::rc::Rc<std::cell::RefCell<pa_nfs::NfsServer>>,
    client: pa_nfs::NfsClient,
    ino: sim_os::fs::Ino,
    base: pa_nfs::ClientStats,
}

impl WireRig {
    fn new() -> WireRig {
        let clock = Clock::new();
        let model = CostModel::default();
        let server = pa_nfs::pa_server(clock.clone(), model, VolumeId(5));
        let mut client = pa_nfs::client(&server, clock, model);
        let root = client.root();
        let ino = client.create(root, "target").unwrap();
        let base = client.stats();
        WireRig {
            server,
            client,
            ino,
            base,
        }
    }

    /// One per-event disclosure transaction — the single-record shape
    /// the pipeline amortizes across the wire.
    fn event_txn(&mut self, i: usize) -> dpapi::Txn {
        let h = self.client.handle_for_ino(self.ino).unwrap();
        let mut txn = dpapi::Txn::new();
        txn.disclose(
            h,
            Bundle::single(
                h,
                ProvenanceRecord::new(
                    Attribute::Other(format!("EVENT{}", i % 7)),
                    Value::str(format!("event payload number {i} with some length to it")),
                ),
            ),
        );
        txn
    }

    /// RPCs and wire bytes since the rig was built, and the segment
    /// images of a fresh store fed the server's drained logs — the
    /// byte-equality oracle. One group commit per log (huge
    /// `ingest_batch`), so shard generations depend only on content,
    /// not on how the front door framed the stream.
    fn finish(self) -> (u64, u64, Vec<Vec<u8>>) {
        let s = self.client.stats();
        let db = waldo::ProvDb::with_config(waldo::WaldoConfig {
            ingest_batch: 1 << 20,
            ..waldo::WaldoConfig::default()
        });
        for image in self.server.borrow_mut().drain_provenance_logs() {
            db.ingest(&lasagna::parse_log(&image).0);
        }
        (
            s.rpcs - self.base.rpcs,
            (s.bytes_sent + s.bytes_received) - (self.base.bytes_sent + self.base.bytes_received),
            db.segment_images(),
        )
    }
}

/// The sluice front door over the PA-NFS wire, counts only: 32
/// per-event disclosure transactions submitted through the pipelined
/// path at coalescing depth 8 against committing each synchronously.
/// The pipelined path must beat the synchronous one by >= 1.5x on both
/// RPC count and wire bytes, leave a byte-equal provenance store, and
/// keep its queue within the configured budget — coalescing must not
/// mean unbounded memory. (The wall-clock figure is the ledger's
/// `nfs_pipelined`.)
#[test]
fn sluice_at_depth_8_amortizes_the_wire_and_keeps_the_store_byte_equal() {
    use sluice::{BackpressurePolicy, ClientId, Sluice, SluiceConfig};
    const N: usize = 32;
    const DEPTH: usize = 8;
    const BUDGET: usize = 16;

    let mut rig = WireRig::new();
    for i in 0..N {
        let txn = rig.event_txn(i);
        rig.client.pass_commit(txn).unwrap();
    }
    let (sync_rpcs, sync_wire, sync_images) = rig.finish();

    let mut rig = WireRig::new();
    let mut pipe = Sluice::new(SluiceConfig {
        max_queued_ops: BUDGET,
        coalesce_ops: DEPTH,
        policy: BackpressurePolicy::Block,
        ..SluiceConfig::default()
    });
    let tickets: Vec<_> = (0..N)
        .map(|i| {
            let txn = rig.event_txn(i);
            pipe.submit(&mut rig.client, ClientId(1), txn).unwrap()
        })
        .collect();
    pipe.drain(&mut rig.client);
    for t in tickets {
        pipe.take(t).expect("resolved").expect("committed");
    }
    let mut reg = provscope::Registry::new();
    pipe.export_metrics("sluice.", &mut reg);
    let peak_ops = reg.gauge("sluice.queue.peak_ops");
    let (pipe_rpcs, pipe_wire, pipe_images) = rig.finish();

    assert_eq!(
        sync_images, pipe_images,
        "pipelined store must be byte-equal to the synchronous store"
    );
    assert!(
        (1..=BUDGET as u64).contains(&peak_ops),
        "queue memory must stay within the configured budget: \
         peak {peak_ops} ops vs budget {BUDGET}"
    );
    assert!(
        sync_rpcs as f64 >= 1.5 * pipe_rpcs as f64,
        "pipelining at depth {DEPTH} must amortize >= 1.5x on RPC count: \
         {sync_rpcs} vs {pipe_rpcs}"
    );
    assert!(
        sync_wire as f64 >= 1.5 * pipe_wire as f64,
        "pipelining at depth {DEPTH} must amortize >= 1.5x on wire bytes: \
         {sync_wire} vs {pipe_wire}"
    );
}
