//! Property tests for volume-salted batch replay detection.
//!
//! A `KIND_GROUP` frame carries a batch transaction id salted with
//! its volume and sequence (`lasagna::batch_txn_id`). The store keeps
//! a per-volume committed high-water mark (persisted in checkpoint
//! manifests since format v3), so a group whose id was already
//! committed — a literal replay of the frame bytes, or a forgery
//! reusing the id — is skipped *wholesale*, exactly once per
//! duplicate, without disturbing a single byte of the database. The
//! properties here drive that contract through both faces of the
//! engine: the pure store, and a durable daemon crashed and
//! cold-restarted between the commit and the replay.

use bytes::BytesMut;
use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
use lasagna::{batch_txn_id, encode_entry, encode_group, parse_log, LogEntry, LogTail};
use proptest::prelude::*;
use waldo::{Store, Waldo, WaldoConfig};

fn p(volume: u32, n: u64) -> Pnode {
    Pnode::new(VolumeId(volume), n)
}

fn prov(subject: ObjectRef, attr: Attribute, value: Value) -> LogEntry {
    LogEntry::Prov {
        subject,
        record: ProvenanceRecord::new(attr, value),
    }
}

/// A batch member: plain provenance or data writes, never nested
/// transaction markers (groups do not nest).
fn arb_member(volume: u32) -> impl Strategy<Value = LogEntry> {
    let subject =
        (1u64..64, 0u32..3).prop_map(move |(n, v)| ObjectRef::new(p(volume, n), Version(v)));
    prop_oneof![
        (subject.clone(), "[a-z]{1,8}").prop_map(|(s, name)| prov(
            s,
            Attribute::Name,
            Value::Str(format!("/{name}"))
        )),
        (subject.clone(), 0u32..3).prop_map(|(s, t)| {
            let ty = ["FILE", "PROC", "PIPE"][t as usize];
            prov(s, Attribute::Type, Value::str(ty))
        }),
        (subject.clone(), 1u64..64).prop_map(move |(s, n)| prov(
            s,
            Attribute::Input,
            Value::Xref(ObjectRef::new(p(volume, n), Version(0))),
        )),
        (subject, 0u64..4096, 1u32..4096).prop_map(|(s, off, len)| LogEntry::DataWrite {
            subject: s,
            offset: off,
            len,
            digest: [3u8; 16],
        }),
    ]
}

/// Wraps `members` as a committed batch of (`volume`, `seq`).
fn batch(volume: u32, seq: u64, members: &[LogEntry]) -> Vec<LogEntry> {
    let id = batch_txn_id(VolumeId(volume), seq);
    let mut out = vec![LogEntry::TxnBegin { id }];
    out.extend_from_slice(members);
    out.push(LogEntry::TxnEnd { id });
    out
}

fn small_store(shards: usize, ingest_batch: usize) -> Store {
    Store::with_config(WaldoConfig {
        shards,
        ingest_batch,
        ancestry_cache: 0,
        ..WaldoConfig::default()
    })
}

proptest! {
    /// Replaying a committed group — any number of times, at any
    /// batch granularity — bumps the replay counter once per
    /// duplicate and leaves the database byte-equal to a single
    /// ingest. A later batch with a *fresh* sequence still applies.
    #[test]
    fn duplicated_groups_are_skipped_exactly(
        volume in 1u32..8,
        members1 in proptest::collection::vec(arb_member(2), 1..8),
        members2 in proptest::collection::vec(arb_member(2), 1..8),
        dups in 1usize..4,
        ingest_batch in 1usize..16,
        shards in 1usize..8,
    ) {
        let group1 = batch(volume, 1, &members1);
        let group2 = batch(volume, 2, &members2);

        let mut reference = small_store(shards, ingest_batch);
        reference.ingest(&group1);
        reference.ingest(&group2);
        prop_assert_eq!(reference.replayed_batches(), 0);

        // The tampered stream: group1, then `dups` byte-identical
        // replays of it, then the legitimate follow-up batch.
        let mut tampered = small_store(shards, ingest_batch);
        tampered.ingest(&group1);
        for _ in 0..dups {
            let stats = tampered.ingest(&group1);
            prop_assert_eq!(stats.replayed_batches, 1);
            prop_assert_eq!(stats.applied, 0);
        }
        tampered.ingest(&group2);

        prop_assert_eq!(tampered.replayed_batches(), dups as u64);
        prop_assert_eq!(tampered.segment_images(), reference.segment_images());
    }

    /// The satellite contract end to end: a durable daemon commits a
    /// group and checkpoints; the machine crashes; the restarted
    /// daemon is fed a log whose tail repeats that last committed
    /// group. The repeat is skipped — the high-water mark survived
    /// the manifest round-trip — and ingestion stays exactly-once,
    /// byte-equal to a crash-free reference.
    #[test]
    fn replayed_tail_is_skipped_across_restart(
        volume in 1u32..6,
        members1 in proptest::collection::vec(arb_member(3), 1..6),
        members2 in proptest::collection::vec(arb_member(3), 1..6),
        prefix in proptest::collection::vec(arb_member(3), 0..4),
        ingest_batch in 1usize..8,
    ) {
        let group1 = batch(volume, 1, &members1);
        let group2 = batch(volume, 2, &members2);
        let cfg = WaldoConfig {
            shards: 4,
            ingest_batch,
            ancestry_cache: 0,
            checkpoint_commits: 0,
            checkpoint_wal_bytes: 0,
            keep_checkpoints: 2,
        };

        let mut reference = small_store(4, ingest_batch);
        reference.ingest(&prefix);
        reference.ingest(&group1);
        reference.ingest(&group2);

        let mut sys = passv2::System::single_volume();
        let agent = sys.kernel.spawn_init("writer");
        sys.pass.exempt(agent);

        // First epoch: plain prefix plus the committed group.
        let mut log_a = BytesMut::new();
        for e in &prefix {
            encode_entry(&mut log_a, e).unwrap();
        }
        encode_group(&mut log_a, &group1).unwrap();
        sys.kernel.write_file(agent, "/epoch.a", &log_a).unwrap();

        let waldo_pid = sys.kernel.spawn_init("waldo");
        sys.pass.exempt(waldo_pid);
        let mut daemon = Waldo::with_config(waldo_pid, cfg);
        daemon.attach_db_dir(&mut sys.kernel, "/waldo-db").unwrap();
        let stats = daemon.ingest_log_file(&mut sys.kernel, "/epoch.a");
        prop_assert_eq!(stats.replayed_batches, 0);
        daemon.checkpoint(&mut sys.kernel).unwrap();
        drop(daemon); // machine crash: memory gone, disks survive

        // Second epoch, written post-crash: the log's *tail repeats
        // the last committed group* before the legitimate next batch.
        let mut log_b = BytesMut::new();
        encode_group(&mut log_b, &group1).unwrap();
        encode_group(&mut log_b, &group2).unwrap();
        prop_assert_eq!(parse_log(&log_b).1, LogTail::Clean);
        sys.kernel.write_file(agent, "/epoch.b", &log_b).unwrap();

        let pid = sys.kernel.spawn_init("waldo-restarted");
        sys.pass.exempt(pid);
        let mut restarted =
            Waldo::restart(pid, &mut sys.kernel, cfg, "/waldo-db", &[]).unwrap();
        prop_assert_eq!(restarted.db.replayed_batches(), 0);
        let stats = restarted.ingest_log_file(&mut sys.kernel, "/epoch.b");
        prop_assert_eq!(stats.replayed_batches, 1);
        prop_assert_eq!(restarted.db.replayed_batches(), 1);
        prop_assert_eq!(restarted.db.segment_images(), reference.segment_images());
    }
}
