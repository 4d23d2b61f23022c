//! The cluster fan-in tier at the store level: merge semantics,
//! volume→member routing stability, batch-id alias freedom, and the
//! counter roll-ups the tier aggregates with.
//!
//! The central invariant (ProvMark's oracle, arXiv:1909.11187): a
//! scaled-out collector must record *the same graph* as the
//! single-node reference. Here that is `Store::merge` of per-volume
//! stores being byte-equivalent — under `Store::segment_images`'s
//! canonical encoding — to one store that ingested every volume
//! itself. The end-to-end version (real daemons, real logs) lives in
//! `core/tests/cluster.rs`.

use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
use lasagna::LogEntry;
use proptest::prelude::*;
use waldo::cluster::route_volume;
use waldo::{IngestStats, MergeError, QueryOps, Store, WaldoConfig};

fn r(volume: u32, n: u64, v: u32) -> ObjectRef {
    ObjectRef::new(Pnode::new(VolumeId(volume), n), Version(v))
}

fn prov(subject: ObjectRef, attr: Attribute, value: Value) -> LogEntry {
    LogEntry::Prov {
        subject,
        record: ProvenanceRecord::new(attr, value),
    }
}

/// A deterministic per-volume stream: named, typed files with
/// in-volume ancestry, an application attribute, data writes — and a
/// cross-volume reference into volume 1, so reverse edges land in a
/// *foreign* member's store.
fn volume_stream(volume: u32, files: u64) -> Vec<LogEntry> {
    let mut out = Vec::new();
    for i in 1..=files {
        let s = r(volume, i, 0);
        out.push(prov(
            s,
            Attribute::Name,
            Value::str(format!("/v{volume}/f{i}")),
        ));
        out.push(prov(s, Attribute::Type, Value::str("FILE")));
        out.push(prov(
            s,
            Attribute::Other("PHASE".into()),
            Value::str(if i % 2 == 0 { "align" } else { "scan" }),
        ));
        if i > 1 {
            out.push(prov(s, Attribute::Input, Value::Xref(r(volume, i - 1, 0))));
        }
        // Cross-volume ancestry: every volume's even files depend on
        // volume 1's first file.
        if volume != 1 && i % 2 == 0 {
            out.push(prov(s, Attribute::Input, Value::Xref(r(1, 1, 0))));
        }
        out.push(LogEntry::DataWrite {
            subject: s,
            offset: 0,
            len: 256 + (i as u32 % 512),
            digest: [3u8; 16],
        });
    }
    out
}

fn cfg() -> WaldoConfig {
    WaldoConfig {
        shards: 8,
        ingest_batch: 16,
        ancestry_cache: 64,
        ..WaldoConfig::default()
    }
}

/// Per-volume stores merged in any member order are byte-equivalent
/// to the single store that ingested every volume — the differential
/// oracle the whole tier rests on.
#[test]
fn merge_of_per_volume_stores_matches_single_store() {
    let volumes: Vec<u32> = vec![1, 2, 3, 4];
    // The single-node reference ingests volumes in sequence.
    let mut single = Store::with_config(cfg());
    for &v in &volumes {
        single.ingest(&volume_stream(v, 12));
    }
    // Per-volume member stores.
    let members: Vec<Store> = volumes
        .iter()
        .map(|&v| {
            let mut s = Store::with_config(cfg());
            s.ingest(&volume_stream(v, 12));
            s
        })
        .collect();
    // Merge forward and in reverse member order: both must equal the
    // reference (the canonical images erase arrival order).
    for order in [[0usize, 1, 2, 3], [3, 2, 1, 0]] {
        let mut merged = Store::with_config(cfg());
        for &i in &order {
            merged.merge(&members[i]).unwrap();
        }
        assert_eq!(merged.segment_images(), single.segment_images());
        assert_eq!(merged.object_count(), single.object_count());
        assert_eq!(merged.size(), single.size());
    }
}

/// Merged stores answer queries identically to the reference,
/// including descendant traversals that cross member boundaries
/// through scattered reverse edges.
#[test]
fn merged_store_answers_cross_volume_queries() {
    let mut single = Store::with_config(cfg());
    let mut merged = Store::with_config(cfg());
    for v in [1u32, 2, 3] {
        let stream = volume_stream(v, 8);
        single.ingest(&stream);
        let mut member = Store::with_config(cfg());
        member.ingest(&stream);
        merged.merge(&member).unwrap();
    }
    // Descendants of volume 1's first file span every volume.
    let desc_merged = merged.descendants(Pnode::new(VolumeId(1), 1));
    let desc_single = single.descendants(Pnode::new(VolumeId(1), 1));
    assert_eq!(desc_merged, desc_single);
    assert!(desc_merged.iter().any(|n| n.pnode.volume == VolumeId(2)));
    assert!(desc_merged.iter().any(|n| n.pnode.volume == VolumeId(3)));
    // Ancestors of a cross-referencing file reach back into volume 1.
    let anc_merged = merged.ancestors(r(3, 8, 0));
    assert_eq!(anc_merged, single.ancestors(r(3, 8, 0)));
    assert!(anc_merged.contains(&r(1, 1, 0)));
    // Index lookups agree.
    assert_eq!(
        merged.find_by_attr("PHASE", "align"),
        single.find_by_attr("PHASE", "align")
    );
    assert_eq!(
        merged.find_by_name_prefix("/v2/"),
        single.find_by_name_prefix("/v2/")
    );
}

/// Open (unterminated) transactions merge by id; the volume-salted id
/// space guarantees members never collide.
#[test]
fn merge_unions_open_transactions() {
    // Each member saw a transaction open in one log image whose end
    // never arrived; the next image started (stream reset), so the
    // member is no longer *mid-commit* — the buffered records simply
    // wait for a later TxnEnd.
    let close_scope = |s: &mut Store| {
        s.begin_stream();
        let mut stats = IngestStats::default();
        s.commit_staged(&mut stats);
    };
    let mut a = Store::with_config(cfg());
    a.ingest(&[
        LogEntry::TxnBegin {
            id: lasagna::batch_txn_id(VolumeId(1), 7),
        },
        prov(r(1, 1, 0), Attribute::Name, Value::str("/a")),
    ]);
    close_scope(&mut a);
    let mut b = Store::with_config(cfg());
    b.ingest(&[
        LogEntry::TxnBegin {
            id: lasagna::batch_txn_id(VolumeId(2), 7),
        },
        prov(r(2, 1, 0), Attribute::Name, Value::str("/b")),
    ]);
    close_scope(&mut b);
    let mut merged = Store::with_config(cfg());
    merged.merge(&a).unwrap();
    merged.merge(&b).unwrap();
    assert_eq!(merged.open_txns().len(), 2);
    // Completing one transaction applies exactly its buffered records.
    let stats = merged.ingest(&[LogEntry::TxnEnd {
        id: lasagna::batch_txn_id(VolumeId(1), 7),
    }]);
    assert_eq!(stats.txns_committed, 1);
    assert_eq!(merged.find_by_name("/a").len(), 1);
    assert!(merged.find_by_name("/b").is_empty());
}

/// Two stores both *mid-commit* (an open transaction at the very end
/// of each committed stream) cannot merge: only one open-commit
/// marker can survive, and dropping the other would interleave its
/// untagged continuation records into the wrong transaction later.
/// The rejection is a typed error — and the failed merge leaves the
/// target untouched, so a caller can classify and continue.
#[test]
fn merge_rejects_two_mid_commit_streams() {
    let mut a = Store::with_config(cfg());
    a.ingest(&[LogEntry::TxnBegin {
        id: lasagna::batch_txn_id(VolumeId(1), 1),
    }]);
    let mut b = Store::with_config(cfg());
    b.ingest(&[LogEntry::TxnBegin {
        id: lasagna::batch_txn_id(VolumeId(2), 1),
    }]);
    let mut merged = Store::with_config(cfg());
    merged.merge(&a).unwrap();
    let before = merged.segment_images();
    match merged.merge(&b) {
        Err(MergeError::BothMidCommit { ours, theirs }) => {
            assert_eq!(ours, lasagna::batch_txn_id(VolumeId(1), 1));
            assert_eq!(theirs, lasagna::batch_txn_id(VolumeId(2), 1));
        }
        other => panic!("expected BothMidCommit, got {other:?}"),
    }
    assert_eq!(
        merged.segment_images(),
        before,
        "a rejected merge must not mutate the target"
    );
}

/// Shard-count mismatches are a routing disagreement, not a merge.
#[test]
fn merge_rejects_mismatched_shard_counts() {
    let mut a = Store::with_config(WaldoConfig { shards: 4, ..cfg() });
    let b = Store::with_config(WaldoConfig {
        shards: 16,
        ..cfg()
    });
    assert_eq!(
        a.merge(&b),
        Err(MergeError::ShardCountMismatch {
            ours: 4,
            theirs: 16
        })
    );
}

/// An open transaction with the *same* volume-salted id on both sides
/// (only possible with a forged or replayed id — the legitimate id
/// space is alias-free) is a typed collision, not a panic.
#[test]
fn merge_rejects_forged_txn_id_collision() {
    let forged = lasagna::batch_txn_id(VolumeId(1), 5);
    let open_with = |id: u64| {
        let mut s = Store::with_config(cfg());
        s.ingest(&[
            LogEntry::TxnBegin { id },
            prov(r(1, 1, 0), Attribute::Name, Value::str("/x")),
        ]);
        s.begin_stream();
        let mut stats = IngestStats::default();
        s.commit_staged(&mut stats);
        s
    };
    let mut merged = Store::with_config(cfg());
    merged.merge(&open_with(forged)).unwrap();
    assert_eq!(
        merged.merge(&open_with(forged)),
        Err(MergeError::TxnIdCollision { id: forged })
    );
}

/// `segment_images` is the byte-equivalence oracle: images come back
/// sorted by shard id (image `i` decodes as shard `i`'s canonical
/// encoding), so two equal stores compare image-for-image.
#[test]
fn segment_images_are_ordered_by_shard_id() {
    let mut s = Store::with_config(cfg());
    s.ingest(&volume_stream(1, 16));
    let images = s.segment_images();
    assert_eq!(images.len(), s.shard_count());
    // Each image round-trips through the store restored from exactly
    // that image set; a second encoding is bit-identical (canonical).
    assert_eq!(images, s.segment_images());
    // The header's shard index (bytes 6..10, little-endian, after the
    // 4-byte magic and u16 version) matches the position.
    for (i, img) in images.iter().enumerate() {
        let idx = u32::from_le_bytes(img[6..10].try_into().unwrap());
        assert_eq!(idx as usize, i, "image {i} must carry shard id {i}");
    }
}

/// The counter roll-ups aggregate by `+=`/`sum` exactly as the
/// hand-written field adds they replace.
#[test]
fn stats_roll_up_with_add_assign_and_sum() {
    let a = IngestStats {
        applied: 3,
        pending: 1,
        txns_committed: 2,
        group_commits: 4,
        checkpoints: 1,
        replayed_batches: 1,
        tails_truncated: 1,
        tails_corrupt: 0,
    };
    let b = IngestStats {
        applied: 10,
        pending: 0,
        txns_committed: 1,
        group_commits: 2,
        checkpoints: 0,
        replayed_batches: 0,
        tails_truncated: 0,
        tails_corrupt: 2,
    };
    let total: IngestStats = [a, b].into_iter().sum();
    assert_eq!(total.applied, 13);
    assert_eq!(total.pending, 1);
    assert_eq!(total.txns_committed, 3);
    assert_eq!(total.group_commits, 6);
    assert_eq!(total.checkpoints, 1);
    assert_eq!(total.replayed_batches, 1);
    assert_eq!(total.tails_truncated, 1);
    assert_eq!(total.tails_corrupt, 2);
    let mut acc = a;
    acc += b;
    assert_eq!(acc, total);

    let q1 = QueryOps {
        queries: 2,
        planner: pql::PlanStats {
            index_hits: 5,
            ..pql::PlanStats::default()
        },
    };
    let q2 = QueryOps {
        queries: 1,
        planner: pql::PlanStats {
            index_hits: 1,
            naive_fallbacks: 1,
            ..pql::PlanStats::default()
        },
    };
    let q: QueryOps = [q1, q2].into_iter().sum();
    assert_eq!(q.queries, 3);
    assert_eq!(q.planner.index_hits, 6);
    assert_eq!(q.planner.naive_fallbacks, 1);
}

proptest! {
    /// Volume→member routing is a pure function of `(volume,
    /// members)`: the same volume always routes to the same member,
    /// and every route is in range.
    #[test]
    fn volume_routing_is_stable_and_in_range(
        vol in 1u32..u32::MAX,
        members in 1usize..16,
    ) {
        let first = route_volume(VolumeId(vol), members);
        prop_assert!(first < members);
        for _ in 0..3 {
            prop_assert_eq!(route_volume(VolumeId(vol), members), first);
        }
    }

    /// The volume-salted batch-id space is alias-free: two distinct
    /// volumes can never produce the same disclosure-batch id, at any
    /// pair of sequence numbers — which is why member stores merge
    /// without transaction-id renumbering.
    #[test]
    fn batch_ids_never_collide_across_volumes(
        v1 in 1u32..u32::MAX,
        v2 in 1u32..u32::MAX,
        s1 in 0u64..(1 << 28),
        s2 in 0u64..(1 << 28),
    ) {
        if v1 == v2 { return Ok(()); }
        prop_assert!(
            lasagna::batch_txn_id(VolumeId(v1), s1)
                != lasagna::batch_txn_id(VolumeId(v2), s2)
        );
    }

    /// Within one volume, distinct sequence numbers yield distinct
    /// ids (no wrap inside the sequence space).
    #[test]
    fn batch_ids_are_unique_within_a_volume(
        vol in 1u32..u32::MAX,
        s1 in 0u64..(1 << 28),
        s2 in 0u64..(1 << 28),
    ) {
        if s1 == s2 { return Ok(()); }
        prop_assert!(
            lasagna::batch_txn_id(VolumeId(vol), s1)
                != lasagna::batch_txn_id(VolumeId(vol), s2)
        );
    }
}
