//! Core storage types of the provenance database.
//!
//! The store is an OEM-style object database: objects (pnodes) carry
//! per-version attribute lists and ancestry edges, plus secondary
//! indexes by name, by type and by ancestor (the reverse edge index
//! that makes descendant queries — "find everything tainted by this
//! file" — cheap).
//!
//! The engine itself lives in two layers: the `shard` module owns one
//! hash partition's object table and indexes, and
//! [`crate::store::Store`] is the facade that routes, batches and
//! caches across shards. This module keeps the value types they
//! share: [`ObjectEntry`] and [`VersionEntry`] are the *owned* view of
//! one object that [`Store::object`] materializes out of a shard's
//! dense rows. `ProvDb`, the name the rest of the workspace uses, is
//! the sharded store.

use std::collections::BTreeMap;

use dpapi::{Attribute, ObjectRef, Value, Version};

pub use crate::store::{Store, WaldoConfig};

/// The provenance database. Historically a single map; now the
/// sharded, batched [`Store`].
pub type ProvDb = Store;

/// One version of one object.
#[derive(Clone, Debug, Default)]
pub struct VersionEntry {
    /// Scalar attributes recorded at this version.
    pub attrs: Vec<(Attribute, Value)>,
    /// Ancestry edges: this version depends on those objects.
    pub inputs: Vec<(Attribute, ObjectRef)>,
    /// Number of data writes logged at this version.
    pub writes: u64,
    /// Bytes of data written at this version.
    pub bytes_written: u64,
}

/// One object (pnode) across all its versions, copied out of the
/// store.
#[derive(Clone, Debug, Default)]
pub struct ObjectEntry {
    /// Version-indexed state.
    pub versions: BTreeMap<u32, VersionEntry>,
    /// Highest version seen.
    pub current: u32,
}

impl ObjectEntry {
    /// Attributes of a version (empty slice if unknown).
    pub fn attrs(&self, v: Version) -> &[(Attribute, Value)] {
        self.versions
            .get(&v.0)
            .map(|e| e.attrs.as_slice())
            .unwrap_or(&[])
    }

    /// Ancestry edges of a version.
    pub fn inputs(&self, v: Version) -> &[(Attribute, ObjectRef)] {
        self.versions
            .get(&v.0)
            .map(|e| e.inputs.as_slice())
            .unwrap_or(&[])
    }

    /// The first value of `attr` across all versions (names and types
    /// are version-independent in practice).
    pub fn first_attr(&self, attr: &Attribute) -> Option<&Value> {
        self.versions
            .values()
            .flat_map(|v| v.attrs.iter())
            .find(|(a, _)| a == attr)
            .map(|(_, v)| v)
    }
}

/// Approximate on-disk footprint of the store, for Table 3.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DbSize {
    /// Bytes of record data (the "provenance database" column).
    pub db_bytes: u64,
    /// Bytes of secondary indexes (the "+Indexes" delta).
    pub index_bytes: u64,
}

/// Statistics for one ingest batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Entries applied to the store.
    pub applied: usize,
    /// Entries buffered inside still-open transactions.
    pub pending: usize,
    /// Transactions committed.
    pub txns_committed: usize,
    /// Group commits that processed at least one entry (including
    /// commits that only buffered transaction members).
    pub group_commits: usize,
    /// Checkpoints published while draining (daemon ingest only —
    /// requires an attached database directory and a firing policy;
    /// see [`WaldoConfig::checkpoint_commits`]).
    pub checkpoints: usize,
    /// Disclosure batches recognized as replays of already-committed
    /// group frames (per-volume high-water check) and skipped
    /// wholesale instead of applied twice.
    pub replayed_batches: usize,
    /// Log images whose tail parsed as cleanly truncated (a torn
    /// final frame — the write-ahead crash shape).
    pub tails_truncated: usize,
    /// Log images whose tail failed its CRC — bit-level corruption,
    /// never a legitimate crash artifact.
    pub tails_corrupt: usize,
}

impl std::ops::AddAssign for IngestStats {
    /// Folds another batch's counters into these — the roll-up the
    /// cluster fan-in and the bench rig use to aggregate per-member
    /// (or per-log) stats without hand-written field adds.
    fn add_assign(&mut self, other: IngestStats) {
        self.applied += other.applied;
        self.pending += other.pending;
        self.txns_committed += other.txns_committed;
        self.group_commits += other.group_commits;
        self.checkpoints += other.checkpoints;
        self.replayed_batches += other.replayed_batches;
        self.tails_truncated += other.tails_truncated;
        self.tails_corrupt += other.tails_corrupt;
    }
}

impl std::iter::Sum for IngestStats {
    fn sum<I: Iterator<Item = IngestStats>>(iter: I) -> IngestStats {
        iter.fold(IngestStats::default(), |mut acc, s| {
            acc += s;
            acc
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpapi::{Pnode, ProvenanceRecord, VolumeId};
    use lasagna::LogEntry;
    use pql::{EdgeLabel, GraphSource};

    fn p(n: u64) -> Pnode {
        Pnode::new(VolumeId(1), n)
    }

    fn r(n: u64, v: u32) -> ObjectRef {
        ObjectRef::new(p(n), Version(v))
    }

    fn prov(subject: ObjectRef, attr: Attribute, value: Value) -> LogEntry {
        LogEntry::Prov {
            subject,
            record: ProvenanceRecord::new(attr, value),
        }
    }

    #[test]
    fn name_and_type_indexes() {
        let mut db = ProvDb::new();
        db.ingest(&[
            prov(r(1, 0), Attribute::Name, Value::str("/data/out.gif")),
            prov(r(1, 0), Attribute::Type, Value::str("FILE")),
            prov(r(2, 0), Attribute::Type, Value::str("PROC")),
        ]);
        assert_eq!(db.find_by_name("/data/out.gif"), vec![p(1)]);
        assert_eq!(db.find_by_type("PROC"), vec![p(2)]);
        assert!(db.find_by_name("missing").is_empty());
    }

    #[test]
    fn ancestry_and_reverse_index() {
        let mut db = ProvDb::new();
        // file(1) <- proc(2) <- file(3): 1 depends on 2 depends on 3.
        db.ingest(&[
            prov(r(1, 0), Attribute::Input, Value::Xref(r(2, 0))),
            prov(r(2, 0), Attribute::Input, Value::Xref(r(3, 0))),
        ]);
        let anc = db.ancestors(r(1, 0));
        assert!(anc.contains(&r(2, 0)));
        assert!(anc.contains(&r(3, 0)));
        let desc = db.descendants(p(3));
        assert!(desc.contains(&r(2, 0)));
        assert!(desc.contains(&r(1, 0)));
    }

    #[test]
    fn freeze_creates_version_and_implicit_edges() {
        let mut db = ProvDb::new();
        db.ingest(&[
            prov(r(1, 0), Attribute::Input, Value::Xref(r(2, 0))),
            prov(r(1, 0), Attribute::Freeze, Value::Int(1)),
            prov(r(1, 1), Attribute::Input, Value::Xref(r(4, 0))),
        ]);
        // v1 depends on v0 implicitly, and on 4 explicitly.
        let inputs = db.inputs_of(r(1, 1));
        assert!(inputs.iter().any(|(_, a)| *a == r(4, 0)));
        assert!(inputs.iter().any(|(_, a)| *a == r(1, 0)));
        // Ancestors of v1 include everything v0 depended on.
        let anc = db.ancestors(r(1, 1));
        assert!(anc.contains(&r(2, 0)));
        // And v1 is a descendant of pnode 2 (via v0).
        assert!(db.descendants(p(2)).contains(&r(1, 1)));
    }

    #[test]
    fn version_specific_reverse_lookups() {
        let mut db = ProvDb::new();
        db.ingest(&[prov(r(1, 0), Attribute::Input, Value::Xref(r(2, 3)))]);
        // Outputs of 2@3 include 1@0; outputs of 2@1 do not.
        assert_eq!(db.outputs_of(r(2, 3)).len(), 1);
        assert!(db.outputs_of(r(2, 1)).is_empty());
    }

    #[test]
    fn transactions_buffer_until_end() {
        let mut db = ProvDb::new();
        let stats = db.ingest(&[
            LogEntry::TxnBegin { id: 9 },
            prov(r(1, 0), Attribute::Name, Value::str("x")),
        ]);
        assert_eq!(stats.applied, 0);
        assert_eq!(stats.pending, 1);
        assert!(db.find_by_name("x").is_empty());
        assert_eq!(db.open_txns(), vec![9]);
        // The end can arrive in a later log image.
        let stats = db.ingest(&[LogEntry::TxnEnd { id: 9 }]);
        assert_eq!(stats.applied, 1);
        assert_eq!(stats.txns_committed, 1);
        assert_eq!(db.find_by_name("x"), vec![p(1)]);
        assert!(db.open_txns().is_empty());
    }

    #[test]
    fn orphaned_txns_can_be_discarded() {
        let mut db = ProvDb::new();
        db.ingest(&[
            LogEntry::TxnBegin { id: 5 },
            prov(r(1, 0), Attribute::Name, Value::str("ghost")),
        ]);
        assert_eq!(db.discard_txn(5), 1);
        assert!(db.find_by_name("ghost").is_empty());
        assert_eq!(db.discard_txn(5), 0);
    }

    #[test]
    fn size_grows_with_ingestion() {
        let mut db = ProvDb::new();
        let before = db.size();
        db.ingest(&[
            prov(
                r(1, 0),
                Attribute::Name,
                Value::str("/a/long/path/name.dat"),
            ),
            prov(r(1, 0), Attribute::Input, Value::Xref(r(2, 0))),
        ]);
        let after = db.size();
        assert!(after.db_bytes > before.db_bytes);
        assert!(after.index_bytes > before.index_bytes);
    }

    #[test]
    fn data_writes_accumulate_per_version() {
        let mut db = ProvDb::new();
        db.ingest(&[
            LogEntry::DataWrite {
                subject: r(1, 0),
                offset: 0,
                len: 100,
                digest: [0u8; 16],
            },
            LogEntry::DataWrite {
                subject: r(1, 0),
                offset: 100,
                len: 50,
                digest: [0u8; 16],
            },
        ]);
        let obj = db.object(p(1)).unwrap();
        let v = obj.versions.get(&0).unwrap();
        assert_eq!(v.writes, 2);
        assert_eq!(v.bytes_written, 150);
    }

    #[test]
    fn first_attr_spans_versions() {
        let mut db = ProvDb::new();
        db.ingest(&[
            prov(r(1, 0), Attribute::Freeze, Value::Int(1)),
            prov(r(1, 1), Attribute::Name, Value::str("late-name")),
        ]);
        let obj = db.object(p(1)).unwrap();
        assert_eq!(
            obj.first_attr(&Attribute::Name),
            Some(&Value::str("late-name"))
        );
    }

    // ---- sharded-store semantics -----------------------------------------

    /// The same stream ingested at any batch granularity, with any
    /// shard count, produces an identical database.
    #[test]
    fn batching_and_sharding_do_not_change_results() {
        let entries: Vec<LogEntry> = (0..40u64)
            .flat_map(|i| {
                vec![
                    prov(r(i, 0), Attribute::Name, Value::str(format!("/f{i}"))),
                    prov(r(i, 0), Attribute::Type, Value::str("FILE")),
                    prov(r(i, 0), Attribute::Input, Value::Xref(r(i / 2, 0))),
                ]
            })
            .collect();
        // The original engine: one shard, one commit per record, no
        // query cache.
        let mut reference = ProvDb::with_config(WaldoConfig {
            shards: 1,
            ingest_batch: 1,
            ancestry_cache: 0,
            ..WaldoConfig::default()
        });
        for e in &entries {
            reference.ingest(std::slice::from_ref(e));
        }
        for shards in [1, 4, 64] {
            let mut db = ProvDb::with_config(WaldoConfig {
                shards,
                ingest_batch: 7,
                ancestry_cache: 16,
                ..WaldoConfig::default()
            });
            db.ingest(&entries);
            assert_eq!(db.object_count(), reference.object_count());
            assert_eq!(db.size(), reference.size());
            for i in 0..40u64 {
                assert_eq!(
                    db.find_by_name(&format!("/f{i}")),
                    reference.find_by_name(&format!("/f{i}")),
                );
                assert_eq!(db.ancestors(r(i, 0)), reference.ancestors(r(i, 0)));
                assert_eq!(db.descendants(p(i)), reference.descendants(p(i)));
            }
            assert_eq!(db.find_by_type("FILE"), reference.find_by_type("FILE"));
        }
    }

    /// A forward `closure`: the ancestry of `r`, as PQL's `input*`
    /// over every edge label asks for it.
    fn ancestry(db: &ProvDb, r: ObjectRef) -> Vec<ObjectRef> {
        db.closure(r, &EdgeLabel::Any, false)
    }

    /// An inverse `closure`: what descends from `r`.
    fn descent(db: &ProvDb, r: ObjectRef) -> Vec<ObjectRef> {
        db.closure(r, &EdgeLabel::Any, true)
    }

    /// Repeated closures hit the cache; ingest that changes a pnode
    /// the cached closure holds invalidates it.
    #[test]
    fn ancestry_cache_hits_and_per_shard_invalidation() {
        let mut db = ProvDb::with_config(WaldoConfig {
            shards: 8,
            ingest_batch: 64,
            ancestry_cache: 128,
            ..WaldoConfig::default()
        });
        db.ingest(&[
            prov(r(1, 0), Attribute::Input, Value::Xref(r(2, 0))),
            prov(r(2, 0), Attribute::Input, Value::Xref(r(3, 0))),
        ]);
        let first = ancestry(&db, r(1, 0));
        let again = ancestry(&db, r(1, 0));
        assert_eq!(first, again);
        let stats = db.closure_cache_stats();
        assert_eq!(stats.hits, 1, "second traversal must be a cache hit");
        assert_eq!(stats.misses, 1);

        // Extend the chain: 3 now depends on 4. The cached closure
        // of 1@0 holds 3, so it must be recomputed.
        db.ingest(&[prov(r(3, 0), Attribute::Input, Value::Xref(r(4, 0)))]);
        let extended = ancestry(&db, r(1, 0));
        assert!(extended.contains(&r(4, 0)), "stale cache entry served");
        assert!(db.closure_cache_stats().invalidated >= 1);
    }

    /// A closure over pnodes an ingest did not change stays cached,
    /// even when the ingest lands on the same shard.
    #[test]
    fn unrelated_ingest_keeps_cache_entries() {
        let mut db = ProvDb::with_config(WaldoConfig {
            shards: 1,
            ingest_batch: 64,
            ancestry_cache: 128,
            ..WaldoConfig::default()
        });
        db.ingest(&[prov(r(1, 0), Attribute::Input, Value::Xref(r(2, 0)))]);
        let _ = ancestry(&db, r(1, 0));
        db.ingest(&[
            prov(r(10, 0), Attribute::Name, Value::str("/unrelated")),
            prov(r(10, 0), Attribute::Input, Value::Xref(r(11, 0))),
        ]);
        let _ = ancestry(&db, r(1, 0));
        let stats = db.closure_cache_stats();
        assert_eq!(stats.hits, 1, "unrelated ingest must not invalidate");
        assert_eq!(stats.invalidated, 0);
    }

    /// A pnode only referenced so far has no rows, so `2@1 → 2@0`
    /// does not exist yet. Its first row, at any version, creates that
    /// edge: forward closures through `2@1` must go.
    #[test]
    fn first_row_of_a_referenced_pnode_evicts_closures_through_it() {
        let mut db = ProvDb::with_config(WaldoConfig {
            shards: 1,
            ancestry_cache: 128,
            ..WaldoConfig::default()
        });
        db.ingest(&[prov(r(1, 0), Attribute::Input, Value::Xref(r(2, 1)))]);
        assert_eq!(ancestry(&db, r(1, 0)), vec![r(2, 1)]);
        assert_eq!(ancestry(&db, r(1, 0)), vec![r(2, 1)]);
        db.ingest(&[prov(r(2, 0), Attribute::Name, Value::str("/two"))]);
        assert_eq!(ancestry(&db, r(1, 0)), vec![r(2, 0), r(2, 1)]);
        assert_eq!(db.closure_cache_stats().invalidated, 1);
    }

    /// A new row `2@1` adds the inverse edge `2@0 → 2@1`, so the
    /// descendants of whatever `2@0` descends from must go.
    #[test]
    fn new_version_evicts_descendants_of_its_predecessor() {
        let mut db = ProvDb::with_config(WaldoConfig {
            shards: 1,
            ancestry_cache: 128,
            ..WaldoConfig::default()
        });
        db.ingest(&[prov(r(2, 0), Attribute::Input, Value::Xref(r(1, 0)))]);
        assert_eq!(descent(&db, r(1, 0)), vec![r(2, 0)]);
        assert_eq!(descent(&db, r(1, 0)), vec![r(2, 0)]);
        db.ingest(&[prov(r(2, 0), Attribute::Freeze, Value::Int(1))]);
        assert_eq!(descent(&db, r(1, 0)), vec![r(2, 0), r(2, 1)]);
        assert_eq!(db.closure_cache_stats().invalidated, 1);
    }
}
