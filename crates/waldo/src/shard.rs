//! One shard of the provenance store.
//!
//! The store partitions objects by a stable hash of their pnode; each
//! shard owns the object table and secondary indexes for its
//! partition. A record's *subject-side* effects (attributes, ancestry
//! inputs, data-write accounting) land in the subject's shard; the
//! *reverse* ancestry edge lands in the ancestor's shard, so
//! descendant queries never leave the ancestor's partition. Shards
//! never reference each other — the [`crate::store::Store`] facade
//! routes between them — which is what later lets shards move to
//! independent backends or threads.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dpapi::wire::record_wire_size;
use dpapi::{Attribute, ObjectRef, Pnode, Value, Version};
use lasagna::LogEntry;

use crate::db::{DbSize, ObjectEntry};

/// A reverse ancestry edge bound for an ancestor's shard:
/// (ancestor, descendant version-ref, edge attribute, ancestor
/// version).
pub(crate) type ReverseEdge = (Pnode, ObjectRef, Attribute, Version);

/// One hash partition of the store.
///
/// The secondary indexes are ordered maps (`BTreeMap`): prefix
/// queries become range scans and checkpoint serialization iterates
/// them canonically without a sort pass.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    /// Objects homed on this shard.
    pub objects: HashMap<Pnode, ObjectEntry>,
    /// name -> objects of this shard that bore it (at any version).
    pub name_index: BTreeMap<String, BTreeSet<Pnode>>,
    /// type -> objects of this shard.
    pub type_index: BTreeMap<String, BTreeSet<Pnode>>,
    /// Generalized attribute index: attribute name -> string value ->
    /// objects of this shard that bore it (at any version). Covers
    /// every string-valued attribute the dedicated name/type indexes
    /// do not — application attributes foremost — so PQL predicate
    /// pushdown (`GraphSource::lookup_attr`) answers them without a
    /// volume scan. Maintained on the commit path and persisted in
    /// checkpoint segments (format v2).
    pub attr_index: BTreeMap<String, BTreeMap<String, BTreeSet<Pnode>>>,
    /// ancestor pnode (homed here) -> (descendant version-ref, edge
    /// attribute, ancestor version).
    pub reverse_index: HashMap<Pnode, Vec<(ObjectRef, Attribute, Version)>>,
    /// Approximate footprint of this shard.
    pub size: DbSize,
    /// Bumped once per group commit that touched this shard; the
    /// ancestry cache validates against it.
    pub generation: u64,
}

impl Shard {
    /// Applies a run of committed entries that all share one subject
    /// pnode. This is the batched fast path: the object-table lookup
    /// is done once for the whole run, and the per-version state is
    /// looked up once per same-version sub-run instead of once per
    /// record.
    pub fn apply_run(
        &mut self,
        pnode: Pnode,
        entries: &[&LogEntry],
        reverse_out: &mut Vec<ReverseEdge>,
    ) {
        debug_assert!(!entries.is_empty());
        let mut db_bytes = 0u64;
        let mut index_bytes = 0u64;
        // Split borrows: the object entry and the secondary indexes
        // are distinct fields, so the entry can be taken once up front
        // while the index maps stay reachable.
        let obj = self.objects.entry(pnode).or_default();
        let mut i = 0;
        while i < entries.len() {
            // Freeze opens a new version; apply it singly.
            if let LogEntry::Prov { record, .. } = entries[i] {
                if let (Attribute::Freeze, Value::Int(v)) = (&record.attribute, &record.value) {
                    db_bytes += record_wire_size(record) as u64 + 16;
                    obj.at(Version(*v as u32));
                    i += 1;
                    continue;
                }
            }
            // Sub-run of non-freeze entries at one version: one
            // version-table lookup for all of them.
            let ver = subject_version(entries[i]);
            let mut j = i + 1;
            while j < entries.len() && subject_version(entries[j]) == ver && !is_freeze(entries[j])
            {
                j += 1;
            }
            let ve = obj.at(Version(ver));
            for entry in &entries[i..j] {
                match entry {
                    LogEntry::Prov { subject, record } => {
                        debug_assert_eq!(subject.pnode, pnode);
                        db_bytes += record_wire_size(record) as u64 + 16;
                        match (&record.attribute, &record.value) {
                            (attr, Value::Xref(ancestor)) if attr.is_ancestry() => {
                                ve.inputs.push((attr.clone(), *ancestor));
                                reverse_out.push((
                                    ancestor.pnode,
                                    *subject,
                                    attr.clone(),
                                    ancestor.version,
                                ));
                            }
                            (Attribute::Name, Value::Str(name)) => {
                                ve.attrs.push((Attribute::Name, record.value.clone()));
                                let fresh = self
                                    .name_index
                                    .entry(name.clone())
                                    .or_default()
                                    .insert(pnode);
                                if fresh {
                                    index_bytes += name.len() as u64 + 12;
                                }
                            }
                            (Attribute::Type, Value::Str(ty)) => {
                                ve.attrs.push((Attribute::Type, record.value.clone()));
                                let fresh =
                                    self.type_index.entry(ty.clone()).or_default().insert(pnode);
                                if fresh {
                                    index_bytes += ty.len() as u64 + 12;
                                }
                            }
                            (attr, Value::Str(s)) => {
                                ve.attrs
                                    .push((record.attribute.clone(), record.value.clone()));
                                let fresh = self
                                    .attr_index
                                    .entry(attr.as_str().to_string())
                                    .or_default()
                                    .entry(s.clone())
                                    .or_default()
                                    .insert(pnode);
                                if fresh {
                                    index_bytes += (attr.as_str().len() + s.len()) as u64 + 12;
                                }
                            }
                            _ => {
                                ve.attrs
                                    .push((record.attribute.clone(), record.value.clone()));
                            }
                        }
                    }
                    LogEntry::DataWrite { subject, len, .. } => {
                        debug_assert_eq!(subject.pnode, pnode);
                        ve.writes += 1;
                        ve.bytes_written += u64::from(*len);
                        db_bytes += 44;
                    }
                    LogEntry::TxnBegin { .. } | LogEntry::TxnEnd { .. } => {}
                }
            }
            i = j;
        }
        self.size.db_bytes += db_bytes;
        self.size.index_bytes += index_bytes;
    }

    /// Records a reverse ancestry edge whose ancestor is homed here.
    pub fn add_reverse_edge(&mut self, edge: ReverseEdge) {
        let (ancestor, descendant, attr, aversion) = edge;
        self.reverse_index
            .entry(ancestor)
            .or_default()
            .push((descendant, attr, aversion));
        self.size.index_bytes += 36;
    }
}

/// The subject version an appliable entry writes at.
fn subject_version(entry: &LogEntry) -> u32 {
    match entry {
        LogEntry::Prov { subject, .. } | LogEntry::DataWrite { subject, .. } => subject.version.0,
        LogEntry::TxnBegin { .. } | LogEntry::TxnEnd { .. } => 0,
    }
}

/// True for FREEZE records, which open a new version.
fn is_freeze(entry: &LogEntry) -> bool {
    matches!(
        entry,
        LogEntry::Prov { record, .. } if record.attribute == Attribute::Freeze
    )
}
