//! PQL graph adapter: the sharded [`Store`] as a [`pql::GraphSource`].
//!
//! Waldo "is also responsible for accessing the database on behalf of
//! the query engine" (paper §5.6); this module is that access path.
//! Edge expansions read the rows of the node's home shard directly. A
//! whole `label*`/`label+` closure goes through the store's closure
//! cache, validated against the pnodes each commit changed, so
//! repeating an ancestry query after ingest elsewhere in the graph
//! re-reads nothing; a cached closure whose own pnodes changed is
//! recomputed whole. Planner pushdown
//! ([`GraphSource::lookup_attr`]) answers sargable `where` predicates
//! from the per-shard secondary indexes — name, type, and the
//! generalized string-attribute index — instead of scanning
//! `class_members`. So the paper's §5.7 name-equality ancestry query
//! finds its root with one hash of the name into the store's key
//! filter and one B-tree descent per shard the filter flags, usually
//! one, instead of reading every object of the class. A TYPE or
//! prefix lookup descends the index of every shard. The index lists
//! slots, so the candidates are read where they lie, without a probe
//! of the pnode map; a projected column
//! ([`GraphSource::attr_column`]) skips that probe too wherever the
//! slot after the last one it read on a shard holds the next node,
//! and its string cells share the shard's interned strings instead of
//! copying them.

use std::rc::Rc;

use dpapi::{Attribute, ObjectRef, Pnode, Value, Version};
use pql::{AttrLookup, AttrPredicate, EdgeLabel, GraphSource, OutValue};

use crate::shard::{Keyed, Shard, ValueRef, VersionRow};
use crate::store::{EdgeKind, Store};

fn edge_matches(label: &EdgeLabel, edge: EdgeKind<'_>) -> bool {
    use EdgeKind::{Recorded, Version};
    match (label, edge) {
        (EdgeLabel::Any, _) | (EdgeLabel::Input | EdgeLabel::Version, Version) => true,
        (EdgeLabel::Input, Recorded(a)) => *a == Attribute::Input,
        (EdgeLabel::VisitedUrl, Recorded(a)) => *a == Attribute::VisitedUrl,
        (EdgeLabel::FileUrl, Recorded(a)) => *a == Attribute::FileUrl,
        (EdgeLabel::CurrentUrl, Recorded(a)) => *a == Attribute::CurrentUrl,
        (EdgeLabel::Named(n), Recorded(a)) => a.as_str().eq_ignore_ascii_case(n),
        (EdgeLabel::Named(n), Version) => n.eq_ignore_ascii_case("version"),
        (_, Version) | (EdgeLabel::Version, _) => false,
    }
}

/// The pseudo-attributes every node answers from its own reference.
fn pseudo_attr(node: ObjectRef, name: &str) -> Option<Value> {
    let is = |pseudo: &str| name.eq_ignore_ascii_case(pseudo);
    let n = if is("pnode") {
        node.pnode.number as i64
    } else if is("version") {
        i64::from(node.version.0)
    } else if is("volume") {
        i64::from(node.pnode.volume.0)
    } else {
        return None;
    };
    Some(Value::Int(n))
}

/// A name in ASCII upper case — the spelling the store keys classes
/// and application attributes under — folded into a stack buffer, so
/// a query's class or attribute name costs no allocation unless it is
/// longer than the buffer.
enum Upper {
    Inline([u8; 32], usize),
    Heap(String),
}

impl Upper {
    fn new(s: &str) -> Upper {
        let mut buf = [0u8; 32];
        match buf.get_mut(..s.len()) {
            Some(upper) => {
                upper.copy_from_slice(s.as_bytes());
                upper.make_ascii_uppercase();
                Upper::Inline(buf, s.len())
            }
            None => Upper::Heap(s.to_ascii_uppercase()),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            // Changing the case of ASCII bytes keeps UTF-8 valid.
            Upper::Inline(buf, len) => std::str::from_utf8(&buf[..*len]).expect("folded UTF-8"),
            Upper::Heap(s) => s,
        }
    }
}

/// Whether a record attribute is the one a query spells `name`,
/// decided without allocating: the well-known attributes match in
/// any case; any other name denotes an application attribute, stored
/// (and indexed) under its canonical upper-case record name.
fn attr_named(name: &str) -> impl Fn(&Attribute) -> bool + '_ {
    use Attribute::{Argv, Env, Name, Other, Params, Type};
    let known = [Name, Type, Argv, Env, Params]
        .into_iter()
        .find(|known| name.eq_ignore_ascii_case(known.as_str()));
    move |attr| match (&known, attr) {
        (Some(known), attr) => known == attr,
        (None, Other(stored)) => {
            let upper = name.bytes().map(|b| b.to_ascii_uppercase());
            stored.len() == name.len() && stored.bytes().eq(upper)
        }
        (None, _) => false,
    }
}

/// What `node.name` evaluates to against the node's object, whose
/// version run the caller already located on its home shard
/// (`versions`, `None` if the object is unknown), borrowed from the
/// shard where it can be: a pseudo-attribute by value, else the value
/// recorded at the node's exact version, else the first recorded at
/// any version (names and types are usually recorded once, at version
/// 0). This is the one copy of attribute semantics — `attr` and the
/// index verification in `lookup_attr` both read through it.
fn with_attr<R>(
    shard: &Shard,
    versions: Option<&[VersionRow]>,
    node: ObjectRef,
    name: &str,
    f: impl FnOnce(Option<ValueRef<'_>>) -> R,
) -> R {
    if let Some(pseudo) = pseudo_attr(node, name) {
        return f(Some(ValueRef::Other(&pseudo)));
    }
    let named = attr_named(name);
    f(versions.and_then(|versions| {
        let exact = Shard::find_version(versions, node.version.0).into_iter();
        let mut recorded = exact.chain(versions).flat_map(|v| shard.attrs(v));
        recorded.find(|(a, _)| named(a)).map(|(_, v)| v)
    }))
}

/// The answer cell of a borrowed value: a string shares the shard's
/// interned `Rc` instead of being copied.
fn cell(value: Option<ValueRef<'_>>) -> OutValue {
    match value {
        Some(ValueRef::Str(s)) => OutValue::Str(Rc::clone(s)),
        Some(ValueRef::Other(v)) => OutValue::from(v.clone()),
        None => OutValue::Null,
    }
}

/// [`AttrPredicate::matches`] over a borrowed value: a stored string
/// is compared where it lies instead of being copied into a `Value`.
fn satisfies(pred: &AttrPredicate, value: Option<ValueRef<'_>>) -> bool {
    match (pred, value) {
        (AttrPredicate::Eq(Value::Str(want)), Some(ValueRef::Str(s))) => **want == **s,
        (AttrPredicate::LikePrefix(prefix), Some(ValueRef::Str(s))) => s.starts_with(prefix),
        (_, Some(ValueRef::Str(_))) => false,
        (_, Some(ValueRef::Other(v))) => pred.matches(Some(v)),
        (_, None) => pred.matches(None),
    }
}

impl Store {
    /// Appends `node`'s neighbours over edges matching `label`,
    /// filtered inside the shard borrow.
    fn neighbours(
        &self,
        node: ObjectRef,
        label: &EdgeLabel,
        inverse: bool,
        out: &mut Vec<ObjectRef>,
    ) {
        self.for_each_edge(node, inverse, |edge, to| {
            if edge_matches(label, edge) {
                out.push(to);
            }
        });
    }
}

fn version_refs(p: Pnode, versions: &[VersionRow]) -> impl Iterator<Item = ObjectRef> + '_ {
    (versions.iter()).map(move |v| ObjectRef::new(p, Version(v.number)))
}

impl GraphSource for Store {
    fn class_members(&self, class: &str) -> Vec<ObjectRef> {
        let mut out = Vec::new();
        if class.eq_ignore_ascii_case("obj") {
            for shard in (0..self.shard_count()).map(|i| self.shard(i)) {
                out.extend(shard.objects().flat_map(|(p, v)| version_refs(p, v)));
            }
        } else {
            let ty = Upper::new(class);
            self.scan_index(Keyed::Type, ty.as_str(), false, |_, shard, slot| {
                out.extend(version_refs(shard.pnode_at(slot), shard.versions_at(slot)))
            });
        }
        out.sort();
        out
    }

    fn attr(&self, node: ObjectRef, name: &str) -> Option<Value> {
        // The pnode → slot probe goes first, so its cache miss is in
        // flight while `with_attr` resolves the name.
        let shard = self.home(node.pnode);
        let versions = shard.versions(node.pnode);
        with_attr(shard, versions, node, name, |v| v.map(ValueRef::to_value))
    }

    /// [`GraphSource::attr`] down a column, without a map probe where
    /// a neighbour's slot says where the node's object is. One build
    /// step's objects get consecutive pnodes and are stored in
    /// consecutive slots of their shard, so in a sorted column the
    /// next node homed on a shard is usually the object in the slot
    /// after the last one read there. The hint is taken only when the
    /// pnode stored in that slot is the node's
    /// (`Shard::slot_near`), so an out-of-order column or a forged
    /// pnode costs a probe, never a wrong row.
    fn attr_column(&self, nodes: &[ObjectRef], name: &str, out: &mut Vec<OutValue>) {
        // The last slot read on each shard (at most 64).
        let mut last = [u32::MAX; 64];
        out.reserve(nodes.len());
        for &node in nodes {
            let i = self.shard_of(node.pnode);
            let shard = self.shard(i);
            let slot = shard.slot_near(last[i], node.pnode);
            if let Some(slot) = slot {
                last[i] = slot;
            }
            let versions = slot.map(|s| shard.versions_at(s));
            out.push(with_attr(shard, versions, node, name, cell));
        }
    }

    fn out_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
        let mut out = Vec::new();
        self.neighbours(node, label, false, &mut out);
        out
    }

    fn in_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
        let mut out = Vec::new();
        self.neighbours(node, label, true, &mut out);
        out
    }

    fn closure(&self, node: ObjectRef, label: &EdgeLabel, inverse: bool) -> Vec<ObjectRef> {
        self.closure_cached(node, label, inverse, |n, out| {
            self.neighbours(n, label, inverse, out)
        })
    }

    /// Index-backed predicate pushdown: equality and prefix lookups
    /// on NAME, TYPE and any string application attribute answer from
    /// the per-shard secondary indexes instead of scanning
    /// `class_members`. Each slot the index walk yields is checked
    /// against the class's posting on its shard and then verified per
    /// version-ref against the exact scan semantics (`attr` +
    /// predicate), so the result is identical to the default's —
    /// same refs, same sorted order — just without the scan.
    fn lookup_attr(&self, class: &str, attr: &str, pred: &AttrPredicate) -> AttrLookup {
        let (key, prefix) = match pred {
            AttrPredicate::Eq(Value::Str(s)) => (s, false),
            AttrPredicate::LikePrefix(p) => (p, true),
            // Non-string equality (pnode/version/volume pseudo-attrs,
            // integer app attributes): no index covers it, so fall
            // back to the trait's scan-based behavior (the one shared
            // copy of the scan semantics).
            AttrPredicate::Eq(_) => return pql::plan::scan_lookup(self, class, attr, pred),
        };
        let is = |known: &str| attr.eq_ignore_ascii_case(known);
        // Application attributes are stored (and indexed) under their
        // canonical upper-case record name.
        let upper;
        let keyed = if is("name") {
            Keyed::Name
        } else if is("type") {
            Keyed::Type
        } else {
            upper = Upper::new(attr);
            Keyed::Attr(upper.as_str())
        };
        let class_upper = Upper::new(class);
        let any_class = class.eq_ignore_ascii_case("obj");
        // The class's posting on the shard the scan is in.
        let mut members = (usize::MAX, None);
        let mut nodes = Vec::new();
        self.scan_index(keyed, key, prefix, |i, shard, slot| {
            if !any_class {
                if members.0 != i {
                    members = (i, shard.type_index.get(class_upper.as_str()));
                }
                let member = members.1.is_some_and(|ps| ps.binary_search(&slot).is_ok());
                if !member {
                    return;
                }
            }
            let versions = shard.versions_at(slot);
            let matching = version_refs(shard.pnode_at(slot), versions)
                .filter(|r| with_attr(shard, Some(versions), *r, attr, |v| satisfies(pred, v)));
            nodes.extend(matching);
        });
        // An object listed under two matching keys was verified twice.
        nodes.sort();
        nodes.dedup();
        AttrLookup {
            nodes,
            indexed: true,
        }
    }

    /// Planner-statistics hint: the class's member count, from the
    /// TYPE index set sizes alone — O(shards), no object or attribute
    /// reads, so the hint never erodes an O(result) indexed lookup.
    /// Counts pnodes, not version-refs; for the pruning *estimates*
    /// it feeds that is close enough.
    fn class_size(&self, class: &str) -> Option<usize> {
        Some(if class.eq_ignore_ascii_case("obj") {
            self.object_count()
        } else {
            self.type_index_size(Upper::new(class).as_str())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::ProvDb;
    use dpapi::{Pnode, ProvenanceRecord, VolumeId};
    use lasagna::LogEntry;

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

    fn sample_db() -> ProvDb {
        let mut db = ProvDb::new();
        db.ingest(&[
            prov(r(1, 0), Attribute::Name, Value::str("/data/atlas-x.gif")),
            prov(r(1, 0), Attribute::Type, Value::str("FILE")),
            prov(r(2, 0), Attribute::Name, Value::str("softmean")),
            prov(r(2, 0), Attribute::Type, Value::str("PROC")),
            prov(r(3, 0), Attribute::Name, Value::str("/data/anatomy1.img")),
            prov(r(3, 0), Attribute::Type, Value::str("FILE")),
            prov(r(1, 0), Attribute::Input, Value::Xref(r(2, 0))),
            prov(r(2, 0), Attribute::Input, Value::Xref(r(3, 0))),
            // A browser-style edge for label filtering.
            prov(r(4, 0), Attribute::Type, Value::str("SESSION")),
            prov(r(1, 0), Attribute::CurrentUrl, Value::Xref(r(4, 0))),
        ]);
        db
    }

    #[test]
    fn paper_query_runs_against_the_database() {
        let db = sample_db();
        let rs = pql::query(
            r#"select Ancestor
               from Provenance.file as Atlas
                    Atlas.input* as Ancestor
               where Atlas.name = "/data/atlas-x.gif""#,
            &db,
        )
        .unwrap();
        let nodes = rs.nodes();
        assert!(nodes.contains(&r(1, 0)));
        assert!(nodes.contains(&r(2, 0)));
        assert!(nodes.contains(&r(3, 0)));
    }

    #[test]
    fn class_members_split_by_type() {
        let db = sample_db();
        assert_eq!(db.class_members("proc"), vec![r(2, 0)]);
        assert_eq!(db.class_members("session"), vec![r(4, 0)]);
        assert_eq!(db.class_members("file").len(), 2);
        assert_eq!(db.class_members("obj").len(), 4);
    }

    #[test]
    fn edge_label_filtering() {
        let db = sample_db();
        // current_url edges are not input edges.
        assert_eq!(db.out_edges(r(1, 0), &EdgeLabel::Input), vec![r(2, 0)]);
        assert_eq!(db.out_edges(r(1, 0), &EdgeLabel::CurrentUrl), vec![r(4, 0)]);
        assert_eq!(db.out_edges(r(1, 0), &EdgeLabel::Any).len(), 2);
    }

    #[test]
    fn pseudo_attributes() {
        let db = sample_db();
        assert_eq!(db.attr(r(3, 0), "pnode"), Some(Value::Int(3)));
        assert_eq!(db.attr(r(3, 0), "version"), Some(Value::Int(0)));
        assert_eq!(db.attr(r(3, 0), "volume"), Some(Value::Int(1)));
        assert_eq!(db.attr(r(3, 0), "nonexistent"), None);
    }

    #[test]
    fn descendant_query_via_inverse_edges() {
        let db = sample_db();
        let rs = pql::query(
            "select D from Provenance.file as F F.input~+ as D \
             where F.name = '/data/anatomy1.img'",
            &db,
        )
        .unwrap();
        let nodes = rs.nodes();
        assert!(nodes.contains(&r(2, 0)), "proc descends from input");
        assert!(nodes.contains(&r(1, 0)), "output descends transitively");
    }

    /// A query spells a non-ASCII NAME the way the store holds it:
    /// the literal's UTF-8 bytes, not one character per byte.
    #[test]
    fn point_query_finds_a_non_ascii_name() {
        let mut db = sample_db();
        db.ingest(&[
            prov(r(9, 0), Attribute::Name, Value::str("/data/café.txt")),
            prov(r(9, 0), Attribute::Type, Value::str("FILE")),
        ]);
        let q = "select F from Provenance.file as F where F.name = '/data/café.txt'";
        assert_eq!(pql::query(q, &db).unwrap().nodes(), vec![r(9, 0)]);
    }

    /// Re-running a PQL ancestry query against an unchanged store
    /// answers its `label+` closures from the cache; ingesting
    /// afterwards invalidates only what the commit touched.
    #[test]
    fn repeated_queries_hit_the_closure_cache() {
        let mut db = sample_db();
        let q = "select D from Provenance.file as F F.input~+ as D \
                 where F.name = '/data/anatomy1.img'";
        let first = pql::query(q, &db).unwrap().nodes();
        let before = db.closure_cache_stats();
        let second = pql::query(q, &db).unwrap().nodes();
        let after = db.closure_cache_stats();
        assert_eq!(first, second);
        assert!(
            after.hits > before.hits,
            "second run must hit the closure cache: {after:?}"
        );
        // New ancestry through pnode 3 must invalidate its closures.
        db.ingest(&[prov(r(5, 0), Attribute::Input, Value::Xref(r(3, 0)))]);
        let third = pql::query(q, &db).unwrap().nodes();
        assert!(third.contains(&r(5, 0)), "stale closure cache served");
    }
}
