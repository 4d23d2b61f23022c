//! PQL graph adapter: the sharded [`Store`] as a [`pql::GraphSource`].
//!
//! Waldo "is also responsible for accessing the database on behalf of
//! the query engine" (paper §5.6); this module is that access path.
//! Edge expansions — the query evaluator's hot operation — go through
//! the store's generation-validated edge cache, so repeating an
//! ancestry query over an unchanged (or partially changed) database
//! re-reads only the shards that moved. Planner pushdown
//! ([`GraphSource::lookup_attr`]) answers sargable `where` predicates
//! from the per-shard secondary indexes — name, type, and the
//! generalized string-attribute index — instead of scanning
//! `class_members`, which is what makes the paper's §5.7
//! name-equality ancestry query O(result) instead of O(volume).

use dpapi::{Attribute, ObjectRef, Pnode, Value, Version};
use pql::{AttrLookup, AttrPredicate, EdgeLabel, GraphSource};

use crate::db::ObjectEntry;
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

/// What `node.name` evaluates to against the node's object, borrowed
/// where it can be: a pseudo-attribute by value, else the value
/// recorded at the node's exact version, else the first recorded at
/// any version (names and types are usually recorded once, at
/// version 0). This is the one copy of attribute semantics — `attr`
/// and the index verification in `lookup_attr` both read through it.
fn with_attr<R>(
    obj: Option<&ObjectEntry>,
    node: ObjectRef,
    name: &str,
    f: impl FnOnce(Option<&Value>) -> R,
) -> R {
    if let Some(pseudo) = pseudo_attr(node, name) {
        return f(Some(&pseudo));
    }
    let named = attr_named(name);
    f(obj.and_then(|obj| {
        let exact = obj.attrs(node.version).iter();
        let anywhere = obj.versions.values().flat_map(|v| &v.attrs);
        let mut recorded = exact.chain(anywhere);
        recorded.find(|(a, _)| named(a)).map(|(_, v)| v)
    }))
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

    fn edges(&self, node: ObjectRef, label: &EdgeLabel, inverse: bool) -> Vec<ObjectRef> {
        self.edges_cached(node, label, !inverse, || {
            let mut out = Vec::new();
            self.neighbours(node, label, inverse, &mut out);
            out
        })
    }
}

fn version_refs(p: Pnode, obj: &ObjectEntry) -> impl Iterator<Item = ObjectRef> + '_ {
    obj.versions
        .keys()
        .map(move |v| ObjectRef::new(p, Version(*v)))
}

impl GraphSource for Store {
    fn class_members(&self, class: &str) -> Vec<ObjectRef> {
        let pnodes = if class.eq_ignore_ascii_case("obj") {
            self.all_pnodes()
        } else {
            self.find_by_type(&class.to_ascii_uppercase())
        };
        let mut out = Vec::new();
        for p in pnodes {
            self.with_object(p, |obj| out.extend(version_refs(p, obj)));
        }
        out.sort();
        out
    }

    fn attr(&self, node: ObjectRef, name: &str) -> Option<Value> {
        self.with_home(node.pnode, |shard| {
            with_attr(shard.objects.get(&node.pnode), node, name, |v| v.cloned())
        })
    }

    fn out_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
        self.edges(node, label, false)
    }

    fn in_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
        self.edges(node, label, true)
    }

    fn closure(&self, node: ObjectRef, label: &EdgeLabel, inverse: bool) -> Vec<ObjectRef> {
        self.closure_cached(node, label, inverse, |n, out| {
            self.neighbours(n, label, inverse, out)
        })
    }

    /// Index-backed predicate pushdown: equality and prefix lookups
    /// on NAME, TYPE and any string application attribute answer from
    /// the per-shard secondary indexes instead of scanning
    /// `class_members`. The narrow candidate set is then verified
    /// per version-ref against the exact scan semantics (`attr` +
    /// predicate), so the result is identical to the default's —
    /// same refs, same sorted order — just without the scan.
    fn lookup_attr(&self, class: &str, attr: &str, pred: &AttrPredicate) -> AttrLookup {
        let is = |known: &str| attr.eq_ignore_ascii_case(known);
        // Application attributes are stored (and indexed) under their
        // canonical upper-case record name.
        let upper = || attr.to_ascii_uppercase();
        let pnodes = match pred {
            AttrPredicate::Eq(Value::Str(s)) if is("name") => self.find_by_name(s),
            AttrPredicate::Eq(Value::Str(s)) if is("type") => self.find_by_type(s),
            AttrPredicate::Eq(Value::Str(s)) => self.find_by_attr(&upper(), s),
            AttrPredicate::LikePrefix(p) if is("name") => self.find_by_name_prefix(p),
            AttrPredicate::LikePrefix(p) if is("type") => self.find_by_type_prefix(p),
            AttrPredicate::LikePrefix(p) => self.find_by_attr_prefix(&upper(), p),
            // Non-string equality (pnode/version/volume pseudo-attrs,
            // integer app attributes): no index covers it, so fall
            // back to the trait's scan-based behavior (the one shared
            // copy of the scan semantics).
            AttrPredicate::Eq(_) => return pql::plan::scan_lookup(self, class, attr, pred),
        };
        let class_upper = class.to_ascii_uppercase();
        let any_class = class.eq_ignore_ascii_case("obj");
        let mut nodes = Vec::new();
        for p in pnodes {
            self.with_home(p, |shard| {
                let in_class = any_class
                    || (shard.type_index.get(&class_upper)).is_some_and(|ps| ps.contains(&p));
                let Some(obj) = shard.objects.get(&p).filter(|_| in_class) else {
                    return;
                };
                let matching = version_refs(p, obj)
                    .filter(|r| with_attr(Some(obj), *r, attr, |v| pred.matches(v)));
                nodes.extend(matching);
            });
        }
        nodes.sort();
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
            self.type_index_size(&class.to_ascii_uppercase())
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
        let db = ProvDb::new();
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

    /// Re-running a PQL ancestry query against an unchanged store
    /// answers its `label+` closures from the cache; ingesting
    /// afterwards invalidates only what the commit touched.
    #[test]
    fn repeated_queries_hit_the_closure_cache() {
        let db = sample_db();
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
