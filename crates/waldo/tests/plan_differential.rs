//! Differential test of the planned PQL pipeline against the naive
//! evaluator, over the *real* storage backend: random entry streams
//! ingested into the sharded store, random queries answered both
//! ways. This is where the index-backed `lookup_attr` override is
//! exercised end to end — a divergence between the store's secondary
//! indexes and its scan semantics shows up here as a planned/naive
//! mismatch.
//!
//! Planned and naive share the store's borrowing read path, so a bug
//! in it would cancel out between them. [`Snapshot`] closes that gap:
//! a second, deliberately naive `GraphSource` over the same store —
//! owned `Store::object` snapshots, lower-cased `String` comparisons,
//! in-edges found by scanning every object's inputs instead of the
//! reverse index — that the naive evaluator runs over as the
//! reference for what the planned pipeline returns from the store.

use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
use lasagna::LogEntry;
use pql::{EdgeLabel, GraphSource};
use proptest::prelude::*;
use waldo::{ProvDb, WaldoConfig};

fn p(n: u64) -> Pnode {
    Pnode::new(VolumeId(1), n)
}

fn prov(subject: ObjectRef, attr: Attribute, value: Value) -> LogEntry {
    LogEntry::Prov {
        subject,
        record: ProvenanceRecord::new(attr, value),
    }
}

/// The store read the slow, obviously-right way (see the module
/// docs). `closure` and `lookup_attr` are the trait's defaults: a
/// plain BFS and a class scan.
struct Snapshot<'a>(&'a ProvDb);

impl Snapshot<'_> {
    fn versions(&self, p: Pnode) -> Vec<ObjectRef> {
        let obj = self.0.object(p).unwrap_or_default();
        let versions = obj.versions.keys();
        versions.map(|v| ObjectRef::new(p, Version(*v))).collect()
    }

    /// Every recorded edge of the graph as `(from, to, attribute)`.
    fn recorded(&self) -> Vec<(ObjectRef, ObjectRef, Attribute)> {
        let mut out = Vec::new();
        for p in self.0.all_pnodes() {
            for (v, entry) in self.0.object(p).unwrap().versions {
                let from = ObjectRef::new(p, Version(v));
                out.extend(entry.inputs.into_iter().map(|(attr, to)| (from, to, attr)));
            }
        }
        out
    }

    /// Whether `label` selects an edge called `name`; the implicit
    /// version edge (`implicit`) is also an `input` edge. A named
    /// label is never widened that way: it matches the edge's own
    /// name only.
    fn selects(label: &EdgeLabel, name: &str, implicit: bool) -> bool {
        let name = name.to_ascii_lowercase();
        match label {
            EdgeLabel::Any => true,
            EdgeLabel::Input => name == "input" || implicit,
            EdgeLabel::Version => name == "version",
            EdgeLabel::VisitedUrl => name == "visited_url",
            EdgeLabel::FileUrl => name == "file_url",
            EdgeLabel::CurrentUrl => name == "current_url",
            EdgeLabel::Named(n) => name == n.to_ascii_lowercase(),
        }
    }
}

impl GraphSource for Snapshot<'_> {
    fn class_members(&self, class: &str) -> Vec<ObjectRef> {
        let mut out: Vec<ObjectRef> = (self.0.all_pnodes().into_iter())
            .filter(|p| {
                class.eq_ignore_ascii_case("obj")
                    || self.0.find_by_type(&class.to_ascii_uppercase()).contains(p)
            })
            .flat_map(|p| self.versions(p))
            .collect();
        out.sort();
        out
    }

    fn attr(&self, node: ObjectRef, name: &str) -> Option<Value> {
        let name = name.to_ascii_lowercase();
        match name.as_str() {
            "pnode" => return Some(Value::Int(node.pnode.number as i64)),
            "version" => return Some(Value::Int(i64::from(node.version.0))),
            "volume" => return Some(Value::Int(i64::from(node.pnode.volume.0))),
            _ => {}
        }
        let wanted = match name.as_str() {
            "name" | "type" | "argv" | "env" | "params" => {
                Attribute::from_name(&name.to_ascii_uppercase())
            }
            other => Attribute::Other(other.to_ascii_uppercase()),
        };
        let obj = self.0.object(node.pnode)?;
        let here = obj.attrs(node.version).iter();
        let anywhere = obj.versions.values().flat_map(|v| v.attrs.iter());
        let mut recorded = here.chain(anywhere);
        recorded.find(|(a, _)| *a == wanted).map(|(_, v)| v.clone())
    }

    /// Recorded inputs, then the implicit edge to the previous
    /// version — which any later version of a known object has,
    /// recorded as a subject or only ever referenced.
    fn out_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
        let recorded = self.recorded().into_iter();
        let leaving = recorded
            .filter(|(from, _, a)| *from == node && Self::selects(label, a.as_str(), false));
        let mut out: Vec<ObjectRef> = leaving.map(|(_, to, _)| to).collect();
        let known = self.0.object(node.pnode).is_some();
        if known && node.version.0 > 0 && Self::selects(label, "version", true) {
            out.push(ObjectRef::new(node.pnode, Version(node.version.0 - 1)));
        }
        out
    }

    /// Recorded references to `node`, then the implicit edge from
    /// its next version — if that one was recorded as a subject.
    fn in_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
        let recorded = self.recorded().into_iter();
        let entering =
            recorded.filter(|(_, to, a)| *to == node && Self::selects(label, a.as_str(), false));
        let mut out: Vec<ObjectRef> = entering.map(|(from, _, _)| from).collect();
        let next = ObjectRef::new(node.pnode, Version(node.version.0 + 1));
        if self.versions(node.pnode).contains(&next) && Self::selects(label, "version", true) {
            out.push(next);
        }
        out
    }
}

/// A bounded random stream: names/types/app-attrs from small pools
/// (so predicates hit and projected rows repeat), ancestry and URL
/// edges only toward lower pnodes (so closures terminate) at any of
/// their versions, and FREEZEs opening up to three versions per
/// object, so the implicit version edge has chains to walk.
fn arb_entry() -> impl Strategy<Value = LogEntry> {
    let subject = (1u64..24, 0u32..3).prop_map(|(n, v)| ObjectRef::new(p(n), Version(v)));
    prop_oneof![
        (subject.clone(), 0u32..3).prop_map(|(s, i)| {
            let name = ["/data/a.gif", "/data/b.img", "/tmp/x"][i as usize];
            prov(s, Attribute::Name, Value::str(name))
        }),
        (subject.clone(), 0u32..2).prop_map(|(s, t)| {
            prov(s, Attribute::Type, Value::str(["FILE", "PROC"][t as usize]))
        }),
        (subject.clone(), 0u32..2).prop_map(|(s, i)| {
            prov(
                s,
                Attribute::Other("PHASE".into()),
                Value::str(["align", "slice"][i as usize]),
            )
        }),
        (1u64..24, 0u32..3, 1u64..24, 0u32..3, 0u32..4).prop_map(|(n, v, a, av, kind)| {
            let lo = a.min(n.saturating_sub(1)).max(1);
            let attr = match kind {
                0 => Attribute::CurrentUrl,
                1 => Attribute::FileUrl,
                _ => Attribute::Input,
            };
            prov(
                ObjectRef::new(p(n.max(2)), Version(v)),
                attr,
                Value::Xref(ObjectRef::new(p(lo), Version(av))),
            )
        }),
        (subject, 1i64..3).prop_map(|(s, v)| prov(s, Attribute::Freeze, Value::Int(v))),
    ]
}

const QUERIES: [&str; 20] = [
    "select A from Provenance.file as F F.input* as A where F.name = '/data/a.gif'",
    "select A from Provenance.file as F F.input+ as A where F.name like '/data/*'",
    "select F.name from Provenance.file as F where F.name like '*.gif'",
    "select F from Provenance.obj as F where F.phase = 'align'",
    "select F from Provenance.file as F where F.type = 'FILE' and F.phase = 'slice'",
    "select D from Provenance.file as F F.input~* as D where F.name = '/data/b.img'",
    "select count(A) from Provenance.file as F F.input* as A where F.name = '/tmp/x'",
    "select O, F from Provenance.proc as O Provenance.file as F where F.name = '/data/a.gif'",
    "select F from Provenance.file as F \
     where F.name in (select G.name from Provenance.obj as G where G.phase = 'align')",
    "select F.name, F.version from Provenance.file as F where F.version = 1",
    // The implicit version edge, forward, inverse, and under `input`.
    "select V from Provenance.obj as F F.version* as V where F.name = '/tmp/x'",
    "select F, N from Provenance.file as F F.version~ as N",
    "select D.Version from Provenance.obj as F F.input~* as D where F.NAME = '/data/a.gif'",
    "select A, A.version from Provenance.obj as F F.(version|current_url)+ as A \
     where F.phase = 'slice'",
    // Typed edges and `any`.
    "select U from Provenance.obj as F F.current_url as U",
    "select X.pnode from Provenance.file as F F.any* as X where F.name = '/data/b.img'",
    "select S from Provenance.obj as F F.file_url~ as S where F.type = 'FILE'",
    // Names in any case; projections that repeat (duplicate rows).
    "select f.Pnode, f.NAME, f.Volume from Provenance.FILE as f where f.Type = 'FILE'",
    "select A.name from Provenance.obj as F F.INPUT* as A where F.Phase = 'align'",
    "select F.type, F.PHASE from Provenance.obj as F",
];

fn canonical(rs: &pql::ResultSet) -> Vec<String> {
    let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn planned_matches_naive_on_the_sharded_store(
        entries in proptest::collection::vec(arb_entry(), 1..80),
        shards in 1usize..9,
        qi in 0usize..QUERIES.len(),
    ) {
        let db = ProvDb::with_config(WaldoConfig {
            shards,
            ingest_batch: 16,
            ancestry_cache: 64,
            ..WaldoConfig::default()
        });
        db.ingest(&entries);
        let query = QUERIES[qi];
        let parsed = pql::parse(query).unwrap();
        let naive = pql::execute_naive(&parsed, &db).unwrap();
        let planned = pql::plan::execute(&parsed, &db).unwrap();
        prop_assert_eq!(&planned.result.columns, &naive.columns);
        if planned.stats.bindings_reordered {
            prop_assert_eq!(canonical(&planned.result), canonical(&naive));
        } else {
            prop_assert_eq!(&planned.result.rows, &naive.rows);
        }
        // Edge lists come back in arrival order from the store and in
        // scan order from the snapshot: the same rows, as a set.
        let reference = pql::execute_naive(&parsed, &Snapshot(&db)).unwrap();
        prop_assert_eq!(&planned.result.columns, &reference.columns);
        prop_assert_eq!(canonical(&planned.result), canonical(&reference));
    }

    /// A label the language has no keyword for reaches the store as
    /// `EdgeLabel::Named`, matched against the recorded attribute's
    /// name in any case — and never widened to "any ancestry" the
    /// way `input` is.
    #[test]
    fn named_labels_match_edge_names_in_any_case(
        entries in proptest::collection::vec(arb_entry(), 1..80),
        shards in 1usize..9,
    ) {
        let db = ProvDb::with_config(WaldoConfig { shards, ..WaldoConfig::default() });
        db.ingest(&entries);
        let snapshot = Snapshot(&db);
        let sorted = |mut refs: Vec<ObjectRef>| {
            refs.sort();
            refs
        };
        for node in db.class_members("obj") {
            for name in ["InPuT", "current_URL", "File_Url", "Version", "visited_url", "nope"] {
                let label = EdgeLabel::Named(name.into());
                let out = sorted(db.out_edges(node, &label));
                let expected = sorted(snapshot.out_edges(node, &label));
                prop_assert!(out == expected, "{name} out of {node}: {out:?} != {expected:?}");
                let into = sorted(db.in_edges(node, &label));
                let expected = sorted(snapshot.in_edges(node, &label));
                prop_assert!(into == expected, "{name} into {node}: {into:?} != {expected:?}");
                // The uncached expansion inside a closure agrees with
                // the cached edge list.
                let reach = db.closure(node, &label, false);
                prop_assert!(out.iter().all(|n| reach.contains(n)));
            }
        }
    }
}
