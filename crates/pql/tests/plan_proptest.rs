//! Differential property test: the planned pipeline ([`pql::plan`])
//! must agree with the naive evaluator ([`pql::eval::execute`]) on
//! randomized queries over randomized graphs.
//!
//! The naive evaluator is the executable specification; the planner
//! may prune, push predicates into `lookup_attr` and reorder
//! bindings, but the produced `ResultSet` must be identical — exactly
//! (columns, rows, order) when the written binding order is kept, and
//! up to row permutation when the planner reordered sources.

use dpapi::{ObjectRef, Pnode, Value, Version, VolumeId};
use pql::{AttrLookup, AttrPredicate, EdgeLabel, GraphSource, ResultSet};
use proptest::prelude::*;

/// A randomized acyclic graph: node `i` may have `input` and
/// application-defined `derived` edges only toward lower-numbered
/// nodes (so closures terminate), one to three versions chained by
/// implicit `version` edges, alternating FILE/PROC types and names
/// drawn from a tiny pool so predicates hit often and projections
/// repeat.
#[derive(Clone, Debug)]
struct GenGraph {
    types: Vec<&'static str>,
    names: Vec<String>,
    /// `versions[i]` = how many versions node `i` has.
    versions: Vec<u32>,
    /// `edges[i]` = `(kind, target)` of every edge leaving node `i`'s
    /// last version, toward version 0 of a node `< i`.
    edges: Vec<Vec<(Kind, usize)>>,
    /// When true, `lookup_attr` answers from a (scan-built) index and
    /// reports `indexed`, exercising the planner's index path.
    indexed: bool,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Input,
    /// Reached only through `EdgeLabel::Named`, in any case.
    Derived,
    /// The implicit edge to the previous version; also an `input`.
    Version,
}

impl Kind {
    fn selected_by(self, label: &EdgeLabel) -> bool {
        match label {
            EdgeLabel::Any => true,
            EdgeLabel::Input => self != Kind::Derived,
            EdgeLabel::Version => self == Kind::Version,
            EdgeLabel::Named(n) => self == Kind::Derived && n.eq_ignore_ascii_case("derived"),
            _ => false,
        }
    }
}

fn r(n: usize, v: u32) -> ObjectRef {
    ObjectRef::new(Pnode::new(VolumeId(1), n as u64 + 1), Version(v))
}

impl GenGraph {
    fn index_of(&self, node: ObjectRef) -> Option<usize> {
        let i = (node.pnode.number as usize).checked_sub(1)?;
        (i < self.types.len() && node.version.0 < self.versions[i] && node.pnode.volume.0 == 1)
            .then_some(i)
    }

    /// Every edge as `(from, kind, to)`.
    fn all_edges(&self) -> Vec<(ObjectRef, Kind, ObjectRef)> {
        let mut out = Vec::new();
        for (i, edges) in self.edges.iter().enumerate() {
            let last = self.versions[i] - 1;
            out.extend(edges.iter().map(|&(kind, j)| (r(i, last), kind, r(j, 0))));
            out.extend((1..=last).map(|v| (r(i, v), Kind::Version, r(i, v - 1))));
        }
        out
    }
}

impl GraphSource for GenGraph {
    fn class_members(&self, class: &str) -> Vec<ObjectRef> {
        let lower = class.to_ascii_lowercase();
        (0..self.types.len())
            .filter(|&i| lower == "obj" || self.types[i].eq_ignore_ascii_case(&lower))
            .flat_map(|i| (0..self.versions[i]).map(move |v| r(i, v)))
            .collect() // ascending by construction
    }
    fn attr(&self, node: ObjectRef, name: &str) -> Option<Value> {
        let i = self.index_of(node)?;
        match name.to_ascii_lowercase().as_str() {
            "name" => Some(Value::Str(self.names[i].clone())),
            "type" => Some(Value::str(self.types[i].to_ascii_uppercase())),
            "pnode" => Some(Value::Int(node.pnode.number as i64)),
            "version" => Some(Value::Int(i64::from(node.version.0))),
            _ => None,
        }
    }
    fn out_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
        let edges = self.all_edges().into_iter();
        let leaving = edges.filter(|(from, kind, _)| *from == node && kind.selected_by(label));
        leaving.map(|(_, _, to)| to).collect()
    }
    fn in_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
        let edges = self.all_edges().into_iter();
        let entering = edges.filter(|(_, kind, to)| *to == node && kind.selected_by(label));
        entering.map(|(from, _, _)| from).collect()
    }
    fn lookup_attr(&self, class: &str, attr: &str, pred: &AttrPredicate) -> AttrLookup {
        let nodes: Vec<ObjectRef> = self
            .class_members(class)
            .into_iter()
            .filter(|n| pred.matches(self.attr(*n, attr).as_ref()))
            .collect();
        AttrLookup {
            nodes,
            indexed: self.indexed,
        }
    }
    fn class_size(&self, class: &str) -> Option<usize> {
        self.indexed.then(|| self.class_members(class).len())
    }
}

fn arb_graph() -> impl Strategy<Value = GenGraph> {
    (2usize..12, any::<u64>(), any::<bool>()).prop_map(|(n, seed, indexed)| {
        // Deterministic pseudo-random expansion from one seed keeps
        // shrinking effective.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let names = ["/a.gif", "/b.dat", "/a.gif", "/c"];
        let mut graph = GenGraph {
            types: Vec::new(),
            names: Vec::new(),
            versions: Vec::new(),
            edges: Vec::new(),
            indexed,
        };
        for i in 0..n {
            graph
                .types
                .push(if next() % 2 == 0 { "file" } else { "proc" });
            graph
                .names
                .push(names[(next() % names.len() as u64) as usize].to_string());
            graph.versions.push(1 + (next() % 3) as u32);
            let mut targets = Vec::new();
            for j in 0..i {
                match next() % 6 {
                    0 | 1 => targets.push((Kind::Input, j)),
                    2 => targets.push((Kind::Derived, j)),
                    _ => {}
                }
            }
            graph.edges.push(targets);
        }
        graph
    })
}

/// A random query from a small grammar: one class-rooted source, an
/// optional dependent path source — over `input`, the implicit
/// `version` edge walked forward and inverse, or the named `derived`
/// label, spelled in any case — and an optional conjunction of
/// name/type/version predicates (equality, prefix-`like`, non-prefix
/// `like`), with attribute names in any case too. Several select
/// lists project few distinct values, so deduplication is always at
/// work.
fn arb_query() -> impl Strategy<Value = String> {
    const CLASSES: [&str; 3] = ["file", "proc", "obj"];
    const STEPS: [&str; 12] = [
        "",
        "F.input as A",
        "F.input* as A",
        "F.input+ as A",
        "F.input~* as A",
        "F.input? as A",
        "F.version* as A",
        "F.Version~ as A",
        "F.DeRiVeD* as A",
        "F.derived~ as A",
        "F.(derived|version)+ as A",
        "F.any~* as A",
    ];
    const PREDS: [&str; 11] = [
        "",
        "F.name = '/a.gif'",
        "F.name = '/b.dat'",
        "F.name like '/a*'",
        "F.name like '*.gif'",
        "F.type = 'FILE'",
        "F.name != '/c'",
        "A.name = '/b.dat'",
        "F.NAME = '/a.gif'",
        "F.Version = 0",
        "A.Pnode < 4",
    ];
    const SELECTS: [&str; 8] = [
        "F",
        "A",
        "F.name",
        "A, F.name",
        "count(A)",
        "A.NAME",
        "F.Type, A.type",
        "A.Version",
    ];
    (0usize..3, 0usize..12, 0usize..8, 0usize..11, 0usize..11).prop_map(
        |(class, step, select, p1, p2)| {
            let (class, step, select) = (CLASSES[class], STEPS[step], SELECTS[select]);
            let (p1, p2) = (PREDS[p1], PREDS[p2]);
            // `A` only exists when the second source does; fall back
            // to F-shaped select/predicates otherwise.
            let has_a = !step.is_empty();
            let select = if !has_a && select.contains('A') {
                "F.name"
            } else {
                select
            };
            let mut q = format!("select {select} from Provenance.{class} as F");
            if has_a {
                q.push(' ');
                q.push_str(step);
            }
            let usable = |p: &str| !p.is_empty() && (has_a || !p.starts_with("A."));
            let parts: Vec<&str> = [p1, p2].into_iter().filter(|p| usable(p)).collect();
            if !parts.is_empty() {
                q.push_str(" where ");
                q.push_str(&parts.join(" and "));
            }
            q
        },
    )
}

fn canonical(rs: &ResultSet) -> Vec<String> {
    let mut rows: Vec<String> = rs.rows.iter().map(|row| format!("{row:?}")).collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Planned == naive on every generated (graph, query) pair.
    #[test]
    fn planned_pipeline_matches_naive_evaluator(
        graph in arb_graph(),
        query in arb_query(),
    ) {
        let parsed = pql::parse(&query).unwrap();
        let naive = pql::execute_naive(&parsed, &graph).unwrap();
        let planned = pql::plan::execute(&parsed, &graph).unwrap();
        prop_assert_eq!(&planned.result.columns, &naive.columns);
        if planned.stats.bindings_reordered {
            prop_assert_eq!(canonical(&planned.result), canonical(&naive));
        } else {
            prop_assert_eq!(&planned.result.rows, &naive.rows);
        }
    }

    /// The same query answers identically whether `lookup_attr` is
    /// index-backed or the scan default — the substitution the
    /// planner performs must be invisible.
    #[test]
    fn indexed_and_scan_lookups_agree(
        graph in arb_graph(),
        query in arb_query(),
    ) {
        let mut scan = graph.clone();
        scan.indexed = false;
        let mut indexed = graph;
        indexed.indexed = true;
        let a = pql::query_with_stats(&query, &scan).unwrap();
        let b = pql::query_with_stats(&query, &indexed).unwrap();
        prop_assert_eq!(a.result, b.result);
    }
}
