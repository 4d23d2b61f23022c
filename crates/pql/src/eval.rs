//! The naive PQL evaluator — the semantic reference.
//!
//! Queries run against any [`GraphSource`] — an OEM-style object
//! graph with attributed nodes and labeled, directed edges. The
//! `waldo` crate implements the trait for its provenance database.
//!
//! [`execute`] here is the *naive* evaluator: it materializes the
//! full cartesian expansion of the `from` clause and only then
//! applies `where`. It is kept as the executable specification the
//! planned pipeline ([`crate::plan`]) is differentially tested
//! against; production queries go through [`crate::query`], which
//! plans.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use dpapi::{ObjectRef, Value};

use crate::ast::*;
use crate::plan::{AttrLookup, AttrPredicate, PlanStats};
use crate::PqlError;

/// An edge label in the provenance graph.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum EdgeLabel {
    /// Ancestry (`INPUT` records, including implicit version edges —
    /// "zero or more input relationships" in the paper's sample query
    /// follows these).
    Input,
    /// Only the implicit previous-version edge.
    Version,
    /// PA-links: session → URL visit.
    VisitedUrl,
    /// PA-links: file → its source URL.
    FileUrl,
    /// PA-links: file → page viewed at download time.
    CurrentUrl,
    /// Any ancestry edge of any label.
    Any,
    /// An application-defined label (matched against `Attribute::Other`).
    Named(String),
}

impl EdgeLabel {
    /// Maps a query-text label to an edge label.
    pub fn from_name(name: &str) -> EdgeLabel {
        match name.to_ascii_lowercase().as_str() {
            "input" => EdgeLabel::Input,
            "version" => EdgeLabel::Version,
            "visited_url" => EdgeLabel::VisitedUrl,
            "file_url" => EdgeLabel::FileUrl,
            "current_url" => EdgeLabel::CurrentUrl,
            "any" => EdgeLabel::Any,
            other => EdgeLabel::Named(other.to_ascii_uppercase()),
        }
    }
}

/// The graph interface PQL evaluates over.
pub trait GraphSource {
    /// All members of a class (`file`, `proc`, `pipe`, `session`,
    /// `operator`, `function`, or `obj` for every object).
    ///
    /// **Contract:** the result is sorted ascending. The evaluator
    /// relies on this for deterministic row order instead of
    /// re-sorting every scan.
    fn class_members(&self, class: &str) -> Vec<ObjectRef>;

    /// An attribute of a node. Implementations should also answer the
    /// pseudo-attributes `pnode`, `version` and `volume`.
    fn attr(&self, node: ObjectRef, name: &str) -> Option<Value>;

    /// Edges from `node` toward its ancestors with the given label.
    fn out_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef>;

    /// Edges from `node` toward its descendants with the given label.
    fn in_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef>;

    /// Every node reachable from `node` in one or more hops over
    /// edges matching `label` (`node` itself is excluded; the
    /// provenance graph is acyclic, so it is never re-reached). The
    /// evaluator uses this for `label*`/`label+` path steps; the
    /// default is a plain BFS, and storage backends may override it
    /// with a memoized implementation. The result is sorted.
    fn closure(&self, node: ObjectRef, label: &EdgeLabel, inverse: bool) -> Vec<ObjectRef> {
        let mut seen: HashSet<ObjectRef> = HashSet::new();
        seen.insert(node);
        let mut out: Vec<ObjectRef> = Vec::new();
        let mut frontier = vec![node];
        while let Some(n) = frontier.pop() {
            let next = if inverse {
                self.in_edges(n, label)
            } else {
                self.out_edges(n, label)
            };
            for m in next {
                if seen.insert(m) {
                    out.push(m);
                    frontier.push(m);
                }
            }
        }
        out.sort();
        out
    }

    /// Members of `class` whose attribute `attr` satisfies `pred` —
    /// the planner's pushdown hook ([`crate::plan`]).
    ///
    /// The default is scan-based (class scan plus post-filter,
    /// `indexed = false`), so toy sources keep working untouched.
    /// Storage backends with secondary indexes override it to answer
    /// from the index and report `indexed = true`; the result must
    /// equal the default's — same refs, same (sorted) order — since
    /// the planner substitutes one for the other freely.
    fn lookup_attr(&self, class: &str, attr: &str, pred: &AttrPredicate) -> AttrLookup {
        crate::plan::scan_lookup(self, class, attr, pred)
    }

    /// Approximate member count of `class`, if the backend can answer
    /// it without a scan. Purely a planner-statistics hint (it feeds
    /// the `rows_pruned` / `closure_calls_saved` estimates in
    /// [`PlanStats`]); `None` (the default) just zeroes those
    /// estimates.
    fn class_size(&self, _class: &str) -> Option<usize> {
        None
    }
}

/// One output cell.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum OutValue {
    /// A graph node.
    Node(ObjectRef),
    /// A scalar value.
    Val(Value),
    /// Missing (attribute not present).
    Null,
}

impl OutValue {
    /// The node, if this cell is one.
    pub fn as_node(&self) -> Option<ObjectRef> {
        match self {
            OutValue::Node(r) => Some(*r),
            _ => None,
        }
    }

    /// The string, if this cell holds one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            OutValue::Val(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this cell holds one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            OutValue::Val(Value::Int(i)) => Some(*i),
            _ => None,
        }
    }
}

impl std::fmt::Display for OutValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutValue::Node(r) => write!(f, "{r}"),
            OutValue::Val(v) => write!(f, "{v}"),
            OutValue::Null => write!(f, "null"),
        }
    }
}

/// A query result: named columns and deduplicated rows.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultSet {
    /// Column names (aliases or synthesized).
    pub columns: Vec<String>,
    /// Rows, in first-derivation order, without duplicates.
    pub rows: Vec<Vec<OutValue>>,
}

impl ResultSet {
    /// The nodes of a single-column node result.
    pub fn nodes(&self) -> Vec<ObjectRef> {
        self.rows
            .iter()
            .filter_map(|r| r.first().and_then(|c| c.as_node()))
            .collect()
    }

    /// True if the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }
}

/// The variable bindings of one candidate row, as slots: slot `i`
/// holds the endpoint bound to the `i`-th name of the evaluating
/// [`ExprCtx::vars`] (`None` while unbound). Which binding owns which
/// slot is fixed before the first row exists — `from` order here,
/// planned order in [`crate::plan`] — so binding and unbinding are
/// indexed stores: no name is cloned or hashed per row.
pub(crate) type Row = Vec<Option<ObjectRef>>;

/// Deduplicates output rows without cloning them into a set: a row is
/// hashed once, and the hash maps to the index of the first kept row
/// that produced it. Distinct rows sharing a 64-bit hash — all but
/// never — chain through `overflow`, so a distinct row costs one map
/// insert and no allocation of its own.
#[derive(Default)]
pub(crate) struct RowDedup {
    first: HashMap<u64, usize>,
    /// `(hash, kept index)` of rows whose hash an earlier, different
    /// row already owned.
    overflow: Vec<(u64, usize)>,
}

impl RowDedup {
    /// True if `row` is new among `kept` (and records it, assuming
    /// the caller pushes it onto `kept` next).
    pub(crate) fn is_new(&mut self, kept: &[Vec<OutValue>], row: &[OutValue]) -> bool {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        self.is_new_hashed(kept, row, h.finish())
    }

    /// [`RowDedup::is_new`] with the row's hash supplied — the seam
    /// the forced-collision test drives.
    fn is_new_hashed(&mut self, kept: &[Vec<OutValue>], row: &[OutValue], hash: u64) -> bool {
        let first = *self.first.entry(hash).or_insert(kept.len());
        if first == kept.len() {
            // Nobody owned this hash: it now maps to the slot `row`
            // is about to take.
            return true;
        }
        let seen =
            kept[first] == row || (self.overflow.iter()).any(|&(h, i)| h == hash && kept[i] == row);
        if !seen {
            self.overflow.push((hash, kept.len()));
        }
        !seen
    }
}

/// The output column names a query projects.
pub(crate) fn column_names(query: &Query) -> Vec<String> {
    query
        .select
        .iter()
        .enumerate()
        .map(|(i, s)| {
            s.alias.clone().unwrap_or_else(|| match &s.expr {
                Expr::Var(v) => v.clone(),
                Expr::Attr(v, a) => format!("{v}.{a}"),
                _ => format!("col{i}"),
            })
        })
        .collect()
}

/// What both evaluators require of a `from` clause: unique binding
/// names, and every variable-rooted path rooted at a binding of a
/// *strictly earlier* source (the left-to-right semantics the
/// planner's reordering must preserve).
pub(crate) fn check_bindings(query: &Query) -> Result<(), PqlError> {
    let mut bound: Vec<&str> = Vec::new();
    for source in &query.from {
        if let PathRoot::Var(v) = &source.root {
            if !bound.contains(&v.as_str()) {
                return Err(PqlError::Eval(format!("unbound variable `{v}`")));
            }
        }
        if bound.contains(&source.binding.as_str()) {
            return Err(PqlError::Eval(format!(
                "duplicate binding `{}`",
                source.binding
            )));
        }
        bound.push(&source.binding);
    }
    Ok(())
}

/// Executes a parsed query against a graph, naively: full cartesian
/// `from` expansion, then `where`, then projection. This is the
/// reference evaluator the tests hold the planner to; nothing at run
/// time calls it — [`crate::execute`] plans instead.
pub fn execute(query: &Query, graph: &dyn GraphSource) -> Result<ResultSet, PqlError> {
    check_bindings(query)?;
    let ctx = ExprCtx {
        graph,
        stats: None,
        vars: query.from.iter().map(|s| s.binding.as_str()).collect(),
    };
    let rows = bind_sources(query, &ctx)?;
    let rows = match &query.where_clause {
        Some(cond) => {
            let mut kept = Vec::new();
            for row in rows {
                if truthy(&ctx.eval(cond, &row, None)?) {
                    kept.push(row);
                }
            }
            kept
        }
        None => rows,
    };

    let has_aggregate = query
        .select
        .iter()
        .any(|s| matches!(s.expr, Expr::Aggregate { .. }));

    let columns = column_names(query);
    let mut out_rows: Vec<Vec<OutValue>> = Vec::new();
    let mut dedup = RowDedup::default();
    if has_aggregate {
        let mut row_out = Vec::new();
        for item in &query.select {
            row_out.push(ctx.eval(&item.expr, &[], Some(&rows))?);
        }
        out_rows.push(row_out);
    } else {
        for row in &rows {
            let mut row_out = Vec::new();
            for item in &query.select {
                row_out.push(ctx.eval(&item.expr, row, None)?);
            }
            if dedup.is_new(&out_rows, &row_out) {
                out_rows.push(row_out);
            }
        }
    }
    Ok(ResultSet {
        columns,
        rows: out_rows,
    })
}

/// Expands the `from` clause left to right into bound rows: source
/// `i` binds slot `i`.
fn bind_sources(query: &Query, ctx: &ExprCtx<'_>) -> Result<Vec<Row>, PqlError> {
    let mut rows: Vec<Row> = vec![vec![None; query.from.len()]];
    for (slot, source) in query.from.iter().enumerate() {
        let mut next: Vec<Row> = Vec::new();
        for row in &rows {
            let starts: Vec<ObjectRef> = match &source.root {
                // Sorted by the `class_members` contract.
                PathRoot::Class(c) => ctx.graph.class_members(c),
                PathRoot::Var(v) => vec![ctx.bound(row, v)?],
            };
            for e in walk_steps(&starts, &source.steps, ctx.graph) {
                let mut r = row.clone();
                r[slot] = Some(e);
                next.push(r);
            }
        }
        rows = next;
    }
    Ok(rows)
}

/// Applies a sequence of path steps to a start set.
pub(crate) fn walk_steps(
    starts: &[ObjectRef],
    steps: &[PathStep],
    graph: &dyn GraphSource,
) -> Vec<ObjectRef> {
    let mut current: Vec<ObjectRef> = starts.to_vec();
    for step in steps {
        current = apply_step(&current, step, graph);
    }
    current
}

/// The parsed edge labels of one step, resolved once — `one_hop` used
/// to re-parse the label string for every node × pattern.
fn step_labels(step: &PathStep) -> Vec<(EdgeLabel, bool)> {
    step.edges
        .iter()
        .map(|pat| (EdgeLabel::from_name(&pat.label), pat.inverse))
        .collect()
}

fn one_hop(
    nodes: &[ObjectRef],
    labels: &[(EdgeLabel, bool)],
    graph: &dyn GraphSource,
) -> Vec<ObjectRef> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for &n in nodes {
        for (label, inverse) in labels {
            let next = if *inverse {
                graph.in_edges(n, label)
            } else {
                graph.out_edges(n, label)
            };
            for m in next {
                if seen.insert(m) {
                    out.push(m);
                }
            }
        }
    }
    out
}

fn apply_step(nodes: &[ObjectRef], step: &PathStep, graph: &dyn GraphSource) -> Vec<ObjectRef> {
    let labels = step_labels(step);
    match step.quant {
        Quant::One => one_hop(nodes, &labels, graph),
        Quant::Opt => {
            let mut out: Vec<ObjectRef> = nodes.to_vec();
            let mut seen: HashSet<ObjectRef> = nodes.iter().copied().collect();
            for m in one_hop(nodes, &labels, graph) {
                if seen.insert(m) {
                    out.push(m);
                }
            }
            out
        }
        Quant::Star | Quant::Plus => {
            // Closure. For `*` the start nodes are included; for `+`
            // only nodes reachable in ≥ 1 hops. The common case — a
            // single-pattern step from a single start node, which is
            // what `bind_sources` produces per row — goes through
            // `GraphSource::closure` so backends can memoize whole
            // traversals. Multi-start sets keep the shared BFS: one
            // pass over the union instead of k independent closures.
            let reached: Vec<ObjectRef> =
                if let ([(label, inverse)], [start]) = (labels.as_slice(), nodes) {
                    graph.closure(*start, label, *inverse)
                } else {
                    // Shared BFS over the union of labels and starts.
                    // Start nodes seed `seen` so they are expanded only
                    // once, but — matching the per-node closure
                    // semantics — a start that is *re-reached* from
                    // another start still counts as reachable.
                    let starts: HashSet<ObjectRef> = nodes.iter().copied().collect();
                    let mut seen: HashSet<ObjectRef> = starts.clone();
                    let mut reached_starts: HashSet<ObjectRef> = HashSet::new();
                    let mut frontier: Vec<ObjectRef> = nodes.to_vec();
                    let mut out: Vec<ObjectRef> = Vec::new();
                    while !frontier.is_empty() {
                        let next = one_hop(&frontier, &labels, graph);
                        frontier = Vec::new();
                        for m in next {
                            if seen.insert(m) {
                                out.push(m);
                                frontier.push(m);
                            } else if starts.contains(&m) && reached_starts.insert(m) {
                                out.push(m);
                            }
                        }
                    }
                    out
                };
            match step.quant {
                Quant::Star => {
                    let starts: HashSet<ObjectRef> = nodes.iter().copied().collect();
                    let mut out = nodes.to_vec();
                    out.extend(reached.into_iter().filter(|m| !starts.contains(m)));
                    out
                }
                _ => reached,
            }
        }
    }
}

pub(crate) fn truthy(v: &OutValue) -> bool {
    matches!(v, OutValue::Val(Value::Bool(true)))
}

/// Expression evaluation context, shared by the naive evaluator and
/// the planned pipeline. The only behavioral difference between the
/// two is how sub-queries run: with `stats` attached they go back
/// through the planner (accumulating into the same counters), without
/// it they recurse into the naive [`execute`].
pub(crate) struct ExprCtx<'a> {
    pub graph: &'a dyn GraphSource,
    pub stats: Option<&'a std::cell::RefCell<PlanStats>>,
    /// Binding names in slot order, borrowed from the query: what a
    /// [`Row`]'s slots mean.
    pub vars: Vec<&'a str>,
}

impl ExprCtx<'_> {
    fn subquery(&self, query: &Query) -> Result<ResultSet, PqlError> {
        match self.stats {
            Some(stats) => crate::plan::execute_accum(query, self.graph, stats),
            None => execute(query, self.graph),
        }
    }

    /// The node `var` is bound to in `row`.
    pub(crate) fn bound(
        &self,
        row: &[Option<ObjectRef>],
        var: &str,
    ) -> Result<ObjectRef, PqlError> {
        self.vars
            .iter()
            .zip(row)
            .find_map(|(name, slot)| slot.filter(|_| *name == var))
            .ok_or_else(|| PqlError::Eval(format!("unbound variable `{var}`")))
    }

    pub(crate) fn eval(
        &self,
        expr: &Expr,
        row: &[Option<ObjectRef>],
        all_rows: Option<&[Row]>,
    ) -> Result<OutValue, PqlError> {
        match expr {
            Expr::Lit(Literal::Str(s)) => Ok(OutValue::Val(Value::Str(s.clone()))),
            Expr::Lit(Literal::Int(i)) => Ok(OutValue::Val(Value::Int(*i))),
            Expr::Lit(Literal::Bool(b)) => Ok(OutValue::Val(Value::Bool(*b))),
            Expr::Var(v) => self.bound(row, v).map(OutValue::Node),
            Expr::Attr(v, attr) => Ok(self
                .graph
                .attr(self.bound(row, v)?, attr)
                .map(OutValue::Val)
                .unwrap_or(OutValue::Null)),
            Expr::Not(e) => {
                let v = self.eval(e, row, all_rows)?;
                Ok(OutValue::Val(Value::Bool(!truthy(&v))))
            }
            Expr::Binary { op, lhs, rhs } => {
                if op == "and" {
                    let l = self.eval(lhs, row, all_rows)?;
                    if !truthy(&l) {
                        return Ok(OutValue::Val(Value::Bool(false)));
                    }
                    let r = self.eval(rhs, row, all_rows)?;
                    return Ok(OutValue::Val(Value::Bool(truthy(&r))));
                }
                if op == "or" {
                    let l = self.eval(lhs, row, all_rows)?;
                    if truthy(&l) {
                        return Ok(OutValue::Val(Value::Bool(true)));
                    }
                    let r = self.eval(rhs, row, all_rows)?;
                    return Ok(OutValue::Val(Value::Bool(truthy(&r))));
                }
                let l = self.eval(lhs, row, all_rows)?;
                let r = self.eval(rhs, row, all_rows)?;
                Ok(OutValue::Val(Value::Bool(compare(op, &l, &r)?)))
            }
            Expr::Aggregate { func, arg } => {
                let rows = all_rows.ok_or_else(|| {
                    PqlError::Eval("aggregate outside of select context".to_string())
                })?;
                match func.as_str() {
                    "count" => {
                        let mut distinct = HashSet::new();
                        for row in rows {
                            let v = self.eval(arg, row, None)?;
                            if v != OutValue::Null {
                                distinct.insert(v);
                            }
                        }
                        Ok(OutValue::Val(Value::Int(distinct.len() as i64)))
                    }
                    "min" | "max" => {
                        let mut vals: Vec<i64> = Vec::new();
                        let mut strs: Vec<String> = Vec::new();
                        for row in rows {
                            match self.eval(arg, row, None)? {
                                OutValue::Val(Value::Int(i)) => vals.push(i),
                                OutValue::Val(Value::Str(s)) => strs.push(s),
                                _ => {}
                            }
                        }
                        if !vals.is_empty() {
                            let v = if func == "min" {
                                vals.into_iter().min()
                            } else {
                                vals.into_iter().max()
                            };
                            Ok(OutValue::Val(Value::Int(v.unwrap())))
                        } else if !strs.is_empty() {
                            let v = if func == "min" {
                                strs.into_iter().min()
                            } else {
                                strs.into_iter().max()
                            };
                            Ok(OutValue::Val(Value::Str(v.unwrap())))
                        } else {
                            Ok(OutValue::Null)
                        }
                    }
                    other => Err(PqlError::Eval(format!("unknown aggregate `{other}`"))),
                }
            }
            Expr::InSubquery { expr, query } => {
                let v = self.eval(expr, row, all_rows)?;
                let sub = self.subquery(query)?;
                let found = sub.rows.iter().any(|r| r.first() == Some(&v));
                Ok(OutValue::Val(Value::Bool(found)))
            }
            Expr::Exists(query) => {
                let sub = self.subquery(query)?;
                Ok(OutValue::Val(Value::Bool(!sub.is_empty())))
            }
        }
    }
}

fn compare(op: &str, l: &OutValue, r: &OutValue) -> Result<bool, PqlError> {
    use std::cmp::Ordering;
    if op == "like" {
        let (OutValue::Val(Value::Str(s)), OutValue::Val(Value::Str(pat))) = (l, r) else {
            return Ok(false);
        };
        return Ok(glob_match(pat, s));
    }
    let ord: Option<Ordering> = match (l, r) {
        (OutValue::Node(a), OutValue::Node(b)) => Some(a.cmp(b)),
        (OutValue::Val(Value::Int(a)), OutValue::Val(Value::Int(b))) => Some(a.cmp(b)),
        (OutValue::Val(Value::Str(a)), OutValue::Val(Value::Str(b))) => Some(a.cmp(b)),
        (OutValue::Val(Value::Bool(a)), OutValue::Val(Value::Bool(b))) => Some(a.cmp(b)),
        (OutValue::Null, OutValue::Null) => Some(Ordering::Equal),
        _ => None,
    };
    Ok(match (op, ord) {
        ("=", Some(Ordering::Equal)) => true,
        ("=", _) => false,
        ("!=", Some(Ordering::Equal)) => false,
        ("!=", Some(_)) => true,
        ("!=", None) => true,
        ("<", Some(o)) => o == Ordering::Less,
        ("<=", Some(o)) => o != Ordering::Greater,
        (">", Some(o)) => o == Ordering::Greater,
        (">=", Some(o)) => o != Ordering::Less,
        _ => false,
    })
}

/// Glob matching with `*` (any run) and `?` (any one character).
pub fn glob_match(pattern: &str, text: &str) -> bool {
    fn inner(p: &[char], t: &[char]) -> bool {
        match (p.first(), t.first()) {
            (None, None) => true,
            (Some('*'), _) => inner(&p[1..], t) || (!t.is_empty() && inner(p, &t[1..])),
            (Some('?'), Some(_)) => inner(&p[1..], &t[1..]),
            (Some(c), Some(d)) if c == d => inner(&p[1..], &t[1..]),
            _ => false,
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    inner(&p, &t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpapi::{Pnode, Version, VolumeId};

    fn r(n: u64, v: u32) -> ObjectRef {
        ObjectRef::new(Pnode::new(VolumeId(1), n), Version(v))
    }

    /// A tiny in-memory graph: 1(out.gif) <-input- 2(proc) <-input- 3(in.dat)
    /// with 3 also at version 1 depending on version 0.
    struct TestGraph;

    impl GraphSource for TestGraph {
        fn class_members(&self, class: &str) -> Vec<ObjectRef> {
            match class {
                "file" => vec![r(1, 0), r(3, 0), r(3, 1)],
                "proc" => vec![r(2, 0)],
                "obj" => vec![r(1, 0), r(2, 0), r(3, 0), r(3, 1)],
                _ => vec![],
            }
        }
        fn attr(&self, node: ObjectRef, name: &str) -> Option<Value> {
            match (node.pnode.number, name) {
                (1, "name") => Some(Value::str("out.gif")),
                (2, "name") => Some(Value::str("convert")),
                (3, "name") => Some(Value::str("in.dat")),
                (_, "pnode") => Some(Value::Int(node.pnode.number as i64)),
                (_, "version") => Some(Value::Int(node.version.0 as i64)),
                _ => None,
            }
        }
        fn out_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
            if !matches!(
                label,
                EdgeLabel::Input | EdgeLabel::Any | EdgeLabel::Version
            ) {
                return vec![];
            }
            let version_only = matches!(label, EdgeLabel::Version);
            match (node.pnode.number, node.version.0) {
                (1, 0) if !version_only => vec![r(2, 0)],
                (2, 0) if !version_only => vec![r(3, 1)],
                (3, 1) => vec![r(3, 0)],
                _ => vec![],
            }
        }
        fn in_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
            let all = self.class_members("obj");
            all.into_iter()
                .filter(|n| self.out_edges(*n, label).contains(&node))
                .collect()
        }
    }

    fn run(q: &str) -> ResultSet {
        execute(&crate::parse(q).unwrap(), &TestGraph).unwrap()
    }

    #[test]
    fn paper_style_ancestry_query() {
        let rs = run(
            "select Ancestor from Provenance.file as F F.input* as Ancestor \
             where F.name = 'out.gif'",
        );
        // Closure includes F itself (star), the proc, and both
        // versions of in.dat.
        let nodes = rs.nodes();
        assert!(nodes.contains(&r(1, 0)));
        assert!(nodes.contains(&r(2, 0)));
        assert!(nodes.contains(&r(3, 1)));
        assert!(nodes.contains(&r(3, 0)));
        assert_eq!(nodes.len(), 4);
    }

    #[test]
    fn plus_excludes_start() {
        let rs = run("select A from Provenance.file as F F.input+ as A where F.name = 'out.gif'");
        assert!(!rs.nodes().contains(&r(1, 0)));
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn inverse_edges_find_descendants() {
        let rs = run("select D from Provenance.file as F F.input~* as D where F.name = 'in.dat'");
        // Descendants of either version of in.dat include the proc
        // and out.gif.
        let nodes = rs.nodes();
        assert!(nodes.contains(&r(2, 0)));
        assert!(nodes.contains(&r(1, 0)));
    }

    #[test]
    fn attribute_projection_and_like() {
        let rs = run("select F.name from Provenance.file as F where F.name like '*.gif'");
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0].as_str(), Some("out.gif"));
    }

    #[test]
    fn count_aggregates_distinct() {
        let rs = run(
            "select count(A) as n from Provenance.file as F F.input* as A \
             where F.name = 'out.gif'",
        );
        assert_eq!(rs.rows[0][0].as_int(), Some(4));
        assert_eq!(rs.columns, vec!["n"]);
    }

    #[test]
    fn min_max_over_versions() {
        let rs = run("select min(F.version), max(F.version) from Provenance.file as F");
        assert_eq!(rs.rows[0][0].as_int(), Some(0));
        assert_eq!(rs.rows[0][1].as_int(), Some(1));
    }

    #[test]
    fn subquery_membership() {
        let rs = run("select P from Provenance.proc as P \
             where P.name in (select F.name as n from Provenance.obj as F where F.version = 0)");
        // 'convert' is among version-0 object names.
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn exists_subquery() {
        let rs = run("select F from Provenance.file as F \
             where exists (select P from Provenance.proc as P where P.name = 'convert')");
        assert_eq!(rs.len(), 3);
        let rs = run("select F from Provenance.file as F \
             where exists (select P from Provenance.proc as P where P.name = 'nope')");
        assert!(rs.is_empty());
    }

    #[test]
    fn version_label_walks_only_version_edges() {
        let rs = run("select V from Provenance.file as F F.version as V");
        assert_eq!(rs.nodes(), vec![r(3, 0)]);
    }

    #[test]
    fn results_deduplicate() {
        // Both versions of in.dat reach version 0 — the result
        // mentions it once.
        let rs = run("select A from Provenance.file as F F.version* as A \
                      where F.name = 'in.dat'");
        let count = rs.nodes().iter().filter(|n| **n == r(3, 0)).count();
        assert_eq!(count, 1);
    }

    /// Rows that collide on the full 64-bit hash are still told
    /// apart: the first owns the hash, the rest chain, and a repeat
    /// of any of them — first or chained — is a duplicate.
    #[test]
    fn dedup_survives_a_forced_hash_collision() {
        let row = |n: i64| vec![OutValue::Val(Value::Int(n))];
        let mut dedup = RowDedup::default();
        let mut kept: Vec<Vec<OutValue>> = Vec::new();
        for n in [1, 2, 3, 2, 1, 3, 4] {
            // Every row "hashes" to 7, except row 4.
            let hash = if n == 4 { 8 } else { 7 };
            if dedup.is_new_hashed(&kept, &row(n), hash) {
                kept.push(row(n));
            }
        }
        assert_eq!(kept, [row(1), row(2), row(3), row(4)]);
        assert_eq!(dedup.overflow, [(7, 1), (7, 2)]);
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let q = crate::parse("select X from Y.input as Z").unwrap();
        assert!(execute(&q, &TestGraph).is_err());
    }

    #[test]
    fn glob_matcher() {
        assert!(glob_match("*.gif", "a/b/c.gif"));
        assert!(glob_match("a?c", "abc"));
        assert!(!glob_match("a?c", "ac"));
        assert!(glob_match("*", ""));
        assert!(glob_match("a*b*c", "aXXbYYc"));
        assert!(!glob_match("a*b*c", "aXXbYY"));
    }
}
