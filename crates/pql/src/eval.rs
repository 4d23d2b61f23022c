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

use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::rc::Rc;

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
    /// Maps a query-text label, in any ASCII case, to an edge label.
    /// Only an application label allocates: its canonical upper-case
    /// record name.
    pub fn from_name(name: &str) -> EdgeLabel {
        const KNOWN: [(&str, EdgeLabel); 6] = [
            ("input", EdgeLabel::Input),
            ("version", EdgeLabel::Version),
            ("visited_url", EdgeLabel::VisitedUrl),
            ("file_url", EdgeLabel::FileUrl),
            ("current_url", EdgeLabel::CurrentUrl),
            ("any", EdgeLabel::Any),
        ];
        match KNOWN
            .iter()
            .find(|(known, _)| name.eq_ignore_ascii_case(known))
        {
            Some((_, label)) => label.clone(),
            None => EdgeLabel::Named(name.to_ascii_uppercase()),
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

    /// Appends the cell of `attr(n, name)` for every node of `nodes`,
    /// in order — one column of a projection, which the planner reads
    /// in one call. The default body is compiled for each source, so
    /// the column runs as one loop of direct `attr` calls rather than
    /// one dynamic call per row. An override must answer exactly what
    /// `attr` answers; a store that interns its strings can push them
    /// as shared [`OutValue::Str`] cells instead of copying them.
    fn attr_column(&self, nodes: &[ObjectRef], name: &str, out: &mut Vec<OutValue>) {
        let cell = |n: &ObjectRef| self.attr(*n, name).map_or(OutValue::Null, OutValue::from);
        out.extend(nodes.iter().map(cell));
    }

    /// Edges from `node` toward its ancestors with the given label.
    fn out_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef>;

    /// Edges from `node` toward its descendants with the given label.
    fn in_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef>;

    /// Every node reachable from `node` in one or more hops over
    /// edges matching `label`. `node` itself is excluded even when a
    /// cycle re-reaches it: the paper's versioning should keep the
    /// graph acyclic, but a stored graph can hold a read-after-write
    /// cycle, and then a Waldo store's `ancestors(node)` lists `node`
    /// where `closure(node, Any, false)` does not. The evaluator uses
    /// this for `label*`/`label+` path steps; the default is a plain
    /// BFS, and storage backends may override it with a memoized
    /// implementation. The result is sorted.
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

/// One output cell. A string is an `Rc<str>` — the only string form a
/// cell has, so equal strings are equal cells and hash alike — which a
/// store that interns its strings shares instead of copying.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum OutValue {
    /// A graph node.
    Node(ObjectRef),
    /// A string.
    Str(Rc<str>),
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// A list of strings.
    StrList(Vec<String>),
    /// A cross-reference held as an attribute value.
    Xref(ObjectRef),
    /// Missing (attribute not present).
    Null,
}

impl From<Value> for OutValue {
    /// The one conversion of a value into a cell: literals and
    /// attribute values both come through here.
    fn from(value: Value) -> OutValue {
        match value {
            Value::Str(s) => OutValue::Str(Rc::from(s)),
            Value::Int(i) => OutValue::Int(i),
            Value::Bool(b) => OutValue::Bool(b),
            Value::Bytes(b) => OutValue::Bytes(b),
            Value::StrList(l) => OutValue::StrList(l),
            Value::Xref(r) => OutValue::Xref(r),
        }
    }
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
            OutValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this cell holds one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            OutValue::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl std::fmt::Display for OutValue {
    /// A value cell prints as the [`Value`] it came from.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutValue::Node(r) | OutValue::Xref(r) => write!(f, "{r}"),
            OutValue::Str(s) => write!(f, "{s:?}"),
            OutValue::Int(i) => write!(f, "{i}"),
            OutValue::Bool(b) => write!(f, "{b}"),
            OutValue::Bytes(b) => b.iter().try_for_each(|byte| write!(f, "{byte:02x}")),
            OutValue::StrList(l) => write!(f, "{l:?}"),
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
    pub rows: Rows,
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

/// Rows of equal width in one row-major buffer: a result costs one
/// allocation for its cells, however many rows it has.
#[derive(Clone, PartialEq)]
pub struct Rows {
    cells: Vec<OutValue>,
    width: usize,
    len: usize,
}

impl Rows {
    /// No rows yet, each to be `width` cells wide.
    pub(crate) fn new(width: usize) -> Rows {
        Rows {
            cells: Vec::new(),
            width,
            len: 0,
        }
    }

    /// Room for `rows` more rows.
    pub(crate) fn reserve(&mut self, rows: usize) {
        self.cells.reserve(rows * self.width);
    }

    /// Writes a row's cells after the last row, not yet counted as
    /// one, and returns where they start.
    fn stage(&mut self, cells: impl IntoIterator<Item = OutValue>) -> usize {
        let start = self.len * self.width;
        self.cells.extend(cells);
        let width = self.cells.len() - start;
        assert_eq!(width, self.width, "a row is as wide as its result");
        start
    }

    /// Appends the row made of `cells`.
    pub(crate) fn push(&mut self, cells: impl IntoIterator<Item = OutValue>) {
        self.stage(cells);
        self.len += 1;
    }

    /// Appends the row made of `cells` unless `dedup` has seen it. The
    /// cells go straight into the buffer and are cut off again if the
    /// row is a duplicate, so no row is assembled anywhere else.
    pub(crate) fn push_distinct(
        &mut self,
        cells: impl IntoIterator<Item = OutValue>,
        dedup: &mut RowDedup,
    ) {
        let start = self.stage(cells);
        if dedup.is_new(self, &self.cells[start..]) {
            self.len += 1;
        } else {
            self.cells.truncate(start);
        }
    }

    /// The rows, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[OutValue]> + '_ {
        (0..self.len).map(move |i| &self[i])
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Index<usize> for Rows {
    type Output = [OutValue];

    /// Row `i`. Panics if there is no such row.
    fn index(&self, i: usize) -> &[OutValue] {
        assert!(i < self.len, "row {i} of {}", self.len);
        &self.cells[i * self.width..(i + 1) * self.width]
    }
}

impl std::fmt::Debug for Rows {
    /// A list of rows, as the `Vec` of rows this replaced printed.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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
    /// Keys the row digest; fresh random keys per query.
    state: RandomState,
    /// Keyed by the digest itself ([`Digest`]): the key is already a
    /// keyed hash, so hashing it a second time would buy nothing.
    first: HashMap<u64, usize, BuildHasherDefault<Digest>>,
    /// `(hash, kept index)` of rows whose hash an earlier, different
    /// row already owned.
    overflow: Vec<(u64, usize)>,
}

/// The map hasher of [`RowDedup`]: a `u64` key hashes to itself. Safe
/// only because every key is a [`RandomState`] digest, which no input
/// can steer toward a collision without knowing the per-query keys.
#[derive(Default)]
struct Digest(u64);

impl Hasher for Digest {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = (bytes.iter()).fold(self.0, |h, &b| h.rotate_left(8) ^ u64::from(b));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

impl RowDedup {
    /// Room for `additional` more distinct rows without rehashing.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.first.reserve(additional);
    }

    /// True if `row` is new among `kept` (and records it, assuming
    /// the caller pushes it onto `kept` next).
    pub(crate) fn is_new(&mut self, kept: &Rows, row: &[OutValue]) -> bool {
        self.is_new_hashed(kept, row, self.state.hash_one(row))
    }

    /// [`RowDedup::is_new`] with the row's hash supplied — the seam
    /// the forced-collision test drives.
    fn is_new_hashed(&mut self, kept: &Rows, row: &[OutValue], hash: u64) -> bool {
        let first = *self.first.entry(hash).or_insert(kept.len());
        if first == kept.len() {
            // Nobody owned this hash: it now maps to the slot `row`
            // is about to take.
            return true;
        }
        let seen = &kept[first] == row
            || (self.overflow.iter()).any(|&(h, i)| h == hash && &kept[i] == row);
        if !seen {
            self.overflow.push((hash, kept.len()));
        }
        !seen
    }
}

/// The output column names a query projects.
pub(crate) fn column_names(query: &Query<'_>) -> Vec<String> {
    query
        .select
        .iter()
        .enumerate()
        .map(|(i, s)| match (s.alias, &s.expr) {
            (Some(alias), _) | (None, &Expr::Var(alias)) => alias.to_string(),
            (None, Expr::Attr(v, a)) => [*v, ".", *a].concat(),
            (None, _) => format!("col{i}"),
        })
        .collect()
}

/// What both evaluators require of a `from` clause: unique binding
/// names, and every variable-rooted path rooted at a binding of a
/// *strictly earlier* source (the left-to-right semantics the
/// planner's reordering must preserve).
pub(crate) fn check_bindings(query: &Query<'_>) -> Result<(), PqlError> {
    for (i, source) in query.from.iter().enumerate() {
        let earlier = &query.from[..i];
        let bound = |name: &str| earlier.iter().any(|s| s.binding == name);
        if let PathRoot::Var(v) = source.root {
            if !bound(v) {
                return Err(PqlError::Eval(format!("unbound variable `{v}`")));
            }
        }
        if bound(source.binding) {
            return Err(PqlError::Eval(format!(
                "duplicate binding `{}`",
                source.binding
            )));
        }
    }
    Ok(())
}

/// Executes a parsed query against a graph, naively: full cartesian
/// `from` expansion, then `where`, then projection. This is the
/// reference evaluator the tests hold the planner to; nothing at run
/// time calls it — [`crate::execute`] plans instead.
pub fn execute(query: &Query<'_>, graph: &dyn GraphSource) -> Result<ResultSet, PqlError> {
    check_bindings(query)?;
    let slot_of = |var: &str| query.from.iter().position(|s| s.binding == var);
    let ctx = ExprCtx::new(graph, None, &slot_of);
    let mut rows = bind_sources(query, &ctx)?;
    if let Some(cond) = &query.where_clause {
        // Filtered in place: the survivors keep their order and the
        // bound rows' buffer.
        let mut kept = 0;
        for i in 0..rows.len() {
            if truthy(&ctx.eval(cond, &rows[i], None)?) {
                rows.swap(kept, i);
                kept += 1;
            }
        }
        rows.truncate(kept);
    }

    let has_aggregate = query
        .select
        .iter()
        .any(|s| matches!(s.expr, Expr::Aggregate { .. }));

    let columns = column_names(query);
    let mut out_rows = Rows::new(query.select.len());
    let mut dedup = RowDedup::default();
    let mut row_out = Vec::with_capacity(query.select.len());
    if has_aggregate {
        for item in &query.select {
            row_out.push(ctx.eval(&item.expr, &[], Some(&rows))?);
        }
        out_rows.push(row_out);
    } else {
        for row in &rows {
            for item in &query.select {
                row_out.push(ctx.eval(&item.expr, row, None)?);
            }
            out_rows.push_distinct(row_out.drain(..), &mut dedup);
        }
    }
    Ok(ResultSet {
        columns,
        rows: out_rows,
    })
}

/// Expands the `from` clause left to right into bound rows: source
/// `i` binds slot `i`.
fn bind_sources(query: &Query<'_>, ctx: &ExprCtx<'_>) -> Result<Vec<Row>, PqlError> {
    let mut rows: Vec<Row> = vec![vec![None; query.from.len()]];
    for (slot, source) in query.from.iter().enumerate() {
        let mut next: Vec<Row> = Vec::new();
        for row in &rows {
            let starts: Vec<ObjectRef> = match source.root {
                // Sorted by the `class_members` contract.
                PathRoot::Class(c) => ctx.graph.class_members(c),
                PathRoot::Var(v) => vec![ctx.bound(row, v)?],
            };
            for e in walk_steps(&starts, &source.steps, ctx.graph).into_vec() {
                let mut r = row.clone();
                r[slot] = Some(e);
                next.push(r);
            }
        }
        rows = next;
    }
    Ok(rows)
}

/// A path's endpoints, in order: `head`, then `tail`. A `*` step from
/// one start keeps that start as the head, so the closure a store
/// handed out becomes the tail as it is, not shifted one place to
/// make room.
pub(crate) struct Endpoints {
    pub head: Option<ObjectRef>,
    pub tail: Vec<ObjectRef>,
}

impl Endpoints {
    /// The endpoints in one `Vec`.
    pub(crate) fn into_vec(self) -> Vec<ObjectRef> {
        let mut out = self.tail;
        if let Some(head) = self.head {
            out.insert(0, head);
        }
        out
    }
}

impl From<Vec<ObjectRef>> for Endpoints {
    fn from(tail: Vec<ObjectRef>) -> Endpoints {
        Endpoints { head: None, tail }
    }
}

/// Applies a sequence of path steps to a start set.
pub(crate) fn walk_steps(
    starts: &[ObjectRef],
    steps: &[PathStep],
    graph: &dyn GraphSource,
) -> Endpoints {
    let Some((last, init)) = steps.split_last() else {
        return starts.to_vec().into();
    };
    let mut current = None;
    for step in init {
        let nodes = current.as_deref().unwrap_or(starts);
        current = Some(apply_step(nodes, step, graph).into_vec());
    }
    apply_step(current.as_deref().unwrap_or(starts), last, graph)
}

fn one_hop(nodes: &[ObjectRef], edges: &[EdgePattern], graph: &dyn GraphSource) -> Vec<ObjectRef> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for &n in nodes {
        for EdgePattern { label, inverse } in edges {
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

fn apply_step(nodes: &[ObjectRef], step: &PathStep, graph: &dyn GraphSource) -> Endpoints {
    let labels = step.edges.as_slice();
    match step.quant {
        Quant::One => one_hop(nodes, labels, graph).into(),
        Quant::Opt => {
            let mut out: Vec<ObjectRef> = nodes.to_vec();
            let mut seen: HashSet<ObjectRef> = nodes.iter().copied().collect();
            for m in one_hop(nodes, labels, graph) {
                if seen.insert(m) {
                    out.push(m);
                }
            }
            out.into()
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
                if let ([EdgePattern { label, inverse }], [start]) = (labels, nodes) {
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
                        let next = one_hop(&frontier, labels, graph);
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
            // `*` puts the starts first. `reached` is filtered even for
            // one start: a backend's `closure` may return its start,
            // and a store holding a cycle re-reaches it. One start
            // becomes the head, so the closure is neither copied nor
            // shifted.
            match (step.quant, nodes) {
                (Quant::Star, [start]) => {
                    let mut tail = reached;
                    tail.retain(|m| m != start);
                    Endpoints {
                        head: Some(*start),
                        tail,
                    }
                }
                (Quant::Star, _) => {
                    let starts: HashSet<ObjectRef> = nodes.iter().copied().collect();
                    let mut out = nodes.to_vec();
                    out.extend(reached.into_iter().filter(|m| !starts.contains(m)));
                    out.into()
                }
                _ => reached.into(),
            }
        }
    }
}

pub(crate) fn truthy(v: &OutValue) -> bool {
    matches!(v, OutValue::Bool(true))
}

/// The value a literal denotes.
pub(crate) fn literal_value(lit: &Literal<'_>) -> Value {
    match lit {
        Literal::Str(s) => Value::Str(s.to_string()),
        Literal::Int(i) => Value::Int(*i),
        Literal::Bool(b) => Value::Bool(*b),
    }
}

/// Expression evaluation context, shared by the naive evaluator and
/// the planned pipeline. The only behavioral difference between the
/// two is how sub-queries run: with `stats` attached they go back
/// through the planner (accumulating into the same counters), without
/// it they recurse into the naive [`execute`].
///
/// Evaluating a row allocates nothing of its own: an attribute is
/// read as the store's shared cell, and a string literal becomes a
/// cell once per query, which every row then shares.
pub(crate) struct ExprCtx<'a> {
    pub graph: &'a dyn GraphSource,
    pub stats: Option<&'a std::cell::RefCell<PlanStats>>,
    /// The slot of a [`Row`] a binding name occupies: `from` order in
    /// the naive evaluator, planned order in [`crate::plan`].
    slot_of: &'a dyn Fn(&str) -> Option<usize>,
    /// The cells of the string literals evaluated so far, each keyed
    /// by its literal's place in the query.
    literals: RefCell<Vec<(&'a Literal<'a>, OutValue)>>,
    /// The buffer an attribute cell is read into, reused row to row.
    cell: RefCell<Vec<OutValue>>,
    /// The first cells of each `in (select …)` sub-query's answer,
    /// keyed by its place in the query. A sub-query cannot see the
    /// outer row, so it runs once per execution however many rows test
    /// it.
    subqueries: RefCell<Vec<(&'a Query<'a>, HashSet<OutValue>)>>,
}

impl<'a> ExprCtx<'a> {
    pub(crate) fn new(
        graph: &'a dyn GraphSource,
        stats: Option<&'a std::cell::RefCell<PlanStats>>,
        slot_of: &'a dyn Fn(&str) -> Option<usize>,
    ) -> ExprCtx<'a> {
        ExprCtx {
            graph,
            stats,
            slot_of,
            literals: RefCell::default(),
            cell: RefCell::default(),
            subqueries: RefCell::default(),
        }
    }

    fn subquery(&self, query: &Query<'_>) -> Result<ResultSet, PqlError> {
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
        (self.slot_of)(var)
            .and_then(|slot| row.get(slot).copied().flatten())
            .ok_or_else(|| PqlError::Eval(format!("unbound variable `{var}`")))
    }

    /// The cell of a literal: a string's is made on first use and
    /// shared after.
    fn literal(&self, lit: &'a Literal<'a>) -> OutValue {
        let Literal::Str(s) = lit else {
            return OutValue::from(literal_value(lit));
        };
        let mut literals = self.literals.borrow_mut();
        if let Some((_, cell)) = literals.iter().find(|(at, _)| std::ptr::eq(*at, lit)) {
            return cell.clone();
        }
        let cell = OutValue::Str(Rc::from(&**s));
        literals.push((lit, cell.clone()));
        cell
    }

    /// `var.name` on `row`, read as one cell of a column: a string is
    /// the store's shared one, not a copy.
    fn attr(&self, row: &[Option<ObjectRef>], var: &str, name: &str) -> Result<OutValue, PqlError> {
        let node = self.bound(row, var)?;
        let mut cell = self.cell.borrow_mut();
        self.graph.attr_column(&[node], name, &mut cell);
        Ok(cell.pop().unwrap_or(OutValue::Null))
    }

    pub(crate) fn eval(
        &self,
        expr: &'a Expr<'a>,
        row: &[Option<ObjectRef>],
        all_rows: Option<&[Row]>,
    ) -> Result<OutValue, PqlError> {
        match expr {
            Expr::Lit(lit) => Ok(self.literal(lit)),
            Expr::Var(v) => self.bound(row, v).map(OutValue::Node),
            Expr::Attr(v, attr) => self.attr(row, v, attr),
            Expr::Not(e) => {
                let v = self.eval(e, row, all_rows)?;
                Ok(OutValue::Bool(!truthy(&v)))
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs, row, all_rows)?;
                let short = match op {
                    BinOp::And => (!truthy(&l)).then_some(false),
                    BinOp::Or => truthy(&l).then_some(true),
                    _ => None,
                };
                if let Some(short) = short {
                    return Ok(OutValue::Bool(short));
                }
                let r = self.eval(rhs, row, all_rows)?;
                Ok(OutValue::Bool(match op {
                    BinOp::And | BinOp::Or => truthy(&r),
                    _ => compare(*op, &l, &r),
                }))
            }
            Expr::Aggregate { func, arg } => {
                let rows = all_rows.ok_or_else(|| {
                    PqlError::Eval("aggregate outside of select context".to_string())
                })?;
                match func {
                    AggFunc::Count => {
                        let mut distinct = HashSet::new();
                        for row in rows {
                            let v = self.eval(arg, row, None)?;
                            if v != OutValue::Null {
                                distinct.insert(v);
                            }
                        }
                        Ok(OutValue::Int(distinct.len() as i64))
                    }
                    AggFunc::Min | AggFunc::Max => {
                        let mut vals: Vec<i64> = Vec::new();
                        let mut strs: Vec<Rc<str>> = Vec::new();
                        for row in rows {
                            match self.eval(arg, row, None)? {
                                OutValue::Int(i) => vals.push(i),
                                OutValue::Str(s) => strs.push(s),
                                _ => {}
                            }
                        }
                        let min = *func == AggFunc::Min;
                        if !vals.is_empty() {
                            let v = if min {
                                vals.into_iter().min()
                            } else {
                                vals.into_iter().max()
                            };
                            Ok(OutValue::Int(v.unwrap()))
                        } else if !strs.is_empty() {
                            let v = if min {
                                strs.into_iter().min()
                            } else {
                                strs.into_iter().max()
                            };
                            Ok(OutValue::Str(v.unwrap()))
                        } else {
                            Ok(OutValue::Null)
                        }
                    }
                }
            }
            Expr::InSubquery { expr, query } => {
                let v = self.eval(expr, row, all_rows)?;
                let known = self.subqueries.borrow();
                if let Some((_, cells)) = known.iter().find(|(at, _)| std::ptr::eq(*at, &**query)) {
                    return Ok(OutValue::Bool(cells.contains(&v)));
                }
                drop(known);
                let sub = self.subquery(query)?;
                let cells: HashSet<OutValue> =
                    sub.rows.iter().filter_map(|r| r.first().cloned()).collect();
                let found = cells.contains(&v);
                self.subqueries.borrow_mut().push((&**query, cells));
                Ok(OutValue::Bool(found))
            }
            Expr::Exists(query) => {
                let sub = self.subquery(query)?;
                Ok(OutValue::Bool(!sub.is_empty()))
            }
        }
    }
}

/// What comparison `op` (any operator but `and` and `or`) says of two
/// cells.
fn compare(op: BinOp, l: &OutValue, r: &OutValue) -> bool {
    use std::cmp::Ordering;
    if op == BinOp::Like {
        let (OutValue::Str(s), OutValue::Str(pat)) = (l, r) else {
            return false;
        };
        return glob_match(pat, s);
    }
    let ord: Option<Ordering> = match (l, r) {
        (OutValue::Node(a), OutValue::Node(b)) => Some(a.cmp(b)),
        (OutValue::Int(a), OutValue::Int(b)) => Some(a.cmp(b)),
        (OutValue::Str(a), OutValue::Str(b)) => Some(a.cmp(b)),
        (OutValue::Bool(a), OutValue::Bool(b)) => Some(a.cmp(b)),
        (OutValue::Null, OutValue::Null) => Some(Ordering::Equal),
        _ => None,
    };
    match (op, ord) {
        (BinOp::Eq, Some(o)) => o == Ordering::Equal,
        (BinOp::Ne, Some(o)) => o != Ordering::Equal,
        (BinOp::Ne, None) => true,
        (BinOp::Lt, Some(o)) => o == Ordering::Less,
        (BinOp::Le, Some(o)) => o != Ordering::Greater,
        (BinOp::Gt, Some(o)) => o == Ordering::Greater,
        (BinOp::Ge, Some(o)) => o != Ordering::Less,
        _ => false,
    }
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
        let row = |n: i64| vec![OutValue::Int(n)];
        let mut dedup = RowDedup::default();
        let mut kept = Rows::new(1);
        for n in [1, 2, 3, 2, 1, 3, 4] {
            // Every row "hashes" to 7, except row 4.
            let hash = if n == 4 { 8 } else { 7 };
            if dedup.is_new_hashed(&kept, &row(n), hash) {
                kept.push(row(n));
            }
        }
        let kept: Vec<&[OutValue]> = kept.iter().collect();
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
