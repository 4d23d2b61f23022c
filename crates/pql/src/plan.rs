//! The PQL query planner: predicate pushdown, binding reorder and a
//! streaming execution pipeline.
//!
//! The naive evaluator ([`crate::eval::execute`]) materializes the
//! full cartesian expansion of every `from` source and only then
//! applies `where` — the paper's flagship §5.7 query pays a full
//! volume scan (and one ancestry closure per candidate) to select a
//! single file by name. This module compiles the same AST into a
//! logical plan that:
//!
//! 1. **extracts sargable predicates** — top-level `where` conjuncts
//!    of the shape `Var.attr = literal` or `Var.attr like 'prefix*'`
//!    whose variable is bound by a step-less class source — and
//!    pushes them into the binding through
//!    [`GraphSource::lookup_attr`] (index-backed in Waldo, scan-based
//!    by default, so any toy source keeps working);
//! 2. **reorders `from` bindings** by estimated selectivity:
//!    indexed-lookup sources first, plain class scans next, closure
//!    walks last — constrained so a path rooted at a variable always
//!    runs after the source that binds it;
//! 3. **streams** rows through *binding → filter → project* instead
//!    of materializing the product: every remaining conjunct is
//!    applied as soon as the bindings it mentions exist, so a row
//!    that fails a filter never fans out through later sources.
//!
//! # Fidelity to the naive evaluator
//!
//! The planned pipeline returns the same rows, the same columns and
//! the same deduplication as the naive evaluator (a property test
//! holds the two equal over randomized graphs and queries). Row
//! *order* is also identical whenever the planner keeps the written
//! binding order; when it reorders sources, rows come out in the
//! planned nested-loop order — the same set, possibly permuted
//! ([`PlanStats::bindings_reordered`] reports this). Queries neither
//! evaluator can order soundly (duplicate binding names, a path
//! rooted at a variable no earlier source binds) are rejected by both
//! with the same [`PqlError::Eval`]. Nothing at run time calls the
//! naive evaluator; it is the reference the tests compare against.
//!
//! Like any SQL planner, pushdown can change *which* conjunct
//! rejects a row first, so an evaluation error in a later conjunct
//! (e.g. a malformed sub-query) may surface for rows the naive
//! left-to-right short-circuit would have rejected earlier.

use std::cell::RefCell;

use dpapi::{ObjectRef, Value};

use crate::ast::*;
use crate::eval::{
    check_bindings, column_names, literal_value, truthy, walk_steps, ExprCtx, GraphSource,
    OutValue, ResultSet, Row, RowDedup, Rows,
};
use crate::PqlError;

/// A sargable predicate a planner pushes into a binding.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrPredicate {
    /// Attribute equals this value exactly.
    Eq(Value),
    /// Attribute is a string starting with this literal prefix
    /// (compiled from a `like 'prefix*'` pattern whose only
    /// metacharacter is the single trailing `*`).
    LikePrefix(String),
}

impl AttrPredicate {
    /// Whether an attribute value (or its absence) satisfies the
    /// predicate — exactly the semantics of the `where` comparison it
    /// was compiled from: a missing attribute never matches, `=`
    /// requires same type and value, a prefix pattern only matches
    /// strings.
    pub fn matches(&self, value: Option<&Value>) -> bool {
        match (self, value) {
            (AttrPredicate::Eq(want), Some(got)) => want == got,
            (AttrPredicate::LikePrefix(prefix), Some(Value::Str(s))) => s.starts_with(prefix),
            _ => false,
        }
    }
}

/// The result of a pushed-down attribute lookup.
#[derive(Clone, Debug, PartialEq)]
pub struct AttrLookup {
    /// Matching class members, sorted ascending (same order a
    /// filtered class scan would produce).
    pub nodes: Vec<ObjectRef>,
    /// True when a secondary index answered; false for the scan-based
    /// default. Purely informational — feeds [`PlanStats`].
    pub indexed: bool,
}

/// Planner / execution counters for one query (or, accumulated, for a
/// daemon's lifetime — see `Waldo::query`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Root bindings resolved through a backend index
    /// ([`AttrLookup::indexed`]).
    pub index_hits: u64,
    /// Root bindings resolved by a class scan (no pushdown, or the
    /// backend had no usable index).
    pub scan_bindings: u64,
    /// Sargable `where` conjuncts pushed into bindings.
    pub predicates_pushed: u64,
    /// Candidate rows eliminated before projection: root candidates
    /// pruned by pushdown (when the backend reports a class size)
    /// plus rows rejected by early filters.
    pub rows_pruned: u64,
    /// Estimated closure walks avoided: root candidates pruned by
    /// pushdown × closure-quantified sources rooted at that binding.
    pub closure_calls_saved: u64,
    /// True when the planner changed the written binding order (row
    /// order then follows the planned order).
    pub bindings_reordered: bool,
    /// Always 0: nothing falls back to the naive evaluator. The field
    /// stays because the frozen ledger reads it by name (ROADMAP
    /// item 1).
    pub naive_fallbacks: u64,
}

impl provscope::MetricSource for PlanStats {
    fn record(&self, out: &mut dyn FnMut(&str, u64)) {
        out("index_hits", self.index_hits);
        out("scan_bindings", self.scan_bindings);
        out("predicates_pushed", self.predicates_pushed);
        out("rows_pruned", self.rows_pruned);
        out("closure_calls_saved", self.closure_calls_saved);
        out("bindings_reordered", u64::from(self.bindings_reordered));
        out("naive_fallbacks", self.naive_fallbacks);
    }
}

impl PlanStats {
    /// Folds another query's counters into these (daemon-lifetime
    /// accumulation).
    pub fn absorb(&mut self, other: &PlanStats) {
        self.index_hits += other.index_hits;
        self.scan_bindings += other.scan_bindings;
        self.predicates_pushed += other.predicates_pushed;
        self.rows_pruned += other.rows_pruned;
        self.closure_calls_saved += other.closure_calls_saved;
        self.bindings_reordered |= other.bindings_reordered;
        self.naive_fallbacks += other.naive_fallbacks;
    }
}

impl std::ops::AddAssign for PlanStats {
    /// Operator form of [`PlanStats::absorb`], so counter structs that
    /// embed these (e.g. Waldo's `QueryOps`) can aggregate with `+=`
    /// and `Iterator::sum`.
    fn add_assign(&mut self, other: PlanStats) {
        self.absorb(&other);
    }
}

impl std::iter::Sum for PlanStats {
    fn sum<I: Iterator<Item = PlanStats>>(iter: I) -> PlanStats {
        iter.fold(PlanStats::default(), |mut acc, s| {
            acc += s;
            acc
        })
    }
}

/// The scan-based [`GraphSource::lookup_attr`] behavior as a free
/// helper: class scan plus post-filter, `indexed = false`. This is
/// the single copy of the scan semantics — the trait default calls
/// it, and index-backed overrides fall back to it for predicates
/// their indexes cannot answer, so the two can never drift apart.
pub fn scan_lookup<G: GraphSource + ?Sized>(
    graph: &G,
    class: &str,
    attr: &str,
    pred: &AttrPredicate,
) -> AttrLookup {
    let nodes = graph
        .class_members(class)
        .into_iter()
        .filter(|n| pred.matches(graph.attr(*n, attr).as_ref()))
        .collect();
    AttrLookup {
        nodes,
        indexed: false,
    }
}

/// A query result with the planner counters that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOutput {
    /// The rows.
    pub result: ResultSet,
    /// What the planner did to get them.
    pub stats: PlanStats,
}

/// One binding in planned execution order.
struct BindingStep<'q> {
    source: &'q Source<'q>,
    /// The source's position in the written `from` clause.
    written: usize,
    /// Pushed predicate: `(attribute name, predicate)`. Only for
    /// step-less class roots; the originating conjunct is consumed.
    pushed: Option<(&'q str, AttrPredicate)>,
    /// For a variable root, the planned step that binds it: the path
    /// is walked per row from the node in that slot.
    root_slot: Option<usize>,
    /// A class root's candidates. Class-rooted paths are
    /// row-independent, so their lookup or scan and step walk resolve
    /// once — but only when the first row reaches the step, so an
    /// earlier binding that produces zero rows costs later sources
    /// nothing (the naive evaluator also does no work for sources past
    /// an empty row set). Taken out while the step's rows run.
    candidates: RefCell<Option<Vec<ObjectRef>>>,
}

impl BindingStep<'_> {
    fn has_closure(&self) -> bool {
        self.source
            .steps
            .iter()
            .any(|s| matches!(s.quant, Quant::Star | Quant::Plus))
    }

    /// The greedy order's key: pushed-index candidates first, plain
    /// class roots next, closure walks last; fewer steps, then the
    /// written order, break ties.
    fn rank(&self) -> (bool, bool, usize, usize) {
        let steps = self.source.steps.len();
        (
            self.pushed.is_none(),
            self.has_closure(),
            steps,
            self.written,
        )
    }
}

/// A residual `where` conjunct scheduled at the earliest binding step
/// where every variable it mentions is bound.
struct Filter<'q> {
    expr: &'q Expr<'q>,
    /// The planned step after which the conjunct runs.
    at: usize,
    /// Memoized outcome for conjuncts that mention no binding at all
    /// (they are row-independent, but must still only be evaluated if
    /// some row reaches them — matching the naive evaluator, which
    /// never evaluates `where` over an empty row set).
    memo: Option<RefCell<Option<Result<bool, PqlError>>>>,
}

struct CompiledPlan<'q> {
    steps: Vec<BindingStep<'q>>,
    /// Every residual conjunct, each with the step it runs after.
    /// Empty with no sources at all: the executor then applies the
    /// whole `where` to the single empty row.
    filters: Vec<Filter<'q>>,
    reordered: bool,
}

impl CompiledPlan<'_> {
    /// The filters scheduled after planned step `i`.
    fn filters_at(&self, i: usize) -> impl Iterator<Item = &Filter<'_>> {
        self.filters.iter().filter(move |f| f.at == i)
    }
}

/// Parses and executes `text` with the planner, returning rows plus
/// planner statistics.
pub fn query_with_stats(text: &str, graph: &dyn GraphSource) -> Result<QueryOutput, PqlError> {
    execute(&crate::parse(text)?, graph)
}

/// [`query_with_stats`] with span tracing: the planner pipeline's
/// plan / bind / filter / project stages record spans in `scope`.
/// PQL evaluation never advances the virtual clock, so these spans
/// carry *structure* (what ran, in what nesting) with zero virtual
/// duration — consistent with the cost model, which charges queries
/// nothing.
pub fn query_traced(
    text: &str,
    graph: &dyn GraphSource,
    scope: &provscope::Scope,
) -> Result<QueryOutput, PqlError> {
    execute_traced(&crate::parse(text)?, graph, scope)
}

/// Executes a parsed query through the planned pipeline.
pub fn execute(query: &Query<'_>, graph: &dyn GraphSource) -> Result<QueryOutput, PqlError> {
    execute_traced(query, graph, &provscope::Scope::disabled())
}

/// [`execute`] with span tracing (see [`query_traced`]).
pub fn execute_traced(
    query: &Query<'_>,
    graph: &dyn GraphSource,
    scope: &provscope::Scope,
) -> Result<QueryOutput, PqlError> {
    let stats = RefCell::new(PlanStats::default());
    let result = execute_accum_traced(query, graph, &stats, scope)?;
    Ok(QueryOutput {
        result,
        stats: stats.into_inner(),
    })
}

/// Planned execution accumulating into shared counters (used for
/// sub-queries, whose planner work folds into the parent's stats).
pub(crate) fn execute_accum(
    query: &Query<'_>,
    graph: &dyn GraphSource,
    stats: &RefCell<PlanStats>,
) -> Result<ResultSet, PqlError> {
    execute_accum_traced(query, graph, stats, &provscope::Scope::disabled())
}

fn execute_accum_traced(
    query: &Query<'_>,
    graph: &dyn GraphSource,
    stats: &RefCell<PlanStats>,
    scope: &provscope::Scope,
) -> Result<ResultSet, PqlError> {
    let span = scope.open("pql", "plan");
    let compiled = compile(query);
    scope.close(span);
    run(query, &compiled?, graph, stats, scope)
}

// ---- compilation ----------------------------------------------------------
//
// A query has a handful of bindings and conjuncts, so compilation finds
// them by scanning slices: no map or set is built per query.

/// Calls `f` on each top-level conjunct of an expression.
fn for_each_conjunct<'q>(expr: &'q Expr<'q>, f: &mut impl FnMut(&'q Expr<'q>)) {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            for_each_conjunct(lhs, f);
            for_each_conjunct(rhs, f);
        }
        _ => f(expr),
    }
}

/// Calls `f` on every variable an expression mentions. Sub-query
/// interiors are skipped: PQL sub-queries are uncorrelated (their own
/// scope), only the tested expression of `in (…)` sees the outer row.
fn for_each_var<'q>(expr: &Expr<'q>, f: &mut impl FnMut(&'q str)) {
    match expr {
        Expr::Var(v) | Expr::Attr(v, _) => f(v),
        Expr::Not(e) | Expr::Aggregate { arg: e, .. } => for_each_var(e, f),
        Expr::Binary { lhs, rhs, .. } => {
            for_each_var(lhs, f);
            for_each_var(rhs, f);
        }
        Expr::InSubquery { expr, .. } => for_each_var(expr, f),
        Expr::Lit(_) | Expr::Exists(_) => {}
    }
}

/// The literal prefix of a `like` pattern whose only metacharacter is
/// one trailing `*` (`'/data/*'` → `/data/`); `None` for anything a
/// prefix range cannot answer.
fn like_prefix(pattern: &str) -> Option<&str> {
    let prefix = pattern.strip_suffix('*')?;
    (!prefix.is_empty() && !prefix.contains(['*', '?'])).then_some(prefix)
}

/// `(variable, attribute, predicate)` if this conjunct is sargable.
fn sargable<'q>(expr: &'q Expr<'q>) -> Option<(&'q str, &'q str, AttrPredicate)> {
    let Expr::Binary { op, lhs, rhs } = expr else {
        return None;
    };
    match (op, lhs.as_ref(), rhs.as_ref()) {
        (BinOp::Eq, Expr::Attr(v, a), Expr::Lit(l))
        | (BinOp::Eq, Expr::Lit(l), Expr::Attr(v, a)) => {
            Some((v, a, AttrPredicate::Eq(literal_value(l))))
        }
        (BinOp::Like, Expr::Attr(v, a), Expr::Lit(Literal::Str(pat))) => {
            let prefix = like_prefix(pat)?.to_string();
            Some((v, a, AttrPredicate::LikePrefix(prefix)))
        }
        _ => None,
    }
}

/// Compiles a query, or says why its binding structure is irregular.
fn compile<'q>(query: &'q Query<'q>) -> Result<CompiledPlan<'q>, PqlError> {
    check_bindings(query)?;
    let n = query.from.len();
    let mut steps: Vec<BindingStep<'q>> = (query.from.iter().enumerate())
        .map(|(written, source)| BindingStep {
            source,
            written,
            pushed: None,
            root_slot: None,
            candidates: RefCell::new(None),
        })
        .collect();

    // Split the filter into conjuncts and push at most one sargable
    // predicate into each step-less class-rooted binding (the first
    // sargable conjunct, which is as good as any — both shapes are
    // highly selective); the rest stay residual filters on the
    // narrowed candidate set.
    let mut filters = Vec::new();
    if let Some(cond) = &query.where_clause {
        for_each_conjunct(cond, &mut |part| {
            if let Some((var, attr, pred)) = sargable(part) {
                let target = steps.iter_mut().find(|s| {
                    s.source.binding == var
                        && s.source.steps.is_empty()
                        && matches!(s.source.root, PathRoot::Class(_))
                });
                if let Some(step @ BindingStep { pushed: None, .. }) = target {
                    step.pushed = Some((attr, pred));
                    return;
                }
            }
            filters.push(Filter {
                expr: part,
                at: 0,
                memo: None,
            });
        });
    }

    // Order bindings greedily by rank, among sources whose root
    // variable is already bound.
    for placed in 0..n {
        let (bound, rest) = steps.split_at(placed);
        let available = |s: &BindingStep<'_>| match s.source.root {
            PathRoot::Class(_) => true,
            PathRoot::Var(v) => bound.iter().any(|b| b.source.binding == v),
        };
        let best = (rest.iter().enumerate())
            .filter(|(_, s)| available(s))
            .min_by_key(|(_, s)| s.rank())
            .map(|(i, _)| placed + i)
            .expect("check_bindings: every root variable is bound earlier");
        steps.swap(placed, best);
        if let PathRoot::Var(v) = steps[placed].source.root {
            steps[placed].root_slot = steps[..placed].iter().position(|b| b.source.binding == v);
        }
    }
    let reordered = steps.iter().enumerate().any(|(pos, s)| pos != s.written);

    // Schedule each residual conjunct at the earliest planned step
    // after which all its variables are bound; conjuncts mentioning
    // unknown variables run last (they error per-row, like the naive
    // evaluator does — but only if a row reaches them).
    for filter in &mut filters {
        let (mut last, mut vars, mut unknown) = (0, false, false);
        for_each_var(filter.expr, &mut |v| {
            vars = true;
            match steps.iter().position(|s| s.source.binding == v) {
                Some(pos) => last = last.max(pos),
                None => unknown = true,
            }
        });
        filter.at = if unknown { n.saturating_sub(1) } else { last };
        filter.memo = (!vars).then(|| RefCell::new(None));
    }
    if n == 0 {
        // Zero sources: the executor applies the whole `where` to the
        // single empty row directly.
        filters.clear();
    }

    Ok(CompiledPlan {
        steps,
        filters,
        reordered,
    })
}

// ---- execution ------------------------------------------------------------

struct Runner<'a> {
    plan: &'a CompiledPlan<'a>,
    query: &'a Query<'a>,
    graph: &'a dyn GraphSource,
    ctx: ExprCtx<'a>,
    stats: &'a RefCell<PlanStats>,
    has_aggregate: bool,
    out_rows: Rows,
    dedup: RowDedup,
    /// The cells `emit` projects, a column after another, before they
    /// are dealt into rows; reused, so its buffer stays.
    columns: Vec<OutValue>,
    /// The last step's endpoints that passed its filters; reused.
    kept: Vec<ObjectRef>,
    /// Complete bound rows, kept only for aggregate finalization.
    agg_rows: Vec<Row>,
    pruned: u64,
    /// Tracing scope (disabled unless the caller came through a
    /// `*_traced` entry point). A `Scope` is one `Option<Rc>`, so
    /// holding a clone is cheaper than another lifetime.
    scope: provscope::Scope,
}

fn run(
    query: &Query<'_>,
    plan: &CompiledPlan<'_>,
    graph: &dyn GraphSource,
    stats: &RefCell<PlanStats>,
    scope: &provscope::Scope,
) -> Result<ResultSet, PqlError> {
    let has_aggregate = query
        .select
        .iter()
        .any(|s| matches!(s.expr, Expr::Aggregate { .. }));
    stats.borrow_mut().bindings_reordered |= plan.reordered;

    // Planned step `i` binds slot `i` of every row.
    let slot_of = |var: &str| plan.steps.iter().position(|s| s.source.binding == var);
    let mut runner = Runner {
        plan,
        query,
        graph,
        ctx: ExprCtx::new(graph, Some(stats), &slot_of),
        stats,
        has_aggregate,
        out_rows: Rows::new(query.select.len()),
        dedup: RowDedup::default(),
        columns: Vec::new(),
        kept: Vec::new(),
        agg_rows: Vec::new(),
        pruned: 0,
        scope: scope.clone(),
    };

    let mut row: Row = vec![None; plan.steps.len()];
    if plan.steps.is_empty() {
        // Zero sources: one empty row, filtered by every conjunct.
        let mut keep = true;
        if let Some(cond) = &query.where_clause {
            keep = truthy(&runner.ctx.eval(cond, &row, None)?);
        }
        if keep {
            runner.emit(&mut row, None)?;
        }
    } else {
        runner.descend(0, &mut row)?;
    }

    let span = scope.open("pql", "project");
    let columns = column_names(query);
    if has_aggregate {
        let row_out = &mut runner.columns;
        for item in &query.select {
            match runner.ctx.eval(&item.expr, &[], Some(&runner.agg_rows)) {
                Ok(v) => row_out.push(v),
                Err(e) => {
                    scope.close(span);
                    return Err(e);
                }
            }
        }
        runner.out_rows.push(row_out.drain(..));
    }
    let rows = runner.out_rows;
    scope.close(span);
    stats.borrow_mut().rows_pruned += runner.pruned;
    Ok(ResultSet { columns, rows })
}

impl<'a> Runner<'a> {
    /// Resolves a class-rooted step's candidates (pushed lookup or
    /// class scan, then its step walk), charging the planner counters
    /// once.
    fn resolve_class_root(&self, step: &BindingStep<'_>, class: &str) -> Vec<ObjectRef> {
        let span = self.scope.open("pql", "bind");
        let out = self.resolve_class_root_inner(step, class);
        self.scope.close(span);
        out
    }

    fn resolve_class_root_inner(&self, step: &BindingStep<'_>, class: &str) -> Vec<ObjectRef> {
        let mut st = self.stats.borrow_mut();
        let starts = match &step.pushed {
            Some((attr, pred)) => {
                let lookup = self.graph.lookup_attr(class, attr, pred);
                st.predicates_pushed += 1;
                if lookup.indexed {
                    st.index_hits += 1;
                } else {
                    st.scan_bindings += 1;
                }
                if let Some(size) = self.graph.class_size(class) {
                    let pruned = size.saturating_sub(lookup.nodes.len()) as u64;
                    st.rows_pruned += pruned;
                    let binding = step.source.binding;
                    let downstream_closures = (self.plan.steps.iter())
                        .filter(|s| s.source.root == PathRoot::Var(binding) && s.has_closure())
                        .count() as u64;
                    st.closure_calls_saved += pruned * downstream_closures;
                }
                lookup.nodes
            }
            None => {
                st.scan_bindings += 1;
                // Sorted by the `class_members` contract.
                self.graph.class_members(class)
            }
        };
        drop(st);
        if step.source.steps.is_empty() {
            starts
        } else {
            walk_steps(&starts, &step.source.steps, self.graph).into_vec()
        }
    }

    fn descend(&mut self, i: usize, row: &mut Row) -> Result<(), PqlError> {
        let step = &self.plan.steps[i];
        let endpoints = match (step.root_slot, step.source.root) {
            (Some(root), _) => {
                let start = row[root].expect("an earlier step bound the root's slot");
                walk_steps(&[start], &step.source.steps, self.graph)
            }
            (None, PathRoot::Class(class)) => match step.candidates.take() {
                Some(cached) => cached,
                None => self.resolve_class_root(step, class),
            }
            .into(),
            (None, PathRoot::Var(_)) => unreachable!("compile() gives a variable root its slot"),
        };
        let head = endpoints.head.as_slice();
        let done = self.expand(i, row, head, &endpoints.tail);
        if step.root_slot.is_none() {
            step.candidates.replace(Some(endpoints.tail));
        }
        row[i] = None;
        done
    }

    /// Binds slot `i` of `row` to each endpoint, `head` then `tail`,
    /// in turn and carries the rows that pass its filters on, into the
    /// next step. The last step's rows differ only in slot `i`, so the
    /// endpoints that pass go into one projection together.
    fn expand(
        &mut self,
        i: usize,
        row: &mut Row,
        head: &[ObjectRef],
        tail: &[ObjectRef],
    ) -> Result<(), PqlError> {
        let plan = self.plan;
        if i + 1 < plan.steps.len() {
            for &endpoint in head.iter().chain(tail) {
                row[i] = Some(endpoint);
                if self.passes(i, row)? {
                    self.descend(i + 1, row)?;
                }
            }
            return Ok(());
        }
        if plan.filters_at(i).next().is_none() {
            return match (head, tail) {
                ([], []) => Ok(()),
                _ => self.emit(row, Some((i, head, tail))),
            };
        }
        let mut kept = std::mem::take(&mut self.kept);
        for &endpoint in head.iter().chain(tail) {
            row[i] = Some(endpoint);
            if self.passes(i, row)? {
                kept.push(endpoint);
            }
        }
        if !kept.is_empty() {
            self.emit(row, Some((i, &[], &kept)))?;
        }
        kept.clear();
        self.kept = kept;
        Ok(())
    }

    /// Whether `row` passes every filter scheduled after step `i`.
    fn passes(&mut self, i: usize, row: &[Option<ObjectRef>]) -> Result<bool, PqlError> {
        let mut filters = self.plan.filters_at(i).peekable();
        if filters.peek().is_none() {
            return Ok(true);
        }
        let span = self.scope.open("pql", "filter");
        let outcome = filters
            .map(|filter| self.check(filter, row))
            .find(|outcome| *outcome != Ok(true))
            .unwrap_or(Ok(true));
        self.scope.close(span);
        if outcome == Ok(false) {
            self.pruned += 1;
        }
        outcome
    }

    fn check(&self, filter: &'a Filter<'a>, row: &[Option<ObjectRef>]) -> Result<bool, PqlError> {
        if let Some(memo) = &filter.memo {
            if let Some(cached) = memo.borrow().as_ref() {
                return cached.clone();
            }
            let outcome = self.ctx.eval(filter.expr, row, None).map(|v| truthy(&v));
            *memo.borrow_mut() = Some(outcome.clone());
            return outcome;
        }
        Ok(truthy(&self.ctx.eval(filter.expr, row, None)?))
    }

    /// Projects a batch of rows a column at a time: `row` with slot
    /// `i` bound to each endpoint, `head` then `tail`, in turn, or
    /// `row` alone when `batch` is `None` (a query with no sources). A
    /// select item that is slot `i`'s binding (`A`) is the endpoints
    /// themselves; one of its attributes (`A.name`) is one
    /// [`GraphSource::attr_column`] call for the head, if any, and one
    /// for the tail; any other item is evaluated row by row. Either
    /// way a column's reads run back to back instead of each waiting
    /// behind one row's allocation and hashing. Rows are then dealt
    /// from the columns and deduplicated in endpoint order. An item
    /// that fails, fails on every row (an unbound variable, a bad
    /// sub-query), so going column by column returns the naive
    /// evaluator's first error.
    fn emit(
        &mut self,
        row: &mut Row,
        batch: Option<(usize, &[ObjectRef], &[ObjectRef])>,
    ) -> Result<(), PqlError> {
        let (slot, head, tail) = match batch {
            Some((i, head, tail)) => (Some(i), head, tail),
            None => (None, &[][..], &[][..]),
        };
        let n = batch.map_or(1, |_| head.len() + tail.len());
        let bind = |row: &mut Row, k: usize| {
            if let Some(i) = slot {
                row[i] = Some(head.get(k).copied().unwrap_or_else(|| tail[k - head.len()]));
            }
        };
        if self.has_aggregate {
            for k in 0..n {
                bind(row, k);
                self.agg_rows.push(row.clone());
            }
            return Ok(());
        }
        let binding = slot.map(|i| self.plan.steps[i].source.binding);
        // Column `c`'s cells are `columns[c * n..(c + 1) * n]`.
        let width = self.query.select.len();
        let columns = &mut self.columns;
        columns.clear();
        // Once for every column, so a head's and a tail's cells land in
        // one allocation.
        columns.reserve(width * n);
        for item in &self.query.select {
            match &item.expr {
                Expr::Var(v) if binding == Some(*v) => {
                    columns.extend(head.iter().chain(tail).map(|e| OutValue::Node(*e)))
                }
                Expr::Attr(v, a) if binding == Some(*v) => {
                    if !head.is_empty() {
                        self.graph.attr_column(head, a, columns);
                    }
                    self.graph.attr_column(tail, a, columns)
                }
                expr => {
                    for k in 0..n {
                        bind(row, k);
                        columns.push(self.ctx.eval(expr, row, None)?);
                    }
                }
            }
        }
        self.out_rows.reserve(n);
        self.dedup.reserve(n);
        for k in 0..n {
            let cells =
                (0..width).map(|c| std::mem::replace(&mut columns[c * n + k], OutValue::Null));
            self.out_rows.push_distinct(cells, &mut self.dedup);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EdgeLabel;
    use dpapi::{Pnode, Version, VolumeId};

    fn r(n: u64, v: u32) -> ObjectRef {
        ObjectRef::new(Pnode::new(VolumeId(1), n), Version(v))
    }

    /// 1(out.gif, FILE) -input-> 2(convert, PROC) -input-> 3(in.dat,
    /// FILE), with a toy name index so lookups report `indexed`.
    /// Counts the `(attr, attr_column)` calls a query makes.
    #[derive(Default)]
    struct Indexed {
        calls: std::cell::Cell<(usize, usize)>,
    }

    impl Indexed {
        fn value(node: ObjectRef, name: &str) -> Option<Value> {
            let value = match node.pnode.number {
                1 => "out.gif",
                2 => "convert",
                3 => "in.dat",
                _ => return None,
            };
            (name == "name").then(|| Value::str(value))
        }
    }

    impl GraphSource for Indexed {
        fn class_members(&self, class: &str) -> Vec<ObjectRef> {
            match class {
                "file" => vec![r(1, 0), r(3, 0)],
                "proc" => vec![r(2, 0)],
                "obj" => vec![r(1, 0), r(2, 0), r(3, 0)],
                _ => vec![],
            }
        }
        fn attr(&self, node: ObjectRef, name: &str) -> Option<Value> {
            let (attr, column) = self.calls.get();
            self.calls.set((attr + 1, column));
            Self::value(node, name)
        }
        fn attr_column(&self, nodes: &[ObjectRef], name: &str, out: &mut Vec<OutValue>) {
            let (attr, column) = self.calls.get();
            self.calls.set((attr, column + 1));
            let cell = |n: &ObjectRef| Self::value(*n, name).map_or(OutValue::Null, OutValue::from);
            out.extend(nodes.iter().map(cell));
        }
        fn out_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
            if !matches!(label, EdgeLabel::Input | EdgeLabel::Any) {
                return vec![];
            }
            match node.pnode.number {
                1 => vec![r(2, 0)],
                2 => vec![r(3, 0)],
                _ => vec![],
            }
        }
        fn in_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
            self.class_members("obj")
                .into_iter()
                .filter(|n| self.out_edges(*n, label).contains(&node))
                .collect()
        }
        fn lookup_attr(&self, class: &str, attr: &str, pred: &AttrPredicate) -> AttrLookup {
            let nodes = self
                .class_members(class)
                .into_iter()
                .filter(|n| pred.matches(Self::value(*n, attr).as_ref()))
                .collect();
            AttrLookup {
                nodes,
                indexed: attr == "name",
            }
        }
        fn class_size(&self, class: &str) -> Option<usize> {
            Some(self.class_members(class).len())
        }
    }

    fn planned(q: &str) -> QueryOutput {
        query_with_stats(q, &Indexed::default()).unwrap()
    }

    #[test]
    fn equality_predicate_is_pushed_to_the_index() {
        let out =
            planned("select A from Provenance.file as F F.input* as A where F.name = 'out.gif'");
        assert_eq!(out.stats.index_hits, 1);
        assert_eq!(out.stats.predicates_pushed, 1);
        assert_eq!(out.stats.scan_bindings, 0, "no class scan for the root");
        assert!(out.stats.rows_pruned >= 1, "{:?}", out.stats);
        assert!(out.stats.closure_calls_saved >= 1, "{:?}", out.stats);
        let nodes = out.result.nodes();
        assert_eq!(nodes, vec![r(1, 0), r(2, 0), r(3, 0)]);
    }

    #[test]
    fn prefix_like_is_pushed_and_exact_like_is_not() {
        let out = planned("select F from Provenance.file as F where F.name like 'out*'");
        assert_eq!(out.stats.index_hits, 1);
        assert_eq!(out.result.len(), 1);

        // `*.gif` has a leading star: not a prefix — scan + filter.
        let out = planned("select F from Provenance.file as F where F.name like '*.gif'");
        assert_eq!(out.stats.index_hits, 0);
        assert_eq!(out.stats.scan_bindings, 1);
        assert_eq!(out.result.len(), 1);
    }

    #[test]
    fn selective_binding_runs_first() {
        // Written scan-first; the planner flips the order so the
        // indexed `name` lookup prunes before the `obj` scan fans out.
        let out = planned(
            "select F from Provenance.obj as O Provenance.file as F \
             where F.name = 'in.dat'",
        );
        assert!(out.stats.bindings_reordered);
        assert_eq!(out.stats.index_hits, 1);
        assert_eq!(out.result.len(), 1);
        // Same rows as the naive evaluator, as a set.
        let q = crate::parse(
            "select F from Provenance.obj as O Provenance.file as F \
             where F.name = 'in.dat'",
        )
        .unwrap();
        let naive = crate::eval::execute(&q, &Indexed::default()).unwrap();
        let mut a: Vec<&[OutValue]> = out.result.rows.iter().collect();
        let mut b: Vec<&[OutValue]> = naive.rows.iter().collect();
        a.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        b.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        assert_eq!(a, b);
    }

    #[test]
    fn irregular_queries_are_rejected_like_the_naive_evaluator_rejects_them() {
        for (q, why) in [
            // Root variable bound by a *later* source: the planner
            // must not silently reorder it into something that works.
            (
                "select A from X.input as A Provenance.file as X",
                "unbound variable `X`",
            ),
            (
                "select F from Provenance.file as F Provenance.obj as F",
                "duplicate binding `F`",
            ),
        ] {
            let planned = query_with_stats(q, &Indexed::default()).map(|out| out.result);
            let naive = crate::eval::execute(&crate::parse(q).unwrap(), &Indexed::default());
            let expected = Err(PqlError::Eval(why.to_string()));
            assert_eq!(planned, expected, "{q}");
            assert_eq!(naive, expected, "{q}");
        }
    }

    /// A selective binding that comes up empty costs later sources
    /// nothing: the `obj` scan binding is never resolved (its
    /// `scan_bindings` counter stays 0).
    #[test]
    fn empty_selective_binding_skips_later_sources() {
        let out = planned(
            "select F, O from Provenance.file as F Provenance.obj as O \
             where F.name = 'nonexistent'",
        );
        assert!(out.result.is_empty());
        assert_eq!(out.stats.index_hits, 1);
        assert_eq!(
            out.stats.scan_bindings, 0,
            "the obj scan must never run: {:?}",
            out.stats
        );
    }

    #[test]
    fn filters_apply_as_soon_as_bound() {
        // The F filter runs before A fans out; pruning is counted.
        let out = planned("select A from Provenance.file as F F.input* as A where F.name = 'nope'");
        assert!(out.result.is_empty());
    }

    #[test]
    fn aggregates_and_subqueries_run_planned() {
        let out = planned(
            "select count(A) as n from Provenance.file as F F.input+ as A \
             where F.name = 'out.gif'",
        );
        assert_eq!(out.result.rows[0][0].as_int(), Some(2));
        assert_eq!(out.result.columns, vec!["n"]);

        let out = planned(
            "select P from Provenance.proc as P \
             where P.name in (select F.name from Provenance.obj as F where F.name = 'convert')",
        );
        assert_eq!(out.result.len(), 1);
        // The sub-query's pushdown folds into the same counters.
        assert!(out.stats.index_hits >= 1);
    }

    /// A hundred files, `f1` to `f100`, with no edges and no index:
    /// every lookup scans the class. Counts its class scans.
    #[derive(Default)]
    struct Files {
        scans: std::cell::Cell<usize>,
    }

    impl GraphSource for Files {
        fn class_members(&self, class: &str) -> Vec<ObjectRef> {
            self.scans.set(self.scans.get() + 1);
            match class {
                "file" | "obj" => (1..=100).map(|n| r(n, 0)).collect(),
                _ => vec![],
            }
        }
        fn attr(&self, node: ObjectRef, name: &str) -> Option<Value> {
            (name == "name").then(|| Value::Str(format!("f{}", node.pnode.number)))
        }
        fn out_edges(&self, _: ObjectRef, _: &EdgeLabel) -> Vec<ObjectRef> {
            vec![]
        }
        fn in_edges(&self, _: ObjectRef, _: &EdgeLabel) -> Vec<ObjectRef> {
            vec![]
        }
    }

    /// An `in (select …)` sub-query cannot see the outer row, so it
    /// runs once per execution, not once per row it tests: one scan
    /// for the outer binding and one for the sub-query, in the planner
    /// and in the naive evaluator alike.
    #[test]
    fn a_subquery_runs_once_per_execution() {
        let q = "select F from Provenance.file as F \
                 where F.name in (select G.name from Provenance.file as G where G.name like 'f1*')";
        let graph = Files::default();
        let out = query_with_stats(q, &graph).unwrap();
        // f1, f10–f19 and f100.
        assert_eq!(out.result.len(), 12);
        assert_eq!(graph.scans.get(), 2);
        assert_eq!(out.stats.scan_bindings, 2);

        let graph = Files::default();
        let naive = crate::eval::execute(&crate::parse(q).unwrap(), &graph).unwrap();
        assert_eq!(naive.rows, out.result.rows);
        assert_eq!(graph.scans.get(), 2);
    }

    /// The last binding projects a column at a time, however many
    /// rows: per parent row (two files), one `attr_column` for the
    /// `*` step's start and one for the closure behind it, and no
    /// `attr` call.
    #[test]
    fn projection_reads_a_column_per_parent_row() {
        let graph = Indexed::default();
        let q = "select A.name from Provenance.file as F F.input* as A";
        let out = query_with_stats(q, &graph).unwrap();
        let names: Vec<_> = out.result.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(names, [Some("out.gif"), Some("convert"), Some("in.dat")]);
        assert_eq!(graph.calls.get(), (0, 4));
    }

    #[test]
    fn like_prefix_extraction() {
        assert_eq!(like_prefix("/data/*"), Some("/data/"));
        assert_eq!(like_prefix("*"), None);
        assert_eq!(like_prefix("*.gif"), None);
        assert_eq!(like_prefix("a?b*"), None);
        assert_eq!(like_prefix("plain"), None);
        assert_eq!(like_prefix("a*b*"), None);
    }

    #[test]
    fn attr_predicate_matches_comparison_semantics() {
        let eq = AttrPredicate::Eq(Value::str("x"));
        assert!(eq.matches(Some(&Value::str("x"))));
        assert!(!eq.matches(Some(&Value::str("y"))));
        assert!(!eq.matches(Some(&Value::Int(1))));
        assert!(!eq.matches(None));
        let pre = AttrPredicate::LikePrefix("/a/".into());
        assert!(pre.matches(Some(&Value::str("/a/b"))));
        assert!(!pre.matches(Some(&Value::str("/b/a"))));
        assert!(!pre.matches(Some(&Value::Int(1))));
    }
}
