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
use std::collections::{HashMap, HashSet};

use dpapi::{ObjectRef, Value};

use crate::ast::*;
use crate::eval::{
    check_bindings, column_names, truthy, walk_steps, ExprCtx, GraphSource, OutValue, ResultSet,
    Row, RowDedup,
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
    source: &'q Source,
    /// Pushed predicate: `(attribute name, predicate)`. Only for
    /// step-less class roots; the originating conjunct is consumed.
    pushed: Option<(&'q str, AttrPredicate)>,
}

impl BindingStep<'_> {
    fn has_closure(&self) -> bool {
        self.source
            .steps
            .iter()
            .any(|s| matches!(s.quant, Quant::Star | Quant::Plus))
    }
}

/// A residual `where` conjunct scheduled at the earliest binding step
/// where every variable it mentions is bound.
struct Filter<'q> {
    expr: &'q Expr,
    /// Memoized outcome for conjuncts that mention no binding at all
    /// (they are row-independent, but must still only be evaluated if
    /// some row reaches them — matching the naive evaluator, which
    /// never evaluates `where` over an empty row set).
    memo: Option<RefCell<Option<Result<bool, PqlError>>>>,
}

struct CompiledPlan<'q> {
    steps: Vec<BindingStep<'q>>,
    /// `filters_at[i]` run right after binding step `i` completes for
    /// a row. With no sources at all, every filter lands in
    /// `filters_at[0]`... which doesn't exist; the zero-source case is
    /// handled by the executor directly.
    filters_at: Vec<Vec<Filter<'q>>>,
    reordered: bool,
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
pub fn execute(query: &Query, graph: &dyn GraphSource) -> Result<QueryOutput, PqlError> {
    execute_traced(query, graph, &provscope::Scope::disabled())
}

/// [`execute`] with span tracing (see [`query_traced`]).
pub fn execute_traced(
    query: &Query,
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
    query: &Query,
    graph: &dyn GraphSource,
    stats: &RefCell<PlanStats>,
) -> Result<ResultSet, PqlError> {
    execute_accum_traced(query, graph, stats, &provscope::Scope::disabled())
}

fn execute_accum_traced(
    query: &Query,
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

/// Splits an expression into its top-level conjuncts.
fn conjuncts<'q>(expr: &'q Expr, out: &mut Vec<&'q Expr>) {
    if let Expr::Binary { op, lhs, rhs } = expr {
        if op == "and" {
            conjuncts(lhs, out);
            conjuncts(rhs, out);
            return;
        }
    }
    out.push(expr);
}

/// Variables an expression mentions. Sub-query interiors are skipped:
/// PQL sub-queries are uncorrelated (their own scope), only the
/// tested expression of `in (…)` sees the outer row.
fn expr_vars(expr: &Expr, out: &mut HashSet<String>) {
    match expr {
        Expr::Var(v) | Expr::Attr(v, _) => {
            out.insert(v.clone());
        }
        Expr::Not(e) | Expr::Aggregate { arg: e, .. } => expr_vars(e, out),
        Expr::Binary { lhs, rhs, .. } => {
            expr_vars(lhs, out);
            expr_vars(rhs, out);
        }
        Expr::InSubquery { expr, .. } => expr_vars(expr, out),
        Expr::Lit(_) | Expr::Exists(_) => {}
    }
}

fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Int(i) => Value::Int(*i),
        Literal::Bool(b) => Value::Bool(*b),
    }
}

/// The literal prefix of a `like` pattern whose only metacharacter is
/// one trailing `*` (`'/data/*'` → `/data/`); `None` for anything a
/// prefix range cannot answer.
fn like_prefix(pattern: &str) -> Option<String> {
    let prefix = pattern.strip_suffix('*')?;
    (!prefix.is_empty() && !prefix.contains(['*', '?'])).then(|| prefix.to_string())
}

/// `(variable, attribute, predicate)` if this conjunct is sargable.
fn sargable(expr: &Expr) -> Option<(&str, &str, AttrPredicate)> {
    let Expr::Binary { op, lhs, rhs } = expr else {
        return None;
    };
    match op.as_str() {
        "=" => match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Attr(v, a), Expr::Lit(l)) | (Expr::Lit(l), Expr::Attr(v, a)) => {
                Some((v, a, AttrPredicate::Eq(literal_value(l))))
            }
            _ => None,
        },
        "like" => match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Attr(v, a), Expr::Lit(Literal::Str(pat))) => {
                like_prefix(pat).map(|p| (v.as_str(), a.as_str(), AttrPredicate::LikePrefix(p)))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Compiles a query, or says why its binding structure is irregular.
fn compile(query: &Query) -> Result<CompiledPlan<'_>, PqlError> {
    check_bindings(query)?;

    // Split the filter into conjuncts and pick at most one sargable
    // predicate per step-less class-rooted binding; everything else
    // stays a residual filter.
    let mut residual: Vec<&Expr> = Vec::new();
    let mut pushed: HashMap<&str, (&str, AttrPredicate)> = HashMap::new();
    if let Some(cond) = &query.where_clause {
        let mut parts = Vec::new();
        conjuncts(cond, &mut parts);
        for part in parts {
            if let Some((var, attr, pred)) = sargable(part) {
                let pushable = query.from.iter().any(|s| {
                    s.binding == var && s.steps.is_empty() && matches!(s.root, PathRoot::Class(_))
                });
                // At most one predicate is pushed per binding (the
                // first sargable conjunct, which is as good as any —
                // both shapes are highly selective); the rest stay
                // residual filters on the narrowed candidate set.
                if pushable && !pushed.contains_key(var) {
                    pushed.insert(var, (attr, pred));
                    continue;
                }
            }
            residual.push(part);
        }
    }

    // Order bindings: pushed-index candidates first, plain class
    // roots next, closure walks last — greedily, among sources whose
    // root variable is already bound.
    let n = query.from.len();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut bound_now: HashSet<&str> = HashSet::new();
    while order.len() < n {
        let mut best: Option<(usize, (u8, u8, usize, usize))> = None;
        for (i, source) in query.from.iter().enumerate() {
            if placed[i] {
                continue;
            }
            let available = match &source.root {
                PathRoot::Class(_) => true,
                PathRoot::Var(v) => bound_now.contains(v.as_str()),
            };
            if !available {
                continue;
            }
            let has_push = pushed.contains_key(source.binding.as_str());
            let has_closure = source
                .steps
                .iter()
                .any(|s| matches!(s.quant, Quant::Star | Quant::Plus));
            let rank = (
                if has_push { 0u8 } else { 1 },
                if has_closure { 1u8 } else { 0 },
                source.steps.len(),
                i,
            );
            if best.map(|(_, r)| rank < r).unwrap_or(true) {
                best = Some((i, rank));
            }
        }
        let (i, _) = best.expect("check_bindings: every root variable is bound earlier");
        placed[i] = true;
        bound_now.insert(&query.from[i].binding);
        order.push(i);
    }
    let reordered = order.iter().enumerate().any(|(pos, &i)| pos != i);

    let steps: Vec<BindingStep<'_>> = order
        .iter()
        .map(|&i| {
            let source = &query.from[i];
            BindingStep {
                source,
                pushed: pushed.remove(source.binding.as_str()),
            }
        })
        .collect();

    // Schedule each residual conjunct at the earliest planned step
    // after which all its variables are bound; conjuncts mentioning
    // unknown variables run last (they error per-row, like the naive
    // evaluator does — but only if a row reaches them).
    let mut filters_at: Vec<Vec<Filter<'_>>> = (0..n).map(|_| Vec::new()).collect();
    let position: HashMap<&str, usize> = steps
        .iter()
        .enumerate()
        .map(|(pos, s)| (s.source.binding.as_str(), pos))
        .collect();
    for expr in residual {
        let mut vars = HashSet::new();
        expr_vars(expr, &mut vars);
        let known: Vec<usize> = vars
            .iter()
            .filter_map(|v| position.get(v.as_str()).copied())
            .collect();
        let unknown = known.len() < vars.len();
        let at = if unknown {
            n.saturating_sub(1)
        } else {
            known.into_iter().max().unwrap_or(0)
        };
        let memo = vars.is_empty().then(|| RefCell::new(None));
        if n > 0 {
            filters_at[at].push(Filter { expr, memo });
        }
        // n == 0: zero sources; the executor applies every filter to
        // the single empty row directly (filters_at is unused).
    }

    Ok(CompiledPlan {
        steps,
        filters_at,
        reordered,
    })
}

// ---- execution ------------------------------------------------------------

/// One step's root-candidate slot: class-rooted paths are
/// row-independent, so their (lookup or scan + step walk) resolves
/// once — but only when the first row actually reaches the step, so
/// an earlier binding that produces zero rows costs later sources
/// nothing (matching the streaming claim; the naive evaluator also
/// does no work for sources past an empty row set).
enum RootSlot {
    /// Class root, not reached yet.
    Lazy,
    /// Class root, resolved on first use. Behind `Rc` so every
    /// subsequent parent row shares the list instead of cloning it.
    Cached(std::rc::Rc<Vec<ObjectRef>>),
    /// Variable root: walked per row in `descend`, from the node in
    /// this slot of the row.
    PerRow(usize),
}

struct Runner<'a> {
    plan: &'a CompiledPlan<'a>,
    query: &'a Query,
    graph: &'a dyn GraphSource,
    ctx: ExprCtx<'a>,
    stats: &'a RefCell<PlanStats>,
    root_cache: Vec<RootSlot>,
    has_aggregate: bool,
    out_rows: Vec<Vec<OutValue>>,
    dedup: RowDedup,
    /// Complete bound rows, kept only for aggregate finalization.
    agg_rows: Vec<Row>,
    pruned: u64,
    /// Tracing scope (disabled unless the caller came through a
    /// `*_traced` entry point). A `Scope` is one `Option<Rc>`, so
    /// holding a clone is cheaper than another lifetime.
    scope: provscope::Scope,
}

fn run(
    query: &Query,
    plan: &CompiledPlan<'_>,
    graph: &dyn GraphSource,
    stats: &RefCell<PlanStats>,
    scope: &provscope::Scope,
) -> Result<ResultSet, PqlError> {
    let has_aggregate = query
        .select
        .iter()
        .any(|s| matches!(s.expr, Expr::Aggregate { .. }));

    let root_cache: Vec<RootSlot> = plan
        .steps
        .iter()
        .map(|step| match &step.source.root {
            PathRoot::Class(_) => RootSlot::Lazy,
            PathRoot::Var(v) => RootSlot::PerRow(
                plan.steps
                    .iter()
                    .position(|s| s.source.binding == *v)
                    .expect("compile() orders a variable-rooted source after its binder"),
            ),
        })
        .collect();
    stats.borrow_mut().bindings_reordered |= plan.reordered;

    let mut runner = Runner {
        plan,
        query,
        graph,
        // Planned step `i` binds slot `i` of every row.
        ctx: ExprCtx {
            graph,
            stats: Some(stats),
            vars: plan
                .steps
                .iter()
                .map(|s| s.source.binding.as_str())
                .collect(),
        },
        stats,
        root_cache,
        has_aggregate,
        out_rows: Vec::new(),
        dedup: RowDedup::default(),
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
            runner.emit(&row)?;
        }
    } else {
        runner.descend(0, &mut row)?;
    }

    let span = scope.open("pql", "project");
    let columns = column_names(query);
    let rows = if has_aggregate {
        let mut row_out = Vec::new();
        let mut err = None;
        for item in &query.select {
            match runner.ctx.eval(&item.expr, &[], Some(&runner.agg_rows)) {
                Ok(v) => row_out.push(v),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = err {
            scope.close(span);
            return Err(e);
        }
        vec![row_out]
    } else {
        runner.out_rows
    };
    scope.close(span);
    stats.borrow_mut().rows_pruned += runner.pruned;
    Ok(ResultSet { columns, rows })
}

impl Runner<'_> {
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
                    let downstream_closures = self
                        .plan
                        .steps
                        .iter()
                        .filter(|s| {
                            matches!(&s.source.root, PathRoot::Var(v)
                                     if *v == step.source.binding)
                                && s.has_closure()
                        })
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
            walk_steps(&starts, &step.source.steps, self.graph)
        }
    }

    fn descend(&mut self, i: usize, row: &mut Row) -> Result<(), PqlError> {
        let step = &self.plan.steps[i];
        if matches!(self.root_cache[i], RootSlot::Lazy) {
            let PathRoot::Class(class) = &step.source.root else {
                unreachable!("only class roots are lazy");
            };
            self.root_cache[i] =
                RootSlot::Cached(std::rc::Rc::new(self.resolve_class_root(step, class)));
        }
        let endpoints: std::rc::Rc<Vec<ObjectRef>> = match &self.root_cache[i] {
            // Shares the cached list (Rc clone), no per-row copy.
            RootSlot::Cached(cached) => cached.clone(),
            RootSlot::Lazy => unreachable!("resolved above"),
            RootSlot::PerRow(root) => {
                let start = row[*root].expect("an earlier step bound the root's slot");
                std::rc::Rc::new(walk_steps(&[start], &step.source.steps, self.graph))
            }
        };
        for &endpoint in endpoints.iter() {
            row[i] = Some(endpoint);
            let mut keep = true;
            if !self.plan.filters_at[i].is_empty() {
                let span = self.scope.open("pql", "filter");
                let mut err = None;
                for filter in &self.plan.filters_at[i] {
                    match self.check(filter, row) {
                        Ok(true) => {}
                        Ok(false) => {
                            keep = false;
                            self.pruned += 1;
                            break;
                        }
                        Err(e) => {
                            err = Some(e);
                            break;
                        }
                    }
                }
                self.scope.close(span);
                if let Some(e) = err {
                    return Err(e);
                }
            }
            if keep {
                if i + 1 == self.plan.steps.len() {
                    self.emit(row)?;
                } else {
                    self.descend(i + 1, row)?;
                }
            }
        }
        row[i] = None;
        Ok(())
    }

    fn check(&self, filter: &Filter<'_>, row: &[Option<ObjectRef>]) -> Result<bool, PqlError> {
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

    fn emit(&mut self, row: &[Option<ObjectRef>]) -> Result<(), PqlError> {
        if self.has_aggregate {
            self.agg_rows.push(row.to_vec());
            return Ok(());
        }
        let mut row_out = Vec::with_capacity(self.query.select.len());
        for item in &self.query.select {
            row_out.push(self.ctx.eval(&item.expr, row, None)?);
        }
        if self.dedup.is_new(&self.out_rows, &row_out) {
            self.out_rows.push(row_out);
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
    struct Indexed;

    impl Indexed {
        fn name_of(n: u64) -> Option<&'static str> {
            match n {
                1 => Some("out.gif"),
                2 => Some("convert"),
                3 => Some("in.dat"),
                _ => None,
            }
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
            (name == "name")
                .then(|| Self::name_of(node.pnode.number).map(Value::str))
                .flatten()
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
                .filter(|n| pred.matches(self.attr(*n, attr).as_ref()))
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
        query_with_stats(q, &Indexed).unwrap()
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
        let naive = crate::eval::execute(&q, &Indexed).unwrap();
        let mut a = out.result.rows.clone();
        let mut b = naive.rows.clone();
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
            let planned = query_with_stats(q, &Indexed).map(|out| out.result);
            let naive = crate::eval::execute(&crate::parse(q).unwrap(), &Indexed);
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

    #[test]
    fn like_prefix_extraction() {
        assert_eq!(like_prefix("/data/*"), Some("/data/".to_string()));
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
