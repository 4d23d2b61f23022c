//! PQL — the Path Query Language ("pickle").
//!
//! PQL is the provenance query language of PASSv2, derived from Lorel
//! and its OEM data model after XML- and SQL-based approaches proved
//! a poor match for graph-structured provenance (paper §5.7). The
//! language satisfies the four requirements of §4:
//!
//! * the basic model is *paths through graphs*;
//! * paths are first-class: each `from` source binds the endpoint of
//!   a path expression to a variable;
//! * path matching is by regular expressions over graph edges
//!   (`input*`, `(input|version)+`, inverse traversal `input~`);
//! * sub-queries (`in (select …)`, `exists (…)`) and aggregation
//!   (`count`, `min`, `max`) are supported.
//!
//! The paper's sample query runs as-is:
//!
//! ```text
//! select Ancestor
//! from Provenance.file as Atlas
//!      Atlas.input* as Ancestor
//! where Atlas.name = "atlas-x.gif"
//! ```
//!
//! Evaluation is backend-agnostic: any store implementing
//! [`GraphSource`] (class membership, attributes, labelled edges, and
//! an optionally overridable reachability [`GraphSource::closure`]
//! used for `label*`/`label+` steps — the Waldo store overrides it
//! with a cache validated against what each commit changed) can serve
//! queries.
//!
//! Queries run through the [`plan`] module: sargable `where`
//! predicates (equality and prefix-`like`) are pushed down into
//! [`GraphSource::lookup_attr`] — index-backed in Waldo, scan-based
//! by default — bindings are reordered by estimated selectivity, and
//! rows stream through binding → filter → project instead of
//! materializing the full `from` product. [`query_with_stats`]
//! additionally returns the planner counters ([`PlanStats`]).
//!
//! # Examples
//!
//! Parse only:
//!
//! ```
//! let q = pql::parse(
//!     "select F.name from Provenance.file as F where F.name like '*.gif'",
//! ).unwrap();
//! assert_eq!(q.from.len(), 1);
//! ```
//!
//! Run the paper's ancestry query against a toy two-edge graph:
//!
//! ```
//! use dpapi::{ObjectRef, Pnode, Value, Version, VolumeId};
//! use pql::{EdgeLabel, GraphSource};
//!
//! fn node(n: u64) -> ObjectRef {
//!     ObjectRef::new(Pnode::new(VolumeId(1), n), Version(0))
//! }
//!
//! /// out.gif(1) ← convert(2) ← in.img(3), all of class `file`.
//! struct Toy;
//! impl GraphSource for Toy {
//!     fn class_members(&self, class: &str) -> Vec<ObjectRef> {
//!         if class.eq_ignore_ascii_case("file") {
//!             vec![node(1), node(2), node(3)]
//!         } else {
//!             Vec::new()
//!         }
//!     }
//!     fn attr(&self, n: ObjectRef, name: &str) -> Option<Value> {
//!         (name == "name" && n == node(1)).then(|| Value::str("out.gif"))
//!     }
//!     fn out_edges(&self, n: ObjectRef, _label: &EdgeLabel) -> Vec<ObjectRef> {
//!         match n.pnode.number {
//!             1 => vec![node(2)],
//!             2 => vec![node(3)],
//!             _ => Vec::new(),
//!         }
//!     }
//!     fn in_edges(&self, _n: ObjectRef, _label: &EdgeLabel) -> Vec<ObjectRef> {
//!         Vec::new()
//!     }
//! }
//!
//! let rs = pql::query(
//!     "select A from Provenance.file as F F.input* as A \
//!      where F.name = 'out.gif'",
//!     &Toy,
//! )
//! .unwrap();
//! let ancestors = rs.nodes();
//! assert!(ancestors.contains(&node(2)) && ancestors.contains(&node(3)));
//! ```

pub mod ast;
pub mod eval;
pub mod lex;
pub mod parse;
pub mod plan;

use std::fmt;

pub use ast::{
    AggFunc, BinOp, EdgePattern, Expr, Literal, PathRoot, PathStep, Quant, Query, SelectItem,
    Source,
};
pub use eval::{
    execute as execute_naive, glob_match, EdgeLabel, GraphSource, OutValue, ResultSet, Rows,
};
pub use parse::parse;
pub use plan::{
    execute_traced, query_traced, query_with_stats, scan_lookup, AttrLookup, AttrPredicate,
    PlanStats, QueryOutput,
};

/// Errors from parsing or evaluating a query.
#[derive(Clone, Debug, PartialEq)]
pub enum PqlError {
    /// A syntax error at a byte position.
    Parse {
        /// Description of the problem.
        msg: String,
        /// Byte offset in the query text.
        pos: usize,
    },
    /// An evaluation error (unbound variable, bad aggregate).
    Eval(String),
}

impl fmt::Display for PqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PqlError::Parse { msg, pos } => write!(f, "parse error at byte {pos}: {msg}"),
            PqlError::Eval(msg) => write!(f, "evaluation error: {msg}"),
        }
    }
}

impl std::error::Error for PqlError {}

/// Executes a parsed query against `graph` through the planned,
/// index-backed pipeline ([`plan`]), discarding planner statistics.
/// Use [`plan::execute`] to keep them, or [`eval::execute`]
/// (re-exported as [`execute_naive`]) for the naive reference
/// evaluator.
pub fn execute(query: &Query<'_>, graph: &dyn GraphSource) -> Result<ResultSet, PqlError> {
    plan::execute(query, graph).map(|out| out.result)
}

/// Parses and executes `text` against `graph` in one call (planned;
/// see [`query_with_stats`] to also get the planner counters).
pub fn query(text: &str, graph: &dyn GraphSource) -> Result<ResultSet, PqlError> {
    execute(&parse(text)?, graph)
}
