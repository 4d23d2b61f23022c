//! The PQL abstract syntax tree.
//!
//! The query model follows the paper's requirements (§4 "Query"):
//! paths through graphs are the basic model, paths are first-class
//! (bound to variables in the `from` clause), path matching is by
//! regular expressions over graph edges, and the language has
//! sub-queries and aggregation.
//!
//! A parsed query borrows its text: every name is a `&'q str` slice
//! of it, and a string literal is one too unless it had escapes to
//! decode. Edge labels, operators and aggregate functions are resolved
//! to enums by the parser, so nothing downstream dispatches on a
//! string.

use std::borrow::Cow;

use crate::eval::EdgeLabel;

/// A parsed query: `select <items> from <sources> [where <expr>]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Query<'q> {
    /// The projection list.
    pub select: Vec<SelectItem<'q>>,
    /// Path sources, evaluated left to right as a join.
    pub from: Vec<Source<'q>>,
    /// Optional filter.
    pub where_clause: Option<Expr<'q>>,
}

/// One projected column.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectItem<'q> {
    /// The expression to output.
    pub expr: Expr<'q>,
    /// Optional output name (`as ident`).
    pub alias: Option<&'q str>,
}

/// One `from` source: a path expression bound to a variable.
#[derive(Clone, Debug, PartialEq)]
pub struct Source<'q> {
    /// Where the path starts.
    pub root: PathRoot<'q>,
    /// Edge steps applied to the root.
    pub steps: Vec<PathStep>,
    /// The variable the endpoint binds to.
    pub binding: &'q str,
}

/// The start of a path expression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PathRoot<'q> {
    /// `Provenance.<class>`: all objects of a class (`file`, `proc`,
    /// `pipe`, `session`, `operator`, `function`, `obj` for
    /// everything).
    Class(&'q str),
    /// A variable bound by an earlier source.
    Var(&'q str),
}

/// One step of a path: an edge pattern with a quantifier.
#[derive(Clone, Debug, PartialEq)]
pub struct PathStep {
    /// Alternative edge labels (`(input|version)`), each possibly
    /// inverted.
    pub edges: Vec<EdgePattern>,
    /// How many times the step may repeat.
    pub quant: Quant,
}

/// An edge label with direction.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgePattern {
    /// The label (`input`, `version`, `visited_url`, …, or `any`),
    /// resolved when the query was parsed.
    pub label: EdgeLabel,
    /// Inverted (`~`): traverse from ancestor to descendant.
    pub inverse: bool,
}

/// Step quantifiers, as in regular expressions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quant {
    /// Exactly once.
    One,
    /// Zero or more (`*`).
    Star,
    /// One or more (`+`).
    Plus,
    /// Zero or one (`?`).
    Opt,
}

/// Binary operators: comparisons, `like`, and the two connectives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `like`: glob match of a string against a pattern.
    Like,
    /// `and`
    And,
    /// `or`
    Or,
}

/// Aggregate functions, computed over the full row set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// `count(X)`: distinct non-null values.
    Count,
    /// `min(X)`: least integer, else least string.
    Min,
    /// `max(X)`: greatest integer, else greatest string.
    Max,
}

/// Expressions in `select` and `where`.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr<'q> {
    /// A literal value.
    Lit(Literal<'q>),
    /// A bound variable (denotes the node).
    Var(&'q str),
    /// Attribute access: `Var.attr`.
    Attr(&'q str, &'q str),
    /// Binary comparison or logic.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr<'q>>,
        /// Right operand.
        rhs: Box<Expr<'q>>,
    },
    /// Logical negation.
    Not(Box<Expr<'q>>),
    /// Aggregate over the full row set: `count(X)`, `min(X.attr)`,
    /// `max(X.attr)`.
    Aggregate {
        /// The function.
        func: AggFunc,
        /// The aggregated expression.
        arg: Box<Expr<'q>>,
    },
    /// Membership in a sub-query's (single-column) result.
    InSubquery {
        /// The tested expression.
        expr: Box<Expr<'q>>,
        /// The sub-query.
        query: Box<Query<'q>>,
    },
    /// Non-emptiness of a sub-query's result.
    Exists(Box<Query<'q>>),
}

/// Literal values.
#[derive(Clone, Debug, PartialEq)]
pub enum Literal<'q> {
    /// A string: borrowed from the query text, or owned if decoding
    /// its escapes changed it.
    Str(Cow<'q, str>),
    /// An integer.
    Int(i64),
    /// A boolean. (Lorel lacked booleans; PQL adds them.)
    Bool(bool),
}
