//! The PQL recursive-descent parser.

use crate::ast::*;
use crate::lex::{lex, Token, TokenKind};
use crate::PqlError;

struct Parser {
    toks: Vec<Token>,
    at: usize,
}

/// Parses a query string into an AST.
pub fn parse(input: &str) -> Result<Query, PqlError> {
    let toks = lex(input).map_err(|(msg, pos)| PqlError::Parse { msg, pos })?;
    let mut p = Parser { toks, at: 0 };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.toks[self.at].kind
    }

    fn pos(&self) -> usize {
        self.toks[self.at].pos
    }

    /// Takes the current token and moves past it. The final `Eof` is
    /// never passed, so taking it leaves it in place.
    fn bump(&mut self) -> Token {
        let eof = Token {
            kind: TokenKind::Eof,
            pos: self.pos(),
        };
        let t = std::mem::replace(&mut self.toks[self.at], eof);
        if self.at + 1 < self.toks.len() {
            self.at += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Keyword(k) if *k == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), TokenKind::Sym(s) if *s == sym) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), PqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {}", self.peek())))
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), PqlError> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{sym}`, found {}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, PqlError> {
        match self.bump() {
            Token {
                kind: TokenKind::Ident(s),
                ..
            } => Ok(s),
            Token { kind, pos } => Err(PqlError::Parse {
                msg: format!("expected identifier, found {kind}"),
                pos,
            }),
        }
    }

    fn expect_eof(&mut self) -> Result<(), PqlError> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err(format!("trailing input: {}", self.peek())))
        }
    }

    fn err(&self, msg: String) -> PqlError {
        PqlError::Parse {
            msg,
            pos: self.pos(),
        }
    }

    // query := SELECT items FROM sources (WHERE expr)?
    fn query(&mut self) -> Result<Query, PqlError> {
        self.expect_kw("select")?;
        let mut select = vec![self.select_item()?];
        while self.eat_sym(",") {
            select.push(self.select_item()?);
        }
        self.expect_kw("from")?;
        let mut from = vec![self.source()?];
        loop {
            // Sources may be comma-separated or juxtaposed (as in the
            // paper's sample query).
            if self.eat_sym(",") {
                from.push(self.source()?);
                continue;
            }
            if matches!(self.peek(), TokenKind::Ident(_)) {
                from.push(self.source()?);
                continue;
            }
            break;
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Query {
            select,
            from,
            where_clause,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, PqlError> {
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    // source := root ('.' step)* AS ident
    fn source(&mut self) -> Result<Source, PqlError> {
        let first = self.expect_ident()?;
        let root = if first == "Provenance" {
            self.expect_sym(".")?;
            PathRoot::Class(self.expect_ident()?)
        } else {
            PathRoot::Var(first)
        };
        let mut steps = Vec::new();
        while self.eat_sym(".") {
            steps.push(self.path_step()?);
        }
        self.expect_kw("as")?;
        let binding = self.expect_ident()?;
        Ok(Source {
            root,
            steps,
            binding,
        })
    }

    // step := edge_alt quant?
    // edge_alt := edge | '(' edge ('|' edge)* ')'
    // edge := ident '~'?
    fn path_step(&mut self) -> Result<PathStep, PqlError> {
        let edges = if self.eat_sym("(") {
            let mut v = vec![self.edge_pattern()?];
            while self.eat_sym("|") {
                v.push(self.edge_pattern()?);
            }
            self.expect_sym(")")?;
            v
        } else {
            vec![self.edge_pattern()?]
        };
        let quant = if self.eat_sym("*") {
            Quant::Star
        } else if self.eat_sym("+") {
            Quant::Plus
        } else if self.eat_sym("?") {
            Quant::Opt
        } else {
            Quant::One
        };
        Ok(PathStep { edges, quant })
    }

    fn edge_pattern(&mut self) -> Result<EdgePattern, PqlError> {
        let label = self.expect_ident()?;
        let inverse = self.eat_sym("~");
        Ok(EdgePattern { label, inverse })
    }

    // Standard precedence: or < and < not < comparison < primary.
    fn expr(&mut self) -> Result<Expr, PqlError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, PqlError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs = Expr::Binary {
                op: "or".into(),
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, PqlError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            let rhs = self.not_expr()?;
            lhs = Expr::Binary {
                op: "and".into(),
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, PqlError> {
        if self.eat_kw("not") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr, PqlError> {
        let lhs = self.primary()?;
        for op in ["=", "!=", "<=", ">=", "<", ">"] {
            if self.eat_sym(op) {
                let rhs = self.primary()?;
                return Ok(Expr::Binary {
                    op: op.into(),
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                });
            }
        }
        if self.eat_kw("like") {
            let rhs = self.primary()?;
            return Ok(Expr::Binary {
                op: "like".into(),
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        if self.eat_kw("in") {
            self.expect_sym("(")?;
            let q = self.query()?;
            self.expect_sym(")")?;
            return Ok(Expr::InSubquery {
                expr: Box::new(lhs),
                query: Box::new(q),
            });
        }
        Ok(lhs)
    }

    fn primary(&mut self) -> Result<Expr, PqlError> {
        let Token { kind, pos } = self.bump();
        match kind {
            TokenKind::Str(s) => Ok(Expr::Lit(Literal::Str(s))),
            TokenKind::Int(i) => Ok(Expr::Lit(Literal::Int(i))),
            TokenKind::Keyword("true") => Ok(Expr::Lit(Literal::Bool(true))),
            TokenKind::Keyword("false") => Ok(Expr::Lit(Literal::Bool(false))),
            TokenKind::Keyword(f @ ("count" | "min" | "max")) => {
                self.expect_sym("(")?;
                let arg = self.expr()?;
                self.expect_sym(")")?;
                Ok(Expr::Aggregate {
                    func: f.to_string(),
                    arg: Box::new(arg),
                })
            }
            TokenKind::Keyword("exists") => {
                self.expect_sym("(")?;
                let q = self.query()?;
                self.expect_sym(")")?;
                Ok(Expr::Exists(Box::new(q)))
            }
            TokenKind::Sym("(") => {
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if self.eat_sym(".") {
                    let attr = self.expect_ident()?;
                    Ok(Expr::Attr(name, attr))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(PqlError::Parse {
                msg: format!("expected expression, found {other}"),
                pos,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_query() {
        let q = parse(
            r#"select Ancestor
               from Provenance.file as Atlas
                    Atlas.input* as Ancestor
               where Atlas.name = "atlas-x.gif""#,
        )
        .unwrap();
        assert_eq!(q.select.len(), 1);
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.from[0].root, PathRoot::Class("file".into()));
        assert_eq!(q.from[0].binding, "Atlas");
        assert_eq!(q.from[1].root, PathRoot::Var("Atlas".into()));
        assert_eq!(q.from[1].steps.len(), 1);
        assert_eq!(q.from[1].steps[0].quant, Quant::Star);
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn parses_alternation_and_inverse_edges() {
        let q = parse("select X from Provenance.file as F F.(input|version)*~x as X").unwrap_err();
        // `~` binds to the edge, not the group: the above is an error.
        let _ = q;
        let q = parse("select X from Provenance.file as F F.(input~|version)* as X").unwrap();
        let step = &q.from[1].steps[0];
        assert_eq!(step.edges.len(), 2);
        assert!(step.edges[0].inverse);
        assert!(!step.edges[1].inverse);
    }

    #[test]
    fn parses_comma_separated_sources_and_aliases() {
        let q = parse(
            "select F.name as filename, count(A) as n \
             from Provenance.file as F, F.input+ as A",
        )
        .unwrap();
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.select[0].alias.as_deref(), Some("filename"));
        assert!(matches!(q.select[1].expr, Expr::Aggregate { .. }));
    }

    #[test]
    fn parses_boolean_logic_with_precedence() {
        let q = parse(
            "select F from Provenance.file as F \
             where F.name = 'a' or F.name = 'b' and not F.size < 10",
        )
        .unwrap();
        // or(a, and(b, not(<))) — and binds tighter than or.
        match q.where_clause.unwrap() {
            Expr::Binary { op, rhs, .. } => {
                assert_eq!(op, "or");
                match *rhs {
                    Expr::Binary { op, .. } => assert_eq!(op, "and"),
                    other => panic!("expected and, got {other:?}"),
                }
            }
            other => panic!("expected or, got {other:?}"),
        }
    }

    #[test]
    fn parses_subqueries() {
        let q = parse(
            "select F from Provenance.file as F \
             where F.name in (select S.url as u from Provenance.session as S) \
             and exists (select P from Provenance.proc as P)",
        )
        .unwrap();
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn parses_like_and_quantifiers() {
        let q = parse(
            "select F from Provenance.file as F F.input? as G F.input+ as H \
             where F.name like '*.gif'",
        )
        .unwrap();
        assert_eq!(q.from[1].steps[0].quant, Quant::Opt);
        assert_eq!(q.from[2].steps[0].quant, Quant::Plus);
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse("select").is_err());
        assert!(parse("select X").is_err()); // no from
        assert!(parse("select X from").is_err());
        assert!(parse("select X from Provenance.file").is_err()); // no as
        assert!(parse("select X from Provenance.file as F where").is_err());
        assert!(parse("select X from Provenance.file as F extra!").is_err());
    }

    #[test]
    fn multi_step_paths() {
        let q = parse("select X from Provenance.proc as P P.input.input.version* as X").unwrap();
        assert_eq!(q.from[1].steps.len(), 3);
        assert_eq!(q.from[1].steps[0].quant, Quant::One);
        assert_eq!(q.from[1].steps[2].quant, Quant::Star);
    }
}
