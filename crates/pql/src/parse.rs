//! The PQL recursive-descent parser.

use std::mem;

use crate::ast::*;
use crate::eval::EdgeLabel;
use crate::lex::{LexError, Lexer, Token, TokenKind};
use crate::PqlError;

/// The parser's state: the lexer and the one token of lookahead.
struct Parser<'q> {
    lexer: Lexer<'q>,
    tok: Token<'q>,
}

/// Parses a query string into an AST that borrows it.
pub fn parse(input: &str) -> Result<Query<'_>, PqlError> {
    let mut lexer = Lexer::new(input);
    let tok = lexer.next_token().map_err(lex_error)?;
    let mut p = Parser { lexer, tok };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

fn lex_error((msg, pos): LexError) -> PqlError {
    PqlError::Parse { msg, pos }
}

impl<'q> Parser<'q> {
    fn peek(&self) -> &TokenKind<'q> {
        &self.tok.kind
    }

    fn pos(&self) -> usize {
        self.tok.pos
    }

    /// Takes the current token and lexes the next one. Past the end
    /// the lexer answers `Eof` again, so taking it leaves it in place.
    fn bump(&mut self) -> Result<Token<'q>, PqlError> {
        let next = self.lexer.next_token().map_err(lex_error)?;
        Ok(mem::replace(&mut self.tok, next))
    }

    fn eat_kw(&mut self, kw: &str) -> Result<bool, PqlError> {
        let found = matches!(self.peek(), TokenKind::Keyword(k) if *k == kw);
        if found {
            self.bump()?;
        }
        Ok(found)
    }

    fn eat_sym(&mut self, sym: &str) -> Result<bool, PqlError> {
        let found = matches!(self.peek(), TokenKind::Sym(s) if *s == sym);
        if found {
            self.bump()?;
        }
        Ok(found)
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), PqlError> {
        if self.eat_kw(kw)? {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {}", self.peek())))
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), PqlError> {
        if self.eat_sym(sym)? {
            Ok(())
        } else {
            Err(self.err(format!("expected `{sym}`, found {}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<&'q str, PqlError> {
        match *self.peek() {
            TokenKind::Ident(s) => {
                self.bump()?;
                Ok(s)
            }
            ref kind => Err(self.err(format!("expected identifier, found {kind}"))),
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
    fn query(&mut self) -> Result<Query<'q>, PqlError> {
        self.expect_kw("select")?;
        // Grown from empty, so a second item or source finds room.
        let mut select = Vec::new();
        loop {
            select.push(self.select_item()?);
            if !self.eat_sym(",")? {
                break;
            }
        }
        self.expect_kw("from")?;
        let mut from = Vec::new();
        loop {
            from.push(self.source()?);
            // Sources may be comma-separated or juxtaposed (as in the
            // paper's sample query).
            if !(self.eat_sym(",")? || matches!(self.peek(), TokenKind::Ident(_))) {
                break;
            }
        }
        let where_clause = if self.eat_kw("where")? {
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

    fn select_item(&mut self) -> Result<SelectItem<'q>, PqlError> {
        let expr = self.expr()?;
        let alias = if self.eat_kw("as")? {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    // source := root ('.' step)* AS ident
    fn source(&mut self) -> Result<Source<'q>, PqlError> {
        let first = self.expect_ident()?;
        let root = if first == "Provenance" {
            self.expect_sym(".")?;
            PathRoot::Class(self.expect_ident()?)
        } else {
            PathRoot::Var(first)
        };
        let mut steps = Vec::new();
        while self.eat_sym(".")? {
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
        let edges = if self.eat_sym("(")? {
            let mut v = vec![self.edge_pattern()?];
            while self.eat_sym("|")? {
                v.push(self.edge_pattern()?);
            }
            self.expect_sym(")")?;
            v
        } else {
            vec![self.edge_pattern()?]
        };
        let quant = match *self.peek() {
            TokenKind::Sym("*") => Quant::Star,
            TokenKind::Sym("+") => Quant::Plus,
            TokenKind::Sym("?") => Quant::Opt,
            _ => {
                return Ok(PathStep {
                    edges,
                    quant: Quant::One,
                })
            }
        };
        self.bump()?;
        Ok(PathStep { edges, quant })
    }

    fn edge_pattern(&mut self) -> Result<EdgePattern, PqlError> {
        let label = EdgeLabel::from_name(self.expect_ident()?);
        let inverse = self.eat_sym("~")?;
        Ok(EdgePattern { label, inverse })
    }

    // Standard precedence: or < and < not < comparison < primary.
    fn expr(&mut self) -> Result<Expr<'q>, PqlError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr<'q>, PqlError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or")? {
            let rhs = self.and_expr()?;
            lhs = binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr<'q>, PqlError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and")? {
            let rhs = self.not_expr()?;
            lhs = binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr<'q>, PqlError> {
        if self.eat_kw("not")? {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr<'q>, PqlError> {
        let lhs = self.primary()?;
        let op = match *self.peek() {
            TokenKind::Sym("=") => BinOp::Eq,
            TokenKind::Sym("!=") => BinOp::Ne,
            TokenKind::Sym("<=") => BinOp::Le,
            TokenKind::Sym(">=") => BinOp::Ge,
            TokenKind::Sym("<") => BinOp::Lt,
            TokenKind::Sym(">") => BinOp::Gt,
            TokenKind::Keyword("like") => BinOp::Like,
            TokenKind::Keyword("in") => {
                self.bump()?;
                let query = self.subquery()?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(lhs),
                    query,
                });
            }
            _ => return Ok(lhs),
        };
        self.bump()?;
        let rhs = self.primary()?;
        Ok(binary(op, lhs, rhs))
    }

    /// `( query )`, the opening parenthesis next.
    fn subquery(&mut self) -> Result<Box<Query<'q>>, PqlError> {
        self.expect_sym("(")?;
        let q = self.query()?;
        self.expect_sym(")")?;
        Ok(Box::new(q))
    }

    fn primary(&mut self) -> Result<Expr<'q>, PqlError> {
        let Token { kind, pos } = self.bump()?;
        let func = match kind {
            TokenKind::Str(s) => return Ok(Expr::Lit(Literal::Str(s))),
            TokenKind::Int(i) => return Ok(Expr::Lit(Literal::Int(i))),
            TokenKind::Keyword("true") => return Ok(Expr::Lit(Literal::Bool(true))),
            TokenKind::Keyword("false") => return Ok(Expr::Lit(Literal::Bool(false))),
            TokenKind::Keyword("count") => AggFunc::Count,
            TokenKind::Keyword("min") => AggFunc::Min,
            TokenKind::Keyword("max") => AggFunc::Max,
            TokenKind::Keyword("exists") => return Ok(Expr::Exists(self.subquery()?)),
            TokenKind::Sym("(") => {
                let e = self.expr()?;
                self.expect_sym(")")?;
                return Ok(e);
            }
            TokenKind::Ident(name) => {
                return Ok(if self.eat_sym(".")? {
                    Expr::Attr(name, self.expect_ident()?)
                } else {
                    Expr::Var(name)
                });
            }
            other => {
                return Err(PqlError::Parse {
                    msg: format!("expected expression, found {other}"),
                    pos,
                })
            }
        };
        self.expect_sym("(")?;
        let arg = self.expr()?;
        self.expect_sym(")")?;
        Ok(Expr::Aggregate {
            func,
            arg: Box::new(arg),
        })
    }
}

fn binary<'q>(op: BinOp, lhs: Expr<'q>, rhs: Expr<'q>) -> Expr<'q> {
    Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
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
        assert_eq!(q.from[0].root, PathRoot::Class("file"));
        assert_eq!(q.from[0].binding, "Atlas");
        assert_eq!(q.from[1].root, PathRoot::Var("Atlas"));
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
        assert_eq!(q.select[0].alias, Some("filename"));
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
                assert_eq!(op, BinOp::Or);
                match *rhs {
                    Expr::Binary { op, .. } => assert_eq!(op, BinOp::And),
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
