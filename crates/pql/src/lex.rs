//! The PQL tokenizer.

use std::fmt;

/// A token with its source position (byte offset).
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Byte offset in the query text, for error messages.
    pub pos: usize,
}

/// Token kinds. Keywords are recognized case-insensitively and carry
/// their canonical spelling.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// `select`, `from`, `where`, `as`, `and`, `or`, `not`, `in`,
    /// `exists`, `like`, `count`, `min`, `max`, `true`, `false`.
    Keyword(&'static str),
    /// An identifier (variable, edge name, attribute name).
    Ident(String),
    /// A string literal.
    Str(String),
    /// An integer literal.
    Int(i64),
    /// `.` `,` `(` `)` `*` `+` `?` `~` `|` `=` `!=` `<` `<=` `>` `>=`
    Sym(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "keyword `{k}`"),
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Str(s) => write!(f, "string {s:?}"),
            TokenKind::Int(i) => write!(f, "integer {i}"),
            TokenKind::Sym(s) => write!(f, "`{s}`"),
            TokenKind::Eof => write!(f, "end of query"),
        }
    }
}

const KEYWORDS: &[&str] = &[
    "select", "from", "where", "as", "and", "or", "not", "in", "exists", "like", "count", "min",
    "max", "true", "false",
];

/// Tokenizes `input`, returning the token stream or an error message
/// with the offending position.
///
/// Outside string literals the language is ASCII: whitespace is ASCII
/// whitespace, and any other character — multi-byte ones included —
/// that starts no token is an error at its byte offset. The cursor
/// only ever stops on a character boundary, so no slice of `input`
/// can split a character.
pub fn lex(input: &str) -> Result<Vec<Token>, (String, usize)> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii() && (b as char).is_whitespace() {
            i += 1;
            continue;
        }
        // Comments: `--` to end of line.
        if b == b'-' && bytes.get(i + 1) == Some(&b'-') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let pos = i;
        if b.is_ascii_alphabetic() || b == b'_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &input[pos..i];
            let kind = match KEYWORDS.iter().find(|k| k.eq_ignore_ascii_case(word)) {
                Some(k) => TokenKind::Keyword(k),
                None => TokenKind::Ident(word.to_string()),
            };
            out.push(Token { kind, pos });
            continue;
        }
        if b.is_ascii_digit() {
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let n: i64 = input[pos..i]
                .parse()
                .map_err(|_| ("integer overflow".to_string(), pos))?;
            out.push(Token {
                kind: TokenKind::Int(n),
                pos,
            });
            continue;
        }
        if b == b'"' || b == b'\'' {
            let (s, end) =
                string_literal(input, pos).ok_or(("unterminated string".to_string(), pos))?;
            out.push(Token {
                kind: TokenKind::Str(s),
                pos,
            });
            i = end;
            continue;
        }
        let sym: Option<(&'static str, usize)> = match (b, bytes.get(i + 1)) {
            (b'!', Some(b'=')) => Some(("!=", 2)),
            (b'<', Some(b'=')) => Some(("<=", 2)),
            (b'>', Some(b'=')) => Some((">=", 2)),
            (b'.', _) => Some((".", 1)),
            (b',', _) => Some((",", 1)),
            (b'(', _) => Some(("(", 1)),
            (b')', _) => Some((")", 1)),
            (b'*', _) => Some(("*", 1)),
            (b'+', _) => Some(("+", 1)),
            (b'?', _) => Some(("?", 1)),
            (b'~', _) => Some(("~", 1)),
            (b'|', _) => Some(("|", 1)),
            (b'=', _) => Some(("=", 1)),
            (b'<', _) => Some(("<", 1)),
            (b'>', _) => Some((">", 1)),
            _ => None,
        };
        match sym {
            Some((s, n)) => {
                out.push(Token {
                    kind: TokenKind::Sym(s),
                    pos,
                });
                i += n;
            }
            None => {
                let c = input[i..].chars().next().unwrap_or_default();
                return Err((format!("unexpected character {c:?}"), pos));
            }
        }
    }
    out.push(Token {
        kind: TokenKind::Eof,
        pos: input.len(),
    });
    Ok(out)
}

/// The string literal whose opening quote is at byte `open`: its value
/// and the offset just past its closing quote, or `None` if the input
/// ends first. Stretches without escapes are copied as UTF-8 slices;
/// `\n` and `\t` decode to newline and tab, and a backslash before any
/// other character stands for that character.
fn string_literal(input: &str, open: usize) -> Option<(String, usize)> {
    let bytes = input.as_bytes();
    let quote = bytes[open];
    let mut s = String::new();
    // The start of the stretch not yet copied; quote and backslash
    // are ASCII, so every cut below falls on a character boundary.
    let mut from = open + 1;
    let mut i = from;
    loop {
        match *bytes.get(i)? {
            b if b == quote => {
                s.push_str(&input[from..i]);
                return Some((s, i + 1));
            }
            b'\\' if i + 1 < bytes.len() => {
                s.push_str(&input[from..i]);
                let next = input[i + 1..].chars().next()?;
                s.push(match next {
                    'n' => '\n',
                    't' => '\t',
                    other => other,
                });
                i += 1 + next.len_utf8();
                from = i;
            }
            _ => i += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        lex(input).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_the_paper_query() {
        let q = r#"select Ancestor
from Provenance.file as Atlas
     Atlas.input* as Ancestor
where Atlas.name = "atlas-x.gif""#;
        let toks = kinds(q);
        assert_eq!(toks[0], TokenKind::Keyword("select"));
        assert!(toks.contains(&TokenKind::Ident("Provenance".into())));
        assert!(toks.contains(&TokenKind::Sym("*")));
        assert!(toks.contains(&TokenKind::Str("atlas-x.gif".into())));
        assert_eq!(toks.last(), Some(&TokenKind::Eof));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            kinds("SELECT SeLeCt select")[0],
            TokenKind::Keyword("select")
        );
        assert_eq!(kinds("WHERE")[0], TokenKind::Keyword("where"));
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            kinds("a != b <= c >= d"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Sym("!="),
                TokenKind::Ident("b".into()),
                TokenKind::Sym("<="),
                TokenKind::Ident("c".into()),
                TokenKind::Sym(">="),
                TokenKind::Ident("d".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn strings_support_both_quotes_and_escapes() {
        assert_eq!(
            kinds(r#" "a\"b" 'c' "#),
            vec![
                TokenKind::Str("a\"b".into()),
                TokenKind::Str("c".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = kinds("select -- this is a comment\n x");
        assert_eq!(toks.len(), 3);
    }

    #[test]
    fn string_literals_keep_their_utf8() {
        assert_eq!(
            kinds(r#"'café' "λ\t中" 'a\é🦀'"#),
            vec![
                TokenKind::Str("café".into()),
                TokenKind::Str("λ\t中".into()),
                TokenKind::Str("aé🦀".into()),
                TokenKind::Eof
            ]
        );
    }

    /// A multi-byte character outside a string literal is an error at
    /// its offset, not a panic on a slice that splits it, and its
    /// continuation bytes are never read as whitespace.
    #[test]
    fn non_ascii_outside_a_string_is_an_error_at_its_offset() {
        let q = "select F from Provenance.file as F where F.name = 'x' €";
        assert_eq!(lex(q).unwrap_err(), ("unexpected character '€'".into(), 54));
        assert_eq!(lex("a !€").unwrap_err().1, 2);
        assert_eq!(lex("a\u{a0}b").unwrap_err().1, 1);
        assert_eq!(lex("a\u{85}b").unwrap_err().1, 1);
        assert!(lex("'é").unwrap_err().0.contains("unterminated"));
        assert!(lex("'é\\").unwrap_err().0.contains("unterminated"));
    }

    #[test]
    fn errors_carry_positions() {
        let err = lex("select @").unwrap_err();
        assert_eq!(err.1, 7);
        let err = lex("\"unterminated").unwrap_err();
        assert!(err.0.contains("unterminated"));
    }
}
