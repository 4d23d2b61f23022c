//! The PQL tokenizer.

use std::borrow::Cow;
use std::fmt;

/// A token with its source position (byte offset).
#[derive(Clone, Debug, PartialEq)]
pub struct Token<'q> {
    /// What the token is.
    pub kind: TokenKind<'q>,
    /// Byte offset in the query text, for error messages.
    pub pos: usize,
}

/// Token kinds, borrowing the query text. Keywords are recognized
/// case-insensitively and carry their canonical spelling.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind<'q> {
    /// `select`, `from`, `where`, `as`, `and`, `or`, `not`, `in`,
    /// `exists`, `like`, `count`, `min`, `max`, `true`, `false`.
    Keyword(&'static str),
    /// An identifier (variable, edge name, attribute name).
    Ident(&'q str),
    /// A string literal: a slice of the text unless it has escapes.
    Str(Cow<'q, str>),
    /// An integer literal.
    Int(i64),
    /// `.` `,` `(` `)` `*` `+` `?` `~` `|` `=` `!=` `<` `<=` `>` `>=`
    Sym(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
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

/// The keyword `word` spells, in any ASCII case: told apart by length
/// first, then by its bytes folded to lower case. `word` is an
/// identifier's bytes (`[A-Za-z0-9_]`), and setting bit 5 lowers a
/// letter without making a digit or `_` into one.
fn keyword(word: &[u8]) -> Option<&'static str> {
    let mut lower = [0u8; 6];
    let lower = lower.get_mut(..word.len())?;
    for (l, b) in lower.iter_mut().zip(word) {
        *l = b | 0x20;
    }
    Some(match &*lower {
        b"as" => "as",
        b"in" => "in",
        b"or" => "or",
        b"and" => "and",
        b"max" => "max",
        b"min" => "min",
        b"not" => "not",
        b"from" => "from",
        b"like" => "like",
        b"true" => "true",
        b"count" => "count",
        b"false" => "false",
        b"where" => "where",
        b"exists" => "exists",
        b"select" => "select",
        _ => return None,
    })
}

/// A lexer error: what is wrong, and the byte offset where.
pub type LexError = (String, usize);

/// Tokens of a query text, one at a time: the parser reads them as it
/// goes, so no token list is built.
///
/// Outside string literals the language is ASCII: whitespace is ASCII
/// whitespace, and any other character — multi-byte ones included —
/// that starts no token is an error at its byte offset. The cursor
/// only ever stops on a character boundary, so no slice of the input
/// can split a character.
pub struct Lexer<'q> {
    input: &'q str,
    at: usize,
}

impl<'q> Lexer<'q> {
    /// A lexer at the start of `input`.
    pub fn new(input: &'q str) -> Lexer<'q> {
        Lexer { input, at: 0 }
    }

    /// The next token, or [`TokenKind::Eof`] (again and again) once
    /// the input is used up.
    pub fn next_token(&mut self) -> Result<Token<'q>, LexError> {
        let input = self.input;
        let bytes = input.as_bytes();
        let mut i = self.at;
        loop {
            match bytes.get(i) {
                Some(&b) if b.is_ascii() && (b as char).is_whitespace() => i += 1,
                // Comments: `--` to end of line.
                Some(b'-') if bytes.get(i + 1) == Some(&b'-') => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        let pos = i;
        let Some(&b) = bytes.get(i) else {
            self.at = i;
            return Ok(Token {
                kind: TokenKind::Eof,
                pos,
            });
        };
        let kind = if b.is_ascii_alphabetic() || b == b'_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &input[pos..i];
            keyword(word.as_bytes()).map_or(TokenKind::Ident(word), TokenKind::Keyword)
        } else if b.is_ascii_digit() {
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let n: i64 = input[pos..i]
                .parse()
                .map_err(|_| ("integer overflow".to_string(), pos))?;
            TokenKind::Int(n)
        } else if b == b'"' || b == b'\'' {
            let (s, end) = string_literal(input, pos)
                .ok_or_else(|| ("unterminated string".to_string(), pos))?;
            i = end;
            TokenKind::Str(s)
        } else {
            let (sym, n) = match (b, bytes.get(i + 1)) {
                (b'!', Some(b'=')) => ("!=", 2),
                (b'<', Some(b'=')) => ("<=", 2),
                (b'>', Some(b'=')) => (">=", 2),
                (b'.', _) => (".", 1),
                (b',', _) => (",", 1),
                (b'(', _) => ("(", 1),
                (b')', _) => (")", 1),
                (b'*', _) => ("*", 1),
                (b'+', _) => ("+", 1),
                (b'?', _) => ("?", 1),
                (b'~', _) => ("~", 1),
                (b'|', _) => ("|", 1),
                (b'=', _) => ("=", 1),
                (b'<', _) => ("<", 1),
                (b'>', _) => (">", 1),
                _ => {
                    let c = input[i..].chars().next().unwrap_or_default();
                    return Err((format!("unexpected character {c:?}"), pos));
                }
            };
            i += n;
            TokenKind::Sym(sym)
        };
        self.at = i;
        Ok(Token { kind, pos })
    }
}

/// The string literal whose opening quote is at byte `open`: its value
/// and the offset just past its closing quote, or `None` if the input
/// ends first. A literal without escapes is a slice of `input`; `\n`
/// and `\t` decode to newline and tab, and a backslash before any
/// other character stands for that character.
fn string_literal(input: &str, open: usize) -> Option<(Cow<'_, str>, usize)> {
    let bytes = input.as_bytes();
    let quote = bytes[open];
    // The value decoded so far, once an escape has made it differ
    // from the text.
    let mut decoded: Option<String> = None;
    // The start of the stretch not yet copied; quote and backslash
    // are ASCII, so every cut below falls on a character boundary.
    let mut from = open + 1;
    let mut i = from;
    loop {
        match *bytes.get(i)? {
            b if b == quote => {
                let tail = &input[from..i];
                let value = match decoded {
                    None => Cow::Borrowed(tail),
                    Some(mut s) => {
                        s.push_str(tail);
                        Cow::Owned(s)
                    }
                };
                return Some((value, i + 1));
            }
            b'\\' if i + 1 < bytes.len() => {
                let s = decoded.get_or_insert_with(String::new);
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

    /// Every token of `input` through the final `Eof`, or the first
    /// error.
    fn lex(input: &str) -> Result<Vec<Token<'_>>, LexError> {
        let mut lexer = Lexer::new(input);
        let mut out = Vec::new();
        loop {
            let token = lexer.next_token()?;
            let eof = token.kind == TokenKind::Eof;
            out.push(token);
            if eof {
                return Ok(out);
            }
        }
    }

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
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
        assert!(toks.contains(&TokenKind::Ident("Provenance")));
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

    /// Only a whole keyword, in any case, is one: a longer, shorter,
    /// underscored or numbered word is an identifier (folding sends
    /// `_` to DEL and a digit to itself, never to a letter).
    #[test]
    fn keyword_lookalikes_are_identifiers() {
        for word in [
            "selects", "selec", "fro", "as_", "_as", "in1", "IN_", "frOm2", "likes",
        ] {
            assert_eq!(kinds(word)[0], TokenKind::Ident(word), "{word}");
        }
        for (word, kw) in [
            ("AS", "as"),
            ("In", "in"),
            ("ExIsTs", "exists"),
            ("FALSE", "false"),
        ] {
            assert_eq!(kinds(word)[0], TokenKind::Keyword(kw), "{word}");
        }
    }

    /// A literal without escapes borrows the query text; one with
    /// escapes is decoded into its own string.
    #[test]
    fn only_escaped_literals_are_copied() {
        let borrowed = |kind: &TokenKind<'_>| matches!(kind, TokenKind::Str(Cow::Borrowed(_)));
        let toks = kinds(r#"'plain' "" 'tab\there' 'a\'b'"#);
        assert_eq!(
            toks.iter().map(borrowed).collect::<Vec<_>>(),
            [true, true, false, false, false]
        );
        assert_eq!(toks[2], TokenKind::Str("tab\there".into()));
        assert_eq!(toks[3], TokenKind::Str("a'b".into()));
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            kinds("a != b <= c >= d"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Sym("!="),
                TokenKind::Ident("b"),
                TokenKind::Sym("<="),
                TokenKind::Ident("c"),
                TokenKind::Sym(">="),
                TokenKind::Ident("d"),
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
