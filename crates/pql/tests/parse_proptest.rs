//! Hostile input to the parser: query text comes from clients, so
//! `pql::parse` must answer any string — arbitrary Unicode, or one of
//! the benchmark's five query shapes with characters inserted, deleted
//! or replaced — with a query or a `PqlError::Parse` whose position
//! is a character boundary of the input. It must never panic. And the
//! keyword recognizer must not care how a keyword is cased or how the
//! tokens are spaced: each shape, respelled, parses to the AST of its
//! canonical text.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pql::PqlError;
use proptest::prelude::*;

/// The five query shapes the ledger benchmark runs: point, shallow and
/// deep ancestry, descendants, and a name prefix.
const SHAPES: [&str; 5] = [
    "select F.name from Provenance.file as F where F.name = '/obj/f-7.o'",
    "select A.name from Provenance.file as F F.input* as A where F.name = '/obj/f-7.o'",
    "select A.name from Provenance.file as F F.input* as A where F.name = '/lib/l-0.a'",
    "select D.name from Provenance.file as F F.input~* as D where F.name = '/src/f-7.c'",
    "select F.name from Provenance.file as F where F.name like '/obj/f-12*'",
];

/// Characters the lexer treats specially, and multi-byte ones whose
/// UTF-8 bytes a byte-wise lexer misreads: `\u{85}` and `\u{a0}` end in
/// bytes that are whitespace as Latin-1, `€` is three bytes, `🦀` four.
const TRICKY: [char; 22] = [
    '\'', '"', '\\', '!', '<', '>', '=', '-', '.', '*', '~', '(', ')', ' ', '\n', 'é', '€', '中',
    '🦀', '\u{85}', '\u{a0}', '\u{feff}',
];

/// One character: any scalar value, printable ASCII, or a tricky one.
fn arb_char() -> impl Strategy<Value = char> {
    (0u32..3, any::<u32>()).prop_map(|(kind, x)| match kind {
        0 => char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}'),
        1 => char::from(b' ' + (x % 95) as u8),
        _ => TRICKY[x as usize % TRICKY.len()],
    })
}

/// An edit at a character index: insert, delete or replace.
#[derive(Clone, Debug)]
enum Edit {
    Insert(usize, char),
    Delete(usize),
    Replace(usize, char),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    (0u32..3, any::<usize>(), arb_char()).prop_map(|(kind, at, c)| match kind {
        0 => Edit::Insert(at, c),
        1 => Edit::Delete(at),
        _ => Edit::Replace(at, c),
    })
}

fn mutate(shape: &str, edits: &[Edit]) -> String {
    let mut chars: Vec<char> = shape.chars().collect();
    for edit in edits {
        match *edit {
            Edit::Insert(at, c) => chars.insert(at % (chars.len() + 1), c),
            Edit::Delete(_) | Edit::Replace(..) if chars.is_empty() => {}
            Edit::Delete(at) => {
                chars.remove(at % chars.len());
            }
            Edit::Replace(at, c) => {
                let at = at % chars.len();
                chars[at] = c;
            }
        }
    }
    chars.into_iter().collect()
}

/// Parses `text`, failing (instead of unwinding) if the parser panics
/// or reports an error anywhere but at a character boundary.
fn parses_or_refuses(text: &str) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| pql::parse(text))) {
        Err(_) => Err(format!("pql::parse panicked on {text:?}")),
        Ok(Ok(_)) => Ok(()),
        Ok(Err(PqlError::Parse { pos, .. })) if text.is_char_boundary(pos) => Ok(()),
        Ok(Err(other)) => Err(format!("{text:?}: {other:?}")),
    }
}

/// The tokens of a shape: words, quoted literals and single
/// punctuation characters (the shapes use no two-character operator).
fn tokens(shape: &str) -> Vec<&str> {
    let bytes = shape.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b' ' => {
                i += 1;
                continue;
            }
            b'\'' => {
                i += 1 + shape[i + 1..].find('\'').unwrap() + 1;
            }
            b if b.is_ascii_alphanumeric() || b == b'_' => {
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
            }
            _ => i += 1,
        }
        out.push(&shape[start..i]);
    }
    out
}

fn is_word(token: &str) -> bool {
    token
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// What may separate two tokens: nothing (unless both are words),
/// ASCII whitespace, or a comment.
const GAPS: [&str; 7] = ["", " ", "\t", "\n", "\r\n  ", " \x0b\x0c", " -- note\n"];

/// `shape` with every keyword's letters in the case `case` picks, bit
/// by bit, and `gaps` cycled between its tokens.
fn respell(shape: &str, case: u64, gaps: &[usize]) -> String {
    const KEYWORDS: [&str; 5] = ["select", "from", "as", "where", "like"];
    let mut out = String::new();
    let mut bit = 0;
    let mut prev: Option<&str> = None;
    for (k, token) in tokens(shape).into_iter().enumerate() {
        if let Some(prev) = prev {
            let gap = GAPS[gaps[k % gaps.len()]];
            let gap = if gap.is_empty() && is_word(prev) && is_word(token) {
                " "
            } else {
                gap
            };
            out.push_str(gap);
        }
        if KEYWORDS.contains(&token) {
            for c in token.chars() {
                let upper = case >> (bit % 64) & 1 == 1;
                bit += 1;
                out.push(if upper { c.to_ascii_uppercase() } else { c });
            }
        } else {
            out.push_str(token);
        }
        prev = Some(token);
    }
    out
}

#[test]
fn the_five_shapes_parse() {
    for shape in SHAPES {
        assert!(pql::parse(shape).is_ok(), "{shape}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_parses_or_is_refused(chars in proptest::collection::vec(arb_char(), 0..48)) {
        let text: String = chars.into_iter().collect();
        parses_or_refuses(&text)?;
    }

    #[test]
    fn respelled_shapes_parse_to_the_canonical_ast(
        shape in 0usize..SHAPES.len(),
        case in any::<u64>(),
        gaps in proptest::collection::vec(0..GAPS.len(), 1..8),
    ) {
        let text = respell(SHAPES[shape], case, &gaps);
        let canonical = pql::parse(SHAPES[shape]).unwrap();
        let parsed = pql::parse(&text);
        prop_assert!(parsed == Ok(canonical), "{text:?} parsed to {parsed:?}");
    }

    #[test]
    fn mutated_shapes_parse_or_are_refused(
        shape in 0usize..SHAPES.len(),
        edits in proptest::collection::vec(arb_edit(), 1..5),
    ) {
        parses_or_refuses(&mutate(SHAPES[shape], &edits))?;
    }
}
