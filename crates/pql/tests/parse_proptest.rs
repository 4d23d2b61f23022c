//! Hostile input to the parser: query text comes from clients, so
//! `pql::parse` must answer any string — arbitrary Unicode, or one of
//! the benchmark's five query shapes with characters inserted, deleted
//! or replaced — with a query or a `PqlError::Parse` whose position
//! is a character boundary of the input. It must never panic.

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
    fn mutated_shapes_parse_or_are_refused(
        shape in 0usize..SHAPES.len(),
        edits in proptest::collection::vec(arb_edit(), 1..5),
    ) {
        parses_or_refuses(&mutate(SHAPES[shape], &edits))?;
    }
}
