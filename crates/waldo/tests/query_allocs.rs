//! How many times a deep ancestry answer calls the heap allocator.
//!
//! The `query_static` benchmark's deep class is the paper's §5.7 query
//! over a library: `select A.name … F.input* as A where F.name =
//! '/lib/…'`, about four rows per compile unit. On a build graph of
//! that shape — sources → compile processes → objects → a library —
//! with libraries of 64 and 256 units, the closure cache is warmed and
//! then the allocator calls of one planned query are counted: every
//! `alloc`, `alloc_zeroed` and `realloc` this thread makes from the
//! query text to the dropped answer.
//!
//! An answer costs a fixed number of allocations however many rows it
//! has: its cells share the store's interned strings and its rows sit
//! in one buffer. So the 256-unit library, with four times the rows,
//! may cost only what growing vectors by doubling adds: at most
//! [`DOUBLING_SLACK`] calls more than the 64-unit one. A copied string
//! or a `Vec` per row shows as hundreds. The counts are deterministic
//! for a build profile — nothing in the window depends on a clock, a
//! seed or a table's iteration order. One `#[test]` only: the counter
//! is per thread, but a second test in this binary would still share
//! the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
use lasagna::LogEntry;
use pql::OutValue;
use waldo::Store;

thread_local! {
    /// Allocator calls made by this thread. `const`-initialised and
    /// without a destructor, so touching it never allocates.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was held to; counting touches
// only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with `layout`; both are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const HEADERS: usize = 32;
/// The library sizes compared, in compile units.
const SMALL: usize = 64;
const LARGE: usize = 256;
/// Extra allocator calls the large library may cost: four times the
/// rows are two more doublings of each vector that grows with them,
/// and the answer path has fewer than four such vectors.
const DOUBLING_SLACK: u64 = 8;

/// Appends build-graph objects, pnode numbers in creation order: a
/// TYPE, a NAME and one INPUT per ancestor each.
struct Emitter {
    entries: Vec<LogEntry>,
    next: u64,
}

impl Emitter {
    fn object(&mut self, ty: &str, name: &str, inputs: &[ObjectRef]) -> ObjectRef {
        self.next += 1;
        let subject = ObjectRef::new(Pnode::new(VolumeId(1), self.next), Version(0));
        let mut push = |attribute, value| {
            self.entries.push(LogEntry::Prov {
                subject,
                record: ProvenanceRecord::new(attribute, value),
            })
        };
        push(Attribute::Type, Value::str(ty));
        push(Attribute::Name, Value::str(name));
        for i in inputs {
            push(Attribute::Input, Value::Xref(*i));
        }
        subject
    }

    /// A library of `units` compile units, each unit `/src/…` →
    /// `cc#…` (with a shared header) → `/obj/….o`, linked into
    /// `/lib/l-{units}.a`.
    fn library(&mut self, headers: &[ObjectRef], units: usize) {
        let objects: Vec<ObjectRef> = (0..units)
            .map(|i| {
                let unit = format!("u{units}-{i}");
                let src = self.object("FILE", &format!("/src/{unit}.c"), &[]);
                let cc = self.object("PROC", &format!("cc#{unit}"), &[src, headers[i % HEADERS]]);
                self.object("FILE", &format!("/obj/{unit}.o"), &[cc])
            })
            .collect();
        let ld = self.object("PROC", &format!("ld#l-{units}"), &objects);
        self.object("FILE", &format!("/lib/l-{units}.a"), &[ld]);
    }
}

fn deep_query(units: usize) -> String {
    format!(
        "select A.name from Provenance.file as F F.input* as A where F.name = '/lib/l-{units}.a'"
    )
}

/// The deep query with a residual filter on every row it answers.
fn filtered_query(units: usize) -> String {
    format!(
        "select A.name from Provenance.file as F F.input* as A \
         where F.name = '/lib/l-{units}.a' and A.name != 'zzz'"
    )
}

/// The deep query filtered by membership in a sub-query's answer:
/// the eleven headers named `/inc/h-1…`, whichever library's rows are
/// tested.
fn subquery_query(units: usize) -> String {
    format!(
        "select A.name from Provenance.file as F F.input* as A \
         where F.name = '/lib/l-{units}.a' \
         and A.name in (select H.name from Provenance.file as H where H.name like '/inc/h-1*')"
    )
}

/// One query of each class the `query_static` benchmark runs, over
/// the 64-unit library, with the allocator calls pinned for the whole
/// query and for its `pql::parse`. These are ratchets: a count may
/// fall, and then its pin falls with it; it may not rise.
const CLASSES: [(&str, &str, u64, u64); 5] = [
    (
        "point",
        "select F.name from Provenance.file as F where F.name = '/obj/u64-7.o'",
        13,
        4,
    ),
    (
        "shallow",
        "select A.name from Provenance.file as F F.input* as A where F.name = '/obj/u64-7.o'",
        16,
        6,
    ),
    (
        "deep",
        "select A.name from Provenance.file as F F.input* as A where F.name = '/lib/l-64.a'",
        16,
        6,
    ),
    (
        "descendants",
        "select D.name from Provenance.file as F F.input~* as D where F.name = '/src/u64-7.c'",
        16,
        6,
    ),
    (
        "prefix",
        "select F.name from Provenance.file as F where F.name like '/obj/u64-1*'",
        15,
        4,
    ),
];

/// Allocator calls of `f`, and what it returned.
fn calls<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = CALLS.get();
    let out = f();
    (CALLS.get() - before, out)
}

/// Allocator calls of one planned query from its text to its dropped
/// answer, after a warm-up run that fills the closure cache; and the
/// number of rows it answered.
fn counted(db: &Store, text: &str) -> (u64, usize) {
    let warm = pql::query(text, db).unwrap();
    let (calls, rows) = calls(|| pql::query_with_stats(text, db).unwrap().result.len());
    assert_eq!(rows, warm.len());
    (calls, rows)
}

#[test]
fn a_query_allocates_per_query_not_per_row() {
    let mut e = Emitter {
        entries: Vec::new(),
        next: 0,
    };
    let headers: Vec<ObjectRef> = (0..HEADERS)
        .map(|h| e.object("FILE", &format!("/inc/h-{h}.h"), &[]))
        .collect();
    e.library(&headers, SMALL);
    e.library(&headers, LARGE);
    let mut db = Store::new();
    db.ingest(&e.entries);

    // Each unit's three objects, the library and its link step, and
    // the headers the units compiled against.
    let closure = |units| 3 * units + 2 + HEADERS;
    for (what, query, answer) in [
        (
            "deep",
            deep_query as fn(usize) -> String,
            closure as fn(usize) -> usize,
        ),
        ("filtered", filtered_query, closure),
        // The sub-query runs once, not once per tested row.
        ("sub-query", subquery_query, |_| 11),
    ] {
        let (small, small_rows) = counted(&db, &query(SMALL));
        let (large, large_rows) = counted(&db, &query(LARGE));
        println!(
            "{what} query: {small} allocator calls for {small_rows} rows, \
             {large} for {large_rows} rows"
        );
        assert_eq!(small_rows, answer(SMALL));
        assert_eq!(large_rows, answer(LARGE));
        assert!(
            large <= small + DOUBLING_SLACK,
            "{what}: {large} allocator calls for {large_rows} rows against {small} for \
             {small_rows}: something allocates per row"
        );
    }

    let mut over = Vec::new();
    for (class, text, pin, parse_pin) in CLASSES {
        let (total, rows) = counted(&db, text);
        let (parse, _) = calls(|| pql::parse(text).map(drop));
        println!("{class}: {total} allocator calls ({parse} in pql::parse) for {rows} rows");
        assert!(rows > 0, "{class}: no answer");
        if total > pin || parse > parse_pin {
            over.push(format!(
                "{class}: {total} (pin {pin}), parse {parse} (pin {parse_pin})"
            ));
        }
    }
    assert!(
        over.is_empty(),
        "allocator calls above their pins: {over:?}"
    );

    // Two answers name one node with one allocation: the shard's.
    let a = pql::query(&deep_query(SMALL), &db).unwrap();
    let b = pql::query(&deep_query(SMALL), &db).unwrap();
    match (&a.rows[0][0], &b.rows[0][0]) {
        (OutValue::Str(x), OutValue::Str(y)) => {
            assert_eq!(&**x, "/lib/l-64.a");
            assert!(std::rc::Rc::ptr_eq(x, y), "the answers copied the name");
        }
        cells => panic!("not two strings: {cells:?}"),
    }
}
