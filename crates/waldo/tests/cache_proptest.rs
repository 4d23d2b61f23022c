//! The query caches are invisible: a cached store answers every
//! traversal exactly as a twin with caching off (`ancestry_cache: 0`)
//! does, after every commit of a random stream.
//!
//! The stream covers what the dirty-log rule must get right:
//! multi-version subjects and FREEZE (version edges), xrefs to pnodes
//! that get their first row in a later commit, open transactions that
//! complete later (their entries apply at the closing commit),
//! discarded transactions, multi-shard ring transactions, and a
//! `merge` mid-stream (which flushes the log). Capacity 8 keeps the
//! LRU evicting and the log truncating; 256 keeps entries alive across
//! long stretches of commits.

use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
use lasagna::LogEntry;
use pql::{EdgeLabel, GraphSource};
use proptest::prelude::*;
use waldo::{Store, WaldoConfig};

/// Pnodes the stream and the questions range over.
const PNODES: u64 = 12;
/// Subjects per ring transaction.
const RING: u64 = 4;

fn r(n: u64, v: u32) -> ObjectRef {
    ObjectRef::new(Pnode::new(VolumeId(1), n), Version(v))
}

fn prov(subject: ObjectRef, attr: Attribute, value: Value) -> LogEntry {
    LogEntry::Prov {
        subject,
        record: ProvenanceRecord::new(attr, value),
    }
}

fn node() -> impl Strategy<Value = ObjectRef> {
    (1..PNODES + 1, 0u32..3).prop_map(|(n, v)| r(n, v))
}

fn arb_entry() -> impl Strategy<Value = LogEntry> {
    let input = || (node(), node()).prop_map(|(s, a)| prov(s, Attribute::Input, Value::Xref(a)));
    prop_oneof![
        input(),
        input(),
        input(),
        (node(), node()).prop_map(|(s, a)| prov(s, Attribute::CurrentUrl, Value::Xref(a))),
        (node(), "[a-c]").prop_map(|(s, n)| prov(s, Attribute::Name, Value::Str(n))),
        (1..PNODES + 1, 1i64..3).prop_map(|(n, v)| prov(r(n, 0), Attribute::Freeze, Value::Int(v))),
        node().prop_map(|s| LogEntry::DataWrite {
            subject: s,
            offset: 0,
            len: 8,
            digest: [1u8; 16],
        }),
    ]
}

#[derive(Clone, Debug)]
enum Step {
    /// One ingest: one group commit.
    Commit(Vec<LogEntry>),
    /// Entries buffered under an open transaction.
    Open(u64, Vec<LogEntry>),
    /// The transaction's end: its buffer applies now.
    Close(u64),
    Discard(u64),
    /// A complete transaction whose subjects name each other in a
    /// ring, from a start pnode at a version.
    Ring(u64, u32),
    /// A store holding these entries, merged in.
    Merge(Vec<LogEntry>),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let entries = || proptest::collection::vec(arb_entry(), 1..8);
    let commit = || entries().prop_map(Step::Commit);
    prop_oneof![
        commit(),
        commit(),
        commit(),
        (1u64..4, entries()).prop_map(|(id, e)| Step::Open(id, e)),
        (1u64..4).prop_map(Step::Close),
        (1u64..4).prop_map(Step::Discard),
        (1..PNODES + 1, 0u32..3).prop_map(|(n, v)| Step::Ring(n, v)),
        entries().prop_map(Step::Merge),
    ]
}

fn ring_txn(start: u64, v: u32) -> Vec<LogEntry> {
    let at = |j: u64| r(1 + (start + j) % PNODES, v);
    let mut entries = vec![LogEntry::TxnBegin { id: 99 }];
    for j in 0..RING {
        entries.push(prov(at(j), Attribute::Input, Value::Xref(at(j + 1))));
    }
    entries.push(LogEntry::TxnEnd { id: 99 });
    entries
}

fn apply(db: &mut Store, step: &Step) {
    match step {
        Step::Commit(entries) => {
            db.ingest(entries);
        }
        Step::Open(id, entries) => {
            let mut image = vec![LogEntry::TxnBegin { id: *id }];
            image.extend(entries.iter().cloned());
            db.ingest(&image);
        }
        Step::Close(id) => {
            db.ingest(&[LogEntry::TxnEnd { id: *id }]);
        }
        Step::Discard(id) => {
            db.discard_txn(*id);
        }
        Step::Ring(start, v) => {
            db.ingest(&ring_txn(*start, *v));
        }
        Step::Merge(entries) => {
            let mut other = Store::with_config(db.config());
            other.ingest(entries);
            db.merge(&other).expect("a plain store merges");
        }
    }
}

fn label(i: usize) -> EdgeLabel {
    [EdgeLabel::Input, EdgeLabel::Any, EdgeLabel::CurrentUrl][i].clone()
}

#[derive(Clone, Debug)]
enum Ask {
    Ancestors(ObjectRef),
    Descendants(u64),
    Closure(ObjectRef, usize, bool),
    OutEdges(ObjectRef, usize),
    InEdges(ObjectRef, usize),
}

fn arb_ask() -> impl Strategy<Value = Ask> {
    let closure = || (node(), 0usize..3, any::<bool>()).prop_map(|(n, l, i)| Ask::Closure(n, l, i));
    prop_oneof![
        node().prop_map(Ask::Ancestors),
        (1..PNODES + 1).prop_map(Ask::Descendants),
        closure(),
        closure(),
        (node(), 0usize..3).prop_map(|(n, l)| Ask::OutEdges(n, l)),
        (node(), 0usize..3).prop_map(|(n, l)| Ask::InEdges(n, l)),
    ]
}

fn answer(db: &Store, ask: &Ask) -> Vec<ObjectRef> {
    match ask {
        Ask::Ancestors(n) => db.ancestors(*n),
        Ask::Descendants(n) => db.descendants(r(*n, 0).pnode),
        Ask::Closure(n, l, inverse) => db.closure(*n, &label(*l), *inverse),
        Ask::OutEdges(n, l) => db.out_edges(*n, &label(*l)),
        Ask::InEdges(n, l) => db.in_edges(*n, &label(*l)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every step of a random stream, every question gets the
    /// cache-off twin's answer, on 1, 4 and 64 shards with caches of 8
    /// and 256 entries.
    #[test]
    fn cached_answers_equal_the_cache_off_twin(
        steps in proptest::collection::vec(arb_step(), 1..24),
        asks in proptest::collection::vec(arb_ask(), 1..24),
    ) {
        for shards in [1, 4, 64] {
            for capacity in [8, 256] {
                let cfg = WaldoConfig { shards, ancestry_cache: capacity, ..WaldoConfig::default() };
                let mut cached = Store::with_config(cfg);
                let mut twin = Store::with_config(WaldoConfig { ancestry_cache: 0, ..cfg });
                for (i, step) in steps.iter().enumerate() {
                    apply(&mut cached, step);
                    apply(&mut twin, step);
                    for ask in &asks {
                        let (got, want) = (answer(&cached, ask), answer(&twin, ask));
                        prop_assert!(
                            got == want,
                            "{ask:?} after step {i} ({step:?}), {shards} shards, \
                             capacity {capacity}: cached {got:?}, twin {want:?}"
                        );
                    }
                }
            }
        }
    }
}
