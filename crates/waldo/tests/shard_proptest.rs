//! Property tests for shard routing, batching and commit order.
//!
//! The three invariants the sharded engine rests on:
//!
//! * routing is a pure function of the pnode and the shard count —
//!   the same pnode always lands on the same shard, regardless of
//!   ingest order, batch boundaries, or which store instance routes;
//! * batch granularity is invisible: the same entry stream ingested
//!   at any batch size (including record-at-a-time) produces an
//!   identical database;
//! * disjoint commits commute: complete transactions over disjoint
//!   subjects, committed in any order, leave byte-equal shards;
//! * the dense layout follows arrival order, and nothing observable
//!   does: one stream applied as one group, as shuffled groups, through
//!   checkpoint and restart, or as two merged halves reads the same.

use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
use lasagna::LogEntry;
use proptest::prelude::*;
use proptest::sample::Index;
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::fs::basefs::BaseFs;
use sim_os::syscall::Kernel;
use waldo::{IngestStats, Store, Waldo, WaldoConfig};

fn p(volume: u32, n: u64) -> Pnode {
    Pnode::new(VolumeId(volume), n)
}

fn prov(subject: ObjectRef, attr: Attribute, value: Value) -> LogEntry {
    LogEntry::Prov {
        subject,
        record: ProvenanceRecord::new(attr, value),
    }
}

/// A small random provenance stream over a bounded id space.
fn arb_entry() -> impl Strategy<Value = LogEntry> {
    let subject =
        (1u32..4, 1u64..64, 0u32..3).prop_map(|(vol, n, v)| ObjectRef::new(p(vol, n), Version(v)));
    prop_oneof![
        (subject.clone(), "[a-z]{1,8}")
            .prop_map(|(s, name)| { prov(s, Attribute::Name, Value::Str(format!("/{name}"))) }),
        (subject.clone(), 0u32..3).prop_map(|(s, t)| {
            let ty = ["FILE", "PROC", "PIPE"][t as usize];
            prov(s, Attribute::Type, Value::str(ty))
        }),
        // Application string attributes, filed in hashed indexes.
        (subject.clone(), 0u32..3, "[a-c]{1,3}").prop_map(|(s, k, value)| {
            prov(s, Attribute::Other(format!("NOTE{k}")), Value::Str(value))
        }),
        (subject.clone(), 1u64..64, 0u32..3).prop_map(|(s, n, v)| {
            prov(
                s,
                Attribute::Input,
                Value::Xref(ObjectRef::new(p(1, n), Version(v))),
            )
        }),
        (subject, 0u64..4096, 1u32..4096).prop_map(|(s, off, len)| LogEntry::DataWrite {
            subject: s,
            offset: off,
            len,
            digest: [7u8; 16],
        }),
    ]
}

/// [`arb_entry`], plus FREEZEs, so objects carry several versions.
fn arb_versioned_entry() -> impl Strategy<Value = LogEntry> {
    let freeze = (1u32..4, 1u64..64, 1i64..3).prop_map(|(vol, n, v)| {
        let subject = ObjectRef::new(p(vol, n), Version(0));
        prov(subject, Attribute::Freeze, Value::Int(v))
    });
    prop_oneof![arb_entry(), arb_entry(), arb_entry(), freeze]
}

/// The subject groups a stream splits into: entries of one subject
/// pnode stay in one group, in stream order.
const GROUPS: u64 = 5;

fn group_of(entry: &LogEntry) -> usize {
    match entry {
        LogEntry::Prov { subject, .. } | LogEntry::DataWrite { subject, .. } => {
            (subject.pnode.number % GROUPS) as usize
        }
        LogEntry::TxnBegin { .. } | LogEntry::TxnEnd { .. } => 0,
    }
}

/// What [`observed`] returns: images, objects, query answers, and the
/// ancestry cycle reported, if any.
type Observed = (
    Vec<Vec<u8>>,
    Vec<String>,
    Vec<Vec<String>>,
    Option<Vec<ObjectRef>>,
);

/// Everything a reader can see of a store: its canonical images, every
/// object's owned view, the answers to an `input*`, an `input~*`, a
/// `name like` and an application attribute's `like` and `=` query,
/// and the ancestry cycle it reports.
fn observed(db: &Store, name: &str) -> Observed {
    let mut pnodes = db.all_pnodes();
    pnodes.sort_unstable();
    let objects = pnodes
        .iter()
        .map(|p| format!("{:?}", db.object(*p)))
        .collect();
    let queries = [
        format!("select A from Provenance.obj as F F.input* as A where F.name = '{name}'"),
        format!("select D from Provenance.obj as F F.input~* as D where F.name = '{name}'"),
        "select F, F.name from Provenance.obj as F where F.name like '/a*'".to_string(),
        "select F, F.note1 from Provenance.obj as F where F.note1 like 'a*'".to_string(),
        "select F from Provenance.obj as F where F.note0 = 'b'".to_string(),
    ];
    let answers = queries.iter().map(|q| {
        let rows = pql::query(q, db).unwrap().rows;
        let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    });
    let cycle = db.input_cycle();
    (db.segment_images(), objects, answers.collect(), cycle)
}

/// Ring transactions in the commit-order property.
const RINGS: usize = 12;
/// Subjects per ring transaction.
const K: u64 = 6;

/// One complete transaction: K subjects, each naming the next in a
/// ring as its input, so every commit applies on several shards *and*
/// routes reverse edges to others. Transaction ids are plain (outside
/// the batch-id space), so replay suppression never triggers.
fn ring_txn(t: usize) -> Vec<LogEntry> {
    let id = t as u64 + 1;
    let node = |j: u64| ObjectRef::new(p(9, 1_000 * id + j % K), Version(0));
    let mut entries = vec![LogEntry::TxnBegin { id }];
    for j in 0..K {
        let ring = Value::str(format!("t{t}"));
        entries.push(prov(node(j), Attribute::Other("RING".into()), ring));
        entries.push(prov(node(j), Attribute::Input, Value::Xref(node(j + 1))));
    }
    entries.push(LogEntry::TxnEnd { id });
    entries
}

proptest! {
    /// The same pnode routes to the same shard on every store with the
    /// same shard count, and every route is in range.
    #[test]
    fn routing_is_stable_and_in_range(
        vol in 1u32..8,
        n in 0u64..1_000_000,
        shards in 1usize..64,
    ) {
        let cfg = WaldoConfig {
            shards,
            ingest_batch: 64,
            ancestry_cache: 0,
            ..WaldoConfig::default()
        };
        let a = Store::with_config(cfg);
        let b = Store::with_config(cfg);
        let node = p(vol, n);
        prop_assert_eq!(a.shard_of(node), b.shard_of(node));
        prop_assert!(a.shard_of(node) < a.shard_count());
        // Routing does not change as the store ingests (rehash
        // stability): ingest something unrelated and re-route.
        let mut c = Store::with_config(cfg);
        c.ingest(&[prov(
            ObjectRef::new(p(vol, n.wrapping_add(1)), Version(0)),
            Attribute::Name,
            Value::str("/x"),
        )]);
        prop_assert_eq!(c.shard_of(node), a.shard_of(node));
    }

    /// Pnodes spread across shards: 256 distinct pnodes on 8 shards
    /// never collapse onto a single shard.
    #[test]
    fn routing_distributes(seed in 0u64..10_000) {
        let store = Store::with_config(WaldoConfig {
            shards: 8,
            ingest_batch: 64,
            ancestry_cache: 0,
            ..WaldoConfig::default()
        });
        let mut used = std::collections::HashSet::new();
        for i in 0..256u64 {
            used.insert(store.shard_of(p(1, seed * 256 + i)));
        }
        prop_assert!(used.len() > 1, "all 256 pnodes routed to one shard");
    }

    /// Batch boundaries are invisible: any stream ingested whole, per
    /// record, and in random-size batches yields identical databases
    /// (objects, sizes, indexes, traversals).
    #[test]
    fn batching_is_transparent(
        entries in proptest::collection::vec(arb_entry(), 1..120),
        batch in 1usize..40,
        shards in 1usize..16,
    ) {
        let mut whole = Store::with_config(WaldoConfig {
            shards: 1,
            ingest_batch: 1 << 20,
            ancestry_cache: 0,
            ..WaldoConfig::default()
        });
        whole.ingest(&entries);

        let mut batched = Store::with_config(WaldoConfig {
            shards,
            ingest_batch: batch,
            ancestry_cache: 8,
            ..WaldoConfig::default()
        });
        // Drive the staging path the daemon uses, committing at the
        // configured granularity.
        let mut stats = IngestStats::default();
        batched.begin_stream();
        for e in entries.iter().cloned() {
            batched.stage(e, None);
            if batched.staged_len() >= batch {
                batched.commit_staged(&mut stats);
            }
        }
        batched.commit_staged(&mut stats);

        prop_assert_eq!(whole.object_count(), batched.object_count());
        prop_assert_eq!(whole.size(), batched.size());
        prop_assert_eq!(whole.open_txns(), batched.open_txns());
        for vol in 1u32..4 {
            for n in 1u64..64 {
                let node = p(vol, n);
                prop_assert_eq!(whole.descendants(node), batched.descendants(node));
                for v in 0u32..3 {
                    let r = ObjectRef::new(node, Version(v));
                    prop_assert_eq!(whole.ancestors(r), batched.ancestors(r));
                    prop_assert_eq!(whole.inputs_of(r), batched.inputs_of(r));
                    // Reverse-edge order is unspecified (it follows
                    // commit grouping); compare as sets.
                    let mut wo = whole.outputs_of(r);
                    let mut bo = batched.outputs_of(r);
                    wo.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
                    bo.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
                    prop_assert_eq!(wo, bo);
                }
            }
        }
        prop_assert_eq!(whole.find_by_type("FILE"), batched.find_by_type("FILE"));
        prop_assert_eq!(whole.find_by_type("PROC"), batched.find_by_type("PROC"));
    }

    /// Commit order is invisible across disjoint transactions: ring
    /// transactions committed one by one in a shuffled order give the
    /// same images as all of them ingested in one shot.
    #[test]
    fn disjoint_transactions_commit_in_any_order(
        picks in proptest::collection::vec(any::<Index>(), RINGS..RINGS + 1),
    ) {
        let cfg = WaldoConfig {
            shards: 8,
            ancestry_cache: 64,
            ..WaldoConfig::default()
        };
        let mut one_shot = Store::with_config(cfg);
        one_shot.ingest(&(0..RINGS).flat_map(ring_txn).collect::<Vec<_>>());

        // Fisher-Yates over the drawn indices.
        let mut order: Vec<usize> = (0..RINGS).collect();
        for i in (1..RINGS).rev() {
            order.swap(i, picks[i].index(i + 1));
        }
        let mut shuffled = Store::with_config(cfg);
        for t in order {
            shuffled.ingest(&ring_txn(t));
        }
        prop_assert_eq!(shuffled.segment_images(), one_shot.segment_images());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A store's rows sit in arrival order, and nothing a reader sees
    /// depends on it: one stream ingested as one group, as disjoint
    /// subject groups committed in a shuffled order, through a base
    /// checkpoint, a delta checkpoint and a cold restart, and as two
    /// halves merged, gives equal images, objects and query answers.
    #[test]
    fn layout_does_not_depend_on_arrival_order(
        entries in proptest::collection::vec(arb_versioned_entry(), 1..150),
        picks in proptest::collection::vec(any::<Index>(), GROUPS as usize..GROUPS as usize + 1),
    ) {
        let cfg = WaldoConfig { ancestry_cache: 64, ..WaldoConfig::default() };
        let name = entries.iter().find_map(|e| match e {
            LogEntry::Prov { record, .. } if record.attribute == Attribute::Name => {
                record.value.as_str().map(str::to_string)
            }
            _ => None,
        }).unwrap_or_default();
        let mut one_group = Store::with_config(cfg);
        one_group.ingest(&entries);
        let want = observed(&one_group, &name);

        let mut groups: Vec<Vec<LogEntry>> = vec![Vec::new(); GROUPS as usize];
        for e in &entries {
            groups[group_of(e)].push(e.clone());
        }
        for i in (1..groups.len()).rev() {
            groups.swap(i, picks[i].index(i + 1));
        }
        let mut shuffled = Store::with_config(cfg);
        for g in &groups {
            shuffled.ingest(g);
        }
        prop_assert_eq!(&observed(&shuffled, &name), &want);

        // The same shuffled groups, checkpointed twice (a base, then a
        // delta) and restarted from disk.
        let clock = Clock::new();
        let mut kernel = Kernel::new(clock.clone(), CostModel::default());
        kernel.mount("/", Box::new(BaseFs::new(clock, CostModel::default())));
        let pid = kernel.spawn_init("waldo");
        let mut waldo = Waldo::with_config(pid, cfg);
        waldo.attach_db_dir(&mut kernel, "/db").unwrap();
        let (first, rest) = groups.split_at(groups.len() / 2);
        for part in [first, rest] {
            for g in part {
                waldo.db.ingest(g);
            }
            waldo.checkpoint(&mut kernel).unwrap();
        }
        drop(waldo);
        let pid = kernel.spawn_init("waldo-restarted");
        let restarted = Waldo::restart(pid, &mut kernel, cfg, "/db", &[]).unwrap();
        prop_assert_eq!(&observed(&restarted.db, &name), &want);

        // Two halves by subject, ingested apart and merged.
        let (mut even, mut odd) = (Store::with_config(cfg), Store::with_config(cfg));
        for (i, g) in groups.iter().enumerate() {
            if i % 2 == 0 { even.ingest(g) } else { odd.ingest(g) };
        }
        even.merge(&odd).unwrap();
        prop_assert_eq!(&observed(&even, &name), &want);
    }
}

/// Many application-attribute values — more keys per hashed index
/// than a few, so two indexes' hash orders differ — encode to the same
/// images whether they arrive in one group, in small staged commits,
/// or through a base checkpoint, a delta checkpoint and a cold
/// restart: every index is written in key order, never in hash order.
#[test]
fn application_values_encode_in_key_order_whatever_the_batching() {
    let cfg = WaldoConfig {
        shards: 4,
        ..WaldoConfig::default()
    };
    let mut entries = Vec::new();
    for n in 0..400u64 {
        let subject = ObjectRef::new(p(1, n), Version(0));
        entries.push(prov(
            subject,
            Attribute::Name,
            Value::Str(format!("/o/{n}")),
        ));
        for k in 0..3u64 {
            let value = Value::Str(format!("v{}-{}", (n * 7 + k) % 150, k));
            entries.push(prov(subject, Attribute::Other(format!("EVENT{k}")), value));
        }
        entries.push(prov(
            subject,
            Attribute::Params,
            Value::Str(format!("-j{n}")),
        ));
    }

    let mut whole = Store::with_config(cfg);
    whole.ingest(&entries);
    let want = whole.segment_images();

    let mut staged = Store::with_config(cfg);
    let mut stats = IngestStats::default();
    staged.begin_stream();
    for e in entries.iter().cloned() {
        staged.stage(e, None);
        if staged.staged_len() >= 7 {
            staged.commit_staged(&mut stats);
        }
    }
    staged.commit_staged(&mut stats);
    assert!(
        staged.segment_images() == want,
        "staged commits moved bytes"
    );

    let clock = Clock::new();
    let mut kernel = Kernel::new(clock.clone(), CostModel::default());
    kernel.mount("/", Box::new(BaseFs::new(clock, CostModel::default())));
    let pid = kernel.spawn_init("waldo");
    let mut waldo = Waldo::with_config(pid, cfg);
    waldo.attach_db_dir(&mut kernel, "/db").unwrap();
    let (first, rest) = entries.split_at(entries.len() - 40);
    for part in [first, rest] {
        waldo.db.ingest(part);
        waldo.checkpoint(&mut kernel).unwrap();
    }
    assert!(
        waldo.checkpoint_stats().deltas_written > 0,
        "no delta was written"
    );
    drop(waldo);
    let pid = kernel.spawn_init("waldo-restarted");
    let restarted = Waldo::restart(pid, &mut kernel, cfg, "/db", &[]).unwrap();
    assert!(restarted.db.segment_images() == want, "restart moved bytes");
    assert_eq!(
        restarted.db.find_by_attr("EVENT1", "v8-1"),
        whole.find_by_attr("EVENT1", "v8-1")
    );
    assert_eq!(whole.find_by_attr("EVENT1", "v8-1").len(), 3);
}

/// A forged cycle is found, and the one reported is a shortest one:
/// 1 → 2 → 3 → 4 → 1 with the chord 3 → 1 holds the cycle 1 → 2 → 3.
#[test]
fn a_forged_cycle_is_found_shortest_first() {
    let at = |n| ObjectRef::new(p(1, n), Version(0));
    let edge = |from, to| prov(at(from), Attribute::Input, Value::Xref(at(to)));
    let mut db = Store::new();
    db.ingest(&[edge(5, 1), edge(6, 5)]);
    assert_eq!(db.input_cycle(), None);
    db.ingest(&[edge(1, 2), edge(2, 3), edge(3, 4), edge(4, 1), edge(3, 1)]);
    let cycle = db.input_cycle().expect("the forged cycle");
    assert_eq!(cycle.len(), 3, "{cycle:?}");
    for (i, r) in cycle.iter().enumerate() {
        let next = cycle[(i + 1) % cycle.len()];
        assert!(
            db.inputs_of(*r).iter().any(|(_, to)| *to == next),
            "{cycle:?}"
        );
    }
}
