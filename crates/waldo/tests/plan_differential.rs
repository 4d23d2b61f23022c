//! Differential test of the planned PQL pipeline against the naive
//! evaluator, over the *real* storage backend: random entry streams
//! ingested into the sharded store, random queries answered both
//! ways. This is where the index-backed `lookup_attr` override is
//! exercised end to end — a divergence between the store's secondary
//! indexes and its scan semantics shows up here as a planned/naive
//! mismatch.
//!
//! Planned and naive share the store's borrowing read path, so a bug
//! in it would cancel out between them. [`Snapshot`] closes that gap:
//! a second, deliberately naive `GraphSource` over the same store —
//! owned `Store::object` snapshots, lower-cased `String` comparisons,
//! in-edges found by scanning every object's inputs instead of the
//! reverse index — that the naive evaluator runs over as the
//! reference for what the planned pipeline returns from the store.
//!
//! The snapshot finds a class by its TYPE index and a name by reading
//! every object, so it never consults the store's key filter, which
//! steers exact NAME and attribute lookups to the shards that can hold
//! the key. The filter is derived state, rebuilt when shards change
//! wholesale; stores merged from two halves, restored through a
//! checkpoint and restart, and forced into total collision hold it to
//! the snapshot's answers.
//!
//! The store reads a projected column with a slot hint: the next node
//! on a shard is tried in the slot after the last one read there
//! before the pnode map is probed. A wrong hint could only show where
//! slot order differs from pnode order, so
//! `attr_column_answers_what_attr_answers` holds `attr_column` to one
//! `attr` per node on shuffled, two-volume, merged and restored
//! stores, over node lists sorted, shuffled, repeated and salted with
//! refs the store does not hold.

use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
use lasagna::LogEntry;
use pql::{EdgeLabel, GraphSource, OutValue};
use proptest::prelude::*;
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::fs::basefs::BaseFs;
use sim_os::syscall::Kernel;
use waldo::{ProvDb, Waldo, WaldoConfig};

fn p(n: u64) -> Pnode {
    Pnode::new(VolumeId(1), n)
}

fn prov(subject: ObjectRef, attr: Attribute, value: Value) -> LogEntry {
    LogEntry::Prov {
        subject,
        record: ProvenanceRecord::new(attr, value),
    }
}

/// The store read the slow, obviously-right way (see the module
/// docs). `closure` and `lookup_attr` are the trait's defaults: a
/// plain BFS and a class scan.
struct Snapshot<'a>(&'a ProvDb);

impl Snapshot<'_> {
    fn versions(&self, p: Pnode) -> Vec<ObjectRef> {
        let obj = self.0.object(p).unwrap_or_default();
        let versions = obj.versions.keys();
        versions.map(|v| ObjectRef::new(p, Version(*v))).collect()
    }

    /// Every recorded edge of the graph as `(from, to, attribute)`.
    fn recorded(&self) -> Vec<(ObjectRef, ObjectRef, Attribute)> {
        let mut out = Vec::new();
        for p in self.0.all_pnodes() {
            for (v, entry) in self.0.object(p).unwrap().versions {
                let from = ObjectRef::new(p, Version(v));
                out.extend(entry.inputs.into_iter().map(|(attr, to)| (from, to, attr)));
            }
        }
        out
    }

    /// Whether `label` selects an edge called `name`; the implicit
    /// version edge (`implicit`) is also an `input` edge. A named
    /// label is never widened that way: it matches the edge's own
    /// name only.
    fn selects(label: &EdgeLabel, name: &str, implicit: bool) -> bool {
        let name = name.to_ascii_lowercase();
        match label {
            EdgeLabel::Any => true,
            EdgeLabel::Input => name == "input" || implicit,
            EdgeLabel::Version => name == "version",
            EdgeLabel::VisitedUrl => name == "visited_url",
            EdgeLabel::FileUrl => name == "file_url",
            EdgeLabel::CurrentUrl => name == "current_url",
            EdgeLabel::Named(n) => name == n.to_ascii_lowercase(),
        }
    }
}

impl GraphSource for Snapshot<'_> {
    fn class_members(&self, class: &str) -> Vec<ObjectRef> {
        let mut out: Vec<ObjectRef> = (self.0.all_pnodes().into_iter())
            .filter(|p| {
                class.eq_ignore_ascii_case("obj")
                    || self.0.find_by_type(&class.to_ascii_uppercase()).contains(p)
            })
            .flat_map(|p| self.versions(p))
            .collect();
        out.sort();
        out
    }

    fn attr(&self, node: ObjectRef, name: &str) -> Option<Value> {
        let name = name.to_ascii_lowercase();
        match name.as_str() {
            "pnode" => return Some(Value::Int(node.pnode.number as i64)),
            "version" => return Some(Value::Int(i64::from(node.version.0))),
            "volume" => return Some(Value::Int(i64::from(node.pnode.volume.0))),
            _ => {}
        }
        let wanted = match name.as_str() {
            "name" | "type" | "argv" | "env" | "params" => {
                Attribute::from_name(&name.to_ascii_uppercase())
            }
            other => Attribute::Other(other.to_ascii_uppercase()),
        };
        let obj = self.0.object(node.pnode)?;
        let here = obj.attrs(node.version).iter();
        let anywhere = obj.versions.values().flat_map(|v| v.attrs.iter());
        let mut recorded = here.chain(anywhere);
        recorded.find(|(a, _)| *a == wanted).map(|(_, v)| v.clone())
    }

    /// Recorded inputs, then the implicit edge to the previous
    /// version — which any later version of a known object has,
    /// recorded as a subject or only ever referenced.
    fn out_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
        let recorded = self.recorded().into_iter();
        let leaving = recorded
            .filter(|(from, _, a)| *from == node && Self::selects(label, a.as_str(), false));
        let mut out: Vec<ObjectRef> = leaving.map(|(_, to, _)| to).collect();
        let known = self.0.object(node.pnode).is_some();
        if known && node.version.0 > 0 && Self::selects(label, "version", true) {
            out.push(ObjectRef::new(node.pnode, Version(node.version.0 - 1)));
        }
        out
    }

    /// Recorded references to `node`, then the implicit edge from
    /// its next version — if that one was recorded as a subject.
    fn in_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
        let recorded = self.recorded().into_iter();
        let entering =
            recorded.filter(|(_, to, a)| *to == node && Self::selects(label, a.as_str(), false));
        let mut out: Vec<ObjectRef> = entering.map(|(from, _, _)| from).collect();
        let next = ObjectRef::new(node.pnode, Version(node.version.0 + 1));
        if self.versions(node.pnode).contains(&next) && Self::selects(label, "version", true) {
            out.push(next);
        }
        out
    }
}

/// A bounded random stream: names/types/app-attrs from small pools
/// (so predicates hit and projected rows repeat), ancestry and URL
/// edges only toward lower pnodes (so closures terminate) at any of
/// their versions, and FREEZEs opening up to three versions per
/// object, so the implicit version edge has chains to walk.
fn arb_entry() -> impl Strategy<Value = LogEntry> {
    let subject = (1u64..24, 0u32..3).prop_map(|(n, v)| ObjectRef::new(p(n), Version(v)));
    prop_oneof![
        (subject.clone(), 0u32..3).prop_map(|(s, i)| {
            let name = ["/data/a.gif", "/data/b.img", "/tmp/x"][i as usize];
            prov(s, Attribute::Name, Value::str(name))
        }),
        (subject.clone(), 0u32..2).prop_map(|(s, t)| {
            prov(s, Attribute::Type, Value::str(["FILE", "PROC"][t as usize]))
        }),
        (subject.clone(), 0u32..3).prop_map(|(s, i)| {
            prov(
                s,
                Attribute::Other("PHASE".into()),
                Value::str(["align", "slice", "alloc"][i as usize]),
            )
        }),
        (1u64..24, 0u32..3, 1u64..24, 0u32..3, 0u32..4).prop_map(|(n, v, a, av, kind)| {
            let lo = a.min(n.saturating_sub(1)).max(1);
            let attr = match kind {
                0 => Attribute::CurrentUrl,
                1 => Attribute::FileUrl,
                _ => Attribute::Input,
            };
            prov(
                ObjectRef::new(p(n.max(2)), Version(v)),
                attr,
                Value::Xref(ObjectRef::new(p(lo), Version(av))),
            )
        }),
        (subject, 1i64..3).prop_map(|(s, v)| prov(s, Attribute::Freeze, Value::Int(v))),
    ]
}

const QUERIES: [&str; 22] = [
    "select A from Provenance.file as F F.input* as A where F.name = '/data/a.gif'",
    "select A from Provenance.file as F F.input+ as A where F.name like '/data/*'",
    "select F.name from Provenance.file as F where F.name like '*.gif'",
    "select F from Provenance.obj as F where F.phase = 'align'",
    "select F from Provenance.file as F where F.type = 'FILE' and F.phase = 'slice'",
    "select D from Provenance.file as F F.input~* as D where F.name = '/data/b.img'",
    "select count(A) from Provenance.file as F F.input* as A where F.name = '/tmp/x'",
    "select O, F from Provenance.proc as O Provenance.file as F where F.name = '/data/a.gif'",
    "select F from Provenance.file as F \
     where F.name in (select G.name from Provenance.obj as G where G.phase = 'align')",
    "select F.name, F.version from Provenance.file as F where F.version = 1",
    // The implicit version edge, forward, inverse, and under `input`.
    "select V from Provenance.obj as F F.version* as V where F.name = '/tmp/x'",
    "select F, N from Provenance.file as F F.version~ as N",
    "select D.Version from Provenance.obj as F F.input~* as D where F.NAME = '/data/a.gif'",
    "select A, A.version from Provenance.obj as F F.(version|current_url)+ as A \
     where F.phase = 'slice'",
    // Typed edges and `any`.
    "select U from Provenance.obj as F F.current_url as U",
    "select X.pnode from Provenance.file as F F.any* as X where F.name = '/data/b.img'",
    "select S from Provenance.obj as F F.file_url~ as S where F.type = 'FILE'",
    // Names in any case; projections that repeat (duplicate rows).
    "select f.Pnode, f.NAME, f.Volume from Provenance.FILE as f where f.Type = 'FILE'",
    "select A.name from Provenance.obj as F F.INPUT* as A where F.Phase = 'align'",
    "select F.type, F.PHASE from Provenance.obj as F",
    // A prefix on an application attribute's hashed index.
    "select F, F.phase from Provenance.obj as F where F.phase like 'al*'",
    "select A.phase from Provenance.file as F F.input* as A where F.phase like 'all*'",
];

/// `entry` with its subject and any referenced ancestor moved to
/// volume `vol`.
fn on_volume(entry: LogEntry, vol: u32) -> LogEntry {
    let moved = |r: ObjectRef| ObjectRef::new(Pnode::new(VolumeId(vol), r.pnode.number), r.version);
    match entry {
        LogEntry::Prov { subject, record } => {
            let value = match record.value {
                Value::Xref(to) => Value::Xref(moved(to)),
                other => other,
            };
            prov(moved(subject), record.attribute, value)
        }
        other => other,
    }
}

/// `items` in the order a small xorshift seeded with `seed` deals
/// them (Fisher–Yates).
fn dealt<T>(mut items: Vec<T>, mut seed: u64) -> Vec<T> {
    for i in (1..items.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        items.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    items
}

/// Attribute names a column can project: stored ones in any case, an
/// application attribute, the pseudo-attributes and one nobody bore.
const COLUMNS: [&str; 8] = [
    "name", "NAME", "type", "Phase", "pnode", "version", "volume", "nope",
];

fn canonical(rs: &pql::ResultSet) -> Vec<String> {
    let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// A shard count: every count from 1 to 8, or 64 — the most a store
/// has, where eight shards share each bit of the key filter.
fn arb_shards() -> impl Strategy<Value = usize> {
    (1usize..10).prop_map(|n| if n == 9 { 64 } else { n })
}

fn config(shards: usize) -> WaldoConfig {
    WaldoConfig {
        shards,
        ingest_batch: 16,
        ancestry_cache: 64,
        ..WaldoConfig::default()
    }
}

/// `query`'s planned answer from `db` against the naive evaluator's,
/// over the store and over its [`Snapshot`].
fn planned_agrees(db: &ProvDb, query: &str) -> Result<(), String> {
    let parsed = pql::parse(query).unwrap();
    let naive = pql::execute_naive(&parsed, db).unwrap();
    let planned = pql::plan::execute(&parsed, db).unwrap();
    prop_assert_eq!(&planned.result.columns, &naive.columns);
    if planned.stats.bindings_reordered {
        prop_assert_eq!(canonical(&planned.result), canonical(&naive));
    } else {
        prop_assert_eq!(&planned.result.rows, &naive.rows);
    }
    // Edge lists come back in arrival order from the store and in
    // scan order from the snapshot: the same rows, as a set.
    let reference = pql::execute_naive(&parsed, &Snapshot(db)).unwrap();
    prop_assert_eq!(&planned.result.columns, &reference.columns);
    prop_assert_eq!(canonical(&planned.result), canonical(&reference));
    Ok(())
}

/// A store that checkpointed after `entries[..cut]` and again after
/// the rest, then restarted cold from its database directory: a base,
/// then a delta or a rewrite, whichever the size rule picks.
fn restarted(cfg: WaldoConfig, entries: &[LogEntry], cut: usize) -> ProvDb {
    let clock = Clock::new();
    let mut kernel = Kernel::new(clock.clone(), CostModel::default());
    kernel.mount("/", Box::new(BaseFs::new(clock, CostModel::default())));
    let pid = kernel.spawn_init("waldo");
    let mut waldo = Waldo::with_config(pid, cfg);
    waldo.attach_db_dir(&mut kernel, "/waldo-db").unwrap();
    for part in [&entries[..cut], &entries[cut..]] {
        waldo.db.ingest(part);
        waldo.checkpoint(&mut kernel).unwrap();
    }
    let images = waldo.db.segment_images();
    drop(waldo);
    let pid = kernel.spawn_init("waldo2");
    let restarted = Waldo::restart(pid, &mut kernel, cfg, "/waldo-db", &[]).unwrap();
    assert_eq!(restarted.db.segment_images(), images);
    restarted.db
}

/// Exact and `like` lookups on an application attribute, whose
/// per-shard indexes are hashed, answer what the naive evaluator does
/// when the matching keys lie on several shards, in one class or in
/// any.
#[test]
fn application_lookups_across_shards_match_naive() {
    let mut db = ProvDb::with_config(config(8));
    let mut entries = Vec::new();
    for n in 1..=64u64 {
        let subject = ObjectRef::new(p(n), Version(0));
        let ty = if n % 3 == 0 { "PROC" } else { "FILE" };
        entries.push(prov(subject, Attribute::Type, Value::str(ty)));
        let phase = Value::Str(format!("stage-{n}"));
        entries.push(prov(subject, Attribute::Other("PHASE".into()), phase));
        let other = Value::Str(format!("other-{}", n % 5));
        entries.push(prov(subject, Attribute::Other("PHASE".into()), other));
    }
    db.ingest(&entries);
    let like = "select F, F.phase from Provenance.obj as F where F.phase like 'stage-1*'";
    let shards: std::collections::HashSet<usize> = (pql::query(like, &db).unwrap().rows.iter())
        .map(|row| match row[0] {
            OutValue::Node(r) => db.shard_of(r.pnode),
            ref cell => panic!("not a node: {cell:?}"),
        })
        .collect();
    assert!(shards.len() > 1, "the prefix's matches lie on one shard");
    for query in [
        like,
        "select F from Provenance.file as F where F.phase like 'stage-2*'",
        "select F from Provenance.obj as F where F.phase like 'other-'",
        "select F.phase from Provenance.obj as F where F.phase like 'zzz*'",
        "select F from Provenance.obj as F where F.phase = 'stage-17'",
        "select F from Provenance.file as F where F.phase = 'other-3'",
        "select F from Provenance.proc as F where F.phase = 'stage-17'",
    ] {
        planned_agrees(&db, query).unwrap_or_else(|e| panic!("{query}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn planned_matches_naive_on_the_sharded_store(
        entries in proptest::collection::vec(arb_entry(), 1..80),
        shards in arb_shards(),
        qi in 0usize..QUERIES.len(),
    ) {
        let mut db = ProvDb::with_config(config(shards));
        db.ingest(&entries);
        planned_agrees(&db, QUERIES[qi])?;
    }

    /// Every query agrees on the stores whose key filter was rebuilt
    /// or regrown: merged from two halves, restored through a
    /// checkpoint and restart, grown through several doublings between
    /// the halves, and — through the test seam — with every key in one
    /// slot, before and after more ingest.
    #[test]
    fn key_filter_survives_merge_restart_growth_and_collision(
        entries in proptest::collection::vec(arb_entry(), 1..80),
        shards in arb_shards(),
        cut in any::<usize>(),
    ) {
        let cfg = config(shards);
        let cut = cut % (entries.len() + 1);
        let mut merged = ProvDb::with_config(cfg);
        merged.ingest(&entries[..cut]);
        let mut other = ProvDb::with_config(cfg);
        other.ingest(&entries[cut..]);
        merged.merge(&other).unwrap();
        let restored = restarted(cfg, &entries, cut);
        // 160 application-attribute keys, ten a commit, take an empty
        // filter's 64 slots through three doublings.
        let mut grown = ProvDb::with_config(cfg);
        grown.ingest(&entries[..cut]);
        for tags in (0..160u64).collect::<Vec<_>>().chunks(10) {
            let tagged = tags.iter().map(|&t| {
                let subject = ObjectRef::new(p(1 + t % 23), Version(0));
                prov(subject, Attribute::Other("TAG".into()), Value::Str(format!("t{t}")))
            });
            grown.ingest(&tagged.collect::<Vec<_>>());
        }
        grown.ingest(&entries[cut..]);
        let mut collided = ProvDb::with_config(cfg);
        collided.ingest(&entries[..cut]);
        collided.force_key_collisions();
        collided.ingest(&entries[cut..]);
        let stores = [
            ("merged", &merged),
            ("restored", &restored),
            ("grown", &grown),
            ("collided", &collided),
        ];
        for (what, db) in stores {
            for query in QUERIES {
                planned_agrees(db, query).map_err(|e| format!("{what} store, {query}: {e}"))?;
            }
        }
    }

    /// `attr_column` is `attr` down a column, wherever the slot hint
    /// lands. The stores: objects minted and stored in pnode order
    /// followed by random arrival; the same with a second volume's
    /// stream interleaved; two halves merged; and one restored from a
    /// checkpoint, whose slots follow pnode order. The columns: the
    /// store's nodes sorted, dealt at random, each twice in a row and
    /// the whole list again reversed, and all of that with refs to
    /// unknown pnodes, unknown versions and a third volume mixed in.
    #[test]
    fn attr_column_answers_what_attr_answers(
        entries in proptest::collection::vec(arb_entry(), 1..80),
        other in proptest::collection::vec((arb_entry(), any::<bool>()), 0..40),
        shards in arb_shards(),
        minted in 0u64..24,
        cut in any::<usize>(),
        seed in 1u64..u64::MAX,
    ) {
        let cfg = config(shards);
        let mut stream: Vec<LogEntry> = (1..=minted)
            .flat_map(|n| {
                let subject = ObjectRef::new(p(n), Version(0));
                [
                    prov(subject, Attribute::Type, Value::str("FILE")),
                    prov(subject, Attribute::Name, Value::Str(format!("/obj/{n}.o"))),
                ]
            })
            .collect();
        stream.extend(entries);
        let mut shuffled = ProvDb::with_config(cfg);
        shuffled.ingest(&stream);
        // Entries of volume 2 land between volume 1's where `other`
        // says so.
        let mut volumes = Vec::new();
        let mut second = other.into_iter();
        for entry in &stream {
            volumes.push(entry.clone());
            if let Some((entry, true)) = second.next() {
                volumes.push(on_volume(entry, 2));
            }
        }
        let mut interleaved = ProvDb::with_config(cfg);
        interleaved.ingest(&volumes);
        let cut = cut % (volumes.len() + 1);
        let mut merged = ProvDb::with_config(cfg);
        merged.ingest(&volumes[cut..]);
        let mut half = ProvDb::with_config(cfg);
        half.ingest(&volumes[..cut]);
        merged.merge(&half).unwrap();
        let restored = restarted(cfg, &volumes, cut);
        let unknown = [
            ObjectRef::new(p(99), Version(0)),
            ObjectRef::new(p(1), Version(7)),
            ObjectRef::new(Pnode::new(VolumeId(3), 2), Version(0)),
        ];
        let stores = [
            ("shuffled", &shuffled),
            ("interleaved", &interleaved),
            ("merged", &merged),
            ("restored", &restored),
        ];
        for (what, db) in stores {
            let sorted = db.class_members("obj");
            let repeated: Vec<ObjectRef> = (sorted.iter())
                .flat_map(|n| [*n, *n])
                .chain(sorted.iter().rev().copied())
                .collect();
            let mut salted = repeated.clone();
            for (i, r) in unknown.iter().enumerate() {
                salted.insert((seed as usize >> (8 * i)) % (salted.len() + 1), *r);
            }
            let columns = [
                ("sorted", sorted.clone()),
                ("dealt", dealt(sorted.clone(), seed)),
                ("repeated", repeated),
                ("salted", salted.clone()),
                ("salted and dealt", dealt(salted, seed.rotate_left(17))),
            ];
            for (order, nodes) in &columns {
                for name in COLUMNS {
                    // An override appends, as the default does.
                    let mut column = vec![OutValue::Int(-1)];
                    db.attr_column(nodes, name, &mut column);
                    let mut expected = vec![OutValue::Int(-1)];
                    let cell = |n: &ObjectRef| db.attr(*n, name).map_or(OutValue::Null, OutValue::from);
                    expected.extend(nodes.iter().map(cell));
                    prop_assert!(
                        column == expected,
                        "{what} store, {order} column, {name}: {column:?} != {expected:?}"
                    );
                }
            }
        }
    }

    /// A label the language has no keyword for reaches the store as
    /// `EdgeLabel::Named`, matched against the recorded attribute's
    /// name in any case — and never widened to "any ancestry" the
    /// way `input` is.
    #[test]
    fn named_labels_match_edge_names_in_any_case(
        entries in proptest::collection::vec(arb_entry(), 1..80),
        shards in arb_shards(),
    ) {
        let mut db = ProvDb::with_config(WaldoConfig { shards, ..WaldoConfig::default() });
        db.ingest(&entries);
        let snapshot = Snapshot(&db);
        let sorted = |mut refs: Vec<ObjectRef>| {
            refs.sort();
            refs
        };
        for node in db.class_members("obj") {
            for name in ["InPuT", "current_URL", "File_Url", "Version", "visited_url", "nope"] {
                let label = EdgeLabel::Named(name.into());
                let out = sorted(db.out_edges(node, &label));
                let expected = sorted(snapshot.out_edges(node, &label));
                prop_assert!(out == expected, "{name} out of {node}: {out:?} != {expected:?}");
                let into = sorted(db.in_edges(node, &label));
                let expected = sorted(snapshot.in_edges(node, &label));
                prop_assert!(into == expected, "{name} into {node}: {into:?} != {expected:?}");
                // The uncached expansion inside a closure agrees with
                // the cached edge list.
                let reach = db.closure(node, &label, false);
                prop_assert!(out.iter().all(|n| reach.contains(n)));
            }
        }
    }
}
