//! `query_static` and `query_live`: the read path.
//!
//! Set-up generates a build graph — sources → compile processes →
//! objects → 64-object libraries → one image — as Lasagna log images,
//! loads it into a daemon and checkpoints. The timed part is a seeded
//! zipf(1.0) stream through `Waldo::query`: 40% name point lookups, 25%
//! shallow `input*` (an object: 4 rows), 15% deep `input*` (a library:
//! ≈200 rows), 10% descendants (`input~*`, the inverse closure), 10%
//! `like` prefix scans. The [`SOURCES`] targets dwarf the
//! `ancestry_cache` of 4096 entries while the zipf head fits in it.
//!
//! `query_static` writes nothing, so caches stay valid: the best case
//! for any caching change. `query_live` runs the same store and mix but
//! ingests one new log — a new build generation — durably before every
//! round of [`ROUND_QUERIES`] queries, bumping shard generations: a
//! cache or index gain on the first that collapses under invalidation,
//! or that is paid for in ingest speed, shows on the second.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use bytes::BytesMut;
use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
use lasagna::LogEntry;
use waldo::{Waldo, WaldoConfig};

use crate::measure::{ask, ingest_call, timed, Asked, Measured, QueryClass, Scale};
use crate::rig::{bytes_written_by, local_machine, Machine, DB_ROOT};
use crate::rng::{Digest, Rng, Zipf};
use crate::trace::Probe;

/// Compile units in the base graph at full scale (a multiple of
/// [`LIB`]): 3 objects and 8 log entries each, so ≈60k objects / ≈165k
/// entries. Passes budgeted under two seconds (`--quick`, the
/// warm-up) shrink it in proportion.
pub const SOURCES: usize = 20_480;
const LIB: usize = 64;
const HEADERS: usize = 32;
/// Entries per generated log image.
const IMAGE_ENTRIES: usize = 4096;
/// Queries per round; on `query_live`, one log is ingested per round.
pub const ROUND_QUERIES: usize = 32;
/// Compile units in each live generation (an eighth of a library).
const GENERATION: usize = 8;
/// Rounds per second of budget (bench-host calibration).
const STATIC_ROUNDS_PER_SECOND: f64 = 560.0;
const LIVE_ROUNDS_PER_SECOND: f64 = 100.0;

/// Appends entries describing build-graph objects; pnode numbers are
/// handed out in creation order.
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

    /// One library's worth of compile units named by `unit`, linked
    /// into `lib`. Returns the library.
    fn library(
        &mut self,
        headers: &[ObjectRef],
        units: impl Iterator<Item = (usize, String)>,
        lib: &str,
    ) -> ObjectRef {
        let mut objects = Vec::with_capacity(LIB);
        for (k, unit) in units {
            let src = self.object("FILE", &format!("/src/{unit}.c"), &[]);
            let cc = self.object("PROC", &format!("cc#{unit}"), &[src, headers[k % HEADERS]]);
            objects.push(self.object("FILE", &format!("/obj/{unit}.o"), &[cc]));
        }
        let ld = self.object("PROC", &format!("ld#{lib}"), &objects);
        self.object("FILE", &format!("/lib/{lib}.a"), &[ld])
    }

    fn images(self) -> Vec<Vec<u8>> {
        self.entries
            .chunks(IMAGE_ENTRIES)
            .map(|chunk| {
                let mut buf = BytesMut::new();
                for e in chunk {
                    lasagna::encode_entry(&mut buf, e).expect("a generated entry encodes");
                }
                buf.to_vec()
            })
            .collect()
    }
}

fn unit_names(unit: &str, k: usize) -> [String; 4] {
    [
        format!("/obj/{unit}.o"),
        format!("cc#{unit}"),
        format!("/src/{unit}.c"),
        format!("/inc/h-{}.h", k % HEADERS),
    ]
}

fn library_names(lib: &str, units: impl Iterator<Item = (usize, String)>) -> BTreeSet<String> {
    let mut names = BTreeSet::from([format!("/lib/{lib}.a"), format!("ld#{lib}")]);
    for (k, unit) in units {
        names.extend(unit_names(&unit, k));
    }
    names
}

fn base_units(lib: usize) -> impl Iterator<Item = (usize, String)> {
    (lib * LIB..(lib + 1) * LIB).map(|i| (i, format!("f-{i}")))
}

fn live_units(generation: usize) -> impl Iterator<Item = (usize, String)> {
    (0..GENERATION).map(move |k| (k, format!("g{generation}-{k}")))
}

pub struct Question {
    pub class: QueryClass,
    pub text: String,
    /// Shared: the zipf head asks the same questions over and over.
    pub expected: Rc<BTreeSet<String>>,
}

/// The question of `class` about base target `i`. `memo` keeps the
/// expectation of every (class, subject) already asked about.
fn question(
    class: QueryClass,
    i: usize,
    object_names: &[String],
    memo: &mut BTreeMap<(QueryClass, usize), Rc<BTreeSet<String>>>,
) -> Question {
    let unit = format!("f-{i}");
    let lib = i / LIB;
    // What the answer depends on: the library for deep questions, the
    // three leading digits for prefix ones, the unit otherwise.
    let subject = match class {
        QueryClass::Deep => lib,
        QueryClass::Prefix => prefix_digits(i, object_names.len()),
        _ => i,
    };
    let text = match class {
        QueryClass::Point => {
            format!("select F.name from Provenance.file as F where F.name = '/obj/{unit}.o'")
        }
        QueryClass::Shallow => format!(
            "select A.name from Provenance.file as F F.input* as A \
             where F.name = '/obj/{unit}.o'"
        ),
        QueryClass::Deep => format!(
            "select A.name from Provenance.file as F F.input* as A \
             where F.name = '/lib/l-{lib}.a'"
        ),
        QueryClass::Descendants => format!(
            "select D.name from Provenance.file as F F.input~* as D \
             where F.name = '/src/{unit}.c'"
        ),
        QueryClass::Prefix => {
            format!("select F.name from Provenance.file as F where F.name like '/obj/f-{subject}*'")
        }
    };
    let expected = memo
        .entry((class, subject))
        .or_insert_with(|| Rc::new(expectation(class, i, object_names)))
        .clone();
    Question {
        class,
        text,
        expected,
    }
}

/// The leading digits a prefix question about target `i` scans for:
/// three digits at full scale — 11 matching units, or 111 where
/// five-digit units exist — and the unit's own number on a graph too
/// small to have a unit for every three-digit prefix. Never empty.
fn prefix_digits(i: usize, sources: usize) -> usize {
    if sources >= 1000 {
        100 + i % 900
    } else {
        i
    }
}

/// What the build graph says the answer is.
fn expectation(class: QueryClass, i: usize, object_names: &[String]) -> BTreeSet<String> {
    let unit = format!("f-{i}");
    let lib = i / LIB;
    match class {
        QueryClass::Point => BTreeSet::from([format!("/obj/{unit}.o")]),
        QueryClass::Shallow => BTreeSet::from(unit_names(&unit, i)),
        QueryClass::Deep => library_names(&format!("l-{lib}"), base_units(lib)),
        QueryClass::Descendants => BTreeSet::from([
            format!("/src/{unit}.c"),
            format!("cc#{unit}"),
            format!("/obj/{unit}.o"),
            format!("ld#l-{lib}"),
            format!("/lib/l-{lib}.a"),
            "ld#image".to_string(),
            "/image".to_string(),
        ]),
        QueryClass::Prefix => {
            let prefix = format!("/obj/f-{}", prefix_digits(i, object_names.len()));
            object_names
                .iter()
                .filter(|n| n.starts_with(&prefix))
                .cloned()
                .collect()
        }
    }
}

pub struct Rig {
    mach: Machine,
    waldo: Waldo,
    rounds: Vec<Vec<Question>>,
    /// `query_live`: per round, the generation's log image and the
    /// freshness question about it.
    live: Vec<(Vec<u8>, Question)>,
    preload: (u64, f64, u64),
    digest: u64,
}

pub fn setup(seed: u64, scale: Scale, probe: &Probe, live: bool) -> Rig {
    let sources = (scale.units(SOURCES as f64 / 2.0, LIB) / LIB * LIB).min(SOURCES);
    let mut digest = Digest::default();
    // --- the base graph, as log images -------------------------------
    let mut base = Emitter {
        entries: Vec::with_capacity(sources * 8 + sources / 8),
        next: 0,
    };
    let headers: Vec<ObjectRef> = (0..HEADERS)
        .map(|h| base.object("FILE", &format!("/inc/h-{h}.h"), &[]))
        .collect();
    let libs: Vec<ObjectRef> = (0..sources / LIB)
        .map(|j| base.library(&headers, base_units(j), &format!("l-{j}")))
        .collect();
    let ld = base.object("PROC", "ld#image", &libs);
    base.object("FILE", "/image", &[ld]);
    let mut next = base.next;
    let base_entries = base.entries.len() as u64;
    let images = base.images();

    // --- the query stream --------------------------------------------
    let rounds_n = scale.units(
        if live {
            LIVE_ROUNDS_PER_SECOND
        } else {
            STATIC_ROUNDS_PER_SECOND
        },
        4,
    );
    let mut rng = Rng::new(seed).fork(3);
    // Rank → target through a seeded shuffle, so the hot head is
    // scattered over libraries and shards.
    let mut targets: Vec<usize> = (0..sources).collect();
    for i in (1..sources).rev() {
        targets.swap(i, rng.below(i + 1));
    }
    let zipf = Zipf::new(sources, 1.0);
    let object_names: Vec<String> = (0..sources).map(|i| format!("/obj/f-{i}.o")).collect();
    let mut memo = BTreeMap::new();
    let rounds: Vec<Vec<Question>> = (0..rounds_n)
        .map(|_| {
            (0..ROUND_QUERIES)
                .map(|_| {
                    let class = match rng.below(100) {
                        0..=39 => QueryClass::Point,
                        40..=64 => QueryClass::Shallow,
                        65..=79 => QueryClass::Deep,
                        80..=89 => QueryClass::Descendants,
                        _ => QueryClass::Prefix,
                    };
                    let target = targets[zipf.sample(&mut rng)];
                    let q = question(class, target, &object_names, &mut memo);
                    digest.str(&q.text);
                    q
                })
                .collect()
        })
        .collect();

    // --- the live generations ----------------------------------------
    let live: Vec<(Vec<u8>, Question)> = if live {
        (0..rounds_n)
            .map(|g| {
                let mut gen = Emitter {
                    entries: Vec::with_capacity(GENERATION * 8 + LIB + 4),
                    next,
                };
                gen.library(&headers, live_units(g), &format!("g{g}"));
                next = gen.next;
                let image = gen.images().pop().expect("one image per generation");
                digest.bytes(&image[..64]);
                let fresh = Question {
                    class: QueryClass::Deep,
                    text: format!(
                        "select A.name from Provenance.file as F F.input* as A \
                         where F.name = '/lib/g{g}.a'"
                    ),
                    expected: Rc::new(library_names(&format!("g{g}"), live_units(g))),
                };
                (image, fresh)
            })
            .collect()
    } else {
        Vec::new()
    };

    // --- pre-load: memory-only ingest, then one checkpoint ------------
    let mut mach = local_machine(probe, &[("/", 1)]);
    let mut waldo = mach.spawn_waldo(WaldoConfig::default());
    let ((applied, written), s) = timed(|| {
        let mut applied = 0u64;
        for image in &images {
            applied += waldo.ingest_log_image(&mut mach.kernel, image).applied as u64;
        }
        let ((), written) = bytes_written_by(&mut mach.kernel, |k| {
            waldo
                .attach_db_dir(k, &format!("{DB_ROOT}/db"))
                .expect("attaching a database directory on a fresh volume");
            let published = waldo
                .checkpoint(k)
                .expect("checkpointing the pre-loaded store");
            assert!(published, "the pre-load left nothing to checkpoint");
        });
        (applied, written)
    });
    assert_eq!(applied, base_entries, "the pre-load dropped entries");
    Rig {
        mach,
        waldo,
        rounds,
        live,
        preload: (applied, s, written),
        digest: digest.0,
    }
}

pub fn run(rig: Rig, probe: &Probe) -> Measured {
    let Rig {
        mut mach,
        mut waldo,
        rounds,
        live,
        preload,
        digest,
    } = rig;
    let mut m = Measured {
        digest,
        ..Measured::default()
    };
    let spooler = mach.daemon_pid();
    mach.kernel
        .mkdir_p(spooler, "/spool")
        .expect("a spool directory on a fresh volume");
    for (r, questions) in rounds.iter().enumerate() {
        probe.set_batch(r as u32);
        let (mut round_s, mut ingest_s) = (0.0, 0.0);
        if let Some((image, fresh)) = live.get(r) {
            // The log arrives as a file, as a volume's rotated log
            // does (untimed: writing it is the capture side's cost).
            // Only file ingest runs the checkpoint policy and retires
            // the log once a checkpoint covers it.
            let path = format!("/spool/gen-{r}.log");
            mach.kernel
                .write_file(spooler, &path, image)
                .expect("spooling a generated log");
            ingest_s = ingest_call(&mut m, probe, &mut mach.kernel, |k| {
                waldo.ingest_log_file(k, &path)
            });
            round_s += ingest_s;
            // Commit-to-queryable: the new library's ancestry, now.
            let (answer, s) = ask(
                &mut m,
                probe,
                fresh.class,
                &fresh.text,
                Asked::Daemon(&mut waldo),
            );
            round_s += s;
            m.check(answer == *fresh.expected);
        }
        for q in questions {
            let (answer, s) = ask(&mut m, probe, q.class, &q.text, Asked::Daemon(&mut waldo));
            round_s += s;
            m.check(answer == *q.expected);
        }
        m.end_round(round_s, ingest_s);
    }
    m.ops = m.query_us.len() as u64;
    if live.is_empty() {
        // Nothing is ingested inside the window: the ingest figures
        // are the pre-load's (a bulk load and one checkpoint).
        (m.entries, m.bulk_s, m.written_bytes) = preload;
    }
    m.stored_entries = preload.0 + if live.is_empty() { 0 } else { m.entries };
    m.stored_bytes = mach.db_stored_bytes();
    crate::layers::record_daemon_counts(&mut m, &mach, &[&waldo]);
    m.images = waldo.db.segment_images();
    m
}
