//! Resident memory of the dense store, counted: `Store::resident_bytes`
//! per entry on the build graph the `query_static` benchmark loads —
//! sources → compile processes → objects → 64-object libraries → one
//! image — pinned under a bound after one bulk ingest and after the
//! same entries arrive as 85-entry generations, where runs that grow
//! across commits move and leave dead rows behind.
//!
//! The figure is computed from lengths and capacities, so it repeats
//! exactly; it models memory and is not Table 3's `Store::size`.

use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
use lasagna::LogEntry;
use waldo::{Store, WaldoConfig};

/// Compile units; a multiple of [`LIB`].
const SOURCES: usize = 20_480;
const LIB: usize = 64;
const HEADERS: usize = 32;
/// Entries per live generation of the benchmark (an eighth of a
/// library: 8 units of 8 entries, plus the link step).
const GENERATION: usize = 85;

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
}

fn build_graph() -> Vec<LogEntry> {
    let mut e = Emitter {
        entries: Vec::new(),
        next: 0,
    };
    let headers: Vec<ObjectRef> = (0..HEADERS)
        .map(|h| e.object("FILE", &format!("/inc/h-{h}.h"), &[]))
        .collect();
    let libs: Vec<ObjectRef> = (0..SOURCES / LIB)
        .map(|j| {
            let objects: Vec<ObjectRef> = (j * LIB..(j + 1) * LIB)
                .map(|i| {
                    let src = e.object("FILE", &format!("/src/f-{i}.c"), &[]);
                    let cc = e.object("PROC", &format!("cc#f-{i}"), &[src, headers[i % HEADERS]]);
                    e.object("FILE", &format!("/obj/f-{i}.o"), &[cc])
                })
                .collect();
            let ld = e.object("PROC", &format!("ld#l-{j}"), &objects);
            e.object("FILE", &format!("/lib/l-{j}.a"), &[ld])
        })
        .collect();
    let ld = e.object("PROC", "ld#image", &libs);
    e.object("FILE", "/image", &[ld]);
    e.entries
}

fn bytes_per_entry(db: &Store, entries: usize) -> f64 {
    db.resident_bytes() as f64 / entries as f64
}

#[test]
fn build_graph_stays_under_its_resident_bound() {
    let entries = build_graph();
    let mut bulk = Store::with_config(WaldoConfig::default());
    bulk.ingest(&entries);
    let mut generations = Store::with_config(WaldoConfig::default());
    for g in entries.chunks(GENERATION) {
        generations.ingest(g);
    }
    assert_eq!(bulk.segment_images(), generations.segment_images());
    let (b, g) = (
        bytes_per_entry(&bulk, entries.len()),
        bytes_per_entry(&generations, entries.len()),
    );
    println!("resident bytes per entry: bulk {b:.1}, 85-entry generations {g:.1}");
    assert!(b < BOUND, "bulk ingest: {b:.1} B/entry");
    assert!(g < BOUND, "85-entry generations: {g:.1} B/entry");
}

/// The pinned bound, in bytes per entry: both ingests measure 149.2
/// (see EXPERIMENTS.md, "Dense shards").
const BOUND: f64 = 155.0;
