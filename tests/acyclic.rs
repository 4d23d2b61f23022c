//! The ancestry-cycle check (`Store::input_cycle`) over the stores the
//! capture script builds, on a local PASS volume and over PA-NFS.
//!
//! The paper's versioning makes the stored graph acyclic. These stores
//! are not: each holds the cycle pinned below, an open capture finding,
//! and on it `Store::ancestors` and `GraphSource::closure` disagree
//! about the journal's own place in its ancestry. The script's
//! workflow engine reads its journal before it appends to it, so the
//! analyzer freezes the engine process at every round — the journal's
//! later versions cite the engine at versions 1, 2, … — but the PASS
//! module logs the reads themselves against the engine's version 0,
//! and never logs the engine's FREEZE. Version 0 of the engine then
//! reads `journal@1`, which was written by it. When the capture side
//! logs a read at the frozen version, these assertions fail: the
//! expected cycle becomes `None`, and the two traversals agree.

mod capture_script;

use capture_script::{round, Machine};
use dpapi::{ObjectRef, Pnode, Version, VolumeId};
use pql::{EdgeLabel, GraphSource};
use waldo::Waldo;

const ROUNDS: usize = 6;

fn ingest_all(mut m: Machine) -> Waldo {
    let mut waldo = Waldo::new(m.daemon);
    for r in 0..ROUNDS {
        m.play(&round(r));
        for image in m.seal() {
            waldo.ingest_log_image(&mut m.kernel, &image);
        }
    }
    waldo
}

fn cycle_of(m: Machine) -> Option<Vec<ObjectRef>> {
    ingest_all(m).db.input_cycle()
}

/// The journal at version 1 and the engine process at version 0.
fn journal_engine(volume: u32) -> Option<Vec<ObjectRef>> {
    let at = |n, v| ObjectRef::new(Pnode::new(VolumeId(volume), n), Version(v));
    Some(vec![at(11, 1), at(12, 0)])
}

#[test]
fn local_volume_store_holds_the_read_after_write_cycle() {
    assert_eq!(cycle_of(Machine::local()), journal_engine(1));
}

#[test]
fn pa_nfs_store_holds_the_read_after_write_cycle() {
    assert_eq!(cycle_of(Machine::nfs()), journal_engine(5));
}

/// On the cycle, `ancestors(journal@1)` lists `journal@1` itself while
/// the forward closure over every label does not; apart from that one
/// ref the two agree. Once the capture side breaks the cycle,
/// `ancestors` drops `journal@1` and the first assertion fails.
#[test]
fn ancestry_of_the_cycle_lists_its_root_and_the_closure_does_not() {
    let db = ingest_all(Machine::local()).db;
    let journal = journal_engine(1).unwrap()[0];
    let mut ancestors = db.ancestors(journal);
    let closure = db.closure(journal, &EdgeLabel::Any, false);
    assert!(ancestors.contains(&journal));
    assert!(!closure.contains(&journal));
    ancestors.retain(|r| *r != journal);
    assert_eq!(ancestors, closure);
}
