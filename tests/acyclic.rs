//! The ancestry-cycle check (`Store::input_cycle`) over the stores the
//! capture script builds, on a local PASS volume and over PA-NFS.
//!
//! The paper's versioning makes the stored graph acyclic, and
//! `GraphSource::closure` relies on it. These stores are not: each
//! holds the cycle pinned below, an open capture finding. The script's
//! workflow engine reads its journal before it appends to it, so the
//! analyzer freezes the engine process at every round — the journal's
//! later versions cite the engine at versions 1, 2, … — but the PASS
//! module logs the reads themselves against the engine's version 0,
//! and never logs the engine's FREEZE. Version 0 of the engine then
//! reads `journal@1`, which was written by it. When the capture side
//! logs a read at the frozen version, these assertions fail, and the
//! expected cycle becomes `None`.

mod capture_script;

use capture_script::{round, Machine};
use dpapi::{ObjectRef, Pnode, Version, VolumeId};
use waldo::Waldo;

const ROUNDS: usize = 6;

fn cycle_of(mut m: Machine) -> Option<Vec<ObjectRef>> {
    let mut waldo = Waldo::new(m.daemon);
    for r in 0..ROUNDS {
        m.play(&round(r));
        for image in m.seal() {
            waldo.ingest_log_image(&mut m.kernel, &image);
        }
    }
    waldo.db.input_cycle()
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
