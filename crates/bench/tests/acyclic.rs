//! The ancestry-cycle check (`Store::input_cycle`) over the stores the
//! Table 2 runs build: the durable daemon's under PASSv2 (volume 1)
//! and the server-side store under PA-NFS (volume 10), for each of the
//! five standard workloads.
//!
//! Three workloads store an acyclic graph. Postmark and PA-Kepler each
//! hold a two-node read-after-write cycle, the one `tests/acyclic.rs`
//! pins for the capture script: a process at version 0 writes a file,
//! so the file's version 0 cites it, and later reads the same file
//! version back, so the process's version 0 cites the file. Postmark's
//! is the `postmark` process and the `/pm/s5/file395` it creates and
//! then reads; PA-Kepler's is `/kepler/table.csv` and the `kepler`
//! process. The cause is the capture script's: the PASS module logs
//! the read against the process's version 0 and logs no FREEZE, on a
//! local volume and over PA-NFS alike. When the capture side logs the
//! read at a frozen version, these cycles become `None` and the pins
//! must flip.

use bench::{measure_with_store, standard_workloads, Config};
use dpapi::{ObjectRef, Pnode, Version, VolumeId};

/// The cycle pinned for `workload` on `volume`, as pnode numbers at
/// version 0 from the least ref.
fn pinned(workload: &str, volume: u32) -> Option<Vec<ObjectRef>> {
    let pnodes: &[u64] = match (workload, volume) {
        ("Postmark", 1) => &[2, 398],
        ("Postmark", 10) => &[2, 399],
        ("PA-Kepler", _) => &[1, 2],
        _ => return None,
    };
    let at = |n| ObjectRef::new(Pnode::new(VolumeId(volume), n), Version(0));
    Some(pnodes.iter().map(|n| at(*n)).collect())
}

#[test]
fn table2_stores_hold_the_pinned_cycles() {
    for wl in standard_workloads() {
        for (cfg, volume) in [(Config::PassV2, 1), (Config::PaNfs, 10)] {
            let (_, store) = measure_with_store(cfg, wl.as_ref());
            let store = store.expect("a provenance configuration builds a store");
            assert_eq!(
                store.input_cycle(),
                pinned(wl.name(), volume),
                "{} under {cfg:?}",
                wl.name()
            );
        }
    }
}
