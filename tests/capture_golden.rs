//! Tier-1 byte oracle for the capture path: application → DPAPI →
//! kernel interceptor → observer / analyzer / distributor → Lasagna's
//! log (→ PA-NFS), and from the log into Waldo's store.
//!
//! A fixed script (`capture_script`) plays on a local PASS volume and
//! over PA-NFS through a depth-8 sluice. Every rotated log image and,
//! after ingest, `Store::segment_images` are digested with FNV-1a —
//! deliberately not `lasagna::md5`, which is part of what the log
//! holds — and compared with constants pinned at commit `5816f0d`,
//! before the capture path was optimised. A capture-side change that
//! moves, adds or drops one byte of a log, or changes what Waldo
//! stores, fails here; so does one that moves a flush or a rotation,
//! since the images would split elsewhere.

mod capture_script;

use capture_script::{digest_images, round, Machine};
use waldo::Waldo;

const ROUNDS: usize = 6;

struct Golden {
    logs: usize,
    log_bytes: usize,
    log_digest: u64,
    store_digest: u64,
    /// The virtual clock when the script ends: every charge any layer
    /// made, in nanoseconds.
    virtual_ns: u64,
}

fn run(mut m: Machine) -> Golden {
    let mut waldo = Waldo::new(m.daemon);
    let mut images: Vec<Vec<u8>> = Vec::new();
    for r in 0..ROUNDS {
        m.play(&round(r));
        for image in m.seal() {
            let stats = waldo.ingest_log_image(&mut m.kernel, &image);
            assert_eq!(stats.tails_truncated + stats.tails_corrupt, 0, "a torn log");
            images.push(image);
        }
    }
    Golden {
        logs: images.len(),
        log_bytes: images.iter().map(Vec::len).sum(),
        log_digest: digest_images(&images),
        store_digest: digest_images(&waldo.db.segment_images()),
        virtual_ns: m.kernel.clock().now(),
    }
}

fn check(name: &str, got: Golden, want: Golden) {
    // Counts first: they say *how* a digest moved.
    assert_eq!(
        (got.logs, got.log_bytes),
        (want.logs, want.log_bytes),
        "{name}: number of rotated logs / their total bytes"
    );
    assert_eq!(
        got.log_digest, want.log_digest,
        "{name}: log images differ (got {:#018x})",
        got.log_digest
    );
    assert_eq!(
        got.store_digest, want.store_digest,
        "{name}: store images differ (got {:#018x})",
        got.store_digest
    );
    assert_eq!(
        got.virtual_ns, want.virtual_ns,
        "{name}: a virtual-clock charge moved"
    );
}

#[test]
fn local_volume_logs_and_store_are_byte_stable() {
    check(
        "local",
        run(Machine::local()),
        Golden {
            logs: 18,
            log_bytes: 60_435,
            log_digest: 0xa043_b3c8_2431_a7bc,
            store_digest: 0xe01e_8817_16a6_19ed,
            virtual_ns: 32_986_260,
        },
    );
}

#[test]
fn pa_nfs_through_a_sluice_logs_and_store_are_byte_stable() {
    check(
        "pa-nfs",
        run(Machine::nfs()),
        Golden {
            logs: 16,
            log_bytes: 60_999,
            log_digest: 0x6a82_0052_23c3_fb89,
            store_digest: 0x0528_faca_390f_d363,
            virtual_ns: 1_792_592_722,
        },
    );
}
