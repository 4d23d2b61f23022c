//! The acceptance matrix: every fault kind × every topology, with
//! the self-ingestion workload, judged by the two-sided oracle. The
//! one unconditional invariant — enforced on every cell — is **zero
//! silent divergence**: a tamper either raises a typed signal or
//! leaves the store byte-equal to the fault-free twin.

use provtorture::{torture, Fault, Topology, Verdict, ALL_FAULTS, ALL_TOPOLOGIES};
use workloads::{Postmark, SelfIngest};

const SEED: u64 = 0x7061_7373_7632; // "passv2"

fn tiny_build() -> SelfIngest {
    SelfIngest {
        sources: 3,
        src_bytes: 512,
        cpu_per_unit: 500,
    }
}

/// The verdicts a cell is allowed to produce. `SilentDivergence` is
/// never in any set; beyond that, the expectations encode *where*
/// each fault must be visible:
///
/// * log tampers hit the ingest path, so they must signal on every
///   topology;
/// * forged/replayed batches must be both detected (skip counters)
///   and harmless (byte-equal) everywhere;
/// * a torn checkpoint publish must always be harmless — that is the
///   crash-consistency contract;
/// * durable-state tampers (manifest, segment, delta, WAL) are invisible to
///   a daemon that never restarts, so `SingleDaemon` expects
///   `Harmless` and the restart topologies demand detection.
fn allowed(topo: Topology, fault: Fault) -> &'static [Verdict] {
    use Verdict::*;
    match fault {
        Fault::TruncateLog | Fault::FlipLogBit => &[Detected, DetectedHarmless],
        Fault::ForgeBatchId | Fault::ReplayGroup => &[DetectedHarmless],
        Fault::TearManifestPublish => &[Harmless],
        Fault::FlipManifestBit
        | Fault::TruncateManifest
        | Fault::DropSegment
        | Fault::FlipDeltaBit
        | Fault::DropDelta
        | Fault::TruncateWal
        | Fault::FlipWalBit => {
            if topo == Topology::SingleDaemon {
                &[Harmless]
            } else {
                &[Detected, DetectedHarmless]
            }
        }
    }
}

#[test]
fn full_matrix_detects_or_proves_harmless() {
    let wl = tiny_build();
    for topo in ALL_TOPOLOGIES {
        for fault in ALL_FAULTS {
            let report = torture(&wl, topo, &fault, SEED);
            assert!(
                report.applied.is_some(),
                "fault {} found no target under {} — harness bug",
                fault.name(),
                topo.name()
            );
            let verdict = report.verdict();
            assert_ne!(
                verdict,
                Verdict::SilentDivergence,
                "silent divergence: {report:?}"
            );
            assert!(
                allowed(topo, fault).contains(&verdict),
                "unexpected verdict {verdict} for {} under {}: {report:?}",
                fault.name(),
                topo.name()
            );
        }
    }
}

/// The matrix is a function of its seed: the same cell replayed gives
/// the same injection, the same signals, the same bytes — and the
/// same Chrome trace, span ids included.
#[test]
fn identical_seed_gives_identical_reports() {
    let wl = tiny_build();
    for fault in [
        Fault::TruncateLog,
        Fault::DropSegment,
        Fault::TearManifestPublish,
    ] {
        let a = torture(&wl, Topology::Cluster2, &fault, SEED);
        let b = torture(&wl, Topology::Cluster2, &fault, SEED);
        assert_eq!(a, b, "report not reproducible for {}", fault.name());
    }
}

/// Different seeds move the injection point but never open a hole.
#[test]
fn seed_sweep_never_diverges_silently() {
    let wl = tiny_build();
    for seed in 0..4u64 {
        for fault in [
            Fault::TruncateLog,
            Fault::FlipManifestBit,
            Fault::TruncateWal,
        ] {
            let report = torture(&wl, Topology::DurableRestart, &fault, seed);
            assert_ne!(
                report.verdict(),
                Verdict::SilentDivergence,
                "seed {seed}: {report:?}"
            );
        }
    }
}

/// The harness is workload-generic: the same contract holds when the
/// ingest stream comes from a different operation mix.
#[test]
fn postmark_subset_holds_the_contract() {
    let wl = Postmark {
        files: 4,
        transactions: 6,
        ..Default::default()
    };
    for topo in ALL_TOPOLOGIES {
        for fault in [
            Fault::FlipLogBit,
            Fault::ForgeBatchId,
            Fault::TruncateManifest,
        ] {
            let report = torture(&wl, topo, &fault, SEED);
            assert!(report.applied.is_some(), "{report:?}");
            let verdict = report.verdict();
            assert!(
                allowed(topo, fault).contains(&verdict),
                "unexpected verdict {verdict}: {report:?}"
            );
        }
    }
}
