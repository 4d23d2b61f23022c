//! The acceptance matrix: every fault kind × every topology, with
//! the self-ingestion workload, judged by the two-sided oracle. The
//! one unconditional invariant — enforced on every cell — is **zero
//! silent divergence**: a tamper either raises a typed signal or
//! leaves the store byte-equal to the fault-free twin.

use provscope::RecorderConfig;
use provtorture::{
    torture, torture_with_recorder, CaseReport, Fault, Topology, Verdict, ALL_FAULTS,
    ALL_TOPOLOGIES,
};
use workloads::{Postmark, SelfIngest};

const SEED: u64 = 0x7061_7373_7632; // "passv2"

fn tiny_build() -> SelfIngest {
    SelfIngest {
        sources: 3,
        src_bytes: 512,
        cpu_per_unit: 500,
    }
}

/// Every fault × every topology at [`SEED`], in matrix order, with the
/// faulted twin's scope unbounded (`None`) or under a flight recorder.
fn run_matrix(recorder: Option<RecorderConfig>) -> Vec<CaseReport> {
    let wl = tiny_build();
    let mut reports = Vec::new();
    for topo in ALL_TOPOLOGIES {
        for fault in &ALL_FAULTS {
            reports.push(torture_with_recorder(&wl, topo, fault, SEED, recorder));
        }
    }
    reports
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
            assert_eq!(
                report.reference_cycle,
                None,
                "a cycle in the fault-free twin's ancestry under {}",
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

/// The matrix is a function of its seed: the whole of it replayed
/// gives, cell for cell, the same injection, the same signals, the
/// same store bytes — and the same Chrome trace, span ids included.
/// The determinism contract the harness rests on.
#[test]
fn full_matrix_twice_gives_identical_reports() {
    assert_eq!(
        run_matrix(None),
        run_matrix(None),
        "determinism violation: identical seed produced different reports"
    );
}

/// The same matrix with the faulted twin's scope bounded and
/// head-sampling half the trace trees (tail pinning off, so retention
/// is decided solely by the pure trace-id predicate). The recorder
/// only decides retention, so every verdict and signal must match the
/// unbounded pass verbatim; and because sampling is a pure function of
/// the volume-salted trace id, two same-seed recorder runs must retain
/// *identical* batch trace-id sets — exactly the sampled subset of the
/// unbounded run's.
#[test]
fn recorder_passes_keep_every_verdict_and_retain_the_sampled_subset() {
    let cfg = RecorderConfig {
        capacity: 4096,
        sample_per_million: 500_000,
        seed: 0x7061_7373,
        slow_threshold_ns: u64::MAX,
        slow_capacity: 4096,
    };
    let full = run_matrix(None);
    let rec_a = run_matrix(Some(cfg));
    let rec_b = run_matrix(Some(cfg));
    for ((a, b), full) in rec_a.iter().zip(&rec_b).zip(&full) {
        let cell = format!("{} under {}", a.fault, a.topology.name());
        assert_eq!(
            a.verdict(),
            full.verdict(),
            "recorder changed the verdict for {cell}"
        );
        assert_eq!(
            a.signals, full.signals,
            "recorder changed detection signals for {cell}"
        );
        assert_eq!(
            a.sampled_traces, b.sampled_traces,
            "same-seed recorder runs retained different trace-id sets for {cell}"
        );
        let expected: Vec<u64> = full
            .sampled_traces
            .iter()
            .copied()
            .filter(|&t| cfg.samples(provscope::TraceId(t)))
            .collect();
        assert_eq!(
            a.sampled_traces, expected,
            "recorder retention is not the pure sampled subset for {cell}"
        );
    }
    let kept: usize = rec_a.iter().map(|r| r.sampled_traces.len()).sum();
    let total: usize = full.iter().map(|r| r.sampled_traces.len()).sum();
    assert!(
        0 < kept && kept < total,
        "half-sampling must keep some batch traces and drop some: {kept}/{total}"
    );
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

/// An open finding, pinned so that its fix shows: on Postmark the
/// process that reads a file it wrote is frozen to a new version, but
/// the read's `INPUT` record is logged against the version it left,
/// with no FREEZE record, so the store holds `file0@0 → postmark@0 →
/// file0@0`. The cycle is in what one PASS module logged, not in how
/// the layers stack. When the capture side logs the read at the frozen
/// version, this assertion fails and becomes `None`.
#[test]
fn postmark_read_after_write_stores_a_cycle() {
    let wl = Postmark {
        files: 4,
        transactions: 6,
        ..Default::default()
    };
    let report = torture(&wl, Topology::SingleDaemon, &Fault::FlipLogBit, SEED);
    let at = |n| dpapi::ObjectRef::new(dpapi::Pnode::new(dpapi::VolumeId(1), n), dpapi::Version(0));
    assert_eq!(report.reference_cycle, Some(vec![at(1), at(2)]));
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
