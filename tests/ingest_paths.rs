//! Tier-1 guard for Waldo's ingest path: a fixed-seed slice of the
//! provtorture matrix, so the root suite (not only `--workspace`)
//! trips when a store diverges.
//!
//! Every daemon entry point runs one ingest loop. The slice drives it
//! on all three topologies against a fault-free twin: a divergence
//! surfaces as `SilentDivergence`, and a cell that must be harmless
//! fails unless the twins left byte-equal stores. Log tampers land on
//! that loop's tail accounting, so each must also raise its counter.

use provtorture::{run_clean, torture, Fault, GraphShape, Verdict, ALL_TOPOLOGIES};
use workloads::SelfIngest;

const SEED: u64 = 0x7061_7373_7632; // "passv2", the provtorture matrix seed

fn tiny_build() -> SelfIngest {
    SelfIngest {
        sources: 3,
        src_bytes: 512,
        cpu_per_unit: 500,
    }
}

/// Fault-free runs raise no detection signal (`run_clean` asserts it)
/// and record the same graph on every topology.
#[test]
fn clean_runs_record_one_graph_on_every_topology() {
    let wl = tiny_build();
    let shapes: Vec<GraphShape> = ALL_TOPOLOGIES
        .iter()
        .map(|topo| GraphShape::observe(&mut run_clean(&wl, *topo, SEED)))
        .collect();
    assert!(shapes[0].count("obj") > 0 && shapes[0].edges > 0);
    assert_eq!(shapes[1], shapes[0], "durable-restart vs single-daemon");
    assert_eq!(shapes[2], shapes[0], "cluster-2 vs single-daemon");
}

/// A log cut mid-frame or with a bit flipped is ingested up to the
/// damage and counted, on every topology and on both sides of the
/// kernel boundary — never a silently different store. (A flip that
/// lands in a frame's length field reads as a cut, so a bit flip may
/// raise either tail counter; a cut only ever raises its own.)
#[test]
fn log_tampers_are_counted_and_never_diverge_silently() {
    let wl = tiny_build();
    for topo in ALL_TOPOLOGIES {
        for (fault, counter) in [
            (Fault::TruncateLog, "log_tails_truncated="),
            (Fault::FlipLogBit, "log_tails_"),
        ] {
            let report = torture(&wl, topo, &fault, SEED);
            assert!(report.applied.is_some(), "no target: {report:?}");
            assert!(
                matches!(
                    report.verdict(),
                    Verdict::Detected | Verdict::DetectedHarmless
                ),
                "{} under {}: {report:?}",
                fault.name(),
                topo.name()
            );
            assert!(
                report.signals.iter().any(|s| s.starts_with(counter)),
                "{} under {} must raise {counter}: {:?}",
                fault.name(),
                topo.name(),
                report.signals
            );
        }
    }
}

/// A literal replay of a committed group frame is skipped wholesale:
/// detected, and the store byte-equal to the untampered twin's.
#[test]
fn replayed_group_is_skipped_and_stores_stay_byte_equal() {
    let wl = tiny_build();
    for topo in ALL_TOPOLOGIES {
        let report = torture(&wl, topo, &Fault::ReplayGroup, SEED);
        assert!(report.applied.is_some(), "no target: {report:?}");
        assert_eq!(
            report.verdict(),
            Verdict::DetectedHarmless,
            "under {}: {report:?}",
            topo.name()
        );
    }
}
