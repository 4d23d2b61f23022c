//! CI smoke: the full fault × topology matrix at a fixed seed, run
//! **twice**, asserting (a) zero silent divergence and (b) that the
//! second pass reproduces the first report-for-report — the
//! determinism contract the whole harness rests on: verdicts, signals,
//! store bytes and the Chrome trace all to bit equality. Exits nonzero
//! on any violation. Override the seed with `PROVTORTURE_SEED=<u64>`.

use provscope::RecorderConfig;
use provtorture::{
    torture, torture_with_recorder, CaseReport, Verdict, ALL_FAULTS, ALL_TOPOLOGIES,
};
use workloads::SelfIngest;

fn run_matrix(seed: u64) -> Vec<CaseReport> {
    let wl = SelfIngest {
        sources: 3,
        src_bytes: 512,
        cpu_per_unit: 500,
    };
    let mut reports = Vec::new();
    for topo in ALL_TOPOLOGIES {
        for fault in &ALL_FAULTS {
            reports.push(torture(&wl, topo, fault, seed));
        }
    }
    reports
}

/// The flight-recorder config for the recorder determinism pass:
/// bounded ring, half head-sampling at a fixed seed, tail pinning
/// off (`u64::MAX`) so retention is decided solely by the pure
/// trace-id predicate.
fn recorder_config() -> RecorderConfig {
    RecorderConfig {
        capacity: 4096,
        sample_per_million: 500_000,
        seed: 0x7061_7373,
        slow_threshold_ns: u64::MAX,
        slow_capacity: 4096,
    }
}

fn run_matrix_recorded(seed: u64) -> Vec<CaseReport> {
    let wl = SelfIngest {
        sources: 3,
        src_bytes: 512,
        cpu_per_unit: 500,
    };
    let mut reports = Vec::new();
    for topo in ALL_TOPOLOGIES {
        for fault in &ALL_FAULTS {
            reports.push(torture_with_recorder(
                &wl,
                topo,
                fault,
                seed,
                Some(recorder_config()),
            ));
        }
    }
    reports
}

fn main() {
    let seed = std::env::var("PROVTORTURE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x7061_7373_7632);
    let first = run_matrix(seed);
    let second = run_matrix(seed);
    assert_eq!(
        first, second,
        "determinism violation: identical seed produced different reports"
    );

    println!("provtorture tamper matrix (seed {seed:#x}, verified reproducible)");
    println!("{:-<72}", "");
    let mut divergences = 0;
    for report in &first {
        println!("{report}");
        if report.verdict() == Verdict::SilentDivergence {
            divergences += 1;
            eprintln!("  !! {report:?}");
        }
        assert!(
            report.applied.is_some(),
            "fault {} found no target under {} — harness bug",
            report.fault,
            report.topology.name()
        );
    }
    println!("{:-<72}", "");
    println!(
        "{} cases, {} silent divergences, verdicts reproduced across two passes",
        first.len(),
        divergences
    );
    if divergences > 0 {
        std::process::exit(1);
    }

    // Flight-recorder pass: the same matrix with the faulted twin's
    // scope bounded and head-sampling half the trace trees. The
    // recorder only decides retention, so every verdict and signal
    // must match the unbounded pass verbatim; and because sampling is
    // a pure function of the volume-salted trace id, two same-seed
    // recorder runs must retain *identical* batch trace-id sets —
    // exactly the sampled subset of the unbounded run's.
    let cfg = recorder_config();
    let rec_a = run_matrix_recorded(seed);
    let rec_b = run_matrix_recorded(seed);
    for ((a, b), full) in rec_a.iter().zip(&rec_b).zip(&first) {
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
    let (kept, total): (usize, usize) = (
        rec_a.iter().map(|r| r.sampled_traces.len()).sum(),
        first.iter().map(|r| r.sampled_traces.len()).sum(),
    );
    println!(
        "recorder pass: verdicts and signals match the unbounded run; \
         {kept}/{total} batch traces retained, sets reproduced across two passes"
    );
}
