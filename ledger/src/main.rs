//! `ledger` — the wall-clock benchmark of the layered provenance stack:
//! six workloads, end-to-end and per-layer metrics, one command.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, JSON result last
//! ledger --seed <n> [--quick]                                       all six, both kinds of run
//! ledger --agree [--seed <n>]                                       two sets, derived bounds
//! ledger --manifest                                                 BENCHMARK.json, from the tables
//! ```
//!
//! See README.md beside this crate's manifest for every metric's
//! definition, each workload's rationale and the method.

mod ingest_cluster;
mod ingest_durable;
mod json;
mod layers;
mod local_layered;
mod measure;
mod nfs_pipelined;
mod query;
mod report;
mod rig;
mod rng;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use measure::{timed, Measured, Scale};
use trace::Probe;
use waldo::ClusterRuntime;

/// (name, why) — the `workloads` of BENCHMARK.json.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "nfs_pipelined",
        "sluice, dpapi wire, core, pa-nfs and lasagna group frames do the work; op = disclosure txn",
    ),
    (
        "local_layered",
        "kernel, PASS module and lasagna observer path on the sync depth-1 path; op = syscall",
    ),
    (
        "ingest_durable",
        "waldo daemon, store, WAL and checkpoints alone, then crash and restart; op = log entry",
    ),
    (
        "ingest_cluster",
        "2-member threaded durable cluster, many modest sweeps: the only multi-thread run; op = log entry",
    ),
    (
        "query_static",
        "pql and waldo's read path on a store nothing writes, so caches stay valid; op = query",
    ),
    (
        "query_live",
        "same store and mix with a durable ingest every 32 queries invalidating caches; op = query",
    ),
];

/// Seconds of budget a run sizes its work from when none is given; the
/// `run_seconds` of BENCHMARK.json. Eight passes of two seconds.
pub const RUN_SECONDS: f64 = 16.0;

/// The outcome of one invocation on one workload.
pub struct Run {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// The generated-stream digest: same seed, same inputs.
    pub digest: u64,
    /// Length of the untraced pass's timed window, seconds.
    pub window_s: f64,
    /// Why `correct` is false, for the human reader.
    pub complaints: Vec<String>,
}

/// A workload set up and ready to run its measured part.
type Ready = Box<dyn FnOnce(&Probe) -> Measured>;

/// Sets `workload` up: generates its inputs, builds its machine,
/// pre-loads its store. `cluster` picks the cluster workload's
/// membership and runtime.
fn prepare(
    workload: &str,
    seed: u64,
    scale: Scale,
    probe: &Probe,
    cluster: (usize, ClusterRuntime),
) -> Ready {
    match workload {
        "nfs_pipelined" => {
            let rig = nfs_pipelined::setup(seed, scale, probe);
            Box::new(move |p| nfs_pipelined::run(rig, p))
        }
        "local_layered" => {
            let rig = local_layered::setup(seed, scale, probe);
            Box::new(move |p| local_layered::run(rig, p))
        }
        "ingest_durable" => {
            let rig = ingest_durable::setup(seed, scale, probe);
            Box::new(move |p| ingest_durable::run(rig, p))
        }
        "ingest_cluster" => {
            let rig = ingest_cluster::setup(seed, scale, probe, cluster.0, cluster.1);
            Box::new(move |p| ingest_cluster::run(rig, p))
        }
        "query_static" | "query_live" => {
            let rig = query::setup(seed, scale, probe, workload == "query_live");
            Box::new(move |p| query::run(rig, p))
        }
        other => unreachable!("workload {other} passed validation"),
    }
}

/// One pass over `workload`: set-up (timed) then the measured part.
fn pass(
    workload: &str,
    seed: u64,
    scale: Scale,
    probe: &Probe,
    cluster: (usize, ClusterRuntime),
) -> Measured {
    let (ready, setup_s) = timed(|| prepare(workload, seed, scale, probe, cluster));
    let mut m = ready(probe);
    m.setup_s = setup_s;
    m
}

/// Extra set-ups (built and dropped) beside every pass whose own
/// set-up is short: a median of eight millisecond-scale readings
/// wanders by a sixth, and readings taken together share the host's
/// mood, so the extra ones are spread over the run like the passes.
const SHORT_SETUP_S: f64 = 0.05;
const EXTRA_SHORT_SETUPS: usize = 2;

/// A fixed spin, in milliseconds: the host-noise witness printed with
/// every traced run. The same loop on a quiet host reads the same.
fn calibrate() -> f64 {
    let ((), s) = timed(|| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..30_000_000u32 {
            x = std::hint::black_box(
                x.wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407),
            );
        }
    });
    s * 1e3
}

/// Untraced passes per run: every round and query is executed this
/// many times and read at its fastest (see `layers::stitched`);
/// `setup_s` is the median of the passes' set-ups (and of two more
/// beside each pass where a set-up takes under 50 ms). Many short
/// passes rather than a few long ones: the shared bench host runs
/// 10-40% slow for 5-25 s at a time, a round's executions have to span
/// more than one such phase for its fastest to be an undisturbed one,
/// and any calm stretch as long as one pass gives every round one.
pub const PASSES: usize = 8;

/// Runs `workload` once, the way the driver asks for it. `scale` is the
/// whole run's budget; each of the `passes` untraced passes sizes its
/// window at an equal share of it.
///
/// Untraced (`trace` false): `passes_n` measured passes on the bare
/// stack over identical inputs; the end-to-end metrics are taken over
/// each round's and query's fastest execution. Traced: one untraced
/// pass, then a traced pass over the same inputs — whose store must
/// equal the untraced one byte for byte —
/// and, on the cluster workload, a one-member sequential twin; the
/// result is the per-layer metrics.
pub fn run_workload(workload: &str, seed: u64, scale: Scale, trace: bool, passes_n: usize) -> Run {
    let threaded = (ingest_cluster::MEMBERS, ClusterRuntime::Threaded);
    let scale = Scale {
        seconds: scale.seconds / passes_n as f64,
    };
    // Let the allocator, the caches and the clocks settle on a tenth
    // of a pass before anything is timed.
    let warm = Scale {
        seconds: scale.seconds / 10.0,
    };
    drop(pass(workload, seed, warm, &Probe::off(), threaded));

    let mut plain = pass(workload, seed, scale, &Probe::off(), threaded);
    let mut complaints = Vec::new();
    let mut failed = plain.failed;
    let mut attempted = plain.attempted;
    if plain.failed > 0 {
        complaints.push(format!(
            "{} of {} operations failed",
            plain.failed, plain.attempted
        ));
    }

    let metrics = if !trace {
        let mut setups = Vec::new();
        let mut record_setup = |setup_s: f64| {
            setups.push(setup_s);
            if setup_s < SHORT_SETUP_S {
                for _ in 0..EXTRA_SHORT_SETUPS {
                    let bare =
                        timed(|| drop(prepare(workload, seed, scale, &Probe::off(), threaded)));
                    setups.push(bare.1);
                }
            }
        };
        record_setup(plain.setup_s);
        let mut passes = vec![plain];
        while passes.len() < passes_n {
            let plain = &passes[0];
            let again = pass(workload, seed, scale, &Probe::off(), threaded);
            record_setup(again.setup_s);
            attempted += again.attempted + 1;
            failed += again.failed;
            // Same seed, same inputs, same store — every time.
            if again.images != plain.images || again.digest != plain.digest {
                failed += 1;
                complaints.push("two passes over one seed left different stores".into());
            }
            passes.push(again);
        }
        let mut e2e = layers::end_to_end(&layers::stitched(&passes));
        e2e.insert("setup_s", stats::median(&setups));
        plain = passes.swap_remove(0);
        e2e
    } else {
        let calib_ms = calibrate();
        let probe = Probe::on();
        let mut traced = pass(workload, seed, scale, &probe, threaded);
        attempted += traced.attempted + 2;
        failed += traced.failed;
        if traced.failed > 0 {
            complaints.push(format!("{} operations failed under tracing", traced.failed));
        }
        // The shims observe and never participate.
        if traced.images != plain.images || traced.digest != plain.digest {
            failed += 1;
            complaints.push("the traced pass left a different store than the untraced one".into());
        }
        if workload == "local_layered" {
            plain.ext3_capture_s = local_layered::ext3_capture_s(seed, scale);
        }
        if workload == "ingest_cluster" {
            // The sequential twin: one member, no threads, same logs.
            let twin = pass(
                workload,
                seed,
                scale,
                &Probe::off(),
                (1, ClusterRuntime::Sequential),
            );
            attempted += twin.attempted + 1;
            failed += twin.failed;
            if twin.images != plain.images {
                failed += 1;
                complaints.push("the sequential twin built a different store".into());
            }
            traced.set(
                "waldo.cluster.speedup_vs_sequential",
                twin.ingest_s() / plain.ingest_s(),
            );
        }
        let tracer = probe.tracer().expect("a traced probe has a tracer");
        let layers = layers::per_layer(&plain, &traced, tracer, calib_ms);
        let sum = layers["ledger.layer_sum_pct"];
        if !(95.0..=105.0).contains(&sum) {
            failed += 1;
            complaints.push(format!(
                "layer self times sum to {sum:.1}% of the traced window"
            ));
        }
        if let Err(e) = report::write_trace(workload, tracer) {
            complaints.push(format!("the span file was not written: {e}"));
        }
        layers
    };
    Run {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        digest: plain.digest,
        window_s: plain.window_s(),
        complaints,
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    agree: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        agree: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.iter().any(|(n, _)| *n == w) {
                    return Err(format!("unknown workload {w}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--manifest" => {
                print!("{}", report::manifest());
                std::process::exit(0);
            }
            "--quick" => args.quick = true,
            "--agree" => args.agree = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    // `--quick`: a twentieth of the work, one repetition, every check.
    let (scale, passes) = if args.quick {
        (
            Scale {
                seconds: args.seconds / 20.0 / PASSES as f64,
            },
            1,
        )
    } else {
        (
            Scale {
                seconds: args.seconds,
            },
            PASSES,
        )
    };
    let ok = if args.agree {
        report::agree(args.seed, scale)
    } else if let Some(w) = &args.workload {
        let run = run_workload(w, args.seed, scale, args.trace, passes);
        report::print_run(w, args.trace, &run);
        println!("{}", report::result_line(args.trace, &run));
        run.correct
    } else {
        report::all(args.seed, scale, passes)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed, same generated stream; another seed, another stream —
    /// and on either every oracle holds.
    #[test]
    fn streams_are_seeded_and_every_check_passes() {
        let tiny = Scale { seconds: 0.02 };
        let threaded = (ingest_cluster::MEMBERS, ClusterRuntime::Threaded);
        for (workload, _) in WORKLOADS {
            let run = |seed| pass(workload, seed, tiny, &Probe::off(), threaded);
            let (a, again, b) = (run(5), run(5), run(6));
            assert_eq!(a.digest, again.digest, "{workload}: one seed, two streams");
            assert_eq!(a.images, again.images, "{workload}: one seed, two stores");
            assert_ne!(a.digest, b.digest, "{workload}: two seeds, one stream");
            for m in [&a, &b] {
                assert!(
                    m.attempted > 0 && m.failed == 0,
                    "{workload}: a check failed"
                );
            }
        }
    }

    /// A traced pass leaves the very store an untraced one does, and its
    /// layers account for the window.
    #[test]
    fn tracing_observes_and_never_participates() {
        let run = run_workload("local_layered", 9, Scale { seconds: 0.05 }, true, 1);
        assert!(run.correct, "{:?}", run.complaints);
        assert!(run.metrics["core.records_emitted"] > 0.0);
    }
}
