//! Output: the driver's result line, the human-readable tables, the
//! span file, and `--agree` (two sets of runs, derived bounds).

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::json::Json;
use crate::layers::{END_TO_END, PER_LAYER};
use crate::measure::Scale;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{run_workload, Run, WORKLOADS};

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(n, u, _, _)| (*n, *u))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .expect("every reported metric is declared")
}

/// The last line of a run: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics being every end-to-end metric of an
/// untraced run or every per-layer metric of a traced one.
pub fn result_line(trace: bool, run: &Run) -> String {
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|(n, _, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _, _, _)| *n).collect()
    };
    let metrics = names.into_iter().map(|name| {
        let value = run.metrics.get(name).copied().unwrap_or(0.0);
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(unit_of(name))),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(run.correct)),
        ("attempted", Json::Int(run.attempted.max(1))),
        ("failed", Json::Int(run.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .line()
}

/// Every metric of a run by name, with its unit.
pub fn print_run(workload: &str, trace: bool, run: &Run) {
    println!(
        "# {workload} ({}) ops_attempted {} ops_failed {} stream_digest {:016x} untraced_window_s {:.3}",
        if trace { "traced" } else { "untraced" },
        run.attempted,
        run.failed,
        run.digest,
        run.window_s,
    );
    for complaint in &run.complaints {
        println!("# WRONG: {complaint}");
    }
    for (name, value) in &run.metrics {
        println!("{workload:<15} {name:<42} {value:>16.4} {}", unit_of(name));
    }
}

/// BENCHMARK.json, from the tables this crate measures by (a unit test
/// holds the committed file equal to this).
pub fn manifest() -> String {
    let better = |higher: bool| Json::str(if higher { "higher" } else { "lower" });
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "ledger/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .into(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("ledger")])),
        ("run_seconds", Json::Int(crate::RUN_SECONDS as u64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(n, why)| Json::obj([("name", Json::str(*n)), ("why", Json::str(*why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(n, u, h, b)| {
                        Json::obj([
                            ("name", Json::str(*n)),
                            ("unit", Json::str(*u)),
                            ("better", better(*h)),
                            ("bound", Json::Num(*b)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(n, u, h)| {
                        Json::obj([
                            ("name", Json::str(*n)),
                            ("unit", Json::str(*u)),
                            ("better", better(*h)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

/// Where build products live: the span files go beside them.
fn target_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
}

/// Writes the traced pass's kept spans as a Chrome trace
/// (`<target>/ledger/<workload>.trace.json`), through provscope's
/// exporter.
pub fn write_trace(workload: &str, tracer: &Tracer) -> std::io::Result<()> {
    let dir = target_dir().join("ledger");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("{workload}.trace.json")),
        provscope::chrome_trace_json(&tracer.to_trace()),
    )
}

/// All six workloads, untraced then traced.
pub fn all(seed: u64, scale: Scale, passes: usize) -> bool {
    let mut ok = true;
    for (workload, why) in WORKLOADS {
        println!("## {workload}: {why}");
        for trace in [false, true] {
            let run = run_workload(workload, seed, scale, trace, passes);
            print_run(workload, trace, &run);
            ok &= run.correct;
        }
    }
    println!(
        "## {}",
        if ok {
            "every check passed"
        } else {
            "SOME CHECK FAILED"
        }
    );
    ok
}

/// Untraced repetitions per set in `--agree`.
const REPETITIONS: usize = 5;

fn output_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

type SetMedians = BTreeMap<(&'static str, &'static str), f64>;

/// Both sets: each workload `REPETITIONS` times untraced per set, the
/// two sets' runs alternating — the host's slow minutes then fall on
/// both alike, and what is left between the sets is the benchmark's own
/// disagreement. Per metric the median (with min and max printed).
fn two_sets(seed: u64, scale: Scale, ok: &mut bool) -> [SetMedians; 2] {
    let mut sets = [SetMedians::new(), SetMedians::new()];
    for (workload, _) in WORKLOADS {
        let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * REPETITIONS {
            runs[i % 2].push(run_workload(workload, seed, scale, false, crate::PASSES));
        }
        let all = || runs.iter().flatten();
        *ok &= all().all(|r| r.correct);
        // What the seed fixes must repeat exactly.
        let first = &runs[0][0];
        if !all().all(|r| (r.attempted, r.failed, r.digest) == (first.attempted, 0, first.digest)) {
            println!("# WRONG: {workload}: counts or inputs differ between repetitions");
            *ok = false;
        }
        for (set, runs) in runs.iter().enumerate() {
            for (name, unit, _, _) in END_TO_END {
                let values: Vec<f64> = runs.iter().map(|r| r.metrics[name]).collect();
                let (lo, hi) = values
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
                let mid = median(&values);
                println!(
                    "set {} {workload:<15} {name:<22} median {mid:>14.4} min {lo:>14.4} max {hi:>14.4} {unit}",
                    set + 1
                );
                sets[set].insert((workload, name), mid);
            }
        }
    }
    sets
}

/// Two full sets of untraced runs of the same code, interleaved. Each end-to-end
/// metric's bound is derived as max(5%, twice the largest relative gap
/// between the sets' medians over the workloads), capped at the
/// contract's 25%; a timing metric whose sets differ by more than 10%
/// on some workload is refused (lengthen its window instead). One
/// traced run per workload follows, and everything is written to
/// `BASELINE.json` beside the manifest.
pub fn agree(seed: u64, scale: Scale) -> bool {
    let mut ok = true;
    println!("## two sets, alternating");
    let [first, second] = two_sets(seed, scale, &mut ok);
    println!("## agreement");
    let mut bounds = Vec::new();
    let mut medians = Vec::new();
    for (name, unit, _, declared) in END_TO_END {
        let mut worst: f64 = 0.0;
        for (workload, _) in WORKLOADS {
            let (a, b) = (first[&(workload, name)], second[&(workload, name)]);
            let gap = (a - b).abs() / a.min(b);
            worst = worst.max(gap);
            // Set-up is short and carries the widest bound by contract.
            if gap > 0.10 && name != "setup_s" {
                println!(
                    "# REFUSED: {workload} {name}: sets differ by {:.1}%",
                    gap * 100.0
                );
                ok = false;
            }
            medians.push(Json::obj([
                ("workload", Json::str(workload)),
                ("metric", Json::str(name)),
                ("unit", Json::str(unit)),
                ("set1", Json::Num(a)),
                ("set2", Json::Num(b)),
                ("gap", Json::Num(gap)),
            ]));
        }
        let derived = (2.0 * worst).clamp(0.05, 0.25);
        println!(
            "{name:<22} worst gap {:>6.2}%  derived bound {:>5.1}%  declared {:>5.1}%",
            worst * 100.0,
            derived * 100.0,
            declared * 100.0
        );
        if derived > declared {
            println!("# REFUSED: {name}: the declared bound is tighter than the runs support");
            ok = false;
        }
        bounds.push((name, Json::Num(derived)));
    }
    // One traced run per workload: the per-layer baseline.
    println!("## per-layer");
    let mut per_layer = Vec::new();
    for (workload, _) in WORKLOADS {
        let run = run_workload(workload, seed, scale, true, crate::PASSES);
        print_run(workload, true, &run);
        ok &= run.correct;
        let values = run.metrics.iter().map(|(k, v)| (*k, Json::Num(*v)));
        per_layer.push((workload, Json::obj(values)));
    }
    let doc = Json::obj([
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(scale.seconds)),
        ("repetitions_per_set", Json::Int(REPETITIONS as u64)),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("rustc", Json::str(output_of("rustc", &["--version"]))),
        (
            "commit",
            Json::str(output_of("git", &["rev-parse", "HEAD"])),
        ),
        ("derived_bounds", Json::obj(bounds)),
        ("medians", Json::Arr(medians)),
        ("per_layer", Json::obj(per_layer)),
        ("agreed", Json::Bool(ok)),
    ]);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BASELINE.json");
    match std::fs::write(&path, doc.pretty()) {
        Ok(()) => println!("## wrote {}", path.display()),
        Err(e) => {
            println!("# WRONG: {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use provscope::{parse_json, JsonValue};

    fn fake_run(names: impl Iterator<Item = &'static str>) -> Run {
        Run {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: names
                .enumerate()
                .map(|(i, n)| (n, i as f64 + 0.5))
                .collect(),
            digest: 7,
            window_s: 1.0,
            complaints: Vec::new(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        for trace in [false, true] {
            let names: Vec<&'static str> = if trace {
                PER_LAYER.iter().map(|(n, _, _)| *n).collect()
            } else {
                END_TO_END.iter().map(|(n, _, _, _)| *n).collect()
            };
            let line = result_line(trace, &fake_run(names.iter().copied()));
            let v = parse_json(&line).unwrap();
            let JsonValue::Obj(members) = &v else {
                panic!("not an object")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let JsonValue::Obj(metrics) = v.get("metrics").unwrap() else {
                panic!()
            };
            assert_eq!(metrics.len(), names.len());
            for (name, m) in metrics {
                assert!(names.contains(&name.as_str()));
                assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    Some(unit_of(name))
                );
            }
        }
    }

    /// BENCHMARK.json at the repository root declares what this crate
    /// measures; the two must not drift apart.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let committed = parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        assert_eq!(committed, parse_json(&manifest()).unwrap());
        let JsonValue::Obj(members) = &committed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }
}
