//! `ingest_durable`: the daemon alone. Set-up plays the
//! `local_layered` script at a larger scale and leaves [`LOGS`] rotated
//! logs on a fresh machine; the timed part is a durable daemon
//! (`attach_db_dir`, default checkpoint policy, two checkpoints kept)
//! ingesting one log per round, answering that log's ancestry
//! questions, and then — after a machine crash — five cold restarts.
//!
//! Waldo's daemon, store, WAL, checkpoints and manifest do all the work
//! and the front door none. Sized so well over twenty checkpoints
//! publish: the write amplification and the stalls they cause — which a
//! median hides and `round_p95_ms` does not — are what this workload is
//! for.

use std::collections::BTreeSet;

use waldo::{Waldo, WaldoConfig};

use crate::local_layered::{
    answer_is_right, play_round, question_text, script, seed_volume, Script, CHURN, JOBS,
};
use crate::measure::{ask, ingest_call, timed, Asked, Measured, QueryClass, Reference, Scale};
use crate::rig::{closed_logs, local_machine, Machine, DB_ROOT};
use crate::trace::Probe;

/// Rotated logs left for the daemon: one per timed round.
pub const LOGS: usize = 200;
/// Script rounds per second of budget (bench-host calibration).
const ROUNDS_PER_SECOND: f64 = 200.0;
const RESTARTS: usize = 5;

pub struct Rig {
    script: Script,
    mach: Machine,
    /// Per log: its path and the script rounds it holds.
    logs: Vec<(String, std::ops::Range<usize>)>,
    reference: Reference,
}

pub fn setup(seed: u64, scale: Scale, probe: &Probe) -> Rig {
    let per_log = scale.units(ROUNDS_PER_SECOND, LOGS).div_ceil(LOGS);
    let script = script(seed ^ 0xD0_5EED, per_log * LOGS, "", JOBS, CHURN);
    let mut mach = local_machine(probe, &[("/", 1)]);
    let actors = seed_volume(&mut mach.kernel, "");
    let reader = mach.daemon_pid();
    let (_, mount, _) = mach.volumes[0].clone();
    let mut logs = Vec::with_capacity(LOGS);
    let mut reference = Reference::new(WaldoConfig::default());
    let mut seen = BTreeSet::new();
    let mut first = 0;
    for (r, round) in script.rounds.iter().enumerate() {
        let (_, failed) = play_round(
            &mut mach.kernel,
            &actors,
            round,
            &Probe::off(),
            Some(&mut Vec::new()),
        );
        assert_eq!(failed, 0, "the set-up script failed an operation");
        if (r + 1) % per_log == 0 {
            mach.rotate_logs();
            let rotated = mach
                .kernel
                .dpapi_at(mount)
                .expect("a PASS volume at /")
                .take_log_rotations();
            // Lasagna also rotates by size; every log closed during
            // these rounds belongs to this timed round's share.
            for (i, rel) in rotated.iter().enumerate() {
                let rounds = if i + 1 == rotated.len() {
                    first..r + 1
                } else {
                    first..first
                };
                logs.push((format!("/{rel}"), rounds));
            }
            first = r + 1;
            for image in closed_logs(&mut mach.kernel, reader, "/", &mut seen) {
                reference.absorb(&image);
            }
        }
    }
    Rig {
        script,
        mach,
        logs,
        reference,
    }
}

pub fn run(rig: Rig, probe: &Probe) -> Measured {
    let Rig {
        script,
        mut mach,
        logs,
        reference,
    } = rig;
    let mut m = Measured {
        digest: script.digest,
        ..Measured::default()
    };
    let db_dir = format!("{DB_ROOT}/db");
    let cfg = WaldoConfig::default();
    let mut waldo = mach.spawn_waldo_durable(cfg, &db_dir);
    for (r, (path, rounds)) in logs.iter().enumerate() {
        probe.set_batch(r as u32);
        let ingest_s = ingest_call(&mut m, probe, &mut mach.kernel, |k| {
            waldo.ingest_log_file(k, path)
        });
        let mut round_s = ingest_s;
        for question in script.rounds[rounds.clone()]
            .iter()
            .flat_map(|r| &r.questions)
        {
            let (answer, s) = ask(
                &mut m,
                probe,
                QueryClass::Shallow,
                &question_text(question, ""),
                Asked::Daemon(&mut waldo),
            );
            round_s += s;
            m.check(answer_is_right(question, &answer));
        }
        m.end_round(round_s, ingest_s);
    }
    m.ops = m.entries;
    m.stored_bytes = mach.db_stored_bytes();
    crate::layers::record_daemon_counts(&mut m, &mach, &[&waldo]);
    reference.publish(&mut m);

    // Machine crash: the daemon's memory is gone, the disks survive.
    // Every acknowledged entry must come back from them, and equal both
    // the store that crashed and the memory-only reference.
    let crashed = waldo.db.segment_images();
    drop(waldo);
    m.check(crashed == reference.db.segment_images());
    let last = &script.rounds.last().expect("a script has rounds").questions[0];
    for i in 0..RESTARTS {
        let pid = mach.daemon_pid();
        // Timed outside any stage: a restart is not part of the
        // steady-state window the layer self times are read against.
        let (restarted, s) = timed(|| {
            let mut w = Waldo::restart(pid, &mut mach.kernel, cfg, &db_dir, &["/"]).ok()?;
            // To the first correct answer, not merely to return.
            let out = w.query(&question_text(last, "")).ok()?;
            let names: BTreeSet<String> = out
                .result
                .rows
                .iter()
                .filter_map(|r| r.first().and_then(|c| c.as_str()).map(str::to_string))
                .collect();
            answer_is_right(last, &names).then_some(w)
        });
        m.restart_s.push(s);
        let Some(w) = restarted else {
            m.check(false);
            continue;
        };
        m.check(w.db.segment_images() == crashed);
        if i == 0 {
            let replayed = w.restart_report().map_or(0, |r| r.replayed_entries);
            m.set("waldo.restart.logs_replayed", w.processed_logs() as f64);
            m.set("waldo.restart.entries_replayed", replayed as f64);
        }
    }
    m.images = crashed;
    m
}
