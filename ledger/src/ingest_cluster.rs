//! `ingest_cluster`: the only multi-threaded workload. Four PASS
//! volumes (ids 1, 2, 6, 7: two route to each member) take an untimed
//! slice of the `local_layered` script and a forced rotation every
//! round; the timed part is one `Cluster::poll_volumes_report` sweep of
//! a two-member **durable, threaded** cluster, then eight scatter-gather
//! `Cluster::query` answers (two per volume).
//!
//! Many modest sweeps, as a polling daemon really runs, not one giant
//! one: this is the runtime whose per-sweep `thread::scope`,
//! coordinator-side image reads and `flush_durable` serialisation the
//! roadmap says to make win or delete. A sweep waits for its slowest
//! member, so `member_busy_ms_max` and `coordinator_ms` — not the sum —
//! set `ingest_entries_per_s` here.

use std::collections::BTreeSet;

use provscope::Registry;
use waldo::{Cluster, ClusterRuntime, WaldoConfig};

use crate::local_layered::{
    answer_is_right, play_round, question_text, script, seed_volume, Actors, Script,
};
use crate::measure::{ask, Asked, Measured, QueryClass, Reference, Scale};
use crate::rig::{bytes_written_by, closed_logs, local_machine, Machine, DB_ROOT};
use crate::trace::{Layer, Probe};

/// Volume ids chosen so `route_volume` splits them two and two.
const VOLUMES: [(&str, u32); 4] = [("/v1", 1), ("/v2", 2), ("/v6", 6), ("/v7", 7)];
pub const MEMBERS: usize = 2;
/// Each volume's slice per round: half a `local_layered` round.
const JOBS: usize = 4;
const CHURN: usize = 24;
/// Rounds per second of budget (bench-host calibration).
const ROUNDS_PER_SECOND: f64 = 115.0;

pub struct Rig {
    scripts: Vec<Script>,
    actors: Vec<Actors>,
    mach: Machine,
    cluster: Cluster,
}

/// `members` daemons with durable homes, on `runtime`.
pub fn setup(
    seed: u64,
    scale: Scale,
    probe: &Probe,
    members: usize,
    runtime: ClusterRuntime,
) -> Rig {
    let rounds = scale.units(ROUNDS_PER_SECOND, 20);
    let scripts: Vec<Script> = VOLUMES
        .iter()
        .map(|(root, v)| script(seed ^ (*v as u64) << 32, rounds, root, JOBS, CHURN))
        .collect();
    let mut mach = local_machine(probe, &VOLUMES);
    let actors = VOLUMES
        .iter()
        .map(|(root, _)| seed_volume(&mut mach.kernel, root))
        .collect();
    let daemons = (0..members)
        .map(|i| mach.spawn_waldo_durable(WaldoConfig::default(), &format!("{DB_ROOT}/member{i}")))
        .collect();
    let mut cluster = Cluster::new(daemons);
    cluster.set_runtime(runtime);
    Rig {
        scripts,
        actors,
        mach,
        cluster,
    }
}

pub fn run(rig: Rig, probe: &Probe) -> Measured {
    let Rig {
        scripts,
        actors,
        mut mach,
        mut cluster,
    } = rig;
    let mut digest = crate::rng::Digest::default();
    for s in &scripts {
        digest.u64(s.digest);
    }
    let mut m = Measured {
        digest: digest.0,
        ..Measured::default()
    };
    let reader = mach.daemon_pid();
    let mut reference = Reference::new(WaldoConfig::default());
    let mut seen = BTreeSet::new();
    let (mut busy_max_ms, mut busy_sum_ms, mut sweep_ms) = (0.0, 0.0, 0.0);
    let rounds = scripts[0].rounds.len();
    for r in 0..rounds {
        probe.set_batch(r as u32);
        // Untimed: the machines' own work between two polls.
        for (s, a) in scripts.iter().zip(&actors) {
            let (attempted, failed) = play_round(
                &mut mach.kernel,
                a,
                &s.rounds[r],
                &Probe::off(),
                Some(&mut Vec::new()),
            );
            m.attempted += attempted;
            m.failed += failed;
        }
        mach.rotate_logs();
        for (root, _) in VOLUMES {
            for image in closed_logs(&mut mach.kernel, reader, root, &mut seen) {
                reference.absorb(&image);
            }
        }

        // Timed: one sweep over every volume.
        let ((report, written), s) = probe.stage(|| {
            probe.span(Layer::Daemon, "sweep", || {
                bytes_written_by(&mut mach.kernel, |k| {
                    cluster.poll_volumes_report(k, &mach.volumes)
                })
            })
        });
        let mut round_s = s;
        m.written_bytes += written;
        m.entries += report.total.applied as u64;
        m.ingest += report.total;
        m.poll_ms.push((s * 1e3, report.total.checkpoints > 0));
        m.check(report.healthy());
        let busy: Vec<f64> = report
            .member_timings
            .iter()
            .map(|t| t.wall_ns as f64 / 1e6)
            .collect();
        busy_max_ms += busy.iter().copied().fold(0.0, f64::max);
        busy_sum_ms += busy.iter().sum::<f64>();
        sweep_ms += s * 1e3;

        // Scatter-gather answers: every volume's questions of the round.
        for s in &scripts {
            for question in &s.rounds[r].questions {
                let (answer, q) = ask(
                    &mut m,
                    probe,
                    QueryClass::Shallow,
                    &question_text(question, &s.root),
                    Asked::Cluster(&mut cluster),
                );
                round_s += q;
                m.check(answer_is_right(question, &answer));
            }
        }
        m.end_round(round_s, s);
    }
    m.ops = m.entries;
    m.stored_bytes = mach.db_stored_bytes();
    let daemons: Vec<&waldo::Waldo> = cluster.members().iter().collect();
    crate::layers::record_daemon_counts(&mut m, &mach, &daemons);
    reference.publish(&mut m);

    // The sweep waits for its slowest member; what is left of it is the
    // coordinator's (collecting images, spawning, flushing).
    m.set("waldo.cluster.member_busy_ms_max", busy_max_ms);
    m.set("waldo.cluster.member_busy_ms_sum", busy_sum_ms);
    m.set(
        "waldo.cluster.coordinator_ms",
        (sweep_ms - busy_max_ms).max(0.0),
    );
    if busy_max_ms > 0.0 {
        m.set(
            "waldo.cluster.parallel_efficiency",
            busy_sum_ms / (cluster.len() as f64 * busy_max_ms),
        );
    }
    let (mut retries, mut fallbacks, mut meta_p95) = (0u64, 0u64, 0u64);
    for w in cluster.members() {
        let c = w.db.contention_stats();
        retries += c.epoch_retries;
        fallbacks += c.epoch_fallbacks;
        // The wait histograms are log2-bucketed: this is the bucket
        // ceiling of the worst member's p95, not an exact percentile.
        let mut reg = Registry::new();
        w.db.export_contention("", &mut reg);
        if let Some(h) = reg.histogram("lock.meta_wait_ns") {
            meta_p95 = meta_p95.max(h.quantile(0.95));
        }
    }
    m.set("waldo.contention.seqlock_retries", retries as f64);
    m.set("waldo.contention.seqlock_fallbacks", fallbacks as f64);
    m.set("waldo.contention.meta_lock_wait_p95_ns", meta_p95 as f64);

    // The members' stores, merged, must be the single store a lone
    // daemon would have built from the same logs.
    let merged = cluster.merged_store().segment_images();
    m.check(merged == reference.db.segment_images());
    m.images = merged;
    m
}
