//! The torture harness: twin runs, three topologies, one verdict.
//!
//! [`torture`] runs the same workload schedule twice — once with the
//! fault injected (the *faulted twin*) and once without (the
//! *reference twin*) — under an identical topology, volume layout,
//! checkpoint schedule and seed. The two-sided oracle then reads off
//! the verdict:
//!
//! * signals (typed errors, corruption counters) from the faulted
//!   twin ⇒ the tamper was **detected**;
//! * `Store::segment_images` byte-equality between the twins ⇒ the
//!   tamper was **provably harmless**;
//! * neither ⇒ [`Verdict::SilentDivergence`], which every consumer
//!   of this crate treats as a failure.
//!
//! The reference twin must itself be silent — a signal there means
//! the harness, not the system, is broken, so it panics.

use dpapi::{Attribute, Bundle, ProvenanceRecord, Value, VolumeId};
use passv2::SystemBuilder;
use sim_os::cost::CostModel;
use sim_os::fs::basefs::BaseFs;
use sim_os::fs::FaultFs;
use waldo::{route_volume, Cluster, IngestStats, Waldo, WaldoConfig};
use workloads::Workload;

use crate::fault::Fault;
use crate::TortureRng;

/// Where a case's daemons live and how they die.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Topology {
    /// One durable daemon serving both volumes; never crashed.
    SingleDaemon,
    /// One durable daemon, machine-crashed and cold-restarted.
    DurableRestart,
    /// A two-member durable cluster, machine-crashed and
    /// cold-restarted member by member.
    Cluster2,
}

/// Every topology, in matrix order.
pub const ALL_TOPOLOGIES: [Topology; 3] = [
    Topology::SingleDaemon,
    Topology::DurableRestart,
    Topology::Cluster2,
];

impl Topology {
    /// Stable display name (also the RNG salt for the cell).
    pub fn name(&self) -> &'static str {
        match self {
            Topology::SingleDaemon => "single-daemon",
            Topology::DurableRestart => "durable-restart",
            Topology::Cluster2 => "cluster-2",
        }
    }

    fn members(&self) -> usize {
        match self {
            Topology::SingleDaemon | Topology::DurableRestart => 1,
            Topology::Cluster2 => 2,
        }
    }
}

/// The verdict of one matrix cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// No signal, byte-equal: the fault never mattered.
    Harmless,
    /// Signaled *and* byte-equal: detected, then fully repaired.
    DetectedHarmless,
    /// Signaled, not byte-equal: detected; recovery refused or lossy,
    /// but loudly.
    Detected,
    /// No signal, not byte-equal: the store silently changed. This is
    /// the one outcome the system promises can never happen.
    SilentDivergence,
}

impl Verdict {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Harmless => "harmless",
            Verdict::DetectedHarmless => "detected+harmless",
            Verdict::Detected => "detected",
            Verdict::SilentDivergence => "SILENT DIVERGENCE",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The full record of one `(workload, topology, fault, seed)` cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseReport {
    /// Workload display name.
    pub workload: String,
    /// Topology the case ran under.
    pub topology: Topology,
    /// Fault kind name.
    pub fault: &'static str,
    /// What the injection actually did (`None` = it found no target,
    /// which the matrix tests treat as a harness bug).
    pub applied: Option<String>,
    /// Detection signals raised by the faulted twin: typed recovery
    /// errors and nonzero corruption counters.
    pub signals: Vec<String>,
    /// Whether the faulted twin's final store was byte-equal to the
    /// reference twin's.
    pub byte_equal: bool,
    /// Chrome-trace JSON of the faulted twin's span forest — the
    /// cross-layer story of the cell that produced this verdict, for
    /// loading into `chrome://tracing` when a cell goes wrong. The
    /// reference twin runs untraced, so the byte-equality oracle
    /// doubles as a continuous check that tracing never participates
    /// in behavior. Deterministic (virtual clock), so the matrix
    /// test's reproducibility assertion covers it too.
    pub trace_json: String,
    /// The volume-salted **batch** trace ids the faulted twin's scope
    /// retained, sorted. Batch ids are content-derived, so under a
    /// [`torture_with_recorder`] run with head sampling this set is
    /// the pure sampled subset of the unbounded run's —
    /// `tests/matrix.rs` asserts it, and that same-seed recorder runs
    /// retain identical sets.
    pub sampled_traces: Vec<u64>,
    /// A cycle in the reference twin's stored ancestry
    /// ([`CleanRun::input_cycle`]). Several analyzers wrote that graph
    /// — both volumes' PASS modules, the disclosures, on a cluster two
    /// members' stores — and their union must still be acyclic, so
    /// the acceptance matrix in `tests/matrix.rs` requires `None`.
    pub reference_cycle: Option<Vec<dpapi::ObjectRef>>,
}

impl CaseReport {
    /// The two-sided oracle's verdict for this cell.
    pub fn verdict(&self) -> Verdict {
        match (!self.signals.is_empty(), self.byte_equal) {
            (false, true) => Verdict::Harmless,
            (true, true) => Verdict::DetectedHarmless,
            (true, false) => Verdict::Detected,
            (false, false) => Verdict::SilentDivergence,
        }
    }
}

impl std::fmt::Display for CaseReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<12} {:<16} {:<22} {}",
            self.workload,
            self.topology.name(),
            self.fault,
            self.verdict()
        )
    }
}

/// The surviving query endpoint of a fault-free run, for the
/// expressiveness (graph-shape) oracle.
pub enum CleanRun {
    /// A single daemon (fresh or cold-restarted).
    Single(Box<Waldo>),
    /// A cold-restarted cluster (scatter-gather queries).
    Cluster(Box<Cluster>),
}

impl CleanRun {
    /// A cycle in the run's stored ancestry, if any
    /// ([`waldo::Store::input_cycle`]) — for a cluster, in the merged
    /// store, where the members' graphs meet.
    pub fn input_cycle(&self) -> Option<Vec<dpapi::ObjectRef>> {
        match self {
            CleanRun::Single(w) => w.db.input_cycle(),
            CleanRun::Cluster(c) => c.merged_store().input_cycle(),
        }
    }

    /// Rows a PQL query returns against this run's store(s).
    pub fn rows(&mut self, text: &str) -> usize {
        let out = match self {
            CleanRun::Single(w) => w.query(text),
            CleanRun::Cluster(c) => c.query(text),
        };
        out.expect("shape-oracle queries are well-formed")
            .result
            .rows
            .len()
    }
}

/// The schedule knobs shared by both twins of a case, derived from
/// the fault *kind* (never from the injection draw), so faulted and
/// reference runs stay comparable.
#[derive(Clone, Copy)]
struct Schedule {
    /// Skip the final per-member checkpoint, leaving the WAL
    /// populated (WAL-targeted faults need bytes to tamper with).
    skip_last_checkpoint: bool,
    /// Run only the per-volume disclosure transaction in the final
    /// round, so its checkpoint is a delta (delta-targeted faults
    /// need one to tamper with).
    light_last_round: bool,
}

struct RunOutput {
    /// Canonical store bytes, `None` if recovery refused to start
    /// (itself a detection).
    images: Option<Vec<Vec<u8>>>,
    signals: Vec<String>,
    applied: Option<String>,
    survivors: Option<CleanRun>,
    /// Span forest of the run (empty when untraced — the reference
    /// and clean twins).
    trace: provscope::Trace,
}

/// Ingest rounds per run: round 0 establishes committed history
/// (checkpointed, retained, replay-markable); round 1 is the round
/// the faults land on.
const ROUNDS: usize = 2;

/// Volumes per run — two on every topology, so the single-daemon
/// reference shape is comparable with the cluster's.
const VOLUMES: u32 = 2;

/// A torn publish crashes the database volume after op k of the final
/// checkpoint, k drawn below this bound: the mutating ops of a base
/// rewrite of [`torture_config`]'s four shards, plus one. A delta
/// checkpoint makes fewer, and a draw past its last op crashes the
/// machine after it.
const CRASH_OPS: usize = 21;

const DB_SINGLE: &str = "/db/waldo";
const DB_CLUSTER: &str = "/db/cluster";

fn db_dir(topo: Topology, member: usize) -> String {
    match topo {
        Topology::SingleDaemon | Topology::DurableRestart => DB_SINGLE.to_string(),
        Topology::Cluster2 => format!("{DB_CLUSTER}/member{member}"),
    }
}

fn torture_config() -> WaldoConfig {
    WaldoConfig {
        shards: 4,
        ingest_batch: 8,
        checkpoint_commits: 0,
        checkpoint_wal_bytes: 0,
        keep_checkpoints: 2,
        ..WaldoConfig::default()
    }
}

/// Runs one matrix cell: the faulted twin, then the reference twin on
/// an identical schedule, then the two-sided oracle.
pub fn torture(w: &dyn Workload, topo: Topology, fault: &Fault, seed: u64) -> CaseReport {
    torture_with_recorder(w, topo, fault, seed, None)
}

/// [`torture`] with the faulted twin's scope running the bounded
/// flight recorder instead of unbounded tracing. The oracle is
/// unchanged — the recorder only decides which completed trace trees
/// are *retained*, so verdicts must match the unbounded run's
/// verbatim (`tests/matrix.rs` asserts this).
pub fn torture_with_recorder(
    w: &dyn Workload,
    topo: Topology,
    fault: &Fault,
    seed: u64,
    recorder: Option<provscope::RecorderConfig>,
) -> CaseReport {
    let schedule = Schedule {
        skip_last_checkpoint: fault.skips_final_checkpoint(),
        light_last_round: fault.wants_light_final_round(),
    };
    let mut fault_rng = TortureRng::for_case(seed, w.name(), topo.name(), fault.name());
    let faulted = execute(w, topo, Some(fault), schedule, &mut fault_rng, recorder);
    let mut ref_rng = TortureRng::for_case(seed, w.name(), topo.name(), "reference");
    let reference = execute(w, topo, None, schedule, &mut ref_rng, None);
    assert!(
        reference.signals.is_empty(),
        "the fault-free twin raised detection signals — a harness bug: {:?}",
        reference.signals
    );
    let ref_images = reference
        .images
        .expect("the fault-free twin's recovery never aborts");
    let byte_equal = faulted.images.as_ref() == Some(&ref_images);
    CaseReport {
        workload: w.name().to_string(),
        topology: topo,
        fault: fault.name(),
        applied: faulted.applied,
        signals: faulted.signals,
        byte_equal,
        sampled_traces: faulted.trace.batch_traces().iter().map(|t| t.0).collect(),
        reference_cycle: reference.survivors.as_ref().and_then(CleanRun::input_cycle),
        trace_json: provscope::chrome_trace_json(&faulted.trace),
    }
}

/// Runs a fault-free case and hands back its query endpoint for the
/// graph-shape oracle.
pub fn run_clean(w: &dyn Workload, topo: Topology, seed: u64) -> CleanRun {
    let mut rng = TortureRng::for_case(seed, w.name(), topo.name(), "clean");
    let schedule = Schedule {
        skip_last_checkpoint: false,
        light_last_round: false,
    };
    let out = execute(w, topo, None, schedule, &mut rng, None);
    assert!(
        out.signals.is_empty(),
        "a fault-free run raised detection signals: {:?}",
        out.signals
    );
    out.survivors.expect("a fault-free run always survives")
}

fn execute(
    w: &dyn Workload,
    topo: Topology,
    fault: Option<&Fault>,
    schedule: Schedule,
    rng: &mut TortureRng,
    recorder: Option<provscope::RecorderConfig>,
) -> RunOutput {
    let cfg = torture_config();
    let mut builder = SystemBuilder::new(CostModel::default()).waldo_config(cfg);
    if let Some(rc) = recorder {
        builder = builder.flight_recorder(rc);
    }
    for v in 1..=VOLUMES {
        builder = builder.pass_volume(&format!("/v{v}"), VolumeId(v));
    }
    let mut sys = builder.build();
    // The database volume, which a torn publish crashes.
    let (db, db_faults) = FaultFs::new(Box::new(BaseFs::new(sys.clock(), CostModel::default())));
    sys.kernel.mount("/db", Box::new(db));
    // Trace the faulted twin only: the reference twin stays untraced,
    // so the byte-equality oracle between the twins also re-proves,
    // on every cell, that tracing observes without participating.
    let scope = if fault.is_some() {
        sys.enable_tracing()
    } else {
        provscope::Scope::disabled()
    };
    let nmembers = topo.members();
    let mut members: Vec<Waldo> = (0..nmembers)
        .map(|i| {
            let mut m = sys.spawn_waldo_durable(&db_dir(topo, i));
            m.set_scope(scope.clone());
            m
        })
        .collect();
    // Db-dir faults land on the member that owns volume 1 — the one
    // guaranteed to have checkpoints.
    let target = route_volume(VolumeId(1), nmembers);
    let tamper = sys.kernel.spawn_init("tamper");
    sys.pass.exempt(tamper);
    let driver = sys.spawn("torture-driver");

    let mut signals = Vec::new();
    let mut applied = None;
    let mut stats = IngestStats::default();
    let volumes = sys.volumes.clone();

    for round in 0..ROUNDS {
        let last = round == ROUNDS - 1;
        for (mount, _, vol) in &volumes {
            let base = format!("{mount}/r{round}");
            sys.kernel
                .mkdir_p(driver, &base)
                .expect("workload base dir");
            if !(last && schedule.light_last_round) {
                w.run(&mut sys.kernel, driver, &base)
                    .expect("workload run under the torture harness");
            }
            // One disclosure transaction per volume per round: a
            // guaranteed KIND_GROUP batch, so every round has a
            // committed volume-salted batch id for the replay and
            // forgery faults to aim at.
            let h = sys
                .kernel
                .pass_mkobj(driver, Some(*vol))
                .expect("stage object on a PASS volume");
            let mut bundle = Bundle::new();
            bundle.push(
                h,
                ProvenanceRecord::new(Attribute::Type, Value::str("STAGE")),
            );
            bundle.push(
                h,
                ProvenanceRecord::new(Attribute::Name, Value::str(format!("stage-r{round}"))),
            );
            let mut txn = dpapi::Txn::new();
            txn.disclose(h, bundle).sync(h);
            sys.kernel
                .pass_commit(driver, txn)
                .expect("stage disclosure commit");
            let _ = sys.kernel.pass_close(driver, h);
        }
        let rotated = sys.rotate_all_logs();
        if last {
            if let Some(f) = fault {
                if f.targets_logs() {
                    let logs: Vec<String> = rotated
                        .iter()
                        .flat_map(|(_, logs)| logs.iter().cloned())
                        .collect();
                    applied = f.apply_to_logs(&mut sys.kernel, tamper, &logs, rng);
                }
            }
        }
        for (mount_id, logs) in &rotated {
            let vol = volumes
                .iter()
                .find(|(_, m, _)| m == mount_id)
                .map(|(_, _, v)| *v)
                .expect("rotated log from a known mount");
            let member = route_volume(vol, nmembers);
            for log in logs {
                stats += members[member].ingest_log_file(&mut sys.kernel, log);
            }
        }
        if !(last && schedule.skip_last_checkpoint) {
            for (i, m) in members.iter_mut().enumerate() {
                if fault.is_some_and(Fault::is_torn_publish) && last && i == target {
                    // The machine crashes after op k of the checkpoint:
                    // the database volume stays frozen until restart.
                    let k = rng.below(CRASH_OPS) as u64;
                    db_faults.crash_after(k);
                    let _ = m.checkpoint(&mut sys.kernel);
                    applied = Some(format!(
                        "crashed the database volume after op {k} of member {i}'s final checkpoint"
                    ));
                } else {
                    m.checkpoint(&mut sys.kernel).expect("checkpoint");
                }
            }
        }
    }

    // Ingest-side detection counters.
    if stats.tails_truncated > 0 {
        signals.push(format!("log_tails_truncated={}", stats.tails_truncated));
    }
    if stats.tails_corrupt > 0 {
        signals.push(format!("log_tails_corrupt={}", stats.tails_corrupt));
    }
    if stats.replayed_batches > 0 {
        signals.push(format!("replayed_batches={}", stats.replayed_batches));
    }
    for (i, m) in members.iter().enumerate() {
        if m.wal_errors() > 0 {
            signals.push(format!("member{i}_wal_errors={}", m.wal_errors()));
        }
    }

    // Durable-state faults land after the run's checkpoints, before
    // the crash/restart.
    if let Some(f) = fault {
        if f.targets_db_dir() {
            applied = f.apply_to_db_dir(&mut sys.kernel, tamper, &db_dir(topo, target), rng);
        }
    }

    let trace = scope.snapshot();
    db_faults.heal();
    match topo {
        Topology::SingleDaemon => {
            let images = members.iter().flat_map(|m| m.db.segment_images()).collect();
            let daemon = members.pop().expect("single-daemon topology has a member");
            RunOutput {
                images: Some(images),
                signals,
                applied,
                survivors: Some(CleanRun::Single(Box::new(daemon))),
                trace,
            }
        }
        Topology::DurableRestart => {
            drop(members);
            let pid = sys.kernel.spawn_init("waldo");
            sys.pass.exempt(pid);
            let mounts: Vec<String> = sys.volumes.iter().map(|(p, _, _)| p.clone()).collect();
            let refs: Vec<&str> = mounts.iter().map(String::as_str).collect();
            match Waldo::restart(pid, &mut sys.kernel, cfg, DB_SINGLE, &refs) {
                Err(e) => {
                    signals.push(format!("restart_error: {e}"));
                    RunOutput {
                        images: None,
                        signals,
                        applied,
                        survivors: None,
                        trace,
                    }
                }
                Ok(daemon) => {
                    collect_restart_signals(&daemon, None, &mut signals);
                    RunOutput {
                        images: Some(daemon.db.segment_images()),
                        signals,
                        applied,
                        survivors: Some(CleanRun::Single(Box::new(daemon))),
                        trace,
                    }
                }
            }
        }
        Topology::Cluster2 => {
            drop(members);
            match sys.try_restart_cluster(nmembers, DB_CLUSTER) {
                Err(e) => {
                    signals.push(format!("cluster_restart_error: {e}"));
                    RunOutput {
                        images: None,
                        signals,
                        applied,
                        survivors: None,
                        trace,
                    }
                }
                Ok(cluster) => {
                    for (i, m) in cluster.members().iter().enumerate() {
                        collect_restart_signals(m, Some(i), &mut signals);
                    }
                    if let Err(e) = cluster.try_merged_store() {
                        signals.push(format!("merge_error: {e}"));
                    }
                    let images = cluster
                        .members()
                        .iter()
                        .flat_map(|m| m.db.segment_images())
                        .collect();
                    RunOutput {
                        images: Some(images),
                        signals,
                        applied,
                        survivors: Some(CleanRun::Cluster(Box::new(cluster))),
                        trace,
                    }
                }
            }
        }
    }
}

/// Detection counters a cold restart surfaces: damaged checkpoints
/// skipped, a torn WAL tail, batches skipped as replays during log
/// recovery.
fn collect_restart_signals(daemon: &Waldo, member: Option<usize>, signals: &mut Vec<String>) {
    let prefix = member.map(|i| format!("member{i}_")).unwrap_or_default();
    let report = daemon
        .restart_report()
        .expect("cold-restarted daemons carry a restart report");
    if report.checkpoints_skipped > 0 {
        signals.push(format!(
            "{prefix}checkpoints_skipped={}",
            report.checkpoints_skipped
        ));
    }
    if report.wal_tail_torn {
        signals.push(format!("{prefix}wal_tail_torn"));
    }
    if daemon.db.replayed_batches() > 0 {
        signals.push(format!(
            "{prefix}recovery_replayed_batches={}",
            daemon.db.replayed_batches()
        ));
    }
}
