//! The evaluation rig: builds the four machine configurations of the
//! paper's §7 and runs workloads on them.
//!
//! * **Ext3** — plain local file system, no provenance (baseline 1);
//! * **PASSv2** — Lasagna over the base FS with the PASS module;
//! * **NFS** — client kernel over a plain NFS export (baseline 2);
//! * **PA-NFS** — client kernel with the PASS module over a
//!   provenance-aware export.
//!
//! All timing is virtual: the numbers regenerate the *shape* of
//! Tables 2 and 3, not the paper's wall-clock seconds.

mod tables;
pub use tables::{table1, table2, table3, Table3};

use std::cell::RefCell;
use std::rc::Rc;

use dpapi::VolumeId;
use lasagna::parse_log;
use pa_nfs::NfsServer;
use passv2::{Pass, System, SystemBuilder};
use pql::{EdgeLabel, GraphSource};
use sim_os::clock::{Clock, NANOS_PER_SEC};
use sim_os::cost::CostModel;
use sim_os::proc::Pid;
use sim_os::syscall::Kernel;
use waldo::{CacheStats, CheckpointStats, ProvDb};
use workloads::{timed_run, Workload};

/// The four evaluated configurations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Config {
    /// Local base file system, no provenance.
    Ext3,
    /// Local Lasagna volume with the PASS module.
    PassV2,
    /// NFS client over a plain export.
    Nfs,
    /// PASS module over a provenance-aware export.
    PaNfs,
}

impl Config {
    /// True if this configuration collects provenance.
    pub fn is_pass(&self) -> bool {
        matches!(self, Config::PassV2 | Config::PaNfs)
    }
}

/// A built machine ready to run one workload.
pub struct Machine {
    /// The (client) kernel.
    pub kernel: Kernel,
    /// The PASS module, when installed.
    pub pass: Option<Rc<Pass>>,
    /// The NFS server, for the network configurations.
    pub server: Option<Rc<RefCell<NfsServer>>>,
    /// The driver process.
    pub driver: Pid,
}

/// Builds a machine for `cfg`.
pub fn build(cfg: Config) -> Machine {
    let model = CostModel::default();
    match cfg {
        Config::Ext3 => {
            let mut sys: System = SystemBuilder::new(model)
                .plain_volume("/")
                .without_provenance()
                .build();
            let driver = sys.spawn("driver");
            Machine {
                kernel: sys.kernel,
                pass: None,
                server: None,
                driver,
            }
        }
        Config::PassV2 => {
            let mut sys: System = SystemBuilder::new(model)
                .pass_volume("/", VolumeId(1))
                .build();
            let driver = sys.spawn("driver");
            Machine {
                kernel: sys.kernel,
                pass: Some(sys.pass),
                server: None,
                driver,
            }
        }
        Config::Nfs | Config::PaNfs => {
            let clock = Clock::new();
            let mut kernel = Kernel::new(clock.clone(), model);
            let server = if cfg == Config::PaNfs {
                pa_nfs::pa_server(clock.clone(), model, VolumeId(10))
            } else {
                pa_nfs::plain_server(clock.clone(), model)
            };
            let client = pa_nfs::client(&server, clock.clone(), model);
            kernel.mount("/", Box::new(client));
            let pass = if cfg == Config::PaNfs {
                let p = Pass::new_shared();
                kernel.install_module(p.clone());
                Some(p)
            } else {
                None
            };
            let driver = kernel.spawn_init("driver");
            Machine {
                kernel,
                pass,
                server: Some(server),
                driver,
            }
        }
    }
}

/// Operational counters of the Waldo daemon that served a run —
/// previously invisible in the rig, now threaded into the table
/// binaries (zeroed for configurations without a daemon).
#[derive(Clone, Copy, Debug, Default)]
pub struct WaldoOps {
    /// Effective (normalized) shard count of the store.
    pub effective_shards: usize,
    /// Closure cache counters after the canned query pass.
    pub closure_cache: CacheStats,
    /// Commit frames that failed to persist to the WAL.
    pub wal_errors: u64,
    /// Checkpoint subsystem counters (segments/bytes written, WAL
    /// frames truncated, logs retired).
    pub checkpoints: CheckpointStats,
    /// PQL planner counters from the canned query pass (index hits,
    /// rows pruned, closure calls saved).
    pub planner: pql::PlanStats,
}

impl provscope::MetricSource for WaldoOps {
    /// Flattens the run's operational counters into one namespace so
    /// Table 3 prints them through the [`provscope::Registry`]
    /// renderer instead of a hand-rolled column layout.
    fn record(&self, out: &mut dyn FnMut(&str, u64)) {
        out("shards", self.effective_shards as u64);
        out("cache.hits", self.closure_cache.hits);
        out("cache.misses", self.closure_cache.misses);
        out("wal_errors", self.wal_errors);
        provscope::MetricSource::record(&self.checkpoints, &mut |k, v| {
            out(&format!("ckpt.{k}"), v)
        });
        provscope::MetricSource::record(&self.planner, &mut |k, v| out(&format!("planner.{k}"), v));
    }
}

/// The outcome of one measured run.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Virtual elapsed seconds.
    pub elapsed_s: f64,
    /// Bytes the workload wrote through the kernel (the "Ext3" space
    /// column denominator).
    pub data_bytes: u64,
    /// Waldo database bytes (0 for non-PASS configurations).
    pub db_bytes: u64,
    /// Waldo index bytes.
    pub index_bytes: u64,
    /// Daemon operational counters (PASSv2 only; partial for PA-NFS).
    pub ops: WaldoOps,
}

/// Runs `workload` on a fresh machine for `cfg` and measures it.
pub fn measure(cfg: Config, workload: &dyn Workload) -> Measurement {
    measure_with_store(cfg, workload).0
}

/// [`measure`], also handing back the Waldo store the run built to
/// size the database (`None` for a configuration without provenance).
pub fn measure_with_store(cfg: Config, workload: &dyn Workload) -> (Measurement, Option<ProvDb>) {
    let mut m = build(cfg);
    let report = timed_run(workload, &mut m.kernel, m.driver, "/").expect("workload run");
    let data_bytes = m.kernel.stats().bytes_written;

    // Ingest provenance into Waldo to size the database. The PASSv2
    // daemon runs durably (WAL + checkpoints at `/waldo-db`) so the
    // checkpoint counters are real, then answers a canned ancestry
    // pass twice to exercise the closure cache.
    let (db_bytes, index_bytes, ops, store) = if cfg == Config::PassV2 {
        let waldo_pid = m.kernel.spawn_init("waldo");
        if let Some(p) = &m.pass {
            p.exempt(waldo_pid);
        }
        let mut w = waldo::Waldo::new(waldo_pid);
        w.attach_db_dir(&mut m.kernel, "/waldo-db")
            .expect("durable Waldo attach; the table labels this run durable");
        if let Some(d) = m.kernel.dpapi_at(sim_os::proc::MountId(0)) {
            d.force_log_rotation();
        }
        w.poll_volume(&mut m.kernel, sim_os::proc::MountId(0), "/");
        let s = w.db.size();
        let ops = ops_report(&w);
        (
            s.db_bytes,
            s.index_bytes,
            ops,
            Some(std::mem::take(&mut w.db)),
        )
    } else if cfg == Config::PaNfs {
        let mut db = ProvDb::new();
        if let Some(server) = &m.server {
            for image in server.borrow_mut().drain_provenance_logs() {
                let (entries, _) = parse_log(&image);
                db.ingest(&entries);
            }
        }
        let s = db.size();
        let ops = WaldoOps {
            effective_shards: db.config().effective_shards(),
            ..WaldoOps::default()
        };
        (s.db_bytes, s.index_bytes, ops, Some(db))
    } else {
        (0, 0, WaldoOps::default(), None)
    };

    let measurement = Measurement {
        elapsed_s: report.elapsed_ns as f64 / NANOS_PER_SEC as f64,
        data_bytes,
        db_bytes,
        index_bytes,
        ops,
    };
    (measurement, store)
}

/// Runs the canned query pass — the ancestry of the first 64 objects
/// (by pnode), each twice, the §3 drill-down pattern — and snapshots
/// the daemon's operational counters. The 64-object cap keeps the
/// pass O(1) across workload sizes; the printed hit/miss columns are
/// a fixed sample, not full coverage. A planned PQL ancestry query
/// with a `name` equality predicate (the paper's §5.7 shape) runs
/// against the first named object so the planner counters are real.
fn ops_report(w: &waldo::Waldo) -> WaldoOps {
    let mut pnodes: Vec<dpapi::Pnode> = w.db.all_pnodes();
    pnodes.sort_unstable();
    for p in pnodes.iter().take(64) {
        let root = dpapi::ObjectRef::new(*p, dpapi::Version(0));
        for _ in 0..2 {
            let _ = w.db.closure(root, &EdgeLabel::Any, false);
        }
    }
    let planner = pnodes
        .iter()
        .find_map(|p| {
            let obj = w.db.object(*p)?;
            let Some(dpapi::Value::Str(name)) = obj.first_attr(&dpapi::Attribute::Name) else {
                return None;
            };
            if name.contains('\'') {
                // No escape syntax in PQL string literals; pick
                // another object rather than emit a broken query.
                return None;
            }
            let q =
                format!("select A from Provenance.obj as F F.input* as A where F.name = '{name}'");
            pql::query_with_stats(&q, &w.db).ok().map(|out| out.stats)
        })
        .unwrap_or_default();
    WaldoOps {
        effective_shards: w.db.config().effective_shards(),
        closure_cache: w.db.closure_cache_stats(),
        wal_errors: w.wal_errors(),
        checkpoints: w.checkpoint_stats(),
        planner,
    }
}

/// The five workloads of the evaluation, at their default scales.
pub fn standard_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(workloads::LinuxCompile::default()),
        Box::new(workloads::Postmark::default()),
        Box::new(workloads::MercurialActivity::default()),
        Box::new(workloads::Blast::default()),
        Box::new(workloads::PaKepler::default()),
    ]
}

/// How a traced bench run retains spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMode {
    /// A disabled scope, every span operation a no-op — the
    /// byte-equality baseline.
    Off,
    /// [`provscope::Scope::enabled`]: every span kept forever.
    Unbounded,
    /// [`provscope::Scope::recording`]: the bounded flight recorder.
    Recorder(provscope::RecorderConfig),
}

/// One traced PA-NFS Postmark round: the span forest and the store
/// images that pin the tracing-is-free contract.
pub struct TracedRun {
    /// The span forest snapshot after ingest and one traced query.
    pub trace: provscope::Trace,
    /// Trace ids of the disclosure batches the run drove (empty for
    /// single-op disclosures, which allocate no batch id).
    pub batch_traces: Vec<provscope::TraceId>,
    /// Normalized segment images of the server-side Waldo store —
    /// the byte-equality witness that tracing changes no behavior.
    pub segment_images: Vec<Vec<u8>>,
    /// Virtual nanoseconds on the shared clock when the run finished —
    /// the recorder-overhead gate compares this across trace modes
    /// (tracing must not advance the clock).
    pub elapsed_ns: u64,
    /// Flight-recorder counters (all zero for `Off`/`Unbounded`).
    pub recorder: provscope::RecorderStats,
    /// The slow-trace ring, oldest first (empty unless a recorder
    /// with a finite `slow_threshold_ns` ran).
    pub slow: Vec<provscope::SlowTraceInfo>,
}

/// How many disclosure transactions [`traced_postmark`] drives after
/// the workload (each with the caller's per-transaction op count).
pub const TRACED_DISCLOSURES: usize = 4;

/// Runs a small Postmark on the PA-NFS configuration with span
/// tracing threaded through every layer, then drives
/// [`TRACED_DISCLOSURES`] disclosure transactions of `batch_ops`
/// DPAPI ops each, ingests the server-drained logs into a Waldo
/// daemon on the same scope, and serves one traced PQL query.
///
/// With `batch_ops >= 2` each disclosure allocates a volume-salted
/// batch id ([`lasagna::batch_txn_id`]), which *is* the trace id: the
/// resulting span tree crosses kernel → dpapi → pa-nfs → lasagna on
/// the synchronous commit path and gains the waldo ingest span
/// asynchronously when the daemon drains that batch's group frame.
/// With [`TraceMode::Off`] the run is identical except that every
/// span operation is a no-op — [`TracedRun::segment_images`] must
/// not notice the difference.
pub fn traced_postmark(batch_ops: usize, mode: TraceMode) -> TracedRun {
    assert!(
        batch_ops >= 1,
        "a disclosure transaction has at least one op"
    );
    let mut m = build(Config::PaNfs);
    // One scope on the machine's virtual clock through every layer it
    // has: the kernel forwards it to its mounted DPAPI volumes (the
    // client, the server and the server's Lasagna export), the PASS
    // module takes it directly, and the Waldo daemon below joins it.
    let clock = m.kernel.clock();
    let scope = match mode {
        TraceMode::Off => provscope::Scope::disabled(),
        TraceMode::Unbounded => provscope::Scope::enabled(move || clock.now()),
        TraceMode::Recorder(cfg) => provscope::Scope::recording(move || clock.now(), cfg),
    };
    m.kernel.set_scope(scope.clone());
    if let Some(p) = &m.pass {
        p.set_scope(scope.clone());
    }

    let wl = workloads::Postmark {
        files: 12,
        transactions: 24,
        subdirs: 2,
        min_size: 512,
        max_size: 2048,
        seed: 11,
    };
    timed_run(&wl, &mut m.kernel, m.driver, "/").expect("workload run");

    // The disclosure rounds under measurement: `batch_ops` DPAPI ops
    // committed atomically per transaction (the DPAPI v2 batch
    // shape), all against one run object. The trailing `sync` is what
    // flushes the module-cached disclosure records into the volume
    // transaction — without it the module defers them and nothing
    // crosses the pa-nfs/lasagna boundary (so `batch_ops = 1`, a
    // bare sync, drives an *unbatched* volume commit: no batch id,
    // synthetic trace).
    let pid = m.driver;
    let h = m.kernel.pass_mkobj(pid, None).expect("mkobj on PA-NFS");
    for round in 0..TRACED_DISCLOSURES {
        let mut txn = dpapi::Txn::new();
        for i in 0..batch_ops - 1 {
            let mut bundle = dpapi::Bundle::new();
            bundle.push(
                h,
                dpapi::ProvenanceRecord::new(
                    dpapi::Attribute::Other(format!("TRACED_ROUND_{round}")),
                    dpapi::Value::Int(i as i64),
                ),
            );
            txn.disclose(h, bundle);
        }
        txn.sync(h);
        m.kernel.pass_commit(pid, txn).expect("disclosure commit");
    }
    let _ = m.kernel.pass_close(pid, h);

    // Server-side Waldo: drain the export's rotated logs and ingest
    // them on the same scope, linking each group frame's spans to the
    // disclosure trace that produced it.
    let waldo_pid = m.kernel.spawn_init("waldo");
    if let Some(p) = &m.pass {
        p.exempt(waldo_pid);
    }
    let mut w = waldo::Waldo::new(waldo_pid);
    w.set_scope(scope.clone());
    let images = m
        .server
        .as_ref()
        .expect("PA-NFS has a server")
        .borrow_mut()
        .drain_provenance_logs();
    for image in &images {
        w.ingest_log_image(&mut m.kernel, image);
    }

    let _ = w.query("select F from Provenance.obj as F where F.name like '*'");

    let trace = scope.snapshot();
    let batch_traces = trace.batch_traces();
    TracedRun {
        trace,
        batch_traces,
        segment_images: w.db.segment_images(),
        elapsed_ns: m.kernel.clock().now(),
        recorder: scope.recorder_stats(),
        slow: scope.slow_traces(),
    }
}

/// Percentage overhead of `new` over `base`.
pub fn overhead_pct(base: f64, new: f64) -> f64 {
    if base <= 0.0 {
        return 0.0;
    }
    (new - base) / base * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_configs_build_and_run_a_tiny_workload() {
        let wl = workloads::Postmark {
            files: 10,
            transactions: 10,
            subdirs: 2,
            min_size: 1024,
            max_size: 4096,
            seed: 1,
        };
        for cfg in [Config::Ext3, Config::PassV2, Config::Nfs, Config::PaNfs] {
            let m = measure(cfg, &wl);
            assert!(m.elapsed_s > 0.0, "{cfg:?} must advance the clock");
            assert!(m.data_bytes > 0);
            if cfg.is_pass() {
                assert!(m.db_bytes > 0, "{cfg:?} must produce provenance");
            } else {
                assert_eq!(m.db_bytes, 0);
            }
        }
    }

    #[test]
    fn pass_costs_more_than_ext3() {
        let wl = workloads::MercurialActivity {
            tree_files: 20,
            patches: 10,
            files_per_patch: 2,
            file_bytes: 2048,
            ..Default::default()
        };
        let base = measure(Config::Ext3, &wl);
        let pass = measure(Config::PassV2, &wl);
        assert!(
            pass.elapsed_s > base.elapsed_s,
            "provenance collection cannot be free: {} vs {}",
            pass.elapsed_s,
            base.elapsed_s
        );
    }

    #[test]
    fn overhead_pct_math() {
        assert!((overhead_pct(100.0, 115.0) - 15.0).abs() < 1e-9);
        assert_eq!(overhead_pct(0.0, 10.0), 0.0);
    }
}
