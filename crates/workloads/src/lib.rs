//! Synthetic workload generators for the paper's evaluation (§7).
//!
//! Five workloads, matching Table 2/3: a Linux-compile-like CPU
//! intensive build, Postmark (I/O intensive mail-server simulation),
//! a Mercurial patch-application activity (metadata intensive), Blast
//! (CPU-bound bioinformatics pipeline) and a PA-Kepler tabular job.
//! Each generator reproduces its workload's *operation mix* at a
//! reduced scale; Table 2/3 compare relative overheads, which the mix
//! — not the absolute size — determines.

pub mod blast;
pub mod linux_compile;
pub mod mercurial;
pub mod pa_kepler;
pub mod postmark;
pub mod self_ingest;

use sim_os::clock::Nanos;
use sim_os::fs::FsResult;
use sim_os::proc::Pid;
use sim_os::syscall::Kernel;

pub use blast::Blast;
pub use linux_compile::LinuxCompile;
pub use mercurial::MercurialActivity;
pub use pa_kepler::PaKepler;
pub use postmark::Postmark;
pub use self_ingest::SelfIngest;

/// A benchmark workload.
pub trait Workload {
    /// The display name used in the tables.
    fn name(&self) -> &'static str;

    /// Runs the workload under `base_dir` as children of `driver`.
    fn run(&self, kernel: &mut Kernel, driver: Pid, base_dir: &str) -> FsResult<()>;
}

/// Runs one base workload once per mount — the N-volume driver the
/// cluster fan-in tier (`waldo::cluster`) is benchmarked and tested
/// against. Each mount gets an independent run of `base` under its
/// own directory tree, so the per-volume provenance streams are
/// identical in shape and a cluster member's share of the work is
/// exactly its routed volumes' runs. The `base_dir` argument of
/// [`Workload::run`] is ignored; the mount list governs.
pub struct MultiVolume<W> {
    /// The workload to run on every volume.
    pub base: W,
    /// Mount points of the target volumes (e.g. `"/v1"`, `"/v2"`).
    pub mounts: Vec<String>,
}

impl<W: Workload> Workload for MultiVolume<W> {
    fn name(&self) -> &'static str {
        "MultiVolume"
    }

    fn run(&self, kernel: &mut Kernel, driver: Pid, _base_dir: &str) -> FsResult<()> {
        for mount in &self.mounts {
            self.base.run(kernel, driver, mount)?;
        }
        Ok(())
    }
}

/// The result of timing one workload run.
#[derive(Clone, Copy, Debug)]
pub struct RunReport {
    /// Virtual elapsed nanoseconds.
    pub elapsed_ns: Nanos,
}

/// Times one run of `w` on `kernel`.
pub fn timed_run(
    w: &dyn Workload,
    kernel: &mut Kernel,
    driver: Pid,
    base_dir: &str,
) -> FsResult<RunReport> {
    let clock = kernel.clock();
    let start = clock.now();
    w.run(kernel, driver, base_dir)?;
    kernel.sync_all()?;
    Ok(RunReport {
        elapsed_ns: clock.now() - start,
    })
}

/// Discloses a completed run as a `WORKLOAD` provenance object in
/// **one disclosure transaction**: the run's `TYPE`, `NAME` and
/// `ELAPSED_NS` records plus the durability sync commit atomically
/// through `pass_commit` — the DPAPI v2 pattern for applications that
/// want their run metadata in the provenance graph without paying one
/// syscall per record.
///
/// Returns the run object's identity. Errors if no provenance module
/// or PASS volume is available (use on provenance-aware systems).
pub fn disclose_run(
    kernel: &mut Kernel,
    pid: Pid,
    name: &str,
    report: &RunReport,
) -> dpapi::Result<dpapi::ObjectRef> {
    use dpapi::{Attribute, Bundle, ProvenanceRecord, Value};
    let h = kernel
        .pass_mkobj(pid, None)
        .map_err(dpapi::DpapiError::from)?;
    let mut bundle = Bundle::new();
    bundle.push(
        h,
        ProvenanceRecord::new(Attribute::Type, Value::str("WORKLOAD")),
    );
    bundle.push(h, ProvenanceRecord::new(Attribute::Name, Value::str(name)));
    bundle.push(
        h,
        ProvenanceRecord::new(
            Attribute::Other("ELAPSED_NS".into()),
            Value::Int(report.elapsed_ns as i64),
        ),
    );
    let mut txn = dpapi::Txn::new();
    txn.disclose(h, bundle).sync(h);
    kernel
        .pass_commit(pid, txn)
        .map_err(dpapi::DpapiError::from)?;
    let identity = kernel
        .pass_read(pid, h, 0, 0)
        .map_err(dpapi::DpapiError::from)?
        .identity;
    let _ = kernel.pass_close(pid, h);
    Ok(identity)
}

/// [`timed_run`] plus a [`disclose_run`] of the result on
/// provenance-aware systems; on baseline systems (no module, no PASS
/// volume) the disclosure is skipped silently.
pub fn timed_run_disclosed(
    w: &dyn Workload,
    kernel: &mut Kernel,
    driver: Pid,
    base_dir: &str,
) -> FsResult<RunReport> {
    let report = timed_run(w, kernel, driver, base_dir)?;
    let _ = disclose_run(kernel, driver, w.name(), &report);
    Ok(report)
}

/// Joins a base directory and a relative path.
pub(crate) fn join(base: &str, rel: &str) -> String {
    if base == "/" {
        format!("/{rel}")
    } else {
        format!("{base}/{rel}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_handles_root_and_nested() {
        assert_eq!(join("/", "a/b"), "/a/b");
        assert_eq!(join("/mnt/nfs", "a"), "/mnt/nfs/a");
    }

    #[test]
    fn disclosed_run_lands_in_the_database_as_one_txn() {
        let mut sys = passv2::System::single_volume();
        let driver = sys.spawn("sh");
        let wl = crate::postmark::Postmark {
            files: 4,
            transactions: 4,
            ..Default::default()
        };
        let before = sys.kernel.stats().dpapi_txns;
        let report = timed_run_disclosed(&wl, &mut sys.kernel, driver, "/").unwrap();
        assert!(report.elapsed_ns > 0);
        assert_eq!(
            sys.kernel.stats().dpapi_txns,
            before + 1,
            "the run summary is one disclosure transaction"
        );
        // The WORKLOAD object is queryable after ingest.
        let mut waldo = sys.spawn_waldo();
        for (_, logs) in sys.rotate_all_logs() {
            for log in logs {
                waldo.ingest_log_file(&mut sys.kernel, &log);
            }
        }
        let runs = waldo.db.find_by_type("WORKLOAD");
        assert_eq!(runs.len(), 1);
        let obj = waldo.db.object(runs[0]).unwrap();
        assert_eq!(
            obj.first_attr(&dpapi::Attribute::Name),
            Some(&dpapi::Value::str("Postmark"))
        );
    }

    #[test]
    fn baseline_systems_skip_disclosure_silently() {
        let mut sys = passv2::System::baseline();
        let driver = sys.spawn("sh");
        let wl = crate::postmark::Postmark {
            files: 2,
            transactions: 2,
            ..Default::default()
        };
        timed_run_disclosed(&wl, &mut sys.kernel, driver, "/").unwrap();
    }
}
