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
}
