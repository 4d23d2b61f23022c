//! libpass: the user-level DPAPI library.
//!
//! Application developers make their applications provenance-aware by
//! linking against libpass and issuing DPAPI calls (paper §5.2). In
//! the simulation, a [`LibPass`] borrows the kernel on behalf of one
//! process and forwards each call to the observer's disclosed
//! provenance entry points.
//!
//! Since DPAPI v2 libpass is transaction-native: it implements
//! [`Dpapi::pass_commit`] as **one** `pass_commit` system call for the
//! whole batch, and the classic single-shot calls arrive through the
//! trait's one-op-transaction defaults — so an application that
//! batches its disclosures pays one syscall where it used to pay one
//! per call, with no change to applications that don't.

use dpapi::{Bundle, Dpapi, Handle, OpResult, ProvenanceRecord, ReadResult, Txn, WriteResult};
use sim_os::proc::Pid;
use sim_os::syscall::Kernel;

/// The user-level DPAPI endpoint for one process.
pub struct LibPass<'k> {
    kernel: &'k mut Kernel,
    pid: Pid,
}

impl<'k> LibPass<'k> {
    /// Binds libpass to `pid` within `kernel`.
    pub fn new(kernel: &'k mut Kernel, pid: Pid) -> Self {
        LibPass { kernel, pid }
    }

    /// The process this instance discloses on behalf of.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Access to the kernel for interleaved ordinary syscalls.
    pub fn kernel(&mut self) -> &mut Kernel {
        self.kernel
    }

    /// Convenience: disclose records about one object.
    pub fn disclose(
        &mut self,
        h: Handle,
        records: impl IntoIterator<Item = ProvenanceRecord>,
    ) -> dpapi::Result<WriteResult> {
        let mut bundle = Bundle::new();
        for r in records {
            bundle.push(h, r);
        }
        self.pass_write(h, 0, &[], bundle)
    }
}

impl Dpapi for LibPass<'_> {
    fn pass_read(&mut self, h: Handle, offset: u64, len: usize) -> dpapi::Result<ReadResult> {
        self.kernel
            .pass_read(self.pid, h, offset, len)
            .map_err(dpapi::DpapiError::from)
    }

    /// Zero-copy override of the one-op default for the §6.5
    /// "replace `write` with `pass_write`" application path: forwards
    /// the borrowed data slice straight to the `pass_write` syscall
    /// instead of cloning it into a one-op transaction.
    fn pass_write(
        &mut self,
        h: Handle,
        offset: u64,
        data: &[u8],
        bundle: dpapi::Bundle,
    ) -> dpapi::Result<WriteResult> {
        self.kernel
            .pass_write(self.pid, h, offset, data, bundle)
            .map_err(dpapi::DpapiError::from)
    }

    /// One system call for the whole transaction; the kernel module
    /// validates, analyzes and logs the batch as a unit.
    fn pass_commit(&mut self, txn: Txn) -> dpapi::Result<Vec<OpResult>> {
        self.kernel
            .pass_commit(self.pid, txn)
            .map_err(dpapi::DpapiError::from)
    }

    fn pass_close(&mut self, h: Handle) -> dpapi::Result<()> {
        self.kernel
            .pass_close(self.pid, h)
            .map_err(dpapi::DpapiError::from)
    }
}
