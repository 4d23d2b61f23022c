//! Kernel hook points for a provenance module.
//!
//! PASSv2's interceptor is "a thin operating system specific layer"
//! (paper §5.3); in this simulation it is the [`PassModule`] trait.
//! The kernel invokes the module at each system call it intercepts
//! (`execve`, `fork`, `exit`, `read`, `write`, `mmap`, `open`, `pipe`
//! and the kernel operation `drop_inode`), and
//! *delegates* the data path of reads and writes so the module can
//! route them through the DPAPI of the backing volume — keeping data
//! and provenance together.

use std::rc::Rc;

use dpapi::{ObjectRef, VolumeId};

use crate::clock::Clock;
use crate::fs::{DpapiVolume, FileSystem, FsResult};
use crate::pipe::PipeId;
use crate::proc::{FdTarget, FileLoc, MountId, Pid};

/// One mounted file system.
pub struct Mount {
    /// Absolute mount point path (normalized, no trailing slash
    /// except for root).
    pub path: String,
    /// The mounted file system.
    pub fs: Box<dyn FileSystem>,
}

/// The kernel state a hook may touch: the mount table and the clock.
///
/// Handing the module this restricted view (rather than `&mut Kernel`)
/// is what lets hooks issue DPAPI calls against volumes while the
/// kernel is mid-syscall.
pub struct HookCtx<'a> {
    /// All mounts, indexable by [`MountId`].
    pub mounts: &'a mut [Mount],
    /// The shared virtual clock.
    pub clock: &'a Clock,
}

impl<'a> HookCtx<'a> {
    /// The file system behind `m`.
    pub fn fs(&mut self, m: MountId) -> &mut dyn FileSystem {
        &mut *self.mounts[m.0].fs
    }

    /// The DPAPI surface of mount `m`, if it is provenance-aware.
    pub fn dpapi(&mut self, m: MountId) -> Option<&mut dyn DpapiVolume> {
        self.mounts[m.0].fs.as_dpapi()
    }

    /// The volume id of mount `m`, if provenance-aware.
    pub fn volume_of(&mut self, m: MountId) -> Option<VolumeId> {
        self.dpapi(m).map(|d| d.volume())
    }

    /// Finds the mounted volume with id `v`.
    pub fn find_volume(&mut self, v: VolumeId) -> Option<&mut dyn DpapiVolume> {
        for m in self.mounts.iter_mut() {
            if let Some(d) = m.fs.as_dpapi() {
                if d.volume() == v {
                    return m.fs.as_dpapi();
                }
            }
        }
        None
    }
}

/// Everything the module learns about an `execve`.
#[derive(Clone, Debug)]
pub struct ExecImage<'a> {
    /// Path of the executable.
    pub path: &'a str,
    /// Where the binary lives, if it was resolvable.
    pub loc: Option<FileLoc>,
    /// The binary's provenance identity, if it lives on a PASS volume.
    pub identity: Option<ObjectRef>,
    /// Arguments.
    pub argv: &'a [String],
    /// Environment.
    pub env: &'a [String],
}

/// The provenance module interface (the interceptor's upcalls).
///
/// All methods take `&self`; a module uses interior mutability for its
/// own state because the kernel holds it behind an `Rc` and invokes it
/// re-entrantly with a [`HookCtx`] borrowing kernel internals.
///
/// `handle_read`/`handle_write` *replace* the kernel's default data
/// path for regular files so the module can bundle provenance with
/// data through the DPAPI; the default implementations fall through to
/// the plain VFS operations.
pub trait PassModule {
    /// A new process appeared via `fork`.
    fn on_fork(&self, ctx: &mut HookCtx<'_>, parent: Pid, child: Pid) {
        let _ = (ctx, parent, child);
    }

    /// A process replaced its image via `execve`.
    fn on_execve(&self, ctx: &mut HookCtx<'_>, pid: Pid, image: &ExecImage<'_>) {
        let _ = (ctx, pid, image);
    }

    /// A process exited.
    fn on_exit(&self, ctx: &mut HookCtx<'_>, pid: Pid) {
        let _ = (ctx, pid);
    }

    /// A process opened (or created) a file.
    fn on_open(&self, ctx: &mut HookCtx<'_>, pid: Pid, loc: FileLoc, path: &str, created: bool) {
        let _ = (ctx, pid, loc, path, created);
    }

    /// A process closed a descriptor.
    fn on_close(&self, ctx: &mut HookCtx<'_>, pid: Pid, target: &FdTarget) {
        let _ = (ctx, pid, target);
    }

    /// The data path of a file read.
    fn handle_read(
        &self,
        ctx: &mut HookCtx<'_>,
        pid: Pid,
        loc: FileLoc,
        offset: u64,
        len: usize,
    ) -> FsResult<Vec<u8>> {
        let _ = pid;
        ctx.fs(loc.mount).read(loc.ino, offset, len)
    }

    /// The data path of a file write.
    fn handle_write(
        &self,
        ctx: &mut HookCtx<'_>,
        pid: Pid,
        loc: FileLoc,
        offset: u64,
        data: &[u8],
    ) -> FsResult<usize> {
        let _ = pid;
        ctx.fs(loc.mount).write(loc.ino, offset, data)
    }

    /// A process read from a pipe.
    fn on_pipe_read(&self, ctx: &mut HookCtx<'_>, pid: Pid, pipe: PipeId, len: usize) {
        let _ = (ctx, pid, pipe, len);
    }

    /// A process wrote to a pipe.
    fn on_pipe_write(&self, ctx: &mut HookCtx<'_>, pid: Pid, pipe: PipeId, len: usize) {
        let _ = (ctx, pid, pipe, len);
    }

    /// A process created a pipe.
    fn on_pipe_create(&self, ctx: &mut HookCtx<'_>, pid: Pid, pipe: PipeId) {
        let _ = (ctx, pid, pipe);
    }

    /// A process mapped a file. A writable shared mapping makes the
    /// file both an input and an output of the process.
    fn on_mmap(&self, ctx: &mut HookCtx<'_>, pid: Pid, loc: FileLoc, writable: bool) {
        let _ = (ctx, pid, loc, writable);
    }

    /// A file was renamed. Provenance follows the file (it is keyed
    /// by pnode, not by name), but modules may track naming.
    fn on_rename(&self, ctx: &mut HookCtx<'_>, pid: Pid, loc: FileLoc, from: &str, to: &str) {
        let _ = (ctx, pid, loc, from, to);
    }

    /// A name was unlinked.
    fn on_unlink(&self, ctx: &mut HookCtx<'_>, pid: Pid, loc: FileLoc, path: &str) {
        let _ = (ctx, pid, loc, path);
    }

    /// The kernel dropped the last reference to an inode.
    fn on_drop_inode(&self, ctx: &mut HookCtx<'_>, loc: FileLoc) {
        let _ = (ctx, loc);
    }
}

/// The disclosed-provenance entry points of a provenance module.
///
/// The observer "is also the entry point for provenance-aware
/// applications that use the DPAPI to explicitly disclose provenance"
/// (paper §5.3): libpass forwards each user-level DPAPI call to these
/// methods. Handles returned here live in a per-kernel namespace
/// managed by the module.
pub trait ProvenanceKernel: PassModule {
    /// `pass_mkobj` from user level: creates a provenance-only object.
    fn dp_mkobj(
        &self,
        ctx: &mut HookCtx<'_>,
        pid: Pid,
        volume: Option<VolumeId>,
    ) -> dpapi::Result<dpapi::Handle>;

    /// `pass_reviveobj` from user level.
    fn dp_reviveobj(
        &self,
        ctx: &mut HookCtx<'_>,
        pid: Pid,
        pnode: dpapi::Pnode,
        version: dpapi::Version,
    ) -> dpapi::Result<dpapi::Handle>;

    /// `pass_read` from user level against a module handle.
    fn dp_read(
        &self,
        ctx: &mut HookCtx<'_>,
        pid: Pid,
        h: dpapi::Handle,
        offset: u64,
        len: usize,
    ) -> dpapi::Result<dpapi::ReadResult>;

    /// `pass_write` from user level against a module handle.
    fn dp_write(
        &self,
        ctx: &mut HookCtx<'_>,
        pid: Pid,
        h: dpapi::Handle,
        offset: u64,
        data: &[u8],
        bundle: dpapi::Bundle,
    ) -> dpapi::Result<dpapi::WriteResult>;

    /// `pass_freeze` from user level.
    fn dp_freeze(
        &self,
        ctx: &mut HookCtx<'_>,
        pid: Pid,
        h: dpapi::Handle,
    ) -> dpapi::Result<dpapi::Version>;

    /// `pass_sync` from user level.
    fn dp_sync(&self, ctx: &mut HookCtx<'_>, pid: Pid, h: dpapi::Handle) -> dpapi::Result<()>;

    /// Closes a user-level handle.
    fn dp_close(&self, ctx: &mut HookCtx<'_>, pid: Pid, h: dpapi::Handle) -> dpapi::Result<()>;

    /// A user-level handle for an open file descriptor's file, so an
    /// application can pass-write to a file it already has open.
    fn dp_handle_for_file(
        &self,
        ctx: &mut HookCtx<'_>,
        pid: Pid,
        loc: FileLoc,
    ) -> dpapi::Result<dpapi::Handle>;

    /// `pass_commit` from user level: applies a whole disclosure
    /// transaction, returning per-op results (index-aligned with the
    /// transaction's ops).
    ///
    /// The default executes the ops sequentially through the single
    /// `dp_*` entry points, aborting on the first failure with
    /// [`dpapi::DpapiError::TxnAborted`] — correct but unbatched, and
    /// atomic only up to the failing op. Real modules override this to
    /// validate the batch up front, analyze it as a unit and emit one
    /// contiguous log group per target volume (see the `Pass` module
    /// in the `passv2` crate).
    fn dp_commit(
        &self,
        ctx: &mut HookCtx<'_>,
        pid: Pid,
        txn: dpapi::Txn,
    ) -> dpapi::Result<Vec<dpapi::OpResult>> {
        let ops = txn.into_ops();
        let mut out = Vec::with_capacity(ops.len());
        for (i, op) in ops.into_iter().enumerate() {
            let result = match op {
                dpapi::DpapiOp::Write {
                    handle,
                    offset,
                    data,
                    bundle,
                } => self
                    .dp_write(ctx, pid, handle, offset, &data, bundle)
                    .map(dpapi::OpResult::Written),
                dpapi::DpapiOp::Mkobj { volume_hint } => self
                    .dp_mkobj(ctx, pid, volume_hint)
                    .map(dpapi::OpResult::Made),
                dpapi::DpapiOp::Freeze { handle } => self
                    .dp_freeze(ctx, pid, handle)
                    .map(dpapi::OpResult::Frozen),
                dpapi::DpapiOp::Revive { pnode, version } => self
                    .dp_reviveobj(ctx, pid, pnode, version)
                    .map(dpapi::OpResult::Revived),
                dpapi::DpapiOp::Sync { handle } => self
                    .dp_sync(ctx, pid, handle)
                    .map(|()| dpapi::OpResult::Synced),
            };
            match result {
                Ok(r) => out.push(r),
                Err(e) => return Err(dpapi::DpapiError::aborted_at(i, e)),
            }
        }
        Ok(out)
    }
}

/// A shared handle to a provenance module.
pub type ModuleRef = Rc<dyn ProvenanceKernel>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::fs::basefs::BaseFs;

    struct NullModule;
    impl PassModule for NullModule {}

    #[test]
    fn default_module_passes_data_through() {
        let clock = Clock::new();
        let mut mounts = vec![Mount {
            path: "/".to_string(),
            fs: Box::new(BaseFs::new(clock.clone(), CostModel::default())),
        }];
        let root = mounts[0].fs.root();
        let ino = mounts[0].fs.create(root, "f").unwrap();
        let mut ctx = HookCtx {
            mounts: &mut mounts,
            clock: &clock,
        };
        let m = NullModule;
        let loc = FileLoc {
            mount: MountId(0),
            ino,
        };
        m.handle_write(&mut ctx, Pid(1), loc, 0, b"data").unwrap();
        assert_eq!(m.handle_read(&mut ctx, Pid(1), loc, 0, 4).unwrap(), b"data");
    }

    #[test]
    fn hookctx_reports_no_pass_volumes_for_basefs() {
        let clock = Clock::new();
        let mut mounts = vec![Mount {
            path: "/".to_string(),
            fs: Box::new(BaseFs::new(clock.clone(), CostModel::default())),
        }];
        let mut ctx = HookCtx {
            mounts: &mut mounts,
            clock: &clock,
        };
        assert!(ctx.dpapi(MountId(0)).is_none());
        assert!(ctx.volume_of(MountId(0)).is_none());
        assert!(ctx.find_volume(VolumeId(1)).is_none());
    }
}
