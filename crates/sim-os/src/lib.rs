//! A deterministic operating-system simulation.
//!
//! This crate is the substrate beneath the PASSv2 reproduction: a
//! kernel with processes, file descriptors, a VFS, pipes, `mmap` and a
//! virtual-time cost model for CPU, disk and network, plus the one LRU
//! map of the workspace ([`lru::LruMap`]). The provenance system
//! installs a [`events::PassModule`] to intercept the same system
//! calls the paper's interceptor handles, and provenance-aware file
//! systems implement [`fs::DpapiVolume`] so data and provenance travel
//! together through the DPAPI. There is no inotify: a volume's
//! rotation queue ([`fs::DpapiVolume::take_log_rotations`]) tells
//! Waldo which logs have closed.
//!
//! Nothing in this crate knows *how* provenance is collected; it only
//! provides the hook points and the timing substrate, mirroring the
//! paper's separation between the thin OS-specific interceptor and
//! the mostly OS-independent rest of the system.

pub mod clock;
pub mod cost;
pub mod disk;
pub mod events;
pub mod fs;
pub mod lru;
pub mod pipe;
pub mod proc;
pub mod syscall;

pub use clock::{Clock, Nanos, NANOS_PER_SEC};
pub use cost::{CostModel, BLOCK_SIZE};
pub use disk::{Disk, DiskStats};
pub use events::{ExecImage, HookCtx, ModuleRef, Mount, PassModule, ProvenanceKernel};
pub use fs::basefs::{BaseFs, BaseFsConfig};
pub use fs::{
    DirEntry, DpapiVolume, FileAttr, FileSystem, FileType, FsError, FsResult, FsUsage, Ino,
};
pub use proc::{Fd, FdTarget, FileLoc, MountId, OpenFile, Pid, PipeEnd};
pub use syscall::{Kernel, KernelStats, OpenFlags};
