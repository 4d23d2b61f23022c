//! The virtual file system layer.
//!
//! Mounted file systems implement [`FileSystem`]; provenance-aware
//! file systems (Lasagna, the PA-NFS client) additionally implement
//! [`DpapiVolume`], which is how the kernel's PASS module reaches the
//! DPAPI of the volume backing a given file.

pub mod basefs;

use std::fmt;

use dpapi::{Bundle, Handle, ObjectRef, VolumeId, WriteResult};

/// An inode number within one file system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Ino(pub u64);

impl fmt::Display for Ino {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// File-system errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FsError {
    /// Path component not found.
    NotFound(String),
    /// A directory was required (or forbidden).
    NotADirectory(String),
    /// Name already exists.
    Exists(String),
    /// Directory not empty on remove.
    NotEmpty(String),
    /// Invalid argument (bad offset, bad name).
    Invalid(String),
    /// Provenance subsystem failure surfaced through the VFS.
    Provenance(dpapi::DpapiError),
    /// The file system is out of space.
    NoSpace,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "not found: {p}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::Exists(p) => write!(f, "already exists: {p}"),
            FsError::NotEmpty(p) => write!(f, "directory not empty: {p}"),
            FsError::Invalid(m) => write!(f, "invalid argument: {m}"),
            FsError::Provenance(e) => write!(f, "provenance error: {e}"),
            FsError::NoSpace => write!(f, "no space left on device"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<dpapi::DpapiError> for FsError {
    fn from(e: dpapi::DpapiError) -> Self {
        FsError::Provenance(e)
    }
}

impl From<FsError> for dpapi::DpapiError {
    /// The inverse of `From<DpapiError> for FsError`: a provenance
    /// error crossing back out of the VFS is returned **unchanged**
    /// (so structured errors like [`dpapi::DpapiError::TxnAborted`]
    /// survive the syscall boundary with their per-op index intact);
    /// genuine file-system failures surface as I/O errors.
    ///
    /// These two impls are the only conversions between the types —
    /// every layer routes through them instead of ad-hoc stringly
    /// mappings, which is what makes the round trip lossless for
    /// provenance errors.
    fn from(e: FsError) -> Self {
        match e {
            FsError::Provenance(d) => d,
            other => dpapi::DpapiError::Io(other.to_string()),
        }
    }
}

/// Result alias for VFS operations.
pub type FsResult<T> = Result<T, FsError>;

/// The type of an inode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
}

/// Stat information for an inode.
#[derive(Clone, Copy, Debug)]
pub struct FileAttr {
    /// The inode number.
    pub ino: Ino,
    /// Regular file or directory.
    pub ftype: FileType,
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Link count.
    pub nlink: u32,
}

/// One directory entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (no slashes).
    pub name: String,
    /// Inode the name resolves to.
    pub ino: Ino,
    /// Entry type.
    pub ftype: FileType,
}

/// Aggregate space usage, the basis of the Table 3 space-overhead
/// comparison.
#[derive(Clone, Copy, Debug, Default)]
pub struct FsUsage {
    /// Bytes of file data stored.
    pub data_bytes: u64,
    /// Bytes of metadata (directories, inode table approximation).
    pub meta_bytes: u64,
    /// Bytes of provenance log (zero for non-PASS volumes).
    pub provenance_bytes: u64,
}

/// A mounted file system.
///
/// All operations are inode-based; path walking lives in the kernel.
/// Costs (virtual time) are charged internally by each implementation
/// against the shared [`Clock`](crate::clock::Clock).
pub trait FileSystem {
    /// The root directory inode.
    fn root(&self) -> Ino;

    /// Resolves `name` inside directory `dir`.
    fn lookup(&mut self, dir: Ino, name: &str) -> FsResult<Ino>;

    /// Creates a regular file `name` in `dir`.
    fn create(&mut self, dir: Ino, name: &str) -> FsResult<Ino>;

    /// Creates a directory `name` in `dir`.
    fn mkdir(&mut self, dir: Ino, name: &str) -> FsResult<Ino>;

    /// Removes the file or empty directory `name` from `dir`.
    fn unlink(&mut self, dir: Ino, name: &str) -> FsResult<()>;

    /// Renames `name` in `from` to `to_name` in `to`, replacing any
    /// existing target file.
    fn rename(&mut self, from: Ino, name: &str, to: Ino, to_name: &str) -> FsResult<()>;

    /// Reads up to `len` bytes at `offset`.
    fn read(&mut self, ino: Ino, offset: u64, len: usize) -> FsResult<Vec<u8>>;

    /// Writes `data` at `offset`, extending the file if needed.
    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize>;

    /// Truncates the file to `size` bytes.
    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()>;

    /// Returns stat information.
    fn getattr(&mut self, ino: Ino) -> FsResult<FileAttr>;

    /// Lists a directory.
    fn readdir(&mut self, dir: Ino) -> FsResult<Vec<DirEntry>>;

    /// Flushes dirty state to the simulated disk.
    fn sync(&mut self) -> FsResult<()>;

    /// Flushes one file's dirty pages (and the journal). The default
    /// falls back to a full sync.
    fn fsync(&mut self, _ino: Ino) -> FsResult<()> {
        self.sync()
    }

    /// Notification that a descriptor for `ino` was closed after
    /// writing. Network file systems use this for close-to-open
    /// consistency (flush on close); local file systems ignore it.
    fn close_hint(&mut self, _ino: Ino) -> FsResult<()> {
        Ok(())
    }

    /// Space usage for Table 3 accounting.
    fn usage(&self) -> FsUsage;

    /// Access to the volume's DPAPI, if this file system is
    /// provenance-aware. The default is not provenance-aware.
    fn as_dpapi(&mut self) -> Option<&mut dyn DpapiVolume> {
        None
    }
}

/// The DPAPI surface of a provenance-aware volume.
///
/// This extends the six-call [`dpapi::Dpapi`] interface with the glue
/// the kernel needs: translating inodes to DPAPI handles and asking
/// for the identity of a file without reading it.
pub trait DpapiVolume: dpapi::Dpapi {
    /// The volume's identity, as used inside [`dpapi::Pnode`]s.
    fn volume(&self) -> VolumeId;

    /// Returns a DPAPI handle for an existing file inode.
    fn handle_for_ino(&mut self, ino: Ino) -> dpapi::Result<Handle>;

    /// Returns the current identity (pnode, version) of a file inode.
    fn identity_of_ino(&mut self, ino: Ino) -> dpapi::Result<ObjectRef>;

    /// Provenance-only disclosure against an open handle (sugar for
    /// `pass_write` with no data).
    fn disclose(&mut self, h: Handle, bundle: Bundle) -> dpapi::Result<WriteResult> {
        self.pass_write(h, 0, &[], bundle)
    }

    /// Drains the queue of provenance log files that have been closed
    /// (rotated) since the last call. Paths are relative to the
    /// volume's mount point. This is the simulation's stand-in for
    /// the `inotify` watch Waldo keeps on the log directory.
    fn take_log_rotations(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Forces the current provenance log to rotate so that a
    /// subsequent [`DpapiVolume::take_log_rotations`] reports it.
    /// Called at quiescent points (the "dormant log" timeout of the
    /// paper).
    fn force_log_rotation(&mut self) {}

    /// Attaches a tracing scope. Provenance-aware volumes record
    /// their commit spans in it (and bind the window to the batch
    /// ids they allocate); the default is to ignore tracing.
    fn set_scope(&mut self, _scope: provscope::Scope) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fs_error_display() {
        assert_eq!(
            FsError::NotFound("/a/b".into()).to_string(),
            "not found: /a/b"
        );
        assert_eq!(FsError::NoSpace.to_string(), "no space left on device");
        let e: FsError = dpapi::DpapiError::InvalidHandle.into();
        assert_eq!(e.to_string(), "provenance error: invalid object handle");
    }

    #[test]
    fn provenance_errors_roundtrip_the_syscall_boundary() {
        // DpapiError -> FsError -> DpapiError is the identity for
        // every provenance error — the property that lets per-op
        // transaction aborts cross the kernel unscathed.
        let cases = vec![
            dpapi::DpapiError::InvalidHandle,
            dpapi::DpapiError::NotPassVolume,
            dpapi::DpapiError::Malformed("oversize attribute".into()),
            dpapi::DpapiError::aborted_at(7, dpapi::DpapiError::InvalidHandle),
            dpapi::DpapiError::aborted_at(2, dpapi::DpapiError::Malformed("bad record".into())),
        ];
        for e in cases {
            let through: dpapi::DpapiError = FsError::from(e.clone()).into();
            assert_eq!(through, e);
        }
        // Genuine fs failures become I/O errors (no structure to keep).
        let io: dpapi::DpapiError = FsError::NoSpace.into();
        assert_eq!(io, dpapi::DpapiError::Io("no space left on device".into()));
    }

    #[test]
    fn ino_display() {
        assert_eq!(Ino(9).to_string(), "i9");
    }
}
