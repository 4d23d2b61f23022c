//! Fault injection: a file system that fails on demand.
//!
//! [`FaultFs`] forwards every call to the file system it wraps. The
//! [`Faults`] handle, kept by the test while the volume is mounted,
//! decides which calls fail instead:
//!
//! * [`Faults::fail_next`] fails the next *n* calls of one
//!   [`FaultOp`] kind, [`Faults::set_failing`] fails that kind while
//!   a flag is set — an I/O error the caller must survive;
//! * [`Faults::crash_after`] lets *k* more mutating calls through and
//!   then freezes the disk: every later call fails without reaching
//!   the wrapped file system, so what it holds is what a machine
//!   crash after op *k* leaves. [`Faults::heal`] is the restart: the
//!   next machine sees the disk exactly as the crash left it.
//!
//! This is the one fault mechanism of the stack. Daemons carry no
//! crash hooks of their own: anything on disk is adversarial, so
//! failures are injected in the layer that owns the I/O.

use std::cell::Cell;
use std::rc::Rc;

use crate::fs::{DirEntry, FileAttr, FileSystem, FsError, FsResult, FsUsage, Ino};

/// A kind of call [`Faults`] can make fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOp {
    /// [`FileSystem::read`].
    Read,
    /// [`FileSystem::write`].
    Write,
    /// [`FileSystem::create`].
    Create,
    /// [`FileSystem::unlink`].
    Unlink,
    /// [`FileSystem::fsync`].
    Fsync,
}

#[derive(Default)]
struct State {
    /// Per [`FaultOp`]: calls still to fail.
    fail_next: [Cell<u32>; 5],
    /// Per [`FaultOp`]: fail every call while set.
    failing: [Cell<bool>; 5],
    /// Mutating calls still let through before the crash; `None`
    /// when no crash is armed, `Some(0)` once the disk is frozen.
    crash_in: Cell<Option<u64>>,
    /// Mutating calls that reached the wrapped file system.
    mutations: Cell<u64>,
}

/// The shared control handle of a [`FaultFs`]. Clones control the
/// same volume.
#[derive(Clone, Default)]
pub struct Faults(Rc<State>);

impl Faults {
    /// Fails the next `n` calls of kind `op`.
    pub fn fail_next(&self, op: FaultOp, n: u32) {
        self.0.fail_next[op as usize].set(n);
    }

    /// Calls of kind `op` that [`Faults::fail_next`] armed and that
    /// have not been made yet — zero once the injected failures hit.
    pub fn pending(&self, op: FaultOp) -> u32 {
        self.0.fail_next[op as usize].get()
    }

    /// Fails every call of kind `op` while `on` holds.
    pub fn set_failing(&self, op: FaultOp, on: bool) {
        self.0.failing[op as usize].set(on);
    }

    /// Lets `k` more mutating calls (create, mkdir, unlink, rename,
    /// write, truncate, sync, fsync) reach the disk, then crashes:
    /// from there on every call fails until [`Faults::heal`].
    pub fn crash_after(&self, k: u64) {
        self.0.crash_in.set(Some(k));
    }

    /// True once an armed crash has frozen the disk.
    pub fn crashed(&self) -> bool {
        self.0.crash_in.get() == Some(0)
    }

    /// Clears every fault, a crash included: the restarted machine
    /// sees the disk as the crash left it.
    pub fn heal(&self) {
        let s = &*self.0;
        s.crash_in.set(None);
        for (next, failing) in s.fail_next.iter().zip(&s.failing) {
            next.set(0);
            failing.set(false);
        }
    }

    /// Mutating calls that have reached the wrapped file system.
    pub fn mutations(&self) -> u64 {
        self.0.mutations.get()
    }

    /// Admits one call to the wrapped file system, or fails it: the
    /// frozen disk first, then the failures armed for `op`. A
    /// mutating call that passes is counted, and brings an armed
    /// crash one call closer.
    fn admit(&self, op: Option<FaultOp>, mutating: bool) -> FsResult<()> {
        let s = &*self.0;
        if self.crashed() {
            return Err(FsError::Invalid(
                "injected crash: the disk is frozen".into(),
            ));
        }
        if let Some(op) = op {
            let next = &s.fail_next[op as usize];
            if next.get() > 0 || s.failing[op as usize].get() {
                next.set(next.get().saturating_sub(1));
                return Err(FsError::Invalid(format!("injected {op:?} failure")));
            }
        }
        if mutating {
            s.mutations.set(s.mutations.get() + 1);
            if let Some(k) = s.crash_in.get() {
                s.crash_in.set(Some(k - 1));
            }
        }
        Ok(())
    }
}

/// A forwarding file system whose calls fail as its [`Faults`] handle
/// says. Not provenance-aware: stack Lasagna over it to fault a PASS
/// volume's lower file system.
pub struct FaultFs {
    inner: Box<dyn FileSystem>,
    faults: Faults,
}

impl FaultFs {
    /// Wraps `inner`; returns the volume and its control handle.
    pub fn new(inner: Box<dyn FileSystem>) -> (FaultFs, Faults) {
        let faults = Faults::default();
        let fs = FaultFs {
            inner,
            faults: faults.clone(),
        };
        (fs, faults)
    }
}

impl FileSystem for FaultFs {
    fn root(&self) -> Ino {
        self.inner.root()
    }
    fn lookup(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        self.faults.admit(None, false)?;
        self.inner.lookup(dir, name)
    }
    fn create(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        self.faults.admit(Some(FaultOp::Create), true)?;
        self.inner.create(dir, name)
    }
    fn mkdir(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        self.faults.admit(None, true)?;
        self.inner.mkdir(dir, name)
    }
    fn unlink(&mut self, dir: Ino, name: &str) -> FsResult<()> {
        self.faults.admit(Some(FaultOp::Unlink), true)?;
        self.inner.unlink(dir, name)
    }
    fn rename(&mut self, from: Ino, name: &str, to: Ino, to_name: &str) -> FsResult<()> {
        self.faults.admit(None, true)?;
        self.inner.rename(from, name, to, to_name)
    }
    fn read(&mut self, ino: Ino, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        self.faults.admit(Some(FaultOp::Read), false)?;
        self.inner.read(ino, offset, len)
    }
    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.faults.admit(Some(FaultOp::Write), true)?;
        self.inner.write(ino, offset, data)
    }
    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        self.faults.admit(None, true)?;
        self.inner.truncate(ino, size)
    }
    fn getattr(&mut self, ino: Ino) -> FsResult<FileAttr> {
        self.faults.admit(None, false)?;
        self.inner.getattr(ino)
    }
    fn readdir(&mut self, dir: Ino) -> FsResult<Vec<DirEntry>> {
        self.faults.admit(None, false)?;
        self.inner.readdir(dir)
    }
    fn sync(&mut self) -> FsResult<()> {
        self.faults.admit(None, true)?;
        self.inner.sync()
    }
    fn fsync(&mut self, ino: Ino) -> FsResult<()> {
        self.faults.admit(Some(FaultOp::Fsync), true)?;
        self.inner.fsync(ino)
    }
    fn close_hint(&mut self, ino: Ino) -> FsResult<()> {
        self.faults.admit(None, false)?;
        self.inner.close_hint(ino)
    }
    fn usage(&self) -> FsUsage {
        self.inner.usage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::cost::CostModel;
    use crate::fs::basefs::BaseFs;

    #[test]
    fn a_crash_freezes_the_disk_after_k_mutations_until_healed() {
        let base = BaseFs::new(Clock::new(), CostModel::default());
        let (mut fs, faults) = FaultFs::new(Box::new(base));
        let root = fs.root();
        let ino = fs.create(root, "f").unwrap();
        assert_eq!(faults.mutations(), 1);
        faults.crash_after(2);
        fs.write(ino, 0, b"one").unwrap();
        assert_eq!(fs.read(ino, 0, 8).unwrap(), b"one", "reads do not count");
        fs.write(ino, 3, b"two").unwrap();
        assert!(faults.crashed());
        assert!(fs.write(ino, 6, b"three").is_err());
        assert!(fs.read(ino, 0, 8).is_err(), "a frozen disk answers nothing");
        assert!(fs.lookup(root, "f").is_err());
        assert_eq!(faults.mutations(), 3, "the refused write never reached it");
        faults.heal();
        assert_eq!(fs.read(ino, 0, 16).unwrap(), b"onetwo");
    }
}
