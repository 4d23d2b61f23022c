//! The kernel: mounts, processes, system calls and hook dispatch.
//!
//! The kernel intercepts exactly the calls PASSv2's interceptor
//! handles — `execve`, `fork`, `exit`, `read`, `write`, `mmap`,
//! `open`, `pipe` and the kernel operation `drop_inode` (the paper's
//! `readv` and `writev` are a `read` or `write` per vector here) — and
//! reports them to the installed provenance module (if any). Reads and
//! writes of regular files are *delegated* to the module so that data
//! and provenance flow together through the DPAPI of the backing
//! volume.

use dpapi::{Bundle, Handle, IdMap, IdSet, Pnode, ReadResult, Version, VolumeId, WriteResult};

use crate::clock::Clock;
use crate::cost::CostModel;
use crate::events::{ExecImage, HookCtx, ModuleRef, Mount};
use crate::fs::{DirEntry, DpapiVolume, FileAttr, FileSystem, FsError, FsResult, FsUsage, Ino};
use crate::inotify::{InotifyEvent, InotifyTable, WatchId};
use crate::pipe::PipeTable;
use crate::proc::{Fd, FdTarget, FileLoc, MountId, OpenFile, Pid, PipeEnd, Process, ProcessTable};

/// Flags for [`Kernel::open`].
#[derive(Clone, Copy, Debug, Default)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create the file if missing.
    pub create: bool,
    /// Truncate to zero length.
    pub truncate: bool,
    /// All writes append.
    pub append: bool,
}

impl OpenFlags {
    /// Read-only open.
    pub const RDONLY: OpenFlags = OpenFlags {
        read: true,
        write: false,
        create: false,
        truncate: false,
        append: false,
    };

    /// Write-only, create, truncate — the classic "output file" open.
    pub const WRONLY_CREATE: OpenFlags = OpenFlags {
        read: false,
        write: true,
        create: true,
        truncate: true,
        append: false,
    };

    /// Read-write, create.
    pub const RDWR_CREATE: OpenFlags = OpenFlags {
        read: true,
        write: true,
        create: true,
        truncate: false,
        append: false,
    };

    /// Write-only, create, append.
    pub const APPEND_CREATE: OpenFlags = OpenFlags {
        read: false,
        write: true,
        create: true,
        truncate: false,
        append: true,
    };
}

/// Counters for the kernel's activity.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Total system calls dispatched.
    pub syscalls: u64,
    /// Bytes moved through `read`.
    pub bytes_read: u64,
    /// Bytes moved through `write`.
    pub bytes_written: u64,
    /// Disclosure transactions committed via `pass_commit` (each one
    /// syscall regardless of size).
    pub dpapi_txns: u64,
    /// Operations carried by those transactions.
    pub dpapi_txn_ops: u64,
}

impl provscope::MetricSource for KernelStats {
    fn record(&self, out: &mut dyn FnMut(&str, u64)) {
        out("syscalls", self.syscalls);
        out("bytes_read", self.bytes_read);
        out("bytes_written", self.bytes_written);
        out("dpapi_txns", self.dpapi_txns);
        out("dpapi_txn_ops", self.dpapi_txn_ops);
    }
}

/// The simulated kernel.
pub struct Kernel {
    clock: Clock,
    model: CostModel,
    mounts: Vec<Mount>,
    procs: ProcessTable,
    pipes: PipeTable,
    module: Option<ModuleRef>,
    inotify: InotifyTable,
    // Keyed by (mount index, inode number): see `dpapi::IdHasher`.
    open_counts: IdMap<FileLoc, u32>,
    unlinked: IdSet<FileLoc>,
    stats: KernelStats,
    scope: provscope::Scope,
}

impl Kernel {
    /// Creates a kernel with no mounts and no provenance module.
    pub fn new(clock: Clock, model: CostModel) -> Kernel {
        Kernel {
            clock,
            model,
            mounts: Vec::new(),
            procs: ProcessTable::new(),
            pipes: PipeTable::new(),
            module: None,
            inotify: InotifyTable::new(),
            open_counts: IdMap::default(),
            unlinked: IdSet::default(),
            stats: KernelStats::default(),
            scope: provscope::Scope::default(),
        }
    }

    /// Attaches a tracing scope to the kernel and to every mounted
    /// provenance-aware volume (future mounts pick it up too). The
    /// default scope is disabled, so tracing costs nothing unless
    /// explicitly enabled.
    pub fn set_scope(&mut self, scope: provscope::Scope) {
        for m in &mut self.mounts {
            if let Some(d) = m.fs.as_dpapi() {
                d.set_scope(scope.clone());
            }
        }
        self.scope = scope;
    }

    /// The kernel's tracing scope (disabled by default).
    pub fn scope(&self) -> provscope::Scope {
        self.scope.clone()
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> Clock {
        self.clock.clone()
    }

    /// The cost model.
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// Kernel statistics so far.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Installs the provenance module (PASSv2).
    pub fn install_module(&mut self, module: ModuleRef) {
        self.module = Some(module);
    }

    /// Mounts `fs` at `path` (normalized absolute path). Returns the
    /// mount id.
    pub fn mount(&mut self, path: &str, fs: Box<dyn FileSystem>) -> MountId {
        let path = if path == "/" {
            "/".to_string()
        } else {
            path.trim_end_matches('/').to_string()
        };
        let mut fs = fs;
        if self.scope.is_enabled() {
            if let Some(d) = fs.as_dpapi() {
                d.set_scope(self.scope.clone());
            }
        }
        self.mounts.push(Mount { path, fs });
        MountId(self.mounts.len() - 1)
    }

    /// The DPAPI of the volume mounted at `m`, if provenance-aware.
    pub fn dpapi_at(&mut self, m: MountId) -> Option<&mut dyn DpapiVolume> {
        self.mounts[m.0].fs.as_dpapi()
    }

    /// Space usage of the mount at `m`.
    pub fn usage_at(&self, m: MountId) -> FsUsage {
        self.mounts[m.0].fs.usage()
    }

    fn charge_syscall(&mut self) {
        self.stats.syscalls += 1;
        self.clock.advance(self.model.cpu.syscall_ns);
    }

    /// Advances the clock by `units` abstract compute units, modelling
    /// application CPU time.
    pub fn compute(&mut self, units: u64) {
        self.clock.advance(units * self.model.cpu.compute_unit_ns);
    }

    // ---- path resolution -------------------------------------------------

    /// Finds the mount whose path is the longest prefix of `path` and
    /// returns the residual path relative to that mount's root (a
    /// slice of `path`).
    pub fn resolve_mount<'p>(&self, path: &'p str) -> FsResult<(MountId, &'p str)> {
        if !path.starts_with('/') {
            return Err(FsError::Invalid(format!("path not absolute: {path}")));
        }
        let mut best: Option<(usize, usize)> = None; // (mount idx, prefix len)
        for (i, m) in self.mounts.iter().enumerate() {
            let p = m.path.as_str();
            // A mount point matches whole components only.
            let matches = p == "/"
                || path
                    .strip_prefix(p)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'));
            if matches && best.is_none_or(|(_, l)| p.len() > l) {
                best = Some((i, p.len()));
            }
        }
        let (idx, plen) = best.ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let rest = if self.mounts[idx].path == "/" {
            &path[1..]
        } else {
            path[plen..].trim_start_matches('/')
        };
        Ok((MountId(idx), rest))
    }

    fn walk_dir(&mut self, m: MountId, rel: &str) -> FsResult<Ino> {
        let fs = &mut *self.mounts[m.0].fs;
        let mut dir = fs.root();
        if rel.is_empty() {
            return Ok(dir);
        }
        for comp in rel.split('/') {
            if comp.is_empty() {
                continue;
            }
            dir = fs.lookup(dir, comp)?;
        }
        Ok(dir)
    }

    /// Resolves `path` to its parent directory and final component (a
    /// slice of `path`).
    fn resolve_parent<'p>(&mut self, path: &'p str) -> FsResult<(MountId, Ino, &'p str)> {
        let (m, rest) = self.resolve_mount(path)?;
        if rest.is_empty() {
            return Err(FsError::Invalid(format!("no final component in {path}")));
        }
        let (dir_part, name) = rest.rsplit_once('/').unwrap_or(("", rest));
        let dir = self.walk_dir(m, dir_part)?;
        Ok((m, dir, name))
    }

    /// Resolves `path` to a file location.
    pub fn resolve_file(&mut self, path: &str) -> FsResult<FileLoc> {
        let (m, rest) = self.resolve_mount(path)?;
        let ino = self.walk_dir(m, rest)?;
        Ok(FileLoc { mount: m, ino })
    }

    // ---- module dispatch -------------------------------------------------

    fn with_module<R>(&mut self, f: impl FnOnce(&ModuleRef, &mut HookCtx<'_>) -> R) -> Option<R> {
        let m = self.module.clone()?;
        let mut ctx = HookCtx {
            mounts: &mut self.mounts,
            clock: &self.clock,
        };
        Some(f(&m, &mut ctx))
    }

    /// Does nothing: the module discloses every intercepted write
    /// synchronously, so nothing defers work a barrier would have to
    /// land. Kept only because the frozen `ledger/src/rig.rs` calls
    /// it; it goes with the next `[benchmark]` PR.
    pub fn barrier(&mut self) {}

    // ---- process lifecycle -----------------------------------------------

    /// Spawns the first process.
    pub fn spawn_init(&mut self, exe: &str) -> Pid {
        self.charge_syscall();
        self.procs.spawn_init(exe)
    }

    /// `fork(2)`.
    pub fn fork(&mut self, parent: Pid) -> FsResult<Pid> {
        self.charge_syscall();
        let child = self
            .procs
            .fork(parent)
            .ok_or_else(|| FsError::Invalid(format!("fork of dead {parent}")))?;
        // Duplicate pipe references and open counts.
        for f in self
            .procs
            .get(child)
            .into_iter()
            .flat_map(|p| p.fds.values())
        {
            match f.target {
                FdTarget::Pipe { id, end } => self.pipes.add_ref(id, end == PipeEnd::Write),
                FdTarget::File(loc) => *self.open_counts.entry(loc).or_insert(0) += 1,
            }
        }
        self.with_module(|m, ctx| m.on_fork(ctx, parent, child));
        Ok(child)
    }

    /// `execve(2)`.
    pub fn execve(
        &mut self,
        pid: Pid,
        path: &str,
        argv: &[String],
        env: &[String],
    ) -> FsResult<()> {
        self.charge_syscall();
        let loc = self.resolve_file(path).ok();
        // Loading the image costs a read of the binary (up to 256 KB).
        let mut identity = None;
        if let Some(loc) = loc {
            let size = self.mounts[loc.mount.0].fs.getattr(loc.ino)?.size;
            let len = size.min(256 * 1024) as usize;
            let _ = self.mounts[loc.mount.0].fs.read(loc.ino, 0, len)?;
            if let Some(d) = self.mounts[loc.mount.0].fs.as_dpapi() {
                identity = d.identity_of_ino(loc.ino).ok();
            }
        }
        {
            let p = self
                .procs
                .get_mut(pid)
                .ok_or_else(|| FsError::Invalid(format!("execve of dead {pid}")))?;
            p.exe = path.to_string();
            p.argv = argv.to_vec();
            p.env = env.to_vec();
        }
        self.with_module(|m, ctx| {
            m.on_execve(
                ctx,
                pid,
                &ExecImage {
                    path,
                    loc,
                    identity,
                    argv,
                    env,
                },
            )
        });
        Ok(())
    }

    /// `exit(2)`: closes all descriptors and retires the process.
    pub fn exit(&mut self, pid: Pid) {
        self.charge_syscall();
        // Lowest descriptor first, as a kernel walks its fd table: the
        // order decides the order of close-write events, close-to-open
        // flushes and `drop_inode` hooks, which must not depend on
        // where a hash table happened to put each descriptor.
        let mut open: Vec<Fd> = self
            .procs
            .get(pid)
            .map(|p| p.fds.keys().copied().collect())
            .unwrap_or_default();
        open.sort_unstable();
        for fd in open {
            let _ = self.close(pid, fd);
        }
        self.procs.exit(pid);
        self.with_module(|m, ctx| m.on_exit(ctx, pid));
    }

    // ---- descriptors -----------------------------------------------------

    /// `open(2)`.
    pub fn open(&mut self, pid: Pid, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        self.charge_syscall();
        let (m, dir, name) = self.resolve_parent(path)?;
        let fs = &mut *self.mounts[m.0].fs;
        let (ino, created) = match fs.lookup(dir, name) {
            Ok(ino) => {
                if flags.truncate {
                    fs.truncate(ino, 0)?;
                }
                (ino, false)
            }
            Err(FsError::NotFound(_)) if flags.create => (fs.create(dir, name)?, true),
            Err(e) => return Err(e),
        };
        let loc = FileLoc { mount: m, ino };
        let parent = FileLoc { mount: m, ino: dir };
        let offset = if flags.append {
            fs.getattr(ino)?.size
        } else {
            0
        };
        let open = OpenFile {
            target: FdTarget::File(loc),
            offset,
            append: flags.append,
            path: path.to_string(),
            parent: Some(parent),
            name: name.to_string(),
            wrote: false,
            readable: flags.read,
            writable: flags.write,
        };
        let fd = self
            .procs
            .get_mut(pid)
            .ok_or_else(|| FsError::Invalid(format!("open by dead {pid}")))?
            .alloc_fd(open);
        *self.open_counts.entry(loc).or_insert(0) += 1;
        if created {
            self.inotify.deliver_with(parent, || InotifyEvent::Created {
                name: name.to_string(),
                loc,
            });
        }
        self.with_module(|m, ctx| m.on_open(ctx, pid, loc, path, created));
        Ok(fd)
    }

    fn get_open(&self, pid: Pid, fd: Fd) -> FsResult<&OpenFile> {
        self.procs
            .get(pid)
            .and_then(|p| p.fds.get(&fd))
            .ok_or_else(|| FsError::Invalid(format!("bad fd {fd:?} for {pid}")))
    }

    /// `close(2)`.
    pub fn close(&mut self, pid: Pid, fd: Fd) -> FsResult<()> {
        self.charge_syscall();
        let open = {
            let p = self
                .procs
                .get_mut(pid)
                .ok_or_else(|| FsError::Invalid(format!("close by dead {pid}")))?;
            p.fds
                .remove(&fd)
                .ok_or_else(|| FsError::Invalid(format!("bad fd {fd:?}")))?
        };
        match open.target {
            FdTarget::Pipe { id, end } => {
                self.pipes.drop_ref(id, end == PipeEnd::Write);
            }
            FdTarget::File(loc) => {
                if open.wrote {
                    // Close-to-open consistency hook (NFS flush).
                    let _ = self.mounts[loc.mount.0].fs.close_hint(loc.ino);
                    if let Some(parent) = open.parent {
                        self.inotify
                            .deliver_with(parent, || InotifyEvent::CloseWrite {
                                name: open.name.clone(),
                                loc,
                            });
                    }
                }
                let count = self.open_counts.entry(loc).or_insert(1);
                *count = count.saturating_sub(1);
                if *count == 0 {
                    self.open_counts.remove(&loc);
                    if self.unlinked.remove(&loc) {
                        self.with_module(|m, ctx| m.on_drop_inode(ctx, loc));
                    }
                }
            }
        }
        self.with_module(|m, ctx| m.on_close(ctx, pid, &open.target));
        Ok(())
    }

    /// `read(2)`.
    pub fn read(&mut self, pid: Pid, fd: Fd, len: usize) -> FsResult<Vec<u8>> {
        self.charge_syscall();
        let open = self.get_open(pid, fd)?;
        if !open.readable {
            return Err(FsError::Invalid("fd not open for reading".into()));
        }
        let offset = open.offset;
        match open.target {
            FdTarget::File(loc) => {
                let data = match self.module.clone() {
                    Some(m) => {
                        let mut ctx = HookCtx {
                            mounts: &mut self.mounts,
                            clock: &self.clock,
                        };
                        m.handle_read(&mut ctx, pid, loc, offset, len)?
                    }
                    None => self.mounts[loc.mount.0].fs.read(loc.ino, offset, len)?,
                };
                if let Some(p) = self.procs.get_mut(pid) {
                    if let Some(o) = p.fds.get_mut(&fd) {
                        o.offset += data.len() as u64;
                    }
                }
                self.stats.bytes_read += data.len() as u64;
                Ok(data)
            }
            FdTarget::Pipe { id, .. } => {
                let data = self
                    .pipes
                    .read(id, len)
                    .ok_or_else(|| FsError::Invalid("pipe gone".into()))?;
                self.clock.advance(self.model.copy_cost(data.len()));
                self.stats.bytes_read += data.len() as u64;
                self.with_module(|m, ctx| m.on_pipe_read(ctx, pid, id, data.len()));
                Ok(data)
            }
        }
    }

    /// `write(2)`.
    pub fn write(&mut self, pid: Pid, fd: Fd, data: &[u8]) -> FsResult<usize> {
        self.charge_syscall();
        let open = self.get_open(pid, fd)?;
        if !open.writable {
            return Err(FsError::Invalid("fd not open for writing".into()));
        }
        let (append, offset) = (open.append, open.offset);
        match open.target {
            FdTarget::File(loc) => {
                let offset = if append {
                    self.mounts[loc.mount.0].fs.getattr(loc.ino)?.size
                } else {
                    offset
                };
                let n = match self.module.clone() {
                    Some(m) => {
                        let mut ctx = HookCtx {
                            mounts: &mut self.mounts,
                            clock: &self.clock,
                        };
                        m.handle_write(&mut ctx, pid, loc, offset, data)?
                    }
                    None => self.mounts[loc.mount.0].fs.write(loc.ino, offset, data)?,
                };
                if let Some(p) = self.procs.get_mut(pid) {
                    if let Some(o) = p.fds.get_mut(&fd) {
                        o.offset = offset + n as u64;
                        o.wrote = true;
                    }
                }
                self.stats.bytes_written += n as u64;
                Ok(n)
            }
            FdTarget::Pipe { id, .. } => {
                let n = self
                    .pipes
                    .write(id, data)
                    .ok_or_else(|| FsError::Invalid("EPIPE".into()))?;
                self.clock.advance(self.model.copy_cost(n));
                self.stats.bytes_written += n as u64;
                self.with_module(|m, ctx| m.on_pipe_write(ctx, pid, id, n));
                Ok(n)
            }
        }
    }

    /// `lseek(2)` (absolute positioning only).
    pub fn lseek(&mut self, pid: Pid, fd: Fd, pos: u64) -> FsResult<()> {
        self.charge_syscall();
        let p = self
            .procs
            .get_mut(pid)
            .ok_or_else(|| FsError::Invalid(format!("lseek by dead {pid}")))?;
        let o = p
            .fds
            .get_mut(&fd)
            .ok_or_else(|| FsError::Invalid(format!("bad fd {fd:?}")))?;
        o.offset = pos;
        Ok(())
    }

    /// `pipe(2)`: returns (read fd, write fd).
    pub fn pipe(&mut self, pid: Pid) -> FsResult<(Fd, Fd)> {
        self.charge_syscall();
        let id = self.pipes.create();
        let p = self
            .procs
            .get_mut(pid)
            .ok_or_else(|| FsError::Invalid(format!("pipe by dead {pid}")))?;
        let rfd = p.alloc_fd(OpenFile::for_pipe(id, PipeEnd::Read));
        let wfd = p.alloc_fd(OpenFile::for_pipe(id, PipeEnd::Write));
        self.with_module(|m, ctx| m.on_pipe_create(ctx, pid, id));
        Ok((rfd, wfd))
    }

    /// `mmap(2)` (provenance-relevant aspects only).
    pub fn mmap(&mut self, pid: Pid, fd: Fd, writable: bool) -> FsResult<()> {
        self.charge_syscall();
        match self.get_open(pid, fd)?.target {
            FdTarget::File(loc) => {
                self.with_module(|m, ctx| m.on_mmap(ctx, pid, loc, writable));
                Ok(())
            }
            FdTarget::Pipe { .. } => Err(FsError::Invalid("mmap of a pipe".into())),
        }
    }

    // ---- namespace operations ---------------------------------------------

    /// `mkdir(2)`.
    pub fn mkdir(&mut self, pid: Pid, path: &str) -> FsResult<Ino> {
        self.charge_syscall();
        let _ = pid;
        let (m, dir, name) = self.resolve_parent(path)?;
        self.mounts[m.0].fs.mkdir(dir, name)
    }

    /// Creates every missing directory along `path`.
    pub fn mkdir_p(&mut self, pid: Pid, path: &str) -> FsResult<()> {
        let (m, rest) = self.resolve_mount(path)?;
        let mut cur = String::from(&self.mounts[m.0].path);
        for comp in rest.split('/').filter(|c| !c.is_empty()) {
            if !cur.ends_with('/') {
                cur.push('/');
            }
            cur.push_str(comp);
            match self.mkdir(pid, &cur) {
                Ok(_) | Err(FsError::Exists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// `unlink(2)`.
    pub fn unlink(&mut self, pid: Pid, path: &str) -> FsResult<()> {
        self.charge_syscall();
        let (m, dir, name) = self.resolve_parent(path)?;
        let ino = self.mounts[m.0].fs.lookup(dir, name)?;
        let loc = FileLoc { mount: m, ino };
        self.mounts[m.0].fs.unlink(dir, name)?;
        self.inotify
            .deliver_with(FileLoc { mount: m, ino: dir }, || InotifyEvent::Removed {
                name: name.to_string(),
            });
        self.with_module(|mo, ctx| mo.on_unlink(ctx, pid, loc, path));
        if self.open_counts.get(&loc).copied().unwrap_or(0) == 0 {
            self.with_module(|mo, ctx| mo.on_drop_inode(ctx, loc));
        } else {
            self.unlinked.insert(loc);
        }
        Ok(())
    }

    /// `rename(2)`.
    pub fn rename(&mut self, pid: Pid, from: &str, to: &str) -> FsResult<()> {
        self.charge_syscall();
        let (m1, d1, n1) = self.resolve_parent(from)?;
        let (m2, d2, n2) = self.resolve_parent(to)?;
        if m1 != m2 {
            return Err(FsError::Invalid("cross-mount rename".into()));
        }
        let ino = self.mounts[m1.0].fs.lookup(d1, n1)?;
        let loc = FileLoc { mount: m1, ino };
        self.mounts[m1.0].fs.rename(d1, n1, d2, n2)?;
        self.inotify
            .deliver_with(FileLoc { mount: m1, ino: d1 }, || InotifyEvent::Removed {
                name: n1.to_string(),
            });
        self.inotify
            .deliver_with(FileLoc { mount: m2, ino: d2 }, || InotifyEvent::Created {
                name: n2.to_string(),
                loc,
            });
        self.with_module(|mo, ctx| mo.on_rename(ctx, pid, loc, from, to));
        Ok(())
    }

    /// `stat(2)`.
    pub fn stat(&mut self, pid: Pid, path: &str) -> FsResult<FileAttr> {
        self.charge_syscall();
        let _ = pid;
        let loc = self.resolve_file(path)?;
        self.mounts[loc.mount.0].fs.getattr(loc.ino)
    }

    /// `fsync(2)`.
    pub fn fsync(&mut self, pid: Pid, fd: Fd) -> FsResult<()> {
        self.charge_syscall();
        match self.get_open(pid, fd)?.target {
            FdTarget::File(loc) => self.mounts[loc.mount.0].fs.fsync(loc.ino),
            FdTarget::Pipe { .. } => Ok(()),
        }
    }

    /// Lists a directory by path.
    pub fn readdir(&mut self, pid: Pid, path: &str) -> FsResult<Vec<DirEntry>> {
        self.charge_syscall();
        let _ = pid;
        let loc = self.resolve_file(path)?;
        self.mounts[loc.mount.0].fs.readdir(loc.ino)
    }

    /// Flushes every mount.
    pub fn sync_all(&mut self) -> FsResult<()> {
        for m in &mut self.mounts {
            m.fs.sync()?;
        }
        Ok(())
    }

    // ---- inotify -----------------------------------------------------------

    /// Watches the directory at `path`.
    pub fn inotify_watch(&mut self, path: &str) -> FsResult<WatchId> {
        let loc = self.resolve_file(path)?;
        Ok(self.inotify.add_watch(loc))
    }

    /// Drains pending events for `watch`.
    pub fn inotify_poll(&mut self, watch: WatchId) -> Vec<InotifyEvent> {
        self.inotify.poll(watch)
    }

    // ---- user-level DPAPI (libpass backend) --------------------------------

    fn module_ref(&self) -> FsResult<ModuleRef> {
        self.module
            .clone()
            .ok_or_else(|| FsError::Invalid("no provenance module installed".into()))
    }

    /// User-level `pass_mkobj`.
    pub fn pass_mkobj(&mut self, pid: Pid, volume: Option<VolumeId>) -> FsResult<Handle> {
        self.charge_syscall();
        let m = self.module_ref()?;
        let mut ctx = HookCtx {
            mounts: &mut self.mounts,
            clock: &self.clock,
        };
        Ok(m.dp_mkobj(&mut ctx, pid, volume)?)
    }

    /// User-level `pass_reviveobj`.
    pub fn pass_reviveobj(&mut self, pid: Pid, pnode: Pnode, version: Version) -> FsResult<Handle> {
        self.charge_syscall();
        let m = self.module_ref()?;
        let mut ctx = HookCtx {
            mounts: &mut self.mounts,
            clock: &self.clock,
        };
        Ok(m.dp_reviveobj(&mut ctx, pid, pnode, version)?)
    }

    /// User-level `pass_read` on a module handle.
    pub fn pass_read(
        &mut self,
        pid: Pid,
        h: Handle,
        offset: u64,
        len: usize,
    ) -> FsResult<ReadResult> {
        self.charge_syscall();
        let m = self.module_ref()?;
        let mut ctx = HookCtx {
            mounts: &mut self.mounts,
            clock: &self.clock,
        };
        Ok(m.dp_read(&mut ctx, pid, h, offset, len)?)
    }

    /// User-level `pass_write` on a module handle.
    pub fn pass_write(
        &mut self,
        pid: Pid,
        h: Handle,
        offset: u64,
        data: &[u8],
        bundle: Bundle,
    ) -> FsResult<WriteResult> {
        self.charge_syscall();
        let m = self.module_ref()?;
        let mut ctx = HookCtx {
            mounts: &mut self.mounts,
            clock: &self.clock,
        };
        Ok(m.dp_write(&mut ctx, pid, h, offset, data, bundle)?)
    }

    /// User-level `pass_freeze`.
    pub fn pass_freeze(&mut self, pid: Pid, h: Handle) -> FsResult<Version> {
        self.charge_syscall();
        let m = self.module_ref()?;
        let mut ctx = HookCtx {
            mounts: &mut self.mounts,
            clock: &self.clock,
        };
        Ok(m.dp_freeze(&mut ctx, pid, h)?)
    }

    /// User-level `pass_sync`.
    pub fn pass_sync(&mut self, pid: Pid, h: Handle) -> FsResult<()> {
        self.charge_syscall();
        let m = self.module_ref()?;
        let mut ctx = HookCtx {
            mounts: &mut self.mounts,
            clock: &self.clock,
        };
        Ok(m.dp_sync(&mut ctx, pid, h)?)
    }

    /// User-level `pass_commit`: applies a whole disclosure
    /// transaction in **one** system call.
    ///
    /// This is where the batch API's cost model lives: a transaction
    /// of N ops is charged one `syscall_ns` entry/exit plus N times
    /// the (much smaller) per-op dispatch cost, instead of the N full
    /// syscalls the single-shot calls would pay. Per-op failures abort
    /// the whole batch and surface as
    /// [`dpapi::DpapiError::TxnAborted`] (wrapped in
    /// [`FsError::Provenance`]), naming the failing op's index.
    pub fn pass_commit(&mut self, pid: Pid, txn: dpapi::Txn) -> FsResult<Vec<dpapi::OpResult>> {
        let span = self.scope.open("kernel", "pass_commit");
        self.charge_syscall();
        let ops = txn.len() as u64;
        self.clock.advance(ops * self.model.cpu.dpapi_op_ns);
        self.stats.dpapi_txns += 1;
        self.stats.dpapi_txn_ops += ops;
        let m = match self.module_ref() {
            Ok(m) => m,
            Err(e) => {
                self.scope.close(span);
                return Err(e);
            }
        };
        let result = {
            let mut ctx = HookCtx {
                mounts: &mut self.mounts,
                clock: &self.clock,
            };
            m.dp_commit(&mut ctx, pid, txn)
        };
        self.scope.close(span);
        Ok(result?)
    }

    /// Closes a user-level DPAPI handle.
    pub fn pass_close(&mut self, pid: Pid, h: Handle) -> FsResult<()> {
        self.charge_syscall();
        let m = self.module_ref()?;
        let mut ctx = HookCtx {
            mounts: &mut self.mounts,
            clock: &self.clock,
        };
        Ok(m.dp_close(&mut ctx, pid, h)?)
    }

    /// A user-level DPAPI handle for an open file descriptor.
    pub fn pass_handle_for_fd(&mut self, pid: Pid, fd: Fd) -> FsResult<Handle> {
        self.charge_syscall();
        let loc = match self.get_open(pid, fd)?.target {
            FdTarget::File(loc) => loc,
            FdTarget::Pipe { .. } => {
                return Err(FsError::Invalid("no DPAPI handle for pipes".into()));
            }
        };
        let m = self.module_ref()?;
        let mut ctx = HookCtx {
            mounts: &mut self.mounts,
            clock: &self.clock,
        };
        Ok(m.dp_handle_for_file(&mut ctx, pid, loc)?)
    }

    /// Reads a whole file by path (convenience for tools/workloads).
    pub fn read_file(&mut self, pid: Pid, path: &str) -> FsResult<Vec<u8>> {
        let fd = self.open(pid, path, OpenFlags::RDONLY)?;
        let size = self.stat(pid, path)?.size as usize;
        let data = self.read(pid, fd, size)?;
        self.close(pid, fd)?;
        Ok(data)
    }

    /// Writes a whole file by path (convenience for tools/workloads).
    pub fn write_file(&mut self, pid: Pid, path: &str, data: &[u8]) -> FsResult<()> {
        let fd = self.open(pid, path, OpenFlags::WRONLY_CREATE)?;
        self.write(pid, fd, data)?;
        self.close(pid, fd)?;
        Ok(())
    }

    /// A snapshot view of a process, for tests.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::basefs::BaseFs;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn kernel() -> (Kernel, Pid) {
        let clock = Clock::new();
        let mut k = Kernel::new(clock.clone(), CostModel::default());
        let fs = BaseFs::new(clock, CostModel::default());
        k.mount("/", Box::new(fs));
        let pid = k.spawn_init("/bin/sh");
        (k, pid)
    }

    #[test]
    fn open_write_read_via_syscalls() {
        let (mut k, pid) = kernel();
        let fd = k.open(pid, "/hello.txt", OpenFlags::WRONLY_CREATE).unwrap();
        assert_eq!(k.write(pid, fd, b"hi there").unwrap(), 8);
        k.close(pid, fd).unwrap();
        let fd = k.open(pid, "/hello.txt", OpenFlags::RDONLY).unwrap();
        assert_eq!(k.read(pid, fd, 2).unwrap(), b"hi");
        assert_eq!(k.read(pid, fd, 100).unwrap(), b" there");
        k.close(pid, fd).unwrap();
    }

    #[test]
    fn offsets_advance_and_lseek_works() {
        let (mut k, pid) = kernel();
        k.write_file(pid, "/f", b"0123456789").unwrap();
        let fd = k.open(pid, "/f", OpenFlags::RDONLY).unwrap();
        assert_eq!(k.read(pid, fd, 3).unwrap(), b"012");
        k.lseek(pid, fd, 8).unwrap();
        assert_eq!(k.read(pid, fd, 10).unwrap(), b"89");
        k.close(pid, fd).unwrap();
    }

    #[test]
    fn append_mode_appends() {
        let (mut k, pid) = kernel();
        k.write_file(pid, "/log", b"one\n").unwrap();
        let fd = k.open(pid, "/log", OpenFlags::APPEND_CREATE).unwrap();
        k.write(pid, fd, b"two\n").unwrap();
        k.close(pid, fd).unwrap();
        assert_eq!(k.read_file(pid, "/log").unwrap(), b"one\ntwo\n");
    }

    #[test]
    fn mkdir_p_and_nested_paths() {
        let (mut k, pid) = kernel();
        k.mkdir_p(pid, "/a/b/c").unwrap();
        k.write_file(pid, "/a/b/c/file", b"x").unwrap();
        assert_eq!(k.read_file(pid, "/a/b/c/file").unwrap(), b"x");
        let entries = k.readdir(pid, "/a/b").unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "c");
    }

    #[test]
    fn pipes_between_parent_and_child() {
        let (mut k, pid) = kernel();
        let (rfd, wfd) = k.pipe(pid).unwrap();
        let child = k.fork(pid).unwrap();
        // Parent writes, child reads.
        k.write(pid, wfd, b"through the pipe").unwrap();
        let got = k.read(child, rfd, 100).unwrap();
        assert_eq!(got, b"through the pipe");
        k.exit(child);
        k.exit(pid);
    }

    #[test]
    fn rename_and_unlink() {
        let (mut k, pid) = kernel();
        k.write_file(pid, "/a", b"data").unwrap();
        k.rename(pid, "/a", "/b").unwrap();
        assert!(k.read_file(pid, "/a").is_err());
        assert_eq!(k.read_file(pid, "/b").unwrap(), b"data");
        k.unlink(pid, "/b").unwrap();
        assert!(k.read_file(pid, "/b").is_err());
    }

    #[test]
    fn multiple_mounts_resolve_by_longest_prefix() {
        let clock = Clock::new();
        let mut k = Kernel::new(clock.clone(), CostModel::default());
        k.mount(
            "/",
            Box::new(BaseFs::new(clock.clone(), CostModel::default())),
        );
        k.mount(
            "/mnt/remote",
            Box::new(BaseFs::new(clock.clone(), CostModel::default())),
        );
        let pid = k.spawn_init("sh");
        k.mkdir_p(pid, "/mnt").unwrap(); // directory on the root mount
        k.write_file(pid, "/mnt/remote/r.txt", b"remote").unwrap();
        k.write_file(pid, "/local.txt", b"local").unwrap();
        let (m, rest) = k.resolve_mount("/mnt/remote/r.txt").unwrap();
        assert_eq!(m, MountId(1));
        assert_eq!(rest, "r.txt");
        assert_eq!(k.read_file(pid, "/mnt/remote/r.txt").unwrap(), b"remote");
        // The remote file does not appear on the root mount.
        assert!(k.resolve_file("/mnt/r.txt").is_err());
    }

    #[test]
    fn inotify_sees_create_closewrite_remove() {
        let (mut k, pid) = kernel();
        k.mkdir_p(pid, "/watched").unwrap();
        let w = k.inotify_watch("/watched").unwrap();
        let fd = k.open(pid, "/watched/f", OpenFlags::WRONLY_CREATE).unwrap();
        k.write(pid, fd, b"x").unwrap();
        k.close(pid, fd).unwrap();
        k.unlink(pid, "/watched/f").unwrap();
        let evs = k.inotify_poll(w);
        assert_eq!(evs.len(), 3);
        assert!(matches!(evs[0], InotifyEvent::Created { .. }));
        assert!(matches!(evs[1], InotifyEvent::CloseWrite { .. }));
        assert!(matches!(evs[2], InotifyEvent::Removed { .. }));
    }

    #[test]
    fn exit_closes_descriptors_and_pipe_refs() {
        let (mut k, pid) = kernel();
        let (rfd, _wfd) = k.pipe(pid).unwrap();
        let child = k.fork(pid).unwrap();
        k.exit(pid); // parent's write end closed
                     // Child still holds both ends; write end alive.
        let _ = rfd;
        k.exit(child);
        assert_eq!(k.procs.live_count(), 0);
    }

    /// A process exiting with written files open closes them lowest
    /// descriptor first, so close-write events (and the close-to-open
    /// flushes and `drop_inode` hooks issued beside them) come in one
    /// order, not in whatever order a hash table iterates.
    #[test]
    fn exit_closes_descriptors_in_ascending_fd_order() {
        let (mut k, pid) = kernel();
        k.mkdir_p(pid, "/w").unwrap();
        let watch = k.inotify_watch("/w").unwrap();
        let child = k.fork(pid).unwrap();
        let names: Vec<String> = (0..8).map(|i| format!("f{i}")).collect();
        for name in &names {
            let fd = k
                .open(child, &format!("/w/{name}"), OpenFlags::WRONLY_CREATE)
                .unwrap();
            k.write(child, fd, b"x").unwrap();
        }
        assert_eq!(k.inotify_poll(watch).len(), 8, "eight files created");
        k.exit(child);
        let closed: Vec<String> = k
            .inotify_poll(watch)
            .into_iter()
            .map(|e| match e {
                InotifyEvent::CloseWrite { name, .. } => name,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(closed, names, "descriptors were opened in this order");
    }

    #[test]
    fn read_write_permissions_enforced() {
        let (mut k, pid) = kernel();
        k.write_file(pid, "/f", b"x").unwrap();
        let fd = k.open(pid, "/f", OpenFlags::RDONLY).unwrap();
        assert!(k.write(pid, fd, b"y").is_err());
        k.close(pid, fd).unwrap();
        let fd = k.open(pid, "/f", OpenFlags::WRONLY_CREATE).unwrap();
        assert!(k.read(pid, fd, 1).is_err());
        k.close(pid, fd).unwrap();
    }

    /// A module that records which hooks fired.
    #[derive(Default)]
    struct SpyModule {
        log: RefCell<Vec<String>>,
    }

    impl crate::events::PassModule for SpyModule {
        fn on_fork(&self, _ctx: &mut HookCtx<'_>, parent: Pid, child: Pid) {
            self.log
                .borrow_mut()
                .push(format!("fork {parent}->{child}"));
        }
        fn on_execve(&self, _ctx: &mut HookCtx<'_>, pid: Pid, image: &ExecImage<'_>) {
            self.log
                .borrow_mut()
                .push(format!("exec {pid} {}", image.path));
        }
        fn on_open(
            &self,
            _ctx: &mut HookCtx<'_>,
            _pid: Pid,
            _loc: FileLoc,
            path: &str,
            created: bool,
        ) {
            self.log.borrow_mut().push(format!("open {path} {created}"));
        }
        fn on_exit(&self, _ctx: &mut HookCtx<'_>, pid: Pid) {
            self.log.borrow_mut().push(format!("exit {pid}"));
        }
        fn on_drop_inode(&self, _ctx: &mut HookCtx<'_>, _loc: FileLoc) {
            self.log.borrow_mut().push("drop_inode".into());
        }
    }

    impl crate::events::ProvenanceKernel for SpyModule {
        fn dp_mkobj(
            &self,
            _ctx: &mut HookCtx<'_>,
            _pid: Pid,
            _volume: Option<VolumeId>,
        ) -> dpapi::Result<Handle> {
            Ok(Handle::from_raw(1))
        }
        fn dp_reviveobj(
            &self,
            _ctx: &mut HookCtx<'_>,
            _pid: Pid,
            _pnode: Pnode,
            _version: Version,
        ) -> dpapi::Result<Handle> {
            Err(dpapi::DpapiError::Unsupported("spy"))
        }
        fn dp_read(
            &self,
            _ctx: &mut HookCtx<'_>,
            _pid: Pid,
            _h: Handle,
            _offset: u64,
            _len: usize,
        ) -> dpapi::Result<ReadResult> {
            Err(dpapi::DpapiError::Unsupported("spy"))
        }
        fn dp_write(
            &self,
            _ctx: &mut HookCtx<'_>,
            _pid: Pid,
            _h: Handle,
            _offset: u64,
            _data: &[u8],
            _bundle: Bundle,
        ) -> dpapi::Result<WriteResult> {
            Err(dpapi::DpapiError::Unsupported("spy"))
        }
        fn dp_freeze(
            &self,
            _ctx: &mut HookCtx<'_>,
            _pid: Pid,
            _h: Handle,
        ) -> dpapi::Result<Version> {
            Err(dpapi::DpapiError::Unsupported("spy"))
        }
        fn dp_sync(&self, _ctx: &mut HookCtx<'_>, _pid: Pid, _h: Handle) -> dpapi::Result<()> {
            Ok(())
        }
        fn dp_close(&self, _ctx: &mut HookCtx<'_>, _pid: Pid, _h: Handle) -> dpapi::Result<()> {
            Ok(())
        }
        fn dp_handle_for_file(
            &self,
            _ctx: &mut HookCtx<'_>,
            _pid: Pid,
            _loc: FileLoc,
        ) -> dpapi::Result<Handle> {
            Ok(Handle::from_raw(2))
        }
    }

    #[test]
    fn module_hooks_fire_in_order() {
        let (mut k, pid) = kernel();
        let spy = Rc::new(SpyModule::default());
        k.install_module(spy.clone());
        k.write_file(pid, "/bin-ls", b"ELF").unwrap();
        let child = k.fork(pid).unwrap();
        k.execve(child, "/bin-ls", &["ls".into()], &[]).unwrap();
        k.write_file(child, "/out", b"o").unwrap();
        k.unlink(child, "/out").unwrap();
        k.exit(child);
        let log = spy.log.borrow().clone();
        assert!(log.iter().any(|l| l.starts_with("fork pid1->pid2")));
        assert!(log.iter().any(|l| l.starts_with("exec pid2 /bin-ls")));
        assert!(log.iter().any(|l| l == "open /out true"));
        assert!(log.iter().any(|l| l == "drop_inode"));
        assert!(log.iter().any(|l| l == "exit pid2"));
    }

    #[test]
    fn pass_calls_require_module() {
        let (mut k, pid) = kernel();
        assert!(k.pass_mkobj(pid, None).is_err());
        let spy = Rc::new(SpyModule::default());
        k.install_module(spy);
        assert_eq!(k.pass_mkobj(pid, None).unwrap(), Handle::from_raw(1));
    }

    #[test]
    fn pass_commit_charges_one_syscall_per_batch() {
        let (mut k, pid) = kernel();
        let spy = Rc::new(SpyModule::default());
        k.install_module(spy);
        let before = k.stats().syscalls;
        let mut txn = dpapi::Txn::new();
        txn.mkobj(None)
            .sync(Handle::from_raw(1))
            .sync(Handle::from_raw(1));
        let results = k.pass_commit(pid, txn).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0], dpapi::OpResult::Made(Handle::from_raw(1)));
        let s = k.stats();
        assert_eq!(s.syscalls, before + 1, "a batch is one syscall");
        assert_eq!(s.dpapi_txns, 1);
        assert_eq!(s.dpapi_txn_ops, 3);
    }

    #[test]
    fn pass_commit_abort_survives_the_syscall_boundary() {
        let (mut k, pid) = kernel();
        let spy = Rc::new(SpyModule::default());
        k.install_module(spy);
        let mut txn = dpapi::Txn::new();
        txn.sync(Handle::from_raw(1)).freeze(Handle::from_raw(1));
        let err = k.pass_commit(pid, txn).unwrap_err();
        // The structured per-op abort crosses the FsError boundary
        // intact (no stringly conversion).
        assert_eq!(
            err,
            FsError::Provenance(dpapi::DpapiError::aborted_at(
                1,
                dpapi::DpapiError::Unsupported("spy"),
            ))
        );
    }

    #[test]
    fn execve_records_identity_absence_on_plain_fs() {
        let (mut k, pid) = kernel();
        k.write_file(pid, "/prog", b"binary").unwrap();
        // No module installed: execve still succeeds and charges cost.
        let before = k.clock().now();
        k.execve(pid, "/prog", &["prog".into()], &["A=1".into()])
            .unwrap();
        assert!(k.clock().now() > before);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exe, "/prog");
        assert_eq!(p.env, vec!["A=1".to_string()]);
    }
}
