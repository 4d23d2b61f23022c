//! Processes and file descriptors.

use dpapi::IdMap;

use crate::fs::Ino;

/// A process id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Pid(pub u32);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// A file descriptor, local to one process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fd(pub u32);

/// Index of a mount in the kernel mount table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MountId(pub usize);

/// A file identified across the whole kernel: which mount, which
/// inode.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FileLoc {
    /// Mount the file lives on.
    pub mount: MountId,
    /// Inode within that mount.
    pub ino: Ino,
}

impl std::fmt::Display for FileLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}:{}", self.mount.0, self.ino)
    }
}

/// Which end of a pipe a descriptor refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PipeEnd {
    /// The read end.
    Read,
    /// The write end.
    Write,
}

/// What a file descriptor points at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FdTarget {
    /// A regular file on some mount.
    File(FileLoc),
    /// One end of a pipe.
    Pipe {
        /// Pipe identity in the kernel pipe table.
        id: u64,
        /// Which end this descriptor holds.
        end: PipeEnd,
    },
}

/// An open file description (shared offset semantics are simplified:
/// each fd has its own offset, which is sufficient for the workloads).
#[derive(Clone, Debug)]
pub struct OpenFile {
    /// What the descriptor points at.
    pub target: FdTarget,
    /// Current file offset.
    pub offset: u64,
    /// Opened with append semantics.
    pub append: bool,
    /// Whether this descriptor has been written.
    pub wrote: bool,
    /// Opened readable.
    pub readable: bool,
    /// Opened writable.
    pub writable: bool,
}

impl OpenFile {
    /// Creates a description for one end of a pipe.
    pub fn for_pipe(id: u64, end: PipeEnd) -> OpenFile {
        OpenFile {
            target: FdTarget::Pipe { id, end },
            offset: 0,
            append: false,
            wrote: false,
            readable: end == PipeEnd::Read,
            writable: end == PipeEnd::Write,
        }
    }
}

/// One simulated process.
#[derive(Clone, Debug)]
pub struct Process {
    /// This process's id.
    pub pid: Pid,
    /// Parent process id (0 for init).
    pub ppid: Pid,
    /// Executable path, set by `execve`.
    pub exe: String,
    /// Arguments, set by `execve`.
    pub argv: Vec<String>,
    /// Environment, set by `execve`.
    pub env: Vec<String>,
    /// Open descriptors. Keyed by numbers the kernel hands out itself
    /// (as is the process table): see [`dpapi::IdHasher`].
    pub fds: IdMap<Fd, OpenFile>,
    /// Next descriptor number to hand out.
    next_fd: u32,
    /// Has the process exited?
    pub exited: bool,
}

impl Process {
    fn new(pid: Pid, ppid: Pid, exe: &str) -> Process {
        Process {
            pid,
            ppid,
            exe: exe.to_string(),
            argv: vec![exe.to_string()],
            env: Vec::new(),
            fds: IdMap::default(),
            next_fd: 3, // 0..2 reserved, as on a real system
            exited: false,
        }
    }

    /// Allocates the next free descriptor.
    pub fn alloc_fd(&mut self, open: OpenFile) -> Fd {
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.fds.insert(fd, open);
        fd
    }
}

/// The kernel's process table.
#[derive(Debug, Default)]
pub struct ProcessTable {
    procs: IdMap<u32, Process>,
    next_pid: u32,
}

impl ProcessTable {
    /// Creates an empty table; pids start at 1.
    pub fn new() -> ProcessTable {
        ProcessTable {
            procs: IdMap::default(),
            next_pid: 1,
        }
    }

    /// Spawns the first process (no parent).
    pub fn spawn_init(&mut self, exe: &str) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(pid.0, Process::new(pid, Pid(0), exe));
        pid
    }

    /// Forks `parent`, duplicating its descriptor table, and returns
    /// the child pid.
    pub fn fork(&mut self, parent: Pid) -> Option<Pid> {
        let p = self.get(parent)?.clone();
        let child = Pid(self.next_pid);
        self.next_pid += 1;
        let mut c = p;
        c.pid = child;
        c.ppid = parent;
        self.procs.insert(child.0, c);
        Some(child)
    }

    /// Looks up a live process.
    pub fn get(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid.0).filter(|p| !p.exited)
    }

    /// Looks up a live process mutably.
    pub fn get_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(&pid.0).filter(|p| !p.exited)
    }

    /// Marks a process exited, returning its descriptors for cleanup.
    pub fn exit(&mut self, pid: Pid) -> Vec<OpenFile> {
        if let Some(p) = self.procs.get_mut(&pid.0) {
            p.exited = true;
            return p.fds.drain().map(|(_, o)| o).collect();
        }
        Vec::new()
    }

    /// Number of live processes.
    pub fn live_count(&self) -> usize {
        self.procs.values().filter(|p| !p.exited).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_fork_exit_lifecycle() {
        let mut t = ProcessTable::new();
        let init = t.spawn_init("/sbin/init");
        assert_eq!(init, Pid(1));
        let child = t.fork(init).unwrap();
        assert_eq!(child, Pid(2));
        assert_eq!(t.get(child).unwrap().ppid, init);
        assert_eq!(t.live_count(), 2);
        t.exit(child);
        assert!(t.get(child).is_none());
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    fn fork_duplicates_descriptors() {
        let mut t = ProcessTable::new();
        let init = t.spawn_init("sh");
        let loc = FileLoc {
            mount: MountId(0),
            ino: Ino(5),
        };
        let fd = t.get_mut(init).unwrap().alloc_fd(OpenFile {
            target: FdTarget::File(loc),
            offset: 7,
            append: false,
            wrote: false,
            readable: true,
            writable: false,
        });
        let child = t.fork(init).unwrap();
        let copy = t.get(child).unwrap().fds.get(&fd).unwrap();
        assert_eq!(copy.offset, 7);
        assert_eq!(copy.target, FdTarget::File(loc));
    }

    #[test]
    fn fork_of_dead_process_fails() {
        let mut t = ProcessTable::new();
        let p = t.spawn_init("a");
        t.exit(p);
        assert!(t.get(p).is_none());
        assert!(t.fork(p).is_none());
    }

    #[test]
    fn fds_start_at_three_and_increment() {
        let mut t = ProcessTable::new();
        let p = t.spawn_init("x");
        let proc = t.get_mut(p).unwrap();
        let f1 = proc.alloc_fd(OpenFile::for_pipe(0, PipeEnd::Read));
        let f2 = proc.alloc_fd(OpenFile::for_pipe(0, PipeEnd::Write));
        assert_eq!(f1, Fd(3));
        assert_eq!(f2, Fd(4));
    }
}
