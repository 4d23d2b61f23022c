//! The base (lower) file system: an ext3-in-ordered-mode analogue.
//!
//! File contents live in memory for correctness; all timing flows
//! through the shared [`Clock`] via a page cache, a metadata journal
//! and a [`Disk`] with head-position accounting. Metadata operations
//! are batched into journal transactions; in ordered mode a commit
//! first writes back dirty data pages, then the journal blocks — the
//! behaviour the paper's Mercurial benchmark stresses.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::clock::Clock;
use crate::cost::{CostModel, BLOCK_SIZE};
use crate::disk::{Disk, DiskStats};
use crate::fs::{DirEntry, FileAttr, FileSystem, FileType, FsError, FsResult, FsUsage, Ino};
use crate::lru::LruMap;

/// Journal batching: commit after this many pending metadata ops.
const JOURNAL_BATCH: u32 = 64;
/// Auto-writeback threshold: flush when this many pages are dirty.
const DIRTY_FLUSH_PAGES: usize = 4096; // 16 MB

type PageKey = (u64, u64); // (ino, page index)

enum InodeKind {
    File { data: Vec<u8> },
    Dir { children: BTreeMap<String, Ino> },
}

struct Inode {
    kind: InodeKind,
    nlink: u32,
}

/// Configuration for a [`BaseFs`].
#[derive(Clone, Copy, Debug)]
pub struct BaseFsConfig {
    /// Page-cache capacity in 4 KB pages (default ≈ 384 MB, modelling
    /// the paper's 512 MB machine after kernel overhead).
    pub cache_pages: usize,
    /// Journal region size in blocks.
    pub journal_blocks: u64,
}

impl Default for BaseFsConfig {
    fn default() -> Self {
        BaseFsConfig {
            cache_pages: 98_304,
            journal_blocks: 8_192,
        }
    }
}

/// The simulated lower file system.
pub struct BaseFs {
    clock: Clock,
    model: CostModel,
    disk: Disk,
    inodes: HashMap<u64, Inode>,
    next_ino: u64,
    root: Ino,
    journal_start: u64,
    journal_len: u64,
    journal_at: u64,
    pending_journal: u32,
    page_blocks: HashMap<PageKey, u64>,
    cache: LruMap<PageKey, ()>,
    dirty: HashSet<PageKey>,
    data_bytes: u64,
    prev_sizes: HashMap<u64, u64>,
}

impl BaseFs {
    /// Creates an empty file system on a fresh disk.
    pub fn new(clock: Clock, model: CostModel) -> BaseFs {
        BaseFs::with_config(clock, model, BaseFsConfig::default())
    }

    /// Creates an empty file system with explicit cache/journal sizes.
    pub fn with_config(clock: Clock, model: CostModel, cfg: BaseFsConfig) -> BaseFs {
        let mut disk = Disk::new(clock.clone(), model.disk);
        let journal_start = disk.alloc_region(cfg.journal_blocks);
        let mut inodes = HashMap::new();
        inodes.insert(
            1,
            Inode {
                kind: InodeKind::Dir {
                    children: BTreeMap::new(),
                },
                nlink: 2,
            },
        );
        BaseFs {
            clock,
            model,
            disk,
            inodes,
            next_ino: 2,
            root: Ino(1),
            journal_start,
            journal_len: cfg.journal_blocks,
            journal_at: journal_start,
            pending_journal: 0,
            page_blocks: HashMap::new(),
            cache: LruMap::new(cfg.cache_pages),
            dirty: HashSet::new(),
            data_bytes: 0,
            prev_sizes: HashMap::new(),
        }
    }

    /// Disk statistics (seeks, blocks, busy time) for reporting.
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.stats()
    }

    /// The shared clock, for layered file systems stacked on top.
    pub fn clock(&self) -> Clock {
        self.clock.clone()
    }

    /// The cost model in force.
    pub fn model(&self) -> CostModel {
        self.model
    }

    fn inode(&self, ino: Ino) -> FsResult<&Inode> {
        self.inodes
            .get(&ino.0)
            .ok_or_else(|| FsError::NotFound(format!("{ino}")))
    }

    fn inode_mut(&mut self, ino: Ino) -> FsResult<&mut Inode> {
        self.inodes
            .get_mut(&ino.0)
            .ok_or_else(|| FsError::NotFound(format!("{ino}")))
    }

    fn dir_children(&self, ino: Ino) -> FsResult<&BTreeMap<String, Ino>> {
        match &self.inode(ino)?.kind {
            InodeKind::Dir { children } => Ok(children),
            InodeKind::File { .. } => Err(FsError::NotADirectory(format!("{ino}"))),
        }
    }

    fn dir_children_mut(&mut self, ino: Ino) -> FsResult<&mut BTreeMap<String, Ino>> {
        match &mut self.inode_mut(ino)?.kind {
            InodeKind::Dir { children } => Ok(children),
            InodeKind::File { .. } => Err(FsError::NotADirectory(format!("{ino}"))),
        }
    }

    fn check_name(name: &str) -> FsResult<()> {
        if name.is_empty() || name.contains('/') {
            return Err(FsError::Invalid(format!("bad name {name:?}")));
        }
        Ok(())
    }

    fn alloc_ino(&mut self, kind: InodeKind) -> Ino {
        let n = self.next_ino;
        self.next_ino += 1;
        self.inodes.insert(n, Inode { kind, nlink: 1 });
        Ino(n)
    }

    /// Records one metadata operation in the journal, committing the
    /// batch when full.
    fn journal_op(&mut self) {
        self.pending_journal += 1;
        if self.pending_journal >= JOURNAL_BATCH {
            self.commit_journal();
        }
    }

    /// Commits the journal: ordered mode writes dirty data first, then
    /// the journal blocks (descriptor blocks + commit block).
    fn commit_journal(&mut self) {
        if self.pending_journal == 0 {
            return;
        }
        self.flush_dirty_pages();
        let nblocks = (u64::from(self.pending_journal)).div_ceil(16) + 1;
        if self.journal_at + nblocks > self.journal_start + self.journal_len {
            self.journal_at = self.journal_start;
        }
        self.disk.access(self.journal_at, nblocks, true);
        self.journal_at += nblocks;
        self.pending_journal = 0;
    }

    /// Writes back every dirty page, elevator-sorted so contiguous
    /// blocks coalesce into single accesses.
    fn flush_dirty_pages(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let mut blocks: Vec<u64> = self
            .dirty
            .iter()
            .filter_map(|k| self.page_blocks.get(k).copied())
            .collect();
        self.dirty.clear();
        blocks.sort_unstable();
        let mut i = 0;
        while i < blocks.len() {
            let start = blocks[i];
            let mut run = 1;
            while i + run < blocks.len() && blocks[i + run] == start + run as u64 {
                run += 1;
            }
            self.disk.access(start, run as u64, true);
            i += run;
        }
    }

    /// Touches one page in the cache, charging writeback if a dirty
    /// victim is evicted. True on a hit.
    fn cache_touch(&mut self, key: PageKey, dirty: bool) -> bool {
        if dirty {
            self.dirty.insert(key);
        }
        if self.cache.get(&key).is_some() {
            return true;
        }
        if let Some(victim) = self.cache.insert(key, ()) {
            if self.dirty.remove(&victim) {
                if let Some(block) = self.page_blocks.get(&victim).copied() {
                    self.disk.access(block, 1, true);
                }
            }
        }
        false
    }

    fn forget_file_pages(&mut self, ino: Ino, from_page: u64) {
        let keys: Vec<PageKey> = self
            .page_blocks
            .keys()
            .filter(|(i, p)| *i == ino.0 && *p >= from_page)
            .copied()
            .collect();
        for k in keys {
            self.page_blocks.remove(&k);
            self.cache.remove(&k);
            self.dirty.remove(&k);
        }
    }
}

impl FileSystem for BaseFs {
    fn root(&self) -> Ino {
        self.root
    }

    fn lookup(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        self.dir_children(dir)?
            .get(name)
            .copied()
            .ok_or_else(|| FsError::NotFound(name.to_string()))
    }

    fn create(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        Self::check_name(name)?;
        if self.dir_children(dir)?.contains_key(name) {
            return Err(FsError::Exists(name.to_string()));
        }
        let ino = self.alloc_ino(InodeKind::File { data: Vec::new() });
        self.dir_children_mut(dir)?.insert(name.to_string(), ino);
        self.journal_op();
        Ok(ino)
    }

    fn mkdir(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        Self::check_name(name)?;
        if self.dir_children(dir)?.contains_key(name) {
            return Err(FsError::Exists(name.to_string()));
        }
        let ino = self.alloc_ino(InodeKind::Dir {
            children: BTreeMap::new(),
        });
        self.dir_children_mut(dir)?.insert(name.to_string(), ino);
        self.journal_op();
        Ok(ino)
    }

    fn unlink(&mut self, dir: Ino, name: &str) -> FsResult<()> {
        let ino = self.lookup(dir, name)?;
        match &self.inode(ino)?.kind {
            InodeKind::Dir { children } => {
                if !children.is_empty() {
                    return Err(FsError::NotEmpty(name.to_string()));
                }
            }
            InodeKind::File { .. } => {}
        }
        self.dir_children_mut(dir)?.remove(name);
        let node = self.inode_mut(ino)?;
        node.nlink = node.nlink.saturating_sub(1);
        if node.nlink == 0 {
            if let InodeKind::File { data } = &node.kind {
                self.data_bytes -= data.len() as u64;
                self.prev_sizes.remove(&ino.0);
            }
            self.inodes.remove(&ino.0);
            self.forget_file_pages(ino, 0);
        }
        self.journal_op();
        Ok(())
    }

    fn rename(&mut self, from: Ino, name: &str, to: Ino, to_name: &str) -> FsResult<()> {
        Self::check_name(to_name)?;
        let ino = self.lookup(from, name)?;
        // Replace an existing target, like rename(2).
        if self.dir_children(to)?.contains_key(to_name) {
            self.unlink(to, to_name)?;
        }
        self.dir_children_mut(from)?.remove(name);
        self.dir_children_mut(to)?.insert(to_name.to_string(), ino);
        self.journal_op();
        Ok(())
    }

    fn read(&mut self, ino: Ino, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let data = match &self.inode(ino)?.kind {
            InodeKind::File { data } => data,
            InodeKind::Dir { .. } => {
                return Err(FsError::Invalid("read of a directory".into()));
            }
        };
        let start = (offset as usize).min(data.len());
        let end = (start + len).min(data.len());
        let out = data[start..end].to_vec();
        // Charge the copy out of the page cache.
        self.clock.advance(self.model.copy_cost(out.len()));
        // Classify pages as hits or misses; coalesce miss runs.
        let first_page = offset / BLOCK_SIZE as u64;
        let last_page = (offset + end.saturating_sub(start) as u64) / BLOCK_SIZE as u64;
        let mut miss_blocks: Vec<u64> = Vec::new();
        for page in first_page..=last_page {
            let key = (ino.0, page);
            if !self.cache_touch(key, false) {
                if let Some(b) = self.page_blocks.get(&key).copied() {
                    miss_blocks.push(b);
                }
            }
        }
        miss_blocks.sort_unstable();
        let mut i = 0;
        while i < miss_blocks.len() {
            let start_b = miss_blocks[i];
            let mut run = 1;
            while i + run < miss_blocks.len() && miss_blocks[i + run] == start_b + run as u64 {
                run += 1;
            }
            self.disk.access(start_b, run as u64, false);
            i += run;
        }
        Ok(out)
    }

    fn write(&mut self, ino: Ino, offset: u64, buf: &[u8]) -> FsResult<usize> {
        {
            let node = self.inode_mut(ino)?;
            let data = match &mut node.kind {
                InodeKind::File { data } => data,
                InodeKind::Dir { .. } => {
                    return Err(FsError::Invalid("write to a directory".into()));
                }
            };
            let end = offset as usize + buf.len();
            if data.len() < end {
                data.resize(end, 0);
            }
            data[offset as usize..end].copy_from_slice(buf);
        }
        let new_len = match &self.inode(ino)?.kind {
            InodeKind::File { data } => data.len() as u64,
            InodeKind::Dir { .. } => unreachable!(),
        };
        self.recompute_size_delta(ino, new_len);

        self.clock.advance(self.model.copy_cost(buf.len()));
        let first_page = offset / BLOCK_SIZE as u64;
        let last_page = (offset + buf.len().max(1) as u64 - 1) / BLOCK_SIZE as u64;
        for page in first_page..=last_page {
            let key = (ino.0, page);
            if !self.page_blocks.contains_key(&key) {
                let block = self.disk.alloc_region(1);
                self.page_blocks.insert(key, block);
            }
            self.cache_touch(key, true);
        }
        if self.dirty.len() >= DIRTY_FLUSH_PAGES {
            self.flush_dirty_pages();
        }
        Ok(buf.len())
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        let node = self.inode_mut(ino)?;
        let data = match &mut node.kind {
            InodeKind::File { data } => data,
            InodeKind::Dir { .. } => {
                return Err(FsError::Invalid("truncate of a directory".into()));
            }
        };
        data.resize(size as usize, 0);
        self.recompute_size_delta(ino, size);
        let keep_pages = size.div_ceil(BLOCK_SIZE as u64);
        self.forget_file_pages(ino, keep_pages);
        self.journal_op();
        Ok(())
    }

    fn getattr(&mut self, ino: Ino) -> FsResult<FileAttr> {
        let node = self.inode(ino)?;
        Ok(match &node.kind {
            InodeKind::File { data } => FileAttr {
                ino,
                ftype: FileType::Regular,
                size: data.len() as u64,
                nlink: node.nlink,
            },
            InodeKind::Dir { .. } => FileAttr {
                ino,
                ftype: FileType::Directory,
                size: 0,
                nlink: node.nlink,
            },
        })
    }

    fn readdir(&mut self, dir: Ino) -> FsResult<Vec<DirEntry>> {
        let children = self.dir_children(dir)?.clone();
        children
            .into_iter()
            .map(|(name, ino)| {
                let ftype = match &self.inode(ino)?.kind {
                    InodeKind::File { .. } => FileType::Regular,
                    InodeKind::Dir { .. } => FileType::Directory,
                };
                Ok(DirEntry { name, ino, ftype })
            })
            .collect()
    }

    fn sync(&mut self) -> FsResult<()> {
        self.commit_journal();
        self.flush_dirty_pages();
        Ok(())
    }

    fn fsync(&mut self, ino: Ino) -> FsResult<()> {
        // Flush this file's dirty pages, then commit metadata.
        let mut blocks: Vec<u64> = self
            .dirty
            .iter()
            .filter(|(i, _)| *i == ino.0)
            .filter_map(|k| self.page_blocks.get(k).copied())
            .collect();
        self.dirty.retain(|(i, _)| *i != ino.0);
        blocks.sort_unstable();
        let mut i = 0;
        while i < blocks.len() {
            let start = blocks[i];
            let mut run = 1;
            while i + run < blocks.len() && blocks[i + run] == start + run as u64 {
                run += 1;
            }
            self.disk.access(start, run as u64, true);
            i += run;
        }
        // A single journal block for this file's metadata; full
        // commits happen on sync() or when the batch fills.
        if self.pending_journal > 0 {
            if self.journal_at + 1 > self.journal_start + self.journal_len {
                self.journal_at = self.journal_start;
            }
            self.disk.access(self.journal_at, 1, true);
            self.journal_at += 1;
        }
        Ok(())
    }

    fn usage(&self) -> FsUsage {
        let meta: u64 = self
            .inodes
            .values()
            .map(|n| {
                128 + match &n.kind {
                    InodeKind::Dir { children } => {
                        children.keys().map(|k| k.len() as u64 + 8).sum::<u64>()
                    }
                    InodeKind::File { .. } => 0,
                }
            })
            .sum();
        FsUsage {
            data_bytes: self.data_bytes,
            meta_bytes: meta,
            provenance_bytes: 0,
        }
    }
}

impl BaseFs {
    /// Maintains the running `data_bytes` sum when a file's size
    /// changes to `new_len`.
    fn recompute_size_delta(&mut self, ino: Ino, new_len: u64) {
        let prev = self.prev_sizes.entry(ino.0).or_insert(0);
        self.data_bytes = (self.data_bytes - *prev) + new_len;
        *prev = new_len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> BaseFs {
        BaseFs::new(Clock::new(), CostModel::default())
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut f = fs();
        let root = f.root();
        let ino = f.create(root, "a.txt").unwrap();
        f.write(ino, 0, b"hello world").unwrap();
        assert_eq!(f.read(ino, 0, 5).unwrap(), b"hello");
        assert_eq!(f.read(ino, 6, 100).unwrap(), b"world");
        assert_eq!(f.getattr(ino).unwrap().size, 11);
    }

    #[test]
    fn lookup_and_errors() {
        let mut f = fs();
        let root = f.root();
        let d = f.mkdir(root, "dir").unwrap();
        let a = f.create(d, "x").unwrap();
        assert_eq!(f.lookup(d, "x").unwrap(), a);
        assert!(matches!(f.lookup(d, "y"), Err(FsError::NotFound(_))));
        assert!(matches!(f.create(d, "x"), Err(FsError::Exists(_))));
        assert!(matches!(f.lookup(a, "z"), Err(FsError::NotADirectory(_))));
        assert!(matches!(f.create(root, "a/b"), Err(FsError::Invalid(_))));
    }

    #[test]
    fn unlink_removes_and_frees_space() {
        let mut f = fs();
        let root = f.root();
        let ino = f.create(root, "f").unwrap();
        f.write(ino, 0, &vec![7u8; 10_000]).unwrap();
        assert_eq!(f.usage().data_bytes, 10_000);
        f.unlink(root, "f").unwrap();
        assert_eq!(f.usage().data_bytes, 0);
        assert!(matches!(f.lookup(root, "f"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn unlink_refuses_nonempty_dir() {
        let mut f = fs();
        let root = f.root();
        let d = f.mkdir(root, "d").unwrap();
        f.create(d, "x").unwrap();
        assert!(matches!(f.unlink(root, "d"), Err(FsError::NotEmpty(_))));
        f.unlink(d, "x").unwrap();
        f.unlink(root, "d").unwrap();
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut f = fs();
        let root = f.root();
        let a = f.create(root, "a").unwrap();
        f.write(a, 0, b"A").unwrap();
        let b = f.create(root, "b").unwrap();
        f.write(b, 0, b"B").unwrap();
        f.rename(root, "a", root, "b").unwrap();
        assert_eq!(f.lookup(root, "b").unwrap(), a);
        assert!(matches!(f.lookup(root, "a"), Err(FsError::NotFound(_))));
        assert_eq!(f.read(a, 0, 1).unwrap(), b"A");
        // The replaced file's bytes were freed.
        assert_eq!(f.usage().data_bytes, 1);
    }

    #[test]
    fn readdir_lists_sorted_entries() {
        let mut f = fs();
        let root = f.root();
        f.create(root, "b").unwrap();
        f.create(root, "a").unwrap();
        f.mkdir(root, "c").unwrap();
        let names: Vec<String> = f
            .readdir(root)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn cached_reads_cost_less_than_cold_reads() {
        let clock = Clock::new();
        let mut f = BaseFs::new(clock.clone(), CostModel::default());
        let root = f.root();
        let ino = f.create(root, "big").unwrap();
        let payload = vec![1u8; 64 * 1024];
        f.write(ino, 0, &payload).unwrap();
        f.sync().unwrap();

        let (_, warm) = clock.measure(|| f.read(ino, 0, payload.len()).unwrap());

        // Evict by building a tiny-cache FS and reloading cold.
        let clock2 = Clock::new();
        let mut f2 = BaseFs::with_config(
            clock2.clone(),
            CostModel::default(),
            BaseFsConfig {
                cache_pages: 4,
                journal_blocks: 128,
            },
        );
        let root2 = f2.root();
        let i2 = f2.create(root2, "big").unwrap();
        f2.write(i2, 0, &payload).unwrap();
        f2.sync().unwrap();
        // Push the file out of the 4-page cache.
        let other = f2.create(root2, "other").unwrap();
        f2.write(other, 0, &vec![0u8; 64 * 1024]).unwrap();
        f2.sync().unwrap();
        let (_, cold) = clock2.measure(|| f2.read(i2, 0, payload.len()).unwrap());
        assert!(
            cold > warm * 5,
            "cold read ({cold} ns) should dwarf warm read ({warm} ns)"
        );
    }

    #[test]
    fn sync_writes_back_dirty_pages_once() {
        let mut f = fs();
        let root = f.root();
        let ino = f.create(root, "f").unwrap();
        f.write(ino, 0, &vec![0u8; BLOCK_SIZE * 8]).unwrap();
        f.sync().unwrap();
        let written = f.disk_stats().blocks_written;
        assert!(
            written >= 8,
            "expected at least 8 data blocks, got {written}"
        );
        // A second sync with nothing dirty writes nothing new.
        f.sync().unwrap();
        assert_eq!(f.disk_stats().blocks_written, written);
    }

    /// Writeback on eviction is decided by the file system's own dirty
    /// set: a dirty victim costs one block write, a victim `sync`
    /// already wrote costs none.
    #[test]
    fn evicting_a_dirty_page_charges_one_block_write() {
        let mut f = BaseFs::with_config(
            Clock::new(),
            CostModel::default(),
            BaseFsConfig {
                cache_pages: 4,
                journal_blocks: 128,
            },
        );
        let root = f.root();
        let ino = f.create(root, "f").unwrap();
        let page = |p: u64| p * BLOCK_SIZE as u64;
        for p in 0..4 {
            f.write(ino, page(p), b"x").unwrap();
        }
        assert_eq!(f.disk_stats().blocks_written, 0, "all four pages cached");
        f.write(ino, page(4), b"x").unwrap();
        assert_eq!(f.disk_stats().blocks_written, 1, "dirty page 0 evicted");
        f.sync().unwrap();
        // Pages 1-4 and a two-block journal commit; page 0 is clean.
        assert_eq!(f.disk_stats().blocks_written, 1 + 4 + 2);
        // Reading page 0 back evicts page 1, which sync wrote.
        f.read(ino, page(0), 1).unwrap();
        assert_eq!(f.disk_stats().blocks_read, 1);
        assert_eq!(f.disk_stats().blocks_written, 7);
    }

    #[test]
    fn truncate_shrinks_and_frees_pages() {
        let mut f = fs();
        let root = f.root();
        let ino = f.create(root, "f").unwrap();
        f.write(ino, 0, &vec![9u8; BLOCK_SIZE * 4]).unwrap();
        f.truncate(ino, 10).unwrap();
        assert_eq!(f.getattr(ino).unwrap().size, 10);
        assert_eq!(f.usage().data_bytes, 10);
        assert_eq!(f.read(ino, 0, 100).unwrap().len(), 10);
    }

    #[test]
    fn sparse_write_reads_zeros_without_disk_access() {
        let mut f = fs();
        let root = f.root();
        let ino = f.create(root, "sparse").unwrap();
        f.write(ino, (BLOCK_SIZE * 10) as u64, b"end").unwrap();
        let head = f.read(ino, 0, 4).unwrap();
        assert_eq!(head, vec![0, 0, 0, 0]);
    }

    #[test]
    fn metadata_ops_are_journal_batched() {
        let mut f = fs();
        let root = f.root();
        for i in 0..(JOURNAL_BATCH - 1) {
            f.create(root, &format!("f{i}")).unwrap();
        }
        // Not yet committed: no journal blocks written.
        assert_eq!(f.disk_stats().blocks_written, 0);
        f.create(root, "tip").unwrap();
        assert!(f.disk_stats().blocks_written > 0);
    }
}
