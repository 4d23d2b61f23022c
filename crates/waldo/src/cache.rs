//! The query cache, and what invalidates it.
//!
//! Repeated provenance queries are heavily skewed: the same "where did
//! this file come from" traversal runs again and again as users drill
//! into a result (§3 of the paper runs the same ancestry query per
//! object of interest). The store therefore memoizes the reachability
//! closures behind PQL's `label*` and `label+` steps in one small LRU
//! map, and invalidates them by what a commit changed, at pnode
//! granularity.
//!
//! A group commit *dirties* the subject pnode of every entry it applies
//! and, as a *target* only, the ancestor pnode of every reverse edge it
//! routes; a `DirtyLog` keeps them per commit. A cached closure goes
//! stale when a later commit dirtied its start node's pnode or a
//! member's pnode: as a subject for a forward (ancestry) closure,
//! either way for an inverse (descendant) one, which also reads
//! reverse edges. Entries are checked at hit time against the commits
//! since they were last valid, so ingest that extends the graph
//! elsewhere keeps them.
//!
//! [`LruMap`] follows the `sim_os::lru` idiom — an O(1)
//! doubly-linked-list-over-`Vec` LRU with a slot free list — extended
//! from a set to a map so entries can carry values.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use dpapi::{ObjectRef, Pnode, VolumeId};
use pql::EdgeLabel;

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// An O(1) LRU map (the `sim_os::lru::LruSet` layout, carrying
/// values).
pub struct LruMap<K: Eq + Hash + Clone, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// Creates a map holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruMap {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks `key` up, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        Some(&mut self.nodes[idx].value)
    }

    /// Inserts or replaces `key`, evicting the least recently used
    /// entry if the map is full.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = value;
            self.detach(idx);
            self.attach_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.detach(victim);
            let vkey = self.nodes[victim].key.clone();
            self.map.remove(&vkey);
            self.free.push(victim);
        }
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
    }

    /// Removes `key` if resident.
    pub fn remove(&mut self, key: &K) -> Option<V>
    where
        V: Default,
    {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        Some(std::mem::take(&mut self.nodes[idx].value))
    }
}

/// An inclusive pnode range; [`Span::EMPTY`] meets nothing.
#[derive(Clone, Copy, Debug)]
struct Span {
    lo: Pnode,
    hi: Pnode,
}

impl Span {
    const EMPTY: Span = Span {
        lo: Pnode::new(VolumeId(u32::MAX), u64::MAX),
        hi: Pnode::new(VolumeId(0), 0),
    };

    fn widen(&mut self, p: Pnode) {
        self.lo = self.lo.min(p);
        self.hi = self.hi.max(p);
    }

    fn meets(&self, lo: Pnode, hi: Pnode) -> bool {
        self.lo <= hi && lo <= self.hi
    }
}

/// One commit's dirty pnodes: log positions `start..mid` are subjects
/// and `mid..end` reverse-edge targets, with the span of each part.
#[derive(Clone, Copy, Debug)]
struct Commit {
    start: u64,
    mid: u64,
    end: u64,
    subjects: Span,
    all: Span,
}

impl Commit {
    /// An empty commit starting at log position `at`.
    fn at(at: u64) -> Commit {
        Commit {
            start: at,
            mid: at,
            end: at,
            subjects: Span::EMPTY,
            all: Span::EMPTY,
        }
    }
}

/// Validation budget per cached row, in commits skipped plus dirty
/// pnodes searched: past it, recomputing is the cheaper answer.
const BUDGET_PER_ROW: usize = 64;

/// Log capacity per cache slot, in dirty pnodes.
const PNODES_PER_SLOT: usize = 16;

/// What each recent group commit changed (see the module docs).
///
/// Past [`PNODES_PER_SLOT`] pnodes per cache slot the oldest commits
/// are dropped, and an entry older than the oldest retained commit is a
/// miss.
#[derive(Debug)]
pub(crate) struct DirtyLog {
    /// Dirty pnodes of the retained commits, oldest first, from log
    /// position `base`.
    dirty: VecDeque<Pnode>,
    base: u64,
    /// `commits[i]` has sequence `floor + 1 + i`, so an entry valid at
    /// `floor` or later can be checked.
    commits: VecDeque<Commit>,
    floor: u64,
    /// Sequence of the newest commit or flush.
    seq: u64,
    bound: usize,
    /// The commit being recorded, between `begin` and `end`.
    open: Commit,
}

impl DirtyLog {
    /// An empty log for caches of `slots` entries each.
    pub fn new(slots: usize) -> DirtyLog {
        DirtyLog {
            dirty: VecDeque::new(),
            base: 0,
            commits: VecDeque::new(),
            floor: 0,
            seq: 0,
            bound: slots.max(1) * PNODES_PER_SLOT,
            open: Commit::at(0),
        }
    }

    /// Makes every entry computed so far stale.
    pub fn flush(&mut self) {
        self.seq += 1;
        self.floor = self.seq;
        self.dirty.clear();
        self.commits.clear();
    }

    /// Starts recording a commit.
    pub fn begin(&mut self) {
        self.open = Commit::at(self.base + self.dirty.len() as u64);
    }

    /// The open commit applied entries whose subject is `p`. Every
    /// subject comes before the first target.
    pub fn subject(&mut self, p: Pnode) {
        let c = &mut self.open;
        debug_assert_eq!(c.mid, c.end, "a subject after a target");
        self.dirty.push_back(p);
        c.mid += 1;
        c.end += 1;
        c.subjects.widen(p);
        c.all.widen(p);
    }

    /// The open commit routed a reverse edge to ancestor `p`.
    pub fn target(&mut self, p: Pnode) {
        self.dirty.push_back(p);
        self.open.end += 1;
        self.open.all.widen(p);
    }

    /// Closes the open commit, dropping the oldest past the bound.
    pub fn end(&mut self) {
        self.seq += 1;
        self.commits.push_back(self.open);
        while self.dirty.len() > self.bound {
            let Some(old) = self.commits.pop_front() else {
                break;
            };
            self.dirty.drain(..(old.end - self.base) as usize);
            self.base = old.end;
            self.floor += 1;
        }
    }

    /// True if no commit after `valid_at` dirtied `key` or a pnode of
    /// the sorted `members` (as a subject, or either way if `inverse`),
    /// and those commits are retained and cheaper to check than redo.
    fn unchanged(&self, valid_at: u64, key: Pnode, inverse: bool, members: &[ObjectRef]) -> bool {
        let Some(from) = valid_at.checked_sub(self.floor) else {
            return false;
        };
        let span = members.first().zip(members.last());
        let member = |p: &Pnode| members.binary_search_by(|r| r.pnode.cmp(p)).is_ok();
        let mut budget = BUDGET_PER_ROW * (members.len() + 1);
        for c in self.commits.range(from as usize..) {
            let (range, end) = if inverse {
                (c.all, c.end)
            } else {
                (c.subjects, c.mid)
            };
            let on_members = span.is_some_and(|(lo, hi)| range.meets(lo.pnode, hi.pnode));
            let read = on_members || range.meets(key, key);
            let cost = if read { (end - c.start) as usize } else { 1 };
            let Some(left) = budget.checked_sub(cost) else {
                return false;
            };
            budget = left;
            let at = (c.start - self.base) as usize..(end - self.base) as usize;
            if read && (self.dirty.range(at)).any(|p| *p == key || (on_members && member(p))) {
                return false;
            }
        }
        true
    }
}

/// One memoized closure and the log sequence it was last known valid
/// at.
#[derive(Clone, Debug, Default)]
struct Entry {
    value: Vec<ObjectRef>,
    valid_at: u64,
}

/// Hit/miss counters for the closure cache, for experiments and
/// tuning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the traversal.
    pub misses: u64,
    /// Cached entries discarded at lookup: a later commit changed a
    /// pnode they watch, the log no longer reached back to them, or
    /// checking would have cost more than recomputing.
    pub invalidated: u64,
}

/// What a closure is cached under: its start node, its edge label and
/// whether it runs inverse (toward descendants).
pub(crate) type ClosureKey = (ObjectRef, EdgeLabel, bool);

/// An LRU cache of closures, each validated against a [`DirtyLog`] by
/// its start node and its members.
pub(crate) struct TraversalCache {
    lru: LruMap<ClosureKey, Entry>,
    pub stats: CacheStats,
}

impl TraversalCache {
    pub fn new(capacity: usize) -> Self {
        TraversalCache {
            lru: LruMap::new(capacity),
            stats: CacheStats::default(),
        }
    }

    /// A still-valid cached closure for `key`. Stale entries are
    /// dropped and counted.
    pub fn lookup(&mut self, key: &ClosureKey, log: &DirtyLog) -> Option<Vec<ObjectRef>> {
        let Some(entry) = self.lru.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        if entry.valid_at != log.seq {
            let (node, _, inverse) = key;
            if !log.unchanged(entry.valid_at, node.pnode, *inverse, &entry.value) {
                self.lru.remove(key);
                self.stats.invalidated += 1;
                self.stats.misses += 1;
                return None;
            }
            entry.valid_at = log.seq;
        }
        self.stats.hits += 1;
        Some(entry.value.clone())
    }

    /// Memoizes a closure computed at the log's current sequence.
    pub fn store(&mut self, key: ClosureKey, value: Vec<ObjectRef>, log: &DirtyLog) {
        let valid_at = log.seq;
        self.lru.insert(key, Entry { value, valid_at });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpapi::Version;

    fn p(n: u64) -> Pnode {
        Pnode::new(VolumeId(1), n)
    }

    fn r(n: u64) -> ObjectRef {
        ObjectRef::new(p(n), Version(0))
    }

    fn commit(log: &mut DirtyLog, subjects: &[u64], targets: &[u64]) {
        log.begin();
        for &n in subjects {
            log.subject(p(n));
        }
        for &n in targets {
            log.target(p(n));
        }
        log.end();
    }

    #[test]
    fn lru_map_evicts_in_recency_order() {
        let mut m: LruMap<u32, &str> = LruMap::new(2);
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1).copied(), Some("a")); // 2 becomes LRU
        m.insert(3, "c");
        assert_eq!(m.get(&2).copied(), None);
        assert_eq!(m.get(&1).copied(), Some("a"));
        assert_eq!(m.get(&3).copied(), Some("c"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn lru_map_reuses_slots() {
        let mut m: LruMap<u32, u32> = LruMap::new(2);
        for i in 0..100 {
            m.insert(i, i);
        }
        assert_eq!(m.len(), 2);
        assert!(m.nodes.len() <= 3);
    }

    /// A commit whose pnode range misses both the key and the member
    /// span is skipped without reading its pnodes.
    #[test]
    fn dirty_log_skips_commits_out_of_range() {
        let mut log = DirtyLog::new(64);
        let at = log.seq;
        commit(&mut log, &[100, 101, 102], &[103]);
        let members = [r(2), r(5), r(9)];
        assert!(log.unchanged(at, p(1), true, &members));
        // Inside the member span but on none of the members: read,
        // and still clean.
        commit(&mut log, &[3, 4], &[]);
        assert!(log.unchanged(at, p(1), true, &members));
    }

    /// A dirty pnode inside the member span is found by binary search;
    /// a target counts only in the descendant direction.
    #[test]
    fn dirty_log_finds_members_by_binary_search() {
        let mut log = DirtyLog::new(64);
        let at = log.seq;
        commit(&mut log, &[4], &[5]);
        let members = [r(2), r(5), r(9)];
        assert!(log.unchanged(at, p(1), false, &members), "target only");
        assert!(!log.unchanged(at, p(1), true, &members));
        commit(&mut log, &[9], &[]);
        assert!(!log.unchanged(at, p(1), false, &members));
        // The key alone, no members watched.
        assert!(!log.unchanged(at, p(4), false, &[]));
        assert!(log.unchanged(at, p(7), false, &[]));
    }

    /// Searching more dirty pnodes than the entry's budget allows is a
    /// stale verdict, even when none of them matters.
    #[test]
    fn dirty_log_budget_exhaustion_is_stale() {
        let mut log = DirtyLog::new(1 << 10);
        let at = log.seq;
        let members = [r(1), r(1_000)];
        let noise: Vec<u64> = (2..2 + 4 * BUDGET_PER_ROW as u64).collect();
        commit(&mut log, &noise, &[]);
        assert!(!log.unchanged(at, p(1), true, &members));
        // The same commit is one step for an entry out of its range.
        assert!(log.unchanged(at, p(5_000), true, &[r(5_001)]));
    }

    /// Past the bound the oldest commits go, and an entry older than
    /// the oldest retained commit is stale.
    #[test]
    fn dirty_log_truncation_is_stale() {
        let mut log = DirtyLog::new(1);
        let at = log.seq;
        commit(&mut log, &[100], &[]);
        assert!(log.unchanged(at, p(1), true, &[r(2)]));
        for n in 0..PNODES_PER_SLOT as u64 {
            commit(&mut log, &[200 + n], &[]);
        }
        assert!(log.dirty.len() <= PNODES_PER_SLOT);
        assert!(!log.unchanged(at, p(1), true, &[r(2)]));
        assert!(log.unchanged(log.seq, p(1), true, &[r(2)]));
    }

    /// `flush` makes everything computed before it stale, and what is
    /// computed after it is checked against later commits only.
    #[test]
    fn dirty_log_flush() {
        let mut log = DirtyLog::new(64);
        let at = log.seq;
        commit(&mut log, &[100], &[]);
        log.flush();
        assert!(log.commits.is_empty() && log.dirty.is_empty());
        assert!(!log.unchanged(at, p(1), true, &[]));
        let at = log.seq;
        commit(&mut log, &[100], &[]);
        assert!(log.unchanged(at, p(1), true, &[]));
        assert!(!log.unchanged(at, p(100), true, &[]));
    }

    #[test]
    fn traversal_cache_hits_until_a_member_changes() {
        let mut c = TraversalCache::new(8);
        let mut log = DirtyLog::new(8);
        let key = (r(1), EdgeLabel::Any, false);
        c.store(key.clone(), vec![r(2), r(3)], &log);
        assert_eq!(c.lookup(&key, &log), Some(vec![r(2), r(3)]));
        commit(&mut log, &[50], &[3]); // a target: not read forward
        assert_eq!(c.lookup(&key, &log), Some(vec![r(2), r(3)]));
        commit(&mut log, &[3], &[]);
        assert_eq!(c.lookup(&key, &log), None);
        assert_eq!(c.stats.hits, 2);
        assert_eq!(c.stats.invalidated, 1);
        assert_eq!(c.stats.misses, 1);
    }
}
