//! The ancestry-query cache.
//!
//! Repeated provenance queries are heavily skewed: the same "where did
//! this file come from" traversal runs again and again as users drill
//! into a result (§3 of the paper runs the same ancestry query per
//! object of interest). The store therefore memoizes traversal results
//! in a small LRU map and invalidates them *per shard*: every group
//! commit bumps the generation of exactly the shards it touched, and a
//! cached traversal remembers the generation of every shard it read.
//! Ingest into shard 3 therefore evicts only traversals that crossed
//! shard 3.
//!
//! [`LruMap`] follows the `sim_os::lru` idiom — an O(1)
//! doubly-linked-list-over-`Vec` LRU with a slot free list — extended
//! from a set to a map so entries can carry values.

use std::collections::HashMap;
use std::hash::Hash;

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
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        Some(&self.nodes[idx].value)
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

/// The set of shards a traversal read, with the generation each was at.
///
/// Shard counts are capped at 64 so membership is one `u64`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    mask: u64,
    gens: Vec<(u8, u64)>,
}

impl ShardSnapshot {
    /// Records that `shard` (at `gen`) was read.
    pub fn touch(&mut self, shard: usize, gen: u64) {
        debug_assert!(shard < 64);
        let bit = 1u64 << shard;
        if self.mask & bit == 0 {
            self.mask |= bit;
            self.gens.push((shard as u8, gen));
        }
    }

    /// True if every recorded shard is still at its recorded
    /// generation. `current` maps a shard index to its present
    /// generation (a closure, so the store can answer from its shards
    /// without materializing a vector).
    pub fn valid(&self, current: impl Fn(usize) -> u64) -> bool {
        self.gens.iter().all(|(s, g)| current(*s as usize) == *g)
    }
}

/// One memoized traversal result.
#[derive(Clone, Debug, Default)]
pub struct CachedResult<T> {
    pub value: T,
    pub snapshot: ShardSnapshot,
}

/// Hit/miss counters for the ancestry cache, for experiments and
/// tuning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the traversal.
    pub misses: u64,
    /// Cached entries discarded because a commit touched one of their
    /// shards.
    pub invalidated: u64,
}

/// A generation-validated LRU cache of traversal results.
pub struct TraversalCache<K: Eq + Hash + Clone, T> {
    lru: LruMap<K, CachedResult<T>>,
    pub stats: CacheStats,
}

impl<K: Eq + Hash + Clone, T: Clone + Default> TraversalCache<K, T> {
    pub fn new(capacity: usize) -> Self {
        TraversalCache {
            lru: LruMap::new(capacity),
            stats: CacheStats::default(),
        }
    }

    /// A still-valid cached value for `key`, given the shards'
    /// current generations. Stale entries are dropped and counted.
    pub fn lookup(&mut self, key: &K, current_gens: impl Fn(usize) -> u64) -> Option<T> {
        match self.lru.get(key) {
            Some(entry) if entry.snapshot.valid(current_gens) => {
                self.stats.hits += 1;
                Some(entry.value.clone())
            }
            Some(_) => {
                self.lru.remove(key);
                self.stats.invalidated += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Memoizes a freshly computed value.
    pub fn store(&mut self, key: K, value: T, snapshot: ShardSnapshot) {
        self.lru.insert(key, CachedResult { value, snapshot });
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_map_evicts_in_recency_order() {
        let mut m: LruMap<u32, &str> = LruMap::new(2);
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a")); // 2 becomes LRU
        m.insert(3, "c");
        assert_eq!(m.get(&2), None);
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.get(&3), Some(&"c"));
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

    #[test]
    fn snapshot_validates_per_shard() {
        let mut snap = ShardSnapshot::default();
        snap.touch(0, 5);
        snap.touch(3, 7);
        snap.touch(0, 99); // duplicate touch keeps the first generation
        let at = |gens: [u64; 4]| move |i: usize| gens[i];
        assert!(snap.valid(at([5, 0, 0, 7])));
        assert!(!snap.valid(at([5, 0, 0, 8])), "shard 3 moved");
        assert!(!snap.valid(at([6, 0, 0, 7])), "shard 0 moved");
        // Shards the traversal never read may move freely.
        assert!(snap.valid(at([5, 42, 42, 7])));
    }

    #[test]
    fn traversal_cache_hits_until_shard_moves() {
        let mut c: TraversalCache<u32, Vec<u32>> = TraversalCache::new(8);
        let mut gens = [0u64, 0];
        let mut snap = ShardSnapshot::default();
        snap.touch(1, 0);
        c.store(7, vec![1, 2, 3], snap);
        assert_eq!(c.lookup(&7, |i| gens[i]), Some(vec![1, 2, 3]));
        gens[0] += 1; // untouched shard: still a hit
        assert_eq!(c.lookup(&7, |i| gens[i]), Some(vec![1, 2, 3]));
        gens[1] += 1; // touched shard: invalidated
        assert_eq!(c.lookup(&7, |i| gens[i]), None);
        assert_eq!(c.stats.hits, 2);
        assert_eq!(c.stats.invalidated, 1);
        assert_eq!(c.stats.misses, 1);
    }
}
