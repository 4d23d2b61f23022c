//! The workspace's one O(1) LRU map: a doubly linked list over a
//! `Vec` of nodes, with a free list of slots.
//!
//! Two caches share it. The base file system's page cache keeps keys
//! only (`LruMap<PageKey, ()>`): file data lives in the inodes for
//! correctness, and the cache says which pages are resident, so a read
//! is a hit or a miss and an eviction can be charged a writeback (the
//! file system decides that from its own dirty set). Waldo's closure
//! cache carries values: the memoized closures.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// An LRU map holding at most a fixed number of entries.
pub struct LruMap<K: Eq + Hash + Clone, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// Creates a map holding at most `capacity` entries (at least one).
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

    /// Inserts or replaces `key` as the most recently used entry.
    /// Inserting into a full map evicts the least recently used entry
    /// and returns its key.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = value;
            self.detach(idx);
            self.attach_front(idx);
            return None;
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.detach(victim);
            let vkey = self.nodes[victim].key.clone();
            self.map.remove(&vkey);
            self.free.push(victim);
            evicted = Some(vkey);
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
        evicted
    }

    /// Removes `key` if resident, returning its value.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_recency_order() {
        let mut m: LruMap<u32, &str> = LruMap::new(2);
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(2, "b"), None);
        assert_eq!(m.get(&1).copied(), Some("a")); // 2 becomes LRU
        assert_eq!(m.insert(3, "c"), Some(2));
        assert_eq!(m.get(&2).copied(), None);
        assert_eq!(m.get(&1).copied(), Some("a"));
        assert_eq!(m.get(&3).copied(), Some("c"));
        assert_eq!(m.len(), 2);
        // Replacing a resident key evicts nothing and refreshes it.
        assert_eq!(m.insert(1, "a2"), None);
        assert_eq!(m.insert(4, "d"), Some(3));
        assert_eq!(m.get(&1).copied(), Some("a2"));
    }

    #[test]
    fn reuses_slots() {
        let mut m: LruMap<u32, u32> = LruMap::new(2);
        for i in 0..100 {
            m.insert(i, i);
        }
        assert_eq!(m.len(), 2);
        assert!(m.nodes.len() <= 3);
        // A removed entry's slot is the next one filled.
        m.remove(&99);
        m.insert(100, 100);
        assert!(m.nodes.len() <= 3);
    }

    #[test]
    fn capacity_one_always_evicts_previous() {
        let mut m: LruMap<u32, ()> = LruMap::new(1);
        assert_eq!(m.insert(1, ()), None);
        assert_eq!(m.insert(2, ()), Some(1));
        assert_eq!(m.insert(3, ()), Some(2));
        assert_eq!(m.len(), 1);
        // Capacity zero is capacity one.
        let mut z: LruMap<u32, ()> = LruMap::new(0);
        assert_eq!(z.insert(1, ()), None);
        assert_eq!(z.insert(2, ()), Some(1));
    }

    #[test]
    fn remove_returns_the_value() {
        let mut m: LruMap<u32, String> = LruMap::new(4);
        m.insert(1, "one".into());
        m.insert(2, "two".into());
        assert_eq!(m.remove(&1).as_deref(), Some("one"));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.remove(&3), None);
        assert_eq!(m.get(&2).map(|v| v.as_str()), Some("two"));
        assert_eq!(m.remove(&2).as_deref(), Some("two"));
        assert!(m.is_empty());
        // Emptied by removal, the list still links what comes next.
        m.insert(5, "five".into());
        m.insert(6, "six".into());
        assert_eq!(m.get(&5).map(|v| v.as_str()), Some("five"));
    }
}
