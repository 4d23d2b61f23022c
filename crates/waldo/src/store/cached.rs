//! The store's memoized traversals: per-node edge lists, labelled
//! reachability closures and the `ancestors` / `descendants` closures,
//! each validated at hit time against what later commits changed.

use std::cell::RefCell;
use std::collections::HashSet;

use dpapi::{ObjectRef, Pnode, Version};
use pql::EdgeLabel;

use super::Store;
use crate::cache::TraversalCache;

/// Cache key for memoized ancestry closures: (pnode, version,
/// is_ancestors). Version is 0 for descendant queries, which are
/// per-pnode.
pub(super) type AncestryKey = (Pnode, u32, bool);

/// Cache key for memoized edge lists: (node, label, is_outgoing).
pub(super) type EdgeKey = (ObjectRef, EdgeLabel, bool);

impl Store {
    /// Labelled edge expansion with memoization — the PQL hot path.
    /// `outgoing` edges are ancestry inputs; incoming are descendants.
    pub(crate) fn edges_cached<F>(
        &self,
        node: ObjectRef,
        label: &EdgeLabel,
        outgoing: bool,
        compute: F,
    ) -> Vec<ObjectRef>
    where
        F: FnOnce() -> Vec<ObjectRef>,
    {
        if self.cfg.ancestry_cache == 0 {
            return compute();
        }
        let key: EdgeKey = (node, label.clone(), outgoing);
        if let Some(hit) = self.cache_hit(&self.edge_cache, &key, node.pnode, !outgoing) {
            return hit;
        }
        let out = compute();
        (self.edge_cache.borrow_mut()).store(key, out.clone(), &self.dirty);
        out
    }

    /// Memoized labelled reachability closure — what PQL's `label*`
    /// and `label+` path steps call. `expand` appends one node's
    /// matching neighbours to a buffer the BFS reuses.
    pub(crate) fn closure_cached<F>(
        &self,
        node: ObjectRef,
        label: &EdgeLabel,
        inverse: bool,
        expand: F,
    ) -> Vec<ObjectRef>
    where
        F: Fn(ObjectRef, &mut Vec<ObjectRef>),
    {
        let cache_on = self.cfg.ancestry_cache > 0;
        let key: EdgeKey = (node, label.clone(), inverse);
        if cache_on {
            if let Some(hit) = self.cache_hit(&self.closure_cache, &key, node.pnode, inverse) {
                return hit;
            }
        }
        let mut seen: HashSet<ObjectRef> = HashSet::new();
        seen.insert(node);
        let mut out: Vec<ObjectRef> = Vec::new();
        let mut frontier = vec![node];
        let mut next: Vec<ObjectRef> = Vec::new();
        while let Some(n) = frontier.pop() {
            expand(n, &mut next);
            for m in next.drain(..) {
                if seen.insert(m) {
                    out.push(m);
                    frontier.push(m);
                }
            }
        }
        out.sort();
        if cache_on {
            (self.closure_cache.borrow_mut()).store(key, out.clone(), &self.dirty);
        }
        out
    }

    /// Every descendant of `p` at any version — the transitive
    /// closure over outputs (the malware-spread query of §3.2).
    /// Memoized; see the module docs for invalidation.
    pub fn descendants(&self, p: Pnode) -> Vec<ObjectRef> {
        let key: AncestryKey = (p, 0, false);
        let cache_on = self.cfg.ancestry_cache > 0;
        if cache_on {
            if let Some(hit) = self.cache_hit(&self.ancestry_cache, &key, p, true) {
                return hit;
            }
        }
        let mut seen: HashSet<ObjectRef> = HashSet::new();
        // Roots: every version of p recorded as a subject, plus every
        // version of p some other object referenced as an ancestor
        // (objects only ever seen as ancestors have no entry).
        let home = self.home(p);
        let recorded = home.versions(p).unwrap_or_default().iter();
        let referenced = home.reverse(p).map(|(_, _, av)| av);
        let roots: HashSet<ObjectRef> = (recorded.map(|v| Version(v.number)))
            .chain(referenced)
            .map(|v| ObjectRef::new(p, v))
            .collect();
        let mut work: Vec<ObjectRef> = roots.iter().copied().collect();
        while let Some(r) = work.pop() {
            self.for_each_edge(r, true, |_, d| {
                if seen.insert(d) {
                    work.push(d);
                }
            });
        }
        let mut out: Vec<ObjectRef> = seen
            .iter()
            .copied()
            .filter(|r| !roots.contains(r))
            .collect();
        out.sort();
        if cache_on {
            (self.ancestry_cache.borrow_mut()).store(key, out.clone(), &self.dirty);
        }
        out
    }

    /// Every ancestor of `r` — transitive closure over inputs (the
    /// anomaly-tracing query of §3.1). Memoized; see the module docs
    /// for invalidation.
    pub fn ancestors(&self, r: ObjectRef) -> Vec<ObjectRef> {
        let key: AncestryKey = (r.pnode, r.version.0, true);
        let cache_on = self.cfg.ancestry_cache > 0;
        if cache_on {
            if let Some(hit) = self.cache_hit(&self.ancestry_cache, &key, r.pnode, false) {
                return hit;
            }
        }
        let mut seen: HashSet<ObjectRef> = HashSet::new();
        let mut work = vec![r];
        while let Some(x) = work.pop() {
            self.for_each_edge(x, false, |_, a| {
                if seen.insert(a) {
                    work.push(a);
                }
            });
        }
        let mut out: Vec<ObjectRef> = seen.iter().copied().collect();
        out.sort();
        if cache_on {
            (self.ancestry_cache.borrow_mut()).store(key, out.clone(), &self.dirty);
        }
        out
    }

    /// A still-valid cached value for `key`. The cache borrow ends
    /// before this returns, so the caller may compute and store.
    fn cache_hit<K: Eq + std::hash::Hash + Clone>(
        &self,
        cache: &RefCell<TraversalCache<K>>,
        key: &K,
        pnode: Pnode,
        inverse: bool,
    ) -> Option<Vec<ObjectRef>> {
        (cache.borrow_mut()).lookup(key, pnode, inverse, &self.dirty)
    }
}
