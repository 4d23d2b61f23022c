//! The store's one memoized traversal: labelled reachability closures,
//! validated at hit time against what later commits changed.

use std::collections::HashSet;

use dpapi::ObjectRef;
use pql::EdgeLabel;

use super::Store;

impl Store {
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
        let key = (node, label.clone(), inverse);
        if cache_on {
            // The cache borrow ends here, before the traversal reads
            // the store.
            if let Some(hit) = (self.closure_cache.borrow_mut()).lookup(&key, &self.dirty) {
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
}
