//! The store's read API: object and index lookups fanned out over the
//! shards, and edge visits borrowed straight out of a shard's rows.

use std::collections::{HashMap, HashSet, VecDeque};

use dpapi::{Attribute, ObjectRef, Pnode, Version};

use super::{keys, Store};
use crate::db::{DbSize, ObjectEntry};
use crate::shard::Shard;

/// What labels one edge [`Store::for_each_edge`] visits.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EdgeKind<'a> {
    /// A recorded ancestry record's attribute, borrowed from the shard.
    Recorded(&'a Attribute),
    /// The implicit edge between consecutive versions of one object.
    Version,
}

impl Store {
    /// Number of objects known.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(Shard::object_count).sum()
    }

    /// Approximate store footprint (summed over shards).
    pub fn size(&self) -> DbSize {
        let mut total = DbSize::default();
        for s in &self.shards {
            total.db_bytes += s.size.db_bytes;
            total.index_bytes += s.size.index_bytes;
        }
        total
    }

    /// Heap bytes the shards hold — their arrays, interned strings,
    /// maps and indexes — and the key filter, counted from lengths and
    /// capacities, so the figure repeats exactly where reading the OS
    /// would not. This is memory; [`Store::size`] is Table 3's on-disk
    /// model.
    pub fn resident_bytes(&self) -> usize {
        let shards: usize = self.shards.iter().map(Shard::resident_bytes).sum();
        shards + self.keys.resident_bytes()
    }

    /// An owned copy of `p`'s object, every version and attribute of
    /// it, materialized from its home shard's rows — for tests,
    /// reports and the example programs. The query path never builds
    /// one: it borrows rows out of the shard.
    pub fn object(&self, p: Pnode) -> Option<ObjectEntry> {
        self.home(p).object(p)
    }

    /// Every known pnode (unordered).
    pub fn all_pnodes(&self) -> Vec<Pnode> {
        self.shards.iter().flat_map(Shard::pnodes).collect()
    }

    /// The pnodes `f` picks out of every shard, merged in pnode order
    /// without duplicates — every index scan's fan-out.
    fn gather<'a, I>(&'a self, f: impl FnMut(&'a Shard) -> I) -> Vec<Pnode>
    where
        I: Iterator<Item = Pnode>,
    {
        merged(self.shards.iter().flat_map(f))
    }

    /// The shards whose index can hold key `attr = value`: those the
    /// key filter flags, a superset of those that hold it.
    fn holding<'a>(&'a self, attr: &str, value: &str) -> impl Iterator<Item = &'a Shard> {
        let bits = self.keys.probe(attr, value);
        (self.shards.iter().enumerate())
            .filter(move |(i, _)| bits & (1 << (i % 8)) != 0)
            .map(|(_, s)| s)
    }

    /// Objects that ever bore `name` — exact match, merged across the
    /// shards the key filter flags, in pnode order.
    pub fn find_by_name(&self, name: &str) -> Vec<Pnode> {
        merged(
            (self.holding(keys::NAME.as_str(), name)).flat_map(|s| s.listed(&s.name_index, name)),
        )
    }

    /// Objects whose NAME ends with `suffix` (e.g. a file name without
    /// its directory).
    pub fn find_by_name_suffix(&self, suffix: &str) -> Vec<Pnode> {
        self.gather(|s| {
            s.name_index
                .iter()
                .filter(|(n, _)| n.ends_with(suffix))
                .flat_map(|(_, ps)| s.postings(ps))
        })
    }

    /// Objects of TYPE `ty`, merged across shards in pnode order.
    pub fn find_by_type(&self, ty: &str) -> Vec<Pnode> {
        self.gather(|s| s.listed(&s.type_index, ty))
    }

    /// Objects whose NAME starts with `prefix` — a range scan over
    /// each shard's ordered name index (no attribute reads), merged
    /// in pnode order. Serves PQL `name like 'prefix*'` pushdown.
    pub fn find_by_name_prefix(&self, prefix: &str) -> Vec<Pnode> {
        self.gather(|s| s.listed_from(&s.name_index, prefix))
    }

    /// Objects whose TYPE starts with `prefix` — range scan over the
    /// ordered type index.
    pub fn find_by_type_prefix(&self, prefix: &str) -> Vec<Pnode> {
        self.gather(|s| s.listed_from(&s.type_index, prefix))
    }

    /// Objects that ever bore string attribute `attr` (by its
    /// canonical record name, e.g. `PHASE`) with exactly `value` —
    /// the generalized attribute index of the shards the key filter
    /// flags, merged in pnode order. NAME and TYPE have their
    /// dedicated indexes ([`Store::find_by_name`],
    /// [`Store::find_by_type`]).
    pub fn find_by_attr(&self, attr: &str, value: &str) -> Vec<Pnode> {
        let shards = self.holding(attr, value);
        let indexed = shards.filter_map(|s| Some((s, s.attr_index.get(attr)?)));
        merged(indexed.flat_map(|(s, index)| s.listed(index, value)))
    }

    /// Objects whose string attribute `attr` starts with `prefix`.
    pub fn find_by_attr_prefix(&self, attr: &str, prefix: &str) -> Vec<Pnode> {
        self.gather(|s| (s.attr_index.get(attr).into_iter()).flat_map(|i| s.listed_from(i, prefix)))
    }

    /// Number of objects in the TYPE index under `ty` — summed set
    /// sizes across shards, O(shards). (Pnodes, not version-refs; the
    /// planner uses this as a pruning estimate.)
    pub fn type_index_size(&self, ty: &str) -> usize {
        self.shards
            .iter()
            .filter_map(|s| s.type_index.get(ty).map(|ps| ps.len()))
            .sum()
    }

    /// Visits the direct edges of one version-ref, borrowed from its
    /// home shard without copying them: ancestry inputs when
    /// `inverse` is false, descendants (version-refs that recorded
    /// `r` as an input) when true — in both directions including the
    /// implicit edge between consecutive versions of one object.
    pub(crate) fn for_each_edge(
        &self,
        r: ObjectRef,
        inverse: bool,
        mut f: impl FnMut(EdgeKind<'_>, ObjectRef),
    ) {
        let shard = self.home(r.pnode);
        let versions = shard.versions(r.pnode);
        if inverse {
            for (d, a, av) in shard.reverse(r.pnode) {
                if av == r.version {
                    f(EdgeKind::Recorded(a), d);
                }
            }
            let next = r.version.0 + 1;
            if versions.is_some_and(|vs| Shard::find_version(vs, next).is_some()) {
                f(EdgeKind::Version, ObjectRef::new(r.pnode, Version(next)));
            }
        } else if let Some(versions) = versions {
            if let Some(v) = Shard::find_version(versions, r.version.0) {
                for (a, i) in shard.inputs(v) {
                    f(EdgeKind::Recorded(a), i);
                }
            }
            if r.version.0 > 0 {
                let prev = Version(r.version.0 - 1);
                f(EdgeKind::Version, ObjectRef::new(r.pnode, prev));
            }
        }
    }

    fn edges_of(&self, r: ObjectRef, inverse: bool) -> Vec<(Attribute, ObjectRef)> {
        let mut out = Vec::new();
        self.for_each_edge(r, inverse, |kind, to| {
            let attr = match kind {
                EdgeKind::Recorded(attr) => attr.clone(),
                EdgeKind::Version => Attribute::Other("version".into()),
            };
            out.push((attr, to));
        });
        out
    }

    /// Direct ancestry edges of one version, including the implicit
    /// edge to the previous version of the same object.
    pub fn inputs_of(&self, r: ObjectRef) -> Vec<(Attribute, ObjectRef)> {
        self.edges_of(r, false)
    }

    /// Direct descendants: version-refs that recorded `p` (at the
    /// given version) as an input, and the object's next version.
    pub fn outputs_of(&self, r: ObjectRef) -> Vec<(Attribute, ObjectRef)> {
        self.edges_of(r, true)
    }

    /// Every ancestor of `r` — transitive closure over inputs (the
    /// anomaly-tracing query of §3.1), sorted. This is
    /// `GraphSource::closure(r, &EdgeLabel::Any, false)` plus `r`
    /// itself when `r` lies on an ancestry cycle (see
    /// [`Store::input_cycle`]): the closure never lists its start.
    pub fn ancestors(&self, r: ObjectRef) -> Vec<ObjectRef> {
        let mut seen: HashSet<ObjectRef> = HashSet::new();
        let mut work = vec![r];
        while let Some(x) = work.pop() {
            self.for_each_edge(x, false, |_, a| {
                if seen.insert(a) {
                    work.push(a);
                }
            });
        }
        let mut out: Vec<ObjectRef> = seen.into_iter().collect();
        out.sort();
        out
    }

    /// Every descendant of `p` at any version — the transitive
    /// closure over outputs (the malware-spread query of §3.2), sorted.
    pub fn descendants(&self, p: Pnode) -> Vec<ObjectRef> {
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
        let mut out: Vec<ObjectRef> = seen.into_iter().filter(|r| !roots.contains(r)).collect();
        out.sort();
        out
    }

    /// A shortest cycle of the ancestry graph, or `None` if it is
    /// acyclic — as the paper's layering argument says it must be: a
    /// version in its own ancestry is a causal impossibility. The
    /// nodes are the `(pnode, version)` refs the shards record and what
    /// their edges reach; the edges are every recorded ancestry edge
    /// plus the implicit one from a version to its predecessor, which
    /// is what `input*` walks.
    /// Tarjan's algorithm finds the first strongly connected component
    /// that holds a cycle, and the cycle returned is a shortest one
    /// through its members, in edge order from its least ref: each ref
    /// depends on the next and the last on the first. Each ref carries
    /// its volume, so a cycle that closes across two analyzers shows
    /// where.
    pub fn input_cycle(&self) -> Option<Vec<ObjectRef>> {
        let mut ids: HashMap<ObjectRef, usize> = HashMap::new();
        let mut nodes: Vec<ObjectRef> = Vec::new();
        let mut number = |r: ObjectRef, nodes: &mut Vec<ObjectRef>| {
            *ids.entry(r).or_insert_with(|| {
                nodes.push(r);
                nodes.len() - 1
            })
        };
        // Numbered in ref order, so which cycle is reported does not
        // depend on the order the records arrived in.
        let mut recorded: Vec<ObjectRef> = Vec::new();
        for shard in &self.shards {
            for p in shard.pnodes() {
                for v in shard.versions(p).unwrap_or_default() {
                    recorded.push(ObjectRef::new(p, Version(v.number)));
                }
            }
        }
        recorded.sort_unstable();
        for r in recorded {
            number(r, &mut nodes);
        }
        let mut succ: Vec<Vec<usize>> = Vec::new();
        while succ.len() < nodes.len() {
            let mut out = Vec::new();
            let from = nodes[succ.len()];
            self.for_each_edge(from, false, |_, to| out.push(number(to, &mut nodes)));
            succ.push(out);
        }
        // Tarjan, with an explicit stack of (node, next successor).
        let n = nodes.len();
        let (mut index, mut low) = (vec![usize::MAX; n], vec![0; n]);
        let mut on_stack = vec![false; n];
        let (mut stack, mut next) = (Vec::new(), 0);
        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            let mut calls = vec![(root, 0)];
            while let Some((v, i)) = calls.pop() {
                if i == 0 {
                    (index[v], low[v], next) = (next, next, next + 1);
                    stack.push(v);
                    on_stack[v] = true;
                }
                if let Some(&w) = succ[v].get(i) {
                    calls.push((v, i + 1));
                    if index[w] == usize::MAX {
                        calls.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                    continue;
                }
                if let Some(&(parent, _)) = calls.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if scc.len() > 1 || succ[v].contains(&v) {
                        let mut cycle: Vec<ObjectRef> = (shortest_cycle(&scc, &succ).into_iter())
                            .map(|i| nodes[i])
                            .collect();
                        let least = (0..cycle.len()).min_by_key(|i| cycle[*i]).unwrap_or(0);
                        cycle.rotate_left(least);
                        return Some(cycle);
                    }
                }
            }
        }
        None
    }
}

/// `pnodes` in pnode order without duplicates.
fn merged(pnodes: impl Iterator<Item = Pnode>) -> Vec<Pnode> {
    let mut out: Vec<Pnode> = pnodes.collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// A shortest cycle through the members of one strongly connected
/// component, by a breadth-first search from each member back to it.
fn shortest_cycle(scc: &[usize], succ: &[Vec<usize>]) -> Vec<usize> {
    let members: HashSet<usize> = scc.iter().copied().collect();
    let mut best: Vec<usize> = Vec::new();
    for &start in scc {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut queue = VecDeque::from([start]);
        'search: while let Some(v) = queue.pop_front() {
            for &w in &succ[v] {
                if w == start {
                    let (mut cycle, mut at) = (vec![v], v);
                    while let Some(&p) = parent.get(&at) {
                        cycle.push(p);
                        at = p;
                    }
                    cycle.reverse();
                    if best.is_empty() || cycle.len() < best.len() {
                        best = cycle;
                    }
                    break 'search;
                }
                if members.contains(&w) && !parent.contains_key(&w) {
                    parent.insert(w, v);
                    queue.push_back(w);
                }
            }
        }
    }
    best
}
