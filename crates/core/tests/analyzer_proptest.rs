//! Property-based tests for the analyzer's central invariant: no
//! dependency stream — however adversarial — produces a cycle among
//! `(object, version)` pairs under cycle avoidance.

use std::collections::{HashMap, HashSet};

use passv2::analyzer::{AnalyzerStats, CycleAvoidance, DepOutcome, NodeId};
use proptest::prelude::*;

/// The analyzer as it was before `add_dependency` was restructured to
/// probe its table twice instead of five to seven times: the same
/// state, the old body verbatim (lookup for lookup), kept as the
/// reference the restructured one must match decision for decision.
#[derive(Default)]
struct ReferenceAnalyzer {
    nodes: HashMap<NodeId, RefNode>,
    stats: AnalyzerStats,
}

#[derive(Default)]
struct RefNode {
    version: u32,
    deps: HashSet<(NodeId, u32)>,
    observed: bool,
}

impl ReferenceAnalyzer {
    fn version(&self, node: NodeId) -> u32 {
        self.nodes.get(&node).map(|n| n.version).unwrap_or(0)
    }

    fn set_version(&mut self, node: NodeId, version: u32) {
        self.nodes.entry(node).or_default().version = version;
    }

    fn add_dependency(&mut self, target: NodeId, source: NodeId) -> DepOutcome {
        self.stats.presented += 1;
        let source_version = self.version(source);
        let must_freeze =
            target == source || self.nodes.get(&target).map(|t| t.observed).unwrap_or(false);
        let frozen = if must_freeze {
            let t = self.nodes.entry(target).or_default();
            t.version += 1;
            t.observed = false;
            t.deps.clear();
            self.stats.freezes += 1;
            Some(t.version)
        } else {
            None
        };
        if self
            .nodes
            .get(&target)
            .map(|t| t.deps.contains(&(source, source_version)))
            .unwrap_or(false)
        {
            self.stats.duplicates += 1;
            return DepOutcome {
                duplicate: true,
                frozen,
                target_version: self.version(target),
                source_version,
            };
        }
        let t = self.nodes.entry(target).or_default();
        t.deps.insert((source, source_version));
        let s = self.nodes.entry(source).or_default();
        s.observed = true;
        DepOutcome {
            duplicate: false,
            frozen,
            target_version: self.version(target),
            source_version,
        }
    }

    fn freeze(&mut self, node: NodeId) -> u32 {
        let n = self.nodes.entry(node).or_default();
        n.version += 1;
        n.observed = false;
        n.deps.clear();
        self.stats.freezes += 1;
        n.version
    }

    fn forget(&mut self, node: NodeId) {
        self.nodes.remove(&node);
    }
}

/// One step of an analyzer's life, as the module and the PA-NFS
/// server drive it.
#[derive(Clone, Debug)]
enum Step {
    Dep(NodeId, NodeId),
    Freeze(NodeId),
    Forget(NodeId),
    SetVersion(NodeId, u32),
}

fn step() -> impl Strategy<Value = Step> {
    // Dependencies dominate, self-edges included; versions are forced
    // within the range freezes reach, so a forced version can collide
    // with one already in a dependency set.
    (0u8..10, 0u64..6, 0u64..6, 0u32..4).prop_map(|(kind, a, b, v)| match kind {
        0..=6 => Step::Dep(a, b),
        7 => Step::Freeze(a),
        8 => Step::Forget(a),
        _ => Step::SetVersion(a, v),
    })
}

/// Replays a dependency stream, building the versioned edge set the
/// storage layer would persist, then checks it for cycles.
fn versioned_graph_is_acyclic(stream: &[(NodeId, NodeId)]) -> bool {
    let mut an = CycleAvoidance::new();
    // Edges between (node, version) pairs, in dependency direction
    // target@tv -> source@sv, plus implicit version edges
    // n@v -> n@v-1.
    let mut edges: HashSet<((NodeId, u32), (NodeId, u32))> = HashSet::new();
    let mut max_version: HashMap<NodeId, u32> = HashMap::new();
    for &(target, source) in stream {
        let out = an.add_dependency(target, source);
        if out.duplicate {
            continue;
        }
        let tv = out.target_version;
        let sv = out.source_version;
        edges.insert(((target, tv), (source, sv)));
        max_version.insert(target, tv.max(*max_version.get(&target).unwrap_or(&0)));
        max_version.insert(source, sv.max(*max_version.get(&source).unwrap_or(&0)));
    }
    for (&n, &maxv) in &max_version {
        for v in 1..=maxv {
            edges.insert(((n, v), (n, v - 1)));
        }
    }
    // Kahn's algorithm over the versioned nodes.
    let mut nodes: HashSet<(NodeId, u32)> = HashSet::new();
    for &(a, b) in &edges {
        nodes.insert(a);
        nodes.insert(b);
    }
    let mut indeg: HashMap<(NodeId, u32), usize> = nodes.iter().map(|&n| (n, 0)).collect();
    let mut adj: HashMap<(NodeId, u32), Vec<(NodeId, u32)>> = HashMap::new();
    for &(a, b) in &edges {
        adj.entry(a).or_default().push(b);
        *indeg.get_mut(&b).unwrap() += 1;
    }
    let mut queue: Vec<(NodeId, u32)> = indeg
        .iter()
        .filter(|(_, d)| **d == 0)
        .map(|(n, _)| *n)
        .collect();
    let mut visited = 0;
    while let Some(n) = queue.pop() {
        visited += 1;
        if let Some(next) = adj.get(&n) {
            for &m in next {
                let d = indeg.get_mut(&m).unwrap();
                *d -= 1;
                if *d == 0 {
                    queue.push(m);
                }
            }
        }
    }
    visited == nodes.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cycle avoidance: the versioned provenance graph is a DAG for
    /// every stream over a small id space (small spaces maximize
    /// collision/cycle pressure).
    #[test]
    fn cycle_avoidance_keeps_versioned_graph_acyclic(
        stream in proptest::collection::vec((0u64..8, 0u64..8), 1..300)
    ) {
        let stream: Vec<(NodeId, NodeId)> = stream;
        prop_assert!(versioned_graph_is_acyclic(&stream));
    }

    /// Duplicate elimination is idempotent: replaying the same edge
    /// immediately is always suppressed.
    #[test]
    fn immediate_replay_is_duplicate(
        stream in proptest::collection::vec((0u64..6, 0u64..6), 1..100)
    ) {
        let mut an = CycleAvoidance::new();
        for (t, s) in stream {
            if t == s {
                continue;
            }
            let first = an.add_dependency(t, s);
            let again = an.add_dependency(t, s);
            // Replay can never freeze and is always a duplicate —
            // unless the first call froze the target (new version,
            // fresh set), in which case the second absorbs it.
            if first.frozen.is_none() {
                prop_assert!(again.duplicate);
            } else {
                prop_assert!(again.duplicate || again.frozen.is_none());
            }
        }
    }

    /// The restructured `add_dependency` decides exactly as the old
    /// body did: every `DepOutcome` equal step by step, on streams
    /// with self-edges, explicit freezes, forgotten nodes and forced
    /// versions; and the same counters, tracked nodes, versions and
    /// dependency sets at the end.
    #[test]
    fn restructured_add_dependency_matches_the_old_body(
        steps in proptest::collection::vec(step(), 1..400)
    ) {
        let mut new = CycleAvoidance::new();
        let mut old = ReferenceAnalyzer::default();
        for (i, s) in steps.iter().enumerate() {
            match *s {
                Step::Dep(t, src) => {
                    let (got, want) = (new.add_dependency(t, src), old.add_dependency(t, src));
                    prop_assert!(
                        got == want,
                        "step {i} {s:?}: restructured {got:?}, old body {want:?}"
                    );
                }
                Step::Freeze(n) => prop_assert_eq!(new.freeze(n), old.freeze(n)),
                Step::Forget(n) => {
                    new.forget(n);
                    old.forget(n);
                }
                Step::SetVersion(n, v) => {
                    new.set_version(n, v);
                    old.set_version(n, v);
                }
            }
        }
        prop_assert_eq!(new.stats(), old.stats);
        prop_assert_eq!(new.len(), old.nodes.len());
        for (n, state) in &old.nodes {
            prop_assert_eq!(new.version(*n), state.version);
            prop_assert_eq!(new.dep_set_size(*n), state.deps.len());
            for (src, v) in &state.deps {
                prop_assert!(new.depends_on(*n, *src, *v));
            }
        }
    }

    /// Versions only move forward.
    #[test]
    fn versions_are_monotonic(
        stream in proptest::collection::vec((0u64..6, 0u64..6), 1..200)
    ) {
        let mut an = CycleAvoidance::new();
        let mut last: HashMap<NodeId, u32> = HashMap::new();
        for (t, s) in stream {
            an.add_dependency(t, s);
            for n in [t, s] {
                let v = an.version(n);
                let prev = last.insert(n, v).unwrap_or(0);
                prop_assert!(v >= prev, "version of {n} went backwards");
            }
        }
    }
}
