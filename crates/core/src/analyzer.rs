//! The analyzer: duplicate elimination and cycle avoidance.
//!
//! Programs perform I/O in small blocks, so most provenance records
//! the observer emits are identical to one already recorded; the
//! analyzer drops those duplicates. Cycles can occur when multiple
//! processes concurrently read and write the same files; PASSv2 uses
//! the conservative *cycle-avoidance* algorithm (from the
//! Causality-Based Versioning work) that consults only an object's
//! local dependency information and prevents cycles by creating new
//! versions, rather than the PASSv1 approach of maintaining a global
//! dependency graph and merging the nodes of detected cycles.

use dpapi::{IdMap, IdSet};

/// An analyzer-level object id. The observer assigns one per tracked
/// object (file, process, pipe, or application object).
pub type NodeId = u64;

/// What the analyzer decided about one new dependency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DepOutcome {
    /// The record duplicates one already absorbed: suppress it.
    pub duplicate: bool,
    /// The *target* had to be frozen (new version) before the edge
    /// could be added; the caller must emit a FREEZE record. The
    /// value is the target's new version.
    pub frozen: Option<u32>,
    /// The target's version after the operation.
    pub target_version: u32,
    /// The source's version captured by the edge.
    pub source_version: u32,
}

#[derive(Debug, Default, Clone)]
struct NodeState {
    version: u32,
    /// Direct dependencies absorbed by the *current* version, for
    /// duplicate elimination within the version interval.
    deps: IdSet<(NodeId, u32)>,
    /// Whether the current version has been observed (used as an
    /// input by anyone) since it was created. A write to an observed
    /// object must open a new version: the old one is already inside
    /// other objects' ancestries and may not change.
    observed: bool,
}

/// Running totals for analyzer decisions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalyzerStats {
    /// Dependencies presented by the observer.
    pub presented: u64,
    /// Duplicates suppressed.
    pub duplicates: u64,
    /// Freezes (version bumps) forced to avoid cycles.
    pub freezes: u64,
}

/// The cycle-avoidance analyzer used by PASSv2.
#[derive(Debug, Default)]
pub struct CycleAvoidance {
    nodes: IdMap<NodeId, NodeState>,
    stats: AnalyzerStats,
}

impl CycleAvoidance {
    /// Creates an empty analyzer.
    pub fn new() -> Self {
        CycleAvoidance::default()
    }

    /// Statistics so far.
    pub fn stats(&self) -> AnalyzerStats {
        self.stats
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes are tracked.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current version of `node` (0 if untracked).
    pub fn version(&self, node: NodeId) -> u32 {
        self.nodes.get(&node).map(|n| n.version).unwrap_or(0)
    }

    /// Forces `node`'s version (used to mirror a volume-assigned
    /// version when a file is first seen).
    pub fn set_version(&mut self, node: NodeId, version: u32) {
        self.nodes.entry(node).or_default().version = version;
    }

    /// Records that `target` now depends on `source` ("`source` is an
    /// input to `target`"), returning what to do about it.
    ///
    /// The discipline is the Causality-Based-Versioning interval
    /// rule, using only local per-object state:
    ///
    /// * **Cycle avoidance**: if `target`'s current version has been
    ///   *observed* — absorbed as an input by any object since the
    ///   version opened — the new input must open a fresh version
    ///   (freeze). An observed version therefore never gains
    ///   out-edges after its first in-edge, which makes cycles
    ///   impossible among `(object, version)` pairs.
    /// * **Duplicate elimination**: within one version interval, a
    ///   repeated `source@version` input is suppressed.
    ///
    /// This runs once per observed read, write, fork and exec, so it
    /// probes the table as little as it can: the source once to read
    /// its version, the target once for everything else, and the
    /// source a second time only when this edge is the first to
    /// observe its current version.
    pub fn add_dependency(&mut self, target: NodeId, source: NodeId) -> DepOutcome {
        self.stats.presented += 1;
        let (source_version, source_observed) = match self.nodes.get(&source) {
            Some(s) => (s.version, s.observed),
            None => (0, false),
        };
        let t = self.nodes.entry(target).or_default();
        // Freeze first: writing to an observed (or self) object opens
        // a new version with a fresh dedup interval.
        let frozen = if target == source || t.observed {
            t.version += 1;
            t.observed = false;
            t.deps.clear();
            self.stats.freezes += 1;
            Some(t.version)
        } else {
            None
        };
        // Duplicate check within the (possibly fresh) interval. A
        // duplicate leaves the source as it was, absent or unobserved
        // included: it may have been forgotten, or had its version
        // forced back, since the edge was first recorded.
        let duplicate = !t.deps.insert((source, source_version));
        let target_version = t.version;
        if duplicate {
            self.stats.duplicates += 1;
        } else if target == source {
            t.observed = true;
        } else if !source_observed {
            self.nodes.entry(source).or_default().observed = true;
        }
        DepOutcome {
            duplicate,
            frozen,
            target_version,
            source_version,
        }
    }

    /// Explicitly freezes `node` (application-requested
    /// `pass_freeze`), returning the new version and opening a fresh
    /// dedup interval.
    pub fn freeze(&mut self, node: NodeId) -> u32 {
        let n = self.nodes.entry(node).or_default();
        n.version += 1;
        n.observed = false;
        n.deps.clear();
        self.stats.freezes += 1;
        n.version
    }

    /// Discards a node (process exit, inode dropped). Its id is never
    /// reused, so stale references in other sets stay harmless.
    pub fn forget(&mut self, node: NodeId) {
        self.nodes.remove(&node);
    }

    /// True if `target`'s current-version set contains
    /// `source@version` (test/inspection helper).
    pub fn depends_on(&self, target: NodeId, source: NodeId, version: u32) -> bool {
        self.nodes
            .get(&target)
            .map(|t| t.deps.contains(&(source, version)))
            .unwrap_or(false)
    }

    /// Size of a node's dependency set (inspection helper).
    pub fn dep_set_size(&self, node: NodeId) -> usize {
        self.nodes.get(&node).map(|n| n.deps.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = 1;
    const B: NodeId = 2;
    const P: NodeId = 10;
    const Q: NodeId = 11;

    #[test]
    fn duplicates_are_suppressed() {
        let mut an = CycleAvoidance::new();
        let first = an.add_dependency(P, A);
        assert!(!first.duplicate);
        for _ in 0..100 {
            assert!(an.add_dependency(P, A).duplicate);
        }
        let s = an.stats();
        assert_eq!(s.presented, 101);
        assert_eq!(s.duplicates, 100);
        assert_eq!(s.freezes, 0);
    }

    #[test]
    fn read_then_write_freezes_the_file() {
        // P reads A, then P writes A: without a freeze, A ← P ← A is
        // a cycle. The analyzer bumps A instead.
        let mut an = CycleAvoidance::new();
        an.add_dependency(P, A); // P depends on A@0
        let w = an.add_dependency(A, P);
        assert_eq!(w.frozen, Some(1));
        assert_eq!(w.target_version, 1);
        assert!(!w.duplicate);
        // A@1 depends on P@0; P depends on A@0. No cycle.
        assert!(an.depends_on(A, P, 0));
    }

    #[test]
    fn write_without_prior_read_needs_no_freeze() {
        let mut an = CycleAvoidance::new();
        let w = an.add_dependency(A, P);
        assert_eq!(w.frozen, None);
        assert_eq!(w.target_version, 0);
    }

    #[test]
    fn two_process_two_file_cycle_is_avoided() {
        // P reads A, writes B; Q reads B, writes A. The final write
        // would close A→Q→B→P→A; the transitive dependency sets catch
        // it and freeze A.
        let mut an = CycleAvoidance::new();
        an.add_dependency(P, A); // P ← A
        an.add_dependency(B, P); // B ← P (B absorbs P's set {A@0})
        an.add_dependency(Q, B); // Q ← B (Q absorbs {B@0, P@0, A@0})
        let w = an.add_dependency(A, Q);
        assert_eq!(w.frozen, Some(1), "cycle must be broken by freezing A");
    }

    #[test]
    fn version_capture_in_edges() {
        let mut an = CycleAvoidance::new();
        an.add_dependency(P, A);
        an.freeze(A);
        let out = an.add_dependency(Q, A);
        assert_eq!(out.source_version, 1);
        // Q depends on A@1, not A@0.
        assert!(an.depends_on(Q, A, 1));
        assert!(!an.depends_on(Q, A, 0));
    }

    #[test]
    fn rereading_after_freeze_is_not_a_duplicate() {
        let mut an = CycleAvoidance::new();
        an.add_dependency(P, A); // A@0
        an.freeze(A); // A@1
        let out = an.add_dependency(P, A);
        assert!(!out.duplicate, "new version means a new dependency");
        assert_eq!(out.source_version, 1);
    }

    #[test]
    fn freeze_opens_a_fresh_interval() {
        // A freeze starts a new version with a fresh dedup interval:
        // the same input is recorded again for the new version.
        let mut an = CycleAvoidance::new();
        an.add_dependency(A, P);
        assert_eq!(an.dep_set_size(A), 1);
        an.freeze(A);
        assert_eq!(an.dep_set_size(A), 0);
        let out = an.add_dependency(A, P);
        assert!(!out.duplicate, "new interval, new record");
        assert_eq!(out.target_version, 1);
    }

    #[test]
    fn write_after_observation_freezes() {
        // The interval rule: once A's current version has been used
        // as an input (observed), a later write to A opens a new
        // version — the staleness case that broke the transitive-set
        // formulation (found by property testing).
        let mut an = CycleAvoidance::new();
        an.add_dependency(P, A); // A observed
        an.add_dependency(Q, B); // B observed
        let out = an.add_dependency(A, Q);
        assert_eq!(out.frozen, Some(1), "A was observed; write must version");
        let out = an.add_dependency(B, P);
        assert_eq!(out.frozen, Some(1), "B was observed; write must version");
        // Writes to never-observed objects stay version 0.
        let out = an.add_dependency(50, P);
        assert_eq!(out.frozen, None);
    }

    #[test]
    fn self_dependency_then_inverse_edge_stays_acyclic() {
        // The minimal counterexample that caught the set-clearing bug:
        // B←A, B←B (self, forces freeze), then A←B.
        let mut an = CycleAvoidance::new();
        an.add_dependency(B, A);
        let out = an.add_dependency(B, B);
        assert!(out.frozen.is_some());
        let out = an.add_dependency(A, B);
        assert_eq!(
            out.frozen,
            Some(1),
            "A must be frozen: B@1 still reaches A@0 through B@0"
        );
    }

    #[test]
    fn forget_drops_state() {
        let mut an = CycleAvoidance::new();
        an.add_dependency(P, A);
        // Both the target and the (observed) source are tracked.
        assert_eq!(an.len(), 2);
        an.forget(P);
        an.forget(A);
        assert!(an.is_empty());
        assert_eq!(an.version(P), 0);
    }

    #[test]
    fn set_version_mirrors_volume_state() {
        let mut an = CycleAvoidance::new();
        an.set_version(A, 7);
        let out = an.add_dependency(P, A);
        assert_eq!(out.source_version, 7);
    }

    #[test]
    fn shell_pipeline_chain_stays_acyclic() {
        // cat f | grep | sort > f  — the classic same-file pipeline.
        let mut an = CycleAvoidance::new();
        let (f, cat, pipe1, grep, pipe2, sort) = (1, 2, 3, 4, 5, 6);
        an.add_dependency(cat, f);
        an.add_dependency(pipe1, cat);
        an.add_dependency(grep, pipe1);
        an.add_dependency(pipe2, grep);
        an.add_dependency(sort, pipe2);
        let w = an.add_dependency(f, sort);
        assert_eq!(w.frozen, Some(1), "writing back to f must freeze it");
    }
}
