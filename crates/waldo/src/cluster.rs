//! The multi-daemon fan-in ingest tier: N Waldo daemons, one graph.
//!
//! The paper's layering argument makes Waldo *just another consumer*
//! of the DPAPI stream — so nothing stops several Waldo daemons from
//! each consuming their own distinct volumes. This module turns that
//! observation into a subsystem:
//!
//! * **routing** — [`route_volume`] deterministically assigns every
//!   [`VolumeId`] to one of N members (a stable splitmix hash, like
//!   the store's pnode→shard routing): the same volume always lands
//!   on the same member, across polls, restarts and processes.
//!   [`Cluster::routing_table`] materializes the assignment for a
//!   concrete volume set;
//! * **fan-in** — each member ingests its routed volumes' rotated
//!   logs into its own [`Store`] (with its own durable home,
//!   checkpoint policy and WAL — the whole PR 2 machinery, per
//!   member). PR 4's volume-salted batch ids
//!   ([`lasagna::batch_txn_id`]) make the member stores alias-free,
//!   so [`Cluster::merged_store`] consolidates them with
//!   [`Store::merge`] into one graph byte-equivalent (under
//!   [`Store::segment_images`]'s normalization) to a single daemon
//!   that ingested every volume itself;
//! * **scatter-gather reads** — [`ClusterGraphSource`] implements
//!   [`pql::GraphSource`] directly over the member stores, so
//!   [`Cluster::query`] runs the planned, index-backed PQL pipeline
//!   *without* materializing a merged store: subject-side state
//!   (attributes, ancestry inputs) routes to the owning member,
//!   reverse edges and index lookups scatter to every member and
//!   merge, and forward closures reuse each member's memoized
//!   closure cache, re-expanding only at cross-volume hops.
//!
//! What stays per member: replay marks, WAL, checkpoints, retained
//! logs. What is cluster-wide: routing, the merged/scattered read
//! view, and the rolled-up counters ([`IngestStats`]/
//! [`crate::QueryOps`] implement `AddAssign`/`Sum` for exactly this).

use std::collections::{BTreeMap, HashSet};

use dpapi::{ObjectRef, Value, VolumeId};
use pql::{AttrLookup, AttrPredicate, EdgeLabel, GraphSource, OutValue};
use sim_os::fs::FsError;
use sim_os::proc::MountId;
use sim_os::syscall::Kernel;

use crate::daemon::{QueryOps, Waldo};
use crate::db::IngestStats;
use crate::store::{MergeError, Store};

/// Selects nothing: a [`Cluster`] has one ingest sweep (each volume's
/// [`Waldo::poll_volume`] on its routed member, on the calling
/// thread). The enum survives only because the frozen `ledger/`
/// benchmark names both variants; it goes with the next `[benchmark]`
/// PR.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClusterRuntime {
    /// The one sweep.
    #[default]
    Sequential,
    /// Formerly a sweep on member threads, which the wall clock showed
    /// losing to this one (DESIGN.md "Single-owner store"); now the same
    /// sweep.
    Threaded,
}

/// Formerly one member's wall-clock share of a threaded sweep. Nothing
/// constructs it any more; it goes with [`ClusterRuntime`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemberTiming {
    /// Member index.
    pub member: usize,
    /// Volumes the member drained this sweep.
    pub volumes: usize,
    /// Log images the member ingested this sweep.
    pub images: usize,
    /// Wall-clock nanoseconds the member's ingest ran.
    pub wall_ns: u64,
}

/// One member's failure during a cluster-wide sweep: which member
/// broke (so an operator can repair exactly that durable home) and
/// the underlying [`FsError`] — the same shape as the core crate's
/// `ClusterRestartError`, for the same reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterMemberError {
    /// Index of the member that failed.
    pub member: usize,
    /// What went wrong on that member's durable home.
    pub source: FsError,
}

impl std::fmt::Display for ClusterMemberError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "member {}: {}", self.member, self.source)
    }
}

impl std::error::Error for ClusterMemberError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Why [`Cluster::checkpoint_all`] could not publish everywhere.
///
/// Unlike a first-error-wins `?`, the sweep visits *every* member, so
/// the error carries the complete failure set plus how many members
/// still published — one bad durable home does not hide the others'
/// outcomes, and the operator gets the full repair list in one pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterCheckpointError {
    /// Members that published a checkpoint despite the failures.
    pub published: usize,
    /// Every member that failed, in member-index order. Never empty.
    pub failures: Vec<ClusterMemberError>,
}

impl std::fmt::Display for ClusterCheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cluster checkpoint failed on {} member(s) ({} published): ",
            self.failures.len(),
            self.published
        )?;
        for (i, e) in self.failures.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ClusterCheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.failures
            .first()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

/// One volume's share of a [`Cluster::poll_volumes_report`] sweep:
/// where it routed, what it ingested, and whether its member's WAL
/// complained while it was being drained.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VolumePoll {
    /// Member index the volume routed to.
    pub member: usize,
    /// The volume that was polled.
    pub volume: VolumeId,
    /// Ingest counters for this volume's drain alone.
    pub stats: IngestStats,
    /// WAL persist failures on the routed member *during this poll*
    /// (delta of [`Waldo::wal_errors`]) — ingest itself never fails,
    /// so this is the per-volume durability signal.
    pub wal_errors: u64,
    /// Rotated logs the member could not read *during this poll*
    /// (delta of [`Waldo::logs_unreadable`]); each is retried at the
    /// head of the member's next drain.
    pub logs_unreadable: u64,
}

/// The per-volume breakdown of a cluster ingest sweep.
///
/// [`Cluster::poll_volumes`] rolls everything into one
/// [`IngestStats`]; this report keeps the member/volume attribution
/// so a sweep that went wrong says *where* — the ingest-side
/// counterpart of [`ClusterCheckpointError`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterPollReport {
    /// The rolled-up stats, identical to what
    /// [`Cluster::poll_volumes`] returns for the same sweep.
    pub total: IngestStats,
    /// One entry per polled volume, in the caller's volume order.
    pub per_volume: Vec<VolumePoll>,
    /// Always empty: the field the frozen `ledger/` benchmark reads,
    /// kept until the next `[benchmark]` PR (see [`ClusterRuntime`]).
    pub member_timings: Vec<MemberTiming>,
    /// The health-rule verdicts for the fleet's metric snapshot taken
    /// right after this sweep ([`provscope::health::standard_rules`]).
    pub health: provscope::HealthReport,
}

impl ClusterPollReport {
    /// The polls that hit trouble: a WAL persist failure, a log that
    /// could not be read, or a log tail cut short by truncation or
    /// corruption. Fleet-level health verdicts (rules over the metric
    /// snapshot, not tied to one volume) are in
    /// [`ClusterPollReport::health`].
    pub fn issues(&self) -> Vec<&VolumePoll> {
        self.per_volume
            .iter()
            .filter(|p| {
                p.wal_errors > 0
                    || p.logs_unreadable > 0
                    || p.stats.tails_truncated > 0
                    || p.stats.tails_corrupt > 0
            })
            .collect()
    }

    /// True when the sweep was clean end to end: no per-volume issue
    /// and no health-rule violation.
    pub fn healthy(&self) -> bool {
        self.issues().is_empty() && self.health.healthy()
    }
}

/// The member a volume's logs are routed to, out of `members`.
///
/// Stable splitmix64 over the volume id (deliberately not `std`'s
/// `RandomState`, which would give every process its own routing):
/// the same `(volume, members)` pair maps to the same member forever,
/// which is what lets [`Cluster`] restart members independently and
/// still find each volume's replay state on the daemon that owns it.
/// Changing the member count re-routes volumes — a cluster must be
/// restarted at the size it ran at.
pub fn route_volume(volume: VolumeId, members: usize) -> usize {
    assert!(members > 0, "a cluster has at least one member");
    (crate::store::splitmix64(u64::from(volume.0)) % members as u64) as usize
}

/// A fleet of Waldo daemons, each consuming its own distinct volumes,
/// presented as one queryable provenance graph.
pub struct Cluster {
    members: Vec<Waldo>,
    /// Cumulative counters for queries served through
    /// [`Cluster::query`] (scatter-gather, not attributable to any
    /// single member).
    query_ops: QueryOps,
    scope: provscope::Scope,
    /// Rules every [`Cluster::poll_volumes_report`] sweep evaluates
    /// against the fleet's metric snapshot.
    health_rules: Vec<provscope::HealthRule>,
}

impl Cluster {
    /// Assembles a cluster from already-spawned members (see
    /// `System::spawn_cluster` in the core crate for the usual
    /// wiring). Panics on an empty member list.
    pub fn new(members: Vec<Waldo>) -> Cluster {
        assert!(!members.is_empty(), "a cluster has at least one member");
        Cluster {
            members,
            query_ops: QueryOps::default(),
            scope: provscope::Scope::default(),
            health_rules: provscope::health::standard_rules(),
        }
    }

    /// Does nothing (see [`ClusterRuntime`]); kept for the frozen
    /// `ledger/` benchmark, which calls it.
    pub fn set_runtime(&mut self, _runtime: ClusterRuntime) {}

    /// Attaches a tracing scope to the cluster *and every member*, so
    /// one scope sees the whole fleet's ingest and query spans on the
    /// shared virtual clock.
    pub fn set_scope(&mut self, scope: provscope::Scope) {
        for m in &mut self.members {
            m.set_scope(scope.clone());
        }
        self.scope = scope;
    }

    /// Number of member daemons.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always false — [`Cluster::new`] rejects empty member lists.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member daemons, in member-index order.
    pub fn members(&self) -> &[Waldo] {
        &self.members
    }

    /// One member daemon.
    pub fn member(&self, i: usize) -> &Waldo {
        &self.members[i]
    }

    /// One member daemon, mutably (e.g. to drive a manual checkpoint).
    pub fn member_mut(&mut self, i: usize) -> &mut Waldo {
        &mut self.members[i]
    }

    /// The member index `volume` routes to ([`route_volume`] at this
    /// cluster's size).
    pub fn route(&self, volume: VolumeId) -> usize {
        route_volume(volume, self.members.len())
    }

    /// Materializes the volume→member routing table for a concrete
    /// volume set — for operators and the routing-stability tests;
    /// ingest itself routes each volume on the fly.
    pub fn routing_table(
        &self,
        volumes: impl IntoIterator<Item = VolumeId>,
    ) -> BTreeMap<VolumeId, usize> {
        volumes.into_iter().map(|v| (v, self.route(v))).collect()
    }

    /// Polls one volume for rotated logs on the member it routes to.
    pub fn poll_volume(
        &mut self,
        kernel: &mut Kernel,
        mount: MountId,
        mount_path: &str,
        volume: VolumeId,
    ) -> IngestStats {
        let m = self.route(volume);
        self.members[m].poll_volume(kernel, mount, mount_path)
    }

    /// Polls every volume on its routed member — the cluster's ingest
    /// sweep, drop-in for a single daemon polling the same list — and
    /// returns the rolled-up stats. See
    /// [`Cluster::poll_volumes_report`] to keep the per-volume
    /// member attribution instead of the roll-up alone.
    pub fn poll_volumes(
        &mut self,
        kernel: &mut Kernel,
        volumes: &[(String, MountId, VolumeId)],
    ) -> IngestStats {
        self.poll_volumes_report(kernel, volumes).total
    }

    /// [`Cluster::poll_volumes`], keeping the per-volume breakdown:
    /// which member each volume drained on, its individual
    /// [`IngestStats`], and whether that member's WAL failed while
    /// draining it — so a sweep that went wrong says *where* instead
    /// of dissolving the signal into the roll-up.
    pub fn poll_volumes_report(
        &mut self,
        kernel: &mut Kernel,
        volumes: &[(String, MountId, VolumeId)],
    ) -> ClusterPollReport {
        let mut report = ClusterPollReport::default();
        for (path, mount, volume) in volumes {
            let member = self.route(*volume);
            let daemon = &mut self.members[member];
            let (wal_before, unreadable_before) = (daemon.wal_errors(), daemon.logs_unreadable());
            let stats = daemon.poll_volume(kernel, *mount, path);
            report.total += stats;
            report.per_volume.push(VolumePoll {
                member,
                volume: *volume,
                stats,
                wal_errors: daemon.wal_errors() - wal_before,
                logs_unreadable: daemon.logs_unreadable() - unreadable_before,
            });
        }
        // Evaluate the health rules over the post-sweep snapshot: the
        // fleet's counters plus the tracing scope's flight-recorder
        // gauges (spans shed, trees evicted).
        let mut reg = provscope::Registry::new();
        self.record_metrics(&mut reg);
        self.scope.export_metrics(&mut reg);
        report.health = provscope::health::evaluate(&self.health_rules, &reg);
        report
    }

    /// Publishes a checkpoint on every member that has something new
    /// (each against its own durable home — the PR 2 machinery, per
    /// member). Returns how many members published.
    ///
    /// The sweep visits **every** member even when one fails: a bad
    /// durable home on member 2 must not leave members 3..N
    /// unpublished (their checkpoints are independent), and the
    /// [`ClusterCheckpointError`] carries the complete
    /// member-attributed failure list rather than the first error
    /// alone.
    pub fn checkpoint_all(&mut self, kernel: &mut Kernel) -> Result<usize, ClusterCheckpointError> {
        let mut published = 0;
        let mut failures = Vec::new();
        for (member, m) in self.members.iter_mut().enumerate() {
            match m.checkpoint(kernel) {
                Ok(true) => published += 1,
                Ok(false) => {}
                Err(source) => failures.push(ClusterMemberError { member, source }),
            }
        }
        if failures.is_empty() {
            Ok(published)
        } else {
            Err(ClusterCheckpointError {
                published,
                failures,
            })
        }
    }

    /// Consolidates the member stores into one store via
    /// [`Store::merge`] — the materialized fan-in path, for consumers
    /// that want a self-contained graph (exports, handoff to a single
    /// daemon). Queries that only need answers should prefer
    /// [`Cluster::query`], which scatter-gathers without the copy.
    /// Panics if the members are not mergeable (see
    /// [`Cluster::try_merged_store`] for the error-returning form).
    pub fn merged_store(&self) -> Store {
        self.try_merged_store()
            .expect("cluster members share a config and close their streams before a merge")
    }

    /// [`Cluster::merged_store`], surfacing merge preconditions as a
    /// typed [`MergeError`] instead of panicking — for callers (the
    /// fault harness, operators with forged streams) for whom an
    /// unmergeable member is an outcome to classify, not a bug.
    pub fn try_merged_store(&self) -> Result<Store, MergeError> {
        let mut merged = Store::with_config(self.members[0].db.config());
        for m in &self.members {
            merged.merge(&m.db)?;
        }
        Ok(merged)
    }

    /// The member stores as one scatter-gather [`pql::GraphSource`].
    pub fn graph(&self) -> ClusterGraphSource<'_> {
        ClusterGraphSource::new(self.members.iter().map(|m| &m.db).collect())
    }

    /// Serves one PQL query over the whole cluster through the
    /// planned, index-backed pipeline, scatter-gathering reads across
    /// members instead of materializing a merged store. Planner
    /// counters accumulate into [`Cluster::query_ops`].
    pub fn query(&mut self, text: &str) -> Result<pql::QueryOutput, pql::PqlError> {
        let span = self.scope.open("waldo", "query");
        let out = pql::query_traced(text, &self.graph(), &self.scope);
        self.scope.close(span);
        let out = out?;
        self.query_ops.queries += 1;
        self.query_ops.planner += out.stats;
        Ok(out)
    }

    /// Cumulative scatter-gather query counters for this cluster's
    /// lifetime. Per-member counters (for queries sent directly to a
    /// member) roll up separately: `cluster.members().iter().map(|m|
    /// m.query_ops()).sum()`.
    pub fn query_ops(&self) -> QueryOps {
        self.query_ops
    }

    /// Records the fleet's counters into `reg`: the scatter-gather
    /// query counters under `cluster.query.` and every member's
    /// daemon counters under `member<i>.` — the per-member labels
    /// that make one registry legible for an N-daemon tier.
    pub fn record_metrics(&self, reg: &mut provscope::Registry) {
        reg.absorb("cluster.query.", &self.query_ops);
        for (i, m) in self.members.iter().enumerate() {
            reg.absorb(&format!("member{i}."), m);
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("members", &self.members.len())
            .field(
                "objects",
                &self
                    .members
                    .iter()
                    .map(|m| m.db.object_count())
                    .sum::<usize>(),
            )
            .finish()
    }
}

/// N member stores presented as one [`pql::GraphSource`] — the second
/// production graph source (after [`Store`] itself), and the read
/// side of the fan-in tier.
///
/// Routing mirrors where ingest put the data:
///
/// * *subject-side* state — attributes, ancestry inputs (out-edges) —
///   lives wholly in the member the subject's volume routes to, so
///   [`GraphSource::attr`] and [`GraphSource::out_edges`] are single
///   point lookups;
/// * *reverse* edges land in the shard of the **ancestor's** pnode in
///   the member that ingested the *descendant's* volume, so one
///   node's in-edges may be scattered across every member:
///   [`GraphSource::in_edges`] gathers and sorts them (each concrete
///   edge originates from exactly one descendant's volume, so the
///   union has no cross-member duplicates to collapse);
/// * class scans and index lookups scatter to every member and merge
///   in sorted order — members hold disjoint pnode sets, so a merge
///   is a sort, and the result honors the `class_members` sorted
///   contract and matches a single merged store's answer row for row;
/// * forward closures run member-at-a-time: a member's own memoized
///   [`GraphSource::closure`] answers everything reachable within its
///   volumes, and only nodes homed on *other* members re-expand there
///   — so the cross-member BFS pays one member-closure call per
///   volume hop instead of one scatter per node. Inverse closures
///   fall back to a per-node BFS over the scattered in-edges, which
///   no single member can answer alone.
pub struct ClusterGraphSource<'a> {
    stores: Vec<&'a Store>,
}

impl<'a> ClusterGraphSource<'a> {
    /// Wraps member stores in member-index order (routing depends on
    /// the order matching the ingest cluster's). Panics if empty.
    pub fn new(stores: Vec<&'a Store>) -> ClusterGraphSource<'a> {
        assert!(!stores.is_empty(), "a cluster has at least one member");
        ClusterGraphSource { stores }
    }

    /// The member store `volume`'s subject-side state lives in.
    fn routed(&self, volume: VolumeId) -> &'a Store {
        self.stores[route_volume(volume, self.stores.len())]
    }
}

impl GraphSource for ClusterGraphSource<'_> {
    fn class_members(&self, class: &str) -> Vec<ObjectRef> {
        let mut out: Vec<ObjectRef> = self
            .stores
            .iter()
            .flat_map(|s| s.class_members(class))
            .collect();
        out.sort();
        out
    }

    fn attr(&self, node: ObjectRef, name: &str) -> Option<Value> {
        self.routed(node.pnode.volume).attr(node, name)
    }

    /// Each run of nodes routed to one member is that member's column
    /// read, so the cells share its interned strings.
    fn attr_column(&self, nodes: &[ObjectRef], name: &str, out: &mut Vec<OutValue>) {
        let member = |n: &ObjectRef| route_volume(n.pnode.volume, self.stores.len());
        for run in nodes.chunk_by(|a, b| member(a) == member(b)) {
            self.stores[member(&run[0])].attr_column(run, name, out);
        }
    }

    fn out_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
        self.routed(node.pnode.volume).out_edges(node, label)
    }

    fn in_edges(&self, node: ObjectRef, label: &EdgeLabel) -> Vec<ObjectRef> {
        let mut out: Vec<ObjectRef> = self
            .stores
            .iter()
            .flat_map(|s| s.in_edges(node, label))
            .collect();
        // Merged arrival order is meaningless across members; sort so
        // the scatter is deterministic — at every fleet size,
        // including 1, so resizing a cluster never reorders rows. (A
        // single `Store` returns arrival order, which is likewise
        // unspecified to queries; single-hop inverse steps therefore
        // match the single-daemon reference as row *sets*, while
        // sorted-producing steps — closures, root bindings — match
        // row for row.) Genuine duplicate edges (one descendant
        // recording the same input twice) are preserved, exactly as a
        // single store preserves them.
        out.sort();
        out
    }

    fn closure(&self, node: ObjectRef, label: &EdgeLabel, inverse: bool) -> Vec<ObjectRef> {
        if self.stores.len() == 1 {
            return self.stores[0].closure(node, label, inverse);
        }
        if inverse {
            // Descendant edges are scattered: no member alone can
            // expand even one hop completely, so BFS per node over the
            // gathered in-edges.
            let mut seen: HashSet<ObjectRef> = HashSet::new();
            seen.insert(node);
            let mut out: Vec<ObjectRef> = Vec::new();
            let mut frontier = vec![node];
            while let Some(n) = frontier.pop() {
                for m in self.in_edges(n, label) {
                    if seen.insert(m) {
                        out.push(m);
                        frontier.push(m);
                    }
                }
            }
            out.sort();
            return out;
        }
        // Forward: a member's memoized closure is complete for every
        // node homed on it (ancestry inputs are subject-side); only
        // nodes homed elsewhere — cross-volume references — truncate
        // and must re-expand on their own member.
        let mut seen: HashSet<ObjectRef> = HashSet::new();
        seen.insert(node);
        let mut out: Vec<ObjectRef> = Vec::new();
        let mut frontier = vec![node];
        while let Some(n) = frontier.pop() {
            let home = route_volume(n.pnode.volume, self.stores.len());
            for m in self.stores[home].closure(n, label, false) {
                if seen.insert(m) {
                    out.push(m);
                    if route_volume(m.pnode.volume, self.stores.len()) != home {
                        frontier.push(m);
                    }
                }
            }
        }
        out.sort();
        out
    }

    fn lookup_attr(&self, class: &str, attr: &str, pred: &AttrPredicate) -> AttrLookup {
        let mut nodes: Vec<ObjectRef> = Vec::new();
        let mut indexed = true;
        for s in &self.stores {
            let l = s.lookup_attr(class, attr, pred);
            indexed &= l.indexed;
            nodes.extend(l.nodes);
        }
        nodes.sort();
        AttrLookup { nodes, indexed }
    }

    fn class_size(&self, class: &str) -> Option<usize> {
        self.stores.iter().map(|s| s.class_size(class)).sum()
    }
}
