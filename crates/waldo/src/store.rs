//! The sharded provenance store.
//!
//! [`Store`] is the facade over N independent pnode-hash
//! shards (`crate::shard`). It owns the three cross-shard concerns:
//!
//! * **routing** — a stable splitmix hash of `(volume, pnode number)`
//!   picks a shard; the same pnode routes to the same shard forever,
//!   independent of ingest order or batch boundaries;
//! * **staged, group-committed ingestion** — parsed log entries are
//!   staged, then applied in one atomic group per
//!   [`WaldoConfig::ingest_batch`] entries. A commit groups its
//!   entries by subject pnode and applies each run with one
//!   object-table lookup (the batched fast path), then routes reverse
//!   ancestry edges to their ancestors' shards. All durable state —
//!   shards, open-transaction buffers, per-log-file high-water marks —
//!   mutates only inside [`Store::commit_staged`], so a crash between
//!   commits loses exactly the staged suffix and a restarted consumer
//!   can replay a half-ingested log exactly once;
//! * **query caches** — transitive `ancestors`/`descendants` closures
//!   and per-node labelled edge lists are memoized in LRU caches
//!   validated against per-shard generation counters; a commit bumps
//!   only the shards it touched, so ingest invalidates precisely the
//!   cached results that read those shards.
//!
//! Queries that existed on the old single-map `ProvDb` keep their
//! exact semantics: point lookups route to one shard, index scans fan
//! out and merge in pnode order.
//!
//! # Concurrency
//!
//! The store is `Sync`: every method takes `&self`, and internal
//! locking is fine-grained so snapshot readers on other threads
//! proceed *during* commits. The lock hierarchy, outermost first:
//!
//! 1. **`meta` mutex** — all writer-owned bookkeeping (staging queue,
//!    open transactions, replay marks, the durability frame, scratch).
//!    Writers (`ingest`, `commit_staged`, `merge`) hold it for their
//!    whole operation, so writers serialize against each other — one
//!    daemon owns one store, so writer concurrency is not the point.
//! 2. **per-shard `RwLock`s** — object tables and indexes. Readers
//!    take brief per-shard read locks; a commit write-locks only the
//!    shards it touches, one at a time.
//! 3. **cache mutexes** — the memoized traversal caches.
//!
//! Per-shard locks alone would let a reader observe *half* of a
//! cross-shard transaction (subject effects applied on shard A,
//! reverse edges not yet on shard B). A store-wide **epoch seqlock**
//! closes that window: `epoch` is odd while a commit is mutating
//! shards, and multi-shard readers (`Store::read_consistent`) run
//! optimistically — wait for an even epoch, read with brief shard
//! locks, and retry if the epoch moved. After a bounded number of
//! retries a reader acquires `meta` (blocking new commits, and
//! waiting out the one in flight) for guaranteed progress. Commits
//! never block on readers beyond the per-shard lock handoff, and
//! readers between commits validate in two atomic loads.
//!
//! Per-shard **generations** are mirrored into atomics (`gens`) so
//! cache validation needs no shard lock. Traversals record the
//! generation of every shard *before* reading its content; a commit
//! racing the traversal therefore leaves the cached entry
//! self-invalidating (its recorded generation is stale the moment
//! the commit publishes), and the epoch retry discards the torn
//! result itself.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    LockResult, Mutex, MutexGuard, RwLock, RwLockWriteGuard, TryLockError, TryLockResult,
};
use std::time::Instant;

use dpapi::{Attribute, ObjectRef, Pnode, Version};
use lasagna::LogEntry;
use pql::EdgeLabel;

use crate::cache::{CacheStats, ShardSnapshot, TraversalCache};
use crate::contention::{AtomicHist, Contention, ContentionStats};
use crate::db::{DbSize, IngestStats, ObjectEntry};
use crate::delta::DeltaGroups;
use crate::shard::{ReverseEdge, Shard};

/// Tuning knobs for the storage engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaldoConfig {
    /// Number of hash shards. Normalized at construction — see
    /// [`WaldoConfig::effective_shards`] for the exact rule.
    pub shards: usize,
    /// Entries per group commit while draining logs. `1` reproduces
    /// the record-at-a-time daemon of the original system.
    pub ingest_batch: usize,
    /// Capacity of each query cache (ancestry closures and edge
    /// lists); `0` disables caching.
    pub ancestry_cache: usize,
    /// Publish a checkpoint every this many group commits (`0`
    /// disables the commit-count trigger). Checkpoints only happen on
    /// daemons with a database directory attached
    /// (`Waldo::attach_db_dir`); memory-only stores ignore this.
    pub checkpoint_commits: u64,
    /// Publish a checkpoint once the database WAL has grown past this
    /// many bytes since the last truncation (`0` disables the size
    /// trigger). This is the knob that bounds WAL growth.
    pub checkpoint_wal_bytes: u64,
    /// Complete checkpoints (manifest + segments) retained on disk,
    /// at least 1. With 2 (the default), a corrupted newest checkpoint
    /// falls back to its predecessor at the cost of retaining source
    /// logs until *two* checkpoints have covered them.
    pub keep_checkpoints: usize,
}

impl Default for WaldoConfig {
    fn default() -> WaldoConfig {
        WaldoConfig {
            shards: 8,
            ingest_batch: 64,
            ancestry_cache: 4096,
            checkpoint_commits: 32,
            checkpoint_wal_bytes: 64 * 1024,
            keep_checkpoints: 2,
        }
    }
}

impl WaldoConfig {
    /// The shard count a store built from this configuration actually
    /// uses: `shards.clamp(1, 64).next_power_of_two()`.
    ///
    /// The count is clamped to `1..=64` because shard membership must
    /// fit the caches' one-word bitmask (see
    /// [`crate::cache::ShardSnapshot`]), and rounded up to a power of
    /// two so routing is a mask instead of a modulo. Callers sizing
    /// fleets should call this instead of reading back
    /// [`WaldoConfig::shards`]: asking for 6 shards builds 8, asking
    /// for 100 builds 64.
    pub fn effective_shards(&self) -> usize {
        self.shards.clamp(1, 64).next_power_of_two().min(64)
    }
}

/// Why [`Store::merge`] refused to consolidate two stores. Every
/// variant is a *caller* error or evidence of tampering — the
/// volume-salted batch-id space makes collisions impossible between
/// honestly produced member stores — so fault-injection harnesses
/// treat a `MergeError` as the tamper being **detected** rather than
/// aborting the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// The two stores hash pnodes over different shard counts, so
    /// routing disagrees shard-for-shard.
    ShardCountMismatch {
        /// Effective shard count of the merge target.
        ours: usize,
        /// Effective shard count of the other store.
        theirs: usize,
    },
    /// The other store still holds staged-but-uncommitted items;
    /// silently dropping them would break the byte-equivalence oracle
    /// without a trace.
    UncommittedStaged {
        /// Number of staged items that would have been lost.
        count: usize,
    },
    /// Both stores buffer an open transaction under the same id —
    /// merging would interleave two transactions' records.
    TxnIdCollision {
        /// The colliding transaction id.
        id: u64,
    },
    /// Both stores are mid-commit (an open transaction at the very
    /// end of each committed stream). Only one open-commit marker can
    /// survive a merge, and dropping the other would route its
    /// untagged continuation records into the wrong transaction.
    BothMidCommit {
        /// The merge target's open-commit transaction id.
        ours: u64,
        /// The other store's open-commit transaction id.
        theirs: u64,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::ShardCountMismatch { ours, theirs } => write!(
                f,
                "Store::merge requires equal effective shard counts \
                 (routing must agree shard-for-shard): {ours} vs {theirs}"
            ),
            MergeError::UncommittedStaged { count } => write!(
                f,
                "merge consolidates committed state; commit {count} staged \
                 entries first"
            ),
            MergeError::TxnIdCollision { id } => write!(
                f,
                "open-transaction id {id:#x} collides in merge; batch ids \
                 are volume-salted, so two members may never share one"
            ),
            MergeError::BothMidCommit { ours, theirs } => write!(
                f,
                "both stores are mid-commit ({ours:#x} vs {theirs:#x}); \
                 merge after their streams' groups close"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// One staged item, waiting for the next group commit.
#[derive(Debug)]
enum Staged {
    /// A parsed entry, optionally tagged with the registered source
    /// file it was read from (for replay marks).
    Entry {
        entry: LogEntry,
        source: Option<usize>,
    },
    /// A log-image boundary: the open-transaction association resets
    /// here (transaction ids never span log images).
    StreamReset,
}

/// Where one to-be-applied entry lives during transaction routing:
/// in the caller's input slice, or in a buffer flushed out of a
/// completed transaction.
enum PlanItem {
    Input(usize),
    Flushed(usize),
}

/// Per-source-file replay bookkeeping.
#[derive(Clone, Debug)]
struct SourceFile {
    path: String,
    /// Entries of this file whose effects are durably committed (the
    /// replay high-water mark).
    committed_mark: usize,
}

/// Cache key for memoized ancestry closures: (pnode, version,
/// is_ancestors). Version is 0 for descendant queries, which are
/// per-pnode.
type AncestryKey = (Pnode, u32, bool);

/// Cache key for memoized edge lists: (node, label, is_outgoing).
type EdgeKey = (ObjectRef, EdgeLabel, bool);

/// What labels one edge [`Store::for_each_edge`] visits.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EdgeKind<'a> {
    /// A recorded ancestry record's attribute, borrowed from the shard.
    Recorded(&'a Attribute),
    /// The implicit edge between consecutive versions of one object.
    Version,
}

/// Writer-owned bookkeeping, all behind one mutex (level 1 of the
/// lock hierarchy). One daemon owns one store, so writers contending
/// here is the exception; what matters is that *readers* never need
/// this lock outside the bounded-retry fallback.
struct StoreMeta {
    /// Open provenance transactions (NFS chunked bundles). Committed
    /// state: mutated only during [`Store::commit_staged`].
    pending_txns: HashMap<u64, Vec<LogEntry>>,
    /// The transaction the committed prefix of the stream is inside,
    /// if any. Committed state, like `pending_txns`.
    commit_txn: Option<u64>,
    /// Per-volume replay high-water mark over the disclosure-batch
    /// sequence space ([`lasagna::batch_txn_id`]): the highest batch
    /// sequence each volume has *committed*. A batch-tagged TxnBegin
    /// at or below its volume's mark is a replayed (duplicated) group
    /// frame — Lasagna allocates sequences monotonically per volume —
    /// and its entries are skipped wholesale instead of applied
    /// twice. Committed state, checkpointed with the manifest.
    batch_hw: HashMap<u32, u64>,
    /// When `Some(id)`, the committed stream prefix is inside a
    /// *replayed* batch: routed entries are dropped until the
    /// matching TxnEnd closes the skip region. Committed state, like
    /// `commit_txn`.
    replay_skip: Option<u64>,
    /// Lifetime count of replayed disclosure batches detected (and
    /// skipped) by the high-water check.
    replayed_batches: u64,
    /// Items staged for the next group commit (lost on crash).
    staged: Vec<Staged>,
    /// Count of `Staged::Entry` items in `staged` (kept so batch
    /// checks are O(1)).
    staged_entries: usize,
    /// Files with staged or partially committed entries. Slots of
    /// forgotten files are recycled via `free_sources`.
    source_files: Vec<SourceFile>,
    /// Indices in `source_files` available for reuse.
    free_sources: Vec<usize>,
    /// The last commit's durability frame (seq, applied count,
    /// touched-shard generations, CRC). Writing this frame is the
    /// per-commit cost that group commit amortizes; a persistent
    /// backend would fsync it.
    commit_frame: Vec<u8>,
    /// Reusable scratch: per-shard buckets of apply-list indices.
    bucket_scratch: Vec<Vec<u32>>,
    /// What the group commits since the last checkpoint applied, when
    /// a durable daemon asked for it ([`Store::track_delta`]). `None`
    /// means the next checkpoint must write a full base: tracking was
    /// never started, the record outgrew its budget, or something
    /// other than a group commit changed the shards ([`Store::merge`]).
    delta: Option<PendingDelta>,
}

/// The applied-entry record between two checkpoints — what
/// `Waldo::checkpoint` writes as one delta segment.
#[derive(Debug)]
pub(crate) struct PendingDelta {
    /// Commit sequence tracking started at (the last checkpoint's).
    pub from_seq: u64,
    /// Group-section bytes beyond which the record is dropped — a
    /// checkpoint would rewrite the base rather than write it.
    budget: u64,
    /// One group per commit that applied entries, already encoded.
    pub groups: DeltaGroups,
}

impl StoreMeta {
    /// True when `id` is a disclosure-batch transaction this store
    /// has already committed: its volume's high-water mark is at or
    /// above the id's sequence. Lasagna allocates batch sequences
    /// monotonically per volume, so seeing such an id again means the
    /// log tail replayed (duplicated) a committed group frame.
    fn is_replayed_batch(&self, id: u64) -> bool {
        match lasagna::batch_txn_parts(id) {
            Some((vol, seq)) => self.batch_hw.get(&vol.0).is_some_and(|hw| seq <= *hw),
            None => false,
        }
    }

    /// Records that batch transaction `id` committed, advancing its
    /// volume's replay high-water mark. Ids outside the batch space
    /// (PA-NFS server transactions) carry no volume salt and are not
    /// tracked.
    fn advance_batch_hw(&mut self, id: u64) {
        if let Some((vol, seq)) = lasagna::batch_txn_parts(id) {
            let hw = self.batch_hw.entry(vol.0).or_insert(0);
            *hw = (*hw).max(seq);
        }
    }
}

/// Bounded optimistic retries before a snapshot reader falls back to
/// blocking new commits via the `meta` mutex.
const EPOCH_RETRIES: usize = 64;

/// The sharded, batched, cached provenance store.
pub struct Store {
    cfg: WaldoConfig,
    shards: Vec<RwLock<Shard>>,
    shard_mask: u64,
    /// Seqlock word for cross-shard snapshot reads: odd while a
    /// commit (or merge) is mutating shards.
    epoch: AtomicU64,
    /// Per-shard generation mirror, readable without shard locks —
    /// what cache validation compares against.
    gens: Vec<AtomicU64>,
    /// Monotonic group-commit sequence number.
    commit_seq: AtomicU64,
    /// Writer-owned bookkeeping (lock level 1).
    meta: Mutex<StoreMeta>,
    /// Memoized ancestry/descendant closures.
    ancestry_cache: Mutex<TraversalCache<AncestryKey, Vec<ObjectRef>>>,
    /// Memoized per-node labelled edge lists (the PQL hot path).
    edge_cache: Mutex<TraversalCache<EdgeKey, Vec<ObjectRef>>>,
    /// Memoized whole reachability closures, keyed like edge lists —
    /// what repeated PQL `label*`/`label+` queries hit.
    closure_cache: Mutex<TraversalCache<EdgeKey, Vec<ObjectRef>>>,
    /// Lock-contention profiling: seqlock retry/fallback counters and
    /// per-level wait histograms. See [`crate::contention`].
    contention: Contention,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let meta = self.lock_meta();
        f.debug_struct("Store")
            .field("cfg", &self.cfg)
            .field("objects", &self.object_count())
            .field("staged", &meta.staged.len())
            .field("open_txns", &meta.pending_txns.len())
            .finish()
    }
}

impl Default for Store {
    fn default() -> Store {
        Store::new()
    }
}

impl Store {
    /// Creates an empty store with the default configuration.
    pub fn new() -> Store {
        Store::with_config(WaldoConfig::default())
    }

    /// Creates an empty store with explicit tuning knobs.
    pub fn with_config(cfg: WaldoConfig) -> Store {
        let n = cfg.effective_shards();
        Store {
            cfg,
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            shard_mask: (n - 1) as u64,
            epoch: AtomicU64::new(0),
            gens: (0..n).map(|_| AtomicU64::new(0)).collect(),
            commit_seq: AtomicU64::new(0),
            meta: Mutex::new(StoreMeta {
                pending_txns: HashMap::new(),
                commit_txn: None,
                batch_hw: HashMap::new(),
                replay_skip: None,
                replayed_batches: 0,
                staged: Vec::new(),
                staged_entries: 0,
                source_files: Vec::new(),
                free_sources: Vec::new(),
                commit_frame: Vec::new(),
                bucket_scratch: (0..n).map(|_| Vec::new()).collect(),
                delta: None,
            }),
            ancestry_cache: Mutex::new(TraversalCache::new(cfg.ancestry_cache.max(1))),
            edge_cache: Mutex::new(TraversalCache::new(cfg.ancestry_cache.max(1))),
            closure_cache: Mutex::new(TraversalCache::new(cfg.ancestry_cache.max(1))),
            contention: Contention::default(),
        }
    }

    /// The configuration the store was built with (shard count
    /// normalized to the effective power of two).
    pub fn config(&self) -> WaldoConfig {
        WaldoConfig {
            shards: self.shards.len(),
            ..self.cfg
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `p` is homed on. Stable: depends only on the pnode
    /// and the shard count, never on ingest order or batching.
    pub fn shard_of(&self, p: Pnode) -> usize {
        (mix_pnode(p) & self.shard_mask) as usize
    }

    /// Runs `f` against `p`'s home shard under its read lock. One
    /// lock acquisition sees one consistent shard, so single-shard
    /// reads need no epoch validation.
    pub(crate) fn with_home<R>(&self, p: Pnode, f: impl FnOnce(&Shard) -> R) -> R {
        f(&self.shards[self.shard_of(p)].read().unwrap())
    }

    /// Runs `f` against shard `i` under its read lock — the
    /// checkpoint writer's access path.
    pub(crate) fn with_shard<R>(&self, i: usize, f: impl FnOnce(&Shard) -> R) -> R {
        f(&self.shards[i].read().unwrap())
    }

    /// The generation of one shard (bumped per commit touching it).
    pub fn shard_generation(&self, shard: usize) -> u64 {
        self.gens[shard].load(Ordering::Acquire)
    }

    /// Runs a multi-shard read so it observes commits all-or-nothing:
    /// wait for an even epoch, read (taking brief per-shard locks),
    /// and retry if a commit moved the epoch meanwhile. After
    /// [`EPOCH_RETRIES`] failed attempts the reader takes the `meta`
    /// mutex — blocking *new* commits and waiting out the one in
    /// flight — so progress is guaranteed under a commit storm.
    ///
    /// `f` may run several times; it must not hold any shard lock
    /// while acquiring `meta` (no `f` does — shard locks are released
    /// between nodes), and side effects must be idempotent (the cache
    /// stores are: a retried attempt overwrites its own key).
    fn read_consistent<R>(&self, f: impl Fn() -> R) -> R {
        self.contention.epoch_reads.fetch_add(1, Ordering::Relaxed);
        for _ in 0..EPOCH_RETRIES {
            let e1 = self.epoch.load(Ordering::Acquire);
            if e1 & 1 == 1 {
                self.contention
                    .epoch_retries
                    .fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
                continue;
            }
            let r = f();
            if self.epoch.load(Ordering::Acquire) == e1 {
                return r;
            }
            self.contention
                .epoch_retries
                .fetch_add(1, Ordering::Relaxed);
        }
        self.contention
            .epoch_fallbacks
            .fetch_add(1, Ordering::Relaxed);
        let _writers_held_off = self.lock_meta();
        f()
    }

    /// Acquires the meta mutex (lock level 1), recording the wait
    /// into the contention profile.
    fn lock_meta(&self) -> MutexGuard<'_, StoreMeta> {
        acquire(
            &self.contention.meta_wait,
            || self.meta.try_lock(),
            || self.meta.lock(),
        )
    }

    /// Acquires shard `i`'s write lock (lock level 2), recording the
    /// wait into the contention profile. Read locks are deliberately
    /// unprofiled — the query hot path stays two loads and an
    /// uncontended lock.
    fn shard_write(&self, i: usize) -> RwLockWriteGuard<'_, Shard> {
        acquire(
            &self.contention.shard_wait,
            || self.shards[i].try_write(),
            || self.shards[i].write(),
        )
    }

    /// Acquires one of the query-cache mutexes (lock level 3),
    /// recording the wait into the contention profile.
    fn lock_cache<'a, T>(&self, cache: &'a Mutex<T>) -> MutexGuard<'a, T> {
        acquire(
            &self.contention.cache_wait,
            || cache.try_lock(),
            || cache.lock(),
        )
    }

    /// Deterministic seqlock counter snapshot — retries, fallbacks
    /// and commit windows. A [`provscope::MetricSource`]; absorb it
    /// under a prefix or use [`Store::export_contention`].
    pub fn contention_stats(&self) -> ContentionStats {
        self.contention.stats()
    }

    /// Exports the full contention profile — the deterministic
    /// counters under `{prefix}contention.` plus the **wall-clock**
    /// per-lock-level wait histograms and commit-window durations.
    /// Opt-in by design: the wall-clock histograms are never part of
    /// the store's default metric emission, so determinism-asserting
    /// consumers (byte-equality oracles, trace tests) never see them.
    pub fn export_contention(&self, prefix: &str, reg: &mut provscope::Registry) {
        reg.absorb(&format!("{prefix}contention."), &self.contention.stats());
        reg.absorb_histogram(
            &format!("{prefix}lock.meta_wait_ns"),
            &self.contention.meta_wait.snapshot(),
        );
        reg.absorb_histogram(
            &format!("{prefix}lock.shard_wait_ns"),
            &self.contention.shard_wait.snapshot(),
        );
        reg.absorb_histogram(
            &format!("{prefix}lock.cache_wait_ns"),
            &self.contention.cache_wait.snapshot(),
        );
        reg.absorb_histogram(
            &format!("{prefix}commit_window_ns"),
            &self.contention.commit_window.snapshot(),
        );
    }

    /// Current per-shard generations as a lookup for cache
    /// validation.
    fn gen_of(&self) -> impl Fn(usize) -> u64 + '_ {
        |i| self.gens[i].load(Ordering::Acquire)
    }

    /// Ancestry-closure cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.lock_cache(&self.ancestry_cache).stats
    }

    /// Edge-list cache counters (the PQL hot path).
    pub fn edge_cache_stats(&self) -> CacheStats {
        self.lock_cache(&self.edge_cache).stats
    }

    /// Closure cache counters (repeated PQL `label*`/`label+` steps).
    pub fn closure_cache_stats(&self) -> CacheStats {
        self.lock_cache(&self.closure_cache).stats
    }

    // ---- ingestion --------------------------------------------------------

    /// Ingests a parsed log image as one group commit. This is the old
    /// `ProvDb::ingest` surface — semantics (transaction buffering
    /// across calls, stats) are unchanged — but entries are applied by
    /// reference, without passing through the staging queue.
    pub fn ingest(&self, entries: &[LogEntry]) -> IngestStats {
        let mut stats = IngestStats::default();
        let meta = &mut *self.lock_meta();
        // Direct ingest may not reorder around entries a daemon staged
        // earlier: flush them first, as their own commit. Their counts
        // belong to that commit, not to this call's return value.
        if !meta.staged.is_empty() {
            let mut flush_stats = IngestStats::default();
            self.commit_staged_locked(meta, &mut flush_stats);
        }
        // A new log image starts a new transaction scope (and closes
        // any replay-skip region: transaction ids never span images).
        meta.commit_txn = None;
        meta.replay_skip = None;
        // Transaction routing, in arrival order. `plan` records which
        // entries this commit applies: positions in `entries`, or in
        // the `flushed` buffers pulled out of completed transactions.
        // This mirrors the owned-entry routing in `commit_staged` —
        // kept separate so this path can borrow instead of clone; the
        // `batching_is_transparent` property test holds the two
        // equivalent.
        let mut flushed: Vec<LogEntry> = Vec::new();
        let mut plan: Vec<PlanItem> = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            match entry {
                LogEntry::TxnBegin { id } => {
                    if meta.is_replayed_batch(*id) {
                        meta.replay_skip = Some(*id);
                        meta.replayed_batches += 1;
                        stats.replayed_batches += 1;
                        continue;
                    }
                    meta.pending_txns.entry(*id).or_default();
                    meta.commit_txn = Some(*id);
                }
                LogEntry::TxnEnd { id } => {
                    if meta.replay_skip == Some(*id) {
                        meta.replay_skip = None;
                        continue;
                    }
                    if let Some(buf) = meta.pending_txns.remove(id) {
                        let start = flushed.len();
                        flushed.extend(buf);
                        plan.extend((start..flushed.len()).map(PlanItem::Flushed));
                        stats.txns_committed += 1;
                        meta.advance_batch_hw(*id);
                    }
                    if meta.commit_txn == Some(*id) {
                        meta.commit_txn = None;
                    }
                }
                _ if meta.replay_skip.is_some() => {}
                _ => match meta.commit_txn {
                    Some(id) => {
                        meta.pending_txns.entry(id).or_default().push(entry.clone());
                        stats.pending += 1;
                    }
                    None => plan.push(PlanItem::Input(i)),
                },
            }
        }
        let apply: Vec<&LogEntry> = plan
            .iter()
            .map(|p| match p {
                PlanItem::Input(i) => &entries[*i],
                PlanItem::Flushed(i) => &flushed[*i],
            })
            .collect();
        let touched = self.apply_group(meta, &apply, &mut stats);
        if !entries.is_empty() {
            stats.group_commits += 1;
            self.write_commit_frame(meta, apply.len() as u64, touched);
        }
        stats
    }

    /// Marks a log-image boundary in the staged stream: the open
    /// transaction id of one image never carries into the next
    /// (matching the original per-image semantics). Do **not** call
    /// this when resuming a partially committed file after a crash —
    /// the store's committed transaction context is precisely the
    /// context at the file's high-water mark.
    pub fn begin_stream(&self) {
        self.lock_meta().staged.push(Staged::StreamReset);
    }

    /// Registers a log file for replay tracking; returns its source
    /// handle and the number of leading entries already committed
    /// (nonzero after a crash between group commits — skip those).
    pub fn register_source(&self, path: &str) -> (usize, usize) {
        let meta = &mut *self.lock_meta();
        if let Some(i) = meta
            .source_files
            .iter()
            .position(|s| !s.path.is_empty() && s.path == path)
        {
            return (i, meta.source_files[i].committed_mark);
        }
        let slot = SourceFile {
            path: path.to_string(),
            committed_mark: 0,
        };
        match meta.free_sources.pop() {
            Some(i) => {
                meta.source_files[i] = slot;
                (i, 0)
            }
            None => {
                meta.source_files.push(slot);
                (meta.source_files.len() - 1, 0)
            }
        }
    }

    /// Stages one entry for the next group commit. No durable state
    /// changes here: transaction routing happens at commit time.
    pub fn stage(&self, entry: LogEntry, source: Option<usize>) {
        let meta = &mut *self.lock_meta();
        meta.staged.push(Staged::Entry { entry, source });
        meta.staged_entries += 1;
    }

    /// Number of entries staged for the next commit.
    pub fn staged_len(&self) -> usize {
        self.lock_meta().staged_entries
    }

    /// Applies every staged entry as one atomic group commit:
    /// transaction markers are resolved in arrival order, appliable
    /// entries are grouped by subject pnode per shard (one
    /// object-table lookup per run), reverse ancestry edges are routed
    /// to their ancestors' shards, source-file marks advance, and each
    /// touched shard's generation is bumped exactly once.
    pub fn commit_staged(&self, stats: &mut IngestStats) {
        let meta = &mut *self.lock_meta();
        self.commit_staged_locked(meta, stats);
    }

    fn commit_staged_locked(&self, meta: &mut StoreMeta, stats: &mut IngestStats) {
        if meta.staged.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut meta.staged);
        let entries_processed = meta.staged_entries;
        meta.staged_entries = 0;

        // Transaction routing, in arrival order. Produces the flat
        // list of entries this commit applies. Buffered transaction
        // members are durable once this commit returns (they live in
        // `pending_txns`), so their source marks advance now; their
        // effects apply when their TxnEnd commits. Mirrors the
        // borrowed-entry routing in `ingest` (see the note there).
        let mut apply: Vec<LogEntry> = Vec::with_capacity(staged.len());
        for item in staged {
            let (entry, source) = match item {
                Staged::StreamReset => {
                    meta.commit_txn = None;
                    meta.replay_skip = None;
                    continue;
                }
                Staged::Entry { entry, source } => (entry, source),
            };
            if let Some(src) = source {
                meta.source_files[src].committed_mark += 1;
            }
            match &entry {
                LogEntry::TxnBegin { id } => {
                    if meta.is_replayed_batch(*id) {
                        meta.replay_skip = Some(*id);
                        meta.replayed_batches += 1;
                        stats.replayed_batches += 1;
                        continue;
                    }
                    meta.pending_txns.entry(*id).or_default();
                    meta.commit_txn = Some(*id);
                }
                LogEntry::TxnEnd { id } => {
                    if meta.replay_skip == Some(*id) {
                        meta.replay_skip = None;
                        continue;
                    }
                    if let Some(buf) = meta.pending_txns.remove(id) {
                        apply.extend(buf);
                        stats.txns_committed += 1;
                        meta.advance_batch_hw(*id);
                    }
                    if meta.commit_txn == Some(*id) {
                        meta.commit_txn = None;
                    }
                }
                _ if meta.replay_skip.is_some() => {}
                _ => match meta.commit_txn {
                    Some(id) => {
                        meta.pending_txns.entry(id).or_default().push(entry);
                        stats.pending += 1;
                    }
                    None => apply.push(entry),
                },
            }
        }
        let refs: Vec<&LogEntry> = apply.iter().collect();
        let touched = self.apply_group(meta, &refs, stats);
        // A commit that only buffered transaction members (or only
        // consumed markers) still advanced committed state — the
        // pending-transaction buffers and source marks — so its
        // durability frame must be written too, or a consumer
        // recovering from the last persisted frame would replay those
        // entries twice.
        if entries_processed > 0 {
            stats.group_commits += 1;
            self.write_commit_frame(meta, apply.len() as u64, touched);
        }
    }

    /// Lifetime count of replayed disclosure batches detected (and
    /// skipped wholesale) by the per-volume high-water check — the
    /// "detected" signal for group-frame duplication tampers.
    pub fn replayed_batches(&self) -> u64 {
        self.lock_meta().replayed_batches
    }

    /// Applies one commit's entries as an atomic group: entries are
    /// bucketed by shard (preserving arrival order) and grouped into
    /// consecutive same-subject runs, so each run costs one
    /// object-table lookup; reverse ancestry edges are then routed to
    /// their ancestors' shards; finally each touched shard's
    /// generation is bumped exactly once. The epoch goes odd for the
    /// duration, so concurrent snapshot readers retry instead of
    /// seeing half the group. Returns the touched-shard mask; the
    /// caller finalizes the commit (sequence number, durability
    /// frame). Caller holds `meta`.
    fn apply_group(
        &self,
        meta: &mut StoreMeta,
        apply: &[&LogEntry],
        stats: &mut IngestStats,
    ) -> u64 {
        if apply.is_empty() {
            return 0;
        }
        if let Some(d) = &mut meta.delta {
            d.groups.push(apply);
            if d.groups.len() as u64 > d.budget {
                meta.delta = None;
            }
        }
        let mut touched: u64 = 0;
        let mut reverse: Vec<ReverseEdge> = Vec::new();
        let mut buckets = std::mem::take(&mut meta.bucket_scratch);
        for (i, entry) in apply.iter().enumerate() {
            if let Some(p) = subject_of(entry) {
                let shard = (mix_pnode(p) & self.shard_mask) as usize;
                buckets[shard].push(i as u32);
            }
        }
        self.epoch.fetch_add(1, Ordering::AcqRel);
        let window_start = Instant::now();
        let mut run: Vec<&LogEntry> = Vec::new();
        for (i, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            touched |= 1 << i;
            let shard = &mut *self.shard_write(i);
            let mut run_start = 0;
            while run_start < bucket.len() {
                let pnode = subject_of(apply[bucket[run_start] as usize])
                    .expect("bucketed entries have subjects");
                let mut run_end = run_start + 1;
                while run_end < bucket.len()
                    && subject_of(apply[bucket[run_end] as usize]) == Some(pnode)
                {
                    run_end += 1;
                }
                run.clear();
                run.extend(
                    bucket[run_start..run_end]
                        .iter()
                        .map(|&j| apply[j as usize]),
                );
                shard.apply_run(pnode, &run, &mut reverse);
                stats.applied += run_end - run_start;
                run_start = run_end;
            }
        }
        for bucket in &mut buckets {
            bucket.clear();
        }
        meta.bucket_scratch = buckets;
        for edge in reverse {
            let i = (mix_pnode(edge.0) & self.shard_mask) as usize;
            touched |= 1 << i;
            self.shard_write(i).add_reverse_edge(edge);
        }
        for i in 0..self.shards.len() {
            if touched & (1 << i) != 0 {
                let mut shard = self.shard_write(i);
                shard.generation += 1;
                self.gens[i].store(shard.generation, Ordering::Release);
            }
        }
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.contention
            .commit_windows
            .fetch_add(1, Ordering::Relaxed);
        self.contention
            .commit_window
            .observe(window_start.elapsed().as_nanos() as u64);
        touched
    }

    /// Serializes the commit's durability record — see
    /// [`crate::wal`] for the frame format and its recovery scope.
    /// Writing and syncing the frame (see `Waldo::attach_db_dir`) is
    /// the per-commit cost that batching amortizes; checkpoints
    /// (`crate::checkpoint`) later truncate frames at or below the
    /// published sequence. Caller holds `meta`.
    fn write_commit_frame(&self, meta: &mut StoreMeta, applied: u64, touched: u64) {
        let seq = self.commit_seq.fetch_add(1, Ordering::AcqRel) + 1;
        let frame = crate::wal::WalFrame {
            seq,
            applied,
            touched,
            gens: (0..self.shards.len())
                .filter(|i| touched & (1 << i) != 0)
                .map(|i| self.gens[i].load(Ordering::Acquire))
                .collect(),
            sources: meta
                .source_files
                .iter()
                .filter(|s| !s.path.is_empty())
                .map(|s| (lasagna::crc32(s.path.as_bytes()), s.committed_mark as u64))
                .collect(),
        };
        meta.commit_frame.clear();
        crate::wal::encode_frame(&mut meta.commit_frame, &frame);
    }

    // ---- checkpoint plumbing ----------------------------------------------

    /// Starts recording what each group commit applies, from the
    /// current commit sequence, until the record's group bytes exceed
    /// `budget` — the daemon passes what the delta chain may still
    /// grow by before a base rewrite is due, so a record that could
    /// only be thrown away is not kept. Memory-only stores never call
    /// this and pay nothing.
    pub(crate) fn track_delta(&self, budget: u64) {
        let meta = &mut *self.lock_meta();
        meta.delta = Some(PendingDelta {
            from_seq: self.commit_seq(),
            budget,
            groups: DeltaGroups::default(),
        });
    }

    /// Hands over the applied-entry record and stops tracking; `None`
    /// when the record cannot describe the store's change since
    /// [`Store::track_delta`] (see `StoreMeta::delta`). Tracking stays
    /// off until the caller re-arms it, so a checkpoint that fails
    /// after taking the record is followed by a full base.
    pub(crate) fn take_delta(&self) -> Option<PendingDelta> {
        self.lock_meta().delta.take()
    }

    /// Re-applies one commit's entries from a delta segment — the
    /// restart path (`checkpoint::try_load`). Goes through the same
    /// `apply_group` as the original commit, so shard contents,
    /// reverse edges and generations come out identical; the commit
    /// sequence and replay state come from the manifest instead.
    pub(crate) fn replay_group(&self, entries: &[LogEntry]) {
        let meta = &mut *self.lock_meta();
        let refs: Vec<&LogEntry> = entries.iter().collect();
        self.apply_group(meta, &refs, &mut IngestStats::default());
    }

    /// The canonical serialized image of every shard. Because the
    /// encoding is canonical (see `crate::segment`), two stores hold
    /// equal contents **iff** their images are byte-identical; the
    /// crash-matrix, restart and cluster-merge differential tests use
    /// this as their byte-equivalence oracle.
    ///
    /// The ordering contract is explicit and deterministic: the
    /// returned vector is **sorted by shard id** — `images[i]` is
    /// always shard `i`'s image, independent of ingest order, batching
    /// or merge order — and each image's interior is canonical
    /// (objects by pnode, index entries by key, reverse-edge lists by
    /// `(descendant, ancestor version, attribute)`). Two normalizations
    /// make the oracle insensitive to *how* equal contents were
    /// reached: generation counters are written as zero (they count
    /// how commits were grouped, which replay after a crash — or a
    /// cluster merge — may legitimately do differently), and the
    /// reverse-edge sort erases arrival order (a merged store
    /// interleaves members' edges differently than a single daemon
    /// ingesting the same volumes in sequence). Checkpoint segments on
    /// disk keep the real generations — the manifest binds to them.
    ///
    /// The whole image set is taken under one epoch validation, so an
    /// image captured during concurrent ingest is always some
    /// commit-boundary state, never half a group.
    pub fn segment_images(&self) -> Vec<Vec<u8>> {
        self.read_consistent(|| {
            self.shards
                .iter()
                .enumerate()
                .map(|(i, s)| crate::segment::encode_shard(i as u32, &s.read().unwrap(), 0))
                .collect()
        })
    }

    // ---- cluster fan-in ---------------------------------------------------

    /// Merges another store's **committed** contents into this one —
    /// the cluster fan-in path ([`crate::cluster`]): each member
    /// daemon ingests its routed volumes' logs into its own store, and
    /// the consolidated graph is the merge of the members.
    ///
    /// Semantics, per shard `i` (both stores must have the same
    /// effective shard count, so pnode routing agrees and `other`'s
    /// shard `i` lands wholly in ours — the call returns
    /// [`MergeError::ShardCountMismatch`] otherwise):
    ///
    /// * object entries merge by pnode; colliding versions extend
    ///   attribute/input lists in `self`-then-`other` order and sum
    ///   the data-write accounting (with members ingesting *distinct
    ///   volumes* — the cluster invariant — pnodes never collide and
    ///   this degenerates to a plain union);
    /// * secondary indexes (name, type, generalized attribute) union;
    /// * reverse ancestry edge lists concatenate — cross-volume
    ///   references mean a member holds reverse edges for *foreign*
    ///   ancestors, so one ancestor's list may gather contributions
    ///   from several members (queries treat the order as
    ///   unspecified, and [`Store::segment_images`] sorts it);
    /// * footprint accounting and the commit sequence add (exact for
    ///   disjoint members; overlapping contents would double-count);
    /// * open-transaction buffers union — volume-salted batch ids
    ///   ([`lasagna::batch_txn_id`]) guarantee members' ids never
    ///   alias, and the call returns [`MergeError::TxnIdCollision`]
    ///   rather than silently interleaving two transactions' records;
    /// * per-volume batch replay high-water marks merge by maximum;
    /// * staged-but-uncommitted items and per-source replay marks are
    ///   **not** merged: staging is transient by design, and replay
    ///   bookkeeping stays with the member daemon that owns the logs.
    ///
    /// Every refusal is validated **before** any mutation, so a
    /// failed merge leaves `self` exactly as it was — fault-injection
    /// harnesses depend on a clean abort when a forged batch id
    /// collides. Touched shards' generations bump, so cached
    /// traversals against the merged store invalidate exactly as
    /// after an ingest. Both stores' `meta` locks are taken in
    /// address order, so concurrent opposite-direction merges cannot
    /// deadlock.
    pub fn merge(&self, other: &Store) -> Result<(), MergeError> {
        assert!(
            !std::ptr::eq(self, other),
            "Store::merge: cannot merge a store into itself"
        );
        let (mut ours_guard, theirs_guard);
        if (self as *const Store as usize) < (other as *const Store as usize) {
            ours_guard = self.lock_meta();
            theirs_guard = other.lock_meta();
        } else {
            theirs_guard = other.lock_meta();
            ours_guard = self.lock_meta();
        }
        let ours = &mut *ours_guard;
        let theirs = &*theirs_guard;
        if self.shards.len() != other.shards.len() {
            return Err(MergeError::ShardCountMismatch {
                ours: self.shards.len(),
                theirs: other.shards.len(),
            });
        }
        // A hard check like the others: silently dropping staged
        // records would break the byte-equivalence oracle without a
        // trace.
        if !theirs.staged.is_empty() {
            return Err(MergeError::UncommittedStaged {
                count: theirs.staged.len(),
            });
        }
        if let Some(id) = theirs
            .pending_txns
            .keys()
            .find(|id| ours.pending_txns.contains_key(*id))
        {
            return Err(MergeError::TxnIdCollision { id: *id });
        }
        // The open-commit marker routes *untagged* continuation
        // records to their transaction; keeping only one side's
        // marker while both are mid-commit would interleave the other
        // side's continuation into the wrong transaction on a later
        // ingest — refuse, like the id collision above.
        if let (Some(o), Some(t)) = (ours.commit_txn, theirs.commit_txn) {
            return Err(MergeError::BothMidCommit { ours: o, theirs: t });
        }
        for (id, buf) in &theirs.pending_txns {
            ours.pending_txns.insert(*id, buf.clone());
        }
        if ours.commit_txn.is_none() {
            ours.commit_txn = theirs.commit_txn;
        }
        if ours.replay_skip.is_none() {
            ours.replay_skip = theirs.replay_skip;
        }
        for (vol, seq) in &theirs.batch_hw {
            let hw = ours.batch_hw.entry(*vol).or_insert(0);
            *hw = (*hw).max(*seq);
        }
        ours.replayed_batches += theirs.replayed_batches;
        // Shards change below without passing through `apply_group`.
        ours.delta = None;
        self.epoch.fetch_add(1, Ordering::AcqRel);
        let window_start = Instant::now();
        for i in 0..self.shards.len() {
            let src = &*other.shards[i].read().unwrap();
            if src.objects.is_empty() && src.reverse_index.is_empty() {
                continue;
            }
            let dst = &mut *self.shard_write(i);
            for (p, obj) in &src.objects {
                let entry = dst.objects.entry(*p).or_default();
                entry.current = entry.current.max(obj.current);
                for (v, ve) in &obj.versions {
                    let dv = entry.versions.entry(*v).or_default();
                    dv.attrs.extend(ve.attrs.iter().cloned());
                    dv.inputs.extend(ve.inputs.iter().cloned());
                    dv.writes += ve.writes;
                    dv.bytes_written += ve.bytes_written;
                }
            }
            for (name, set) in &src.name_index {
                dst.name_index
                    .entry(name.clone())
                    .or_default()
                    .extend(set.iter().copied());
            }
            for (ty, set) in &src.type_index {
                dst.type_index
                    .entry(ty.clone())
                    .or_default()
                    .extend(set.iter().copied());
            }
            for (attr, values) in &src.attr_index {
                let dst_values = dst.attr_index.entry(attr.clone()).or_default();
                for (value, set) in values {
                    dst_values
                        .entry(value.clone())
                        .or_default()
                        .extend(set.iter().copied());
                }
            }
            for (ancestor, edges) in &src.reverse_index {
                dst.reverse_index
                    .entry(*ancestor)
                    .or_default()
                    .extend(edges.iter().cloned());
            }
            dst.size.db_bytes += src.size.db_bytes;
            dst.size.index_bytes += src.size.index_bytes;
            dst.generation += 1;
            self.gens[i].store(dst.generation, Ordering::Release);
        }
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.contention
            .commit_windows
            .fetch_add(1, Ordering::Relaxed);
        self.contention
            .commit_window
            .observe(window_start.elapsed().as_nanos() as u64);
        self.commit_seq
            .fetch_add(other.commit_seq.load(Ordering::Acquire), Ordering::AcqRel);
        Ok(())
    }

    /// Committed open-transaction state, sorted by id: the buffers a
    /// checkpoint must persist for restart to equal the uncrashed
    /// store, plus the transaction the committed stream prefix is
    /// inside.
    pub(crate) fn open_txn_state(&self) -> (Vec<(u64, Vec<LogEntry>)>, Option<u64>) {
        let meta = self.lock_meta();
        let mut txns: Vec<(u64, Vec<LogEntry>)> = meta
            .pending_txns
            .iter()
            .map(|(id, buf)| (*id, buf.clone()))
            .collect();
        txns.sort_unstable_by_key(|(id, _)| *id);
        (txns, meta.commit_txn)
    }

    /// Committed batch-replay state, for the checkpoint writer: the
    /// per-volume high-water marks sorted by volume, plus the open
    /// replay-skip region (if a crash interrupted one). Restart must
    /// restore both or a replayed group frame could apply twice.
    pub(crate) fn batch_state(&self) -> (Vec<(u32, u64)>, Option<u64>) {
        let meta = self.lock_meta();
        let mut hw: Vec<(u32, u64)> = meta.batch_hw.iter().map(|(v, s)| (*v, *s)).collect();
        hw.sort_unstable_by_key(|(v, _)| *v);
        (hw, meta.replay_skip)
    }

    /// Source-file replay slots, in slot order: `(path, committed
    /// mark)`, with an empty path marking a free slot. Preserving slot
    /// indices keeps a restored store's handles identical.
    pub(crate) fn source_state(&self) -> Vec<(String, u64)> {
        self.lock_meta()
            .source_files
            .iter()
            .map(|s| (s.path.clone(), s.committed_mark as u64))
            .collect()
    }

    /// Rebuilds a store from checkpointed parts: rehydrated shards,
    /// open-transaction buffers, source replay slots and the commit
    /// sequence. `shards.len()` must be the power-of-two count the
    /// segments were written with; it overrides `cfg.shards`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore(
        cfg: WaldoConfig,
        shards: Vec<Shard>,
        txns: Vec<(u64, Vec<LogEntry>)>,
        commit_txn: Option<u64>,
        sources: Vec<(String, u64)>,
        commit_seq: u64,
        batch_hw: Vec<(u32, u64)>,
        replay_skip: Option<u64>,
    ) -> Store {
        let n = shards.len();
        debug_assert!(n.is_power_of_two() && n <= 64);
        let mut store = Store::with_config(WaldoConfig { shards: n, ..cfg });
        store.gens = shards
            .iter()
            .map(|s| AtomicU64::new(s.generation))
            .collect();
        store.shards = shards.into_iter().map(RwLock::new).collect();
        store.commit_seq = AtomicU64::new(commit_seq);
        let meta = store.meta.get_mut().unwrap();
        meta.pending_txns = txns.into_iter().collect();
        meta.commit_txn = commit_txn;
        meta.batch_hw = batch_hw.into_iter().collect();
        meta.replay_skip = replay_skip;
        meta.free_sources = sources
            .iter()
            .enumerate()
            .filter(|(_, (path, _))| path.is_empty())
            .map(|(i, _)| i)
            .collect();
        meta.source_files = sources
            .into_iter()
            .map(|(path, mark)| SourceFile {
                path,
                committed_mark: mark as usize,
            })
            .collect();
        store
    }

    /// The durability frame of the most recent group commit.
    pub fn last_commit_frame(&self) -> Vec<u8> {
        self.lock_meta().commit_frame.clone()
    }

    /// Number of group commits performed over the store's lifetime.
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq.load(Ordering::Acquire)
    }

    /// Discards staged-but-uncommitted items — the state a crash would
    /// lose. Committed state (shards, open-transaction buffers, source
    /// marks) survives, exactly like a database that crashed between
    /// group commits.
    pub fn drop_staged(&self) {
        let meta = &mut *self.lock_meta();
        meta.staged.clear();
        meta.staged_entries = 0;
    }

    /// True if every entry of registered source `src` has committed,
    /// given the file held `total` entries.
    pub fn source_fully_committed(&self, src: usize, total: usize) -> bool {
        self.lock_meta().source_files[src].committed_mark >= total
    }

    /// Forgets replay state for `src` (call after unlinking the file;
    /// a future log reusing the same path starts fresh, and the slot
    /// is recycled so long-running daemons don't accumulate
    /// tombstones). Idempotent: forgetting an already-free slot is a
    /// no-op, so it can never be pushed onto the free list twice —
    /// a double free would alias two future logs onto one slot and
    /// corrupt their replay marks.
    pub fn forget_source(&self, src: usize) {
        let meta = &mut *self.lock_meta();
        if meta.source_files[src].path.is_empty() {
            return;
        }
        meta.source_files[src] = SourceFile {
            path: String::new(),
            committed_mark: 0,
        };
        meta.free_sources.push(src);
    }

    /// Transaction ids currently open (orphans if the stream ended).
    pub fn open_txns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.lock_meta().pending_txns.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Drops an orphaned transaction's buffered records (the server
    /// Waldo's garbage collection of §6.1.2).
    pub fn discard_txn(&self, id: u64) -> usize {
        let meta = &mut *self.lock_meta();
        if meta.commit_txn == Some(id) {
            meta.commit_txn = None;
        }
        meta.pending_txns.remove(&id).map(|v| v.len()).unwrap_or(0)
    }

    // ---- queries ----------------------------------------------------------

    /// Number of objects known.
    pub fn object_count(&self) -> usize {
        self.read_consistent(|| {
            self.shards
                .iter()
                .map(|s| s.read().unwrap().objects.len())
                .sum()
        })
    }

    /// Approximate store footprint (summed over shards).
    pub fn size(&self) -> DbSize {
        self.read_consistent(|| {
            let mut total = DbSize::default();
            for s in &self.shards {
                let s = s.read().unwrap();
                total.db_bytes += s.size.db_bytes;
                total.index_bytes += s.size.index_bytes;
            }
            total
        })
    }

    /// Runs `f` against the object entry for `p`, borrowed under its
    /// home shard's read lock — the read path of every query, so
    /// nothing is copied that `f` does not copy itself. `f` runs with
    /// the shard lock held: it must not call back into the store (no
    /// second shard lock, no cache lock, no `meta`).
    pub fn with_object<R>(&self, p: Pnode, f: impl FnOnce(&ObjectEntry) -> R) -> Option<R> {
        self.with_home(p, |sh| sh.objects.get(&p).map(f))
    }

    /// An owned copy of `p`'s entry, every version and attribute of
    /// it — for tests and the example programs, which hold an entry
    /// past the lock. No crate's own code calls this; read through
    /// [`Store::with_object`] instead.
    pub fn object(&self, p: Pnode) -> Option<ObjectEntry> {
        self.with_object(p, ObjectEntry::clone)
    }

    /// Every known pnode (unordered). The snapshot is
    /// commit-atomic; the materialized vector is what lets callers
    /// iterate without holding shard locks.
    pub fn all_pnodes(&self) -> Vec<Pnode> {
        self.read_consistent(|| {
            self.shards
                .iter()
                .flat_map(|s| {
                    s.read()
                        .unwrap()
                        .objects
                        .keys()
                        .copied()
                        .collect::<Vec<_>>()
                })
                .collect()
        })
    }

    /// Objects that ever bore `name` — exact match, merged across
    /// shards in pnode order.
    pub fn find_by_name(&self, name: &str) -> Vec<Pnode> {
        self.read_consistent(|| {
            let mut out: Vec<Pnode> = self
                .shards
                .iter()
                .flat_map(|s| {
                    s.read()
                        .unwrap()
                        .name_index
                        .get(name)
                        .map(|ps| ps.iter().copied().collect::<Vec<_>>())
                        .unwrap_or_default()
                })
                .collect();
            out.sort_unstable();
            out
        })
    }

    /// Objects whose NAME ends with `suffix` (e.g. a file name without
    /// its directory).
    pub fn find_by_name_suffix(&self, suffix: &str) -> Vec<Pnode> {
        self.read_consistent(|| {
            let mut out: Vec<Pnode> = self
                .shards
                .iter()
                .flat_map(|s| {
                    s.read()
                        .unwrap()
                        .name_index
                        .iter()
                        .filter(|(n, _)| n.ends_with(suffix))
                        .flat_map(|(_, ps)| ps.iter().copied())
                        .collect::<Vec<_>>()
                })
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        })
    }

    /// Objects of TYPE `ty`, merged across shards in pnode order.
    pub fn find_by_type(&self, ty: &str) -> Vec<Pnode> {
        self.read_consistent(|| {
            let mut out: Vec<Pnode> = self
                .shards
                .iter()
                .flat_map(|s| {
                    s.read()
                        .unwrap()
                        .type_index
                        .get(ty)
                        .map(|ps| ps.iter().copied().collect::<Vec<_>>())
                        .unwrap_or_default()
                })
                .collect();
            out.sort_unstable();
            out
        })
    }

    /// Objects whose NAME starts with `prefix` — a range scan over
    /// each shard's ordered name index (no attribute reads), merged
    /// in pnode order. Serves PQL `name like 'prefix*'` pushdown.
    pub fn find_by_name_prefix(&self, prefix: &str) -> Vec<Pnode> {
        self.read_consistent(|| {
            let mut out: Vec<Pnode> = self
                .shards
                .iter()
                .flat_map(|s| {
                    s.read()
                        .unwrap()
                        .name_index
                        .range(prefix.to_string()..)
                        .take_while(|(k, _)| k.starts_with(prefix))
                        .flat_map(|(_, ps)| ps.iter().copied())
                        .collect::<Vec<_>>()
                })
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        })
    }

    /// Objects whose TYPE starts with `prefix` — range scan over the
    /// ordered type index.
    pub fn find_by_type_prefix(&self, prefix: &str) -> Vec<Pnode> {
        self.read_consistent(|| {
            let mut out: Vec<Pnode> = self
                .shards
                .iter()
                .flat_map(|s| {
                    s.read()
                        .unwrap()
                        .type_index
                        .range(prefix.to_string()..)
                        .take_while(|(k, _)| k.starts_with(prefix))
                        .flat_map(|(_, ps)| ps.iter().copied())
                        .collect::<Vec<_>>()
                })
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        })
    }

    /// Objects that ever bore string attribute `attr` (by its
    /// canonical record name, e.g. `PHASE`) with exactly `value` —
    /// the generalized attribute index, merged in pnode order.
    /// NAME and TYPE have their dedicated indexes
    /// ([`Store::find_by_name`], [`Store::find_by_type`]).
    pub fn find_by_attr(&self, attr: &str, value: &str) -> Vec<Pnode> {
        self.read_consistent(|| {
            let mut out: Vec<Pnode> = self
                .shards
                .iter()
                .flat_map(|s| {
                    s.read()
                        .unwrap()
                        .attr_index
                        .get(attr)
                        .and_then(|vals| vals.get(value))
                        .map(|ps| ps.iter().copied().collect::<Vec<_>>())
                        .unwrap_or_default()
                })
                .collect();
            out.sort_unstable();
            out
        })
    }

    /// Objects whose string attribute `attr` starts with `prefix`.
    pub fn find_by_attr_prefix(&self, attr: &str, prefix: &str) -> Vec<Pnode> {
        self.read_consistent(|| {
            let mut out: Vec<Pnode> = self
                .shards
                .iter()
                .flat_map(|s| {
                    s.read()
                        .unwrap()
                        .attr_index
                        .get(attr)
                        .map(|vals| {
                            vals.range(prefix.to_string()..)
                                .take_while(|(k, _)| k.starts_with(prefix))
                                .flat_map(|(_, ps)| ps.iter().copied())
                                .collect::<Vec<_>>()
                        })
                        .unwrap_or_default()
                })
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        })
    }

    /// Number of objects in the TYPE index under `ty` — summed set
    /// sizes across shards, O(shards). (Pnodes, not version-refs; the
    /// planner uses this as a pruning estimate.)
    pub fn type_index_size(&self, ty: &str) -> usize {
        self.read_consistent(|| {
            self.shards
                .iter()
                .filter_map(|s| s.read().unwrap().type_index.get(ty).map(|ps| ps.len()))
                .sum()
        })
    }

    /// Visits the direct edges of one version-ref under its home
    /// shard's read lock, without copying them: ancestry inputs when
    /// `inverse` is false, descendants (version-refs that recorded
    /// `r` as an input) when true — in both directions including the
    /// implicit edge between consecutive versions of one object. `f`
    /// runs with the shard lock held (see [`Store::with_object`]).
    pub(crate) fn for_each_edge(
        &self,
        r: ObjectRef,
        inverse: bool,
        mut f: impl FnMut(EdgeKind<'_>, ObjectRef),
    ) {
        self.with_home(r.pnode, |shard| {
            let obj = shard.objects.get(&r.pnode);
            if inverse {
                for (d, a, av) in shard.reverse_index.get(&r.pnode).into_iter().flatten() {
                    if *av == r.version {
                        f(EdgeKind::Recorded(a), *d);
                    }
                }
                let next = r.version.0 + 1;
                if obj.is_some_and(|o| o.versions.contains_key(&next)) {
                    f(EdgeKind::Version, ObjectRef::new(r.pnode, Version(next)));
                }
            } else if let Some(obj) = obj {
                for (a, i) in obj.inputs(r.version) {
                    f(EdgeKind::Recorded(a), *i);
                }
                if r.version.0 > 0 {
                    let prev = Version(r.version.0 - 1);
                    f(EdgeKind::Version, ObjectRef::new(r.pnode, prev));
                }
            }
        })
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

    /// Labelled edge expansion with memoization — the PQL hot path.
    /// `outgoing` edges are ancestry inputs; incoming are descendants.
    /// The shard generation is recorded *before* computing, so a
    /// commit racing the computation leaves a cache entry that is
    /// already stale by its own snapshot — it can never serve.
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
        if let Some(hit) = self
            .lock_cache(&self.edge_cache)
            .lookup(&key, self.gen_of())
        {
            return hit;
        }
        let mut snapshot = ShardSnapshot::default();
        self.touch_snapshot(&mut snapshot, node.pnode);
        let out = compute();
        self.lock_cache(&self.edge_cache)
            .store(key, out.clone(), snapshot);
        out
    }

    /// Memoized labelled reachability closure — what PQL's `label*`
    /// and `label+` path steps call. `expand` appends one node's
    /// matching neighbours to a buffer the BFS reuses; the BFS records
    /// every shard it reads so the cached closure is invalidated only
    /// by commits that touched one of them.
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
        self.read_consistent(|| {
            if cache_on {
                if let Some(hit) = self
                    .lock_cache(&self.closure_cache)
                    .lookup(&key, self.gen_of())
                {
                    return hit;
                }
            }
            let mut snapshot = ShardSnapshot::default();
            let mut seen: HashSet<ObjectRef> = HashSet::new();
            seen.insert(node);
            let mut out: Vec<ObjectRef> = Vec::new();
            let mut frontier = vec![node];
            let mut next: Vec<ObjectRef> = Vec::new();
            while let Some(n) = frontier.pop() {
                self.touch_snapshot(&mut snapshot, n.pnode);
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
                self.lock_cache(&self.closure_cache)
                    .store(key.clone(), out.clone(), snapshot);
            }
            out
        })
    }

    /// Every descendant of `p` at any version — the transitive
    /// closure over outputs (the malware-spread query of §3.2).
    /// Memoized; see the module docs for invalidation.
    pub fn descendants(&self, p: Pnode) -> Vec<ObjectRef> {
        let key: AncestryKey = (p, 0, false);
        self.read_consistent(|| {
            if self.cfg.ancestry_cache > 0 {
                if let Some(hit) = self
                    .lock_cache(&self.ancestry_cache)
                    .lookup(&key, self.gen_of())
                {
                    return hit;
                }
            }
            let mut snapshot = ShardSnapshot::default();
            self.touch_snapshot(&mut snapshot, p);
            let mut seen: HashSet<ObjectRef> = HashSet::new();
            // Roots: every version of p recorded as a subject, plus
            // every version of p some other object referenced as an
            // ancestor (objects only ever seen as ancestors have no
            // entry).
            let roots: HashSet<ObjectRef> = self.with_home(p, |sh| {
                let recorded = sh.objects.get(&p).into_iter();
                let recorded = recorded.flat_map(|o| o.versions.keys().map(|v| Version(*v)));
                let referenced = sh.reverse_index.get(&p).into_iter().flatten();
                recorded
                    .chain(referenced.map(|(_, _, av)| *av))
                    .map(|v| ObjectRef::new(p, v))
                    .collect()
            });
            let mut work: Vec<ObjectRef> = roots.iter().copied().collect();
            while let Some(r) = work.pop() {
                self.touch_snapshot(&mut snapshot, r.pnode);
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
            if self.cfg.ancestry_cache > 0 {
                self.lock_cache(&self.ancestry_cache)
                    .store(key, out.clone(), snapshot);
            }
            out
        })
    }

    /// Every ancestor of `r` — transitive closure over inputs (the
    /// anomaly-tracing query of §3.1). Memoized; see the module docs
    /// for invalidation.
    pub fn ancestors(&self, r: ObjectRef) -> Vec<ObjectRef> {
        let key: AncestryKey = (r.pnode, r.version.0, true);
        self.read_consistent(|| {
            if self.cfg.ancestry_cache > 0 {
                if let Some(hit) = self
                    .lock_cache(&self.ancestry_cache)
                    .lookup(&key, self.gen_of())
                {
                    return hit;
                }
            }
            let mut snapshot = ShardSnapshot::default();
            let mut seen: HashSet<ObjectRef> = HashSet::new();
            let mut work = vec![r];
            while let Some(x) = work.pop() {
                self.touch_snapshot(&mut snapshot, x.pnode);
                self.for_each_edge(x, false, |_, a| {
                    if seen.insert(a) {
                        work.push(a);
                    }
                });
            }
            let mut out: Vec<ObjectRef> = seen.iter().copied().collect();
            out.sort();
            if self.cfg.ancestry_cache > 0 {
                self.lock_cache(&self.ancestry_cache)
                    .store(key, out.clone(), snapshot);
            }
            out
        })
    }

    fn touch_snapshot(&self, snapshot: &mut ShardSnapshot, p: Pnode) {
        let i = self.shard_of(p);
        snapshot.touch(i, self.gens[i].load(Ordering::Acquire));
    }
}

/// One profiled lock acquisition: every acquisition adds one
/// observation to `waits`, but only a contended one reads the clock.
/// `try_lock` succeeding *is* the measurement that nobody held the
/// lock, so it is observed as a zero wait; a blocked acquisition
/// observes its wall-clock wait (at least 1 ns, so the histogram
/// always tells the two apart).
fn acquire<G>(
    waits: &AtomicHist,
    try_lock: impl FnOnce() -> TryLockResult<G>,
    lock: impl FnOnce() -> LockResult<G>,
) -> G {
    match try_lock() {
        Ok(guard) => {
            waits.observe(0);
            guard
        }
        Err(TryLockError::WouldBlock) => {
            let t = Instant::now();
            let guard = lock().expect("a thread panicked while holding a store lock");
            waits.observe((t.elapsed().as_nanos() as u64).max(1));
            guard
        }
        Err(TryLockError::Poisoned(e)) => {
            panic!("a thread panicked while holding a store lock: {e}")
        }
    }
}

/// The subject pnode an entry's effects are homed on.
fn subject_of(entry: &LogEntry) -> Option<Pnode> {
    match entry {
        LogEntry::Prov { subject, .. } | LogEntry::DataWrite { subject, .. } => Some(subject.pnode),
        LogEntry::TxnBegin { .. } | LogEntry::TxnEnd { .. } => None,
    }
}

/// The splitmix64 finalizer — the one stable mixing function behind
/// both routing layers (pnode→shard here, volume→member in
/// [`crate::cluster`]). Deliberately not `std`'s `RandomState`, which
/// would give every process its own routing.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stable 64-bit mix of a pnode (splitmix64 over volume and number).
fn mix_pnode(p: Pnode) -> u64 {
    splitmix64(p.number ^ (u64::from(p.volume.0) << 32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// The exported `lock.*_wait_ns` histograms, as `(count, sum)`.
    fn waits(store: &Store) -> [(u64, u64); 3] {
        let mut reg = provscope::Registry::new();
        store.export_contention("", &mut reg);
        [
            "lock.meta_wait_ns",
            "lock.shard_wait_ns",
            "lock.cache_wait_ns",
        ]
        .map(|name| {
            let h = reg.histogram(name).expect("every lock level is exported");
            (h.count(), h.sum())
        })
    }

    /// The contention profile keeps its meaning without a clock read
    /// per acquisition: every acquisition is one observation, and an
    /// uncontended one is observed as a zero wait.
    #[test]
    fn uncontended_acquisitions_are_each_observed_as_a_zero_wait() {
        let store = Store::new();
        let [meta, shard, cache] = waits(&store);
        for i in 0..7 {
            drop(store.lock_meta());
            drop(store.shard_write(i % store.shard_count()));
            drop(store.lock_cache(&store.edge_cache));
            drop(store.lock_cache(&store.closure_cache));
        }
        let after = waits(&store);
        assert_eq!(after[0], (meta.0 + 7, 0));
        assert_eq!(after[1], (shard.0 + 7, 0));
        assert_eq!(after[2], (cache.0 + 14, 0));
    }

    /// A held lock is observed as a nonzero wait, at every level. The
    /// holder lets go inside the blocking call itself, so the
    /// interleaving is forced without a second thread.
    #[test]
    fn a_held_lock_is_observed_as_a_nonzero_wait() {
        let store = Store::new();
        let before = waits(&store);

        let held = RefCell::new(Some(store.meta.lock().unwrap()));
        drop(acquire(
            &store.contention.meta_wait,
            || store.meta.try_lock(),
            || {
                held.take();
                store.meta.lock()
            },
        ));
        let held = RefCell::new(Some(store.shards[0].read().unwrap()));
        drop(acquire(
            &store.contention.shard_wait,
            || store.shards[0].try_write(),
            || {
                held.take();
                store.shards[0].write()
            },
        ));
        let held = RefCell::new(Some(store.edge_cache.lock().unwrap()));
        drop(acquire(
            &store.contention.cache_wait,
            || store.edge_cache.try_lock(),
            || {
                held.take();
                store.edge_cache.lock()
            },
        ));

        for (level, (was, now)) in before.iter().zip(waits(&store)).enumerate() {
            assert_eq!(now.0, was.0 + 1, "level {level}: one acquisition");
            assert!(now.1 > was.1, "level {level}: a contended wait is nonzero");
        }
    }
}
