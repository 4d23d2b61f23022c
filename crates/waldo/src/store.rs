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
//! * **the query cache** — labelled reachability closures (PQL's
//!   `label*` and `label+` steps) are memoized in one LRU cache and
//!   validated at hit time against a log of the pnodes each commit
//!   changed (`crate::cache`), so ingest evicts only the cached
//!   closures whose own pnodes it changed.
//!
//! Queries that existed on the old single-map `ProvDb` keep their
//! exact semantics: point lookups route to one shard, index scans fan
//! out and merge in pnode order. An exact NAME or application-attribute
//! lookup descends only the shards a one-byte-per-slot key filter
//! flags (`store/keys.rs`).
//!
//! # Ownership
//!
//! One daemon owns one store (paper §5.6), so the store has one owner
//! and no locks: every writer (`ingest`, `stage`, `commit_staged`,
//! `merge`, …) takes `&mut self` and every reader takes `&self`. A
//! commit therefore excludes all readers for its whole duration — the
//! borrow checker, not a lock, is why no query can observe half of a
//! cross-shard group. The closure cache is the one piece of interior
//! mutability: memoizing reads go through `&self`, so the cache sits
//! in a `RefCell`, and no cache borrow is held across a call back into
//! the store.
//!
//! This file holds routing, staging and group commit. The read API
//! lives in `store/read.rs`, the memoized closure in
//! `store/cached.rs`, and whole-store state in and out — checkpoint
//! plumbing, restore, [`Store::merge`] — in `store/durable.rs`.

use std::cell::RefCell;
use std::collections::HashMap;

use dpapi::{Attribute, Pnode};
use lasagna::LogEntry;

mod cached;
mod durable;
mod keys;
mod read;

pub use durable::MergeError;
pub(crate) use read::EdgeKind;

use crate::cache::{CacheStats, DirtyLog, TraversalCache};
use crate::db::IngestStats;
use crate::delta::DeltaGroups;
use crate::shard::{ReverseEdge, Shard};
use keys::KeyFilter;

/// Tuning knobs for the storage engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaldoConfig {
    /// Number of hash shards. Normalized at construction — see
    /// [`WaldoConfig::effective_shards`] for the exact rule.
    pub shards: usize,
    /// Entries per group commit while draining logs. `1` reproduces
    /// the record-at-a-time daemon of the original system.
    pub ingest_batch: usize,
    /// Capacity of the query cache, in memoized reachability closures
    /// (PQL `label*`/`label+` steps); `0` disables caching.
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
    /// The count is clamped to `1..=64` because a commit's WAL frame
    /// names the shards it touched in one `u64` mask (see
    /// [`crate::wal::WalFrame::touched`]), and rounded up to a power of
    /// two so routing is a mask instead of a modulo. Callers sizing
    /// fleets should call this instead of reading back
    /// [`WaldoConfig::shards`]: asking for 6 shards builds 8, asking
    /// for 100 builds 64.
    pub fn effective_shards(&self) -> usize {
        self.shards.clamp(1, 64).next_power_of_two().min(64)
    }
}

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

/// Writer-owned bookkeeping: everything but the shards that a commit
/// changes.
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

/// The sharded, batched, cached provenance store.
pub struct Store {
    cfg: WaldoConfig,
    shards: Vec<Shard>,
    shard_mask: u64,
    /// Monotonic group-commit sequence number.
    commit_seq: u64,
    /// Writer-owned bookkeeping.
    meta: StoreMeta,
    /// Memoized whole reachability closures — what repeated PQL
    /// `label*`/`label+` queries hit.
    closure_cache: RefCell<TraversalCache>,
    /// What recent commits changed, which the cache validates against.
    dirty: DirtyLog,
    /// Which shards can hold a NAME or application-attribute key.
    keys: KeyFilter,
}

/// Always zero (see [`Store::contention_stats`]). Inert, like
/// [`crate::ClusterRuntime`]: the frozen `ledger/` benchmark reads
/// these two fields, so the type goes with the next `[benchmark]` PR.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContentionStats {
    /// Formerly optimistic read attempts retried.
    pub epoch_retries: u64,
    /// Formerly reads that fell back to blocking commits.
    pub epoch_fallbacks: u64,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("cfg", &self.cfg)
            .field("objects", &self.object_count())
            .field("staged", &self.meta.staged.len())
            .field("open_txns", &self.meta.pending_txns.len())
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
        let cap = cfg.ancestry_cache.max(1);
        Store {
            cfg,
            shards: (0..n).map(|_| Shard::default()).collect(),
            shard_mask: (n - 1) as u64,
            commit_seq: 0,
            meta: StoreMeta {
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
            },
            closure_cache: RefCell::new(TraversalCache::new(cap)),
            dirty: DirtyLog::new(cap),
            keys: KeyFilter::default(),
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

    /// `p`'s home shard.
    pub(crate) fn home(&self, p: Pnode) -> &Shard {
        &self.shards[self.shard_of(p)]
    }

    /// Shard `i` — the checkpoint writer's access path.
    pub(crate) fn shard(&self, i: usize) -> &Shard {
        &self.shards[i]
    }

    /// Test seam: from now on every key hashes to one slot of the key
    /// filter, so an exact lookup descends every shard that holds any
    /// key. Answers must not change; only the filter's pruning goes.
    #[doc(hidden)]
    pub fn force_key_collisions(&mut self) {
        self.keys.collide(&self.shards);
    }

    /// Always zero: the store has no locks to contend on. Kept only
    /// because the frozen `ledger/` benchmark calls it (see
    /// [`ContentionStats`]).
    pub fn contention_stats(&self) -> ContentionStats {
        ContentionStats::default()
    }

    /// Exports nothing (see [`Store::contention_stats`]).
    pub fn export_contention(&self, _prefix: &str, _reg: &mut provscope::Registry) {}

    /// Always zero: edge lists are not cached. Kept only because the
    /// frozen `ledger/` benchmark calls it (see [`ContentionStats`]).
    pub fn edge_cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Closure cache counters (repeated PQL `label*`/`label+` steps).
    pub fn closure_cache_stats(&self) -> CacheStats {
        self.closure_cache.borrow().stats
    }

    // ---- ingestion --------------------------------------------------------

    /// Ingests a parsed log image as one group commit. This is the old
    /// `ProvDb::ingest` surface — semantics (transaction buffering
    /// across calls, stats) are unchanged — but entries are applied by
    /// reference, without passing through the staging queue.
    pub fn ingest(&mut self, entries: &[LogEntry]) -> IngestStats {
        let mut stats = IngestStats::default();
        // Direct ingest may not reorder around entries a daemon staged
        // earlier: flush them first, as their own commit. Their counts
        // belong to that commit, not to this call's return value.
        self.commit_staged(&mut IngestStats::default());
        let meta = &mut self.meta;
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
        let touched = self.apply_group(&apply, &mut stats);
        if !entries.is_empty() {
            stats.group_commits += 1;
            self.write_commit_frame(apply.len() as u64, touched);
        }
        stats
    }

    /// Marks a log-image boundary in the staged stream: the open
    /// transaction id of one image never carries into the next
    /// (matching the original per-image semantics). Do **not** call
    /// this when resuming a partially committed file after a crash —
    /// the store's committed transaction context is precisely the
    /// context at the file's high-water mark.
    pub fn begin_stream(&mut self) {
        self.meta.staged.push(Staged::StreamReset);
    }

    /// Registers a log file for replay tracking; returns its source
    /// handle and the number of leading entries already committed
    /// (nonzero after a crash between group commits — skip those).
    pub fn register_source(&mut self, path: &str) -> (usize, usize) {
        let meta = &mut self.meta;
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
    pub fn stage(&mut self, entry: LogEntry, source: Option<usize>) {
        self.meta.staged.push(Staged::Entry { entry, source });
        self.meta.staged_entries += 1;
    }

    /// Number of entries staged for the next commit.
    pub fn staged_len(&self) -> usize {
        self.meta.staged_entries
    }

    /// Applies every staged entry as one atomic group commit:
    /// transaction markers are resolved in arrival order, appliable
    /// entries are grouped by subject pnode per shard (one
    /// object-table lookup per run), reverse ancestry edges are routed
    /// to their ancestors' shards, source-file marks advance, and each
    /// touched shard's generation is bumped exactly once.
    pub fn commit_staged(&mut self, stats: &mut IngestStats) {
        let meta = &mut self.meta;
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
        let touched = self.apply_group(&refs, stats);
        // A commit that only buffered transaction members (or only
        // consumed markers) still advanced committed state — the
        // pending-transaction buffers and source marks — so its
        // durability frame must be written too, or a consumer
        // recovering from the last persisted frame would replay those
        // entries twice.
        if entries_processed > 0 {
            stats.group_commits += 1;
            self.write_commit_frame(apply.len() as u64, touched);
        }
    }

    /// Lifetime count of replayed disclosure batches detected (and
    /// skipped wholesale) by the per-volume high-water check — the
    /// "detected" signal for group-frame duplication tampers.
    pub fn replayed_batches(&self) -> u64 {
        self.meta.replayed_batches
    }

    /// Applies one commit's entries as an atomic group: entries are
    /// bucketed by shard (preserving arrival order) and grouped into
    /// consecutive same-subject runs, so each run costs one
    /// object-table lookup, and every index key new to its shard is
    /// filed in the key filter; reverse ancestry edges are then routed
    /// to their ancestors' shards; finally each touched shard's
    /// generation is bumped exactly once. Returns the touched-shard
    /// mask; the caller finalizes the commit (sequence number,
    /// durability frame). Commit, [`Store::ingest`] and delta replay
    /// all apply through here.
    fn apply_group(&mut self, apply: &[&LogEntry], stats: &mut IngestStats) -> u64 {
        if apply.is_empty() {
            return 0;
        }
        self.dirty.begin();
        if let Some(d) = &mut self.meta.delta {
            d.groups.push(apply);
            if d.groups.len() as u64 > d.budget {
                self.meta.delta = None;
            }
        }
        let mut touched: u64 = 0;
        let mut reverse: Vec<ReverseEdge> = Vec::new();
        let mut buckets = std::mem::take(&mut self.meta.bucket_scratch);
        for (i, entry) in apply.iter().enumerate() {
            if let Some(p) = subject_of(entry) {
                let shard = (mix_pnode(p) & self.shard_mask) as usize;
                buckets[shard].push(i as u32);
            }
        }
        let mut run: Vec<&LogEntry> = Vec::new();
        for (i, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            touched |= 1 << i;
            let shard = &mut self.shards[i];
            let keys = &mut self.keys;
            let mut new_key = |attr: &Attribute, key: &str| keys.insert(i, attr, key);
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
                shard.apply_run(pnode, &run, &mut reverse, &mut new_key);
                self.dirty.subject(pnode);
                stats.applied += run_end - run_start;
                run_start = run_end;
            }
        }
        for bucket in &mut buckets {
            bucket.clear();
        }
        self.meta.bucket_scratch = buckets;
        self.keys.grow();
        for edge in reverse {
            let i = (mix_pnode(edge.0) & self.shard_mask) as usize;
            touched |= 1 << i;
            self.dirty.target(edge.0);
            self.shards[i].add_reverse_edge(edge);
        }
        self.dirty.end();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if touched & (1 << i) != 0 {
                shard.generation += 1;
            }
        }
        touched
    }

    /// Serializes the commit's durability record — see
    /// [`crate::wal`] for the frame format and its recovery scope.
    /// Writing and syncing the frame (see `Waldo::attach_db_dir`) is
    /// the per-commit cost that batching amortizes; checkpoints
    /// (`crate::checkpoint`) later truncate frames at or below the
    /// published sequence.
    fn write_commit_frame(&mut self, applied: u64, touched: u64) {
        self.commit_seq += 1;
        let frame = crate::wal::WalFrame {
            seq: self.commit_seq,
            applied,
            touched,
            gens: self
                .shards
                .iter()
                .enumerate()
                .filter(|(i, _)| touched & (1 << i) != 0)
                .map(|(_, s)| s.generation)
                .collect(),
            sources: self
                .meta
                .source_files
                .iter()
                .filter(|s| !s.path.is_empty())
                .map(|s| (lasagna::crc32(s.path.as_bytes()), s.committed_mark as u64))
                .collect(),
        };
        self.meta.commit_frame.clear();
        crate::wal::encode_frame(&mut self.meta.commit_frame, &frame);
    }

    /// The durability frame of the most recent group commit.
    pub fn last_commit_frame(&self) -> Vec<u8> {
        self.meta.commit_frame.clone()
    }

    /// Number of group commits performed over the store's lifetime.
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }

    /// Discards staged-but-uncommitted items — the state a crash would
    /// lose. Committed state (shards, open-transaction buffers, source
    /// marks) survives, exactly like a database that crashed between
    /// group commits.
    pub fn drop_staged(&mut self) {
        self.meta.staged.clear();
        self.meta.staged_entries = 0;
    }

    /// True if every entry of registered source `src` has committed,
    /// given the file held `total` entries.
    pub fn source_fully_committed(&self, src: usize, total: usize) -> bool {
        self.meta.source_files[src].committed_mark >= total
    }

    /// Forgets replay state for `src` (call after unlinking the file;
    /// a future log reusing the same path starts fresh, and the slot
    /// is recycled so long-running daemons don't accumulate
    /// tombstones). Idempotent: forgetting an already-free slot is a
    /// no-op, so it can never be pushed onto the free list twice —
    /// a double free would alias two future logs onto one slot and
    /// corrupt their replay marks.
    pub fn forget_source(&mut self, src: usize) {
        let meta = &mut self.meta;
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
        let mut v: Vec<u64> = self.meta.pending_txns.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Drops an orphaned transaction's buffered records (the server
    /// Waldo's garbage collection of §6.1.2).
    pub fn discard_txn(&mut self, id: u64) -> usize {
        if self.meta.commit_txn == Some(id) {
            self.meta.commit_txn = None;
        }
        self.meta.pending_txns.remove(&id).map_or(0, |v| v.len())
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
