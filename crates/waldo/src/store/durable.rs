//! Whole-store state in and out: the checkpoint writer's view and
//! restart's rebuild, and the cluster fan-in's [`Store::merge`].

use lasagna::LogEntry;

use super::{PendingDelta, SourceFile, Store, WaldoConfig};
use crate::db::IngestStats;
use crate::delta::DeltaGroups;
use crate::shard::Shard;

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

impl Store {
    /// Starts recording what each group commit applies, from the
    /// current commit sequence, until the record's group bytes exceed
    /// `budget` — the daemon passes what the delta chain may still
    /// grow by before a base rewrite is due, so a record that could
    /// only be thrown away is not kept. Memory-only stores never call
    /// this and pay nothing.
    pub(crate) fn track_delta(&mut self, budget: u64) {
        self.meta.delta = Some(PendingDelta {
            from_seq: self.commit_seq,
            budget,
            groups: DeltaGroups::default(),
        });
    }

    /// Hands over the applied-entry record and stops tracking; `None`
    /// when the record cannot describe the store's change since
    /// [`Store::track_delta`] (see `StoreMeta::delta`). Tracking stays
    /// off until the caller re-arms it, so a checkpoint that fails
    /// after taking the record is followed by a full base.
    pub(crate) fn take_delta(&mut self) -> Option<PendingDelta> {
        self.meta.delta.take()
    }

    /// Re-applies one commit's entries from a delta segment — the
    /// restart path (`checkpoint::try_load`). Goes through the same
    /// `apply_group` as the original commit, so shard contents,
    /// reverse edges and generations come out identical; the commit
    /// sequence and replay state come from the manifest instead.
    pub(crate) fn replay_group(&mut self, entries: &[LogEntry]) {
        let refs: Vec<&LogEntry> = entries.iter().collect();
        self.apply_group(&refs, &mut IngestStats::default());
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
    pub fn segment_images(&self) -> Vec<Vec<u8>> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| crate::segment::encode_shard(i as u32, s, 0))
            .collect()
    }

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
    /// * objects merge by pnode; colliding versions extend
    ///   attribute/input runs in `self`-then-`other` order and sum
    ///   the data-write accounting (with members ingesting *distinct
    ///   volumes* — the cluster invariant — pnodes never collide and
    ///   this degenerates to a plain union);
    /// * secondary indexes (name, type, generalized attribute) union;
    /// * reverse ancestry edge runs concatenate — cross-volume
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
    /// collides. Touched shards' generations bump for the checkpoint
    /// writer, the dirty log is flushed — every cached traversal is
    /// recomputed against the merged store — and the key filter is
    /// rebuilt from the merged indexes.
    pub fn merge(&mut self, other: &Store) -> Result<(), MergeError> {
        let (ours, theirs) = (&mut self.meta, &other.meta);
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
        self.dirty.flush();
        for (dst, src) in self.shards.iter_mut().zip(&other.shards) {
            if src.object_count() == 0 && src.ancestors().next().is_none() {
                continue;
            }
            dst.merge_from(src);
            dst.generation += 1;
        }
        self.keys.rebuild(&self.shards);
        self.commit_seq += other.commit_seq;
        Ok(())
    }

    /// Committed open-transaction state, sorted by id: the buffers a
    /// checkpoint must persist for restart to equal the uncrashed
    /// store, plus the transaction the committed stream prefix is
    /// inside.
    pub(crate) fn open_txn_state(&self) -> (Vec<(u64, Vec<LogEntry>)>, Option<u64>) {
        let mut txns: Vec<(u64, Vec<LogEntry>)> = self
            .meta
            .pending_txns
            .iter()
            .map(|(id, buf)| (*id, buf.clone()))
            .collect();
        txns.sort_unstable_by_key(|(id, _)| *id);
        (txns, self.meta.commit_txn)
    }

    /// Committed batch-replay state, for the checkpoint writer: the
    /// per-volume high-water marks sorted by volume, plus the open
    /// replay-skip region (if a crash interrupted one). Restart must
    /// restore both or a replayed group frame could apply twice.
    pub(crate) fn batch_state(&self) -> (Vec<(u32, u64)>, Option<u64>) {
        let mut hw: Vec<(u32, u64)> = self.meta.batch_hw.iter().map(|(v, s)| (*v, *s)).collect();
        hw.sort_unstable_by_key(|(v, _)| *v);
        (hw, self.meta.replay_skip)
    }

    /// Source-file replay slots, in slot order: `(path, committed
    /// mark)`, with an empty path marking a free slot. Preserving slot
    /// indices keeps a restored store's handles identical.
    pub(crate) fn source_state(&self) -> Vec<(String, u64)> {
        self.meta
            .source_files
            .iter()
            .map(|s| (s.path.clone(), s.committed_mark as u64))
            .collect()
    }

    /// Rebuilds a store from checkpointed parts: rehydrated shards,
    /// open-transaction buffers, source replay slots and the commit
    /// sequence; the key filter is rebuilt from the shards' indexes.
    /// `shards.len()` must be the power-of-two count the segments were
    /// written with; it overrides `cfg.shards`.
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
        store.shards = shards;
        store.keys.rebuild(&store.shards);
        store.commit_seq = commit_seq;
        let meta = &mut store.meta;
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
}
