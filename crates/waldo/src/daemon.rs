//! The Waldo daemon.
//!
//! Waldo is "a user-level daemon that reads provenance records from
//! the log and stores them in a database" (paper §5.6). In the
//! simulation Waldo runs as an ordinary (but observation-exempt)
//! process: it learns about closed log files from the volume's
//! rotation queue (the inotify stand-in), reads them through normal
//! system calls, ingests them into the sharded [`Store`] and removes
//! them.
//!
//! Ingestion is *batched with group commit*: entries parsed from
//! rotated logs are staged and committed in groups of
//! [`WaldoConfig::ingest_batch`] (spanning log files within one poll),
//! instead of the original record-at-a-time inserts. The store keeps
//! a per-file committed high-water mark, so a daemon that crashes
//! between group commits replays only the uncommitted suffix of each
//! surviving log — see
//! `tests/group_commit.rs::crash_mid_batch_recovers_exactly_once`.
//!
//! # Durability and cold restart
//!
//! With a database directory attached ([`Waldo::attach_db_dir`]) the
//! daemon is durable against **machine** crashes, not just daemon
//! crashes:
//!
//! * every group commit appends its frame to `<dir>/wal` and fsyncs;
//! * by the policy in [`WaldoConfig`] (commit count or WAL size) the
//!   daemon publishes a **checkpoint** under `<dir>/checkpoints` —
//!   one delta segment holding what was applied since the last
//!   checkpoint (or, when it must, a fresh base image of every shard)
//!   plus an atomically renamed manifest (see [`crate::checkpoint`])
//!   — then truncates WAL frames at or below the manifest's sequence;
//! * a fully committed log is unlinked only once a full complement
//!   of `keep_checkpoints` manifests exists and the **oldest** covers
//!   its retirement, so even with `keep_checkpoints - 1` damaged
//!   checkpoints everything stays replayable (caveat: a corrupt
//!   file *shared* by every retained checkpoint — the base, an older
//!   delta — defeats this; see `crate::checkpoint`);
//! * [`Waldo::restart`] rebuilds the store after a machine crash:
//!   newest complete checkpoint (base, then its delta chain),
//!   surviving WAL frames (validated), then replay of retained logs
//!   from the per-log marks.
//!
//! Without a database directory the store is memory-only and only
//! daemon-crash recovery ([`Waldo::resume`] +
//! [`Waldo::recover_volume`]) applies.
//!
//! Every ingest entry point runs one per-log step and one commit
//! helper: a group commit persists its frame, then retires logs and
//! runs the checkpoint policy as above.

use sim_os::fs::FsError;
use sim_os::proc::{Fd, MountId, Pid};
use sim_os::syscall::{Kernel, OpenFlags};

use crate::checkpoint::{self, CheckpointCrash, CheckpointStats, RestartReport, Retained};
use crate::db::{IngestStats, WaldoConfig};
use crate::manifest::Manifest;
use crate::store::Store;

/// Cumulative query-side counters of one daemon: how many PQL
/// queries it served and what the planner did across all of them —
/// surfaced alongside the ingest-side op counters (cache hit rates,
/// WAL errors, checkpoint stats) by the bench rig.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryOps {
    /// Queries served through [`Waldo::query`].
    pub queries: u64,
    /// Planner counters, accumulated ([`pql::PlanStats::absorb`]).
    pub planner: pql::PlanStats,
}

impl std::ops::AddAssign for QueryOps {
    /// Folds another daemon's query counters into these — the cluster
    /// roll-up (`waldo::cluster`), so per-member counters aggregate
    /// without hand-written field adds.
    fn add_assign(&mut self, other: QueryOps) {
        self.queries += other.queries;
        self.planner += other.planner;
    }
}

impl std::iter::Sum for QueryOps {
    fn sum<I: Iterator<Item = QueryOps>>(iter: I) -> QueryOps {
        iter.fold(QueryOps::default(), |mut acc, s| {
            acc += s;
            acc
        })
    }
}

impl provscope::MetricSource for QueryOps {
    fn record(&self, out: &mut dyn FnMut(&str, u64)) {
        out("queries", self.queries);
        provscope::MetricSource::record(&self.planner, &mut |k, v| out(&format!("planner.{k}"), v));
    }
}

impl provscope::MetricSource for Waldo {
    /// The daemon's lifetime counters as one flat namespace: its own
    /// top-level health signals plus the nested `query.` and `ckpt.`
    /// subsystems — what [`crate::Cluster::record_metrics`] absorbs
    /// per member.
    fn record(&self, out: &mut dyn FnMut(&str, u64)) {
        out("processed_logs", self.processed_logs);
        out("wal_errors", self.wal_errors);
        out("log_tails_truncated", self.log_tails_truncated);
        out("log_tails_corrupt", self.log_tails_corrupt);
        out("logs_unreadable", self.logs_unreadable);
        out("logs_unlink_failed", self.logs_unlink_failed);
        provscope::MetricSource::record(&self.query_ops, &mut |k, v| out(&format!("query.{k}"), v));
        provscope::MetricSource::record(&self.ckpt_stats, &mut |k, v| out(&format!("ckpt.{k}"), v));
    }
}

/// Why a cold restart ([`Waldo::restart`]) could not attach the
/// durable home. The variants distinguish "the directory is gone"
/// (restore from elsewhere, or accept a full rebuild by creating it)
/// from "the directory is there but every checkpoint in it is
/// damaged" (the logs may still cover everything — but the caller
/// must decide that, not a silent full replay).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestartError {
    /// A file-system error while attaching or replaying.
    Fs(FsError),
    /// `db_dir` does not exist at all. A restart is an adoption of
    /// durable state; with no directory there is nothing to adopt,
    /// and silently creating an empty one would masquerade a data
    /// loss as a clean cold start.
    MissingDbDir { path: String },
    /// `db_dir/checkpoints` holds one or more manifests but none of
    /// them decodes (all damaged). Distinguishable from the legal
    /// zero-manifest case (full replay from retained logs) so
    /// tampering with every manifest cannot be mistaken for a fresh
    /// database.
    NoReadableCheckpoint { manifests: usize },
}

impl std::fmt::Display for RestartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestartError::Fs(e) => write!(f, "restart failed on a file-system error: {e:?}"),
            RestartError::MissingDbDir { path } => {
                write!(f, "database directory {path} does not exist")
            }
            RestartError::NoReadableCheckpoint { manifests } => write!(
                f,
                "all {manifests} manifest(s) in the database directory are unreadable"
            ),
        }
    }
}

impl std::error::Error for RestartError {}

impl From<FsError> for RestartError {
    fn from(e: FsError) -> RestartError {
        RestartError::Fs(e)
    }
}

/// A drained source log on its way to being unlinked.
#[derive(Clone, Debug)]
struct RetiringLog {
    src: usize,
    path: String,
    /// Entries the log parsed to: it is fully committed once the
    /// store's mark for `src` reaches this.
    total: usize,
    /// `None` while the log awaits full commit. Then the commit
    /// sequence at which a durably persisted commit found it fully
    /// committed: the log is removable once the retention floor
    /// reaches it (at once on a memory-only daemon).
    retired_seq: Option<u64>,
}

/// The Waldo daemon state.
pub struct Waldo {
    /// The database Waldo maintains and serves to the query engine.
    pub db: Store,
    pid: Pid,
    processed_logs: u64,
    /// Open fd of the database WAL file, when durability is attached:
    /// every group commit appends its frame here and fsyncs.
    db_fd: Option<Fd>,
    /// Commit frames that failed to persist (write or fsync error).
    wal_errors: u64,
    /// True while the latest commit frame has not been durably
    /// persisted; unlinking is blocked until a (re)persist succeeds.
    frame_dirty: bool,
    /// The durable home (`wal` + `checkpoints/`), when attached via
    /// [`Waldo::attach_db_dir`]. `None` = memory-only: no WAL, no
    /// checkpoints, no log retention.
    db_dir: Option<String>,
    /// Bytes appended to the WAL since its last truncation (drives
    /// the `checkpoint_wal_bytes` trigger).
    wal_len: u64,
    /// Group commits since the last published checkpoint (drives the
    /// `checkpoint_commits` trigger).
    commits_since_checkpoint: u64,
    /// The newest published manifest; the next checkpoint extends its
    /// delta chain, or rewrites its base.
    last_manifest: Option<Manifest>,
    /// Checkpoints retained on disk, ascending by sequence, each with
    /// the files its manifest names — rebuilt from disk only when a
    /// directory is attached, kept current by the daemon's own
    /// publications after that. Once a full complement of
    /// `keep_checkpoints` exists, the oldest of them is the
    /// **retention floor** (see [`Waldo::checkpoint`] internals):
    /// logs retired at or below it survive in every checkpoint a
    /// restart could fall back to. Until then nothing is unlinked.
    retained: Vec<Retained>,
    /// The one retirement queue: drained logs, in drain order, each
    /// at most once. An entry first awaits a durably persisted commit
    /// that finds it fully committed (a failed WAL persist leaves it
    /// waiting for the next one that succeeds), then the retention
    /// floor, then a successful unlink ([`Waldo::retire_logs`]).
    pending_retire: Vec<RetiringLog>,
    /// Lifetime count of failed log unlinks (one per attempt); each
    /// such log stays queued and is retried.
    logs_unlink_failed: u64,
    /// True from manifest publication until truncation, garbage
    /// collection and covered-log unlinking complete — a failure in
    /// that window is retried by the next [`Waldo::checkpoint`] call
    /// even when there is nothing new to publish.
    post_publish_pending: bool,
    ckpt_stats: CheckpointStats,
    restart_report: Option<RestartReport>,
    /// Logs whose parse stopped at a truncated tail (clean cut inside
    /// a frame) — the detection counter for log-truncation tampers.
    log_tails_truncated: u64,
    /// Logs whose parse stopped at a corrupt frame (CRC mismatch) —
    /// the detection counter for log bit-flip tampers.
    log_tails_corrupt: u64,
    /// Rotated logs a drain could not read, in rotation order. Their
    /// rotation-queue entry is already consumed, so this list is the
    /// only thing that brings them back: the next drain retries them
    /// first ([`Waldo::read_log`]).
    unread_logs: Vec<String>,
    /// Lifetime count of failed log reads (one per attempt).
    logs_unreadable: u64,
    /// Cumulative planner counters for queries served by this daemon.
    query_ops: QueryOps,
    scope: provscope::Scope,
    /// The drain in progress's linked per-batch ingest spans, open
    /// between a group frame's TxnBegin and its TxnEnd — joining the
    /// trace of the disclosure transaction whose batch id frames it.
    batch_spans: Vec<(u64, provscope::SpanHandle)>,
}

impl Waldo {
    /// Creates a daemon running as `pid`, with the default storage
    /// configuration. The caller must exempt the pid from provenance
    /// observation (otherwise Waldo's own reads of the log would
    /// generate provenance about provenance).
    pub fn new(pid: Pid) -> Waldo {
        Waldo::with_config(pid, WaldoConfig::default())
    }

    /// Creates a daemon with explicit storage tuning.
    pub fn with_config(pid: Pid, cfg: WaldoConfig) -> Waldo {
        Waldo {
            db: Store::with_config(cfg),
            pid,
            processed_logs: 0,
            db_fd: None,
            wal_errors: 0,
            frame_dirty: false,
            db_dir: None,
            wal_len: 0,
            commits_since_checkpoint: 0,
            last_manifest: None,
            retained: Vec::new(),
            pending_retire: Vec::new(),
            logs_unlink_failed: 0,
            post_publish_pending: false,
            ckpt_stats: CheckpointStats::default(),
            restart_report: None,
            log_tails_truncated: 0,
            log_tails_corrupt: 0,
            unread_logs: Vec::new(),
            logs_unreadable: 0,
            query_ops: QueryOps::default(),
            scope: provscope::Scope::default(),
            batch_spans: Vec::new(),
        }
    }

    /// Attaches a tracing scope. The daemon records its drain /
    /// group-commit / WAL-persist / checkpoint / query work in it,
    /// and links each ingested group frame to the trace of the
    /// disclosure transaction that produced it (the frame's batch id
    /// *is* the trace id).
    pub fn set_scope(&mut self, scope: provscope::Scope) {
        self.scope = scope;
    }

    /// Serves one PQL query from the daemon's database through the
    /// planned, index-backed pipeline (`pql::plan`), accumulating the
    /// planner counters into [`Waldo::query_ops`]. This is the query
    /// path of the paper's §5.6 — "Waldo is also responsible for
    /// accessing the database on behalf of the query engine" — now
    /// with predicate pushdown into the store's secondary indexes.
    pub fn query(&mut self, text: &str) -> Result<pql::QueryOutput, pql::PqlError> {
        let span = self.scope.open("waldo", "query");
        let out = pql::query_traced(text, &self.db, &self.scope);
        self.scope.close(span);
        let out = out?;
        self.query_ops.queries += 1;
        self.query_ops.planner.absorb(&out.stats);
        Ok(out)
    }

    /// Cumulative query/planner counters for this daemon's lifetime.
    pub fn query_ops(&self) -> QueryOps {
        self.query_ops
    }

    /// Adopts a database that survived a daemon restart (the committed
    /// state of a crashed predecessor). Staged-but-uncommitted entries
    /// are discarded — the next poll replays them from the logs that
    /// were, by design, not yet unlinked.
    pub fn resume(pid: Pid, mut db: Store) -> Waldo {
        db.drop_staged();
        let cfg = db.config();
        let mut w = Waldo::with_config(pid, cfg);
        w.db = db;
        w
    }

    /// Cold start after a **machine** crash: nothing survives in
    /// memory, only `db_dir` (WAL + checkpoints) and the retained
    /// Lasagna logs on disk. Loads the newest complete checkpoint
    /// (falling back past damaged ones), validates the surviving WAL
    /// frames, reattaches the WAL, then replays retained logs from
    /// the per-log high-water marks by rescanning each mount in
    /// `mount_paths` (`"/"` or `"/mnt/x"`). The result provably
    /// equals the store of a daemon that never crashed — see the
    /// crash matrix in `tests/group_commit.rs`.
    ///
    /// With no loadable checkpoint the store starts empty and
    /// everything is rebuilt from the logs (full replay) — but only
    /// when the checkpoint directory holds no manifests at all. A
    /// directory with manifests that are *all* unreadable is
    /// [`RestartError::NoReadableCheckpoint`], and a `db_dir` that
    /// does not exist is [`RestartError::MissingDbDir`]: both would
    /// otherwise masquerade data loss (or tampering) as a clean cold
    /// start. Other errors mean the durable home could not be
    /// attached (directories or WAL unusable) — restarting without
    /// durability would silently unlink replayed logs, so that is
    /// refused rather than degraded.
    pub fn restart(
        pid: Pid,
        kernel: &mut Kernel,
        cfg: WaldoConfig,
        db_dir: &str,
        mount_paths: &[&str],
    ) -> Result<Waldo, RestartError> {
        if kernel.stat(pid, db_dir).is_err() {
            return Err(RestartError::MissingDbDir {
                path: db_dir.to_string(),
            });
        }
        let dir = checkpoint::checkpoint_dir(db_dir);
        let mut report = RestartReport::default();
        let mut w = Waldo::with_config(pid, cfg);
        if let Some(loaded) = checkpoint::load_latest(kernel, pid, &dir, cfg) {
            report.loaded_seq = Some(loaded.manifest.seq);
            report.checkpoints_skipped = loaded.skipped;
            report.base_bytes = loaded.manifest.base_bytes();
            report.chain_bytes = loaded.manifest.chain_bytes();
            w.db = loaded.store;
            w.last_manifest = Some(loaded.manifest);
        } else {
            let manifests = checkpoint::list_manifests(kernel, pid, &dir).len();
            if manifests > 0 {
                return Err(RestartError::NoReadableCheckpoint { manifests });
            }
        }
        let wal = checkpoint::wal_path(db_dir);
        let wal_data = kernel.read_file(pid, &wal).unwrap_or_default();
        let (frames, wal_tail) = crate::wal::parse_wal(&wal_data);
        report.wal_frames = frames.len() as u64;
        report.wal_tail_torn = wal_tail != crate::wal::WalTail::Clean;
        let base = report.loaded_seq.unwrap_or(0);
        report.wal_frames_beyond_checkpoint = frames.iter().filter(|f| f.seq > base).count() as u64;
        // Reset the WAL before reattaching: frames at or below the
        // checkpoint are superseded by it, and frames beyond it
        // describe commits whose in-memory effects died with the
        // crash — the replay below re-derives them under fresh,
        // monotonic sequence numbers. Appending onto the stale frames
        // instead would duplicate sequences and double-count
        // `wal_len`. Gated on the file's *bytes*, not on parsed
        // frames: a torn partial frame (a crash mid-append) parses as
        // zero frames but would corrupt every frame appended after it.
        if !wal_data.is_empty() {
            checkpoint::reset_wal_temp(kernel, pid, &wal)?;
            checkpoint::rename_wal(kernel, pid, &wal)?;
            w.ckpt_stats.frames_truncated += frames.len() as u64;
        }
        // attach_db_dir below also deletes every manifest ahead of the
        // store's restored history — which here is exactly the set of
        // damaged manifests load_latest tried and skipped — and the
        // files only they referenced. They can never load again, and
        // left on disk they would inflate the retention floor and
        // shadow fresh checkpoints in GC.
        w.attach_db_dir(kernel, db_dir)?;
        // A manifest snapshots source marks *before* covered logs are
        // unlinked, so it can carry slots for files that no longer
        // exist; drop those tombstones like the uncrashed daemon did
        // when it unlinked the files.
        for (slot, (path, _)) in w.db.source_state().into_iter().enumerate() {
            if !path.is_empty() && kernel.stat(pid, &path).is_err() {
                w.db.forget_source(slot);
            }
        }
        let mut replayed = 0usize;
        for mount in mount_paths {
            replayed += w.recover_volume(kernel, mount).applied;
        }
        report.replayed_entries = replayed;
        w.restart_report = Some(report);
        Ok(w)
    }

    /// What the last [`Waldo::restart`] found (`None` on daemons that
    /// never cold-started).
    pub fn restart_report(&self) -> Option<&RestartReport> {
        self.restart_report.as_ref()
    }

    /// Attaches the daemon's durable home: `db_dir/wal` becomes the
    /// durability WAL (opened append, surviving restarts) and
    /// `db_dir/checkpoints` holds segments and manifests. Enables the
    /// checkpoint policy in [`WaldoConfig`] and gates log unlinking on
    /// checkpoint coverage.
    pub fn attach_db_dir(&mut self, kernel: &mut Kernel, db_dir: &str) -> Result<(), FsError> {
        kernel.mkdir_p(self.pid, db_dir)?;
        let ckpt = checkpoint::checkpoint_dir(db_dir);
        kernel.mkdir_p(self.pid, &ckpt)?;
        let wal = checkpoint::wal_path(db_dir);
        let seq_now = self.db.commit_seq();
        // A WAL holding frames ahead of this store's history (a
        // foreign incarnation's leftovers) or a torn tail must be
        // reset before appending: sequence numbers would duplicate,
        // the size trigger would fire off stale bytes, and truncation
        // (which drops frames *at or below* the checkpoint sequence)
        // would never release the stale suffix. Frames are pure
        // accounting — never recovery state — so a reset loses
        // nothing.
        let wal_data = kernel.read_file(self.pid, &wal).unwrap_or_default();
        if !wal_data.is_empty() {
            let (frames, tail) = crate::wal::parse_wal(&wal_data);
            if tail != crate::wal::WalTail::Clean || frames.iter().any(|f| f.seq > seq_now) {
                checkpoint::reset_wal_temp(kernel, self.pid, &wal)?;
                checkpoint::rename_wal(kernel, self.pid, &wal)?;
            }
        }
        let fd = kernel.open(self.pid, &wal, OpenFlags::APPEND_CREATE)?;
        self.db_fd = Some(fd);
        self.wal_len = kernel.stat(self.pid, &wal).map(|a| a.size).unwrap_or(0);
        // Manifests ahead of this store's own history are likewise
        // foreign (a fresh daemon attached to a stale directory — use
        // `Waldo::restart` to *adopt* checkpoints) or were tried and
        // found damaged by a restart's loader. They must be deleted,
        // not merely ignored: counted into the retention floor they
        // would unlink new, uncheckpointed logs; left on disk, a
        // future restart would prefer their high sequences over this
        // daemon's real checkpoints and resurrect the stale store.
        self.retained = checkpoint::adopt_directory(kernel, self.pid, &ckpt, seq_now);
        self.db_dir = Some(db_dir.to_string());
        Ok(())
    }

    /// Persists the latest commit frame if it is not durable yet: one
    /// append plus one fsync on the WAL — the per-commit durability
    /// cost that group commit amortizes. A frame whose persist failed
    /// earlier is retried here (each frame carries the complete
    /// current marks, so persisting the latest one supersedes any
    /// lost predecessor); on a write or fsync error the failure is
    /// counted and `frame_dirty` stays set, which keeps the source
    /// logs — and so the commit replayable — until a persist succeeds.
    fn persist_commit(&mut self, kernel: &mut Kernel) {
        if !self.frame_dirty {
            return;
        }
        let span = self.scope.open("waldo", "wal_persist");
        let ok = match self.db_fd {
            Some(fd) => {
                let frame = self.db.last_commit_frame().to_vec();
                let wrote = kernel.write(self.pid, fd, &frame).is_ok();
                if wrote {
                    // The bytes are in the file whether or not the
                    // fsync succeeds — the size trigger must track
                    // the file.
                    self.wal_len += frame.len() as u64;
                }
                wrote && kernel.fsync(self.pid, fd).is_ok()
            }
            // Memory-only daemons have nothing to persist; a durable
            // daemon without a WAL descriptor is an error state (a
            // failed truncation that could not reopen) and must not
            // report false durability.
            None => self.db_dir.is_none(),
        };
        if !ok {
            self.wal_errors += 1;
        }
        self.frame_dirty = !ok;
        self.scope.close(span);
    }

    /// The one group commit: commit, persist the frame, then
    /// [`Waldo::settle`].
    fn commit(&mut self, kernel: &mut Kernel, stats: &mut IngestStats) {
        let span = self.scope.open("waldo", "group_commit");
        let before = self.db.commit_seq();
        self.db.commit_staged(stats);
        if self.db.commit_seq() != before {
            self.frame_dirty = true;
            self.commits_since_checkpoint += self.db.commit_seq() - before;
        }
        self.persist_commit(kernel);
        self.scope.close(span);
        self.settle(kernel, stats);
    }

    /// Once the newest frame is durably on the WAL: retires the fully
    /// committed logs in `pending_retire` and runs the checkpoint
    /// policy. While a persist is failing this does nothing, so no log
    /// is unlinked and everything stays queued.
    fn settle(&mut self, kernel: &mut Kernel, stats: &mut IngestStats) {
        if self.frame_dirty {
            return;
        }
        self.retire_logs(kernel);
        if self.should_checkpoint() {
            match self.checkpoint(kernel) {
                Ok(true) => stats.checkpoints += 1,
                Ok(false) => {}
                // A failed checkpoint must be visible: the WAL bound
                // and log retirement silently stop holding otherwise.
                Err(_) => self.ckpt_stats.failures += 1,
            }
        }
    }

    /// Commit frames that failed to persist. Nonzero means some fully
    /// committed logs were retained instead of unlinked.
    pub fn wal_errors(&self) -> u64 {
        self.wal_errors
    }

    /// Checkpoint-subsystem counters (segments and bytes written, WAL
    /// frames truncated, logs retired).
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.ckpt_stats
    }

    /// The daemon's pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Number of log files processed so far.
    pub fn processed_logs(&self) -> u64 {
        self.processed_logs
    }

    /// Cumulative `(truncated, corrupt)` log-tail counts across every
    /// log this daemon has drained — the lifetime view of the
    /// per-poll [`IngestStats::tails_truncated`] /
    /// [`IngestStats::tails_corrupt`]. Nonzero means some log's tail
    /// was cut or damaged and its surviving prefix alone was
    /// ingested: the tamper-detection signal for log truncation and
    /// bit flips.
    pub fn log_tail_errors(&self) -> (u64, u64) {
        (self.log_tails_truncated, self.log_tails_corrupt)
    }

    // ---- checkpointing ----------------------------------------------------

    /// The retention floor: the sequence of the oldest checkpoint
    /// that survives garbage collection once a full complement of
    /// `keep_checkpoints` manifests exists — and 0 (retain
    /// everything) before then. Unlinking is gated on a *full*
    /// complement, not merely on the oldest manifest present:
    /// otherwise the first checkpoint alone would release its logs,
    /// and one damaged manifest would lose data — the configured
    /// tolerance is `keep_checkpoints - 1` damaged checkpoints.
    fn checkpoint_floor(&self) -> u64 {
        let keep = self.db.config().keep_checkpoints.max(1);
        if self.retained.len() >= keep {
            self.retained[self.retained.len() - keep].seq
        } else {
            0
        }
    }

    /// True when the configured policy asks for a checkpoint.
    fn should_checkpoint(&self) -> bool {
        if self.db_dir.is_none() {
            return false;
        }
        let cfg = self.db.config();
        (cfg.checkpoint_commits > 0 && self.commits_since_checkpoint >= cfg.checkpoint_commits)
            || (cfg.checkpoint_wal_bytes > 0 && self.wal_len >= cfg.checkpoint_wal_bytes)
    }

    /// Publishes a checkpoint now (a delta segment or a base rewrite,
    /// manifest rename, WAL truncation, garbage collection, covered-
    /// log unlinking). Returns `Ok(true)` if one was published,
    /// `Ok(false)` if there was nothing new to checkpoint or no
    /// database directory is attached.
    pub fn checkpoint(&mut self, kernel: &mut Kernel) -> Result<bool, FsError> {
        self.checkpoint_inner(kernel, None)
    }

    /// Crash-injection variant of [`Waldo::checkpoint`] for the crash
    /// matrix: performs the checkpoint only up to `crash`, then stops
    /// as a simulated machine crash would.
    #[doc(hidden)]
    pub fn checkpoint_crashing_at(
        &mut self,
        kernel: &mut Kernel,
        crash: CheckpointCrash,
    ) -> Result<(), FsError> {
        self.checkpoint_inner(kernel, Some(crash)).map(|_| ())
    }

    fn checkpoint_inner(
        &mut self,
        kernel: &mut Kernel,
        crash: Option<CheckpointCrash>,
    ) -> Result<bool, FsError> {
        let span = self.scope.open("waldo", "checkpoint");
        let r = self.checkpoint_guts(kernel, crash);
        self.scope.close(span);
        r
    }

    fn checkpoint_guts(
        &mut self,
        kernel: &mut Kernel,
        crash: Option<CheckpointCrash>,
    ) -> Result<bool, FsError> {
        let Some(db_dir) = self.db_dir.clone() else {
            return Ok(false);
        };
        let seq = self.db.commit_seq();
        if seq == 0 || self.last_manifest.as_ref().map(|m| m.seq) == Some(seq) {
            // Nothing new to publish — but a prior attempt may have
            // errored after publication (a WAL rename failure),
            // leaving truncation, garbage collection and covered-log
            // unlinking undone. Finish that work now instead of
            // holding the WAL and retained logs hostage until new
            // commits arrive.
            if self.post_publish_pending {
                self.finish_checkpoint(kernel, &db_dir, crash)?;
            }
            return Ok(false);
        }
        let dir = checkpoint::checkpoint_dir(&db_dir);
        // One delta writer, one full-image writer. The delta applies
        // when the store recorded the commits since the last manifest;
        // the store drops its record once the chain would outgrow the
        // base (the budget armed below), so a missing record is also
        // how "time to rewrite" arrives.
        let (base_seq, segments, deltas) = match (&self.last_manifest, self.db.take_delta()) {
            (Some(last), Some(delta)) if delta.from_seq == last.seq => {
                let written = checkpoint::write_delta(kernel, self.pid, &dir, &delta, seq)?;
                self.ckpt_stats.deltas_written += 1;
                self.ckpt_stats.segment_bytes += written.len;
                let mut deltas = last.deltas.clone();
                deltas.push(written);
                (last.base_seq, last.segments.clone(), deltas)
            }
            (last, _) => {
                let (segments, written, bytes) =
                    checkpoint::write_segments(kernel, self.pid, &self.db, &dir, last.as_ref())?;
                self.ckpt_stats.segments_written += written;
                self.ckpt_stats.segment_bytes += bytes;
                (seq, segments, Vec::new())
            }
        };
        if crash == Some(CheckpointCrash::AfterSegments) {
            return Ok(false);
        }
        let (txns, commit_txn) = self.db.open_txn_state();
        let (batch_hw, replay_skip) = self.db.batch_state();
        let manifest = Manifest {
            seq,
            base_seq,
            segments,
            deltas,
            txns,
            commit_txn,
            sources: self.db.source_state(),
            batch_hw,
            replay_skip,
        };
        checkpoint::write_temp_manifest(kernel, self.pid, &dir, &manifest)?;
        if crash == Some(CheckpointCrash::AfterTempManifest) {
            return Ok(false);
        }
        checkpoint::rename_manifest(kernel, self.pid, &dir, seq)?;
        self.ckpt_stats.checkpoints += 1;
        self.retained.push(Retained::of(&manifest));
        // The chain may grow until its bytes reach the base's: past
        // that the next checkpoint rewrites the base instead.
        self.db
            .track_delta(manifest.base_bytes().saturating_sub(manifest.chain_bytes()));
        self.last_manifest = Some(manifest);
        self.commits_since_checkpoint = 0;
        self.post_publish_pending = true;
        if crash == Some(CheckpointCrash::AfterPublish) {
            return Ok(true);
        }
        self.finish_checkpoint(kernel, &db_dir, crash)?;
        Ok(true)
    }

    /// The post-publication phase of a checkpoint: WAL truncation,
    /// garbage collection and covered-log unlinking. Idempotent, so a
    /// failure part-way (or a simulated crash) can be retried by a
    /// later [`Waldo::checkpoint`] call.
    fn finish_checkpoint(
        &mut self,
        kernel: &mut Kernel,
        db_dir: &str,
        crash: Option<CheckpointCrash>,
    ) -> Result<(), FsError> {
        let seq = self
            .last_manifest
            .as_ref()
            .map(|m| m.seq)
            .expect("finish_checkpoint only runs after a publication");
        let dir = checkpoint::checkpoint_dir(db_dir);
        // Truncate the WAL: frames at or below the manifest's
        // sequence are superseded by the checkpoint. Written to a
        // temporary name and renamed, so a crash leaves either WAL
        // intact; the open descriptor must be reopened because the
        // rename replaces the inode.
        let wal = checkpoint::wal_path(db_dir);
        let dropped = checkpoint::truncate_wal_temp(kernel, self.pid, &wal, seq)?;
        if crash == Some(CheckpointCrash::MidWalTruncate) {
            return Ok(());
        }
        if let Some(fd) = self.db_fd.take() {
            let _ = kernel.close(self.pid, fd);
        }
        let renamed = checkpoint::rename_wal(kernel, self.pid, &wal);
        // Reopen the WAL regardless of the rename's outcome — on
        // failure the original file still sits at `wal`, and leaving
        // `db_fd` empty would make `persist_commit` report false
        // durability ever after.
        self.db_fd = Some(kernel.open(self.pid, &wal, OpenFlags::APPEND_CREATE)?);
        renamed?;
        self.ckpt_stats.frames_truncated += dropped;
        self.wal_len = kernel.stat(self.pid, &wal).map(|a| a.size).unwrap_or(0);
        if crash == Some(CheckpointCrash::AfterWalTruncate) {
            return Ok(());
        }
        let keep = self.db.config().keep_checkpoints.max(1);
        while self.retained.len() > keep {
            let dropped = self.retained.remove(0);
            checkpoint::drop_checkpoint(kernel, self.pid, &dir, &dropped, &self.retained);
        }
        self.retire_logs(kernel);
        self.post_publish_pending = false;
        Ok(())
    }

    // ---- ingest -----------------------------------------------------------

    /// `rel` under a volume's mount point (`"/"` or `"/mnt/x"`).
    fn under_mount(mount_path: &str, rel: &str) -> String {
        if mount_path == "/" {
            format!("/{rel}")
        } else {
            format!("{mount_path}/{rel}")
        }
    }

    /// Takes a volume's rotation queue (the inotify stand-in) as
    /// absolute log paths, in rotation order — none when nothing
    /// provenance-aware is mounted at `mount`.
    fn take_rotated_logs(kernel: &mut Kernel, mount: MountId, mount_path: &str) -> Vec<String> {
        let Some(volume) = kernel.dpapi_at(mount) else {
            return Vec::new();
        };
        let abs = |rel: String| Waldo::under_mount(mount_path, &rel);
        volume.take_log_rotations().into_iter().map(abs).collect()
    }

    /// Polls one volume for rotated logs, ingesting (in group-commit
    /// batches that may span files) and removing each fully committed
    /// log once checkpoint coverage allows. `mount_path` is the
    /// volume's mount point (`"/"` or `"/mnt/x"`).
    pub fn poll_volume(
        &mut self,
        kernel: &mut Kernel,
        mount: MountId,
        mount_path: &str,
    ) -> IngestStats {
        let paths = Waldo::take_rotated_logs(kernel, mount, mount_path);
        self.drain_logs(kernel, paths)
    }

    /// Reads, ingests and unlinks one log file, committing in the
    /// configured batches. The observable database matches the
    /// original record-at-a-time daemon; only commit granularity (and
    /// therefore durability cost) differs.
    pub fn ingest_log_file(&mut self, kernel: &mut Kernel, path: &str) -> IngestStats {
        self.drain_logs(kernel, vec![path.to_string()])
    }

    /// The logs one drain covers, in order: those an earlier drain
    /// could not read, then `fresh`.
    fn drain_queue(&mut self, fresh: Vec<String>) -> Vec<String> {
        let mut queue = std::mem::take(&mut self.unread_logs);
        queue.extend(fresh);
        queue
    }

    /// Reads one rotated log for ingestion. A log that cannot be read
    /// is counted and kept for the next drain, and so is — unread —
    /// every later log of the same directory: one volume's logs must
    /// be ingested in rotation order (the per-volume batch high-water
    /// mark would take an overtaken log's groups for replays and skip
    /// them), while other volumes' logs proceed. A log that no longer
    /// exists has nothing left to ingest and is dropped.
    fn read_log(&mut self, kernel: &mut Kernel, path: &str) -> Option<Vec<u8>> {
        let dir = |p: &str| p.rfind('/').map_or(0, |slash| slash + 1);
        let same_dir = |held: &String| held[..dir(held)] == path[..dir(path)];
        if self.unread_logs.iter().any(same_dir) {
            self.unread_logs.push(path.to_string());
            return None;
        }
        match kernel.read_file(self.pid, path) {
            Ok(bytes) => Some(bytes),
            Err(FsError::NotFound(_)) => None,
            Err(_) => {
                self.logs_unreadable += 1;
                self.unread_logs.push(path.to_string());
                None
            }
        }
    }

    /// Lifetime count of rotated-log reads that failed. Each such log
    /// stays queued and is retried at the head of the next drain.
    pub fn logs_unreadable(&self) -> u64 {
        self.logs_unreadable
    }

    /// One drain over log files, read through the kernel one at a
    /// time: group commits may span files, each log retires as soon
    /// as all of its entries have durably committed, and checkpoints
    /// publish as the policy fires.
    fn drain_logs(&mut self, kernel: &mut Kernel, paths: Vec<String>) -> IngestStats {
        let drain_span = self.scope.open("waldo", "drain_logs");
        let mut total = IngestStats::default();
        for path in self.drain_queue(paths) {
            if let Some(bytes) = self.read_log(kernel, &path) {
                self.ingest_log(kernel, Some(&path), &bytes, &mut total);
            }
        }
        self.end_drain(kernel, drain_span, total)
    }

    /// Ingests one raw Lasagna log image that arrives **by value**
    /// rather than through the file system — the PA-NFS server drains
    /// its export's logs ([`NfsServer::drain_provenance_logs`]) and
    /// hands the images to the server-side daemon. Semantically one
    /// [`Waldo::ingest_log_file`] of an unnamed, already-unlinked log:
    /// entries are staged without a replay source (the image cannot be
    /// re-read after a crash) and group-committed in the configured
    /// batches, with the checkpoint policy run after every persisted
    /// commit — a checkpoint is the only thing that carries these
    /// entries across a machine crash.
    ///
    /// [`NfsServer::drain_provenance_logs`]: ../pa_nfs/struct.NfsServer.html#method.drain_provenance_logs
    pub fn ingest_log_image(&mut self, kernel: &mut Kernel, image: &[u8]) -> IngestStats {
        let drain_span = self.scope.open("waldo", "drain_logs");
        let mut total = IngestStats::default();
        self.ingest_log(kernel, None, image, &mut total);
        self.end_drain(kernel, drain_span, total)
    }

    /// The ingest step every entry point shares: parses one log,
    /// stages its entries — skipping any prefix a pre-crash
    /// predecessor already committed — and group-commits every
    /// `ingest_batch` staged entries (batches may span logs). `path`
    /// names the replay source the store keeps a committed mark for;
    /// an unnamed (by-value) image has none and is never retired.
    fn ingest_log(
        &mut self,
        kernel: &mut Kernel,
        path: Option<&str>,
        bytes: &[u8],
        total: &mut IngestStats,
    ) {
        let (entries, tail) = lasagna::parse_log(bytes);
        match tail {
            lasagna::LogTail::Clean => {}
            lasagna::LogTail::Truncated { .. } => {
                total.tails_truncated += 1;
                self.log_tails_truncated += 1;
            }
            lasagna::LogTail::Corrupt { .. } => {
                total.tails_corrupt += 1;
                self.log_tails_corrupt += 1;
            }
        }
        let (src, mark) = path.map(|p| self.db.register_source(p)).unzip();
        let mark = mark.unwrap_or(0);
        if mark == 0 {
            // Fresh file: a new log image starts a new transaction
            // scope. (A nonzero mark means we are resuming a
            // partially committed file after a crash — the store's
            // committed transaction context already sits exactly
            // at the mark, so no reset.)
            self.db.begin_stream();
        }
        let batch = self.db.config().ingest_batch.max(1);
        let n = entries.len();
        for e in entries.into_iter().skip(mark) {
            if self.scope.is_enabled() {
                match &e {
                    lasagna::LogEntry::TxnBegin { id } => {
                        let h = self.scope.open_linked(
                            "waldo",
                            "ingest_batch",
                            provscope::TraceId(*id),
                        );
                        self.batch_spans.push((*id, h));
                    }
                    lasagna::LogEntry::TxnEnd { id } => {
                        if let Some(pos) = self.batch_spans.iter().rposition(|(b, _)| b == id) {
                            let (_, h) = self.batch_spans.remove(pos);
                            self.scope.close(h);
                        }
                    }
                    _ => {}
                }
            }
            self.db.stage(e, src);
            if self.db.staged_len() >= batch {
                self.commit(kernel, total);
            }
        }
        if let (Some(src), Some(path)) = (src, path) {
            // The same log can be drained twice while it awaits
            // coverage (a rotation-queue entry after a restart already
            // replayed it); queued twice it would be unlinked and
            // forgotten twice.
            if !self.pending_retire.iter().any(|l| l.src == src) {
                self.pending_retire.push(RetiringLog {
                    src,
                    path: path.to_string(),
                    total: n,
                    retired_seq: None,
                });
            }
        }
        self.processed_logs += 1;
    }

    /// Ends a drain: commits the tail batch and closes the spans —
    /// frames torn before their TxnEnd leave theirs open, and the
    /// trace must stay well-formed.
    fn end_drain(
        &mut self,
        kernel: &mut Kernel,
        drain_span: provscope::SpanHandle,
        mut total: IngestStats,
    ) -> IngestStats {
        self.commit(kernel, &mut total);
        for (_, h) in std::mem::take(&mut self.batch_spans) {
            self.scope.close(h);
        }
        self.scope.close(drain_span);
        total
    }

    /// Rescans a volume's log directory after a restart and replays
    /// every surviving *closed* log (all `log.N` except the
    /// highest-numbered, which is the active log Lasagna is still
    /// appending to). `poll_volume` cannot do this: it consumes the
    /// in-memory rotation queue, which dies with the crashed daemon.
    /// Logs a predecessor fully committed are skipped via their
    /// recorded marks; partially committed ones resume from their
    /// high-water mark.
    pub fn recover_volume(&mut self, kernel: &mut Kernel, mount_path: &str) -> IngestStats {
        let dir = Waldo::under_mount(mount_path, ".pass");
        let Ok(entries) = kernel.readdir(self.pid, &dir) else {
            return IngestStats::default();
        };
        let mut logs: Vec<u64> = entries
            .iter()
            .filter_map(|e| e.name.strip_prefix("log.").and_then(|n| n.parse().ok()))
            .collect();
        logs.sort_unstable();
        logs.pop(); // the active log stays
        let paths = logs.into_iter().map(|n| format!("{dir}/log.{n}")).collect();
        self.drain_logs(kernel, paths)
    }

    /// One pass over `pending_retire`. A log a durably persisted commit
    /// finds fully committed stops awaiting commit; from then it is
    /// unlinked as soon as the retention floor covers it — unlinking a
    /// log before a checkpoint captures its effects would make a
    /// machine crash unrecoverable — which on a memory-only daemon is
    /// at once (nothing more durable than the in-memory store exists
    /// to cover it). A log whose unlink fails stays queued for the
    /// next pass; one that is already gone is done.
    fn retire_logs(&mut self, kernel: &mut Kernel) {
        let durable = self.db_dir.is_some();
        let seq = self.db.commit_seq();
        let floor = if durable {
            self.checkpoint_floor()
        } else {
            u64::MAX
        };
        for mut log in std::mem::take(&mut self.pending_retire) {
            if log.retired_seq.is_none()
                && !self.frame_dirty
                && self.db.source_fully_committed(log.src, log.total)
            {
                log.retired_seq = Some(seq);
            }
            let covered = log.retired_seq.is_some_and(|s| s <= floor);
            if !covered {
                self.pending_retire.push(log);
                continue;
            }
            // Forget the replay mark only once the file is really
            // gone: forgetting a surviving log would replay it from
            // scratch on the next recovery, duplicating its records.
            match kernel.unlink(self.pid, &log.path) {
                Ok(()) => {
                    self.db.forget_source(log.src);
                    // A checkpoint counter: logs a checkpoint released.
                    self.ckpt_stats.logs_retired += u64::from(durable);
                }
                Err(FsError::NotFound(_)) => self.db.forget_source(log.src),
                Err(_) => {
                    self.logs_unlink_failed += 1;
                    self.pending_retire.push(log);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpapi::{Attribute, Value};
    use passv2::System;

    /// End-to-end: syscalls → observer → Lasagna log → Waldo → DB.
    #[test]
    fn pipeline_from_syscalls_to_database() {
        let mut sys = System::single_volume();
        let pid = sys.spawn("/usr/bin/convert");
        sys.kernel
            .execve(
                pid,
                "/usr/bin/convert",
                &["convert".into(), "in".into(), "out".into()],
                &[],
            )
            .ok();
        sys.kernel
            .write_file(pid, "/in.dat", b"input bytes")
            .unwrap();
        let data = sys.kernel.read_file(pid, "/in.dat").unwrap();
        sys.kernel.write_file(pid, "/out.dat", &data).unwrap();
        sys.kernel.exit(pid);

        let mut waldo = sys.spawn_waldo();
        for (mount, logs) in sys.rotate_all_logs() {
            let _ = mount;
            for log in logs {
                waldo.ingest_log_file(&mut sys.kernel, &log);
            }
        }
        assert!(waldo.processed_logs() >= 1);

        // The output file is in the database, named, with an ancestry
        // that reaches the input file through the process.
        let outs = waldo.db.find_by_name("/out.dat");
        assert_eq!(outs.len(), 1, "output file must be indexed by name");
        let out_obj = waldo.db.object(outs[0]).unwrap();
        let v = dpapi::Version(out_obj.current);
        let anc = waldo.db.ancestors(dpapi::ObjectRef::new(outs[0], v));
        let ins = waldo.db.find_by_name("/in.dat");
        assert_eq!(ins.len(), 1);
        assert!(
            anc.iter().any(|r| r.pnode == ins[0]),
            "ancestry of /out.dat must include /in.dat; got {anc:?}"
        );
        // The process appears as a typed object on the path.
        let procs = waldo.db.find_by_type("PROC");
        assert!(
            !procs.is_empty(),
            "the writing process must be materialized"
        );
        assert!(anc.iter().any(|r| procs.contains(&r.pnode)));
    }

    #[test]
    fn poll_volume_drains_rotations_and_removes_logs() {
        let mut sys = System::single_volume();
        let pid = sys.spawn("sh");
        sys.kernel.write_file(pid, "/f", b"x").unwrap();
        let mut waldo = sys.spawn_waldo();

        let (_, m, _) = sys.volumes[0];
        // Force rotation through the volume, then poll.
        sys.kernel.dpapi_at(m).unwrap().force_log_rotation();
        let stats = waldo.poll_volume(&mut sys.kernel, m, "/");
        assert!(stats.applied > 0);
        // The processed log is gone from the log directory.
        let entries = sys.kernel.readdir(waldo.pid(), "/.pass").unwrap();
        assert_eq!(
            entries.iter().filter(|e| e.name == "log.0").count(),
            0,
            "processed log must be unlinked"
        );
        // Second poll: nothing new.
        let stats = waldo.poll_volume(&mut sys.kernel, m, "/");
        assert_eq!(stats.applied, 0);
    }

    /// With a database directory attached, a fully committed log is
    /// retained until a checkpoint covers it, then unlinked.
    #[test]
    fn durable_daemon_retains_logs_until_checkpoint_covers_them() {
        let mut sys = System::single_volume();
        let pid = sys.spawn("sh");
        sys.kernel.write_file(pid, "/f", b"x").unwrap();
        let (_, m, _) = sys.volumes[0];
        sys.kernel.dpapi_at(m).unwrap().force_log_rotation();

        let waldo_pid = sys.kernel.spawn_init("waldo");
        sys.pass.exempt(waldo_pid);
        let mut waldo = Waldo::with_config(
            waldo_pid,
            WaldoConfig {
                checkpoint_commits: 0, // manual checkpoints only
                checkpoint_wal_bytes: 0,
                // Single-checkpoint retention: the first checkpoint
                // alone releases covered logs (keep 2, the default,
                // would hold them until a second one exists).
                keep_checkpoints: 1,
                ..WaldoConfig::default()
            },
        );
        waldo.attach_db_dir(&mut sys.kernel, "/waldo-db").unwrap();
        waldo.poll_volume(&mut sys.kernel, m, "/");
        // Fully committed, but no checkpoint yet: the log survives.
        let names = |sys: &mut System| -> Vec<String> {
            sys.kernel
                .readdir(waldo_pid, "/.pass")
                .unwrap()
                .into_iter()
                .map(|e| e.name)
                .collect()
        };
        assert!(
            names(&mut sys).contains(&"log.0".to_string()),
            "log must be retained until checkpointed"
        );
        assert!(waldo.checkpoint(&mut sys.kernel).unwrap());
        assert!(
            !names(&mut sys).contains(&"log.0".to_string()),
            "covered log must be unlinked after the checkpoint"
        );
        assert_eq!(waldo.checkpoint_stats().logs_retired, 1);
        // Nothing new: a second checkpoint is a no-op.
        assert!(!waldo.checkpoint(&mut sys.kernel).unwrap());
    }

    /// A fresh daemon attached to a directory holding a foreign
    /// incarnation's checkpoints deletes them instead of inheriting
    /// their sequences: otherwise their high retention floor would
    /// unlink new logs and a later restart would resurrect the stale
    /// store over the live one.
    #[test]
    fn fresh_attach_discards_foreign_checkpoints() {
        let mut sys = System::single_volume();
        let pid = sys.kernel.spawn_init("setup");
        sys.pass.exempt(pid);
        sys.kernel.mkdir_p(pid, "/waldo-db/checkpoints").unwrap();
        sys.kernel
            .write_file(pid, "/waldo-db/checkpoints/manifest.100", b"stale garbage")
            .unwrap();
        sys.kernel
            .write_file(pid, "/waldo-db/wal", b"torn foreign frames")
            .unwrap();

        let waldo_pid = sys.kernel.spawn_init("waldo");
        sys.pass.exempt(waldo_pid);
        let mut waldo = Waldo::with_config(
            waldo_pid,
            WaldoConfig {
                checkpoint_commits: 0,
                checkpoint_wal_bytes: 0,
                keep_checkpoints: 1,
                ..WaldoConfig::default()
            },
        );
        waldo.attach_db_dir(&mut sys.kernel, "/waldo-db").unwrap();
        let names: Vec<String> = sys
            .kernel
            .readdir(waldo_pid, "/waldo-db/checkpoints")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(
            !names.contains(&"manifest.100".to_string()),
            "foreign manifest must be deleted at attach"
        );
        assert_eq!(
            sys.kernel.stat(waldo_pid, "/waldo-db/wal").unwrap().size,
            0,
            "foreign/torn WAL must be reset at attach"
        );

        // The daemon's own first checkpoint proceeds normally and a
        // cold restart loads it, not the (deleted) foreign one.
        let worker = sys.spawn("sh");
        sys.kernel.write_file(worker, "/fresh", b"x").unwrap();
        let (_, m, _) = sys.volumes[0];
        sys.kernel.dpapi_at(m).unwrap().force_log_rotation();
        waldo.poll_volume(&mut sys.kernel, m, "/");
        assert!(waldo.checkpoint(&mut sys.kernel).unwrap());
        let images = waldo.db.segment_images();
        let seq = waldo.db.commit_seq();
        drop(waldo);
        let pid2 = sys.kernel.spawn_init("waldo2");
        sys.pass.exempt(pid2);
        let cfg = WaldoConfig {
            checkpoint_commits: 0,
            checkpoint_wal_bytes: 0,
            keep_checkpoints: 1,
            ..WaldoConfig::default()
        };
        let restarted = Waldo::restart(pid2, &mut sys.kernel, cfg, "/waldo-db", &["/"]).unwrap();
        assert_eq!(restarted.restart_report().unwrap().loaded_seq, Some(seq));
        assert_eq!(restarted.db.segment_images(), images);
    }

    /// A tiny ingest batch forces commits (and unlinks) that straddle
    /// log files; the resulting database is identical to a one-shot
    /// ingest.
    #[test]
    fn small_batches_span_files_and_match_one_shot_ingest() {
        let run = |cfg: WaldoConfig| {
            let mut sys = System::single_volume();
            let pid = sys.spawn("sh");
            for i in 0..10 {
                sys.kernel
                    .write_file(pid, &format!("/f{i}"), b"contents")
                    .unwrap();
            }
            let (_, m, _) = sys.volumes[0];
            sys.kernel.dpapi_at(m).unwrap().force_log_rotation();
            let waldo_pid = sys.kernel.spawn_init("waldo");
            sys.pass.exempt(waldo_pid);
            let mut waldo = Waldo::with_config(waldo_pid, cfg);
            let stats = waldo.poll_volume(&mut sys.kernel, m, "/");
            (waldo, stats)
        };
        let (batched, bstats) = run(WaldoConfig {
            shards: 8,
            ingest_batch: 3,
            ancestry_cache: 0,
            ..WaldoConfig::default()
        });
        let (oneshot, ostats) = run(WaldoConfig {
            shards: 1,
            ingest_batch: 1 << 20,
            ancestry_cache: 0,
            ..WaldoConfig::default()
        });
        assert_eq!(bstats.applied, ostats.applied);
        assert!(bstats.group_commits > ostats.group_commits);
        assert_eq!(batched.db.object_count(), oneshot.db.object_count());
        assert_eq!(batched.db.size(), oneshot.db.size());
        for i in 0..10 {
            assert_eq!(
                batched.db.find_by_name(&format!("/f{i}")),
                oneshot.db.find_by_name(&format!("/f{i}")),
            );
        }
    }

    #[test]
    fn process_records_include_argv_and_name() {
        let mut sys = System::single_volume();
        let pid = sys.spawn("init");
        sys.kernel
            .write_file(pid, "/bin-tool", b"ELF binary")
            .unwrap();
        sys.kernel
            .execve(
                pid,
                "/bin-tool",
                &["tool".into(), "--flag".into()],
                &["HOME=/root".into()],
            )
            .unwrap();
        sys.kernel.write_file(pid, "/result", b"out").unwrap();
        sys.kernel.exit(pid);

        let mut waldo = sys.spawn_waldo();
        for (_, logs) in sys.rotate_all_logs() {
            for log in logs {
                waldo.ingest_log_file(&mut sys.kernel, &log);
            }
        }
        let procs = waldo.db.find_by_type("PROC");
        let tool = procs
            .iter()
            .find(|p| {
                waldo
                    .db
                    .object(**p)
                    .and_then(|o| o.first_attr(&Attribute::Name).cloned())
                    .map(|v| v == Value::str("/bin-tool"))
                    .unwrap_or(false)
            })
            .expect("the exec'd process must be recorded with its NAME");
        let obj = waldo.db.object(*tool).unwrap();
        let argv = obj.first_attr(&Attribute::Argv).expect("ARGV recorded");
        assert_eq!(argv, &Value::StrList(vec!["tool".into(), "--flag".into()]));
        let env = obj.first_attr(&Attribute::Env).expect("ENV recorded");
        assert_eq!(env, &Value::StrList(vec!["HOME=/root".into()]));
        // Both the binary file and the process bear the name (a
        // process's NAME is its executable path, per Table 1); the
        // file is distinguishable by TYPE.
        let bins = waldo.db.find_by_name("/bin-tool");
        let files = waldo.db.find_by_type("FILE");
        assert!(
            bins.iter().any(|p| files.contains(p)),
            "a FILE object named /bin-tool must exist"
        );
    }
}
