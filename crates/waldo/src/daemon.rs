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
use sim_os::syscall::Kernel;

use crate::checkpoint::{CheckpointStats, RestartReport, Retained};
use crate::db::{IngestStats, WaldoConfig};
use crate::manifest::Manifest;
use crate::store::Store;

mod checkpointing;
mod restart;

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
                let frame = self.db.last_commit_frame();
                let wrote = kernel.write(self.pid, fd, frame).is_ok();
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
