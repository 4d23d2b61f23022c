//! How a daemon comes back: adopting a store that survived a daemon
//! crash, cold restart from the database directory after a machine
//! crash, and attaching that directory in the first place.

use sim_os::fs::FsError;
use sim_os::proc::Pid;
use sim_os::syscall::{Kernel, OpenFlags};

use super::{RestartError, Waldo};
use crate::checkpoint::{self, RestartReport};
use crate::db::WaldoConfig;
use crate::store::Store;

impl Waldo {
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
}
