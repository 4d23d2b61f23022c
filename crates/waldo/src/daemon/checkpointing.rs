//! The daemon's checkpoint policy and writer: when to checkpoint, a
//! delta or a base rewrite, the manifest publish, and the WAL
//! truncation, garbage collection and log retirement that follow.

use sim_os::fs::FsError;
use sim_os::syscall::{Kernel, OpenFlags};

use super::Waldo;
use crate::checkpoint::{self, Retained};
use crate::manifest::Manifest;

impl Waldo {
    /// The retention floor: the sequence of the oldest checkpoint
    /// that survives garbage collection once a full complement of
    /// `keep_checkpoints` manifests exists — and 0 (retain
    /// everything) before then. Unlinking is gated on a *full*
    /// complement, not merely on the oldest manifest present:
    /// otherwise the first checkpoint alone would release its logs,
    /// and one damaged manifest would lose data — the configured
    /// tolerance is `keep_checkpoints - 1` damaged checkpoints.
    pub(super) fn checkpoint_floor(&self) -> u64 {
        let keep = self.db.config().keep_checkpoints.max(1);
        if self.retained.len() >= keep {
            self.retained[self.retained.len() - keep].seq
        } else {
            0
        }
    }

    /// True when the configured policy asks for a checkpoint.
    pub(super) fn should_checkpoint(&self) -> bool {
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
        let span = self.scope.open("waldo", "checkpoint");
        let r = self.checkpoint_guts(kernel);
        self.scope.close(span);
        r
    }

    fn checkpoint_guts(&mut self, kernel: &mut Kernel) -> Result<bool, FsError> {
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
                self.finish_checkpoint(kernel, &db_dir)?;
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
                let written = checkpoint::write_delta(kernel, self.pid, &dir, delta, seq)?;
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
        self.finish_checkpoint(kernel, &db_dir)?;
        Ok(true)
    }

    /// The post-publication phase of a checkpoint: WAL truncation,
    /// garbage collection and covered-log unlinking. Idempotent, so a
    /// failure part-way can be retried by a later [`Waldo::checkpoint`]
    /// call.
    fn finish_checkpoint(&mut self, kernel: &mut Kernel, db_dir: &str) -> Result<(), FsError> {
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
        let keep = self.db.config().keep_checkpoints.max(1);
        while self.retained.len() > keep {
            let dropped = self.retained.remove(0);
            checkpoint::drop_checkpoint(kernel, self.pid, &dir, &dropped, &self.retained);
        }
        self.retire_logs(kernel);
        self.post_publish_pending = false;
        Ok(())
    }
}
