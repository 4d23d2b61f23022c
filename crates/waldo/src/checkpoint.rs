//! The checkpoint subsystem: a durable base image plus a chain of
//! delta segments, an atomic manifest, WAL truncation and cold
//! restart.
//!
//! After PR 1 the store was durable in name only: every group commit
//! fsynced an accounting frame to the db WAL, but shard contents lived
//! in memory and fully-committed Lasagna logs were unlinked — a
//! machine crash was unrecoverable and the WAL grew forever. This
//! module is the storage layer under that:
//!
//! * **base segments** (`crate::segment`) — a versioned, checksummed
//!   image of each shard. Writing the base costs O(store), so it
//!   happens only when it must: there is no base yet, the store could
//!   not record what changed since the last checkpoint
//!   (`Store::take_delta` is `None`: a restore, a merge), or the delta
//!   chain has grown to the size of the base;
//! * **delta segments** (`crate::delta`) — what the group commits
//!   since the previous checkpoint applied, one file per checkpoint,
//!   O(change). Pnode-hash sharding spreads every commit over every
//!   shard, so re-imaging "only the shards that changed" re-images
//!   the store; the delta is what is actually incremental;
//! * **manifest** (`crate::manifest`) — the atomic commit point:
//!   written to a temporary name, fsynced, renamed into place
//!   (`manifest.<seq>`), binding the base's and every delta's
//!   checksum to the commit sequence plus the store-level replay
//!   state;
//! * **WAL truncation** — frames at or below the published sequence
//!   are dropped (the checkpoint supersedes them), bounding the WAL
//!   by the checkpoint policy in
//!   [`crate::WaldoConfig`];
//! * **cold restart** (`Waldo::restart`) — loads the newest *complete*
//!   checkpoint (a damaged manifest, segment or delta falls back to
//!   the previous one): rehydrates shards from the base, replays the
//!   delta chain through the ordinary commit path, validates
//!   surviving WAL frames, and replays retained Lasagna logs from the
//!   per-log high-water marks.
//!
//! The rewrite rule is a constant, not a knob: rewriting the base
//! when the chain's bytes reach the base's bytes makes the base
//! rewrites a doubling series, so total checkpoint bytes stay within
//! a small constant of the final store size (O(N), where re-imaging
//! every checkpoint is O(N²)), bounds restart replay by the base
//! size, and bounds the directory at about twice the store. A larger
//! ratio would trade restart time for write volume and a smaller one
//! the reverse; no caller needs either.
//!
//! Correctness rests on log retention: the daemon unlinks a
//! fully-committed log only once a **full complement** of
//! `keep_checkpoints` manifests exists *and* the oldest of them
//! covers the log's retirement sequence — so up to
//! `keep_checkpoints - 1` damaged *manifests or per-checkpoint
//! files* are survivable with every commit past the surviving
//! checkpoint still replayable from logs. One caveat bounds the
//! guarantee: consecutive checkpoints **share** files — the base, and
//! every delta but the newest — so corruption of a shared file
//! damages every retained checkpoint that references it at once (the
//! classic LSM shared-file tradeoff; copying files per checkpoint
//! would restore full independence at the cost of the incremental
//! write savings). Only a checkpoint's own newest delta, or the
//! segments of a base rewrite, are private to it. WAL frames past the
//! checkpoint are redundant accounting — restart validates
//! and counts them but takes replay state from the manifest, never
//! from frames (frames record marks whose in-memory effects died with
//! the crash).

use sim_os::fs::FsError;
use sim_os::proc::Pid;
use sim_os::syscall::{Kernel, OpenFlags};

use crate::delta::{decode_delta, encode_delta};
use crate::manifest::{decode_manifest, encode_manifest, DeltaRef, Manifest, SegmentRef};
use crate::segment::{closing_crc, decode_shard, encode_shard};
use crate::shard::Shard;
use crate::store::{PendingDelta, Store, WaldoConfig};
use crate::wal::parse_wal;

/// Operational counters for the checkpoint subsystem, surfaced
/// through `Waldo::checkpoint_stats` and the bench rig.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints published (manifest renamed into place).
    pub checkpoints: u64,
    /// Base segment files written (a base rewrite writes one per
    /// shard that advanced since the previous base).
    pub segments_written: u64,
    /// Delta segment files written (one per checkpoint that extended
    /// the chain instead of rewriting the base).
    pub deltas_written: u64,
    /// Bytes of segment data written, base and delta together.
    pub segment_bytes: u64,
    /// WAL frames dropped by truncation.
    pub frames_truncated: u64,
    /// Source logs unlinked because a retained checkpoint covers them.
    pub logs_retired: u64,
    /// Checkpoint attempts that errored (segment, manifest or WAL
    /// I/O). Nonzero means the WAL bound and log retirement are not
    /// currently advancing.
    pub failures: u64,
}

impl provscope::MetricSource for CheckpointStats {
    fn record(&self, out: &mut dyn FnMut(&str, u64)) {
        out("checkpoints", self.checkpoints);
        out("segments_written", self.segments_written);
        out("deltas_written", self.deltas_written);
        out("segment_bytes", self.segment_bytes);
        out("frames_truncated", self.frames_truncated);
        out("logs_retired", self.logs_retired);
        out("failures", self.failures);
    }
}

/// What a cold restart found, for tests and operators.
#[derive(Clone, Debug, Default)]
pub struct RestartReport {
    /// Sequence of the checkpoint the store was rehydrated from
    /// (`None` = no loadable checkpoint, full-log replay).
    pub loaded_seq: Option<u64>,
    /// Damaged checkpoints skipped before one loaded (corrupt or torn
    /// manifest, checksum-mismatched or missing segment or delta).
    pub checkpoints_skipped: usize,
    /// Bytes of base segments the loaded checkpoint rehydrated.
    pub base_bytes: u64,
    /// Bytes of delta chain replayed over that base — bounded by
    /// `base_bytes` plus one delta, by the rewrite rule.
    pub chain_bytes: u64,
    /// Valid durability frames found in the surviving WAL.
    pub wal_frames: u64,
    /// Of those, frames past the loaded checkpoint — commits whose
    /// effects restart re-derives by replaying retained logs.
    pub wal_frames_beyond_checkpoint: u64,
    /// Entries applied while replaying surviving logs.
    pub replayed_entries: usize,
    /// True when the surviving WAL's tail did not parse cleanly (torn
    /// or corrupt final frame). Harmless for state — replay comes
    /// from the manifest, never from frames — but it is the detection
    /// signal for WAL truncation/bit-flip tampers.
    pub wal_tail_torn: bool,
}

/// `<db_dir>/checkpoints`, the segment + manifest directory.
pub(crate) fn checkpoint_dir(db_dir: &str) -> String {
    format!("{db_dir}/checkpoints")
}

/// `<db_dir>/wal`, the durability-frame log.
pub(crate) fn wal_path(db_dir: &str) -> String {
    format!("{db_dir}/wal")
}

fn manifest_path(dir: &str, seq: u64) -> String {
    format!("{dir}/manifest.{seq}")
}

fn segment_name(shard: usize, generation: u64) -> String {
    format!("shard{shard}.g{generation}.seg")
}

fn delta_name(from_seq: u64, to_seq: u64) -> String {
    format!("delta.{from_seq}-{to_seq}")
}

/// Writes `data` then fsyncs before closing — the discipline every
/// checkpoint artifact is written with. The descriptor is closed
/// whether or not the write and the fsync succeed.
fn write_synced(kernel: &mut Kernel, pid: Pid, path: &str, data: &[u8]) -> Result<(), FsError> {
    let fd = kernel.open(pid, path, OpenFlags::WRONLY_CREATE)?;
    let synced = (kernel.write(pid, fd, data)).and_then(|_| kernel.fsync(pid, fd));
    let closed = kernel.close(pid, fd);
    synced.and(closed)
}

/// The full-image writer: serializes and writes a base segment for
/// every shard, reusing the previous base's file for a shard whose
/// generation has not moved since (one that nothing was ever routed
/// to again). A rewritten shard gets a *new* path, so the previous
/// base stays intact for the older checkpoints that reference it.
/// Returns the per-shard refs plus (files written, bytes written).
pub(crate) fn write_segments(
    kernel: &mut Kernel,
    pid: Pid,
    store: &Store,
    dir: &str,
    prev: Option<&Manifest>,
) -> Result<(Vec<SegmentRef>, u64, u64), FsError> {
    let mut refs = Vec::with_capacity(store.shard_count());
    let mut written = 0u64;
    let mut bytes = 0u64;
    for i in 0..store.shard_count() {
        let shard = store.shard(i);
        let gen = shard.generation;
        if gen == 0 {
            refs.push(SegmentRef {
                generation: 0,
                len: 0,
                crc: 0,
            });
            continue;
        }
        if let Some(p) = prev.and_then(|m| m.segments.get(i)) {
            if p.generation == gen && !p.is_empty() {
                refs.push(*p);
                continue;
            }
        }
        let img = encode_shard(i as u32, shard, gen);
        write_synced(
            kernel,
            pid,
            &format!("{dir}/{}", segment_name(i, gen)),
            &img,
        )?;
        refs.push(SegmentRef {
            generation: gen,
            len: img.len() as u64,
            crc: closing_crc(&img).expect("an encoded segment ends in its CRC"),
        });
        written += 1;
        bytes += img.len() as u64;
    }
    Ok((refs, written, bytes))
}

/// The delta writer: closes the store's applied-entry record, taken
/// at commit sequence `to_seq`, into one CRC-closed, fsynced
/// `delta.<from_seq>-<to_seq>` file.
pub(crate) fn write_delta(
    kernel: &mut Kernel,
    pid: Pid,
    dir: &str,
    delta: PendingDelta,
    to_seq: u64,
) -> Result<DeltaRef, FsError> {
    let name = delta_name(delta.from_seq, to_seq);
    let img = encode_delta(delta.from_seq, to_seq, delta.groups);
    write_synced(kernel, pid, &format!("{dir}/{name}"), &img)?;
    Ok(DeltaRef {
        from_seq: delta.from_seq,
        to_seq,
        len: img.len() as u64,
        crc: closing_crc(&img).expect("an encoded delta ends in its CRC"),
    })
}

/// Writes the manifest under its temporary name and fsyncs it.
pub(crate) fn write_temp_manifest(
    kernel: &mut Kernel,
    pid: Pid,
    dir: &str,
    m: &Manifest,
) -> Result<(), FsError> {
    write_synced(
        kernel,
        pid,
        &format!("{dir}/manifest.tmp"),
        &encode_manifest(m),
    )
}

/// Atomically publishes the temporary manifest as `manifest.<seq>`.
pub(crate) fn rename_manifest(
    kernel: &mut Kernel,
    pid: Pid,
    dir: &str,
    seq: u64,
) -> Result<(), FsError> {
    kernel.rename(
        pid,
        &format!("{dir}/manifest.tmp"),
        &manifest_path(dir, seq),
    )
}

/// Rewrites the WAL keeping only frames past `seq`, into the WAL's
/// temporary name (`wal.tmp`), fsynced. Returns the number of frames
/// dropped. The caller renames via [`rename_wal`] — and must have
/// closed its WAL descriptor first, since rename replaces the inode.
pub(crate) fn truncate_wal_temp(
    kernel: &mut Kernel,
    pid: Pid,
    wal: &str,
    seq: u64,
) -> Result<u64, FsError> {
    let data = kernel.read_file(pid, wal).unwrap_or_default();
    let (frames, _tail) = parse_wal(&data);
    let mut retained = Vec::new();
    let mut dropped = 0u64;
    for f in &frames {
        if f.seq > seq {
            crate::wal::encode_frame(&mut retained, f);
        } else {
            dropped += 1;
        }
    }
    write_synced(kernel, pid, &format!("{wal}.tmp"), &retained)?;
    Ok(dropped)
}

/// Writes an **empty** WAL to the temporary name — the restart-time
/// reset (`Waldo::restart`), where every surviving frame is stale.
pub(crate) fn reset_wal_temp(kernel: &mut Kernel, pid: Pid, wal: &str) -> Result<(), FsError> {
    write_synced(kernel, pid, &format!("{wal}.tmp"), &[])
}

/// Atomically replaces the WAL with its truncated rewrite.
pub(crate) fn rename_wal(kernel: &mut Kernel, pid: Pid, wal: &str) -> Result<(), FsError> {
    kernel.rename(pid, &format!("{wal}.tmp"), wal)
}

/// Manifest sequence numbers present in `dir`, ascending.
pub(crate) fn list_manifests(kernel: &mut Kernel, pid: Pid, dir: &str) -> Vec<u64> {
    let Ok(entries) = kernel.readdir(pid, dir) else {
        return Vec::new();
    };
    let mut seqs: Vec<u64> = entries
        .iter()
        .filter_map(|e| {
            e.name
                .strip_prefix("manifest.")
                .and_then(|s| s.parse().ok())
        })
        .collect();
    seqs.sort_unstable();
    seqs
}

/// A published checkpoint still on disk, with the data files its
/// manifest names. The daemon keeps these beside its retention floor
/// so steady-state garbage collection is unlinks only: it wrote the
/// manifests itself and need not read them back.
#[derive(Clone, Debug)]
pub(crate) struct Retained {
    pub seq: u64,
    /// Base segment and delta file names (no directory).
    files: Vec<String>,
}

impl Retained {
    pub fn of(m: &Manifest) -> Retained {
        let segments = m
            .segments
            .iter()
            .enumerate()
            .filter(|(_, seg)| !seg.is_empty())
            .map(|(i, seg)| segment_name(i, seg.generation));
        let deltas = m.deltas.iter().map(|d| delta_name(d.from_seq, d.to_seq));
        Retained {
            seq: m.seq,
            files: segments.chain(deltas).collect(),
        }
    }
}

/// Takes stock of a checkpoint directory a daemon is attaching to —
/// the one time retention state is rebuilt from disk. Manifests ahead
/// of `seq_now` are deleted (see `Waldo::attach_db_dir` for why they
/// must not merely be ignored); the rest are returned ascending with
/// the files they reference, and every segment or delta file none of
/// them references — the leavings of a crashed or failed checkpoint,
/// or of the deleted manifests — is unlinked. A kept-but-damaged
/// manifest contributes no references; its files become collectable,
/// which is fine — it could not have been restarted from anyway.
pub(crate) fn adopt_directory(
    kernel: &mut Kernel,
    pid: Pid,
    dir: &str,
    seq_now: u64,
) -> Vec<Retained> {
    let mut retained = Vec::new();
    for seq in list_manifests(kernel, pid, dir) {
        let path = manifest_path(dir, seq);
        if seq > seq_now {
            let _ = kernel.unlink(pid, &path);
            continue;
        }
        let files = kernel
            .read_file(pid, &path)
            .ok()
            .and_then(|data| decode_manifest(&data).ok())
            .map_or_else(Vec::new, |m| Retained::of(&m).files);
        retained.push(Retained { seq, files });
    }
    if let Ok(entries) = kernel.readdir(pid, dir) {
        for e in entries {
            let data_file = e.name.ends_with(".seg") || e.name.starts_with("delta.");
            if data_file && !retained.iter().any(|r| r.files.contains(&e.name)) {
                let _ = kernel.unlink(pid, &format!("{dir}/{}", e.name));
            }
        }
    }
    retained
}

/// Removes a checkpoint that rotated out of retention: its manifest,
/// and each of its files that no checkpoint in `kept` still shares.
pub(crate) fn drop_checkpoint(
    kernel: &mut Kernel,
    pid: Pid,
    dir: &str,
    dropped: &Retained,
    kept: &[Retained],
) {
    let _ = kernel.unlink(pid, &manifest_path(dir, dropped.seq));
    for f in &dropped.files {
        if !kept.iter().any(|k| k.files.contains(f)) {
            let _ = kernel.unlink(pid, &format!("{dir}/{f}"));
        }
    }
}

/// A checkpoint successfully loaded from disk.
pub(crate) struct LoadedCheckpoint {
    pub store: Store,
    pub manifest: Manifest,
    /// Damaged newer checkpoints skipped before this one loaded.
    pub skipped: usize,
}

/// Loads the newest complete checkpoint from `dir`: tries manifests
/// newest-first, validating the manifest codec and every referenced
/// file's length, checksum and identity; a damaged checkpoint is
/// skipped in favor of its predecessor (which means a longer log
/// replay for the caller).
pub(crate) fn load_latest(
    kernel: &mut Kernel,
    pid: Pid,
    dir: &str,
    cfg: WaldoConfig,
) -> Option<LoadedCheckpoint> {
    let mut seqs = list_manifests(kernel, pid, dir);
    seqs.reverse();
    let mut skipped = 0;
    for seq in seqs {
        match try_load(kernel, pid, dir, cfg, seq) {
            Some((store, manifest)) => {
                return Some(LoadedCheckpoint {
                    store,
                    manifest,
                    skipped,
                });
            }
            None => skipped += 1,
        }
    }
    None
}

/// Reads a checkpoint data file and checks it against the length and
/// closing CRC its manifest recorded; the decoder then checks the body
/// against that CRC.
fn read_bound(kernel: &mut Kernel, pid: Pid, path: &str, len: u64, crc: u32) -> Option<Vec<u8>> {
    let img = kernel.read_file(pid, path).ok()?;
    (img.len() as u64 == len && closing_crc(&img) == Some(crc)).then_some(img)
}

fn try_load(
    kernel: &mut Kernel,
    pid: Pid,
    dir: &str,
    cfg: WaldoConfig,
    seq: u64,
) -> Option<(Store, Manifest)> {
    let data = kernel.read_file(pid, &manifest_path(dir, seq)).ok()?;
    let m = decode_manifest(&data).ok()?;
    if m.seq != seq || !m.segments.len().is_power_of_two() {
        return None;
    }
    let mut shards = Vec::with_capacity(m.segments.len());
    for (i, seg) in m.segments.iter().enumerate() {
        if seg.is_empty() {
            shards.push(Shard::default());
            continue;
        }
        let path = format!("{dir}/{}", segment_name(i, seg.generation));
        let img = read_bound(kernel, pid, &path, seg.len, seg.crc)?;
        let (idx, shard) = decode_shard(&img).ok()?;
        if idx as usize != i || shard.generation != seg.generation {
            return None;
        }
        shards.push(shard);
    }
    // Replay state and the commit sequence are the manifest's (as of
    // `seq`); shard contents are the base's (as of `base_seq`) until
    // the chain below carries them forward.
    let mut store = Store::restore(
        cfg,
        shards,
        m.txns.clone(),
        m.commit_txn,
        m.sources.clone(),
        m.seq,
        m.batch_hw.clone(),
        m.replay_skip,
    );
    for d in &m.deltas {
        let path = format!("{dir}/{}", delta_name(d.from_seq, d.to_seq));
        let img = read_bound(kernel, pid, &path, d.len, d.crc)?;
        let delta = decode_delta(&img).ok()?;
        if (delta.from_seq, delta.to_seq) != (d.from_seq, d.to_seq) {
            return None;
        }
        for group in &delta.groups {
            store.replay_group(group);
        }
    }
    Some((store, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaGroups;
    use crate::Waldo;
    use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
    use lasagna::LogEntry;
    use sim_os::clock::Clock;
    use sim_os::cost::CostModel;
    use sim_os::fs::basefs::BaseFs;

    fn named(i: u64, name: &str) -> LogEntry {
        LogEntry::Prov {
            subject: ObjectRef::new(Pnode::new(VolumeId(1), i), Version(0)),
            record: ProvenanceRecord::new(Attribute::Name, Value::str(name)),
        }
    }

    /// The loader checks a file against what the manifest recorded
    /// for it, not merely against itself: a delta swapped for another
    /// well-formed one (an older incarnation's file under the same
    /// name, say) makes the checkpoint unloadable instead of silently
    /// loading a different store.
    #[test]
    fn a_valid_delta_the_manifest_did_not_bind_is_rejected() {
        let clock = Clock::new();
        let mut kernel = Kernel::new(clock.clone(), CostModel::default());
        kernel.mount("/", Box::new(BaseFs::new(clock, CostModel::default())));
        let pid = kernel.spawn_init("waldo");
        let cfg = WaldoConfig {
            checkpoint_commits: 0,
            checkpoint_wal_bytes: 0,
            ..WaldoConfig::default()
        };
        let mut waldo = Waldo::with_config(pid, cfg);
        waldo.attach_db_dir(&mut kernel, "/db").unwrap();
        let base: Vec<LogEntry> = (1..40).map(|i| named(i, &format!("/base{i}"))).collect();
        waldo.db.ingest(&base);
        assert!(waldo.checkpoint(&mut kernel).unwrap());
        let base_seq = waldo.db.commit_seq();
        waldo.db.ingest(&[named(50, "/mine")]);
        assert!(waldo.checkpoint(&mut kernel).unwrap());
        assert_eq!(waldo.checkpoint_stats().deltas_written, 1);
        let seq = waldo.db.commit_seq();
        drop(waldo);

        let dir = "/db/checkpoints";
        let loaded = load_latest(&mut kernel, pid, dir, cfg).unwrap();
        assert_eq!((loaded.manifest.seq, loaded.skipped), (seq, 0));

        let mut groups = DeltaGroups::default();
        groups.push(&[&named(50, "/evil-twin")]);
        let forged = encode_delta(base_seq, seq, groups);
        assert!(decode_delta(&forged).is_ok());
        let path = format!("{dir}/{}", delta_name(base_seq, seq));
        kernel.write_file(pid, &path, &forged).unwrap();

        let loaded = load_latest(&mut kernel, pid, dir, cfg).unwrap();
        assert_eq!((loaded.manifest.seq, loaded.skipped), (base_seq, 1));
        assert!(loaded.store.find_by_name("/evil-twin").is_empty());
    }
}
