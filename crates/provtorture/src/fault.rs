//! The typed fault algebra.
//!
//! Each [`Fault`] is one *kind* of tamper or crash, aimed at one
//! durable artifact of the stack: a rotated Lasagna log, a published
//! checkpoint manifest, a checkpoint base segment or delta segment,
//! the database WAL, or the checkpoint publication protocol itself. Where exactly the
//! fault lands (which log, which byte, which bit, which crash point)
//! is drawn from the case's [`TortureRng`], so a fault kind names a
//! *family* of injections and the seed picks the member — same seed,
//! same injection, same verdict.
//!
//! Faults that would be *boundary* truncations (cutting a log or WAL
//! exactly between frames) are deliberately steered mid-frame: a
//! frame-boundary cut is indistinguishable from "the writer stopped
//! earlier", which no log format can detect, and the harness is in
//! the business of proving detection, not of testing the
//! undetectable.

use bytes::BytesMut;
use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version};
use lasagna::{batch_txn_parts, encode_group, parse_log, LogEntry, LogTail};
use sim_os::proc::Pid;
use sim_os::syscall::Kernel;
use waldo::CheckpointCrash;

use crate::TortureRng;

/// One kind of injectable fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Cut a rotated log mid-frame at a seeded byte offset.
    TruncateLog,
    /// Flip one seeded bit of a rotated log.
    FlipLogBit,
    /// Append a forged `KIND_GROUP` batch reusing an already-committed
    /// volume-salted batch id, carrying a poison record. Replay
    /// detection must skip it wholesale.
    ForgeBatchId,
    /// Re-append the bytes of the last committed `KIND_GROUP` frame —
    /// a literal replay of a real batch.
    ReplayGroup,
    /// Crash the final checkpoint at a seeded point of the publish
    /// protocol (torn manifest publish).
    TearManifestPublish,
    /// Flip one seeded bit of the newest published manifest.
    FlipManifestBit,
    /// Truncate the newest published manifest at a seeded offset.
    TruncateManifest,
    /// Unlink the newest generation of a seeded checkpoint segment.
    DropSegment,
    /// Flip one seeded bit of the newest checkpoint's delta segment.
    FlipDeltaBit,
    /// Unlink the newest checkpoint's delta segment.
    DropDelta,
    /// Cut the database WAL mid-frame at a seeded offset.
    TruncateWal,
    /// Flip one seeded bit of the database WAL.
    FlipWalBit,
}

/// Every fault kind, in matrix order.
pub const ALL_FAULTS: [Fault; 12] = [
    Fault::TruncateLog,
    Fault::FlipLogBit,
    Fault::ForgeBatchId,
    Fault::ReplayGroup,
    Fault::TearManifestPublish,
    Fault::FlipManifestBit,
    Fault::TruncateManifest,
    Fault::DropSegment,
    Fault::FlipDeltaBit,
    Fault::DropDelta,
    Fault::TruncateWal,
    Fault::FlipWalBit,
];

impl Fault {
    /// Stable display name (also the RNG salt for the cell).
    pub fn name(&self) -> &'static str {
        match self {
            Fault::TruncateLog => "truncate-log",
            Fault::FlipLogBit => "flip-log-bit",
            Fault::ForgeBatchId => "forge-batch-id",
            Fault::ReplayGroup => "replay-group",
            Fault::TearManifestPublish => "tear-manifest-publish",
            Fault::FlipManifestBit => "flip-manifest-bit",
            Fault::TruncateManifest => "truncate-manifest",
            Fault::DropSegment => "drop-segment",
            Fault::FlipDeltaBit => "flip-delta-bit",
            Fault::DropDelta => "drop-delta",
            Fault::TruncateWal => "truncate-wal",
            Fault::FlipWalBit => "flip-wal-bit",
        }
    }

    /// Does this fault tamper with rotated logs (before ingest)?
    pub fn targets_logs(&self) -> bool {
        matches!(
            self,
            Fault::TruncateLog | Fault::FlipLogBit | Fault::ForgeBatchId | Fault::ReplayGroup
        )
    }

    /// Does this fault tamper with the durable database directory
    /// (after the run's checkpoints)?
    pub fn targets_db_dir(&self) -> bool {
        matches!(
            self,
            Fault::FlipManifestBit
                | Fault::TruncateManifest
                | Fault::DropSegment
                | Fault::FlipDeltaBit
                | Fault::DropDelta
                | Fault::TruncateWal
                | Fault::FlipWalBit
        )
    }

    /// Should the run's *schedule* keep the final round light (the
    /// disclosure transaction only, no workload pass)? True for the
    /// delta faults: a checkpoint is a delta only while the chain is
    /// smaller than its base, so a final round as heavy as the first
    /// would rewrite the base and leave no delta to tamper with. Like
    /// [`Fault::skips_final_checkpoint`] this is a property of the
    /// fault kind, shared by both twins.
    pub fn wants_light_final_round(&self) -> bool {
        matches!(self, Fault::FlipDeltaBit | Fault::DropDelta)
    }

    /// Is this fault a crash of the checkpoint publish protocol?
    pub fn is_torn_publish(&self) -> bool {
        matches!(self, Fault::TearManifestPublish)
    }

    /// Should the run's *schedule* skip the final checkpoint? True
    /// only for WAL faults: a final checkpoint truncates the WAL, and
    /// an empty WAL leaves nothing to tamper with. The schedule is
    /// shared by the faulted run and its fault-free twin, so the
    /// byte-equality oracle compares like with like.
    pub fn skips_final_checkpoint(&self) -> bool {
        matches!(self, Fault::TruncateWal | Fault::FlipWalBit)
    }

    /// The crash point for [`Fault::TearManifestPublish`], drawn from
    /// the case RNG.
    pub fn crash_point(&self, rng: &mut TortureRng) -> CheckpointCrash {
        const POINTS: [CheckpointCrash; 5] = [
            CheckpointCrash::AfterSegments,
            CheckpointCrash::AfterTempManifest,
            CheckpointCrash::AfterPublish,
            CheckpointCrash::MidWalTruncate,
            CheckpointCrash::AfterWalTruncate,
        ];
        POINTS[rng.below(POINTS.len())]
    }

    /// Applies a log-targeted fault to one of `logs` (rotated log
    /// paths), chosen and parameterized by `rng`. Returns a
    /// description of what landed, or `None` if no candidate log
    /// offered a target (which the matrix treats as a harness bug).
    pub fn apply_to_logs(
        &self,
        kernel: &mut Kernel,
        pid: Pid,
        logs: &[String],
        rng: &mut TortureRng,
    ) -> Option<String> {
        let candidates: Vec<&String> = logs
            .iter()
            .filter(|p| {
                kernel
                    .read_file(pid, p)
                    .map(|d| !d.is_empty())
                    .unwrap_or(false)
            })
            .collect();
        if candidates.is_empty() {
            return None;
        }
        match self {
            Fault::TruncateLog => {
                let path = candidates[rng.below(candidates.len())];
                let data = kernel.read_file(pid, path).ok()?;
                let cut =
                    mid_frame_cut(&data, rng, |prefix| parse_log(prefix).1 != LogTail::Clean)?;
                kernel.write_file(pid, path, &data[..cut]).ok()?;
                Some(format!("truncated {path} at byte {cut} of {}", data.len()))
            }
            Fault::FlipLogBit => {
                let path = candidates[rng.below(candidates.len())];
                let mut data = kernel.read_file(pid, path).ok()?;
                let (pos, bit) = flip_random_bit(&mut data, rng);
                kernel.write_file(pid, path, &data).ok()?;
                Some(format!("flipped bit {bit} of byte {pos} in {path}"))
            }
            Fault::ForgeBatchId => {
                let (path, id) = find_committed_batch(kernel, pid, &candidates)?;
                let (vol, seq) = batch_txn_parts(id)?;
                let poison = LogEntry::Prov {
                    subject: ObjectRef::new(Pnode::new(vol, 0x6666_6999), Version(0)),
                    record: ProvenanceRecord::new(Attribute::Name, Value::str("/forged-by-tamper")),
                };
                let group = [LogEntry::TxnBegin { id }, poison, LogEntry::TxnEnd { id }];
                let mut buf = BytesMut::new();
                encode_group(&mut buf, &group).ok()?;
                let mut data = kernel.read_file(pid, &path).ok()?;
                data.extend_from_slice(&buf);
                kernel.write_file(pid, &path, &data).ok()?;
                Some(format!(
                    "appended forged batch id {id:#x} (vol {}, seq {seq}) to {path}",
                    vol.0
                ))
            }
            Fault::ReplayGroup => {
                let (path, id) = find_committed_batch(kernel, pid, &candidates)?;
                let data = kernel.read_file(pid, &path).ok()?;
                let (entries, _) = parse_log(&data);
                let (begin, end) = batch_span(&entries, id)?;
                let mut buf = BytesMut::new();
                encode_group(&mut buf, &entries[begin..=end]).ok()?;
                let mut data = data;
                data.extend_from_slice(&buf);
                kernel.write_file(pid, &path, &data).ok()?;
                Some(format!(
                    "replayed committed batch {id:#x} ({} entries) onto {path}",
                    end - begin + 1
                ))
            }
            _ => panic!("{} is not a log-targeted fault", self.name()),
        }
    }

    /// Applies a db-dir-targeted fault under `db_dir` (the durable
    /// home of one daemon), parameterized by `rng`. Returns a
    /// description of what landed, or `None` if the expected artifact
    /// was absent.
    pub fn apply_to_db_dir(
        &self,
        kernel: &mut Kernel,
        pid: Pid,
        db_dir: &str,
        rng: &mut TortureRng,
    ) -> Option<String> {
        let ckpt_dir = format!("{db_dir}/checkpoints");
        match self {
            Fault::FlipManifestBit => {
                let path = newest_manifest(kernel, pid, &ckpt_dir)?;
                let mut data = kernel.read_file(pid, &path).ok()?;
                let (pos, bit) = flip_random_bit(&mut data, rng);
                kernel.write_file(pid, &path, &data).ok()?;
                Some(format!("flipped bit {bit} of byte {pos} in {path}"))
            }
            Fault::TruncateManifest => {
                let path = newest_manifest(kernel, pid, &ckpt_dir)?;
                let data = kernel.read_file(pid, &path).ok()?;
                if data.is_empty() {
                    return None;
                }
                let cut = rng.below(data.len());
                kernel.write_file(pid, &path, &data[..cut]).ok()?;
                Some(format!("truncated {path} at byte {cut} of {}", data.len()))
            }
            Fault::DropSegment => {
                let segs = segment_files(kernel, pid, &ckpt_dir);
                if segs.is_empty() {
                    return None;
                }
                // Newest generation of a seeded shard: the one the
                // newest manifest references.
                let shard_ids: Vec<u64> = {
                    let mut ids: Vec<u64> = segs.iter().map(|(s, _, _)| *s).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    ids
                };
                let shard = shard_ids[rng.below(shard_ids.len())];
                let (_, _, victim) = segs
                    .iter()
                    .filter(|(s, _, _)| *s == shard)
                    .max_by_key(|(_, g, _)| *g)?;
                kernel.unlink(pid, victim).ok()?;
                Some(format!("unlinked {victim}"))
            }
            Fault::FlipDeltaBit => {
                let path = newest_delta(kernel, pid, &ckpt_dir)?;
                let mut data = kernel.read_file(pid, &path).ok()?;
                let (pos, bit) = flip_random_bit(&mut data, rng);
                kernel.write_file(pid, &path, &data).ok()?;
                Some(format!("flipped bit {bit} of byte {pos} in {path}"))
            }
            Fault::DropDelta => {
                let victim = newest_delta(kernel, pid, &ckpt_dir)?;
                kernel.unlink(pid, &victim).ok()?;
                Some(format!("unlinked {victim}"))
            }
            Fault::TruncateWal => {
                let path = format!("{db_dir}/wal");
                let data = kernel.read_file(pid, &path).ok()?;
                if data.is_empty() {
                    return None;
                }
                let cut = mid_frame_cut(&data, rng, |prefix| {
                    waldo::wal::parse_wal(prefix).1 != waldo::wal::WalTail::Clean
                })?;
                kernel.write_file(pid, &path, &data[..cut]).ok()?;
                Some(format!("truncated {path} at byte {cut} of {}", data.len()))
            }
            Fault::FlipWalBit => {
                let path = format!("{db_dir}/wal");
                let mut data = kernel.read_file(pid, &path).ok()?;
                if data.is_empty() {
                    return None;
                }
                let (pos, bit) = flip_random_bit(&mut data, rng);
                kernel.write_file(pid, &path, &data).ok()?;
                Some(format!("flipped bit {bit} of byte {pos} in {path}"))
            }
            _ => panic!("{} is not a db-dir-targeted fault", self.name()),
        }
    }
}

/// Flips a seeded bit of `data` in place, returning `(byte, bit)`.
fn flip_random_bit(data: &mut [u8], rng: &mut TortureRng) -> (usize, u32) {
    let pos = rng.below(data.len());
    let bit = rng.below(8) as u32;
    data[pos] ^= 1 << bit;
    (pos, bit)
}

/// Picks a cut point in `1..len` whose prefix `torn` reports as torn
/// (not a clean frame boundary), preferring a seeded draw and
/// falling back to `len - 1` (always mid-frame for CRC-closed
/// formats with a trailing checksum).
fn mid_frame_cut(data: &[u8], rng: &mut TortureRng, torn: impl Fn(&[u8]) -> bool) -> Option<usize> {
    if data.len() < 2 {
        return None;
    }
    let drawn = 1 + rng.below(data.len() - 1);
    for cut in [drawn, data.len() - 1] {
        if torn(&data[..cut]) {
            return Some(cut);
        }
    }
    None
}

/// Finds the last fully committed volume-salted batch across the
/// candidate logs: returns `(log path, batch id)` for the newest
/// `TxnEnd` whose id decodes as a batch id and whose `TxnBegin` is
/// present in the same log.
fn find_committed_batch(
    kernel: &mut Kernel,
    pid: Pid,
    candidates: &[&String],
) -> Option<(String, u64)> {
    for path in candidates.iter().rev() {
        let data = kernel.read_file(pid, path).ok()?;
        let (entries, _) = parse_log(&data);
        let mut found = None;
        for e in &entries {
            if let LogEntry::TxnEnd { id } = e {
                if batch_txn_parts(*id).is_some() && batch_span(&entries, *id).is_some() {
                    found = Some(*id);
                }
            }
        }
        if let Some(id) = found {
            return Some(((*path).clone(), id));
        }
    }
    None
}

/// The `[TxnBegin..TxnEnd]` index span of batch `id` in `entries`.
fn batch_span(entries: &[LogEntry], id: u64) -> Option<(usize, usize)> {
    let end = entries
        .iter()
        .rposition(|e| matches!(e, LogEntry::TxnEnd { id: i } if *i == id))?;
    let begin = entries[..end]
        .iter()
        .rposition(|e| matches!(e, LogEntry::TxnBegin { id: i } if *i == id))?;
    Some((begin, end))
}

/// The newest `manifest.{seq}` path in `dir`, if any.
fn newest_manifest(kernel: &mut Kernel, pid: Pid, dir: &str) -> Option<String> {
    let entries = kernel.readdir(pid, dir).ok()?;
    entries
        .iter()
        .filter_map(|e| {
            e.name
                .strip_prefix("manifest.")
                .and_then(|s| s.parse::<u64>().ok())
        })
        .max()
        .map(|seq| format!("{dir}/manifest.{seq}"))
}

/// The `delta.{from}-{to}` path in `dir` reaching the highest
/// sequence — the one only the newest manifest references — if any.
fn newest_delta(kernel: &mut Kernel, pid: Pid, dir: &str) -> Option<String> {
    let entries = kernel.readdir(pid, dir).ok()?;
    entries
        .iter()
        .filter_map(|e| {
            let (_, to) = e.name.strip_prefix("delta.")?.split_once('-')?;
            Some((to.parse::<u64>().ok()?, &e.name))
        })
        .max()
        .map(|(_, name)| format!("{dir}/{name}"))
}

/// Every `shard{i}.g{gen}.seg` in `dir` as `(shard, gen, path)`.
fn segment_files(kernel: &mut Kernel, pid: Pid, dir: &str) -> Vec<(u64, u64, String)> {
    let Ok(entries) = kernel.readdir(pid, dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for e in entries {
        let Some(rest) = e.name.strip_prefix("shard") else {
            continue;
        };
        let Some(rest) = rest.strip_suffix(".seg") else {
            continue;
        };
        let Some((shard, gen)) = rest.split_once(".g") else {
            continue;
        };
        if let (Ok(s), Ok(g)) = (shard.parse(), gen.parse()) {
            out.push((s, g, format!("{dir}/{}", e.name)));
        }
    }
    out.sort();
    out
}
