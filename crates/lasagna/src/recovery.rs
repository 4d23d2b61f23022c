//! Crash recovery: identifying data whose provenance is inconsistent.
//!
//! The write-ahead-provenance protocol guarantees no *unprovenanced*
//! data reaches the disk; what can exist after a crash is logged
//! provenance whose data never (fully) arrived. Recovery scans the
//! provenance logs, replays identity bindings and versions, and
//! verifies the MD5 digest of every surviving data write against the
//! file contents — "this indicates precisely the data that was being
//! written to disk at the time of a crash" (paper §5.6).

use std::collections::{HashMap, HashSet};

use dpapi::{Attribute, ObjectRef, Value, Version};
use sim_os::fs::{FileSystem, Ino};

use crate::fs::INO_ATTRIBUTE;
use crate::log::{parse_log, LogEntry, LogTail};
use crate::md5::md5;

/// One data range whose on-disk bytes do not match the logged digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inconsistency {
    /// The object whose data is suspect.
    pub subject: ObjectRef,
    /// Offset of the suspect write.
    pub offset: u64,
    /// Length of the suspect write.
    pub len: u32,
    /// Why it is suspect.
    pub reason: InconsistencyReason,
}

/// Why a logged write failed verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InconsistencyReason {
    /// The digest of the on-disk bytes differs from the logged digest.
    DigestMismatch,
    /// The file is shorter than the logged write.
    MissingData,
    /// The log holds no inode binding for the pnode, so the data
    /// cannot be located.
    UnknownFile,
}

/// The outcome of scanning the logs after a (simulated) crash.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Total log entries parsed across all logs.
    pub entries_scanned: usize,
    /// Logs that ended mid-entry (crash while appending).
    pub truncated_logs: usize,
    /// Logs with CRC failures.
    pub corrupt_logs: usize,
    /// Data writes whose digests verified.
    pub verified_writes: usize,
    /// Data ranges flagged as inconsistent.
    pub inconsistent: Vec<Inconsistency>,
    /// Transactions begun but never ended (orphaned provenance that
    /// the server-side Waldo garbage-collects).
    pub orphaned_txns: Vec<u64>,
    /// Highest pnode number observed, for allocator resumption.
    pub max_pnode: u64,
    /// Recovered current version per pnode number.
    pub versions: HashMap<u64, Version>,
}

/// Scans `logs` (raw log images, oldest first) against `lower` and
/// produces a [`RecoveryReport`].
pub fn recover(lower: &mut dyn FileSystem, logs: &[Vec<u8>]) -> RecoveryReport {
    let mut report = RecoveryReport::default();
    let mut entries = Vec::new();
    for image in logs {
        let (mut parsed, tail) = parse_log(image);
        match tail {
            LogTail::Clean => {}
            LogTail::Truncated { .. } => report.truncated_logs += 1,
            LogTail::Corrupt { .. } => report.corrupt_logs += 1,
        }
        entries.append(&mut parsed);
    }
    report.entries_scanned = entries.len();

    // Pass 1: identity bindings, versions, transactions.
    let mut ino_of: HashMap<u64, Ino> = HashMap::new();
    let mut open_txns: HashSet<u64> = HashSet::new();
    for e in &entries {
        match e {
            LogEntry::Prov { subject, record } => {
                report.max_pnode = report.max_pnode.max(subject.pnode.number);
                if record.attribute == *INO_ATTRIBUTE {
                    if let Value::Int(ino) = record.value {
                        ino_of.insert(subject.pnode.number, Ino(ino as u64));
                    }
                }
                if record.attribute == Attribute::Freeze {
                    if let Value::Int(v) = record.value {
                        report
                            .versions
                            .insert(subject.pnode.number, Version(v as u32));
                    }
                }
            }
            LogEntry::DataWrite { subject, .. } => {
                report.max_pnode = report.max_pnode.max(subject.pnode.number);
            }
            LogEntry::TxnBegin { id } => {
                open_txns.insert(*id);
            }
            LogEntry::TxnEnd { id } => {
                open_txns.remove(id);
            }
        }
    }
    report.orphaned_txns = {
        let mut v: Vec<u64> = open_txns.into_iter().collect();
        v.sort_unstable();
        v
    };

    // Pass 2: keep the *last* data write per (pnode, offset) — earlier
    // digests are superseded by overwrites — then verify against the
    // file contents.
    let mut last_writes: HashMap<(u64, u64), (ObjectRef, u32, crate::md5::Digest)> = HashMap::new();
    for e in &entries {
        if let LogEntry::DataWrite {
            subject,
            offset,
            len,
            digest,
        } = e
        {
            last_writes.insert((subject.pnode.number, *offset), (*subject, *len, *digest));
        }
    }
    let mut keys: Vec<(u64, u64)> = last_writes.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let (subject, len, digest) = last_writes[&key];
        let offset = key.1;
        let Some(ino) = ino_of.get(&subject.pnode.number).copied() else {
            report.inconsistent.push(Inconsistency {
                subject,
                offset,
                len,
                reason: InconsistencyReason::UnknownFile,
            });
            continue;
        };
        match lower.read(ino, offset, len as usize) {
            Ok(data) if data.len() == len as usize => {
                if md5(&data) == digest {
                    report.verified_writes += 1;
                } else {
                    report.inconsistent.push(Inconsistency {
                        subject,
                        offset,
                        len,
                        reason: InconsistencyReason::DigestMismatch,
                    });
                }
            }
            _ => {
                report.inconsistent.push(Inconsistency {
                    subject,
                    offset,
                    len,
                    reason: InconsistencyReason::MissingData,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{Lasagna, LasagnaConfig, PASS_DIR};
    use dpapi::{Bundle, VolumeId};
    use sim_os::clock::Clock;
    use sim_os::cost::CostModel;
    use sim_os::fs::basefs::BaseFs;
    use sim_os::fs::DpapiVolume;

    /// Builds a volume, runs `f`, then returns (lower fs, log images).
    fn run_and_crash(
        f: impl FnOnce(&mut Lasagna),
        mutilate: impl FnOnce(&mut Vec<Vec<u8>>, &mut dyn FileSystem),
    ) -> RecoveryReport {
        let clock = Clock::new();
        let model = CostModel::default();
        let lower = BaseFs::new(clock.clone(), model);
        let mut v = Lasagna::new(
            Box::new(lower),
            clock,
            model,
            LasagnaConfig::new(VolumeId(1)),
        )
        .unwrap();
        f(&mut v);
        v.force_log_rotation();
        // Collect log images from the lower fs.
        let lower = v.lower_mut();
        let root = lower.root();
        let dir = lower.lookup(root, PASS_DIR).unwrap();
        let mut images = Vec::new();
        for e in lower.readdir(dir).unwrap() {
            let size = lower.getattr(e.ino).unwrap().size as usize;
            if size > 0 {
                images.push(lower.read(e.ino, 0, size).unwrap());
            }
        }
        mutilate(&mut images, lower);
        recover(lower, &images)
    }

    fn write_file(v: &mut Lasagna, name: &str, data: &[u8]) -> Ino {
        let root = v.root();
        let ino = v.create(root, name).unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        use dpapi::Dpapi;
        v.pass_write(h, 0, data, Bundle::new()).unwrap();
        ino
    }

    #[test]
    fn clean_shutdown_verifies_everything() {
        let report = run_and_crash(
            |v| {
                write_file(v, "a", b"alpha");
                write_file(v, "b", b"beta");
            },
            |_logs, _fs| {},
        );
        assert_eq!(report.verified_writes, 2);
        assert!(report.inconsistent.is_empty());
        assert_eq!(report.truncated_logs, 0);
        assert!(report.max_pnode >= 2);
    }

    #[test]
    fn lost_data_is_flagged_missing() {
        let report = run_and_crash(
            |v| {
                write_file(v, "a", b"will vanish");
            },
            |_logs, fs| {
                // Simulate the crash losing the data write: truncate
                // the file to zero after the log was persisted.
                let root = fs.root();
                let ino = fs.lookup(root, "a").unwrap();
                fs.truncate(ino, 0).unwrap();
            },
        );
        assert_eq!(report.verified_writes, 0);
        assert_eq!(report.inconsistent.len(), 1);
        assert_eq!(
            report.inconsistent[0].reason,
            InconsistencyReason::MissingData
        );
    }

    #[test]
    fn corrupted_data_is_flagged_by_digest() {
        let report = run_and_crash(
            |v| {
                write_file(v, "a", b"good bytes here");
            },
            |_logs, fs| {
                let root = fs.root();
                let ino = fs.lookup(root, "a").unwrap();
                fs.write(ino, 0, b"BAD").unwrap();
            },
        );
        assert_eq!(report.inconsistent.len(), 1);
        assert_eq!(
            report.inconsistent[0].reason,
            InconsistencyReason::DigestMismatch
        );
    }

    #[test]
    fn truncated_log_tail_is_counted_not_fatal() {
        let report = run_and_crash(
            |v| {
                write_file(v, "a", b"one");
                write_file(v, "b", b"two");
            },
            |logs, _fs| {
                // Chop the last few bytes of the final log image.
                if let Some(last) = logs.last_mut() {
                    let n = last.len();
                    last.truncate(n - 3);
                }
            },
        );
        assert_eq!(report.truncated_logs, 1);
        // Entries before the tear still verified.
        assert!(report.verified_writes >= 1);
    }

    #[test]
    fn orphaned_transactions_are_reported() {
        use bytes::BytesMut;
        let clock = Clock::new();
        let model = CostModel::default();
        let mut lower = BaseFs::new(clock, model);
        let mut img = BytesMut::new();
        crate::log::encode_entry(&mut img, &LogEntry::TxnBegin { id: 42 }).unwrap();
        crate::log::encode_entry(&mut img, &LogEntry::TxnBegin { id: 43 }).unwrap();
        crate::log::encode_entry(&mut img, &LogEntry::TxnEnd { id: 43 }).unwrap();
        let report = recover(&mut lower, &[img.to_vec()]);
        assert_eq!(report.orphaned_txns, vec![42]);
    }

    #[test]
    fn versions_recovered_from_freeze_records() {
        let report = run_and_crash(
            |v| {
                let root = v.root();
                let ino = v.create(root, "f").unwrap();
                let h = v.handle_for_ino(ino).unwrap();
                use dpapi::Dpapi;
                v.pass_freeze(h).unwrap();
                v.pass_freeze(h).unwrap();
            },
            |_logs, _fs| {},
        );
        assert!(report.versions.values().any(|v| *v == Version(2)));
    }

    #[test]
    fn overwrites_only_verify_final_digest() {
        let report = run_and_crash(
            |v| {
                let root = v.root();
                let ino = v.create(root, "f").unwrap();
                let h = v.handle_for_ino(ino).unwrap();
                use dpapi::Dpapi;
                v.pass_write(h, 0, b"first", Bundle::new()).unwrap();
                v.pass_write(h, 0, b"fresh", Bundle::new()).unwrap();
            },
            |_logs, _fs| {},
        );
        // One (pnode, offset) key, verified against the final bytes.
        assert_eq!(report.verified_writes, 1);
        assert!(report.inconsistent.is_empty());
    }
}
