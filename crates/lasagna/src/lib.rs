//! Lasagna: the provenance-aware file system of PASSv2.
//!
//! Lasagna is a *stackable* file system (the paper derives it from
//! eCryptfs): it wraps a lower file system, implements the regular
//! VFS calls by delegation, and adds the DPAPI — `pass_read`,
//! `pass_write` and `pass_freeze` as inode operations, `pass_mkobj`
//! and `pass_reviveobj` as superblock operations. All provenance is
//! appended to an on-disk log with write-ahead-provenance ordering and
//! MD5 data digests; [`recovery`] identifies data whose provenance is
//! inconsistent after a crash, and Waldo consumes rotated logs to
//! build the query database.

mod crc;
pub mod fs;
pub mod log;
pub mod md5;
pub mod recovery;

pub use crc::crc32;
pub use fs::{
    batch_txn_id, batch_txn_parts, ino_attribute, Lasagna, LasagnaConfig, LasagnaStats, PASS_DIR,
};
pub use log::{encode_entry, encode_group, entry_size, group_count, parse_log, LogEntry, LogTail};
pub use md5::{md5, Digest};
pub use recovery::{recover, Inconsistency, InconsistencyReason, RecoveryReport};
