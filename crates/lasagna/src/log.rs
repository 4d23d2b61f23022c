//! The on-disk provenance log format.
//!
//! PASSv2 writes all provenance records to a log; Waldo later moves
//! them into the indexed database (paper §5.6). The log uses
//! transactional structures plus MD5 digests of data so that recovery
//! can identify exactly the data being written at the time of a
//! crash.
//!
//! Framing of each entry:
//!
//! ```text
//! entry := kind u8, len u32le, payload[len], crc32 u32le
//! ```
//!
//! The CRC covers the kind byte and the payload. A truncated or
//! corrupt tail terminates parsing and is reported to the recovery
//! machinery instead of being silently ignored.

use bytes::{Buf, BufMut, BytesMut};
use dpapi::wire;
use dpapi::{Attribute, DpapiError, ObjectRef, ProvenanceRecord, Result, Value};

use crate::md5::Digest;

const KIND_PROV: u8 = 1;
const KIND_DATA: u8 = 2;
const KIND_TXN_BEGIN: u8 = 3;
const KIND_TXN_END: u8 = 4;
/// A *group*: one disclosure transaction's entries framed as a single
/// length-prefixed record run. The outer CRC closes over every member,
/// so a torn or corrupt tail drops the whole group — the log-level
/// face of the DPAPI v2 atomicity contract.
const KIND_GROUP: u8 = 5;

/// One entry of the provenance log.
#[derive(Clone, Debug, PartialEq)]
pub enum LogEntry {
    /// A provenance record describing `subject`.
    Prov {
        /// The object (at a specific version) the record describes.
        subject: ObjectRef,
        /// The record itself.
        record: ProvenanceRecord,
    },
    /// A data write, logged *before* the data reaches the file
    /// (write-ahead provenance). The digest lets recovery verify the
    /// on-disk bytes.
    DataWrite {
        /// The file written.
        subject: ObjectRef,
        /// Byte offset of the write.
        offset: u64,
        /// Length of the write.
        len: u32,
        /// MD5 of the written bytes.
        digest: Digest,
    },
    /// Start of a provenance transaction (PA-NFS chunked bundles).
    TxnBegin {
        /// Transaction id issued by the server volume.
        id: u64,
    },
    /// End of a provenance transaction.
    TxnEnd {
        /// Transaction id from the matching [`LogEntry::TxnBegin`].
        id: u64,
    },
}

/// CRC-32 (IEEE 802.3), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(CRC_INIT, data)
}

const CRC_INIT: u32 = 0xFFFF_FFFF;

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables, built at compile time: `CRC_TABLES[0]` is the
/// classic one-byte table, and `CRC_TABLES[k][b]` is the register
/// after byte `b` and then `k` zero bytes — which lets eight input
/// bytes fold into the register with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            b += 1;
        }
        k += 1;
    }
    t
};

/// Feeds `data` into a running CRC register (start from [`CRC_INIT`],
/// complement at the end), so a frame's kind byte and payload can be
/// summed where they lie instead of being copied side by side first.
/// Eight bytes per step (slicing-by-8), then the tail bytewise; the
/// register after any split of the input is the bytewise loop's.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The CRC a frame carries: over its kind byte, then its payload.
fn frame_crc(kind: u8, payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(CRC_INIT, &[kind]), payload)
}

/// A frame being written in place at the end of a buffer: where it
/// starts, and where its payload does.
pub(crate) struct OpenFrame {
    kind: u8,
    start: usize,
    body: usize,
}

/// Starts a frame: the kind byte and a length to be patched in by
/// [`close_frame`]. The payload is appended to `buf` in between.
fn open_frame(buf: &mut BytesMut, kind: u8) -> OpenFrame {
    let start = buf.len();
    buf.put_u8(kind);
    buf.put_u32_le(0);
    OpenFrame {
        kind,
        start,
        body: buf.len(),
    }
}

/// Closes `frame` over the payload appended since it was opened:
/// patches the length in and appends the CRC32. Errors — leaving
/// `buf` as it was before the frame was opened — when filling the
/// payload did (`filled`), or on a payload the `u32` length prefix
/// cannot represent (the same silent-truncation class as the fixed
/// `u16` attribute-name bug, one level up).
pub(crate) fn close_frame(buf: &mut BytesMut, frame: OpenFrame, filled: Result<()>) -> Result<()> {
    let OpenFrame { kind, start, body } = frame;
    let len = filled.and_then(|()| {
        u32::try_from(buf.len() - body).map_err(|_| {
            DpapiError::Malformed(format!(
                "log frame payload of {} bytes exceeds the u32 prefix",
                buf.len() - body
            ))
        })
    });
    let len = match len {
        Ok(len) => len,
        Err(e) => {
            buf.truncate(start);
            return Err(e);
        }
    };
    buf[start + 1..body].copy_from_slice(&len.to_le_bytes());
    let crc = frame_crc(kind, &buf[body..]);
    buf.put_u32_le(crc);
    Ok(())
}

/// Writes one CRC-closed frame (`kind`, length, payload, CRC32) whose
/// payload `fill` appends in place.
fn put_frame(
    buf: &mut BytesMut,
    kind: u8,
    fill: impl FnOnce(&mut BytesMut) -> Result<()>,
) -> Result<()> {
    let frame = open_frame(buf, kind);
    let filled = fill(buf);
    close_frame(buf, frame, filled)
}

/// Writes a `Prov` frame: `attribute = value` about `subject`, from
/// borrowed parts. On error `buf` is left untouched, as for every
/// frame writer here.
pub(crate) fn put_prov(
    buf: &mut BytesMut,
    subject: ObjectRef,
    attribute: &Attribute,
    value: &Value,
) -> Result<()> {
    put_frame(buf, KIND_PROV, |payload| {
        wire::put_object_ref(payload, subject);
        wire::put_record_parts(payload, attribute, value)
    })
}

/// Writes a `DataWrite` frame.
pub(crate) fn put_data_write(
    buf: &mut BytesMut,
    subject: ObjectRef,
    offset: u64,
    len: u32,
    digest: &Digest,
) -> Result<()> {
    put_frame(buf, KIND_DATA, |payload| {
        wire::put_object_ref(payload, subject);
        payload.put_u64_le(offset);
        payload.put_u32_le(len);
        payload.put_slice(digest);
        Ok(())
    })
}

/// Writes a `TxnBegin` (`begin`) or `TxnEnd` frame.
pub(crate) fn put_txn_marker(buf: &mut BytesMut, begin: bool, id: u64) -> Result<()> {
    let kind = if begin { KIND_TXN_BEGIN } else { KIND_TXN_END };
    put_frame(buf, kind, |payload| {
        payload.put_u64_le(id);
        Ok(())
    })
}

/// Opens a group frame of `members` entries. The caller appends them
/// with the frame writers above and then [`close_frame`]s the group,
/// whose CRC closes over every member.
pub(crate) fn open_group(buf: &mut BytesMut, members: u32) -> OpenFrame {
    let frame = open_frame(buf, KIND_GROUP);
    buf.put_u32_le(members);
    frame
}

/// Appends `entry` to `buf` in wire framing, through the frame
/// writers Lasagna's commit path calls on borrowed records: one
/// encoder, entered here with an owned entry and there without one.
///
/// On error (a record whose attribute name or payload cannot be
/// represented — see [`wire::validate_record`]) `buf` is left
/// untouched, so a failed encode can never emit a partial frame.
pub fn encode_entry(buf: &mut BytesMut, entry: &LogEntry) -> Result<()> {
    match entry {
        LogEntry::Prov { subject, record } => {
            put_prov(buf, *subject, &record.attribute, &record.value)
        }
        LogEntry::DataWrite {
            subject,
            offset,
            len,
            digest,
        } => put_data_write(buf, *subject, *offset, *len, digest),
        LogEntry::TxnBegin { id } => put_txn_marker(buf, true, *id),
        LogEntry::TxnEnd { id } => put_txn_marker(buf, false, *id),
    }
}

/// Appends `entries` to `buf` as one *group frame*: a single
/// length-prefixed record run whose outer CRC closes over every
/// member. Parsing flattens the group back into its member entries;
/// a torn or corrupt group is dropped wholesale, never partially —
/// this is how Lasagna makes a disclosure transaction's provenance
/// atomic on disk.
///
/// On error (an unrepresentable record) `buf` is left untouched.
pub fn encode_group(buf: &mut BytesMut, entries: &[LogEntry]) -> Result<()> {
    let group = open_group(buf, entries.len() as u32);
    let filled = entries.iter().try_for_each(|e| encode_entry(buf, e));
    close_frame(buf, group, filled)
}

/// Serialized size of an entry (header + payload + CRC). Errors on
/// records the wire format cannot represent.
pub fn entry_size(entry: &LogEntry) -> Result<usize> {
    let mut buf = BytesMut::new();
    encode_entry(&mut buf, entry)?;
    Ok(buf.len())
}

/// Number of group frames in a log image (tests and diagnostics; the
/// parser itself flattens groups into their members).
pub fn group_count(data: &[u8]) -> usize {
    let mut n = 0usize;
    let mut at = 0usize;
    while data.len() - at >= 5 {
        let kind = data[at];
        let len =
            u32::from_le_bytes([data[at + 1], data[at + 2], data[at + 3], data[at + 4]]) as usize;
        if data.len() - at < 5 + len + 4 {
            break;
        }
        if kind == KIND_GROUP {
            n += 1;
        }
        at += 5 + len + 4;
    }
    n
}

/// How parsing of a log image ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogTail {
    /// The log ended exactly at an entry boundary.
    Clean,
    /// The log ended mid-entry at the given byte offset — the classic
    /// crash-while-appending signature.
    Truncated {
        /// Offset of the first incomplete byte run.
        at: usize,
    },
    /// An entry failed its CRC at the given byte offset.
    Corrupt {
        /// Offset of the corrupt entry.
        at: usize,
    },
}

/// Parses a log image into entries plus a tail condition.
///
/// Group frames ([`encode_group`]) are flattened into their member
/// entries: consumers see the same `LogEntry` stream whether a
/// transaction was logged grouped or entry-at-a-time. A group whose
/// members do not parse exactly (bad inner frame, count mismatch) is
/// reported as corrupt at the group's offset.
pub fn parse_log(data: &[u8]) -> (Vec<LogEntry>, LogTail) {
    let mut entries = Vec::new();
    let tail = parse_frames(data, false, &mut entries);
    (entries, tail)
}

/// The frame walker behind [`parse_log`], pushing what it parses
/// onto `entries`. `inside_group` rejects group frames nested inside
/// a group's payload: the encoder never produces them, and accepting
/// them would let a crafted log drive unbounded parser recursion.
fn parse_frames(data: &[u8], inside_group: bool, entries: &mut Vec<LogEntry>) -> LogTail {
    let mut at = 0usize;
    while at < data.len() {
        let remaining = data.len() - at;
        if remaining < 5 {
            return LogTail::Truncated { at };
        }
        let kind = data[at];
        let len =
            u32::from_le_bytes([data[at + 1], data[at + 2], data[at + 3], data[at + 4]]) as usize;
        if remaining < 5 + len + 4 {
            return LogTail::Truncated { at };
        }
        let payload = &data[at + 5..at + 5 + len];
        let stored_crc = u32::from_le_bytes([
            data[at + 5 + len],
            data[at + 5 + len + 1],
            data[at + 5 + len + 2],
            data[at + 5 + len + 3],
        ]);
        if frame_crc(kind, payload) != stored_crc
            || decode_payload(kind, payload, inside_group, entries).is_err()
        {
            return LogTail::Corrupt { at };
        }
        at += 5 + len + 4;
    }
    LogTail::Clean
}

/// Decodes one frame's payload, pushing its entry (or, for a group,
/// every member entry) onto `out`. On error nothing is pushed and the
/// caller reports corruption at the frame's offset.
fn decode_payload(
    kind: u8,
    payload: &[u8],
    inside_group: bool,
    out: &mut Vec<LogEntry>,
) -> Result<()> {
    // The payload is parsed where it lies: the slice is its own cursor.
    let mut buf = payload;
    match kind {
        KIND_PROV => {
            let subject = wire::get_object_ref(&mut buf)?;
            let record = wire::get_record(&mut buf)?;
            out.push(LogEntry::Prov { subject, record });
        }
        KIND_DATA => {
            let subject = wire::get_object_ref(&mut buf)?;
            if buf.remaining() < 8 + 4 + 16 {
                return Err(DpapiError::Malformed("short data-write entry".into()));
            }
            let offset = buf.get_u64_le();
            let len = buf.get_u32_le();
            let mut digest = [0u8; 16];
            digest.copy_from_slice(&buf[..16]);
            out.push(LogEntry::DataWrite {
                subject,
                offset,
                len,
                digest,
            });
        }
        KIND_TXN_BEGIN => {
            if buf.remaining() < 8 {
                return Err(DpapiError::Malformed("short txn-begin".into()));
            }
            out.push(LogEntry::TxnBegin {
                id: buf.get_u64_le(),
            });
        }
        KIND_TXN_END => {
            if buf.remaining() < 8 {
                return Err(DpapiError::Malformed("short txn-end".into()));
            }
            out.push(LogEntry::TxnEnd {
                id: buf.get_u64_le(),
            });
        }
        KIND_GROUP => {
            if inside_group {
                return Err(DpapiError::Malformed("nested group frame".into()));
            }
            if buf.remaining() < 4 {
                return Err(DpapiError::Malformed("short group header".into()));
            }
            let n = buf.get_u32_le() as usize;
            // Members parse straight onto `out`; a group that does not
            // parse exactly takes them all back off.
            let first = out.len();
            let tail = parse_frames(buf, true, out);
            let members = out.len() - first;
            if tail != LogTail::Clean || members != n {
                out.truncate(first);
                return Err(DpapiError::Malformed(format!(
                    "group of {n} entries parsed to {members} with tail {tail:?}"
                )));
            }
        }
        other => return Err(DpapiError::Malformed(format!("unknown log kind {other}"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpapi::{Pnode, Version, VolumeId};

    fn subject(n: u64) -> ObjectRef {
        ObjectRef::new(Pnode::new(VolumeId(1), n), Version(2))
    }

    fn sample_entries() -> Vec<LogEntry> {
        vec![
            LogEntry::TxnBegin { id: 7 },
            LogEntry::Prov {
                subject: subject(1),
                record: ProvenanceRecord::new(Attribute::Name, Value::str("out.dat")),
            },
            LogEntry::Prov {
                subject: subject(1),
                record: ProvenanceRecord::input(subject(2)),
            },
            LogEntry::DataWrite {
                subject: subject(1),
                offset: 4096,
                len: 512,
                digest: crate::md5::md5(b"payload"),
            },
            LogEntry::TxnEnd { id: 7 },
        ]
    }

    #[test]
    fn roundtrip_all_entry_kinds() {
        let entries = sample_entries();
        let mut buf = BytesMut::new();
        for e in &entries {
            encode_entry(&mut buf, e).unwrap();
        }
        let (parsed, tail) = parse_log(&buf);
        assert_eq!(tail, LogTail::Clean);
        assert_eq!(parsed, entries);
    }

    /// The frame layout, byte for byte: the in-place writer must
    /// produce exactly what the format comment promises — the CRC is
    /// over the kind byte followed by the payload, skipping the
    /// length between them.
    #[test]
    fn frame_layout_is_kind_len_payload_crc() {
        let mut buf = BytesMut::new();
        encode_entry(&mut buf, &LogEntry::TxnBegin { id: 7 }).unwrap();
        let mut crc_input = vec![KIND_TXN_BEGIN];
        crc_input.extend_from_slice(&7u64.to_le_bytes());
        let mut expected = vec![KIND_TXN_BEGIN, 8, 0, 0, 0];
        expected.extend_from_slice(&7u64.to_le_bytes());
        expected.extend_from_slice(&crc32(&crc_input).to_le_bytes());
        assert_eq!(&buf[..], &expected[..]);
    }

    /// A record the wire format cannot represent leaves the buffer
    /// exactly as it was, even though the frame is now built in place.
    #[test]
    fn failed_encode_leaves_the_buffer_untouched() {
        let mut buf = BytesMut::new();
        encode_entry(&mut buf, &LogEntry::TxnEnd { id: 1 }).unwrap();
        let before = buf.clone();
        let bad = LogEntry::Prov {
            subject: subject(1),
            record: ProvenanceRecord::new(
                Attribute::Other("A".repeat(u16::MAX as usize + 1)),
                Value::Int(0),
            ),
        };
        assert!(encode_entry(&mut buf, &bad).is_err());
        assert!(encode_group(&mut buf, &[LogEntry::TxnBegin { id: 2 }, bad]).is_err());
        assert_eq!(buf, before);
    }

    #[test]
    fn group_frame_flattens_to_member_entries() {
        let entries = sample_entries();
        let mut buf = BytesMut::new();
        encode_group(&mut buf, &entries).unwrap();
        assert_eq!(group_count(&buf), 1);
        let (parsed, tail) = parse_log(&buf);
        assert_eq!(tail, LogTail::Clean);
        assert_eq!(parsed, entries, "a group parses to its members");
        // Groups and plain entries interleave freely.
        encode_entry(&mut buf, &LogEntry::TxnBegin { id: 99 }).unwrap();
        encode_group(&mut buf, &entries[..2]).unwrap();
        let (parsed, tail) = parse_log(&buf);
        assert_eq!(tail, LogTail::Clean);
        assert_eq!(parsed.len(), entries.len() + 1 + 2);
        assert_eq!(group_count(&buf), 2);
    }

    #[test]
    fn torn_group_is_dropped_wholesale() {
        let entries = sample_entries();
        let mut buf = BytesMut::new();
        encode_entry(&mut buf, &entries[0]).unwrap();
        let group_at = buf.len();
        encode_group(&mut buf, &entries).unwrap();
        // Cut inside the group: the lead entry survives, the whole
        // group is gone — no partial transaction is ever surfaced.
        let cut = group_at + 12;
        let (parsed, tail) = parse_log(&buf[..cut]);
        assert_eq!(parsed, vec![entries[0].clone()]);
        assert_eq!(tail, LogTail::Truncated { at: group_at });
        // Flip a byte inside the group: same wholesale drop, reported
        // as corruption at the group's offset.
        let mut bytes = buf.to_vec();
        bytes[group_at + 9] ^= 0xFF;
        let (parsed, tail) = parse_log(&bytes);
        assert_eq!(parsed, vec![entries[0].clone()]);
        assert_eq!(tail, LogTail::Corrupt { at: group_at });
    }

    #[test]
    fn group_count_mismatch_is_corrupt() {
        let entries = sample_entries();
        let mut payload = BytesMut::new();
        payload.put_u32_le(7); // claims 7 members
        for e in &entries {
            encode_entry(&mut payload, e).unwrap();
        }
        let mut buf = BytesMut::new();
        super::put_frame(&mut buf, 5, |b| {
            b.put_slice(&payload);
            Ok(())
        })
        .unwrap();
        let (parsed, tail) = parse_log(&buf);
        assert!(parsed.is_empty());
        assert_eq!(tail, LogTail::Corrupt { at: 0 });
    }

    #[test]
    fn nested_group_is_rejected_not_recursed() {
        // The encoder never nests groups; a crafted log that does must
        // be reported corrupt, not drive unbounded parser recursion.
        let mut inner = BytesMut::new();
        encode_group(&mut inner, &[LogEntry::TxnBegin { id: 1 }]).unwrap();
        let mut payload = BytesMut::new();
        payload.put_u32_le(1);
        payload.put_slice(&inner);
        let mut buf = BytesMut::new();
        super::put_frame(&mut buf, 5, |b| {
            b.put_slice(&payload);
            Ok(())
        })
        .unwrap();
        let (parsed, tail) = parse_log(&buf);
        assert!(parsed.is_empty());
        assert_eq!(tail, LogTail::Corrupt { at: 0 });
    }

    #[test]
    fn truncation_reports_offset_of_partial_entry() {
        let entries = sample_entries();
        let mut buf = BytesMut::new();
        let mut boundaries = vec![0usize];
        for e in &entries {
            encode_entry(&mut buf, e).unwrap();
            boundaries.push(buf.len());
        }
        // Cut in the middle of the fourth entry.
        let cut = boundaries[3] + 3;
        let (parsed, tail) = parse_log(&buf[..cut]);
        assert_eq!(parsed.len(), 3);
        assert_eq!(tail, LogTail::Truncated { at: boundaries[3] });
    }

    #[test]
    fn corruption_is_detected_by_crc() {
        let mut buf = BytesMut::new();
        for e in sample_entries() {
            encode_entry(&mut buf, &e).unwrap();
        }
        let mut bytes = buf.to_vec();
        // Flip one payload byte of the first entry (past the header).
        bytes[7] ^= 0xFF;
        let (parsed, tail) = parse_log(&bytes);
        assert!(parsed.is_empty());
        assert_eq!(tail, LogTail::Corrupt { at: 0 });
    }

    #[test]
    fn crc32_known_value() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
    }

    /// The byte-at-a-time loop slicing-by-8 replaced, kept as the
    /// reference the kernel must agree with register for register.
    fn crc32_update_bytewise(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Any buffer, starting at any offset into its allocation
        /// (every alignment of the eight-byte steps), from any
        /// register; and the same buffer summed in two calls split at
        /// every point — the running-register contract `frame_crc`
        /// (kind byte, then payload) relies on.
        #[test]
        fn crc_kernel_matches_the_bytewise_loop(
            buf in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096 + 8),
            seed in proptest::prelude::any::<u32>(),
        ) {
            for off in 0..buf.len().min(8) {
                let data = &buf[off..];
                proptest::prop_assert!(
                    crc32_update(seed, data) == crc32_update_bytewise(seed, data),
                    "differs from the bytewise loop at offset {off} of {} bytes",
                    buf.len()
                );
            }
            let whole = crc32_update_bytewise(seed, &buf);
            for split in 0..=buf.len() {
                let (head, tail) = buf.split_at(split);
                proptest::prop_assert!(
                    crc32_update(crc32_update(seed, head), tail) == whole,
                    "two calls split at {split} of {} bytes differ from one",
                    buf.len()
                );
            }
        }
    }

    #[test]
    fn empty_log_is_clean() {
        let (entries, tail) = parse_log(&[]);
        assert!(entries.is_empty());
        assert_eq!(tail, LogTail::Clean);
    }

    #[test]
    fn entry_size_matches_encoding() {
        for e in sample_entries() {
            let mut buf = BytesMut::new();
            encode_entry(&mut buf, &e).unwrap();
            assert_eq!(buf.len(), entry_size(&e).unwrap());
        }
    }

    #[test]
    fn unrepresentable_record_leaves_buffer_untouched() {
        let bad = LogEntry::Prov {
            subject: subject(1),
            record: ProvenanceRecord::new(
                Attribute::Other("X".repeat(u16::MAX as usize + 1)),
                Value::Int(0),
            ),
        };
        let mut buf = BytesMut::new();
        encode_entry(&mut buf, &LogEntry::TxnBegin { id: 1 }).unwrap();
        let before = buf.len();
        assert!(encode_entry(&mut buf, &bad).is_err());
        assert_eq!(buf.len(), before, "failed encode must not emit bytes");
        assert!(encode_group(&mut buf, &[bad]).is_err());
        assert_eq!(buf.len(), before);
        let (parsed, tail) = parse_log(&buf);
        assert_eq!(tail, LogTail::Clean);
        assert_eq!(parsed.len(), 1);
    }
}
