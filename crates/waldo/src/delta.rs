//! The checkpoint **delta segment**: what a run of group commits
//! applied to the shards, in commit order.
//!
//! Where a base segment (`crate::segment`) is the image of a whole
//! shard, a delta is the *change* between two checkpoints: the
//! post-routing entries each group commit handed to
//! `Store::apply_group`, one group per commit, framed with the
//! Lasagna log codec the entries arrived in. Replaying the groups in
//! order over the store the previous checkpoint describes reproduces
//! the store at `to_seq` exactly — same per-subject order, same
//! reverse edges, same one-generation-bump-per-touched-shard — so a
//! checkpoint costs what changed, not what is stored.
//!
//! ```text
//! delta := magic "WDLT", version u16, from_seq u64, to_seq u64,
//!          groups u32, groups × (entries u32, len u32, len bytes of
//!          lasagna entry frames),
//!          crc32(everything before) u32
//! ```
//!
//! `from_seq` is the commit sequence of the checkpoint the delta
//! extends and `to_seq` the one it reaches; a commit that applied
//! nothing (it only buffered transaction members) contributes no
//! group, so `groups <= to_seq - from_seq`. Store-level state that is
//! not shard contents — open transactions, replay marks — is small and
//! stays in the manifest.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dpapi::{DpapiError, Result};
use lasagna::{crc32, parse_log, LogEntry, LogTail};

const MAGIC: &[u8; 4] = b"WDLT";
/// Current (and only) delta format version.
pub const DELTA_VERSION: u16 = 1;

/// Bytes of a delta file's header: magic, version, the two sequence
/// numbers and the group count.
const DELTA_HEADER: usize = 4 + 2 + 8 + 8 + 4;

/// Bytes a delta file carries around its groups: header plus CRC.
pub(crate) const DELTA_OVERHEAD: usize = DELTA_HEADER + 4;

/// The group section of a delta under construction: the store appends
/// one group per commit and the checkpoint writer closes it into a
/// file with [`encode_delta`]. The buffer starts with the file's
/// header reserved, so closing patches it and appends the CRC in
/// place instead of copying the groups behind a fresh header.
#[derive(Debug)]
pub(crate) struct DeltaGroups {
    count: u32,
    /// `DELTA_HEADER` reserved bytes, then the groups.
    buf: BytesMut,
}

impl Default for DeltaGroups {
    fn default() -> DeltaGroups {
        let mut buf = BytesMut::new();
        buf.put_slice(&[0; DELTA_HEADER]);
        DeltaGroups { count: 0, buf }
    }
}

impl DeltaGroups {
    /// Appends one commit's applied entries as a group.
    pub fn push(&mut self, entries: &[&LogEntry]) {
        let header = self.buf.len();
        self.buf.put_u32_le(entries.len() as u32);
        self.buf.put_u32_le(0);
        let start = self.buf.len();
        for e in entries {
            // Applied entries were parsed from a log image (or came
            // through validated disclosure), so they are
            // wire-representable by construction.
            lasagna::encode_entry(&mut self.buf, e).expect("applied log entries always encode");
        }
        let len = (self.buf.len() - start) as u32;
        self.buf[header + 4..start].copy_from_slice(&len.to_le_bytes());
        self.count += 1;
    }

    /// Bytes of the group section so far.
    pub fn len(&self) -> usize {
        self.buf.len() - DELTA_HEADER
    }
}

/// Closes a group section into a delta file image: patches the
/// reserved header and appends the CRC, in the section's own buffer.
pub(crate) fn encode_delta(from_seq: u64, to_seq: u64, groups: DeltaGroups) -> Vec<u8> {
    let DeltaGroups { count, mut buf } = groups;
    let mut at = 0;
    let mut patch = |field: &[u8]| {
        buf[at..at + field.len()].copy_from_slice(field);
        at += field.len();
    };
    patch(MAGIC);
    patch(&DELTA_VERSION.to_le_bytes());
    patch(&from_seq.to_le_bytes());
    patch(&to_seq.to_le_bytes());
    patch(&count.to_le_bytes());
    debug_assert_eq!(at, DELTA_HEADER);
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    buf.into()
}

/// A decoded delta segment.
#[derive(Debug, PartialEq)]
pub(crate) struct Delta {
    pub from_seq: u64,
    pub to_seq: u64,
    /// Each commit's applied entries, in commit order.
    pub groups: Vec<Vec<LogEntry>>,
}

/// Deserializes a delta image, validating magic, version, CRC and
/// every group's framing.
pub(crate) fn decode_delta(data: &[u8]) -> Result<Delta> {
    if data.len() < DELTA_OVERHEAD {
        return Err(DpapiError::Malformed("delta too short".into()));
    }
    let (body, crc_bytes) = data.split_at(data.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("split off four bytes"));
    if crc32(body) != stored {
        return Err(DpapiError::Malformed("delta CRC mismatch".into()));
    }
    let mut buf = Bytes::copy_from_slice(body);
    if buf.split_to(4).as_ref() != MAGIC {
        return Err(DpapiError::Malformed("bad delta magic".into()));
    }
    let version = buf.get_u16_le();
    if version != DELTA_VERSION {
        return Err(DpapiError::Malformed(format!(
            "unsupported delta version {version}"
        )));
    }
    let from_seq = buf.get_u64_le();
    let to_seq = buf.get_u64_le();
    let n_groups = buf.get_u32_le() as usize;
    let mut groups = Vec::with_capacity(n_groups.min(1024));
    for _ in 0..n_groups {
        if buf.remaining() < 8 {
            return Err(DpapiError::Malformed("truncated delta group".into()));
        }
        let n_entries = buf.get_u32_le() as usize;
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return Err(DpapiError::Malformed("truncated delta group".into()));
        }
        let (entries, tail) = parse_log(&buf.split_to(len));
        if tail != LogTail::Clean || entries.len() != n_entries {
            return Err(DpapiError::Malformed("damaged delta group".into()));
        }
        groups.push(entries);
    }
    if buf.has_remaining() {
        return Err(DpapiError::Malformed("trailing bytes in delta".into()));
    }
    Ok(Delta {
        from_seq,
        to_seq,
        groups,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
    use proptest::prelude::*;

    fn arb_entry() -> impl Strategy<Value = LogEntry> {
        let subject = (1u32..4, 1u64..64, 0u32..3)
            .prop_map(|(vol, n, v)| ObjectRef::new(Pnode::new(VolumeId(vol), n), Version(v)));
        prop_oneof![
            (subject.clone(), "[a-z]{0,12}").prop_map(|(subject, name)| LogEntry::Prov {
                subject,
                record: ProvenanceRecord::new(Attribute::Name, Value::Str(name)),
            }),
            (subject.clone(), subject.clone()).prop_map(|(subject, ancestor)| LogEntry::Prov {
                subject,
                record: ProvenanceRecord::input(ancestor),
            }),
            (subject, 0u64..4096, 1u32..4096).prop_map(|(subject, offset, len)| {
                LogEntry::DataWrite {
                    subject,
                    offset,
                    len,
                    digest: [7u8; 16],
                }
            }),
        ]
    }

    fn image(from_seq: u64, to_seq: u64, groups: &[Vec<LogEntry>]) -> Vec<u8> {
        let mut g = DeltaGroups::default();
        for entries in groups {
            g.push(&entries.iter().collect::<Vec<_>>());
        }
        let len = g.len();
        let img = encode_delta(from_seq, to_seq, g);
        assert_eq!(img.len(), DELTA_OVERHEAD + len);
        img
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn roundtrip(
            groups in proptest::collection::vec(proptest::collection::vec(arb_entry(), 0..12), 0..8),
            from_seq in 0u64..1000,
            span in 0u64..64,
        ) {
            let img = image(from_seq, from_seq + span, &groups);
            let back = decode_delta(&img).unwrap();
            prop_assert_eq!(back, Delta { from_seq, to_seq: from_seq + span, groups });
        }

        /// No single flipped bit and no truncation survives decode —
        /// hostile or crash-torn bytes are a typed error, never a
        /// panic or a silently different delta.
        #[test]
        fn every_byte_flip_and_cut_is_rejected(
            groups in proptest::collection::vec(proptest::collection::vec(arb_entry(), 1..6), 1..4),
            bit in 0u32..8,
        ) {
            let img = image(3, 9, &groups);
            for at in 0..img.len() {
                let mut bad = img.clone();
                bad[at] ^= 1 << bit;
                prop_assert!(decode_delta(&bad).is_err(), "flip at byte {} went undetected", at);
                prop_assert!(decode_delta(&img[..at]).is_err(), "{}-byte prefix accepted", at);
            }
        }
    }

    /// The image closed in place is the format, byte for byte: the
    /// header, the groups as pushed, and the CRC over both.
    #[test]
    fn closed_image_is_header_then_groups_then_crc() {
        let e = [LogEntry::TxnBegin { id: 7 }, LogEntry::TxnEnd { id: 7 }];
        let mut g = DeltaGroups::default();
        g.push(&[&e[0], &e[1]]);
        g.push(&[&e[1]]);
        let img = encode_delta(4, 9, g);
        let mut want = Vec::new();
        want.put_slice(MAGIC);
        want.put_u16_le(DELTA_VERSION);
        want.put_u64_le(4);
        want.put_u64_le(9);
        want.put_u32_le(2);
        for group in [&e[..], &e[1..]] {
            let mut frames = BytesMut::new();
            for entry in group {
                lasagna::encode_entry(&mut frames, entry).unwrap();
            }
            want.put_u32_le(group.len() as u32);
            want.put_u32_le(frames.len() as u32);
            want.put_slice(&frames);
        }
        let crc = crc32(&want);
        want.put_u32_le(crc);
        assert_eq!(img, want);
    }

    #[test]
    fn empty_delta_roundtrips() {
        let img = image(5, 5, &[]);
        assert_eq!(img.len(), DELTA_OVERHEAD);
        assert_eq!(
            decode_delta(&img).unwrap(),
            Delta {
                from_seq: 5,
                to_seq: 5,
                groups: Vec::new()
            }
        );
    }

    #[test]
    fn future_delta_version_is_rejected() {
        let mut img = image(1, 2, &[]);
        img[4] = 2;
        let body = img.len() - 4;
        let crc = crc32(&img[..body]).to_le_bytes();
        img[body..].copy_from_slice(&crc);
        let err = decode_delta(&img).unwrap_err();
        assert!(format!("{err:?}").contains("unsupported delta version 2"));
    }
}
