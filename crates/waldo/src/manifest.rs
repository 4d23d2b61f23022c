//! The checkpoint **manifest**: the atomic commit point of a
//! checkpoint.
//!
//! A manifest binds, for one group-commit sequence number, the
//! checksums of the files that hold the shard contents — a **base**
//! (one segment image per shard, as of `base_seq`) plus the ordered
//! chain of **delta** segments (`crate::delta`) that carry it from
//! `base_seq` to `seq` — to the store-level state a cold restart needs
//! beyond shard contents: the open-transaction buffers (entries staged
//! inside `TxnBegin`/`TxnEnd` pairs that had not closed at checkpoint
//! time), the transaction the committed stream prefix was inside, and
//! the per-source-log replay high-water marks — the points restart
//! replays surviving Lasagna logs from.
//!
//! ```text
//! manifest := magic "WMAN", version u16, seq u64, base_seq u64,
//!             shard_count u32,
//!             shard_count × (generation u64, len u64, crc u32),
//!             deltas u32, n × (from_seq u64, to_seq u64, len u64, crc u32),
//!             commit_txn (u8 flag, u64),
//!             txns u32, n × (id u64, entries u32, bytes u32, log image),
//!             sources u32, n × (str path, mark u64),
//!             batch_hw u32, n × (volume u32, seq u64),
//!             replay_skip (u8 flag, u64),
//!             crc32 u32
//! ```
//!
//! `len == 0` marks an empty shard (generation 0, nothing ever
//! committed): no segment file exists for it and the loader builds a
//! fresh shard. The chain is contiguous: the first delta starts at
//! `base_seq`, each next one where its predecessor ended, the last
//! ends at `seq` (and with no deltas `base_seq == seq`); the decoder
//! rejects anything else. The publisher writes the manifest to a
//! temporary name, fsyncs, then renames — so a manifest either exists
//! completely or not at all, and a torn image fails its CRC and is
//! skipped in favor of the previous complete checkpoint.
//!
//! Version 4 is the only version read or written: the decoder answers
//! any other with [`DpapiError::Unsupported`].

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dpapi::{DpapiError, Result};
use lasagna::{crc32, parse_log, LogEntry, LogTail};

const MAGIC: &[u8; 4] = b"WMAN";
/// The manifest format version, and the supported floor: v4 names a
/// base plus a delta chain; older layouts (whole-store checkpoints
/// only) are no longer decoded.
pub const MANIFEST_VERSION: u16 = 4;

/// One shard's segment as the manifest records it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SegmentRef {
    /// Shard generation the segment was written at (0 = empty shard,
    /// no file).
    pub generation: u64,
    /// Byte length of the segment file (0 = empty shard).
    pub len: u64,
    /// The segment file's closing CRC (`segment::closing_crc`).
    pub crc: u32,
}

impl SegmentRef {
    /// True if this shard had never been touched at checkpoint time.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One delta segment of the chain as the manifest records it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DeltaRef {
    /// Commit sequence the delta extends.
    pub from_seq: u64,
    /// Commit sequence the delta reaches.
    pub to_seq: u64,
    /// Byte length of the delta file.
    pub len: u64,
    /// The delta file's closing CRC (`segment::closing_crc`).
    pub crc: u32,
}

/// A decoded manifest.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Manifest {
    /// The group-commit sequence number the checkpoint captures.
    pub seq: u64,
    /// The commit sequence the base segments were written at.
    pub base_seq: u64,
    /// The base: per-shard segment references (index = shard number).
    pub segments: Vec<SegmentRef>,
    /// The delta chain from `base_seq` to `seq`, in replay order.
    pub deltas: Vec<DeltaRef>,
    /// Open-transaction buffers at checkpoint time, sorted by id.
    pub txns: Vec<(u64, Vec<LogEntry>)>,
    /// The transaction the committed stream prefix was inside.
    pub commit_txn: Option<u64>,
    /// Source-log replay slots: `(path, committed mark)`; an empty
    /// path is a free slot (kept to preserve handle indices).
    pub sources: Vec<(String, u64)>,
    /// Per-volume batch replay high-water marks, sorted by volume.
    pub batch_hw: Vec<(u32, u64)>,
    /// The replayed batch the committed stream prefix was skipping
    /// through, if a crash interrupted one.
    pub replay_skip: Option<u64>,
}

impl Manifest {
    /// Bytes of the base segment files.
    pub fn base_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.len).sum()
    }

    /// Bytes of the delta chain's files.
    pub fn chain_bytes(&self) -> u64 {
        self.deltas.iter().map(|d| d.len).sum()
    }
}

/// Serializes a manifest.
pub(crate) fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(256);
    buf.put_slice(MAGIC);
    buf.put_u16_le(MANIFEST_VERSION);
    buf.put_u64_le(m.seq);
    buf.put_u64_le(m.base_seq);
    buf.put_u32_le(m.segments.len() as u32);
    for seg in &m.segments {
        buf.put_u64_le(seg.generation);
        buf.put_u64_le(seg.len);
        buf.put_u32_le(seg.crc);
    }
    buf.put_u32_le(m.deltas.len() as u32);
    for d in &m.deltas {
        buf.put_u64_le(d.from_seq);
        buf.put_u64_le(d.to_seq);
        buf.put_u64_le(d.len);
        buf.put_u32_le(d.crc);
    }
    match m.commit_txn {
        Some(id) => {
            buf.put_u8(1);
            buf.put_u64_le(id);
        }
        None => {
            buf.put_u8(0);
            buf.put_u64_le(0);
        }
    }
    buf.put_u32_le(m.txns.len() as u32);
    for (id, entries) in &m.txns {
        buf.put_u64_le(*id);
        buf.put_u32_le(entries.len() as u32);
        let mut image = BytesMut::new();
        for e in entries {
            // Buffered entries were parsed from a log image (or came
            // through validated disclosure), so they are
            // wire-representable by construction.
            lasagna::encode_entry(&mut image, e).expect("stored log entries always encode");
        }
        buf.put_u32_le(image.len() as u32);
        buf.put_slice(&image);
    }
    buf.put_u32_le(m.sources.len() as u32);
    for (path, mark) in &m.sources {
        buf.put_u32_le(path.len() as u32);
        buf.put_slice(path.as_bytes());
        buf.put_u64_le(*mark);
    }
    buf.put_u32_le(m.batch_hw.len() as u32);
    for (volume, seq) in &m.batch_hw {
        buf.put_u32_le(*volume);
        buf.put_u64_le(*seq);
    }
    match m.replay_skip {
        Some(id) => {
            buf.put_u8(1);
            buf.put_u64_le(id);
        }
        None => {
            buf.put_u8(0);
            buf.put_u64_le(0);
        }
    }
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    buf.to_vec()
}

fn need(buf: &Bytes, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(DpapiError::Malformed(format!("truncated {what}")));
    }
    Ok(())
}

/// Deserializes a manifest, validating magic, version and CRC.
pub(crate) fn decode_manifest(data: &[u8]) -> Result<Manifest> {
    if data.len() < 4 + 2 + 8 + 8 + 4 + 4 {
        return Err(DpapiError::Malformed("manifest too short".into()));
    }
    let (body, crc_bytes) = data.split_at(data.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != stored {
        return Err(DpapiError::Malformed("manifest CRC mismatch".into()));
    }
    let mut buf = Bytes::copy_from_slice(body);
    if buf.split_to(4).as_ref() != MAGIC {
        return Err(DpapiError::Malformed("bad manifest magic".into()));
    }
    let version = buf.get_u16_le();
    if version != MANIFEST_VERSION {
        return Err(DpapiError::Unsupported("manifest format version"));
    }
    let seq = buf.get_u64_le();
    let base_seq = buf.get_u64_le();
    need(&buf, 4, "shard count")?;
    let n_shards = buf.get_u32_le() as usize;
    if n_shards == 0 || n_shards > 64 {
        return Err(DpapiError::Malformed(format!(
            "implausible shard count {n_shards}"
        )));
    }
    let mut segments = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        need(&buf, 20, "segment ref")?;
        segments.push(SegmentRef {
            generation: buf.get_u64_le(),
            len: buf.get_u64_le(),
            crc: buf.get_u32_le(),
        });
    }
    need(&buf, 4, "delta count")?;
    let n_deltas = buf.get_u32_le() as usize;
    let mut deltas = Vec::with_capacity(n_deltas.min(1024));
    let mut reached = base_seq;
    for _ in 0..n_deltas {
        need(&buf, 28, "delta ref")?;
        let d = DeltaRef {
            from_seq: buf.get_u64_le(),
            to_seq: buf.get_u64_le(),
            len: buf.get_u64_le(),
            crc: buf.get_u32_le(),
        };
        if d.from_seq != reached || d.to_seq < d.from_seq {
            return Err(DpapiError::Malformed(
                "delta chain is not contiguous".into(),
            ));
        }
        reached = d.to_seq;
        deltas.push(d);
    }
    if reached != seq {
        return Err(DpapiError::Malformed(
            "delta chain does not reach the manifest sequence".into(),
        ));
    }
    need(&buf, 9, "commit txn")?;
    let flag = buf.get_u8();
    let id = buf.get_u64_le();
    let commit_txn = (flag != 0).then_some(id);
    need(&buf, 4, "txn count")?;
    let n_txns = buf.get_u32_le() as usize;
    let mut txns = Vec::with_capacity(n_txns.min(1024));
    for _ in 0..n_txns {
        need(&buf, 16, "txn header")?;
        let id = buf.get_u64_le();
        let n_entries = buf.get_u32_le() as usize;
        let image_len = buf.get_u32_le() as usize;
        need(&buf, image_len, "txn image")?;
        let image = buf.split_to(image_len);
        let (entries, tail) = parse_log(&image);
        if tail != LogTail::Clean || entries.len() != n_entries {
            return Err(DpapiError::Malformed("damaged txn image".into()));
        }
        txns.push((id, entries));
    }
    need(&buf, 4, "source count")?;
    let n_sources = buf.get_u32_le() as usize;
    let mut sources = Vec::with_capacity(n_sources.min(1024));
    for _ in 0..n_sources {
        need(&buf, 4, "source path length")?;
        let plen = buf.get_u32_le() as usize;
        need(&buf, plen, "source path")?;
        let raw = buf.split_to(plen);
        let path = String::from_utf8(raw.to_vec())
            .map_err(|_| DpapiError::Malformed("invalid UTF-8 source path".into()))?;
        let mark = {
            need(&buf, 8, "source mark")?;
            buf.get_u64_le()
        };
        sources.push((path, mark));
    }
    need(&buf, 4, "batch high-water count")?;
    let n_hw = buf.get_u32_le() as usize;
    let mut batch_hw = Vec::with_capacity(n_hw.min(1024));
    for _ in 0..n_hw {
        need(&buf, 12, "batch high-water entry")?;
        let volume = buf.get_u32_le();
        let seq = buf.get_u64_le();
        batch_hw.push((volume, seq));
    }
    need(&buf, 9, "replay skip")?;
    let flag = buf.get_u8();
    let id = buf.get_u64_le();
    let replay_skip = (flag != 0).then_some(id);
    if buf.has_remaining() {
        return Err(DpapiError::Malformed("trailing bytes in manifest".into()));
    }
    Ok(Manifest {
        seq,
        base_seq,
        segments,
        deltas,
        txns,
        commit_txn,
        sources,
        batch_hw,
        replay_skip,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};

    fn sample() -> Manifest {
        let sub = ObjectRef::new(Pnode::new(VolumeId(1), 5), Version(0));
        Manifest {
            seq: 42,
            base_seq: 30,
            segments: vec![
                SegmentRef {
                    generation: 3,
                    len: 100,
                    crc: 0xabc,
                },
                SegmentRef {
                    generation: 0,
                    len: 0,
                    crc: 0,
                },
            ],
            deltas: vec![
                DeltaRef {
                    from_seq: 30,
                    to_seq: 36,
                    len: 640,
                    crc: 0xd1,
                },
                DeltaRef {
                    from_seq: 36,
                    to_seq: 42,
                    len: 30,
                    crc: 0xd2,
                },
            ],
            txns: vec![(
                9,
                vec![LogEntry::Prov {
                    subject: sub,
                    record: ProvenanceRecord::new(Attribute::Name, Value::str("/x")),
                }],
            )],
            commit_txn: Some(9),
            sources: vec![
                ("/.pass/log.3".to_string(), 17),
                (String::new(), 0),
                ("/.pass/log.4".to_string(), 2),
            ],
            batch_hw: vec![(1, 12), (7, 3)],
            replay_skip: Some(lasagna::batch_txn_id(VolumeId(1), 12)),
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let enc = encode_manifest(&m);
        assert_eq!(decode_manifest(&enc).unwrap(), m);
    }

    #[test]
    fn every_byte_flip_is_rejected() {
        let enc = encode_manifest(&sample());
        for flip in 0..enc.len() {
            let mut bad = enc.clone();
            bad[flip] ^= 0x02;
            assert!(
                decode_manifest(&bad).is_err(),
                "flip at byte {flip} went undetected"
            );
        }
    }

    /// One format, stated floor: every version but the current one —
    /// the whole-store layouts v1–v3 and anything from the future —
    /// is a typed refusal, not a decode attempt.
    #[test]
    fn other_manifest_versions_are_unsupported() {
        for version in [1u8, 2, 3, 5] {
            let mut img = encode_manifest(&sample());
            img[4] = version;
            let body = img.len() - 4;
            let crc = crc32(&img[..body]).to_le_bytes();
            img[body..].copy_from_slice(&crc);
            assert_eq!(
                decode_manifest(&img),
                Err(DpapiError::Unsupported("manifest format version")),
                "v{version}"
            );
        }
    }

    /// A chain with a gap, an overlap or a short reach can only come
    /// from tampering that re-closed the CRC; it is refused before any
    /// file is read.
    #[test]
    fn broken_delta_chain_is_rejected() {
        let mut gap = sample();
        gap.deltas[1].from_seq = 37;
        let mut short = sample();
        short.deltas.pop();
        let mut no_chain = sample();
        no_chain.deltas.clear();
        let mut backwards = sample();
        backwards.deltas[0].to_seq = 29;
        for bad in [gap, short, no_chain, backwards] {
            assert!(decode_manifest(&encode_manifest(&bad)).is_err());
        }
    }

    #[test]
    fn torn_manifest_is_rejected() {
        let enc = encode_manifest(&sample());
        for cut in 0..enc.len() {
            assert!(decode_manifest(&enc[..cut]).is_err());
        }
    }
}
