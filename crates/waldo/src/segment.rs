//! The checkpoint **segment** format: one shard, serialized.
//!
//! A segment is the durable image of one shard — its object table
//! (per-version attributes, ancestry inputs, data-write accounting),
//! the name/type secondary indexes, the reverse ancestry index, and
//! the footprint accounting — in a versioned, CRC-closed binary
//! layout built from the same little-endian codec idioms as
//! [`dpapi::wire`]:
//!
//! ```text
//! segment := magic "WSEG", version u16, shard u32, generation u64,
//!            db_bytes u64, index_bytes u64,
//!            objects, names, types, reverse, attrs,
//!            crc32(everything before) u32
//! objects := u32 n, n × (pnode, current u32,
//!            u32 nv, nv × (v u32, u32 na, na × record,
//!                          u32 ni, ni × (attr, objref),
//!                          writes u64, bytes_written u64))
//! names   := u32 n, n × (str, u32 k, k × pnode)     (types likewise)
//! reverse := u32 n, n × (pnode, u32 k, k × (objref, attr, aversion u32))
//! attrs   := u32 n, n × (str attr-name,
//!                        u32 m, m × (str value, u32 k, k × pnode))
//! pnode   := volume u32, number u64
//! attr    := u16 len, len bytes          record := dpapi::wire record
//! ```
//!
//! The `attrs` section is the generalized attribute index (the PQL
//! pushdown index, `Shard::attr_index`), so indexed queries survive a
//! cold restart without a rebuild scan. Version 2 is the only version
//! read or written: the decoder answers any other with
//! [`DpapiError::Unsupported`].
//!
//! The encoding is **canonical**: objects sort by pnode, index entries
//! by key, and reverse-edge lists by `(descendant, ancestor version,
//! attribute)`. NAME's and TYPE's indexes are ordered in memory and
//! are walked as they lie; an application attribute's is hashed, so
//! the encoder and the decoder's check both sort its keys first, and
//! no hash order reaches the bytes. Per-subject state is already
//! deterministic (entries of one subject apply in arrival order
//! regardless of batching), so two stores with equal contents — e.g.
//! a restarted store and the store that never crashed — encode to
//! **identical bytes**, which is what the crash-matrix tests assert.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dpapi::{wire, Attribute, DpapiError, Pnode, Result, Version, VolumeId};

use std::rc::Rc;

use crate::shard::{current, label_of, AttrIndex, Edge, Posting, Shard, ValueRef};

const MAGIC: &[u8; 4] = b"WSEG";
/// The segment format version, and the supported floor: v2 carries
/// the generalized attribute index; the index-less v1 layout is no
/// longer decoded.
pub const SEGMENT_VERSION: u16 = 2;

fn put_pnode(buf: &mut BytesMut, p: Pnode) {
    buf.put_u32_le(p.volume.0);
    buf.put_u64_le(p.number);
}

fn get_pnode(buf: &mut Bytes) -> Result<Pnode> {
    if buf.remaining() < 12 {
        return Err(DpapiError::Malformed("truncated pnode".into()));
    }
    let volume = VolumeId(buf.get_u32_le());
    let number = buf.get_u64_le();
    Ok(Pnode::new(volume, number))
}

fn put_attr(buf: &mut BytesMut, attr: &Attribute) {
    let name = attr.as_str();
    buf.put_u16_le(name.len() as u16);
    buf.put_slice(name.as_bytes());
}

fn get_attr(buf: &mut Bytes) -> Result<Attribute> {
    if buf.remaining() < 2 {
        return Err(DpapiError::Malformed("truncated attribute".into()));
    }
    let len = buf.get_u16_le() as usize;
    if buf.remaining() < len {
        return Err(DpapiError::Malformed("truncated attribute name".into()));
    }
    let raw = buf.split_to(len);
    let name = std::str::from_utf8(&raw)
        .map_err(|_| DpapiError::Malformed("invalid UTF-8 attribute".into()))?;
    Ok(Attribute::from_name(name))
}

/// An ancestry edge's attribute, as its label.
fn get_label(buf: &mut Bytes) -> Result<u8> {
    label_of(&get_attr(buf)?)
        .ok_or_else(|| DpapiError::Malformed("segment edge attribute is not ancestry".into()))
}

fn get_u32(buf: &mut Bytes, what: &str) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(DpapiError::Malformed(format!("truncated {what}")));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut Bytes, what: &str) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(DpapiError::Malformed(format!("truncated {what}")));
    }
    Ok(buf.get_u64_le())
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes, what: &str) -> Result<String> {
    let len = get_u32(buf, what)? as usize;
    if buf.remaining() < len {
        return Err(DpapiError::Malformed(format!("truncated {what}")));
    }
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec())
        .map_err(|_| DpapiError::Malformed(format!("invalid UTF-8 {what}")))
}

/// A posting's pnodes in the canonical (ascending) order, into `out`.
fn sorted_postings(shard: &Shard, posting: &Posting, out: &mut Vec<Pnode>) {
    out.clear();
    out.extend(shard.postings(posting));
    out.sort_unstable();
}

/// An application attribute's hashed index in key order.
fn in_key_order(index: &AttrIndex) -> Vec<(&Rc<str>, &Posting)> {
    let mut entries: Vec<_> = index.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    entries
}

fn put_index<'a>(
    buf: &mut BytesMut,
    shard: &Shard,
    index: impl ExactSizeIterator<Item = (&'a Rc<str>, &'a Posting)>,
) {
    buf.put_u32_le(index.len() as u32);
    let mut pnodes = Vec::new();
    for (key, posting) in index {
        put_str(buf, key);
        sorted_postings(shard, posting, &mut pnodes);
        buf.put_u32_le(pnodes.len() as u32);
        for p in &pnodes {
            put_pnode(buf, *p);
        }
    }
}

/// Reads an index section and checks it against `index`, in key
/// order, which decode rebuilt from the objects' attributes: a segment
/// whose index disagrees with its own objects is damaged or forged.
fn check_index<'a>(
    buf: &mut Bytes,
    shard: &Shard,
    index: impl ExactSizeIterator<Item = (&'a Rc<str>, &'a Posting)>,
) -> Result<()> {
    let disagrees = || DpapiError::Malformed("segment index disagrees with its objects".into());
    if get_u32(buf, "index size")? as usize != index.len() {
        return Err(disagrees());
    }
    let mut pnodes = Vec::new();
    for (key, posting) in index {
        sorted_postings(shard, posting, &mut pnodes);
        let stored = get_str(buf, "index key")?;
        let k = get_u32(buf, "index entry count")? as usize;
        if *stored != **key || k != pnodes.len() {
            return Err(disagrees());
        }
        for p in &pnodes {
            if get_pnode(buf)? != *p {
                return Err(disagrees());
            }
        }
    }
    Ok(())
}

/// `dpapi::wire`'s tag for a string value: a stored string is written
/// as the record `wire::put_record_parts` would write, without first
/// being copied into a `Value`.
const WIRE_TAG_STR: u8 = 1;

/// Serializes one shard into its canonical segment image.
///
/// `generation` is written into the header rather than taken from the
/// shard so callers choose its meaning: checkpoints record the real
/// generation (the manifest binds to it), while the byte-equivalence
/// oracle (`Store::segment_images`) normalizes it to zero — the
/// counter tracks how commits were *grouped*, not what the shard
/// contains, and replay after a crash may group commits differently.
pub(crate) fn encode_shard(shard_index: u32, shard: &Shard, generation: u64) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(4096);
    buf.put_slice(MAGIC);
    buf.put_u16_le(SEGMENT_VERSION);
    buf.put_u32_le(shard_index);
    buf.put_u64_le(generation);
    buf.put_u64_le(shard.size.db_bytes);
    buf.put_u64_le(shard.size.index_bytes);

    let objects = shard.sorted_objects();
    buf.put_u32_le(objects.len() as u32);
    for (p, versions) in objects {
        put_pnode(&mut buf, p);
        buf.put_u32_le(current(versions));
        buf.put_u32_le(versions.len() as u32);
        for v in versions {
            buf.put_u32_le(v.number);
            buf.put_u32_le(shard.attrs(v).count() as u32);
            for (attr, value) in shard.attrs(v) {
                match value {
                    ValueRef::Str(s) => {
                        put_attr(&mut buf, attr);
                        buf.put_u8(WIRE_TAG_STR);
                        put_str(&mut buf, s);
                    }
                    // Stored attributes were parsed from a log image
                    // (or came through validated disclosure), so they
                    // are wire-representable by construction.
                    ValueRef::Other(value) => wire::put_record_parts(&mut buf, attr, value)
                        .expect("stored records always encode"),
                }
            }
            buf.put_u32_le(shard.inputs(v).count() as u32);
            for (attr, r) in shard.inputs(v) {
                put_attr(&mut buf, attr);
                wire::put_object_ref(&mut buf, r);
            }
            buf.put_u64_le(v.writes);
            buf.put_u64_le(v.bytes_written);
        }
    }

    put_index(&mut buf, shard, shard.name_index.iter());
    put_index(&mut buf, shard, shard.type_index.iter());

    let mut ancestors: Vec<Pnode> = shard.ancestors().collect();
    ancestors.sort_unstable();
    buf.put_u32_le(ancestors.len() as u32);
    let mut edges = Vec::new();
    for a in ancestors {
        put_pnode(&mut buf, a);
        // Reverse-edge order follows commit grouping in memory and is
        // unspecified to queries; sort it so the image is canonical.
        edges.clear();
        edges.extend(shard.reverse(a));
        edges.sort_unstable_by(|x, y| (x.0, x.2, x.1).cmp(&(y.0, y.2, y.1)));
        buf.put_u32_le(edges.len() as u32);
        for &(descendant, attr, aversion) in &edges {
            wire::put_object_ref(&mut buf, descendant);
            put_attr(&mut buf, attr);
            buf.put_u32_le(aversion.0);
        }
    }

    buf.put_u32_le(shard.attr_index.len() as u32);
    for (attr, values) in &shard.attr_index {
        put_str(&mut buf, attr);
        put_index(&mut buf, shard, in_key_order(values).into_iter());
    }

    let crc = lasagna::crc32(&buf);
    buf.put_u32_le(crc);
    buf.into()
}

/// Deserializes a segment image, validating magic, version and CRC.
/// Returns the shard index it was written for and the rehydrated
/// shard.
pub(crate) fn decode_shard(data: &[u8]) -> Result<(u32, Shard)> {
    if data.len() < MAGIC.len() + 2 + 4 + 8 + 16 + 4 {
        return Err(DpapiError::Malformed("segment too short".into()));
    }
    let (body, crc_bytes) = data.split_at(data.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if lasagna::crc32(body) != stored {
        return Err(DpapiError::Malformed("segment CRC mismatch".into()));
    }
    let mut buf = Bytes::copy_from_slice(body);
    let magic = buf.split_to(4);
    if magic.as_ref() != MAGIC {
        return Err(DpapiError::Malformed("bad segment magic".into()));
    }
    let version = buf.get_u16_le();
    if version != SEGMENT_VERSION {
        return Err(DpapiError::Unsupported("segment format version"));
    }
    let shard_index = buf.get_u32_le();
    let mut shard = Shard::default();
    shard.generation = buf.get_u64_le();
    shard.size.db_bytes = buf.get_u64_le();
    shard.size.index_bytes = buf.get_u64_le();

    // Objects, versions and reverse edges arrive in canonical
    // (ascending) order; anything else is not an image this encoder
    // wrote. The indexes are rebuilt from the attributes, as ingest
    // builds them, and the stored sections must match.
    let unordered = |what: &str| DpapiError::Malformed(format!("segment {what} out of order"));
    let n_objects = get_u32(&mut buf, "object count")? as usize;
    let mut last = None;
    for _ in 0..n_objects {
        let pnode = get_pnode(&mut buf)?;
        let current = get_u32(&mut buf, "current version")?;
        if last.replace(pnode) >= Some(pnode) {
            return Err(unordered("objects"));
        }
        let nv = get_u32(&mut buf, "version count")? as usize;
        let mut last_version = None;
        for _ in 0..nv {
            let number = get_u32(&mut buf, "version number")?;
            if last_version.replace(number) >= Some(number) {
                return Err(unordered("versions"));
            }
            let (slot, v) = shard.version(pnode, number);
            let na = get_u32(&mut buf, "attr count")? as usize;
            for _ in 0..na {
                let rec = wire::get_record(&mut buf)?;
                shard.add_attr(slot, v, &rec.attribute, &rec.value);
            }
            let ni = get_u32(&mut buf, "input count")? as usize;
            for _ in 0..ni {
                let label = get_label(&mut buf)?;
                let to = wire::get_object_ref(&mut buf)?;
                shard.add_input(v, Edge { label, to });
            }
            let writes = get_u64(&mut buf, "writes")?;
            shard.add_writes(v, writes, get_u64(&mut buf, "bytes written")?);
        }
        // Every stored object has a version, and its current one is
        // the highest.
        if last_version != Some(current) {
            return Err(DpapiError::Malformed("segment object versions".into()));
        }
    }

    check_index(&mut buf, &shard, shard.name_index.iter())?;
    check_index(&mut buf, &shard, shard.type_index.iter())?;

    let n_reverse = get_u32(&mut buf, "reverse count")? as usize;
    let mut last = None;
    for _ in 0..n_reverse {
        let ancestor = get_pnode(&mut buf)?;
        if last.replace(ancestor) >= Some(ancestor) {
            return Err(unordered("reverse edges"));
        }
        let k = get_u32(&mut buf, "reverse edge count")? as usize;
        if k == 0 {
            return Err(DpapiError::Malformed("empty segment reverse list".into()));
        }
        for _ in 0..k {
            let to = wire::get_object_ref(&mut buf)?;
            let label = get_label(&mut buf)?;
            let aversion = Version(get_u32(&mut buf, "ancestor version")?);
            shard.push_reverse(ancestor, Edge { label, to }, aversion);
        }
    }

    let disagrees = || DpapiError::Malformed("segment index disagrees with its objects".into());
    if get_u32(&mut buf, "attr index size")? as usize != shard.attr_index.len() {
        return Err(disagrees());
    }
    for (attr, values) in &shard.attr_index {
        if get_str(&mut buf, "attr index name")? != *attr {
            return Err(disagrees());
        }
        check_index(&mut buf, &shard, in_key_order(values).into_iter())?;
    }

    if buf.has_remaining() {
        return Err(DpapiError::Malformed("trailing bytes in segment".into()));
    }
    Ok((shard_index, shard))
}

/// The CRC a manifest records for a CRC-closed image (segment or
/// delta): the image's own trailing self-check, which the decoder
/// then verifies against the body — so checking a file against its
/// manifest costs no pass of its own. (A second CRC taken over the
/// *whole* file, trailer included, is the same constant for every
/// self-consistent image and would distinguish nothing.) Like every
/// CRC here it detects damage, not forgery.
pub(crate) fn closing_crc(data: &[u8]) -> Option<u32> {
    let tail = data.len().checked_sub(4)?;
    Some(u32::from_le_bytes(data[tail..].try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpapi::{ObjectRef, ProvenanceRecord, Value};
    use lasagna::LogEntry;

    fn sample_shard() -> Shard {
        let mut shard = Shard::default();
        let p1 = Pnode::new(VolumeId(1), 10);
        let p2 = Pnode::new(VolumeId(1), 20);
        let sub = ObjectRef::new(p1, Version(0));
        let entries: Vec<LogEntry> = vec![
            LogEntry::Prov {
                subject: sub,
                record: ProvenanceRecord::new(Attribute::Name, Value::str("/a")),
            },
            LogEntry::Prov {
                subject: sub,
                record: ProvenanceRecord::new(Attribute::Type, Value::str("FILE")),
            },
            LogEntry::Prov {
                subject: sub,
                record: ProvenanceRecord::input(ObjectRef::new(p2, Version(3))),
            },
            // An application attribute, so the attribute index is
            // populated and round-tripped.
            LogEntry::Prov {
                subject: sub,
                record: ProvenanceRecord::new(
                    Attribute::Other("PHASE".into()),
                    Value::str("align"),
                ),
            },
            LogEntry::DataWrite {
                subject: sub,
                offset: 0,
                len: 512,
                digest: [9; 16],
            },
        ];
        let refs: Vec<&LogEntry> = entries.iter().collect();
        let mut reverse = Vec::new();
        shard.apply_run(p1, &refs, &mut reverse, &mut |_, _| {});
        for edge in reverse {
            shard.add_reverse_edge(edge);
        }
        shard.generation = 7;
        shard
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let shard = sample_shard();
        let img = encode_shard(3, &shard, shard.generation);
        let (idx, back) = decode_shard(&img).unwrap();
        assert_eq!(idx, 3);
        assert_eq!(back.generation, 7);
        assert_eq!(back.size, shard.size);
        assert_eq!(back.object_count(), shard.object_count());
        let p1 = Pnode::new(VolumeId(1), 10);
        assert_eq!(
            format!("{:?}", back.object(p1)),
            format!("{:?}", shard.object(p1))
        );
        assert!(
            !back.attr_index.is_empty(),
            "the sample must exercise the attribute index"
        );
        // Canonical re-encode is byte-identical.
        assert_eq!(encode_shard(3, &back, back.generation), img);
    }

    /// One format, stated floor: the index-less v1 layout and any
    /// future version are a typed refusal, not a decode attempt.
    #[test]
    fn other_segment_versions_are_unsupported() {
        let shard = sample_shard();
        for version in [1u8, 3] {
            let mut img = encode_shard(9, &shard, shard.generation);
            // Patch the version field (offset 4, little-endian u16)
            // and re-close the CRC so only the version check can fail.
            img[4] = version;
            let body_len = img.len() - 4;
            let crc = lasagna::crc32(&img[..body_len]).to_le_bytes();
            img[body_len..].copy_from_slice(&crc);
            assert_eq!(
                decode_shard(&img).err(),
                Some(DpapiError::Unsupported("segment format version")),
                "v{version}"
            );
        }
    }

    #[test]
    fn empty_shard_roundtrips() {
        let img = encode_shard(0, &Shard::default(), 0);
        let (idx, back) = decode_shard(&img).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(back.object_count(), 0);
        assert_eq!(encode_shard(0, &back, 0), img);
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let img = encode_shard(1, &sample_shard(), 7);
        for flip in 0..img.len() {
            let mut bad = img.clone();
            bad[flip] ^= 0x01;
            assert!(
                decode_shard(&bad).is_err(),
                "flip at byte {flip} went undetected"
            );
        }
    }

    #[test]
    fn truncation_at_every_length_is_rejected() {
        let img = encode_shard(1, &sample_shard(), 7);
        for cut in 0..img.len() {
            assert!(
                decode_shard(&img[..cut]).is_err(),
                "{cut}-byte prefix accepted"
            );
        }
    }
}
