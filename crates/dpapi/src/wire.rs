//! Binary wire format for provenance records.
//!
//! Both the Lasagna provenance log and the PA-NFS protocol carry
//! records in this encoding, which keeps the client and server
//! analyzer input/output representations identical — the property
//! that lets analyzer instances stack (paper §6.1.1).
//!
//! The format is a simple length-prefixed TLV scheme, little-endian
//! throughout:
//!
//! ```text
//! record   := attr value
//! attr     := u16 len, len bytes of UTF-8
//! value    := tag u8, payload
//! payload  := Int: i64 | Str: u32 len + bytes | Bool: u8
//!           | Bytes: u32 len + bytes | StrList: u32 n + n * (u32 len + bytes)
//!           | Xref: u32 volume, u64 pnode, u32 version
//! ```

use bytes::{Buf, BufMut, BytesMut};

use crate::error::{DpapiError, Result};
use crate::id::{ObjectRef, Pnode, Version, VolumeId};
use crate::record::{Attribute, ProvenanceRecord, Value};

const TAG_INT: u8 = 0;
const TAG_STR: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_BYTES: u8 = 3;
const TAG_STRLIST: u8 = 4;
const TAG_XREF: u8 = 5;

/// Encodes an [`ObjectRef`] into `buf`.
#[inline]
pub fn put_object_ref(buf: &mut BytesMut, r: ObjectRef) {
    buf.put_u32_le(r.pnode.volume.0);
    buf.put_u64_le(r.pnode.number);
    buf.put_u32_le(r.version.0);
}

/// Decodes an [`ObjectRef`] from `buf`.
pub fn get_object_ref<B: Buf>(buf: &mut B) -> Result<ObjectRef> {
    if buf.remaining() < 16 {
        return Err(DpapiError::Malformed("truncated object ref".into()));
    }
    let volume = VolumeId(buf.get_u32_le());
    let number = buf.get_u64_le();
    let version = Version(buf.get_u32_le());
    Ok(ObjectRef::new(Pnode::new(volume, number), version))
}

#[inline]
fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// The next `len` bytes of `buf`, borrowed where they lie; the caller
/// advances past them once it has copied out what it keeps.
fn peek<'a, B: Buf>(buf: &'a B, len: usize, what: &'static str) -> Result<&'a [u8]> {
    buf.chunk()
        .get(..len)
        .ok_or_else(|| DpapiError::Malformed(format!("truncated {what}")))
}

fn get_str<B: Buf>(buf: &mut B) -> Result<String> {
    if buf.remaining() < 4 {
        return Err(DpapiError::Malformed("truncated string length".into()));
    }
    let len = buf.get_u32_le() as usize;
    let s = std::str::from_utf8(peek(buf, len, "string body")?)
        .map_err(|_| DpapiError::Malformed("invalid UTF-8 in record".into()))?
        .to_owned();
    buf.advance(len);
    Ok(s)
}

/// Checks that `rec` is representable in the wire encoding: the
/// attribute name must fit the `u16` length prefix and every variable
/// payload its `u32` prefix. Layers validate disclosed records up
/// front so a malformed record aborts a whole transaction before
/// anything is logged.
pub fn validate_record(rec: &ProvenanceRecord) -> Result<()> {
    validate_parts(&rec.attribute, &rec.value)
}

fn validate_parts(attribute: &Attribute, value: &Value) -> Result<()> {
    let name = attribute.as_str();
    if name.len() > u16::MAX as usize {
        return Err(DpapiError::Malformed(format!(
            "attribute name of {} bytes exceeds the u16 wire limit",
            name.len()
        )));
    }
    let payload_len = match value {
        Value::Str(s) => s.len(),
        Value::Bytes(b) => b.len(),
        Value::StrList(l) => {
            if l.len() > u32::MAX as usize {
                return Err(DpapiError::Malformed(format!(
                    "string list of {} entries exceeds the u32 wire limit",
                    l.len()
                )));
            }
            l.iter().map(String::len).max().unwrap_or(0)
        }
        Value::Int(_) | Value::Bool(_) | Value::Xref(_) => 0,
    };
    if payload_len > u32::MAX as usize {
        return Err(DpapiError::Malformed(format!(
            "value payload of {payload_len} bytes exceeds the u32 wire limit"
        )));
    }
    Ok(())
}

/// Encodes one provenance record into `buf`.
///
/// Returns [`DpapiError::Malformed`] — writing nothing — for records
/// whose attribute name or payload cannot be represented (the name
/// length is a `u16` on the wire; it used to be silently truncated).
pub fn put_record(buf: &mut BytesMut, rec: &ProvenanceRecord) -> Result<()> {
    put_record_parts(buf, &rec.attribute, &rec.value)
}

/// [`put_record`] from borrowed parts, for callers that store
/// attribute and value apart and would otherwise clone both into a
/// throw-away [`ProvenanceRecord`] just to encode it. Same bytes, same
/// errors.
pub fn put_record_parts(buf: &mut BytesMut, attribute: &Attribute, value: &Value) -> Result<()> {
    validate_parts(attribute, value)?;
    let name = attribute.as_str();
    buf.put_u16_le(name.len() as u16);
    buf.put_slice(name.as_bytes());
    match value {
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(*i);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(u8::from(*b));
        }
        Value::Bytes(b) => {
            buf.put_u8(TAG_BYTES);
            buf.put_u32_le(b.len() as u32);
            buf.put_slice(b);
        }
        Value::StrList(l) => {
            buf.put_u8(TAG_STRLIST);
            buf.put_u32_le(l.len() as u32);
            for s in l {
                put_str(buf, s);
            }
        }
        Value::Xref(r) => {
            buf.put_u8(TAG_XREF);
            put_object_ref(buf, *r);
        }
    }
    Ok(())
}

/// Decodes one provenance record from `buf`: any cursor over
/// contiguous bytes, a borrowed `&[u8]` included, which is parsed
/// where it lies — each string is copied once, into the `String` the
/// record owns.
pub fn get_record<B: Buf>(buf: &mut B) -> Result<ProvenanceRecord> {
    if buf.remaining() < 2 {
        return Err(DpapiError::Malformed("truncated attribute length".into()));
    }
    let name_len = buf.get_u16_le() as usize;
    let name = std::str::from_utf8(peek(buf, name_len, "attribute name")?)
        .map_err(|_| DpapiError::Malformed("invalid UTF-8 attribute".into()))?;
    let attribute = Attribute::from_name(name);
    buf.advance(name_len);
    if buf.remaining() < 1 {
        return Err(DpapiError::Malformed("truncated value tag".into()));
    }
    let value = match buf.get_u8() {
        TAG_INT => {
            if buf.remaining() < 8 {
                return Err(DpapiError::Malformed("truncated int".into()));
            }
            Value::Int(buf.get_i64_le())
        }
        TAG_STR => Value::Str(get_str(buf)?),
        TAG_BOOL => {
            if buf.remaining() < 1 {
                return Err(DpapiError::Malformed("truncated bool".into()));
            }
            Value::Bool(buf.get_u8() != 0)
        }
        TAG_BYTES => {
            if buf.remaining() < 4 {
                return Err(DpapiError::Malformed("truncated bytes length".into()));
            }
            let len = buf.get_u32_le() as usize;
            let bytes = peek(buf, len, "bytes body")?.to_vec();
            buf.advance(len);
            Value::Bytes(bytes)
        }
        TAG_STRLIST => {
            if buf.remaining() < 4 {
                return Err(DpapiError::Malformed("truncated list length".into()));
            }
            let n = buf.get_u32_le() as usize;
            let mut l = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                l.push(get_str(buf)?);
            }
            Value::StrList(l)
        }
        TAG_XREF => Value::Xref(get_object_ref(buf)?),
        tag => {
            return Err(DpapiError::Malformed(format!("unknown value tag {tag}")));
        }
    };
    Ok(ProvenanceRecord { attribute, value })
}

/// Serialized size of one record in this encoding.
#[inline]
pub fn record_wire_size(rec: &ProvenanceRecord) -> usize {
    let name = rec.attribute.as_str().len();
    let value = match &rec.value {
        Value::Int(_) => 8,
        Value::Str(s) => 4 + s.len(),
        Value::Bool(_) => 1,
        Value::Bytes(b) => 4 + b.len(),
        Value::StrList(l) => 4 + l.iter().map(|s| 4 + s.len()).sum::<usize>(),
        Value::Xref(_) => 16,
    };
    2 + name + 1 + value
}

/// Encodes a record to a standalone byte vector.
pub fn encode_record(rec: &ProvenanceRecord) -> Result<Vec<u8>> {
    let mut buf = BytesMut::with_capacity(record_wire_size(rec));
    put_record(&mut buf, rec)?;
    Ok(buf.to_vec())
}

/// Decodes a record from a standalone byte slice, requiring the slice
/// to be fully consumed.
pub fn decode_record(data: &[u8]) -> Result<ProvenanceRecord> {
    let mut buf = data;
    let rec = get_record(&mut buf)?;
    if buf.has_remaining() {
        return Err(DpapiError::Malformed("trailing bytes after record".into()));
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: ProvenanceRecord) {
        let enc = encode_record(&rec).unwrap();
        assert_eq!(enc.len(), record_wire_size(&rec), "size mismatch: {rec}");
        let dec = decode_record(&enc).unwrap();
        assert_eq!(dec, rec);
    }

    #[test]
    fn roundtrip_every_value_kind() {
        roundtrip(ProvenanceRecord::new(Attribute::Type, Value::str("FILE")));
        roundtrip(ProvenanceRecord::new(Attribute::Input, Value::Int(-42)));
        roundtrip(ProvenanceRecord::new(
            Attribute::Other("FLAG".into()),
            Value::Bool(true),
        ));
        roundtrip(ProvenanceRecord::new(
            Attribute::DataDigest,
            Value::Bytes(vec![0xde, 0xad, 0xbe, 0xef]),
        ));
        roundtrip(ProvenanceRecord::new(
            Attribute::Argv,
            Value::StrList(vec!["ls".into(), "-l".into(), "".into()]),
        ));
        roundtrip(ProvenanceRecord::input(ObjectRef::new(
            Pnode::new(VolumeId(7), 123456789),
            Version(42),
        )));
    }

    #[test]
    fn oversize_attribute_name_is_rejected_not_truncated() {
        // Regression: `name.len() as u16` used to silently truncate
        // names longer than u16::MAX, producing a frame whose length
        // prefix disagreed with its body.
        let long = "A".repeat(u16::MAX as usize + 1);
        let rec = ProvenanceRecord::new(Attribute::Other(long), Value::Int(1));
        let mut buf = BytesMut::new();
        let err = put_record(&mut buf, &rec).unwrap_err();
        assert!(matches!(err, DpapiError::Malformed(_)), "got {err:?}");
        assert!(buf.is_empty(), "a rejected record must write nothing");
        assert!(encode_record(&rec).is_err());
        // The boundary case still encodes and round-trips.
        let edge = ProvenanceRecord::new(
            Attribute::Other("B".repeat(u16::MAX as usize)),
            Value::Int(2),
        );
        roundtrip(edge);
    }

    #[test]
    fn decode_rejects_truncation_at_every_byte() {
        let rec = ProvenanceRecord::new(Attribute::Argv, Value::StrList(vec!["a".into()]));
        let enc = encode_record(&rec).unwrap();
        for cut in 0..enc.len() {
            assert!(
                decode_record(&enc[..cut]).is_err(),
                "decode of {cut}-byte prefix unexpectedly succeeded"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut enc =
            encode_record(&ProvenanceRecord::new(Attribute::Type, Value::Int(1))).unwrap();
        enc.push(0xff);
        assert!(decode_record(&enc).is_err());
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let mut buf = BytesMut::new();
        buf.put_u16_le(4);
        buf.put_slice(b"TYPE");
        buf.put_u8(99);
        assert!(decode_record(&buf).is_err());
    }

    #[test]
    fn multiple_records_stream_from_one_buffer() {
        let recs = vec![
            ProvenanceRecord::new(Attribute::Name, Value::str("x")),
            ProvenanceRecord::new(Attribute::Type, Value::str("PROC")),
            ProvenanceRecord::freeze(Version(2)),
        ];
        let mut buf = BytesMut::new();
        for r in &recs {
            put_record(&mut buf, r).unwrap();
        }
        let mut stream = buf.freeze();
        let mut out = Vec::new();
        while stream.has_remaining() {
            out.push(get_record(&mut stream).unwrap());
        }
        assert_eq!(out, recs);
    }
}
