//! Provenance records and bundles.
//!
//! A *provenance record* is a structure containing a single unit of
//! provenance: an attribute/value pair, where the attribute is an
//! identifier and the value might be a plain value (integer, string,
//! …) or a cross-reference to another object. Records may carry
//! ancestry information, records of data flows, or identity
//! information.
//!
//! A *bundle* is an array of object handles and records, each
//! potentially describing a different object. The complete provenance
//! for a block of data written to a file might involve many objects
//! (e.g. several processes and pipes in a shell pipeline); a bundle
//! lets all of them travel with the data in a single `pass_write`.

use std::fmt;

use crate::api::Handle;
use crate::id::ObjectRef;

/// The attribute of a provenance record.
///
/// The well-known attributes cover the record vocabulary of Table 1 of
/// the paper (PA-NFS transaction records, PA-Kepler operator records,
/// PA-links session records, PA-Python function records) plus the
/// system-level attributes PASSv2 itself generates. Applications may
/// introduce their own attributes with [`Attribute::Other`].
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Attribute {
    /// Ancestry: the subject depends on the referenced object.
    Input,
    /// The type of the object (e.g. `FILE`, `PROC`, `SESSION`,
    /// `OPERATOR`, `FUNCTION`).
    Type,
    /// The name of the object (file name, operator name, method name).
    Name,
    /// Process arguments, recorded at `execve` time.
    Argv,
    /// Process environment, recorded at `execve` time.
    Env,
    /// A freeze record: the object's version was bumped to break a
    /// potential cycle. Sent in `pass_write` so ordering with respect
    /// to data writes is preserved.
    Freeze,
    /// Beginning record of a PA-NFS provenance transaction; the value
    /// is the transaction id.
    BeginTxn,
    /// Terminating record of a PA-NFS provenance transaction; the
    /// value is the transaction id.
    EndTxn,
    /// PA-Kepler: operator parameters (e.g. `fileName`,
    /// `confirmOverwrite`).
    Params,
    /// PA-links: dependency between a browsing session and a URL the
    /// user visited.
    VisitedUrl,
    /// PA-links: the URL a downloaded file itself came from.
    FileUrl,
    /// PA-links: the URL the user was viewing when the download was
    /// initiated.
    CurrentUrl,
    /// MD5 digest of the data a record batch describes; used by the
    /// write-ahead-provenance protocol during recovery.
    DataDigest,
    /// An application-specific attribute.
    Other(String),
}

impl Attribute {
    /// Canonical wire name of the attribute, matching the paper's
    /// record-type spelling where one exists.
    pub fn as_str(&self) -> &str {
        match self {
            Attribute::Input => "INPUT",
            Attribute::Type => "TYPE",
            Attribute::Name => "NAME",
            Attribute::Argv => "ARGV",
            Attribute::Env => "ENV",
            Attribute::Freeze => "FREEZE",
            Attribute::BeginTxn => "BEGINTXN",
            Attribute::EndTxn => "ENDTXN",
            Attribute::Params => "PARAMS",
            Attribute::VisitedUrl => "VISITED_URL",
            Attribute::FileUrl => "FILE_URL",
            Attribute::CurrentUrl => "CURRENT_URL",
            Attribute::DataDigest => "DATA_DIGEST",
            Attribute::Other(s) => s,
        }
    }

    /// Parses a wire name back into an attribute.
    pub fn from_name(name: &str) -> Attribute {
        match name {
            "INPUT" => Attribute::Input,
            "TYPE" => Attribute::Type,
            "NAME" => Attribute::Name,
            "ARGV" => Attribute::Argv,
            "ENV" => Attribute::Env,
            "FREEZE" => Attribute::Freeze,
            "BEGINTXN" => Attribute::BeginTxn,
            "ENDTXN" => Attribute::EndTxn,
            "PARAMS" => Attribute::Params,
            "VISITED_URL" => Attribute::VisitedUrl,
            "FILE_URL" => Attribute::FileUrl,
            "CURRENT_URL" => Attribute::CurrentUrl,
            "DATA_DIGEST" => Attribute::DataDigest,
            other => Attribute::Other(other.to_string()),
        }
    }

    /// True if this attribute expresses ancestry (an edge in the
    /// provenance graph) rather than a scalar annotation.
    pub fn is_ancestry(&self) -> bool {
        matches!(
            self,
            Attribute::Input | Attribute::VisitedUrl | Attribute::FileUrl | Attribute::CurrentUrl
        )
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The value of a provenance record.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Value {
    /// A signed integer.
    Int(i64),
    /// A UTF-8 string.
    Str(String),
    /// A boolean. (Lorel lacked booleans; PQL requires them.)
    Bool(bool),
    /// Raw bytes (e.g. an MD5 digest).
    Bytes(Vec<u8>),
    /// A list of strings (e.g. `argv`).
    StrList(Vec<String>),
    /// A cross-reference to a specific version of another object.
    Xref(ObjectRef),
}

impl Value {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Convenience constructor for a cross-reference value.
    pub fn xref(r: ObjectRef) -> Value {
        Value::Xref(r)
    }

    /// Returns the cross-reference if this value is one.
    pub fn as_xref(&self) -> Option<ObjectRef> {
        match self {
            Value::Xref(r) => Some(*r),
            _ => None,
        }
    }

    /// Returns the string if this value is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer if this value is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Bytes(b) => {
                for byte in b {
                    write!(f, "{byte:02x}")?;
                }
                Ok(())
            }
            Value::StrList(l) => write!(f, "{l:?}"),
            Value::Xref(r) => write!(f, "{r}"),
        }
    }
}

/// A single unit of provenance: one attribute/value pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProvenanceRecord {
    /// The attribute (identifier) of this unit of provenance.
    pub attribute: Attribute,
    /// The value: a plain value or a cross-reference.
    pub value: Value,
}

impl ProvenanceRecord {
    /// Creates a record from its parts.
    pub fn new(attribute: Attribute, value: Value) -> Self {
        ProvenanceRecord { attribute, value }
    }

    /// Creates an `INPUT` ancestry record referencing `ancestor`.
    pub fn input(ancestor: ObjectRef) -> Self {
        ProvenanceRecord::new(Attribute::Input, Value::Xref(ancestor))
    }

    /// Creates a `FREEZE` record for the given new version number.
    pub fn freeze(new_version: crate::Version) -> Self {
        ProvenanceRecord::new(Attribute::Freeze, Value::Int(new_version.0 as i64))
    }
}

impl fmt::Display for ProvenanceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.attribute, self.value)
    }
}

/// One entry of a bundle: the handle of the object being described and
/// the records that describe it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BundleEntry {
    /// The object the records describe.
    pub handle: Handle,
    /// The records describing that object.
    pub records: Vec<ProvenanceRecord>,
}

/// A bundle of provenance: an array of object handles and records,
/// each potentially describing a different object.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Bundle {
    entries: Vec<BundleEntry>,
}

impl Bundle {
    /// Creates an empty bundle.
    pub fn new() -> Self {
        Bundle::default()
    }

    /// Creates a bundle with a single record describing `handle`.
    pub fn single(handle: Handle, record: ProvenanceRecord) -> Self {
        let mut b = Bundle::new();
        b.push(handle, record);
        b
    }

    /// Appends `record` for `handle`, coalescing with an existing
    /// entry for the same handle if one is already present.
    pub fn push(&mut self, handle: Handle, record: ProvenanceRecord) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.handle == handle) {
            e.records.push(record);
        } else {
            self.entries.push(BundleEntry {
                handle,
                records: vec![record],
            });
        }
    }

    /// Appends `records` for `handle`, as [`Bundle::push`] would one
    /// by one; where the handle is new to the bundle the vector is
    /// moved in as it is.
    pub fn push_all(&mut self, handle: Handle, records: Vec<ProvenanceRecord>) {
        if records.is_empty() {
            return;
        }
        match self.entries.iter_mut().find(|e| e.handle == handle) {
            Some(e) => e.records.extend(records),
            None => self.entries.push(BundleEntry { handle, records }),
        }
    }

    /// Appends every record of `other` into this bundle.
    pub fn merge(&mut self, other: Bundle) {
        for e in other.entries {
            self.push_all(e.handle, e.records);
        }
    }

    /// Consumes the bundle into its `(handle, record)` pairs, in
    /// insertion order. A layer is handed its bundle by value: this is
    /// how it moves the records on, where iterating by reference
    /// would have it clone each one.
    pub fn into_records(self) -> impl Iterator<Item = (Handle, ProvenanceRecord)> {
        self.entries.into_iter().flat_map(|e| {
            let handle = e.handle;
            e.records.into_iter().map(move |r| (handle, r))
        })
    }

    /// The entries of the bundle, in insertion order.
    pub fn entries(&self) -> &[BundleEntry] {
        &self.entries
    }

    /// Total number of records across all entries.
    pub fn record_count(&self) -> usize {
        self.entries.iter().map(|e| e.records.len()).sum()
    }

    /// True if the bundle carries no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(handle, record)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Handle, &ProvenanceRecord)> {
        self.entries
            .iter()
            .flat_map(|e| e.records.iter().map(move |r| (e.handle, r)))
    }

    /// Rough serialized size, used by PA-NFS to decide whether a
    /// bundle still fits a single wire block or must be chunked into a
    /// provenance transaction.
    pub fn approx_wire_size(&self) -> usize {
        self.iter()
            .map(|(_, r)| crate::wire::record_wire_size(r))
            .sum::<usize>()
            + self.entries.len() * 16
    }
}

impl FromIterator<(Handle, ProvenanceRecord)> for Bundle {
    fn from_iter<T: IntoIterator<Item = (Handle, ProvenanceRecord)>>(iter: T) -> Self {
        let mut b = Bundle::new();
        for (h, r) in iter {
            b.push(h, r);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{Pnode, Version, VolumeId};

    fn xref(n: u64) -> ObjectRef {
        ObjectRef::new(Pnode::new(VolumeId(1), n), Version(0))
    }

    #[test]
    fn attribute_roundtrip_for_all_well_known_names() {
        let attrs = [
            Attribute::Input,
            Attribute::Type,
            Attribute::Name,
            Attribute::Argv,
            Attribute::Env,
            Attribute::Freeze,
            Attribute::BeginTxn,
            Attribute::EndTxn,
            Attribute::Params,
            Attribute::VisitedUrl,
            Attribute::FileUrl,
            Attribute::CurrentUrl,
            Attribute::DataDigest,
        ];
        for a in attrs {
            assert_eq!(Attribute::from_name(a.as_str()), a);
        }
        assert_eq!(
            Attribute::from_name("SESSION_COOKIE"),
            Attribute::Other("SESSION_COOKIE".into())
        );
    }

    #[test]
    fn ancestry_attributes_are_flagged() {
        assert!(Attribute::Input.is_ancestry());
        assert!(Attribute::VisitedUrl.is_ancestry());
        assert!(!Attribute::Name.is_ancestry());
        assert!(!Attribute::Freeze.is_ancestry());
    }

    #[test]
    fn bundle_coalesces_same_handle() {
        let mut b = Bundle::new();
        let h1 = Handle::from_raw(1);
        let h2 = Handle::from_raw(2);
        b.push(h1, ProvenanceRecord::input(xref(10)));
        b.push(
            h2,
            ProvenanceRecord::new(Attribute::Type, Value::str("PROC")),
        );
        b.push(h1, ProvenanceRecord::input(xref(11)));
        assert_eq!(b.entries().len(), 2);
        assert_eq!(b.entries()[0].records.len(), 2);
        assert_eq!(b.record_count(), 3);
    }

    #[test]
    fn bundle_merge_preserves_all_records() {
        let h = Handle::from_raw(5);
        let mut a = Bundle::single(h, ProvenanceRecord::input(xref(1)));
        let b = Bundle::single(h, ProvenanceRecord::input(xref(2)));
        a.merge(b);
        assert_eq!(a.record_count(), 2);
        assert_eq!(a.entries().len(), 1);
    }

    #[test]
    fn bundle_into_records_moves_every_record_in_iter_order() {
        let (h1, h2) = (Handle::from_raw(1), Handle::from_raw(2));
        let mut b = Bundle::new();
        b.push(h1, ProvenanceRecord::input(xref(1)));
        b.push(h2, ProvenanceRecord::input(xref(2)));
        b.push(h1, ProvenanceRecord::input(xref(3)));
        b.push_all(h2, vec![ProvenanceRecord::input(xref(4))]);
        b.push_all(Handle::from_raw(3), Vec::new());
        assert_eq!(b.entries().len(), 2, "an empty push_all adds no entry");
        let borrowed: Vec<_> = b.iter().map(|(h, r)| (h, r.clone())).collect();
        let moved: Vec<_> = b.into_records().collect();
        assert_eq!(moved, borrowed);
        let order: Vec<_> = moved
            .iter()
            .map(|(_, r)| r.value.as_xref().unwrap())
            .collect();
        assert_eq!(order, vec![xref(1), xref(3), xref(2), xref(4)]);
    }

    #[test]
    fn bundle_iter_order_is_insertion_order() {
        let mut b = Bundle::new();
        let h = Handle::from_raw(1);
        b.push(h, ProvenanceRecord::input(xref(1)));
        b.push(h, ProvenanceRecord::input(xref(2)));
        let refs: Vec<_> = b.iter().map(|(_, r)| r.value.as_xref().unwrap()).collect();
        assert_eq!(refs, vec![xref(1), xref(2)]);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_int(), None);
        let r = xref(9);
        assert_eq!(Value::xref(r).as_xref(), Some(r));
    }

    #[test]
    fn record_display_is_readable() {
        let r = ProvenanceRecord::new(Attribute::Name, Value::str("atlas-x.gif"));
        assert_eq!(r.to_string(), "NAME=\"atlas-x.gif\"");
        let f = ProvenanceRecord::freeze(Version(4));
        assert_eq!(f.to_string(), "FREEZE=4");
    }

    #[test]
    fn empty_bundle_reports_empty() {
        let b = Bundle::new();
        assert!(b.is_empty());
        assert_eq!(b.record_count(), 0);
        assert_eq!(b.approx_wire_size(), 0);
    }
}
