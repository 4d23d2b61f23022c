//! Object identity: volumes, pnode numbers and versions.
//!
//! A *pnode number* is a unique ID assigned to an object at creation
//! time. It is a handle for the object's provenance, akin to an inode
//! number, but never recycled. Pnode numbers are allocated per PASS
//! volume; a fully-qualified identity is the ([`VolumeId`], pnode)
//! pair, packaged here as [`Pnode`].

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifies one PASS-enabled volume (a mounted provenance-aware file
/// system, local or remote).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VolumeId(pub u32);

impl fmt::Display for VolumeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vol{}", self.0)
    }
}

/// A pnode number: the never-recycled provenance identity of an object.
///
/// Unlike an inode number, a pnode number is never reused, so a pnode
/// observed in a provenance record always denotes the same object even
/// after that object is deleted.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pnode {
    /// Volume on which the object's provenance is stored.
    pub volume: VolumeId,
    /// Per-volume serial number, starting at 1. Zero is reserved and
    /// never allocated.
    pub number: u64,
}

impl Pnode {
    /// Creates a pnode identity from its parts.
    pub const fn new(volume: VolumeId, number: u64) -> Self {
        Pnode { volume, number }
    }

    /// The reserved null pnode, used as an "unassigned" sentinel.
    pub const NULL: Pnode = Pnode {
        volume: VolumeId(0),
        number: 0,
    };

    /// Returns true for the reserved null pnode.
    pub fn is_null(&self) -> bool {
        self.number == 0
    }
}

impl fmt::Display for Pnode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:p{}", self.volume, self.number)
    }
}

impl fmt::Debug for Pnode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pnode({self})")
    }
}

/// A version number of an object.
///
/// Versions begin at 0 on creation and increase monotonically; a
/// `pass_freeze` bumps the version to break (avoid) dependency cycles.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Version(pub u32);

impl Version {
    /// The initial version of a freshly created object.
    pub const INITIAL: Version = Version(0);

    /// Returns the next version.
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A fully-qualified reference to one version of one object.
///
/// This is the currency of cross-references in provenance records: a
/// dependency edge names the exact `(pnode, version)` that was read,
/// which is what `pass_read` returns alongside the data.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ObjectRef {
    /// The referenced object.
    pub pnode: Pnode,
    /// The referenced version of that object.
    pub version: Version,
}

impl ObjectRef {
    /// Creates a reference from its parts.
    pub const fn new(pnode: Pnode, version: Version) -> Self {
        ObjectRef { pnode, version }
    }
}

impl fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.pnode, self.version)
    }
}

/// Allocates pnode numbers for one volume.
///
/// Pnode numbers are never recycled, so the allocator is a plain
/// monotonic counter.
#[derive(Debug)]
pub struct PnodeAllocator {
    volume: VolumeId,
    next: Cell<u64>,
}

impl PnodeAllocator {
    /// Creates an allocator for `volume` starting at pnode number 1.
    pub fn new(volume: VolumeId) -> Self {
        PnodeAllocator {
            volume,
            next: Cell::new(1),
        }
    }

    /// Creates an allocator resuming at `next` (used after recovery).
    pub fn resume(volume: VolumeId, next: u64) -> Self {
        PnodeAllocator {
            volume,
            next: Cell::new(next.max(1)),
        }
    }

    /// Returns the volume this allocator serves.
    pub fn volume(&self) -> VolumeId {
        self.volume
    }

    /// Allocates the next pnode number.
    pub fn allocate(&self) -> Pnode {
        let n = self.next.get();
        self.next.set(n + 1);
        Pnode::new(self.volume, n)
    }

    /// Returns the next number that would be allocated, without
    /// allocating it. Used when checkpointing allocator state.
    pub fn peek(&self) -> u64 {
        self.next.get()
    }
}

/// Hasher for tables keyed by ids the stack allocates itself: node
/// ids, pnode numbers, handles, inode numbers, pids, descriptors.
///
/// One multiply and one rotate per word, where the standard library's
/// SipHash spends tens of cycles buying resistance to keys chosen by
/// an adversary. Nobody outside the program chooses these keys — they
/// come off the stack's own counters — so that resistance buys
/// nothing here. Tables keyed by anything that arrives from outside
/// (paths, attribute names, query text) keep the default hasher.
///
/// `finish` folds the high half of the state onto the low half: a
/// product's low bits depend only on its operands' low bits, and the
/// standard table picks its bucket from the low bits, so without the
/// fold ids a multiple of 2^k apart would share buckets.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    /// 2^64 / pi, made odd (FxHash's multiplier).
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A map keyed by ids the stack allocates itself; see [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A set of ids the stack allocates itself; see [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    /// Share of the 65 536 low-16-bit slots that `keys` (65 536 of
    /// them) occupy under [`IdHasher`]. A random function fills
    /// 1 - 1/e = 63% of them.
    fn low16_occupancy<K: Hash>(keys: impl Iterator<Item = K>) -> f64 {
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut hit = vec![false; 1 << 16];
        let mut n = 0;
        for k in keys {
            hit[(build.hash_one(&k) & 0xFFFF) as usize] = true;
            n += 1;
        }
        assert_eq!(n, 1 << 16);
        hit.iter().filter(|h| **h).count() as f64 / hit.len() as f64
    }

    /// The distribution guard: the table indexes buckets by the low
    /// bits of the hash, so the key shapes the stack really produces —
    /// counters, counters scaled by a power of two, and
    /// `(id, version)` pairs — must spread over them about as well as
    /// a random function would. Deterministic; no timing.
    #[test]
    fn id_hasher_spreads_sequential_strided_and_paired_keys() {
        let sequential = low16_occupancy(1..=1u64 << 16);
        let strided = low16_occupancy((1..=1u64 << 16).map(|i| i * 4096));
        let paired = low16_occupancy((0..1u64 << 16).map(|i| (1 + i / 16, (i % 16) as u32)));
        for (what, share) in [
            ("sequential ids", sequential),
            ("stride-4096 ids", strided),
            ("(id, version) pairs", paired),
        ] {
            assert!(
                share >= 0.55,
                "{what} fill only {share:.3} of the low-16-bit slots"
            );
        }
    }

    #[test]
    fn id_hasher_distinguishes_field_order_and_width() {
        let build = BuildHasherDefault::<IdHasher>::default();
        assert_ne!(build.hash_one((1u64, 2u32)), build.hash_one((2u64, 1u32)));
        assert_ne!(
            build.hash_one(Pnode::new(VolumeId(1), 2)),
            build.hash_one(Pnode::new(VolumeId(2), 1))
        );
        // The byte-slice fallback (enum discriminants, `str`) agrees
        // with itself across chunk boundaries.
        assert_ne!(build.hash_one([1u8; 9]), build.hash_one([1u8; 10]));
    }

    #[test]
    fn pnode_display_and_null() {
        let p = Pnode::new(VolumeId(3), 17);
        assert_eq!(p.to_string(), "vol3:p17");
        assert!(!p.is_null());
        assert!(Pnode::NULL.is_null());
    }

    #[test]
    fn version_ordering_and_next() {
        let v = Version::INITIAL;
        assert_eq!(v.next(), Version(1));
        assert!(Version(2) > Version(1));
        assert_eq!(Version::default(), Version::INITIAL);
    }

    #[test]
    fn allocator_is_monotonic_and_never_recycles() {
        let alloc = PnodeAllocator::new(VolumeId(1));
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            let p = alloc.allocate();
            assert_eq!(p.volume, VolumeId(1));
            assert!(p.number >= 1);
            assert!(seen.insert(p), "pnode number recycled: {p}");
        }
        assert_eq!(alloc.peek(), 1001);
    }

    #[test]
    fn allocator_resume_skips_allocated_range() {
        let alloc = PnodeAllocator::resume(VolumeId(2), 500);
        assert_eq!(alloc.allocate().number, 500);
        assert_eq!(alloc.allocate().number, 501);
        // Resuming at 0 still never yields the null pnode.
        let alloc = PnodeAllocator::resume(VolumeId(2), 0);
        assert_eq!(alloc.allocate().number, 1);
    }

    #[test]
    fn object_ref_display() {
        let r = ObjectRef::new(Pnode::new(VolumeId(1), 2), Version(3));
        assert_eq!(r.to_string(), "vol1:p2@v3");
    }
}
