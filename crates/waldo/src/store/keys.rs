//! The store's key filter: which shards can hold an exact index key.
//!
//! Secondary indexes are partitioned by the pnodes that bore a key,
//! not by the key, so a NAME — or an application attribute's value —
//! can sit in any shard's index. [`KeyFilter`] keeps one byte per
//! slot. A key hashes to one slot, and that byte holds the OR of
//! `1 << (shard % 8)` for every shard whose index holds a key hashed
//! there. An exact lookup reads only the indexes of the shards the
//! byte flags: a descent of NAME's B-tree, or one probe of an
//! application attribute's hash map. A collision, or a shard past the
//! eighth sharing a bit, can flag a shard that lacks the key — a false
//! positive its index answers with nothing — but a shard that holds
//! the key is always flagged.
//!
//! The filter is derived state; nothing of it reaches the disk. It
//! keeps each filed key's hash beside the bytes, four bytes a key, so
//! doubling the bytes refills them from that list: growth never reads
//! the indexes, whose keys sit behind a pointer each. Only restore and
//! merge, which change shards wholesale, rebuild it from the indexes.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::mem::size_of;

use dpapi::Attribute;

use crate::shard::Shard;

/// The attribute a NAME key files under.
pub(crate) static NAME: Attribute = Attribute::Name;

/// Slots of an empty filter. Never zero, so a key filed before the
/// next growth always has a byte to land in.
const MIN_SLOTS: usize = 64;

/// One byte of shard bits per slot; see the module docs.
#[derive(Debug)]
pub(crate) struct KeyFilter {
    slots: Vec<u8>,
    /// One word per filed key, once per shard index that holds it: its
    /// 29-bit hash over the 3 bits of `shard % 8`.
    filed: Vec<u32>,
    /// The standard hasher, seeded per store: keys are client
    /// strings. `None` once [`KeyFilter::collide`] sent every key to
    /// one slot.
    state: Option<RandomState>,
}

impl Default for KeyFilter {
    fn default() -> KeyFilter {
        KeyFilter {
            slots: vec![0; MIN_SLOTS],
            filed: Vec::new(),
            state: Some(RandomState::new()),
        }
    }
}

impl KeyFilter {
    /// The top 29 bits of the key's hash; a slot is its low bits, so
    /// past 2^29 slots the filter grows no more exact.
    fn hash(&self, attr: &str, value: &str) -> u32 {
        let Some(state) = &self.state else {
            return 0;
        };
        let mut h = state.build_hasher();
        attr.hash(&mut h);
        value.hash(&mut h);
        (h.finish() >> 35) as u32
    }

    fn slot(&self, hash: u32) -> usize {
        hash as usize & (self.slots.len() - 1)
    }

    /// Sets a filed word's shard bit in its hash's slot.
    fn mark(&mut self, word: u32) {
        let slot = self.slot(word >> 3);
        self.slots[slot] |= 1 << (word & 7);
    }

    /// Files key `attr = value`, new to shard `shard`'s index, unless
    /// it is a TYPE (see [`filed_keys`]). The filter may pass two keys
    /// per slot until the caller next calls [`KeyFilter::grow`]; it
    /// only grows less exact meanwhile.
    pub fn insert(&mut self, shard: usize, attr: &Attribute, value: &str) {
        if *attr == Attribute::Type {
            return;
        }
        let word = word(self.hash(attr.as_str(), value), shard);
        self.mark(word);
        self.filed.push(word);
    }

    /// The shard bits that can hold `attr = value`: shard `i` is worth
    /// descending only if bit `i % 8` is set.
    pub fn probe(&self, attr: &str, value: &str) -> u8 {
        self.slots[self.slot(self.hash(attr, value))]
    }

    /// Doubles the filter, from its filed hashes, until it holds at
    /// least two slots per key.
    pub fn grow(&mut self) {
        if 2 * self.filed.len() > self.slots.len() {
            self.refill();
        }
    }

    /// Refills the filter from every NAME and application-attribute
    /// key the shards' indexes hold.
    pub fn rebuild(&mut self, shards: &[Shard]) {
        let mut filed = Vec::with_capacity(shards.iter().map(filed_len).sum());
        for (i, shard) in shards.iter().enumerate() {
            filed.extend(filed_keys(shard).map(|(attr, value)| word(self.hash(attr, value), i)));
        }
        self.filed = filed;
        self.refill();
    }

    /// Sizes the bytes at the smallest power of two of at least two
    /// slots per filed key, and sets each key's bit.
    fn refill(&mut self) {
        self.slots = vec![0; (2 * self.filed.len()).next_power_of_two().max(MIN_SLOTS)];
        let filed = std::mem::take(&mut self.filed);
        for &word in &filed {
            self.mark(word);
        }
        self.filed = filed;
    }

    /// Sends every key to one slot from now on, so each lookup
    /// descends every shard that holds any key — the forced-collision
    /// case of the filter's differential test.
    pub fn collide(&mut self, shards: &[Shard]) {
        self.state = None;
        self.rebuild(shards);
    }

    /// Heap bytes the filter holds.
    pub fn resident_bytes(&self) -> usize {
        self.slots.capacity() + self.filed.capacity() * size_of::<u32>()
    }
}

/// A filed key's word: its hash over the 3 bits of `shard % 8`.
fn word(hash: u32, shard: usize) -> u32 {
    hash << 3 | (shard % 8) as u32
}

/// Every key of `shard` the filter covers, as `(attribute, value)`:
/// the NAME index and the application-attribute index. TYPE lookups
/// visit every shard and are not filed.
fn filed_keys(shard: &Shard) -> impl Iterator<Item = (&str, &str)> {
    let names = (shard.name_index.keys()).map(|k| (NAME.as_str(), &**k));
    let attrs = (shard.attr_index.iter())
        .flat_map(|(attr, index)| index.keys().map(move |k| (attr.as_str(), &**k)));
    names.chain(attrs)
}

/// How many keys [`filed_keys`] visits, read off the indexes' lengths.
fn filed_len(shard: &Shard) -> usize {
    let attrs: usize = shard.attr_index.values().map(|index| index.len()).sum();
    shard.name_index.len() + attrs
}
