//! One shard of the provenance store, in dense form.
//!
//! The store partitions objects by a stable hash of their pnode; each
//! shard owns the objects and secondary indexes of its partition. A
//! record's *subject-side* effects (attributes, ancestry inputs,
//! data-write accounting) land in the subject's shard; the *reverse*
//! ancestry edge lands in the ancestor's shard, so descendant queries
//! never leave the ancestor's partition. Shards never reference each
//! other — the [`crate::store::Store`] facade routes between them.
//!
//! # Layout
//!
//! A shard keeps its rows in a few shard-wide arrays, in the order
//! they arrived, so what one commit (one build step, one library)
//! wrote sits in neighbouring memory and a query over it reads rows
//! rather than chasing pointers:
//!
//! * `objects` holds one row per object, by slot, in first-seen
//!   order: its pnode and its versions — a short run of `versions`,
//!   sorted by number — and `slots` maps a pnode to its slot;
//! * each version owns a run of `attrs` and a run of `inputs`, both in
//!   record order;
//! * reverse edges are per-ancestor runs of `reverse_rows`;
//! * a run that grows after another run was opened behind it moves to
//!   the end of its array with its capacity doubled ([`push`]), which
//!   keeps appends amortized O(1); the rows it leaves behind are dead
//!   and [`Shard::resident_bytes`] counts them;
//! * attribute names are interned as small ids, and every string
//!   value — each NAME, TYPE and other string attribute — is stored
//!   once: the index key it files under and the attribute rows that
//!   carry it share one allocation.
//!
//! The indexes hold slots, so a reader that holds a slot reads its
//! object without a probe. NAME's and TYPE's are ordered maps keyed by
//! the interned strings, so a NAME prefix query stays a range scan.
//! Each application attribute's is a hash map, so filing a value is
//! one probe rather than a B-tree descent whose every compare reads a
//! string out of cache; a prefix lookup on one filters its keys and
//! sorts the matches. None of this reaches the disk: `crate::segment`
//! walks every index in key order and writes the same canonical bytes
//! whatever the layout.

use std::collections::{BTreeMap, HashMap};
use std::mem::size_of;
use std::ops::Bound;
use std::rc::Rc;

use dpapi::wire::record_wire_size;
use dpapi::{Attribute, ObjectRef, Pnode, Value, Version};
use lasagna::LogEntry;

use crate::db::{DbSize, ObjectEntry, VersionEntry};

/// The attributes an ancestry edge can carry, in [`Attribute`] order,
/// so ordering edges by label orders them by attribute.
pub(crate) static ANCESTRY: [Attribute; 4] = [
    Attribute::Input,
    Attribute::VisitedUrl,
    Attribute::FileUrl,
    Attribute::CurrentUrl,
];

/// An ancestry attribute's label: its index in [`ANCESTRY`].
pub(crate) fn label_of(attr: &Attribute) -> Option<u8> {
    ANCESTRY.iter().position(|a| a == attr).map(|i| i as u8)
}

/// A reverse ancestry edge bound for an ancestor's shard: (ancestor,
/// descendant version-ref, edge label, ancestor version).
pub(crate) type ReverseEdge = (Pnode, ObjectRef, u8, Version);

/// One owner's rows in a shard-wide array: `len` used of `cap`
/// reserved from `start`.
#[derive(Clone, Copy, Debug, Default)]
struct Run {
    start: u32,
    len: u32,
    cap: u32,
}

fn rows<T>(all: &[T], run: Run) -> &[T] {
    &all[run.start as usize..][..run.len as usize]
}

/// Appends `row` to `run`: into its reserved room, or in place when
/// the run ends the array, else by moving the run to the end of the
/// array with its capacity doubled.
fn push<T: Clone>(all: &mut Vec<T>, run: &mut Run, row: T) {
    if run.len == run.cap {
        if (run.start + run.cap) as usize == all.len() {
            all.push(row.clone());
            run.cap += 1;
        } else {
            let start = all.len();
            all.extend_from_within(run.start as usize..(run.start + run.len) as usize);
            run.cap = (2 * run.cap).max(1);
            all.resize(start + run.cap as usize, row.clone());
            run.start = start as u32;
        }
        debug_assert!(all.len() <= u32::MAX as usize, "a shard array outgrew u32");
    }
    all[(run.start + run.len) as usize] = row;
    run.len += 1;
}

/// An object homed on this shard: its pnode and its run of
/// `Shard::versions`.
#[derive(Clone, Copy, Debug)]
struct Object {
    pnode: Pnode,
    versions: Run,
}

/// One version of one object.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct VersionRow {
    pub number: u32,
    attrs: Run,
    inputs: Run,
    pub writes: u64,
    pub bytes_written: u64,
}

/// A stored attribute value: an interned string, or an index into
/// `Shard::values` for every other kind.
#[derive(Clone, Debug)]
enum Cell {
    Str(Rc<str>),
    Other(u32),
}

#[derive(Clone, Debug)]
struct AttrRow {
    attr: u32,
    value: Cell,
}

/// An ancestry edge: its label and the ref at its other end — the
/// ancestor of an input, the descendant of a reverse edge.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Edge {
    pub label: u8,
    pub to: ObjectRef,
}

/// The slots of the objects an index key lists, ascending.
pub(crate) type Posting = Vec<u32>;

/// NAME's and TYPE's index: interned string → posting, in string
/// order, so a prefix is a range scan.
pub(crate) type Index = BTreeMap<Rc<str>, Posting>;

/// An application attribute's index: interned string → posting,
/// hashed, so filing a value is one probe. Whatever needs key order —
/// the segment codec, a prefix lookup — sorts the keys it reads. Each
/// map draws its own keys from std's `RandomState`: attribute values
/// are client strings.
pub(crate) type AttrIndex = HashMap<Rc<str>, Posting>;

/// An attribute value borrowed from its shard: a string as the
/// shard's interned `Rc`, which a query answer may share.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ValueRef<'a> {
    Str(&'a Rc<str>),
    Other(&'a Value),
}

impl ValueRef<'_> {
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Str(s) => Value::Str(String::from(&**s)),
            ValueRef::Other(v) => v.clone(),
        }
    }
}

/// One hash partition of the store.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    /// pnode → its slot in `objects`. The standard hasher: pnodes
    /// arrive in client-written logs.
    slots: HashMap<Pnode, u32>,
    /// The objects homed on this shard, by slot: first-seen order.
    objects: Vec<Object>,
    versions: Vec<VersionRow>,
    attrs: Vec<AttrRow>,
    inputs: Vec<Edge>,
    /// ancestor pnode (homed here) → its run of `reverse_rows`.
    reverse: HashMap<Pnode, Run>,
    reverse_rows: Vec<(Edge, Version)>,
    /// Interned attribute names, by id.
    attr_names: Vec<Attribute>,
    attr_ids: HashMap<Attribute, u32>,
    /// Attribute values that are not strings.
    values: Vec<Value>,
    /// NAME → objects of this shard that bore it (at any version).
    pub name_index: Index,
    /// TYPE → objects of this shard.
    pub type_index: Index,
    /// Generalized attribute index: attribute name → string value →
    /// objects of this shard that bore it (at any version). Covers
    /// every string-valued attribute the dedicated name/type indexes
    /// do not — application attributes foremost — so PQL predicate
    /// pushdown (`GraphSource::lookup_attr`) answers them without a
    /// volume scan.
    pub attr_index: BTreeMap<String, AttrIndex>,
    /// Table 3's footprint model of this shard (not its memory: see
    /// [`Shard::resident_bytes`]).
    pub size: DbSize,
    /// Bumped once per group commit that touched this shard. The WAL
    /// frame and the checkpoint bind to it (a base segment is reused
    /// while it holds); the query caches do not read it.
    pub generation: u64,
}

impl Shard {
    /// Applies a run of committed entries that all share one subject
    /// pnode: the batched fast path, which finds the object's version
    /// row once per same-version stretch instead of once per record.
    /// `new_key` hears of each string key new to this shard's indexes,
    /// for the store's key filter.
    pub fn apply_run(
        &mut self,
        pnode: Pnode,
        entries: &[&LogEntry],
        reverse_out: &mut Vec<ReverseEdge>,
        new_key: &mut impl FnMut(&Attribute, &str),
    ) {
        let (mut db_bytes, mut index_bytes) = (0, 0);
        // The version the last entry wrote at: (number, slot, row).
        let mut at: Option<(u32, u32, usize)> = None;
        for entry in entries {
            let (LogEntry::Prov { subject, .. } | LogEntry::DataWrite { subject, .. }) = entry
            else {
                continue;
            };
            debug_assert_eq!(subject.pnode, pnode);
            if let LogEntry::Prov { record, .. } = entry {
                db_bytes += record_wire_size(record) as u64 + 16;
                if let (Attribute::Freeze, Value::Int(n)) = (&record.attribute, &record.value) {
                    // Opens a version, which may move the version run.
                    self.version(pnode, *n as u32);
                    at = None;
                    continue;
                }
            }
            let number = subject.version.0;
            let (slot, v) = match at {
                Some((n, slot, v)) if n == number => (slot, v),
                _ => self.version(pnode, number),
            };
            at = Some((number, slot, v));
            match entry {
                LogEntry::Prov { record, .. } => match (label_of(&record.attribute), &record.value)
                {
                    (Some(label), Value::Xref(to)) => {
                        self.add_input(v, Edge { label, to: *to });
                        reverse_out.push((to.pnode, *subject, label, to.version));
                    }
                    (_, value) => {
                        let (bytes, fresh) = self.add_attr(slot, v, &record.attribute, value);
                        index_bytes += bytes;
                        if let (true, Value::Str(key)) = (fresh, value) {
                            new_key(&record.attribute, key);
                        }
                    }
                },
                LogEntry::DataWrite { len, .. } => {
                    self.add_writes(v, 1, u64::from(*len));
                    db_bytes += 44;
                }
                LogEntry::TxnBegin { .. } | LogEntry::TxnEnd { .. } => {}
            }
        }
        self.size.db_bytes += db_bytes;
        self.size.index_bytes += index_bytes;
    }

    /// Records a reverse ancestry edge whose ancestor is homed here.
    pub fn add_reverse_edge(&mut self, (ancestor, from, label, aversion): ReverseEdge) {
        self.push_reverse(ancestor, Edge { label, to: from }, aversion);
        self.size.index_bytes += 36;
    }

    /// Folds `src` — the same shard of another store — into this one:
    /// objects merge by pnode, colliding versions extend their
    /// attribute and input runs in `self`-then-`src` order and sum
    /// their data-write accounting, the indexes and reverse runs
    /// union, and the footprints add.
    pub fn merge_from(&mut self, src: &Shard) {
        for (p, versions) in src.objects() {
            for row in versions {
                let (slot, v) = self.version(p, row.number);
                // Owned: a string is interned again in this shard's
                // index.
                for (attr, value) in src.attrs(row) {
                    self.add_attr(slot, v, attr, &value.to_value());
                }
                for edge in rows(&src.inputs, row.inputs) {
                    self.add_input(v, *edge);
                }
                self.add_writes(v, row.writes, row.bytes_written);
            }
        }
        for (ancestor, run) in &src.reverse {
            for (edge, aversion) in rows(&src.reverse_rows, *run) {
                self.push_reverse(*ancestor, *edge, *aversion);
            }
        }
        self.size.db_bytes += src.size.db_bytes;
        self.size.index_bytes += src.size.index_bytes;
    }

    /// The slot of object `pnode` — added in first-seen order if new —
    /// and the index in `versions` of its version `number`, inserted in
    /// order if new.
    pub fn version(&mut self, pnode: Pnode, number: u32) -> (u32, usize) {
        let objects = &mut self.objects;
        let slot = *self.slots.entry(pnode).or_insert_with(|| {
            objects.push(Object {
                pnode,
                versions: Run::default(),
            });
            objects.len() as u32 - 1
        });
        let run = &mut objects[slot as usize].versions;
        let at = match rows(&self.versions, *run).binary_search_by_key(&number, |v| v.number) {
            Ok(at) => return (slot, run.start as usize + at),
            Err(at) => at,
        };
        let row = VersionRow {
            number,
            ..VersionRow::default()
        };
        push(&mut self.versions, run, row);
        let start = run.start as usize;
        self.versions[start + at..start + run.len as usize].rotate_right(1);
        (slot, start + at)
    }

    /// Appends an ancestry edge to version row `v`.
    pub fn add_input(&mut self, v: usize, edge: Edge) {
        let mut run = self.versions[v].inputs;
        push(&mut self.inputs, &mut run, edge);
        self.versions[v].inputs = run;
    }

    pub fn add_writes(&mut self, v: usize, writes: u64, bytes: u64) {
        self.versions[v].writes += writes;
        self.versions[v].bytes_written += bytes;
    }

    /// Appends `attr = value` to version row `v` of `slot`, interning
    /// the attribute name and a string value — which also files `slot`
    /// under it in its index. Returns what Table 3 charges the index
    /// for it — a key/object pair new to its index costs its key bytes
    /// plus 12 — and whether the value is a key new to its index.
    pub fn add_attr(
        &mut self,
        slot: u32,
        v: usize,
        attr: &Attribute,
        value: &Value,
    ) -> (u64, bool) {
        let name = match self.attr_ids.get(attr) {
            Some(&id) => id,
            None => {
                let id = self.attr_names.len() as u32;
                self.attr_names.push(attr.clone());
                self.attr_ids.insert(attr.clone(), id);
                id
            }
        };
        let (value, index_bytes, new_key) = match value {
            Value::Str(s) => {
                let ((key, fresh, new_key), key_bytes) = match attr {
                    Attribute::Name => (intern(&mut self.name_index, s, slot), 0),
                    Attribute::Type => (intern(&mut self.type_index, s, slot), 0),
                    _ => {
                        let name = attr.as_str();
                        let interned = match self.attr_index.get_mut(name) {
                            Some(index) => intern(index, s, slot),
                            None => {
                                let mut index = AttrIndex::default();
                                let interned = intern(&mut index, s, slot);
                                self.attr_index.insert(name.to_owned(), index);
                                interned
                            }
                        };
                        (interned, name.len())
                    }
                };
                let cost = if fresh {
                    (key_bytes + s.len()) as u64 + 12
                } else {
                    0
                };
                (Cell::Str(key), cost, new_key)
            }
            other => {
                self.values.push(other.clone());
                (Cell::Other(self.values.len() as u32 - 1), 0, false)
            }
        };
        let mut run = self.versions[v].attrs;
        push(&mut self.attrs, &mut run, AttrRow { attr: name, value });
        self.versions[v].attrs = run;
        (index_bytes, new_key)
    }

    /// Appends a reverse edge — `edge.to` is the descendant — to
    /// `ancestor`'s run.
    pub fn push_reverse(&mut self, ancestor: Pnode, edge: Edge, aversion: Version) {
        let run = self.reverse.entry(ancestor).or_default();
        push(&mut self.reverse_rows, run, (edge, aversion));
    }

    // ---- reads --------------------------------------------------------

    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Every object homed here with its versions, ascending, in slot
    /// (first-seen) order.
    pub fn objects(&self) -> impl Iterator<Item = (Pnode, &[VersionRow])> + '_ {
        (self.objects.iter()).map(|o| (o.pnode, rows(&self.versions, o.versions)))
    }

    /// `p`'s slot; `None` if `p` is not homed here.
    pub fn slot(&self, p: Pnode) -> Option<u32> {
        self.slots.get(&p).copied()
    }

    /// `p`'s slot, tried first at `after + 1` — where the next object
    /// of one build step sits when `after` is the last slot read — and
    /// taken there only when the pnode stored in it is `p`; otherwise
    /// probed. The hint never changes the answer, only whether the map
    /// is probed.
    pub fn slot_near(&self, after: u32, p: Pnode) -> Option<u32> {
        let next = after.wrapping_add(1);
        match self.objects.get(next as usize) {
            Some(o) if o.pnode == p => Some(next),
            _ => self.slot(p),
        }
    }

    /// The pnode in `slot`.
    pub fn pnode_at(&self, slot: u32) -> Pnode {
        self.objects[slot as usize].pnode
    }

    /// The versions of the object in `slot`, ascending.
    pub fn versions_at(&self, slot: u32) -> &[VersionRow] {
        rows(&self.versions, self.objects[slot as usize].versions)
    }

    /// `p`'s versions, ascending; `None` if `p` is not homed here.
    pub fn versions(&self, p: Pnode) -> Option<&[VersionRow]> {
        Some(self.versions_at(self.slot(p)?))
    }

    /// Every object with its versions, in pnode order.
    pub fn sorted_objects(&self) -> Vec<(Pnode, &[VersionRow])> {
        let mut out: Vec<_> = self.objects().collect();
        out.sort_unstable_by_key(|o| o.0);
        out
    }

    /// Version `number` among `versions`.
    pub fn find_version(versions: &[VersionRow], number: u32) -> Option<&VersionRow> {
        let at = versions.binary_search_by_key(&number, |v| v.number).ok()?;
        Some(&versions[at])
    }

    /// A version's attributes, in record order.
    pub fn attrs<'a>(
        &'a self,
        v: &VersionRow,
    ) -> impl Iterator<Item = (&'a Attribute, ValueRef<'a>)> + 'a {
        rows(&self.attrs, v.attrs).iter().map(|a| {
            let value = match &a.value {
                Cell::Str(s) => ValueRef::Str(s),
                Cell::Other(i) => ValueRef::Other(&self.values[*i as usize]),
            };
            (&self.attr_names[a.attr as usize], value)
        })
    }

    /// A version's ancestry edges, in record order.
    pub fn inputs<'a>(
        &'a self,
        v: &VersionRow,
    ) -> impl Iterator<Item = (&'static Attribute, ObjectRef)> + 'a {
        (rows(&self.inputs, v.inputs).iter()).map(|e| (&ANCESTRY[e.label as usize], e.to))
    }

    /// Ancestors with reverse edges homed here (unordered).
    pub fn ancestors(&self) -> impl Iterator<Item = Pnode> + '_ {
        self.reverse.keys().copied()
    }

    /// Reverse edges of ancestor `p`: (descendant, edge attribute,
    /// ancestor version), in arrival order.
    pub fn reverse(
        &self,
        p: Pnode,
    ) -> impl Iterator<Item = (ObjectRef, &'static Attribute, Version)> + '_ {
        let run = self.reverse.get(&p).copied().unwrap_or_default();
        (rows(&self.reverse_rows, run).iter())
            .map(|(e, aversion)| (e.to, &ANCESTRY[e.label as usize], *aversion))
    }

    /// Visits the postings the `keyed` index files under `key` — or,
    /// for a `prefix` lookup, under every key that starts with `key` —
    /// in key order. On NAME and TYPE either is one range scan. On an
    /// application attribute's hashed index an exact key is one probe,
    /// and a prefix reads every key of the index and sorts the ones
    /// that match.
    pub fn for_each_posting(
        &self,
        keyed: Keyed<'_>,
        key: &str,
        prefix: bool,
        mut f: impl FnMut(&Posting),
    ) {
        let index = match keyed {
            Keyed::Name => &self.name_index,
            Keyed::Type => &self.type_index,
            Keyed::Attr(attr) => {
                let Some(index) = self.attr_index.get(attr) else {
                    return;
                };
                if !prefix {
                    index.get(key).into_iter().for_each(f);
                    return;
                }
                let mut hits: Vec<_> = (index.iter()).filter(|(k, _)| k.starts_with(key)).collect();
                hits.sort_unstable_by(|a, b| a.0.cmp(b.0));
                hits.into_iter().for_each(|(_, posting)| f(posting));
                return;
            }
        };
        let keys = index.range::<str, _>((Bound::Included(key), Bound::Unbounded));
        let hits = keys.take_while(|(k, _)| {
            if prefix {
                k.starts_with(key)
            } else {
                k[..] == *key
            }
        });
        hits.for_each(|(_, posting)| f(posting));
    }

    /// The pnodes a posting of this shard lists, in slot order.
    pub fn postings<'a>(&'a self, posting: &'a Posting) -> impl Iterator<Item = Pnode> + 'a {
        posting.iter().map(|s| self.pnode_at(*s))
    }

    /// An owned copy of `p`'s object, every version and attribute.
    pub fn object(&self, p: Pnode) -> Option<ObjectEntry> {
        let rows = self.versions(p)?;
        let versions = rows.iter().map(|v| {
            let entry = VersionEntry {
                attrs: (self.attrs(v))
                    .map(|(a, x)| (a.clone(), x.to_value()))
                    .collect(),
                inputs: (self.inputs(v)).map(|(a, r)| (a.clone(), r)).collect(),
                writes: v.writes,
                bytes_written: v.bytes_written,
            };
            (v.number, entry)
        });
        Some(ObjectEntry {
            versions: versions.collect(),
            current: current(rows),
        })
    }

    /// Heap bytes this shard holds, counted from lengths and
    /// capacities: every array (dead rows of moved runs included), the
    /// string values, the maps' slots and the index entries. A model
    /// of resident memory that repeats exactly, where reading the OS
    /// would not; allocator overhead and attribute-name strings are
    /// left out.
    pub fn resident_bytes(&self) -> usize {
        fn vec<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        fn map<K, V>(m: &HashMap<K, V>) -> usize {
            m.capacity() * (size_of::<(K, V)>() + 1)
        }
        // An index key is a string's one copy: its `Rc` allocation is
        // two counts and the bytes.
        fn filed<'a>(keys: impl Iterator<Item = (&'a Rc<str>, &'a Posting)>) -> usize {
            keys.map(|(k, p)| 2 * size_of::<usize>() + k.len() + vec(p))
                .sum()
        }
        fn index(index: &Index) -> usize {
            index.len() * size_of::<(Rc<str>, Posting)>() + filed(index.iter())
        }
        let rows = vec(&self.objects) + vec(&self.versions) + vec(&self.attrs);
        let edges = vec(&self.inputs) + vec(&self.reverse_rows);
        let maps = map(&self.slots) + map(&self.reverse) + map(&self.attr_ids);
        let names = vec(&self.attr_names);
        let values = vec(&self.values) + self.values.iter().map(value_heap).sum::<usize>();
        let attr_index: usize = (self.attr_index.iter())
            .map(|(name, values)| {
                size_of::<(String, AttrIndex)>()
                    + name.capacity()
                    + map(values)
                    + filed(values.iter())
            })
            .sum();
        let indexes = index(&self.name_index) + index(&self.type_index) + attr_index;
        rows + edges + maps + names + values + indexes
    }
}

/// Which index an attribute lookup reads: NAME's, TYPE's, or the
/// generalized index's entry for an application attribute, by its
/// canonical record name.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Keyed<'a> {
    Name,
    Type,
    Attr(&'a str),
}

/// An object's highest version: the last of its sorted run.
pub(crate) fn current(versions: &[VersionRow]) -> u32 {
    versions.last().map_or(0, |v| v.number)
}

/// The map calls [`intern`] makes, on an ordered index or a hashed
/// one.
trait Keys {
    fn find(&self, s: &str) -> Option<(&Rc<str>, &Posting)>;
    fn posting_mut(&mut self, s: &str) -> Option<&mut Posting>;
    fn file(&mut self, key: Rc<str>, posting: Posting);
}

macro_rules! keys {
    ($($map:ty),*) => {$(
        impl Keys for $map {
            fn find(&self, s: &str) -> Option<(&Rc<str>, &Posting)> {
                self.get_key_value(s)
            }
            fn posting_mut(&mut self, s: &str) -> Option<&mut Posting> {
                self.get_mut(s)
            }
            fn file(&mut self, key: Rc<str>, posting: Posting) {
                self.insert(key, posting);
            }
        }
    )*};
}
keys!(Index, AttrIndex);

/// `s` interned as a key of `index` (added if new), whether `slot` is
/// new to its posting, and whether the key is new to `index`. One
/// lookup when `slot` already carries the key, which allocates
/// nothing; two otherwise (find, then insert into the posting or the
/// index). On a hashed index a lookup is one probe; on an ordered one
/// it is a descent.
fn intern(index: &mut impl Keys, s: &str, slot: u32) -> (Rc<str>, bool, bool) {
    if let Some((key, posting)) = index.find(s) {
        let key = key.clone();
        let Err(at) = posting.binary_search(&slot) else {
            return (key, false, false);
        };
        let posting = index.posting_mut(s).expect("the key was just found");
        posting.insert(at, slot);
        return (key, true, false);
    }
    let key: Rc<str> = Rc::from(s);
    index.file(key.clone(), vec![slot]);
    (key, true, true)
}

/// Heap bytes a non-string value owns.
fn value_heap(value: &Value) -> usize {
    match value {
        Value::Str(s) => s.capacity(),
        Value::Bytes(b) => b.capacity(),
        Value::StrList(l) => {
            l.capacity() * size_of::<String>() + l.iter().map(String::capacity).sum::<usize>()
        }
        Value::Int(_) | Value::Bool(_) | Value::Xref(_) => 0,
    }
}
