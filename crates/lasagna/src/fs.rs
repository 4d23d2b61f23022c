//! Lasagna: the stackable provenance-aware file system.
//!
//! Lasagna wraps a lower file system (the ext3 analogue) the way the
//! paper's implementation stacks on the eCryptfs code base. It
//! implements the regular VFS calls by delegation — charging the
//! double-buffering copy the paper measures — plus the DPAPI as
//! "inode and superblock operations": `pass_read`, `pass_write` and
//! `pass_freeze` per file, `pass_mkobj` and `pass_reviveobj` per
//! volume.
//!
//! All provenance is appended to a log stored in the hidden `.pass`
//! directory of the lower file system; write-ahead provenance (WAP)
//! appends the log entries *before* the data write they describe.
//! When the current log exceeds a parametrized size it is rotated,
//! and rotations are reported through
//! [`DpapiVolume::take_log_rotations`] for Waldo to ingest.

use std::sync::LazyLock;

use bytes::BytesMut;
use dpapi::{
    wire, Attribute, Bundle, Dpapi, DpapiError, DpapiOp, Handle, IdMap, ObjectRef, OpResult, Pnode,
    PnodeAllocator, ProvenanceRecord, ReadResult, Txn, Value, Version, VolumeId, WriteResult,
};
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::fs::{DirEntry, DpapiVolume, FileAttr, FileSystem, FsError, FsResult, FsUsage, Ino};

use crate::log;
use crate::md5::md5;

/// Tag bit of the transaction-id space Lasagna allocates for its own
/// disclosure-transaction groups: bit 63 set, the full 32-bit volume
/// id in bits 28..60, a 28-bit wrapping sequence below. PA-NFS
/// servers hand out small sequential ids for legacy chunked bundles
/// (tag bit clear), and no two volumes share any id, so batch markers
/// from different allocators can never collide inside one Waldo
/// store. (The sequence wraps after 2^28 batches per volume — by
/// which point the earlier transaction has long closed, so marker
/// buffering cannot confuse the two.)
const BATCH_TXN_TAG: u64 = 1 << 63;
const BATCH_SEQ_MASK: u64 = (1 << 28) - 1;

/// The volume-salted id of one disclosure-batch transaction: tag bit
/// 63 set, the volume id in bits 28..60, the per-volume sequence in
/// bits 0..28. The salt is what makes multi-daemon fan-in a routing
/// problem instead of a format problem: transaction ids from
/// different volumes can never alias, so stores built from distinct
/// volumes' logs merge without renumbering (`waldo::Store::merge`).
/// The cluster routing-stability proptests pin this layout.
pub fn batch_txn_id(volume: dpapi::VolumeId, seq: u64) -> u64 {
    BATCH_TXN_TAG | (u64::from(volume.0) << 28) | (seq & BATCH_SEQ_MASK)
}

/// Decomposes a transaction id minted by [`batch_txn_id`] back into
/// its `(volume, sequence)` parts; `None` for ids outside the
/// disclosure-batch space (tag bit clear — e.g. PA-NFS server ids).
/// Consumers use the volume salt to keep a per-volume replay
/// high-water mark: a batch whose sequence is at or below its
/// volume's mark has already committed, so re-seeing it is a replay
/// (a duplicated group frame), not new disclosure.
pub fn batch_txn_parts(id: u64) -> Option<(dpapi::VolumeId, u64)> {
    if id & BATCH_TXN_TAG == 0 {
        return None;
    }
    let volume = dpapi::VolumeId(((id & !BATCH_TXN_TAG) >> 28) as u32);
    Some((volume, id & BATCH_SEQ_MASK))
}

/// Name of the hidden provenance directory on the lower file system.
pub const PASS_DIR: &str = ".pass";

/// The attribute used to persist the pnode→inode binding in the log,
/// so recovery can re-associate provenance with file contents. Built
/// once: every created file logs a record under it.
pub(crate) static INO_ATTRIBUTE: LazyLock<Attribute> =
    LazyLock::new(|| Attribute::Other("INO".to_string()));

/// An owned copy of the pnode→inode binding attribute.
pub fn ino_attribute() -> dpapi::Attribute {
    INO_ATTRIBUTE.clone()
}

/// Configuration for a Lasagna volume.
#[derive(Clone, Copy, Debug)]
pub struct LasagnaConfig {
    /// This volume's identity.
    pub volume: VolumeId,
    /// Rotate the log once it exceeds this many bytes.
    pub log_max_bytes: u64,
    /// Buffer log entries in memory up to this size before appending
    /// to the log file.
    pub log_buf_bytes: usize,
    /// Bytes of database I/O the live Waldo daemon performs per byte
    /// of provenance log (the paper's Table 3 shows database plus
    /// indexes at roughly 2.7x the raw record volume for the
    /// record-heavy workloads).
    pub waldo_db_factor: f64,
    /// One seek charged per this many database blocks written,
    /// modelling index-update head movement.
    pub waldo_db_seek_every: u64,
}

impl LasagnaConfig {
    /// A default configuration for volume `v`.
    pub fn new(v: VolumeId) -> Self {
        LasagnaConfig {
            volume: v,
            log_max_bytes: 1 << 20, // 1 MB
            log_buf_bytes: 64 << 10,
            waldo_db_factor: 2.0,
            waldo_db_seek_every: 4,
        }
    }
}

/// Counters for one Lasagna volume.
#[derive(Clone, Copy, Debug, Default)]
pub struct LasagnaStats {
    /// Provenance records logged.
    pub records_logged: u64,
    /// Data writes logged with digests.
    pub data_writes: u64,
    /// Version bumps performed.
    pub freezes: u64,
    /// Log rotations.
    pub rotations: u64,
    /// Total provenance bytes ever appended.
    pub provenance_bytes: u64,
    /// Multi-op disclosure transactions committed (each framed as one
    /// group record in the log).
    pub batch_commits: u64,
    /// Operations carried by those transactions.
    pub batched_ops: u64,
    /// Flushes of the log buffer the lower file system failed (or cut
    /// short). The buffer is kept and written again by the next flush.
    pub log_write_failures: u64,
    /// Handles open on the volume now: one per file or application
    /// object ever addressed and not yet closed. A level, not a count
    /// of events, so it is not poured into a registry as a counter.
    pub open_handles: u64,
}

impl provscope::MetricSource for LasagnaStats {
    fn record(&self, out: &mut dyn FnMut(&str, u64)) {
        out("records_logged", self.records_logged);
        out("data_writes", self.data_writes);
        out("freezes", self.freezes);
        out("rotations", self.rotations);
        out("provenance_bytes", self.provenance_bytes);
        out("batch_commits", self.batch_commits);
        out("batched_ops", self.batched_ops);
        out("log_write_failures", self.log_write_failures);
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Obj {
    File(Ino),
    App(Pnode),
}

/// The Lasagna file system.
pub struct Lasagna {
    lower: Box<dyn FileSystem>,
    cfg: LasagnaConfig,
    clock: Clock,
    model: CostModel,
    alloc: PnodeAllocator,

    // Keyed by inode numbers, pnode numbers and handles this volume
    // (or the file system under it) allocated: see `dpapi::IdHasher`.
    pnode_of_ino: IdMap<u64, Pnode>,
    ino_of_pnode: IdMap<u64, Ino>,
    versions: IdMap<u64, Version>, // pnode number -> version
    app_objects: IdMap<u64, Version>,

    handles: IdMap<u64, Obj>,
    handle_of_ino: IdMap<u64, Handle>,
    /// The handle `pass_reviveobj` gave out for an application object,
    /// by pnode number: reviving it again returns the same handle.
    handle_of_pnode: IdMap<u64, Handle>,
    next_handle: u64,

    log_dir: Ino,
    log_file: Ino,
    log_index: u64,
    log_written: u64,
    log_buf: BytesMut,
    /// Scratch of [`Lasagna::with_subjects`]: one subject per frame
    /// being logged, reused from call to call.
    subjects: Vec<ObjectRef>,
    rotated: Vec<String>,
    db_debt: f64,
    next_batch: u64,

    stats: LasagnaStats,
    scope: provscope::Scope,
}

impl Lasagna {
    /// Stacks a new Lasagna volume over `lower`.
    ///
    /// `clock` and `model` must be the same clock/cost model the lower
    /// file system charges, so stacking costs accumulate on one
    /// timeline.
    pub fn new(
        mut lower: Box<dyn FileSystem>,
        clock: Clock,
        model: CostModel,
        cfg: LasagnaConfig,
    ) -> FsResult<Lasagna> {
        let root = lower.root();
        let log_dir = match lower.lookup(root, PASS_DIR) {
            Ok(ino) => ino,
            Err(FsError::NotFound(_)) => lower.mkdir(root, PASS_DIR)?,
            Err(e) => return Err(e),
        };
        let log_file = lower.create(log_dir, "log.0")?;
        Ok(Lasagna {
            lower,
            cfg,
            clock,
            model,
            alloc: PnodeAllocator::new(cfg.volume),
            pnode_of_ino: IdMap::default(),
            ino_of_pnode: IdMap::default(),
            versions: IdMap::default(),
            app_objects: IdMap::default(),
            handles: IdMap::default(),
            handle_of_ino: IdMap::default(),
            handle_of_pnode: IdMap::default(),
            next_handle: 1,
            log_dir,
            log_file,
            log_index: 0,
            log_written: 0,
            log_buf: BytesMut::new(),
            subjects: Vec::new(),
            rotated: Vec::new(),
            db_debt: 0.0,
            next_batch: 0,
            stats: LasagnaStats::default(),
            scope: provscope::Scope::default(),
        })
    }

    /// Volume statistics.
    pub fn stats(&self) -> LasagnaStats {
        LasagnaStats {
            open_handles: self.handles.len() as u64,
            ..self.stats
        }
    }

    /// Read access to the lower file system (tests, recovery).
    pub fn lower_mut(&mut self) -> &mut dyn FileSystem {
        &mut *self.lower
    }

    // ---- identity ---------------------------------------------------------

    fn pnode_for_ino(&mut self, ino: Ino) -> Pnode {
        if let Some(p) = self.pnode_of_ino.get(&ino.0) {
            return *p;
        }
        let p = self.alloc.allocate();
        self.pnode_of_ino.insert(ino.0, p);
        self.ino_of_pnode.insert(p.number, ino);
        self.versions.insert(p.number, Version::INITIAL);
        // Persist the binding so recovery can find the file again:
        // logged at once, so ahead of every frame about the file.
        let subject = ObjectRef::new(p, Version::INITIAL);
        let logged = self.log_frame(false, |buf| {
            log::put_prov(buf, subject, &INO_ATTRIBUTE, &Value::Int(ino.0 as i64))
        });
        debug_assert!(logged.is_ok(), "an INO binding always encodes");
        self.stats.records_logged += 1;
        p
    }

    fn version_of(&self, p: Pnode) -> Version {
        self.versions
            .get(&p.number)
            .or_else(|| self.app_objects.get(&p.number))
            .copied()
            .unwrap_or(Version::INITIAL)
    }

    fn bump_version(&mut self, p: Pnode) -> Version {
        let v = self
            .versions
            .get_mut(&p.number)
            .or_else(|| self.app_objects.get_mut(&p.number));
        match v {
            Some(v) => {
                *v = v.next();
                self.stats.freezes += 1;
                *v
            }
            None => Version::INITIAL,
        }
    }

    fn resolve(&self, h: Handle) -> dpapi::Result<Obj> {
        self.handles
            .get(&h.raw())
            .copied()
            .ok_or(DpapiError::InvalidHandle)
    }

    fn object_ref(&mut self, obj: Obj) -> ObjectRef {
        match obj {
            Obj::File(ino) => {
                let p = self.pnode_for_ino(ino);
                ObjectRef::new(p, self.version_of(p))
            }
            Obj::App(p) => ObjectRef::new(p, self.version_of(p)),
        }
    }

    fn new_handle(&mut self, obj: Obj) -> Handle {
        let h = Handle::from_raw(self.next_handle);
        self.next_handle += 1;
        self.handles.insert(h.raw(), obj);
        h
    }

    // ---- the log ------------------------------------------------------------

    /// Writes one frame at the end of the log buffer with `write` —
    /// one of [`crate::log`]'s frame writers, which leave the buffer
    /// as it was on error. A frame outside a group is accounted for,
    /// and may trip the buffer threshold, at once; a group's members
    /// are when [`Lasagna::log_group`] closes the group.
    fn log_frame(
        &mut self,
        grouped: bool,
        write: impl FnOnce(&mut BytesMut) -> dpapi::Result<()>,
    ) -> dpapi::Result<()> {
        let before = self.log_buf.len();
        write(&mut self.log_buf)?;
        if !grouped {
            self.frames_logged(before);
        }
        Ok(())
    }

    /// Accounts for the frame bytes appended since the buffer was
    /// `before` long, and flushes the buffer once it has passed its
    /// threshold. That flush is housekeeping, not a write-ahead point:
    /// if it fails the buffer is kept, and the flush ahead of the next
    /// data write retries it and reports.
    fn frames_logged(&mut self, before: usize) {
        self.stats.provenance_bytes += (self.log_buf.len() - before) as u64;
        if self.log_buf.len() >= self.cfg.log_buf_bytes {
            let _ = self.flush_log_buf();
        }
    }

    fn alloc_batch_id(&mut self) -> u64 {
        self.next_batch = (self.next_batch + 1) & BATCH_SEQ_MASK;
        batch_txn_id(self.cfg.volume, self.next_batch)
    }

    /// Appends the buffered frames to the log file.
    ///
    /// This is the write-ahead step: a caller about to write data must
    /// not go on unless it returns `Ok`. On a failed (or short) lower
    /// write nothing moves — the buffer keeps every frame and the
    /// offset stays — so the next flush writes the same bytes at the
    /// same place and the log gets no hole and no frame twice.
    fn flush_log_buf(&mut self) -> FsResult<()> {
        if self.log_buf.is_empty() {
            return Ok(());
        }
        let len = self.log_buf.len();
        // Charge the copy into the lower layer's cache; the lower
        // write charges its own costs.
        self.clock.advance(self.model.copy_cost(len));
        let written = self
            .lower
            .write(self.log_file, self.log_written, &self.log_buf)
            .and_then(|n| match n == len {
                true => Ok(()),
                false => Err(FsError::Invalid(format!(
                    "short provenance-log write: {n} of {len} bytes"
                ))),
            });
        if let Err(e) = written {
            self.stats.log_write_failures += 1;
            return Err(e);
        }
        self.log_buf.clear();
        self.log_written += len as u64;
        // The live Waldo daemon consumes the log concurrently and
        // writes the indexed database on the same disk. Accumulate a
        // byte debt and charge it in bursts (Waldo batches inserts),
        // as transfer time plus periodic index-update seeks.
        self.db_debt += len as f64 * self.cfg.waldo_db_factor;
        const DB_BURST: f64 = 262_144.0; // 256 KB
        if self.db_debt >= DB_BURST {
            let db_bytes = self.db_debt as u64;
            self.db_debt = 0.0;
            let db_blocks = db_bytes.div_ceil(4096).max(1);
            let seeks = db_blocks.div_ceil(self.cfg.waldo_db_seek_every.max(1));
            let d = self.model.disk;
            self.clock
                .advance(db_blocks * d.per_block_ns + seeks * (d.seek_ns + d.rotational_ns));
        }
        if self.log_written >= self.cfg.log_max_bytes {
            self.rotate_log();
        }
        Ok(())
    }

    fn current_log_name(&self) -> String {
        format!("log.{}", self.log_index)
    }

    fn rotate_log(&mut self) {
        let closed = format!("{PASS_DIR}/{}", self.current_log_name());
        self.rotated.push(closed);
        self.stats.rotations += 1;
        self.log_index += 1;
        let name = self.current_log_name();
        match self.lower.create(self.log_dir, &name) {
            Ok(ino) => {
                self.log_file = ino;
                self.log_written = 0;
            }
            Err(_) => {
                // Reuse the existing file if it survived a crash.
                if let Ok(ino) = self.lower.lookup(self.log_dir, &name) {
                    self.log_file = ino;
                    self.log_written = 0;
                }
            }
        }
    }

    /// Runs `f` with the volume's subject scratch, emptied: the hot
    /// path stages in a vector that keeps its capacity between calls.
    fn with_subjects<R>(&mut self, f: impl FnOnce(&mut Lasagna, &mut Vec<ObjectRef>) -> R) -> R {
        let mut subjects = std::mem::take(&mut self.subjects);
        subjects.clear();
        let r = f(self, &mut subjects);
        self.subjects = subjects;
        r
    }

    /// Resolves the subject of every non-marker record of `bundle`,
    /// in order, onto `subjects`, applying FREEZE records as it goes
    /// (the PA-NFS requirement that freezes be records, not
    /// operations, so ordering with writes is preserved).
    ///
    /// Resolving may bind a fresh inode, which logs its `INO` entry at
    /// once. A call therefore resolves everything it will log *before*
    /// it writes its first frame: the bindings stay ahead of the
    /// frames that name them, and the frames can then be encoded
    /// straight from the borrowed bundle ([`Lasagna::log_bundle`]).
    fn resolve_bundle(
        &mut self,
        bundle: &Bundle,
        subjects: &mut Vec<ObjectRef>,
    ) -> dpapi::Result<()> {
        for entry in bundle.entries() {
            // One lookup serves every record of an entry, until a
            // FREEZE among them moves the object on.
            let mut current = None;
            for rec in &entry.records {
                if txn_marker(rec).is_some() {
                    continue;
                }
                let subject = match current {
                    Some(subject) => subject,
                    None => {
                        let obj = self.resolve(entry.handle)?;
                        *current.insert(self.object_ref(obj))
                    }
                };
                subjects.push(subject);
                if rec.attribute == Attribute::Freeze {
                    self.bump_version(subject.pnode);
                    current = None;
                }
            }
        }
        Ok(())
    }

    /// Encodes `bundle`'s records into the log buffer, one frame each,
    /// taking the subjects [`Lasagna::resolve_bundle`] resolved.
    /// Transaction markers from PA-NFS become first-class log entries
    /// so Waldo can buffer chunked bundles and recovery can
    /// garbage-collect orphans.
    fn log_bundle(
        &mut self,
        bundle: &Bundle,
        subjects: &mut impl Iterator<Item = ObjectRef>,
        grouped: bool,
    ) -> dpapi::Result<()> {
        for (_, rec) in bundle.iter() {
            match txn_marker(rec) {
                Some((begin, id)) => {
                    self.log_frame(grouped, |buf| log::put_txn_marker(buf, begin, id))?
                }
                None => {
                    let subject = subjects.next().expect("one resolved subject per record");
                    self.log_frame(grouped, |buf| {
                        log::put_prov(buf, subject, &rec.attribute, &rec.value)
                    })?;
                    self.stats.records_logged += 1;
                }
            }
        }
        Ok(())
    }

    /// Resolves a write to `obj` onto `subjects`: the identity `obj`
    /// will have once the bundle's freezes have applied (returned,
    /// too), then the bundle's subjects.
    fn resolve_write(
        &mut self,
        obj: Obj,
        bundle: &Bundle,
        subjects: &mut Vec<ObjectRef>,
    ) -> dpapi::Result<ObjectRef> {
        let slot = subjects.len();
        subjects.push(ObjectRef::new(Pnode::NULL, Version::INITIAL));
        self.resolve_bundle(bundle, subjects)?;
        subjects[slot] = self.object_ref(obj);
        Ok(subjects[slot])
    }

    /// Logs a write [`Lasagna::resolve_write`] resolved: the bundle's
    /// frames, then — for data bound for a file — the write-ahead
    /// digest of `data`. Returns the inode the caller must now write
    /// `data` to, if any; write-ahead provenance has it flush the log
    /// first.
    fn log_write(
        &mut self,
        obj: Obj,
        offset: u64,
        data: &[u8],
        bundle: &Bundle,
        subjects: &mut impl Iterator<Item = ObjectRef>,
        grouped: bool,
    ) -> dpapi::Result<Option<Ino>> {
        let identity = subjects.next().expect("the written object's identity");
        self.log_bundle(bundle, subjects, grouped)?;
        let Obj::File(ino) = obj else {
            return Ok(None);
        };
        if data.is_empty() {
            return Ok(None);
        }
        let digest = md5(data);
        self.log_frame(grouped, |buf| {
            log::put_data_write(buf, identity, offset, data.len() as u32, &digest)
        })?;
        self.stats.data_writes += 1;
        Ok(Some(ino))
    }

    /// Checks a bundle's records against current state without
    /// producing any effect: every record must be wire-representable
    /// and every non-marker subject handle must resolve. Shared by
    /// `validate_op` and the zero-copy `pass_write` override so the
    /// two paths cannot drift.
    fn validate_bundle(&self, bundle: &Bundle) -> dpapi::Result<()> {
        for entry in bundle.entries() {
            let mut resolved = false;
            for rec in &entry.records {
                wire::validate_record(rec)?;
                if !resolved && txn_marker(rec).is_none() {
                    self.resolve(entry.handle)?;
                    resolved = true;
                }
            }
        }
        Ok(())
    }

    /// Checks one transaction op against current state without
    /// producing any effect — the atomicity guarantee of
    /// [`Dpapi::pass_commit`]: nothing is logged or written unless the
    /// whole batch validates.
    fn validate_op(&self, op: &DpapiOp) -> dpapi::Result<()> {
        match op {
            DpapiOp::Write { handle, bundle, .. } => {
                self.resolve(*handle)?;
                self.validate_bundle(bundle)
            }
            DpapiOp::Mkobj { .. } => Ok(()),
            DpapiOp::Freeze { handle } | DpapiOp::Sync { handle } => {
                self.resolve(*handle).map(|_| ())
            }
            DpapiOp::Revive { pnode, version } => {
                if pnode.volume != self.cfg.volume {
                    return Err(DpapiError::UnknownPnode(*pnode));
                }
                if let Some(cur) = self.app_objects.get(&pnode.number) {
                    if *version > *cur {
                        return Err(DpapiError::UnknownVersion(*pnode, *version));
                    }
                    return Ok(());
                }
                if self.ino_of_pnode.contains_key(&pnode.number) {
                    return Ok(());
                }
                Err(DpapiError::UnknownPnode(*pnode))
            }
        }
    }

    /// Applies one validated op to the volume's state and returns its
    /// result; what the op will log is resolved onto `subjects` and
    /// counted in `entries`, and written later by
    /// [`Lasagna::log_op`]. State mutations (version bumps, pnode
    /// allocation) happen in op order so identities reflect everything
    /// earlier in the batch.
    fn resolve_op(
        &mut self,
        op: &DpapiOp,
        subjects: &mut Vec<ObjectRef>,
        entries: &mut usize,
        wants_sync: &mut bool,
    ) -> dpapi::Result<OpResult> {
        match op {
            DpapiOp::Write {
                handle,
                data,
                bundle,
                ..
            } => {
                let obj = self.resolve(*handle)?;
                let identity = self.resolve_write(obj, bundle, subjects)?;
                *entries += bundle.record_count();
                if !data.is_empty() && matches!(obj, Obj::File(_)) {
                    *entries += 1;
                }
                Ok(OpResult::Written(WriteResult {
                    written: data.len(),
                    identity,
                }))
            }
            DpapiOp::Mkobj { .. } => {
                let p = self.alloc.allocate();
                self.app_objects.insert(p.number, Version::INITIAL);
                Ok(OpResult::Made(self.new_handle(Obj::App(p))))
            }
            DpapiOp::Freeze { handle } => {
                let obj = self.resolve(*handle)?;
                let subject = self.object_ref(obj);
                subjects.push(subject);
                *entries += 1;
                Ok(OpResult::Frozen(self.bump_version(subject.pnode)))
            }
            DpapiOp::Revive { pnode, version } => {
                if pnode.volume != self.cfg.volume {
                    return Err(DpapiError::UnknownPnode(*pnode));
                }
                if let Some(cur) = self.app_objects.get(&pnode.number) {
                    if *version > *cur {
                        return Err(DpapiError::UnknownVersion(*pnode, *version));
                    }
                    if let Some(h) = self.handle_of_pnode.get(&pnode.number) {
                        return Ok(OpResult::Revived(*h));
                    }
                    let h = self.new_handle(Obj::App(*pnode));
                    self.handle_of_pnode.insert(pnode.number, h);
                    return Ok(OpResult::Revived(h));
                }
                if let Some(ino) = self.ino_of_pnode.get(&pnode.number).copied() {
                    return Ok(OpResult::Revived(self.new_handle(Obj::File(ino))));
                }
                Err(DpapiError::UnknownPnode(*pnode))
            }
            DpapiOp::Sync { handle } => {
                self.resolve(*handle)?;
                *wants_sync = true;
                Ok(OpResult::Synced)
            }
        }
    }

    /// Writes the frames of one op [`Lasagna::resolve_op`] resolved —
    /// its bundle, then the digest of its data — and queues its data
    /// write. Write-ahead provenance: data writes are applied after
    /// the whole batch's entries are logged.
    fn log_op(
        &mut self,
        op: DpapiOp,
        subjects: &mut impl Iterator<Item = ObjectRef>,
        grouped: bool,
        data_writes: &mut Vec<(Ino, u64, Vec<u8>)>,
    ) -> dpapi::Result<()> {
        match op {
            DpapiOp::Write {
                handle,
                offset,
                data,
                bundle,
            } => {
                let obj = self.resolve(handle)?;
                if let Some(ino) = self.log_write(obj, offset, &data, &bundle, subjects, grouped)? {
                    data_writes.push((ino, offset, data));
                }
                Ok(())
            }
            DpapiOp::Freeze { .. } => {
                let subject = subjects.next().expect("the frozen object's identity");
                let freeze = ProvenanceRecord::freeze(subject.version.next());
                self.log_frame(grouped, |buf| {
                    log::put_prov(buf, subject, &freeze.attribute, &freeze.value)
                })?;
                self.stats.records_logged += 1;
                Ok(())
            }
            DpapiOp::Mkobj { .. } | DpapiOp::Revive { .. } | DpapiOp::Sync { .. } => Ok(()),
        }
    }

    /// Logs a multi-op batch as one group frame — the single
    /// length-prefixed record run that makes the batch atomic in the
    /// log (a torn tail drops it wholesale) — bracketed by the batch's
    /// transaction markers. `members` writes the `entries` frames in
    /// between; if anything fails the buffer and the counters are left
    /// as they were.
    fn log_group(
        &mut self,
        id: u64,
        entries: usize,
        members: impl FnOnce(&mut Lasagna) -> dpapi::Result<()>,
    ) -> dpapi::Result<()> {
        let (before, stats) = (self.log_buf.len(), self.stats);
        let group = log::open_group(&mut self.log_buf, entries as u32 + 2);
        let filled = self
            .log_frame(true, |buf| log::put_txn_marker(buf, true, id))
            .and_then(|()| members(self))
            .and_then(|()| self.log_frame(true, |buf| log::put_txn_marker(buf, false, id)));
        if let Err(e) = log::close_frame(&mut self.log_buf, group, filled) {
            self.stats = stats;
            return Err(e);
        }
        self.frames_logged(before);
        Ok(())
    }
}

/// A PA-NFS transaction marker riding a bundle as a record: `(is
/// BEGINTXN, transaction id)`. Markers describe no object, so their
/// handle is not resolved.
fn txn_marker(rec: &ProvenanceRecord) -> Option<(bool, u64)> {
    let begin = match rec.attribute {
        Attribute::BeginTxn => true,
        Attribute::EndTxn => false,
        _ => return None,
    };
    rec.value.as_int().map(|id| (begin, id as u64))
}

impl Dpapi for Lasagna {
    fn pass_read(&mut self, h: Handle, offset: u64, len: usize) -> dpapi::Result<ReadResult> {
        let obj = self.resolve(h)?;
        match obj {
            Obj::File(ino) => {
                let data = self
                    .lower
                    .read(ino, offset, len)
                    .map_err(DpapiError::from)?;
                // Double buffering: the stackable layer copies pages.
                self.clock.advance(self.model.copy_cost(data.len()));
                let identity = self.object_ref(obj);
                Ok(ReadResult { data, identity })
            }
            Obj::App(_) => Ok(ReadResult {
                data: Vec::new(),
                identity: self.object_ref(obj),
            }),
        }
    }

    /// Zero-copy override of the one-op default: this is the hottest
    /// path in the system (every intercepted OS write on a PASS
    /// volume lands here), so it logs and writes from the borrowed
    /// slice instead of cloning the data into a one-op [`Txn`].
    /// Semantics are identical to `pass_commit` of a single write —
    /// validate first (nothing logged on failure), log bundle then
    /// WAP digest, flush, write data.
    fn pass_write(
        &mut self,
        h: Handle,
        offset: u64,
        data: &[u8],
        bundle: Bundle,
    ) -> dpapi::Result<WriteResult> {
        let obj = self.resolve(h)?;
        self.validate_bundle(&bundle)?;
        let (identity, file) = self.with_subjects(|volume, subjects| {
            let identity = volume.resolve_write(obj, &bundle, subjects)?;
            let resolved = &mut subjects.iter().copied();
            let file = volume.log_write(obj, offset, data, &bundle, resolved, false)?;
            Ok::<_, DpapiError>((identity, file))
        })?;
        if let Some(ino) = file {
            self.flush_log_buf()?;
            self.clock.advance(self.model.copy_cost(data.len()));
            self.lower
                .write(ino, offset, data)
                .map_err(DpapiError::from)?;
        }
        Ok(WriteResult {
            written: data.len(),
            identity,
        })
    }

    /// Commits a disclosure transaction against the volume.
    ///
    /// The whole batch is validated first (nothing is logged or
    /// written on a validation failure — the abort names the failing
    /// op). A multi-op batch's provenance is then framed as **one
    /// group record** in the log ([`log::encode_group`]), bracketed by
    /// transaction markers so Waldo applies the members as one unit;
    /// a single-op commit logs plainly, byte-identical to the classic
    /// single-shot calls. Data writes follow write-ahead provenance:
    /// every log entry of the batch lands before any data byte.
    fn pass_commit(&mut self, txn: Txn) -> dpapi::Result<Vec<OpResult>> {
        let span = self.scope.open("lasagna", "pass_commit");
        let r = self.pass_commit_inner(txn);
        self.scope.close(span);
        r
    }

    fn pass_close(&mut self, h: Handle) -> dpapi::Result<()> {
        let obj = self.resolve(h)?;
        self.handles.remove(&h.raw());
        let (memo, key) = match obj {
            Obj::File(ino) => (&mut self.handle_of_ino, ino.0),
            Obj::App(p) => (&mut self.handle_of_pnode, p.number),
        };
        if memo.get(&key) == Some(&h) {
            memo.remove(&key);
        }
        Ok(())
    }
}

impl Lasagna {
    fn pass_commit_inner(&mut self, txn: Txn) -> dpapi::Result<Vec<OpResult>> {
        let ops = txn.into_ops();
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        for (i, op) in ops.iter().enumerate() {
            self.validate_op(op)
                .map_err(|e| DpapiError::aborted_at(i, e))?;
        }
        let mut data_writes: Vec<(Ino, u64, Vec<u8>)> = Vec::new();
        let mut wants_sync = false;
        let results = self.with_subjects(|volume, subjects| {
            volume.log_ops(ops, subjects, &mut data_writes, &mut wants_sync)
        })?;
        if !data_writes.is_empty() {
            self.flush_log_buf()?;
        }
        for (ino, offset, data) in data_writes {
            self.clock.advance(self.model.copy_cost(data.len()));
            self.lower
                .write(ino, offset, &data)
                .map_err(DpapiError::from)?;
        }
        if wants_sync {
            self.flush_log_buf()?;
            self.lower.fsync(self.log_file).map_err(DpapiError::from)?;
        }
        Ok(results)
    }

    /// The log half of a validated commit: applies every op to the
    /// volume's state ([`Lasagna::resolve_op`]), then writes the
    /// batch's frames ([`Lasagna::log_op`]) — one group for a multi-op
    /// batch, plain frames for a single op.
    fn log_ops(
        &mut self,
        ops: Vec<DpapiOp>,
        subjects: &mut Vec<ObjectRef>,
        data_writes: &mut Vec<(Ino, u64, Vec<u8>)>,
        wants_sync: &mut bool,
    ) -> dpapi::Result<Vec<OpResult>> {
        let batched = ops.len() > 1;
        let mut entries = 0usize;
        let mut results = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let r = self
                .resolve_op(op, subjects, &mut entries, wants_sync)
                .map_err(|e| DpapiError::aborted_at(i, e))?;
            results.push(r);
        }
        let grouped = batched && entries > 0;
        let mut subjects = subjects.iter().copied();
        let members = |volume: &mut Lasagna| {
            ops.into_iter()
                .try_for_each(|op| volume.log_op(op, &mut subjects, grouped, data_writes))
        };
        if grouped {
            let id = self.alloc_batch_id();
            // The batch id is the transaction's identity across
            // layers: bind the open trace window to it so the span
            // tree and the asynchronous Waldo ingest of this group
            // frame share one trace.
            self.scope.bind_trace(provscope::TraceId(id));
            self.log_group(id, entries, members)?;
        } else {
            members(self)?;
        }
        if batched {
            self.stats.batch_commits += 1;
            self.stats.batched_ops += results.len() as u64;
        }
        Ok(results)
    }
}

impl DpapiVolume for Lasagna {
    fn volume(&self) -> VolumeId {
        self.cfg.volume
    }

    fn handle_for_ino(&mut self, ino: Ino) -> dpapi::Result<Handle> {
        if let Some(h) = self.handle_of_ino.get(&ino.0) {
            return Ok(*h);
        }
        let h = self.new_handle(Obj::File(ino));
        self.handle_of_ino.insert(ino.0, h);
        Ok(h)
    }

    fn identity_of_ino(&mut self, ino: Ino) -> dpapi::Result<ObjectRef> {
        let p = self.pnode_for_ino(ino);
        Ok(ObjectRef::new(p, self.version_of(p)))
    }

    fn take_log_rotations(&mut self) -> Vec<String> {
        std::mem::take(&mut self.rotated)
    }

    fn force_log_rotation(&mut self) {
        // Frames the lower file system would not take stay buffered,
        // and their log stays open, for the next attempt.
        if self.flush_log_buf().is_ok() && self.log_written > 0 {
            self.rotate_log();
        }
    }

    fn set_scope(&mut self, scope: provscope::Scope) {
        self.scope = scope;
    }
}

impl FileSystem for Lasagna {
    fn root(&self) -> Ino {
        self.lower.root()
    }

    fn lookup(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        self.lower.lookup(dir, name)
    }

    fn create(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        let ino = self.lower.create(dir, name)?;
        // Assign identity eagerly: creation is a provenance event.
        let _ = self.pnode_for_ino(ino);
        Ok(ino)
    }

    fn mkdir(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        self.lower.mkdir(dir, name)
    }

    fn unlink(&mut self, dir: Ino, name: &str) -> FsResult<()> {
        // Provenance survives the object: pnodes are never recycled,
        // so the log and database keep describing the dead file.
        let ino = self.lower.lookup(dir, name)?;
        self.lower.unlink(dir, name)?;
        if let Some(p) = self.pnode_of_ino.remove(&ino.0) {
            self.ino_of_pnode.remove(&p.number);
        }
        self.handle_of_ino.remove(&ino.0);
        Ok(())
    }

    fn rename(&mut self, from: Ino, name: &str, to: Ino, to_name: &str) -> FsResult<()> {
        // If the target exists it is replaced; clean its identity map.
        if let Ok(victim) = self.lower.lookup(to, to_name) {
            if let Some(p) = self.pnode_of_ino.remove(&victim.0) {
                self.ino_of_pnode.remove(&p.number);
            }
        }
        // The renamed file keeps its inode, hence its pnode: this is
        // what keeps provenance attached across renames (§3.2).
        self.lower.rename(from, name, to, to_name)
    }

    fn read(&mut self, ino: Ino, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let data = self.lower.read(ino, offset, len)?;
        self.clock.advance(self.model.copy_cost(data.len()));
        Ok(data)
    }

    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        // Route plain writes through the DPAPI path with an empty
        // bundle so WAP digests still cover them.
        let h = self.handle_for_ino(ino)?;
        let res = self.pass_write(h, offset, data, Bundle::new())?;
        Ok(res.written)
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        self.lower.truncate(ino, size)
    }

    fn getattr(&mut self, ino: Ino) -> FsResult<FileAttr> {
        self.lower.getattr(ino)
    }

    fn readdir(&mut self, dir: Ino) -> FsResult<Vec<DirEntry>> {
        let mut entries = self.lower.readdir(dir)?;
        if dir == self.lower.root() {
            entries.retain(|e| e.name != PASS_DIR);
        }
        Ok(entries)
    }

    fn sync(&mut self) -> FsResult<()> {
        self.flush_log_buf()?;
        self.lower.sync()
    }

    fn fsync(&mut self, ino: Ino) -> FsResult<()> {
        // WAP needs the log *ordered* before the data, not synchronous:
        // push buffered entries into the lower page cache (the elevator
        // writes the log region first within a batch), then flush the
        // file itself.
        self.flush_log_buf()?;
        self.lower.fsync(ino)
    }

    fn usage(&self) -> FsUsage {
        let lower = self.lower.usage();
        // Live log bytes: whatever has been appended to logs that have
        // not been consumed; approximate with current log + buffered.
        let provenance = self.log_written + self.log_buf.len() as u64;
        FsUsage {
            data_bytes: lower.data_bytes.saturating_sub(provenance),
            meta_bytes: lower.meta_bytes,
            provenance_bytes: provenance,
        }
    }

    fn as_dpapi(&mut self) -> Option<&mut dyn DpapiVolume> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{parse_log, LogEntry, LogTail};
    use sim_os::fs::basefs::BaseFs;

    fn volume() -> Lasagna {
        let clock = Clock::new();
        let model = CostModel::default();
        let lower = BaseFs::new(clock.clone(), model);
        Lasagna::new(
            Box::new(lower),
            clock,
            model,
            LasagnaConfig::new(VolumeId(1)),
        )
        .unwrap()
    }

    fn read_log(v: &mut Lasagna) -> Vec<LogEntry> {
        v.flush_log_buf().unwrap();
        let mut out = Vec::new();
        let root = v.lower.root();
        let dir = v.lower.lookup(root, PASS_DIR).unwrap();
        let logs = v.lower.readdir(dir).unwrap();
        for l in logs {
            let size = v.lower.getattr(l.ino).unwrap().size as usize;
            let bytes = v.lower.read(l.ino, 0, size).unwrap();
            let (entries, tail) = parse_log(&bytes);
            assert_eq!(tail, LogTail::Clean);
            out.extend(entries);
        }
        out
    }

    #[test]
    fn create_assigns_stable_pnode() {
        let mut v = volume();
        let root = v.root();
        let ino = v.create(root, "f").unwrap();
        let id1 = v.identity_of_ino(ino).unwrap();
        let id2 = v.identity_of_ino(ino).unwrap();
        assert_eq!(id1, id2);
        assert_eq!(id1.pnode.volume, VolumeId(1));
        assert_eq!(id1.version, Version::INITIAL);
    }

    #[test]
    fn pass_write_logs_wap_digest_before_data() {
        let mut v = volume();
        let root = v.root();
        let ino = v.create(root, "out").unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        v.pass_write(h, 0, b"payload", Bundle::new()).unwrap();
        let entries = read_log(&mut v);
        let dw = entries
            .iter()
            .find_map(|e| match e {
                LogEntry::DataWrite { digest, len, .. } => Some((*digest, *len)),
                _ => None,
            })
            .expect("DataWrite entry missing");
        assert_eq!(dw.0, md5(b"payload"));
        assert_eq!(dw.1, 7);
        // And the data itself is readable.
        assert_eq!(v.read(ino, 0, 7).unwrap(), b"payload");
    }

    #[test]
    fn bundle_records_reach_the_log_with_subjects() {
        let mut v = volume();
        let root = v.root();
        let ino = v.create(root, "out").unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        let mut b = Bundle::new();
        b.push(h, ProvenanceRecord::new(Attribute::Name, Value::str("out")));
        v.pass_write(h, 0, b"x", b).unwrap();
        let entries = read_log(&mut v);
        let id = v.identity_of_ino(ino).unwrap();
        assert!(entries.iter().any(|e| matches!(
            e,
            LogEntry::Prov { subject, record }
                if *subject == id && record.attribute == Attribute::Name
        )));
    }

    #[test]
    fn freeze_bumps_version_and_read_sees_it() {
        let mut v = volume();
        let root = v.root();
        let ino = v.create(root, "f").unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        assert_eq!(v.pass_freeze(h).unwrap(), Version(1));
        assert_eq!(v.pass_freeze(h).unwrap(), Version(2));
        let r = v.pass_read(h, 0, 0).unwrap();
        assert_eq!(r.identity.version, Version(2));
    }

    #[test]
    fn freeze_record_in_bundle_bumps_version_in_order() {
        let mut v = volume();
        let root = v.root();
        let ino = v.create(root, "f").unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        let mut b = Bundle::new();
        b.push(h, ProvenanceRecord::freeze(Version(1)));
        let w = v.pass_write(h, 0, b"data", b).unwrap();
        // The write happened at the *new* version.
        assert_eq!(w.identity.version, Version(1));
    }

    #[test]
    fn mkobj_and_reviveobj_roundtrip() {
        let mut v = volume();
        let h = v.pass_mkobj(None).unwrap();
        let id = v.pass_read(h, 0, 0).unwrap().identity;
        v.pass_close(h).unwrap();
        let h2 = v.pass_reviveobj(id.pnode, id.version).unwrap();
        let id2 = v.pass_read(h2, 0, 0).unwrap().identity;
        assert_eq!(id.pnode, id2.pnode);
        // Unknown pnodes are rejected.
        let bogus = Pnode::new(VolumeId(1), 99_999);
        assert!(matches!(
            v.pass_reviveobj(bogus, Version(0)),
            Err(DpapiError::UnknownPnode(_))
        ));
        // Wrong volume is rejected.
        let foreign = Pnode::new(VolumeId(9), 1);
        assert!(v.pass_reviveobj(foreign, Version(0)).is_err());
    }

    #[test]
    fn rename_preserves_identity_attribution_use_case() {
        // §3.2: the professor renames a downloaded file; PASSv2 keeps
        // file and provenance connected.
        let mut v = volume();
        let root = v.root();
        let ino = v.create(root, "download.gif").unwrap();
        let before = v.identity_of_ino(ino).unwrap();
        v.rename(root, "download.gif", root, "figure1.gif").unwrap();
        let after = v.identity_of_ino(ino).unwrap();
        assert_eq!(before.pnode, after.pnode);
    }

    #[test]
    fn log_rotation_reports_closed_logs() {
        let clock = Clock::new();
        let model = CostModel::default();
        let lower = BaseFs::new(clock.clone(), model);
        let mut cfg = LasagnaConfig::new(VolumeId(1));
        cfg.log_max_bytes = 256; // tiny, to force rotations
        cfg.log_buf_bytes = 64;
        let mut v = Lasagna::new(Box::new(lower), clock, model, cfg).unwrap();
        let root = v.root();
        let ino = v.create(root, "f").unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        for i in 0..20 {
            v.pass_write(h, i * 8, b"01234567", Bundle::new()).unwrap();
        }
        let rotations = v.take_log_rotations();
        assert!(
            rotations.len() >= 2,
            "expected several rotations, got {rotations:?}"
        );
        assert!(rotations[0].starts_with(".pass/log."));
        // Drained: second call is empty.
        assert!(v.take_log_rotations().is_empty());
    }

    #[test]
    fn force_rotation_flushes_pending_provenance() {
        let mut v = volume();
        let root = v.root();
        let ino = v.create(root, "f").unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        v.pass_write(h, 0, b"data", Bundle::new()).unwrap();
        v.force_log_rotation();
        let logs = v.take_log_rotations();
        assert_eq!(logs, vec![".pass/log.0".to_string()]);
    }

    #[test]
    fn pass_dir_hidden_from_root_readdir() {
        let mut v = volume();
        let root = v.root();
        v.create(root, "visible").unwrap();
        let names: Vec<String> = v
            .readdir(root)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["visible"]);
        // But still reachable by lookup (Waldo reads logs through it).
        assert!(v.lookup(root, PASS_DIR).is_ok());
    }

    #[test]
    fn usage_separates_provenance_from_data() {
        let mut v = volume();
        let root = v.root();
        let ino = v.create(root, "f").unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        v.pass_write(h, 0, &vec![7u8; 10_000], Bundle::new())
            .unwrap();
        v.sync().unwrap();
        let u = v.usage();
        assert_eq!(u.data_bytes, 10_000);
        assert!(u.provenance_bytes > 0);
    }

    #[test]
    fn stats_count_records_and_writes() {
        let mut v = volume();
        let root = v.root();
        let ino = v.create(root, "f").unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        let mut b = Bundle::new();
        b.push(
            h,
            ProvenanceRecord::new(Attribute::Type, Value::str("FILE")),
        );
        v.pass_write(h, 0, b"z", b).unwrap();
        let s = v.stats();
        assert_eq!(s.data_writes, 1);
        // INO binding record + TYPE record.
        assert_eq!(s.records_logged, 2);
        assert!(s.provenance_bytes > 0);
    }

    fn raw_log(v: &mut Lasagna) -> Vec<u8> {
        v.flush_log_buf().unwrap();
        let mut out = Vec::new();
        let root = v.lower.root();
        let dir = v.lower.lookup(root, PASS_DIR).unwrap();
        let logs = v.lower.readdir(dir).unwrap();
        for l in logs {
            let size = v.lower.getattr(l.ino).unwrap().size as usize;
            out.extend(v.lower.read(l.ino, 0, size).unwrap());
        }
        out
    }

    #[test]
    fn batch_commit_frames_one_group_with_txn_markers() {
        let mut v = volume();
        let root = v.root();
        let ino = v.create(root, "f").unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        let mut b = Bundle::new();
        b.push(h, ProvenanceRecord::new(Attribute::Name, Value::str("f")));
        let mut txn = dpapi::Txn::new();
        txn.write(h, 0, b"payload".to_vec(), b).freeze(h).sync(h);
        let results = v.pass_commit(txn).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_written().unwrap().written, 7);
        assert_eq!(results[1].as_version(), Some(Version(1)));
        let s = v.stats();
        assert_eq!(s.batch_commits, 1);
        assert_eq!(s.batched_ops, 3);
        // On disk: exactly one group frame, whose members are wrapped
        // in matching transaction markers from the batch id space.
        let bytes = raw_log(&mut v);
        assert_eq!(crate::log::group_count(&bytes), 1);
        let (entries, tail) = parse_log(&bytes);
        assert_eq!(tail, LogTail::Clean);
        let begin = entries
            .iter()
            .position(|e| matches!(e, LogEntry::TxnBegin { id } if *id & super::BATCH_TXN_TAG != 0))
            .expect("batch TxnBegin in log");
        let end = entries
            .iter()
            .position(|e| matches!(e, LogEntry::TxnEnd { id } if *id & super::BATCH_TXN_TAG != 0))
            .expect("batch TxnEnd in log");
        assert!(begin < end, "markers bracket the batch");
        // The data write's WAP digest is one of the bracketed members.
        assert!(entries[begin..end]
            .iter()
            .any(|e| matches!(e, LogEntry::DataWrite { len: 7, .. })));
        // And the data itself landed after the log entries.
        assert_eq!(v.read(ino, 0, 7).unwrap(), b"payload");
    }

    #[test]
    fn aborted_batch_has_no_effect() {
        let mut v = volume();
        let root = v.root();
        let ino = v.create(root, "f").unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        v.pass_write(h, 0, b"before", Bundle::new()).unwrap();
        let stats_before = v.stats();
        let bytes_before = v.stats().provenance_bytes;
        let version_before = v.identity_of_ino(ino).unwrap().version;
        let bogus = Handle::from_raw(9999);
        let mut txn = dpapi::Txn::new();
        txn.write(h, 0, b"after".to_vec(), Bundle::new())
            .freeze(bogus);
        let err = v.pass_commit(txn).unwrap_err();
        assert_eq!(err, DpapiError::aborted_at(1, DpapiError::InvalidHandle));
        // Atomicity: nothing was logged, versioned or written.
        assert_eq!(v.stats().provenance_bytes, bytes_before);
        assert_eq!(v.stats().records_logged, stats_before.records_logged);
        assert_eq!(v.identity_of_ino(ino).unwrap().version, version_before);
        assert_eq!(v.read(ino, 0, 6).unwrap(), b"before");
    }

    #[test]
    fn batch_with_malformed_record_aborts_before_logging() {
        let mut v = volume();
        let root = v.root();
        let ino = v.create(root, "f").unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        let bytes_before = v.stats().provenance_bytes;
        let mut bad = Bundle::new();
        bad.push(
            h,
            ProvenanceRecord::new(
                Attribute::Other("N".repeat(u16::MAX as usize + 1)),
                Value::Int(1),
            ),
        );
        let mut txn = dpapi::Txn::new();
        txn.freeze(h).write(h, 0, b"data".to_vec(), bad);
        let err = v.pass_commit(txn).unwrap_err();
        assert!(
            matches!(
                &err,
                DpapiError::TxnAborted { failed_op: 1, cause } if matches!(**cause, DpapiError::Malformed(_))
            ),
            "got {err:?}"
        );
        assert_eq!(v.stats().provenance_bytes, bytes_before);
        // The freeze validated fine but must not have applied either.
        assert_eq!(v.identity_of_ino(ino).unwrap().version, Version(0));
    }

    /// A base file system whose next `budget` writes fail, as a full or
    /// failing disk would make them; everything else passes through.
    struct FlakyFs {
        inner: BaseFs,
        failing_writes: std::rc::Rc<std::cell::Cell<u32>>,
    }

    impl FileSystem for FlakyFs {
        fn root(&self) -> Ino {
            self.inner.root()
        }
        fn lookup(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
            self.inner.lookup(dir, name)
        }
        fn create(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
            self.inner.create(dir, name)
        }
        fn mkdir(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
            self.inner.mkdir(dir, name)
        }
        fn unlink(&mut self, dir: Ino, name: &str) -> FsResult<()> {
            self.inner.unlink(dir, name)
        }
        fn rename(&mut self, from: Ino, name: &str, to: Ino, to_name: &str) -> FsResult<()> {
            self.inner.rename(from, name, to, to_name)
        }
        fn read(&mut self, ino: Ino, offset: u64, len: usize) -> FsResult<Vec<u8>> {
            self.inner.read(ino, offset, len)
        }
        fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
            if self.failing_writes.get() > 0 {
                self.failing_writes.set(self.failing_writes.get() - 1);
                return Err(FsError::NoSpace);
            }
            self.inner.write(ino, offset, data)
        }
        fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
            self.inner.truncate(ino, size)
        }
        fn getattr(&mut self, ino: Ino) -> FsResult<FileAttr> {
            self.inner.getattr(ino)
        }
        fn readdir(&mut self, dir: Ino) -> FsResult<Vec<DirEntry>> {
            self.inner.readdir(dir)
        }
        fn sync(&mut self) -> FsResult<()> {
            self.inner.sync()
        }
        fn usage(&self) -> FsUsage {
            self.inner.usage()
        }
    }

    /// Write-ahead provenance under a failing log write (§5.6: data
    /// never reaches the disk without its provenance). The flush ahead
    /// of a data write used to ignore the lower file system's answer:
    /// the buffer was dropped, the offset advanced past a hole and the
    /// data written all the same.
    #[test]
    fn failed_log_write_stops_the_data_write_and_is_retried_in_place() {
        let clock = Clock::new();
        let model = CostModel::default();
        let failing_writes = std::rc::Rc::new(std::cell::Cell::new(0));
        let lower = FlakyFs {
            inner: BaseFs::new(clock.clone(), model),
            failing_writes: failing_writes.clone(),
        };
        let cfg = LasagnaConfig::new(VolumeId(1));
        let mut v = Lasagna::new(Box::new(lower), clock, model, cfg).unwrap();
        let root = v.root();
        let ino = v.create(root, "f").unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        v.pass_write(h, 0, b"before", Bundle::new()).unwrap();

        // The next lower write is the log flush guarding the data.
        failing_writes.set(1);
        let err = v.pass_write(h, 0, b"lost!!", Bundle::new()).unwrap_err();
        assert!(matches!(err, DpapiError::Io(_)), "got {err:?}");
        assert_eq!(failing_writes.get(), 0, "exactly the log write failed");
        assert_eq!(v.read(ino, 0, 6).unwrap(), b"before", "no data byte moved");
        assert_eq!(v.stats().log_write_failures, 1);

        // The fault has cleared: the kept frames go out with the next
        // flush, at the offset they were due, ahead of the new ones.
        let mut b = Bundle::new();
        b.push(h, ProvenanceRecord::new(Attribute::Name, Value::str("f")));
        let mut txn = dpapi::Txn::new();
        txn.write(h, 0, b"kept".to_vec(), b).freeze(h);
        v.pass_commit(txn).unwrap();
        assert_eq!(v.read(ino, 0, 6).unwrap(), b"keptre");
        assert_eq!(v.stats().log_write_failures, 1);

        let bytes = raw_log(&mut v);
        let (entries, tail) = parse_log(&bytes);
        assert_eq!(tail, LogTail::Clean, "no hole, no torn frame");
        let shape: Vec<String> = entries
            .iter()
            .map(|e| match e {
                LogEntry::Prov { record, .. } => record.attribute.to_string(),
                LogEntry::DataWrite { digest, .. } => {
                    let data: &[&[u8]] = &[b"before", b"lost!!", b"kept"];
                    let which = data
                        .iter()
                        .find(|d| md5(d) == *digest)
                        .expect("a known write");
                    format!("DATA {}", String::from_utf8_lossy(which))
                }
                LogEntry::TxnBegin { .. } => "BEGIN".to_string(),
                LogEntry::TxnEnd { .. } => "END".to_string(),
            })
            .collect();
        assert_eq!(
            shape,
            [
                "INO",
                "DATA before",
                "DATA lost!!",
                "BEGIN",
                "NAME",
                "DATA kept",
                "FREEZE",
                "END"
            ],
            "every entry exactly once, in the order it was logged"
        );
    }

    #[test]
    fn invalid_handle_is_rejected() {
        let mut v = volume();
        let bogus = Handle::from_raw(777);
        assert!(matches!(
            v.pass_read(bogus, 0, 1),
            Err(DpapiError::InvalidHandle)
        ));
        assert!(matches!(
            v.pass_write(bogus, 0, b"", Bundle::new()),
            Err(DpapiError::InvalidHandle)
        ));
        assert!(matches!(
            v.pass_freeze(bogus),
            Err(DpapiError::InvalidHandle)
        ));
    }
}
