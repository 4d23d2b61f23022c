//! Group-commit crash recovery.
//!
//! The contract: all durable state (shards, open-transaction buffers,
//! per-log-file high-water marks) moves only inside
//! `Store::commit_staged`, and the daemon unlinks a log only when
//! every one of its entries has committed. A crash between group
//! commits therefore loses exactly the staged suffix, and replaying
//! the surviving logs from the recorded marks applies each entry
//! exactly once.

use std::cell::Cell;
use std::rc::Rc;

use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
use lasagna::{Lasagna, LasagnaConfig, LogEntry};
use passv2::System;
use sim_os::cost::CostModel;
use sim_os::fs::basefs::BaseFs;
use sim_os::fs::{DirEntry, FileAttr, FileSystem, FsError, FsResult, FsUsage, Ino};
use waldo::{Cluster, IngestStats, Store, Waldo, WaldoConfig};

fn r(n: u64, v: u32) -> ObjectRef {
    ObjectRef::new(Pnode::new(VolumeId(1), n), Version(v))
}

fn prov(subject: ObjectRef, attr: Attribute, value: Value) -> LogEntry {
    LogEntry::Prov {
        subject,
        record: ProvenanceRecord::new(attr, value),
    }
}

/// A stream with a transaction straddling what will be batch
/// boundaries, plus plain records on both sides.
fn stream() -> Vec<LogEntry> {
    let mut s = Vec::new();
    for i in 0..6u64 {
        s.push(prov(
            r(i, 0),
            Attribute::Name,
            Value::str(format!("/pre{i}")),
        ));
        s.push(prov(r(i, 0), Attribute::Type, Value::str("FILE")));
    }
    s.push(LogEntry::TxnBegin { id: 42 });
    for i in 6..11u64 {
        s.push(prov(
            r(i, 0),
            Attribute::Name,
            Value::str(format!("/txn{i}")),
        ));
        s.push(prov(r(i, 0), Attribute::Input, Value::Xref(r(i - 6, 0))));
        // An application attribute, so recovery equivalence also
        // covers the generalized attribute index.
        s.push(prov(
            r(i, 0),
            Attribute::Other("PHASE".into()),
            Value::str(if i % 2 == 0 { "align" } else { "slice" }),
        ));
    }
    s.push(LogEntry::TxnEnd { id: 42 });
    for i in 11..16u64 {
        s.push(prov(
            r(i, 0),
            Attribute::Name,
            Value::str(format!("/post{i}")),
        ));
        s.push(prov(r(i, 0), Attribute::Input, Value::Xref(r(6, 0))));
    }
    s
}

fn reference_db(entries: &[LogEntry]) -> Store {
    let db = Store::with_config(WaldoConfig {
        shards: 1,
        ingest_batch: 1 << 20,
        ancestry_cache: 0,
        ..WaldoConfig::default()
    });
    db.ingest(entries);
    db
}

fn assert_same_db(a: &Store, b: &Store) {
    assert_eq!(a.object_count(), b.object_count());
    assert_eq!(a.size(), b.size(), "duplicate replay would inflate sizes");
    assert_eq!(a.open_txns(), b.open_txns());
    for n in 0..16u64 {
        let node = Pnode::new(VolumeId(1), n);
        assert_eq!(a.descendants(node), b.descendants(node), "pnode {n}");
        let vref = ObjectRef::new(node, Version(0));
        assert_eq!(a.ancestors(vref), b.ancestors(vref), "pnode {n}");
        if let (Some(oa), Some(ob)) = (a.object(node), b.object(node)) {
            assert_eq!(oa.attrs(Version(0)), ob.attrs(Version(0)), "pnode {n}");
        } else {
            assert_eq!(a.object(node).is_none(), b.object(node).is_none());
        }
    }
}

/// Store-level crash: commit part of a registered source in small
/// batches, crash with entries staged (and the transaction context
/// mid-flight), then replay from the recorded high-water mark. The
/// result matches a crash-free one-shot ingest exactly — no entry is
/// lost or applied twice.
#[test]
fn crash_mid_batch_recovers_exactly_once() {
    let entries = stream();
    let reference = reference_db(&entries);
    let total = entries.len();

    // Try crashing at every batch boundary (and mid-stage) position.
    for committed_prefix in [3usize, 8, 14, 17, 20, 24] {
        let cfg = WaldoConfig {
            shards: 8,
            ingest_batch: 4,
            ancestry_cache: 0,
            ..WaldoConfig::default()
        };
        let db = Store::with_config(cfg);
        let (src, mark) = db.register_source("vol1/.pass/log.0");
        assert_eq!(mark, 0);
        db.begin_stream();
        let mut stats = IngestStats::default();
        // Stage and commit up to `committed_prefix` entries, in
        // batches of 4.
        for e in entries.iter().take(committed_prefix).cloned() {
            db.stage(e, Some(src));
            if db.staged_len() >= 4 {
                db.commit_staged(&mut stats);
            }
        }
        // A few more staged but never committed: the crash loses them.
        for e in entries.iter().skip(committed_prefix).take(2).cloned() {
            db.stage(e, Some(src));
        }
        db.drop_staged(); // the crash

        // Restart: the daemon re-reads the surviving log and skips the
        // committed prefix recorded in the store.
        let (src2, mark) = db.register_source("vol1/.pass/log.0");
        assert_eq!(src2, src, "same file resolves to the same source");
        assert!(
            mark <= committed_prefix,
            "mark {mark} must not run ahead of commits ({committed_prefix})"
        );
        // No stream reset: the committed transaction context sits
        // exactly at the mark.
        for e in entries.iter().skip(mark).cloned() {
            db.stage(e, Some(src2));
            if db.staged_len() >= 4 {
                db.commit_staged(&mut stats);
            }
        }
        db.commit_staged(&mut stats);
        assert!(db.source_fully_committed(src2, total));
        assert_same_db(&reference, &db);

        // The same crash one level up: a daemon adopts a store that
        // died with this prefix of the first log committed, and every
        // entry point that can name a replay source finishes it alike.
        daemon_entry_points_agree(Some(committed_prefix));
    }
    // No crash: the by-value entry point joins the comparison.
    daemon_entry_points_agree(None);
}

fn encode(entries: &[LogEntry]) -> bytes::BytesMut {
    let mut buf = bytes::BytesMut::new();
    for e in entries {
        lasagna::encode_entry(&mut buf, e).unwrap();
    }
    buf
}

/// Six named files on pnodes `base..base + 6`, clear of `stream()`'s.
fn extra_files(base: u64) -> Vec<LogEntry> {
    (base..base + 6)
        .flat_map(|i| {
            [
                prov(r(i, 0), Attribute::Name, Value::str(format!("/extra{i}"))),
                prov(r(i, 0), Attribute::Type, Value::str("FILE")),
            ]
        })
        .collect()
}

/// The log set every daemon entry point must ingest alike, as `(path,
/// image, entries that survive parsing)`: `stream()` with its
/// transaction as one group frame (17 entries, so it spans several
/// 4-entry batches), a clean log, a log cut inside its last frame, and
/// a log with a bit flipped in its last frame.
fn log_set() -> Vec<(&'static str, Vec<u8>, Vec<LogEntry>)> {
    let s = stream();
    let begin = s
        .iter()
        .position(|e| matches!(e, LogEntry::TxnBegin { .. }))
        .unwrap();
    let end = s
        .iter()
        .position(|e| matches!(e, LogEntry::TxnEnd { .. }))
        .unwrap();
    let mut grouped = encode(&s[..begin]);
    lasagna::encode_group(&mut grouped, &s[begin..=end]).unwrap();
    grouped.extend_from_slice(&encode(&s[end + 1..]));

    let (clean, cut, flipped) = (extra_files(20), extra_files(30), extra_files(40));
    let mut cut_image = encode(&cut).to_vec();
    cut_image.truncate(cut_image.len() - 3);
    let mut flipped_image = encode(&flipped).to_vec();
    let last = flipped_image.len() - 6; // inside the last frame's payload
    flipped_image[last] ^= 0x10;
    vec![
        ("/logs/grouped", grouped.to_vec(), s),
        ("/logs/clean", encode(&clean).to_vec(), clean),
        ("/logs/cut", cut_image, cut[..cut.len() - 1].to_vec()),
        (
            "/logs/flipped",
            flipped_image,
            flipped[..flipped.len() - 1].to_vec(),
        ),
    ]
}

#[derive(Clone, Copy, Debug)]
enum EntryPoint {
    /// `ingest_log_file`, one call per log.
    Files,
    /// `ingest_log_image`, one call per log (no replay source).
    ByValue,
}

/// What one run of the log set left behind.
#[derive(Debug)]
struct Ingested {
    images: Vec<Vec<u8>>,
    stats: IngestStats,
    tail_errors: (u64, u64),
    /// `(source handle, committed mark)` per log, before the
    /// checkpoint unlinks them.
    marks: Vec<(usize, usize)>,
    logs_left: Vec<String>,
    logs_retired: u64,
}

/// Ingests `log_set()` through one daemon entry point on a durable
/// daemon, then checkpoints so covered logs are unlinked. With
/// `resume`, the daemon adopts a store whose predecessor committed
/// that many entries of the first log (in batches of 4), staged two
/// more and crashed.
fn ingest_log_set(entry: EntryPoint, resume: Option<usize>) -> (Ingested, Store) {
    let cfg = WaldoConfig {
        shards: 8,
        ingest_batch: 4,
        ancestry_cache: 0,
        checkpoint_commits: 0, // the one manual checkpoint below
        checkpoint_wal_bytes: 0,
        keep_checkpoints: 1,
    };
    let logs = log_set();
    let mut sys = System::baseline();
    let pid = sys.kernel.spawn_init("waldo");
    sys.kernel.mkdir_p(pid, "/logs").unwrap();
    for (path, image, _) in &logs {
        sys.kernel.write_file(pid, path, image).unwrap();
    }

    let db = Store::with_config(cfg);
    if let Some(committed_prefix) = resume {
        let (path, _, entries) = &logs[0];
        let (src, _) = db.register_source(path);
        db.begin_stream();
        let mut stats = IngestStats::default();
        for e in entries.iter().take(committed_prefix).cloned() {
            db.stage(e, Some(src));
            if db.staged_len() >= 4 {
                db.commit_staged(&mut stats);
            }
        }
        for e in entries.iter().skip(committed_prefix).take(2).cloned() {
            db.stage(e, Some(src));
        }
    }
    let mut waldo = Waldo::resume(pid, db); // drops the staged suffix
    waldo.attach_db_dir(&mut sys.kernel, "/waldo-db").unwrap();

    let mut stats = IngestStats::default();
    for (path, image, _) in &logs {
        stats += match entry {
            EntryPoint::Files => waldo.ingest_log_file(&mut sys.kernel, path),
            EntryPoint::ByValue => waldo.ingest_log_image(&mut sys.kernel, image),
        };
    }
    let marks = match entry {
        EntryPoint::ByValue => Vec::new(),
        EntryPoint::Files => logs
            .iter()
            .map(|(path, _, _)| waldo.db.register_source(path))
            .collect(),
    };
    assert!(waldo.checkpoint(&mut sys.kernel).unwrap());

    let mut logs_left: Vec<String> = sys
        .kernel
        .readdir(pid, "/logs")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    logs_left.sort();
    let ingested = Ingested {
        images: waldo.db.segment_images(),
        stats,
        tail_errors: waldo.log_tail_errors(),
        marks,
        logs_left,
        logs_retired: waldo.checkpoint_stats().logs_retired,
    };
    (ingested, waldo.db)
}

/// Every daemon entry point is the same ingest loop: over one log set
/// they leave byte-equal stores and equal counters, and the one that
/// names a replay source (the file path) also commits every log to its
/// last parsed entry and unlinks it once a checkpoint covers it.
fn daemon_entry_points_agree(resume: Option<usize>) {
    let (files, db) = ingest_log_set(EntryPoint::Files, resume);
    let parsed: Vec<Vec<LogEntry>> = log_set().into_iter().map(|(_, _, e)| e).collect();
    assert_same_db(&reference_db(&parsed.concat()), &db);
    assert_eq!(files.stats.txns_committed, 1, "resume {resume:?}");
    assert_eq!(files.stats.tails_truncated, 1, "resume {resume:?}");
    assert_eq!(files.stats.tails_corrupt, 1, "resume {resume:?}");
    assert_eq!(files.tail_errors, (1, 1), "resume {resume:?}");
    let marks: Vec<usize> = files.marks.iter().map(|(_, mark)| *mark).collect();
    let parsed: Vec<usize> = parsed.iter().map(Vec::len).collect();
    assert_eq!(marks, parsed, "every log commits to its last parsed entry");
    assert_eq!(files.logs_left, Vec::<String>::new(), "resume {resume:?}");
    assert_eq!(files.logs_retired, 4, "resume {resume:?}");

    if resume.is_none() {
        // Unnamed images: nothing to mark, retire or unlink — the
        // store and the counters are the comparison.
        let (by_value, _) = ingest_log_set(EntryPoint::ByValue, None);
        assert_eq!(by_value.images, files.images);
        assert_eq!(by_value.stats, files.stats);
        assert_eq!(by_value.tail_errors, files.tail_errors);
        assert_eq!(by_value.logs_left.len(), 4);
    }
}

/// A plain file system that fails on demand: `fsync` while `fail` is
/// set (the database volume of the WAL-failure regression test
/// below), and the next `fail_reads` reads / `fail_unlinks` unlinks
/// (the base under the PASS volume of the unreadable-log and
/// failed-unlink tests).
struct FlakyFs {
    inner: BaseFs,
    fail: Rc<Cell<bool>>,
    fail_reads: Rc<Cell<u32>>,
    fail_unlinks: Rc<Cell<u32>>,
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
        if self.fail_unlinks.get() > 0 {
            self.fail_unlinks.set(self.fail_unlinks.get() - 1);
            return Err(FsError::Invalid("injected unlink failure".into()));
        }
        self.inner.unlink(dir, name)
    }
    fn rename(&mut self, from: Ino, name: &str, to: Ino, to_name: &str) -> FsResult<()> {
        self.inner.rename(from, name, to, to_name)
    }
    fn read(&mut self, ino: Ino, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        if self.fail_reads.get() > 0 {
            self.fail_reads.set(self.fail_reads.get() - 1);
            return Err(FsError::Invalid("injected read failure".into()));
        }
        self.inner.read(ino, offset, len)
    }
    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
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
    fn fsync(&mut self, ino: Ino) -> FsResult<()> {
        if self.fail.get() {
            return Err(FsError::NoSpace);
        }
        self.inner.fsync(ino)
    }
    fn close_hint(&mut self, ino: Ino) -> FsResult<()> {
        self.inner.close_hint(ino)
    }
    fn usage(&self) -> FsUsage {
        self.inner.usage()
    }
}

/// Logs fully committed while the WAL could not persist stay queued
/// for retirement: the next persist that succeeds retires them, and
/// covering checkpoints unlink them. (They used to be forgotten when
/// the failing poll returned, and leaked — with their source slots —
/// until a machine restart.)
#[test]
fn logs_committed_under_a_failing_wal_retire_at_the_next_persist() {
    let mut sys = System::single_volume();
    let fail = Rc::new(Cell::new(false));
    sys.kernel.mount(
        "/db",
        Box::new(FlakyFs {
            inner: BaseFs::new(sys.clock(), CostModel::default()),
            fail: fail.clone(),
            fail_reads: Rc::default(),
            fail_unlinks: Rc::default(),
        }),
    );
    let waldo_pid = sys.kernel.spawn_init("waldo");
    sys.pass.exempt(waldo_pid);
    let mut waldo = Waldo::with_config(
        waldo_pid,
        WaldoConfig {
            ingest_batch: 5,
            checkpoint_commits: 0, // manual checkpoints only
            checkpoint_wal_bytes: 0,
            keep_checkpoints: 1,
            ..WaldoConfig::default()
        },
    );
    waldo.attach_db_dir(&mut sys.kernel, "/db/waldo").unwrap();
    let (_, m, _) = sys.volumes[0];
    let worker = sys.spawn("sh");
    let rotate_after_writes = |sys: &mut System, wave: usize| {
        for i in 0..6 {
            sys.kernel
                .write_file(worker, &format!("/wave{wave}-{i}"), b"payload")
                .unwrap();
        }
        sys.kernel.dpapi_at(m).unwrap().force_log_rotation();
    };
    let closed_logs = |sys: &mut System| -> usize {
        let names = sys.kernel.readdir(waldo_pid, "/.pass").unwrap();
        // Every `log.N` but the active (highest-numbered) one.
        names.iter().filter(|e| e.name.starts_with("log.")).count() - 1
    };

    // Poll with the WAL failing: everything commits, nothing persists,
    // so nothing may be retired.
    rotate_after_writes(&mut sys, 0);
    fail.set(true);
    let stats = waldo.poll_volume(&mut sys.kernel, m, "/");
    assert!(stats.applied > 0);
    assert!(waldo.wal_errors() > 0, "the injected failure must be seen");
    assert_eq!(closed_logs(&mut sys), 1, "an unpersisted log must survive");

    // Poll again, healthy: the persist succeeds and covers both waves.
    fail.set(false);
    let errors = waldo.wal_errors();
    rotate_after_writes(&mut sys, 1);
    waldo.poll_volume(&mut sys.kernel, m, "/");
    assert_eq!(waldo.wal_errors(), errors);
    assert_eq!(closed_logs(&mut sys), 2, "no checkpoint covers them yet");
    assert!(waldo.checkpoint(&mut sys.kernel).unwrap());
    assert_eq!(
        closed_logs(&mut sys),
        0,
        "the log committed under the failing WAL must be unlinked too"
    );
    assert_eq!(waldo.checkpoint_stats().logs_retired, 2);
}

/// A rotated log whose read fails is not lost with its rotation-queue
/// entry: it is counted, held — together with the later logs of its
/// volume, which must not overtake it — and ingested by the next
/// poll, leaving the store byte-equal to a run whose reads never
/// failed. Checked on a single daemon and through a cluster sweep,
/// whose report must name the volume.
#[test]
fn an_unreadable_rotated_log_is_retried_by_the_next_poll() {
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Via {
        Daemon,
        Cluster,
    }
    let run = |via: Via, failing: bool| {
        let mut sys = System::single_volume();
        let fail_reads = Rc::new(Cell::new(0));
        let base = FlakyFs {
            inner: BaseFs::new(sys.clock(), CostModel::default()),
            fail: Rc::default(),
            fail_reads: fail_reads.clone(),
            fail_unlinks: Rc::default(),
        };
        let volume = VolumeId(2);
        let cfg = LasagnaConfig::new(volume);
        let fs = Lasagna::new(Box::new(base), sys.clock(), CostModel::default(), cfg).unwrap();
        let m = sys.kernel.mount("/vol", Box::new(fs));
        let waldo_pid = sys.kernel.spawn_init("waldo");
        sys.pass.exempt(waldo_pid);
        let mut cluster = Cluster::new(vec![Waldo::new(waldo_pid)]);
        let worker = sys.spawn("sh");
        // Two rotated logs that both describe the same file, so their
        // order shows in the store.
        for wave in 0..2 {
            for i in 0..4 {
                let path = format!("/vol/f{i}");
                sys.kernel.write_file(worker, &path, &[wave; 64]).unwrap();
            }
            sys.kernel.dpapi_at(m).unwrap().force_log_rotation();
        }
        let poll = |sys: &mut System, cluster: &mut Cluster| match via {
            Via::Daemon => {
                let stats = cluster
                    .member_mut(0)
                    .poll_volume(&mut sys.kernel, m, "/vol");
                (stats, None)
            }
            Via::Cluster => {
                let volumes = [("/vol".to_string(), m, volume)];
                let report = cluster.poll_volumes_report(&mut sys.kernel, &volumes);
                (report.total, Some(report))
            }
        };
        if failing {
            // The first log's read fails; the second must wait for it.
            fail_reads.set(1);
            let (stats, report) = poll(&mut sys, &mut cluster);
            assert_eq!(
                fail_reads.get(),
                0,
                "{via:?}: the injected failure was not hit"
            );
            assert_eq!(
                stats.applied, 0,
                "{via:?}: a later log overtook the unreadable one"
            );
            assert_eq!(cluster.member(0).logs_unreadable(), 1, "{via:?}");
            if let Some(report) = report {
                let issues = report.issues();
                assert_eq!(issues.len(), 1, "{via:?}: the sweep must report the volume");
                assert_eq!((issues[0].volume, issues[0].logs_unreadable), (volume, 1));
            }
        }
        let (stats, report) = poll(&mut sys, &mut cluster);
        assert!(
            stats.applied > 0,
            "{via:?}: the next poll must ingest the held logs"
        );
        assert!(report.is_none_or(|r| r.issues().is_empty()), "{via:?}");
        let daemon = cluster.member(0);
        assert_eq!(daemon.logs_unreadable(), u64::from(failing), "{via:?}");
        assert_eq!(
            daemon.db.replayed_batches(),
            0,
            "{via:?}: logs ingested out of order"
        );
        let mut reg = provscope::Registry::new();
        reg.absorb("waldo.", daemon);
        assert_eq!(reg.counter("waldo.logs_unreadable"), u64::from(failing));
        // Memory-only daemon: fully committed logs are unlinked.
        let left = sys.kernel.readdir(waldo_pid, "/vol/.pass").unwrap();
        assert_eq!(
            left.len(),
            1,
            "{via:?}: only the active log may remain: {left:?}"
        );
        (daemon.db.segment_images(), stats.applied)
    };
    let reference = run(Via::Daemon, false);
    for via in [Via::Daemon, Via::Cluster] {
        assert_eq!(run(via, true), reference, "{via:?}");
    }
}

/// On a memory-only daemon a fully committed log whose unlink fails
/// is not dropped from the retirement queue: it is counted, and the
/// next settled commit — here an empty poll's — retries it. (It used
/// to leave the queue on the failed attempt, so the file and its
/// source slot leaked until a `recover_volume`.)
#[test]
fn a_log_whose_unlink_fails_is_retried_by_the_next_poll() {
    let run = |failing: bool| {
        let mut sys = System::single_volume();
        let fail_unlinks = Rc::new(Cell::new(0));
        let base = FlakyFs {
            inner: BaseFs::new(sys.clock(), CostModel::default()),
            fail: Rc::default(),
            fail_reads: Rc::default(),
            fail_unlinks: fail_unlinks.clone(),
        };
        let cfg = LasagnaConfig::new(VolumeId(2));
        let fs = Lasagna::new(Box::new(base), sys.clock(), CostModel::default(), cfg).unwrap();
        let m = sys.kernel.mount("/vol", Box::new(fs));
        let waldo_pid = sys.kernel.spawn_init("waldo");
        sys.pass.exempt(waldo_pid);
        let mut waldo = Waldo::new(waldo_pid);
        let worker = sys.spawn("sh");
        for i in 0..4 {
            let path = format!("/vol/f{i}");
            sys.kernel.write_file(worker, &path, b"payload").unwrap();
        }
        sys.kernel.dpapi_at(m).unwrap().force_log_rotation();

        fail_unlinks.set(u32::from(failing));
        let stats = waldo.poll_volume(&mut sys.kernel, m, "/vol");
        assert!(stats.applied > 0);
        assert_eq!(fail_unlinks.get(), 0, "the injected failure was not hit");
        let logs_left = |sys: &mut System| sys.kernel.readdir(waldo_pid, "/vol/.pass").unwrap();
        assert_eq!(
            logs_left(&mut sys).len(),
            1 + usize::from(failing),
            "the log whose unlink failed is still there, beside the active one"
        );

        let again = waldo.poll_volume(&mut sys.kernel, m, "/vol");
        assert_eq!(again.applied, 0, "nothing is ingested twice");
        let left = logs_left(&mut sys);
        assert_eq!(left.len(), 1, "only the active log may remain: {left:?}");
        let mut reg = provscope::Registry::new();
        reg.absorb("waldo.", &waldo);
        assert_eq!(reg.counter("waldo.logs_unlink_failed"), u64::from(failing));
        let images = waldo.db.segment_images();
        assert_eq!(
            waldo.db.register_source("/vol/.pass/log.0").1,
            0,
            "the retired log's replay mark must be forgotten with it"
        );
        images
    };
    assert_eq!(run(true), run(false));
}

/// End-to-end daemon crash: a poll is interrupted mid-batch, the
/// half-ingested log survives on disk (unlink happens only after full
/// commit), and a resumed daemon rebuilds exactly the crash-free
/// database.
#[test]
fn daemon_crash_between_polls_replays_surviving_logs() {
    // Build the same filesystem history twice: once for the reference
    // (no crash), once for the crash-and-recover run.
    let run = |crash: bool| {
        let mut sys = System::single_volume();
        let pid = sys.spawn("sh");
        for i in 0..12 {
            sys.kernel
                .write_file(pid, &format!("/data{i}"), b"payload bytes")
                .unwrap();
        }
        let (_, m, _) = sys.volumes[0];
        sys.kernel.dpapi_at(m).unwrap().force_log_rotation();

        let waldo_pid = sys.kernel.spawn_init("waldo");
        sys.pass.exempt(waldo_pid);
        let cfg = WaldoConfig {
            shards: 8,
            ingest_batch: 5,
            ancestry_cache: 0,
            ..WaldoConfig::default()
        };
        let mut waldo = Waldo::with_config(waldo_pid, cfg);
        if !crash {
            waldo.poll_volume(&mut sys.kernel, m, "/");
            return (sys, waldo);
        }
        // Crash run: ingest the rotated log partially through the
        // store (the daemon's staging path), never unlinking.
        let rotated = sys.kernel.dpapi_at(m).unwrap().take_log_rotations();
        assert!(!rotated.is_empty());
        let mut stats = IngestStats::default();
        for rel in &rotated {
            let abs = format!("/{rel}");
            let bytes = sys.kernel.read_file(waldo_pid, &abs).unwrap();
            let (entries, _) = lasagna::parse_log(&bytes);
            let (src, mark) = waldo.db.register_source(&abs);
            assert_eq!(mark, 0);
            waldo.db.begin_stream();
            // Commit only the first two batches, stage a bit more,
            // then crash.
            for (i, e) in entries.into_iter().enumerate() {
                waldo.db.stage(e, Some(src));
                if waldo.db.staged_len() >= 5 && stats.group_commits < 2 {
                    waldo.db.commit_staged(&mut stats);
                }
                if i > 17 {
                    break;
                }
            }
        }
        // The daemon dies; its committed store survives as the
        // database a restarted daemon adopts. The crashed daemon's
        // in-memory rotation queue died with it, so recovery rescans
        // the log directory for surviving closed logs.
        let db = std::mem::replace(&mut waldo.db, Store::new());
        let mut recovered = Waldo::resume(sys.kernel.spawn_init("waldo2"), db);
        sys.pass.exempt(recovered.pid());
        recovered.recover_volume(&mut sys.kernel, "/");
        (sys, recovered)
    };

    let (mut ref_sys, reference) = run(false);
    let (mut sys, recovered) = run(true);

    assert_same_db_dyn(&reference.db, &recovered.db);
    // The replayed logs are unlinked after full commit: the log
    // directory ends up exactly as in the crash-free run (only the
    // new active log remains).
    let names = |sys: &mut System, pid| -> Vec<String> {
        let mut v: Vec<String> = sys
            .kernel
            .readdir(pid, "/.pass")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        v.sort();
        v
    };
    let ref_pid = reference.pid();
    let rec_pid = recovered.pid();
    assert_eq!(names(&mut ref_sys, ref_pid), names(&mut sys, rec_pid));
}

/// Like `assert_same_db` but over whatever objects exist (the
/// end-to-end run's pnodes are allocated by the volume).
fn assert_same_db_dyn(a: &Store, b: &Store) {
    assert_eq!(a.object_count(), b.object_count());
    assert_eq!(a.size(), b.size(), "duplicate replay would inflate sizes");
    let mut pnodes: Vec<Pnode> = a.all_pnodes();
    pnodes.sort();
    let mut other: Vec<Pnode> = b.all_pnodes();
    other.sort();
    assert_eq!(pnodes, other);
    for p in pnodes {
        let (oa, ob) = (a.object(p).unwrap(), b.object(p).unwrap());
        assert_eq!(oa.current, ob.current, "pnode {p:?}");
        for v in oa.versions.keys() {
            assert_eq!(oa.attrs(Version(*v)), ob.attrs(Version(*v)), "pnode {p:?}");
            assert_eq!(
                oa.inputs(Version(*v)),
                ob.inputs(Version(*v)),
                "pnode {p:?}"
            );
        }
    }
}

// ---- machine-crash matrix ---------------------------------------------

/// Which writer the crashing (second) checkpoint of
/// [`durable_history`] runs: wave 2 is sized to fit the delta budget
/// the first checkpoint's base allows, or to outgrow it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Second {
    Delta,
    BaseRewrite,
}

/// One scripted filesystem history shared by the reference run and
/// every crash run: two waves of writes, with a full checkpoint
/// between them. Returns the system and a durably-attached daemon
/// that has ingested everything, with wave-2 logs committed and WAL-
/// framed but not yet covered by a checkpoint.
fn durable_history(second: Second, crash: Option<waldo::CheckpointCrash>) -> (System, Waldo) {
    let mut sys = System::single_volume();
    let cfg = WaldoConfig {
        shards: 8,
        ingest_batch: 5,
        ancestry_cache: 0,
        checkpoint_commits: 0, // manual checkpoints only
        checkpoint_wal_bytes: 0,
        ..WaldoConfig::default()
    };
    let waldo_pid = sys.kernel.spawn_init("waldo");
    sys.pass.exempt(waldo_pid);
    let mut waldo = Waldo::with_config(waldo_pid, cfg);
    waldo.attach_db_dir(&mut sys.kernel, "/waldo-db").unwrap();

    let (_, m, _) = sys.volumes[0];
    let worker = sys.spawn("sh");
    // Wave 1: ingest + full checkpoint.
    for i in 0..8 {
        sys.kernel
            .write_file(worker, &format!("/wave1-{i}"), b"first wave")
            .unwrap();
    }
    sys.kernel.dpapi_at(m).unwrap().force_log_rotation();
    waldo.poll_volume(&mut sys.kernel, m, "/");
    assert!(waldo.checkpoint(&mut sys.kernel).unwrap());
    // Wave 2: committed and WAL-framed, but past the checkpoint.
    let wave2 = match second {
        Second::Delta => 2,
        Second::BaseRewrite => 24,
    };
    for i in 0..wave2 {
        sys.kernel
            .write_file(worker, &format!("/wave2-{i}"), b"second wave")
            .unwrap();
    }
    sys.kernel.dpapi_at(m).unwrap().force_log_rotation();
    waldo.poll_volume(&mut sys.kernel, m, "/");
    // The crashing run attempts a second checkpoint and dies at the
    // injected step; `None` crashes before any publication begins.
    if let Some(step) = crash {
        waldo.checkpoint_crashing_at(&mut sys.kernel, step).unwrap();
        // Every crash point lies after the data files are written.
        assert_eq!(
            waldo.checkpoint_stats().deltas_written,
            u64::from(second == Second::Delta),
            "{second:?}: wave 2 is sized to pick this writer"
        );
    }
    (sys, waldo)
}

/// Simulated machine crash before, during (each step of), and after
/// checkpoint publication — and during WAL truncation: a cold restart
/// always rebuilds a store **byte-equivalent** to the daemon that
/// never crashed, with retained logs replayed exactly once.
#[test]
fn machine_crash_matrix_restarts_byte_equivalent() {
    use waldo::CheckpointCrash::*;
    let matrix = [
        None, // crash with wave 2 only in WAL + logs
        Some(AfterSegments),
        Some(AfterTempManifest),
        Some(AfterPublish),
        Some(MidWalTruncate),
        Some(AfterWalTruncate),
    ];
    for second in [Second::Delta, Second::BaseRewrite] {
        let (_, reference) = durable_history(second, None);
        let reference_images = reference.db.segment_images();
        for crash in matrix {
            let (mut sys, crashed) = durable_history(second, crash);
            let cfg = crashed.db.config();
            // The machine dies: the daemon and its in-memory store are
            // gone; only the kernel's disks survive.
            drop(crashed);
            let pid = sys.kernel.spawn_init("waldo-restarted");
            sys.pass.exempt(pid);
            let restarted = Waldo::restart(pid, &mut sys.kernel, cfg, "/waldo-db", &["/"]).unwrap();
            let report = restarted.restart_report().unwrap().clone();
            assert!(
                report.loaded_seq.is_some(),
                "{second:?} {crash:?}: a complete checkpoint must load"
            );
            assert_eq!(report.checkpoints_skipped, 0, "{second:?} {crash:?}");
            assert_eq!(
                restarted.db.segment_images(),
                reference_images,
                "{second:?} {crash:?}: cold restart must be byte-equivalent"
            );
            assert_same_db_dyn(&reference.db, &restarted.db);
            // The published-checkpoint steps rehydrate everything and
            // replay nothing; the earlier steps fall back to the wave-1
            // checkpoint and must re-derive wave 2 from retained logs.
            match crash {
                Some(AfterPublish) | Some(MidWalTruncate) | Some(AfterWalTruncate) => {
                    assert_eq!(report.replayed_entries, 0, "{second:?} {crash:?}");
                }
                _ => assert!(report.replayed_entries > 0, "{second:?} {crash:?}"),
            }
        }
    }
}

/// A crash with a transaction open across the checkpoint: the
/// manifest carries the open-transaction buffer, so the transaction
/// commits exactly once when its end arrives after restart.
#[test]
fn open_transaction_survives_checkpoint_and_restart() {
    let entries = stream();
    // Split inside the transaction (entry 14 is mid-txn: begin at 12,
    // end at 27).
    let split = 15;
    let cfg = WaldoConfig {
        shards: 4,
        ingest_batch: 3,
        ancestry_cache: 0,
        checkpoint_commits: 0,
        checkpoint_wal_bytes: 0,
        ..WaldoConfig::default()
    };
    let reference = reference_db(&entries);

    let mut sys = System::single_volume();
    let pid = sys.kernel.spawn_init("waldo");
    sys.pass.exempt(pid);
    let mut waldo = Waldo::with_config(pid, cfg);
    waldo.attach_db_dir(&mut sys.kernel, "/waldo-db").unwrap();
    let mut stats = IngestStats::default();
    // The source must exist on disk: restart prunes marks for files
    // that are gone (an unlinked-after-manifest tombstone otherwise).
    sys.kernel.write_file(pid, "/stream-log", b"raw").unwrap();
    let (src, _) = waldo.db.register_source("/stream-log");
    waldo.db.begin_stream();
    for e in entries.iter().take(split).cloned() {
        waldo.db.stage(e, Some(src));
        if waldo.db.staged_len() >= 3 {
            waldo.db.commit_staged(&mut stats);
        }
    }
    waldo.db.commit_staged(&mut stats);
    assert_eq!(waldo.db.open_txns(), vec![42], "txn must be open");
    assert!(waldo.checkpoint(&mut sys.kernel).unwrap());

    // Machine crash; cold restart (no volume rescan — the "log" here
    // is a synthetic stream, so we feed the suffix by hand exactly as
    // a surviving log replay would, from the restored mark).
    drop(waldo);
    let pid2 = sys.kernel.spawn_init("waldo2");
    sys.pass.exempt(pid2);
    let restarted = Waldo::restart(pid2, &mut sys.kernel, cfg, "/waldo-db", &[]).unwrap();
    assert_eq!(restarted.db.open_txns(), vec![42], "txn buffer restored");
    let (src2, mark) = restarted.db.register_source("/stream-log");
    assert_eq!(mark, split, "restored mark resumes after the prefix");
    for e in entries.iter().skip(mark).cloned() {
        restarted.db.stage(e, Some(src2));
        if restarted.db.staged_len() >= 3 {
            restarted.db.commit_staged(&mut stats);
        }
    }
    restarted.db.commit_staged(&mut stats);
    assert!(restarted.db.open_txns().is_empty());
    assert_same_db(&reference, &restarted.db);
}
