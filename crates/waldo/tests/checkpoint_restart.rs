//! Checkpoint subsystem properties: a base plus its delta chain
//! roundtrips arbitrary shard contents byte-exactly, damaged
//! checkpoints — manifest, base segment or delta — are rejected in
//! favor of the previous complete one (with a correspondingly longer
//! log replay), the chain is bounded by the base it extends, and the
//! WAL stays bounded by the truncation policy.

use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
use lasagna::LogEntry;
use proptest::prelude::*;
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::fs::basefs::BaseFs;
use sim_os::syscall::Kernel;
use waldo::{IngestStats, Waldo, WaldoConfig};

fn p(volume: u32, n: u64) -> Pnode {
    Pnode::new(VolumeId(volume), n)
}

fn prov(subject: ObjectRef, attr: Attribute, value: Value) -> LogEntry {
    LogEntry::Prov {
        subject,
        record: ProvenanceRecord::new(attr, value),
    }
}

/// A random provenance stream over a bounded id space — including
/// transaction markers, so checkpoints capture open-transaction
/// buffers (ends without begins are no-ops; begins without ends stay
/// open across the checkpoint).
fn arb_entry() -> impl Strategy<Value = LogEntry> {
    let subject =
        (1u32..4, 1u64..64, 0u32..3).prop_map(|(vol, n, v)| ObjectRef::new(p(vol, n), Version(v)));
    prop_oneof![
        (subject.clone(), "[a-z]{1,8}")
            .prop_map(|(s, name)| { prov(s, Attribute::Name, Value::Str(format!("/{name}"))) }),
        (subject.clone(), 0u32..3).prop_map(|(s, t)| {
            let ty = ["FILE", "PROC", "PIPE"][t as usize];
            prov(s, Attribute::Type, Value::str(ty))
        }),
        // Application attributes populate the generalized attribute
        // index, so checkpoints cover segment format v2's new section.
        (subject.clone(), 0u32..3, "[a-z]{1,6}").prop_map(|(s, a, val)| {
            let attr = ["PHASE", "STAGE", "OWNER"][a as usize];
            prov(s, Attribute::Other(attr.into()), Value::Str(val))
        }),
        (subject.clone(), 1u64..64, 0u32..3).prop_map(|(s, n, v)| {
            prov(
                s,
                Attribute::Input,
                Value::Xref(ObjectRef::new(p(1, n), Version(v))),
            )
        }),
        (subject, 0u64..4096, 1u32..4096).prop_map(|(s, off, len)| LogEntry::DataWrite {
            subject: s,
            offset: off,
            len,
            digest: [7u8; 16],
        }),
        (1u64..4).prop_map(|id| LogEntry::TxnBegin { id }),
        (1u64..4).prop_map(|id| LogEntry::TxnEnd { id }),
    ]
}

/// A bare kernel with one plain volume — enough disk for a daemon's
/// database directory.
fn bare_kernel() -> Kernel {
    let clock = Clock::new();
    let mut k = Kernel::new(clock.clone(), CostModel::default());
    k.mount("/", Box::new(BaseFs::new(clock, CostModel::default())));
    k
}

fn stage_all(db: &mut waldo::Store, entries: &[LogEntry], batch: usize) {
    let mut stats = IngestStats::default();
    for e in entries.iter().cloned() {
        db.stage(e, None);
        if db.staged_len() >= batch {
            db.commit_staged(&mut stats);
        }
    }
    db.commit_staged(&mut stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Serialize → checkpoint (a base, then whatever the size rule
    /// picks for the next two: deltas or rewrites) → cold restart over
    /// arbitrary shard contents reproduces the store byte-exactly (the
    /// canonical segment images are the equality oracle), including
    /// transactions open across checkpoints — and the restarted store
    /// behaves identically under continued ingestion.
    #[test]
    fn checkpoint_roundtrips_arbitrary_stores(
        entries in proptest::collection::vec(arb_entry(), 1..120),
        batch in 1usize..24,
        shards in 1usize..16,
        split_at in 0usize..120,
        cuts in proptest::collection::vec(0usize..120, 2..3),
    ) {
        // At least one committed entry, so there is something to
        // checkpoint.
        let split = split_at.max(1).min(entries.len());
        let mut cuts: Vec<usize> = cuts.iter().map(|c| *c % (split + 1)).collect();
        cuts.sort_unstable();
        let cfg = WaldoConfig {
            shards,
            ingest_batch: batch,
            ancestry_cache: 0,
            checkpoint_commits: 0,
            checkpoint_wal_bytes: 0,
            ..WaldoConfig::default()
        };
        let mut kernel = bare_kernel();
        let pid = kernel.spawn_init("waldo");
        let mut waldo = Waldo::with_config(pid, cfg);
        waldo.attach_db_dir(&mut kernel, "/waldo-db").unwrap();
        waldo.db.begin_stream();
        let mut from = 0;
        for cut in cuts {
            stage_all(&mut waldo.db, &entries[from..cut], batch);
            // Publishes unless the chunk was empty.
            waldo.checkpoint(&mut kernel).unwrap();
            from = cut;
        }
        stage_all(&mut waldo.db, &entries[from..split], batch);
        waldo.checkpoint(&mut kernel).unwrap();
        prop_assert!(waldo.checkpoint_stats().checkpoints >= 1);

        // Machine crash: only the kernel's disk survives.
        let mut original = waldo;
        let pid2 = kernel.spawn_init("waldo2");
        let mut restarted = Waldo::restart(pid2, &mut kernel, cfg, "/waldo-db", &[]).unwrap();
        prop_assert_eq!(restarted.db.segment_images(), original.db.segment_images());
        prop_assert_eq!(restarted.db.open_txns(), original.db.open_txns());
        prop_assert_eq!(restarted.db.commit_seq(), original.db.commit_seq());
        prop_assert_eq!(restarted.db.size(), original.db.size());

        // Both stores ingest the suffix the same way and stay equal.
        stage_all(&mut original.db, &entries[split..], batch);
        stage_all(&mut restarted.db, &entries[split..], batch);
        prop_assert_eq!(restarted.db.segment_images(), original.db.segment_images());
    }
}

/// The persistent attribute index: a cold restart rehydrates it from
/// v2 segments — byte-equivalently, with **zero** log replay — and
/// indexed PQL pushdown works immediately against the restarted
/// store.
#[test]
fn attribute_index_survives_cold_restart_without_replay() {
    let cfg = WaldoConfig {
        shards: 4,
        ingest_batch: 8,
        ancestry_cache: 0,
        checkpoint_commits: 0,
        checkpoint_wal_bytes: 0,
        ..WaldoConfig::default()
    };
    let mut kernel = bare_kernel();
    let pid = kernel.spawn_init("waldo");
    let mut waldo = Waldo::with_config(pid, cfg);
    waldo.attach_db_dir(&mut kernel, "/waldo-db").unwrap();
    let entries: Vec<LogEntry> = (1..20u64)
        .flat_map(|i| {
            vec![
                prov(
                    ObjectRef::new(p(1, i), Version(0)),
                    Attribute::Name,
                    Value::Str(format!("/f{i}")),
                ),
                prov(
                    ObjectRef::new(p(1, i), Version(0)),
                    Attribute::Type,
                    Value::str("FILE"),
                ),
                prov(
                    ObjectRef::new(p(1, i), Version(0)),
                    Attribute::Other("PHASE".into()),
                    Value::str(if i % 2 == 0 { "align" } else { "slice" }),
                ),
            ]
        })
        .collect();
    waldo.db.begin_stream();
    stage_all(&mut waldo.db, &entries, 8);
    assert!(waldo.checkpoint(&mut kernel).unwrap());
    let images = waldo.db.segment_images();
    let by_phase = waldo.db.find_by_attr("PHASE", "align");
    assert!(!by_phase.is_empty());

    drop(waldo); // machine crash
    let pid2 = kernel.spawn_init("waldo2");
    let mut restarted = Waldo::restart(pid2, &mut kernel, cfg, "/waldo-db", &[]).unwrap();
    let report = restarted.restart_report().unwrap();
    assert_eq!(
        report.replayed_entries, 0,
        "the index must come from the checkpoint, not a rebuild scan over logs"
    );
    assert_eq!(restarted.db.segment_images(), images, "byte-equivalent");
    assert_eq!(restarted.db.find_by_attr("PHASE", "align"), by_phase);

    // Indexed pushdown answers immediately on the restarted store:
    // name equality, name prefix, and an application attribute.
    for q in [
        "select F from Provenance.file as F where F.name = '/f7'",
        "select F from Provenance.file as F where F.name like '/f1*'",
        "select F from Provenance.file as F where F.phase = 'align'",
    ] {
        let out = restarted.query(q).unwrap();
        assert!(!out.result.is_empty(), "{q}");
        assert_eq!(out.stats.index_hits, 1, "{q}: {:?}", out.stats);
        assert_eq!(out.stats.scan_bindings, 0, "{q}");
    }
    let ops = restarted.query_ops();
    assert_eq!(ops.queries, 3);
    assert_eq!(ops.planner.index_hits, 3);
}

// ---- corruption and fallback ------------------------------------------

/// What the second checkpoint of [`three_wave_history`] is: the two
/// writers `Waldo::checkpoint` chooses between.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Second {
    /// A small second wave: one delta segment extends the base.
    Delta,
    /// A second wave larger than the first: the delta would outgrow
    /// the base, so the base is rewritten.
    Base,
}

const KINDS: [Second; 2] = [Second::Delta, Second::Base];

/// Builds three waves of provenance through the full stack with a
/// checkpoint after each of the first two waves; wave 3 stays in
/// retained logs only. Returns the system and the uncrashed daemon.
fn three_wave_history(second: Second) -> (passv2::System, Waldo) {
    let mut sys = passv2::System::single_volume();
    let cfg = WaldoConfig {
        shards: 8,
        ingest_batch: 5,
        ancestry_cache: 0,
        checkpoint_commits: 0,
        checkpoint_wal_bytes: 0,
        ..WaldoConfig::default()
    };
    let pid = sys.kernel.spawn_init("waldo");
    sys.pass.exempt(pid);
    let mut waldo = Waldo::with_config(pid, cfg);
    waldo.attach_db_dir(&mut sys.kernel, "/waldo-db").unwrap();
    let (_, m, _) = sys.volumes[0];
    let worker = sys.spawn("sh");
    for wave in 0..3 {
        let files = match (wave, second) {
            (1, Second::Delta) => 2,
            (1, Second::Base) => 24,
            _ => 6,
        };
        for i in 0..files {
            sys.kernel
                .write_file(worker, &format!("/w{wave}-f{i}"), b"wave data")
                .unwrap();
        }
        sys.kernel.dpapi_at(m).unwrap().force_log_rotation();
        waldo.poll_volume(&mut sys.kernel, m, "/");
        if wave < 2 {
            assert!(waldo.checkpoint(&mut sys.kernel).unwrap());
        }
    }
    let s = waldo.checkpoint_stats();
    assert_eq!(s.checkpoints, 2);
    assert_eq!(
        s.deltas_written,
        u64::from(second == Second::Delta),
        "{second:?}: the waves are sized to pick this writer"
    );
    (sys, waldo)
}

/// Restarts after damaging the newest checkpoint with `damage`;
/// asserts the fallback loaded the older checkpoint, replayed more,
/// and still equals the uncrashed store byte-for-byte.
fn assert_fallback(second: Second, damage: impl FnOnce(&mut passv2::System, sim_os::proc::Pid)) {
    let (_, reference) = three_wave_history(second);
    let (mut sys, crashed) = three_wave_history(second);
    let cfg = crashed.db.config();
    drop(crashed); // the machine crash

    let pid = sys.kernel.spawn_init("damager");
    sys.pass.exempt(pid);
    damage(&mut sys, pid);

    let pid2 = sys.kernel.spawn_init("waldo-restarted");
    sys.pass.exempt(pid2);
    let restarted = Waldo::restart(pid2, &mut sys.kernel, cfg, "/waldo-db", &["/"]).unwrap();
    let report = restarted.restart_report().unwrap();
    assert_eq!(
        report.checkpoints_skipped, 1,
        "{second:?}: the damaged newest checkpoint must be skipped"
    );
    assert!(
        report.replayed_entries > 0,
        "{second:?}: fallback must replay the wave the lost checkpoint covered"
    );
    assert_eq!(
        restarted.db.segment_images(),
        reference.db.segment_images(),
        "{second:?}: fallback restart must still equal the uncrashed store"
    );
}

/// File names in the checkpoint directory, sorted.
fn checkpoint_files(kernel: &mut Kernel, pid: sim_os::proc::Pid) -> Vec<String> {
    let mut names: Vec<String> = kernel
        .readdir(pid, "/waldo-db/checkpoints")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    names.sort();
    names
}

fn newest_manifest(names: &[String]) -> String {
    let seq = names
        .iter()
        .filter_map(|n| {
            n.strip_prefix("manifest.")
                .and_then(|s| s.parse::<u64>().ok())
        })
        .max()
        .expect("two manifests exist");
    format!("manifest.{seq}")
}

#[test]
fn bitflipped_manifest_falls_back_to_previous_checkpoint() {
    for second in KINDS {
        assert_fallback(second, |sys, pid| {
            let names = checkpoint_files(&mut sys.kernel, pid);
            let path = format!("/waldo-db/checkpoints/{}", newest_manifest(&names));
            let mut data = sys.kernel.read_file(pid, &path).unwrap();
            let mid = data.len() / 2;
            data[mid] ^= 0x10;
            sys.kernel.write_file(pid, &path, &data).unwrap();
        });
    }
}

#[test]
fn torn_manifest_falls_back_to_previous_checkpoint() {
    for second in KINDS {
        assert_fallback(second, |sys, pid| {
            let names = checkpoint_files(&mut sys.kernel, pid);
            let path = format!("/waldo-db/checkpoints/{}", newest_manifest(&names));
            let data = sys.kernel.read_file(pid, &path).unwrap();
            // A torn publish: only a prefix of the manifest made it.
            sys.kernel
                .write_file(pid, &path, &data[..data.len() / 2])
                .unwrap();
        });
    }
}

/// The one delta file in the directory after a [`Second::Delta`]
/// history — private to the newest checkpoint.
fn only_delta(sys: &mut passv2::System, pid: sim_os::proc::Pid) -> String {
    let deltas: Vec<String> = checkpoint_files(&mut sys.kernel, pid)
        .into_iter()
        .filter(|n| n.starts_with("delta."))
        .collect();
    assert_eq!(deltas.len(), 1, "one delta checkpoint was published");
    format!("/waldo-db/checkpoints/{}", deltas[0])
}

/// A damaged, torn or missing delta makes its manifest unloadable —
/// exactly like a damaged segment — and restart falls back to the
/// checkpoint before it: reported, replayed from logs, never a panic.
#[test]
fn damaged_delta_falls_back_to_previous_checkpoint() {
    assert_fallback(Second::Delta, |sys, pid| {
        let path = only_delta(sys, pid);
        let mut data = sys.kernel.read_file(pid, &path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x01;
        sys.kernel.write_file(pid, &path, &data).unwrap();
    });
    assert_fallback(Second::Delta, |sys, pid| {
        let path = only_delta(sys, pid);
        let data = sys.kernel.read_file(pid, &path).unwrap();
        sys.kernel
            .write_file(pid, &path, &data[..data.len() / 2])
            .unwrap();
    });
    assert_fallback(Second::Delta, |sys, pid| {
        let path = only_delta(sys, pid);
        sys.kernel.write_file(pid, &path, b"").unwrap();
    });
    assert_fallback(Second::Delta, |sys, pid| {
        let path = only_delta(sys, pid);
        sys.kernel.unlink(pid, &path).unwrap();
    });
}

#[test]
fn bitflipped_segment_falls_back_to_previous_checkpoint() {
    assert_fallback(Second::Base, |sys, pid| {
        // Find a shard with segments at two generations: the newer
        // belongs to the newest checkpoint only (shared segments would
        // damage both checkpoints, which retention does not protect).
        let names = checkpoint_files(&mut sys.kernel, pid);
        let mut by_shard: std::collections::HashMap<&str, Vec<(u64, &String)>> =
            std::collections::HashMap::new();
        for n in &names {
            if let Some(rest) = n.strip_suffix(".seg") {
                if let Some((shard, gen)) = rest.split_once(".g") {
                    if let Ok(g) = gen.parse::<u64>() {
                        by_shard.entry(shard).or_default().push((g, n));
                    }
                }
            }
        }
        let victim = by_shard
            .values_mut()
            .find(|v| v.len() >= 2)
            .map(|v| {
                v.sort();
                v.last().unwrap().1.clone()
            })
            .expect("some shard advanced between the two checkpoints");
        let path = format!("/waldo-db/checkpoints/{victim}");
        let mut data = sys.kernel.read_file(pid, &path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x01;
        sys.kernel.write_file(pid, &path, &data).unwrap();
    });
}

// ---- WAL truncation policy --------------------------------------------

/// The size trigger keeps the WAL bounded: many polling rounds never
/// grow it past the configured threshold plus one in-flight frame.
#[test]
fn wal_is_bounded_by_truncation_policy() {
    let mut sys = passv2::System::single_volume();
    let cfg = WaldoConfig {
        shards: 8,
        ingest_batch: 4,
        ancestry_cache: 0,
        checkpoint_commits: 0,
        checkpoint_wal_bytes: 512,
        ..WaldoConfig::default()
    };
    let pid = sys.kernel.spawn_init("waldo");
    sys.pass.exempt(pid);
    let mut waldo = Waldo::with_config(pid, cfg);
    waldo.attach_db_dir(&mut sys.kernel, "/waldo-db").unwrap();
    let (_, m, _) = sys.volumes[0];
    let worker = sys.spawn("sh");
    let mut checkpoints = 0;
    for round in 0..12 {
        for i in 0..5 {
            sys.kernel
                .write_file(worker, &format!("/r{round}-f{i}"), b"payload")
                .unwrap();
        }
        sys.kernel.dpapi_at(m).unwrap().force_log_rotation();
        let stats = waldo.poll_volume(&mut sys.kernel, m, "/");
        checkpoints += stats.checkpoints;
        let wal = sys.kernel.stat(pid, "/waldo-db/wal").unwrap().size;
        assert!(
            wal <= 512 + 256,
            "round {round}: WAL grew to {wal} bytes despite the 512-byte policy"
        );
    }
    assert!(checkpoints > 1, "the size trigger must have fired");
    let s = waldo.checkpoint_stats();
    assert!(s.frames_truncated > 0, "truncation must drop frames");
    assert!(s.segments_written > 0);
    assert!(s.checkpoints as usize >= checkpoints);
}

// ---- the delta chain --------------------------------------------------

/// One named, typed, written file: a few entries, a few hundred bytes.
fn file_entries(volume: u32, i: u64) -> Vec<LogEntry> {
    let s = ObjectRef::new(p(volume, i), Version(0));
    let mut out = vec![
        prov(s, Attribute::Name, Value::Str(format!("/v{volume}/f{i}"))),
        prov(s, Attribute::Type, Value::str("FILE")),
        LogEntry::DataWrite {
            subject: s,
            offset: 0,
            len: 64,
            digest: [5u8; 16],
        },
    ];
    if i > 1 {
        let parent = ObjectRef::new(p(volume, i - 1), Version(0));
        out.push(prov(s, Attribute::Input, Value::Xref(parent)));
    }
    out
}

fn manual_cfg() -> WaldoConfig {
    WaldoConfig {
        shards: 4,
        ingest_batch: 8,
        ancestry_cache: 0,
        checkpoint_commits: 0,
        checkpoint_wal_bytes: 0,
        ..WaldoConfig::default()
    }
}

/// Forty equal commits, a checkpoint after each. Most are deltas; the
/// base is rewritten each time the chain has grown to its size, so
/// rewrites thin out as the store grows and everything written stays
/// within a small constant of what is stored. Retention collects
/// exactly what rotated out, a restart at any point rebuilds the
/// store from base + chain with no log to replay, and the first
/// checkpoint after a restart is a base (a restored store has no
/// record of what changed).
#[test]
fn chain_is_bounded_by_its_base_and_restarts_byte_equal() {
    let cfg = manual_cfg();
    let mut kernel = bare_kernel();
    let pid = kernel.spawn_init("waldo");
    let mut waldo = Waldo::with_config(pid, cfg);
    waldo.attach_db_dir(&mut kernel, "/waldo-db").unwrap();
    waldo.db.begin_stream();
    let mut rewrites = Vec::new();
    let (mut deltas, mut bytes) = (0, 0);
    let mut restored = false;
    for round in 0..40u64 {
        for i in 0..4 {
            stage_all(&mut waldo.db, &file_entries(1, 1 + round * 4 + i), 8);
        }
        let before = waldo.checkpoint_stats();
        assert!(waldo.checkpoint(&mut kernel).unwrap());
        let after = waldo.checkpoint_stats();
        let wrote_base = after.segments_written > before.segments_written;
        let wrote_delta = after.deltas_written > before.deltas_written;
        assert!(
            wrote_base != wrote_delta,
            "round {round}: exactly one writer runs"
        );
        assert!(
            wrote_base || !restored,
            "round {round}: a restored store's first checkpoint is a base"
        );
        if wrote_base && !restored {
            rewrites.push(round);
        }
        restored = false;
        deltas += u64::from(wrote_delta);
        bytes += after.segment_bytes - before.segment_bytes;
        let manifests = checkpoint_files(&mut kernel, pid)
            .iter()
            .filter(|n| n.starts_with("manifest."))
            .count();
        assert_eq!(manifests, (round as usize + 1).min(cfg.keep_checkpoints));

        if round == 25 || round == 39 {
            // Machine crash; carry on with the restarted daemon.
            let images = waldo.db.segment_images();
            drop(waldo);
            let listed = checkpoint_files(&mut kernel, pid);
            let pid2 = kernel.spawn_init("waldo-restarted");
            waldo = Waldo::restart(pid2, &mut kernel, cfg, "/waldo-db", &[]).unwrap();
            let report = waldo.restart_report().unwrap();
            assert_eq!(report.checkpoints_skipped, 0);
            assert_eq!(report.replayed_entries, 0);
            assert_eq!(waldo.db.segment_images(), images, "round {round}");
            // Attach sweeps unreferenced files: finding none means
            // steady-state collection had left none.
            assert_eq!(checkpoint_files(&mut kernel, pid), listed, "round {round}");
            restored = true;
        }
    }
    assert!(
        deltas >= 25,
        "most checkpoints must be deltas, got {deltas}"
    );
    // Rewrites the size rule chose (not the one the restart forced).
    assert!(
        rewrites.len() >= 4,
        "the chain must have reached its base several times: {rewrites:?}"
    );
    assert!(
        rewrites.windows(3).all(|w| w[2] - w[1] > w[1] - w[0]),
        "rewrites must thin out as the base grows: {rewrites:?}"
    );
    let stored: usize = waldo.db.segment_images().iter().map(Vec::len).sum();
    assert!(
        bytes <= 4 * stored as u64,
        "wrote {bytes} checkpoint bytes for a {stored}-byte store"
    );
}

/// `Store::merge` changes shards behind the delta record's back, so
/// the next checkpoint must not extend the chain: it rewrites the
/// base, and a restart from it equals the merged store.
#[test]
fn merge_then_checkpoint_rewrites_the_base() {
    let cfg = manual_cfg();
    let mut kernel = bare_kernel();
    let pid = kernel.spawn_init("waldo");
    let mut waldo = Waldo::with_config(pid, cfg);
    waldo.attach_db_dir(&mut kernel, "/waldo-db").unwrap();
    waldo.db.begin_stream();
    for i in 1..=12 {
        stage_all(&mut waldo.db, &file_entries(1, i), 8);
    }
    assert!(waldo.checkpoint(&mut kernel).unwrap());
    stage_all(&mut waldo.db, &file_entries(1, 13), 8);
    assert!(waldo.checkpoint(&mut kernel).unwrap());
    assert_eq!(waldo.checkpoint_stats().deltas_written, 1);

    let other = waldo::Store::with_config(cfg);
    other.ingest(&file_entries(2, 1));
    waldo.db.merge(&other).unwrap();
    stage_all(&mut waldo.db, &file_entries(1, 14), 8);
    let before = waldo.checkpoint_stats();
    assert!(waldo.checkpoint(&mut kernel).unwrap());
    let after = waldo.checkpoint_stats();
    assert_eq!(after.deltas_written, 1, "no delta may follow a merge");
    assert!(after.segments_written > before.segments_written);

    let images = waldo.db.segment_images();
    drop(waldo);
    let pid2 = kernel.spawn_init("waldo2");
    let restarted = Waldo::restart(pid2, &mut kernel, cfg, "/waldo-db", &[]).unwrap();
    assert_eq!(restarted.db.segment_images(), images);
    assert!(!restarted.db.find_by_name("/v2/f1").is_empty());
}

/// A durable daemon fed only by-value log images (the PA-NFS server
/// path) runs the checkpoint policy like the file path does: the WAL
/// is truncated, and — since by-value entries have no log to replay —
/// a machine crash loses nothing a checkpoint covered.
#[test]
fn by_value_ingest_checkpoints_by_policy_and_survives_a_crash() {
    let cfg = WaldoConfig {
        checkpoint_commits: 1,
        ..manual_cfg()
    };
    let mut kernel = bare_kernel();
    let pid = kernel.spawn_init("waldo");
    let mut waldo = Waldo::with_config(pid, cfg);
    waldo.attach_db_dir(&mut kernel, "/waldo-db").unwrap();
    let reference = waldo::Store::with_config(cfg);
    let mut checkpoints = 0;
    for image in 0..3u64 {
        let entries: Vec<LogEntry> = (1..=5)
            .flat_map(|i| file_entries(1, image * 5 + i))
            .collect();
        let mut bytes = bytes::BytesMut::new();
        for e in &entries {
            lasagna::encode_entry(&mut bytes, e).unwrap();
        }
        checkpoints += waldo.ingest_log_image(&mut kernel, &bytes).checkpoints;
        reference.ingest(&entries);
    }
    let s = waldo.checkpoint_stats();
    assert!(checkpoints >= 3, "the policy must fire on by-value ingest");
    assert_eq!(s.checkpoints as usize, checkpoints);
    assert!(s.frames_truncated > 0, "checkpoints must truncate the WAL");
    assert_eq!(kernel.stat(pid, "/waldo-db/wal").unwrap().size, 0);
    assert_eq!(waldo.db.segment_images(), reference.segment_images());

    drop(waldo); // machine crash
    let pid2 = kernel.spawn_init("waldo2");
    let restarted = Waldo::restart(pid2, &mut kernel, cfg, "/waldo-db", &[]).unwrap();
    assert_eq!(restarted.db.segment_images(), reference.segment_images());
}
