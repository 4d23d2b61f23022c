//! End-to-end write-ahead-provenance recovery: run real activity
//! through the full stack, simulate a crash, and verify that recovery
//! identifies exactly the data whose provenance is inconsistent. Then
//! the same for the Waldo daemon's own durable state: checkpoint, crash,
//! cold restart — and what the checkpoints cost in bytes written.

use dpapi::VolumeId;
use lasagna::{recover, InconsistencyReason, Lasagna, LasagnaConfig, PASS_DIR};
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::fs::basefs::BaseFs;
use sim_os::fs::FileSystem;

fn volume() -> Lasagna {
    let clock = Clock::new();
    let model = CostModel::default();
    Lasagna::new(
        Box::new(BaseFs::new(clock.clone(), model)),
        clock,
        model,
        LasagnaConfig::new(VolumeId(1)),
    )
    .unwrap()
}

fn collect_logs(v: &mut Lasagna) -> Vec<Vec<u8>> {
    use sim_os::fs::DpapiVolume;
    v.force_log_rotation();
    let lower = v.lower_mut();
    let root = lower.root();
    let dir = lower.lookup(root, PASS_DIR).unwrap();
    let mut images = Vec::new();
    for e in lower.readdir(dir).unwrap() {
        let size = lower.getattr(e.ino).unwrap().size as usize;
        if size > 0 {
            images.push(lower.read(e.ino, 0, size).unwrap());
        }
    }
    images
}

#[test]
fn clean_volume_verifies_completely() {
    use dpapi::{Bundle, Dpapi};
    use sim_os::fs::DpapiVolume;
    let mut v = volume();
    let root = v.root();
    for i in 0..20 {
        let ino = v.create(root, &format!("f{i}")).unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        v.pass_write(h, 0, format!("contents {i}").as_bytes(), Bundle::new())
            .unwrap();
    }
    let logs = collect_logs(&mut v);
    let report = recover(v.lower_mut(), &logs);
    assert_eq!(report.verified_writes, 20);
    assert!(report.inconsistent.is_empty());
    assert_eq!(report.truncated_logs, 0);
    assert_eq!(report.corrupt_logs, 0);
}

#[test]
fn torn_data_write_is_pinpointed() {
    use dpapi::{Bundle, Dpapi};
    use sim_os::fs::DpapiVolume;
    let mut v = volume();
    let root = v.root();
    let mut inos = Vec::new();
    for i in 0..5 {
        let ino = v.create(root, &format!("f{i}")).unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        v.pass_write(h, 0, b"stable data", Bundle::new()).unwrap();
        inos.push(ino);
    }
    let logs = collect_logs(&mut v);

    // The crash tears file f2's data (half-written).
    let lower = v.lower_mut();
    lower.write(inos[2], 0, b"TORN").unwrap();

    let report = recover(lower, &logs);
    assert_eq!(report.verified_writes, 4);
    assert_eq!(report.inconsistent.len(), 1);
    assert_eq!(
        report.inconsistent[0].reason,
        InconsistencyReason::DigestMismatch
    );
}

#[test]
fn truncated_log_still_recovers_earlier_writes() {
    use dpapi::{Bundle, Dpapi};
    use sim_os::fs::DpapiVolume;
    let mut v = volume();
    let root = v.root();
    for i in 0..10 {
        let ino = v.create(root, &format!("g{i}")).unwrap();
        let h = v.handle_for_ino(ino).unwrap();
        v.pass_write(h, 0, b"payload bytes", Bundle::new()).unwrap();
    }
    let mut logs = collect_logs(&mut v);
    // Crash mid-append: chop the final log's tail.
    if let Some(last) = logs.last_mut() {
        let n = last.len();
        last.truncate(n - 7);
    }
    let report = recover(v.lower_mut(), &logs);
    assert_eq!(report.truncated_logs, 1);
    assert!(
        report.verified_writes >= 8,
        "most writes verified: {}",
        report.verified_writes
    );
    // The allocator can resume safely past every seen pnode.
    assert!(report.max_pnode >= 10);
}

#[test]
fn full_system_crash_recovery_via_kernel() {
    // Run activity through the kernel + module, then recover from the
    // on-disk logs alone.
    let mut sys = passv2::System::single_volume();
    let pid = sys.spawn("worker");
    sys.kernel.write_file(pid, "/a", b"alpha").unwrap();
    let data = sys.kernel.read_file(pid, "/a").unwrap();
    sys.kernel.write_file(pid, "/b", &data).unwrap();
    sys.kernel.exit(pid);

    // Read the raw logs through an exempt process.
    let reader = sys.kernel.spawn_init("reader");
    sys.pass.exempt(reader);
    let mut logs = Vec::new();
    for (_, rotated) in sys.rotate_all_logs() {
        for path in rotated {
            logs.push(sys.kernel.read_file(reader, &path).unwrap());
        }
    }
    assert!(!logs.is_empty());
    // Recovery over a replica: rebuild just the file contents.
    let clock = Clock::new();
    let model = CostModel::default();
    let mut replica = BaseFs::new(clock, model);
    let _root = replica.root();
    // INO numbers from the live system: a=/a, b=/b were inos 2 and 3
    // in creation order on a fresh volume (1 is the .pass dir, then
    // log.0, then the files) — instead of guessing, recreate with the
    // same sequence the volume used: .pass dir (ino X) etc. We simply
    // verify structural results (entries parsed, pnodes seen).
    let report = recover(&mut replica, &logs);
    assert!(report.entries_scanned > 0);
    assert!(report.max_pnode >= 2, "both files got pnodes");
    // On the replica the data is missing, so data writes flag as
    // UnknownFile/MissingData — recovery never silently passes.
    assert!(!report.inconsistent.is_empty());
}

#[test]
fn machine_crash_with_checkpoint_cold_restarts_waldo() {
    // The full stack: syscalls → Lasagna logs → durable Waldo with
    // checkpoints → machine crash → cold restart → identical queries.
    let mut sys = passv2::System::single_volume();
    let worker = sys.spawn("worker");
    let (_, m, _) = sys.volumes[0];
    let mut waldo = sys.spawn_waldo_durable("/waldo-db");

    // Wave 1 is checkpointed; wave 2 survives only in retained logs.
    sys.kernel
        .write_file(worker, "/src.c", b"int main(){}")
        .unwrap();
    let data = sys.kernel.read_file(worker, "/src.c").unwrap();
    sys.kernel.write_file(worker, "/src.o", &data).unwrap();
    sys.kernel.dpapi_at(m).unwrap().force_log_rotation();
    waldo.poll_volume(&mut sys.kernel, m, "/");
    waldo.checkpoint(&mut sys.kernel).unwrap();

    let obj = sys.kernel.read_file(worker, "/src.o").unwrap();
    sys.kernel.write_file(worker, "/a.out", &obj).unwrap();
    sys.kernel.dpapi_at(m).unwrap().force_log_rotation();
    waldo.poll_volume(&mut sys.kernel, m, "/");

    let reference_images = waldo.db.segment_images();
    drop(waldo); // machine crash: daemon memory gone, disks survive

    let restarted = sys.restart_waldo("/waldo-db");
    let report = restarted.restart_report().expect("cold start ran");
    assert!(report.loaded_seq.is_some(), "checkpoint must load");
    assert!(report.replayed_entries > 0, "wave 2 must replay from logs");
    assert_eq!(restarted.db.segment_images(), reference_images);

    // The rebuilt database answers the paper's lineage query: the
    // binary's ancestry reaches the source file.
    let outs = restarted.db.find_by_name("/a.out");
    assert_eq!(outs.len(), 1);
    let v = dpapi::Version(restarted.db.object(outs[0]).unwrap().current);
    let anc = restarted.db.ancestors(dpapi::ObjectRef::new(outs[0], v));
    let srcs = restarted.db.find_by_name("/src.c");
    assert_eq!(srcs.len(), 1);
    assert!(
        anc.iter().any(|r| r.pnode == srcs[0]),
        "/a.out ancestry must reach /src.c after cold restart"
    );
}

#[test]
fn durable_run_across_a_base_rewrite_restarts_equal_to_a_memory_reference() {
    // The store-divergence tripwire of tier 1: a durable daemon under
    // an eager checkpoint policy ingests a growing history — deltas
    // most of the time, a base rewrite whenever the chain has caught
    // up with the base — then the machine crashes. What restart
    // rebuilds from base + chain + retained logs must equal,
    // byte for byte, a memory-only store fed the same logs.
    let cfg = waldo::WaldoConfig {
        ingest_batch: 8,
        checkpoint_commits: 2,
        ancestry_cache: 0,
        ..waldo::WaldoConfig::default()
    };
    let mut sys = passv2::SystemBuilder::new(CostModel::default())
        .waldo_config(cfg)
        .pass_volume("/", VolumeId(1))
        .build();
    let worker = sys.spawn("worker");
    let mut waldo = sys.spawn_waldo_durable("/waldo-db");
    let reference = waldo::Store::with_config(cfg);
    for round in 0..12 {
        for f in 0..3 {
            let path = format!("/r{round}-f{f}");
            sys.kernel.write_file(worker, &path, b"round data").unwrap();
            let data = sys.kernel.read_file(worker, &path).unwrap();
            sys.kernel
                .write_file(worker, &format!("{path}.out"), &data)
                .unwrap();
        }
        for (_, logs) in sys.rotate_all_logs() {
            for log in logs {
                let image = sys.kernel.read_file(waldo.pid(), &log).unwrap();
                reference.ingest(&lasagna::parse_log(&image).0);
                waldo.ingest_log_file(&mut sys.kernel, &log);
            }
        }
    }
    let s = waldo.checkpoint_stats();
    assert!(s.deltas_written >= 4, "most checkpoints are deltas: {s:?}");
    assert!(
        s.checkpoints >= s.deltas_written + 2,
        "the run must cross a base rewrite: {s:?}"
    );
    assert_eq!(waldo.db.segment_images(), reference.segment_images());
    drop(waldo); // machine crash: daemon memory gone, disks survive

    let restarted = sys.restart_waldo("/waldo-db");
    let report = restarted.restart_report().expect("cold start ran");
    assert!(report.loaded_seq.is_some(), "a checkpoint must load");
    assert_eq!(report.checkpoints_skipped, 0);
    assert_eq!(restarted.db.segment_images(), reference.segment_images());
}

#[test]
fn checkpointing_every_round_writes_at_most_4x_what_it_stores() {
    // Total write amplification, counts only: a durable daemon ingests
    // 40 rounds of a realistic mix — most files hot and rewritten
    // every round, so history outgrows the live store; a few new each
    // round — and checkpoints after every round but the last. Over
    // those 39 checkpoints it may write (WAL + segments + manifests,
    // through the kernel) at most 4x the bytes it ends up storing:
    // delta checkpoints plus size-triggered base rewrites stay under
    // that, a daemon re-imaging the store at every checkpoint writes
    // several times it.
    const ROUNDS: usize = 40;
    const FILES_PER_ROUND: usize = 60;
    // The database lives on a plain volume of its own, so what the
    // daemon writes there is not itself provenance-tracked.
    let mut sys = passv2::SystemBuilder::new(CostModel::default())
        .plain_volume("/db")
        .pass_volume("/", VolumeId(1))
        .waldo_config(waldo::WaldoConfig {
            shards: 8,
            ingest_batch: 32,
            ancestry_cache: 0,
            checkpoint_commits: 0, // checkpoints are driven by hand below
            checkpoint_wal_bytes: 0,
            ..waldo::WaldoConfig::default()
        })
        .build();
    let worker = sys.spawn("worker");
    let mut waldo = sys.spawn_waldo_durable("/db/waldo");
    let (_, m, _) = sys.volumes[0];
    let mut written = 0;
    for round in 0..ROUNDS {
        for i in 0..FILES_PER_ROUND {
            let path = if i < FILES_PER_ROUND * 3 / 4 {
                format!("/hot-f{i}")
            } else {
                format!("/r{round}-f{i}")
            };
            sys.kernel
                .write_file(worker, &path, b"round payload bytes")
                .unwrap();
        }
        sys.kernel.dpapi_at(m).unwrap().force_log_rotation();
        // The daemon writes nowhere but its database directory.
        let before = sys.kernel.stats().bytes_written;
        waldo.poll_volume(&mut sys.kernel, m, "/");
        if round + 1 < ROUNDS {
            waldo.checkpoint(&mut sys.kernel).unwrap();
        }
        written += sys.kernel.stats().bytes_written - before;
    }
    // Bytes at rest on the database volume — WAL, segments, manifests,
    // directory metadata — as the ledger counts
    // `waldo.store.stored_bytes_per_entry`.
    let (db_mount, _) = sys.kernel.resolve_mount("/db").expect("the db volume");
    let usage = sys.kernel.usage_at(db_mount);
    let stored = usage.data_bytes + usage.meta_bytes;
    assert!(
        waldo.checkpoint_stats().checkpoints >= 20,
        "the gate needs a long chain history"
    );
    assert!(
        written <= 4 * stored,
        "daemon wrote {written} B to keep {stored} B: checkpoints are not O(delta)"
    );
}
