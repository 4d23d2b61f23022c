//! The daemon end to end: syscalls through the PASS module and
//! Lasagna's rotated logs into Waldo, polled, checkpointed, restarted.

use dpapi::{Attribute, Value};
use passv2::System;
use waldo::{Waldo, WaldoConfig};

/// End-to-end: syscalls → observer → Lasagna log → Waldo → DB.
#[test]
fn pipeline_from_syscalls_to_database() {
    let mut sys = System::single_volume();
    let pid = sys.spawn("/usr/bin/convert");
    sys.kernel
        .execve(
            pid,
            "/usr/bin/convert",
            &["convert".into(), "in".into(), "out".into()],
            &[],
        )
        .ok();
    sys.kernel
        .write_file(pid, "/in.dat", b"input bytes")
        .unwrap();
    let data = sys.kernel.read_file(pid, "/in.dat").unwrap();
    sys.kernel.write_file(pid, "/out.dat", &data).unwrap();
    sys.kernel.exit(pid);

    let mut waldo = sys.spawn_waldo();
    for (mount, logs) in sys.rotate_all_logs() {
        let _ = mount;
        for log in logs {
            waldo.ingest_log_file(&mut sys.kernel, &log);
        }
    }
    assert!(waldo.processed_logs() >= 1);

    // The output file is in the database, named, with an ancestry
    // that reaches the input file through the process.
    let outs = waldo.db.find_by_name("/out.dat");
    assert_eq!(outs.len(), 1, "output file must be indexed by name");
    let out_obj = waldo.db.object(outs[0]).unwrap();
    let v = dpapi::Version(out_obj.current);
    let anc = waldo.db.ancestors(dpapi::ObjectRef::new(outs[0], v));
    let ins = waldo.db.find_by_name("/in.dat");
    assert_eq!(ins.len(), 1);
    assert!(
        anc.iter().any(|r| r.pnode == ins[0]),
        "ancestry of /out.dat must include /in.dat; got {anc:?}"
    );
    // The process appears as a typed object on the path.
    let procs = waldo.db.find_by_type("PROC");
    assert!(
        !procs.is_empty(),
        "the writing process must be materialized"
    );
    assert!(anc.iter().any(|r| procs.contains(&r.pnode)));
}

#[test]
fn poll_volume_drains_rotations_and_removes_logs() {
    let mut sys = System::single_volume();
    let pid = sys.spawn("sh");
    sys.kernel.write_file(pid, "/f", b"x").unwrap();
    let mut waldo = sys.spawn_waldo();

    let (_, m, _) = sys.volumes[0];
    // Force rotation through the volume, then poll.
    sys.kernel.dpapi_at(m).unwrap().force_log_rotation();
    let stats = waldo.poll_volume(&mut sys.kernel, m, "/");
    assert!(stats.applied > 0);
    // The processed log is gone from the log directory.
    let entries = sys.kernel.readdir(waldo.pid(), "/.pass").unwrap();
    assert_eq!(
        entries.iter().filter(|e| e.name == "log.0").count(),
        0,
        "processed log must be unlinked"
    );
    // Second poll: nothing new.
    let stats = waldo.poll_volume(&mut sys.kernel, m, "/");
    assert_eq!(stats.applied, 0);
}

/// With a database directory attached, a fully committed log is
/// retained until a checkpoint covers it, then unlinked.
#[test]
fn durable_daemon_retains_logs_until_checkpoint_covers_them() {
    let mut sys = System::single_volume();
    let pid = sys.spawn("sh");
    sys.kernel.write_file(pid, "/f", b"x").unwrap();
    let (_, m, _) = sys.volumes[0];
    sys.kernel.dpapi_at(m).unwrap().force_log_rotation();

    let waldo_pid = sys.kernel.spawn_init("waldo");
    sys.pass.exempt(waldo_pid);
    let mut waldo = Waldo::with_config(
        waldo_pid,
        WaldoConfig {
            checkpoint_commits: 0, // manual checkpoints only
            checkpoint_wal_bytes: 0,
            // Single-checkpoint retention: the first checkpoint
            // alone releases covered logs (keep 2, the default,
            // would hold them until a second one exists).
            keep_checkpoints: 1,
            ..WaldoConfig::default()
        },
    );
    waldo.attach_db_dir(&mut sys.kernel, "/waldo-db").unwrap();
    waldo.poll_volume(&mut sys.kernel, m, "/");
    // Fully committed, but no checkpoint yet: the log survives.
    let names = |sys: &mut System| -> Vec<String> {
        sys.kernel
            .readdir(waldo_pid, "/.pass")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect()
    };
    assert!(
        names(&mut sys).contains(&"log.0".to_string()),
        "log must be retained until checkpointed"
    );
    assert!(waldo.checkpoint(&mut sys.kernel).unwrap());
    assert!(
        !names(&mut sys).contains(&"log.0".to_string()),
        "covered log must be unlinked after the checkpoint"
    );
    assert_eq!(waldo.checkpoint_stats().logs_retired, 1);
    // Nothing new: a second checkpoint is a no-op.
    assert!(!waldo.checkpoint(&mut sys.kernel).unwrap());
}

/// A fresh daemon attached to a directory holding a foreign
/// incarnation's checkpoints deletes them instead of inheriting
/// their sequences: otherwise their high retention floor would
/// unlink new logs and a later restart would resurrect the stale
/// store over the live one.
#[test]
fn fresh_attach_discards_foreign_checkpoints() {
    let mut sys = System::single_volume();
    let pid = sys.kernel.spawn_init("setup");
    sys.pass.exempt(pid);
    sys.kernel.mkdir_p(pid, "/waldo-db/checkpoints").unwrap();
    sys.kernel
        .write_file(pid, "/waldo-db/checkpoints/manifest.100", b"stale garbage")
        .unwrap();
    sys.kernel
        .write_file(pid, "/waldo-db/wal", b"torn foreign frames")
        .unwrap();

    let waldo_pid = sys.kernel.spawn_init("waldo");
    sys.pass.exempt(waldo_pid);
    let mut waldo = Waldo::with_config(
        waldo_pid,
        WaldoConfig {
            checkpoint_commits: 0,
            checkpoint_wal_bytes: 0,
            keep_checkpoints: 1,
            ..WaldoConfig::default()
        },
    );
    waldo.attach_db_dir(&mut sys.kernel, "/waldo-db").unwrap();
    let names: Vec<String> = sys
        .kernel
        .readdir(waldo_pid, "/waldo-db/checkpoints")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert!(
        !names.contains(&"manifest.100".to_string()),
        "foreign manifest must be deleted at attach"
    );
    assert_eq!(
        sys.kernel.stat(waldo_pid, "/waldo-db/wal").unwrap().size,
        0,
        "foreign/torn WAL must be reset at attach"
    );

    // The daemon's own first checkpoint proceeds normally and a
    // cold restart loads it, not the (deleted) foreign one.
    let worker = sys.spawn("sh");
    sys.kernel.write_file(worker, "/fresh", b"x").unwrap();
    let (_, m, _) = sys.volumes[0];
    sys.kernel.dpapi_at(m).unwrap().force_log_rotation();
    waldo.poll_volume(&mut sys.kernel, m, "/");
    assert!(waldo.checkpoint(&mut sys.kernel).unwrap());
    let images = waldo.db.segment_images();
    let seq = waldo.db.commit_seq();
    drop(waldo);
    let pid2 = sys.kernel.spawn_init("waldo2");
    sys.pass.exempt(pid2);
    let cfg = WaldoConfig {
        checkpoint_commits: 0,
        checkpoint_wal_bytes: 0,
        keep_checkpoints: 1,
        ..WaldoConfig::default()
    };
    let restarted = Waldo::restart(pid2, &mut sys.kernel, cfg, "/waldo-db", &["/"]).unwrap();
    assert_eq!(restarted.restart_report().unwrap().loaded_seq, Some(seq));
    assert_eq!(restarted.db.segment_images(), images);
}

/// A tiny ingest batch forces commits (and unlinks) that straddle
/// log files; the resulting database is identical to a one-shot
/// ingest.
#[test]
fn small_batches_span_files_and_match_one_shot_ingest() {
    let run = |cfg: WaldoConfig| {
        let mut sys = System::single_volume();
        let pid = sys.spawn("sh");
        for i in 0..10 {
            sys.kernel
                .write_file(pid, &format!("/f{i}"), b"contents")
                .unwrap();
        }
        let (_, m, _) = sys.volumes[0];
        sys.kernel.dpapi_at(m).unwrap().force_log_rotation();
        let waldo_pid = sys.kernel.spawn_init("waldo");
        sys.pass.exempt(waldo_pid);
        let mut waldo = Waldo::with_config(waldo_pid, cfg);
        let stats = waldo.poll_volume(&mut sys.kernel, m, "/");
        (waldo, stats)
    };
    let (batched, bstats) = run(WaldoConfig {
        shards: 8,
        ingest_batch: 3,
        ancestry_cache: 0,
        ..WaldoConfig::default()
    });
    let (oneshot, ostats) = run(WaldoConfig {
        shards: 1,
        ingest_batch: 1 << 20,
        ancestry_cache: 0,
        ..WaldoConfig::default()
    });
    assert_eq!(bstats.applied, ostats.applied);
    assert!(bstats.group_commits > ostats.group_commits);
    assert_eq!(batched.db.object_count(), oneshot.db.object_count());
    assert_eq!(batched.db.size(), oneshot.db.size());
    for i in 0..10 {
        assert_eq!(
            batched.db.find_by_name(&format!("/f{i}")),
            oneshot.db.find_by_name(&format!("/f{i}")),
        );
    }
}

#[test]
fn process_records_include_argv_and_name() {
    let mut sys = System::single_volume();
    let pid = sys.spawn("init");
    sys.kernel
        .write_file(pid, "/bin-tool", b"ELF binary")
        .unwrap();
    sys.kernel
        .execve(
            pid,
            "/bin-tool",
            &["tool".into(), "--flag".into()],
            &["HOME=/home/alice".into()],
        )
        .unwrap();
    sys.kernel.write_file(pid, "/result", b"out").unwrap();
    sys.kernel.exit(pid);

    let mut waldo = sys.spawn_waldo();
    for (_, logs) in sys.rotate_all_logs() {
        for log in logs {
            waldo.ingest_log_file(&mut sys.kernel, &log);
        }
    }
    let procs = waldo.db.find_by_type("PROC");
    let tool = procs
        .iter()
        .find(|p| {
            waldo
                .db
                .object(**p)
                .and_then(|o| o.first_attr(&Attribute::Name).cloned())
                .map(|v| v == Value::str("/bin-tool"))
                .unwrap_or(false)
        })
        .expect("the exec'd process must be recorded with its NAME");
    let obj = waldo.db.object(*tool).unwrap();
    let argv = obj.first_attr(&Attribute::Argv).expect("ARGV recorded");
    assert_eq!(argv, &Value::StrList(vec!["tool".into(), "--flag".into()]));
    let env = obj.first_attr(&Attribute::Env).expect("ENV recorded");
    assert_eq!(env, &Value::StrList(vec!["HOME=/home/alice".into()]));
    // Both the binary file and the process bear the name (a
    // process's NAME is its executable path, per Table 1); the
    // file is distinguishable by TYPE.
    let bins = waldo.db.find_by_name("/bin-tool");
    let files = waldo.db.find_by_type("FILE");
    assert!(
        bins.iter().any(|p| files.contains(p)),
        "a FILE object named /bin-tool must exist"
    );
}
