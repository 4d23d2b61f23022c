//! The cluster fan-in tier, end to end: real volumes, real rotated
//! logs, real daemons — against the single-daemon reference.
//!
//! ProvMark's correctness oracle (arXiv:1909.11187) for scaled-out
//! provenance collection: the distributed collector must record *the
//! same graph* as the single-node reference. Three layers of it here:
//!
//! * a single daemon serving a multi-volume system (the reference
//!   baseline itself must work: interleaved disclosure across
//!   volumes, rotate + poll both);
//! * the differential: an N-member cluster's merged store is
//!   byte-equivalent to the single daemon's
//!   (`Store::segment_images`), and scatter-gather `Cluster::query`
//!   answers equal the single-store planned pipeline's for ancestry,
//!   descendant, attribute-equality and prefix queries;
//! * cluster-wide durability: per-member checkpoint + machine crash +
//!   `System::restart_cluster` round-trips every member's store.

use dpapi::{Attribute, Bundle, ProvenanceRecord, Value, VolumeId};
use passv2::{System, SystemBuilder};
use sim_os::cost::CostModel;
use sim_os::fs::basefs::BaseFs;
use sim_os::fs::{FaultFs, FaultOp};
use waldo::{Cluster, IngestStats, WaldoConfig};

fn test_cfg() -> WaldoConfig {
    WaldoConfig {
        shards: 8,
        ingest_batch: 16,
        ancestry_cache: 64,
        // Checkpoints driven manually where a test wants them.
        checkpoint_commits: 0,
        checkpoint_wal_bytes: 0,
        ..WaldoConfig::default()
    }
}

/// Builds an `nvol`-volume machine and runs a deterministic
/// interleaved workload on it: per-round writes on every volume,
/// cross-volume copies (ancestry spanning members), and a disclosure
/// transaction targeted at each volume in turn (DPAPI v2 group
/// frames, so the volume-salted batch-id space is exercised).
/// Deterministic: two calls produce bit-identical logs.
fn multi_volume_system(nvol: u32, rounds: usize) -> System {
    // A plain volume homes the daemons' databases (no mount at "/"
    // in this machine; a db home on a PASS volume would also work —
    // daemons are observation-exempt — but keeping it plain mirrors
    // a dedicated database disk).
    let mut b = SystemBuilder::new(CostModel::default())
        .waldo_config(test_cfg())
        .plain_volume("/db");
    for v in 1..=nvol {
        b = b.pass_volume(&format!("/v{v}"), VolumeId(v));
    }
    let mut sys = b.build();
    let pid = sys.kernel.spawn_init("driver");
    for round in 0..rounds {
        for v in 1..=nvol {
            sys.kernel
                .write_file(pid, &format!("/v{v}/r{round}.dat"), b"round payload")
                .unwrap();
        }
        // Cross-volume copy: /v1's file of this round flows into a
        // rotating target volume (when there is more than one).
        if nvol > 1 {
            let target = (round as u32 % (nvol - 1)) + 2;
            let data = sys
                .kernel
                .read_file(pid, &format!("/v1/r{round}.dat"))
                .unwrap();
            sys.kernel
                .write_file(pid, &format!("/v{target}/x{round}.dat"), &data)
                .unwrap();
        }
        // Interleaved disclosure: one batched transaction per volume,
        // round-robin, so group frames from different volumes land in
        // different logs with salted batch ids.
        let vol = VolumeId((round as u32 % nvol) + 1);
        let h = sys.kernel.pass_mkobj(pid, Some(vol)).unwrap();
        let mut txn = dpapi::Txn::new();
        txn.disclose(
            h,
            Bundle::single(
                h,
                ProvenanceRecord::new(Attribute::Type, Value::str("STAGE")),
            ),
        );
        txn.disclose(
            h,
            Bundle::single(
                h,
                ProvenanceRecord::new(
                    Attribute::Other("ROUND".into()),
                    Value::str(format!("{round}")),
                ),
            ),
        );
        txn.sync(h);
        sys.kernel.pass_commit(pid, txn).unwrap();
    }
    sys.kernel.exit(pid);
    // Close out every volume's active log so polling sees everything.
    for (_, m, _) in &sys.volumes {
        sys.kernel.dpapi_at(*m).unwrap().force_log_rotation();
    }
    sys
}

/// Satellite baseline: one daemon, two PASS volumes, interleaved
/// disclosure — rotate and poll both. This is the reference the
/// cluster differential below must match.
#[test]
fn single_daemon_serves_two_volumes() {
    let mut sys = multi_volume_system(2, 6);
    let mut w = sys.spawn_waldo();
    let volumes = sys.volumes.clone();
    let total: IngestStats = volumes
        .iter()
        .map(|(path, m, _)| w.poll_volume(&mut sys.kernel, *m, path))
        .sum();
    assert!(total.applied > 0);
    assert!(
        total.txns_committed >= 6,
        "each round's disclosure transaction must commit as a batch: {total:?}"
    );
    assert!(w.db.open_txns().is_empty(), "no orphaned transactions");
    // Both volumes' objects are present and queryable.
    for v in 1..=2u32 {
        let found = w.db.find_by_name(&format!("/v{v}/r0.dat"));
        assert_eq!(found.len(), 1, "volume {v}'s file must be indexed");
        assert_eq!(found[0].volume, VolumeId(v));
    }
    // The cross-volume copy's ancestry reaches back into volume 1.
    let dst = w.db.find_by_name("/v2/x0.dat");
    assert_eq!(dst.len(), 1);
    let cur = w.db.object(dst[0]).unwrap().current;
    let anc =
        w.db.ancestors(dpapi::ObjectRef::new(dst[0], dpapi::Version(cur)));
    let src = w.db.find_by_name("/v1/r0.dat");
    assert!(
        anc.iter().any(|r| r.pnode == src[0]),
        "/v2/x0.dat must descend from /v1/r0.dat: {anc:?}"
    );
    // Disclosed STAGE objects landed on both volumes.
    let stages = w.db.find_by_type("STAGE");
    assert!(stages.iter().any(|p| p.volume == VolumeId(1)));
    assert!(stages.iter().any(|p| p.volume == VolumeId(2)));
}

/// The acceptance differential: for the same multi-volume workload,
/// an N-member cluster's merged store is byte-equivalent to the
/// single-daemon store, and scatter-gather queries answer identically
/// to the single-store planned pipeline.
#[test]
fn cluster_fan_in_matches_single_daemon_reference() {
    const NVOL: u32 = 4;
    const ROUNDS: usize = 8;

    // Reference: one daemon ingests every volume.
    let mut ref_sys = multi_volume_system(NVOL, ROUNDS);
    let mut single = ref_sys.spawn_waldo();
    let volumes = ref_sys.volumes.clone();
    let ref_stats: IngestStats = volumes
        .iter()
        .map(|(path, m, _)| single.poll_volume(&mut ref_sys.kernel, *m, path))
        .sum();
    let ref_images = single.db.segment_images();

    for members in [1usize, 2, 4] {
        // An identically-built machine, ingested by an N-member
        // cluster instead.
        let mut sys = multi_volume_system(NVOL, ROUNDS);
        let mut cluster = sys.spawn_cluster(members);
        let volumes = sys.volumes.clone();
        let stats = cluster.poll_volumes(&mut sys.kernel, &volumes);
        assert_eq!(
            stats.applied, ref_stats.applied,
            "{members}-member cluster must apply the same entries"
        );
        assert_eq!(stats.txns_committed, ref_stats.txns_committed);

        // Routing sanity: every volume went to exactly the member the
        // table says, and the members jointly hold the whole graph.
        let table = cluster.routing_table(volumes.iter().map(|(_, _, v)| *v));
        for (vol, member) in &table {
            assert_eq!(*member, cluster.route(*vol));
            assert!(*member < members);
        }

        // Store-level equivalence: merged member stores are
        // byte-identical to the reference under the canonical images.
        let merged = cluster.merged_store();
        assert_eq!(
            merged.segment_images(),
            ref_images,
            "{members}-member merge must equal the single-daemon store"
        );

        // Read-path equivalence: scatter-gather planned queries equal
        // the single-store planned pipeline, row for row.
        let queries = [
            // Ancestry (the paper's §5.7 shape), crossing volumes.
            "select A from Provenance.obj as F F.input* as A \
             where F.name = '/v2/x0.dat'",
            // Its names: one column read per run of nodes homed on
            // one member.
            "select A.name from Provenance.obj as F F.input* as A \
             where F.name = '/v2/x0.dat'",
            // Descendants: inverse closure over scattered reverse edges.
            "select D from Provenance.obj as F F.input~+ as D \
             where F.name = '/v1/r0.dat'",
            // Attribute equality via the generalized attribute index.
            "select S from Provenance.stage as S where S.round = '3'",
            // Prefix scan over the name index.
            "select F from Provenance.file as F where F.name like '/v3/*'",
        ];
        for q in queries {
            let clustered = cluster.query(q).expect("cluster query");
            let reference = single.query(q).expect("single-store query");
            assert_eq!(
                clustered.result, reference.result,
                "{members}-member scatter-gather must match single-store \
                 results for: {q}"
            );
            assert!(
                !clustered.result.is_empty(),
                "differential query must not be vacuous: {q}"
            );
        }
        let ops = cluster.query_ops();
        assert_eq!(ops.queries, queries.len() as u64);
        // Pushdown must survive the scatter: every member answered
        // the sargable root bindings from its indexes.
        assert!(ops.planner.index_hits >= 3, "{:?}", ops.planner);
    }
}

/// Cluster-wide durability: per-member checkpoints, a machine crash,
/// and a same-size restart rebuild every member byte-identically —
/// with each member replaying only its routed volumes.
#[test]
fn cluster_checkpoint_and_restart_round_trip() {
    const MEMBERS: usize = 2;
    let mut sys = multi_volume_system(3, 6);
    let mut cluster = sys.spawn_cluster_durable(MEMBERS, "/db/cluster");
    let volumes = sys.volumes.clone();
    cluster.poll_volumes(&mut sys.kernel, &volumes);
    let published = cluster.checkpoint_all(&mut sys.kernel).unwrap();
    assert!(published >= 1, "at least one member had data to publish");
    let images: Vec<_> = cluster
        .members()
        .iter()
        .map(|m| m.db.segment_images())
        .collect();
    let merged_images = cluster.merged_store().segment_images();
    drop(cluster); // machine crash: memory gone, disks survive

    let restarted = sys.restart_cluster(MEMBERS, "/db/cluster");
    for (i, member) in restarted.members().iter().enumerate() {
        assert_eq!(
            member.db.segment_images(),
            images[i],
            "member {i} must restart to its pre-crash store"
        );
    }
    assert_eq!(restarted.merged_store().segment_images(), merged_images);
    // The restarted cluster still serves scatter-gather queries.
    let mut restarted = restarted;
    let out = restarted
        .query("select F from Provenance.file as F where F.name like '/v1/*'")
        .unwrap();
    assert!(!out.result.is_empty());
}

/// More daemons than volumes: surplus members stay empty but the
/// cluster remains correct (merge and queries unaffected).
#[test]
fn oversized_cluster_tolerates_idle_members() {
    let mut sys = multi_volume_system(2, 4);
    let mut cluster = sys.spawn_cluster(5);
    let volumes = sys.volumes.clone();
    let stats = cluster.poll_volumes(&mut sys.kernel, &volumes);
    assert!(stats.applied > 0);
    let populated = cluster
        .members()
        .iter()
        .filter(|m| m.db.object_count() > 0)
        .count();
    assert!(populated <= 2, "at most one member per volume is populated");
    let out = cluster
        .query("select F from Provenance.file as F where F.name = '/v1/r0.dat'")
        .unwrap();
    assert_eq!(out.result.len(), 1);
}

/// A member's durable home vanishing (disk swap, bad mount) must fail
/// the restart with a *member-indexed* typed error — not a panic, not
/// a silent cold start — and restoring the home brings the whole
/// cluster back byte-equal.
#[test]
fn cluster_restart_names_the_member_with_a_missing_db_dir() {
    const MEMBERS: usize = 2;
    let mut sys = multi_volume_system(3, 4);
    let mut cluster = sys.spawn_cluster_durable(MEMBERS, "/db/cluster");
    let volumes = sys.volumes.clone();
    cluster.poll_volumes(&mut sys.kernel, &volumes);
    cluster.checkpoint_all(&mut sys.kernel).unwrap();
    let images: Vec<_> = cluster
        .members()
        .iter()
        .map(|m| m.db.segment_images())
        .collect();
    drop(cluster); // machine crash

    let admin = sys.kernel.spawn_init("admin");
    sys.kernel
        .rename(admin, "/db/cluster/member1", "/db/cluster/lost")
        .unwrap();
    let err = sys.try_restart_cluster(MEMBERS, "/db/cluster").unwrap_err();
    assert_eq!(err.member, 1, "the error names the failed member");
    assert!(
        matches!(err.source, waldo::RestartError::MissingDbDir { .. }),
        "unexpected restart error: {err}"
    );
    assert!(err.to_string().contains("member 1"), "{err}");

    // Repair the mount and everyone comes back to the pre-crash bytes.
    sys.kernel
        .rename(admin, "/db/cluster/lost", "/db/cluster/member1")
        .unwrap();
    let restarted = sys.restart_cluster(MEMBERS, "/db/cluster");
    for (i, member) in restarted.members().iter().enumerate() {
        assert_eq!(
            member.db.segment_images(),
            images[i],
            "member {i} must restart to its pre-crash store after repair"
        );
    }
}

/// A member whose checkpoints are all unreadable is reported with its
/// index and a typed `NoReadableCheckpoint` — never downgraded to a
/// full-replay cold start — while the surviving member still restarts
/// byte-equal from its own untouched home.
#[test]
fn cluster_restart_names_the_member_with_corrupt_checkpoints() {
    const MEMBERS: usize = 2;
    let mut sys = multi_volume_system(3, 4);
    let mut cluster = sys.spawn_cluster_durable(MEMBERS, "/db/cluster");
    let volumes = sys.volumes.clone();
    cluster.poll_volumes(&mut sys.kernel, &volumes);
    cluster.checkpoint_all(&mut sys.kernel).unwrap();
    let images: Vec<_> = cluster
        .members()
        .iter()
        .map(|m| m.db.segment_images())
        .collect();
    drop(cluster); // machine crash

    // Volume 1's member is guaranteed to have published checkpoints;
    // scribble over every one of its manifests.
    let target = waldo::route_volume(VolumeId(1), MEMBERS);
    let admin = sys.kernel.spawn_init("admin");
    let ckpt_dir = format!("/db/cluster/member{target}/checkpoints");
    let mut corrupted = 0;
    for entry in sys.kernel.readdir(admin, &ckpt_dir).unwrap() {
        if entry.name.starts_with("manifest.") {
            sys.kernel
                .write_file(admin, &format!("{ckpt_dir}/{}", entry.name), b"garbage")
                .unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted >= 1, "the target member published no manifests");

    let err = sys.try_restart_cluster(MEMBERS, "/db/cluster").unwrap_err();
    assert_eq!(err.member, target, "the error names the corrupted member");
    assert!(
        matches!(
            err.source,
            waldo::RestartError::NoReadableCheckpoint { manifests } if manifests == corrupted
        ),
        "unexpected restart error: {err}"
    );

    // The survivor's home is untouched: restarted on its own routed
    // volumes, it is byte-equal to its pre-crash store.
    let other = 1 - target;
    let pid = sys.kernel.spawn_init("waldo");
    sys.pass.exempt(pid);
    let mounts: Vec<String> = volumes
        .iter()
        .filter(|(_, _, v)| waldo::route_volume(*v, MEMBERS) == other)
        .map(|(p, _, _)| p.clone())
        .collect();
    let refs: Vec<&str> = mounts.iter().map(String::as_str).collect();
    let survivor = waldo::Waldo::restart(
        pid,
        &mut sys.kernel,
        test_cfg(),
        &format!("/db/cluster/member{other}"),
        &refs,
    )
    .unwrap();
    assert_eq!(
        survivor.db.segment_images(),
        images[other],
        "the surviving member restarts byte-equal"
    );
}

/// Under the default checkpoint policy members checkpoint mid-drain,
/// so several sweeps leave each with a base and a chain of deltas.
/// None of that may show: after a machine crash every member restarts
/// from its base + delta chain (plus retained logs) to its pre-crash
/// store.
#[test]
fn delta_chains_restart_to_the_pre_crash_stores() {
    const MEMBERS: usize = 2;
    const SWEEPS: usize = 6;
    let mut sys = SystemBuilder::new(CostModel::default())
        .waldo_config(WaldoConfig {
            // A few commits per sweep, a checkpoint every other
            // commit: chains of several deltas on each member.
            checkpoint_commits: 2,
            ..test_cfg()
        })
        .plain_volume("/db")
        .pass_volume("/v1", VolumeId(1))
        .pass_volume("/v2", VolumeId(2))
        .pass_volume("/v3", VolumeId(3))
        .build();
    let mut cluster = sys.spawn_cluster_durable(MEMBERS, "/db/cluster");
    let pid = sys.kernel.spawn_init("driver");
    let volumes = sys.volumes.clone();
    // The first sweep is the biggest, so its base leaves room for
    // the later sweeps' deltas.
    for sweep in 0..SWEEPS {
        for f in 0..(if sweep == 0 { 24 } else { 4 }) {
            for v in 1..=3 {
                sys.kernel
                    .write_file(pid, &format!("/v{v}/s{sweep}-f{f}"), b"sweep payload")
                    .unwrap();
            }
        }
        let data = sys
            .kernel
            .read_file(pid, &format!("/v1/s{sweep}-f0"))
            .unwrap();
        sys.kernel
            .write_file(pid, &format!("/v2/s{sweep}-copy"), &data)
            .unwrap();
        for (_, m, _) in &volumes {
            sys.kernel.dpapi_at(*m).unwrap().force_log_rotation();
        }
        cluster.poll_volumes(&mut sys.kernel, &volumes);
    }
    let (deltas, checkpoints) = cluster.members().iter().fold((0, 0), |(d, c), m| {
        let s = m.checkpoint_stats();
        (d + s.deltas_written, c + s.checkpoints)
    });
    assert!(checkpoints >= 4, "the policy must fire");
    assert!(deltas >= 2, "chains must form");
    let images: Vec<_> = cluster
        .members()
        .iter()
        .map(|m| m.db.segment_images())
        .collect();
    drop(cluster); // machine crash
    let restarted = sys.restart_cluster(MEMBERS, "/db/cluster");
    for (i, member) in restarted.members().iter().enumerate() {
        assert_eq!(member.restart_report().unwrap().checkpoints_skipped, 0);
        assert_eq!(
            member.db.segment_images(),
            images[i],
            "member {i} must restart to its pre-crash store"
        );
    }
}

/// `Cluster::set_runtime` selects nothing: it and `ClusterRuntime`
/// exist only because the frozen ledger names them. Pinned until they
/// are deleted: a sweep after `set_runtime(Threaded)` reports what the
/// default sweep reports and leaves byte-equal member stores.
#[test]
fn set_runtime_selects_nothing() {
    const MEMBERS: usize = 2;
    let run = |runtime: Option<waldo::ClusterRuntime>| {
        let mut sys = multi_volume_system(4, 6);
        let mut cluster = sys.spawn_cluster_durable(MEMBERS, "/db/cluster");
        if let Some(runtime) = runtime {
            cluster.set_runtime(runtime);
        }
        let volumes = sys.volumes.clone();
        let report = cluster.poll_volumes_report(&mut sys.kernel, &volumes);
        assert!(report.total.applied > 0 && report.healthy());
        assert!(report.member_timings.is_empty());
        let images: Vec<_> = cluster
            .members()
            .iter()
            .map(|m| m.db.segment_images())
            .collect();
        (report.per_volume, report.total, images)
    };
    assert_eq!(run(Some(waldo::ClusterRuntime::Threaded)), run(None));
}

/// One member's database disk fails `fsync` for a whole sweep: the
/// report must blame *every* volume that member drained (each commit
/// is persisted where it happens, so each poll sees its own failures)
/// and no volume of the healthy member. Nothing is lost: one clean
/// sweep later the persist succeeds, the logs committed under the
/// failure retire with the rest, and the merged store is byte-equal to
/// a twin whose disk never failed.
#[test]
fn a_failing_member_wal_is_blamed_on_every_volume_it_serves() {
    const NVOL: u32 = 6;
    let run = |failing: bool| {
        let mut sys = multi_volume_system(NVOL, 6);
        let (flaky, faults) =
            FaultFs::new(Box::new(BaseFs::new(sys.clock(), CostModel::default())));
        sys.kernel.mount("/flaky", Box::new(flaky));
        sys.waldo_cfg.keep_checkpoints = 1; // one manual checkpoint covers every log
        let mut cluster = Cluster::new(vec![
            sys.spawn_waldo_durable("/db/member0"),
            sys.spawn_waldo_durable("/flaky/member1"),
        ]);
        let volumes = sys.volumes.clone();
        let on_member_1: Vec<VolumeId> = (volumes.iter().map(|(_, _, v)| *v))
            .filter(|v| cluster.route(*v) == 1)
            .collect();
        assert!(
            (2..NVOL as usize).contains(&on_member_1.len()),
            "the test needs both members busy, member 1 with several volumes: {on_member_1:?}"
        );

        faults.set_failing(FaultOp::Fsync, failing);
        let report = cluster.poll_volumes_report(&mut sys.kernel, &volumes);
        let blamed: Vec<VolumeId> = report.issues().iter().map(|p| p.volume).collect();
        if failing {
            assert_eq!(blamed, on_member_1, "exactly member 1's volumes");
            assert!(report.issues().iter().all(|p| p.wal_errors >= 1));
            assert!(!report.healthy());
        } else {
            assert!(blamed.is_empty(), "{blamed:?}");
        }

        // More work, then one clean sweep.
        faults.set_failing(FaultOp::Fsync, false);
        let pid = sys.kernel.spawn_init("driver2");
        for (path, m, _) in &volumes {
            sys.kernel
                .write_file(pid, &format!("{path}/late.dat"), b"after the failure")
                .unwrap();
            sys.kernel.dpapi_at(*m).unwrap().force_log_rotation();
        }
        let errors_before = cluster.member(1).wal_errors();
        let report = cluster.poll_volumes_report(&mut sys.kernel, &volumes);
        assert!(report.issues().is_empty(), "{:?}", report.issues());
        assert_eq!(cluster.member(1).wal_errors(), errors_before);

        // Nothing is left to retire: a covering checkpoint unlinks
        // every closed log, those committed under the failure too.
        cluster.checkpoint_all(&mut sys.kernel).unwrap();
        for (path, _, _) in &volumes {
            let logs = sys.kernel.readdir(pid, &format!("{path}/.pass")).unwrap();
            assert_eq!(logs.len(), 1, "{path}: only the active log: {logs:?}");
        }
        let retired: u64 = (cluster.members().iter())
            .map(|m| m.checkpoint_stats().logs_retired)
            .sum();
        (cluster.merged_store().segment_images(), retired)
    };
    assert_eq!(run(true), run(false));
}
