//! Cluster fan-in ingest scaling: N Waldo daemons consuming distinct
//! volumes concurrently versus one daemon consuming them all.
//!
//! Members are fully independent (own store, own replay marks, own
//! batch-id space), so a fleet's ingest time is its *slowest
//! member's* — the simulation runs members sequentially and models
//! the fleet as `max(per-member time)`, in both the deterministic
//! virtual clock (the cost model charging each member's log reads
//! and ingest I/O) and host wall-clock. The invariants function (run
//! before any timing, in quick mode too, so CI enforces it) asserts
//! the 4-member fleet clears ≥1.5x the single daemon's ingest
//! throughput on a 4-volume workload — gated on the *virtual* ratio,
//! so CI runner load can neither fail it spuriously nor mask a real
//! regression — plus the differential check (merged cluster store ≡
//! single-daemon store). EXPERIMENTS.md records the fan-in scaling
//! table.

use criterion::{criterion_group, BatchSize, Criterion};
use passv2::{System, SystemBuilder};
use sim_os::cost::CostModel;
use std::hint::black_box;
use std::time::Instant;
use waldo::{route_volume, WaldoConfig};
use workloads::{MultiVolume, Postmark, Workload};

/// Volume ids chosen so the routing hash spreads them evenly at both
/// fleet sizes: one volume per member at 4 members, two per member at
/// 2 (`route_volume` is a fixed splitmix, so this is stable). The
/// `volumes_spread_across_members` check below pins it.
const VOLS: [u32; 4] = [1, 2, 6, 7];

fn cfg() -> WaldoConfig {
    WaldoConfig {
        shards: 8,
        ingest_batch: 64,
        ancestry_cache: 0,
        ..WaldoConfig::default()
    }
}

/// A 4-volume machine with one Postmark run's provenance pending on
/// every volume (rotated, ready to poll). Deterministic per call.
fn built_system() -> System {
    let mut b = SystemBuilder::new(CostModel::default()).waldo_config(cfg());
    for v in VOLS {
        b = b.pass_volume(&format!("/v{v}"), dpapi::VolumeId(v));
    }
    let mut sys = b.build();
    let driver = sys.spawn("driver");
    let wl = MultiVolume {
        base: Postmark {
            files: 60,
            transactions: 90,
            subdirs: 3,
            min_size: 512,
            max_size: 2048,
            seed: 7,
        },
        mounts: VOLS.iter().map(|v| format!("/v{v}")).collect(),
    };
    wl.run(&mut sys.kernel, driver, "/").expect("workload run");
    for (_, m, _) in &sys.volumes {
        sys.kernel.dpapi_at(*m).unwrap().force_log_rotation();
    }
    sys
}

/// One fleet's ingest of the whole machine: entries applied, and the
/// modeled fleet time — the slowest member's summed poll time, since
/// members run concurrently in a real deployment — in both clocks.
struct FleetRun {
    applied: usize,
    /// Slowest member's *virtual* time (the simulation's cost model
    /// charging its log reads and ingest I/O): deterministic, so the
    /// CI gate uses it.
    virtual_ns: u64,
    /// Slowest member's wall-clock time (includes host-side daemon
    /// compute the cost model does not charge): informational.
    wall_s: f64,
}

fn cluster_ingest_time(sys: &mut System, members: usize) -> FleetRun {
    let mut cluster = sys.spawn_cluster(members);
    let volumes = sys.volumes.clone();
    let clock = sys.clock();
    let mut wall = vec![0.0f64; members];
    let mut virt = vec![0u64; members];
    let mut applied = 0usize;
    for (path, m, v) in &volumes {
        let idx = cluster.route(*v);
        let t = Instant::now();
        let v0 = clock.now();
        applied += cluster.poll_volume(&mut sys.kernel, *m, path, *v).applied;
        virt[idx] += clock.now() - v0;
        wall[idx] += t.elapsed().as_secs_f64();
    }
    FleetRun {
        applied,
        virtual_ns: virt.iter().copied().max().unwrap_or(0),
        wall_s: wall.iter().cloned().fold(0.0, f64::max),
    }
}

/// The CI gate: routing spreads the bench volumes, the 4-member fleet
/// ingests ≥1.5x faster than the single daemon, and the fleet's
/// merged store is byte-identical to the single daemon's.
fn cluster_scaling_invariants() {
    // Routing spread (see VOLS): 4 members — one volume each; 2
    // members — two volumes each.
    let routes4: Vec<usize> = VOLS
        .iter()
        .map(|v| route_volume(dpapi::VolumeId(*v), 4))
        .collect();
    let mut sorted4 = routes4.clone();
    sorted4.sort_unstable();
    assert_eq!(
        sorted4,
        vec![0, 1, 2, 3],
        "bench volumes must spread one-per-member at 4 members: {routes4:?}"
    );
    for m in 0..2 {
        assert_eq!(
            VOLS.iter()
                .filter(|v| route_volume(dpapi::VolumeId(**v), 2) == m)
                .count(),
            2,
            "bench volumes must split 2/2 at 2 members"
        );
    }

    // Differential: the merged 4-member store equals the single
    // daemon's, so the speedup below is not bought with lost records.
    let mut ref_sys = built_system();
    let mut single = ref_sys.spawn_waldo();
    let volumes = ref_sys.volumes.clone();
    for (path, m, _) in &volumes {
        single.poll_volume(&mut ref_sys.kernel, *m, path);
    }
    let mut sys = built_system();
    let mut cluster = sys.spawn_cluster(4);
    let volumes = sys.volumes.clone();
    cluster.poll_volumes(&mut sys.kernel, &volumes);
    assert_eq!(
        cluster.merged_store().segment_images(),
        single.db.segment_images(),
        "the fleet's merged store must equal the single-daemon store"
    );

    // Throughput. The gate compares *virtual* fleet times — the cost
    // model charging each member's log reads and ingest I/O — which
    // are deterministic, so a loaded CI runner can neither fail this
    // spuriously nor mask a real regression. Wall-clock (best of 3,
    // to shed scheduler noise) is printed alongside for the
    // host-compute picture.
    // Best-of-3 matters only for the informational wall-clock column;
    // the virtual gate is identical across runs, so the quick (CI)
    // window builds each fleet once.
    let runs = if std::env::var_os("BENCH_QUICK").is_some() {
        1
    } else {
        3
    };
    let measure = |members: usize| -> FleetRun {
        (0..runs)
            .map(|_| {
                let mut sys = built_system();
                cluster_ingest_time(&mut sys, members)
            })
            .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
            .expect("at least one run")
    };
    let r1 = measure(1);
    let r2 = measure(2);
    let r4 = measure(4);
    assert_eq!(
        r1.applied, r4.applied,
        "all fleet sizes ingest the same stream"
    );
    assert_eq!(r1.applied, r2.applied);
    let vratio2 = r1.virtual_ns as f64 / r2.virtual_ns as f64;
    let vratio4 = r1.virtual_ns as f64 / r4.virtual_ns as f64;
    println!(
        "cluster_ingest/fan_in: {} entries; virtual fleet time 1 member \
         {:.2} ms, 2 members {:.2} ms ({vratio2:.2}x), 4 members {:.2} ms \
         ({vratio4:.2}x); wall-clock {:.2} / {:.2} / {:.2} ms",
        r1.applied,
        r1.virtual_ns as f64 / 1e6,
        r2.virtual_ns as f64 / 1e6,
        r4.virtual_ns as f64 / 1e6,
        r1.wall_s * 1e3,
        r2.wall_s * 1e3,
        r4.wall_s * 1e3,
    );
    assert!(
        vratio4 >= 1.5,
        "4-member fan-in must clear 1.5x single-daemon ingest throughput \
         (virtual time), got {vratio4:.2}x ({:.2} ms vs {:.2} ms)",
        r1.virtual_ns as f64 / 1e6,
        r4.virtual_ns as f64 / 1e6,
    );
}

fn bench_cluster(c: &mut Criterion) {
    cluster_scaling_invariants();

    let mut group = c.benchmark_group("cluster_ingest");
    for members in [1usize, 2, 4] {
        group.bench_function(format!("members_{members}"), |b| {
            b.iter_batched(
                built_system,
                |mut sys| {
                    let run = cluster_ingest_time(&mut sys, members);
                    black_box((run.applied, run.virtual_ns, run.wall_s))
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// `PROVSCOPE_TRACE=1` mode: one traced 4-member ingest sweep instead
/// of the criterion timing loops — prints the per-layer latency
/// attribution, the per-volume poll report, and the fleet's unified
/// metrics registry (the same renderer the table binaries use).
fn trace_mode() {
    let mut sys = built_system();
    let scope = sys.enable_tracing();
    let mut cluster = sys.spawn_cluster(4);
    cluster.set_scope(scope.clone());
    let volumes = sys.volumes.clone();
    let report = cluster.poll_volumes_report(&mut sys.kernel, &volumes);
    println!(
        "cluster_ingest trace: {} entries across {} volumes, {} issue(s)",
        report.total.applied,
        report.per_volume.len(),
        report.issues().len(),
    );
    for p in &report.per_volume {
        println!(
            "  volume {:>3} -> member {}: applied {:>5}, wal_errors {}",
            p.volume.0, p.member, p.stats.applied, p.wal_errors
        );
    }
    println!();
    println!("{}", scope.snapshot().render_latency_table());
    let mut reg = provscope::Registry::new();
    reg.absorb("kernel.", &sys.kernel.stats());
    cluster.record_metrics(&mut reg);
    println!("{}", reg.render_table());
}

criterion_group!(benches, bench_cluster);

fn main() {
    if std::env::var_os("PROVSCOPE_TRACE").is_some() {
        trace_mode();
        return;
    }
    benches();
}
