//! Cold-restart latency: checkpointed restart versus full-log replay.
//!
//! Two daemons ingest the same multi-round filesystem history
//! durably. The *checkpointed* one publishes a checkpoint after every
//! round but the last, so its WAL is truncated and covered logs are
//! unlinked; the *replay-only* one never checkpoints, so every log is
//! retained. Both then suffer a machine crash, and the benchmark
//! times `Waldo::restart`: base rehydration, delta-chain replay and a
//! short log-tail replay against a from-scratch replay of the full log
//! history.
//! EXPERIMENTS.md records the measured ratio and the on-disk
//! checkpoint footprint this buys it with.
//!
//! After the timings comes a gate on counts alone (they repeat
//! exactly; no clock is read): over the checkpointed run's 39
//! checkpoints the daemon may write at most 4× the bytes it ends up
//! storing (delta checkpoints plus size-triggered base rewrites; a
//! daemon re-imaging the store at every checkpoint writes several
//! times that), and the store restarted from base + delta chain must
//! equal, byte for byte, the one rebuilt by full-log replay. Last
//! comes the write-amplification table EXPERIMENTS.md quotes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use passv2::{System, SystemBuilder};
use sim_os::cost::CostModel;
use std::hint::black_box;
use waldo::WaldoConfig;

const ROUNDS: usize = 40;
const FILES_PER_ROUND: usize = 60;
const DB_DIR: &str = "/db/waldo";

/// When the daemon of a [`crashed_machine`] checkpoints.
#[derive(Clone, Copy, PartialEq)]
enum Checkpoints {
    /// Never: every log is retained and restart replays them all.
    Never,
    /// By hand, after every round but the last.
    EveryRound,
    /// By the default policy (32 commits or 64 KiB of WAL).
    ByPolicy,
}

/// A machine whose daemon died after ingesting some rounds durably.
struct Crashed {
    sys: System,
    /// Bytes the daemon wrote through the kernel (WAL, segments,
    /// manifests — it writes nowhere else).
    written: u64,
    /// Log entries it applied.
    entries: u64,
    stats: waldo::CheckpointStats,
}

fn crashed_machine(rounds: usize, checkpoints: Checkpoints) -> Crashed {
    let cfg = match checkpoints {
        Checkpoints::ByPolicy => WaldoConfig {
            ancestry_cache: 0,
            ..WaldoConfig::default()
        },
        _ => WaldoConfig {
            shards: 8,
            ingest_batch: 32,
            ancestry_cache: 0,
            checkpoint_commits: 0, // checkpoints are driven manually below
            checkpoint_wal_bytes: 0,
            ..WaldoConfig::default()
        },
    };
    // The database lives on a plain volume of its own, so what the
    // daemon writes there is not itself provenance-tracked and every
    // machine observes the same history whatever it checkpoints.
    let mut sys = SystemBuilder::new(CostModel::default())
        .plain_volume("/db")
        .pass_volume("/", dpapi::VolumeId(1))
        .waldo_config(cfg)
        .build();
    let worker = sys.spawn("worker");
    let mut waldo = sys.spawn_waldo_durable(DB_DIR);
    let (_, m, _) = sys.volumes[0];
    let (mut written, mut entries) = (0, 0);
    for round in 0..rounds {
        // A realistic mix: most files are hot and rewritten every
        // round (history outgrows the live store — where checkpoints
        // pay off), a few are new each round.
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
        let before = sys.kernel.stats().bytes_written;
        entries += waldo.poll_volume(&mut sys.kernel, m, "/").applied as u64;
        if checkpoints == Checkpoints::EveryRound && round + 1 < rounds {
            waldo.checkpoint(&mut sys.kernel).unwrap();
        }
        written += sys.kernel.stats().bytes_written - before;
    }
    let stats = waldo.checkpoint_stats();
    // The machine crashes: the daemon's memory is gone, disks remain.
    drop(waldo);
    Crashed {
        sys,
        written,
        entries,
        stats,
    }
}

/// Bytes at rest on the database volume — WAL, segments, manifests,
/// directory metadata — as the ledger counts
/// `waldo.store.stored_bytes_per_entry`.
fn stored_bytes(sys: &System) -> u64 {
    let (db_mount, _) = sys.kernel.resolve_mount("/db").expect("the db volume");
    let usage = sys.kernel.usage_at(db_mount);
    usage.data_bytes + usage.meta_bytes
}

fn bench_restart(c: &mut Criterion) {
    let mut group = c.benchmark_group("restart");
    for (label, checkpoints) in [
        ("checkpointed", Checkpoints::EveryRound),
        ("full_log_replay", Checkpoints::Never),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || crashed_machine(ROUNDS, checkpoints).sys,
                |mut sys| {
                    let w = sys.restart_waldo(DB_DIR);
                    black_box(w.db.object_count())
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();

    // The table behind the timings: what each restart read and did.
    println!();
    println!(
        "{:<18} {:>9} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "restart path", "ckpt seq", "skipped", "frames", "replayed", "base KB", "chain KB"
    );
    let mut images = Vec::new();
    for (label, checkpoints) in [
        ("checkpointed", Checkpoints::EveryRound),
        ("full_log_replay", Checkpoints::Never),
    ] {
        let mut crashed = crashed_machine(ROUNDS, checkpoints);
        if checkpoints == Checkpoints::EveryRound {
            // The deterministic gate: counts only, no clock.
            let (written, stored) = (crashed.written, stored_bytes(&crashed.sys));
            println!(
                "write amplification: {written} B written / {stored} B stored = {:.2}x over {} checkpoints",
                written as f64 / stored as f64,
                crashed.stats.checkpoints
            );
            assert!(
                crashed.stats.checkpoints >= 20,
                "the gate needs a long chain history"
            );
            assert!(
                written <= 4 * stored,
                "daemon wrote {written} B to keep {stored} B: checkpoints are not O(delta)"
            );
        }
        let w = crashed.sys.restart_waldo(DB_DIR);
        let r = w.restart_report().expect("cold start").clone();
        println!(
            "{:<18} {:>9} {:>10} {:>10} {:>12} {:>10.1} {:>10.1}",
            label,
            r.loaded_seq.map(|s| s.to_string()).unwrap_or("-".into()),
            r.checkpoints_skipped,
            r.wal_frames,
            r.replayed_entries,
            r.base_bytes as f64 / 1024.0,
            r.chain_bytes as f64 / 1024.0,
        );
        assert!(w.db.object_count() > 0);
        images.push(w.db.segment_images());
    }
    assert!(
        images[0] == images[1],
        "restart from base + delta chain diverged from full-log replay"
    );

    // EXPERIMENTS.md's write-amplification table: the same history at
    // three lengths under the default checkpoint policy. Per entry:
    // everything the daemon wrote, the checkpoint share of it, and
    // what is left at rest; then the store's own image size and what
    // a restart reads (base) and replays (chain).
    println!();
    println!(
        "{:>8} {:>6} {:>10} {:>9} {:>10} {:>9} {:>8} {:>9}",
        "entries", "ckpts", "written/e", "ckpt/e", "stored/e", "image KB", "base KB", "chain KB"
    );
    for rounds in [80, 400, 940] {
        let mut crashed = crashed_machine(rounds, Checkpoints::ByPolicy);
        let stored = stored_bytes(&crashed.sys);
        let w = crashed.sys.restart_waldo(DB_DIR);
        let r = w.restart_report().expect("cold start");
        let image: usize = w.db.segment_images().iter().map(Vec::len).sum();
        let per_entry = |bytes: u64| bytes as f64 / crashed.entries as f64;
        println!(
            "{:>8} {:>6} {:>10.1} {:>9.1} {:>10.1} {:>9.1} {:>8.1} {:>9.1}",
            crashed.entries,
            crashed.stats.checkpoints,
            per_entry(crashed.written),
            per_entry(crashed.stats.segment_bytes),
            per_entry(stored),
            image as f64 / 1024.0,
            r.base_bytes as f64 / 1024.0,
            r.chain_bytes as f64 / 1024.0,
        );
    }
}

criterion_group!(benches, bench_restart);
criterion_main!(benches);
