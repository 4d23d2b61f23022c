//! The sluice front door over the PA-NFS wire: a stream of per-event
//! disclosure transactions submitted through the pipelined path
//! (bounded queue + coalescing drainer) versus committing each
//! transaction synchronously.
//!
//! `pipeline_invariants` runs before any timing (in `BENCH_QUICK` CI
//! mode too) and is what CI runs this bench for: at submit depth >= 8
//! the pipelined path must beat the synchronous path by >= 1.5x on both
//! RPC count and wire bytes, the resulting provenance store must be
//! **byte-equal** to the synchronous one (`Store::segment_images` after
//! ingesting the drained logs), and the queue's peak occupancy must
//! respect the configured budget — coalescing must not mean unbounded
//! memory.
//! The virtual-time sweep over coalescing depth is recorded in
//! EXPERIMENTS.md; the wall-clock figure is the ledger's
//! `nfs_pipelined`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpapi::{Attribute, Bundle, Dpapi, ProvenanceRecord, Value, VolumeId};
use provscope::Registry;
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::fs::{DpapiVolume, FileSystem};
use sluice::{BackpressurePolicy, ClientId, Sluice, SluiceConfig};
use std::hint::black_box;
use waldo::WaldoConfig;

struct Rig {
    server: std::rc::Rc<std::cell::RefCell<pa_nfs::NfsServer>>,
    client: pa_nfs::NfsClient,
    ino: sim_os::fs::Ino,
}

fn setup() -> Rig {
    let clock = Clock::new();
    let model = CostModel::default();
    let server = pa_nfs::pa_server(clock.clone(), model, VolumeId(5));
    let mut client = pa_nfs::client(&server, clock, model);
    let root = client.root();
    let ino = client.create(root, "target").unwrap();
    Rig {
        server,
        client,
        ino,
    }
}

/// One per-event disclosure transaction — the single-record shape the
/// pipeline amortizes across the wire.
fn event_txn(client: &mut pa_nfs::NfsClient, ino: sim_os::fs::Ino, i: usize) -> dpapi::Txn {
    let h = client.handle_for_ino(ino).unwrap();
    let mut txn = dpapi::Txn::new();
    txn.disclose(
        h,
        Bundle::single(
            h,
            ProvenanceRecord::new(
                Attribute::Other(format!("EVENT{}", i % 7)),
                Value::str(format!("event payload number {i} with some length to it")),
            ),
        ),
    );
    txn
}

/// Drains the server's logs and ingests them into a fresh store; the
/// returned segment images are the byte-equality oracle. One group
/// commit per log (huge `ingest_batch`), so shard generations depend
/// only on content — not on how the front door framed the stream.
fn store_images(rig: &Rig) -> Vec<Vec<u8>> {
    let db = waldo::ProvDb::with_config(WaldoConfig {
        ingest_batch: 1 << 20,
        ..WaldoConfig::default()
    });
    for image in rig.server.borrow_mut().drain_provenance_logs() {
        let (entries, _) = lasagna::parse_log(&image);
        db.ingest(&entries);
    }
    db.segment_images()
}

struct RunCost {
    rpcs: u64,
    wire_bytes: u64,
}

fn sync_run(n: usize) -> (RunCost, Vec<Vec<u8>>) {
    let mut rig = setup();
    let base = rig.client.stats();
    for i in 0..n {
        let txn = event_txn(&mut rig.client, rig.ino, i);
        rig.client.pass_commit(txn).unwrap();
    }
    let s = rig.client.stats();
    let cost = RunCost {
        rpcs: s.rpcs - base.rpcs,
        wire_bytes: (s.bytes_sent + s.bytes_received) - (base.bytes_sent + base.bytes_received),
    };
    let images = store_images(&rig);
    (cost, images)
}

fn pipelined_run(n: usize, coalesce: usize, queue_budget: usize) -> (RunCost, Vec<Vec<u8>>, u64) {
    let mut rig = setup();
    let mut pipe = Sluice::new(SluiceConfig {
        max_queued_ops: queue_budget,
        coalesce_ops: coalesce,
        policy: BackpressurePolicy::Block,
        ..SluiceConfig::default()
    });
    let base = rig.client.stats();
    let mut tickets = Vec::with_capacity(n);
    for i in 0..n {
        let txn = event_txn(&mut rig.client, rig.ino, i);
        tickets.push(pipe.submit(&mut rig.client, ClientId(1), txn).unwrap());
    }
    pipe.drain(&mut rig.client);
    for t in tickets {
        pipe.take(t).expect("resolved").expect("committed");
    }
    let s = rig.client.stats();
    let cost = RunCost {
        rpcs: s.rpcs - base.rpcs,
        wire_bytes: (s.bytes_sent + s.bytes_received) - (base.bytes_sent + base.bytes_received),
    };
    let mut reg = Registry::new();
    pipe.export_metrics("sluice.", &mut reg);
    let peak_ops = reg.gauge("sluice.queue.peak_ops");
    let images = store_images(&rig);
    (cost, images, peak_ops)
}

/// Hard acceptance gates, enforced before any timing loop runs.
fn pipeline_invariants() {
    const N: usize = 32;
    const DEPTH: usize = 8;
    const BUDGET: usize = 16;
    let (sync, sync_images) = sync_run(N);
    let (pipe, pipe_images, peak_ops) = pipelined_run(N, DEPTH, BUDGET);

    assert_eq!(
        sync_images, pipe_images,
        "pipelined store must be byte-equal to the synchronous store"
    );
    assert!(
        peak_ops <= BUDGET as u64,
        "queue memory must stay within the configured budget: \
         peak {peak_ops} ops vs budget {BUDGET}"
    );
    assert!(
        sync.rpcs as f64 >= 1.5 * pipe.rpcs as f64,
        "pipelining at depth {DEPTH} must amortize >= 1.5x on RPC count: \
         {} vs {}",
        sync.rpcs,
        pipe.rpcs
    );
    assert!(
        sync.wire_bytes as f64 >= 1.5 * pipe.wire_bytes as f64,
        "pipelining at depth {DEPTH} must amortize >= 1.5x on wire bytes: \
         {} vs {}",
        sync.wire_bytes,
        pipe.wire_bytes
    );
    println!(
        "pipeline_ingest/invariants: N={N} depth={DEPTH} rpcs {}->{} \
         ({:.1}x), wire bytes {}->{} ({:.2}x), queue peak {peak_ops}/{BUDGET} ops",
        sync.rpcs,
        pipe.rpcs,
        sync.rpcs as f64 / pipe.rpcs as f64,
        sync.wire_bytes,
        pipe.wire_bytes,
        sync.wire_bytes as f64 / pipe.wire_bytes as f64,
    );
}

fn bench_pipeline(c: &mut Criterion) {
    pipeline_invariants();

    let mut group = c.benchmark_group("pipeline_ingest");
    for depth in [1usize, 8, 32] {
        group.bench_with_input(BenchmarkId::new("submit_drain", depth), &depth, |b, &d| {
            b.iter_batched(
                setup,
                |mut rig| {
                    let mut pipe = Sluice::new(SluiceConfig {
                        coalesce_ops: d,
                        ..SluiceConfig::default()
                    });
                    for i in 0..32 {
                        let txn = event_txn(&mut rig.client, rig.ino, i);
                        pipe.submit(&mut rig.client, ClientId(1), txn).unwrap();
                    }
                    pipe.drain(&mut rig.client);
                    black_box(rig.client.stats().rpcs)
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
