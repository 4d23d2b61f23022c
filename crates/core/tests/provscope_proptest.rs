//! Property tests for the provscope cross-layer span contract, on
//! generated disclosure schedules rather than one hand-picked run:
//!
//! * every span's parent exists (and the whole forest passes
//!   [`provscope::Trace::validate`]: closed, ordered, same-trace);
//! * every multi-op disclosure transaction yields **exactly one**
//!   batch trace, and that trace is one connected span tree crossing
//!   every layer the machine has (dpapi → kernel → lasagna → waldo);
//! * single-op disclosures (a bare sync) allocate no batch id at all
//!   — their windows ride synthetic traces;
//!
//! on both the single-daemon machine and a 2-member cluster (where
//! the per-volume schedules interleave across members).

use dpapi::VolumeId;
use passv2::{System, SystemBuilder};
use proptest::prelude::*;
use sim_os::cost::CostModel;

/// Every provenance-bearing layer of a local PASS machine (the
/// PA-NFS layers are exercised by `bench --bin provscope_trace`).
const LOCAL_LAYERS: [&str; 4] = ["dpapi", "kernel", "lasagna", "waldo"];

/// Drives `rounds` disclosure transactions of `batch_ops` DPAPI ops
/// each against one object on `volume`. The trailing `sync` flushes
/// the module-cached disclosure records into the volume transaction;
/// `batch_ops = 1` is a bare sync — an unbatched volume commit.
fn disclose_rounds(sys: &mut System, volume: VolumeId, rounds: usize, batch_ops: usize) {
    let pid = sys.spawn("discloser");
    let h = sys
        .kernel
        .pass_mkobj(pid, Some(volume))
        .expect("mkobj on a PASS volume");
    for round in 0..rounds {
        let mut txn = dpapi::Txn::new();
        for i in 0..batch_ops - 1 {
            let mut bundle = dpapi::Bundle::new();
            bundle.push(
                h,
                dpapi::ProvenanceRecord::new(
                    dpapi::Attribute::Other(format!("PROP_V{}_R{round}", volume.0)),
                    dpapi::Value::Int(i as i64),
                ),
            );
            txn.disclose(h, bundle);
        }
        txn.sync(h);
        sys.kernel.pass_commit(pid, txn).expect("disclosure commit");
    }
    sys.kernel.pass_close(pid, h).expect("close");
}

/// The span-tree contract against a snapshot: well-formed forest,
/// exactly `expect_batches` batch traces, each one a connected tree
/// crossing every local layer.
fn check_contract(trace: &provscope::Trace, expect_batches: usize) -> Result<(), String> {
    prop_assert!(
        trace.validate().is_ok(),
        "span forest must validate: {:?}",
        trace.validate()
    );
    for s in &trace.spans {
        if let Some(p) = s.parent {
            prop_assert!(
                trace.spans.iter().any(|c| c.id == p),
                "span {} names a parent {} that does not exist",
                s.id.0,
                p.0
            );
        }
    }
    let batches = trace.batch_traces();
    prop_assert!(
        batches.len() == expect_batches,
        "every multi-op disclosure allocates exactly one batch id: \
         got {}, want {}",
        batches.len(),
        expect_batches
    );
    for t in batches {
        prop_assert!(t.is_batch());
        prop_assert!(
            trace.is_connected_tree(t),
            "batch {:?} must form one connected span tree",
            t
        );
        let layers = trace.layers_of(t);
        for need in LOCAL_LAYERS {
            prop_assert!(
                layers.contains(&need),
                "batch {:?} must cross {}; got {:?}",
                t,
                need,
                layers
            );
        }
    }
    Ok(())
}

fn single_daemon_trace(rounds: usize, batch_ops: usize) -> provscope::Trace {
    let mut sys = System::single_volume();
    let scope = sys.enable_tracing();
    disclose_rounds(&mut sys, VolumeId(1), rounds, batch_ops);
    let volumes = sys.volumes.clone();
    for (_, m, _) in &volumes {
        sys.kernel.dpapi_at(*m).unwrap().force_log_rotation();
    }
    let mut w = sys.spawn_waldo();
    w.set_scope(scope.clone());
    for (path, m, _) in &volumes {
        w.poll_volume(&mut sys.kernel, *m, path);
    }
    scope.snapshot()
}

fn cluster_trace(
    rounds: usize,
    batch_ops: usize,
    threaded: bool,
) -> (provscope::Trace, Vec<Vec<u8>>) {
    let mut sys = SystemBuilder::new(CostModel::default())
        .pass_volume("/v1", VolumeId(1))
        .pass_volume("/v2", VolumeId(2))
        .build();
    let scope = sys.enable_tracing();
    disclose_rounds(&mut sys, VolumeId(1), rounds, batch_ops);
    disclose_rounds(&mut sys, VolumeId(2), rounds, batch_ops);
    let volumes = sys.volumes.clone();
    for (_, m, _) in &volumes {
        sys.kernel.dpapi_at(*m).unwrap().force_log_rotation();
    }
    let mut cluster = sys.spawn_cluster(2);
    if threaded {
        cluster.set_runtime(waldo::ClusterRuntime::Threaded);
    }
    cluster.set_scope(scope.clone());
    cluster.poll_volumes(&mut sys.kernel, &volumes);
    let images = cluster
        .try_merged_store()
        .expect("disjoint members merge")
        .segment_images();
    (scope.snapshot(), images)
}

/// Interleaving-independent census of a span forest: how many spans
/// each (layer, name) pair produced, regardless of parentage.
/// Threaded runs may allocate span ids in any order and re-root the
/// coordinator-side durability spans, but may not grow or shrink
/// these counts relative to the sequential runtime.
fn span_census(
    trace: &provscope::Trace,
) -> std::collections::BTreeMap<(&'static str, String), usize> {
    let mut census = std::collections::BTreeMap::new();
    for s in &trace.spans {
        *census.entry((s.layer, s.name.clone())).or_insert(0) += 1;
    }
    census
}

/// The shape of the *batch* span trees only — (layer, name,
/// root-or-child) counts over spans bound to a batch trace. Unlike
/// the scope-wide census this does constrain parentage: batch trees
/// must keep the exact sequential structure on the threaded runtime.
/// (Non-batch spans are excluded because durability runs on the
/// coordinator thread there: `wal_persist` is a root span instead of
/// a `drain_logs` child. Batch trees never change shape.)
fn batch_shape(
    trace: &provscope::Trace,
) -> std::collections::BTreeMap<(&'static str, String, bool), usize> {
    let mut shape = std::collections::BTreeMap::new();
    for s in &trace.spans {
        if s.trace.is_some_and(|t| t.is_batch()) {
            *shape
                .entry((s.layer, s.name.clone(), s.parent.is_some()))
                .or_insert(0) += 1;
        }
    }
    shape
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Single daemon: every generated disclosure schedule produces a
    /// well-formed forest with one connected 4-layer tree per
    /// multi-op transaction, and none for bare syncs.
    #[test]
    fn single_daemon_span_trees(rounds in 1usize..4, batch_ops in 1usize..6) {
        let trace = single_daemon_trace(rounds, batch_ops);
        let expect = if batch_ops >= 2 { rounds } else { 0 };
        check_contract(&trace, expect)?;
    }

    /// 2-member cluster: two volumes' schedules interleave across
    /// members, yet every batch still resolves to exactly one
    /// connected tree — batch ids are volume-salted, so member
    /// fan-in cannot collide or split them.
    #[test]
    fn cluster_span_trees(rounds in 1usize..4, batch_ops in 2usize..6) {
        let (trace, _) = cluster_trace(rounds, batch_ops, false);
        check_contract(&trace, 2 * rounds)?;
    }

    /// Threaded 2-member cluster: members ingest on worker OS threads,
    /// yet the span contract is unchanged — every batch is still one
    /// connected tree crossing every local layer, with exactly the
    /// sequential runtime's tree shape; the scope-wide (layer, op)
    /// census matches span for span; and the merged store is
    /// byte-equal to the sequential run's. Only span *ids* (allocation
    /// order) and the parentage of coordinator-side durability spans
    /// may differ across runtimes.
    #[test]
    fn threaded_cluster_span_trees(rounds in 1usize..4, batch_ops in 2usize..6) {
        let (seq_trace, seq_images) = cluster_trace(rounds, batch_ops, false);
        let (thr_trace, thr_images) = cluster_trace(rounds, batch_ops, true);
        check_contract(&thr_trace, 2 * rounds)?;
        prop_assert!(
            span_census(&thr_trace) == span_census(&seq_trace),
            "threaded runtime changed the span census:\n{:?}\nvs sequential\n{:?}",
            span_census(&thr_trace),
            span_census(&seq_trace)
        );
        prop_assert!(
            batch_shape(&thr_trace) == batch_shape(&seq_trace),
            "threaded runtime changed a batch tree's shape:\n{:?}\nvs sequential\n{:?}",
            batch_shape(&thr_trace),
            batch_shape(&seq_trace)
        );
        prop_assert!(
            thr_images == seq_images,
            "threaded merged store diverged from sequential"
        );
    }
}
