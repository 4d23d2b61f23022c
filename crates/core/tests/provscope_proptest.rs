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
/// PA-NFS layers are exercised by the root `tests/trace_gates.rs`).
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

fn cluster_trace(rounds: usize, batch_ops: usize) -> (provscope::Trace, Vec<Vec<u8>>) {
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
    cluster.set_scope(scope.clone());
    cluster.poll_volumes(&mut sys.kernel, &volumes);
    let images = cluster
        .try_merged_store()
        .expect("disjoint members merge")
        .segment_images();
    (scope.snapshot(), images)
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
        let (trace, _) = cluster_trace(rounds, batch_ops);
        check_contract(&trace, 2 * rounds)?;
    }

    /// A cluster sweep runs on the calling thread, so it is as
    /// deterministic as a single daemon: two same-schedule runs give a
    /// byte-identical Chrome trace — span ids and parentage included —
    /// and byte-equal merged stores.
    #[test]
    fn cluster_traces_are_byte_deterministic(rounds in 1usize..4, batch_ops in 2usize..6) {
        let (a_trace, a_images) = cluster_trace(rounds, batch_ops);
        let (b_trace, b_images) = cluster_trace(rounds, batch_ops);
        prop_assert!(
            provscope::chrome_trace_json(&a_trace) == provscope::chrome_trace_json(&b_trace),
            "same schedule, different trace bytes"
        );
        prop_assert!(a_images == b_images, "same schedule, different merged stores");
    }
}
