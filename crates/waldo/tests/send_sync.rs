//! Compile-time pins for the thread-safety contract of the public
//! surface. Ingest runs on the thread that holds the (`!Send`) kernel;
//! these bounds are for everyone else: snapshot readers share `&Store`
//! across threads while that thread commits (requires `Sync` —
//! `concurrency_spike.rs` exercises it), and an embedder may hand a
//! whole daemon or cluster to another thread (requires `Send`). If a
//! future change smuggles an `Rc`, `RefCell`, or raw pointer into any
//! of these types, this file stops compiling instead of a reader
//! silently losing its store.

use waldo::{
    Cluster, ClusterGraphSource, ClusterPollReport, ClusterRuntime, IngestStats, MemberTiming,
    ProvDb, Store, VolumePoll, Waldo, WaldoConfig,
};

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn storage_layer_is_send_and_sync() {
    // The shared-store core: one writer thread, many reader threads.
    assert_send_sync::<Store>();
    assert_send_sync::<ProvDb>();
    assert_send_sync::<WaldoConfig>();
    assert_send_sync::<IngestStats>();
}

#[test]
fn daemon_and_cluster_move_across_threads() {
    // Daemons and clusters may be handed to another thread whole;
    // their reports and plain-data types are freely shareable.
    assert_send::<Waldo>();
    assert_sync::<Waldo>();
    assert_send::<Cluster>();
    assert_send_sync::<ClusterRuntime>();
    assert_send_sync::<ClusterPollReport>();
    assert_send_sync::<MemberTiming>();
    assert_send_sync::<VolumePoll>();
}

#[test]
fn scatter_gather_reads_are_shareable() {
    // ClusterGraphSource borrows the member stores; concurrent PQL
    // readers share it.
    assert_send_sync::<ClusterGraphSource<'_>>();
}

#[test]
fn instrumentation_is_send_and_sync() {
    // provscope scopes ride inside daemons across threads, and the
    // registry aggregates from all of them.
    assert_send_sync::<provscope::Scope>();
    assert_send_sync::<provscope::Registry>();
    assert_send_sync::<provscope::Trace>();
    assert_send_sync::<provscope::Span>();
}
