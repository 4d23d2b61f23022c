//! The tracing contract end to end, on the traced PA-NFS Postmark rig
//! (`bench::traced_postmark`): every disclosure batch is one span
//! tree across five layers, traces are deterministic, and neither the
//! unbounded scope nor the flight recorder changes a stored byte or a
//! virtual nanosecond. Cheap enough for tier 1; CI also runs it in
//! the release profile.

use std::collections::BTreeSet;

use bench::{traced_postmark, TraceMode, TracedRun, TRACED_DISCLOSURES};
use provscope::{chrome_trace_json, parse_chrome_trace, RecorderConfig, TraceId};

/// The layers a batched disclosure must cross on the PA-NFS machine.
const REQUIRED_LAYERS: [&str; 5] = ["dpapi", "kernel", "lasagna", "pa-nfs", "waldo"];

/// Ring capacity for the bounded runs — ample for this rig, so the
/// memory gate (`high_water <= capacity`, zero shed) is strict.
const CAPACITY: usize = 4096;

fn keep_all() -> TraceMode {
    TraceMode::Recorder(RecorderConfig {
        capacity: CAPACITY,
        slow_capacity: CAPACITY,
        ..RecorderConfig::default()
    })
}

/// The retained trace-id set of a run.
fn trace_ids(run: &TracedRun) -> BTreeSet<u64> {
    run.trace
        .spans
        .iter()
        .filter_map(|s| s.trace.map(|t| t.0))
        .collect()
}

#[test]
fn chrome_json_parses_with_one_event_per_span() {
    let run = traced_postmark(8, TraceMode::Unbounded);
    run.trace.validate().expect("well-formed span forest");
    let events = parse_chrome_trace(&chrome_trace_json(&run.trace)).expect("chrome trace parses");
    assert_eq!(
        events.len(),
        run.trace.spans.len(),
        "every span exports as one complete event"
    );
}

#[test]
fn every_batch_is_one_tree_across_five_layers() {
    for batch_ops in [8, 32] {
        let run = traced_postmark(batch_ops, TraceMode::Unbounded);
        run.trace.validate().expect("well-formed span forest");
        assert_eq!(
            run.batch_traces.len(),
            TRACED_DISCLOSURES,
            "every multi-op disclosure allocates exactly one batch id"
        );
        for t in &run.batch_traces {
            assert!(t.is_batch(), "batch trace ids carry the batch tag bit");
            assert!(
                run.trace.is_connected_tree(*t),
                "batch {t:?} must form one connected span tree"
            );
            let layers = run.trace.layers_of(*t);
            for need in REQUIRED_LAYERS {
                assert!(
                    layers.contains(&need),
                    "batch {t:?} (batch_ops={batch_ops}) must cross {need}; got {layers:?}"
                );
            }
        }
    }
}

#[test]
fn same_seed_runs_export_identical_json() {
    let a = traced_postmark(8, TraceMode::Unbounded);
    let b = traced_postmark(8, TraceMode::Unbounded);
    assert_eq!(
        chrome_trace_json(&a.trace),
        chrome_trace_json(&b.trace),
        "same-seed traced runs must export byte-identical Chrome JSON"
    );
}

#[test]
fn tracing_off_leaves_the_store_byte_equal() {
    let on = traced_postmark(8, TraceMode::Unbounded);
    let off = traced_postmark(8, TraceMode::Off);
    assert!(
        off.trace.spans.is_empty() && off.batch_traces.is_empty(),
        "a disabled scope records nothing"
    );
    assert_eq!(
        off.segment_images, on.segment_images,
        "tracing must not change a single store byte"
    );
}

#[test]
fn recorder_runs_are_free_bounded_and_byte_equal() {
    for batch_ops in [1, 8, 32] {
        let base = traced_postmark(batch_ops, TraceMode::Off);
        let rec = traced_postmark(batch_ops, keep_all());
        assert_eq!(
            rec.elapsed_ns, base.elapsed_ns,
            "the recorder advanced the virtual clock at batch_ops={batch_ops}"
        );
        assert_eq!(
            rec.segment_images, base.segment_images,
            "recorder run diverged from untraced store bytes at batch_ops={batch_ops}"
        );
        assert!(
            rec.recorder.spans_high_water <= CAPACITY as u64,
            "high water {} exceeds capacity {CAPACITY}",
            rec.recorder.spans_high_water
        );
        assert_eq!(rec.recorder.spans_shed, 0, "ample capacity must not shed");
        rec.trace.validate().expect("well-formed retained forest");
    }
}

#[test]
fn sampled_twins_retain_the_same_traces_and_slow_ring() {
    // Pin the slow threshold at the median batch root duration, so the
    // slow ring is non-trivially populated.
    let full = traced_postmark(8, keep_all());
    let mut root_durations: Vec<u64> = full
        .batch_traces
        .iter()
        .filter_map(|t| {
            full.trace
                .spans_of(*t)
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.duration_ns())
                .max()
        })
        .collect();
    root_durations.sort_unstable();
    let cfg = RecorderConfig {
        capacity: CAPACITY,
        sample_per_million: 500_000,
        seed: 0xC0FF_EE00,
        slow_threshold_ns: root_durations[root_durations.len() / 2],
        slow_capacity: CAPACITY,
    };

    let a = traced_postmark(8, TraceMode::Recorder(cfg));
    let b = traced_postmark(8, TraceMode::Recorder(cfg));
    assert_eq!(
        trace_ids(&a),
        trace_ids(&b),
        "same-seed runs must retain identical sampled trace-id sets"
    );
    assert_eq!(
        chrome_trace_json(&a.trace),
        chrome_trace_json(&b.trace),
        "same-seed runs must export byte-identical Chrome JSON"
    );
    assert_eq!(
        a.slow, b.slow,
        "same-seed runs must pin identical slow rings"
    );
    assert!(
        !a.slow.is_empty(),
        "the median-root threshold must pin at least one slow trace"
    );

    // Every retained trace passed the pure sampling predicate or was
    // pinned by the tail rule. Synthetic traces count too: at this
    // threshold all four batch trees are slow-pinned, so a batch-only
    // check would hold whatever the sampling did.
    let slow: BTreeSet<u64> = a.slow.iter().map(|s| s.trace.0).collect();
    for t in trace_ids(&a).into_iter().map(TraceId) {
        assert!(
            cfg.samples(t) || slow.contains(&t.0),
            "retained trace {:#x} neither sampled nor slow-pinned",
            t.0
        );
    }
}
