//! provscope — cross-layer span tracing and unified metrics for the
//! PASSv2 stack.
//!
//! The paper's central claim is that provenance must survive
//! *layering*: each layer (application, DPAPI, kernel, Lasagna,
//! PA-NFS, Waldo) transforms and forwards disclosure without losing
//! causality. This crate applies the same idea to the system's **own
//! execution**: every layer crossing of a disclosure transaction is
//! recorded as a span in a causally-linked trace — the observability
//! layer is itself a provenance graph of the provenance system.
//!
//! Three pieces:
//!
//! * **Spans** ([`Scope`], [`Span`], [`Trace`]) — enter/exit records
//!   on the *shared virtual clock*, stitched into per-transaction
//!   trees. The trace id of a batched disclosure **is** its
//!   volume-salted batch id ([`TraceId`]), which is what lets the
//!   asynchronous Waldo ingest of a group frame re-join the tree of
//!   the synchronous commit that produced it — no side channel, no
//!   extra log bytes.
//! * **Metrics** ([`Registry`], [`MetricSource`], [`Histogram`]) —
//!   named counters and log-bucketed latency histograms that absorb
//!   the stats structs of Waldo, the sluice and the PA-NFS client
//!   (`Waldo`, `QueryOps`, `SluiceStats`, `ClientStats`, …) behind
//!   one trait, with prefix labels for cluster members.
//! * **Exports** ([`chrome_trace_json`], [`Trace::layer_latency`],
//!   [`Registry::render_table`]) — a Chrome `trace_event` JSON
//!   exporter (loadable in `chrome://tracing` / Perfetto), a plain
//!   text per-layer latency attribution table, and a minimal JSON
//!   parser ([`parse_chrome_trace`]) so CI can validate an exported
//!   trace without external dependencies.
//!
//! A fourth piece makes the plane production-grade: the **flight
//! recorder** ([`Scope::recording`], [`RecorderConfig`]) bounds span
//! memory with whole-tree ring retention, deterministic head
//! sampling keyed on the volume-salted trace id, and tail-based
//! slow-trace pinning; and the [`health`] module evaluates typed
//! rules over a [`Registry`] snapshot into a [`HealthReport`].
//!
//! # Determinism contract
//!
//! provscope has **zero ambient entropy**: no wall clock, no
//! randomness, no hash-ordered iteration in any output. Span
//! timestamps come from an injected now-function (the simulation's
//! virtual clock), span ids are allocated sequentially, and a
//! [`Scope`] never advances the clock or perturbs any id allocation
//! in the system it observes. Two same-seed runs therefore export
//! byte-identical traces, and a run with tracing disabled is
//! byte-identical (down to the stored provenance) to one with
//! tracing enabled.
//!
//! The flight recorder preserves the contract: the head-sampling
//! verdict is a pure splitmix64 function of `(seed, trace_id)`, slow
//! pinning compares root durations on the injected clock, and
//! eviction order follows completion order — so two same-seed runs
//! retain byte-identical sampled trace sets and slow rings, and
//! turning the recorder on never changes a byte of the stored
//! provenance (the provtorture oracle gates this).

mod export;
pub mod health;
mod json;
mod metrics;
mod span;

pub use export::{chrome_trace_json, parse_chrome_trace, ChromeEvent};
pub use health::{HealthReport, HealthRule, HealthViolation};
pub use json::{parse_json, JsonValue};
pub use metrics::{Histogram, MetricSource, Registry};
pub use span::{
    LayerLatency, Nanos, RecorderConfig, RecorderStats, Scope, SlowTraceInfo, Span, SpanHandle,
    SpanId, Trace, TraceCtx, TraceId,
};
