//! provtop — the operator's one-screen view of a running provenance
//! pipeline, fed entirely by the observability plane this repo grew:
//! sluice queue gauges, flight-recorder retention counters, per-layer
//! self-time quantiles from the span forest, health-rule verdicts and
//! the slow-trace ring.
//!
//! Drives the pipelined PA-NFS disclosure rig (sluice front door →
//! pa-nfs client/server → lasagna → waldo store) for a few ingest
//! ticks and renders one screen per tick:
//!
//! ```text
//! cargo run --release -p bench --bin provtop            # text screens
//! cargo run --release -p bench --bin provtop -- --json  # one JSON object per tick
//! cargo run --release -p bench --bin provtop -- --ticks 5 --txns 48
//! ```
//!
//! The JSON mode emits a deterministic, hand-rolled snapshot per tick
//! (sorted keys, virtual-clock timestamps) for dashboards and diff
//! tests.

use std::collections::BTreeMap;

use dpapi::{Attribute, Bundle, ObjectRef, ProvenanceRecord, Value, Version, VolumeId};
use provscope::{Histogram, RecorderConfig, Registry, Scope, Trace};
use sim_os::clock::Clock;
use sim_os::cost::CostModel;
use sim_os::fs::{DpapiVolume, FileSystem};
use sluice::{BackpressurePolicy, ClientId, Sluice, SluiceConfig};
use waldo::{ProvDb, WaldoConfig};

/// Per-layer self-time (span duration minus direct children) as a
/// histogram, so the screen can show p50/p99 instead of only sums.
fn layer_self_histograms(trace: &Trace) -> BTreeMap<&'static str, Histogram> {
    let mut child_ns = vec![0u64; trace.spans.len()];
    for s in &trace.spans {
        if let Some(p) = s.parent {
            if let Ok(i) = trace.spans.binary_search_by_key(&p.0, |x| x.id.0) {
                child_ns[i] += s.duration_ns();
            }
        }
    }
    let mut by_layer: BTreeMap<&'static str, Histogram> = BTreeMap::new();
    for (i, s) in trace.spans.iter().enumerate() {
        let self_ns = s.duration_ns().saturating_sub(child_ns[i]);
        by_layer.entry(s.layer).or_default().observe(self_ns);
    }
    by_layer
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

struct Args {
    ticks: usize,
    txns: usize,
    json: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        ticks: 3,
        txns: 24,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |name: &str| {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} wants a number"))
        };
        match a.as_str() {
            "--ticks" => args.ticks = num("--ticks"),
            "--txns" => args.txns = num("--txns"),
            "--json" => args.json = true,
            other => panic!("unknown flag {other} (try --ticks N, --txns N, --json)"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let clock = Clock::new();
    let model = CostModel::default();
    let server = pa_nfs::pa_server(clock.clone(), model, VolumeId(7));
    let mut client = pa_nfs::client(&server, clock.clone(), model);
    let root = client.root();
    let ino = client
        .create(root, "provtop-target")
        .expect("create target");

    // The always-on scope: bounded ring, full sampling, tail pinning
    // at 150µs virtual — batch commits that slow are worth keeping
    // whole.
    let recorder = RecorderConfig {
        capacity: 2048,
        sample_per_million: 1_000_000,
        seed: 0,
        slow_threshold_ns: 150_000,
        slow_capacity: 1024,
    };
    let scope = {
        let c = clock.clone();
        Scope::recording(move || c.now(), recorder)
    };
    client.set_scope(scope.clone());

    let mut pipe = Sluice::new(SluiceConfig {
        max_queued_ops: 64,
        coalesce_ops: 8,
        policy: BackpressurePolicy::Block,
        ..SluiceConfig::default()
    });
    pipe.set_scope(scope.clone());
    {
        let c = clock.clone();
        pipe.set_now(move || c.now());
    }

    let mut db = ProvDb::with_config(WaldoConfig::default());
    let rules = provscope::health::standard_rules();

    for tick in 1..=args.ticks {
        // One ingest tick: submit, drain, land the logs in the store,
        // answer a query burst.
        let mut tickets = Vec::with_capacity(args.txns);
        for i in 0..args.txns {
            let h = client.handle_for_ino(ino).expect("handle");
            let mut txn = dpapi::Txn::new();
            txn.disclose(
                h,
                Bundle::single(
                    h,
                    ProvenanceRecord::new(
                        Attribute::Other(format!("PROVTOP_T{tick}")),
                        Value::str(format!("tick {tick} event {i}")),
                    ),
                ),
            );
            tickets.push(pipe.submit(&mut client, ClientId(1), txn).expect("submit"));
        }
        pipe.drain(&mut client);
        for t in tickets {
            pipe.take(t).expect("resolved").expect("committed");
        }
        for image in server.borrow_mut().drain_provenance_logs() {
            let (entries, _) = lasagna::parse_log(&image);
            db.ingest(&entries);
        }
        let mut pnodes = db.all_pnodes();
        pnodes.sort_unstable();
        for p in pnodes.iter().take(16) {
            let _ = db.ancestors(ObjectRef::new(*p, Version(0)));
        }

        // Snapshot the whole plane.
        let mut reg = Registry::new();
        pipe.export_metrics("sluice.", &mut reg);
        scope.export_metrics(&mut reg);
        reg.absorb("pa-nfs.client.", &client.stats());
        let health = provscope::health::evaluate(&rules, &reg);
        let trace = scope.snapshot();
        let layers = layer_self_histograms(&trace);
        let rec = scope.recorder_stats();
        let slow = scope.slow_traces();
        let now = clock.now();

        if args.json {
            let layer_rows: Vec<String> = layers
                .iter()
                .map(|(l, h)| {
                    format!(
                        "{{\"layer\": \"{l}\", \"spans\": {}, \"self_p50_ns\": {}, \
                         \"self_p99_ns\": {}}}",
                        h.count(),
                        h.quantile(0.5),
                        h.quantile(0.99)
                    )
                })
                .collect();
            let violation_rows: Vec<String> = health
                .violations
                .iter()
                .map(|v| {
                    format!(
                        "{{\"metric\": \"{}\", \"value\": {}, \"limit\": {}}}",
                        json_escape(&v.metric),
                        v.value,
                        v.limit
                    )
                })
                .collect();
            let slow_rows: Vec<String> = slow
                .iter()
                .map(|s| {
                    format!(
                        "{{\"trace\": \"{:#x}\", \"root\": \"{}/{}\", \
                         \"duration_ns\": {}, \"spans\": {}}}",
                        s.trace.0,
                        json_escape(s.root_layer),
                        json_escape(&s.root_name),
                        s.duration_ns,
                        s.spans
                    )
                })
                .collect();
            println!(
                "{{\"tick\": {tick}, \"virtual_ns\": {now}, \
                 \"queue\": {{\"ops\": {}, \"bytes\": {}, \"peak_ops\": {}, \
                 \"budget_ops\": {}, \"peak_bytes\": {}, \"budget_bytes\": {}}}, \
                 \"recorder\": {{\"spans_live\": {}, \"spans_high_water\": {}, \
                 \"trees_retained\": {}, \"trees_evicted\": {}, \
                 \"trees_sampled_out\": {}, \"slow_trees\": {}, \"spans_shed\": {}}}, \
                 \"layers\": [{}], \
                 \"health\": {{\"healthy\": {}, \"rules\": {}, \"violations\": [{}]}}, \
                 \"slow_traces\": [{}]}}",
                reg.gauge("sluice.queue.ops"),
                reg.gauge("sluice.queue.bytes"),
                reg.gauge("sluice.queue.peak_ops"),
                reg.gauge("sluice.queue.budget_ops"),
                reg.gauge("sluice.queue.peak_bytes"),
                reg.gauge("sluice.queue.budget_bytes"),
                rec.spans_live,
                rec.spans_high_water,
                rec.trees_retained,
                rec.trees_evicted,
                rec.trees_sampled_out,
                rec.slow_trees,
                rec.spans_shed,
                layer_rows.join(", "),
                health.healthy(),
                health.rules_evaluated,
                violation_rows.join(", "),
                slow_rows.join(", "),
            );
            continue;
        }

        println!(
            "== provtop == tick {tick}/{} == virtual {:.3}s == spans live {} \
             (high water {}, cap {})",
            args.ticks,
            now as f64 / 1e9,
            rec.spans_live,
            rec.spans_high_water,
            recorder.capacity
        );
        println!(
            "queue       ops {:>4}/{:<5} bytes {:>7}/{:<8} (peaks: {} ops, {} bytes)",
            reg.gauge("sluice.queue.ops"),
            reg.gauge("sluice.queue.budget_ops"),
            reg.gauge("sluice.queue.bytes"),
            reg.gauge("sluice.queue.budget_bytes"),
            reg.gauge("sluice.queue.peak_ops"),
            reg.gauge("sluice.queue.peak_bytes"),
        );
        println!(
            "recorder    retained {} trees, evicted {}, sampled out {}, \
             slow {}, shed {}",
            rec.trees_retained,
            rec.trees_evicted,
            rec.trees_sampled_out,
            rec.slow_trees,
            rec.spans_shed
        );
        println!(
            "{:<10} {:>7} {:>14} {:>14}",
            "layer", "spans", "self_p50_us", "self_p99_us"
        );
        for (l, h) in &layers {
            println!(
                "{:<10} {:>7} {:>14.3} {:>14.3}",
                l,
                h.count(),
                h.quantile(0.5) as f64 / 1_000.0,
                h.quantile(0.99) as f64 / 1_000.0
            );
        }
        if health.healthy() {
            println!("health      OK ({} rules)", health.rules_evaluated);
        } else {
            println!(
                "health      {} violation(s) of {} rules:",
                health.violations.len(),
                health.rules_evaluated
            );
            for v in &health.violations {
                println!("  !! {}", v.message);
            }
        }
        if slow.is_empty() {
            println!("slow traces (none over {}ns)", recorder.slow_threshold_ns);
        } else {
            println!(
                "slow traces ({} pinned, threshold {}ns):",
                slow.len(),
                recorder.slow_threshold_ns
            );
            for s in slow.iter().rev().take(3) {
                println!(
                    "  {:#018x}  {}/{}  {:.3}ms  {} spans",
                    s.trace.0,
                    s.root_layer,
                    s.root_name,
                    s.duration_ns as f64 / 1e6,
                    s.spans
                );
            }
        }
        println!();
    }
}
