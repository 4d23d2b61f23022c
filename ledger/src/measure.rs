//! What one pass over a workload measures, and the shared helpers the
//! workloads measure with: a stopwatch, the verified-query path, and
//! the daemon-call wrapper that accounts durable bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use pql::{GraphSource, PlanStats};
use sim_os::syscall::Kernel;
use waldo::{Cluster, IngestStats, Store, Waldo, WaldoConfig};

use crate::rig::bytes_written_by;
use crate::trace::{GraphShim, Layer, Probe};

/// How much work a run does. Work is *fixed* by `--seconds` (rounds
/// and sizes scale linearly with it) rather than cut off by a timer,
/// so every count and every store byte repeats exactly for a seed and
/// the traced, untraced and reference passes can be compared
/// byte for byte. The per-second rates were calibrated on the 2-core
/// bench host so that one pass's timed window lasts about `seconds`.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub seconds: f64,
}

impl Scale {
    /// `per_second` units of work for each second of budget, at least
    /// `floor`.
    pub fn units(&self, per_second: f64, floor: usize) -> usize {
        ((per_second * self.seconds).round() as usize).max(floor)
    }
}

/// The five query classes of the seeded mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryClass {
    Point,
    Shallow,
    Deep,
    Descendants,
    Prefix,
}

/// Each class with the per-layer metric its median latency reports as.
pub const QUERY_CLASSES: [(QueryClass, &str); 5] = [
    (QueryClass::Point, "pql.point_us_p50"),
    (QueryClass::Shallow, "pql.shallow_us_p50"),
    (QueryClass::Deep, "pql.deep_us_p50"),
    (QueryClass::Descendants, "pql.descendants_us_p50"),
    (QueryClass::Prefix, "pql.prefix_us_p50"),
];

/// The raw measurements of one pass. Stage times are summed over the
/// pass; the timed window is their sum — the benchmark's own work
/// between stages (expectation bookkeeping, answer comparison) is
/// outside it on every kind of pass.
#[derive(Default)]
pub struct Measured {
    /// Building machines, generating inputs, pre-loading stores.
    pub setup_s: f64,
    /// Front door: application submits / syscalls until completion.
    /// (The ingest and query stages' times are sums over the per-round
    /// and per-query readings below.)
    pub capture_s: f64,
    /// A bulk load done before the window, where the window itself
    /// ingests nothing (`query_static`): stands in for the ingest stage
    /// in the ingest rate, never in the window.
    pub bulk_s: f64,

    /// The workload's headline operations (see each workload's `why`).
    pub ops: u64,
    pub txns: u64,
    pub syscalls: u64,
    /// Log entries made queryable.
    pub entries: u64,
    pub attempted: u64,
    pub failed: u64,

    pub txn_us: Vec<f64>,
    /// Per round: the whole round, and the ingest stage's share of it.
    pub round_ms: Vec<f64>,
    pub round_ingest_ms: Vec<f64>,
    pub query_us: Vec<(QueryClass, f64)>,
    /// Per ingest call: milliseconds, and whether a checkpoint
    /// published during it.
    pub poll_ms: Vec<(f64, bool)>,
    pub restart_s: Vec<f64>,

    /// Bytes at rest in the daemon's durable homes at the end, and the
    /// entries they hold (`entries` where left zero).
    pub stored_bytes: u64,
    pub stored_entries: u64,
    /// Bytes the daemon wrote to its durable homes.
    pub written_bytes: u64,
    /// Capture stage of the same script on the Ext3 baseline.
    pub ext3_capture_s: f64,

    pub ingest: IngestStats,
    pub plan: PlanStats,
    /// Per-layer values the workload computed itself (counts from the
    /// layers' `stats()`, reference-pass timings).
    pub layer: BTreeMap<&'static str, f64>,
    /// Final store, canonical: the byte-equality oracle.
    pub images: Vec<Vec<u8>>,
    /// FNV digest of the generated input stream.
    pub digest: u64,
}

impl Measured {
    /// The timed window: every round, first operation to last answer.
    pub fn window_s(&self) -> f64 {
        self.round_ms.iter().sum::<f64>() / 1e3
    }

    /// Daemon ingest calls (poll, ingest, flush), WAL and checkpoints
    /// included.
    pub fn ingest_s(&self) -> f64 {
        self.round_ingest_ms.iter().sum::<f64>() / 1e3
    }

    pub fn query_s(&self) -> f64 {
        self.query_us.iter().map(|(_, us)| us).sum::<f64>() / 1e6
    }

    /// Records one attempted operation and whether it came out right.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }

    /// Closes a round of `total_s` seconds, `ingest_s` of them ingest.
    pub fn end_round(&mut self, total_s: f64, ingest_s: f64) {
        self.round_ms.push(total_s * 1e3);
        self.round_ingest_ms.push(ingest_s * 1e3);
    }
}

/// Runs `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// One daemon ingest call, as a stage: timed, its durable bytes and
/// ingest counters accumulated. Returns the elapsed seconds.
pub fn ingest_call(
    m: &mut Measured,
    probe: &Probe,
    kernel: &mut Kernel,
    f: impl FnOnce(&mut Kernel) -> IngestStats,
) -> f64 {
    let ((stats, written), s) =
        probe.stage(|| probe.span(Layer::Daemon, "ingest", || bytes_written_by(kernel, f)));
    m.written_bytes += written;
    m.entries += stats.applied as u64;
    m.ingest += stats;
    m.poll_ms.push((s * 1e3, stats.checkpoints > 0));
    s
}

/// Who answers a query: a single daemon or the cluster's
/// scatter-gather.
pub enum Asked<'a> {
    Daemon(&'a mut Waldo),
    Cluster(&'a mut Cluster),
}

/// Answers `text` and returns the first column's strings as a set.
/// Untraced, this is the daemon's (or cluster's) own query path;
/// traced, the same parse and planned execution run here with the
/// store behind a [`GraphShim`], so parse time, executor time and
/// store time separate. Both paths must return the same rows: the
/// caller compares the answer to the generator's expectation on
/// every kind of pass. Returns the answer and the elapsed seconds.
pub fn ask(
    m: &mut Measured,
    probe: &Probe,
    class: QueryClass,
    text: &str,
    asked: Asked<'_>,
) -> (BTreeSet<String>, f64) {
    let (out, s) = probe.stage(|| match (probe.tracer(), asked) {
        (None, Asked::Daemon(w)) => w.query(text),
        (None, Asked::Cluster(c)) => c.query(text),
        (Some(t), asked) => {
            let run = |graph: &dyn GraphSource| {
                let q = probe.span(Layer::PqlParse, "parse", || pql::parse(text))?;
                probe.span(Layer::Pql, "execute", || {
                    pql::plan::execute(
                        &q,
                        &GraphShim {
                            inner: graph,
                            tracer: t,
                        },
                    )
                })
            };
            match asked {
                Asked::Daemon(w) => run(&w.db),
                Asked::Cluster(c) => run(&c.graph()),
            }
        }
    });
    m.query_us.push((class, s * 1e6));
    let answer = match out {
        Ok(out) => {
            m.plan.absorb(&out.stats);
            out.result
                .rows
                .iter()
                .filter_map(|r| r.first().and_then(|c| c.as_str()).map(str::to_string))
                .collect()
        }
        // An error answers nothing; the caller's comparison against a
        // non-empty expectation counts it as a failed operation.
        Err(_) => BTreeSet::new(),
    };
    (answer, s)
}

/// The memory-only reference: the same log images parsed and applied
/// straight into a scratch store, one group commit per log. Its
/// canonical images are what every durable, restarted, traced or
/// merged store must equal; its timings are the parse and apply floors
/// the durable ingest rate is read against.
pub struct Reference {
    pub db: Store,
    parse_s: f64,
    apply_s: f64,
    wire_s: f64,
    entries: u64,
    records: u64,
}

impl Reference {
    pub fn new(cfg: WaldoConfig) -> Reference {
        Reference {
            db: Store::with_config(cfg),
            parse_s: 0.0,
            apply_s: 0.0,
            wire_s: 0.0,
            entries: 0,
            records: 0,
        }
    }

    pub fn absorb(&mut self, image: &[u8]) {
        let ((entries, _), s) = timed(|| lasagna::parse_log(image));
        self.parse_s += s;
        self.entries += entries.len() as u64;
        let (_, s) = timed(|| self.db.ingest(&entries));
        self.apply_s += s;
        // The DPAPI wire codec over the workload's own records.
        let (records, s) = timed(|| {
            let mut n = 0u64;
            for e in &entries {
                if let lasagna::LogEntry::Prov { record, .. } = e {
                    let bytes =
                        dpapi::wire::encode_record(record).expect("a logged record encodes");
                    std::hint::black_box(dpapi::wire::decode_record(&bytes).expect("and decodes"));
                    n += 1;
                }
            }
            n
        });
        self.wire_s += s;
        self.records += records;
    }

    /// Publishes the floors as per-layer values of `m`.
    pub fn publish(&self, m: &mut Measured) {
        let per = |s: f64, n: u64| if n > 0 { s * 1e9 / n as f64 } else { 0.0 };
        m.set(
            "lasagna.parse_ns_per_entry",
            per(self.parse_s, self.entries),
        );
        m.set(
            "waldo.store.apply_ns_per_entry",
            per(self.apply_s, self.entries),
        );
        m.set("dpapi.wire_ns_per_record", per(self.wire_s, self.records));
    }
}
