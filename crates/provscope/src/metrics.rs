//! The unified metrics registry: named counters, log-bucketed latency
//! histograms, and the [`MetricSource`] trait through which a stats
//! struct pours its counters in.
//!
//! Every layer keeps a typed stats struct with `AddAssign`/`Sum`
//! roll-ups; those are the views code asserts against. The structs a
//! registry actually collects implement [`MetricSource`]: Waldo's
//! daemon and query counters (`Waldo`, `QueryOps`, with the nested
//! `CheckpointStats` and `PlanStats`), the sluice's `SluiceStats`, the
//! PA-NFS `ClientStats` and the bench rig's `WaldoOps`. A [`Registry`]
//! absorbs one under a prefix (`"member0."` for cluster members),
//! merges registries, and renders an aligned text table so the bench
//! binaries stop hand-rolling their printing.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Anything that can pour its metrics into a registry as named
/// `(key, value)` pairs. Implemented by the per-layer stats structs;
/// keys are stable dotted names (`"dpapi_txns"`, `"records"`, …).
pub trait MetricSource {
    /// Emits every metric as a `(name, value)` pair. Implementations
    /// must emit in a deterministic order.
    fn record(&self, out: &mut dyn FnMut(&str, u64));
}

/// A log₂-bucketed latency histogram.
///
/// Bucket `i` counts observations whose value needs `i` bits
/// (`bucket 0` = value 0, bucket `i` = values in `[2^(i-1), 2^i)`),
/// which gives fixed-size storage (65 buckets covers all of `u64`)
/// and is exactly reproducible — no floating-point bucket boundaries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding quantile `q` in `[0,1]` —
    /// e.g. `quantile(0.99)` returns a power-of-two ceiling on the
    /// p99.
    ///
    /// # Error contract
    ///
    /// Buckets are log₂-sized, so the returned value is the
    /// *exclusive* power-of-two ceiling `2^i` of the bucket holding
    /// the ranked observation: the true quantile `t` satisfies
    /// `t < quantile(q) <= 2 * t` for `t >= 1` (an overestimate by a
    /// factor of strictly less than 2), and `quantile(q) == 0`
    /// exactly when the ranked observation is 0. `q` is clamped to
    /// `[0, 1]`.
    ///
    /// # Empty histograms
    ///
    /// An empty histogram has no ranked observation; `quantile`
    /// returns **0** for every `q`. Callers that must distinguish "no
    /// data" from "all observations were 0" check [`Histogram::count`]
    /// first.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i.min(63) };
            }
        }
        u64::MAX
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// A registry of named counters, gauges and histograms.
///
/// Keys are dotted strings; all maps are `BTreeMap` so iteration —
/// and therefore every rendered table and export — is
/// deterministically ordered.
///
/// Counters only ever add; gauges are *level* metrics (queue depth,
/// in-flight ops) that can move both ways, so [`Registry::set_gauge`]
/// overwrites and merging keeps the **maximum** — the deterministic
/// "high-water mark" interpretation that makes a merged cluster
/// registry report peak pressure rather than a meaningless sum.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `v` to counter `name` (creating it at 0).
    pub fn add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Records one observation in histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.hists.entry(name.to_string()).or_default().observe(v);
    }

    /// Sets gauge `name` to its current level `v` (overwrites).
    pub fn set_gauge(&mut self, name: &str, v: u64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Raises gauge `name` to `v` if `v` is higher — records a
    /// high-water mark without clobbering an earlier peak.
    pub fn gauge_max(&mut self, name: &str, v: u64) {
        let g = self.gauges.entry(name.to_string()).or_insert(0);
        *g = (*g).max(v);
    }

    /// Merges a pre-built histogram into histogram `name` — the export
    /// path for sources that already aggregate latencies locally.
    pub fn absorb_histogram(&mut self, name: &str, h: &Histogram) {
        self.hists.entry(name.to_string()).or_default().merge(h);
    }

    /// Pours a [`MetricSource`] in, prefixing every key — e.g.
    /// `absorb("member0.kernel.", &stats)`.
    pub fn absorb(&mut self, prefix: &str, source: &dyn MetricSource) {
        let counters = &mut self.counters;
        source.record(&mut |name, v| {
            *counters.entry(format!("{prefix}{name}")).or_insert(0) += v;
        });
    }

    /// Merges another registry into this one (counters add, gauges
    /// keep the maximum, histograms merge).
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(0);
            *g = (*g).max(*v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Counter value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge level (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Renders everything as an aligned text table: counters first
    /// (key order), then gauges, then histograms with
    /// count/mean/p50/p99. This is the one stats printer the bench
    /// binaries share.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let w = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<w$}  {v:>12}");
            }
        }
        if !self.gauges.is_empty() {
            let w = self
                .gauges
                .keys()
                .map(|k| k.len() + "(gauge)".len() + 1)
                .max()
                .unwrap_or(0);
            for (k, v) in &self.gauges {
                let key = format!("{k} (gauge)");
                let _ = writeln!(out, "  {key:<w$}  {v:>12}");
            }
        }
        if !self.hists.is_empty() {
            let w = self.hists.keys().map(|k| k.len()).max().unwrap_or(0).max(4);
            let _ = writeln!(
                out,
                "  {:<w$}  {:>10} {:>14} {:>12} {:>12}",
                "hist", "count", "mean", "p50<=", "p99<="
            );
            for (k, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "  {k:<w$}  {:>10} {:>14.1} {:>12} {:>12}",
                    h.count(),
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99)
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake;
    impl MetricSource for Fake {
        fn record(&self, out: &mut dyn FnMut(&str, u64)) {
            out("txns", 3);
            out("ops", 12);
        }
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.quantile(0.0), 0);
        // 1024 is the largest: its bucket's ceiling is 2^11.
        assert_eq!(h.quantile(1.0), 2048);
    }

    #[test]
    fn quantile_of_an_empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
        // Distinguishable from "all observations were 0" via count().
        let mut z = Histogram::default();
        z.observe(0);
        assert_eq!(z.quantile(0.5), 0);
        assert_eq!(z.count(), 1);
    }

    #[test]
    fn quantile_overestimates_by_less_than_two() {
        let mut h = Histogram::default();
        for v in [1u64, 3, 5, 700, 1025] {
            h.observe(v);
            let q = h.quantile(1.0);
            assert!(v < q && q <= 2 * v, "v={v} q={q}");
        }
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = Histogram::default();
        a.observe(5);
        let mut b = Histogram::default();
        b.observe(7);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 12);
    }

    #[test]
    fn registry_absorbs_with_prefix() {
        let mut r = Registry::new();
        r.absorb("member0.", &Fake);
        r.absorb("member1.", &Fake);
        r.absorb("member1.", &Fake); // second absorb accumulates
        assert_eq!(r.counter("member0.txns"), 3);
        assert_eq!(r.counter("member1.ops"), 24);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn gauges_overwrite_and_merge_as_peak() {
        let mut a = Registry::new();
        a.set_gauge("queue.depth", 9);
        a.set_gauge("queue.depth", 4); // level metric: overwrites
        assert_eq!(a.gauge("queue.depth"), 4);
        a.gauge_max("queue.peak", 4);
        a.gauge_max("queue.peak", 2); // high-water mark: keeps 4
        assert_eq!(a.gauge("queue.peak"), 4);
        let mut b = Registry::new();
        b.set_gauge("queue.depth", 7);
        a.merge(&b);
        // Merge keeps the maximum, not the sum.
        assert_eq!(a.gauge("queue.depth"), 7);
        assert_eq!(a.gauge("missing"), 0);
        assert!(!a.is_empty());
        let table = a.render_table();
        assert!(table.contains("queue.depth (gauge)"));
        let keys: Vec<&str> = a.gauges().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["queue.depth", "queue.peak"]);
    }

    #[test]
    fn absorb_histogram_merges_prebuilt() {
        let mut h = Histogram::default();
        h.observe(10);
        h.observe(20);
        let mut r = Registry::new();
        r.observe("lat", 5);
        r.absorb_histogram("lat", &h);
        assert_eq!(r.histogram("lat").unwrap().count(), 3);
        assert_eq!(r.histogram("lat").unwrap().sum(), 35);
    }

    #[test]
    fn registry_merge_and_render_are_deterministic() {
        let mut a = Registry::new();
        a.add("z.last", 1);
        a.add("a.first", 2);
        a.observe("lat", 100);
        let mut b = Registry::new();
        b.add("a.first", 3);
        b.observe("lat", 200);
        a.merge(&b);
        assert_eq!(a.counter("a.first"), 5);
        let t1 = a.render_table();
        let t2 = a.clone().render_table();
        assert_eq!(t1, t2);
        // Counters render in key order.
        let first = t1.find("a.first").unwrap();
        let last = t1.find("z.last").unwrap();
        assert!(first < last);
        assert!(t1.contains("lat"));
    }
}
