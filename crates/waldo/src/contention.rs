//! Lock-contention profiling for the sharded store.
//!
//! [`crate::store::Store`] is `Sync`, for concurrent readers, behind
//! a meta-mutex → per-shard-`RwLock` → cache-mutex hierarchy plus an
//! epoch seqlock — and every wait on those locks is invisible. This
//! module gives each level of the hierarchy a lock-free wait
//! histogram and the seqlock its retry/fallback counters, so "readers
//! stalled behind a commit storm" is a number in the registry instead
//! of a guess.
//!
//! Everything here is **wall-clock** (`std::time::Instant`), which is
//! the whole point — virtual time never advances while a thread sits
//! on a mutex. That is safe for the determinism contract because none
//! of it feeds canonical store encodings or determinism-asserted
//! outputs: the counters ride the deterministic
//! [`ContentionStats`] [`MetricSource`], while the wall-clock
//! histograms are exported only through the opt-in
//! [`crate::store::Store::export_contention`] used by observability
//! binaries (`provtop`), never by the default metric emission tests
//! compare.

use std::sync::atomic::{AtomicU64, Ordering};

use provscope::{Histogram, MetricSource};

/// A lock-free mirror of [`provscope::Histogram`]: the same 65 log₂
/// buckets, maintained with relaxed atomics so hot paths can observe
/// waits without taking yet another lock to profile the first one.
pub struct AtomicHist {
    buckets: [AtomicU64; 65],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for AtomicHist {
    fn default() -> AtomicHist {
        AtomicHist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl AtomicHist {
    /// Records one observation (relaxed; tearing across fields only
    /// skews a concurrent snapshot by in-flight observations).
    pub fn observe(&self, v: u64) {
        let i = (64 - v.leading_zeros()) as usize;
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Materializes the current contents as a plain histogram.
    pub fn snapshot(&self) -> Histogram {
        let mut b = [0u64; 65];
        for (dst, src) in b.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        Histogram::from_parts(
            b,
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
        )
    }
}

/// Per-store contention instrumentation, owned by the store and
/// updated lock-free from every path that waits.
#[derive(Default)]
pub struct Contention {
    /// Multi-shard consistent reads attempted.
    pub epoch_reads: AtomicU64,
    /// Optimistic attempts retried (odd epoch seen, or the epoch
    /// moved during the read).
    pub epoch_retries: AtomicU64,
    /// Reads that exhausted their retries and fell back to blocking
    /// new commits via the meta mutex.
    pub epoch_fallbacks: AtomicU64,
    /// Commit (and merge) windows — times the epoch went odd.
    pub commit_windows: AtomicU64,
    /// Wall-clock wait to acquire the meta mutex (lock level 1).
    pub meta_wait: AtomicHist,
    /// Wall-clock wait to acquire per-shard write locks (level 2).
    pub shard_wait: AtomicHist,
    /// Wall-clock wait to acquire the query-cache mutexes (level 3).
    pub cache_wait: AtomicHist,
    /// Wall-clock duration of the odd-epoch commit window — how long
    /// concurrent snapshot readers were forced to retry.
    pub commit_window: AtomicHist,
}

impl Contention {
    /// A deterministic counter snapshot.
    pub fn stats(&self) -> ContentionStats {
        ContentionStats {
            epoch_reads: self.epoch_reads.load(Ordering::Relaxed),
            epoch_retries: self.epoch_retries.load(Ordering::Relaxed),
            epoch_fallbacks: self.epoch_fallbacks.load(Ordering::Relaxed),
            commit_windows: self.commit_windows.load(Ordering::Relaxed),
        }
    }
}

/// Counter snapshot of [`Contention`] — the part that is a pure
/// function of the workload's synchronization schedule (counts, not
/// durations), emitted like every other per-layer stats struct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContentionStats {
    /// Multi-shard consistent reads attempted.
    pub epoch_reads: u64,
    /// Optimistic read attempts retried.
    pub epoch_retries: u64,
    /// Reads that fell back to the meta mutex.
    pub epoch_fallbacks: u64,
    /// Commit/merge windows (times the epoch went odd).
    pub commit_windows: u64,
}

impl MetricSource for ContentionStats {
    fn record(&self, out: &mut dyn FnMut(&str, u64)) {
        out("epoch_reads", self.epoch_reads);
        out("epoch_retries", self.epoch_retries);
        out("epoch_fallbacks", self.epoch_fallbacks);
        out("commit_windows", self.commit_windows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_hist_mirrors_the_plain_histogram() {
        let a = AtomicHist::default();
        let mut h = Histogram::default();
        for v in [0u64, 1, 7, 1024, 1 << 40] {
            a.observe(v);
            h.observe(v);
        }
        assert_eq!(a.snapshot(), h);
        assert_eq!(a.snapshot().quantile(0.5), h.quantile(0.5));
    }

    #[test]
    fn stats_snapshot_and_metric_source_agree() {
        let c = Contention::default();
        c.epoch_reads.fetch_add(3, Ordering::Relaxed);
        c.epoch_retries.fetch_add(2, Ordering::Relaxed);
        let st = c.stats();
        assert_eq!(st.epoch_reads, 3);
        let mut reg = provscope::Registry::new();
        reg.absorb("waldo.contention.", &st);
        assert_eq!(reg.counter("waldo.contention.epoch_reads"), 3);
        assert_eq!(reg.counter("waldo.contention.epoch_retries"), 2);
        assert_eq!(reg.counter("waldo.contention.epoch_fallbacks"), 0);
    }
}
