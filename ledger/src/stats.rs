//! Sample statistics: medians, percentiles, and the rule for which
//! tail percentile a sample can support.

/// The percentile ladder a tail is reported from, in per-mille so the
/// sample arithmetic stays exact.
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest ladder percentile with at least ten samples beyond it
/// (choosing-metrics section 1); `None` under twenty samples, where
/// not even the median qualifies.
pub fn supported_tail(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rfind(|pm| n * (1000 - **pm) / 1000 >= 10)
        .map(|pm| *pm as f64 / 10.0)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A latency sample: p50, and p95 capped at what the sample supports.
#[derive(Clone, Copy, Debug, Default)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    /// The 95th percentile — or, under 200 samples (`--quick`), the
    /// highest percentile the sample supports.
    pub tail: f64,
}

pub fn latency(samples: &mut [f64]) -> Latency {
    if samples.is_empty() {
        return Latency::default();
    }
    samples.sort_by(f64::total_cmp);
    let tail_pct = supported_tail(samples.len()).unwrap_or(50.0).min(95.0);
    Latency {
        n: samples.len(),
        p50: percentile(samples, 50.0),
        tail: percentile(samples, tail_pct),
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn latency_caps_the_tail_at_p95() {
        let mut big: Vec<f64> = (1..=1000).map(f64::from).collect();
        let l = latency(&mut big);
        assert_eq!((l.n, l.p50, l.tail), (1000, 500.0, 950.0));
        // A hundred samples support no more than the 90th percentile.
        let mut small: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(latency(&mut small).tail, 90.0);
    }
}
