//! Log-scale latency histogram.
//!
//! Originally private to `hydra-sim` (demand-read latency tails), the
//! histogram now lives here so the service daemon (`hydra-server`) can
//! reuse it for wire-path latency metrics — batch-ingest→Ack latency,
//! shard-queue wait, and incident publish lag — without `hydra-server`
//! growing a dependency on the memory-controller simulator internals.
//! `hydra-sim` imports it from here.
//!
//! Percentile queries drive tail-latency reporting in the examples and
//! extension experiments (mean latency alone hides the queueing effects
//! that tracker side traffic introduces).

use hydra_types::clock::MemCycle;

/// A power-of-two-bucketed histogram of cycle counts.
///
/// Bucket `i` holds values in `[2^i, 2^(i+1))`; bucket 0 holds `{0, 1}`.
///
/// # Example
///
/// ```
/// use hydra_telemetry::histogram::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for v in [10, 20, 30, 40, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(0.99) >= 512.0);
/// assert!(h.percentile(0.50) <= 64.0);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; 48],
    count: u64,
    sum: u64,
    max: MemCycle,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; 48],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: MemCycle) {
        let bucket = (64 - value.max(1).leading_zeros() as usize - 1).min(47);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Maximum recorded value.
    pub fn max(&self) -> MemCycle {
        self.max
    }

    /// Approximate percentile (`q` in `[0, 1]`, clamped): the upper bound
    /// of the bucket containing the q-quantile, clamped to the true
    /// [`max`](Self::max) so the estimate never exceeds an observed value.
    ///
    /// Edge cases: an empty histogram returns 0 for every `q`; `q = 0.0`
    /// returns the upper bound of the first occupied bucket (a min-side
    /// estimate); `q >= 1.0` returns [`max`](Self::max) exactly.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max as f64;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let bound = 1u64 << (i + 1);
                return bound.min(self.max) as f64;
            }
        }
        self.max as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0.0);
    }

    #[test]
    fn mean_and_max_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 2, 3, 4] {
            h.record(v);
        }
        assert!((h.mean() - 2.5).abs() < 1e-12);
        assert_eq!(h.max(), 4);
    }

    #[test]
    fn percentile_brackets_the_distribution() {
        let mut h = LatencyHistogram::new();
        // 99 fast values, 1 slow.
        for _ in 0..99 {
            h.record(16);
        }
        h.record(10_000);
        let p50 = h.percentile(0.50);
        let p999 = h.percentile(0.999);
        assert!(p50 <= 32.0, "p50 {p50}");
        assert!(p999 >= 8192.0, "p999 {p999}");
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1000);
    }

    #[test]
    fn zero_values_are_representable() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(1.0) >= 1.0);
    }

    #[test]
    fn huge_values_clamp_to_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.percentile(0.5) > 0.0);
    }

    #[test]
    fn empty_percentile_is_zero_at_every_q() {
        let h = LatencyHistogram::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(h.percentile(q), 0.0);
        }
    }

    #[test]
    fn p100_returns_max_exactly() {
        let mut h = LatencyHistogram::new();
        for v in [3u64, 17, 900, 12_345] {
            h.record(v);
        }
        // Bucket bounds would say 16384; p=1.0 must report the true max.
        assert_eq!(h.percentile(1.0), 12_345.0);
        assert_eq!(h.percentile(7.5), 12_345.0, "q clamps to 1");
    }

    #[test]
    fn p0_is_a_min_side_estimate() {
        let mut h = LatencyHistogram::new();
        h.record(100);
        h.record(5_000);
        // First occupied bucket is [64, 128): p0 reports its upper bound.
        assert_eq!(h.percentile(0.0), 128.0);
        assert_eq!(h.percentile(-3.0), 128.0, "q clamps to 0");
    }

    #[test]
    fn percentile_never_exceeds_max() {
        let mut h = LatencyHistogram::new();
        // 1000 sits in [512, 1024): the raw bucket bound overshoots.
        for _ in 0..10 {
            h.record(1000);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert!(h.percentile(q) <= 1000.0, "q={q}");
        }
        assert_eq!(h.percentile(0.5), 1000.0);
    }

    #[test]
    fn all_zero_values_report_zero_percentiles() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!(h.percentile(1.0), 0.0);
    }

    #[test]
    fn merged_percentiles_match_a_single_histogram() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for v in 0..100u64 {
            if v % 2 == 0 {
                a.record(v * 10)
            } else {
                b.record(v * 10)
            }
            whole.record(v * 10);
        }
        a.merge(&b);
        for q in [0.0, 0.25, 0.5, 0.75, 0.95, 1.0] {
            assert_eq!(a.percentile(q), whole.percentile(q), "q={q}");
        }
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.mean(), whole.mean());
    }
}
