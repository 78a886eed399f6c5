//! A log-bucketed histogram with bounded memory and a guaranteed relative
//! error on percentile queries (HDR/DDSketch-style).
//!
//! [`LogHistogram`] replaces the exact-sample [`vrio_sim::Histogram`] on hot
//! percentile paths: pushes are O(1), percentile queries are a single O(B)
//! walk over at most [`LogHistogram::MAX_BUCKETS`] buckets (no sort), and the
//! memory footprint is bounded regardless of sample count. The exact type is
//! kept for calibration tests, which this type is property-tested against.

use vrio_sim::SimDuration;

/// Geometric bucket growth factor. Bucket `i` covers
/// `[MIN·γ^i, MIN·γ^(i+1))`, so any estimate taken at the geometric midpoint
/// of its bucket is within `√γ − 1 ≈ 0.75 %` of the true sample.
const GAMMA: f64 = 1.015;

/// Smallest positively-tracked value; anything below (including zero and
/// negative samples) lands in a dedicated underflow bucket whose estimate is
/// the exact minimum sample.
const MIN_TRACKED: f64 = 1e-9;

/// A bounded-memory histogram over geometrically-spaced buckets.
///
/// Percentile queries use the same nearest-rank convention as
/// [`vrio_sim::Histogram`] (`rank = ceil(p/100 · n)` clamped to `[1, n]`,
/// `0.0` when empty) and agree with it to within
/// [`LogHistogram::RELATIVE_ERROR_BOUND`]. The exact minimum, maximum, sum
/// and count are tracked on the side, so `p = 0`/`p = 100`, `mean` and
/// single-sample queries are exact.
///
/// # Examples
///
/// ```
/// use vrio_trace::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for i in 1..=1000u32 {
///     h.push(f64::from(i));
/// }
/// let p50 = h.percentile(50.0);
/// assert!((p50 - 500.0).abs() / 500.0 <= LogHistogram::RELATIVE_ERROR_BOUND);
/// assert_eq!(h.percentile(100.0), 1000.0); // extremes are exact
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogHistogram {
    /// Per-bucket sample counts, grown lazily up to [`Self::MAX_BUCKETS`].
    counts: Vec<u64>,
    /// Samples below [`MIN_TRACKED`] (underflow bucket).
    low: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogHistogram {
    /// Hard cap on the bucket vector: covers `[1e-9, ~1.8e14)` at γ = 1.015,
    /// bounding memory at ~29 KiB per histogram. Larger samples clamp into
    /// the top bucket (and are still reported exactly at `p = 100` via the
    /// tracked maximum).
    pub const MAX_BUCKETS: usize = 3600;

    /// Worst-case relative error of a percentile estimate versus the exact
    /// nearest-rank sample: `√γ − 1` (≈ 0.75 % at γ = 1.015), comfortably
    /// inside the ≤ 1 % budget.
    pub const RELATIVE_ERROR_BOUND: f64 = 0.007_472_083_980_494_059;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(v: f64) -> usize {
        let i = (v / MIN_TRACKED).ln() / GAMMA.ln();
        (i.floor() as usize).min(Self::MAX_BUCKETS - 1)
    }

    /// Geometric midpoint of bucket `i`, the estimate reported for samples
    /// that fell in it.
    fn bucket_estimate(i: usize) -> f64 {
        MIN_TRACKED * GAMMA.powi(i as i32) * GAMMA.sqrt()
    }

    /// Adds a sample. NaN samples are a logic error (debug assertion) and
    /// are ignored in release builds.
    pub fn push(&mut self, x: f64) {
        debug_assert!(!x.is_nan(), "NaN sample in LogHistogram");
        if x.is_nan() {
            return;
        }
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        self.sum += x;
        if x < MIN_TRACKED {
            self.low += 1;
        } else {
            let b = Self::bucket_of(x);
            if self.counts.len() <= b {
                self.counts.resize(b + 1, 0);
            }
            self.counts[b] += 1;
        }
    }

    /// Adds a duration sample in microseconds (the workspace's latency unit).
    pub fn push_duration(&mut self, d: SimDuration) {
        self.push(d.as_micros_f64());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sample mean (exact; 0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Sum of all samples (exact).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample (exact; NaN if empty, mirroring
    /// [`vrio_sim::OnlineStats::min`]).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample (exact; NaN if empty, mirroring
    /// [`vrio_sim::OnlineStats::max`]).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// The `p`-th percentile (nearest-rank method), `p` in `[0, 100]`.
    ///
    /// Returns 0 if empty. The first and last ranks return the exact
    /// minimum/maximum; interior ranks return the geometric midpoint of the
    /// bucket holding the rank-th smallest sample, which is within
    /// [`Self::RELATIVE_ERROR_BOUND`] of the exact answer. Unlike
    /// [`vrio_sim::Histogram::percentile`] this never copies the samples
    /// to select a rank.
    pub fn percentile(&self, p: f64) -> f64 {
        debug_assert!(!p.is_nan(), "NaN percentile query");
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count;
        let rank = (((p / 100.0) * n as f64).ceil() as u64).clamp(1, n);
        if rank == 1 {
            return self.min;
        }
        if rank == n {
            return self.max;
        }
        let mut cum = self.low;
        if rank <= cum {
            // Underflow bucket: everything here is below MIN_TRACKED;
            // approximate by the exact minimum (absolute error < 1e-9).
            return self.min;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            // Empty buckets advance `cum` by zero and can never satisfy
            // `rank <= cum` on their own: the estimate always comes from a
            // bucket that actually holds samples.
            cum += c;
            if rank <= cum {
                return Self::bucket_estimate(i).clamp(self.min, self.max);
            }
        }
        // Unreachable when bucket bookkeeping is intact: the walk covers
        // `low + Σcounts = count ≥ rank` samples. Kept as a defensive
        // fallback (and flagged in debug builds) so a bookkeeping bug
        // degrades to the exact maximum instead of a panic.
        debug_assert!(
            false,
            "LogHistogram percentile rank {rank} beyond {} bucketed samples",
            self.low + self.counts.iter().sum::<u64>()
        );
        self.max
    }

    /// Folds another histogram's samples into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.low += other.low;
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        debug_assert_eq!(
            self.low + self.counts.iter().sum::<u64>(),
            self.count,
            "LogHistogram merge leaked samples between buckets"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matches_exact_conventions() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.min().is_nan());
        assert!(h.max().is_nan());
        assert!(h.is_empty());
    }

    #[test]
    fn single_sample_is_exact_everywhere() {
        let mut h = LogHistogram::new();
        h.push(123.456);
        for p in [0.0, 10.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 123.456);
        }
        assert_eq!(h.mean(), 123.456);
    }

    #[test]
    fn percentiles_within_error_bound() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000u32 {
            h.push(f64::from(i) * 0.37);
        }
        for p in [1.0f64, 10.0, 50.0, 90.0, 99.0, 99.9] {
            let exact = f64::from((p / 100.0 * 10_000.0).ceil() as u32) * 0.37;
            let est = h.percentile(p);
            let rel = (est - exact).abs() / exact;
            assert!(rel <= LogHistogram::RELATIVE_ERROR_BOUND, "p{p}: rel {rel}");
        }
    }

    #[test]
    fn extreme_magnitudes_clamp_but_track_extremes() {
        let mut h = LogHistogram::new();
        h.push(1e-15); // below MIN_TRACKED: underflow bucket
        h.push(1e20); // above the top bucket: clamps
        h.push(5.0);
        assert_eq!(h.percentile(0.0), 1e-15);
        assert_eq!(h.percentile(100.0), 1e20);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 1..=50 {
            a.push(f64::from(i));
        }
        for i in 51..=100 {
            b.push(f64::from(i));
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.percentile(0.0), 1.0);
        assert_eq!(a.percentile(100.0), 100.0);
        let est = a.percentile(50.0);
        assert!((est - 50.0).abs() / 50.0 <= LogHistogram::RELATIVE_ERROR_BOUND);
    }

    #[test]
    fn memory_is_bounded() {
        let mut h = LogHistogram::new();
        for i in 0..1_000_000u64 {
            h.push(i as f64);
        }
        assert!(h.counts.len() <= LogHistogram::MAX_BUCKETS);
    }

    #[test]
    fn merge_with_empty_on_either_side_is_identity() {
        let mut filled = LogHistogram::new();
        for i in 1..=10 {
            filled.push(f64::from(i));
        }
        let snapshot = filled.clone();
        filled.merge(&LogHistogram::new()); // empty rhs: no-op
        assert_eq!(filled.count(), snapshot.count());
        assert_eq!(filled.percentile(50.0), snapshot.percentile(50.0));

        let mut empty = LogHistogram::new();
        empty.merge(&snapshot); // empty lhs: adopts rhs wholesale
        assert_eq!(empty.count(), 10);
        assert_eq!(empty.percentile(0.0), 1.0);
        assert_eq!(empty.percentile(100.0), 10.0);

        let mut both = LogHistogram::new();
        both.merge(&LogHistogram::new()); // empty both: still empty
        assert!(both.is_empty());
        assert_eq!(both.percentile(99.0), 0.0);
    }

    #[test]
    fn all_underflow_percentiles_report_the_exact_minimum() {
        // Every sample below MIN_TRACKED: the bucket vector stays empty and
        // every interior rank resolves in the underflow bucket.
        let mut h = LogHistogram::new();
        for i in 1..=5 {
            h.push(f64::from(i) * 1e-12);
        }
        assert!(h.counts.is_empty());
        assert_eq!(h.percentile(50.0), 1e-12);
        assert_eq!(h.percentile(100.0), 5e-12);
    }

    #[test]
    fn merge_underflow_buckets_conserves_counts() {
        let mut a = LogHistogram::new();
        a.push(1e-12);
        a.push(2.0);
        let mut b = LogHistogram::new();
        b.push(3e-13);
        b.push(4.0);
        a.merge(&b); // debug_assert inside checks low + Σcounts == count
        assert_eq!(a.count(), 4);
        assert_eq!(a.percentile(0.0), 3e-13);
        assert_eq!(a.percentile(100.0), 4.0);
    }

    #[test]
    fn error_bound_constant_matches_gamma() {
        let computed = GAMMA.sqrt() - 1.0;
        assert!((computed - LogHistogram::RELATIVE_ERROR_BOUND).abs() < 1e-15);
    }
}
