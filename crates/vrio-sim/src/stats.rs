//! Measurement primitives: online moments, exact-sample histograms for tail
//! percentiles (Table 4), and busy-time tracking for per-core CPU
//! utilization traces (Figure 15).

use crate::time::{SimDuration, SimTime};

/// Streaming mean / variance / min / max (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use vrio_sim::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.std_dev() - 2.138).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance with Bessel's correction (0 for < 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample.
    ///
    /// Returns `f64::NAN` on an empty accumulator (rather than leaking the
    /// `+∞` seed or a misleading `0.0`): an empty extremum has no meaningful
    /// value, and NaN propagates loudly through downstream arithmetic while
    /// comparisons against it are always false.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample.
    ///
    /// Returns `f64::NAN` on an empty accumulator; see [`OnlineStats::min`].
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

/// An exact-sample histogram: stores every sample and answers arbitrary
/// percentile queries, as required for the paper's 99.999% tail latencies
/// (Table 4).
///
/// # Examples
///
/// ```
/// use vrio_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for i in 1..=1000u32 {
///     h.push(f64::from(i));
/// }
/// assert_eq!(h.percentile(50.0), 500.0);
/// assert_eq!(h.percentile(99.0), 990.0);
/// assert_eq!(h.percentile(100.0), 1000.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// Every sample, in the order pushed.
    samples: Vec<f64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// Adds a duration sample in microseconds.
    pub fn push_duration(&mut self, d: SimDuration) {
        self.push(d.as_micros_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample mean (0 if empty), summed in the order pushed.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// The `p`-th percentile (nearest-rank method), `p` in `[0, 100]`.
    /// Returns 0 if empty.
    ///
    /// Each query selects the rank from a copy of the samples, so the
    /// histogram is never reordered and queries take `&self`. Samples
    /// that compare equal are bit-identical (they are NaN-free, and
    /// latencies are positive, so no -0.0 ties a +0.0), so the selected
    /// value is the one a full sort puts at that rank.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let mut samples = self.samples.clone();
        let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN sample in histogram");
        *samples.select_nth_unstable_by(rank.clamp(1, n) - 1, cmp).1
    }

    /// The largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        self.percentile(100.0)
    }
}

/// Accounts busy time for a serially-used resource (a core, a link), and
/// produces windowed utilization traces from its log of busy intervals.
/// A tracker made by [`BusyTracker::totals_only`] keeps no log: only its
/// totals, for resources whose intervals nothing reads.
///
/// Work charged while the resource is still busy *queues behind* the
/// in-progress work: charging `d` at time `t` starts at
/// `max(t, free_at)` and returns the completion instant. This makes the
/// tracker double as the FIFO service model for cores and links.
///
/// # Examples
///
/// ```
/// use vrio_sim::{BusyTracker, SimDuration, SimTime};
///
/// let mut b = BusyTracker::new();
/// b.charge(SimTime::from_nanos(0), SimDuration::nanos(600));
/// // Arrives while busy: queues, completing at 1200 ns.
/// let done = b.charge(SimTime::from_nanos(400), SimDuration::nanos(600));
/// assert_eq!(done, SimTime::from_nanos(1200));
/// assert_eq!(b.busy().as_nanos(), 1200);
/// assert!((b.utilization(SimTime::from_nanos(2400)) - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct BusyTracker {
    busy: SimDuration,
    busy_until: SimTime,
    /// Whether charges log their intervals.
    log: bool,
    /// Completed busy intervals, for windowed traces. `(start, end)`.
    intervals: Vec<(SimTime, SimTime)>,
}

impl Default for BusyTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl BusyTracker {
    /// Creates an idle tracker that logs its busy intervals.
    pub fn new() -> Self {
        BusyTracker {
            busy: SimDuration::ZERO,
            busy_until: SimTime::ZERO,
            log: true,
            intervals: Vec::new(),
        }
    }

    /// Creates an idle tracker that keeps only its totals: its
    /// [`BusyTracker::intervals`] stay empty.
    pub fn totals_only() -> Self {
        BusyTracker {
            log: false,
            ..Self::new()
        }
    }

    /// Charges `work` of busy time starting no earlier than `at`.
    ///
    /// Returns the instant the work completes (i.e. when the resource next
    /// becomes free), which is after any already-queued busy time.
    pub fn charge(&mut self, at: SimTime, work: SimDuration) -> SimTime {
        let start = at.max(self.busy_until);
        let end = start + work;
        self.busy += work;
        self.busy_until = end;
        if self.log && !work.is_zero() {
            // Coalesce with the previous interval when contiguous.
            if let Some(last) = self.intervals.last_mut() {
                if last.1 == start {
                    last.1 = end;
                    return end;
                }
            }
            self.intervals.push((start, end));
        }
        end
    }

    /// The instant the resource next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.busy_until
    }

    /// Whether the resource is busy at `t`.
    pub fn is_busy_at(&self, t: SimTime) -> bool {
        t < self.busy_until
    }

    /// Total busy time charged.
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Fraction of `[0, horizon)` spent busy.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_secs_f64() / horizon.as_secs_f64()
    }

    /// The completed busy intervals `(start, end)`, contiguous work
    /// coalesced. Observability consumers replay these as per-core "busy"
    /// slices on Chrome-trace thread tracks.
    pub fn intervals(&self) -> &[(SimTime, SimTime)] {
        debug_assert!(self.log, "intervals of a totals-only tracker");
        &self.intervals
    }

    /// Busy fraction per window of width `window` over `[0, horizon)`;
    /// the trace behind the paper's Figure 15 CPU plots.
    pub fn utilization_trace(&self, horizon: SimTime, window: SimDuration) -> Vec<f64> {
        assert!(!window.is_zero(), "window must be nonzero");
        debug_assert!(self.log, "utilization trace of a totals-only tracker");
        let nbuckets = horizon.as_nanos().div_ceil(window.as_nanos());
        let mut buckets = vec![0u64; nbuckets as usize];
        for &(s, e) in &self.intervals {
            let e = e.min(horizon);
            if s >= e {
                continue;
            }
            let first = s.as_nanos() / window.as_nanos();
            let last = (e.as_nanos() - 1) / window.as_nanos();
            for b in first..=last {
                let bs = b * window.as_nanos();
                let be = bs + window.as_nanos();
                let overlap = e.as_nanos().min(be) - s.as_nanos().max(bs);
                buckets[b as usize] += overlap;
            }
        }
        buckets
            .iter()
            .map(|&ns| ns as f64 / window.as_nanos() as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        // Empty extrema are NaN, not the infinity seeds (or a fake 0.0).
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
        s.push(1.0);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.variance(), 2.0);
    }

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let mut h = Histogram::new();
        for x in [15.0, 20.0, 35.0, 40.0, 50.0] {
            h.push(x);
        }
        assert_eq!(h.percentile(5.0), 15.0);
        assert_eq!(h.percentile(30.0), 20.0);
        assert_eq!(h.percentile(40.0), 20.0);
        assert_eq!(h.percentile(50.0), 35.0);
        assert_eq!(h.percentile(100.0), 50.0);
        assert_eq!(h.mean(), 32.0);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.max(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn busy_tracker_serializes_work() {
        let mut b = BusyTracker::new();
        let e1 = b.charge(SimTime::ZERO, SimDuration::nanos(100));
        assert_eq!(e1, SimTime::from_nanos(100));
        // Work arriving while busy queues behind.
        let e2 = b.charge(SimTime::from_nanos(50), SimDuration::nanos(100));
        assert_eq!(e2, SimTime::from_nanos(200));
        assert_eq!(b.busy().as_nanos(), 200);
        assert!(b.is_busy_at(SimTime::from_nanos(199)));
        assert!(!b.is_busy_at(SimTime::from_nanos(200)));
    }

    #[test]
    fn busy_tracker_idle_gap() {
        let mut b = BusyTracker::new();
        b.charge(SimTime::ZERO, SimDuration::nanos(100));
        b.charge(SimTime::from_nanos(300), SimDuration::nanos(100));
        assert_eq!(b.busy().as_nanos(), 200);
        assert!((b.utilization(SimTime::from_nanos(400)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn a_totals_only_tracker_serializes_work_without_a_log() {
        let mut logged = BusyTracker::new();
        let mut totals = BusyTracker::totals_only();
        for (at, work) in [(0, 100), (50, 100), (500, 10)] {
            let (at, work) = (SimTime::from_nanos(at), SimDuration::nanos(work));
            assert_eq!(totals.charge(at, work), logged.charge(at, work));
        }
        assert_eq!(totals.busy(), logged.busy());
        assert_eq!(totals.free_at(), logged.free_at());
        assert_eq!(logged.intervals().len(), 2);
        assert!(totals.intervals.is_empty());
    }

    #[test]
    fn utilization_trace_buckets() {
        let mut b = BusyTracker::new();
        // Busy [0, 150): bucket0 fully busy, bucket1 half busy.
        b.charge(SimTime::ZERO, SimDuration::nanos(150));
        let trace = b.utilization_trace(SimTime::from_nanos(400), SimDuration::nanos(100));
        assert_eq!(trace.len(), 4);
        assert!((trace[0] - 1.0).abs() < 1e-9);
        assert!((trace[1] - 0.5).abs() < 1e-9);
        assert_eq!(trace[2], 0.0);
        assert_eq!(trace[3], 0.0);
    }

    #[test]
    fn trace_merges_contiguous_intervals() {
        let mut b = BusyTracker::new();
        for i in 0..10 {
            b.charge(SimTime::from_nanos(i * 10), SimDuration::nanos(10));
        }
        assert_eq!(b.intervals.len(), 1);
        let trace = b.utilization_trace(SimTime::from_nanos(100), SimDuration::nanos(50));
        assert_eq!(trace, vec![1.0, 1.0]);
    }
}
