//! Per-stage latency-breakdown accumulation and the machine-readable
//! report schema.
//!
//! Every completed span folds its per-stage durations into a
//! [`KindBreakdown`]. Stage means are computed as `sum(stage time) /
//! completed requests`, so the per-stage means always sum exactly to the
//! end-to-end mean latency (the acceptance invariant of the `BENCH_*.json`
//! reports); per-stage tails use [`LogHistogram`] so hot percentile queries
//! never sort.

use std::collections::BTreeMap;

use vrio_sim::{OnlineStats, SimDuration};

use crate::hist::LogHistogram;
use crate::json::Json;
use crate::tracer::{RequestKind, Stage, NUM_STAGES};

/// Version stamped into every JSON report this crate emits. Bump on any
/// key rename/removal; additions are allowed without a bump.
pub const REPORT_SCHEMA_VERSION: u64 = 1;

/// Accumulated time for one lifecycle stage of one request kind.
#[derive(Debug, Clone, Default)]
pub struct StageAcc {
    /// Total time spent in this stage across all completed requests (µs).
    pub sum_us: f64,
    /// Per-request stage durations (µs), including zeros for requests that
    /// skipped the stage, so percentiles are over all requests.
    pub hist: LogHistogram,
}

/// Latency breakdown for one [`RequestKind`].
#[derive(Debug, Clone)]
pub struct KindBreakdown {
    /// Completed requests folded in.
    pub completed: u64,
    /// End-to-end latency moments (µs).
    pub total: OnlineStats,
    /// End-to-end latency distribution (µs) for tail queries.
    pub total_hist: LogHistogram,
    /// Per-stage accumulators, indexed by [`Stage::index`].
    pub stages: [StageAcc; NUM_STAGES],
}

impl Default for KindBreakdown {
    fn default() -> Self {
        KindBreakdown {
            completed: 0,
            total: OnlineStats::new(),
            total_hist: LogHistogram::new(),
            stages: Default::default(),
        }
    }
}

impl KindBreakdown {
    /// Mean time in `stage` per completed request (µs). Averaged over *all*
    /// requests (not just those that visited the stage) so that
    /// `Σ_stage stage_mean_us == total.mean()`.
    pub fn stage_mean_us(&self, stage: Stage) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.stages[stage.index()].sum_us / self.completed as f64
        }
    }

    /// p99 of the per-request time in `stage` (µs).
    pub fn stage_p99_us(&self, stage: Stage) -> f64 {
        self.stages[stage.index()].hist.percentile(99.0)
    }

    /// Sum of all per-stage means (µs); equals the end-to-end mean up to
    /// floating-point rounding.
    pub fn stage_sum_us(&self) -> f64 {
        Stage::ALL.iter().map(|s| self.stage_mean_us(*s)).sum()
    }

    /// Renders this kind's breakdown as a JSON object (stable schema).
    pub fn to_json(&self) -> Json {
        let mut stages = Vec::with_capacity(NUM_STAGES);
        for s in Stage::ALL {
            let mean = self.stage_mean_us(s);
            let share = if self.total.mean() > 0.0 {
                mean / self.total.mean()
            } else {
                0.0
            };
            stages.push((
                s.name().to_string(),
                Json::obj(vec![
                    ("mean_us", Json::Num(mean)),
                    ("p99_us", Json::Num(self.stage_p99_us(s))),
                    ("share", Json::Num(share)),
                ]),
            ));
        }
        Json::obj(vec![
            ("completed", Json::int(self.completed)),
            ("mean_latency_us", Json::Num(self.total.mean())),
            (
                "p50_latency_us",
                Json::Num(self.total_hist.percentile(50.0)),
            ),
            (
                "p99_latency_us",
                Json::Num(self.total_hist.percentile(99.0)),
            ),
            (
                "p999_latency_us",
                Json::Num(self.total_hist.percentile(99.9)),
            ),
            (
                "max_latency_us",
                Json::Num(self.total_hist.percentile(100.0)),
            ),
            ("stage_sum_us", Json::Num(self.stage_sum_us())),
            ("stages", Json::Obj(stages)),
        ])
    }
}

/// All per-kind breakdowns recorded by one tracer.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    kinds: BTreeMap<RequestKind, KindBreakdown>,
}

impl Breakdown {
    /// Folds one completed request into the breakdown.
    pub fn record(
        &mut self,
        kind: RequestKind,
        acc: &[SimDuration; NUM_STAGES],
        total: SimDuration,
    ) {
        let kb = self.kinds.entry(kind).or_default();
        kb.completed += 1;
        let total_us = total.as_micros_f64();
        kb.total.push(total_us);
        kb.total_hist.push(total_us);
        for (i, d) in acc.iter().enumerate() {
            let us = d.as_micros_f64();
            kb.stages[i].sum_us += us;
            kb.stages[i].hist.push(us);
        }
    }

    /// The breakdown for one request kind, if any requests of it completed.
    pub fn kind(&self, kind: RequestKind) -> Option<&KindBreakdown> {
        self.kinds.get(&kind)
    }

    /// Iterates `(kind, breakdown)` in stable (name) order.
    pub fn kinds(&self) -> impl Iterator<Item = (RequestKind, &KindBreakdown)> {
        self.kinds.iter().map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_means_sum_to_total_mean() {
        let mut bd = Breakdown::default();
        for i in 1..=100u64 {
            let mut acc = [SimDuration::ZERO; NUM_STAGES];
            acc[Stage::Wire.index()] = SimDuration::nanos(1000 * i);
            acc[Stage::Backend.index()] = SimDuration::nanos(500 * i);
            let total = SimDuration::nanos(1500 * i);
            bd.record(RequestKind::NetRr, &acc, total);
        }
        let kb = bd.kind(RequestKind::NetRr).unwrap();
        assert_eq!(kb.completed, 100);
        let rel = (kb.stage_sum_us() - kb.total.mean()).abs() / kb.total.mean();
        assert!(rel < 1e-12, "rel {rel}");
    }

    #[test]
    fn json_schema_has_required_keys() {
        let mut bd = Breakdown::default();
        let mut acc = [SimDuration::ZERO; NUM_STAGES];
        acc[Stage::Backend.index()] = SimDuration::micros(10);
        bd.record(RequestKind::NetRr, &acc, SimDuration::micros(10));
        let j = bd.kind(RequestKind::NetRr).unwrap().to_json();
        for key in [
            "completed",
            "mean_latency_us",
            "p99_latency_us",
            "stage_sum_us",
            "stages",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert!(j.get_path("stages.backend.mean_us").is_some());
    }
}
