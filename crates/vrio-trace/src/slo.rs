//! Per-tenant SLO accounting and the drop-attribution ledger.
//!
//! The paper's consolidation argument is per-tenant: a shared IOhost is
//! only a win if each guest's latency and availability survive the
//! sharing. The [`SloLedger`] tracks, per tenant (VM), every offered
//! request's fate: completed (with its latency, into a bounded-memory
//! [`LogHistogram`]) or dropped with exactly one [`DropCause`]. Nothing
//! is ever double-counted — conservation (`offered = completed + dropped
//! + in-flight`) holds per tenant by construction and is checkable via
//! [`SloLedger::check_conservation`].
//!
//! The ledger is plain data: no RNG, no events, no interior mutability.
//! Recording into it cannot perturb the simulation, so it is always on.

use crate::hist::LogHistogram;
use crate::json::Json;

/// Why a request was lost. Every terminal drop in the testbed maps to
/// exactly one cause; recoverable losses (block attempts that a
/// retransmission replays) are not ledger drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// Lost on the channel: Gilbert–Elliott fault injection or the
    /// configured uniform channel-loss rate.
    FaultLoss,
    /// Rejected by an interposed firewall verdict.
    Firewall,
    /// Arrived while the serving IOhost was inside an outage window.
    Outage,
    /// Shed at a hard queue cap (the IOhost rx ring or the admission
    /// controller's hard depth cap).
    ShedQueue,
    /// Shed by weighted fair-share triage (tenant over its share).
    ShedFair,
    /// Shed by an open admission circuit breaker.
    ShedBreaker,
}

impl DropCause {
    /// Every cause, in ledger index order.
    pub const ALL: [DropCause; 6] = [
        DropCause::FaultLoss,
        DropCause::Firewall,
        DropCause::Outage,
        DropCause::ShedQueue,
        DropCause::ShedFair,
        DropCause::ShedBreaker,
    ];

    /// Stable slug used in JSON and error messages.
    pub fn name(self) -> &'static str {
        match self {
            DropCause::FaultLoss => "fault_loss",
            DropCause::Firewall => "firewall",
            DropCause::Outage => "outage",
            DropCause::ShedQueue => "shed_queue",
            DropCause::ShedFair => "shed_fair",
            DropCause::ShedBreaker => "shed_breaker",
        }
    }

    fn index(self) -> usize {
        match self {
            DropCause::FaultLoss => 0,
            DropCause::Firewall => 1,
            DropCause::Outage => 2,
            DropCause::ShedQueue => 3,
            DropCause::ShedFair => 4,
            DropCause::ShedBreaker => 5,
        }
    }
}

/// One tenant's request accounting.
#[derive(Debug, Clone, Default)]
pub struct TenantSlo {
    /// Requests offered (entered the request path).
    pub offered: u64,
    /// Requests completed back to the tenant.
    pub completed: u64,
    /// Completions whose latency met the SLO threshold.
    pub slo_ok: u64,
    /// Completion latencies in microseconds.
    pub latency: LogHistogram,
    /// Terminal drops, indexed by [`DropCause::index`].
    drops: [u64; 6],
}

impl TenantSlo {
    /// Drops of one cause.
    pub fn drops_of(&self, cause: DropCause) -> u64 {
        self.drops[cause.index()]
    }

    /// Total terminal drops across every cause.
    pub fn dropped(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Requests still in flight (offered but neither completed nor
    /// dropped — e.g. cut off by the end of the run).
    pub fn in_flight(&self) -> u64 {
        self.offered - self.completed - self.dropped()
    }

    /// Fraction of offered requests that completed (1.0 when idle).
    pub fn availability(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.completed as f64 / self.offered as f64
        }
    }

    /// Fraction of completions that met the SLO (1.0 when none
    /// completed — an idle tenant has not missed anything).
    pub fn slo_attainment(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            self.slo_ok as f64 / self.completed as f64
        }
    }
}

/// The per-tenant ledger. The private `slo` module's docs describe it.
#[derive(Debug, Clone, Default)]
pub struct SloLedger {
    /// The latency SLO in microseconds (completions at or under it count
    /// as attained).
    pub slo_us: f64,
    tenants: Vec<TenantSlo>,
}

impl SloLedger {
    /// Creates a ledger over `num_tenants` tenants with the given latency
    /// SLO (microseconds).
    pub fn new(num_tenants: usize, slo_us: f64) -> Self {
        SloLedger {
            slo_us,
            tenants: vec![TenantSlo::default(); num_tenants],
        }
    }

    /// Records one offered request from `tenant`.
    pub fn offer(&mut self, tenant: usize) {
        self.tenants[tenant].offered += 1;
    }

    /// Records one completion for `tenant` with its end-to-end latency.
    pub fn complete(&mut self, tenant: usize, latency_us: f64) {
        let t = &mut self.tenants[tenant];
        t.completed += 1;
        if latency_us <= self.slo_us {
            t.slo_ok += 1;
        }
        t.latency.push(latency_us);
    }

    /// Records one terminal drop for `tenant`, attributed to exactly one
    /// cause.
    pub fn record_drop(&mut self, tenant: usize, cause: DropCause) {
        self.tenants[tenant].drops[cause.index()] += 1;
    }

    /// Per-tenant accounting, indexed by tenant (VM).
    pub fn tenants(&self) -> &[TenantSlo] {
        &self.tenants
    }

    /// Total offered across tenants.
    pub fn total_offered(&self) -> u64 {
        self.tenants.iter().map(|t| t.offered).sum()
    }

    /// Total completed across tenants.
    pub fn total_completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }

    /// Total drops of one cause across tenants.
    pub fn total_drops_of(&self, cause: DropCause) -> u64 {
        self.tenants.iter().map(|t| t.drops_of(cause)).sum()
    }

    /// Total terminal drops across tenants and causes.
    pub fn total_dropped(&self) -> u64 {
        self.tenants.iter().map(TenantSlo::dropped).sum()
    }

    /// Checks per-tenant conservation: a tenant's completions plus drops
    /// never exceed its offers (the remainder is in flight). Returns the
    /// first violation as an actionable message.
    pub fn check_conservation(&self) -> Result<(), String> {
        for (vm, t) in self.tenants.iter().enumerate() {
            if t.completed + t.dropped() > t.offered {
                return Err(format!(
                    "slo ledger: tenant {vm} leaks accounting: \
                     {} completed + {} dropped > {} offered",
                    t.completed,
                    t.dropped(),
                    t.offered
                ));
            }
        }
        Ok(())
    }

    /// Renders the per-tenant table used inside schema-v2 `BENCH_sweep` /
    /// `BENCH_chaos` documents: one object per tenant with availability,
    /// SLO attainment, latency percentiles and the drop-attribution
    /// breakdown.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.tenants
                .iter()
                .enumerate()
                .map(|(vm, t)| {
                    let drops = DropCause::ALL
                        .iter()
                        .map(|&c| (c.name().to_string(), Json::int(t.drops_of(c))))
                        .collect();
                    Json::obj(vec![
                        ("vm", Json::int(vm as u64)),
                        ("offered", Json::int(t.offered)),
                        ("completed", Json::int(t.completed)),
                        ("dropped", Json::int(t.dropped())),
                        ("in_flight", Json::int(t.in_flight())),
                        ("availability", Json::Num(t.availability())),
                        ("slo_attainment", Json::Num(t.slo_attainment())),
                        ("p50_us", Json::Num(t.latency.percentile(50.0))),
                        ("p99_us", Json::Num(t.latency.percentile(99.0))),
                        ("drops", Json::Obj(drops)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_slugs_are_stable_and_distinct() {
        let names: Vec<&str> = DropCause::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            vec![
                "fault_loss",
                "firewall",
                "outage",
                "shed_queue",
                "shed_fair",
                "shed_breaker"
            ]
        );
        for (i, c) in DropCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn conservation_holds_and_in_flight_is_the_remainder() {
        let mut l = SloLedger::new(2, 200.0);
        for _ in 0..10 {
            l.offer(0);
        }
        for _ in 0..3 {
            l.offer(1);
        }
        l.complete(0, 100.0);
        l.complete(0, 300.0);
        l.record_drop(0, DropCause::Outage);
        l.record_drop(0, DropCause::ShedFair);
        l.record_drop(1, DropCause::FaultLoss);
        l.check_conservation().unwrap();
        let t0 = &l.tenants()[0];
        assert_eq!(t0.completed, 2);
        assert_eq!(t0.slo_ok, 1, "300us misses the 200us SLO");
        assert_eq!(t0.dropped(), 2);
        assert_eq!(t0.in_flight(), 6);
        assert_eq!(l.total_offered(), 13);
        assert_eq!(l.total_dropped(), 3);
        assert_eq!(l.total_drops_of(DropCause::FaultLoss), 1);
        assert_eq!(l.total_drops_of(DropCause::ShedBreaker), 0);
    }

    #[test]
    fn conservation_violation_reads_actionably() {
        let mut l = SloLedger::new(1, 200.0);
        l.offer(0);
        l.complete(0, 50.0);
        l.record_drop(0, DropCause::Firewall); // double fate: a bug
        let msg = l.check_conservation().unwrap_err();
        assert_eq!(
            msg,
            "slo ledger: tenant 0 leaks accounting: 1 completed + 1 dropped > 1 offered"
        );
    }

    #[test]
    fn idle_tenant_reports_perfect_availability() {
        let l = SloLedger::new(1, 200.0);
        let t = &l.tenants()[0];
        assert_eq!(t.availability(), 1.0);
        assert_eq!(t.slo_attainment(), 1.0);
    }

    #[test]
    fn json_table_sums_per_tenant_to_global() {
        let mut l = SloLedger::new(3, 150.0);
        for vm in 0..3 {
            for _ in 0..(vm + 1) * 4 {
                l.offer(vm);
            }
            l.complete(vm, 100.0);
            l.record_drop(vm, DropCause::ShedQueue);
        }
        let doc = l.to_json();
        let arr = doc.as_array().unwrap();
        assert_eq!(arr.len(), 3);
        let offered: f64 = arr
            .iter()
            .map(|t| t.get("offered").and_then(Json::as_f64).unwrap())
            .sum();
        assert_eq!(offered, l.total_offered() as f64);
        let shed_queue: f64 = arr
            .iter()
            .map(|t| {
                t.get_path("drops.shed_queue")
                    .and_then(Json::as_f64)
                    .unwrap()
            })
            .sum();
        assert_eq!(shed_queue, l.total_drops_of(DropCause::ShedQueue) as f64);
        // Every cause appears in every tenant's drop table.
        for t in arr {
            for c in DropCause::ALL {
                assert!(t.get_path(&format!("drops.{}", c.name())).is_some());
            }
        }
    }
}
