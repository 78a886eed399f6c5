//! Overload-aware admission control at the IOhost.
//!
//! When a backup IOhost absorbs a failed primary's load (the N+1 ladder
//! in [`crate::RedundancyMonitor`]), its sidecore workers can be offered
//! far more than they can serve. Left alone, every queue grows without
//! bound and every tenant times out late; the paper's consolidation
//! argument only survives the outage if the overloaded host *degrades
//! gracefully*. This module implements the three standard levers:
//!
//! 1. **Queue-depth backpressure** — a request offered to a worker whose
//!    queue already holds `hard_cap` entries is shed immediately
//!    ([`Decision::ShedQueue`]): better an instant local retry signal
//!    than a guaranteed timeout 10 ms later.
//! 2. **Weighted per-tenant fair shedding** — between the soft
//!    `queue_cap` and the `hard_cap` the host is congested but not full.
//!    Rather than shedding whoever arrives last, it sheds tenants that
//!    are *over their weighted fair share* of the current accounting
//!    window ([`Decision::ShedFair`]), so a bursting tenant cannot
//!    starve a well-behaved one.
//! 3. **A circuit breaker** — when a whole accounting window sheds more
//!    than `breaker_shed_frac` of its offered load, the host is beyond
//!    congested and queue-by-queue triage is pointless: the breaker
//!    opens and sheds everything for `breaker_cooldown`
//!    ([`Decision::ShedBreaker`]), then closes and re-evaluates. Shedding
//!    early at the admission edge costs one round trip; timing out late
//!    costs the full retransmission horizon per request.
//!
//! The controller is **fully deterministic**: no RNG, no scheduled
//! events. Windows live on a fixed grid (`[k·window, (k+1)·window)`), all
//! decisions are pure functions of the offered sequence, and the disabled
//! config admits everything while recording nothing — so existing
//! benchmarks are byte-identical with the module compiled in.

use vrio_sim::{SimDuration, SimTime};

/// Tuning knobs of the IOhost admission controller (plain data, so
/// [`TestbedConfig`] stays `Send`).
///
/// [`TestbedConfig`]: crate::TestbedConfig
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Master switch. Disabled (the default) admits everything and keeps
    /// the controller entirely out of the accounting.
    pub enabled: bool,
    /// Soft per-worker queue-depth cap: beyond it, over-share tenants are
    /// shed ([`Decision::ShedFair`]).
    pub queue_cap: u64,
    /// Hard per-worker queue-depth cap: at it, everything is shed
    /// ([`Decision::ShedQueue`]). Must be `>= queue_cap`.
    pub hard_cap: u64,
    /// Per-tenant weights for fair shedding. Empty means equal weights;
    /// otherwise one non-zero weight per tenant.
    pub tenant_weights: Vec<u32>,
    /// Accounting window for fair shares and the breaker's shed-fraction.
    pub window: SimDuration,
    /// Shed fraction over one window that trips the breaker, in `(0, 1]`.
    /// A fraction of `1.0` effectively disables the breaker.
    pub breaker_shed_frac: f64,
    /// How long a tripped breaker stays open before re-evaluating.
    pub breaker_cooldown: SimDuration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        // Caps sized against the testbed's per-worker virtqueues (256
        // descriptors): soft-congested at 32 queued requests, full at 64.
        // The 1 ms window matches the §4.6 retry horizon — a breaker
        // decision is always faster than the 10 ms initial retransmit.
        AdmissionConfig {
            enabled: false,
            queue_cap: 32,
            hard_cap: 64,
            tenant_weights: Vec::new(),
            window: SimDuration::millis(1),
            breaker_shed_frac: 0.5,
            breaker_cooldown: SimDuration::millis(5),
        }
    }
}

/// Why an [`AdmissionConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionError {
    /// `queue_cap` was zero — every request would be fair-share triaged.
    ZeroQueueCap,
    /// `hard_cap` was below `queue_cap` — the soft band would be empty or
    /// inverted.
    HardCapBelowSoft {
        /// The offending hard cap.
        hard_cap: u64,
        /// The soft cap it must not undercut.
        queue_cap: u64,
    },
    /// A tenant weight was zero — that tenant's fair share would be
    /// nothing and it would always be shed first.
    ZeroTenantWeight {
        /// Index of the zero-weighted tenant.
        tenant: usize,
    },
    /// `window` was zero — fair shares and the breaker need a span.
    ZeroWindow,
    /// `breaker_shed_frac` was outside `(0, 1]`.
    BadBreakerFraction {
        /// The out-of-range fraction.
        frac: f64,
    },
    /// `breaker_cooldown` was zero — the breaker would close the same
    /// instant it opened.
    ZeroCooldown,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::ZeroQueueCap => write!(f, "queue_cap must be at least 1"),
            AdmissionError::HardCapBelowSoft {
                hard_cap,
                queue_cap,
            } => write!(
                f,
                "hard_cap ({hard_cap}) must be >= queue_cap ({queue_cap})"
            ),
            AdmissionError::ZeroTenantWeight { tenant } => {
                write!(f, "tenant {tenant} has weight 0; weights must be non-zero")
            }
            AdmissionError::ZeroWindow => write!(f, "accounting window must be non-zero"),
            AdmissionError::BadBreakerFraction { frac } => write!(
                f,
                "breaker_shed_frac ({frac}) must be in (0, 1]; use 1.0 to disable the breaker"
            ),
            AdmissionError::ZeroCooldown => write!(f, "breaker_cooldown must be non-zero"),
        }
    }
}

impl std::error::Error for AdmissionError {}

impl AdmissionConfig {
    /// Validates the knobs, returning the config unchanged when sane.
    /// A disabled config is always valid (nothing is consulted).
    pub fn validated(self) -> Result<Self, AdmissionError> {
        if !self.enabled {
            return Ok(self);
        }
        if self.queue_cap == 0 {
            return Err(AdmissionError::ZeroQueueCap);
        }
        if self.hard_cap < self.queue_cap {
            return Err(AdmissionError::HardCapBelowSoft {
                hard_cap: self.hard_cap,
                queue_cap: self.queue_cap,
            });
        }
        if let Some(tenant) = self.tenant_weights.iter().position(|&w| w == 0) {
            return Err(AdmissionError::ZeroTenantWeight { tenant });
        }
        if self.window.is_zero() {
            return Err(AdmissionError::ZeroWindow);
        }
        if !(self.breaker_shed_frac > 0.0 && self.breaker_shed_frac <= 1.0) {
            return Err(AdmissionError::BadBreakerFraction {
                frac: self.breaker_shed_frac,
            });
        }
        if self.breaker_cooldown.is_zero() {
            return Err(AdmissionError::ZeroCooldown);
        }
        Ok(self)
    }
}

/// The controller's verdict on one offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Admitted: enqueue it.
    Admit,
    /// Shed: the worker's queue is at the hard cap (backpressure).
    ShedQueue,
    /// Shed: congested, and this tenant is over its weighted fair share.
    ShedFair,
    /// Shed: the circuit breaker is open.
    ShedBreaker,
}

impl Decision {
    /// Whether the request was admitted.
    pub fn admitted(self) -> bool {
        self == Decision::Admit
    }
}

/// Per-tenant admission accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests offered by this tenant.
    pub offered: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests shed at the hard queue cap.
    pub shed_queue: u64,
    /// Requests shed by weighted fair-share triage.
    pub shed_fair: u64,
    /// Requests shed by the open circuit breaker.
    pub shed_breaker: u64,
}

impl TenantStats {
    /// Total requests shed, across all three levers.
    pub fn shed(&self) -> u64 {
        self.shed_queue + self.shed_fair + self.shed_breaker
    }
}

/// One IOhost's admission controller. The private `admission` module's
/// docs describe the three levers and the determinism argument.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    config: AdmissionConfig,
    /// Grid index of the window currently being accounted.
    window_idx: u64,
    /// Offers and sheds within the current window (for the breaker).
    win_offered: u64,
    win_shed: u64,
    /// Per-tenant admissions within the current window (fair shares).
    win_admitted_by: Vec<u64>,
    win_admitted: u64,
    breaker_open_until: Option<SimTime>,
    /// Times the breaker tripped.
    pub breaker_trips: u64,
    /// Every breaker trip as `(opened_at, closes_at)`: the end of the
    /// window whose shed rate tripped it, and when the cooldown lets
    /// traffic through again. Trace export renders these as open/close
    /// instants; plain data, recorded deterministically.
    pub breaker_log: Vec<(SimTime, SimTime)>,
    /// Per-tenant accounting over the whole run.
    pub tenants: Vec<TenantStats>,
}

impl AdmissionControl {
    /// Creates a controller for `num_tenants` tenants.
    ///
    /// # Panics
    ///
    /// Panics when the config is enabled but invalid, or names more
    /// weights than there are tenants — validate via
    /// [`AdmissionConfig::validated`] first.
    pub fn new(config: AdmissionConfig, num_tenants: usize) -> Self {
        let config = config.validated().expect("invalid admission config");
        assert!(
            config.tenant_weights.is_empty() || config.tenant_weights.len() == num_tenants,
            "tenant_weights must be empty or name every tenant ({} weights, {} tenants)",
            config.tenant_weights.len(),
            num_tenants
        );
        AdmissionControl {
            config,
            window_idx: 0,
            win_offered: 0,
            win_shed: 0,
            win_admitted_by: vec![0; num_tenants],
            win_admitted: 0,
            breaker_open_until: None,
            breaker_trips: 0,
            breaker_log: Vec::new(),
            tenants: vec![TenantStats::default(); num_tenants],
        }
    }

    /// The validated configuration in force.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Whether the breaker is open at `now`.
    pub fn breaker_open(&self, now: SimTime) -> bool {
        self.breaker_open_until.is_some_and(|until| now < until)
    }

    /// Total requests shed so far, across tenants and levers.
    pub fn total_shed(&self) -> u64 {
        self.tenants.iter().map(TenantStats::shed).sum()
    }

    /// Total requests offered so far, across tenants.
    pub fn total_offered(&self) -> u64 {
        self.tenants.iter().map(|t| t.offered).sum()
    }

    fn weight(&self, tenant: usize) -> u64 {
        if self.config.tenant_weights.is_empty() {
            1
        } else {
            u64::from(self.config.tenant_weights[tenant])
        }
    }

    fn total_weight(&self) -> u64 {
        if self.config.tenant_weights.is_empty() {
            self.win_admitted_by.len() as u64
        } else {
            self.config
                .tenant_weights
                .iter()
                .map(|&w| u64::from(w))
                .sum()
        }
    }

    /// Closes every window the clock has passed, evaluating the breaker
    /// on the most recently *accounted* window.
    fn roll_window(&mut self, now: SimTime) {
        let idx = now.as_nanos() / self.config.window.as_nanos().max(1);
        if idx == self.window_idx {
            return;
        }
        // Evaluate the breaker on the closing window. Integer compare:
        // shed/offered > frac  <=>  shed * 2^32 > frac * 2^32 * offered,
        // kept in f64 which is exact for these magnitudes.
        if self.win_offered > 0
            && (self.win_shed as f64) > self.config.breaker_shed_frac * (self.win_offered as f64)
        {
            let window_end = SimTime::from_nanos(
                (self.window_idx + 1).saturating_mul(self.config.window.as_nanos()),
            );
            let closes_at = window_end + self.config.breaker_cooldown;
            self.breaker_open_until = Some(closes_at);
            self.breaker_trips += 1;
            self.breaker_log.push((window_end, closes_at));
        }
        self.window_idx = idx;
        self.win_offered = 0;
        self.win_shed = 0;
        self.win_admitted = 0;
        self.win_admitted_by.iter_mut().for_each(|c| *c = 0);
    }

    /// Offers one request from `tenant` to a worker whose queue currently
    /// holds `depth` entries, at simulated time `now`. Deterministic:
    /// the decision depends only on the sequence of offers.
    pub fn offer(&mut self, tenant: usize, depth: u64, now: SimTime) -> Decision {
        if !self.config.enabled {
            return Decision::Admit;
        }
        self.roll_window(now);
        self.tenants[tenant].offered += 1;
        self.win_offered += 1;

        let decision = if self.breaker_open(now) {
            Decision::ShedBreaker
        } else if depth >= self.config.hard_cap {
            Decision::ShedQueue
        } else if depth >= self.config.queue_cap && self.over_share(tenant) {
            Decision::ShedFair
        } else {
            Decision::Admit
        };

        match decision {
            Decision::Admit => {
                self.tenants[tenant].admitted += 1;
                self.win_admitted += 1;
                self.win_admitted_by[tenant] += 1;
            }
            Decision::ShedQueue => {
                self.tenants[tenant].shed_queue += 1;
                self.win_shed += 1;
            }
            Decision::ShedFair => {
                self.tenants[tenant].shed_fair += 1;
                self.win_shed += 1;
            }
            // Breaker sheds stay out of `win_shed`: the breaker trips on
            // triage sheds (queue/fair) only, so it cannot re-trip itself
            // perpetually on its own action.
            Decision::ShedBreaker => self.tenants[tenant].shed_breaker += 1,
        }
        decision
    }

    /// Whether `tenant` is over its weighted share of this window's
    /// *offered* traffic: shed iff `admitted_t · W_total > w_t · offered`
    /// (the current offer is already counted in `win_offered`). Measuring
    /// against offers rather than admissions keeps the criterion stable —
    /// a tenant sending within its share is never fair-shed, however
    /// congested the band — and a single tenant (or one holding all the
    /// weight) can never exceed its own share, so a lone tenant is only
    /// ever queue-capped.
    fn over_share(&self, tenant: usize) -> bool {
        let w = self.weight(tenant);
        let total_w = self.total_weight();
        self.win_admitted_by[tenant].saturating_mul(total_w) > w.saturating_mul(self.win_offered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::micros(us)
    }

    fn enabled() -> AdmissionConfig {
        AdmissionConfig {
            enabled: true,
            ..AdmissionConfig::default()
        }
    }

    #[test]
    fn disabled_config_admits_everything_and_records_nothing() {
        let mut ac = AdmissionControl::new(AdmissionConfig::default(), 2);
        for i in 0..100 {
            assert_eq!(ac.offer(i % 2, 1_000_000, t(i as u64)), Decision::Admit);
        }
        assert_eq!(ac.total_offered(), 0, "disabled: nothing accounted");
        assert_eq!(ac.total_shed(), 0);
        assert_eq!(ac.breaker_trips, 0);
    }

    #[test]
    fn config_validation_rejects_each_bad_knob() {
        assert!(AdmissionConfig::default().validated().is_ok());
        assert!(enabled().validated().is_ok());
        let bad = AdmissionConfig {
            queue_cap: 0,
            ..enabled()
        };
        assert_eq!(bad.validated(), Err(AdmissionError::ZeroQueueCap));
        let bad = AdmissionConfig {
            queue_cap: 8,
            hard_cap: 4,
            ..enabled()
        };
        assert_eq!(
            bad.validated(),
            Err(AdmissionError::HardCapBelowSoft {
                hard_cap: 4,
                queue_cap: 8
            })
        );
        let bad = AdmissionConfig {
            tenant_weights: vec![2, 0, 1],
            ..enabled()
        };
        assert_eq!(
            bad.validated(),
            Err(AdmissionError::ZeroTenantWeight { tenant: 1 })
        );
        let bad = AdmissionConfig {
            window: SimDuration::ZERO,
            ..enabled()
        };
        assert_eq!(bad.validated(), Err(AdmissionError::ZeroWindow));
        let bad = AdmissionConfig {
            breaker_shed_frac: 1.5,
            ..enabled()
        };
        assert!(matches!(
            bad.validated(),
            Err(AdmissionError::BadBreakerFraction { .. })
        ));
        let bad = AdmissionConfig {
            breaker_cooldown: SimDuration::ZERO,
            ..enabled()
        };
        assert_eq!(bad.validated(), Err(AdmissionError::ZeroCooldown));
        // Errors render actionably.
        assert!(AdmissionError::ZeroQueueCap
            .to_string()
            .contains("queue_cap"));
        assert!(AdmissionError::BadBreakerFraction { frac: 2.0 }
            .to_string()
            .contains("(0, 1]"));
    }

    #[test]
    fn hard_cap_backpressure_sheds_immediately() {
        let mut ac = AdmissionControl::new(enabled(), 1);
        assert_eq!(ac.offer(0, 0, t(1)), Decision::Admit);
        assert_eq!(ac.offer(0, 63, t(2)), Decision::Admit); // below hard cap
        assert_eq!(ac.offer(0, 64, t(3)), Decision::ShedQueue); // at it
        assert_eq!(ac.tenants[0].offered, 3);
        assert_eq!(ac.tenants[0].admitted, 2);
        assert_eq!(ac.tenants[0].shed_queue, 1);
    }

    #[test]
    fn single_tenant_is_never_fair_shed() {
        let mut ac = AdmissionControl::new(enabled(), 1);
        // Congested band (soft 32 <= depth < hard 64): a lone tenant owns
        // the whole share and is always admitted.
        for i in 0..50 {
            assert_eq!(ac.offer(0, 40, t(i)), Decision::Admit);
        }
        assert_eq!(ac.tenants[0].shed_fair, 0);
    }

    #[test]
    fn fair_shedding_targets_the_over_share_tenant() {
        // Tenant 0 carries weight 3, tenant 1 weight 1. In the congested
        // band, an alternating offered stream sheds tenant 1 down to its
        // quarter share while tenant 0 keeps most of its admissions.
        let cfg = AdmissionConfig {
            tenant_weights: vec![3, 1],
            ..enabled()
        };
        let mut ac = AdmissionControl::new(cfg, 2);
        for i in 0..200 {
            ac.offer(i % 2, 40, t(i as u64));
        }
        let (t0, t1) = (ac.tenants[0], ac.tenants[1]);
        assert_eq!(t0.offered, 100);
        assert_eq!(t1.offered, 100);
        assert_eq!(t0.shed_fair, 0, "the heavy tenant stays within share");
        assert!(
            t1.shed_fair > 0,
            "the light-weight tenant sheds: {t0:?} vs {t1:?}"
        );
        // Tenant 1 is capped at its quarter share of offered traffic.
        let offered = t0.offered + t1.offered;
        assert!(
            t1.admitted <= offered / 4 + 1,
            "tenant 1 admitted {} of {offered} offered, above its quarter share",
            t1.admitted
        );
    }

    #[test]
    fn breaker_trips_after_a_bad_window_and_closes_after_cooldown() {
        let mut ac = AdmissionControl::new(enabled(), 1);
        // Window 0 (t in [0, 1ms)): everything offered at hard cap: 100%
        // shed, way over the 50% breaker fraction.
        for i in 0..10 {
            assert_eq!(ac.offer(0, 64, t(i * 50)), Decision::ShedQueue);
        }
        // Window 1 closes window 0: the breaker is now open and sheds
        // even an idle-queue request.
        assert_eq!(ac.offer(0, 0, t(1_100)), Decision::ShedBreaker);
        assert_eq!(ac.breaker_trips, 1);
        assert!(ac.breaker_open(t(1_100)));
        // Cooldown is 5 ms from the end of the bad window (t=1ms): open
        // through t<6ms, closed at 6ms.
        assert!(ac.breaker_open(t(5_900)));
        assert!(!ac.breaker_open(t(6_000)));
        assert_eq!(ac.offer(0, 0, t(6_000)), Decision::Admit);
        // The trip is logged with its open/close instants.
        assert_eq!(ac.breaker_log, vec![(t(1_000), t(6_000))]);
    }

    #[test]
    fn conservation_holds_per_tenant() {
        let mut ac = AdmissionControl::new(enabled(), 3);
        for i in 0u64..500 {
            ac.offer((i % 3) as usize, (i * 7) % 90, t(i * 13));
        }
        for (k, s) in ac.tenants.iter().enumerate() {
            assert_eq!(
                s.admitted + s.shed(),
                s.offered,
                "tenant {k} leaks accounting: {s:?}"
            );
        }
    }
}
