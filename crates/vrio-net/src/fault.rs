//! Channel fault injection: a Gilbert–Elliott bursty-loss model plus
//! delay-spike and duplication injectors.
//!
//! Real VMhost/IOhost channels do not drop frames independently: loss
//! clusters into bursts (congested switch queues, link flaps). The
//! Gilbert–Elliott model captures this with a two-state Markov chain —
//! a `Good` state with low loss and a `Bad` state with high loss — whose
//! sojourn times produce exactly the bursty patterns that stress the
//! retransmission machinery hardest (consecutive losses of the same
//! request burn through the attempt budget; uniform loss rarely does).
//!
//! All randomness is drawn from a caller-provided [`SimRng`], so a seeded
//! run replays bit-identically, and a fully disabled config draws nothing
//! at all — wiring the injector into an existing simulation leaves every
//! established RNG stream untouched until a knob is actually turned on.

use vrio_sim::{SimDuration, SimRng};

/// Parameters of the two-state Gilbert–Elliott loss chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeConfig {
    /// Per-frame probability of a Good -> Bad transition.
    pub p_good_to_bad: f64,
    /// Per-frame probability of a Bad -> Good transition.
    pub p_bad_to_good: f64,
    /// Frame-loss probability while in the Good state.
    pub loss_good: f64,
    /// Frame-loss probability while in the Bad state.
    pub loss_bad: f64,
}

impl GeConfig {
    /// A typical bursty channel: rare entry into a lossy burst state,
    /// mean burst length 10 frames, near-lossless otherwise.
    pub fn bursty() -> Self {
        GeConfig {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.1,
            loss_good: 0.001,
            loss_bad: 0.5,
        }
    }

    /// Validates that every probability lies in `[0, 1]` and that the Bad
    /// state is escapable (`p_bad_to_good > 0` — a sticky Bad state is a
    /// permanent outage, which the testbed models separately).
    pub fn validated(self) -> Result<Self, FaultConfigError> {
        for p in [
            self.p_good_to_bad,
            self.p_bad_to_good,
            self.loss_good,
            self.loss_bad,
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(FaultConfigError::ProbabilityOutOfRange(p));
            }
        }
        if self.p_bad_to_good == 0.0 && self.p_good_to_bad > 0.0 {
            return Err(FaultConfigError::StickyBadState);
        }
        Ok(self)
    }

    /// The long-run frame-loss probability: with stationary occupancy
    /// `pi_bad = p / (p + r)`, loss = `pi_good * loss_good +
    /// pi_bad * loss_bad`.
    pub fn stationary_loss(&self) -> f64 {
        let (p, r) = (self.p_good_to_bad, self.p_bad_to_good);
        if p + r == 0.0 {
            return self.loss_good; // chain never leaves Good
        }
        let pi_bad = p / (p + r);
        (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
    }
}

/// The Gilbert–Elliott chain itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    config: GeConfig,
    in_bad: bool,
}

impl GilbertElliott {
    /// Starts the chain in the Good state.
    pub fn new(config: GeConfig) -> Self {
        GilbertElliott {
            config,
            in_bad: false,
        }
    }

    /// Whether the chain currently sits in the Bad (bursty) state.
    pub fn in_bad_state(&self) -> bool {
        self.in_bad
    }

    /// Advances the chain one frame and decides that frame's fate.
    /// Draws exactly two variates: the state transition, then the loss.
    pub fn step(&mut self, rng: &mut SimRng) -> bool {
        let flip = if self.in_bad {
            self.config.p_bad_to_good
        } else {
            self.config.p_good_to_bad
        };
        if rng.chance(flip) {
            self.in_bad = !self.in_bad;
        }
        let loss = if self.in_bad {
            self.config.loss_bad
        } else {
            self.config.loss_good
        };
        rng.chance(loss)
    }
}

/// Full fault-injection configuration. The default injects nothing and
/// draws nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Bursty loss on the channel (`None` = no injected loss).
    pub ge: Option<GeConfig>,
    /// Per-traversal probability of a delay spike.
    pub delay_spike_prob: f64,
    /// The extra latency of one spike (queue buildup, link pause).
    pub delay_spike: SimDuration,
    /// Per-response probability of duplicating a block response frame.
    pub duplicate_prob: f64,
}

/// Why a [`FaultConfig`] or [`GeConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultConfigError {
    /// A probability knob fell outside `[0, 1]`.
    ProbabilityOutOfRange(f64),
    /// The Gilbert–Elliott Bad state was reachable but inescapable.
    StickyBadState,
    /// A positive spike probability with a zero spike duration (or the
    /// reverse) is almost certainly a misconfiguration.
    InertDelaySpike,
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultConfigError::ProbabilityOutOfRange(p) => {
                write!(f, "probability {p} outside [0, 1]")
            }
            FaultConfigError::StickyBadState => {
                write!(f, "Gilbert-Elliott bad state is reachable but inescapable")
            }
            FaultConfigError::InertDelaySpike => {
                write!(
                    f,
                    "delay_spike_prob and delay_spike must be enabled together"
                )
            }
        }
    }
}

impl std::error::Error for FaultConfigError {}

impl FaultConfig {
    /// Validates every knob.
    pub fn validated(self) -> Result<Self, FaultConfigError> {
        if let Some(ge) = self.ge {
            ge.validated()?;
        }
        for p in [self.delay_spike_prob, self.duplicate_prob] {
            if !(0.0..=1.0).contains(&p) {
                return Err(FaultConfigError::ProbabilityOutOfRange(p));
            }
        }
        // A probability without a magnitude (or vice versa) is a config
        // typo: one knob armed, the other inert.
        if (self.delay_spike_prob > 0.0) == self.delay_spike.is_zero() {
            return Err(FaultConfigError::InertDelaySpike);
        }
        Ok(self)
    }

    /// Whether any injector is active.
    pub fn enabled(&self) -> bool {
        self.ge.is_some() || self.delay_spike_prob > 0.0 || self.duplicate_prob > 0.0
    }
}

/// What the injector has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames offered to the loss model.
    pub frames_seen: u64,
    /// Frames the Gilbert–Elliott chain dropped.
    pub ge_losses: u64,
    /// Frames that traversed while the chain was in the Bad state.
    pub bad_state_frames: u64,
    /// Delay spikes injected.
    pub delay_spikes: u64,
    /// Block responses duplicated.
    pub duplicates: u64,
}

/// The channel fault injector: one per simulated channel.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    ge: Option<GilbertElliott>,
    /// Accounting, exposed for reliability reports.
    pub stats: FaultStats,
}

impl FaultInjector {
    /// Builds an injector; the config should already be
    /// [`FaultConfig::validated`].
    pub fn new(config: FaultConfig) -> Self {
        FaultInjector {
            config,
            ge: config.ge.map(GilbertElliott::new),
            stats: FaultStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// Offers one frame to the bursty-loss model; `true` means drop it.
    /// Draws nothing when the model is disabled.
    pub fn drop_frame(&mut self, rng: &mut SimRng) -> bool {
        let Some(ge) = self.ge.as_mut() else {
            return false;
        };
        self.stats.frames_seen += 1;
        let lost = ge.step(rng);
        if ge.in_bad_state() {
            self.stats.bad_state_frames += 1;
        }
        if lost {
            self.stats.ge_losses += 1;
        }
        lost
    }

    /// Draws the extra delay for one channel traversal (`ZERO` almost
    /// always; the configured spike occasionally). Draws nothing when
    /// spikes are disabled.
    pub fn traversal_delay(&mut self, rng: &mut SimRng) -> SimDuration {
        if self.config.delay_spike_prob <= 0.0 {
            return SimDuration::ZERO;
        }
        if rng.chance(self.config.delay_spike_prob) {
            self.stats.delay_spikes += 1;
            self.config.delay_spike
        } else {
            SimDuration::ZERO
        }
    }

    /// Decides whether to duplicate one block response. Draws nothing when
    /// duplication is disabled.
    pub fn duplicate_response(&mut self, rng: &mut SimRng) -> bool {
        if self.config.duplicate_prob <= 0.0 {
            return false;
        }
        let dup = rng.chance(self.config.duplicate_prob);
        if dup {
            self.stats.duplicates += 1;
        }
        dup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_draws_nothing() {
        let mut inj = FaultInjector::new(FaultConfig::default());
        let mut rng = SimRng::seed_from(7);
        let mut witness = SimRng::seed_from(7);
        for _ in 0..1000 {
            assert!(!inj.drop_frame(&mut rng));
            assert!(inj.traversal_delay(&mut rng).is_zero());
            assert!(!inj.duplicate_response(&mut rng));
        }
        // The stream is untouched: the next draw matches a fresh clone.
        assert_eq!(rng.uniform(), witness.uniform());
        assert_eq!(inj.stats, FaultStats::default());
    }

    #[test]
    fn stationary_loss_matches_empirical_rate() {
        let cfg = GeConfig::bursty().validated().unwrap();
        let mut ge = GilbertElliott::new(cfg);
        let mut rng = SimRng::seed_from(42);
        let n = 200_000;
        let lost = (0..n).filter(|_| ge.step(&mut rng)).count();
        let empirical = lost as f64 / n as f64;
        let analytic = cfg.stationary_loss();
        assert!(
            (empirical - analytic).abs() < 0.01,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn losses_cluster_into_bursts() {
        // Under Gilbert-Elliott, a loss is far more likely right after
        // another loss than unconditionally — the defining property that
        // uniform loss lacks.
        let cfg = GeConfig::bursty();
        let mut ge = GilbertElliott::new(cfg);
        let mut rng = SimRng::seed_from(1);
        let fates: Vec<bool> = (0..100_000).map(|_| ge.step(&mut rng)).collect();
        let total_rate = fates.iter().filter(|&&l| l).count() as f64 / fates.len() as f64;
        let after_loss: Vec<bool> = fates.windows(2).filter(|w| w[0]).map(|w| w[1]).collect();
        let cond_rate =
            after_loss.iter().filter(|&&l| l).count() as f64 / after_loss.len().max(1) as f64;
        assert!(
            cond_rate > 4.0 * total_rate,
            "loss-after-loss {cond_rate} not bursty vs base {total_rate}"
        );
    }

    #[test]
    fn seeded_replay_is_bit_identical() {
        let cfg = FaultConfig {
            ge: Some(GeConfig::bursty()),
            delay_spike_prob: 0.01,
            delay_spike: SimDuration::micros(500),
            duplicate_prob: 0.02,
        };
        let run = |seed: u64| {
            let mut inj = FaultInjector::new(cfg);
            let mut rng = SimRng::seed_from(seed);
            let fates: Vec<(bool, u64, bool)> = (0..5000)
                .map(|_| {
                    (
                        inj.drop_frame(&mut rng),
                        inj.traversal_delay(&mut rng).as_nanos(),
                        inj.duplicate_response(&mut rng),
                    )
                })
                .collect();
            (fates, inj.stats)
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).0, run(100).0);
    }

    #[test]
    fn injectors_fire_when_enabled() {
        let cfg = FaultConfig {
            ge: Some(GeConfig::bursty()),
            delay_spike_prob: 0.05,
            delay_spike: SimDuration::micros(300),
            duplicate_prob: 0.05,
        }
        .validated()
        .unwrap();
        let mut inj = FaultInjector::new(cfg);
        let mut rng = SimRng::seed_from(3);
        let mut spikes = 0u64;
        for _ in 0..10_000 {
            inj.drop_frame(&mut rng);
            if !inj.traversal_delay(&mut rng).is_zero() {
                spikes += 1;
            }
            inj.duplicate_response(&mut rng);
        }
        assert!(inj.stats.ge_losses > 0);
        assert!(inj.stats.bad_state_frames > 0);
        assert_eq!(inj.stats.delay_spikes, spikes);
        assert!(spikes > 0);
        assert!(inj.stats.duplicates > 0);
        assert_eq!(inj.stats.frames_seen, 10_000);
    }

    #[test]
    fn validation_rejects_each_bad_knob() {
        assert!(FaultConfig::default().validated().is_ok());
        let bad = GeConfig {
            p_good_to_bad: 1.5,
            ..GeConfig::bursty()
        };
        assert!(matches!(
            bad.validated(),
            Err(FaultConfigError::ProbabilityOutOfRange(_))
        ));
        let sticky = GeConfig {
            p_bad_to_good: 0.0,
            ..GeConfig::bursty()
        };
        assert_eq!(sticky.validated(), Err(FaultConfigError::StickyBadState));
        let inert = FaultConfig {
            delay_spike_prob: 0.1,
            ..FaultConfig::default()
        };
        assert_eq!(inert.validated(), Err(FaultConfigError::InertDelaySpike));
        let inert = FaultConfig {
            delay_spike: SimDuration::micros(1),
            ..FaultConfig::default()
        };
        assert_eq!(inert.validated(), Err(FaultConfigError::InertDelaySpike));
        // Degenerate chain that never leaves Good is fine.
        let still = GeConfig {
            p_good_to_bad: 0.0,
            p_bad_to_good: 0.0,
            loss_good: 0.01,
            loss_bad: 0.9,
        };
        assert!(still.validated().is_ok());
        assert!((still.stationary_loss() - 0.01).abs() < 1e-12);
    }
}
