//! The IOclient transport driver: reliability for block traffic over
//! unreliable Ethernet (paper §4.5) and the switchable SRIOV/virtio
//! channel that enables live migration (§4.6).
//!
//! Net traffic needs no reliability (TCP retransmits, UDP may lose anyway),
//! but block requests must never be lost. The transport associates a
//! timeout and a *unique wire identifier* with every block request; on
//! expiry the request is presumed lost and retransmitted under a fresh
//! identifier with an exponentially backed-off timeout, and responses
//! carrying a superseded ("stale") identifier are ignored. After too many
//! attempts the device raises an error. The paper relies on the guest's
//! disk scheduler to keep a competing request for the same blocks from
//! racing a retransmission; [`vrio_block::BlockGate`] implements that
//! invariant, but the testbed does not apply it: Filebench threads pick
//! their 4 KB sectors independently, so two in-flight requests of one VM
//! may overlap.
//!
//! The paper uses a fixed 10 ms timeout. On a rack where the channel RTT
//! is tens of microseconds that wastes three orders of magnitude of
//! detection latency, so the transport now estimates the RTT per device
//! with the Jacobson–Karels algorithm (SRTT/RTTVAR, as in TCP) and arms
//!
//! ```text
//! RTO = clamp(SRTT + 4·RTTVAR, min_rto, max_rto)
//! ```
//!
//! once it has samples, falling back to `initial_timeout` before then.
//! Karn's rule applies: only first-attempt responses are sampled, since a
//! response to a retransmitted request is ambiguous about which copy it
//! answers. Backoff doubles the armed timeout per attempt, capped at
//! `max_rto`, with optional multiplicative jitter to de-synchronize
//! retransmission storms across devices.

use std::fmt;

use vrio_sim::{SimDuration, SimTime};

/// Retransmission parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetxConfig {
    /// Timeout for the first attempt while no RTT sample exists. The
    /// paper uses 10 ms.
    pub initial_timeout: SimDuration,
    /// Attempts (including the first transmission) before a device error.
    pub max_attempts: u32,
    /// Lower clamp for the *adaptive* RTO (never applied to the
    /// configured `initial_timeout`): guards against a few fast samples
    /// collapsing the timer below queueing jitter. On a loaded IOhost the
    /// block response time is dominated by queueing, not the wire RTT, so
    /// an RTO tracking `SRTT + 4·RTTVAR` of fast samples fires spuriously
    /// and the duplicate work depresses throughput; the default floor of
    /// 1 ms (≈20x the uncontended RTT, mirroring TCP's conservative
    /// 200 ms-vs-ms-RTTs ratio) suppresses that while still detecting
    /// real loss 10x faster than the paper's fixed 10 ms timer.
    pub min_rto: SimDuration,
    /// Upper clamp for the adaptive RTO and for exponential backoff.
    pub max_rto: SimDuration,
    /// Multiplicative jitter applied to backed-off timeouts, in `[0, 1)`:
    /// a retransmission timer for `t` is drawn from `t · (1 ± jitter)`.
    /// Zero (the default) keeps backoff exactly deterministic.
    pub backoff_jitter: f64,
}

impl Default for RetxConfig {
    fn default() -> Self {
        RetxConfig {
            initial_timeout: SimDuration::millis(10),
            max_attempts: 8,
            min_rto: SimDuration::millis(1),
            max_rto: SimDuration::secs(1),
            backoff_jitter: 0.0,
        }
    }
}

/// Why a [`RetxConfig`] was rejected by [`RetxConfig::validated`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetxConfigError {
    /// `max_attempts` was zero: no request could ever be transmitted.
    ZeroAttempts,
    /// `initial_timeout` was zero: the first timer would fire instantly.
    ZeroInitialTimeout,
    /// `min_rto` was zero: an adaptive timer could fire instantly.
    ZeroMinRto,
    /// `max_rto < min_rto`: the clamp range is empty.
    EmptyRtoRange,
    /// `backoff_jitter` was outside `[0, 1)` or not finite.
    BadJitter,
}

impl fmt::Display for RetxConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetxConfigError::ZeroAttempts => write!(f, "max_attempts must be at least 1"),
            RetxConfigError::ZeroInitialTimeout => write!(f, "initial_timeout must be non-zero"),
            RetxConfigError::ZeroMinRto => write!(f, "min_rto must be non-zero"),
            RetxConfigError::EmptyRtoRange => write!(f, "max_rto must be at least min_rto"),
            RetxConfigError::BadJitter => write!(f, "backoff_jitter must be in [0, 1)"),
        }
    }
}

impl std::error::Error for RetxConfigError {}

impl RetxConfig {
    /// Checks the knobs for consistency, returning the config unchanged
    /// when sound. The testbed refuses to start on a rejected config —
    /// a zero timeout or zero attempt budget silently degrades into
    /// instant device errors, which is far harder to diagnose at run
    /// time than at construction.
    pub fn validated(self) -> Result<RetxConfig, RetxConfigError> {
        if self.max_attempts == 0 {
            return Err(RetxConfigError::ZeroAttempts);
        }
        if self.initial_timeout.is_zero() {
            return Err(RetxConfigError::ZeroInitialTimeout);
        }
        if self.min_rto.is_zero() {
            return Err(RetxConfigError::ZeroMinRto);
        }
        if self.max_rto < self.min_rto {
            return Err(RetxConfigError::EmptyRtoRange);
        }
        if !self.backoff_jitter.is_finite() || !(0.0..1.0).contains(&self.backoff_jitter) {
            return Err(RetxConfigError::BadJitter);
        }
        Ok(self)
    }
}

/// Counters and gauges the transport maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetxStats {
    /// Requests sent (first transmissions).
    pub sent: u64,
    /// Retransmissions performed.
    pub retransmissions: u64,
    /// Responses ignored because their wire id was superseded.
    pub stale_responses: u64,
    /// Requests that exhausted all attempts.
    pub device_errors: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// RTT samples folded into the estimator (Karn-filtered).
    pub rtt_samples: u64,
    /// The most recent raw RTT sample, in nanoseconds.
    pub last_rtt_ns: u64,
    /// Smoothed RTT (SRTT), in nanoseconds.
    pub srtt_ns: u64,
    /// RTT variance estimate (RTTVAR), in nanoseconds.
    pub rttvar_ns: u64,
    /// The adaptive RTO currently armed for fresh sends, in nanoseconds
    /// (0 until the first sample; `initial_timeout` applies then).
    pub rto_ns: u64,
}

/// The transport's record of one block request's latest attempt: its
/// wire id, attempt number, armed timeout and send time. The caller keeps
/// it with the request (the testbed, in the request's block-table slot)
/// and [`BlockRetx`] advances it. [`BlockRetx::send`] makes one; accepting
/// a response or giving up retires it, after which every response and
/// timer finds it stale. The default record is retired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attempt {
    /// The attempt's wire id; 0 once the request is retired (wire ids
    /// start at 1).
    wire_id: u64,
    attempt: u32,
    timeout: SimDuration,
    /// When this attempt went on the wire (for RTT sampling).
    sent_at: SimTime,
}

impl Attempt {
    /// The wire id the attempt travels under (0 once retired).
    pub fn wire_id(&self) -> u64 {
        self.wire_id
    }

    /// The timeout to arm for the attempt.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// Whether the request still awaits a response.
    pub fn is_outstanding(&self) -> bool {
        self.wire_id != 0
    }
}

/// What to do when a retransmission timer fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutAction {
    /// Resend under the record's fresh wire id and arm its backed-off
    /// timeout.
    Retransmit,
    /// Attempts exhausted: surface a device error to the guest.
    DeviceError,
    /// The timer is stale (the request was already retired): no-op.
    Stale,
}

/// What to do when a response arrives from the IOhost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseAction {
    /// Deliver the request's completion to the front-end.
    Accept,
    /// The response's wire id was superseded or retired: drop it.
    Stale,
}

/// The block-retransmission state machine of one device. It keeps only
/// per-device state; each request's [`Attempt`] travels with the request.
///
/// # Examples
///
/// ```
/// use vrio::{BlockRetx, ResponseAction, RetxConfig, TimeoutAction};
/// use vrio_sim::{SimDuration, SimTime};
///
/// let mut retx = BlockRetx::new(RetxConfig::default());
/// let t0 = SimTime::ZERO;
/// let mut req = retx.send(t0);
/// let wire1 = req.wire_id();
/// assert_eq!(req.timeout(), SimDuration::millis(10)); // no RTT sample yet
///
/// // The request is lost; the timer fires: retransmit with doubled timeout.
/// let fired = t0 + req.timeout();
/// assert_eq!(retx.on_timeout(&mut req, fired), TimeoutAction::Retransmit);
/// assert_eq!(req.timeout(), SimDuration::millis(20));
///
/// // A late response for the ORIGINAL id is stale and ignored...
/// let now = fired + SimDuration::micros(40);
/// assert_eq!(retx.on_response(&mut req, wire1, now), ResponseAction::Stale);
/// // ...but the retransmission's response completes the request.
/// let wire2 = req.wire_id();
/// assert_eq!(retx.on_response(&mut req, wire2, now), ResponseAction::Accept);
/// assert!(!req.is_outstanding());
///
/// // Once a first-attempt response samples the RTT, fresh sends arm the
/// // adaptive RTO instead of the 10 ms initial timeout. The ~44us RTT
/// // computes a raw RTO of 132us, clamped up to the 1 ms `min_rto` floor —
/// // still 10x faster loss detection than the paper's fixed timeout.
/// let mut req = retx.send(now);
/// let wire3 = req.wire_id();
/// retx.on_response(&mut req, wire3, now + SimDuration::micros(44));
/// let req = retx.send(now + SimDuration::micros(100));
/// assert_eq!(req.timeout(), SimDuration::millis(1));
/// ```
#[derive(Debug, Default, Clone)]
pub struct BlockRetx {
    config: RetxConfig,
    next_wire_id: u64,
    /// Requests sent and not yet retired.
    in_flight: usize,
    /// Smoothed RTT in nanoseconds; `None` until the first sample.
    srtt_ns: Option<u64>,
    /// RTT variance in nanoseconds.
    rttvar_ns: u64,
    /// Private splitmix64 stream for backoff jitter; independent of the
    /// simulation's `SimRng` streams so enabling jitter never perturbs
    /// other random draws.
    jitter_state: u64,
    /// Counters.
    pub stats: RetxStats,
}

impl BlockRetx {
    /// Creates a state machine with the given configuration.
    pub fn new(config: RetxConfig) -> Self {
        BlockRetx {
            config,
            next_wire_id: 1,
            ..BlockRetx::default()
        }
    }

    /// Number of requests currently awaiting a response.
    pub fn outstanding(&self) -> usize {
        self.in_flight
    }

    /// The configuration this state machine was built with.
    pub fn config(&self) -> RetxConfig {
        self.config
    }

    /// The timeout a fresh transmission would arm right now: the adaptive
    /// RTO once the estimator has samples, `initial_timeout` before.
    pub fn current_rto(&self) -> SimDuration {
        match self.srtt_ns {
            Some(srtt) => {
                let rto = srtt.saturating_add(4 * self.rttvar_ns);
                SimDuration::nanos(rto.clamp(
                    self.config.min_rto.as_nanos(),
                    self.config.max_rto.as_nanos(),
                ))
            }
            None => self.config.initial_timeout,
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_wire_id;
        self.next_wire_id += 1;
        id
    }

    /// Folds one RTT sample into the Jacobson–Karels estimator.
    fn sample_rtt(&mut self, rtt: SimDuration) {
        let r = rtt.as_nanos();
        match self.srtt_ns {
            None => {
                self.srtt_ns = Some(r);
                self.rttvar_ns = r / 2;
            }
            Some(srtt) => {
                // RTTVAR <- 3/4·RTTVAR + 1/4·|SRTT - R|
                self.rttvar_ns = (3 * self.rttvar_ns + srtt.abs_diff(r)) / 4;
                // SRTT <- 7/8·SRTT + 1/8·R
                self.srtt_ns = Some((7 * srtt + r) / 8);
            }
        }
        self.stats.rtt_samples += 1;
        self.stats.last_rtt_ns = r;
        self.stats.srtt_ns = self.srtt_ns.unwrap_or(0);
        self.stats.rttvar_ns = self.rttvar_ns;
        self.stats.rto_ns = self.current_rto().as_nanos();
    }

    /// Applies `backoff_jitter` to a backed-off timeout: a multiplicative
    /// factor uniform in `[1 - j, 1 + j)` from the private jitter stream.
    fn jittered(&mut self, timeout: SimDuration) -> SimDuration {
        let j = self.config.backoff_jitter;
        if j <= 0.0 {
            return timeout;
        }
        self.jitter_state = self.jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let u = ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let factor = 1.0 - j + 2.0 * j * u;
        let out = timeout * factor;
        // Jitter must never produce an instant or uncapped timer.
        SimDuration::nanos(out.as_nanos().clamp(
            self.config.min_rto.as_nanos(),
            self.config.max_rto.as_nanos(),
        ))
    }

    /// Registers a new request at simulated time `now`: returns the
    /// record of its first attempt, with its wire id and the timeout to
    /// arm.
    pub fn send(&mut self, now: SimTime) -> Attempt {
        let wire_id = self.fresh_id();
        let timeout = self.current_rto();
        self.in_flight += 1;
        self.stats.sent += 1;
        Attempt {
            wire_id,
            attempt: 1,
            timeout,
            sent_at: now,
        }
    }

    /// Retires `record`: its request awaits nothing any more.
    fn retire(&mut self, record: &mut Attempt) {
        record.wire_id = 0;
        self.in_flight -= 1;
    }

    /// Handles the expiry of `record`'s timer at simulated time `now`.
    /// A retired record's timer is stale and changes nothing; otherwise
    /// the record moves to its retransmission, or retires as a device
    /// error once the attempts are exhausted.
    pub fn on_timeout(&mut self, record: &mut Attempt, now: SimTime) -> TimeoutAction {
        if !record.is_outstanding() {
            return TimeoutAction::Stale;
        }
        if record.attempt >= self.config.max_attempts {
            self.retire(record);
            self.stats.device_errors += 1;
            return TimeoutAction::DeviceError;
        }
        let wire_id = self.fresh_id();
        // Exponential backoff (§4.5), capped at max_rto, optionally jittered.
        let doubled = SimDuration::nanos(
            (record.timeout * 2u64)
                .as_nanos()
                .min(self.config.max_rto.as_nanos()),
        );
        let timeout = self.jittered(doubled);
        *record = Attempt {
            wire_id,
            attempt: record.attempt + 1,
            timeout,
            sent_at: now,
        };
        self.stats.retransmissions += 1;
        TimeoutAction::Retransmit
    }

    /// Handles a response carrying `wire_id` for the request whose record
    /// is `record`, arriving at simulated time `now`. Only the latest
    /// attempt of an outstanding request is accepted, which retires it.
    pub fn on_response(
        &mut self,
        record: &mut Attempt,
        wire_id: u64,
        now: SimTime,
    ) -> ResponseAction {
        if !record.is_outstanding() || record.wire_id != wire_id {
            self.stats.stale_responses += 1;
            return ResponseAction::Stale;
        }
        self.retire(record);
        self.stats.completed += 1;
        // Karn's rule: a response to a retransmitted request is ambiguous
        // (it may answer any earlier copy), so only first attempts sample.
        if record.attempt == 1 {
            self.sample_rtt(now.since(record.sent_at));
        }
        ResponseAction::Accept
    }
}

/// Which NIC carries the transport channel (paper §4.6 "Live Migration").
///
/// `F` (the front-end's outward identity) stays fixed while `T` (the
/// transport) can switch between an SRIOV VF (fast path) and a traditional
/// virtio NIC (migratable path) — the underlying traffic is the same virtio
/// protocol either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// `T` rides a dedicated SRIOV VF with ELI (the performance path).
    Sriov,
    /// `T` rides a paravirtual NIC via the local hypervisor — slower, but
    /// the VM can live-migrate while using it.
    Virtio,
    /// `T` rides shared memory to the *local* hypervisor with traditional
    /// virtio headers (the migrate-away-from-vRIO escape hatch).
    LocalFallback,
}

impl TransportMode {
    /// Whether live migration can commence in this mode.
    pub fn migratable(self) -> bool {
        !matches!(self, TransportMode::Sriov)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ms: u64, attempts: u32) -> RetxConfig {
        RetxConfig {
            initial_timeout: SimDuration::millis(ms),
            max_attempts: attempts,
            ..RetxConfig::default()
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::micros(us)
    }

    /// Answers `record`'s latest attempt at `now`.
    fn respond(rx: &mut BlockRetx, record: &mut Attempt, now: SimTime) -> ResponseAction {
        let wire = record.wire_id();
        rx.on_response(record, wire, now)
    }

    #[test]
    fn clean_completion() {
        let mut rx = BlockRetx::new(RetxConfig::default());
        let mut r = rx.send(t(0));
        assert_eq!(rx.outstanding(), 1);
        assert_eq!(respond(&mut rx, &mut r, t(44)), ResponseAction::Accept);
        assert!(!r.is_outstanding());
        assert_eq!(rx.outstanding(), 0);
        assert_eq!(rx.stats.completed, 1);
        // The original timer later fires: stale, no-op.
        let retired = r;
        assert_eq!(rx.on_timeout(&mut r, t(10_000)), TimeoutAction::Stale);
        assert_eq!(r, retired);
        assert_eq!(rx.outstanding(), 0);
    }

    #[test]
    fn timeout_doubles_each_attempt() {
        let mut rx = BlockRetx::new(cfg(10, 5));
        let mut r = rx.send(t(0));
        let mut expected = 10u64;
        for _ in 0..4 {
            assert_eq!(r.timeout(), SimDuration::millis(expected));
            let fired = t(0) + r.timeout();
            assert_eq!(rx.on_timeout(&mut r, fired), TimeoutAction::Retransmit);
            expected *= 2;
        }
        assert_eq!(r.timeout(), SimDuration::millis(160));
        assert_eq!(rx.stats.retransmissions, 4);
    }

    #[test]
    fn backoff_caps_at_max_rto() {
        let mut rx = BlockRetx::new(RetxConfig {
            initial_timeout: SimDuration::millis(400),
            max_attempts: 6,
            max_rto: SimDuration::millis(1000),
            ..RetxConfig::default()
        });
        let mut r = rx.send(t(0));
        let mut seen = Vec::new();
        for _ in 0..4 {
            assert_eq!(rx.on_timeout(&mut r, t(0)), TimeoutAction::Retransmit);
            seen.push(r.timeout().as_nanos() / 1_000_000);
        }
        assert_eq!(seen, vec![800, 1000, 1000, 1000]);
    }

    #[test]
    fn attempts_exhausted_raises_device_error() {
        let mut rx = BlockRetx::new(cfg(1, 3));
        let mut r = rx.send(t(0));
        for _ in 0..2 {
            assert_eq!(rx.on_timeout(&mut r, t(1_000)), TimeoutAction::Retransmit);
        }
        let last = r.wire_id();
        assert_eq!(rx.on_timeout(&mut r, t(4_000)), TimeoutAction::DeviceError);
        assert_eq!(rx.stats.device_errors, 1);
        assert_eq!(rx.outstanding(), 0);
        // The failed request's last attempt answers late: stale.
        assert_eq!(
            rx.on_response(&mut r, last, t(4_100)),
            ResponseAction::Stale
        );
        assert_eq!(rx.stats.completed, 0);
    }

    #[test]
    fn stale_response_after_retransmission_is_ignored() {
        let mut rx = BlockRetx::new(cfg(10, 8));
        let mut r = rx.send(t(0));
        let w1 = r.wire_id();
        assert_eq!(rx.on_timeout(&mut r, t(10_000)), TimeoutAction::Retransmit);
        let w2 = r.wire_id();
        assert_ne!(w1, w2);
        // The ORIGINAL response arrives late (it was delayed, not lost).
        assert_eq!(rx.on_response(&mut r, w1, t(10_050)), ResponseAction::Stale);
        assert_eq!(rx.stats.stale_responses, 1);
        // The request still completes via the retransmission.
        assert_eq!(
            rx.on_response(&mut r, w2, t(10_100)),
            ResponseAction::Accept
        );
        // A duplicate of the accepted response is also stale.
        assert_eq!(rx.on_response(&mut r, w2, t(10_100)), ResponseAction::Stale);
        assert_eq!(rx.stats.completed, 1);
    }

    #[test]
    fn many_concurrent_requests_do_not_cross() {
        let mut rx = BlockRetx::new(RetxConfig::default());
        let mut records: Vec<Attempt> = (0..100).map(|i| rx.send(t(i))).collect();
        let wires: Vec<u64> = records.iter().map(Attempt::wire_id).collect();
        // Another request's wire id never completes a request.
        for (i, r) in records.iter_mut().enumerate() {
            let other = wires[(i + 1) % wires.len()];
            assert_eq!(rx.on_response(r, other, t(150)), ResponseAction::Stale);
        }
        // Complete in reverse order; each record takes its own wire id.
        for (r, &w) in records.iter_mut().zip(&wires).rev() {
            assert_eq!(rx.on_response(r, w, t(200)), ResponseAction::Accept);
        }
        assert_eq!(rx.outstanding(), 0);
        assert_eq!(rx.stats.completed, 100);
    }

    #[test]
    fn jacobson_karels_estimation_matches_hand_computation() {
        // A low floor so the raw SRTT + 4·RTTVAR value is observable.
        let mut rx = BlockRetx::new(RetxConfig {
            min_rto: SimDuration::micros(50),
            ..RetxConfig::default()
        });
        // First sample 100us: SRTT = 100us, RTTVAR = 50us.
        let mut r = rx.send(t(0));
        respond(&mut rx, &mut r, t(100));
        assert_eq!(rx.stats.srtt_ns, 100_000);
        assert_eq!(rx.stats.rttvar_ns, 50_000);
        assert_eq!(rx.stats.rto_ns, 300_000); // 100 + 4·50 us
                                              // Second sample 60us:
                                              //   RTTVAR = 3/4·50 + 1/4·|100-60| = 47.5us
                                              //   SRTT   = 7/8·100 + 1/8·60     = 95us
        let mut r = rx.send(t(1_000));
        respond(&mut rx, &mut r, t(1_060));
        assert_eq!(rx.stats.srtt_ns, 95_000);
        assert_eq!(rx.stats.rttvar_ns, 47_500);
        assert_eq!(rx.stats.last_rtt_ns, 60_000);
        assert_eq!(rx.stats.rtt_samples, 2);
    }

    #[test]
    fn adaptive_rto_replaces_initial_timeout_after_first_sample() {
        let mut rx = BlockRetx::new(RetxConfig {
            min_rto: SimDuration::micros(50),
            ..RetxConfig::default()
        });
        let mut r = rx.send(t(0));
        assert_eq!(
            r.timeout(),
            SimDuration::millis(10),
            "no sample yet: initial timeout"
        );
        respond(&mut rx, &mut r, t(44));
        // SRTT 44us, RTTVAR 22us -> raw RTO 132us, above the 50us floor.
        assert_eq!(rx.send(t(100)).timeout(), SimDuration::micros(132));
    }

    #[test]
    fn default_floor_suppresses_sub_millisecond_rtos() {
        // With the default config, fast uncontended samples must not arm
        // a timer below queueing jitter (the consolidation workloads rely
        // on this — see `min_rto`'s doc).
        let mut rx = BlockRetx::new(RetxConfig::default());
        let mut r = rx.send(t(0));
        respond(&mut rx, &mut r, t(44));
        assert_eq!(rx.send(t(100)).timeout(), SimDuration::millis(1));
    }

    #[test]
    fn min_rto_floors_the_adaptive_timer_only() {
        let mut rx = BlockRetx::new(RetxConfig {
            initial_timeout: SimDuration::micros(200),
            min_rto: SimDuration::millis(5),
            ..RetxConfig::default()
        });
        // The configured initial timeout is honored verbatim...
        let mut r = rx.send(t(0));
        assert_eq!(r.timeout(), SimDuration::micros(200));
        respond(&mut rx, &mut r, t(10));
        // ...but the adaptive RTO (10us + 4·5us = 30us raw) is floored.
        assert_eq!(rx.send(t(100)).timeout(), SimDuration::millis(5));
    }

    #[test]
    fn karn_rule_skips_retransmitted_attempts() {
        let mut rx = BlockRetx::new(cfg(10, 8));
        let mut r = rx.send(t(0));
        assert_eq!(rx.on_timeout(&mut r, t(10_000)), TimeoutAction::Retransmit);
        // The response answers attempt 2: ambiguous, so no RTT sample.
        respond(&mut rx, &mut r, t(10_040));
        assert_eq!(rx.stats.rtt_samples, 0);
        assert_eq!(rx.current_rto(), SimDuration::millis(10));
        // A clean first-attempt exchange does sample.
        let mut r = rx.send(t(20_000));
        respond(&mut rx, &mut r, t(20_044));
        assert_eq!(rx.stats.rtt_samples, 1);
        assert_eq!(rx.stats.last_rtt_ns, 44_000);
    }

    #[test]
    fn jittered_backoff_stays_within_band_and_is_deterministic() {
        let run = || {
            let mut rx = BlockRetx::new(RetxConfig {
                backoff_jitter: 0.25,
                ..RetxConfig::default()
            });
            let mut r = rx.send(t(0));
            let mut timeouts = Vec::new();
            for _ in 0..3 {
                assert_eq!(rx.on_timeout(&mut r, t(0)), TimeoutAction::Retransmit);
                timeouts.push(r.timeout());
            }
            timeouts
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "jitter stream is deterministic");
        // Each timer lands in [0.75, 1.25)·doubled.
        let mut nominal = 10_000_000u64; // 10ms in ns
        for to in &a {
            nominal *= 2;
            let lo = (nominal as f64 * 0.75) as u64;
            let hi = (nominal as f64 * 1.25) as u64;
            assert!(
                (lo..=hi).contains(&to.as_nanos()),
                "timeout {to} outside jitter band of {nominal}ns"
            );
        }
    }

    #[test]
    fn validated_accepts_default_and_rejects_each_bad_knob() {
        assert!(RetxConfig::default().validated().is_ok());
        assert_eq!(
            RetxConfig {
                max_attempts: 0,
                ..RetxConfig::default()
            }
            .validated(),
            Err(RetxConfigError::ZeroAttempts)
        );
        assert_eq!(
            RetxConfig {
                initial_timeout: SimDuration::ZERO,
                ..RetxConfig::default()
            }
            .validated(),
            Err(RetxConfigError::ZeroInitialTimeout)
        );
        assert_eq!(
            RetxConfig {
                min_rto: SimDuration::ZERO,
                ..RetxConfig::default()
            }
            .validated(),
            Err(RetxConfigError::ZeroMinRto)
        );
        assert_eq!(
            RetxConfig {
                min_rto: SimDuration::millis(2),
                max_rto: SimDuration::millis(1),
                ..RetxConfig::default()
            }
            .validated(),
            Err(RetxConfigError::EmptyRtoRange)
        );
        for j in [1.0, 1.5, -0.1, f64::NAN] {
            assert_eq!(
                RetxConfig {
                    backoff_jitter: j,
                    ..RetxConfig::default()
                }
                .validated(),
                Err(RetxConfigError::BadJitter),
                "jitter {j}"
            );
        }
    }

    #[test]
    fn transport_mode_migratability() {
        assert!(!TransportMode::Sriov.migratable());
        assert!(TransportMode::Virtio.migratable());
        assert!(TransportMode::LocalFallback.migratable());
    }
}
