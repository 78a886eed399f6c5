//! IOhost liveness tracking: the per-VMhost health state machine that
//! drives failover and failback (§4.6 fault tolerance).
//!
//! Each VMhost probes the IOhost on a fixed heartbeat grid with
//! [`VrioMsgKind::Heartbeat`] messages; the IOhost answers each probe with
//! a [`VrioMsgKind::HeartbeatAck`] echoing the probe sequence number. The
//! monitor folds the ack/miss stream into five states:
//!
//! ```text
//! Healthy --miss--> Suspect --miss--> FailedOver --ack--> Probing
//!    ^                 |                   ^                 |
//!    |<------ack-------+                   +------miss-------+
//!    |                                                       |
//!    +<---------- Recovered <---- `recovery_acks` acks ------+
//! ```
//!
//! `Recovered` is a transition marker, not a resting state: the monitor
//! records it and immediately re-enters `Healthy` at the same timestamp,
//! so `transitions` carries one unambiguous failback event per outage.
//!
//! The monitor is *lazy*: it schedules no engine events. Callers advance
//! it to the current simulated time before reading the state, and it
//! replays every heartbeat exchange that the wall clock has passed. This
//! keeps closed-loop simulations terminating (the event heap drains) while
//! the observable behaviour is identical to free-running probe timers.

use bytes::Bytes;
use vrio_sim::{SimDuration, SimTime};

use crate::proto::{DeviceId, VrioMsg, VrioMsgKind};

/// One scheduled IOhost outage: the host is down in
/// `[fails_at, recovers_at)`, or forever when `recovers_at` is `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// The crash instant.
    pub fails_at: SimTime,
    /// The recovery instant (`None` = the host never comes back).
    pub recovers_at: Option<SimTime>,
}

impl Outage {
    /// Whether the IOhost is down at `t`.
    pub fn covers(&self, t: SimTime) -> bool {
        t >= self.fails_at && self.recovers_at.is_none_or(|r| t < r)
    }
}

/// The health of the IOhost as observed by one VMhost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Heartbeats are acked; traffic rides vRIO.
    Healthy,
    /// One or more probes missed, but below the failover threshold;
    /// traffic still rides vRIO (a lone drop is not a crash).
    Suspect,
    /// The miss threshold was reached: net traffic routes via the local
    /// virtio fallback until the IOhost proves itself again.
    FailedOver,
    /// A probe was acked after a failover; the monitor keeps the fallback
    /// route until `recovery_acks` consecutive acks arrive.
    Probing,
    /// The recovery streak completed. Recorded in `transitions` and
    /// immediately superseded by [`HealthState::Healthy`].
    Recovered,
}

impl HealthState {
    /// Whether net traffic should ride the local-virtio fallback in this
    /// state.
    pub fn routes_via_fallback(self) -> bool {
        matches!(self, HealthState::FailedOver | HealthState::Probing)
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::FailedOver => "failed-over",
            HealthState::Probing => "probing",
            HealthState::Recovered => "recovered",
        })
    }
}

/// Tuning knobs of the health state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Heartbeat period. Detection latency is bounded by
    /// `interval * (failover_misses + 1)`.
    pub interval: SimDuration,
    /// Consecutive misses that trigger failover (the first miss already
    /// moves the monitor to [`HealthState::Suspect`]).
    pub failover_misses: u32,
    /// Consecutive acks (after failover) that complete failback.
    pub recovery_acks: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        // 250us beats, failover on the 2nd miss, failback after 2 acks:
        // detection within 750us of a crash, failback within 750us of
        // recovery — both well under the ~1ms retry horizons the §4.6
        // experiments assume.
        HealthConfig {
            interval: SimDuration::micros(250),
            failover_misses: 2,
            recovery_acks: 2,
        }
    }
}

/// Why a [`HealthConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthConfigError {
    /// `interval` was zero — the monitor would spin on one instant.
    ZeroInterval,
    /// `failover_misses` was zero — the monitor could never fail over.
    ZeroFailoverMisses,
    /// `recovery_acks` was zero — the monitor could never fail back.
    ZeroRecoveryAcks,
}

impl std::fmt::Display for HealthConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthConfigError::ZeroInterval => write!(f, "heartbeat interval must be non-zero"),
            HealthConfigError::ZeroFailoverMisses => {
                write!(f, "failover_misses must be at least 1")
            }
            HealthConfigError::ZeroRecoveryAcks => write!(f, "recovery_acks must be at least 1"),
        }
    }
}

impl std::error::Error for HealthConfigError {}

impl HealthConfig {
    /// Validates the knobs, returning the config unchanged when sane.
    pub fn validated(self) -> Result<Self, HealthConfigError> {
        if self.interval.is_zero() {
            return Err(HealthConfigError::ZeroInterval);
        }
        if self.failover_misses == 0 {
            return Err(HealthConfigError::ZeroFailoverMisses);
        }
        if self.recovery_acks == 0 {
            return Err(HealthConfigError::ZeroRecoveryAcks);
        }
        Ok(self)
    }
}

/// Why an outage schedule was rejected by [`validate_outage_schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutageScheduleError {
    /// `recovers_at <= fails_at`: the window is empty (or inverted) and
    /// can never cover an instant.
    EmptyWindow {
        /// Index of the offending window in the schedule.
        index: usize,
        /// Its crash instant.
        fails_at: SimTime,
        /// Its (not-after-the-crash) recovery instant.
        recovers_at: SimTime,
    },
    /// Window `index` starts before window `index - 1` does: the schedule
    /// must be sorted by `fails_at`.
    Unsorted {
        /// Index of the out-of-order window.
        index: usize,
    },
    /// Window `index` starts before window `index - 1` recovers (a
    /// permanent predecessor overlaps everything after it).
    Overlap {
        /// Index of the overlapping window.
        index: usize,
    },
}

impl std::fmt::Display for OutageScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutageScheduleError::EmptyWindow {
                index,
                fails_at,
                recovers_at,
            } => write!(
                f,
                "outage window {index} is empty: recovers_at ({recovers_at:?}) must be \
                 strictly after fails_at ({fails_at:?})"
            ),
            OutageScheduleError::Unsorted { index } => write!(
                f,
                "outage window {index} starts before window {} does: sort the schedule \
                 by fails_at",
                index - 1
            ),
            OutageScheduleError::Overlap { index } => write!(
                f,
                "outage window {index} starts before window {} recovers: merge \
                 overlapping windows for the same host",
                index - 1
            ),
        }
    }
}

impl std::error::Error for OutageScheduleError {}

/// Validates one host's outage schedule (mirroring
/// [`HealthConfig::validated`]): every window non-empty, sorted by
/// `fails_at`, and non-overlapping. A permanent outage
/// (`recovers_at: None`) must be the last window.
pub fn validate_outage_schedule(schedule: &[Outage]) -> Result<(), OutageScheduleError> {
    for (index, o) in schedule.iter().enumerate() {
        if let Some(r) = o.recovers_at {
            if r <= o.fails_at {
                return Err(OutageScheduleError::EmptyWindow {
                    index,
                    fails_at: o.fails_at,
                    recovers_at: r,
                });
            }
        }
        if index > 0 {
            let prev = &schedule[index - 1];
            if o.fails_at < prev.fails_at {
                return Err(OutageScheduleError::Unsorted { index });
            }
            match prev.recovers_at {
                None => return Err(OutageScheduleError::Overlap { index }),
                Some(r) if o.fails_at < r => {
                    return Err(OutageScheduleError::Overlap { index });
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}

/// Probe/ack accounting of one monitor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Heartbeat probes sent.
    pub heartbeats_sent: u64,
    /// Acks received.
    pub acks_received: u64,
    /// Probes that went unanswered.
    pub probes_missed: u64,
    /// Healthy/Suspect -> FailedOver transitions.
    pub failovers: u64,
    /// Probing -> Recovered (-> Healthy) transitions.
    pub failbacks: u64,
}

/// The per-VMhost health monitor.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    config: HealthConfig,
    /// The VMhost index, stamped into each probe's `DeviceId::client`.
    host: u32,
    state: HealthState,
    misses: u32,
    ack_streak: u32,
    /// The next heartbeat instant (the grid starts one interval in, so a
    /// simulation that never advances sends no probes).
    next_beat: SimTime,
    seq: u64,
    /// Every state change, in order: `(when, new_state)`. `Recovered` and
    /// the `Healthy` that supersedes it share a timestamp.
    pub transitions: Vec<(SimTime, HealthState)>,
    /// Probe/ack accounting.
    pub stats: HealthStats,
}

impl HealthMonitor {
    /// Creates a monitor for VMhost `host` (already `Healthy`, no probes
    /// sent yet).
    pub fn new(host: u32, config: HealthConfig) -> Self {
        HealthMonitor {
            config,
            host,
            state: HealthState::Healthy,
            misses: 0,
            ack_streak: 0,
            next_beat: SimTime::ZERO + config.interval,
            seq: 0,
            transitions: Vec::new(),
            stats: HealthStats::default(),
        }
    }

    /// The current state (as of the last [`Self::advance_to`]).
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Whether net traffic should currently ride the local fallback.
    pub fn routes_via_fallback(&self) -> bool {
        self.state.routes_via_fallback()
    }

    /// Replays every heartbeat exchange up to and including `now` against
    /// the outage schedule. Idempotent: re-advancing to the same instant
    /// is a no-op, and time never runs backwards.
    pub fn advance_to(&mut self, now: SimTime, outages: &[Outage]) {
        while self.next_beat <= now {
            let t = self.next_beat;
            self.next_beat += self.config.interval;
            self.seq += 1;
            // The probe is a real protocol message: encode it, put it "on
            // the wire", and decode what the IOhost would see.
            let probe = VrioMsg::new(
                VrioMsgKind::Heartbeat,
                DeviceId {
                    client: self.host,
                    device: 0,
                },
                self.seq,
                Bytes::new(),
            );
            let probe = VrioMsg::decode(probe.encode()).expect("own heartbeat reparses");
            debug_assert_eq!(probe.hdr.kind, VrioMsgKind::Heartbeat);
            self.stats.heartbeats_sent += 1;

            // A live IOhost echoes the sequence number back; a crashed one
            // blackholes the probe.
            let up = !outages.iter().any(|o| o.covers(t));
            let ack = up.then(|| {
                let ack = VrioMsg::new(
                    VrioMsgKind::HeartbeatAck,
                    probe.hdr.device,
                    probe.hdr.request_id,
                    Bytes::new(),
                );
                VrioMsg::decode(ack.encode()).expect("own ack reparses")
            });
            match ack {
                Some(a)
                    if a.hdr.kind == VrioMsgKind::HeartbeatAck && a.hdr.request_id == self.seq =>
                {
                    self.on_ack(t)
                }
                _ => self.on_miss(t),
            }
        }
    }

    fn set_state(&mut self, t: SimTime, s: HealthState) {
        if self.state != s {
            self.state = s;
            self.transitions.push((t, s));
        }
    }

    fn on_ack(&mut self, t: SimTime) {
        self.stats.acks_received += 1;
        self.misses = 0;
        match self.state {
            HealthState::Healthy => {}
            // A lone drop, not a crash: the suspicion was unfounded.
            HealthState::Suspect => self.set_state(t, HealthState::Healthy),
            HealthState::FailedOver => {
                self.ack_streak = 1;
                if self.config.recovery_acks == 1 {
                    self.complete_failback(t);
                } else {
                    self.set_state(t, HealthState::Probing);
                }
            }
            HealthState::Probing => {
                self.ack_streak += 1;
                if self.ack_streak >= self.config.recovery_acks {
                    self.complete_failback(t);
                }
            }
            HealthState::Recovered => unreachable!("Recovered never persists"),
        }
    }

    fn complete_failback(&mut self, t: SimTime) {
        self.set_state(t, HealthState::Recovered);
        self.set_state(t, HealthState::Healthy);
        self.stats.failbacks += 1;
        self.ack_streak = 0;
    }

    fn on_miss(&mut self, t: SimTime) {
        self.stats.probes_missed += 1;
        self.ack_streak = 0;
        self.misses += 1;
        match self.state {
            HealthState::Healthy | HealthState::Suspect => {
                if self.misses >= self.config.failover_misses {
                    self.set_state(t, HealthState::FailedOver);
                    self.stats.failovers += 1;
                } else {
                    self.set_state(t, HealthState::Suspect);
                }
            }
            HealthState::FailedOver => {}
            // A recovery attempt that stalls goes back to failed-over.
            HealthState::Probing => {
                self.set_state(t, HealthState::FailedOver);
                self.stats.failovers += 1;
            }
            HealthState::Recovered => unreachable!("Recovered never persists"),
        }
    }
}

/// Where a VMhost's remote I/O currently routes: one of its configured
/// IOhosts, or the local-virtio fallback of last resort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// IOhost `k` in the VMhost's preference order (0 = primary).
    Remote(usize),
    /// Every configured IOhost is down: local virtio.
    Local,
}

impl std::fmt::Display for Route {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Route::Remote(k) => write!(f, "iohost{k}"),
            Route::Local => f.write_str("local"),
        }
    }
}

/// N+1 redundancy: one [`HealthMonitor`] per IOhost in a VMhost's ordered
/// preference list, folded into a single [`Route`] — the first target
/// whose monitor is not failed over, or [`Route::Local`] when all are.
///
/// All monitors share one heartbeat grid, and the fold re-evaluates the
/// route after each beat, so failover walks primary → backup(s) → local
/// and failback retraces the ladder in reverse as targets recover,
/// deterministically and independent of how callers slice `advance_to`.
#[derive(Debug, Clone)]
pub struct RedundancyMonitor {
    monitors: Vec<HealthMonitor>,
    current: Route,
    /// Every route change, in order: `(when, new_route)`. The initial
    /// `Remote(0)` is implicit.
    pub route_log: Vec<(SimTime, Route)>,
}

impl RedundancyMonitor {
    /// Creates a ladder of `targets` monitors for VMhost `host`, all with
    /// the same `config`, initially routing via the primary (target 0).
    ///
    /// # Panics
    ///
    /// Panics when `targets == 0` — a VMhost must list at least one
    /// IOhost.
    pub fn new(host: u32, config: HealthConfig, targets: usize) -> Self {
        assert!(targets > 0, "a VMhost needs at least one IOhost target");
        RedundancyMonitor {
            monitors: (0..targets)
                .map(|_| HealthMonitor::new(host, config))
                .collect(),
            current: Route::Remote(0),
            route_log: Vec::new(),
        }
    }

    /// The monitor for the primary IOhost (target 0).
    pub fn primary(&self) -> &HealthMonitor {
        &self.monitors[0]
    }

    /// The monitor for target `k` in preference order.
    pub fn target(&self, k: usize) -> &HealthMonitor {
        &self.monitors[k]
    }

    /// All per-target monitors, in preference order.
    pub fn targets(&self) -> &[HealthMonitor] {
        &self.monitors
    }

    /// The route as of the last [`Self::advance_to`].
    pub fn route(&self) -> Route {
        self.current
    }

    /// Advances every per-target monitor through the shared heartbeat
    /// grid up to `now`, re-evaluating the route after each beat.
    /// `schedules[k]` is target `k`'s outage schedule (missing entries
    /// mean "never down"). Idempotent, like [`HealthMonitor::advance_to`].
    pub fn advance_to(&mut self, now: SimTime, schedules: &[Vec<Outage>]) {
        loop {
            // All monitors share the grid, but step beat-by-beat so the
            // route log lands each change on the exact probing instant.
            let Some(beat) = self.monitors.iter().map(|m| m.next_beat).min() else {
                return;
            };
            if beat > now {
                return;
            }
            static NO_OUTAGES: &[Outage] = &[];
            for (k, m) in self.monitors.iter_mut().enumerate() {
                let sched = schedules.get(k).map_or(NO_OUTAGES, |s| s.as_slice());
                m.advance_to(beat, sched);
            }
            let route = self
                .monitors
                .iter()
                .position(|m| !m.routes_via_fallback())
                .map_or(Route::Local, Route::Remote);
            if route != self.current {
                self.current = route;
                self.route_log.push((beat, route));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::millis(v)
    }

    fn outage(fail_ms: u64, recover_ms: Option<u64>) -> Outage {
        Outage {
            fails_at: ms(fail_ms),
            recovers_at: recover_ms.map(ms),
        }
    }

    #[test]
    fn stays_healthy_without_outages() {
        let mut m = HealthMonitor::new(0, HealthConfig::default());
        m.advance_to(ms(5), &[]);
        assert_eq!(m.state(), HealthState::Healthy);
        assert!(m.transitions.is_empty());
        assert_eq!(m.stats.heartbeats_sent, 20); // 5ms / 250us
        assert_eq!(m.stats.acks_received, 20);
        assert_eq!(m.stats.probes_missed, 0);
    }

    #[test]
    fn full_lifecycle_crash_and_recover() {
        let cfg = HealthConfig::default();
        let mut m = HealthMonitor::new(0, cfg);
        let sched = [outage(10, Some(30))];

        // Pre-crash: healthy.
        m.advance_to(ms(9), &sched);
        assert_eq!(m.state(), HealthState::Healthy);

        // The beat at t=10ms lands exactly on the crash: miss #1.
        m.advance_to(ms(10), &sched);
        assert_eq!(m.state(), HealthState::Suspect);

        // One more beat: failover. Detection 500us after the crash.
        m.advance_to(ms(10) + SimDuration::micros(250), &sched);
        assert_eq!(m.state(), HealthState::FailedOver);
        assert_eq!(m.stats.failovers, 1);

        // Down the whole outage.
        m.advance_to(ms(29), &sched);
        assert_eq!(m.state(), HealthState::FailedOver);

        // First beat at/after recovery (t=30ms) acks: probing.
        m.advance_to(ms(30), &sched);
        assert_eq!(m.state(), HealthState::Probing);
        assert!(m.routes_via_fallback(), "probing still rides the fallback");

        // Second ack completes failback.
        m.advance_to(ms(30) + SimDuration::micros(250), &sched);
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.stats.failbacks, 1);

        // The transition log tells the whole story, Recovered included.
        let states: Vec<HealthState> = m.transitions.iter().map(|&(_, s)| s).collect();
        assert_eq!(
            states,
            [
                HealthState::Suspect,
                HealthState::FailedOver,
                HealthState::Probing,
                HealthState::Recovered,
                HealthState::Healthy,
            ]
        );
        // Recovered and the Healthy that supersedes it share a timestamp.
        let (t_rec, _) = m.transitions[3];
        let (t_heal, _) = m.transitions[4];
        assert_eq!(t_rec, t_heal);
    }

    #[test]
    fn single_miss_is_forgiven() {
        // An outage shorter than one beat period can eat at most one
        // probe: Suspect, then straight back to Healthy — never failover.
        let cfg = HealthConfig::default();
        let mut m = HealthMonitor::new(0, cfg);
        // Beat at 250us lands inside [240us, 260us): one miss.
        let sched = [Outage {
            fails_at: SimTime::ZERO + SimDuration::micros(240),
            recovers_at: Some(SimTime::ZERO + SimDuration::micros(260)),
        }];
        m.advance_to(ms(2), &sched);
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.stats.failovers, 0);
        let states: Vec<HealthState> = m.transitions.iter().map(|&(_, s)| s).collect();
        assert_eq!(states, [HealthState::Suspect, HealthState::Healthy]);
    }

    #[test]
    fn flapping_host_interrupts_probing() {
        // Recover long enough for exactly one ack, then crash again: the
        // monitor falls back from Probing to FailedOver, and only a stable
        // host completes failback.
        let cfg = HealthConfig::default();
        let mut m = HealthMonitor::new(0, cfg);
        let sched = [
            outage(1, Some(2)),
            // Second crash swallows the beat after the first post-recovery
            // ack (ack at 2.0ms, crash covers 2.25ms).
            Outage {
                fails_at: ms(2) + SimDuration::micros(100),
                recovers_at: Some(ms(4)),
            },
        ];
        m.advance_to(ms(2), &sched);
        assert_eq!(m.state(), HealthState::Probing);
        m.advance_to(ms(2) + SimDuration::micros(250), &sched);
        assert_eq!(m.state(), HealthState::FailedOver);
        m.advance_to(ms(5), &sched);
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.stats.failbacks, 1);
        assert_eq!(m.stats.failovers, 2);
    }

    #[test]
    fn permanent_outage_never_fails_back() {
        let mut m = HealthMonitor::new(3, HealthConfig::default());
        let sched = [outage(1, None)];
        m.advance_to(ms(50), &sched);
        assert_eq!(m.state(), HealthState::FailedOver);
        assert_eq!(m.stats.failbacks, 0);
    }

    #[test]
    fn advance_is_idempotent_and_deterministic() {
        let sched = [outage(10, Some(30))];
        let mut a = HealthMonitor::new(0, HealthConfig::default());
        let mut b = HealthMonitor::new(0, HealthConfig::default());
        // a advances in one leap, b in many small steps with repeats.
        a.advance_to(ms(40), &sched);
        for step in 0..400 {
            let t = SimTime::ZERO + SimDuration::micros(100) * (step as u64 + 1);
            b.advance_to(t, &sched);
            b.advance_to(t, &sched); // repeat: no double-counted beats
        }
        assert_eq!(a.state(), b.state());
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn config_validation_rejects_each_bad_knob() {
        assert!(HealthConfig::default().validated().is_ok());
        let z = HealthConfig {
            interval: SimDuration::ZERO,
            ..HealthConfig::default()
        };
        assert_eq!(z.validated(), Err(HealthConfigError::ZeroInterval));
        let z = HealthConfig {
            failover_misses: 0,
            ..HealthConfig::default()
        };
        assert_eq!(z.validated(), Err(HealthConfigError::ZeroFailoverMisses));
        let z = HealthConfig {
            recovery_acks: 0,
            ..HealthConfig::default()
        };
        assert_eq!(z.validated(), Err(HealthConfigError::ZeroRecoveryAcks));
        // The errors render.
        assert!(HealthConfigError::ZeroInterval
            .to_string()
            .contains("interval"));
    }

    #[test]
    fn outage_starting_at_time_zero() {
        // A crash at t=0 precedes even the first beat: the monitor's very
        // first probes are misses and failover completes on the grid.
        let mut m = HealthMonitor::new(0, HealthConfig::default());
        let sched = [Outage {
            fails_at: SimTime::ZERO,
            recovers_at: Some(ms(2)),
        }];
        m.advance_to(ms(5), &sched);
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.stats.failovers, 1);
        assert_eq!(m.stats.failbacks, 1);
        // Suspect on the first beat (250us), FailedOver on the second.
        assert_eq!(
            m.transitions[0],
            (
                SimTime::ZERO + SimDuration::micros(250),
                HealthState::Suspect
            )
        );
        assert_eq!(
            m.transitions[1],
            (
                SimTime::ZERO + SimDuration::micros(500),
                HealthState::FailedOver
            )
        );
    }

    #[test]
    fn back_to_back_outages_shorter_than_recovery_streak() {
        // Adjacent windows [1,2) + [2,3) leave zero recovery gap: no ack
        // ever lands between them, so the pair behaves exactly like one
        // outage [1,3) — a single failover episode, no Probing detour.
        let mut m = HealthMonitor::new(0, HealthConfig::default());
        let sched = [outage(1, Some(2)), outage(2, Some(3))];
        validate_outage_schedule(&sched).expect("adjacent windows are legal");
        m.advance_to(ms(6), &sched);
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.stats.failovers, 1);
        assert_eq!(m.stats.failbacks, 1);

        // A one-beat recovery gap ([1,2) + [2.25,4)) yields exactly one
        // ack — fewer than recovery_acks=2 — so Probing relapses to
        // FailedOver and failback waits for the second window to close.
        let mut m = HealthMonitor::new(0, HealthConfig::default());
        let sched = [
            outage(1, Some(2)),
            Outage {
                fails_at: ms(2) + SimDuration::micros(250),
                recovers_at: Some(ms(4)),
            },
        ];
        validate_outage_schedule(&sched).expect("gap of one beat is legal");
        m.advance_to(ms(2), &sched);
        assert_eq!(m.state(), HealthState::Probing);
        m.advance_to(ms(6), &sched);
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.stats.failovers, 2, "the stalled probe re-fails-over");
        assert_eq!(m.stats.failbacks, 1, "only the stable recovery counts");
    }

    #[test]
    fn schedule_validation_accepts_sane_schedules() {
        assert_eq!(validate_outage_schedule(&[]), Ok(()));
        assert_eq!(validate_outage_schedule(&[outage(1, None)]), Ok(()));
        assert_eq!(
            validate_outage_schedule(&[outage(1, Some(2)), outage(2, Some(3)), outage(5, None)]),
            Ok(())
        );
    }

    #[test]
    fn schedule_validation_rejects_each_malformation() {
        // Empty window: recovers_at == fails_at.
        let err = validate_outage_schedule(&[outage(5, Some(5))]).unwrap_err();
        assert!(matches!(
            err,
            OutageScheduleError::EmptyWindow { index: 0, .. }
        ));
        assert!(err.to_string().contains("strictly after"));
        // Inverted window.
        assert!(matches!(
            validate_outage_schedule(&[outage(5, Some(3))]),
            Err(OutageScheduleError::EmptyWindow { index: 0, .. })
        ));
        // Unsorted.
        let err =
            validate_outage_schedule(&[outage(10, Some(20)), outage(1, Some(2))]).unwrap_err();
        assert_eq!(err, OutageScheduleError::Unsorted { index: 1 });
        assert!(err.to_string().contains("sort the schedule"));
        // Overlap.
        let err =
            validate_outage_schedule(&[outage(1, Some(10)), outage(5, Some(20))]).unwrap_err();
        assert_eq!(err, OutageScheduleError::Overlap { index: 1 });
        assert!(err.to_string().contains("merge overlapping"));
        // A permanent outage shadows everything after it.
        assert_eq!(
            validate_outage_schedule(&[outage(1, None), outage(50, Some(60))]),
            Err(OutageScheduleError::Overlap { index: 1 })
        );
    }

    #[test]
    fn redundancy_ladder_walks_down_and_back_up() {
        // Two IOhosts: the primary dies for [1,10)ms, the backup for
        // [3,6)ms. The route walks primary -> backup -> local and fails
        // back in reverse, each hop landing on a heartbeat instant.
        let mut r = RedundancyMonitor::new(0, HealthConfig::default(), 2);
        assert_eq!(r.route(), Route::Remote(0));
        let schedules = vec![vec![outage(1, Some(10))], vec![outage(3, Some(6))]];
        r.advance_to(ms(12), &schedules);
        assert_eq!(r.route(), Route::Remote(0));
        let us = |v: u64| SimTime::ZERO + SimDuration::micros(v);
        assert_eq!(
            r.route_log,
            [
                (us(1_250), Route::Remote(1)),  // detection: 2nd miss
                (us(3_250), Route::Local),      // backup dies too
                (us(6_250), Route::Remote(1)),  // backup recovers first
                (us(10_250), Route::Remote(0)), // failback to primary
            ]
        );
        assert_eq!(r.primary().stats.failovers, 1);
        assert_eq!(r.target(1).stats.failovers, 1);
        assert_eq!(r.primary().stats.failbacks, 1);
    }

    #[test]
    fn single_target_ladder_matches_plain_monitor() {
        let sched = vec![vec![outage(2, Some(7)), outage(9, Some(11))]];
        let mut plain = HealthMonitor::new(4, HealthConfig::default());
        let mut ladder = RedundancyMonitor::new(4, HealthConfig::default(), 1);
        for step in 1..=60 {
            let t = SimTime::ZERO + SimDuration::micros(300) * step;
            plain.advance_to(t, &sched[0]);
            ladder.advance_to(t, &sched);
            assert_eq!(
                ladder.route() == Route::Local,
                plain.routes_via_fallback(),
                "route must mirror the single monitor at {t:?}"
            );
        }
        assert_eq!(plain.transitions, ladder.primary().transitions);
        assert_eq!(plain.stats, ladder.primary().stats);
    }

    #[test]
    fn ladder_advance_is_idempotent_under_slicing() {
        let schedules = vec![
            vec![outage(1, Some(4))],
            vec![outage(2, Some(3)), outage(5, Some(6))],
        ];
        let mut leap = RedundancyMonitor::new(0, HealthConfig::default(), 2);
        leap.advance_to(ms(8), &schedules);
        let mut sliced = RedundancyMonitor::new(0, HealthConfig::default(), 2);
        for step in 1..=80 {
            let t = SimTime::ZERO + SimDuration::micros(100) * step;
            sliced.advance_to(t, &schedules);
            sliced.advance_to(t, &schedules);
        }
        assert_eq!(leap.route(), sliced.route());
        assert_eq!(leap.route_log, sliced.route_log);
        for k in 0..2 {
            assert_eq!(leap.target(k).transitions, sliced.target(k).transitions);
            assert_eq!(leap.target(k).stats, sliced.target(k).stats);
        }
    }

    #[test]
    fn outage_interval_semantics() {
        let o = outage(10, Some(30));
        assert!(!o.covers(ms(9)));
        assert!(o.covers(ms(10)));
        assert!(o.covers(ms(29)));
        assert!(!o.covers(ms(30))); // half-open: recovered at the instant
        let forever = outage(10, None);
        assert!(forever.covers(ms(1_000_000)));
    }
}
