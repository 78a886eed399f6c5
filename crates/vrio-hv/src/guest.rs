//! The guest CPU: a single VCPU serializing thread bursts, with context-
//! switch accounting.
//!
//! The paper's counterintuitive Filebench result (Fig 14 — Elvis *losing*
//! to vRIO at two reader/writer pairs) hinges on guest scheduling: with a
//! low-latency local device, completions arrive while another thread is
//! mid-burst, forcing involuntary context switches "two orders of magnitude"
//! more often than under vRIO, whose longer I/O latency lets the running
//! thread finish and the VCPU go idle before the wakeup lands. [`GuestCpu`]
//! reproduces exactly that mechanism.

use vrio_sim::{BusyTracker, SimDuration, SimTime};

use crate::costs::CostModel;

/// One virtual CPU with switch accounting.
///
/// # Examples
///
/// ```
/// use vrio_hv::{CostModel, GuestCpu};
/// use vrio_sim::{SimDuration, SimTime};
///
/// let costs = CostModel::calibrated();
/// let mut cpu = GuestCpu::new();
///
/// // Thread A runs a burst.
/// let t0 = SimTime::ZERO;
/// let a_done = cpu.run(t0, SimDuration::micros(30));
///
/// // A completion wakes thread B while A is still running: involuntary.
/// let (b_start, involuntary) = cpu.wake(SimTime::from_nanos(10_000), &costs);
/// assert!(involuntary);
/// assert!(b_start >= a_done); // B waits for the VCPU
/// assert_eq!(cpu.involuntary_switches(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GuestCpu {
    busy: BusyTracker,
    involuntary: u64,
    voluntary: u64,
}

impl GuestCpu {
    /// Creates an idle VCPU.
    pub fn new() -> Self {
        GuestCpu::default()
    }

    /// Creates an idle VCPU that keeps no log of its busy intervals:
    /// [`GuestCpu::busy_intervals`] stays empty.
    pub fn totals_only() -> Self {
        GuestCpu {
            busy: BusyTracker::totals_only(),
            ..GuestCpu::default()
        }
    }

    /// Runs a CPU burst starting no earlier than `at`; bursts serialize on
    /// the single VCPU. Returns the completion instant.
    pub fn run(&mut self, at: SimTime, burst: SimDuration) -> SimTime {
        self.busy.charge(at, burst)
    }

    /// A completion wakes a blocked thread at `at`. If the VCPU is busy the
    /// wakeup preempts the running thread (involuntary switch, expensive);
    /// if idle, it is a cheap voluntary wakeup. Returns when the woken
    /// thread may start running and whether the switch was involuntary.
    pub fn wake(&mut self, at: SimTime, costs: &CostModel) -> (SimTime, bool) {
        let involuntary = self.busy.is_busy_at(at);
        let cost = if involuntary {
            self.involuntary += 1;
            costs.context_switch_involuntary
        } else {
            self.voluntary += 1;
            costs.context_switch_voluntary
        };
        let ready = self.busy.charge(at, cost);
        (ready, involuntary)
    }

    /// A completion wakes a blocked thread *without preempting*: the
    /// wakeup is processed at the VCPU's next natural yield point (NAPI-
    /// style batched completion handling, as vRIO's transport does).
    /// Always a voluntary switch. Returns when the thread may run.
    pub fn wake_deferred(&mut self, at: SimTime, costs: &CostModel) -> SimTime {
        self.voluntary += 1;
        // charge() already defers to free_at, so no preemption occurs.
        self.busy.charge(at, costs.context_switch_voluntary)
    }

    /// The instant the VCPU next goes idle.
    pub fn free_at(&self) -> SimTime {
        self.busy.free_at()
    }

    /// Whether the VCPU is executing at `t`.
    pub fn is_busy_at(&self, t: SimTime) -> bool {
        self.busy.is_busy_at(t)
    }

    /// Involuntary (preemption) switches so far.
    pub fn involuntary_switches(&self) -> u64 {
        self.involuntary
    }

    /// Voluntary (idle wakeup) switches so far.
    pub fn voluntary_switches(&self) -> u64 {
        self.voluntary
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> SimDuration {
        self.busy.busy()
    }

    /// The VCPU's completed busy intervals `(start, end)`, for replay as a
    /// per-vCPU "thread" track in Chrome-trace exports.
    pub fn busy_intervals(&self) -> &[(SimTime, SimTime)] {
        self.busy.intervals()
    }

    /// Utilization over `[0, horizon)`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.busy.utilization(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_serialize() {
        let mut cpu = GuestCpu::new();
        let e1 = cpu.run(SimTime::ZERO, SimDuration::micros(10));
        let e2 = cpu.run(SimTime::from_nanos(2_000), SimDuration::micros(10));
        assert_eq!(e1, SimTime::from_nanos(10_000));
        assert_eq!(e2, SimTime::from_nanos(20_000));
        assert_eq!(cpu.busy_time(), SimDuration::micros(20));
    }

    #[test]
    fn wake_on_idle_is_voluntary_and_cheap() {
        let costs = CostModel::calibrated();
        let mut cpu = GuestCpu::new();
        cpu.run(SimTime::ZERO, SimDuration::micros(5));
        // Wake long after the burst finished.
        let (ready, inv) = cpu.wake(SimTime::from_nanos(50_000), &costs);
        assert!(!inv);
        assert_eq!(cpu.voluntary_switches(), 1);
        assert_eq!(
            ready,
            SimTime::from_nanos(50_000) + costs.context_switch_voluntary
        );
    }

    #[test]
    fn wake_while_busy_is_involuntary_and_expensive() {
        let costs = CostModel::calibrated();
        let mut cpu = GuestCpu::new();
        cpu.run(SimTime::ZERO, SimDuration::micros(50));
        let (ready, inv) = cpu.wake(SimTime::from_nanos(10_000), &costs);
        assert!(inv);
        // The woken thread waits for the running burst plus the switch.
        assert_eq!(
            ready,
            SimTime::from_nanos(50_000) + costs.context_switch_involuntary
        );
    }

    #[test]
    fn switch_rates_diverge_with_latency() {
        // The Fig 14 mechanism in miniature: completions arriving every
        // 15us against 30us bursts preempt constantly; completions every
        // 45us almost never do.
        let costs = CostModel::calibrated();
        let run_experiment = |latency_us: u64| {
            let mut cpu = GuestCpu::new();
            let mut t = SimTime::ZERO;
            for _ in 0..100 {
                let end = cpu.run(t, SimDuration::micros(30));
                // Completion of the *other* thread's I/O arrives
                // latency_us after this burst started.
                let arrival = t + SimDuration::micros(latency_us);
                cpu.wake(arrival, &costs);
                t = end.max(arrival);
            }
            cpu.involuntary_switches()
        };
        let fast_device = run_experiment(15); // Elvis-like local ramdisk
        let slow_device = run_experiment(45); // vRIO-like remote ramdisk
        assert!(
            fast_device > 90,
            "fast device should preempt: {fast_device}"
        );
        assert_eq!(slow_device, 0, "slow device should never preempt");
    }
}
