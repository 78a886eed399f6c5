//! Property tests for the adaptive worker-poll state machine: mode
//! transitions are a deterministic function of event times, a larger poll
//! budget never increases the doorbell count, and exporting the poll mode
//! through telemetry is observe-only (bit-identical outcomes on/off).

use bytes::Bytes;
use proptest::prelude::*;
use vrio::{
    net_request_response, AdaptivePollConfig, HasTestbed, PollMode, RrOutcome, Testbed,
    TestbedConfig, WorkerPoll,
};
use vrio_hv::IoModel;
use vrio_sim::{Engine, SimDuration, SimTime};
use vrio_trace::TelemetryConfig;

/// Replays a gap-encoded arrival schedule through one worker, returning
/// `(doorbells, to_polling, to_interrupt, polled_arrivals)`.
fn replay(gaps: &[u64], window_ns: u64) -> (u64, u64, u64, u64) {
    let mut p = WorkerPoll::new(AdaptivePollConfig::windowed(SimDuration::nanos(window_ns)));
    let mut now = 0u64;
    for &g in gaps {
        now += g;
        p.on_arrival(SimTime::from_nanos(now));
    }
    (p.doorbells, p.to_polling, p.to_interrupt, p.polled_arrivals)
}

proptest! {
    /// The state machine is pure: the same schedule under the same window
    /// yields the same transition and doorbell counts, replay after replay.
    #[test]
    fn transitions_are_deterministic_per_schedule(
        gaps in proptest::collection::vec(0u64..200_000, 1..200),
        window in 1u64..100_000,
    ) {
        prop_assert_eq!(replay(&gaps, window), replay(&gaps, window));
    }

    /// Arrival conservation: every arrival either rings a doorbell or is
    /// absorbed while polling, and each doorbell is an interrupt→polling
    /// transition.
    #[test]
    fn every_arrival_is_doorbell_or_polled(
        gaps in proptest::collection::vec(0u64..200_000, 1..200),
        window in 1u64..100_000,
    ) {
        let (doorbells, to_polling, _, polled) = replay(&gaps, window);
        prop_assert_eq!(doorbells + polled, gaps.len() as u64);
        prop_assert_eq!(doorbells, to_polling);
    }

    /// Poll-budget monotonicity: a larger window never increases the
    /// doorbell count (the set of idle gaps exceeding the window can only
    /// shrink), and even the smallest window never beats the disabled
    /// worker, which rings on every arrival.
    #[test]
    fn larger_budget_never_increases_doorbells(
        gaps in proptest::collection::vec(0u64..200_000, 1..200),
        window in 1u64..100_000,
        extra in 0u64..200_000,
    ) {
        let (small, ..) = replay(&gaps, window);
        let (large, ..) = replay(&gaps, window + extra);
        prop_assert!(
            large <= small,
            "window {window} rang {small} but window {} rang {large}",
            window + extra
        );
        let mut off = WorkerPoll::new(AdaptivePollConfig::disabled());
        let mut now = 0u64;
        for &g in &gaps {
            now += g;
            prop_assert!(off.on_arrival(SimTime::from_nanos(now)));
        }
        prop_assert_eq!(off.doorbells, gaps.len() as u64);
        prop_assert!(small <= off.doorbells);
        prop_assert_eq!(off.mode(), PollMode::Interrupt);
    }
}

/// Chained request-responses on two VMs, with their latencies.
struct Chains {
    tb: Testbed,
    telemetry: bool,
    /// Per VM: the requests still to issue after the one in flight.
    left: [usize; 2],
    latencies: Vec<u64>,
}

impl Chains {
    /// Issues VM `vm`'s next request.
    fn issue(&mut self, eng: &mut Engine<Chains>, vm: usize) {
        let req = Bytes::from_static(b"poll-props");
        net_request_response(self, eng, vm, req, 64, SimDuration::micros(7), vm as u64);
    }
}

impl HasTestbed for Chains {
    fn tb(&mut self) -> &mut Testbed {
        &mut self.tb
    }

    fn on_rr(&mut self, eng: &mut Engine<Self>, vm: u64, o: RrOutcome) {
        self.latencies.push(o.latency.as_nanos());
        if self.telemetry {
            self.tb.sample_telemetry(eng.now());
        }
        let left = &mut self.left[vm as usize];
        if *left > 0 {
            *left -= 1;
            self.issue(eng, vm as usize);
        }
    }
}

/// Runs `rounds` chained request-responses on each of two vRIO VMs and
/// returns every completion latency plus the Table-3 and poll counters.
/// When `telemetry` is set the run also samples the full telemetry surface
/// (including the per-worker poll-mode gauges) at every completion.
fn run_workload(telemetry: bool, seed: u64, rounds: usize) -> (Vec<u64>, u64, (u64, u64, u64)) {
    let mut cfg = TestbedConfig::simple(IoModel::Vrio, 2)
        .with_seed(seed)
        .with_adaptive_poll(AdaptivePollConfig::windowed(SimDuration::micros(20)));
    if telemetry {
        cfg = cfg.with_telemetry(TelemetryConfig::sampling(SimDuration::micros(100)));
    }
    let mut w = Chains {
        tb: Testbed::new(cfg),
        telemetry,
        left: [rounds; 2],
        latencies: Vec::new(),
    };
    let mut eng = Engine::new();
    for vm in 0..2 {
        w.issue(&mut eng, vm);
    }
    eng.run(&mut w);
    let tb = &w.tb;

    let (mut doorbells, mut polled, mut transitions) = (0, 0, 0);
    for wp in &tb.worker_poll {
        doorbells += wp.doorbells;
        polled += wp.polled_arrivals;
        transitions += wp.to_polling + wp.to_interrupt;
    }
    let mut lats = w.latencies.clone();
    lats.sort_unstable();
    (lats, tb.counters.sum(), (doorbells, polled, transitions))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End to end: the adaptive-poll counters are a deterministic function
    /// of the seed, and sampling the poll-mode gauges through telemetry
    /// changes neither the latencies nor any counter.
    #[test]
    fn workload_deterministic_and_telemetry_observe_only(seed in 1u64..1_000) {
        let base = run_workload(false, seed, 20);
        let again = run_workload(false, seed, 20);
        prop_assert_eq!(&base, &again, "same seed must replay bit-identically");
        let sampled = run_workload(true, seed, 20);
        prop_assert_eq!(&base, &sampled, "telemetry must be observe-only");
    }
}

#[test]
fn adaptive_poll_batches_doorbells_under_load() {
    let (_, _, (doorbells, polled, _)) = run_workload(false, 1, 200);
    assert!(
        polled > 0,
        "a back-to-back request stream must absorb arrivals while polling"
    );
    assert!(
        doorbells < polled,
        "under sustained load most arrivals should be absorbed: \
         {doorbells} doorbells vs {polled} polled"
    );
}
