//! The fork gate: a testbed and its engine are plain data, so a run
//! cloned at time T and run to the end in both copies must end exactly
//! where the run never forked ends — its oracle report, SLO ledger,
//! telemetry, trace, ring operations and reliability counters byte for
//! byte. Forks at several T, one of them with a block request's
//! retransmission timer armed, prove that no state of a run lives outside
//! its world and engine: a clone that shared an observer with its origin,
//! or reseeded an RNG, would end elsewhere.

use bytes::Bytes;
use vrio::{blk_request, net_request_response, OracleConfig, Testbed, TestbedConfig};
use vrio_block::{BlockRequest, RequestId};
use vrio_hv::{IoModel, ReliabilityCounters};
use vrio_net::{FaultConfig, GeConfig};
use vrio_sim::{Engine, SimDuration, SimTime};
use vrio_trace::{render_chrome_trace, TelemetryConfig, TraceConfig};

/// Requests issued, 7 µs apart.
const REQUESTS: u64 = 40;
/// The telemetry grid: one sample per interval through the horizon.
const INTERVAL: SimDuration = SimDuration::micros(5);
const HORIZON: SimTime = SimTime::from_nanos(2_000_000);

/// A 2-worker vRIO rack with every observer on, and every fault the
/// channel injects: bursty loss, delay spikes, duplicated responses.
fn config() -> TestbedConfig {
    let mut c = TestbedConfig::simple(IoModel::Vrio, 3);
    c.backend_cores = 2;
    c.oracle = OracleConfig::on();
    c.trace = TraceConfig::memory();
    c.telemetry = TelemetryConfig::sampling(INTERVAL);
    c.faults = FaultConfig {
        ge: Some(GeConfig {
            p_good_to_bad: 0.2,
            ..GeConfig::bursty()
        }),
        delay_spike_prob: 0.05,
        delay_spike: SimDuration::micros(40),
        duplicate_prob: 0.1,
    };
    c
}

/// Issues request `k`: an RR on VM `k % 3`, and a 4 KB block write (even
/// `k`) or a read of the previous write (odd `k`) on VM 0.
fn mixed(tb: &mut Testbed, eng: &mut Engine<Testbed>, k: u64) {
    let vm = (k % 3) as usize;
    let req = Bytes::from_static(b"sample me");
    net_request_response(tb, eng, vm, req, 64, SimDuration::micros(3), k);
    let id = RequestId(k + 1);
    let blk = if k.is_multiple_of(2) {
        BlockRequest::write(id, 8 * k, Bytes::from(vec![k as u8; 4096]))
    } else {
        BlockRequest::read(id, 8 * (k - 1), 4096)
    };
    blk_request(tb, eng, 0, blk, k);
}

fn sample(tb: &mut Testbed, eng: &mut Engine<Testbed>, _: u64) {
    tb.sample_telemetry(eng.now());
}

/// A fresh run, with its traffic, telemetry grid and oracle probe queued.
fn start() -> (Testbed, Engine<Testbed>) {
    let tb = Testbed::new(config());
    let mut eng = Engine::new();
    tb.install_probe(&mut eng);
    for k in 0..REQUESTS {
        eng.schedule_at(SimTime::ZERO + SimDuration::micros(7) * k, mixed, k);
    }
    eng.schedule_series(SimTime::ZERO + INTERVAL, INTERVAL, HORIZON, sample, 0);
    (tb, eng)
}

/// Runs to the end and renders everything the run produced, after its
/// reliability counters.
fn finish(mut tb: Testbed, mut eng: Engine<Testbed>) -> (ReliabilityCounters, Vec<String>) {
    eng.run(&mut tb);
    tb.export_thread_tracks();
    tb.oracle.finish();
    tb.oracle.audit_pool("skb pool", &tb.skb_pool);
    tb.oracle.assert_clean("fork gate");
    let outputs = vec![
        format!("{:?}", tb.oracle.report()),
        tb.slo.to_json().render_pretty(),
        tb.telemetry.export().to_json().render_pretty(),
        render_chrome_trace(&[tb.trace.export()]),
        format!("{:?}", tb.ring_ops()),
        format!("{} events, last at {}", eng.events_fired(), eng.now()),
    ];
    (tb.reliability_report(), outputs)
}

#[test]
fn a_forked_run_ends_byte_identical_to_the_unforked_run() {
    let (tb, eng) = start();
    let whole = finish(tb, eng);
    // The faults and the transport really ran.
    let rel = whole.0;
    assert!(
        rel.injected_losses > 0 && rel.retransmissions > 0,
        "{rel:?}"
    );
    assert!(
        rel.injected_delay_spikes > 0 && rel.injected_duplicates > 0,
        "{rel:?}"
    );

    let mut armed = 0;
    for us in [0, 40, 95, 150, 230, 310, 600] {
        let (mut tb, mut eng) = start();
        eng.run_until(&mut tb, SimTime::ZERO + SimDuration::micros(us));
        if tb.retx.iter().any(|r| r.outstanding() > 0) {
            armed += 1;
        }
        let (fork_tb, fork_eng) = (tb.clone(), eng.clone());
        assert_eq!(finish(tb, eng), whole, "the origin forked at {us} µs");
        assert_eq!(
            finish(fork_tb, fork_eng),
            whole,
            "the copy forked at {us} µs"
        );
    }
    assert!(armed > 0, "no fork had a retransmission timer armed");
}
