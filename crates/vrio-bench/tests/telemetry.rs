//! Telemetry bit-identity and SLO-ledger properties: enabling the
//! continuous time-series sampler must not change a single simulated bit —
//! under every I/O model and under Gilbert–Elliott fault injection — and
//! the always-on per-tenant ledger must conserve (every offered request
//! has exactly one fate). Chaos- and sweep-level byte-identity lives with
//! those engines' own tests; this suite works at the workload layer.

use vrio::TestbedConfig;
use vrio_hv::IoModel;
use vrio_net::{FaultConfig, GeConfig};
use vrio_sim::SimDuration;
use vrio_trace::{DropCause, TelemetryConfig};
use vrio_workloads::{netperf_rr_sized, netperf_stream_sized};

const WINDOW: SimDuration = SimDuration::millis(6);

fn sampling() -> TelemetryConfig {
    TelemetryConfig::sampling(SimDuration::micros(50))
}

#[test]
fn sampler_is_bit_identical_across_all_models() {
    for model in IoModel::ALL {
        let plain = netperf_rr_sized(TestbedConfig::simple(model, 2), WINDOW, 64);
        let sampled = netperf_rr_sized(
            TestbedConfig::simple(model, 2).with_telemetry(sampling()),
            WINDOW,
            64,
        );
        assert_eq!(
            plain.mean_latency_us.to_bits(),
            sampled.mean_latency_us.to_bits(),
            "{model}: telemetry changed the mean latency"
        );
        assert_eq!(
            plain.requests_per_sec.to_bits(),
            sampled.requests_per_sec.to_bits(),
            "{model}: telemetry changed the throughput"
        );
        assert_eq!(plain.completed, sampled.completed, "{model}");
        assert!(plain.telemetry.tracks.is_empty(), "{model}");
        assert!(!sampled.telemetry.tracks.is_empty(), "{model}");
    }
}

#[test]
fn sampler_is_bit_identical_under_ge_faults_and_stream_load() {
    let mut base = TestbedConfig::simple(IoModel::Vrio, 2);
    base.faults = FaultConfig {
        ge: Some(GeConfig::bursty()),
        delay_spike_prob: 0.02,
        delay_spike: SimDuration::micros(50),
        ..FaultConfig::default()
    };
    let plain = netperf_rr_sized(base.clone(), WINDOW, 64);
    let sampled = netperf_rr_sized(base.clone().with_telemetry(sampling()), WINDOW, 64);
    assert_eq!(
        plain.mean_latency_us.to_bits(),
        sampled.mean_latency_us.to_bits(),
        "telemetry changed RR latency under a loss storm"
    );
    assert_eq!(plain.completed, sampled.completed);
    assert_eq!(
        plain.reliability.retransmissions, sampled.reliability.retransmissions,
        "telemetry perturbed the retransmission machinery"
    );
    // The storm actually ran, and the sampler watched it happen.
    assert!(plain.reliability.injected_losses > 0);
    let retx = sampled
        .telemetry
        .track("retx.outstanding")
        .expect("retransmission gauge sampled");
    assert!(!retx.values.is_empty());

    // Same property for the stream path (no reliability export there, so
    // the bit-identity check rides goodput and message counts).
    let plain_s = netperf_stream_sized(base.clone(), WINDOW, 256);
    let sampled_s = netperf_stream_sized(base.with_telemetry(sampling()), WINDOW, 256);
    assert_eq!(
        plain_s.gbps.to_bits(),
        sampled_s.gbps.to_bits(),
        "telemetry changed stream goodput under a loss storm"
    );
    assert_eq!(plain_s.messages, sampled_s.messages);
}

#[test]
fn sampled_tracks_cover_the_steering_and_ring_planes() {
    let r = netperf_rr_sized(
        TestbedConfig::simple(IoModel::Vrio, 2).with_telemetry(sampling()),
        WINDOW,
        64,
    );
    let ex = &r.telemetry;
    for name in [
        "steer.iohost0.worker0.depth",
        "backend.0.pending",
        "ring.vm0.net-tx.free",
        "ring.vm0.net-tx.inflight",
        "ring.vm1.net-rx.free",
        "health.vmhost0.route",
        "admission.iohost0.offered",
        "slo.vm0.completed",
    ] {
        let track = ex
            .track(name)
            .unwrap_or_else(|| panic!("track {name} missing"));
        assert!(!track.values.is_empty(), "{name} has no points");
        // Points land on the 50 µs grid the config asked for.
        for (t_ns, _) in track.points(&ex.times) {
            assert_eq!(t_ns % 50_000, 0, "{name} sampled off-grid at {t_ns}ns");
        }
    }
}

#[test]
fn slo_ledger_conserves_and_attributes_under_loss() {
    let mut c = TestbedConfig::simple(IoModel::Vrio, 2);
    c.channel_loss = 0.05;
    let r = netperf_rr_sized(c, WINDOW, 64);
    r.slo.check_conservation().unwrap();
    assert!(r.slo.total_offered() > 0);
    // Uniform channel loss lands under FaultLoss and nowhere else.
    assert!(r.slo.total_drops_of(DropCause::FaultLoss) > 0);
    for cause in [
        DropCause::Firewall,
        DropCause::Outage,
        DropCause::ShedQueue,
        DropCause::ShedFair,
        DropCause::ShedBreaker,
    ] {
        assert_eq!(r.slo.total_drops_of(cause), 0, "{:?}", cause);
    }
    // Per-tenant rows sum to the globals.
    let offered: u64 = r.slo.tenants().iter().map(|t| t.offered).sum();
    assert_eq!(offered, r.slo.total_offered());
    let dropped: u64 = r.slo.tenants().iter().map(|t| t.dropped()).sum();
    assert_eq!(dropped, r.slo.total_dropped());
}

#[test]
fn profiler_is_observe_only_too() {
    let plain = netperf_rr_sized(TestbedConfig::simple(IoModel::Vrio, 1), WINDOW, 64);
    let profiled = netperf_rr_sized(
        TestbedConfig::simple(IoModel::Vrio, 1).with_profile(true),
        WINDOW,
        64,
    );
    assert_eq!(
        plain.mean_latency_us.to_bits(),
        profiled.mean_latency_us.to_bits(),
        "profiling changed simulated results"
    );
    assert!(plain.profile.scopes.is_empty());
    let scopes: Vec<&str> = profiled.profile.scopes.iter().map(|s| s.name).collect();
    for required in ["engine.pop", "engine.push", "engine.callback"] {
        assert!(scopes.contains(&required), "missing scope {required}");
    }
}
