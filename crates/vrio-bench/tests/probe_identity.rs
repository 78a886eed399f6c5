//! Engine-probe bit-identity: the per-event observation probe is a plain
//! `fn(&mut W, SimTime)` invoked between an event's pop and its firing,
//! outside the heap, so wiring an observer into the engine (the oracle
//! does this via `Engine::set_probe`) must not change a single simulated
//! bit — under every I/O model. This is the regression gate for the
//! hot-path memory work: recycling event storage must never give the
//! probe a way to perturb firing order or RNG streams.

use vrio::{OracleConfig, TestbedConfig};
use vrio_hv::IoModel;
use vrio_sim::SimDuration;
use vrio_workloads::netperf_rr_sized;

const WINDOW: SimDuration = SimDuration::millis(6);

#[test]
fn engine_probe_is_bit_identical_across_all_models() {
    for model in IoModel::ALL {
        let plain = netperf_rr_sized(TestbedConfig::simple(model, 2), WINDOW, 64);
        let mut probed_cfg = TestbedConfig::simple(model, 2);
        probed_cfg.oracle = OracleConfig::on(); // installs the engine probe
        let probed = netperf_rr_sized(probed_cfg, WINDOW, 64);

        assert_eq!(
            plain.mean_latency_us.to_bits(),
            probed.mean_latency_us.to_bits(),
            "{model}: enabling the engine probe changed the mean latency"
        );
        assert_eq!(
            plain.requests_per_sec.to_bits(),
            probed.requests_per_sec.to_bits(),
            "{model}: enabling the engine probe changed the throughput"
        );
        assert_eq!(
            plain.completed, probed.completed,
            "{model}: enabling the engine probe changed the completion count"
        );
        assert_eq!(
            plain.counters, probed.counters,
            "{model}: enabling the engine probe changed the Table 3 counters"
        );
        // The probe really ran: the oracle observed every event firing.
        assert!(
            probed.oracle.checks() > 0,
            "{model}: the probe-side oracle observed nothing"
        );
        probed.oracle.assert_clean(model.name());
    }
}
