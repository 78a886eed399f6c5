//! Integration tests for the observability layer: tracing must be strictly
//! observe-only (bit-identical simulation results with the tracer on or
//! off), the per-stage latency breakdown must sum to the end-to-end mean,
//! and the Chrome trace export must be a well-formed event array.

use vrio::TestbedConfig;
use vrio_hv::IoModel;
use vrio_net::{FaultConfig, GeConfig};
use vrio_sim::SimDuration;
use vrio_trace::{render_chrome_trace, Json, RequestKind, Stage, TraceConfig};
use vrio_workloads::{netperf_rr, netperf_stream, run_filebench, Personality, RrResult};

fn rr_config(model: IoModel, trace: TraceConfig) -> TestbedConfig {
    let mut c = TestbedConfig::simple(model, 2);
    // Exercise the fault path too: fault draws come from a dedicated RNG
    // stream, so injected loss/duplication must also be trace-invariant.
    c.faults = FaultConfig {
        ge: Some(GeConfig {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.2,
            loss_good: 0.001,
            loss_bad: 0.3,
        }),
        delay_spike_prob: 0.01,
        delay_spike: SimDuration::micros(50),
        duplicate_prob: 0.01,
    };
    c.trace = trace;
    c
}

fn rr_pair(model: IoModel) -> (RrResult, RrResult) {
    let d = SimDuration::millis(30);
    let off = netperf_rr(rr_config(model, TraceConfig::off()), d);
    let on = netperf_rr(rr_config(model, TraceConfig::memory()), d);
    (off, on)
}

#[test]
fn tracing_is_observation_only_for_rr() {
    for model in IoModel::ALL {
        let (off, on) = rr_pair(model);
        assert!(!off.trace.enabled());
        assert!(on.trace.enabled());
        // Discrete state: exact equality.
        assert_eq!(off.completed, on.completed, "{model} completed");
        assert_eq!(off.counters, on.counters, "{model} event counters");
        assert_eq!(off.reliability, on.reliability, "{model} reliability");
        // Continuous state: bit-identical, not approximately equal.
        assert_eq!(
            off.mean_latency_us.to_bits(),
            on.mean_latency_us.to_bits(),
            "{model} mean latency"
        );
        assert_eq!(
            off.requests_per_sec.to_bits(),
            on.requests_per_sec.to_bits(),
            "{model} throughput"
        );
        for p in [50.0, 99.0, 99.9, 100.0] {
            assert_eq!(
                off.histogram.percentile(p).to_bits(),
                on.histogram.percentile(p).to_bits(),
                "{model} p{p}"
            );
        }
    }
}

#[test]
fn tracing_is_observation_only_for_stream_and_filebench() {
    let d = SimDuration::millis(20);
    for model in [IoModel::Vrio, IoModel::Elvis] {
        let mut off_c = TestbedConfig::simple(model, 2);
        let mut on_c = off_c.clone();
        on_c.trace = TraceConfig::memory();
        let off = netperf_stream(off_c.clone(), d);
        let on = netperf_stream(on_c.clone(), d);
        assert_eq!(off.messages, on.messages, "{model} stream messages");
        assert_eq!(off.gbps.to_bits(), on.gbps.to_bits(), "{model} gbps");

        off_c.trace = TraceConfig::off(); // same config objects, block path
        let fb_off = run_filebench(off_c, Personality::Varmail, d);
        let fb_on = run_filebench(on_c, Personality::Varmail, d);
        assert_eq!(
            fb_off.ops_per_sec.to_bits(),
            fb_on.ops_per_sec.to_bits(),
            "{model} filebench ops"
        );
        assert_eq!(
            fb_off.involuntary_switches, fb_on.involuntary_switches,
            "{model} involuntary switches"
        );
        assert_eq!(
            fb_off.reliability, fb_on.reliability,
            "{model} fb reliability"
        );
    }
}

#[test]
fn stage_breakdown_sums_to_end_to_end_mean() {
    for model in IoModel::ALL {
        let mut c = TestbedConfig::simple(model, 1);
        c.trace = TraceConfig::memory();
        let r = netperf_rr(c, SimDuration::millis(30));
        let bd = r.trace.breakdown();
        let kb = bd.kind(RequestKind::NetRr).expect("net_rr spans recorded");
        assert!(kb.completed > 100, "{model}: only {} spans", kb.completed);
        let mean = kb.total.mean();
        let sum = kb.stage_sum_us();
        assert!(
            (sum - mean).abs() <= 0.01 * mean,
            "{model}: stage sum {sum} vs mean {mean}"
        );
        // The span-derived mean matches the workload's own measurement to
        // within the warmup-boundary difference (spans cover all requests,
        // the histogram only the measured window).
        assert!(
            (mean - r.mean_latency_us).abs() / r.mean_latency_us < 0.2,
            "{model}: span mean {mean} vs measured {}",
            r.mean_latency_us
        );
    }
}

#[test]
fn chrome_export_is_a_valid_event_array() {
    let mut c = TestbedConfig::simple(IoModel::Vrio, 2);
    c.trace = TraceConfig::memory();
    let r = netperf_rr(c, SimDuration::millis(10));
    let text = render_chrome_trace(&[r.trace.export()]);
    let doc = Json::parse(&text).expect("chrome trace parses");
    let arr = doc.as_array().expect("top-level array");
    assert!(arr.len() > 100, "only {} events", arr.len());
    for ev in arr {
        for key in ["ph", "ts", "pid", "tid", "name"] {
            assert!(ev.get(key).is_some(), "event missing {key}: {ev:?}");
        }
    }
    // Thread metadata names the request, vcpu and backend tracks.
    let names: Vec<&str> = arr
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .filter_map(|e| e.get_path("args.name").and_then(Json::as_str))
        .collect();
    for expected in ["vm0 requests", "vm0 vcpu", "backend0", "vrio"] {
        assert!(
            names.contains(&expected),
            "missing track {expected}: {names:?}"
        );
    }
    // Request slices carry stage sub-slices.
    let has_stage = arr
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str) == Some(Stage::Backend.name()));
    assert!(has_stage, "no backend stage slices in the trace");
}
