//! The instrumented observability pass: traced netperf RR runs across all
//! five I/O models, producing the machine-readable `BENCH_*.json` latency
//! breakdown and a Perfetto-loadable Chrome trace.
//!
//! Where the rest of this crate reproduces the paper's *numbers*, this
//! module reproduces its *accounting*: per-request lifecycle spans decompose
//! the end-to-end RR latency into stage components (guest enqueue → kick →
//! wire → worker pickup → backend → interrupt → completion), whose means sum
//! exactly to the end-to-end mean by construction.

use vrio::{OracleConfig, TestbedConfig};
use vrio_hv::IoModel;
use vrio_sim::{ProfReport, SimDuration};
use vrio_trace::{
    render_chrome_trace_with_counters, Json, MetricsRegistry, RequestKind, Stage, TelemetryConfig,
    TelemetryExport, TraceConfig, TraceExport, REPORT_SCHEMA_VERSION,
};
use vrio_workloads::netperf_rr;

use crate::report::{f, render_table};
use crate::sys_exps::ReproConfig;
use crate::telem::{prof_bundle, telemetry_bundle};

/// Everything the instrumented pass produces: a human-readable stage table,
/// the stable-schema JSON report, and the Chrome trace-event document.
#[derive(Debug)]
pub struct ObsReport {
    /// Plain-text per-model stage breakdown table.
    pub text: String,
    /// The `BENCH_*.json` document (schema [`REPORT_SCHEMA_VERSION`]).
    pub json: Json,
    /// Chrome trace-event JSON array (load in Perfetto / `chrome://tracing`).
    /// With telemetry enabled it additionally carries counter tracks.
    pub chrome: String,
    /// The rendered `TELEM_*.json` bundle (one run per model), when
    /// telemetry sampling was requested.
    pub telemetry: Option<String>,
    /// The `PROF_*.json` bundle (wall-clock; never byte-diffed), when
    /// self-profiling was requested.
    pub profile: Option<Json>,
}

/// Runs one traced netperf RR pass per I/O model and assembles the latency
/// breakdown report.
///
/// `experiment` only tags the JSON document (`"experiment"` key); the
/// instrumented workload is always the canonical single-VM RR loop, the
/// lifecycle every model shares.
///
/// With `oracle` (`repro --oracle`) every traced run is also checked
/// against the conservation invariants and panics on any violation. With
/// `telemetry` (`repro --telemetry`) each run samples continuous tracks,
/// which ride the Chrome document as Perfetto counter tracks plus a
/// separate `TELEM_*` bundle; `profile` (`repro --profile`) adds a
/// wall-clock `PROF_*` bundle that no byte-identity gate ever diffs. The
/// oracle and telemetry are observe-only: the `json` report is
/// byte-identical with either on or off.
pub fn latency_breakdown_instrumented(
    rc: ReproConfig,
    experiment: &str,
    oracle: bool,
    telemetry: bool,
    profile: bool,
) -> ObsReport {
    let mut exports: Vec<TraceExport> = Vec::new();
    let mut models: Vec<(String, Json)> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut telem_runs: Vec<(&str, TelemetryExport)> = Vec::new();
    let mut prof_runs: Vec<(String, ProfReport)> = Vec::new();

    for model in IoModel::ALL {
        let mut c = TestbedConfig::simple(model, 1);
        c.trace = TraceConfig::memory();
        if oracle {
            c.oracle = OracleConfig::on();
        }
        if telemetry {
            c.telemetry = TelemetryConfig::sampling(SimDuration::micros(100));
        }
        c.profile = profile;
        let r = netperf_rr(c, rc.duration / 2);
        if oracle {
            r.oracle.assert_clean(model.name());
        }
        if telemetry {
            telem_runs.push((model.name(), r.telemetry));
        }
        if profile {
            prof_runs.push((model.name().to_string(), r.profile.clone()));
        }

        let mut metrics = MetricsRegistry::new();
        r.counters.record(&mut metrics);
        r.reliability.record(&mut metrics);

        let breakdown = r.trace.breakdown();
        let kb = breakdown
            .kind(RequestKind::NetRr)
            .expect("traced RR run records net_rr spans");

        let mut row = vec![model.to_string()];
        for s in Stage::ALL {
            row.push(f(kb.stage_mean_us(s)));
        }
        row.push(f(kb.total.mean()));
        rows.push(row);

        models.push((
            model.name().to_string(),
            Json::obj(vec![
                ("mean_latency_us", Json::Num(r.mean_latency_us)),
                ("requests_per_sec", Json::Num(r.requests_per_sec)),
                ("breakdown", kb.to_json()),
                ("metrics", metrics.to_json()),
            ]),
        ));
        exports.push(r.trace.export());
    }

    let mut headers: Vec<String> = vec!["I/O model".to_string()];
    headers.extend(Stage::ALL.iter().map(|s| s.name().to_string()));
    headers.push("total".to_string());
    let header_refs: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
    let mut text =
        String::from("Latency breakdown — mean usec per request-response, by lifecycle stage\n\n");
    text.push_str(&render_table(&header_refs, &rows));
    text.push_str("\nstage means sum exactly to the end-to-end mean by construction\n");

    let json = Json::obj(vec![
        ("schema_version", Json::int(REPORT_SCHEMA_VERSION)),
        ("experiment", Json::str(experiment)),
        ("workload", Json::str("netperf_rr")),
        (
            "duration_ms",
            Json::Num((rc.duration / 2).as_secs_f64() * 1e3),
        ),
        ("models", Json::Obj(models)),
    ]);

    // Counter tracks ride alongside the span events: each model's telemetry
    // lands under the pid its spans use (the model's position in
    // `IoModel::ALL`, matching the trace exports pushed above).
    let counters: Vec<(u32, &TelemetryExport)> = telem_runs
        .iter()
        .enumerate()
        .map(|(pid, (_, export))| (pid as u32, export))
        .collect();
    let chrome = render_chrome_trace_with_counters(&exports, &counters);
    let telem_runs: Vec<(&str, &TelemetryExport)> =
        telem_runs.iter().map(|(name, run)| (*name, run)).collect();

    ObsReport {
        text,
        json,
        chrome,
        telemetry: telemetry.then(|| telemetry_bundle(&telem_runs)),
        profile: profile.then(|| prof_bundle(&prof_runs)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_sums_and_schema_hold() {
        let rc = ReproConfig {
            duration: vrio_sim::SimDuration::millis(20),
            tail_duration: vrio_sim::SimDuration::millis(20),
            ring: vrio_virtio::RingConfig::split_basic(),
        };
        let rep = latency_breakdown_instrumented(rc, "smoke", false, false, false);
        // Stable top-level schema.
        assert_eq!(
            rep.json.get("schema_version").and_then(Json::as_f64),
            Some(REPORT_SCHEMA_VERSION as f64)
        );
        let models = rep.json.get("models").expect("models key");
        for model in IoModel::ALL {
            let m = models.get(model.name()).expect("per-model entry");
            let mean = m
                .get_path("breakdown.mean_latency_us")
                .and_then(Json::as_f64)
                .unwrap();
            let sum = m
                .get_path("breakdown.stage_sum_us")
                .and_then(Json::as_f64)
                .unwrap();
            assert!(
                (sum - mean).abs() <= 0.01 * mean,
                "{model}: stage sum {sum} vs mean {mean}"
            );
        }
        // The chrome document is a valid event array.
        let doc = Json::parse(&rep.chrome).unwrap();
        let arr = doc.as_array().unwrap();
        assert!(arr.len() > 100);
        for ev in arr.iter().take(50) {
            for key in ["ph", "ts", "pid", "tid", "name"] {
                assert!(ev.get(key).is_some(), "missing {key}");
            }
        }
    }

    #[test]
    fn instrumented_pass_is_observe_only_and_bundles_telemetry() {
        let rc = ReproConfig {
            duration: vrio_sim::SimDuration::millis(8),
            tail_duration: vrio_sim::SimDuration::millis(8),
            ring: vrio_virtio::RingConfig::split_basic(),
        };
        let plain = latency_breakdown_instrumented(rc, "smoke", false, false, false);
        let inst = latency_breakdown_instrumented(rc, "smoke", false, true, true);
        // Telemetry and profiling are observe-only: the BENCH document is
        // byte-identical with them on or off.
        assert_eq!(
            plain.json.render_pretty(),
            inst.json.render_pretty(),
            "instrumentation changed the BENCH report"
        );
        assert!(plain.telemetry.is_none() && plain.profile.is_none());
        // The bundles carry one run per model.
        let telem = Json::parse(&inst.telemetry.expect("telemetry bundle")).unwrap();
        let runs = telem.get("runs").expect("runs");
        for model in IoModel::ALL {
            let run = runs.get(model.name()).expect("per-model telemetry run");
            assert_eq!(run.get("kind").and_then(Json::as_str), Some("telemetry"));
        }
        let prof = inst.profile.expect("profile bundle");
        assert_eq!(prof.get("kind").and_then(Json::as_str), Some("profile"));
        for model in IoModel::ALL {
            let scopes = prof
                .get_path("runs")
                .and_then(|r| r.get(model.name()))
                .and_then(|r| r.get("scopes"))
                .expect("per-model scopes");
            assert!(scopes.get("engine.callback").is_some(), "{model}");
        }
        // The sampled tracks ride the Chrome document as counter events.
        let doc = Json::parse(&inst.chrome).unwrap();
        let counters = doc
            .as_array()
            .unwrap()
            .iter()
            .filter(|ev| ev.get("ph").and_then(Json::as_str) == Some("C"))
            .count();
        assert!(counters > 0, "no counter-track events in the chrome trace");
        let plain_doc = Json::parse(&plain.chrome).unwrap();
        assert!(plain_doc
            .as_array()
            .unwrap()
            .iter()
            .all(|ev| ev.get("ph").and_then(Json::as_str) != Some("C")));
    }
}
