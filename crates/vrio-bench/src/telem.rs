//! Bundled `TELEM_*` / `PROF_*` document renderers.
//!
//! The bench binaries collect one [`TelemetryExport`] per run (per model,
//! per scenario, per chaos replica) and one [`ProfReport`] per workload
//! execution. This module folds those into single schema-versioned JSON
//! documents: a telemetry bundle (deterministic — diffed byte-for-byte in
//! CI) and a profile bundle (wall-clock — **never** part of any
//! byte-identity gate; CI uploads it as an artifact and nothing diffs it).

use vrio_sim::ProfReport;
use vrio_trace::{Json, TelemetryExport, TELEM_SCHEMA_VERSION};

/// Schema version of the `PROF_*.json` document. Bump on any key-shape
/// change so `checkjson` can refuse cross-schema validation.
pub const PROF_SCHEMA_VERSION: u64 = 1;

/// Folds named telemetry exports into one `TELEM_*.json` document:
/// `{ schema_version, kind: "telemetry_bundle", runs: { name: <telemetry doc> } }`.
/// Run order is preserved (callers pass deterministic expansion order),
/// and each embedded run is the exact [`TelemetryExport::to_json`] shape.
pub fn telemetry_bundle(runs: &[(String, TelemetryExport)]) -> Json {
    Json::obj(vec![
        ("schema_version", Json::int(TELEM_SCHEMA_VERSION)),
        ("kind", Json::str("telemetry_bundle")),
        (
            "runs",
            Json::Obj(
                runs.iter()
                    .map(|(name, export)| (name.clone(), export.to_json()))
                    .collect(),
            ),
        ),
    ])
}

/// Folds named profiler reports into one `PROF_*.json` document:
/// `{ schema_version, kind: "profile", runs: { name: { scopes: {...} } } }`.
/// Scope durations render as wall-clock microseconds; the values vary
/// run to run, which is exactly why `PROF_*` files stay out of CI diffs.
pub fn prof_bundle(runs: &[(String, ProfReport)]) -> Json {
    Json::obj(vec![
        ("schema_version", Json::int(PROF_SCHEMA_VERSION)),
        ("kind", Json::str("profile")),
        (
            "runs",
            Json::Obj(
                runs.iter()
                    .map(|(name, report)| {
                        let scopes = report
                            .scopes
                            .iter()
                            .map(|s| {
                                (
                                    s.name.to_string(),
                                    Json::obj(vec![
                                        ("calls", Json::int(s.calls)),
                                        ("total_us", Json::Num(s.total.as_secs_f64() * 1e6)),
                                        ("max_us", Json::Num(s.max.as_secs_f64() * 1e6)),
                                        ("mean_us", Json::Num(s.mean().as_secs_f64() * 1e6)),
                                    ]),
                                )
                            })
                            .collect();
                        (name.clone(), Json::obj(vec![("scopes", Json::Obj(scopes))]))
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use vrio_sim::{Profiler, SimDuration, SimTime};
    use vrio_trace::{Telemetry, TelemetryConfig, TrackKind};

    #[test]
    fn telemetry_bundle_embeds_each_run_under_its_name() {
        let mut tm = Telemetry::new(&TelemetryConfig::sampling(SimDuration::micros(10)));
        let depth = tm.track("q.depth", TrackKind::Gauge);
        tm.record(depth, SimTime::from_nanos(10_000), 2.0);
        let doc = telemetry_bundle(&[
            ("vrio".to_string(), tm.export()),
            ("elvis".to_string(), TelemetryExport::default()),
        ]);
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("telemetry_bundle")
        );
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_f64),
            Some(TELEM_SCHEMA_VERSION as f64)
        );
        let run = doc.get_path("runs.vrio").expect("run embedded");
        assert_eq!(run.get("kind").and_then(Json::as_str), Some("telemetry"));
        // Track names are dotted, so look the key up directly rather than
        // through the dotted-path helper.
        assert!(run.get("tracks").and_then(|t| t.get("q.depth")).is_some());
        // The document survives a render → parse round trip.
        assert!(Json::parse(&doc.render_pretty()).is_ok());
    }

    #[test]
    fn prof_bundle_renders_scope_stats_in_microseconds() {
        let p = Profiler::new(true);
        p.record("engine.pop", Duration::from_micros(4));
        p.record("engine.pop", Duration::from_micros(8));
        let doc = prof_bundle(&[("rr".to_string(), p.export())]);
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("profile"));
        let scope = doc
            .get_path("runs.rr.scopes.engine.pop")
            .or_else(|| {
                doc.get_path("runs.rr.scopes")
                    .and_then(|s| s.get("engine.pop"))
            })
            .expect("scope present");
        assert_eq!(scope.get("calls").and_then(Json::as_f64), Some(2.0));
        assert_eq!(scope.get("total_us").and_then(Json::as_f64), Some(12.0));
        assert_eq!(scope.get("max_us").and_then(Json::as_f64), Some(8.0));
        assert_eq!(scope.get("mean_us").and_then(Json::as_f64), Some(6.0));
    }
}
