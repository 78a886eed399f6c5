//! Chrome trace-event JSON export (the "JSON array format" accepted by
//! Perfetto and `chrome://tracing`).
//!
//! Each [`TraceExport`] becomes one *process* in the trace (pid = testbed /
//! `IoModel`); VM vCPUs, sidecore workers and per-VM request tracks are
//! *threads* within it. Timestamps are microseconds (Chrome's unit) derived
//! from integer simulation nanoseconds.

use crate::json::Json;
use crate::timeseries::{TelemetryExport, TrackKind};
use crate::tracer::{EventPhase, TraceExport};

fn us(nanos: u64) -> Json {
    Json::Num(nanos as f64 / 1000.0)
}

/// Renders one or more tracer exports as a Chrome trace-event JSON array.
///
/// The output is a single JSON array of event objects, each carrying the
/// `ph`/`ts`/`pid`/`tid`/`name` keys Perfetto's loader requires: `"M"`
/// metadata events naming processes and threads, `"X"` complete events for
/// slices, and `"i"` instant events for markers.
pub fn render_chrome_trace(exports: &[TraceExport]) -> String {
    render_chrome_trace_with_counters(exports, &[])
}

/// Like [`render_chrome_trace`], but additionally renders telemetry
/// time-series as Perfetto *counter tracks* (`"C"` phase events). Each
/// `(pid, export)` pair contributes one counter track per telemetry track,
/// named after the track, attached to the given process at `tid` 0; counter
/// tracks render as filled step graphs alongside the span tracks.
pub fn render_chrome_trace_with_counters(
    exports: &[TraceExport],
    telemetry: &[(u32, &TelemetryExport)],
) -> String {
    let mut events: Vec<Json> = Vec::new();
    for ex in exports {
        events.push(Json::obj(vec![
            ("ph", Json::str("M")),
            ("name", Json::str("process_name")),
            ("pid", Json::int(ex.pid as u64)),
            ("tid", Json::int(0)),
            ("ts", Json::int(0)),
            (
                "args",
                Json::obj(vec![("name", Json::str(&ex.process_name))]),
            ),
        ]));
        for (tid, tname) in &ex.thread_names {
            events.push(Json::obj(vec![
                ("ph", Json::str("M")),
                ("name", Json::str("thread_name")),
                ("pid", Json::int(ex.pid as u64)),
                ("tid", Json::int(*tid as u64)),
                ("ts", Json::int(0)),
                ("args", Json::obj(vec![("name", Json::str(tname))])),
            ]));
        }
        for ev in &ex.events {
            let mut pairs = vec![
                (
                    "ph",
                    Json::str(match ev.phase {
                        EventPhase::Complete => "X",
                        EventPhase::Instant => "i",
                    }),
                ),
                ("name", Json::str(ev.name)),
                ("cat", Json::str("vrio")),
                ("pid", Json::int(ex.pid as u64)),
                ("tid", Json::int(ev.tid as u64)),
                ("ts", us(ev.ts.as_nanos())),
            ];
            match ev.phase {
                EventPhase::Complete => {
                    pairs.push(("dur", us(ev.dur.as_nanos())));
                }
                EventPhase::Instant => {
                    // Thread-scoped instant marker.
                    pairs.push(("s", Json::str("t")));
                }
            }
            if ev.req != 0 {
                pairs.push(("args", Json::obj(vec![("req", Json::int(ev.req))])));
            }
            events.push(Json::obj(pairs));
        }
    }
    for (pid, telem) in telemetry {
        for track in &telem.tracks {
            let cat = match track.kind {
                TrackKind::Gauge => "vrio.gauge",
                TrackKind::Counter => "vrio.counter",
            };
            for (at, value) in track.points(&telem.times) {
                events.push(Json::obj(vec![
                    ("ph", Json::str("C")),
                    ("name", Json::str(&track.name)),
                    ("cat", Json::str(cat)),
                    ("pid", Json::int(*pid as u64)),
                    ("tid", Json::int(0)),
                    ("ts", us(at)),
                    ("args", Json::obj(vec![("value", Json::Num(value))])),
                ]));
            }
        }
    }
    Json::Arr(events).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{RequestKind, Stage, TraceConfig, Tracer};
    use vrio_sim::SimTime;

    #[test]
    fn export_is_valid_event_array() {
        let mut t = Tracer::new(&TraceConfig::memory_with_capacity(64));
        t.set_process(3, "vrio");
        t.set_thread_name(1000, "vm0 requests");
        let s = 1;
        t.begin(
            s,
            RequestKind::NetRr,
            1000,
            Stage::GuestEnqueue,
            SimTime::from_nanos(100),
        );
        t.mark(s, Stage::Wire, SimTime::from_nanos(600));
        t.end(s, SimTime::from_nanos(2100));
        t.instant("sync_exit", 1000, SimTime::from_nanos(150));

        let text = render_chrome_trace(&[t.export()]);
        let doc = Json::parse(&text).unwrap();
        let arr = doc.as_array().expect("top-level array");
        assert!(arr.len() >= 5);
        for ev in arr {
            for key in ["ph", "ts", "pid", "tid", "name"] {
                assert!(ev.get(key).is_some(), "event missing {key}: {ev:?}");
            }
        }
        // The request slice spans the whole lifetime in microseconds.
        let rr = arr
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("net_rr"))
            .unwrap();
        assert_eq!(rr.get("ts").and_then(Json::as_f64), Some(0.1));
        assert_eq!(rr.get("dur").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn counter_tracks_render_as_c_events() {
        use crate::timeseries::{Telemetry, TelemetryConfig, TrackKind};
        use vrio_sim::SimDuration;

        let mut t = Tracer::new(&TraceConfig::memory_with_capacity(8));
        t.set_process(3, "vrio");
        let mut tm = Telemetry::new(&TelemetryConfig::sampling(SimDuration::micros(10)));
        let depth = tm.track("steer.iohost0.worker0.depth", TrackKind::Gauge);
        let shed = tm.track("admission.iohost0.shed", TrackKind::Counter);
        tm.sample(SimTime::from_nanos(10_000), |s| {
            s.record(depth, 4.0);
            s.record(shed, 2.0);
        });
        let telem = tm.export();

        let text = render_chrome_trace_with_counters(&[t.export()], &[(3, &telem)]);
        let doc = Json::parse(&text).unwrap();
        let arr = doc.as_array().expect("top-level array");
        let counters: Vec<&Json> = arr
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2);
        let depth = counters
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("steer.iohost0.worker0.depth"))
            .unwrap();
        assert_eq!(depth.get("ts").and_then(Json::as_f64), Some(10.0));
        assert_eq!(depth.get("pid").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            depth.get_path("args.value").and_then(Json::as_f64),
            Some(4.0)
        );
        assert_eq!(depth.get("cat").and_then(Json::as_str), Some("vrio.gauge"));
        let shed = counters
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("admission.iohost0.shed"))
            .unwrap();
        assert_eq!(shed.get("cat").and_then(Json::as_str), Some("vrio.counter"));
    }
}
