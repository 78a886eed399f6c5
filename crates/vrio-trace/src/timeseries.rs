//! Deterministic fixed-grid time-series telemetry (continuous gauges and
//! counters over simulated time).
//!
//! Spans ([`crate::Tracer`]) answer *where one request's microseconds
//! went*; the [`Telemetry`] sampler answers *what the system looked like
//! while they went* — queue depths climbing before a breaker trips, ring
//! occupancy under a loss storm, the health ladder walking down and back.
//! Workloads schedule observe-only sampling marks on a fixed grid of the
//! simulation clock and record named tracks of `(t, value)` points.
//!
//! Like the tracer and the oracle, telemetry is **observe-only**: the
//! sampler draws no randomness and mutates no simulation state, so a run
//! with sampling enabled is bit-identical to one without (the workloads'
//! telemetry bit-identity suite proves it under fault injection). The
//! sampler is plain data owned by the world it observes and records
//! through `&mut self`; a clone is an independent copy, and a disabled
//! sampler is a no-op with no allocation behind it.

use vrio_sim::{SimDuration, SimTime};

use crate::json::Json;

/// Schema version of the `TELEM_*.json` document. Bump on any key-shape
/// change so `checkjson` can refuse cross-schema validation.
pub const TELEM_SCHEMA_VERSION: u64 = 1;

/// Configuration of the time-series sampler (plain data, so testbed
/// configs stay `Send`).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Master switch. Disabled (the default) records nothing and keeps
    /// workloads from scheduling sampling marks.
    pub enabled: bool,
    /// Sampling grid: one mark every `interval` of simulated time.
    pub interval: SimDuration,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            // 100 µs resolves every transient the testbed models (breaker
            // cooldowns are milliseconds, heartbeats tens of µs) without
            // drowning short CI runs in points.
            interval: SimDuration::micros(100),
        }
    }
}

impl TelemetryConfig {
    /// The disabled config (records nothing).
    pub fn off() -> Self {
        TelemetryConfig::default()
    }

    /// An enabled config sampling every `interval`.
    ///
    /// # Panics
    ///
    /// Panics when `interval` is zero — the sampling grid would be
    /// degenerate.
    pub fn sampling(interval: SimDuration) -> Self {
        assert!(
            !interval.is_zero(),
            "telemetry sampling interval must be non-zero"
        );
        TelemetryConfig {
            enabled: true,
            interval,
        }
    }
}

/// Whether a track is a point-in-time level or a monotone running total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackKind {
    /// A sampled level (queue depth, ring occupancy, breaker state).
    Gauge,
    /// A sampled monotone running total (offers, sheds, completions).
    Counter,
}

impl TrackKind {
    /// Stable slug used in JSON (`"gauge"` / `"counter"`).
    pub fn name(self) -> &'static str {
        match self {
            TrackKind::Gauge => "gauge",
            TrackKind::Counter => "counter",
        }
    }
}

/// Handle to one interned telemetry track, returned by
/// [`Telemetry::track`]. Resolve it once and record through it on every
/// sample; a handle from a disabled [`Telemetry`] is inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackId(usize);

#[derive(Debug, Clone)]
struct Track {
    name: String,
    kind: TrackKind,
    points: Vec<(u64, f64)>,
}

#[derive(Debug, Clone)]
struct TelemetryInner {
    interval: SimDuration,
    /// Tracks in interning order; [`TrackId`] indexes this.
    tracks: Vec<Track>,
}

/// One exported track: name, kind, and `(t_ns, value)` points in time
/// order. Plain data (`Send`) — crosses sweep worker threads.
#[derive(Debug, Clone)]
pub struct TrackExport {
    /// Dotted track name (`"steer.iohost0.worker1.depth"`).
    pub name: String,
    /// Gauge or counter.
    pub kind: TrackKind,
    /// `(simulated nanoseconds, value)` samples in non-decreasing time.
    pub points: Vec<(u64, f64)>,
}

/// A full telemetry export: every track, sorted by name. Plain data
/// (`Send`).
#[derive(Debug, Clone, Default)]
pub struct TelemetryExport {
    /// Sampling interval the run used (zero when telemetry was off).
    pub interval: SimDuration,
    /// Tracks in sorted-name order.
    pub tracks: Vec<TrackExport>,
}

impl TelemetryExport {
    /// Renders the schema-versioned `TELEM_*.json` document. Timestamps
    /// stay integer nanoseconds so the document is exact (and diffs
    /// byte-identically); Perfetto-facing exports convert to µs.
    pub fn to_json(&self) -> Json {
        let tracks = self
            .tracks
            .iter()
            .map(|t| {
                (
                    t.name.clone(),
                    Json::obj(vec![
                        ("kind", Json::str(t.kind.name())),
                        (
                            "points",
                            Json::Arr(
                                t.points
                                    .iter()
                                    .map(|&(at, v)| Json::Arr(vec![Json::int(at), Json::Num(v)]))
                                    .collect(),
                            ),
                        ),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("schema_version", Json::int(TELEM_SCHEMA_VERSION)),
            ("kind", Json::str("telemetry")),
            ("interval_us", Json::Num(self.interval.as_secs_f64() * 1e6)),
            ("tracks", Json::Obj(tracks)),
        ])
    }

    /// Looks a track up by name.
    pub fn track(&self, name: &str) -> Option<&TrackExport> {
        self.tracks.iter().find(|t| t.name == name)
    }
}

/// The time-series sampler. A clone copies the buffer; a disabled
/// sampler ignores every call.
///
/// # Examples
///
/// ```
/// use vrio_sim::{SimDuration, SimTime};
/// use vrio_trace::{Telemetry, TelemetryConfig, TrackKind};
///
/// let mut tm = Telemetry::new(&TelemetryConfig::sampling(SimDuration::micros(10)));
/// let depth = tm.track("q.depth", TrackKind::Gauge);
/// tm.sample(SimTime::from_nanos(0), |s| s.record(depth, 3.0));
/// tm.sample(SimTime::from_nanos(10_000), |s| s.record(depth, 5.0));
/// let ex = tm.export();
/// assert_eq!(ex.tracks.len(), 1);
/// assert_eq!(ex.tracks[0].points, vec![(0, 3.0), (10_000, 5.0)]);
/// assert_eq!(ex.tracks[0].kind, TrackKind::Gauge);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<TelemetryInner>,
}

impl Telemetry {
    /// Creates a sampler from a config: live when enabled, inert otherwise.
    pub fn new(config: &TelemetryConfig) -> Self {
        if !config.enabled {
            return Telemetry::off();
        }
        assert!(
            !config.interval.is_zero(),
            "telemetry sampling interval must be non-zero"
        );
        Telemetry {
            inner: Some(TelemetryInner {
                interval: config.interval,
                tracks: Vec::new(),
            }),
        }
    }

    /// The inert sampler: every call is a no-op.
    pub fn off() -> Self {
        Telemetry::default()
    }

    /// Whether this sampler records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The sampling interval, when enabled.
    pub fn interval(&self) -> Option<SimDuration> {
        self.inner.as_ref().map(|i| i.interval)
    }

    /// Interns the track `name`, creating it empty on first use, and
    /// returns its handle. A track holds one kind for its whole life
    /// (debug-asserted). Callers resolve each handle once, so the lookup
    /// is a plain scan of the interned names. On a disabled sampler this
    /// allocates nothing and returns an inert id.
    pub fn track(&mut self, name: &str, kind: TrackKind) -> TrackId {
        let Some(inner) = &mut self.inner else {
            return TrackId(0);
        };
        if let Some(at) = inner.tracks.iter().position(|t| t.name == name) {
            debug_assert!(
                inner.tracks[at].kind == kind,
                "telemetry track {name} interned with two kinds"
            );
            return TrackId(at);
        }
        inner.tracks.push(Track {
            name: name.to_string(),
            kind,
            points: Vec::new(),
        });
        TrackId(inner.tracks.len() - 1)
    }

    /// Records a whole sample at `at`: `f` records each track's value
    /// through the [`Sample`] it is handed. On a disabled sampler `f` is
    /// not called. Samples must arrive in non-decreasing time order per
    /// track (debug-asserted): the fixed sampling grid guarantees it.
    ///
    /// ```
    /// use vrio_sim::{SimDuration, SimTime};
    /// use vrio_trace::{Telemetry, TelemetryConfig, TrackKind};
    ///
    /// let mut tm = Telemetry::new(&TelemetryConfig::sampling(SimDuration::micros(10)));
    /// let depth = tm.track("q.depth", TrackKind::Gauge);
    /// let total = tm.track("q.total", TrackKind::Counter);
    /// tm.sample(SimTime::from_nanos(0), |s| {
    ///     s.record(depth, 3.0);
    ///     s.record(total, 9.0);
    /// });
    /// assert_eq!(tm.export().track("q.total").unwrap().points, vec![(0, 9.0)]);
    /// ```
    pub fn sample(&mut self, at: SimTime, f: impl FnOnce(&mut Sample<'_>)) {
        let Some(inner) = &mut self.inner else {
            return;
        };
        f(&mut Sample {
            tracks: &mut inner.tracks,
            at: at.as_nanos(),
        });
    }

    /// Exports every track holding a sample as plain data, sorted by
    /// name (empty when disabled).
    pub fn export(&self) -> TelemetryExport {
        let Some(inner) = &self.inner else {
            return TelemetryExport::default();
        };
        let mut tracks: Vec<TrackExport> = inner
            .tracks
            .iter()
            .filter(|t| !t.points.is_empty())
            .map(|t| TrackExport {
                name: t.name.clone(),
                kind: t.kind,
                points: t.points.clone(),
            })
            .collect();
        tracks.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        TelemetryExport {
            interval: inner.interval,
            tracks,
        }
    }
}

/// One sample in progress ([`Telemetry::sample`]): every value recorded
/// through it is stamped with the sample's time.
pub struct Sample<'a> {
    tracks: &'a mut [Track],
    at: u64,
}

impl Sample<'_> {
    /// Records `value` on an interned track.
    pub fn record(&mut self, id: TrackId, value: f64) {
        let track = &mut self.tracks[id.0];
        debug_assert!(
            track.points.last().is_none_or(|&(t, _)| t <= self.at),
            "telemetry track {} sampled out of order",
            track.name
        );
        track.points.push((self.at, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let mut tm = Telemetry::off();
        assert!(!tm.enabled());
        let x = tm.track("x", TrackKind::Gauge);
        tm.sample(t(0), |s| s.record(x, 1.0));
        let y = tm.track("y", TrackKind::Counter);
        tm.sample(t(5), |s| s.record(y, 2.0));
        let ex = tm.export();
        assert!(ex.tracks.is_empty());
        assert!(ex.interval.is_zero());
    }

    #[test]
    fn default_config_is_off_and_sampling_validates() {
        assert!(!TelemetryConfig::default().enabled);
        let c = TelemetryConfig::sampling(SimDuration::micros(50));
        assert!(c.enabled);
        assert_eq!(c.interval, SimDuration::micros(50));
    }

    #[test]
    #[should_panic(expected = "telemetry sampling interval must be non-zero")]
    fn zero_interval_is_rejected() {
        let _ = TelemetryConfig::sampling(SimDuration::ZERO);
    }

    #[test]
    fn tracks_export_sorted_with_points_in_order() {
        let mut tm = Telemetry::new(&TelemetryConfig::sampling(SimDuration::micros(1)));
        let total = tm.track("b.total", TrackKind::Counter);
        let depth = tm.track("a.depth", TrackKind::Gauge);
        let unsampled = tm.track("c.idle", TrackKind::Gauge);
        assert_eq!(tm.track("b.total", TrackKind::Counter), total, "interned");
        for (at, n) in [(t(0), 0.0), (t(1_000), 4.0)] {
            tm.sample(at, |s| {
                s.record(total, n);
                s.record(depth, n / 4.0 + 1.0);
            });
        }
        assert_ne!(unsampled, depth);
        let ex = tm.export();
        // Sorted by name, not by interning order; a track that was never
        // sampled is not exported.
        let names: Vec<&str> = ex.tracks.iter().map(|tr| tr.name.as_str()).collect();
        assert_eq!(names, vec!["a.depth", "b.total"]);
        assert_eq!(
            ex.track("a.depth").unwrap().points,
            vec![(0, 1.0), (1_000, 2.0)]
        );
        assert_eq!(ex.track("b.total").unwrap().kind, TrackKind::Counter);
        assert!(ex.track("missing").is_none());
    }

    #[test]
    fn clones_copy_the_buffer() {
        let mut tm = Telemetry::new(&TelemetryConfig::sampling(SimDuration::micros(1)));
        let id = tm.track("copied", TrackKind::Gauge);
        tm.sample(t(0), |s| s.record(id, 7.0));
        let mut other = tm.clone();
        other.sample(t(1), |s| s.record(id, 8.0));
        assert_eq!(tm.export().track("copied").unwrap().points, vec![(0, 7.0)]);
        assert_eq!(
            other.export().track("copied").unwrap().points,
            vec![(0, 7.0), (1, 8.0)]
        );
    }

    #[test]
    fn json_document_has_the_stable_schema() {
        let mut tm = Telemetry::new(&TelemetryConfig::sampling(SimDuration::micros(10)));
        let q = tm.track("q", TrackKind::Gauge);
        tm.sample(t(10_000), |s| s.record(q, 3.0));
        let doc = tm.export().to_json();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_f64),
            Some(TELEM_SCHEMA_VERSION as f64)
        );
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("telemetry"));
        assert_eq!(doc.get("interval_us").and_then(Json::as_f64), Some(10.0));
        let track = doc.get_path("tracks.q").expect("track present");
        assert_eq!(track.get("kind").and_then(Json::as_str), Some("gauge"));
        // Points render as [t_ns, value] pairs and the document reparses.
        let reparsed = Json::parse(&doc.render_pretty()).unwrap();
        let pts = reparsed
            .get_path("tracks.q")
            .and_then(|tr| tr.get("points"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(pts.len(), 1);
    }
}
