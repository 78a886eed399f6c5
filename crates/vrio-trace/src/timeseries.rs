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
//! The points are stored as columns. Every sample records every started
//! track at the same instant, so the sampler keeps one shared time axis
//! with one entry per sample, and a track keeps only its values and the
//! index of its first sample: its `k`-th value belongs to sample
//! `first + k`, because a track that has started records exactly once in
//! every later sample (debug-asserted). [`Telemetry::export`] consumes
//! the sampler and hands the columns over without copying them, and
//! [`telemetry_bundle`] writes the `TELEM_*.json` document straight from
//! them, in the bytes a pretty-printed [`Json`](crate::Json) tree would
//! render but without building one.
//!
//! Like the tracer and the oracle, telemetry is **observe-only**: the
//! sampler draws no randomness and mutates no simulation state, so a run
//! with sampling enabled is bit-identical to one without (the workloads'
//! telemetry bit-identity suite proves it under fault injection). The
//! sampler is plain data owned by the world it observes and records
//! through `&mut self`; a clone is an independent copy, and a disabled
//! sampler is a no-op with no allocation behind it.

use vrio_sim::{SimDuration, SimTime};

use crate::json::{indent, write_num, write_str};

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

/// One track's column: its name and kind, the index of its first sample
/// on the shared time axis ([`TelemetryExport::times`]), and one value
/// per sample from there on. Plain data (`Send`) — crosses sweep worker
/// threads.
#[derive(Debug, Clone)]
pub struct TrackExport {
    /// Dotted track name (`"steer.iohost0.worker1.depth"`).
    pub name: String,
    /// Gauge or counter.
    pub kind: TrackKind,
    /// Index of the track's first sample on the time axis.
    pub first: usize,
    /// The value of every sample from `first` on, in time order.
    pub values: Vec<f64>,
}

impl TrackExport {
    /// The track's `(simulated nanoseconds, value)` points in time order,
    /// read against `times`, the time axis of the export holding it.
    pub fn points<'a>(&'a self, times: &'a [u64]) -> impl Iterator<Item = (u64, f64)> + 'a {
        times[self.first..]
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }
}

/// A full telemetry export: the shared time axis and every track that
/// holds a sample, sorted by name. Plain data (`Send`).
#[derive(Debug, Clone, Default)]
pub struct TelemetryExport {
    /// Sampling interval the run used (zero when telemetry was off).
    pub interval: SimDuration,
    /// The simulated nanoseconds of every sample, in non-decreasing
    /// order.
    pub times: Vec<u64>,
    /// Tracks in sorted-name order.
    pub tracks: Vec<TrackExport>,
}

impl TelemetryExport {
    /// Looks a track up by name.
    pub fn track(&self, name: &str) -> Option<&TrackExport> {
        self.tracks.iter().find(|t| t.name == name)
    }

    /// Writes this run's `TELEM` document at `depth`, in the layout
    /// [`Json::render_pretty`](crate::Json::render_pretty) gives the same
    /// tree. Timestamps stay integer nanoseconds, so the document is exact
    /// (and diffs byte-identically); Perfetto-facing exports convert to µs.
    fn write_pretty(&self, out: &mut String, depth: usize) {
        open_document(out, depth, "telemetry");
        field(out, depth + 1, "interval_us");
        write_num(out, self.interval.as_secs_f64() * 1e6);
        out.push_str(",\n");
        field(out, depth + 1, "tracks");
        pretty_block(out, depth + 1, ('{', '}'), &self.tracks, |out, t| {
            write_str(out, &t.name);
            out.push_str(": {\n");
            field(out, depth + 3, "kind");
            write_str(out, t.kind.name());
            out.push_str(",\n");
            field(out, depth + 3, "points");
            let points = t.points(&self.times);
            pretty_block(out, depth + 3, ('[', ']'), points, |out, (at, v)| {
                pretty_block(out, depth + 4, ('[', ']'), [at as f64, v], write_num);
            });
            out.push('\n');
            indent(out, depth + 2);
            out.push('}');
        });
        out.push('\n');
        indent(out, depth);
        out.push('}');
    }
}

/// Opens a document object at `depth` with its `schema_version` and
/// `kind` entries, ready for the next entry.
fn open_document(out: &mut String, depth: usize, kind: &str) {
    out.push_str("{\n");
    field(out, depth + 1, "schema_version");
    write_num(out, TELEM_SCHEMA_VERSION as f64);
    out.push_str(",\n");
    field(out, depth + 1, "kind");
    write_str(out, kind);
    out.push_str(",\n");
}

/// Writes `"key": ` on a new entry line at `depth`.
fn field(out: &mut String, depth: usize, key: &str) {
    indent(out, depth);
    write_str(out, key);
    out.push_str(": ");
}

/// Writes a pretty-printed array or object at `depth`: `open`, each
/// entry (through `entry`) on its own line one level deeper, and `close`
/// on a line of its own, or `open` and `close` alone when there are no
/// entries. This is the layout `Json::render_pretty` gives a container.
fn pretty_block<T>(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    entries: impl IntoIterator<Item = T>,
    mut entry: impl FnMut(&mut String, T),
) {
    out.push(open);
    let mut empty = true;
    for e in entries {
        out.push_str(if empty { "\n" } else { ",\n" });
        empty = false;
        indent(out, depth + 1);
        entry(out, e);
    }
    if !empty {
        out.push('\n');
        indent(out, depth);
    }
    out.push(close);
}

/// Writes named runs as one pretty-printed `TELEM_*.json` document:
/// `{ schema_version, kind: "telemetry_bundle", runs: { name: <run> } }`,
/// where each run is `{ schema_version, kind: "telemetry", interval_us,
/// tracks: { name: { kind, points: [[t_ns, value], …] } } }`. The bytes
/// are those [`Json::render_pretty`](crate::Json::render_pretty) gives
/// the same tree, written straight from the columns. Run order is
/// preserved (callers pass deterministic expansion order).
pub fn telemetry_bundle(runs: &[(&str, &TelemetryExport)]) -> String {
    let mut out = String::new();
    open_document(&mut out, 0, "telemetry_bundle");
    field(&mut out, 1, "runs");
    pretty_block(&mut out, 1, ('{', '}'), runs, |out, &(name, run)| {
        write_str(out, name);
        out.push_str(": ");
        run.write_pretty(out, 2);
    });
    out.push_str("\n}\n");
    out
}

/// The time-series sampler. A clone copies the columns; a disabled
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
/// assert_eq!(ex.times, vec![0, 10_000]);
/// assert_eq!(ex.tracks.len(), 1);
/// assert_eq!(ex.tracks[0].values, vec![3.0, 5.0]);
/// assert_eq!(ex.tracks[0].kind, TrackKind::Gauge);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// The columns recorded so far, in the export's shape but with the
    /// tracks in interning order ([`TrackId`] indexes them).
    inner: Option<TelemetryExport>,
}

impl Telemetry {
    /// Creates a sampler from a config: live when enabled, inert otherwise.
    /// Either way it allocates nothing before its first track.
    pub fn new(config: &TelemetryConfig) -> Self {
        if !config.enabled {
            return Telemetry::off();
        }
        assert!(
            !config.interval.is_zero(),
            "telemetry sampling interval must be non-zero"
        );
        Telemetry {
            inner: Some(TelemetryExport {
                interval: config.interval,
                ..TelemetryExport::default()
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
        inner.tracks.push(TrackExport {
            name: name.to_string(),
            kind,
            first: 0,
            values: Vec::new(),
        });
        TrackId(inner.tracks.len() - 1)
    }

    /// Records a whole sample at `at`: `f` records each track's value
    /// through the [`Sample`] it is handed. On a disabled sampler `f` is
    /// not called. Samples arrive in non-decreasing time order (the fixed
    /// sampling grid guarantees it), and a track that has recorded once
    /// records exactly once in every later sample; both are
    /// debug-asserted.
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
    /// let ex = tm.export();
    /// let points: Vec<_> = ex.track("q.total").unwrap().points(&ex.times).collect();
    /// assert_eq!(points, vec![(0, 9.0)]);
    /// ```
    pub fn sample(&mut self, at: SimTime, f: impl FnOnce(&mut Sample<'_>)) {
        let Some(inner) = &mut self.inner else {
            return;
        };
        let at = at.as_nanos();
        debug_assert!(
            inner.times.last().is_none_or(|&t| t <= at),
            "telemetry sampled out of order"
        );
        let index = inner.times.len();
        inner.times.push(at);
        f(&mut Sample {
            tracks: &mut inner.tracks,
            index,
        });
        debug_assert!(
            inner
                .tracks
                .iter()
                .all(|t| t.values.is_empty() || t.first + t.values.len() == index + 1),
            "a started telemetry track skipped a sample"
        );
    }

    /// Hands the columns over as plain data, keeping the tracks that hold
    /// a sample, sorted by name (empty when disabled). The sampler is
    /// consumed, so nothing is copied: a run's result moves it out of the
    /// testbed it is about to drop (`std::mem::take`).
    pub fn export(self) -> TelemetryExport {
        let Some(mut ex) = self.inner else {
            return TelemetryExport::default();
        };
        ex.tracks.retain(|t| !t.values.is_empty());
        ex.tracks.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        ex
    }
}

/// One sample in progress ([`Telemetry::sample`]): every value recorded
/// through it belongs to the sample's entry on the time axis.
pub struct Sample<'a> {
    tracks: &'a mut [TrackExport],
    /// This sample's index on the time axis.
    index: usize,
}

impl Sample<'_> {
    /// Records `value` on an interned track.
    pub fn record(&mut self, id: TrackId, value: f64) {
        let track = &mut self.tracks[id.0];
        if track.values.is_empty() {
            track.first = self.index;
        }
        debug_assert!(
            track.first + track.values.len() == self.index,
            "telemetry track {} recorded twice in one sample or skipped one",
            track.name
        );
        track.values.push(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use proptest::prelude::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn assert_points(ex: &TelemetryExport, name: &str, want: &[(u64, f64)]) {
        let got: Vec<_> = ex.track(name).unwrap().points(&ex.times).collect();
        assert_eq!(got, want, "{name}");
    }

    /// The document as a [`Json`] tree, rendered through
    /// [`Json::render_pretty`]: the reference the streamed writer must
    /// match byte for byte.
    fn tree_bundle(runs: &[(&str, &TelemetryExport)]) -> String {
        let run = |ex: &TelemetryExport| {
            let tracks = ex
                .tracks
                .iter()
                .map(|t| {
                    let points = t
                        .points(&ex.times)
                        .map(|(at, v)| Json::Arr(vec![Json::int(at), Json::Num(v)]))
                        .collect();
                    let track = Json::obj(vec![
                        ("kind", Json::str(t.kind.name())),
                        ("points", Json::Arr(points)),
                    ]);
                    (t.name.clone(), track)
                })
                .collect();
            Json::obj(vec![
                ("schema_version", Json::int(TELEM_SCHEMA_VERSION)),
                ("kind", Json::str("telemetry")),
                ("interval_us", Json::Num(ex.interval.as_secs_f64() * 1e6)),
                ("tracks", Json::Obj(tracks)),
            ])
        };
        let runs = runs
            .iter()
            .map(|&(name, ex)| (name.to_string(), run(ex)))
            .collect();
        Json::obj(vec![
            ("schema_version", Json::int(TELEM_SCHEMA_VERSION)),
            ("kind", Json::str("telemetry_bundle")),
            ("runs", Json::Obj(runs)),
        ])
        .render_pretty()
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
        assert!(ex.tracks.is_empty() && ex.times.is_empty());
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
        assert_points(&ex, "a.depth", &[(0, 1.0), (1_000, 2.0)]);
        assert_eq!(ex.track("b.total").unwrap().kind, TrackKind::Counter);
        assert!(ex.track("missing").is_none());
    }

    #[test]
    fn a_late_track_starts_at_its_first_sample() {
        let mut tm = Telemetry::new(&TelemetryConfig::sampling(SimDuration::micros(1)));
        let early = tm.track("early", TrackKind::Gauge);
        tm.sample(t(0), |s| s.record(early, 1.0));
        let late = tm.track("late", TrackKind::Gauge);
        for at in [1_000, 2_000] {
            tm.sample(t(at), |s| {
                s.record(early, 2.0);
                s.record(late, at as f64);
            });
        }
        let ex = tm.export();
        assert_eq!(ex.times, vec![0, 1_000, 2_000], "one time per sample");
        assert_eq!(ex.track("late").unwrap().first, 1);
        assert_points(&ex, "late", &[(1_000, 1_000.0), (2_000, 2_000.0)]);
        assert_points(&ex, "early", &[(0, 1.0), (1_000, 2.0), (2_000, 2.0)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "skipped a sample")]
    fn a_started_track_records_in_every_sample() {
        let mut tm = Telemetry::new(&TelemetryConfig::sampling(SimDuration::micros(1)));
        let x = tm.track("x", TrackKind::Gauge);
        tm.sample(t(0), |s| s.record(x, 1.0));
        tm.sample(t(1), |_| {});
    }

    #[test]
    fn clones_copy_the_buffer() {
        let mut tm = Telemetry::new(&TelemetryConfig::sampling(SimDuration::micros(1)));
        let id = tm.track("copied", TrackKind::Gauge);
        tm.sample(t(0), |s| s.record(id, 7.0));
        let mut other = tm.clone();
        other.sample(t(1), |s| s.record(id, 8.0));
        assert_points(&tm.export(), "copied", &[(0, 7.0)]);
        assert_points(&other.export(), "copied", &[(0, 7.0), (1, 8.0)]);
    }

    #[test]
    fn json_document_has_the_stable_schema() {
        let mut tm = Telemetry::new(&TelemetryConfig::sampling(SimDuration::micros(10)));
        let q = tm.track("q", TrackKind::Gauge);
        tm.sample(t(10_000), |s| s.record(q, 3.0));
        let ex = tm.export();
        let text = telemetry_bundle(&[("run", &ex), ("off", &TelemetryExport::default())]);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_f64),
            Some(TELEM_SCHEMA_VERSION as f64)
        );
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("telemetry_bundle")
        );
        let run = doc.get_path("runs.run").expect("run embedded");
        assert_eq!(run.get("kind").and_then(Json::as_str), Some("telemetry"));
        assert_eq!(run.get("interval_us").and_then(Json::as_f64), Some(10.0));
        let track = run.get_path("tracks.q").expect("track present");
        assert_eq!(track.get("kind").and_then(Json::as_str), Some("gauge"));
        // Points render as [t_ns, value] pairs.
        let pts = track.get("points").and_then(Json::as_array).unwrap();
        assert_eq!(pts, [Json::Arr(vec![Json::int(10_000), Json::Num(3.0)])]);
        assert_eq!(
            text,
            tree_bundle(&[("run", &ex), ("off", &TelemetryExport::default())])
        );
    }

    /// A value of one of the shapes the document must render: an
    /// integer, a fraction, a negative, or a large magnitude.
    fn value() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u32..1_000).prop_map(f64::from),
            (0u32..1_000_000).prop_map(|n| f64::from(n) / 997.0),
            (-1_000_000i32..0).prop_map(|n| f64::from(n) / 8.0),
            (1u64..1_000, 14i32..300).prop_map(|(m, e)| m as f64 * 10f64.powi(e)),
        ]
    }

    /// An export of up to 4 tracks on one time axis of up to 12 samples,
    /// each track starting at its own sample and recording in every later
    /// one.
    fn export() -> impl Strategy<Value = TelemetryExport> {
        const MAX: usize = 12;
        let track = (
            0..=MAX,
            any::<bool>(),
            proptest::collection::vec(value(), MAX),
        );
        (1u64..1_000, 0..=MAX, proptest::collection::vec(track, 0..5)).prop_map(
            |(step, samples, tracks)| TelemetryExport {
                interval: SimDuration::nanos(step),
                times: (0..samples as u64).map(|k| (k + 1) * step).collect(),
                tracks: tracks
                    .into_iter()
                    .enumerate()
                    .map(|(i, (first, gauge, mut values))| {
                        let first = first.min(samples);
                        values.truncate(samples - first);
                        TrackExport {
                            name: format!("t{i}.\"q\""),
                            kind: if gauge {
                                TrackKind::Gauge
                            } else {
                                TrackKind::Counter
                            },
                            first,
                            values,
                        }
                    })
                    .collect(),
            },
        )
    }

    proptest! {
        #[test]
        fn streamed_document_matches_the_tree_rendering(
            runs in proptest::collection::vec(export(), 0..3)
        ) {
            let names = ["vrio", "elvis \\ 2", "r0"];
            let runs: Vec<(&str, &TelemetryExport)> = names.iter().copied().zip(&runs).collect();
            let text = telemetry_bundle(&runs);
            prop_assert_eq!(&text, &tree_bundle(&runs));
            let doc = Json::parse(&text).unwrap();
            let parsed = doc.get("runs").unwrap();
            for (name, ex) in &runs {
                let tracks = parsed.get(name).and_then(|r| r.get("tracks")).unwrap();
                for t in &ex.tracks {
                    let pts = tracks.get(&t.name).and_then(|x| x.get("points")).unwrap();
                    prop_assert_eq!(pts.as_array().unwrap().len(), t.values.len());
                }
            }
        }
    }
}
