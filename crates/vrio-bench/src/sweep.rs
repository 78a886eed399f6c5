//! The deterministic parallel sweep engine (rack-scale scaling curves).
//!
//! The paper's headline results are *scaling curves* — throughput and
//! latency as sidecores, VMs and message sizes vary (Figs 9–13, Tab 3).
//! A [`SweepSpec`] names a grid over those axes; [`SweepSpec::expand`]
//! turns it into independent [`Scenario`]s, and [`run_sweep`] runs them
//! across OS threads. Each scenario gets a private `Testbed` built inside
//! its worker thread and an RNG seeded as
//! [`scenario_seed`]`(base_seed, key)`, so results are **bit-identical
//! regardless of thread count or scheduling** — `--threads 1` and
//! `--threads 8` emit the same bytes, and CI diffs them to prove it.
//!
//! [`SweepResult::to_json`] renders the schema-versioned
//! `BENCH_sweep_*.json` document: per-scenario throughput and latency
//! percentiles plus derived scaling-efficiency series (Fig 9/10-style
//! throughput-per-sidecore) and the vRIO-vs-Elvis consolidation ratio.
//! CI diffs the quick `smoke` sweep's document against the committed
//! `benches/baseline.json` byte for byte: every number in it is simulated,
//! so any change to it is a change in behaviour.

use std::fmt;

use vrio::{OracleConfig, TestbedConfig};
use vrio_hv::IoModel;
use vrio_sim::{scenario_seed, SimDuration};
use vrio_trace::{Json, MetricsRegistry, SloLedger, TelemetryConfig, TelemetryExport};
use vrio_virtio::RingConfig;
use vrio_workloads::{netperf_rr_sized, netperf_stream_sized};

use crate::par::{par_map_ordered, Progress};
use crate::report::{f, render_table};
use crate::sys_exps::ReproConfig;

/// Schema version of the `BENCH_sweep_*.json` document. Bump on any
/// key-shape change, so that a reader can refuse a document it does not
/// know.
/// v2 added per-tenant SLO tables (`scenarios[].tenants`) and the spec's
/// `telemetry` flag.
pub const SWEEP_SCHEMA_VERSION: u64 = 2;

/// The workloads a sweep can grid over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepWorkload {
    /// Closed-loop netperf request-response (latency-centric).
    Rr,
    /// Windowed netperf stream (throughput-centric).
    Stream,
}

impl SweepWorkload {
    /// Short name used in scenario keys and JSON.
    pub fn name(self) -> &'static str {
        match self {
            SweepWorkload::Rr => "rr",
            SweepWorkload::Stream => "stream",
        }
    }
}

/// Key-safe slug for an I/O model (no spaces or slashes).
fn model_slug(m: IoModel) -> &'static str {
    match m {
        IoModel::Optimum => "optimum",
        IoModel::Vrio => "vrio",
        IoModel::Elvis => "elvis",
        IoModel::VrioNoPoll => "vrio-nopoll",
        IoModel::Baseline => "baseline",
    }
}

/// A sweep grid: the cartesian product of its axes.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Name of the sweep (tags the output file and scenario grouping).
    pub name: String,
    /// Workload axis.
    pub workloads: Vec<SweepWorkload>,
    /// I/O-model axis.
    pub models: Vec<IoModel>,
    /// IOhost-worker axis (backend cores; vRIO consolidates these at the
    /// IOhost, local models get them per VMhost).
    pub workers: Vec<usize>,
    /// VM-count axis.
    pub vms: Vec<usize>,
    /// Message-size axis in bytes (RR response size / stream message size).
    pub msg_bytes: Vec<u64>,
    /// Ring-layout axis. The default split-basic layout leaves scenario
    /// keys (and thus seeds and the committed baseline) untouched; other
    /// layouts suffix their keys with `/r<layout>`.
    pub rings: Vec<RingConfig>,
    /// Base seed; each scenario derives `scenario_seed(base_seed, key)`.
    pub base_seed: u64,
    /// Measurement window per scenario.
    pub duration: SimDuration,
    /// Log-normal service-jitter sigma applied to every scenario (breaks
    /// closed-loop phase lock, as the figure experiments do).
    pub service_jitter: f64,
    /// Run every scenario with the simulation oracle enabled and assert it
    /// clean. The oracle is observe-only, so results (and the rendered
    /// JSON) are byte-identical either way.
    pub oracle: bool,
    /// Sample continuous telemetry tracks in every scenario. Observe-only
    /// like the oracle: the rendered `BENCH_sweep_*.json` is byte-identical
    /// either way; the tracks land in a separate `TELEM_*` bundle.
    pub telemetry: bool,
}

/// Errors from sweep-spec validation and lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// `--sweep NAME` named no known spec.
    UnknownSpec {
        /// The unknown name.
        name: String,
    },
    /// An axis of the grid is empty, so it expands to zero scenarios.
    EmptyAxis {
        /// Spec name.
        spec: String,
        /// Which axis.
        axis: &'static str,
    },
    /// An axis contains a zero where at least one is required.
    ZeroValue {
        /// Spec name.
        spec: String,
        /// Which axis.
        axis: &'static str,
    },
    /// The per-scenario measurement window is zero.
    ZeroDuration {
        /// Spec name.
        spec: String,
    },
    /// Two grid points expand to the same scenario key.
    DuplicateKey {
        /// Spec name.
        spec: String,
        /// The colliding key.
        key: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::UnknownSpec { name } => write!(
                out,
                "unknown sweep spec '{name}'; known specs: {}",
                KNOWN_SPECS.join(" ")
            ),
            SweepError::EmptyAxis { spec, axis } => write!(
                out,
                "sweep spec '{spec}': axis '{axis}' is empty — the grid expands to no scenarios"
            ),
            SweepError::ZeroValue { spec, axis } => write!(
                out,
                "sweep spec '{spec}': axis '{axis}' contains 0 (every scenario needs at least one)"
            ),
            SweepError::ZeroDuration { spec } => {
                write!(
                    out,
                    "sweep spec '{spec}': measurement duration must be positive"
                )
            }
            SweepError::DuplicateKey { spec, key } => write!(
                out,
                "sweep spec '{spec}': duplicate scenario key '{key}' (an axis repeats a value)"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

/// The named specs `repro --sweep` accepts.
pub const KNOWN_SPECS: [&str; 3] = ["smoke", "scaling", "msgsize"];

impl SweepSpec {
    /// Looks up a named spec (`repro --sweep NAME`), deriving run lengths
    /// from the preset.
    pub fn named(name: &str, rc: ReproConfig) -> Result<SweepSpec, SweepError> {
        match name {
            "smoke" => Ok(Self::smoke(rc)),
            "scaling" => Ok(Self::scaling(rc)),
            "msgsize" => Ok(Self::msgsize(rc)),
            _ => Err(SweepError::UnknownSpec { name: name.into() }),
        }
    }

    /// The CI smoke grid: small enough to finish in seconds, wide enough
    /// to cross every axis at least once. This is the spec behind the
    /// committed `benches/baseline.json`.
    pub fn smoke(rc: ReproConfig) -> SweepSpec {
        SweepSpec {
            name: "smoke".into(),
            workloads: vec![SweepWorkload::Rr, SweepWorkload::Stream],
            models: vec![IoModel::Vrio, IoModel::Elvis],
            workers: vec![1, 2],
            vms: vec![1, 2],
            msg_bytes: vec![64],
            rings: vec![rc.ring],
            base_seed: 1,
            duration: rc.duration / 4,
            service_jitter: 0.02,
            oracle: false,
            telemetry: false,
        }
    }

    /// The Fig 9/10-style scaling grid: four models, 1..8 IOhost workers,
    /// growing VM counts.
    pub fn scaling(rc: ReproConfig) -> SweepSpec {
        SweepSpec {
            name: "scaling".into(),
            workloads: vec![SweepWorkload::Rr, SweepWorkload::Stream],
            models: IoModel::MAIN.to_vec(),
            workers: (1..=8).collect(),
            vms: vec![1, 2, 4, 7],
            msg_bytes: vec![64],
            rings: vec![rc.ring],
            base_seed: 1,
            duration: rc.duration / 2,
            service_jitter: 0.02,
            oracle: false,
            telemetry: false,
        }
    }

    /// The message-size grid (Fig 11-style payload scaling under
    /// consolidation).
    pub fn msgsize(rc: ReproConfig) -> SweepSpec {
        SweepSpec {
            name: "msgsize".into(),
            workloads: vec![SweepWorkload::Stream],
            models: vec![IoModel::Vrio, IoModel::Elvis],
            workers: vec![1, 2, 4],
            vms: vec![2],
            msg_bytes: vec![64, 256, 1024, 4096],
            rings: vec![rc.ring],
            base_seed: 1,
            duration: rc.duration / 2,
            service_jitter: 0.02,
            oracle: false,
            telemetry: false,
        }
    }

    /// Validates the grid without expanding it.
    pub fn validate(&self) -> Result<(), SweepError> {
        self.expand().map(|_| ())
    }

    /// Expands the grid into scenarios, in a fixed axis-major order that
    /// does not depend on how the sweep will be scheduled.
    pub fn expand(&self) -> Result<Vec<Scenario>, SweepError> {
        let axes: [(&'static str, bool); 6] = [
            ("workloads", self.workloads.is_empty()),
            ("models", self.models.is_empty()),
            ("workers", self.workers.is_empty()),
            ("vms", self.vms.is_empty()),
            ("msg_bytes", self.msg_bytes.is_empty()),
            ("rings", self.rings.is_empty()),
        ];
        for (axis, empty) in axes {
            if empty {
                return Err(SweepError::EmptyAxis {
                    spec: self.name.clone(),
                    axis,
                });
            }
        }
        for (axis, zero) in [
            ("workers", self.workers.contains(&0)),
            ("vms", self.vms.contains(&0)),
            ("msg_bytes", self.msg_bytes.contains(&0)),
        ] {
            if zero {
                return Err(SweepError::ZeroValue {
                    spec: self.name.clone(),
                    axis,
                });
            }
        }
        if self.duration.is_zero() {
            return Err(SweepError::ZeroDuration {
                spec: self.name.clone(),
            });
        }
        let mut scenarios = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for &workload in &self.workloads {
            for &model in &self.models {
                for &workers in &self.workers {
                    for &vms in &self.vms {
                        for &msg_bytes in &self.msg_bytes {
                            for &ring in &self.rings {
                                let s = Scenario {
                                    workload,
                                    model,
                                    workers,
                                    vms,
                                    msg_bytes,
                                    ring,
                                    seed: 0,
                                    duration: self.duration,
                                    service_jitter: self.service_jitter,
                                    oracle: self.oracle,
                                    telemetry: self.telemetry,
                                };
                                let key = s.key();
                                if !seen.insert(key.clone()) {
                                    return Err(SweepError::DuplicateKey {
                                        spec: self.name.clone(),
                                        key,
                                    });
                                }
                                scenarios.push(Scenario {
                                    seed: scenario_seed(self.base_seed, &key),
                                    ..s
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(scenarios)
    }
}

/// One grid point: everything a worker thread needs to run it. Plain data
/// (`Send`) — the thread builds its own `Testbed` from this.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Workload to run.
    pub workload: SweepWorkload,
    /// I/O model under test.
    pub model: IoModel,
    /// Backend cores (IOhost workers for vRIO).
    pub workers: usize,
    /// Number of VMs.
    pub vms: usize,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Negotiated ring layout for every VM in the scenario.
    pub ring: RingConfig,
    /// Derived per-scenario seed (`scenario_seed(base, key)`).
    pub seed: u64,
    /// Measurement window.
    pub duration: SimDuration,
    /// Service-jitter sigma.
    pub service_jitter: f64,
    /// Run with the (observe-only) simulation oracle and assert it clean.
    pub oracle: bool,
    /// Sample continuous telemetry tracks (observe-only).
    pub telemetry: bool,
}

impl Scenario {
    /// The scenario's stable identity: `workload/model/wW/vV/bB`. Seeds,
    /// baseline matching and dedup all key off this string. Non-default
    /// ring layouts append `/r<layout>`; the split-basic default appends
    /// nothing, so the committed baseline's keys (and every derived seed)
    /// are untouched by the ring axis.
    pub fn key(&self) -> String {
        let mut key = format!(
            "{}/{}/w{}/v{}/b{}",
            self.workload.name(),
            model_slug(self.model),
            self.workers,
            self.vms,
            self.msg_bytes
        );
        if self.ring != RingConfig::split_basic() {
            key.push_str("/r");
            key.push_str(self.ring.name());
        }
        key
    }

    /// The testbed configuration this scenario runs.
    pub fn config(&self) -> TestbedConfig {
        let mut c = TestbedConfig::simple(self.model, self.vms)
            .with_backend_cores(self.workers)
            .with_ring(self.ring)
            .with_seed(self.seed)
            .with_jitter(self.service_jitter);
        if self.oracle {
            c.oracle = OracleConfig::on();
        }
        if self.telemetry {
            // The default 100 µs grid resolves breaker cooldowns and
            // health-ladder walks without drowning short windows in points.
            c.telemetry = TelemetryConfig::sampling(SimDuration::micros(100));
        }
        c
    }
}

/// Measurements from one scenario (plain data; crosses back from the
/// worker thread).
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario that produced this.
    pub scenario: Scenario,
    /// The scenario key (cached).
    pub key: String,
    /// Canonical throughput: requests/sec for RR, Gbps for stream. The
    /// scaling-efficiency and consolidation series divide these.
    pub throughput: f64,
    /// Unit of [`ScenarioResult::throughput`].
    pub unit: &'static str,
    /// Mean end-to-end latency in microseconds (RR only).
    pub mean_latency_us: Option<f64>,
    /// Median latency (RR only).
    pub p50_us: Option<f64>,
    /// 99th-percentile latency (RR only).
    pub p99_us: Option<f64>,
    /// 99.9th-percentile latency (RR only).
    pub p999_us: Option<f64>,
    /// Completed operations (requests or messages) in the window.
    pub completed: u64,
    /// VM-side CPU cycles per message (stream only — Fig 10's metric).
    pub cycles_per_msg: Option<f64>,
    /// Fraction of backend charges that queued (RR only — Fig 8).
    pub contention: Option<f64>,
    /// Per-tenant SLO accounting and drop attribution (always on).
    pub slo: SloLedger,
    /// Continuous telemetry tracks (empty unless the scenario samples).
    pub telemetry: TelemetryExport,
}

/// Runs one scenario to completion on the calling thread.
pub fn run_scenario(s: &Scenario) -> ScenarioResult {
    let key = s.key();
    match s.workload {
        SweepWorkload::Rr => {
            let r = netperf_rr_sized(s.config(), s.duration, s.msg_bytes as usize);
            if s.oracle {
                r.oracle.assert_clean(&key);
            }
            r.slo
                .check_conservation()
                .unwrap_or_else(|msg| panic!("{key}: {msg}"));
            ScenarioResult {
                scenario: s.clone(),
                key,
                throughput: r.requests_per_sec,
                unit: "req/s",
                mean_latency_us: Some(r.mean_latency_us),
                p50_us: Some(r.histogram.percentile(50.0)),
                p99_us: Some(r.histogram.percentile(99.0)),
                p999_us: Some(r.histogram.percentile(99.9)),
                completed: r.completed,
                cycles_per_msg: None,
                contention: Some(r.contention),
                slo: r.slo,
                telemetry: r.telemetry,
            }
        }
        SweepWorkload::Stream => {
            let r = netperf_stream_sized(s.config(), s.duration, s.msg_bytes);
            if s.oracle {
                r.oracle.assert_clean(&key);
            }
            r.slo
                .check_conservation()
                .unwrap_or_else(|msg| panic!("{key}: {msg}"));
            ScenarioResult {
                scenario: s.clone(),
                key,
                throughput: r.gbps,
                unit: "gbps",
                mean_latency_us: None,
                p50_us: None,
                p99_us: None,
                p999_us: None,
                completed: r.messages,
                cycles_per_msg: Some(r.cycles_per_msg),
                contention: None,
                slo: r.slo,
                telemetry: r.telemetry,
            }
        }
    }
}

/// A completed sweep: the spec plus one result per scenario, in expansion
/// order (independent of scheduling).
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The spec that was run.
    pub spec: SweepSpec,
    /// Per-scenario results, in [`SweepSpec::expand`] order.
    pub results: Vec<ScenarioResult>,
}

/// Expands `spec` and runs every scenario across `threads` OS threads.
///
/// Scheduling is [`par_map_ordered`]'s shared index, but each scenario's
/// world is private to the thread that runs it and seeded only from
/// `(base_seed, key)`, so the aggregated result — and its rendered JSON —
/// is byte-identical for any `threads >= 1`. With `progress`, a line per
/// completed scenario (with an ETA) goes to stderr; stdout and the JSON
/// stay clean.
pub fn run_sweep(
    spec: &SweepSpec,
    threads: usize,
    progress: bool,
) -> Result<SweepResult, SweepError> {
    let scenarios = spec.expand()?;
    let n = scenarios.len();
    let clock = Progress::start();
    let results = par_map_ordered(n, threads, |i| {
        let r = run_scenario(&scenarios[i]);
        if progress {
            let (k, elapsed) = clock.tick();
            let eta = elapsed / k as f64 * (n - k) as f64;
            eprintln!(
                "sweep {}: {k}/{n} {} ({elapsed:.1}s elapsed, ~{eta:.0}s left)",
                spec.name, r.key
            );
        }
        r
    });
    Ok(SweepResult {
        spec: spec.clone(),
        results,
    })
}

/// One point of a scaling-efficiency series.
#[derive(Debug, Clone)]
pub struct EfficiencyPoint {
    /// Worker count at this point.
    pub workers: usize,
    /// Measured throughput.
    pub throughput: f64,
    /// Throughput per worker (the Fig 9/10 per-sidecore metric).
    pub per_worker: f64,
    /// `per_worker` relative to the fewest-workers point of the series
    /// (1.0 = perfect linear scaling).
    pub efficiency: f64,
}

/// A throughput-per-sidecore series: one group of scenarios that differ
/// only in worker count.
#[derive(Debug, Clone)]
pub struct EfficiencySeries {
    /// Group identity: `workload/model/vV/bB`.
    pub group: String,
    /// Unit of the throughput values.
    pub unit: &'static str,
    /// Points in ascending worker order.
    pub points: Vec<EfficiencyPoint>,
}

/// A vRIO-vs-Elvis consolidation comparison at one grid point.
#[derive(Debug, Clone)]
pub struct ConsolidationPoint {
    /// Shared coordinates: `workload/wW/vV/bB`.
    pub at: String,
    /// vRIO throughput.
    pub vrio: f64,
    /// Elvis throughput.
    pub elvis: f64,
    /// `vrio / elvis` (>1 means consolidation wins).
    pub ratio: f64,
}

impl SweepResult {
    /// Throughput-per-sidecore series (Fig 9/10-style): scenarios grouped
    /// by everything but worker count, ordered by worker count.
    pub fn scaling_efficiency(&self) -> Vec<EfficiencySeries> {
        let mut groups: std::collections::BTreeMap<String, Vec<&ScenarioResult>> =
            std::collections::BTreeMap::new();
        for r in &self.results {
            let s = &r.scenario;
            let group = format!(
                "{}/{}/v{}/b{}",
                s.workload.name(),
                model_slug(s.model),
                s.vms,
                s.msg_bytes
            );
            groups.entry(group).or_default().push(r);
        }
        let mut out = Vec::new();
        for (group, mut rs) in groups {
            if rs.len() < 2 {
                continue; // no worker axis to scale over
            }
            rs.sort_by_key(|r| r.scenario.workers);
            let base = rs[0].throughput / rs[0].scenario.workers as f64;
            let points = rs
                .iter()
                .map(|r| {
                    let per_worker = r.throughput / r.scenario.workers as f64;
                    EfficiencyPoint {
                        workers: r.scenario.workers,
                        throughput: r.throughput,
                        per_worker,
                        efficiency: if base > 0.0 { per_worker / base } else { 0.0 },
                    }
                })
                .collect();
            out.push(EfficiencySeries {
                group,
                unit: rs[0].unit,
                points,
            });
        }
        out
    }

    /// vRIO-vs-Elvis throughput ratios at every grid point both models
    /// cover (the consolidation question of Figs 15/16).
    pub fn consolidation_ratio(&self) -> Vec<ConsolidationPoint> {
        let mut vrio: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
        let mut elvis: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
        for r in &self.results {
            let s = &r.scenario;
            let at = format!(
                "{}/w{}/v{}/b{}",
                s.workload.name(),
                s.workers,
                s.vms,
                s.msg_bytes
            );
            match s.model {
                IoModel::Vrio => {
                    vrio.insert(at, r.throughput);
                }
                IoModel::Elvis => {
                    elvis.insert(at, r.throughput);
                }
                _ => {}
            }
        }
        vrio.into_iter()
            .filter_map(|(at, v)| {
                elvis.get(&at).map(|&e| ConsolidationPoint {
                    ratio: if e > 0.0 { v / e } else { 0.0 },
                    vrio: v,
                    elvis: e,
                    at,
                })
            })
            .collect()
    }

    /// Aggregate run accounting as a metrics registry (scenario counts,
    /// total completed operations, throughput distributions per
    /// workload). Deterministic: populated in result order from
    /// deterministic values.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add("sweep.scenarios", self.results.len() as u64);
        m.gauge_set(
            "sweep.scenario_duration_ms",
            self.spec.duration.as_secs_f64() * 1e3,
        );
        for r in &self.results {
            m.counter_add(
                &format!("sweep.{}.scenarios", r.scenario.workload.name()),
                1,
            );
            m.counter_add("sweep.completed_ops", r.completed);
            m.hist_mut(&format!("sweep.{}.throughput", r.scenario.workload.name()))
                .push(r.throughput);
        }
        m
    }

    /// The per-scenario telemetry exports, borrowed and keyed by scenario
    /// key in expansion order — the input shape of `telemetry_bundle`.
    /// Empty exports (telemetry off) are skipped.
    pub fn telemetry_runs(&self) -> Vec<(&str, &TelemetryExport)> {
        self.results
            .iter()
            .filter(|r| !r.telemetry.tracks.is_empty())
            .map(|r| (r.key.as_str(), &r.telemetry))
            .collect()
    }

    /// Renders the schema-versioned `BENCH_sweep_*.json` document.
    pub fn to_json(&self) -> Json {
        let spec = &self.spec;
        let spec_json = Json::obj(vec![
            ("name", Json::str(&spec.name)),
            ("base_seed", Json::int(spec.base_seed)),
            ("duration_ms", Json::Num(spec.duration.as_secs_f64() * 1e3)),
            ("service_jitter", Json::Num(spec.service_jitter)),
            ("telemetry", Json::Bool(spec.telemetry)),
            (
                "workloads",
                Json::Arr(spec.workloads.iter().map(|w| Json::str(w.name())).collect()),
            ),
            (
                "models",
                Json::Arr(
                    spec.models
                        .iter()
                        .map(|m| Json::str(model_slug(*m)))
                        .collect(),
                ),
            ),
            (
                "workers",
                Json::Arr(spec.workers.iter().map(|&w| Json::int(w as u64)).collect()),
            ),
            (
                "vms",
                Json::Arr(spec.vms.iter().map(|&v| Json::int(v as u64)).collect()),
            ),
            (
                "msg_bytes",
                Json::Arr(spec.msg_bytes.iter().map(|&b| Json::int(b)).collect()),
            ),
        ]);

        let scenarios = Json::Arr(
            self.results
                .iter()
                .map(|r| {
                    let s = &r.scenario;
                    let mut pairs = vec![
                        ("key", Json::str(&r.key)),
                        ("workload", Json::str(s.workload.name())),
                        ("model", Json::str(model_slug(s.model))),
                        ("workers", Json::int(s.workers as u64)),
                        ("vms", Json::int(s.vms as u64)),
                        ("msg_bytes", Json::int(s.msg_bytes)),
                        // Hex string: u64 seeds overflow JSON's exact
                        // f64-integer range.
                        ("seed", Json::str(&format!("{:#018x}", s.seed))),
                        ("throughput", Json::Num(r.throughput)),
                        ("unit", Json::str(r.unit)),
                        ("completed", Json::int(r.completed)),
                    ];
                    if let Some(v) = r.mean_latency_us {
                        pairs.push(("mean_latency_us", Json::Num(v)));
                    }
                    if let Some(v) = r.p50_us {
                        pairs.push(("p50_us", Json::Num(v)));
                    }
                    if let Some(v) = r.p99_us {
                        pairs.push(("p99_us", Json::Num(v)));
                    }
                    if let Some(v) = r.p999_us {
                        pairs.push(("p999_us", Json::Num(v)));
                    }
                    if let Some(v) = r.cycles_per_msg {
                        pairs.push(("cycles_per_msg", Json::Num(v)));
                    }
                    if let Some(v) = r.contention {
                        pairs.push(("contention", Json::Num(v)));
                    }
                    pairs.push(("tenants", r.slo.to_json()));
                    Json::obj(pairs)
                })
                .collect(),
        );

        let efficiency = Json::Arr(
            self.scaling_efficiency()
                .iter()
                .map(|series| {
                    Json::obj(vec![
                        ("group", Json::str(&series.group)),
                        ("unit", Json::str(series.unit)),
                        (
                            "points",
                            Json::Arr(
                                series
                                    .points
                                    .iter()
                                    .map(|p| {
                                        Json::obj(vec![
                                            ("workers", Json::int(p.workers as u64)),
                                            ("throughput", Json::Num(p.throughput)),
                                            ("per_worker", Json::Num(p.per_worker)),
                                            ("efficiency", Json::Num(p.efficiency)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );

        let consolidation = Json::Arr(
            self.consolidation_ratio()
                .iter()
                .map(|p| {
                    Json::obj(vec![
                        ("at", Json::str(&p.at)),
                        ("vrio", Json::Num(p.vrio)),
                        ("elvis", Json::Num(p.elvis)),
                        ("ratio", Json::Num(p.ratio)),
                    ])
                })
                .collect(),
        );

        Json::obj(vec![
            ("schema_version", Json::int(SWEEP_SCHEMA_VERSION)),
            ("kind", Json::str("sweep")),
            ("spec", spec_json),
            ("scenarios", scenarios),
            (
                "derived",
                Json::obj(vec![
                    ("scaling_efficiency", efficiency),
                    ("consolidation_vrio_vs_elvis", consolidation),
                ]),
            ),
            ("metrics", self.metrics().to_json()),
        ])
    }

    /// Renders the human-readable summary tables.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "Sweep '{}' — {} scenarios, {} ms window each\n\n",
            self.spec.name,
            self.results.len(),
            f(self.spec.duration.as_secs_f64() * 1e3),
        );
        let rows: Vec<Vec<String>> = self
            .results
            .iter()
            .map(|r| {
                vec![
                    r.key.clone(),
                    format!("{} {}", f(r.throughput), r.unit),
                    r.mean_latency_us.map(f).unwrap_or_else(|| "-".into()),
                    r.p99_us.map(f).unwrap_or_else(|| "-".into()),
                    r.completed.to_string(),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["scenario", "throughput", "mean us", "p99 us", "completed"],
            &rows,
        ));

        let eff = self.scaling_efficiency();
        if !eff.is_empty() {
            out.push_str(
                "\nscaling efficiency (throughput per worker, vs fewest-workers point)\n\n",
            );
            let rows: Vec<Vec<String>> = eff
                .iter()
                .flat_map(|s| {
                    s.points.iter().map(|p| {
                        vec![
                            s.group.clone(),
                            p.workers.to_string(),
                            format!("{} {}", f(p.throughput), s.unit),
                            f(p.per_worker),
                            format!("{:.0}%", p.efficiency * 100.0),
                        ]
                    })
                })
                .collect();
            out.push_str(&render_table(
                &["group", "workers", "throughput", "per worker", "efficiency"],
                &rows,
            ));
        }

        let cons = self.consolidation_ratio();
        if !cons.is_empty() {
            out.push_str("\nvRIO / Elvis consolidation ratio\n\n");
            let rows: Vec<Vec<String>> = cons
                .iter()
                .map(|p| {
                    vec![
                        p.at.clone(),
                        f(p.vrio),
                        f(p.elvis),
                        format!("{:.2}x", p.ratio),
                    ]
                })
                .collect();
            out.push_str(&render_table(
                &["grid point", "vrio", "elvis", "ratio"],
                &rows,
            ));
        }
        out
    }
}

// Scenario specs cross into worker threads; results cross back.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SweepSpec>();
    assert_send::<Scenario>();
    assert_send::<ScenarioResult>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_rc() -> ReproConfig {
        ReproConfig {
            duration: SimDuration::millis(8),
            tail_duration: SimDuration::millis(8),
            ring: vrio_virtio::RingConfig::split_basic(),
        }
    }

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            name: "tiny".into(),
            workloads: vec![SweepWorkload::Rr, SweepWorkload::Stream],
            models: vec![IoModel::Vrio, IoModel::Elvis],
            workers: vec![1, 2],
            vms: vec![1],
            msg_bytes: vec![64],
            rings: vec![RingConfig::split_basic()],
            base_seed: 1,
            duration: SimDuration::millis(4),
            service_jitter: 0.02,
            oracle: false,
            telemetry: false,
        }
    }

    #[test]
    fn expansion_is_the_full_grid_in_fixed_order() {
        let scenarios = tiny_spec().expand().unwrap();
        assert_eq!(scenarios.len(), 2 * 2 * 2);
        let keys: Vec<String> = scenarios.iter().map(|s| s.key()).collect();
        assert_eq!(keys[0], "rr/vrio/w1/v1/b64");
        assert_eq!(keys[keys.len() - 1], "stream/elvis/w2/v1/b64");
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "keys are unique");
        // Seeds depend only on (base, key), not position.
        for s in &scenarios {
            assert_eq!(s.seed, scenario_seed(1, &s.key()));
        }
    }

    #[test]
    fn validation_rejects_bad_grids_with_clear_messages() {
        let mut s = tiny_spec();
        s.workers.clear();
        assert_eq!(
            s.validate().unwrap_err().to_string(),
            "sweep spec 'tiny': axis 'workers' is empty — the grid expands to no scenarios"
        );

        let mut s = tiny_spec();
        s.workers = vec![1, 0];
        assert_eq!(
            s.validate().unwrap_err().to_string(),
            "sweep spec 'tiny': axis 'workers' contains 0 (every scenario needs at least one)"
        );

        let mut s = tiny_spec();
        s.vms = vec![0];
        assert_eq!(
            s.validate().unwrap_err().to_string(),
            "sweep spec 'tiny': axis 'vms' contains 0 (every scenario needs at least one)"
        );

        let mut s = tiny_spec();
        s.duration = SimDuration::ZERO;
        assert_eq!(
            s.validate().unwrap_err().to_string(),
            "sweep spec 'tiny': measurement duration must be positive"
        );

        let mut s = tiny_spec();
        s.vms = vec![1, 1];
        assert_eq!(
            s.validate().unwrap_err().to_string(),
            "sweep spec 'tiny': duplicate scenario key 'rr/vrio/w1/v1/b64' (an axis repeats a value)"
        );

        assert_eq!(
            SweepSpec::named("nope", tiny_rc()).unwrap_err().to_string(),
            "unknown sweep spec 'nope'; known specs: smoke scaling msgsize"
        );
    }

    #[test]
    fn named_specs_validate() {
        for name in KNOWN_SPECS {
            let spec = SweepSpec::named(name, tiny_rc()).unwrap();
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let spec = tiny_spec();
        let one = run_sweep(&spec, 1, false).unwrap();
        let four = run_sweep(&spec, 4, false).unwrap();
        let a = one.to_json().render_pretty();
        let b = four.to_json().render_pretty();
        assert_eq!(a, b, "sweep JSON must not depend on thread count");
        // And the derived series exist with sane shapes.
        let eff = one.scaling_efficiency();
        assert!(!eff.is_empty());
        for series in &eff {
            assert_eq!(series.points[0].efficiency, 1.0);
            for p in &series.points {
                assert!(p.efficiency > 0.0);
            }
        }
        let cons = one.consolidation_ratio();
        assert_eq!(cons.len(), 4, "vrio and elvis share every grid point");
        for p in cons {
            assert!(p.ratio > 0.0);
        }
    }

    #[test]
    fn telemetry_is_observe_only_and_tenants_sum_to_completed() {
        let off = run_sweep(&tiny_spec(), 2, false).unwrap();
        let mut spec = tiny_spec();
        spec.telemetry = true;
        let on = run_sweep(&spec, 2, false).unwrap();
        // Byte-identical measurement: only the spec's own flag differs.
        assert_eq!(
            off.to_json().get("scenarios").unwrap().render_pretty(),
            on.to_json().get("scenarios").unwrap().render_pretty(),
            "telemetry sampling changed sweep measurements"
        );
        // The sampled run carries tracks for every scenario; the plain run
        // carries none.
        assert_eq!(on.telemetry_runs().len(), on.results.len());
        assert!(off.telemetry_runs().is_empty());
        // Per-tenant ledgers conserve, cover every VM, and account for at
        // least the measured completions (the ledger also counts the 10 %
        // warmup the workload's own counter resets away).
        for r in &off.results {
            r.slo.check_conservation().unwrap();
            if r.scenario.workload == SweepWorkload::Rr {
                assert!(r.slo.total_completed() >= r.completed, "{}", r.key);
            }
            let tenants = r.slo.tenants();
            assert_eq!(tenants.len(), r.scenario.vms);
        }
    }

    #[test]
    fn scenario_results_do_not_depend_on_the_rest_of_the_grid() {
        // Run the full tiny sweep, then re-run one scenario alone; the
        // numbers must match exactly (scenario isolation).
        let sweep = run_sweep(&tiny_spec(), 2, false).unwrap();
        let pick = &sweep.results[3];
        let solo = run_scenario(&pick.scenario);
        assert_eq!(solo.throughput, pick.throughput);
        assert_eq!(solo.completed, pick.completed);
        assert_eq!(solo.mean_latency_us, pick.mean_latency_us);
    }
}
