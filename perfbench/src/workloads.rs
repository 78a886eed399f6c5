//! The three benchmark workloads, their scenario batches, and the
//! correctness check (simulated-output digests, oracle, SLO conservation).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use vrio::{OracleConfig, RingOps, TestbedConfig};
use vrio_bench::{run_sweep, ReproConfig, ScenarioResult, SweepSpec, SweepWorkload};
use vrio_hv::{EventCounters, IoModel, ReliabilityCounters};
use vrio_net::{FaultConfig, GeConfig};
use vrio_sim::{scenario_seed, ProfReport, SimDuration};
use vrio_trace::{SloLedger, TelemetryConfig};
use vrio_workloads::{
    netperf_rr, netperf_rr_sized, netperf_stream_sized, run_filebench, FilebenchResult,
    Personality, RrResult,
};

use crate::measure::{cpu_ns, Digest, Spans};

/// The seed whose batch digests are committed in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Scenarios per `rr-rack` batch, run one after another.
const RR_SCENARIOS: usize = 3;
/// Simulated measurement window per `rr-rack` scenario (plus 10 % warm-up).
const RR_SIM: SimDuration = SimDuration::millis(100);
/// Scenarios per `blk-storm` batch, run one after another.
const BLK_SCENARIOS: usize = 3;
/// Simulated measurement window per `blk-storm` scenario (plus 10 % warm-up).
const BLK_SIM: SimDuration = SimDuration::millis(100);
/// Worker threads of the `sweep-scaling` runner.
pub const SWEEP_THREADS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 13a rack: netperf RR on vRIO, 4 VMhosts, 28 VMs, observers off.
    RrRack,
    /// Fig 14c Filebench random I/O under the `ge-storm` faults, observers on.
    BlkStorm,
    /// The committed `SweepSpec::scaling` grid on two threads.
    SweepScaling,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::RrRack, Workload::BlkStorm, Workload::SweepScaling];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RrRack => "rr-rack",
            Workload::BlkStorm => "blk-storm",
            Workload::SweepScaling => "sweep-scaling",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the workload's batch runs on.
    pub fn threads(self) -> usize {
        match self {
            Workload::SweepScaling => SWEEP_THREADS,
            _ => 1,
        }
    }

    /// The committed digest of this workload's batch at [`DEFAULT_SEED`].
    pub fn committed_digest(self) -> Option<u64> {
        include_str!("../digests.txt")
            .lines()
            .filter_map(|l| l.split_once(' '))
            .find(|(name, _)| *name == self.name())
            .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok())
    }

    /// The testbed configuration of every scenario in the batch for `seed`
    /// (what `setup_s` builds).
    pub fn configs(self, seed: u64) -> Vec<TestbedConfig> {
        match self {
            Workload::RrRack => (0..RR_SCENARIOS)
                .map(|i| rr_rack_config(scenario_seed(seed, &format!("rr-rack/{i}"))))
                .collect(),
            Workload::BlkStorm => (0..BLK_SCENARIOS)
                .map(|i| {
                    blk_storm_config(
                        scenario_seed(seed, &format!("blk-storm/{i}")),
                        Observers::Both,
                    )
                })
                .collect(),
            Workload::SweepScaling => sweep_spec(seed)
                .expand()
                .expect("the committed scaling grid is valid")
                .iter()
                .map(|s| s.config())
                .collect(),
        }
    }
}

/// Which observers a `blk-storm` scenario runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observers {
    /// Oracle plus telemetry on a 100 µs grid (the workload as defined).
    Both,
    /// Oracle only.
    OracleOnly,
    /// Neither observer.
    Neither,
}

/// The Fig 13a rack: vRIO, 4 VMhosts, 28 VMs, 2 IOhost workers, NUMA
/// generators, service jitter 0.02, split ring, observers off.
pub fn rr_rack_config(seed: u64) -> TestbedConfig {
    let mut c = TestbedConfig::simple(IoModel::Vrio, 28)
        .with_vmhosts(4)
        .with_backend_cores(2)
        .with_jitter(0.02)
        .with_seed(seed);
    c.numa_generators = true;
    c
}

/// Fig 14c random I/O on vRIO with 7 VMs and 2 workers under the
/// `ge-storm` faults: Gilbert–Elliott bursty loss plus 2 % delay spikes of
/// 50 µs.
pub fn blk_storm_config(seed: u64, observers: Observers) -> TestbedConfig {
    let mut c = TestbedConfig::simple(IoModel::Vrio, 7)
        .with_backend_cores(2)
        .with_seed(seed);
    c.faults = FaultConfig {
        ge: Some(GeConfig::bursty()),
        delay_spike_prob: 0.02,
        delay_spike: SimDuration::micros(50),
        ..FaultConfig::default()
    };
    if observers != Observers::Neither {
        c.oracle = OracleConfig::on();
    }
    if observers == Observers::Both {
        c.telemetry = TelemetryConfig::sampling(SimDuration::micros(100));
    }
    c
}

/// The committed scaling grid with its base seed taken from `seed`.
pub fn sweep_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        base_seed: seed,
        ..SweepSpec::scaling(ReproConfig::quick())
    }
}

/// The outcome of one scenario.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Host wall ns spent in the workload call (0 inside `run_sweep`).
    pub host_ns: u64,
    /// Simulated requests completed: RR transactions (`rr-rack`), block
    /// requests (`blk-storm`), RR transactions plus stream messages
    /// (`sweep-scaling`).
    pub requests: u64,
    /// RR transactions among `requests`.
    pub rr: u64,
    /// Block requests among `requests`.
    pub blk: u64,
    /// Estimated vRIO protocol messages encoded and decoded.
    pub vrio_msgs: u64,
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// Why the scenario failed its check (empty = passed).
    pub problems: Vec<String>,
    /// Virtqueue operation counts (not available inside `run_sweep`).
    pub ring_ops: RingOps,
    /// Reliability counters (not available inside `run_sweep`).
    pub rel: ReliabilityCounters,
    /// Self-profile (empty unless profiled).
    pub profile: ProfReport,
}

/// One batch: every scenario of the workload for one seed.
#[derive(Debug, Default)]
pub struct Batch {
    /// Per-scenario outcomes, in batch order.
    pub runs: Vec<Run>,
    /// Host wall ns inside the workload calls.
    pub wall_ns: u64,
    /// Process CPU ns inside the workload calls.
    pub cpu_ns: u64,
}

impl Batch {
    /// Digest of the batch: the scenario digests in order.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for r in &self.runs {
            d.u64(r.digest);
        }
        d.value()
    }

    /// Simulated requests completed across the batch.
    pub fn requests(&self) -> u64 {
        self.runs.iter().map(|r| r.requests).sum()
    }

    /// Marks every scenario failed with `why`.
    pub fn fail_all(&mut self, why: &str) {
        for r in &mut self.runs {
            r.problems.push(why.to_string());
        }
    }

    /// Scenarios that failed their check.
    pub fn failed(&self) -> usize {
        self.runs.iter().filter(|r| !r.problems.is_empty()).count()
    }
}

/// How a batch is run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Turn on the `vrio-sim` Profiler in every scenario.
    pub profile: bool,
    /// Observers of `blk-storm` scenarios (ignored elsewhere).
    pub observers: Observers,
}

impl Opts {
    /// The workload as defined: unprofiled, blk-storm observers on.
    pub const PLAIN: Opts = Opts {
        profile: false,
        observers: Observers::Both,
    };
}

/// Times one workload call: `(result, wall ns, cpu ns)`. A panic is
/// returned as its message.
fn timed<T>(f: impl FnOnce() -> T) -> (Result<T, String>, u64, u64) {
    let (c0, t0) = (cpu_ns(), Instant::now());
    let out = catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("panicked: {msg}")
    });
    (out, t0.elapsed().as_nanos() as u64, cpu_ns() - c0)
}

fn panicked(why: String) -> Run {
    Run {
        problems: vec![why],
        ..Run::default()
    }
}

/// Runs the batch of `workload` for `seed`, recording a span around each
/// workload call and each check under `parent`.
pub fn run_batch(
    workload: Workload,
    seed: u64,
    opts: Opts,
    spans: &Spans,
    parent: Option<usize>,
) -> Batch {
    match workload {
        Workload::RrRack | Workload::BlkStorm => {
            let mut batch = Batch::default();
            for (i, mut config) in workload.configs(seed).into_iter().enumerate() {
                config.profile = opts.profile;
                let run = if workload == Workload::RrRack {
                    let (r, wall, cpu) = spans.with("netperf_rr", parent, Some(i), |_| {
                        timed(|| netperf_rr(config, RR_SIM))
                    });
                    batch.wall_ns += wall;
                    batch.cpu_ns += cpu;
                    spans.with("check", parent, Some(i), |_| match r {
                        Ok(r) => rr_run(&r, wall),
                        Err(why) => panicked(why),
                    })
                } else {
                    let config =
                        blk_storm_config(config.seed, opts.observers).with_profile(opts.profile);
                    let (r, wall, cpu) = spans.with("run_filebench", parent, Some(i), |_| {
                        timed(|| run_filebench(config, BLK_PERSONALITY, BLK_SIM))
                    });
                    batch.wall_ns += wall;
                    batch.cpu_ns += cpu;
                    spans.with("check", parent, Some(i), |_| match r {
                        Ok(r) => blk_run(&r, wall),
                        Err(why) => panicked(why),
                    })
                };
                batch.runs.push(run);
            }
            batch
        }
        Workload::SweepScaling if opts.profile => sweep_profiled(seed, spans, parent),
        Workload::SweepScaling => {
            let spec = sweep_spec(seed);
            let (r, wall, cpu) = spans.with("run_sweep", parent, None, |_| {
                timed(|| run_sweep(&spec, SWEEP_THREADS, false))
            });
            let runs = spans.with("check", parent, None, |_| match r {
                Ok(Ok(sweep)) => sweep.results.iter().map(|s| sweep_run(s, 0)).collect(),
                Ok(Err(e)) => vec![panicked(format!("invalid spec: {e}"))],
                // A panic anywhere in the runner fails every scenario.
                Err(why) => (0..spec.expand().map_or(1, |v| v.len()))
                    .map(|_| panicked(why.clone()))
                    .collect(),
            });
            Batch {
                runs,
                wall_ns: wall,
                cpu_ns: cpu,
            }
        }
    }
}

/// The scaling grid run scenario by scenario on [`SWEEP_THREADS`] threads
/// with the Profiler on. `run_sweep` builds each scenario's config itself
/// and cannot turn the Profiler on, so this does the runner's work through
/// the same netperf calls, with one span per scenario.
fn sweep_profiled(seed: u64, spans: &Spans, parent: Option<usize>) -> Batch {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let scenarios = sweep_spec(seed)
        .expand()
        .expect("the committed scaling grid is valid");
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Run>>> = scenarios.iter().map(|_| Mutex::new(None)).collect();
    let (c0, t0) = (cpu_ns(), Instant::now());
    std::thread::scope(|scope| {
        for _ in 0..SWEEP_THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(s) = scenarios.get(i) else { break };
                let config = s.config().with_profile(true);
                let name = match s.workload {
                    SweepWorkload::Rr => "netperf_rr_sized",
                    SweepWorkload::Stream => "netperf_stream_sized",
                };
                let (r, wall, _) = spans.with(name, parent, Some(i), |_| {
                    timed(|| match s.workload {
                        SweepWorkload::Rr => {
                            let r = netperf_rr_sized(config, s.duration, s.msg_bytes as usize);
                            let result = ScenarioResult {
                                scenario: s.clone(),
                                key: s.key(),
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
                            };
                            (result, r.ring_ops, r.reliability, r.profile)
                        }
                        SweepWorkload::Stream => {
                            let r = netperf_stream_sized(config, s.duration, s.msg_bytes);
                            let result = ScenarioResult {
                                scenario: s.clone(),
                                key: s.key(),
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
                            };
                            (
                                result,
                                r.ring_ops,
                                ReliabilityCounters::default(),
                                r.profile,
                            )
                        }
                    })
                });
                let run = spans.with("check", parent, Some(i), |_| match r {
                    Ok((result, ring_ops, rel, profile)) => Run {
                        ring_ops,
                        rel,
                        profile,
                        ..sweep_run(&result, wall)
                    },
                    Err(why) => panicked(why),
                });
                *slots[i].lock().expect("slot poisoned") = Some(run);
            });
        }
    });
    Batch {
        runs: slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("slot poisoned")
                    .expect("scenario ran")
            })
            .collect(),
        wall_ns: t0.elapsed().as_nanos() as u64,
        cpu_ns: cpu_ns() - c0,
    }
}

/// The Filebench personality of `blk-storm` (Fig 14c, "2 pairs").
pub const BLK_PERSONALITY: Personality = Personality::RandomIo {
    readers: 2,
    writers: 2,
};

/// Checks and digests one `rr-rack` scenario.
pub fn rr_run(r: &RrResult, host_ns: u64) -> Run {
    let mut d = Digest::default();
    d.u64(r.completed)
        .f64(r.mean_latency_us)
        .f64(r.requests_per_sec)
        .f64(r.contention);
    for p in [50.0, 90.0, 99.0, 99.9] {
        d.f64(r.histogram.percentile(p));
    }
    digest_counters(&mut d, &r.counters);
    digest_reliability(&mut d, &r.reliability);
    digest_ring_ops(&mut d, &r.ring_ops);
    digest_slo(&mut d, &r.slo);
    let mut problems = observer_problems(r.oracle.is_clean(), &r.oracle.violations());
    if let Err(e) = r.slo.check_conservation() {
        problems.push(format!("SLO ledger conservation: {e}"));
    }
    if r.completed == 0 {
        problems.push("no RR transaction completed".into());
    }
    Run {
        host_ns,
        requests: r.completed,
        rr: r.completed,
        blk: 0,
        // Each transaction is encapsulated once on the way in and once out.
        vrio_msgs: 2 * r.completed,
        digest: d.value(),
        problems,
        ring_ops: r.ring_ops,
        rel: r.reliability,
        profile: r.profile.clone(),
    }
}

/// Checks and digests one `blk-storm` scenario. The digest covers the
/// simulated outputs only, so it is the same with or without observers.
/// `FilebenchResult` exposes no SLO ledger, event counters or latency
/// histogram, so those are outside this digest.
pub fn blk_run(r: &FilebenchResult, host_ns: u64) -> Run {
    let mut d = Digest::default();
    d.f64(r.ops_per_sec)
        .f64(r.mbps)
        .u64(r.involuntary_switches)
        .u64(r.voluntary_switches);
    for u in &r.backend_utilization {
        d.f64(*u);
    }
    for trace in &r.backend_traces {
        d.u64(trace.len() as u64);
        for u in trace {
            d.f64(*u);
        }
    }
    digest_reliability(&mut d, &r.reliability);
    digest_ring_ops(&mut d, &r.ring_ops);
    let mut problems = observer_problems(r.oracle.is_clean(), &r.oracle.violations());
    let rel = r.reliability;
    if rel.block_completed == 0 {
        problems.push("no block request completed".into());
    }
    Run {
        host_ns,
        requests: rel.block_completed,
        rr: 0,
        blk: rel.block_completed,
        // Every send and retransmission is a request message; every
        // completion came back as one response message.
        vrio_msgs: rel.block_sent + rel.retransmissions + rel.block_completed,
        digest: d.value(),
        problems,
        ring_ops: r.ring_ops,
        rel,
        profile: r.profile.clone(),
    }
}

/// Checks and digests one `sweep-scaling` scenario.
pub fn sweep_run(s: &ScenarioResult, host_ns: u64) -> Run {
    let mut d = Digest::default();
    d.str(&s.key).f64(s.throughput).str(s.unit).u64(s.completed);
    for v in [
        s.mean_latency_us,
        s.p50_us,
        s.p99_us,
        s.p999_us,
        s.cycles_per_msg,
        s.contention,
    ] {
        match v {
            Some(v) => d.u64(1).f64(v),
            None => d.u64(0),
        };
    }
    digest_slo(&mut d, &s.slo);
    let mut problems = Vec::new();
    if let Err(e) = s.slo.check_conservation() {
        problems.push(format!("{}: SLO ledger conservation: {e}", s.key));
    }
    if s.completed == 0 {
        problems.push(format!("{}: nothing completed", s.key));
    }
    let rr = match s.scenario.workload {
        SweepWorkload::Rr => s.completed,
        SweepWorkload::Stream => 0,
    };
    let vrio = matches!(s.scenario.model, IoModel::Vrio | IoModel::VrioNoPoll);
    Run {
        host_ns,
        requests: s.completed,
        rr,
        blk: 0,
        // RR transactions cross the channel twice, stream messages once.
        vrio_msgs: if vrio { s.completed + rr } else { 0 },
        digest: d.value(),
        problems,
        ..Run::default()
    }
}

fn observer_problems(clean: bool, violations: &[vrio::Violation]) -> Vec<String> {
    if clean {
        return Vec::new();
    }
    violations
        .iter()
        .map(|v| format!("oracle violation: {v:?}"))
        .collect()
}

fn digest_counters(d: &mut Digest, c: &EventCounters) {
    d.u64(c.sync_exits)
        .u64(c.guest_interrupts)
        .u64(c.interrupt_injections)
        .u64(c.host_interrupts)
        .u64(c.iohost_interrupts);
}

fn digest_reliability(d: &mut Digest, c: &ReliabilityCounters) {
    d.u64(c.block_sent)
        .u64(c.block_completed)
        .u64(c.retransmissions)
        .u64(c.device_errors)
        .u64(c.stale_responses)
        .u64(c.rtt_samples)
        .u64(c.heartbeats_sent)
        .u64(c.heartbeat_acks)
        .u64(c.probes_missed)
        .u64(c.failovers)
        .u64(c.failbacks)
        .u64(c.channel_drops)
        .u64(c.injected_losses)
        .u64(c.injected_delay_spikes)
        .u64(c.injected_duplicates);
}

fn digest_ring_ops(d: &mut Digest, o: &RingOps) {
    d.u64(o.chains_published)
        .u64(o.used_reaped)
        .u64(o.driver_kicks)
        .u64(o.chains_popped)
        .u64(o.used_pushed)
        .u64(o.driver_signals)
        .u64(o.kicks_suppressed)
        .u64(o.signals_suppressed);
}

fn digest_slo(d: &mut Digest, slo: &SloLedger) {
    d.str(&slo.to_json().render());
}

/// Applies the batch-level digest checks: every repetition must match the
/// first (`reference`), and at [`DEFAULT_SEED`] the first must match the
/// committed digest.
pub fn check_digest(batch: &mut Batch, reference: u64, committed: Option<u64>) {
    let got = batch.digest();
    if got != reference {
        batch.fail_all(&format!(
            "nondeterministic: digest {got:016x} differs from this run's first batch {reference:016x}"
        ));
    }
    if let Some(want) = committed {
        if got != want {
            batch.fail_all(&format!(
                "digest {got:016x} differs from the committed {want:016x}"
            ));
        }
    }
}
