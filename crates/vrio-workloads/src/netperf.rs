//! Netperf: the UDP request-response (RR) latency benchmark and the TCP
//! stream throughput benchmark (paper §5, Figures 7–11 and 13).

use bytes::Bytes;
use vrio::{
    net_request_response, stream_batch, HasTestbed, Oracle, RingOps, RrOutcome, Testbed,
    TestbedConfig,
};
use vrio_hv::{EventCounters, ReliabilityCounters};
use vrio_sim::{Engine, Histogram, ProfReport, Profiler, SimDuration, SimTime};
use vrio_trace::{SloLedger, TelemetryExport, Tracer};

/// Results of a netperf RR run.
#[derive(Debug)]
pub struct RrResult {
    /// Mean request-response latency in microseconds.
    pub mean_latency_us: f64,
    /// Full latency distribution (microseconds) for tail analysis.
    pub histogram: Histogram,
    /// Completed request-responses.
    pub completed: u64,
    /// Aggregate requests/second across all VMs.
    pub requests_per_sec: f64,
    /// Fraction of backend charges that queued (Fig 8's contention).
    pub contention: f64,
    /// Accumulated Table 3 event counters.
    pub counters: EventCounters,
    /// Aggregated reliability accounting for the run.
    pub reliability: ReliabilityCounters,
    /// The run's tracer (inert when the config left tracing off):
    /// buffered events, open/ended spans, and the latency breakdown.
    pub trace: Tracer,
    /// The run's oracle (inert when the config left it off): invariant
    /// check counts and any recorded violations.
    pub oracle: Oracle,
    /// Time-series telemetry export (empty when sampling was off).
    pub telemetry: TelemetryExport,
    /// Wall-clock self-profile (empty when profiling was off). Host
    /// wall-clock data — never part of byte-identity comparisons.
    pub profile: ProfReport,
    /// Per-tenant SLO accounting and drop attribution for the run.
    pub slo: SloLedger,
    /// Aggregated virtqueue operation counters (kicks, signals, and their
    /// suppressed counterparts) — the only surface a ring-layout change is
    /// allowed to alter.
    pub ring_ops: RingOps,
}

struct RrWorld {
    tb: Testbed,
    hist: Histogram,
    completed: u64,
    measuring: bool,
    deadline: SimTime,
    /// Server-side work per transaction.
    app: SimDuration,
    /// Response bytes.
    resp: usize,
}

impl RrWorld {
    /// Issues VM `vm`'s next transaction, tagged with the VM.
    fn issue(&mut self, eng: &mut Engine<RrWorld>, vm: usize) {
        let (resp, app) = (self.resp, self.app);
        net_request_response(
            self,
            eng,
            vm,
            Bytes::from_static(b"?"),
            resp,
            app,
            vm as u64,
        );
    }
}

impl HasTestbed for RrWorld {
    fn tb(&mut self) -> &mut Testbed {
        &mut self.tb
    }

    fn on_rr(&mut self, eng: &mut Engine<Self>, vm: u64, outcome: RrOutcome) {
        if self.measuring {
            self.hist.push(outcome.latency.as_micros_f64());
            self.completed += 1;
        }
        if eng.now() < self.deadline {
            self.issue(eng, vm as usize);
        }
    }
}

/// Runs netperf UDP RR: every VM runs a closed loop of 1-byte
/// request-response transactions for `duration` (after a 10 % warmup that
/// is excluded from the statistics).
///
/// # Examples
///
/// ```
/// use vrio::TestbedConfig;
/// use vrio_hv::IoModel;
/// use vrio_sim::SimDuration;
/// use vrio_workloads::netperf_rr;
///
/// let r = netperf_rr(TestbedConfig::simple(IoModel::Optimum, 1), SimDuration::millis(20));
/// assert!(r.completed > 100);
/// assert!(r.mean_latency_us > 20.0 && r.mean_latency_us < 45.0);
/// ```
pub fn netperf_rr(config: TestbedConfig, duration: SimDuration) -> RrResult {
    netperf_rr_sized(config, duration, 1)
}

/// [`netperf_rr`] with a configurable response size in bytes (the sweep
/// engine's message-size axis). `resp_len = 1` is the classic 1-byte RR.
pub fn netperf_rr_sized(config: TestbedConfig, duration: SimDuration, resp_len: usize) -> RrResult {
    assert!(
        resp_len > 0,
        "netperf RR response must be at least one byte"
    );
    let app_time = SimDuration::micros(4); // netperf server-side work
    let warmup = duration / 10;
    let deadline = SimTime::ZERO + warmup + duration;
    let num_vms = config.num_vms;
    let mut world = RrWorld {
        tb: Testbed::new(config),
        hist: Histogram::new(),
        completed: 0,
        measuring: false,
        deadline,
        app: app_time,
        resp: resp_len,
    };
    let mut eng: Engine<RrWorld> = Engine::new();
    eng.set_profiler(Profiler::new(world.tb.config.profile));
    world.tb.install_probe(&mut eng);
    schedule_telemetry_grid(&world.tb, &mut eng, deadline);

    for vm in 0..num_vms {
        world.issue(&mut eng, vm);
    }
    // End of warmup: reset all measurement state.
    fn end_warmup(w: &mut RrWorld, _: &mut Engine<RrWorld>, _: u64) {
        w.measuring = true;
        w.tb.reset_counters();
        for b in &mut w.tb.backends {
            b.waited = 0;
            b.served = 0;
        }
    }
    eng.schedule_at(SimTime::ZERO + warmup, end_warmup, 0);
    eng.run(&mut world);
    world.tb.export_thread_tracks();
    world.tb.oracle.finish();
    world.tb.oracle.audit_pool("skb pool", &world.tb.skb_pool);

    let tb = world.tb;
    RrResult {
        mean_latency_us: world.hist.mean(),
        requests_per_sec: world.completed as f64 / duration.as_secs_f64(),
        completed: world.completed,
        contention: tb.backend_contention(),
        counters: tb.counters,
        reliability: tb.reliability_report(),
        telemetry: tb.telemetry.export(),
        profile: eng.profiler().export(),
        ring_ops: tb.ring_ops(),
        // A clone, not a move: it sheds the latency histograms' spare
        // capacity, which adds up over the hundreds of results a sweep keeps.
        slo: tb.slo.clone(),
        trace: tb.trace,
        oracle: tb.oracle,
        histogram: world.hist,
    }
}

/// Schedules the fixed telemetry sampling grid: one observe-only mark
/// per interval through `deadline`, as one lazily queued series
/// ([`Engine::schedule_series`]). The grid is fixed up front (rather than
/// self-rescheduling) so the run still terminates when the workload
/// drains; marks only read state, so runs with the grid are bit-identical
/// to runs without it.
pub(crate) fn schedule_telemetry_grid<W: HasTestbed>(
    tb: &Testbed,
    eng: &mut Engine<W>,
    deadline: SimTime,
) {
    let Some(interval) = tb.telemetry.interval() else {
        return;
    };
    fn sample<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, _: u64) {
        let _g = eng.profiler().scope("telemetry.sample");
        w.tb().sample_telemetry(eng.now());
    }
    eng.schedule_series(SimTime::ZERO + interval, interval, deadline, sample::<W>, 0);
}

/// Results of a netperf stream run.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// Aggregate goodput in Gbps.
    pub gbps: f64,
    /// Messages delivered.
    pub messages: u64,
    /// Mean VM-side (VM cores + backend cores) CPU cycles per message —
    /// the paper's Figure 10 metric.
    pub cycles_per_msg: f64,
    /// The run's oracle (inert when the config left it off).
    pub oracle: Oracle,
    /// Time-series telemetry export (empty when sampling was off).
    pub telemetry: TelemetryExport,
    /// Wall-clock self-profile (empty when profiling was off).
    pub profile: ProfReport,
    /// Per-tenant SLO accounting and drop attribution for the run.
    pub slo: SloLedger,
    /// Aggregated virtqueue operation counters for the run.
    pub ring_ops: RingOps,
}

/// Messages per stream batch: the ring-batch granularity.
const BATCH: u64 = 256;

struct StreamWorld {
    tb: Testbed,
    delivered_msgs: u64,
    measuring: bool,
    deadline: SimTime,
    busy_at_warmup: SimDuration,
    msg_bytes: u64,
}

impl StreamWorld {
    /// Sends one more batch from VM `vm`, tagged with the VM.
    fn pump(&mut self, eng: &mut Engine<StreamWorld>, vm: usize) {
        let msg_bytes = self.msg_bytes;
        stream_batch(self, eng, vm, BATCH, msg_bytes, vm as u64);
    }
}

impl HasTestbed for StreamWorld {
    fn tb(&mut self) -> &mut Testbed {
        &mut self.tb
    }

    fn on_stream(&mut self, eng: &mut Engine<Self>, vm: u64) {
        if self.measuring {
            self.delivered_msgs += BATCH;
        }
        if eng.now() < self.deadline {
            self.pump(eng, vm as usize);
        }
    }
}

/// Runs netperf TCP stream: every VM keeps `window` batches of `batch`
/// 64-byte messages in flight toward its generator for `duration`.
///
/// # Examples
///
/// ```
/// use vrio::TestbedConfig;
/// use vrio_hv::IoModel;
/// use vrio_sim::SimDuration;
/// use vrio_workloads::netperf_stream;
///
/// let r = netperf_stream(TestbedConfig::simple(IoModel::Elvis, 1), SimDuration::millis(20));
/// assert!(r.gbps > 0.5, "one VM streams about a gigabit: {}", r.gbps);
/// ```
pub fn netperf_stream(config: TestbedConfig, duration: SimDuration) -> StreamResult {
    netperf_stream_sized(config, duration, 64) // the paper's 64B stress size
}

/// [`netperf_stream`] with a configurable message size in bytes (the sweep
/// engine's message-size axis).
pub fn netperf_stream_sized(
    config: TestbedConfig,
    duration: SimDuration,
    msg_bytes: u64,
) -> StreamResult {
    const WINDOW: usize = 4; // batches in flight per VM
    assert!(
        msg_bytes > 0,
        "netperf stream message must be at least one byte"
    );

    let warmup = duration / 10;
    let deadline = SimTime::ZERO + warmup + duration;
    let num_vms = config.num_vms;
    let mut world = StreamWorld {
        tb: Testbed::new(config),
        delivered_msgs: 0,
        measuring: false,
        deadline,
        busy_at_warmup: SimDuration::ZERO,
        msg_bytes,
    };
    let mut eng: Engine<StreamWorld> = Engine::new();
    eng.set_profiler(Profiler::new(world.tb.config.profile));
    world.tb.install_probe(&mut eng);
    schedule_telemetry_grid(&world.tb, &mut eng, deadline);

    for vm in 0..num_vms {
        for _ in 0..WINDOW {
            world.pump(&mut eng, vm);
        }
    }
    fn end_warmup(w: &mut StreamWorld, _: &mut Engine<StreamWorld>, _: u64) {
        w.measuring = true;
        w.busy_at_warmup = w.tb.vmside_busy();
    }
    eng.schedule_at(SimTime::ZERO + warmup, end_warmup, 0);
    eng.run(&mut world);
    world.tb.oracle.finish();
    world.tb.oracle.audit_pool("skb pool", &world.tb.skb_pool);

    let bits = world.delivered_msgs * msg_bytes * 8;
    let gbps = bits as f64 / duration.as_secs_f64() / 1e9;
    let busy = world.tb.vmside_busy() - world.busy_at_warmup;
    let ghz = world.tb.config.costs.core_ghz;
    let cycles_per_msg = if world.delivered_msgs == 0 {
        0.0
    } else {
        busy.as_secs_f64() * ghz * 1e9 / world.delivered_msgs as f64
    };
    let tb = world.tb;
    StreamResult {
        gbps,
        messages: world.delivered_msgs,
        cycles_per_msg,
        telemetry: tb.telemetry.export(),
        profile: eng.profiler().export(),
        ring_ops: tb.ring_ops(),
        slo: tb.slo.clone(),
        oracle: tb.oracle,
    }
}

/// Convenience: a latency percentile table from an RR histogram
/// (the paper's Table 4 rows).
pub fn tail_percentiles(hist: &Histogram) -> [(f64, f64); 4] {
    [
        (99.9, hist.percentile(99.9)),
        (99.99, hist.percentile(99.99)),
        (99.999, hist.percentile(99.999)),
        (100.0, hist.percentile(100.0)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrio_hv::{table3_expected, IoModel};

    fn quick(model: IoModel, vms: usize) -> RrResult {
        netperf_rr(TestbedConfig::simple(model, vms), SimDuration::millis(30))
    }

    #[test]
    fn rr_latency_ordering_at_n1() {
        let opt = quick(IoModel::Optimum, 1);
        let vrio = quick(IoModel::Vrio, 1);
        let elvis = quick(IoModel::Elvis, 1);
        // Paper Fig 7: optimum < elvis < vrio at N=1.
        assert!(opt.mean_latency_us < elvis.mean_latency_us);
        assert!(elvis.mean_latency_us < vrio.mean_latency_us);
    }

    #[test]
    fn rr_counters_match_table3() {
        // Requests in flight at the warmup boundary contribute fractional
        // counts, so compare the rounded per-request rate.
        for model in IoModel::ALL {
            let r = quick(model, 1);
            let expected = table3_expected(model);
            let rate = |v: u64| (v as f64 / r.completed as f64).round() as u64;
            assert_eq!(
                rate(r.counters.sync_exits),
                expected.sync_exits,
                "{model} exits"
            );
            assert_eq!(
                rate(r.counters.guest_interrupts),
                expected.guest_interrupts,
                "{model} guest intrs"
            );
            assert_eq!(
                rate(r.counters.interrupt_injections),
                expected.interrupt_injections,
                "{model} injections"
            );
            assert_eq!(
                rate(r.counters.host_interrupts),
                expected.host_interrupts,
                "{model} host intrs"
            );
            assert_eq!(
                rate(r.counters.iohost_interrupts),
                expected.iohost_interrupts,
                "{model} iohost intrs"
            );
        }
    }

    #[test]
    fn stream_scales_with_vms() {
        let one = netperf_stream(
            TestbedConfig::simple(IoModel::Optimum, 1),
            SimDuration::millis(20),
        );
        let four = netperf_stream(
            TestbedConfig::simple(IoModel::Optimum, 4),
            SimDuration::millis(20),
        );
        assert!(
            four.gbps > one.gbps * 2.5,
            "one={} four={}",
            one.gbps,
            four.gbps
        );
    }

    #[test]
    fn stream_cycles_per_msg_ordering() {
        let d = SimDuration::millis(20);
        let opt = netperf_stream(TestbedConfig::simple(IoModel::Optimum, 1), d);
        let elvis = netperf_stream(TestbedConfig::simple(IoModel::Elvis, 1), d);
        let vrio = netperf_stream(TestbedConfig::simple(IoModel::Vrio, 1), d);
        let base = netperf_stream(TestbedConfig::simple(IoModel::Baseline, 1), d);
        // Fig 10: +0% / ~+1% / ~+9% / ~+40%.
        assert!(elvis.cycles_per_msg >= opt.cycles_per_msg);
        assert!(vrio.cycles_per_msg > elvis.cycles_per_msg);
        assert!(base.cycles_per_msg > vrio.cycles_per_msg);
        let ratio = base.cycles_per_msg / opt.cycles_per_msg;
        assert!(ratio > 1.25 && ratio < 1.6, "baseline ratio {ratio}");
    }
}
