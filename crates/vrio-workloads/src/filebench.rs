//! Filebench personalities over the testbed's block path (paper §5,
//! Figures 14–16).
//!
//! Each VM runs `threads` Filebench threads on its single VCPU. A thread
//! loops: CPU burst → block I/O → wakeup → next burst. Elvis/baseline
//! wakeups go through [`vrio_hv::GuestCpu::wake`] (a per-completion IPI
//! that preempts the running thread), while vRIO wakeups use
//! `wake_deferred` (NAPI-style batched completion handling at the next
//! yield point) — the mechanism behind the paper's counterintuitive
//! Figure 14 result, where Elvis guests suffer involuntary context
//! switches "two orders of magnitude" more often and lose to vRIO at two
//! reader/writer pairs.

use vrio::{blk_request, BlkOutcome, HasTestbed, Oracle, Testbed, TestbedConfig};
use vrio_block::{BlockRequest, RequestId};
use vrio_hv::{IoModel, ReliabilityCounters};
use vrio_sim::{Engine, SimDuration, SimTime};
use vrio_trace::Tracer;

use bytes::Bytes;

/// A Filebench personality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Personality {
    /// `randomread`: N reader threads of 4 KB random reads (Fig 14 uses
    /// 1 thread = "1 reader", 2 = "1 pair", 4 = "2 pairs" with half of the
    /// threads writing).
    RandomIo {
        /// Reader threads per VM.
        readers: usize,
        /// Writer threads per VM.
        writers: usize,
    },
    /// The `Webserver` personality: 4 threads serving ~28 KB files as
    /// seven 4 KB chunk reads plus a periodic log append (Figs 15–16).
    Webserver {
        /// Bursty (on/off) load per VMhost — the Fig 15 traces need it;
        /// the Fig 16b imbalance experiment uses steady load (its
        /// imbalance is spatial, between hosts).
        bursty: bool,
    },
    /// The `Fileserver` personality: mixed whole-file reads and writes
    /// (50 threads in real Filebench; 4 here, matching the VCPU budget),
    /// ~32 KB ops split into 4 KB chunks, write-heavy.
    Fileserver,
    /// The `Varmail` personality: mail-server pattern — small reads,
    /// small appends, and an fsync (a virtio-blk flush) after every
    /// append. Exercises the flush path end to end.
    Varmail,
}

/// Result of a Filebench run.
#[derive(Debug, Clone)]
pub struct FilebenchResult {
    /// Aggregate operations per second across all VMs.
    pub ops_per_sec: f64,
    /// Aggregate payload throughput in Mbps (the Fig 16 unit).
    pub mbps: f64,
    /// Total involuntary context switches across all guests.
    pub involuntary_switches: u64,
    /// Total voluntary switches.
    pub voluntary_switches: u64,
    /// Per-backend-core utilization over the run (Fig 15's averages).
    pub backend_utilization: Vec<f64>,
    /// Per-backend-core utilization traces in 1 ms windows (Fig 15's
    /// curves).
    pub backend_traces: Vec<Vec<f64>>,
    /// Aggregated reliability accounting for the run.
    pub reliability: ReliabilityCounters,
    /// The run's tracer (inert when the config left tracing off).
    pub trace: Tracer,
    /// The run's oracle (inert when the config left it off).
    pub oracle: Oracle,
    /// Time-series telemetry export (empty when sampling was off).
    pub telemetry: vrio_trace::TelemetryExport,
    /// Wall-clock self-profile (empty when profiling was off).
    pub profile: vrio_sim::ProfReport,
    /// Aggregated virtqueue operation counters for the run.
    pub ring_ops: vrio::RingOps,
}

struct FbWorld {
    tb: Testbed,
    /// Load-generation RNG, independent of the testbed's (model-consumed)
    /// stream so every I/O model sees the identical offered load.
    load_rng: vrio_sim::SimRng,
    ops: u64,
    bytes: u64,
    measuring: bool,
    deadline: SimTime,
    next_req_id: u64,
    /// Per-VM time of the last completion interrupt, for coalescing.
    last_wake: Vec<SimTime>,
    /// Per-VMhost on/off burst phase end (webserver only): load waves
    /// arrive at a host's webserver VMs together.
    phase_off_until: Vec<SimTime>,
    bursty: bool,
    /// The Filebench threads of every VM; events and block requests name
    /// a thread by its index here.
    threads: Vec<Thread>,
}

impl HasTestbed for FbWorld {
    fn tb(&mut self) -> &mut Testbed {
        &mut self.tb
    }

    /// A block request of thread `t` completed.
    fn on_blk(&mut self, eng: &mut Engine<Self>, t: u64, _: BlkOutcome) {
        let th = &mut self.threads[t as usize];
        if th.pending == 0 {
            // The op's chunks all completed before its fsync was issued.
            return finish_op(self, eng, t);
        }
        let vm = th.spec.vm;
        // The completion wakes the thread. Under Elvis and the
        // baseline, each completion is a per-request IPI/injection that
        // preempts whatever thread is running (an involuntary switch
        // when the VCPU is busy). Under vRIO the transport's NAPI-style
        // driver handles completions in batches at the guest's next
        // natural yield point, so no preemption occurs -- the mechanism
        // behind the paper's "two orders of magnitude" involuntary-
        // switch difference and the Figure 14c crossover.
        let model = self.tb.config.model;
        let now = eng.now();
        let costs = self.tb.config.costs.clone();
        // Completions landing back-to-back (the sidecore finishing a
        // readahead batch) coalesce into one interrupt for every model.
        let coalesced = now - self.last_wake[vm] < SimDuration::micros(6);
        self.last_wake[vm] = now;
        let ready = if matches!(model, IoModel::Vrio | IoModel::VrioNoPoll) || coalesced {
            self.tb.vms[vm].cpu.wake_deferred(now, &costs)
        } else {
            self.tb.vms[vm].cpu.wake(now, &costs).0
        };
        let th = &mut self.threads[t as usize];
        th.pending -= 1;
        if th.pending == 0 {
            // Last chunk: optionally fsync, then the op completes.
            eng.schedule_at(ready, chunks_done, t);
        }
    }
}

impl FbWorld {
    fn fresh_id(&mut self) -> RequestId {
        self.next_req_id += 1;
        RequestId(self.next_req_id)
    }
}

const CHUNK: u32 = 4096;

/// What every write chunk carries; shared, so issuing a write copies and
/// allocates nothing.
static WRITE_CHUNK: [u8; CHUNK as usize] = [0xA5; CHUNK as usize];

/// One Filebench thread.
struct Thread {
    spec: ThreadSpec,
    /// Chunks of the current op still in flight.
    pending: u32,
}

#[derive(Debug, Clone, Copy)]
struct ThreadSpec {
    vm: usize,
    writer: bool,
    /// CPU burst per op.
    burst: SimDuration,
    /// Chunks per op (7 for the webserver's 28 KB files, 1 for random I/O).
    chunks: u32,
    /// Issue a flush after the op's writes complete (varmail's fsync).
    fsync: bool,
}

/// Runs thread `t`'s next op: a CPU burst, then its block I/O.
fn thread_loop(w: &mut FbWorld, eng: &mut Engine<FbWorld>, t: u64) {
    if eng.now() >= w.deadline {
        return;
    }
    let spec = w.threads[t as usize].spec;
    // Webserver burstiness: if the VM's host is in an off phase, sleep
    // through it. Phases are driven by wall-clock timers (see
    // `drive_phase`), so the duty cycle is identical across I/O models.
    let off_until = w.phase_off_until[w.tb.vm_host[spec.vm]];
    if w.bursty && eng.now() < off_until {
        eng.schedule_at(off_until, thread_loop, t);
        return;
    }

    // CPU burst on the VCPU.
    let burst = w.load_rng.lognormal_duration(spec.burst, 0.2);
    let end = w.tb.vms[spec.vm].cpu.run(eng.now(), burst);
    eng.schedule_at(end, issue_op, t);
}

/// Issues thread `t`'s chunk reads/writes. Multi-chunk ops (the
/// webserver's 28 KB files) issue all chunks at once — guest readahead —
/// and the thread resumes when the last completion lands
/// ([`FbWorld::on_blk`]).
fn issue_op(w: &mut FbWorld, eng: &mut Engine<FbWorld>, t: u64) {
    let spec = w.threads[t as usize].spec;
    w.threads[t as usize].pending = spec.chunks;
    for _ in 0..spec.chunks {
        let id = w.fresh_id();
        let cap = w.tb.config.block_capacity as u64;
        let max_sector = (cap / 512).saturating_sub(u64::from(CHUNK) / 512 + 1);
        let sector = (w.load_rng.uniform_u64(max_sector) / 8) * 8; // 4K-aligned
        let req = if spec.writer {
            BlockRequest::write(id, sector, Bytes::from_static(&WRITE_CHUNK))
        } else {
            BlockRequest::read(id, sector, CHUNK)
        };
        blk_request(w, eng, spec.vm, req, t);
    }
}

/// Thread `t`'s chunks have all completed and it is awake: it fsyncs if
/// its op calls for one, else the op completes.
fn chunks_done(w: &mut FbWorld, eng: &mut Engine<FbWorld>, t: u64) {
    let spec = w.threads[t as usize].spec;
    if spec.fsync && spec.writer {
        let id = w.fresh_id();
        blk_request(w, eng, spec.vm, BlockRequest::flush(id), t);
    } else {
        finish_op(w, eng, t);
    }
}

/// Starts a thread running `spec`.
fn start_thread(w: &mut FbWorld, eng: &mut Engine<FbWorld>, spec: ThreadSpec) {
    w.threads.push(Thread { spec, pending: 0 });
    thread_loop(w, eng, w.threads.len() as u64 - 1);
}

fn finish_op(w: &mut FbWorld, eng: &mut Engine<FbWorld>, t: u64) {
    if w.measuring {
        w.ops += 1;
        w.bytes += u64::from(w.threads[t as usize].spec.chunks) * u64::from(CHUNK);
    }
    thread_loop(w, eng, t);
}

/// Runs a Filebench personality on every VM of the testbed for `duration`
/// (plus a 10 % warmup excluded from statistics).
///
/// # Examples
///
/// ```
/// use vrio::TestbedConfig;
/// use vrio_hv::IoModel;
/// use vrio_sim::SimDuration;
/// use vrio_workloads::{run_filebench, Personality};
///
/// let r = run_filebench(
///     TestbedConfig::simple(IoModel::Elvis, 1),
///     Personality::RandomIo { readers: 1, writers: 0 },
///     SimDuration::millis(30),
/// );
/// assert!(r.ops_per_sec > 1_000.0);
/// ```
pub fn run_filebench(
    config: TestbedConfig,
    personality: Personality,
    duration: SimDuration,
) -> FilebenchResult {
    run_filebench_with(config, personality, duration, |_| {})
}

/// Like [`run_filebench`], with a hook to customize the freshly built
/// testbed (e.g. install an interposition chain for the paper's
/// encryption-under-imbalance experiment, Fig 16b).
/// Drives a VMhost's on/off load phases: on for ~exp(25 ms), off for
/// ~exp(25 ms) — a ~50 % duty cycle independent of the I/O model's speed.
fn drive_phase(w: &mut FbWorld, eng: &mut Engine<FbWorld>, host: u64) {
    debug_assert_eq!(host, 0, "one rack-wide phase driver");
    if eng.now() >= w.deadline {
        return;
    }
    let on = w.load_rng.exp_duration(SimDuration::millis(25));
    let off = w.load_rng.exp_duration(SimDuration::millis(25));
    eng.schedule_in(on, phase_off, off.as_nanos());
}

/// An on phase ended: every host goes quiet for `off` nanoseconds, then
/// the next phase starts.
fn phase_off(w: &mut FbWorld, eng: &mut Engine<FbWorld>, off: u64) {
    let off = SimDuration::nanos(off);
    let until = eng.now() + off;
    for h in &mut w.phase_off_until {
        *h = until;
    }
    eng.schedule_in(off, drive_phase, 0);
}

/// Like [`run_filebench`], with a hook to customize the freshly built
/// testbed — e.g. install an interposition chain for the paper's
/// encryption-under-imbalance experiment (Fig 16b).
pub fn run_filebench_with(
    config: TestbedConfig,
    personality: Personality,
    duration: SimDuration,
    setup: impl FnOnce(&mut Testbed),
) -> FilebenchResult {
    let warmup = duration / 10;
    let deadline = SimTime::ZERO + warmup + duration;
    let num_vms = config.num_vms;
    let num_hosts = config.num_vmhosts.max(1);
    let mut tb = Testbed::new(config);
    setup(&mut tb);
    let load_rng = vrio_sim::SimRng::seed_from(tb.config.seed ^ 0x10AD_5EED);
    let mut world = FbWorld {
        tb,
        load_rng,
        ops: 0,
        bytes: 0,
        measuring: false,
        deadline,
        next_req_id: 0,
        last_wake: vec![SimTime::ZERO; num_vms],
        phase_off_until: vec![SimTime::ZERO; num_hosts],
        bursty: matches!(personality, Personality::Webserver { bursty: true }),
        threads: Vec::new(),
    };
    let mut eng: Engine<FbWorld> = Engine::new();
    eng.set_profiler(vrio_sim::Profiler::new(world.tb.config.profile));
    world.tb.install_probe(&mut eng);
    crate::netperf::schedule_telemetry_grid(&world.tb, &mut eng, deadline);

    for vm in 0..num_vms {
        match personality {
            Personality::RandomIo { readers, writers } => {
                for t in 0..readers + writers {
                    let spec = ThreadSpec {
                        vm,
                        writer: t >= readers,
                        burst: SimDuration::micros(10),
                        chunks: 1,
                        fsync: false,
                    };
                    start_thread(&mut world, &mut eng, spec);
                }
            }
            Personality::Webserver { .. } => {
                for t in 0..4 {
                    let spec = ThreadSpec {
                        vm,
                        // One of the four threads handles the log appends.
                        writer: t == 3,
                        burst: SimDuration::micros(150),
                        chunks: 7, // a mean 28 KB file as 4 KB chunks
                        fsync: false,
                    };
                    start_thread(&mut world, &mut eng, spec);
                }
            }
            Personality::Fileserver => {
                for t in 0..4 {
                    let spec = ThreadSpec {
                        vm,
                        // Write-heavy: half the threads write whole files.
                        writer: t % 2 == 0,
                        burst: SimDuration::micros(60),
                        chunks: 8, // ~32 KB files
                        fsync: false,
                    };
                    start_thread(&mut world, &mut eng, spec);
                }
            }
            Personality::Varmail => {
                for t in 0..4 {
                    let spec = ThreadSpec {
                        vm,
                        // Mail pattern: appenders fsync after every write.
                        writer: t % 2 == 0,
                        burst: SimDuration::micros(25),
                        chunks: 2, // small messages
                        fsync: t % 2 == 0,
                    };
                    start_thread(&mut world, &mut eng, spec);
                }
            }
        }
    }

    if world.bursty {
        drive_phase(&mut world, &mut eng, 0);
    }
    fn end_warmup(w: &mut FbWorld, _: &mut Engine<FbWorld>, _: u64) {
        w.measuring = true;
    }
    eng.schedule_at(SimTime::ZERO + warmup, end_warmup, 0);
    eng.run(&mut world);
    world.tb.export_thread_tracks();
    world.tb.oracle.finish();
    world.tb.oracle.audit_pool("skb pool", &world.tb.skb_pool);

    let horizon = deadline;
    let window = SimDuration::millis(1);
    let mut tb = world.tb;
    let (inv, vol) = tb.vms.iter().fold((0, 0), |(i, v), vm| {
        (
            i + vm.cpu.involuntary_switches(),
            v + vm.cpu.voluntary_switches(),
        )
    });
    FilebenchResult {
        ops_per_sec: world.ops as f64 / duration.as_secs_f64(),
        mbps: world.bytes as f64 * 8.0 / duration.as_secs_f64() / 1e6,
        involuntary_switches: inv,
        voluntary_switches: vol,
        backend_utilization: tb
            .backends
            .iter()
            .map(|b| b.busy.utilization(horizon))
            .collect(),
        backend_traces: tb
            .backends
            .iter()
            .map(|b| b.busy.utilization_trace(horizon, window))
            .collect(),
        reliability: tb.reliability_report(),
        telemetry: std::mem::take(&mut tb.telemetry).export(),
        profile: eng.profiler().export(),
        ring_ops: tb.ring_ops(),
        trace: tb.trace,
        oracle: tb.oracle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(model: IoModel, readers: usize, writers: usize, vms: usize) -> FilebenchResult {
        run_filebench(
            TestbedConfig::simple(model, vms),
            Personality::RandomIo { readers, writers },
            SimDuration::millis(40),
        )
    }

    #[test]
    fn one_reader_elvis_beats_vrio() {
        // Fig 14a: with one reader, latency dominates: elvis > vrio > base.
        let elvis = run(IoModel::Elvis, 1, 0, 2);
        let vrio = run(IoModel::Vrio, 1, 0, 2);
        assert!(
            elvis.ops_per_sec > vrio.ops_per_sec * 1.1,
            "elvis {} vrio {}",
            elvis.ops_per_sec,
            vrio.ops_per_sec
        );
    }

    #[test]
    fn two_pairs_vrio_overtakes_elvis() {
        // Fig 14c: with 2 reader/writer pairs, Elvis's involuntary context
        // switches drag it below vRIO.
        let elvis = run(IoModel::Elvis, 2, 2, 2);
        let vrio = run(IoModel::Vrio, 2, 2, 2);
        assert!(
            vrio.ops_per_sec > elvis.ops_per_sec,
            "vrio {} elvis {}",
            vrio.ops_per_sec,
            elvis.ops_per_sec
        );
        // ...and the switch counts differ by well over an order of magnitude.
        assert!(
            elvis.involuntary_switches > vrio.involuntary_switches * 10,
            "elvis {} vrio {}",
            elvis.involuntary_switches,
            vrio.involuntary_switches
        );
    }

    #[test]
    fn fileserver_and_varmail_run_on_every_interposable_model() {
        for personality in [Personality::Fileserver, Personality::Varmail] {
            for model in [IoModel::Elvis, IoModel::Vrio, IoModel::Baseline] {
                let r = run_filebench(
                    TestbedConfig::simple(model, 1),
                    personality,
                    SimDuration::millis(20),
                );
                assert!(
                    r.ops_per_sec > 500.0,
                    "{personality:?} on {model}: {}",
                    r.ops_per_sec
                );
            }
        }
    }

    #[test]
    fn varmail_fsyncs_slow_it_down() {
        // The same thread structure without fsync (fileserver-ish with 2
        // chunks) must outrun varmail's flush-per-append.
        let varmail = run_filebench(
            TestbedConfig::simple(IoModel::Vrio, 2),
            Personality::Varmail,
            SimDuration::millis(30),
        );
        let no_sync = run_filebench(
            TestbedConfig::simple(IoModel::Vrio, 2),
            Personality::RandomIo {
                readers: 2,
                writers: 2,
            },
            SimDuration::millis(30),
        );
        assert!(
            varmail.ops_per_sec < no_sync.ops_per_sec,
            "varmail {} vs random {}",
            varmail.ops_per_sec,
            no_sync.ops_per_sec
        );
    }

    #[test]
    fn webserver_runs_and_uses_backends() {
        let r = run_filebench(
            TestbedConfig::simple(IoModel::Elvis, 2),
            Personality::Webserver { bursty: true },
            SimDuration::millis(50),
        );
        assert!(r.ops_per_sec > 100.0);
        assert!(r.backend_utilization[0] > 0.005);
        assert!(!r.backend_traces[0].is_empty());
    }
}
