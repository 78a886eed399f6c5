//! The rack testbed: the discrete-event orchestration that wires VMs, NIC
//! rings, links, sidecores/workers and block devices into the five I/O
//! model configurations the paper evaluates (§5), over the substrate
//! crates.
//!
//! A benchmark flow (one netperf request-response, one stream batch, one
//! block request) is compiled into a program of plain-data [`Step`]s —
//! fixed latencies, FIFO charges against cores/links/devices,
//! event-counter increments, and named data steps for the real plumbing
//! (virtqueue operations, the IOhost arrival gate, vRIO encapsulation,
//! interposition, the retransmission transport) — which a small
//! interpreter executes as engine events. Queueing, contention and
//! saturation all emerge from the FIFO charges; no queueing formula is
//! baked in anywhere.
//!
//! Layout: this module holds the configuration, the [`Testbed`] rack
//! and its observers; `flow` holds the step program, its interpreter and
//! the data steps the flows share; `net` the request-response, fallback
//! and stream flows; `blk` the block flows and their retransmission
//! protocol.

mod blk;
mod flow;
mod net;

use bytes::Bytes;
use vrio_block::{DeviceProfile, Ramdisk};
use vrio_hv::ReliabilityCounters;
use vrio_hv::{BlkCompletion, CostModel, EventCounters, GuestCpu, IoModel, Vm, VmId};
use vrio_net::{FaultConfig, FaultInjector, Reassembler, Segment, SkbPool};
use vrio_sim::{BusyTracker, Engine, SimDuration, SimRng, SimTime};
use vrio_trace::{SloLedger, Telemetry, TelemetryConfig, TraceConfig, Tracer, TrackId, TrackKind};

use vrio_virtio::RingConfig;

use crate::admission::{AdmissionConfig, AdmissionControl};
use crate::health::{
    validate_outage_schedule, HealthConfig, HealthState, Outage, RedundancyMonitor, Route,
};
use crate::interpose::{Direction, InterpositionChain, Verdict};
use crate::iohost::{AdaptivePollConfig, PollMode, WorkerPoll};
use crate::oracle::{Oracle, OracleConfig};
use crate::proto::DeviceId;
use crate::transport::{BlockRetx, RetxConfig};

pub use blk::blk_request;
use flow::{CoreRef, CounterKind, FlowTable, Slab, Step};
pub use net::{net_request_response, stream_batch};

/// Gives the engine world access to the embedded [`Testbed`] and hands it
/// the outcomes of the flows it issued; workload crates wrap a `Testbed`
/// plus their own state and implement this.
///
/// Each flow names its issuer's state by a caller-chosen `tag` (a VM, a
/// thread, a table index). The outcome methods panic by default, naming
/// the flow kind, so a world that issues a flow kind must take its
/// outcomes; a bare [`Testbed`] world discards them.
pub trait HasTestbed: Sized {
    /// The embedded testbed.
    fn tb(&mut self) -> &mut Testbed;

    /// The request-response issued with `tag`
    /// ([`net_request_response`]) completed.
    fn on_rr(&mut self, eng: &mut Engine<Self>, tag: u64, outcome: RrOutcome) {
        let _ = (eng, outcome);
        panic!("request-response {tag} completed in a world without on_rr");
    }

    /// The block request issued with `tag` ([`blk_request`]) completed.
    fn on_blk(&mut self, eng: &mut Engine<Self>, tag: u64, outcome: BlkOutcome) {
        let _ = (eng, outcome);
        panic!("block request {tag} completed in a world without on_blk");
    }

    /// The stream batch issued with `tag` ([`stream_batch`]) was received.
    fn on_stream(&mut self, eng: &mut Engine<Self>, tag: u64) {
        let _ = eng;
        panic!("stream batch {tag} completed in a world without on_stream");
    }
}

impl HasTestbed for Testbed {
    fn tb(&mut self) -> &mut Testbed {
        self
    }

    fn on_rr(&mut self, _: &mut Engine<Self>, _: u64, _: RrOutcome) {}

    fn on_blk(&mut self, _: &mut Engine<Self>, _: u64, _: BlkOutcome) {}

    fn on_stream(&mut self, _: &mut Engine<Self>, _: u64) {}
}

/// A FIFO-serialized resource (a core or a shared machine resource).
#[derive(Debug, Default, Clone)]
pub struct Resource {
    /// Busy-time accounting (utilization, Fig 15 traces). Only backends
    /// log their busy intervals (Filebench utilization traces, Chrome
    /// thread tracks); the other resources keep totals.
    pub busy: BusyTracker,
    /// Packets/requests that found the resource busy and queued (Fig 8).
    pub waited: u64,
    /// Total charges.
    pub served: u64,
    /// Undrained packets currently designated for this resource (the rx
    /// ring occupancy model for the §4.5 overflow ablation).
    pub pending: u64,
}

impl Resource {
    /// An idle resource that keeps only busy totals, no interval log.
    fn totals_only() -> Self {
        Resource {
            busy: BusyTracker::totals_only(),
            ..Resource::default()
        }
    }

    /// Charges `work` at `t`, returning the completion instant.
    pub fn charge(&mut self, t: SimTime, work: SimDuration) -> SimTime {
        if self.busy.is_busy_at(t) {
            self.waited += 1;
        }
        self.served += 1;
        self.busy.charge(t, work)
    }
}

/// Static configuration of a testbed experiment.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Which I/O model to run.
    pub model: IoModel,
    /// Number of VMs, spread round-robin across VMhosts.
    pub num_vms: usize,
    /// Number of VMhosts (each with its own generator machine).
    pub num_vmhosts: usize,
    /// Backend cores: per-VMhost sidecores/vhost cores for Elvis/baseline,
    /// total IOhost workers for vRIO.
    pub backend_cores: usize,
    /// RNG seed (experiments are bit-reproducible per seed).
    pub seed: u64,
    /// The cost model.
    pub costs: CostModel,
    /// Link bandwidth in Gbps.
    pub link_gbps: f64,
    /// Per-traversal latency (PHY + switch store-and-forward).
    pub hop_latency: SimDuration,
    /// IOhost receive-ring capacity (512 vs 4096, §4.5).
    pub iohost_rx_ring: u64,
    /// Frame-loss probability on the VMhost/IOhost channel.
    pub channel_loss: f64,
    /// Model the generators' NUMA penalty (the Fig 13a artifact).
    pub numa_generators: bool,
    /// Block device performance profile.
    pub block_profile: DeviceProfile,
    /// Bytes of backing store per VM block device.
    pub block_capacity: usize,
    /// Log-normal sigma applied to service-time charges (0 = deterministic).
    pub service_jitter: f64,
    /// Enable the per-model rare-outlier tail model (Table 4).
    pub tail_model: bool,
    /// Retransmission parameters for vRIO block traffic.
    pub retx: RetxConfig,
    /// §4.6 energy extension: when set, idle vRIO workers enter a
    /// monitor/mwait low-power state and pay this extra wake-up latency on
    /// the next packet (trading latency for polling energy).
    pub sidecore_mwait_wake: Option<SimDuration>,
    /// §4.6 fault tolerance: per-IOhost crash/recover schedules. Index `k`
    /// is IOhost `k`'s schedule, sorted and non-overlapping; hosts past
    /// the end are never down. While the primary is down, net front-ends
    /// fail over to a backup or to regular local virtio once the health
    /// monitor detects the crash (vhost work runs on the VM's own cores —
    /// vRIO VMhosts have no sidecores); in-flight and new block requests
    /// fail through the retransmission machinery, as when the storage
    /// "resides exclusively on the IOhost". When a host recovers,
    /// heartbeats are acked again, the health monitors fail back, and net
    /// traffic returns to it. Must not name more than
    /// [`TestbedConfig::num_iohosts`] hosts.
    pub outages: Vec<Vec<Outage>>,
    /// Number of IOhosts in each VMhost's ordered preference list (N+1
    /// redundancy). With more than one, vRIO traffic fails over primary →
    /// backup(s) → local virtio and fails back in reverse as hosts
    /// recover; the default of 1 reproduces the PR 1 primary-or-local
    /// ladder exactly.
    pub num_iohosts: usize,
    /// Overload-aware admission control at each IOhost (queue-depth
    /// backpressure, weighted per-tenant shedding, circuit breaker).
    /// Disabled by default — a disabled controller admits everything and
    /// accounts nothing, keeping existing runs byte-identical.
    pub admission: AdmissionConfig,
    /// Health state machine knobs (heartbeat period, failover/failback
    /// thresholds).
    pub health: HealthConfig,
    /// Channel fault injection: Gilbert–Elliott bursty loss, delay
    /// spikes, response duplication. Disabled by default, and a disabled
    /// injector draws no randomness at all.
    pub faults: FaultConfig,
    /// Request-lifecycle tracing. `Off` by default; enabling it is
    /// observe-only — the tracer draws no randomness and schedules no
    /// events, so traced runs are bit-identical to untraced ones.
    pub trace: TraceConfig,
    /// The simulation oracle (see [`crate::Oracle`]). Off by default;
    /// like tracing, enabling it is observe-only and bit-identical — the
    /// oracle owns no RNG and schedules no events, it only checks
    /// invariants inline at lifecycle marks and flow boundaries.
    pub oracle: OracleConfig,
    /// Continuous time-series telemetry (see [`vrio_trace::Telemetry`]).
    /// Off by default; like tracing, enabling it is observe-only — the
    /// sampler reads state on a fixed simulated-time grid, draws no
    /// randomness and schedules nothing through the testbed, so sampled
    /// runs stay bit-identical to unsampled ones.
    pub telemetry: TelemetryConfig,
    /// Wall-clock self-profiling (see [`vrio_sim::Profiler`]): the
    /// workloads give the run's engine an enabled profiler. Off by
    /// default. Profiler output is host wall-clock data — inherently
    /// nondeterministic — and is emitted as separate `PROF_*` artifacts
    /// that are never part of any byte-identity gate.
    pub profile: bool,
    /// Per-tenant latency SLO threshold: a completed request at or under
    /// this latency counts toward SLO attainment in the drop-attribution
    /// ledger.
    pub slo: SimDuration,
    /// The negotiated virtqueue layout for every VM
    /// (split/split-eventidx/packed, indirect tables). Split-basic by
    /// default, which reproduces the seed byte-identically; other layouts
    /// change only ring geometry and notification accounting, never
    /// payloads or flow outcomes.
    pub ring: RingConfig,
    /// Adaptive poll↔interrupt switching for the backend workers.
    /// Disabled by default (every arrival rings a doorbell, as before).
    pub adaptive_poll: AdaptivePollConfig,
}

impl TestbedConfig {
    /// The paper's simplest setup (Fig 6): one VMhost, one generator, N
    /// VMs, one sidecore/worker, calibrated costs, no jitter.
    pub fn simple(model: IoModel, num_vms: usize) -> Self {
        TestbedConfig {
            model,
            num_vms,
            num_vmhosts: 1,
            backend_cores: 1,
            seed: 1,
            costs: CostModel::calibrated(),
            link_gbps: 10.0,
            hop_latency: SimDuration::nanos(1_500),
            iohost_rx_ring: vrio_net::RX_RING_LARGE as u64,
            channel_loss: 0.0,
            numa_generators: false,
            block_profile: DeviceProfile::ramdisk(),
            block_capacity: 1 << 20,
            service_jitter: 0.0,
            tail_model: false,
            retx: RetxConfig::default(),
            sidecore_mwait_wake: None,
            outages: Vec::new(),
            num_iohosts: 1,
            admission: AdmissionConfig::default(),
            health: HealthConfig::default(),
            faults: FaultConfig::default(),
            trace: TraceConfig::off(),
            oracle: OracleConfig::off(),
            telemetry: TelemetryConfig::off(),
            profile: false,
            slo: SimDuration::micros(200),
            ring: RingConfig::split_basic(),
            adaptive_poll: AdaptivePollConfig::disabled(),
        }
    }

    /// Enables the stochastic service-time and tail models (Table 4 runs).
    pub fn with_tails(mut self) -> Self {
        self.service_jitter = 0.03;
        self.tail_model = true;
        self
    }

    // -----------------------------------------------------------------
    // Scenario-builder API: chainable knobs for constructing the grid of
    // configurations a parallel sweep expands. `TestbedConfig` is plain
    // data (`Send`), so a spec built on the coordinator thread crosses
    // into a worker thread, which constructs its private `Testbed` there
    // — scenario isolation by construction.
    // -----------------------------------------------------------------

    /// Sets the RNG seed (sweeps derive one per scenario via
    /// [`vrio_sim::scenario_seed`]).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of backend cores: total IOhost workers for vRIO,
    /// per-VMhost sidecores/vhost cores for the local models.
    pub fn with_backend_cores(mut self, cores: usize) -> Self {
        self.backend_cores = cores;
        self
    }

    /// Sets the number of VMhosts.
    pub fn with_vmhosts(mut self, n: usize) -> Self {
        self.num_vmhosts = n;
        self
    }

    /// Sets the log-normal service-time jitter sigma.
    pub fn with_jitter(mut self, sigma: f64) -> Self {
        self.service_jitter = sigma;
        self
    }

    /// Sets the number of IOhosts in the redundancy ladder.
    pub fn with_iohosts(mut self, n: usize) -> Self {
        self.num_iohosts = n;
        self
    }

    /// Sets the continuous-telemetry sampling configuration.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enables the wall-clock self-profiler.
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the per-tenant latency SLO threshold.
    pub fn with_slo(mut self, slo: SimDuration) -> Self {
        self.slo = slo;
        self
    }

    /// Sets the virtqueue layout every VM negotiates.
    pub fn with_ring(mut self, ring: RingConfig) -> Self {
        self.ring = ring;
        self
    }

    /// Sets the backend workers' adaptive poll configuration.
    pub fn with_adaptive_poll(mut self, poll: AdaptivePollConfig) -> Self {
        self.adaptive_poll = poll;
        self
    }
}

// A worker thread must be able to receive a scenario's config and build
// its testbed locally; this trips at compile time if a non-`Send` field
// (an `Rc`, a raw pointer) ever sneaks into the spec types.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TestbedConfig>();
};

/// Outcome of one network request-response.
#[derive(Debug, Clone)]
pub struct RrOutcome {
    /// End-to-end latency as the generator measured it.
    pub latency: SimDuration,
    /// The response payload the generator received.
    pub response: Bytes,
}

/// Outcome of one block request.
#[derive(Debug, Clone)]
pub struct BlkOutcome {
    /// Latency from submission to front-end completion.
    pub latency: SimDuration,
    /// Virtio status (`BLK_S_OK` or `BLK_S_IOERR` after retx exhaustion).
    pub status: u8,
    /// Data read (for reads).
    pub data: Bytes,
}

/// Chrome-trace track (tid) reserved for channel fault-injection markers.
pub const TRACK_FAULTS: u32 = 900;
/// Base tid of the per-VM request-lifecycle tracks (`base + vm`).
pub const TRACK_REQ_BASE: u32 = 1000;
/// Base tid of the per-VM VCPU busy tracks (`base + vm`).
pub const TRACK_VCPU_BASE: u32 = 2000;
/// Base tid of the per-backend (sidecore/worker) busy tracks (`base + i`).
pub const TRACK_WORKER_BASE: u32 = 3000;
/// Base tid of the per-VMhost route-transition instant tracks (`base + h`).
pub const TRACK_ROUTE_BASE: u32 = 4000;
/// Base tid of the per-IOhost admission-breaker instant tracks (`base + k`).
pub const TRACK_BREAKER_BASE: u32 = 5000;

/// Health-ladder states as a stable telemetry ordinal (the gauge value of
/// the `health.vmhost{h}.iohost{k}.state` tracks).
fn health_state_ordinal(state: HealthState) -> f64 {
    match state {
        HealthState::Healthy => 0.0,
        HealthState::Suspect => 1.0,
        HealthState::FailedOver => 2.0,
        HealthState::Probing => 3.0,
        HealthState::Recovered => 4.0,
    }
}

/// The trace track carrying VM `vm`'s request-lifecycle spans.
pub fn req_track(vm: usize) -> u32 {
    TRACK_REQ_BASE + vm as u32
}

/// The handles of the tracks [`Testbed::sample_telemetry`] records,
/// interned once, at the first sample, so that sampling formats no track
/// names. Each vector runs parallel to the testbed part it samples.
#[derive(Clone)]
struct TelemetryTracks {
    /// Per IOhost, per worker: `steer.iohost{k}.worker{w}.depth`.
    steer_depth: Vec<Vec<TrackId>>,
    /// Per backend: `backend.{b}.pending`.
    backend_pending: Vec<TrackId>,
    /// Per backend: `poll.backend{b}.{mode,doorbells,polled}`.
    poll: Vec<[TrackId; 3]>,
    /// Per VM, per queue:
    /// `ring.vm{v}.{queue}.{free,inflight,kicks_suppressed,signals_suppressed}`.
    ring: Vec<[[TrackId; 4]; 3]>,
    /// Per VMhost: `health.vmhost{h}.route`, then per ladder target
    /// `health.vmhost{h}.iohost{k}.state`.
    health: Vec<(TrackId, Vec<TrackId>)>,
    /// Per IOhost: `admission.iohost{k}.{offered,shed,breaker_open}`.
    admission: Vec<[TrackId; 3]>,
    /// `retx.outstanding`.
    retx_outstanding: TrackId,
    /// Per tenant VM: `slo.vm{v}.{p50_us,p99_us,completed}`.
    slo: Vec<[TrackId; 3]>,
}

/// The telemetry sampler's own state, built at the first sample: its
/// tracks, and the values it last read where rereading is the cost,
/// with what they were read at. A value is reread only when that moved,
/// so every sample records what a fresh read would.
#[derive(Clone)]
struct Sampler {
    tracks: TelemetryTracks,
    /// Per VM: the queue epochs ([`Vm::ring_epochs`]) at the last read
    /// (`u64::MAX` before the first), and per queue the free, in-flight,
    /// kicks-suppressed and signals-suppressed gauges then read. A queue
    /// audit changes only with its epoch.
    rings: Vec<([u64; Vm::QUEUES], [[f64; 4]; Vm::QUEUES])>,
    /// Per tenant: its latency histogram's count at the last read
    /// (`u64::MAX` before the first), and the p50 and p99 then read. The
    /// histogram only grows, so its percentiles change only with its
    /// count.
    slo: Vec<(u64, [f64; 2])>,
}

impl Sampler {
    fn new(tb: &Testbed, tm: &mut Telemetry) -> Self {
        Sampler {
            tracks: TelemetryTracks::intern(tb, tm),
            rings: vec![([u64::MAX; Vm::QUEUES], [[0.0; 4]; Vm::QUEUES]); tb.vms.len()],
            slo: vec![(u64::MAX, [0.0; 2]); tb.slo.tenants().len()],
        }
    }
}

impl TelemetryTracks {
    /// Interns every track on `tm`, the telemetry taken out of `tb`.
    fn intern(tb: &Testbed, tm: &mut Telemetry) -> Self {
        use TrackKind::{Counter, Gauge};
        let mut track = |name: String, kind| tm.track(&name, kind);
        TelemetryTracks {
            steer_depth: tb
                .steering
                .iter()
                .enumerate()
                .map(|(k, steer)| {
                    (0..steer.workers())
                        .map(|w| track(format!("steer.iohost{k}.worker{w}.depth"), Gauge))
                        .collect()
                })
                .collect(),
            backend_pending: (0..tb.backends.len())
                .map(|b| track(format!("backend.{b}.pending"), Gauge))
                .collect(),
            poll: (0..tb.worker_poll.len())
                .map(|b| {
                    [
                        track(format!("poll.backend{b}.mode"), Gauge),
                        track(format!("poll.backend{b}.doorbells"), Counter),
                        track(format!("poll.backend{b}.polled"), Counter),
                    ]
                })
                .collect(),
            ring: tb
                .vms
                .iter()
                .enumerate()
                .map(|(v, vm)| {
                    vm.ring_audit().map(|q| {
                        let queue = format!("ring.vm{v}.{}", q.name);
                        [
                            track(format!("{queue}.free"), Gauge),
                            track(format!("{queue}.inflight"), Gauge),
                            track(format!("{queue}.kicks_suppressed"), Counter),
                            track(format!("{queue}.signals_suppressed"), Counter),
                        ]
                    })
                })
                .collect(),
            health: tb
                .health
                .iter()
                .enumerate()
                .map(|(h, ladder)| {
                    let states = (0..ladder.targets().len())
                        .map(|k| track(format!("health.vmhost{h}.iohost{k}.state"), Gauge))
                        .collect();
                    (track(format!("health.vmhost{h}.route"), Gauge), states)
                })
                .collect(),
            admission: (0..tb.admission.len())
                .map(|k| {
                    [
                        track(format!("admission.iohost{k}.offered"), Counter),
                        track(format!("admission.iohost{k}.shed"), Counter),
                        track(format!("admission.iohost{k}.breaker_open"), Gauge),
                    ]
                })
                .collect(),
            retx_outstanding: track("retx.outstanding".to_string(), Gauge),
            slo: (0..tb.slo.tenants().len())
                .map(|v| {
                    [
                        track(format!("slo.vm{v}.p50_us"), Gauge),
                        track(format!("slo.vm{v}.p99_us"), Gauge),
                        track(format!("slo.vm{v}.completed"), Counter),
                    ]
                })
                .collect(),
        }
    }
}

/// The instantiated rack. It is plain data and owns its observers, so a
/// clone, with a clone of its engine, forks the run.
#[derive(Clone)]
pub struct Testbed {
    /// The configuration this testbed was built from.
    pub config: TestbedConfig,
    /// Deterministic RNG.
    pub rng: SimRng,
    /// The VMs (real guest memory + virtqueues + VCPU each). The testbed
    /// moves a VM's rings only through `Testbed::rings`, which marks the
    /// VM for the oracle's next audit; rings moved from outside are not
    /// audited until the VM is next marked.
    pub vms: Vec<Vm>,
    /// VMhost index of each VM.
    pub vm_host: Vec<usize>,
    /// Generator core per VM.
    pub gen_cores: Vec<Resource>,
    /// Shared per-generator-machine resources (stream flattening).
    pub gen_machines: Vec<Resource>,
    /// Backend cores: Elvis sidecores / vhost cores (per host) or vRIO
    /// IOhost workers.
    pub backends: Vec<Resource>,
    /// Per-VMhost uplinks.
    pub host_links: Vec<Resource>,
    /// Per-IOhost uplinks (index 0 = primary).
    pub iohost_links: Vec<Resource>,
    /// Per-VM block devices (real ramdisk bytes + FIFO service).
    pub disks: Vec<Resource>,
    /// The actual backing stores.
    pub disk_stores: Vec<Ramdisk>,
    /// Per-IOhost worker steering tables (vRIO only); IOhost `k` owns
    /// global backend cores `[k·backend_cores, (k+1)·backend_cores)`.
    pub steering: Vec<crate::iohost::Steering>,
    /// Per-IOhost admission controllers (VMs are the tenants). Inert
    /// when [`TestbedConfig::admission`] is disabled.
    pub admission: Vec<AdmissionControl>,
    /// The IOhost index each VM's device state currently lives on, for
    /// deterministic steering handoffs across the redundancy ladder.
    pub vm_route: Vec<usize>,
    /// Device handoffs performed across the ladder (failover + failback).
    pub handoffs: u64,
    /// Accumulated Table 3 counters.
    pub counters: EventCounters,
    /// The interposition chain applied at the backend (empty by default;
    /// ignored by the non-interposable optimum).
    pub chain: InterpositionChain,
    /// Per-VM block retransmission state (vRIO only).
    pub retx: Vec<BlockRetx>,
    /// Per-VMhost redundancy ladders: one health monitor per IOhost
    /// target, folded into a route (§4.6 failover/failback, N+1).
    pub health: Vec<RedundancyMonitor>,
    /// The precomputed per-IOhost outage schedules the monitors probe
    /// against (index = IOhost).
    pub outages: Vec<Vec<Outage>>,
    /// The channel fault injector (disabled unless configured).
    pub faults: FaultInjector,
    /// RNG stream private to fault injection, so enabling an injector
    /// never perturbs the established workload streams.
    fault_rng: SimRng,
    /// Frames dropped on the channel (loss injection + ring overflow).
    pub channel_drops: u64,
    /// TSO message id allocator.
    next_msg_id: u32,
    /// Reassembler at the IOhost (exercised on large messages).
    pub reassembler: Reassembler,
    /// Pool recycling SKB buffers and fragment lists across requests
    /// (steady state: zero allocations per reassembled train).
    pub skb_pool: SkbPool,
    /// Scratch segment train reused by the blk TSO hot path.
    tso_scratch: Vec<Segment>,
    /// The canonical 0x5A response fill, as long as the longest response
    /// so far: every response is a refcounted slice of it, so per-request
    /// responses allocate nothing in steady state.
    resp_fill: Bytes,
    /// Recycled step storage: flows return their drained `Vec` here
    /// instead of dropping it, so compiling the next flow reuses warm
    /// capacity.
    step_pool: Vec<Vec<Step>>,
    /// The flows waiting on the engine.
    flows: FlowTable,
    /// The block requests in flight.
    blks: Slab<blk::BlkReq>,
    /// The id of the last request begun (`Testbed::begin_request`):
    /// requests are numbered from 1 in the order they begin.
    requests: u64,
    /// What the guest read of the last frame delivered to it; kept for
    /// its capacity.
    rx_read: Vec<u8>,
    /// Per VM: the armed retransmission timers of its block requests.
    retx_timers: Vec<Vec<blk::RetxTimer>>,
    /// Block completions just reaped; kept for its capacity.
    blk_reaped: Vec<BlkCompletion>,
    /// Request-lifecycle tracer (inert unless the config enables it).
    pub trace: Tracer,
    /// The simulation oracle (inert unless the config enables it).
    pub oracle: Oracle,
    /// Each VM's queue epochs at their last oracle audit (`u64::MAX`
    /// before the first; sized at the first mark), so a mark re-audits
    /// only the queues that moved.
    audited_epochs: Vec<[u64; Vm::QUEUES]>,
    /// One bit per VM whose rings [`Testbed::rings`] handed out since the
    /// last oracle audit: the VMs the next audit visits. Sized at the
    /// first audit, so with the oracle off marking is one length check.
    rings_moved: Vec<u64>,
    /// Debug builds: each VM's queue snapshots at their last oracle audit,
    /// against which every skipped audit is verified.
    #[cfg(debug_assertions)]
    audited_rings: Vec<[vrio_hv::QueueAudit; Vm::QUEUES]>,
    /// Time-series telemetry sampler (inert unless the config enables it).
    pub telemetry: Telemetry,
    /// The sampler's tracks and caches, built at the first sample.
    sampler: Option<Sampler>,
    /// Per-tenant SLO accounting and drop attribution. Always on: plain
    /// counters plus a log histogram — no RNG, no events — so it cannot
    /// perturb the simulation.
    pub slo: SloLedger,
    /// Per-backend-worker poll↔interrupt state machines. Inert (pure
    /// counting) when [`TestbedConfig::adaptive_poll`] is disabled.
    pub worker_poll: Vec<WorkerPoll>,
}

impl Testbed {
    /// Builds the rack described by `config`.
    pub fn new(config: TestbedConfig) -> Self {
        assert!(config.num_vms > 0 && config.num_vmhosts > 0 && config.backend_cores > 0);
        let rng = SimRng::seed_from(config.seed);
        let mut vms: Vec<Vm> = (0..config.num_vms)
            .map(|i| {
                let mut vm = Vm::with_rings(VmId(i), config.ring);
                vm.net_refill_rx().expect("fresh VM rx refill");
                vm
            })
            .collect();
        let vm_host: Vec<usize> = (0..config.num_vms)
            .map(|i| i % config.num_vmhosts)
            .collect();
        assert!(config.num_iohosts > 0, "at least one IOhost required");
        assert!(
            config.outages.len() <= config.num_iohosts,
            "outages names {} IOhosts but num_iohosts is {}",
            config.outages.len(),
            config.num_iohosts
        );
        // vRIO workers exist per IOhost; local models keep their per-host
        // sidecores/vhost cores and never touch the redundancy ladder.
        let n_backends = match config.model {
            IoModel::Vrio | IoModel::VrioNoPoll => config.backend_cores * config.num_iohosts,
            _ => config.backend_cores * config.num_vmhosts,
        };
        let disk_stores = (0..config.num_vms)
            .map(|_| Ramdisk::new(config.block_capacity))
            .collect();
        let retx_cfg = config
            .retx
            .validated()
            .expect("invalid retransmission config");
        let retx = (0..config.num_vms)
            .map(|_| BlockRetx::new(retx_cfg))
            .collect();
        let health_cfg = config.health.validated().expect("invalid health config");
        let health = (0..config.num_vmhosts)
            .map(|h| RedundancyMonitor::new(h as u32, health_cfg, config.num_iohosts))
            .collect();
        let faults = FaultInjector::new(config.faults.validated().expect("invalid fault config"));
        // A separate stream keyed off the seed: fault draws never consume
        // from (or shift) the workload stream.
        let fault_rng = SimRng::seed_from(config.seed ^ 0xFA17);
        let mut outages = config.outages.clone();
        outages.resize(config.num_iohosts, Vec::new());
        for (k, sched) in outages.iter().enumerate() {
            if let Err(e) = validate_outage_schedule(sched) {
                panic!("invalid outage schedule for iohost{k}: {e}");
            }
        }
        let mut trace = Tracer::new(&config.trace);
        if !trace.enabled() {
            // VCPU busy intervals feed only the Chrome thread tracks.
            for vm in &mut vms {
                vm.cpu = GuestCpu::totals_only();
            }
        }
        if trace.enabled() {
            let pid = IoModel::ALL
                .iter()
                .position(|m| *m == config.model)
                .unwrap_or(0) as u32;
            trace.set_process(pid, config.model.name());
            trace.set_thread_name(TRACK_FAULTS, "channel faults");
            for vm in 0..config.num_vms {
                trace.set_thread_name(req_track(vm), &format!("vm{vm} requests"));
                trace.set_thread_name(TRACK_VCPU_BASE + vm as u32, &format!("vm{vm} vcpu"));
            }
            for b in 0..n_backends {
                trace.set_thread_name(TRACK_WORKER_BASE + b as u32, &format!("backend{b}"));
            }
        }
        #[cfg(debug_assertions)]
        let audited_rings = vms.iter().map(Vm::ring_audit).collect();
        let oracle = Oracle::new(&config.oracle);
        let telemetry = Telemetry::new(&config.telemetry);
        let slo = SloLedger::new(config.num_vms, config.slo.as_micros_f64());
        Testbed {
            rng,
            vms,
            vm_host,
            gen_cores: (0..config.num_vms)
                .map(|_| Resource::totals_only())
                .collect(),
            gen_machines: (0..config.num_vmhosts)
                .map(|_| Resource::totals_only())
                .collect(),
            backends: (0..n_backends).map(|_| Resource::default()).collect(),
            host_links: (0..config.num_vmhosts)
                .map(|_| Resource::totals_only())
                .collect(),
            iohost_links: (0..config.num_iohosts)
                .map(|_| Resource::totals_only())
                .collect(),
            disks: (0..config.num_vms)
                .map(|_| Resource::totals_only())
                .collect(),
            disk_stores,
            steering: match config.model {
                IoModel::Vrio | IoModel::VrioNoPoll => (0..config.num_iohosts)
                    .map(|_| crate::iohost::Steering::new(config.backend_cores.max(1)))
                    .collect(),
                _ => vec![crate::iohost::Steering::new(n_backends.max(1))],
            },
            admission: (0..config.num_iohosts)
                .map(|_| AdmissionControl::new(config.admission.clone(), config.num_vms))
                .collect(),
            vm_route: vec![0; config.num_vms],
            handoffs: 0,
            counters: EventCounters::default(),
            chain: InterpositionChain::new(),
            retx,
            health,
            outages,
            faults,
            fault_rng,
            channel_drops: 0,
            next_msg_id: 1,
            reassembler: Reassembler::new(),
            skb_pool: SkbPool::new(),
            tso_scratch: Vec::new(),
            resp_fill: Bytes::new(),
            step_pool: Vec::new(),
            flows: FlowTable::default(),
            blks: Slab::default(),
            requests: 0,
            rx_read: Vec::new(),
            retx_timers: vec![Vec::new(); config.num_vms],
            blk_reaped: Vec::new(),
            trace,
            oracle,
            audited_epochs: Vec::new(),
            rings_moved: Vec::new(),
            #[cfg(debug_assertions)]
            audited_rings,
            telemetry,
            sampler: None,
            slo,
            worker_poll: (0..n_backends)
                .map(|_| WorkerPoll::new(config.adaptive_poll))
                .collect(),
            config,
        }
    }

    /// VM `vm`, for calls that can move its virtqueues: the testbed's one
    /// way to them, which marks the VM for the next oracle audit.
    pub(super) fn rings(&mut self, vm: usize) -> &mut Vm {
        if let Some(bits) = self.rings_moved.get_mut(vm / 64) {
            *bits |= 1 << (vm % 64);
        }
        &mut self.vms[vm]
    }

    /// Runs the oracle's descriptor-conservation audit over the VMs'
    /// virtqueues (no-op when the oracle is off). Invoked inline at every
    /// lifecycle mark, so ring laws are checked continuously while flows
    /// are mid-flight, not just at quiescence.
    ///
    /// Every queue state present at a mark is audited once. The audit
    /// visits, in VM order, only the VMs whose rings the testbed handed
    /// out (`Testbed::rings`) since the last one (every VM at the first),
    /// and of those only the queues whose epoch ([`Vm::ring_epochs`])
    /// moved: any other queue is still the one the last audit checked.
    /// Debug builds verify each skip against the snapshot the last audit
    /// took.
    pub fn audit_rings(&mut self) {
        if !self.oracle.enabled() {
            return;
        }
        let n = self.vms.len();
        if self.audited_epochs.is_empty() {
            self.audited_epochs = vec![[u64::MAX; Vm::QUEUES]; n];
            self.rings_moved = vec![0; n.div_ceil(64)];
            for v in 0..n {
                self.rings_moved[v / 64] |= 1 << (v % 64);
            }
        }
        #[cfg(debug_assertions)]
        for v in 0..n {
            if self.rings_moved[v / 64] & (1 << (v % 64)) == 0 {
                let vm = &self.vms[v];
                assert_eq!(
                    vm.ring_epochs(),
                    self.audited_epochs[v],
                    "{}: its rings moved unmarked",
                    vm.id
                );
                self.verify_unchanged(v, 0..Vm::QUEUES);
            }
        }
        for word in 0..self.rings_moved.len() {
            let mut bits = std::mem::take(&mut self.rings_moved[word]);
            while bits != 0 {
                self.audit_vm(word * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Audits the queues of VM `v` whose epoch moved since its last audit.
    fn audit_vm(&mut self, v: usize) {
        let vm = &self.vms[v];
        let epochs = vm.ring_epochs();
        for (q, &epoch) in epochs.iter().enumerate() {
            if self.audited_epochs[v][q] == epoch {
                #[cfg(debug_assertions)]
                self.verify_unchanged(v, q..q + 1);
                continue;
            }
            let audit = vm.queue_audit(q);
            self.oracle.audit_queue(vm.id.0, &audit);
            #[cfg(debug_assertions)]
            {
                self.audited_rings[v][q] = audit;
            }
        }
        self.audited_epochs[v] = epochs;
    }

    /// Debug builds: checks that VM `v`'s `queues` are what their last
    /// audit saw.
    #[cfg(debug_assertions)]
    fn verify_unchanged(&self, v: usize, queues: std::ops::Range<usize>) {
        let vm = &self.vms[v];
        for q in queues {
            assert_eq!(
                vm.queue_audit(q),
                self.audited_rings[v][q],
                "{}: a queue changed without an epoch bump",
                vm.id
            );
        }
    }

    /// Installs on `eng` the oracle's clock check as the observe-only
    /// event probe. With the oracle off, no probe is installed. The probe
    /// neither schedules nor draws randomness, so a probed run is
    /// bit-identical.
    pub fn install_probe<W: HasTestbed>(&self, eng: &mut Engine<W>) {
        fn probe<W: HasTestbed>(w: &mut W, now: SimTime) {
            w.tb().oracle.on_engine_event(now);
        }
        if self.oracle.enabled() {
            eng.set_probe(probe::<W>);
        }
    }

    /// The I/O model under test.
    pub fn model(&self) -> IoModel {
        self.config.model
    }

    fn resource(&mut self, r: CoreRef) -> &mut Resource {
        match r {
            CoreRef::Gen(i) => &mut self.gen_cores[i],
            CoreRef::Backend(i) => &mut self.backends[i],
            CoreRef::GenMachine(i) => &mut self.gen_machines[i],
            CoreRef::HostLink(i) => &mut self.host_links[i],
            CoreRef::IohostLink(i) => &mut self.iohost_links[i],
            CoreRef::Disk(i) => &mut self.disks[i],
        }
    }

    fn count(&mut self, kind: CounterKind) {
        match kind {
            CounterKind::Exit => self.counters.sync_exits += 1,
            CounterKind::GuestIntr => self.counters.guest_interrupts += 1,
            CounterKind::Injection => self.counters.interrupt_injections += 1,
            CounterKind::HostIntr => self.counters.host_interrupts += 1,
            CounterKind::IohostIntr => self.counters.iohost_interrupts += 1,
        }
    }

    /// Applies the configured service-time jitter to a base cost.
    pub fn jitter(&mut self, base: SimDuration) -> SimDuration {
        if self.config.service_jitter <= 0.0 || base.is_zero() {
            return base;
        }
        self.rng
            .lognormal_duration(base, self.config.service_jitter)
    }

    /// Draws a rare tail-outlier extra delay for one request (Table 4's
    /// per-model tail shapes: interrupt storms for Elvis/baseline, worker
    /// queueing spikes for vRIO, scheduler blips for the optimum).
    fn tail_extra(&mut self) -> SimDuration {
        if !self.config.tail_model {
            return SimDuration::ZERO;
        }
        let mixture: &[(f64, u64)] = match self.config.model {
            IoModel::Optimum => &[(1.0e-3, 5), (1.2e-4, 8), (5.0e-5, 180)],
            IoModel::Elvis => &[(1.0e-3, 20), (1.0e-4, 38), (4.0e-5, 430)],
            IoModel::Vrio => &[(1.5e-3, 18), (2.0e-4, 110), (4.0e-5, 210)],
            IoModel::VrioNoPoll => &[(2.0e-3, 25), (2.0e-4, 150), (4.0e-5, 250)],
            IoModel::Baseline => &[(2.0e-3, 30), (1.0e-4, 300)],
        };
        let mut extra = SimDuration::ZERO;
        for &(p, micros) in mixture {
            if self.rng.chance(p) {
                let scale = 0.8 + 0.4 * self.rng.uniform();
                extra += SimDuration::micros(micros) * scale;
            }
        }
        extra
    }

    /// Whether IOhost `iohost` is down at `now` (§4.6 fault tolerance):
    /// inside any of its scheduled outage windows. This is ground truth —
    /// frames to a down IOhost blackhole instantly; *routing* decisions
    /// instead go through the health monitors, which observe the crash
    /// with a heartbeat's worth of lag.
    pub fn iohost_failed(&self, iohost: usize, now: SimTime) -> bool {
        self.outages[iohost].iter().any(|o| o.covers(now))
    }

    /// Where VM `vm`'s vRIO traffic routes at `now`, per its VMhost's
    /// redundancy ladder: the first IOhost whose monitor is neither
    /// `FailedOver` nor `Probing`, or [`Route::Local`] when every target
    /// is down. The ladder is advanced to `now` first, so failover *and*
    /// failback happen at heartbeat granularity.
    pub fn net_route(&mut self, vm: usize, now: SimTime) -> Route {
        let host = self.vm_host[vm];
        self.health[host].advance_to(now, &self.outages);
        self.health[host].route()
    }

    /// The IOhost a vRIO block attempt targets at `now`. With a single
    /// IOhost the route is constant (the ladder is not consulted, keeping
    /// heartbeat accounting for blk-only runs identical to PR 1); with
    /// backups the attempt follows the ladder, and when everything is
    /// down it keeps hammering the primary — block storage has no local
    /// fallback, so the retransmission machinery carries the request
    /// until a host recovers or the attempt budget errors the device.
    fn blk_route(&mut self, vm: usize, now: SimTime) -> usize {
        if self.config.num_iohosts == 1 {
            return 0;
        }
        match self.net_route(vm, now) {
            Route::Remote(k) => k,
            Route::Local => 0,
        }
    }

    /// Offers one vRIO frame arrival to the fault injector's bursty-loss
    /// model; `true` means the channel ate it. Each injection here and in
    /// the two below emits an instant trace marker stamped `now` on the
    /// [`TRACK_FAULTS`] track when tracing is on.
    fn fault_drop(&mut self, now: SimTime) -> bool {
        let lost = self.faults.drop_frame(&mut self.fault_rng);
        if lost {
            self.trace.instant("fault_loss", TRACK_FAULTS, now);
        }
        lost
    }

    /// Draws the injected extra delay for one VMhost/IOhost channel
    /// traversal (zero unless delay spikes are enabled).
    fn fault_delay(&mut self, now: SimTime) -> SimDuration {
        let extra = self.faults.traversal_delay(&mut self.fault_rng);
        if !extra.is_zero() {
            self.trace.instant("fault_delay_spike", TRACK_FAULTS, now);
        }
        extra
    }

    /// Draws whether one block response gets duplicated in flight.
    fn fault_duplicate(&mut self, now: SimTime) -> bool {
        let dup = self.faults.duplicate_response(&mut self.fault_rng);
        if dup {
            self.trace.instant("fault_duplicate", TRACK_FAULTS, now);
        }
        dup
    }

    /// Aggregates the run's reliability accounting: retransmission and
    /// RTT-estimator state across VMs, health-monitor probe/transition
    /// counts across VMhosts, and injected-fault totals.
    pub fn reliability_report(&self) -> ReliabilityCounters {
        let mut c = ReliabilityCounters {
            channel_drops: self.channel_drops,
            ..Default::default()
        };
        for r in &self.retx {
            c.block_sent += r.stats.sent;
            c.block_completed += r.stats.completed;
            c.retransmissions += r.stats.retransmissions;
            c.device_errors += r.stats.device_errors;
            c.stale_responses += r.stats.stale_responses;
            c.rtt_samples += r.stats.rtt_samples;
        }
        for ladder in &self.health {
            for h in ladder.targets() {
                c.heartbeats_sent += h.stats.heartbeats_sent;
                c.heartbeat_acks += h.stats.acks_received;
                c.probes_missed += h.stats.probes_missed;
                c.failovers += h.stats.failovers;
                c.failbacks += h.stats.failbacks;
            }
        }
        c.injected_losses = self.faults.stats.ge_losses;
        c.injected_delay_spikes = self.faults.stats.delay_spikes;
        c.injected_duplicates = self.faults.stats.duplicates;
        c
    }

    /// Pickup delay at a polling worker: the poll interval, plus the
    /// mwait wake-up penalty when the worker was idle (the §4.6 energy
    /// tradeoff).
    fn pickup_delay(&self, backend: usize, now: SimTime) -> SimDuration {
        let mut d = self.config.costs.poll_pickup;
        if let Some(wake) = self.config.sidecore_mwait_wake {
            if !self.backends[backend].busy.is_busy_at(now) {
                d += wake;
            }
        }
        d
    }

    /// Wire serialization time for `bytes` at the configured link rate.
    fn wire(&self, bytes: usize) -> SimDuration {
        SimDuration::for_bytes_at_gbps(bytes as u64, self.config.link_gbps)
    }

    /// Generator core extras: the NUMA penalty of Fig 13a. Generator cores
    /// 0–2 sit on the NIC-local socket; core 3+ cross the interconnect,
    /// and each additional remote core raises DRAM latency further.
    fn gen_extra(&self, vm: usize) -> SimDuration {
        if !self.config.numa_generators {
            return SimDuration::ZERO;
        }
        let local_index = vm / self.config.num_vmhosts; // round-robin spread
        if local_index < 3 {
            SimDuration::ZERO
        } else {
            self.config.costs.numa_penalty * (1.0 + 0.25 * (local_index - 3) as f64)
        }
    }

    /// Picks the global backend core index for `vm` on IOhost `iohost`
    /// and accounts steering. Placement happens inside the target host's
    /// own steering table (least-loaded among *its* workers); the return
    /// value is the global backend index. When the VM's traffic lands on
    /// a different IOhost than its last request, the in-flight ledger is
    /// re-pinned there via a sanctioned handoff and `handoffs` counts it.
    fn pick_backend_at(&mut self, vm: usize, iohost: usize) -> usize {
        match self.config.model {
            IoModel::Vrio | IoModel::VrioNoPoll => {
                let dev = DeviceId {
                    client: vm as u32,
                    device: 0,
                };
                let wid = self.steering[iohost].assign(dev);
                let global = iohost * self.config.backend_cores + wid.0;
                if self.vm_route[vm] == iohost {
                    self.oracle.steer_assign(dev.client, global);
                } else {
                    self.vm_route[vm] = iohost;
                    self.handoffs += 1;
                    self.oracle.steer_handoff(dev.client, global);
                }
                global
            }
            _ => {
                // Local models: VMs of a host share its backend cores.
                let host = self.vm_host[vm];
                let within = vm / self.config.num_vmhosts;
                host * self.config.backend_cores + (within % self.config.backend_cores)
            }
        }
    }

    /// Releases a steering designation after the worker pass (vRIO). The
    /// owning IOhost's table is derived from the global backend index the
    /// request was placed on, so completions land on the same table that
    /// assigned them even if the VM has since failed over elsewhere.
    fn release_backend(&mut self, vm: usize, backend: usize) {
        if matches!(self.config.model, IoModel::Vrio | IoModel::VrioNoPoll) {
            self.oracle.steer_release(vm as u32);
            let table = backend / self.config.backend_cores.max(1);
            self.steering[table].complete(DeviceId {
                client: vm as u32,
                device: 0,
            });
        }
    }

    /// Fraction of backend charges that had to queue (Fig 8's contention).
    pub fn backend_contention(&self) -> f64 {
        let (waited, served) = self
            .backends
            .iter()
            .fold((0u64, 0u64), |(w, s), b| (w + b.waited, s + b.served));
        if served == 0 {
            0.0
        } else {
            waited as f64 / served as f64
        }
    }

    /// Total busy time on the *VMhost's* cores: VM cores plus local
    /// backends (Elvis sidecores / vhost cores). vRIO's workers run at the
    /// IOhost and are excluded, matching how the paper measures per-packet
    /// cycles (Fig 10) on the VMhost.
    pub fn vmside_busy(&self) -> SimDuration {
        let vm_busy: SimDuration = self.vms.iter().map(|v| v.cpu.busy_time()).sum();
        if matches!(self.config.model, IoModel::Vrio | IoModel::VrioNoPoll) {
            return vm_busy;
        }
        let be_busy: SimDuration = self.backends.iter().map(|b| b.busy.busy()).sum();
        vm_busy + be_busy
    }

    /// The canonical `len`-byte 0x5A response payload, a slice of the
    /// shared fill.
    fn resp_payload(&mut self, len: usize) -> Bytes {
        if self.resp_fill.len() < len {
            self.resp_fill = Bytes::from(vec![0x5Au8; len]);
        }
        self.resp_fill.slice(..len)
    }

    fn fresh_msg_id(&mut self) -> u32 {
        let id = self.next_msg_id;
        self.next_msg_id = self.next_msg_id.wrapping_add(1).max(1);
        id
    }

    /// CPU cost of interposing on `len` bytes (zero when the chain is
    /// empty or the model cannot interpose).
    pub fn interpose_cost(&self, len: usize) -> SimDuration {
        if self.chain.is_empty() || !self.config.model.is_interposable() {
            return SimDuration::ZERO;
        }
        self.chain.cost_only(&self.config.costs, len)
    }

    /// Transforms `data` through the chain (cost must have been charged
    /// separately via [`Self::interpose_cost`]). Drop verdicts pass the
    /// data unchanged — block data is not subject to packet filtering.
    pub fn interpose_transform(&mut self, dir: Direction, data: Bytes) -> Bytes {
        self.interpose(dir, data.clone()).0.unwrap_or(data)
    }

    /// Runs a payload through the interposition chain at a backend,
    /// returning the transformed payload (or `None` if dropped) and the
    /// CPU cost to charge.
    fn interpose(&mut self, dir: Direction, payload: Bytes) -> (Option<Bytes>, SimDuration) {
        if self.chain.is_empty() || !self.config.model.is_interposable() {
            return (Some(payload), SimDuration::ZERO);
        }
        let costs = self.config.costs.clone();
        let (verdict, cost) = self.chain.apply(&costs, dir, payload);
        match verdict {
            Verdict::Pass(p) => (Some(p), cost),
            Verdict::Drop { .. } => (None, cost),
        }
    }
}

impl Testbed {
    /// Resets the Table 3 counters (for per-request accounting tests).
    pub fn reset_counters(&mut self) {
        self.counters = EventCounters::default();
    }

    /// Replays the VCPU and backend busy intervals into the tracer as
    /// per-core "thread" tracks (Chrome trace `tid`s
    /// `TRACK_VCPU_BASE + vm` and `TRACK_WORKER_BASE + backend`).
    /// Call once at end of run, after the engine has drained; a no-op when
    /// tracing is off.
    pub fn export_thread_tracks(&mut self) {
        if !self.trace.enabled() {
            return;
        }
        for (i, vm) in self.vms.iter().enumerate() {
            let tid = TRACK_VCPU_BASE + i as u32;
            for &(start, end) in vm.cpu.busy_intervals() {
                self.trace.slice("vcpu_busy", tid, start, end);
            }
        }
        for (b, be) in self.backends.iter().enumerate() {
            let tid = TRACK_WORKER_BASE + b as u32;
            for &(start, end) in be.busy.intervals() {
                self.trace.slice("backend_busy", tid, start, end);
            }
        }
        // Health-ladder route transitions and admission breaker trips as
        // timestamped instants: which IOhost (or local fallback) each
        // VMhost routed to when, and every breaker open/close window.
        for (h, ladder) in self.health.iter().enumerate() {
            if ladder.route_log.is_empty() {
                continue;
            }
            let tid = TRACK_ROUTE_BASE + h as u32;
            self.trace.set_thread_name(tid, &format!("vmhost{h} route"));
            for &(at, route) in &ladder.route_log {
                let name = match route {
                    Route::Remote(_) => "route_remote",
                    Route::Local => "route_local",
                };
                self.trace.instant(name, tid, at);
            }
        }
        for (k, adm) in self.admission.iter().enumerate() {
            if adm.breaker_log.is_empty() {
                continue;
            }
            let tid = TRACK_BREAKER_BASE + k as u32;
            self.trace
                .set_thread_name(tid, &format!("iohost{k} breaker"));
            for &(opened_at, closes_at) in &adm.breaker_log {
                self.trace.instant("breaker_open", tid, opened_at);
                self.trace.instant("breaker_close", tid, closes_at);
            }
        }
    }

    /// Records one fixed-grid telemetry sample at `now`: steering queue
    /// depths, backend occupancy, virtqueue audit gauges, health-ladder
    /// routes and states, admission counters, outstanding block
    /// retransmissions, and per-tenant SLO percentiles. A no-op when
    /// telemetry is off.
    ///
    /// Sampling is observe-only: it writes only the samples and the
    /// sampler's own cache, and draws no randomness and schedules nothing,
    /// so runs with sampling enabled stay bit-identical to runs without
    /// (the telemetry bit-identity suite proves it end to end). The cache
    /// spares rereads: queue gauges are reread only for queues whose
    /// epoch moved, and a tenant's percentiles only when its latency
    /// count moved.
    pub fn sample_telemetry(&mut self, now: SimTime) {
        if !self.telemetry.enabled() {
            return;
        }
        if self.sampler.is_none() {
            let mut tm = std::mem::take(&mut self.telemetry);
            self.sampler = Some(Sampler::new(self, &mut tm));
            self.telemetry = tm;
        }
        let Some(Sampler {
            tracks: ids,
            rings,
            slo,
        }) = &mut self.sampler
        else {
            unreachable!("the sampler was built above");
        };
        self.telemetry.sample(now, |s| {
            for (steer, depth) in self.steering.iter().zip(&ids.steer_depth) {
                for (w, &id) in depth.iter().enumerate() {
                    s.record(id, steer.load_of(crate::iohost::WorkerId(w)) as f64);
                }
            }
            for (be, &id) in self.backends.iter().zip(&ids.backend_pending) {
                s.record(id, be.pending as f64);
            }
            for (wp, &[mode, doorbells, polled]) in self.worker_poll.iter().zip(&ids.poll) {
                let polling = match wp.mode() {
                    PollMode::Interrupt => 0.0,
                    PollMode::Polling => 1.0,
                };
                s.record(mode, polling);
                s.record(doorbells, wp.doorbells as f64);
                s.record(polled, wp.polled_arrivals as f64);
            }
            for ((vm, queues), (read_at, gauges)) in self.vms.iter().zip(&ids.ring).zip(rings) {
                let epochs = vm.ring_epochs();
                for q in 0..Vm::QUEUES {
                    if read_at[q] != epochs[q] {
                        let a = vm.queue_audit(q);
                        gauges[q] = [
                            a.free_descriptors as f64,
                            f64::from(a.in_flight_chains),
                            a.driver.kicks_suppressed as f64,
                            a.device.signals_suppressed as f64,
                        ];
                    }
                }
                *read_at = epochs;
                for (ids, values) in queues.iter().zip(gauges.iter()) {
                    for (&id, &value) in ids.iter().zip(values) {
                        s.record(id, value);
                    }
                }
            }
            for (ladder, (route_id, states)) in self.health.iter().zip(&ids.health) {
                let route = match ladder.route() {
                    Route::Remote(k) => k as f64,
                    Route::Local => self.config.num_iohosts as f64,
                };
                s.record(*route_id, route);
                for (mon, &id) in ladder.targets().iter().zip(states) {
                    s.record(id, health_state_ordinal(mon.state()));
                }
            }
            for (adm, &[offered, shed, breaker]) in self.admission.iter().zip(&ids.admission) {
                s.record(offered, adm.total_offered() as f64);
                s.record(shed, adm.total_shed() as f64);
                s.record(breaker, f64::from(u8::from(adm.breaker_open(now))));
            }
            let outstanding: usize = self.retx.iter().map(BlockRetx::outstanding).sum();
            s.record(ids.retx_outstanding, outstanding as f64);
            for ((t, &[p50, p99, completed]), (read_at, pcts)) in
                self.slo.tenants().iter().zip(&ids.slo).zip(slo)
            {
                let count = t.latency.count();
                if *read_at != count {
                    *read_at = count;
                    *pcts = [t.latency.percentile(50.0), t.latency.percentile(99.0)];
                }
                s.record(p50, pcts[0]);
                s.record(p99, pcts[1]);
                s.record(completed, t.completed as f64);
            }
        });
    }

    /// Aggregated virtqueue operation counters across every VM's queues —
    /// the notification-economics surface (kicks, signals, suppression)
    /// that ring-layout ablations compare.
    pub fn ring_ops(&self) -> vrio_virtio::RingOps {
        let mut ops = vrio_virtio::RingOps::default();
        for vm in &self.vms {
            ops.add(&vm.ring_ops());
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrio_block::BlockKind;

    #[test]
    fn config_simple_defaults() {
        let c = TestbedConfig::simple(IoModel::Vrio, 3);
        assert_eq!(c.num_vms, 3);
        assert_eq!(c.iohost_rx_ring, vrio_net::RX_RING_LARGE as u64);
        assert_eq!(c.channel_loss, 0.0);
        assert!(c.sidecore_mwait_wake.is_none());
        let t = c.with_tails();
        assert!(t.tail_model && t.service_jitter > 0.0);
    }

    #[test]
    fn backend_core_counts_per_model() {
        // Elvis/baseline: per-VMhost backends; vRIO: total workers.
        let mut c = TestbedConfig::simple(IoModel::Elvis, 4);
        c.num_vmhosts = 2;
        c.backend_cores = 2;
        assert_eq!(Testbed::new(c.clone()).backends.len(), 4);
        c.model = IoModel::Vrio;
        assert_eq!(Testbed::new(c).backends.len(), 2);
    }

    #[test]
    fn resource_charge_queues_and_counts_waiters() {
        let mut r = Resource::default();
        let e1 = r.charge(SimTime::ZERO, SimDuration::micros(10));
        assert_eq!(e1, SimTime::from_nanos(10_000));
        let e2 = r.charge(SimTime::from_nanos(5_000), SimDuration::micros(10));
        assert_eq!(e2, SimTime::from_nanos(20_000));
        assert_eq!(r.waited, 1);
        assert_eq!(r.served, 2);
    }

    #[test]
    fn pickup_delay_mwait_penalty_only_when_idle() {
        let mut c = TestbedConfig::simple(IoModel::Vrio, 1);
        c.sidecore_mwait_wake = Some(SimDuration::micros(2));
        let mut tb = Testbed::new(c);
        let base = tb.config.costs.poll_pickup;
        // Idle worker: pays the wake-up.
        assert_eq!(
            tb.pickup_delay(0, SimTime::ZERO),
            base + SimDuration::micros(2)
        );
        // Busy worker: plain poll pickup.
        tb.backends[0].charge(SimTime::ZERO, SimDuration::micros(50));
        assert_eq!(tb.pickup_delay(0, SimTime::from_nanos(10_000)), base);
    }

    #[test]
    fn interpose_cost_zero_for_optimum_and_empty_chain() {
        let mut tb = Testbed::new(TestbedConfig::simple(IoModel::Vrio, 1));
        assert_eq!(tb.interpose_cost(4096), SimDuration::ZERO);
        tb.chain
            .push(Box::new(crate::interpose::MeteringService::new()));
        assert!(tb.interpose_cost(4096) > SimDuration::ZERO);
        let mut opt = Testbed::new(TestbedConfig::simple(IoModel::Optimum, 1));
        opt.chain
            .push(Box::new(crate::interpose::MeteringService::new()));
        assert_eq!(opt.interpose_cost(4096), SimDuration::ZERO);
    }

    #[test]
    fn jitter_disabled_is_identity() {
        let mut tb = Testbed::new(TestbedConfig::simple(IoModel::Elvis, 1));
        let d = SimDuration::micros(5);
        assert_eq!(tb.jitter(d), d);
        tb.config.service_jitter = 0.1;
        // With jitter the distribution straddles the base value.
        let draws: Vec<u64> = (0..50).map(|_| tb.jitter(d).as_nanos()).collect();
        assert!(draws.iter().any(|&x| x != d.as_nanos()));
    }

    #[test]
    fn tail_extra_is_rare_and_positive() {
        let mut tb = Testbed::new(TestbedConfig::simple(IoModel::Vrio, 1).with_tails());
        let n = 50_000;
        let hits = (0..n).filter(|_| !tb.tail_extra().is_zero()).count();
        let frac = hits as f64 / n as f64;
        assert!(frac > 0.0005 && frac < 0.01, "outlier fraction {frac}");
    }

    #[test]
    fn gen_numa_penalty_applies_past_core_3() {
        let mut c = TestbedConfig::simple(IoModel::Vrio, 20);
        c.num_vmhosts = 4;
        c.numa_generators = true;
        let tb = Testbed::new(c);
        // VM 0 sits on generator core 0 of its machine: local socket.
        assert_eq!(tb.gen_extra(0), SimDuration::ZERO);
        // VM 12 is the 4th VM of its generator (index 3): remote socket.
        assert!(tb.gen_extra(12) > SimDuration::ZERO);
        // Deeper remote cores pay progressively more.
        assert!(tb.gen_extra(16) > tb.gen_extra(12));
    }

    /// A world that keeps the block outcomes it is handed.
    struct BlkOutcomes {
        tb: Testbed,
        done: Vec<BlkOutcome>,
    }

    impl HasTestbed for BlkOutcomes {
        fn tb(&mut self) -> &mut Testbed {
            &mut self.tb
        }

        fn on_blk(&mut self, _: &mut Engine<Self>, _: u64, outcome: BlkOutcome) {
            self.done.push(outcome);
        }
    }

    /// Runs one block request on a fresh `model` rack.
    fn one_blk(model: IoModel, req: vrio_block::BlockRequest) -> BlkOutcomes {
        let tb = Testbed::new(TestbedConfig::simple(model, 1));
        let mut w = BlkOutcomes {
            tb,
            done: Vec::new(),
        };
        let mut eng = Engine::new();
        blk_request(&mut w, &mut eng, 0, req, 0);
        eng.run(&mut w);
        w
    }

    /// A world that takes only block outcomes.
    struct BlkOnly(Testbed);

    impl HasTestbed for BlkOnly {
        fn tb(&mut self) -> &mut Testbed {
            &mut self.0
        }

        fn on_blk(&mut self, _: &mut Engine<Self>, _: u64, _: BlkOutcome) {}
    }

    #[test]
    #[should_panic(expected = "request-response 7 completed in a world without on_rr")]
    fn an_outcome_the_world_does_not_take_panics_naming_the_flow() {
        let mut w = BlkOnly(Testbed::new(TestbedConfig::simple(IoModel::Vrio, 1)));
        let mut eng = Engine::new();
        let req = Bytes::from_static(b"x");
        net_request_response(&mut w, &mut eng, 0, req, 1, SimDuration::micros(4), 7);
        eng.run(&mut w);
    }

    #[test]
    fn blk_flow_executes_real_store_ops() {
        let req = vrio_block::BlockRequest::write(
            vrio_block::RequestId(1),
            16,
            Bytes::from(vec![0xEEu8; 512]),
        );
        let w = one_blk(IoModel::Elvis, req);
        for o in &w.done {
            assert_eq!(o.status, vrio_virtio::BLK_S_OK);
        }
        assert_eq!(
            &w.tb.disk_stores[0].read(16 * 512, 4).unwrap()[..],
            &[0xEE; 4]
        );
    }

    /// Issues request `k`: an RR on VM `k % 3`, and a block write or read
    /// on VM 0.
    fn mixed(tb: &mut Testbed, eng: &mut Engine<Testbed>, k: u64) {
        let vm = (k % 3) as usize;
        let req = Bytes::from_static(b"sample me");
        crate::net_request_response(tb, eng, vm, req, 64, SimDuration::micros(3), k);
        let id = vrio_block::RequestId(k + 1);
        let blk = if k.is_multiple_of(2) {
            vrio_block::BlockRequest::write(id, 8 * k, Bytes::from(vec![k as u8; 4096]))
        } else {
            vrio_block::BlockRequest::read(id, 8 * (k - 1), 4096)
        };
        blk_request(tb, eng, 0, blk, k);
    }

    #[test]
    fn every_telemetry_sample_records_what_a_fresh_read_would() {
        let mut config = TestbedConfig::simple(IoModel::Vrio, 3);
        config.telemetry = TelemetryConfig::sampling(SimDuration::micros(1));
        let mut tb = Testbed::new(config);
        let mut eng = Engine::new();
        for k in 0..40 {
            eng.schedule_at(SimTime::ZERO + SimDuration::micros(7) * k, mixed, k);
        }
        // A sample after every event: between two samples, some queues
        // and tenants moved and others did not.
        let mut samples = 0;
        while eng.step(&mut tb) {
            tb.sample_telemetry(eng.now());
            samples += 1;
            let ex = tb.telemetry.clone().export();
            let last = |name: String| {
                let track = ex.track(&name).unwrap_or_else(|| panic!("no track {name}"));
                track.values.last().expect("sampled").to_bits()
            };
            for (v, vm) in tb.vms.iter().enumerate() {
                for q in vm.ring_audit() {
                    let queue = format!("ring.vm{v}.{}", q.name);
                    let fresh = [
                        ("free", q.free_descriptors as f64),
                        ("inflight", f64::from(q.in_flight_chains)),
                        ("kicks_suppressed", q.driver.kicks_suppressed as f64),
                        ("signals_suppressed", q.device.signals_suppressed as f64),
                    ];
                    for (gauge, value) in fresh {
                        assert_eq!(last(format!("{queue}.{gauge}")), value.to_bits());
                    }
                }
            }
            for (v, t) in tb.slo.tenants().iter().enumerate() {
                for (p, name) in [(50.0, "p50_us"), (99.0, "p99_us")] {
                    let fresh = t.latency.percentile(p).to_bits();
                    assert_eq!(last(format!("slo.vm{v}.{name}")), fresh);
                }
            }
        }
        assert!(samples > 200, "{samples} samples");
        assert!(tb.slo.tenants().iter().all(|t| t.completed > 10));
    }

    #[test]
    #[should_panic(expected = "no paravirtual block path")]
    fn optimum_block_path_panics() {
        let mut tb = Testbed::new(TestbedConfig::simple(IoModel::Optimum, 1));
        let mut eng = Engine::new();
        let req = vrio_block::BlockRequest::read(vrio_block::RequestId(1), 0, 512);
        blk_request(&mut tb, &mut eng, 0, req, 0);
    }

    #[test]
    fn flush_requests_complete() {
        for model in [IoModel::Elvis, IoModel::Vrio, IoModel::Baseline] {
            let req = vrio_block::BlockRequest::flush(vrio_block::RequestId(9));
            assert_eq!(req.kind, BlockKind::Flush);
            let w = one_blk(model, req);
            for o in &w.done {
                assert_eq!(o.status, vrio_virtio::BLK_S_OK);
            }
            assert_eq!(w.done.len(), 1, "model {model}");
        }
    }
}
