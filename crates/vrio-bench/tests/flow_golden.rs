//! Golden digests for the testbed's flow programs.
//!
//! Each case drives the public flow API (`net_request_response`,
//! `stream_batch`, `blk_request`) through one scenario with the oracle
//! on, then folds everything the run observably produced into one FNV-1a
//! digest: every completion's latency (exact nanoseconds and the
//! `to_bits` of the microsecond float the SLO ledger consumes), every
//! response payload and block status/data, the Table 3 `EventCounters`,
//! the `ReliabilityCounters`, the full SLO ledger, the aggregated
//! `RingOps` and `channel_drops`. A traced case also folds in its
//! rendered Chrome trace and the oracle's report, so the request ids
//! that reach `args.req` and the oracle's accounting are pinned too. A
//! change in RNG draw order, step order, latency or drop attribution
//! moves the digest of the cases it touches, which the failure message
//! names.
//!
//! The digests live in `tests/golden/flows.txt`, one `case digest` line
//! each. To refresh after an intentional behaviour change, copy the
//! "actual" block printed by the failing test into that file and justify
//! the change in the commit message.

use bytes::Bytes;
use vrio::{
    blk_request, net_request_response, stream_batch, AdmissionConfig, BlkOutcome,
    EncryptionService, FirewallService, HasTestbed, OracleConfig, Outage, RetxConfig, RrOutcome,
    Testbed, TestbedConfig,
};
use vrio_block::{BlockRequest, RequestId};
use vrio_hv::IoModel;
use vrio_net::{FaultConfig, GeConfig};
use vrio_sim::{Engine, SimDuration, SimTime};
use vrio_trace::{render_chrome_trace, DropCause, TraceConfig};

/// The digest accumulator: 64-bit FNV-1a.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn latency(&mut self, d: SimDuration) {
        self.u64(d.as_nanos());
        self.u64(d.as_micros_f64().to_bits());
    }
}

/// The engine world: the testbed plus the case's running digest. Flows
/// are tagged with their VM.
struct World {
    tb: Testbed,
    digest: Digest,
    deadline: SimTime,
    next_req: u64,
    /// The open-loop RR load's response length and request payload.
    resp_len: fn(usize) -> usize,
    payload: fn(usize, u64) -> &'static [u8],
    /// Per VM: the index of its block loop's next request.
    blk_k: Vec<u64>,
}

impl HasTestbed for World {
    fn tb(&mut self) -> &mut Testbed {
        &mut self.tb
    }

    fn on_rr(&mut self, _: &mut Engine<Self>, vm: u64, o: RrOutcome) {
        self.digest.u64(vm);
        self.digest.latency(o.latency);
        self.digest.bytes(&o.response);
    }

    fn on_blk(&mut self, eng: &mut Engine<Self>, vm: u64, o: BlkOutcome) {
        self.digest.u64(vm);
        self.digest.latency(o.latency);
        self.digest.u64(u64::from(o.status));
        self.digest.bytes(&o.data);
        blk_loop(self, eng, vm as usize);
    }

    fn on_stream(&mut self, eng: &mut Engine<Self>, vm: u64) {
        self.digest.u64(vm);
        self.digest.u64(eng.now().as_nanos());
        stream_loop(self, eng, vm as usize);
    }
}

const APP_TIME: SimDuration = SimDuration::micros(4);

fn base(model: IoModel, num_vms: usize) -> TestbedConfig {
    let mut c = TestbedConfig::simple(model, num_vms)
        .with_vmhosts(2.min(num_vms))
        .with_backend_cores(2)
        .with_tails()
        .with_seed(0x600D_F10E);
    c.oracle = OracleConfig::on();
    c
}

/// Runs one case to quiescence and returns its digest. `drive` schedules
/// the workload; the end-of-run state is folded in after the engine
/// drains, and the oracle and SLO-ledger conservation must both hold.
fn run_case(
    name: &str,
    config: TestbedConfig,
    horizon: SimDuration,
    setup: impl FnOnce(&mut Testbed),
    drive: impl FnOnce(&mut World, &mut Engine<World>),
    check: impl FnOnce(&Testbed),
) -> u64 {
    let mut tb = Testbed::new(config);
    setup(&mut tb);
    let vms = tb.config.num_vms;
    let mut w = World {
        tb,
        digest: Digest::new(),
        deadline: SimTime::ZERO + horizon,
        next_req: 1,
        resp_len: one_byte,
        payload: plain_req,
        blk_k: vec![0; vms],
    };
    let mut eng: Engine<World> = Engine::new();
    drive(&mut w, &mut eng);
    eng.run(&mut w);
    let tb = &mut w.tb;
    tb.oracle.finish();
    tb.oracle.audit_pool("skb pool", &tb.skb_pool);
    tb.oracle.assert_clean(name);
    tb.slo
        .check_conservation()
        .unwrap_or_else(|e| panic!("{name}: SLO ledger conservation: {e}"));
    check(tb);
    let mut d = w.digest;
    d.bytes(format!("{:?}", tb.counters).as_bytes());
    d.bytes(format!("{:?}", tb.reliability_report()).as_bytes());
    d.bytes(format!("{:?}", tb.slo).as_bytes());
    d.bytes(format!("{:?}", tb.ring_ops()).as_bytes());
    d.u64(tb.channel_drops);
    let rep = tb.oracle.report();
    d.u64(rep.flows_begun);
    d.u64(rep.flows_completed);
    d.u64(rep.flows_dropped);
    if tb.trace.enabled() {
        d.bytes(render_chrome_trace(&[tb.trace.export()]).as_bytes());
        d.bytes(format!("{rep:?}").as_bytes());
    }
    d.0
}

/// Schedules an open-loop RR load: VM `vm` issues its `k`-th request at
/// `vm·7µs + k·period` until the horizon. Open loop keeps every VM
/// offering load even after drops, so drop paths cannot stall a case.
fn open_loop_rr(
    w: &mut World,
    eng: &mut Engine<World>,
    period: SimDuration,
    resp_len: fn(usize) -> usize,
    payload: fn(usize, u64) -> &'static [u8],
) {
    w.resp_len = resp_len;
    w.payload = payload;
    for vm in 0..w.tb.config.num_vms {
        let mut at = SimTime::ZERO + SimDuration::micros(7) * vm as u64;
        let mut k = 0u64;
        while at < w.deadline {
            eng.schedule_at(at, issue_rr, k << 16 | vm as u64);
            at += period;
            k += 1;
        }
    }
}

/// Issues VM `vm`'s `k`-th open-loop request, from `k << 16 | vm`.
fn issue_rr(w: &mut World, eng: &mut Engine<World>, arg: u64) {
    let (vm, k) = ((arg & 0xffff) as usize, arg >> 16);
    let req = Bytes::from_static((w.payload)(vm, k));
    let resp_len = (w.resp_len)(vm);
    net_request_response(w, eng, vm, req, resp_len, APP_TIME, vm as u64);
}

fn mixed_resp_len(vm: usize) -> usize {
    [1, 3000, 200, 9001][vm % 4]
}

fn one_byte(_: usize) -> usize {
    1
}

fn plain_req(_: usize, _: u64) -> &'static [u8] {
    b"?"
}

fn alternating_req(vm: usize, k: u64) -> &'static [u8] {
    if (vm as u64 + k).is_multiple_of(3) {
        b"EVIL request"
    } else {
        b"GOOD request"
    }
}

/// The block op a VM's `k`-th closed-loop request performs: writes and
/// read-backs of several sizes (one above the vRIO jumbo MTU, so the TSO
/// path runs), plus a flush.
fn blk_op(id: u64, vm: usize, k: u64) -> BlockRequest {
    let sector = 64 * (vm as u64) + 8 * (k % 5);
    let fill = (id as u8).wrapping_mul(31) ^ vm as u8;
    match k % 6 {
        0 => BlockRequest::write(RequestId(id), sector, Bytes::from(vec![fill; 4096])),
        1 => BlockRequest::read(RequestId(id), sector, 4096),
        2 => BlockRequest::write(RequestId(id), sector, Bytes::from(vec![fill; 16384])),
        3 => BlockRequest::read(RequestId(id), sector, 16384),
        4 => BlockRequest::read(RequestId(id), sector + 1, 512),
        _ => BlockRequest::flush(RequestId(id)),
    }
}

/// One closed-loop block thread on VM `vm`: issue, wait
/// ([`World::on_blk`]), repeat until the horizon.
fn blk_loop(w: &mut World, eng: &mut Engine<World>, vm: usize) {
    if eng.now() >= w.deadline {
        return;
    }
    let id = w.next_req;
    w.next_req += 1;
    let k = w.blk_k[vm];
    w.blk_k[vm] += 1;
    blk_request(w, eng, vm, blk_op(id, vm, k), vm as u64);
}

fn start_blk_loops(w: &mut World, eng: &mut Engine<World>, vms: std::ops::Range<usize>) {
    for vm in vms {
        blk_loop(w, eng, vm);
    }
}

fn stream_loop(w: &mut World, eng: &mut Engine<World>, vm: usize) {
    if eng.now() >= w.deadline {
        return;
    }
    stream_batch(w, eng, vm, 16, 1448, vm as u64);
}

fn encrypting(tb: &mut Testbed) {
    tb.chain.push(Box::new(EncryptionService::new([7u8; 32])));
}

fn firewalled(tb: &mut Testbed) {
    tb.chain
        .push(Box::new(FirewallService::new(vec![b"EVIL".to_vec()])));
}

fn no_setup(_: &mut Testbed) {}

fn no_check(_: &Testbed) {}

fn model_slug(m: IoModel) -> &'static str {
    match m {
        IoModel::Optimum => "optimum",
        IoModel::Elvis => "elvis",
        IoModel::Vrio => "vrio",
        IoModel::VrioNoPoll => "vrio_nopoll",
        IoModel::Baseline => "baseline",
    }
}

/// Every case, in golden-file order.
fn all_cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let ms = SimDuration::millis;

    for model in IoModel::ALL {
        let name = format!("rr_{}", model_slug(model));
        let d = run_case(
            &name,
            base(model, 4),
            ms(2),
            no_setup,
            |w, eng| open_loop_rr(w, eng, SimDuration::micros(40), mixed_resp_len, plain_req),
            no_check,
        );
        out.push((name, d));
    }

    {
        let name = "rr_vrio_outage_local_fallback".to_string();
        let mut c = base(IoModel::Vrio, 2);
        c.outages = vec![vec![Outage {
            fails_at: SimTime::ZERO + ms(1),
            recovers_at: Some(SimTime::ZERO + ms(3)),
        }]];
        let d = run_case(
            &name,
            c,
            ms(5),
            no_setup,
            |w, eng| open_loop_rr(w, eng, SimDuration::micros(30), one_byte, plain_req),
            |tb| {
                // Host interrupts only occur on vRIO's local fallback path.
                assert!(tb.counters.host_interrupts > 0, "fallback never ran");
                assert!(tb.slo.total_drops_of(DropCause::Outage) > 0);
                let rel = tb.reliability_report();
                assert!(rel.failovers > 0 && rel.failbacks > 0);
            },
        );
        out.push((name, d));
    }

    for model in [IoModel::Vrio, IoModel::Elvis] {
        let name = format!("stream_{}", model_slug(model));
        let d = run_case(
            &name,
            base(model, 2),
            ms(2),
            no_setup,
            |w, eng| {
                for vm in 0..2 {
                    stream_loop(w, eng, vm);
                }
            },
            no_check,
        );
        out.push((name, d));
    }

    for model in [IoModel::Elvis, IoModel::Baseline] {
        let name = format!("blk_{}", model_slug(model));
        let d = run_case(
            &name,
            base(model, 2),
            ms(3),
            encrypting,
            |w, eng| start_blk_loops(w, eng, 0..2),
            no_check,
        );
        out.push((name, d));
    }

    {
        let name = "blk_vrio_faults_device_error".to_string();
        let mut c = base(IoModel::Vrio, 2);
        c.faults = FaultConfig {
            ge: Some(GeConfig {
                p_good_to_bad: 0.05,
                p_bad_to_good: 0.2,
                loss_good: 0.01,
                loss_bad: 0.8,
            }),
            delay_spike_prob: 0.05,
            delay_spike: SimDuration::micros(50),
            duplicate_prob: 0.1,
        };
        c.retx = RetxConfig {
            initial_timeout: SimDuration::micros(300),
            max_attempts: 2,
            min_rto: SimDuration::micros(100),
            ..RetxConfig::default()
        };
        let d = run_case(
            &name,
            c,
            ms(20),
            encrypting,
            |w, eng| start_blk_loops(w, eng, 0..2),
            |tb| {
                let rel = tb.reliability_report();
                assert!(rel.device_errors > 0, "no device error: {rel:?}");
                assert!(rel.retransmissions > 0 && rel.stale_responses > 0);
                assert!(rel.injected_losses > 0 && rel.injected_delay_spikes > 0);
                assert!(rel.injected_duplicates > 0);
            },
        );
        out.push((name, d));
    }

    {
        // Three closed block loops per VM keep several requests, and so
        // several retransmission timers, in flight on each VM. The long
        // initial timeout and the low RTO floor let the adaptive RTO fall
        // well below the first attempts' timers, so later-armed timers
        // come due first, and the delay spikes make some of them fire
        // spuriously.
        let name = "blk_vrio_4vm_adaptive_rto".to_string();
        let mut c = base(IoModel::Vrio, 4);
        c.faults = FaultConfig {
            ge: Some(GeConfig {
                p_good_to_bad: 0.03,
                p_bad_to_good: 0.25,
                loss_good: 0.005,
                loss_bad: 0.5,
            }),
            delay_spike_prob: 0.05,
            delay_spike: SimDuration::micros(150),
            duplicate_prob: 0.05,
        };
        c.retx = RetxConfig {
            initial_timeout: SimDuration::millis(2),
            max_attempts: 6,
            min_rto: SimDuration::micros(40),
            ..RetxConfig::default()
        };
        let d = run_case(
            &name,
            c,
            ms(20),
            no_setup,
            |w, eng| {
                for _ in 0..3 {
                    start_blk_loops(w, eng, 0..4);
                }
            },
            |tb| {
                let rel = tb.reliability_report();
                assert!(rel.retransmissions > 0 && rel.stale_responses > 0);
                assert!(rel.injected_losses > 0 && rel.injected_delay_spikes > 0);
                for (vm, retx) in tb.retx.iter().enumerate() {
                    let s = &retx.stats;
                    assert!(s.retransmissions > 0, "vm{vm} never retransmitted");
                    assert!(
                        s.rto_ns < SimDuration::millis(2).as_nanos(),
                        "vm{vm}'s RTO never adapted: {s:?}"
                    );
                }
            },
        );
        out.push((name, d));
    }

    {
        let name = "admission_shed_net_and_blk".to_string();
        let mut c = base(IoModel::Vrio, 6).with_vmhosts(1).with_backend_cores(1);
        c.admission = AdmissionConfig {
            enabled: true,
            queue_cap: 2,
            hard_cap: 3,
            ..AdmissionConfig::default()
        };
        c.retx = RetxConfig {
            initial_timeout: SimDuration::micros(500),
            ..RetxConfig::default()
        };
        let d = run_case(
            &name,
            c,
            ms(2),
            no_setup,
            |w, eng| {
                open_loop_rr(w, eng, SimDuration::micros(8), one_byte, plain_req);
                start_blk_loops(w, eng, 0..2);
            },
            |tb| {
                assert!(tb.admission[0].total_shed() > 0, "nothing shed");
                assert!(tb.reliability_report().retransmissions > 0);
            },
        );
        out.push((name, d));
    }

    for model in [IoModel::Elvis, IoModel::Vrio, IoModel::Baseline] {
        let name = format!("rr_firewall_{}", model_slug(model));
        let d = run_case(
            &name,
            base(model, 2),
            ms(2),
            firewalled,
            |w, eng| open_loop_rr(w, eng, SimDuration::micros(40), one_byte, alternating_req),
            |tb| assert!(tb.slo.total_drops_of(DropCause::Firewall) > 0),
        );
        out.push((name, d));
    }

    {
        // Request-response and block traffic share a traced vRIO rack
        // under bursty loss, delay spikes and duplicated responses: spans
        // end, abort (a lost RR) and outlive retransmissions, and a block
        // request gives up with a device error.
        let name = "trace_mixed_rr_blk_vrio".to_string();
        let mut c = base(IoModel::Vrio, 4);
        c.trace = TraceConfig::memory();
        c.faults = FaultConfig {
            ge: Some(GeConfig {
                p_good_to_bad: 0.05,
                p_bad_to_good: 0.2,
                loss_good: 0.01,
                loss_bad: 0.8,
            }),
            delay_spike_prob: 0.05,
            delay_spike: SimDuration::micros(50),
            duplicate_prob: 0.1,
        };
        c.retx = RetxConfig {
            initial_timeout: SimDuration::micros(300),
            max_attempts: 2,
            min_rto: SimDuration::micros(100),
            ..RetxConfig::default()
        };
        let d = run_case(
            &name,
            c,
            ms(6),
            no_setup,
            |w, eng| {
                open_loop_rr(w, eng, SimDuration::micros(40), mixed_resp_len, plain_req);
                start_blk_loops(w, eng, 0..4);
            },
            |tb| {
                assert!(
                    tb.slo.total_drops_of(DropCause::FaultLoss) > 0,
                    "no RR lost"
                );
                let rel = tb.reliability_report();
                assert!(rel.device_errors > 0, "no device error: {rel:?}");
                assert!(rel.injected_delay_spikes > 0 && rel.injected_duplicates > 0);
                assert_eq!(tb.trace.dropped(), 0, "the trace ring overflowed");
            },
        );
        out.push((name, d));
    }

    out
}

#[test]
fn flow_digests_match_the_committed_golden_file() {
    let actual: String = all_cases()
        .iter()
        .map(|(name, d)| format!("{name} {d:016x}\n"))
        .collect();
    let expected = include_str!("golden/flows.txt");
    if actual == expected {
        return;
    }
    let golden: Vec<&str> = expected.lines().collect();
    let moved: Vec<&str> = actual
        .lines()
        .filter(|line| !golden.contains(line))
        .collect();
    panic!(
        "flow digests diverged from tests/golden/flows.txt; cases that moved:\n  {}\n\
         actual:\n{actual}",
        moved.join("\n  ")
    );
}
