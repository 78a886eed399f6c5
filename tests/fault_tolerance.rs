//! §4.6 fault tolerance: when the IOhost crashes mid-run, network traffic
//! falls back to local virtio (at baseline-level performance, on the VM's
//! own cores) while IOhost-resident block devices fail cleanly through the
//! retransmission machinery.

mod common;

use bytes::Bytes;
use common::{one_blk, try_rr};
use vrio::{net_request_response, HasTestbed, Outage, RrOutcome, Testbed, TestbedConfig};
use vrio_block::{BlockRequest, RequestId};
use vrio_hv::IoModel;
use vrio_sim::{Engine, SimDuration, SimTime};
use vrio_virtio::BLK_S_IOERR;

/// A closed loop of request-responses per VM straddling the crash, with
/// their latencies before and after it.
struct Loops {
    tb: Testbed,
    before: Vec<f64>,
    after: Vec<f64>,
}

/// An IOhost crash at `fails_at` that never recovers.
fn down_from(fails_at: SimTime) -> Outage {
    Outage {
        fails_at,
        recovers_at: None,
    }
}

/// Issues VM `vm`'s next request.
fn issue(w: &mut Loops, eng: &mut Engine<Loops>, vm: u64) {
    let req = Bytes::from_static(b"ping");
    net_request_response(w, eng, vm as usize, req, 4, SimDuration::micros(4), vm);
}

impl HasTestbed for Loops {
    fn tb(&mut self) -> &mut Testbed {
        &mut self.tb
    }

    fn on_rr(&mut self, eng: &mut Engine<Self>, vm: u64, o: RrOutcome) {
        let fail_at = self.tb.config.outages[0][0].fails_at;
        let l = o.latency.as_micros_f64();
        if eng.now() < fail_at {
            self.before.push(l);
        } else {
            self.after.push(l);
        }
        if eng.now() < SimTime::ZERO + SimDuration::millis(25) {
            issue(self, eng, vm);
        }
    }
}

#[test]
fn network_survives_iohost_crash_at_fallback_performance() {
    let mut cfg = TestbedConfig::simple(IoModel::Vrio, 2);
    cfg.outages = vec![vec![down_from(SimTime::ZERO + SimDuration::millis(10))]];
    let mut w = Loops {
        tb: Testbed::new(cfg),
        before: Vec::new(),
        after: Vec::new(),
    };
    let mut eng = Engine::new();

    fn issue_all(w: &mut Loops, eng: &mut Engine<Loops>, _: u64) {
        for vm in 0..2 {
            issue(w, eng, vm);
        }
    }
    issue_all(&mut w, &mut eng, 0);
    // Requests in flight at the crash instant are blackholed; a real
    // netperf client times out and retries. Model the retry: restart the
    // loops shortly after the crash.
    eng.schedule_at(SimTime::ZERO + SimDuration::millis(11), issue_all, 0);
    eng.run(&mut w);

    let (s, tb) = (&w, &w.tb);
    assert!(
        s.before.len() > 50 && s.after.len() > 50,
        "traffic flowed on both sides"
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (b, a) = (mean(&s.before), mean(&s.after));
    // Before: vRIO-level latency (~44us). After: the local-virtio fallback
    // works at baseline-level latency (at N=1 that is actually slightly
    // faster than vRIO — exactly Fig 7's ordering — but the work now runs
    // on the VM's own cores and every exit/injection is back).
    assert!((40.0..48.0).contains(&b), "pre-crash latency {b}");
    assert!((38.0..50.0).contains(&a), "fallback latency {a}");
    // The failover signature: synchronous exits and injections reappear
    // (vRIO itself induces none — Table 3).
    assert!(tb.counters.sync_exits > 0, "fallback must trap-and-emulate");
    assert!(tb.counters.interrupt_injections > 0);
    // And the vhost burden lands on the VMs' own cores: guest busy time
    // per request is visibly higher after the crash.
    let per_req_budget =
        tb.vms[0].cpu.busy_time().as_micros_f64() / (s.before.len() + s.after.len()) as f64;
    assert!(
        per_req_budget > 11.0,
        "VM cores carry the vhost work: {per_req_budget}"
    );
}

#[test]
fn iohost_resident_block_device_fails_cleanly() {
    let mut cfg = TestbedConfig::simple(IoModel::Vrio, 1);
    cfg.outages = vec![vec![down_from(SimTime::ZERO)]]; // dead from the start
    cfg.retx.initial_timeout = SimDuration::micros(200);
    cfg.retx.max_attempts = 3;
    let mut tb = Testbed::new(cfg);
    let o = one_blk(
        &mut tb,
        BlockRequest::write(RequestId(1), 0, Bytes::from(vec![1u8; 512])),
    );
    // "Losing it is akin to losing a local drive" (§4.6): a device error,
    // surfaced exactly once, after the retransmission budget.
    assert_eq!(o.status, BLK_S_IOERR);
    assert_eq!(tb.retx[0].stats.device_errors, 1);
    assert_eq!(tb.retx[0].stats.retransmissions, 2);
}

#[test]
fn healthy_iohost_is_unaffected_by_the_knob() {
    // A failure scheduled after the horizon never triggers.
    let mut cfg = TestbedConfig::simple(IoModel::Vrio, 1);
    cfg.outages = vec![vec![down_from(SimTime::ZERO + SimDuration::secs(3600))]];
    let mut tb = Testbed::new(cfg);
    let ok = try_rr(&mut tb, b"x", 1).is_some_and(|o| o.response.len() == 1);
    assert!(ok);
}
