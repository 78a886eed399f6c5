//! Macrobenchmarks: Apache/ApacheBench and Memcached/memslap transaction
//! models (paper §5, Figures 5 and 12).
//!
//! Both are closed-loop transaction generators over the testbed's
//! request-response flow; they differ in per-transaction server CPU,
//! response size (Apache serves multi-packet static pages, which is what
//! grinds Elvis sidecores), and client concurrency (memslap pipelines).

use bytes::Bytes;
use vrio::{net_request_response, HasTestbed, RrOutcome, Testbed, TestbedConfig};
use vrio_sim::{Engine, SimDuration, SimTime};

/// A transaction workload profile.
#[derive(Debug, Clone, Copy)]
pub struct TxnProfile {
    /// Request payload bytes.
    pub req_bytes: usize,
    /// Response payload bytes (multi-packet responses charge the back-end
    /// per wire packet).
    pub resp_bytes: usize,
    /// Server-side CPU per transaction.
    pub app_time: SimDuration,
    /// Concurrent in-flight transactions per VM (client pipelining).
    pub concurrency: usize,
}

impl TxnProfile {
    /// ApacheBench fetching a static page from Apache httpd: ~10 KB
    /// responses, substantial per-request server CPU, 2 concurrent
    /// connections per VM.
    pub fn apache() -> Self {
        TxnProfile {
            req_bytes: 128,
            resp_bytes: 10 * 1024,
            app_time: SimDuration::micros(130),
            concurrency: 2,
        }
    }

    /// Memslap against memcached: tiny GET/SET responses, very little
    /// per-request CPU, deep pipelining.
    pub fn memcached() -> Self {
        TxnProfile {
            req_bytes: 64,
            resp_bytes: 1024,
            app_time: SimDuration::micros(4),
            concurrency: 4,
        }
    }
}

/// Result of a macrobenchmark run.
#[derive(Debug, Clone, Copy)]
pub struct MacroResult {
    /// Aggregate transactions per second across all VMs.
    pub tps: f64,
    /// The same in kilo-transactions/second (the paper's Fig 12 unit).
    pub ktps: f64,
    /// Transactions completed in the measurement window.
    pub completed: u64,
}

struct MacroWorld {
    tb: Testbed,
    completed: u64,
    measuring: bool,
    deadline: SimTime,
    profile: TxnProfile,
}

impl MacroWorld {
    /// Issues one transaction on VM `vm`, tagged with the VM.
    fn issue(&mut self, eng: &mut Engine<MacroWorld>, vm: usize) {
        let p = self.profile;
        let req = Bytes::from(vec![0x11u8; p.req_bytes]);
        net_request_response(self, eng, vm, req, p.resp_bytes, p.app_time, vm as u64);
    }
}

impl HasTestbed for MacroWorld {
    fn tb(&mut self) -> &mut Testbed {
        &mut self.tb
    }

    fn on_rr(&mut self, eng: &mut Engine<Self>, vm: u64, _: RrOutcome) {
        if self.measuring {
            self.completed += 1;
        }
        if eng.now() < self.deadline {
            self.issue(eng, vm as usize);
        }
    }
}

/// Runs a transaction benchmark: every VM keeps `profile.concurrency`
/// transactions in flight for `duration` (after a 10 % warmup).
///
/// # Examples
///
/// ```
/// use vrio::TestbedConfig;
/// use vrio_hv::IoModel;
/// use vrio_sim::SimDuration;
/// use vrio_workloads::{run_txn_bench, TxnProfile};
///
/// let r = run_txn_bench(
///     TestbedConfig::simple(IoModel::Vrio, 2),
///     TxnProfile::memcached(),
///     SimDuration::millis(20),
/// );
/// assert!(r.ktps > 10.0);
/// ```
pub fn run_txn_bench(
    config: TestbedConfig,
    profile: TxnProfile,
    duration: SimDuration,
) -> MacroResult {
    let warmup = duration / 10;
    let deadline = SimTime::ZERO + warmup + duration;
    let num_vms = config.num_vms;
    let mut world = MacroWorld {
        tb: Testbed::new(config),
        completed: 0,
        measuring: false,
        deadline,
        profile,
    };
    let mut eng: Engine<MacroWorld> = Engine::new();

    for vm in 0..num_vms {
        for _ in 0..profile.concurrency {
            world.issue(&mut eng, vm);
        }
    }
    fn end_warmup(w: &mut MacroWorld, _: &mut Engine<MacroWorld>, _: u64) {
        w.measuring = true;
    }
    eng.schedule_at(SimTime::ZERO + warmup, end_warmup, 0);
    eng.run(&mut world);

    let tps = world.completed as f64 / duration.as_secs_f64();
    MacroResult {
        tps,
        ktps: tps / 1e3,
        completed: world.completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrio_hv::IoModel;

    fn bench(model: IoModel, vms: usize, p: TxnProfile) -> MacroResult {
        run_txn_bench(
            TestbedConfig::simple(model, vms),
            p,
            SimDuration::millis(40),
        )
    }

    #[test]
    fn apache_model_ordering_at_high_n() {
        // Fig 5 at N=7: optimum >= vrio > elvis > baseline.
        let p = TxnProfile::apache();
        let opt = bench(IoModel::Optimum, 7, p);
        let vrio = bench(IoModel::Vrio, 7, p);
        let nopoll = bench(IoModel::VrioNoPoll, 7, p);
        let elvis = bench(IoModel::Elvis, 7, p);
        let base = bench(IoModel::Baseline, 7, p);
        assert!(
            opt.tps >= vrio.tps * 0.98,
            "opt {} vrio {}",
            opt.tps,
            vrio.tps
        );
        assert!(
            vrio.tps > elvis.tps,
            "vrio {} elvis {}",
            vrio.tps,
            elvis.tps
        );
        assert!(
            elvis.tps > base.tps,
            "elvis {} base {}",
            elvis.tps,
            base.tps
        );
        // The no-poll ablation sits between elvis and baseline (Table 3 sums
        // 4 < 6 < 9).
        assert!(
            nopoll.tps < elvis.tps,
            "nopoll {} elvis {}",
            nopoll.tps,
            elvis.tps
        );
        assert!(
            nopoll.tps > base.tps,
            "nopoll {} base {}",
            nopoll.tps,
            base.tps
        );
    }

    #[test]
    fn memcached_elvis_falls_behind() {
        // Fig 12a: vRIO approaches the optimum; Elvis falls behind.
        let p = TxnProfile::memcached();
        let opt = bench(IoModel::Optimum, 7, p);
        let vrio = bench(IoModel::Vrio, 7, p);
        let elvis = bench(IoModel::Elvis, 7, p);
        assert!(
            vrio.tps > elvis.tps * 1.15,
            "vrio {} elvis {}",
            vrio.tps,
            elvis.tps
        );
        assert!(
            vrio.tps > opt.tps * 0.55,
            "vrio {} opt {}",
            vrio.tps,
            opt.tps
        );
    }

    #[test]
    fn throughput_scales_with_vms() {
        let p = TxnProfile::memcached();
        let one = bench(IoModel::Optimum, 1, p);
        let four = bench(IoModel::Optimum, 4, p);
        assert!(four.tps > one.tps * 3.0);
    }
}
