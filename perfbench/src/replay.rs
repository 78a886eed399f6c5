//! Replay loops: each times one layer's public functions in a tight loop,
//! sized by how often the workload's traced batch performed the operation,
//! and reports ns per operation.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use vrio::{DeviceId, RingConfig, VrioMsg, VrioMsgKind};
use vrio_block::{BlockRequest, Ramdisk, RequestId};
use vrio_hv::{Vm, VmId};
use vrio_sim::Profiler;
use vrio_virtio::{ring_pair, GuestAddr, GuestMemory, BLK_S_OK};

/// Fewest iterations a loop runs, so operations the workload never
/// performs still get a ns/op figure.
const MIN_OPS: u64 = 20_000;
/// Most iterations a loop runs.
const MAX_OPS: u64 = 400_000;

/// Iterations for an operation the traced batch performed `count` times.
pub fn sized(count: u64) -> u64 {
    count.clamp(MIN_OPS, MAX_OPS)
}

/// Runs `body` `ops` times after a short warm-up; returns ns per iteration.
fn time_loop(ops: u64, mut body: impl FnMut(u64)) -> f64 {
    for i in 0..ops.min(1_000) {
        body(i);
    }
    let t0 = Instant::now();
    for i in 0..ops {
        body(i);
    }
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// One enabled, empty `Profiler::scope`.
pub fn profiler_scope_ns(ops: u64) -> f64 {
    let p = Profiler::new(true);
    time_loop(ops, |_| {
        let _g = p.scope("replay.empty");
    })
}

/// One virtqueue round trip: `add_chain` → `pop_avail` → `push_used` →
/// `poll_used` on a 256-entry ring of layout `ring`.
pub fn chain_ns(ring: RingConfig, ops: u64) -> f64 {
    let mut mem = GuestMemory::new(0x20000);
    let (mut drv, mut dev, end) = ring_pair(ring, 256, GuestAddr(0x1000));
    let out = GuestAddr(end.0.div_ceil(4096) * 4096);
    let inb = out.offset(4096);
    time_loop(ops, |_| {
        let head = drv
            .add_chain(&mut mem, &[(out, 64)], &[(inb, 64)])
            .expect("add_chain");
        let chain = dev.pop_avail(&mem).expect("pop_avail").expect("chain");
        dev.push_used(&mut mem, chain.head, 64).expect("push_used");
        let used = drv.poll_used(&mem).expect("poll_used").expect("used");
        debug_assert_eq!(used.head, head);
        black_box(used);
    })
}

/// One RR at a VM's net device: guest `net_send`, back-end `net_fetch_tx`
/// and `net_complete_tx`, guest `net_reap_tx`; then back-end
/// `net_deliver_rx`, guest `net_recv` and `net_refill_rx`.
pub fn net_rr_ns(ring: RingConfig, ops: u64) -> f64 {
    let mut vm = Vm::with_rings(VmId(0), ring);
    vm.net_refill_rx().expect("refill");
    time_loop(ops, |_| {
        vm.net_send(b"?").expect("net_send");
        let (head, _, payload) = vm.net_fetch_tx().expect("fetch").expect("tx chain");
        black_box(payload);
        vm.net_complete_tx(head).expect("complete");
        vm.net_reap_tx().expect("reap");
        vm.net_deliver_rx(b"!").expect("deliver");
        black_box(vm.net_recv().expect("recv").expect("rx payload"));
        vm.net_refill_rx().expect("refill");
    })
}

/// One 4 KB block request at a VM's blk device, averaged over a write and
/// a read: `blk_submit` → `blk_fetch` → `blk_complete` → `blk_reap`.
pub fn blk_4k_ns(ring: RingConfig, ops: u64) -> f64 {
    let mut vm = Vm::with_rings(VmId(0), ring);
    let data = Bytes::from(vec![0xA5u8; 4096]);
    let pair = time_loop(ops.div_ceil(2), |i| {
        let sector = (i % 256) * 8;
        vm.blk_submit(&BlockRequest::write(RequestId(2 * i), sector, data.clone()))
            .expect("submit write");
        let (head, _, payload) = vm.blk_fetch().expect("fetch").expect("write chain");
        black_box(payload);
        vm.blk_complete(head, BLK_S_OK, &[])
            .expect("complete write");
        black_box(vm.blk_reap().expect("reap write"));
        vm.blk_submit(&BlockRequest::read(RequestId(2 * i + 1), sector, 4096))
            .expect("submit read");
        let (head, _, _) = vm.blk_fetch().expect("fetch").expect("read chain");
        vm.blk_complete(head, BLK_S_OK, &data)
            .expect("complete read");
        black_box(vm.blk_reap().expect("reap read"));
    });
    pair / 2.0
}

/// One 4 KB ramdisk operation, averaged over a write and a read.
pub fn ramdisk_4k_ns(ops: u64) -> f64 {
    let mut disk = Ramdisk::new(1 << 20);
    let buf = vec![0x5Au8; 4096];
    let pair = time_loop(ops.div_ceil(2), |i| {
        let off = (i % 256) * 4096;
        disk.write(off, &buf).expect("ramdisk write");
        black_box(disk.read(off, 4096).expect("ramdisk read"));
    });
    pair / 2.0
}

/// One `VrioMsg` encode + decode, averaged over the RR size (1 byte) and
/// the block size (4 KB).
pub fn proto_ns(ops: u64) -> f64 {
    let dev = DeviceId {
        client: 1,
        device: 0,
    };
    let rr = VrioMsg::new(VrioMsgKind::NetTx, dev, 0, Bytes::from_static(b"?"));
    let blk = VrioMsg::new(VrioMsgKind::BlkReq, dev, 7, Bytes::from(vec![0u8; 4096]));
    let pair = time_loop(ops.div_ceil(2), |_| {
        for m in [&rr, &blk] {
            black_box(VrioMsg::decode(m.encode()).expect("decode"));
        }
    });
    pair / 2.0
}
