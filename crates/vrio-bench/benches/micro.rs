//! Microbenchmarks of the substrate machinery: the protocol and data-path
//! primitives every simulated I/O operation executes.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use bytes::Bytes;
use vrio::{AesCtr, BlockRetx, DeviceId, RetxConfig, Steering, VrioMsg, VrioMsgKind};
use vrio_block::Ramdisk;
use vrio_net::{segment_message, Reassembler, MTU_VRIO_JUMBO};
use vrio_sim::{SimDuration, SimTime};
use vrio_virtio::{DeviceQueue, DriverQueue, GuestAddr, GuestMemory, VirtqueueLayout};

fn bench_virtqueue(c: &mut Criterion) {
    let mut g = c.benchmark_group("virtqueue");
    g.bench_function("rr_roundtrip", |b| {
        let mut mem = GuestMemory::new(0x10000);
        let layout = VirtqueueLayout::new(64, GuestAddr(0x100));
        let mut drv = DriverQueue::new(layout);
        let mut dev = DeviceQueue::new(layout);
        b.iter(|| {
            let head = drv
                .add_chain(
                    &mut mem,
                    &[(GuestAddr(0x4000), 64)],
                    &[(GuestAddr(0x5000), 64)],
                )
                .unwrap();
            let chain = dev.pop_avail(&mem).unwrap().unwrap();
            dev.push_used(&mut mem, chain.head, 64).unwrap();
            let used = drv.poll_used(&mem).unwrap().unwrap();
            assert_eq!(used.head, head);
        });
    });
    g.finish();
}

fn bench_tso(c: &mut Criterion) {
    let mut g = c.benchmark_group("tso");
    let msg = Bytes::from(vec![0xA5u8; 65_536]);
    g.throughput(Throughput::Bytes(65_536));
    g.bench_function("segment_64k_at_mtu8100", |b| {
        b.iter(|| segment_message(msg.clone(), MTU_VRIO_JUMBO, 1).unwrap());
    });
    g.bench_function("segment_and_reassemble_64k", |b| {
        b.iter(|| {
            let segs = segment_message(msg.clone(), MTU_VRIO_JUMBO, 1).unwrap();
            let mut r = Reassembler::new();
            let mut done = None;
            for s in segs {
                if let Some(skb) = r.offer(0, s).unwrap() {
                    done = Some(skb);
                }
            }
            assert_eq!(done.unwrap().len(), 65_536);
        });
    });
    g.finish();
}

fn bench_aes(c: &mut Criterion) {
    let mut g = c.benchmark_group("aes256");
    let key = [7u8; 32];
    for size in [64usize, 4096, 65_536] {
        let data = vec![0x42u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("ctr_{size}B"), |b| {
            b.iter(|| AesCtr::new(&key, 9).process(&data));
        });
    }
    g.finish();
}

fn bench_proto(c: &mut Criterion) {
    let mut g = c.benchmark_group("proto");
    let msg = VrioMsg::new(
        VrioMsgKind::BlkReq,
        DeviceId {
            client: 3,
            device: 1,
        },
        42,
        Bytes::from(vec![0u8; 4096]),
    );
    g.bench_function("vrio_msg_encode_decode_4k", |b| {
        b.iter(|| {
            let wire = msg.encode();
            VrioMsg::decode(wire).unwrap()
        });
    });
    g.finish();
}

fn bench_iohost(c: &mut Criterion) {
    let mut g = c.benchmark_group("iohost");
    g.bench_function("steering_assign_complete", |b| {
        let mut s = Steering::new(4);
        let mut i = 0u32;
        b.iter(|| {
            let d = DeviceId {
                client: i % 64,
                device: 0,
            };
            i = i.wrapping_add(1);
            let w = s.assign(d);
            s.complete(d);
            w
        });
    });
    g.bench_function("retx_send_complete", |b| {
        let mut rx = BlockRetx::new(RetxConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            let now = SimTime::ZERO + SimDuration::micros(i);
            let mut req = rx.send(now);
            let wire = req.wire_id();
            i += 1;
            rx.on_response(&mut req, wire, now + SimDuration::micros(44))
        });
    });
    g.finish();
}

fn bench_block(c: &mut Criterion) {
    let mut g = c.benchmark_group("block");
    g.bench_function("ramdisk_write_read_4k", |b| {
        let mut d = Ramdisk::new(1 << 20);
        let buf = [0xCDu8; 4096];
        b.iter(|| {
            d.write(4096, &buf).unwrap();
            d.read(4096, 4096).unwrap()
        });
    });
    g.finish();
}

criterion_group!(
    micro,
    bench_virtqueue,
    bench_tso,
    bench_aes,
    bench_proto,
    bench_iohost,
    bench_block
);
criterion_main!(micro);
