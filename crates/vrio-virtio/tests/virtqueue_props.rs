//! Property tests for the split virtqueue: under arbitrary interleavings of
//! driver submissions and device completions, no chain is ever lost,
//! duplicated, reordered on the avail path, or corrupted in payload.

use proptest::prelude::*;
use vrio_virtio::{DeviceQueue, DriverQueue, GuestAddr, GuestMemory, VirtqueueLayout};

/// A step in a randomized schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Driver submits a chain with `r` readable and `w` writable buffers.
    Submit { r: usize, w: usize },
    /// Device pops one avail chain (if any) and completes it immediately.
    Serve,
    /// Driver reaps one completion (if any).
    Reap,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..4, 0usize..3).prop_map(|(r, w)| Op::Submit { r, w }),
        Just(Op::Serve),
        Just(Op::Reap),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn no_loss_no_duplication_under_arbitrary_schedules(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        qpow in 2u32..6,
    ) {
        let qsize = 1u16 << qpow;
        let mut mem = GuestMemory::new(0x100000);
        let layout = VirtqueueLayout::new(qsize, GuestAddr(0x100));
        let mut drv = DriverQueue::new(layout);
        let mut dev = DeviceQueue::new(layout);

        // Payload arena: each submission writes a unique tag at a unique
        // address so we can verify integrity end to end.
        let mut next_tag: u64 = 1;
        let data_base = 0x10000u64;
        let mut submitted: Vec<(u16, u64)> = Vec::new(); // (head, tag) awaiting service
        let mut served: Vec<(u16, u64)> = Vec::new();    // completed, awaiting reap
        let mut reaped_tags: Vec<u64> = Vec::new();
        let mut submitted_tags: Vec<u64> = Vec::new();

        for op in ops {
            match op {
                Op::Submit { r, w } => {
                    let tag = next_tag;
                    let addr = GuestAddr(data_base + tag * 64);
                    mem.write(addr, &tag.to_le_bytes()).unwrap();
                    let readable: Vec<_> = (0..r)
                        .map(|i| (GuestAddr(addr.0 + (i as u64) * 8), 8u32))
                        .collect();
                    let writable: Vec<_> = (0..w)
                        .map(|i| (GuestAddr(addr.0 + 32 + (i as u64) * 8), 8u32))
                        .collect();
                    match drv.add_chain(&mut mem, &readable, &writable) {
                        Ok(head) => {
                            next_tag += 1;
                            submitted.push((head, tag));
                            submitted_tags.push(tag);
                        }
                        Err(_) => { /* queue full: acceptable, not a loss */ }
                    }
                }
                Op::Serve => {
                    if let Some(chain) = dev.pop_avail(&mem).unwrap() {
                        // Avail path must be FIFO.
                        let (head, tag) = submitted.remove(0);
                        prop_assert_eq!(chain.head, head);
                        // First readable buffer carries the tag.
                        let mut first = [0; 8];
                        chain.read_readable(&mem, 0, &mut first).unwrap();
                        let got = u64::from_le_bytes(first);
                        prop_assert_eq!(got, tag);
                        dev.push_used(&mut mem, chain.head, 0).unwrap();
                        served.push((head, tag));
                    }
                }
                Op::Reap => {
                    if let Some(used) = drv.poll_used(&mem).unwrap() {
                        let (head, tag) = served.remove(0);
                        prop_assert_eq!(used.head, head);
                        reaped_tags.push(tag);
                    }
                }
            }
        }

        // Drain everything still in flight.
        while let Some(chain) = dev.pop_avail(&mem).unwrap() {
            let (head, tag) = submitted.remove(0);
            prop_assert_eq!(chain.head, head);
            dev.push_used(&mut mem, chain.head, 0).unwrap();
            served.push((head, tag));
        }
        while let Some(used) = drv.poll_used(&mem).unwrap() {
            let (head, tag) = served.remove(0);
            prop_assert_eq!(used.head, head);
            reaped_tags.push(tag);
        }

        // Exactly-once delivery of every accepted submission.
        prop_assert_eq!(reaped_tags.len(), submitted_tags.len());
        let mut sorted = reaped_tags.clone();
        sorted.sort_unstable();
        let mut expect = submitted_tags.clone();
        expect.sort_unstable();
        prop_assert_eq!(sorted, expect);
        // All descriptors returned to the free list.
        prop_assert_eq!(drv.free_descriptors(), usize::from(qsize));
    }

    #[test]
    fn payload_integrity_through_writable_buffers(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
    ) {
        let mut mem = GuestMemory::new(0x10000);
        let layout = VirtqueueLayout::new(8, GuestAddr(0x100));
        let mut drv = DriverQueue::new(layout);
        let mut dev = DeviceQueue::new(layout);

        // Split the writable area into two buffers to exercise scattering.
        let total = payload.len() as u32;
        let first = total / 2;
        drv.add_chain(
            &mut mem,
            &[(GuestAddr(0x4000), 1)],
            &[(GuestAddr(0x5000), first.max(1)), (GuestAddr(0x6000), total)],
        ).unwrap();
        let chain = dev.pop_avail(&mem).unwrap().unwrap();
        let written = chain.write_writable_parts(&mut mem, &[&payload]).unwrap();
        prop_assert_eq!(written as usize, payload.len());
        dev.push_used(&mut mem, chain.head, written).unwrap();
        drv.poll_used(&mem).unwrap().unwrap();

        // Reassemble what the device scattered and compare.
        let n1 = (first.max(1) as usize).min(payload.len());
        let mut got = Vec::new();
        mem.read_append(GuestAddr(0x5000), n1 as u64, &mut got).unwrap();
        mem.read_append(GuestAddr(0x6000), (payload.len() - n1) as u64, &mut got)
            .unwrap();
        prop_assert_eq!(got, payload);
    }
}
