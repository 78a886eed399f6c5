//! Split↔packed differential conformance harness.
//!
//! Arbitrary descriptor-chain programs — mixed chain shapes, out-of-order
//! completion, ring wrap-around, and event-suppression toggles — are
//! replayed against every ring configuration. The virtqueue layout is an
//! encoding detail: the *observable* protocol (which chains complete, in
//! what order, with what payloads and written counts) must be identical
//! across layouts. Only notification counters may differ, and those must
//! differ in the direction the paper's exit-elimination claim predicts:
//! suppression-capable layouts never notify more than split-basic.
//!
//! Spec-semantics unit tests for the packed wrap counters and the
//! `vring_need_event` threshold arithmetic ride along at the bottom.

use proptest::prelude::*;
use vrio_virtio::{
    ring_pair, vring_need_event, GuestAddr, GuestMemory, PackedDeviceQueue, PackedDriverQueue,
    PackedLayout, RingConfig,
};

/// One step of a differential program. Driver/device interleaving,
/// out-of-order completion choices, and suppression toggles are all part
/// of the generated program, so every layout replays the exact schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Driver submits a chain with `r` readable and `w` writable segments
    /// (skipped identically everywhere if the in-flight cap is reached).
    Submit { r: usize, w: usize },
    /// Device pops one avail chain into its outstanding set.
    Pop,
    /// Device completes outstanding chain `k % len` (out of order).
    Complete(usize),
    /// Driver reaps one completion.
    Reap,
    /// Driver checks whether its submissions need a kick.
    KickCheck,
    /// Device checks whether its completions need an interrupt.
    SignalCheck,
    /// Driver re-arms its interrupt threshold.
    ArmDriver,
    /// Device re-arms its kick threshold.
    ArmDevice,
    /// Device flips polling mode.
    SetPolling(bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1usize..3, 0usize..3).prop_map(|(r, w)| Op::Submit { r, w }),
        3 => Just(Op::Pop),
        3 => (0usize..8).prop_map(Op::Complete),
        3 => Just(Op::Reap),
        1 => Just(Op::KickCheck),
        1 => Just(Op::SignalCheck),
        1 => Just(Op::ArmDriver),
        1 => Just(Op::ArmDevice),
        1 => any::<bool>().prop_map(Op::SetPolling),
    ]
}

/// The observable outcome of one program replay: the reaped completion
/// sequence as `(tag, written)` pairs (tags name chains layout-neutrally —
/// head values are layout-specific tokens), payload checks folded in, plus
/// the notification totals.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    completions: Vec<(u64, u32)>,
    kicks: u64,
    signals: u64,
    suppressed: u64,
}

const QSIZE: u16 = 8;
/// In-flight cap so queue-full never fires: capacity differences between
/// direct chains (n slots each, worst case 4) and indirect chains (1 slot)
/// would otherwise make submission acceptance layout-dependent.
const MAX_IN_FLIGHT: usize = 2;

fn replay(config: RingConfig, ops: &[Op]) -> Outcome {
    let mut mem = GuestMemory::new(0x100000);
    let (mut drv, mut dev, end) = ring_pair(config, QSIZE, GuestAddr(0x100));
    assert!(end.0 <= 0x10000, "layout fits the reserved area");

    let data_base = 0x10000u64;
    let mut next_tag = 1u64;
    let mut tag_of_head: std::collections::HashMap<u16, u64> = Default::default();
    let mut in_flight = 0usize;
    let mut outstanding: Vec<(u16, u64, u32)> = Vec::new(); // popped, not completed
    let mut completions = Vec::new();
    let mut kicks = 0u64;
    let mut signals = 0u64;

    for op in ops {
        match op {
            Op::Submit { r, w } => {
                if in_flight >= MAX_IN_FLIGHT {
                    continue; // deterministic skip, identical across layouts
                }
                let tag = next_tag;
                next_tag += 1;
                let base = GuestAddr(data_base + tag * 256);
                mem.write(base, &tag.to_le_bytes()).unwrap();
                let readable: Vec<_> = (0..*r)
                    .map(|i| (GuestAddr(base.0 + i as u64 * 8), 8u32))
                    .collect();
                let writable: Vec<_> = (0..*w)
                    .map(|i| (GuestAddr(base.0 + 128 + i as u64 * 8), 8u32))
                    .collect();
                let head = drv.add_chain(&mut mem, &readable, &writable).unwrap();
                assert!(tag_of_head.insert(head, tag).is_none());
                in_flight += 1;
            }
            Op::Pop => {
                if let Some(chain) = dev.pop_avail(&mem).unwrap() {
                    // First readable segment carries the tag: payload bytes
                    // survive the layout encoding.
                    let mut first = [0; 8];
                    chain.read_readable(&mem, 0, &mut first).unwrap();
                    let got = u64::from_le_bytes(first);
                    let tag = tag_of_head[&chain.head];
                    assert_eq!(got, tag, "payload intact under {config}");
                    let cap = chain.writable_len() as u32;
                    let written = chain
                        .write_writable_parts(
                            &mut mem,
                            &[&tag.to_le_bytes()[..(cap.min(8) as usize)]],
                        )
                        .unwrap();
                    outstanding.push((chain.head, tag, written));
                }
            }
            Op::Complete(k) => {
                if outstanding.is_empty() {
                    continue;
                }
                let (head, _tag, written) = outstanding.remove(k % outstanding.len());
                dev.push_used(&mut mem, head, written).unwrap();
            }
            Op::Reap => {
                if let Some(used) = drv.poll_used(&mem).unwrap() {
                    let tag = tag_of_head.remove(&used.head).expect("known head");
                    completions.push((tag, used.written));
                    in_flight -= 1;
                }
            }
            Op::KickCheck => {
                if drv.should_kick(&mem).unwrap() {
                    kicks += 1;
                }
            }
            Op::SignalCheck => {
                if dev.should_signal(&mem).unwrap() {
                    signals += 1;
                }
            }
            Op::ArmDriver => drv.arm(&mut mem).unwrap(),
            Op::ArmDevice => dev.arm(&mut mem).unwrap(),
            Op::SetPolling(on) => dev.set_polling(&mut mem, *on).unwrap(),
        }
    }

    // Drain: pop, complete in-order, reap everything left.
    while let Some(chain) = dev.pop_avail(&mem).unwrap() {
        let tag = tag_of_head[&chain.head];
        outstanding.push((chain.head, tag, 0));
    }
    for (head, _, written) in outstanding.drain(..) {
        dev.push_used(&mut mem, head, written).unwrap();
    }
    while let Some(used) = drv.poll_used(&mem).unwrap() {
        let tag = tag_of_head.remove(&used.head).expect("known head");
        completions.push((tag, used.written));
        in_flight -= 1;
    }
    assert_eq!(in_flight, 0);
    assert_eq!(drv.free_descriptors(), usize::from(QSIZE), "{config}");
    assert_eq!(drv.pinned_descriptors(), 0, "{config}");
    if let Some(a) = drv.indirect_audit() {
        assert_eq!(a.free, a.capacity, "{config}: indirect slots all returned");
        assert_eq!(a.in_use, 0, "{config}");
    }

    let ops_total = {
        let mut t = drv.ops();
        t.add(&dev.ops());
        t
    };
    Outcome {
        completions,
        kicks,
        signals,
        suppressed: ops_total.kicks_suppressed + ops_total.signals_suppressed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The headline conformance law: every layout yields the identical
    /// completion sequence for the identical program; only notification
    /// counts may differ, and never in split-basic's favor.
    #[test]
    fn layouts_agree_on_everything_but_notifications(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        let split = replay(RingConfig::split_basic(), &ops);
        let eidx = replay(RingConfig::split_event_idx(), &ops);
        let packed = replay(RingConfig::packed(), &ops);

        prop_assert_eq!(&split.completions, &eidx.completions);
        prop_assert_eq!(&split.completions, &packed.completions);

        // Split-basic answers every notification check affirmatively, so
        // it upper-bounds the others; it never suppresses anything.
        prop_assert_eq!(split.suppressed, 0);
        prop_assert!(eidx.kicks <= split.kicks);
        prop_assert!(packed.kicks <= split.kicks);
        prop_assert!(eidx.signals <= split.signals);
        prop_assert!(packed.signals <= split.signals);
    }

    /// Packed-ring stress: long schedules over a tiny ring force many wrap
    /// counter flips with mixed chain lengths and out-of-order completion.
    #[test]
    fn packed_survives_wrap_heavy_schedules(
        ops in proptest::collection::vec(op_strategy(), 100..400),
    ) {
        replay(RingConfig::packed(), &ops);
    }
}

// ---------------------------------------------------------------------------
// Spec-semantics unit tests: wrap counters and vring_need_event edges
// ---------------------------------------------------------------------------

#[test]
fn vring_need_event_off_by_one_edges() {
    // Advancing exactly onto the event index does not notify; stepping
    // one past it does.
    assert!(!vring_need_event(5, 5, 4));
    assert!(vring_need_event(5, 6, 5));
    assert!(vring_need_event(5, 6, 4));
    // No progress never notifies, even at the threshold.
    assert!(!vring_need_event(5, 5, 5));
    // Event exactly at old: the next single step notifies.
    assert!(vring_need_event(4, 5, 4));
}

#[test]
fn vring_need_event_wraps_at_u16_boundary() {
    // Threshold at the top of the index space, crossed by the wrap step.
    assert!(vring_need_event(u16::MAX, 0, u16::MAX));
    // A batch spanning the wrap crosses a threshold on either side.
    assert!(vring_need_event(u16::MAX, 2, 0xFFF0));
    assert!(vring_need_event(1, 3, 0xFFF0));
    // Batch spanning the wrap that stops short of the threshold.
    assert!(!vring_need_event(5, 3, 0xFFF0));
    // Degenerate full-range advance.
    assert!(vring_need_event(0, 0xFFFF, 0));
}

#[test]
fn packed_wrap_counter_mismatch_hides_stale_descriptors() {
    let mut mem = GuestMemory::new(0x10000);
    let layout = PackedLayout::new(4, GuestAddr(0x100));
    let mut drv = PackedDriverQueue::new(layout);
    let mut dev = PackedDeviceQueue::new(layout);

    // One full epoch: publish, serve, and reap exactly `size` chains.
    for _ in 0..4 {
        drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
            .unwrap();
        let c = dev.pop_avail(&mem).unwrap().unwrap();
        dev.push_used(&mut mem, c.head, 0).unwrap();
        drv.poll_used(&mem).unwrap().unwrap();
    }
    // The ring is physically full of last-epoch descriptors whose AVAIL
    // bits are still set, but the device's wrap counter has flipped: none
    // of them may be seen as available, and none as used by the driver.
    assert!(!dev.has_avail(&mem).unwrap());
    assert!(dev.pop_avail(&mem).unwrap().is_none());
    assert!(drv.poll_used(&mem).unwrap().is_none());

    // The next epoch publishes with inverted flag polarity and is seen.
    let id = drv
        .add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
        .unwrap();
    assert!(dev.has_avail(&mem).unwrap());
    assert_eq!(dev.pop_avail(&mem).unwrap().unwrap().head, id);
}

#[test]
fn packed_used_marker_is_not_available() {
    let mut mem = GuestMemory::new(0x10000);
    let layout = PackedLayout::new(4, GuestAddr(0x100));
    let mut drv = PackedDriverQueue::new(layout);
    let mut dev = PackedDeviceQueue::new(layout);

    // A completed-but-unreaped entry (AVAIL == USED == wrap) must read as
    // used to the driver and as not-available to the device.
    drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
        .unwrap();
    let c = dev.pop_avail(&mem).unwrap().unwrap();
    dev.push_used(&mut mem, c.head, 0).unwrap();
    assert!(!dev.has_avail(&mem).unwrap());
    assert!(dev.pop_avail(&mem).unwrap().is_none());
    assert!(drv.poll_used(&mem).unwrap().is_some());
}
