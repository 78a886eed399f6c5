//! Layout-polymorphic virtqueues: one driver/device pair that speaks
//! either the split or the packed ring, with optional indirect descriptor
//! tables and event suppression, selected by a negotiated [`RingConfig`].
//!
//! The device models in `vrio-hv` talk to [`DriverRing`]/[`DeviceRing`]
//! instead of a concrete queue type, so a single feature-negotiation knob
//! flips an entire VM between layouts — which is what lets the differential
//! conformance harness run identical workloads over both and diff the
//! outcomes. The notification *policy* also lives here:
//!
//! * without `EVENT_IDX` (split-basic), every submission batch kicks and
//!   every completion batch signals — the full exit/interrupt budget;
//! * with `EVENT_IDX` or the packed ring, the suppression state decides,
//!   and elided notifications are counted in [`RingOps`] so the paper's
//!   exit-elimination claim is measurable rather than assumed.

use crate::features::{Feature, FeatureSet};
use crate::mem::{GuestAddr, GuestMemory};
use crate::packed::{PackedDeviceQueue, PackedDriverQueue, PackedLayout};
use crate::ring::{
    DescChain, DeviceQueue, DriverQueue, QueueError, RingOps, UsedElem, VirtqueueLayout,
};

/// Maximum segments an indirect table slot holds. Blk chains peak at three
/// segments (header, data, status), so four leaves headroom without
/// bloating the table region.
pub const MAX_INDIRECT_SEGS: u16 = 4;

/// Which descriptor-ring layout a queue uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RingLayout {
    /// The virtio 1.0 three-area split virtqueue.
    Split,
    /// The virtio 1.1 single-ring packed virtqueue.
    Packed,
}

/// A negotiated ring configuration: layout plus the optional features that
/// change descriptor accounting (`INDIRECT_DESC`) and notification policy
/// (`EVENT_IDX`; always on for packed, whose suppression structs are part
/// of the layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RingConfig {
    /// Descriptor ring layout.
    pub layout: RingLayout,
    /// Multi-segment chains ride one-slot indirect descriptor tables.
    pub indirect: bool,
    /// Event suppression negotiated (EVENT_IDX / packed event structs).
    pub event_idx: bool,
}

impl RingConfig {
    /// The seed configuration: split ring, no indirect tables, no event
    /// suppression. Every config produced before this PR behaves exactly
    /// like this.
    pub fn split_basic() -> Self {
        RingConfig {
            layout: RingLayout::Split,
            indirect: false,
            event_idx: false,
        }
    }

    /// Split ring with `EVENT_IDX` suppression and indirect tables.
    pub fn split_event_idx() -> Self {
        RingConfig {
            layout: RingLayout::Split,
            indirect: true,
            event_idx: true,
        }
    }

    /// Packed ring with its event suppression structs and indirect tables.
    pub fn packed() -> Self {
        RingConfig {
            layout: RingLayout::Packed,
            indirect: true,
            event_idx: true,
        }
    }

    /// Parses a CLI-style ring name (`split`, `split-eventidx`, `packed`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "split" | "split-basic" => Some(Self::split_basic()),
            "split-eventidx" | "split-event-idx" => Some(Self::split_event_idx()),
            "packed" => Some(Self::packed()),
            _ => None,
        }
    }

    /// Canonical name for sweep keys and reports.
    pub fn name(&self) -> &'static str {
        match (self.layout, self.indirect, self.event_idx) {
            (RingLayout::Split, false, false) => "split",
            (RingLayout::Split, _, _) => "split-eventidx",
            (RingLayout::Packed, _, _) => "packed",
        }
    }

    /// The feature bits this configuration negotiates.
    pub fn features(&self) -> FeatureSet {
        let mut f = FeatureSet::new() | Feature::Version1;
        if self.indirect {
            f = f | Feature::RingIndirectDesc;
        }
        if self.event_idx {
            f = f | Feature::RingEventIdx;
        }
        if self.layout == RingLayout::Packed {
            f = f | Feature::RingPacked;
        }
        f
    }
}

impl Default for RingConfig {
    fn default() -> Self {
        Self::split_basic()
    }
}

impl std::fmt::Display for RingConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A pool of fixed-size indirect descriptor table slots in guest memory,
/// one slot per potential in-flight chain.
#[derive(Debug, Clone)]
pub struct IndirectTables {
    base: GuestAddr,
    slots: u16,
    entries: u16,
    free: Vec<u16>,
}

impl IndirectTables {
    /// Carves `slots` tables of `entries` descriptors each out of guest
    /// memory at `base`.
    pub fn new(base: GuestAddr, slots: u16, entries: u16) -> Self {
        IndirectTables {
            base,
            slots,
            entries,
            free: (0..slots).rev().collect(),
        }
    }

    /// Bytes of guest memory the table region occupies.
    pub fn footprint(slots: u16, entries: u16) -> u64 {
        u64::from(slots) * u64::from(entries) * 16
    }

    /// Guest address of table slot `slot`.
    pub fn addr(&self, slot: u16) -> GuestAddr {
        debug_assert!(slot < self.slots);
        self.base
            .offset(u64::from(slot) * u64::from(self.entries) * 16)
    }

    /// Claims a free table slot, if any.
    pub fn alloc(&mut self) -> Option<u16> {
        self.free.pop()
    }

    /// Returns `slot` to the pool.
    pub fn release(&mut self, slot: u16) {
        debug_assert!(slot < self.slots);
        debug_assert!(!self.free.contains(&slot), "indirect slot double-free");
        self.free.push(slot);
    }

    /// Total slots.
    pub fn capacity(&self) -> u16 {
        self.slots
    }

    /// Free slots.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Segments one slot can hold.
    pub fn entries_per_slot(&self) -> u16 {
        self.entries
    }
}

/// Indirect-table books for one queue, captured for the oracle's
/// descriptor-conservation audit. `free` comes from the table free list
/// and `in_use` from the head→slot map — two independently maintained
/// books whose sum must equal `capacity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndirectAudit {
    /// Total table slots.
    pub capacity: u16,
    /// Slots on the free list.
    pub free: u16,
    /// Slots referenced by an in-flight chain.
    pub in_use: u16,
}

#[derive(Debug, Clone)]
enum DriverInner {
    Split(DriverQueue),
    Packed(PackedDriverQueue),
}

/// The guest (driver) side of a layout-polymorphic virtqueue.
#[derive(Debug, Clone)]
pub struct DriverRing {
    config: RingConfig,
    inner: DriverInner,
    tables: Option<IndirectTables>,
    /// The indirect table slot of each in-flight indirect chain, indexed
    /// by head (empty without indirect tables).
    slot_of_head: Vec<Option<u16>>,
}

#[derive(Debug, Clone)]
enum DeviceInner {
    Split(DeviceQueue),
    Packed(PackedDeviceQueue),
}

/// The device (back-end) side of a layout-polymorphic virtqueue.
#[derive(Debug, Clone)]
pub struct DeviceRing {
    config: RingConfig,
    inner: DeviceInner,
    polling: bool,
}

/// Builds a connected driver/device pair for `config`, laying the ring
/// (and, when negotiated, its indirect table region) out from `base`.
/// Returns the first guest address past everything allocated.
pub fn ring_pair(
    config: RingConfig,
    size: u16,
    base: GuestAddr,
) -> (DriverRing, DeviceRing, GuestAddr) {
    let (drv_inner, dev_inner, mut end) = match config.layout {
        RingLayout::Split => {
            let layout = VirtqueueLayout::new(size, base);
            let end = GuestAddr(layout.desc.0 + layout.footprint());
            (
                DriverInner::Split(DriverQueue::new(layout)),
                DeviceInner::Split(DeviceQueue::new(layout)),
                end,
            )
        }
        RingLayout::Packed => {
            let layout = PackedLayout::new(size, base);
            let end = GuestAddr(layout.desc.0 + layout.footprint());
            (
                DriverInner::Packed(PackedDriverQueue::new(layout)),
                DeviceInner::Packed(PackedDeviceQueue::new(layout)),
                end,
            )
        }
    };
    let (tables, slot_of_head) = if config.indirect {
        let tbase = GuestAddr(end.0.div_ceil(16) * 16);
        end = tbase.offset(IndirectTables::footprint(size, MAX_INDIRECT_SEGS));
        let tables = IndirectTables::new(tbase, size, MAX_INDIRECT_SEGS);
        (Some(tables), vec![None; usize::from(size)])
    } else {
        (None, Vec::new())
    };
    (
        DriverRing {
            config,
            inner: drv_inner,
            tables,
            slot_of_head,
        },
        DeviceRing {
            config,
            inner: dev_inner,
            polling: false,
        },
        end,
    )
}

impl DriverRing {
    /// The negotiated ring configuration.
    pub fn config(&self) -> RingConfig {
        self.config
    }

    /// Driver-side operation counters.
    pub fn ops(&self) -> RingOps {
        match &self.inner {
            DriverInner::Split(q) => q.ops(),
            DriverInner::Packed(q) => q.ops(),
        }
    }

    /// Free main-ring descriptors/slots.
    pub fn free_descriptors(&self) -> usize {
        match &self.inner {
            DriverInner::Split(q) => q.free_descriptors(),
            DriverInner::Packed(q) => q.free_descriptors(),
        }
    }

    /// Main-ring descriptors/slots currently allocated.
    pub fn pinned_descriptors(&self) -> u16 {
        match &self.inner {
            DriverInner::Split(q) => q.pinned_descriptors(),
            DriverInner::Packed(q) => q.pinned_descriptors(),
        }
    }

    /// Chains published but not yet reaped.
    pub fn in_flight(&self) -> u16 {
        match &self.inner {
            DriverInner::Split(q) => q.in_flight(),
            DriverInner::Packed(q) => q.in_flight(),
        }
    }

    /// Ring capacity in descriptors.
    pub fn capacity(&self) -> u16 {
        match &self.inner {
            DriverInner::Split(q) => q.layout().size,
            DriverInner::Packed(q) => q.layout().size,
        }
    }

    /// Indirect-table books, when indirect tables are negotiated.
    pub fn indirect_audit(&self) -> Option<IndirectAudit> {
        self.tables.as_ref().map(|t| IndirectAudit {
            capacity: t.capacity(),
            free: t.free_slots() as u16,
            in_use: self.slot_of_head.iter().flatten().count() as u16,
        })
    }

    /// Publishes a chain of `readable` then `writable` buffers, routing
    /// multi-segment chains through an indirect table slot when negotiated
    /// (falling back to a direct chain when the pool is empty or the chain
    /// exceeds a slot's entries). Returns the completion token.
    pub fn add_chain(
        &mut self,
        mem: &mut GuestMemory,
        readable: &[(GuestAddr, u32)],
        writable: &[(GuestAddr, u32)],
    ) -> Result<u16, QueueError> {
        let segs = readable.len() + writable.len();
        let slot = match &mut self.tables {
            Some(t) if segs >= 2 && segs <= usize::from(t.entries_per_slot()) => t.alloc(),
            _ => None,
        };
        let Some(slot) = slot else {
            return match &mut self.inner {
                DriverInner::Split(q) => q.add_chain(mem, readable, writable),
                DriverInner::Packed(q) => q.add_chain(mem, readable, writable),
            };
        };
        let table = self
            .tables
            .as_ref()
            .expect("slot implies tables")
            .addr(slot);
        let res = match &mut self.inner {
            DriverInner::Split(q) => q.add_chain_indirect(mem, table, readable, writable),
            DriverInner::Packed(q) => q.add_chain_indirect(mem, table, readable, writable),
        };
        match res {
            Ok(head) => {
                self.slot_of_head[usize::from(head)] = Some(slot);
                Ok(head)
            }
            Err(e) => {
                self.tables.as_mut().expect("checked").release(slot);
                Err(e)
            }
        }
    }

    /// Reaps one completion, releasing its indirect table slot if any.
    pub fn poll_used(&mut self, mem: &GuestMemory) -> Result<Option<UsedElem>, QueueError> {
        let used = match &mut self.inner {
            DriverInner::Split(q) => q.poll_used(mem)?,
            DriverInner::Packed(q) => q.poll_used(mem)?,
        };
        if let Some(u) = used {
            let slot = self
                .slot_of_head
                .get_mut(usize::from(u.head))
                .and_then(Option::take);
            if let Some(slot) = slot {
                self.tables
                    .as_mut()
                    .expect("slot implies tables")
                    .release(slot);
            }
        }
        Ok(used)
    }

    /// Whether the driver's recent submissions require a device kick —
    /// unconditionally `true` without event suppression, otherwise the
    /// suppression state decides. Counts kicks and suppressions either way.
    pub fn should_kick(&mut self, mem: &GuestMemory) -> Result<bool, QueueError> {
        match &mut self.inner {
            DriverInner::Split(q) => {
                if self.config.event_idx {
                    q.should_notify_device(mem)
                } else {
                    q.kick_always();
                    Ok(true)
                }
            }
            DriverInner::Packed(q) => q.should_notify_device(mem),
        }
    }

    /// Arms the driver's interrupt suppression after a reap pass ("wake me
    /// past what I have seen"). No-op without event suppression.
    pub fn arm(&mut self, mem: &mut GuestMemory) -> Result<(), QueueError> {
        match &mut self.inner {
            DriverInner::Split(q) => {
                if self.config.event_idx {
                    q.publish_used_event(mem)?;
                }
                Ok(())
            }
            DriverInner::Packed(q) => q.publish_driver_event(mem),
        }
    }
}

impl DeviceRing {
    /// The negotiated ring configuration.
    pub fn config(&self) -> RingConfig {
        self.config
    }

    /// Device-side operation counters.
    pub fn ops(&self) -> RingOps {
        match &self.inner {
            DeviceInner::Split(q) => q.ops(),
            DeviceInner::Packed(q) => q.ops(),
        }
    }

    /// Whether the driver has published chains not yet popped.
    pub fn has_avail(&self, mem: &GuestMemory) -> Result<bool, QueueError> {
        match &self.inner {
            DeviceInner::Split(q) => q.has_avail(mem),
            DeviceInner::Packed(q) => q.has_avail(mem),
        }
    }

    /// Pops the next available chain, expanding indirect tables inline.
    pub fn pop_avail(&mut self, mem: &GuestMemory) -> Result<Option<DescChain>, QueueError> {
        match &mut self.inner {
            DeviceInner::Split(q) => q.pop_avail(mem),
            DeviceInner::Packed(q) => q.pop_avail(mem),
        }
    }

    /// [`DeviceRing::pop_avail`] into a caller-provided scratch chain
    /// (cleared and refilled in place; capacity survives across requests).
    /// Returns `false` when nothing new is available.
    pub fn pop_avail_into(
        &mut self,
        mem: &GuestMemory,
        chain: &mut DescChain,
    ) -> Result<bool, QueueError> {
        match &mut self.inner {
            DeviceInner::Split(q) => q.pop_avail_into(mem, chain),
            DeviceInner::Packed(q) => q.pop_avail_into(mem, chain),
        }
    }

    /// Publishes a completion for token `head` with `written` bytes.
    pub fn push_used(
        &mut self,
        mem: &mut GuestMemory,
        head: u16,
        written: u32,
    ) -> Result<(), QueueError> {
        match &mut self.inner {
            DeviceInner::Split(q) => q.push_used(mem, head, written),
            DeviceInner::Packed(q) => q.push_used(mem, head, written),
        }
    }

    /// Whether the device's recent completions require a driver interrupt.
    /// Counts signals and suppressions either way.
    pub fn should_signal(&mut self, mem: &GuestMemory) -> Result<bool, QueueError> {
        match &mut self.inner {
            DeviceInner::Split(q) => {
                if self.config.event_idx {
                    q.should_signal_driver(mem)
                } else {
                    q.signal_always();
                    Ok(true)
                }
            }
            DeviceInner::Packed(q) => q.should_signal_driver(mem),
        }
    }

    /// Arms the device's kick suppression after a drain pass. While the
    /// device is in polling mode this is a no-op for split rings (a polling
    /// sidecore never publishes `avail_event`, so the stale event keeps
    /// kicks suppressed) and writes DISABLE for packed rings.
    pub fn arm(&mut self, mem: &mut GuestMemory) -> Result<(), QueueError> {
        match &mut self.inner {
            DeviceInner::Split(q) => {
                if self.config.event_idx && !self.polling {
                    q.publish_avail_event(mem)?;
                }
                Ok(())
            }
            DeviceInner::Packed(q) => q.publish_device_event(mem, self.polling),
        }
    }

    /// Switches the device between polling mode (kicks suppressed — the
    /// worker spins on `has_avail`) and interrupt mode (kick suppression
    /// re-armed). Publishes the new state to the suppression structs.
    pub fn set_polling(&mut self, mem: &mut GuestMemory, polling: bool) -> Result<(), QueueError> {
        self.polling = polling;
        self.arm(mem)
    }

    /// Whether the device is currently in polling mode.
    pub fn polling(&self) -> bool {
        self.polling
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(config: RingConfig) -> (GuestMemory, DriverRing, DeviceRing) {
        let mem = GuestMemory::new(0x40000);
        let (drv, dev, end) = ring_pair(config, 8, GuestAddr(0x100));
        assert!(end.0 < 0x20000);
        (mem, drv, dev)
    }

    fn roundtrip(config: RingConfig) {
        let (mut mem, mut drv, mut dev) = pair(config);
        mem.write(GuestAddr(0x20000), b"request!").unwrap();
        let head = drv
            .add_chain(
                &mut mem,
                &[(GuestAddr(0x20000), 4), (GuestAddr(0x20004), 4)],
                &[(GuestAddr(0x21000), 8)],
            )
            .unwrap();
        assert!(drv.should_kick(&mem).unwrap(), "reset state always kicks");
        let chain = dev.pop_avail(&mem).unwrap().unwrap();
        assert_eq!(chain.head, head);
        let mut got = Vec::new();
        chain.readable_append(&mem, 0, &mut got).unwrap();
        assert_eq!(got, b"request!");
        let n = chain
            .write_writable_parts(&mut mem, &[b"RESPONSE"])
            .unwrap();
        dev.push_used(&mut mem, chain.head, n).unwrap();
        assert!(dev.should_signal(&mem).unwrap());
        let used = drv.poll_used(&mem).unwrap().unwrap();
        assert_eq!((used.head, used.written), (head, 8));
        drv.arm(&mut mem).unwrap();
        assert_eq!(drv.free_descriptors(), 8);
        assert_eq!(drv.pinned_descriptors(), 0);
        if let Some(a) = drv.indirect_audit() {
            assert_eq!(a.free, a.capacity);
            assert_eq!(a.in_use, 0);
        }
    }

    #[test]
    fn all_configs_roundtrip() {
        roundtrip(RingConfig::split_basic());
        roundtrip(RingConfig::split_event_idx());
        roundtrip(RingConfig::packed());
    }

    #[test]
    fn split_basic_counts_every_kick_and_signal() {
        let (mut mem, mut drv, mut dev) = pair(RingConfig::split_basic());
        for _ in 0..4 {
            drv.add_chain(&mut mem, &[(GuestAddr(0x20000), 4)], &[])
                .unwrap();
            assert!(drv.should_kick(&mem).unwrap());
        }
        while let Some(c) = dev.pop_avail(&mem).unwrap() {
            dev.push_used(&mut mem, c.head, 0).unwrap();
            assert!(dev.should_signal(&mem).unwrap());
        }
        assert_eq!(drv.ops().driver_kicks, 4);
        assert_eq!(drv.ops().kicks_suppressed, 0);
        assert_eq!(dev.ops().driver_signals, 4);
    }

    fn batched_kicks(config: RingConfig) -> (u64, u64) {
        let (mut mem, mut drv, mut dev) = pair(config);
        dev.arm(&mut mem).unwrap();
        for _round in 0..8 {
            for _ in 0..4 {
                drv.add_chain(&mut mem, &[(GuestAddr(0x20000), 4)], &[])
                    .unwrap();
                drv.should_kick(&mem).unwrap();
            }
            drv.arm(&mut mem).unwrap();
            while let Some(c) = dev.pop_avail(&mem).unwrap() {
                dev.push_used(&mut mem, c.head, 0).unwrap();
                dev.should_signal(&mem).unwrap();
            }
            dev.arm(&mut mem).unwrap();
            while drv.poll_used(&mem).unwrap().is_some() {}
            drv.arm(&mut mem).unwrap();
        }
        let kicks = drv.ops().driver_kicks + dev.ops().driver_signals;
        let suppressed = drv.ops().kicks_suppressed + dev.ops().signals_suppressed;
        (kicks, suppressed)
    }

    #[test]
    fn suppression_beats_split_basic_on_batches() {
        let (basic_kicks, basic_supp) = batched_kicks(RingConfig::split_basic());
        let (eidx_kicks, eidx_supp) = batched_kicks(RingConfig::split_event_idx());
        let (packed_kicks, packed_supp) = batched_kicks(RingConfig::packed());
        assert_eq!(basic_supp, 0);
        assert!(eidx_kicks < basic_kicks, "{eidx_kicks} < {basic_kicks}");
        assert!(packed_kicks < basic_kicks, "{packed_kicks} < {basic_kicks}");
        assert!(eidx_supp > 0);
        assert!(packed_supp > 0);
    }

    #[test]
    fn polling_device_suppresses_kicks_for_suppression_layouts() {
        for config in [RingConfig::split_event_idx(), RingConfig::packed()] {
            let (mut mem, mut drv, mut dev) = pair(config);
            dev.arm(&mut mem).unwrap();
            // First kick lands (device armed at reset position).
            drv.add_chain(&mut mem, &[(GuestAddr(0x20000), 4)], &[])
                .unwrap();
            drv.should_kick(&mem).unwrap();
            dev.set_polling(&mut mem, true).unwrap();
            while let Some(c) = dev.pop_avail(&mem).unwrap() {
                dev.push_used(&mut mem, c.head, 0).unwrap();
            }
            let before = drv.ops().driver_kicks;
            for _ in 0..5 {
                drv.add_chain(&mut mem, &[(GuestAddr(0x20000), 4)], &[])
                    .unwrap();
                assert!(!drv.should_kick(&mem).unwrap(), "{config}: polling");
            }
            assert_eq!(drv.ops().driver_kicks, before, "{config}");
        }
    }

    #[test]
    fn oversize_chains_fall_back_to_direct_descriptors() {
        let (mut mem, mut drv, _dev) = pair(RingConfig::split_event_idx());
        // Two-segment chains ride indirect tables: one main slot each.
        for i in 0..2u64 {
            let a = GuestAddr(0x20000 + i * 0x100);
            drv.add_chain(&mut mem, &[(a, 4), (a.offset(8), 4)], &[])
                .unwrap();
        }
        let audit = drv.indirect_audit().unwrap();
        assert_eq!(audit.in_use, 2);
        assert_eq!(audit.free + audit.in_use, audit.capacity);
        assert_eq!(drv.free_descriptors(), 6);
        // A 5-segment chain exceeds MAX_INDIRECT_SEGS: direct path, five
        // main descriptors, no table slot consumed.
        let bufs: Vec<(GuestAddr, u32)> = (0..5)
            .map(|i| (GuestAddr(0x30000 + i * 16), 4u32))
            .collect();
        drv.add_chain(&mut mem, &bufs, &[]).unwrap();
        assert_eq!(drv.free_descriptors(), 1);
        assert_eq!(drv.indirect_audit().unwrap().in_use, 2);
    }
}
