//! The virtio 1.1 *packed virtqueue* (`VIRTIO_F_RING_PACKED`).
//!
//! One contiguous descriptor ring replaces the split layout's three areas:
//! driver and device both march through the same slots, distinguishing
//! available from used entries by the AVAIL/USED flag bits matched against
//! per-side *wrap counters* that flip each time a position wraps past the
//! ring end. Completion tokens are explicit *buffer IDs* rather than
//! descriptor indices, so devices may complete out of order while both
//! sides advance positionally by each chain's descriptor count.
//!
//! Event suppression uses the spec's two 4-byte structures after the ring —
//! the *driver event suppression* struct gates device→driver interrupts,
//! the *device event suppression* struct gates driver→device kicks. Each
//! holds `{ off_wrap: u16, flags: u16 }` with flags ENABLE (0, always
//! notify — the reset state), DISABLE (1), or DESC (2, one-shot threshold).
//!
//! **Simulation simplification:** in DESC mode, `off_wrap` carries a 16-bit
//! *chain sequence number* (chains published / completed mod 2^16) instead
//! of the spec's 15-bit ring offset + wrap bit. Both encodings express the
//! same one-shot "notify me once you pass the work I had seen" threshold,
//! and the sequence form lets the split ring's [`vring_need_event`]
//! arithmetic decide notifications identically for both layouts — which is
//! exactly what the split↔packed differential harness wants to compare.

use crate::mem::{GuestAddr, GuestMemory};
use crate::ring::{
    vring_need_event, DescChain, QueueError, RingOps, UsedElem, DESC_F_INDIRECT, DESC_F_NEXT,
    DESC_F_WRITE, DESC_SIZE,
};

/// Packed descriptor flag: available bit (bit 7).
pub const PACKED_DESC_F_AVAIL: u16 = 1 << 7;
/// Packed descriptor flag: used bit (bit 15).
pub const PACKED_DESC_F_USED: u16 = 1 << 15;

/// Event suppression flags value: notifications always enabled (reset state).
pub const RING_EVENT_FLAGS_ENABLE: u16 = 0;
/// Event suppression flags value: notifications disabled (a polling peer).
pub const RING_EVENT_FLAGS_DISABLE: u16 = 1;
/// Event suppression flags value: one-shot notification at `off_wrap`.
pub const RING_EVENT_FLAGS_DESC: u16 = 2;

/// Computed addresses of a packed virtqueue within guest memory: the
/// descriptor ring followed by the two event suppression structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedLayout {
    /// Ring size in descriptors. Must be a power of two (not required by
    /// the spec for packed rings, but kept for parity with split layouts).
    pub size: u16,
    /// Base of the descriptor ring (`size * 16` bytes).
    pub desc: GuestAddr,
    /// Driver event suppression struct (driver-written, device-read).
    pub driver_event: GuestAddr,
    /// Device event suppression struct (device-written, driver-read).
    pub device_event: GuestAddr,
}

impl PackedLayout {
    /// Lays a packed queue of `size` descriptors out from `base`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two.
    pub fn new(size: u16, base: GuestAddr) -> Self {
        assert!(
            size > 0 && size.is_power_of_two(),
            "queue size must be a power of two"
        );
        let align = |a: u64, to: u64| a.div_ceil(to) * to;
        let desc = GuestAddr(align(base.0, 16));
        let driver_event = GuestAddr(align(desc.0 + u64::from(size) * DESC_SIZE, 4));
        let device_event = driver_event.offset(4);
        PackedLayout {
            size,
            desc,
            driver_event,
            device_event,
        }
    }

    /// Total bytes of guest memory the queue occupies past `desc`.
    pub fn footprint(&self) -> u64 {
        self.device_event.0 + 4 - self.desc.0
    }

    fn desc_addr(&self, pos: u16) -> GuestAddr {
        debug_assert!(pos < self.size);
        self.desc.offset(u64::from(pos) * DESC_SIZE)
    }
}

/// One packed descriptor: `{ addr, len, id, flags }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedDesc {
    addr: u64,
    len: u32,
    id: u16,
    flags: u16,
}

fn read_pdesc(
    mem: &GuestMemory,
    layout: &PackedLayout,
    pos: u16,
) -> Result<PackedDesc, QueueError> {
    let a = layout.desc_addr(pos);
    Ok(PackedDesc {
        addr: mem.read_u64_le(a)?,
        len: mem.read_u32_le(a.offset(8))?,
        id: mem.read_u16_le(a.offset(12))?,
        flags: mem.read_u16_le(a.offset(14))?,
    })
}

fn write_pdesc(
    mem: &mut GuestMemory,
    layout: &PackedLayout,
    pos: u16,
    d: PackedDesc,
) -> Result<(), QueueError> {
    let a = layout.desc_addr(pos);
    mem.write_u64_le(a, d.addr)?;
    mem.write_u32_le(a.offset(8), d.len)?;
    mem.write_u16_le(a.offset(12), d.id)?;
    mem.write_u16_le(a.offset(14), d.flags)?;
    Ok(())
}

/// Flag bits marking a descriptor *available* under wrap counter `wrap`:
/// AVAIL == wrap, USED != wrap.
fn avail_bits(wrap: bool) -> u16 {
    if wrap {
        PACKED_DESC_F_AVAIL
    } else {
        PACKED_DESC_F_USED
    }
}

/// Whether `flags` marks an available descriptor under wrap counter `wrap`.
fn is_avail(flags: u16, wrap: bool) -> bool {
    let avail = flags & PACKED_DESC_F_AVAIL != 0;
    let used = flags & PACKED_DESC_F_USED != 0;
    avail == wrap && used != wrap
}

/// Whether `flags` marks a used descriptor under wrap counter `wrap`:
/// AVAIL == USED == wrap.
fn is_used(flags: u16, wrap: bool) -> bool {
    let avail = flags & PACKED_DESC_F_AVAIL != 0;
    let used = flags & PACKED_DESC_F_USED != 0;
    avail == wrap && used == wrap
}

/// Reads one event suppression struct: `(off_wrap, flags)`.
fn read_event(mem: &GuestMemory, at: GuestAddr) -> Result<(u16, u16), QueueError> {
    Ok((mem.read_u16_le(at)?, mem.read_u16_le(at.offset(2))?))
}

fn write_event(
    mem: &mut GuestMemory,
    at: GuestAddr,
    off_wrap: u16,
    flags: u16,
) -> Result<(), QueueError> {
    mem.write_u16_le(at, off_wrap)?;
    mem.write_u16_le(at.offset(2), flags)?;
    Ok(())
}

/// The one-shot notification decision shared by both directions: given the
/// peer's published suppression struct and this side's chain sequence
/// counters, should a notification fire?
fn need_notify(event: (u16, u16), new_seq: u16, last_seq: u16) -> bool {
    let (off_wrap, flags) = event;
    match flags {
        RING_EVENT_FLAGS_DISABLE => false,
        RING_EVENT_FLAGS_DESC => vring_need_event(off_wrap, new_seq, last_seq),
        // ENABLE and any reserved value: always notify (the safe default).
        _ => true,
    }
}

/// The guest (driver) side of a packed virtqueue.
///
/// # Examples
///
/// ```
/// use vrio_virtio::{GuestAddr, GuestMemory, PackedDeviceQueue, PackedDriverQueue, PackedLayout};
///
/// let mut mem = GuestMemory::new(0x10000);
/// let layout = PackedLayout::new(8, GuestAddr(0x100));
/// let mut drv = PackedDriverQueue::new(layout);
/// let mut dev = PackedDeviceQueue::new(layout);
///
/// mem.write(GuestAddr(0x4000), b"ping").unwrap();
/// let id = drv
///     .add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[(GuestAddr(0x5000), 4)])
///     .unwrap();
///
/// let chain = dev.pop_avail(&mem).unwrap().unwrap();
/// assert_eq!(chain.head, id);
/// mem.write(chain.writable[0].0, b"pong").unwrap();
/// dev.push_used(&mut mem, chain.head, 4).unwrap();
///
/// let used = drv.poll_used(&mem).unwrap().unwrap();
/// assert_eq!((used.head, used.written), (id, 4));
/// ```
#[derive(Debug, Clone)]
pub struct PackedDriverQueue {
    layout: PackedLayout,
    /// Free buffer IDs (the completion-token namespace, 0..size).
    free_ids: Vec<u16>,
    /// Descriptors each live buffer ID occupies (0 if free); the driver
    /// advances its used position by this on reap, mirroring the device's
    /// positional advance, so out-of-order completion stays in sync.
    chain_len: Vec<u16>,
    avail_pos: u16,
    avail_wrap: bool,
    used_pos: u16,
    used_wrap: bool,
    free_slots: u16,
    pinned: u16,
    /// Chains published, mod 2^16 (the DESC-mode kick sequence space).
    submit_seq: u16,
    /// Chains reaped, mod 2^16 (published as the interrupt threshold).
    reap_seq: u16,
    last_kick_seq: u16,
    ops: RingOps,
    /// Recycled scratch for chain assembly: allocation-free after the
    /// first `add_chain`.
    scratch: Vec<(u64, u32, u16)>,
}

impl PackedDriverQueue {
    /// Creates the driver side of a packed queue. Both wrap counters start
    /// at 1, per the spec.
    pub fn new(layout: PackedLayout) -> Self {
        PackedDriverQueue {
            layout,
            free_ids: (0..layout.size).rev().collect(),
            chain_len: vec![0; usize::from(layout.size)],
            avail_pos: 0,
            avail_wrap: true,
            used_pos: 0,
            used_wrap: true,
            free_slots: layout.size,
            pinned: 0,
            submit_seq: 0,
            reap_seq: 0,
            last_kick_seq: 0,
            ops: RingOps::default(),
            scratch: Vec::new(),
        }
    }

    /// The queue layout.
    pub fn layout(&self) -> &PackedLayout {
        &self.layout
    }

    /// Driver-side operation counters accumulated since creation.
    pub fn ops(&self) -> RingOps {
        self.ops
    }

    /// Number of free ring slots.
    pub fn free_descriptors(&self) -> usize {
        usize::from(self.free_slots)
    }

    /// Ring slots currently allocated (`free + pinned == size` always).
    pub fn pinned_descriptors(&self) -> u16 {
        self.pinned
    }

    /// Number of chains published but not yet reaped.
    pub fn in_flight(&self) -> u16 {
        self.submit_seq.wrapping_sub(self.reap_seq)
    }

    /// Allocates a buffer ID and `n` ring slots, or reports exhaustion.
    fn alloc(&mut self, n: usize) -> Result<u16, QueueError> {
        if n == 0 {
            return Err(QueueError::EmptyChain);
        }
        if n > usize::from(self.free_slots) || self.free_ids.is_empty() {
            return Err(QueueError::QueueFull {
                needed: n,
                free: usize::from(self.free_slots),
            });
        }
        Ok(self.free_ids.pop().expect("checked non-empty"))
    }

    /// Writes `n` descriptors starting at the avail position and commits
    /// the allocation under buffer ID `id`.
    fn publish(
        &mut self,
        mem: &mut GuestMemory,
        id: u16,
        descs: &[(u64, u32, u16)],
    ) -> Result<(), QueueError> {
        let n = descs.len();
        let mut pos = self.avail_pos;
        let mut wrap = self.avail_wrap;
        for (i, &(addr, len, base_flags)) in descs.iter().enumerate() {
            let next = if i + 1 < n { DESC_F_NEXT } else { 0 };
            write_pdesc(
                mem,
                &self.layout,
                pos,
                PackedDesc {
                    addr,
                    len,
                    id,
                    flags: base_flags | next | avail_bits(wrap),
                },
            )?;
            pos += 1;
            if pos == self.layout.size {
                pos = 0;
                wrap = !wrap;
            }
        }
        self.avail_pos = pos;
        self.avail_wrap = wrap;
        self.chain_len[usize::from(id)] = n as u16;
        self.free_slots -= n as u16;
        self.pinned += n as u16;
        self.submit_seq = self.submit_seq.wrapping_add(1);
        self.ops.chains_published += 1;
        Ok(())
    }

    /// Publishes a descriptor chain of `readable` then `writable` buffers,
    /// returning the chain's buffer ID (the completion token).
    pub fn add_chain(
        &mut self,
        mem: &mut GuestMemory,
        readable: &[(GuestAddr, u32)],
        writable: &[(GuestAddr, u32)],
    ) -> Result<u16, QueueError> {
        let id = self.alloc(readable.len() + writable.len())?;
        let mut descs = std::mem::take(&mut self.scratch);
        descs.clear();
        descs.extend(
            readable
                .iter()
                .map(|&(a, l)| (a.0, l, 0u16))
                .chain(writable.iter().map(|&(a, l)| (a.0, l, DESC_F_WRITE))),
        );
        let published = self.publish(mem, id, &descs);
        self.scratch = descs;
        published?;
        Ok(id)
    }

    /// Publishes a multi-segment chain through a one-slot indirect table at
    /// `table` (packed indirect tables are plain arrays — every entry is
    /// part of the chain, no NEXT links).
    pub fn add_chain_indirect(
        &mut self,
        mem: &mut GuestMemory,
        table: GuestAddr,
        readable: &[(GuestAddr, u32)],
        writable: &[(GuestAddr, u32)],
    ) -> Result<u16, QueueError> {
        let count = readable.len() + writable.len();
        if count == 0 {
            return Err(QueueError::EmptyChain);
        }
        let id = self.alloc(1)?;
        let bufs = readable
            .iter()
            .map(|&(a, l)| (a, l, 0u16))
            .chain(writable.iter().map(|&(a, l)| (a, l, DESC_F_WRITE)));
        for (i, (addr, len, wflag)) in bufs.enumerate() {
            let a = table.offset(i as u64 * DESC_SIZE);
            mem.write_u64_le(a, addr.0)?;
            mem.write_u32_le(a.offset(8), len)?;
            mem.write_u16_le(a.offset(12), 0)?; // id: unused in table entries
            mem.write_u16_le(a.offset(14), wflag)?;
        }
        self.publish(
            mem,
            id,
            &[(table.0, (count as u32) * DESC_SIZE as u32, DESC_F_INDIRECT)],
        )?;
        Ok(id)
    }

    /// Reaps one completion, freeing the chain's buffer ID and ring slots.
    /// Returns `Ok(None)` when the device has published nothing new.
    pub fn poll_used(&mut self, mem: &GuestMemory) -> Result<Option<UsedElem>, QueueError> {
        let d = read_pdesc(mem, &self.layout, self.used_pos)?;
        if !is_used(d.flags, self.used_wrap) {
            return Ok(None);
        }
        if d.id >= self.layout.size {
            return Err(QueueError::BadChain(format!(
                "used buffer id {} out of range",
                d.id
            )));
        }
        let n = std::mem::replace(&mut self.chain_len[usize::from(d.id)], 0);
        if n == 0 {
            return Err(QueueError::BadChain(format!(
                "used element for free buffer id {}",
                d.id
            )));
        }
        self.free_ids.push(d.id);
        self.free_slots += n;
        self.pinned -= n;
        self.used_pos += n;
        if self.used_pos >= self.layout.size {
            self.used_pos -= self.layout.size;
            self.used_wrap = !self.used_wrap;
        }
        self.reap_seq = self.reap_seq.wrapping_add(1);
        self.ops.used_reaped += 1;
        Ok(Some(UsedElem {
            head: d.id,
            written: d.len,
        }))
    }

    /// Whether the driver must kick the device for its recent submissions,
    /// per the device's published event suppression struct. Counts the kick
    /// or the suppression.
    pub fn should_notify_device(&mut self, mem: &GuestMemory) -> Result<bool, QueueError> {
        let ev = read_event(mem, self.layout.device_event)?;
        let need = need_notify(ev, self.submit_seq, self.last_kick_seq);
        if need {
            self.last_kick_seq = self.submit_seq;
            self.ops.driver_kicks += 1;
        } else {
            self.ops.kicks_suppressed += 1;
        }
        Ok(need)
    }

    /// Arms the driver event suppression struct: "interrupt me once you
    /// complete past what I have already reaped" (DESC one-shot mode).
    pub fn publish_driver_event(&mut self, mem: &mut GuestMemory) -> Result<(), QueueError> {
        write_event(
            mem,
            self.layout.driver_event,
            self.reap_seq,
            RING_EVENT_FLAGS_DESC,
        )
    }
}

/// The device (back-end) side of a packed virtqueue.
///
/// See [`PackedDriverQueue`] for a full request/response example.
#[derive(Debug, Clone)]
pub struct PackedDeviceQueue {
    layout: PackedLayout,
    avail_pos: u16,
    avail_wrap: bool,
    used_pos: u16,
    used_wrap: bool,
    /// Ring slots each in-flight buffer ID occupies (0 = not in flight),
    /// recorded at pop so out-of-order completions advance the used
    /// position correctly. A parallel array indexed by buffer ID — the
    /// struct-of-arrays layout replaces the former `HashMap` (hashing plus
    /// per-entry churn) with one linear slot per ID.
    desc_count: Vec<u16>,
    /// Chains popped, mod 2^16 (published as the kick threshold).
    pop_seq: u16,
    /// Chains completed, mod 2^16 (the DESC-mode interrupt sequence space).
    push_seq: u16,
    last_signal_seq: u16,
    ops: RingOps,
}

impl PackedDeviceQueue {
    /// Creates the device side of a packed queue.
    pub fn new(layout: PackedLayout) -> Self {
        PackedDeviceQueue {
            layout,
            avail_pos: 0,
            avail_wrap: true,
            used_pos: 0,
            used_wrap: true,
            desc_count: vec![0; usize::from(layout.size)],
            pop_seq: 0,
            push_seq: 0,
            last_signal_seq: 0,
            ops: RingOps::default(),
        }
    }

    /// The queue layout.
    pub fn layout(&self) -> &PackedLayout {
        &self.layout
    }

    /// Device-side operation counters accumulated since creation.
    pub fn ops(&self) -> RingOps {
        self.ops
    }

    /// Whether the driver has published chains we have not popped yet.
    pub fn has_avail(&self, mem: &GuestMemory) -> Result<bool, QueueError> {
        let d = read_pdesc(mem, &self.layout, self.avail_pos)?;
        Ok(is_avail(d.flags, self.avail_wrap))
    }

    /// Pops the next available descriptor chain, if any. `DescChain::head`
    /// carries the chain's buffer ID.
    pub fn pop_avail(&mut self, mem: &GuestMemory) -> Result<Option<DescChain>, QueueError> {
        let mut chain = DescChain {
            head: 0,
            readable: Vec::new(),
            writable: Vec::new(),
        };
        Ok(self.pop_avail_into(mem, &mut chain)?.then_some(chain))
    }

    /// [`PackedDeviceQueue::pop_avail`] into a caller-provided chain whose
    /// buffer lists are cleared and refilled in place (capacity survives
    /// across requests — the zero-allocation worker path). Returns `false`
    /// when the driver has published nothing new.
    pub fn pop_avail_into(
        &mut self,
        mem: &GuestMemory,
        chain: &mut DescChain,
    ) -> Result<bool, QueueError> {
        chain.head = 0;
        chain.readable.clear();
        chain.writable.clear();
        let first = read_pdesc(mem, &self.layout, self.avail_pos)?;
        if !is_avail(first.flags, self.avail_wrap) {
            return Ok(false);
        }
        let mut pos = self.avail_pos;
        let mut wrap = self.avail_wrap;
        let mut count = 0u16;
        let mut id;
        loop {
            if count >= self.layout.size {
                return Err(QueueError::BadChain("descriptor chain too long".into()));
            }
            let d = read_pdesc(mem, &self.layout, pos)?;
            if count > 0 && !is_avail(d.flags, wrap) {
                return Err(QueueError::BadChain(
                    "chain truncated: continuation descriptor not available".into(),
                ));
            }
            count += 1;
            id = d.id;
            if d.flags & DESC_F_INDIRECT != 0 {
                if count != 1 || d.flags & DESC_F_NEXT != 0 {
                    return Err(QueueError::BadChain(
                        "indirect descriptor inside a chain".into(),
                    ));
                }
                self.expand_indirect(mem, GuestAddr(d.addr), d.len, chain)?;
            } else {
                let buf = (GuestAddr(d.addr), d.len);
                if d.flags & DESC_F_WRITE != 0 {
                    chain.writable.push(buf);
                } else if !chain.writable.is_empty() {
                    return Err(QueueError::BadChain(
                        "readable descriptor after writable".into(),
                    ));
                } else {
                    chain.readable.push(buf);
                }
            }
            pos += 1;
            if pos == self.layout.size {
                pos = 0;
                wrap = !wrap;
            }
            if d.flags & DESC_F_NEXT == 0 {
                break;
            }
        }
        if id >= self.layout.size {
            return Err(QueueError::BadChain(format!("buffer id {id} out of range")));
        }
        if self.desc_count[usize::from(id)] != 0 {
            return Err(QueueError::BadChain(format!(
                "buffer id {id} already in flight"
            )));
        }
        self.desc_count[usize::from(id)] = count;
        self.avail_pos = pos;
        self.avail_wrap = wrap;
        self.pop_seq = self.pop_seq.wrapping_add(1);
        self.ops.chains_popped += 1;
        chain.head = id;
        Ok(true)
    }

    /// Expands a packed-format indirect table: a plain array of `len / 16`
    /// descriptors, all of which belong to the chain.
    fn expand_indirect(
        &self,
        mem: &GuestMemory,
        table: GuestAddr,
        table_len: u32,
        chain: &mut DescChain,
    ) -> Result<(), QueueError> {
        if table_len == 0 || u64::from(table_len) % DESC_SIZE != 0 {
            return Err(QueueError::BadChain(format!(
                "indirect table length {table_len} not a positive multiple of 16"
            )));
        }
        let count = u64::from(table_len) / DESC_SIZE;
        for i in 0..count {
            let a = table.offset(i * DESC_SIZE);
            let addr = mem.read_u64_le(a)?;
            let len = mem.read_u32_le(a.offset(8))?;
            let flags = mem.read_u16_le(a.offset(14))?;
            if flags & DESC_F_INDIRECT != 0 {
                return Err(QueueError::BadChain(
                    "nested indirect descriptor table".into(),
                ));
            }
            let buf = (GuestAddr(addr), len);
            if flags & DESC_F_WRITE != 0 {
                chain.writable.push(buf);
            } else if !chain.writable.is_empty() {
                return Err(QueueError::BadChain(
                    "readable descriptor after writable in indirect table".into(),
                ));
            } else {
                chain.readable.push(buf);
            }
        }
        Ok(())
    }

    /// Publishes a completion for buffer ID `id` with `written` response
    /// bytes: one used descriptor at the device's used position, which then
    /// advances by the chain's full descriptor count.
    pub fn push_used(
        &mut self,
        mem: &mut GuestMemory,
        id: u16,
        written: u32,
    ) -> Result<(), QueueError> {
        let n = self.desc_count.get(usize::from(id)).copied().unwrap_or(0);
        if n == 0 {
            return Err(QueueError::BadChain(format!(
                "completion for buffer id {id} not in flight"
            )));
        }
        self.desc_count[usize::from(id)] = 0;
        let used_flags = if self.used_wrap {
            PACKED_DESC_F_AVAIL | PACKED_DESC_F_USED
        } else {
            0
        };
        write_pdesc(
            mem,
            &self.layout,
            self.used_pos,
            PackedDesc {
                addr: 0,
                len: written,
                id,
                flags: used_flags,
            },
        )?;
        self.used_pos += n;
        if self.used_pos >= self.layout.size {
            self.used_pos -= self.layout.size;
            self.used_wrap = !self.used_wrap;
        }
        self.push_seq = self.push_seq.wrapping_add(1);
        self.ops.used_pushed += 1;
        Ok(())
    }

    /// Whether the device must interrupt the driver for its recent
    /// completions, per the driver's published event suppression struct.
    /// Counts the signal or the suppression.
    pub fn should_signal_driver(&mut self, mem: &GuestMemory) -> Result<bool, QueueError> {
        let ev = read_event(mem, self.layout.driver_event)?;
        let need = need_notify(ev, self.push_seq, self.last_signal_seq);
        if need {
            self.last_signal_seq = self.push_seq;
            self.ops.driver_signals += 1;
        } else {
            self.ops.signals_suppressed += 1;
        }
        Ok(need)
    }

    /// Publishes the device event suppression struct. A polling device
    /// writes DISABLE (kicks are pure waste while it spins — the packed
    /// analogue of an Elvis sidecore never reading `avail_event`); an
    /// interrupt-mode device arms a DESC one-shot past the chains it has
    /// already popped.
    pub fn publish_device_event(
        &mut self,
        mem: &mut GuestMemory,
        polling: bool,
    ) -> Result<(), QueueError> {
        if polling {
            write_event(mem, self.layout.device_event, 0, RING_EVENT_FLAGS_DISABLE)
        } else {
            write_event(
                mem,
                self.layout.device_event,
                self.pop_seq,
                RING_EVENT_FLAGS_DESC,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(qsize: u16) -> (GuestMemory, PackedDriverQueue, PackedDeviceQueue) {
        let mem = GuestMemory::new(0x20000);
        let layout = PackedLayout::new(qsize, GuestAddr(0x100));
        (
            mem,
            PackedDriverQueue::new(layout),
            PackedDeviceQueue::new(layout),
        )
    }

    #[test]
    fn layout_places_event_structs_after_ring() {
        let l = PackedLayout::new(8, GuestAddr(0x100));
        assert_eq!(l.desc.0, 0x100);
        assert_eq!(l.driver_event.0, 0x100 + 8 * 16);
        assert_eq!(l.device_event.0, l.driver_event.0 + 4);
        assert_eq!(l.footprint(), 8 * 16 + 8);
    }

    #[test]
    fn request_response_roundtrip() {
        let (mut mem, mut drv, mut dev) = setup(8);
        mem.write(GuestAddr(0x4000), b"abcdef").unwrap();
        let id = drv
            .add_chain(
                &mut mem,
                &[(GuestAddr(0x4000), 3), (GuestAddr(0x4003), 3)],
                &[(GuestAddr(0x5000), 8)],
            )
            .unwrap();
        assert_eq!(drv.free_descriptors(), 5);
        assert_eq!(drv.in_flight(), 1);

        let chain = dev.pop_avail(&mem).unwrap().unwrap();
        assert_eq!(chain.head, id);
        let mut got = Vec::new();
        chain.readable_append(&mem, 0, &mut got).unwrap();
        assert_eq!(got, b"abcdef");
        let n = chain
            .write_writable_parts(&mut mem, &[b"RESPONSE"])
            .unwrap();
        dev.push_used(&mut mem, chain.head, n).unwrap();

        let used = drv.poll_used(&mem).unwrap().unwrap();
        assert_eq!(
            used,
            UsedElem {
                head: id,
                written: 8
            }
        );
        assert_eq!(drv.free_descriptors(), 8);
        assert_eq!(drv.in_flight(), 0);
        let mut resp = [0; 8];
        mem.read_into(GuestAddr(0x5000), &mut resp).unwrap();
        assert_eq!(&resp, b"RESPONSE");
    }

    #[test]
    fn empty_queue_pops_nothing() {
        let (mem, mut drv, mut dev) = setup(4);
        assert!(dev.pop_avail(&mem).unwrap().is_none());
        assert!(drv.poll_used(&mem).unwrap().is_none());
        assert!(!dev.has_avail(&mem).unwrap());
    }

    #[test]
    fn wrap_counter_flips_across_ring_boundary() {
        let (mut mem, mut drv, mut dev) = setup(4);
        // 3-descriptor chains through a 4-slot ring force mid-chain wraps.
        for round in 0..50u32 {
            let id = drv
                .add_chain(
                    &mut mem,
                    &[(GuestAddr(0x4000), 4), (GuestAddr(0x4100), 4)],
                    &[(GuestAddr(0x5000), 4)],
                )
                .unwrap();
            let chain = dev.pop_avail(&mem).unwrap().unwrap();
            assert_eq!(chain.head, id, "round {round}");
            assert_eq!(chain.readable.len(), 2);
            dev.push_used(&mut mem, chain.head, 4).unwrap();
            let used = drv.poll_used(&mem).unwrap().unwrap();
            assert_eq!(used.head, id, "round {round}");
        }
        assert_eq!(drv.free_descriptors(), 4);
        assert_eq!(drv.pinned_descriptors(), 0);
    }

    #[test]
    fn out_of_order_completion_stays_in_sync() {
        let (mut mem, mut drv, mut dev) = setup(8);
        // Mixed chain lengths completed out of order: positional advance
        // must follow each chain's own descriptor count on both sides.
        for _ in 0..20 {
            let a = drv
                .add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
                .unwrap();
            let b = drv
                .add_chain(
                    &mut mem,
                    &[(GuestAddr(0x4100), 4), (GuestAddr(0x4200), 4)],
                    &[(GuestAddr(0x5000), 4)],
                )
                .unwrap();
            let ca = dev.pop_avail(&mem).unwrap().unwrap();
            let cb = dev.pop_avail(&mem).unwrap().unwrap();
            assert_eq!((ca.head, cb.head), (a, b));
            // Complete in reverse order.
            dev.push_used(&mut mem, cb.head, 4).unwrap();
            dev.push_used(&mut mem, ca.head, 0).unwrap();
            let u1 = drv.poll_used(&mem).unwrap().unwrap();
            let u2 = drv.poll_used(&mem).unwrap().unwrap();
            assert_eq!((u1.head, u2.head), (b, a));
        }
        assert_eq!(drv.free_descriptors(), 8);
    }

    #[test]
    fn double_completion_is_rejected() {
        let (mut mem, mut drv, mut dev) = setup(4);
        drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
            .unwrap();
        let c = dev.pop_avail(&mem).unwrap().unwrap();
        dev.push_used(&mut mem, c.head, 0).unwrap();
        let err = dev.push_used(&mut mem, c.head, 0).unwrap_err();
        assert!(matches!(err, QueueError::BadChain(_)));
    }

    #[test]
    fn indirect_chain_costs_one_slot() {
        let (mut mem, mut drv, mut dev) = setup(4);
        mem.write(GuestAddr(0x4000), b"abcdef").unwrap();
        let id = drv
            .add_chain_indirect(
                &mut mem,
                GuestAddr(0x8000),
                &[(GuestAddr(0x4000), 3), (GuestAddr(0x4003), 3)],
                &[(GuestAddr(0x5000), 8)],
            )
            .unwrap();
        assert_eq!(drv.free_descriptors(), 3);
        let chain = dev.pop_avail(&mem).unwrap().unwrap();
        assert_eq!(chain.head, id);
        assert_eq!(chain.readable.len(), 2);
        assert_eq!(chain.writable.len(), 1);
        let mut got = Vec::new();
        chain.readable_append(&mem, 0, &mut got).unwrap();
        assert_eq!(got, b"abcdef");
        let n = chain
            .write_writable_parts(&mut mem, &[b"RESPONSE"])
            .unwrap();
        dev.push_used(&mut mem, chain.head, n).unwrap();
        let used = drv.poll_used(&mem).unwrap().unwrap();
        assert_eq!(used.written, 8);
        assert_eq!(drv.free_descriptors(), 4);
    }

    #[test]
    fn event_suppression_defaults_to_always_notify() {
        let (mut mem, mut drv, mut dev) = setup(8);
        drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
            .unwrap();
        // Reset state: flags ENABLE on both structs, everything notifies.
        assert!(drv.should_notify_device(&mem).unwrap());
        let c = dev.pop_avail(&mem).unwrap().unwrap();
        dev.push_used(&mut mem, c.head, 0).unwrap();
        assert!(dev.should_signal_driver(&mem).unwrap());
    }

    #[test]
    fn desc_mode_suppresses_batched_kicks() {
        let (mut mem, mut drv, mut dev) = setup(8);
        dev.publish_device_event(&mut mem, false).unwrap();
        drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
            .unwrap();
        assert!(drv.should_notify_device(&mem).unwrap(), "first kick fires");
        drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
            .unwrap();
        drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
            .unwrap();
        assert!(!drv.should_notify_device(&mem).unwrap(), "batch suppressed");
        while dev.pop_avail(&mem).unwrap().is_some() {}
        dev.publish_device_event(&mut mem, false).unwrap();
        drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
            .unwrap();
        assert!(drv.should_notify_device(&mem).unwrap(), "re-armed kick");
        let ops = drv.ops();
        assert_eq!(ops.driver_kicks, 2);
        assert_eq!(ops.kicks_suppressed, 1);
    }

    #[test]
    fn polling_device_disables_kicks_entirely() {
        let (mut mem, mut drv, mut dev) = setup(8);
        dev.publish_device_event(&mut mem, true).unwrap();
        for _ in 0..5 {
            drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
                .unwrap();
            assert!(!drv.should_notify_device(&mem).unwrap());
        }
        assert_eq!(drv.ops().driver_kicks, 0);
        assert_eq!(drv.ops().kicks_suppressed, 5);
    }

    #[test]
    fn desc_mode_suppresses_batched_interrupts() {
        let (mut mem, mut drv, mut dev) = setup(8);
        for _ in 0..4 {
            drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
                .unwrap();
        }
        drv.publish_driver_event(&mut mem).unwrap();
        let c = dev.pop_avail(&mem).unwrap().unwrap();
        dev.push_used(&mut mem, c.head, 0).unwrap();
        assert!(dev.should_signal_driver(&mem).unwrap(), "first signal");
        for _ in 0..3 {
            let c = dev.pop_avail(&mem).unwrap().unwrap();
            dev.push_used(&mut mem, c.head, 0).unwrap();
        }
        assert!(!dev.should_signal_driver(&mem).unwrap(), "batch silent");
        while drv.poll_used(&mem).unwrap().is_some() {}
        drv.publish_driver_event(&mut mem).unwrap();
        drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
            .unwrap();
        let c = dev.pop_avail(&mem).unwrap().unwrap();
        dev.push_used(&mut mem, c.head, 0).unwrap();
        assert!(dev.should_signal_driver(&mem).unwrap(), "re-armed signal");
    }
}
