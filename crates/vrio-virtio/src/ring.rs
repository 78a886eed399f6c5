//! The virtio 1.0 *split virtqueue*, laid out in guest memory.
//!
//! Both ends of the paravirtual channel are implemented:
//!
//! * [`DriverQueue`] — the guest front-end side: allocates descriptor
//!   chains, publishes them on the *avail* ring, reaps completions from the
//!   *used* ring;
//! * [`DeviceQueue`] — the back-end side (host vhost thread, Elvis sidecore,
//!   or the vRIO transport): pops avail chains, and pushes completions.
//!
//! The rings live at real addresses inside a [`GuestMemory`] with the exact
//! on-the-wire layout (16-byte descriptors, little-endian indices), so a
//! driver and device that only share the memory — like a real guest and
//! host — interoperate through these bytes alone.

use crate::mem::{GuestAddr, GuestMemory, MemError};

/// Descriptor flag: buffer continues via the `next` field.
pub const DESC_F_NEXT: u16 = 1;
/// Descriptor flag: buffer is device-writable (an "in" buffer).
pub const DESC_F_WRITE: u16 = 2;
/// Descriptor flag: the buffer holds an indirect descriptor table
/// (`VIRTIO_F_RING_INDIRECT_DESC`); `len / 16` table entries describe the
/// actual chain, and the chain occupies one main-ring slot regardless of
/// segment count.
pub const DESC_F_INDIRECT: u16 = 4;

pub(crate) const DESC_SIZE: u64 = 16;

/// Errors raised by virtqueue operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueError {
    /// Not enough free descriptors for the requested chain.
    QueueFull {
        /// Descriptors needed.
        needed: usize,
        /// Descriptors free.
        free: usize,
    },
    /// A chain was empty (zero descriptors requested).
    EmptyChain,
    /// The device side encountered a malformed descriptor chain.
    BadChain(String),
    /// Guest memory access failed.
    Mem(MemError),
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::QueueFull { needed, free } => {
                write!(f, "virtqueue full: need {needed} descriptors, {free} free")
            }
            QueueError::EmptyChain => write!(f, "descriptor chain must be non-empty"),
            QueueError::BadChain(why) => write!(f, "malformed descriptor chain: {why}"),
            QueueError::Mem(e) => write!(f, "guest memory error: {e}"),
        }
    }
}

impl std::error::Error for QueueError {}

impl From<MemError> for QueueError {
    fn from(e: MemError) -> Self {
        QueueError::Mem(e)
    }
}

/// Computed addresses of the three virtqueue areas within guest memory.
///
/// # Examples
///
/// ```
/// use vrio_virtio::{GuestAddr, VirtqueueLayout};
///
/// let l = VirtqueueLayout::new(256, GuestAddr(0x1000));
/// assert_eq!(l.desc, GuestAddr(0x1000));
/// // 256 descriptors * 16 bytes each.
/// assert_eq!(l.avail, GuestAddr(0x2000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtqueueLayout {
    /// Queue size (number of descriptors). Must be a power of two.
    pub size: u16,
    /// Base of the descriptor table (`size * 16` bytes).
    pub desc: GuestAddr,
    /// Base of the avail (driver) ring (`6 + size * 2` bytes).
    pub avail: GuestAddr,
    /// Base of the used (device) ring (`6 + size * 8` bytes).
    pub used: GuestAddr,
}

impl VirtqueueLayout {
    /// Lays a queue of `size` descriptors out contiguously from `base`,
    /// with the spec's 16/2/4-byte area alignments.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two (as the virtio spec
    /// requires).
    pub fn new(size: u16, base: GuestAddr) -> Self {
        assert!(
            size > 0 && size.is_power_of_two(),
            "queue size must be a power of two"
        );
        let align = |a: u64, to: u64| a.div_ceil(to) * to;
        let desc = GuestAddr(align(base.0, 16));
        let avail = GuestAddr(align(desc.0 + u64::from(size) * DESC_SIZE, 2));
        let used = GuestAddr(align(avail.0 + 6 + u64::from(size) * 2, 4));
        VirtqueueLayout {
            size,
            desc,
            avail,
            used,
        }
    }

    /// Total bytes of guest memory the queue occupies past `desc`.
    pub fn footprint(&self) -> u64 {
        self.used.0 + 6 + u64::from(self.size) * 8 - self.desc.0
    }

    fn desc_addr(&self, i: u16) -> GuestAddr {
        debug_assert!(i < self.size);
        self.desc.offset(u64::from(i) * DESC_SIZE)
    }

    fn avail_idx_addr(&self) -> GuestAddr {
        self.avail.offset(2)
    }

    fn avail_ring_addr(&self, slot: u16) -> GuestAddr {
        self.avail.offset(4 + u64::from(slot) * 2)
    }

    fn used_idx_addr(&self) -> GuestAddr {
        self.used.offset(2)
    }

    fn used_ring_addr(&self, slot: u16) -> GuestAddr {
        self.used.offset(4 + u64::from(slot) * 8)
    }

    /// Address of `used_event` (driver-written, at the end of the avail
    /// ring): "interrupt me when the used index passes this".
    fn used_event_addr(&self) -> GuestAddr {
        self.avail.offset(4 + u64::from(self.size) * 2)
    }

    /// Address of `avail_event` (device-written, at the end of the used
    /// ring): "kick me when the avail index passes this".
    fn avail_event_addr(&self) -> GuestAddr {
        self.used.offset(4 + u64::from(self.size) * 8)
    }
}

/// One descriptor as stored in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Desc {
    addr: u64,
    len: u32,
    flags: u16,
    next: u16,
}

/// The virtio `vring_need_event` predicate: with `EVENT_IDX` negotiated,
/// a notification is needed for the index advance `old -> new` only if it
/// stepped past `event_idx` (all arithmetic wraps mod 2^16).
///
/// # Examples
///
/// ```
/// use vrio_virtio::vring_need_event;
///
/// // Peer asked to be notified when index passes 5.
/// assert!(vring_need_event(5, 6, 5));   // 5 -> 6 crosses it
/// assert!(!vring_need_event(5, 5, 4));  // not yet reached
/// assert!(vring_need_event(5, 8, 3));   // a batch crossing it counts once
/// ```
pub fn vring_need_event(event_idx: u16, new_idx: u16, old_idx: u16) -> bool {
    new_idx.wrapping_sub(event_idx).wrapping_sub(1) < new_idx.wrapping_sub(old_idx)
}

fn read_desc(mem: &GuestMemory, layout: &VirtqueueLayout, i: u16) -> Result<Desc, QueueError> {
    let a = layout.desc_addr(i);
    Ok(Desc {
        addr: mem.read_u64_le(a)?,
        len: mem.read_u32_le(a.offset(8))?,
        flags: mem.read_u16_le(a.offset(12))?,
        next: mem.read_u16_le(a.offset(14))?,
    })
}

fn write_desc(
    mem: &mut GuestMemory,
    layout: &VirtqueueLayout,
    i: u16,
    d: Desc,
) -> Result<(), QueueError> {
    let a = layout.desc_addr(i);
    mem.write_u64_le(a, d.addr)?;
    mem.write_u32_le(a.offset(8), d.len)?;
    mem.write_u16_le(a.offset(12), d.flags)?;
    mem.write_u16_le(a.offset(14), d.next)?;
    Ok(())
}

/// Operation counters for one side of a virtqueue, for the observability
/// layer's `virtio.*` metrics. Driver-side fields accumulate on a
/// [`DriverQueue`], device-side fields on a [`DeviceQueue`]; [`RingOps::add`]
/// folds them together for a whole-device view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingOps {
    /// Chains published on the avail ring ([`DriverQueue::add_chain`]).
    pub chains_published: u64,
    /// Completions reaped from the used ring ([`DriverQueue::poll_used`]).
    pub used_reaped: u64,
    /// Device notifications due per EVENT_IDX
    /// ([`DriverQueue::should_notify_device`] returning `true`).
    pub driver_kicks: u64,
    /// Chains popped from the avail ring ([`DeviceQueue::pop_avail`]).
    pub chains_popped: u64,
    /// Completions pushed on the used ring ([`DeviceQueue::push_used`]).
    pub used_pushed: u64,
    /// Driver interrupts due per EVENT_IDX
    /// ([`DeviceQueue::should_signal_driver`] returning `true`).
    pub driver_signals: u64,
    /// Device notifications *elided* by event suppression — would-be exits
    /// that the ring protocol absorbed (paper §2's exit-elimination budget).
    pub kicks_suppressed: u64,
    /// Driver interrupts elided by event suppression.
    pub signals_suppressed: u64,
}

impl RingOps {
    /// Accumulates another counter set into this one.
    pub fn add(&mut self, other: &RingOps) {
        self.chains_published += other.chains_published;
        self.used_reaped += other.used_reaped;
        self.driver_kicks += other.driver_kicks;
        self.chains_popped += other.chains_popped;
        self.used_pushed += other.used_pushed;
        self.driver_signals += other.driver_signals;
        self.kicks_suppressed += other.kicks_suppressed;
        self.signals_suppressed += other.signals_suppressed;
    }
}

/// A completion reaped from the used ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsedElem {
    /// Head descriptor index of the completed chain.
    pub head: u16,
    /// Bytes the device wrote into the chain's writable buffers.
    pub written: u32,
}

/// The guest (driver) side of a split virtqueue.
///
/// # Examples
///
/// ```
/// use vrio_virtio::{DeviceQueue, DriverQueue, GuestAddr, GuestMemory, VirtqueueLayout};
///
/// let mut mem = GuestMemory::new(0x10000);
/// let layout = VirtqueueLayout::new(8, GuestAddr(0x100));
/// let mut drv = DriverQueue::new(layout);
/// let mut dev = DeviceQueue::new(layout);
///
/// // Guest: publish a request with one readable and one writable buffer.
/// mem.write(GuestAddr(0x4000), b"ping").unwrap();
/// let head = drv
///     .add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[(GuestAddr(0x5000), 4)])
///     .unwrap();
///
/// // Device: pop it, read the request, write a response, complete.
/// let chain = dev.pop_avail(&mem).unwrap().unwrap();
/// assert_eq!(chain.head, head);
/// let mut req = [0; 4];
/// mem.read_into(chain.readable[0].0, &mut req).unwrap();
/// assert_eq!(&req, b"ping");
/// mem.write(chain.writable[0].0, b"pong").unwrap();
/// dev.push_used(&mut mem, chain.head, 4).unwrap();
///
/// // Guest: reap the completion.
/// let used = drv.poll_used(&mem).unwrap().unwrap();
/// assert_eq!(used.head, head);
/// assert_eq!(used.written, 4);
/// let mut resp = [0; 4];
/// mem.read_into(GuestAddr(0x5000), &mut resp).unwrap();
/// assert_eq!(&resp, b"pong");
/// ```
#[derive(Debug, Clone)]
pub struct DriverQueue {
    layout: VirtqueueLayout,
    free: Vec<u16>,
    /// Driver bookkeeping is struct-of-arrays, indexed by descriptor slot:
    /// `chain_len[i]` and `chain_next[i]` are parallel arrays scanned
    /// linearly on reap instead of pointer-chasing descriptor nodes in
    /// guest memory. The guest-visible descriptor table is still written
    /// in full — the device side interoperates through guest bytes alone —
    /// but the driver never needs to read its own descriptors back.
    ///
    /// Number of descriptors in the chain headed by each index (0 if not a
    /// live head); used to return descriptors to the free list on reap.
    chain_len: Vec<u16>,
    /// Shadow of each allocated descriptor's `next` link (only meaningful
    /// for slots inside a live chain), so reaping frees a chain with pure
    /// array reads.
    chain_next: Vec<u16>,
    /// Recycled scratch for chain assembly: allocation-free after the
    /// first `add_chain`.
    scratch: Vec<u16>,
    avail_idx: u16,
    last_used_idx: u16,
    /// The avail index as of the driver's last device notification
    /// (EVENT_IDX suppression state).
    last_notified_avail: u16,
    /// Descriptors currently allocated out of the free list, tracked
    /// incrementally (not derived from `free.len()`) so the audit law
    /// `free + pinned == capacity` cross-checks the two books.
    pinned: u16,
    ops: RingOps,
}

impl DriverQueue {
    /// Creates the driver side of a queue with the given layout. All
    /// descriptors start free.
    pub fn new(layout: VirtqueueLayout) -> Self {
        DriverQueue {
            layout,
            free: (0..layout.size).rev().collect(),
            chain_len: vec![0; usize::from(layout.size)],
            chain_next: vec![0; usize::from(layout.size)],
            scratch: Vec::new(),
            avail_idx: 0,
            last_used_idx: 0,
            last_notified_avail: 0,
            pinned: 0,
            ops: RingOps::default(),
        }
    }

    /// The queue layout.
    pub fn layout(&self) -> &VirtqueueLayout {
        &self.layout
    }

    /// Driver-side operation counters accumulated since creation.
    pub fn ops(&self) -> RingOps {
        self.ops
    }

    /// Number of free descriptors.
    pub fn free_descriptors(&self) -> usize {
        self.free.len()
    }

    /// Number of chains published but not yet reaped.
    pub fn in_flight(&self) -> u16 {
        self.avail_idx.wrapping_sub(self.last_used_idx)
    }

    /// Descriptors currently allocated out of the free list. The audit
    /// invariant `free_descriptors() + pinned_descriptors() == size` holds
    /// for every layout, direct or indirect.
    pub fn pinned_descriptors(&self) -> u16 {
        self.pinned
    }

    /// Publishes a descriptor chain of `readable` then `writable` buffers,
    /// returning the head descriptor index.
    pub fn add_chain(
        &mut self,
        mem: &mut GuestMemory,
        readable: &[(GuestAddr, u32)],
        writable: &[(GuestAddr, u32)],
    ) -> Result<u16, QueueError> {
        let needed = readable.len() + writable.len();
        if needed == 0 {
            return Err(QueueError::EmptyChain);
        }
        if needed > self.free.len() {
            return Err(QueueError::QueueFull {
                needed,
                free: self.free.len(),
            });
        }
        let mut indices = std::mem::take(&mut self.scratch);
        indices.clear();
        indices.extend((0..needed).map(|_| self.free.pop().expect("checked free count")));
        let bufs = readable
            .iter()
            .map(|&(a, l)| (a, l, 0u16))
            .chain(writable.iter().map(|&(a, l)| (a, l, DESC_F_WRITE)));
        for (i, (addr, len, wflag)) in bufs.enumerate() {
            let is_last = i == needed - 1;
            let flags = wflag | if is_last { 0 } else { DESC_F_NEXT };
            let next = if is_last { 0 } else { indices[i + 1] };
            self.chain_next[usize::from(indices[i])] = next;
            write_desc(
                mem,
                &self.layout,
                indices[i],
                Desc {
                    addr: addr.0,
                    len,
                    flags,
                    next,
                },
            )?;
        }
        let head = indices[0];
        self.scratch = indices;
        self.chain_len[usize::from(head)] = needed as u16;
        self.pinned += needed as u16;
        // Publish: ring slot first, then the index increment (the write
        // ordering a real driver enforces with a memory barrier).
        let slot = self.avail_idx % self.layout.size;
        mem.write_u16_le(self.layout.avail_ring_addr(slot), head)?;
        self.avail_idx = self.avail_idx.wrapping_add(1);
        mem.write_u16_le(self.layout.avail_idx_addr(), self.avail_idx)?;
        self.ops.chains_published += 1;
        Ok(head)
    }

    /// Publishes a multi-segment chain through a one-slot *indirect*
    /// descriptor table at `table` (`VIRTIO_F_RING_INDIRECT_DESC`): the
    /// segments are written as a self-contained table in guest memory and
    /// the main ring carries a single descriptor pointing at it, so the
    /// chain costs one ring slot regardless of segment count.
    ///
    /// The caller owns the table memory (typically a slot from
    /// [`crate::IndirectTables`]) and must keep it live until the chain is
    /// reaped.
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
        if self.free.is_empty() {
            return Err(QueueError::QueueFull { needed: 1, free: 0 });
        }
        // Table entries are ordinary split descriptors chained by position.
        let bufs = readable
            .iter()
            .map(|&(a, l)| (a, l, 0u16))
            .chain(writable.iter().map(|&(a, l)| (a, l, DESC_F_WRITE)));
        for (i, (addr, len, wflag)) in bufs.enumerate() {
            let is_last = i == count - 1;
            let a = table.offset(i as u64 * DESC_SIZE);
            mem.write_u64_le(a, addr.0)?;
            mem.write_u32_le(a.offset(8), len)?;
            mem.write_u16_le(a.offset(12), wflag | if is_last { 0 } else { DESC_F_NEXT })?;
            mem.write_u16_le(a.offset(14), if is_last { 0 } else { i as u16 + 1 })?;
        }
        let head = self.free.pop().expect("checked non-empty");
        write_desc(
            mem,
            &self.layout,
            head,
            Desc {
                addr: table.0,
                len: (count as u32) * DESC_SIZE as u32,
                flags: DESC_F_INDIRECT,
                next: 0,
            },
        )?;
        self.chain_len[usize::from(head)] = 1;
        self.pinned += 1;
        let slot = self.avail_idx % self.layout.size;
        mem.write_u16_le(self.layout.avail_ring_addr(slot), head)?;
        self.avail_idx = self.avail_idx.wrapping_add(1);
        mem.write_u16_le(self.layout.avail_idx_addr(), self.avail_idx)?;
        self.ops.chains_published += 1;
        Ok(head)
    }

    /// Unconditional device notification, for configurations *without*
    /// `EVENT_IDX`: every submission batch ends in a kick (the exit budget
    /// split-basic pays that suppression-capable layouts avoid).
    pub fn kick_always(&mut self) {
        self.last_notified_avail = self.avail_idx;
        self.ops.driver_kicks += 1;
    }

    /// With `EVENT_IDX` negotiated: whether the driver must kick the
    /// device for its recent submissions, per the device's published
    /// `avail_event`. Updates the suppression state when a kick is due.
    pub fn should_notify_device(&mut self, mem: &GuestMemory) -> Result<bool, QueueError> {
        let avail_event = mem.read_u16_le(self.layout.avail_event_addr())?;
        let need = vring_need_event(avail_event, self.avail_idx, self.last_notified_avail);
        if need {
            self.last_notified_avail = self.avail_idx;
            self.ops.driver_kicks += 1;
        } else {
            self.ops.kicks_suppressed += 1;
        }
        Ok(need)
    }

    /// Publishes `used_event`: "interrupt me once the used index passes
    /// the entries I have already seen".
    pub fn publish_used_event(&mut self, mem: &mut GuestMemory) -> Result<(), QueueError> {
        mem.write_u16_le(self.layout.used_event_addr(), self.last_used_idx)?;
        Ok(())
    }

    /// Reaps one completion from the used ring, freeing its descriptors.
    /// Returns `Ok(None)` when the device has published nothing new.
    pub fn poll_used(&mut self, mem: &GuestMemory) -> Result<Option<UsedElem>, QueueError> {
        let device_idx = mem.read_u16_le(self.layout.used_idx_addr())?;
        if device_idx == self.last_used_idx {
            return Ok(None);
        }
        let slot = self.last_used_idx % self.layout.size;
        let a = self.layout.used_ring_addr(slot);
        let head = mem.read_u32_le(a)? as u16;
        let written = mem.read_u32_le(a.offset(4))?;
        self.last_used_idx = self.last_used_idx.wrapping_add(1);
        // Return the chain's descriptors to the free list by scanning the
        // driver's own shadow links — pure array reads, no guest-memory
        // descriptor walk (the device cannot have rewritten what the
        // driver published; the shadow is authoritative on this side).
        let n = std::mem::replace(&mut self.chain_len[usize::from(head)], 0);
        if n == 0 {
            return Err(QueueError::BadChain(format!(
                "used element for non-head descriptor {head}"
            )));
        }
        let mut cur = head;
        for i in 0..n {
            self.free.push(cur);
            if i + 1 < n {
                cur = self.chain_next[usize::from(cur)];
            }
        }
        self.pinned -= n;
        self.ops.used_reaped += 1;
        Ok(Some(UsedElem { head, written }))
    }
}

/// A descriptor chain as seen by the device side.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DescChain {
    /// Head descriptor index (the completion token).
    pub head: u16,
    /// Device-readable buffers, in chain order.
    pub readable: Vec<(GuestAddr, u32)>,
    /// Device-writable buffers, in chain order.
    pub writable: Vec<(GuestAddr, u32)>,
}

impl DescChain {
    /// Total readable bytes.
    pub fn readable_len(&self) -> u64 {
        self.readable.iter().map(|&(_, l)| u64::from(l)).sum()
    }

    /// Total writable bytes.
    pub fn writable_len(&self) -> u64 {
        self.writable.iter().map(|&(_, l)| u64::from(l)).sum()
    }

    /// The readable buffers' pieces from byte `offset` of the readable
    /// bytes on, empty pieces left out.
    fn readable_from(&self, offset: u64) -> impl Iterator<Item = (GuestAddr, u64)> + Clone + '_ {
        self.readable
            .iter()
            .scan(offset, |skip, &(addr, len)| {
                let cut = (*skip).min(u64::from(len));
                *skip -= cut;
                Some((addr.offset(cut), u64::from(len) - cut))
            })
            .filter(|&(_, len)| len > 0)
    }

    /// Fills `out` with the readable bytes from byte `offset` on; an error
    /// if the chain has fewer.
    pub fn read_readable(
        &self,
        mem: &GuestMemory,
        offset: u64,
        out: &mut [u8],
    ) -> Result<(), QueueError> {
        let mut filled = 0;
        for (addr, len) in self.readable_from(offset) {
            if filled == out.len() {
                break;
            }
            let take = (out.len() - filled).min(len as usize);
            mem.read_into(addr, &mut out[filled..filled + take])?;
            filled += take;
        }
        if filled < out.len() {
            return Err(QueueError::BadChain(format!(
                "{} readable bytes wanted at offset {offset}, {filled} there",
                out.len()
            )));
        }
        Ok(())
    }

    /// Appends the readable bytes from byte `offset` on to `out`, copying
    /// each once.
    pub fn readable_append(
        &self,
        mem: &GuestMemory,
        offset: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), QueueError> {
        for (addr, len) in self.readable_from(offset) {
            mem.read_append(addr, len, out)?;
        }
        Ok(())
    }

    /// Scatters the concatenated `parts` into the writable buffers, in
    /// order, without concatenating them first. Returns the number of
    /// bytes written (less than the parts' total if the chain is too
    /// small).
    pub fn write_writable_parts(
        &self,
        mem: &mut GuestMemory,
        parts: &[&[u8]],
    ) -> Result<u32, QueueError> {
        let mut bufs = self.writable.iter();
        let (mut addr, mut room) = (GuestAddr(0), 0usize);
        let mut written = 0usize;
        for &part in parts {
            let mut rest = part;
            while !rest.is_empty() {
                if room == 0 {
                    let Some(&(a, len)) = bufs.next() else {
                        return Ok(written as u32);
                    };
                    (addr, room) = (a, len as usize);
                    continue;
                }
                let take = rest.len().min(room);
                mem.write(addr, &rest[..take])?;
                (addr, room) = (addr.offset(take as u64), room - take);
                rest = &rest[take..];
                written += take;
            }
        }
        Ok(written as u32)
    }
}

/// Expands a split-format indirect descriptor table (entries chained by
/// their `next` links, starting at entry 0) into `chain`'s buffer lists,
/// with the same validation the main ring gets.
fn expand_indirect_table(
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
    let count = (u64::from(table_len) / DESC_SIZE) as u16;
    let entry = |i: u16| -> Result<Desc, QueueError> {
        let a = table.offset(u64::from(i) * DESC_SIZE);
        Ok(Desc {
            addr: mem.read_u64_le(a)?,
            len: mem.read_u32_le(a.offset(8))?,
            flags: mem.read_u16_le(a.offset(12))?,
            next: mem.read_u16_le(a.offset(14))?,
        })
    };
    let mut cur = 0u16;
    let mut seen = 0u16;
    loop {
        seen += 1;
        if seen > count {
            return Err(QueueError::BadChain("indirect table loop".into()));
        }
        let d = entry(cur)?;
        if d.flags & DESC_F_INDIRECT != 0 {
            return Err(QueueError::BadChain(
                "nested indirect descriptor table".into(),
            ));
        }
        let buf = (GuestAddr(d.addr), d.len);
        if d.flags & DESC_F_WRITE != 0 {
            chain.writable.push(buf);
        } else if !chain.writable.is_empty() {
            return Err(QueueError::BadChain(
                "readable descriptor after writable in indirect table".into(),
            ));
        } else {
            chain.readable.push(buf);
        }
        if d.flags & DESC_F_NEXT == 0 {
            break;
        }
        if d.next >= count {
            return Err(QueueError::BadChain(format!(
                "indirect next index {} out of table range {count}",
                d.next
            )));
        }
        cur = d.next;
    }
    Ok(())
}

/// The device (back-end) side of a split virtqueue.
///
/// See [`DriverQueue`] for a full request/response example.
#[derive(Debug, Clone)]
pub struct DeviceQueue {
    layout: VirtqueueLayout,
    last_avail_idx: u16,
    used_idx: u16,
    /// The used index as of the device's last interrupt (EVENT_IDX
    /// suppression state).
    last_signaled_used: u16,
    ops: RingOps,
}

impl DeviceQueue {
    /// Creates the device side of a queue with the given layout.
    pub fn new(layout: VirtqueueLayout) -> Self {
        DeviceQueue {
            layout,
            last_avail_idx: 0,
            used_idx: 0,
            last_signaled_used: 0,
            ops: RingOps::default(),
        }
    }

    /// The queue layout.
    pub fn layout(&self) -> &VirtqueueLayout {
        &self.layout
    }

    /// Device-side operation counters accumulated since creation.
    pub fn ops(&self) -> RingOps {
        self.ops
    }

    /// Whether the driver has published chains we have not popped yet.
    /// This is the check an Elvis sidecore performs on every poll.
    pub fn has_avail(&self, mem: &GuestMemory) -> Result<bool, QueueError> {
        Ok(mem.read_u16_le(self.layout.avail_idx_addr())? != self.last_avail_idx)
    }

    /// Pops the next available descriptor chain, if any.
    pub fn pop_avail(&mut self, mem: &GuestMemory) -> Result<Option<DescChain>, QueueError> {
        let mut chain = DescChain {
            head: 0,
            readable: Vec::new(),
            writable: Vec::new(),
        };
        Ok(self.pop_avail_into(mem, &mut chain)?.then_some(chain))
    }

    /// [`DeviceQueue::pop_avail`] into a caller-provided chain, whose
    /// buffer lists are cleared and refilled in place — their capacity
    /// survives across requests, so a worker reusing one scratch
    /// [`DescChain`] pops chains with zero steady-state allocations.
    /// Returns `false` (leaving the scratch cleared) when the driver has
    /// published nothing new.
    pub fn pop_avail_into(
        &mut self,
        mem: &GuestMemory,
        chain: &mut DescChain,
    ) -> Result<bool, QueueError> {
        chain.head = 0;
        chain.readable.clear();
        chain.writable.clear();
        let driver_idx = mem.read_u16_le(self.layout.avail_idx_addr())?;
        if driver_idx == self.last_avail_idx {
            return Ok(false);
        }
        let slot = self.last_avail_idx % self.layout.size;
        let head = mem.read_u16_le(self.layout.avail_ring_addr(slot))?;
        if head >= self.layout.size {
            return Err(QueueError::BadChain(format!(
                "head index {head} out of range"
            )));
        }
        self.last_avail_idx = self.last_avail_idx.wrapping_add(1);

        chain.head = head;
        let mut cur = head;
        let mut seen = 0u16;
        loop {
            seen += 1;
            if seen > self.layout.size {
                return Err(QueueError::BadChain("descriptor loop".into()));
            }
            let d = read_desc(mem, &self.layout, cur)?;
            if d.flags & DESC_F_INDIRECT != 0 {
                // An indirect descriptor stands alone: the spec forbids
                // combining it with NEXT, WRITE, or other chain members.
                if seen != 1 {
                    return Err(QueueError::BadChain(
                        "indirect descriptor inside a chain".into(),
                    ));
                }
                if d.flags & (DESC_F_NEXT | DESC_F_WRITE) != 0 {
                    return Err(QueueError::BadChain(
                        "indirect descriptor combines NEXT or WRITE".into(),
                    ));
                }
                expand_indirect_table(mem, GuestAddr(d.addr), d.len, chain)?;
                break;
            }
            let buf = (GuestAddr(d.addr), d.len);
            if d.flags & DESC_F_WRITE != 0 {
                chain.writable.push(buf);
            } else if !chain.writable.is_empty() {
                // The spec requires all readable descriptors before writable.
                return Err(QueueError::BadChain(
                    "readable descriptor after writable".into(),
                ));
            } else {
                chain.readable.push(buf);
            }
            if d.flags & DESC_F_NEXT == 0 {
                break;
            }
            if d.next >= self.layout.size {
                return Err(QueueError::BadChain(format!(
                    "next index {} out of range",
                    d.next
                )));
            }
            cur = d.next;
        }
        self.ops.chains_popped += 1;
        Ok(true)
    }

    /// With `EVENT_IDX` negotiated: whether the device must interrupt the
    /// driver for its recent completions, per the driver's published
    /// `used_event`. Updates the suppression state when a signal is due.
    pub fn should_signal_driver(&mut self, mem: &GuestMemory) -> Result<bool, QueueError> {
        let used_event = mem.read_u16_le(self.layout.used_event_addr())?;
        let need = vring_need_event(used_event, self.used_idx, self.last_signaled_used);
        if need {
            self.last_signaled_used = self.used_idx;
            self.ops.driver_signals += 1;
        } else {
            self.ops.signals_suppressed += 1;
        }
        Ok(need)
    }

    /// Unconditional driver interrupt, for configurations without
    /// `EVENT_IDX`: every completion batch ends in a signal.
    pub fn signal_always(&mut self) {
        self.last_signaled_used = self.used_idx;
        self.ops.driver_signals += 1;
    }

    /// Publishes `avail_event`: "kick me once the avail index passes the
    /// entries I have already seen" — this is how an Elvis sidecore turns
    /// kicks off entirely while polling (it simply never reads them).
    pub fn publish_avail_event(&mut self, mem: &mut GuestMemory) -> Result<(), QueueError> {
        mem.write_u16_le(self.layout.avail_event_addr(), self.last_avail_idx)?;
        Ok(())
    }

    /// Publishes a completion for chain `head` with `written` response bytes.
    pub fn push_used(
        &mut self,
        mem: &mut GuestMemory,
        head: u16,
        written: u32,
    ) -> Result<(), QueueError> {
        let slot = self.used_idx % self.layout.size;
        let a = self.layout.used_ring_addr(slot);
        mem.write_u32_le(a, u32::from(head))?;
        mem.write_u32_le(a.offset(4), written)?;
        self.used_idx = self.used_idx.wrapping_add(1);
        mem.write_u16_le(self.layout.used_idx_addr(), self.used_idx)?;
        self.ops.used_pushed += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(qsize: u16) -> (GuestMemory, DriverQueue, DeviceQueue) {
        let mem = GuestMemory::new(0x20000);
        let layout = VirtqueueLayout::new(qsize, GuestAddr(0x100));
        (mem, DriverQueue::new(layout), DeviceQueue::new(layout))
    }

    #[test]
    fn layout_is_contiguous_and_aligned() {
        let l = VirtqueueLayout::new(128, GuestAddr(0x7));
        assert_eq!(l.desc.0 % 16, 0);
        assert_eq!(l.avail.0, l.desc.0 + 128 * 16);
        assert_eq!(l.used.0 % 4, 0);
        assert!(l.footprint() >= 128 * 16 + 6 + 256 + 6 + 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn layout_rejects_non_power_of_two() {
        VirtqueueLayout::new(100, GuestAddr(0));
    }

    #[test]
    fn request_response_roundtrip() {
        let (mut mem, mut drv, mut dev) = setup(8);
        mem.write(GuestAddr(0x4000), b"abcdef").unwrap();
        let head = drv
            .add_chain(
                &mut mem,
                &[(GuestAddr(0x4000), 3), (GuestAddr(0x4003), 3)],
                &[(GuestAddr(0x5000), 8)],
            )
            .unwrap();
        assert_eq!(drv.free_descriptors(), 5);
        assert_eq!(drv.in_flight(), 1);

        let chain = dev.pop_avail(&mem).unwrap().unwrap();
        assert_eq!(chain.readable.len(), 2);
        assert_eq!(chain.writable.len(), 1);
        let mut got = Vec::new();
        chain.readable_append(&mem, 0, &mut got).unwrap();
        assert_eq!(got, b"abcdef");
        let n = chain
            .write_writable_parts(&mut mem, &[b"RESPONSE"])
            .unwrap();
        assert_eq!(n, 8);
        dev.push_used(&mut mem, chain.head, n).unwrap();

        let used = drv.poll_used(&mem).unwrap().unwrap();
        assert_eq!(used, UsedElem { head, written: 8 });
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
    fn queue_full_reports_counts() {
        let (mut mem, mut drv, _) = setup(4);
        for _ in 0..2 {
            drv.add_chain(
                &mut mem,
                &[(GuestAddr(0x4000), 1), (GuestAddr(0x4001), 1)],
                &[],
            )
            .unwrap();
        }
        let err = drv
            .add_chain(&mut mem, &[(GuestAddr(0x4000), 1)], &[])
            .unwrap_err();
        assert_eq!(err, QueueError::QueueFull { needed: 1, free: 0 });
    }

    #[test]
    fn empty_chain_rejected() {
        let (mut mem, mut drv, _) = setup(4);
        assert_eq!(
            drv.add_chain(&mut mem, &[], &[]).unwrap_err(),
            QueueError::EmptyChain
        );
    }

    #[test]
    fn index_wrapping_past_u16_boundary() {
        let (mut mem, mut drv, mut dev) = setup(4);
        // Force avail/used indices through many wraps of the ring and
        // (by construction) the u16 index space semantics.
        for round in 0..300u32 {
            let head = drv
                .add_chain(
                    &mut mem,
                    &[(GuestAddr(0x4000), 4)],
                    &[(GuestAddr(0x5000), 4)],
                )
                .unwrap();
            let chain = dev.pop_avail(&mem).unwrap().unwrap();
            assert_eq!(chain.head, head, "round {round}");
            dev.push_used(&mut mem, chain.head, 4).unwrap();
            let used = drv.poll_used(&mem).unwrap().unwrap();
            assert_eq!(used.head, head);
        }
        assert_eq!(drv.free_descriptors(), 4);
    }

    #[test]
    fn multiple_outstanding_chains_fifo() {
        let (mut mem, mut drv, mut dev) = setup(8);
        let h1 = drv
            .add_chain(&mut mem, &[(GuestAddr(0x4000), 1)], &[])
            .unwrap();
        let h2 = drv
            .add_chain(&mut mem, &[(GuestAddr(0x4100), 1)], &[])
            .unwrap();
        let h3 = drv
            .add_chain(&mut mem, &[(GuestAddr(0x4200), 1)], &[])
            .unwrap();
        let c1 = dev.pop_avail(&mem).unwrap().unwrap();
        let c2 = dev.pop_avail(&mem).unwrap().unwrap();
        let c3 = dev.pop_avail(&mem).unwrap().unwrap();
        assert_eq!((c1.head, c2.head, c3.head), (h1, h2, h3));
        // Devices may complete out of order.
        dev.push_used(&mut mem, c2.head, 0).unwrap();
        dev.push_used(&mut mem, c1.head, 0).unwrap();
        dev.push_used(&mut mem, c3.head, 0).unwrap();
        let order: Vec<u16> = (0..3)
            .map(|_| drv.poll_used(&mem).unwrap().unwrap().head)
            .collect();
        assert_eq!(order, vec![h2, h1, h3]);
        assert_eq!(drv.free_descriptors(), 8);
    }

    #[test]
    fn device_detects_descriptor_loop() {
        let (mut mem, mut drv, mut dev) = setup(4);
        drv.add_chain(
            &mut mem,
            &[(GuestAddr(0x4000), 1), (GuestAddr(0x4001), 1)],
            &[],
        )
        .unwrap();
        // Corrupt: make the second descriptor point back at the first,
        // with NEXT set, creating a cycle.
        let l = *drv.layout();
        let head = 3u16; // free list pops from the top: 0,1 used; actually indices depend on impl
        let _ = head;
        // Find the two used descriptors by reading the avail ring head.
        let h = mem.read_u16_le(l.avail_ring_addr(0)).unwrap();
        let d = read_desc(&mem, &l, h).unwrap();
        let second = d.next;
        let da = l.desc_addr(second);
        mem.write_u16_le(da.offset(12), DESC_F_NEXT).unwrap();
        mem.write_u16_le(da.offset(14), h).unwrap();
        let err = dev.pop_avail(&mem).unwrap_err();
        assert!(matches!(err, QueueError::BadChain(_)));
    }

    #[test]
    fn writable_before_readable_is_rejected() {
        let (mut mem, _, mut dev) = setup(4);
        let l = VirtqueueLayout::new(4, GuestAddr(0x100));
        // Hand-craft a chain: desc0 writable -> desc1 readable.
        write_desc(
            &mut mem,
            &l,
            0,
            Desc {
                addr: 0x4000,
                len: 4,
                flags: DESC_F_WRITE | DESC_F_NEXT,
                next: 1,
            },
        )
        .unwrap();
        write_desc(
            &mut mem,
            &l,
            1,
            Desc {
                addr: 0x5000,
                len: 4,
                flags: 0,
                next: 0,
            },
        )
        .unwrap();
        mem.write_u16_le(l.avail_ring_addr(0), 0).unwrap();
        mem.write_u16_le(l.avail_idx_addr(), 1).unwrap();
        let err = dev.pop_avail(&mem).unwrap_err();
        assert!(matches!(err, QueueError::BadChain(_)));
    }

    #[test]
    fn event_idx_suppresses_redundant_kicks() {
        let (mut mem, mut drv, mut dev) = setup(8);
        // Device publishes avail_event = 0 ("kick me after the first").
        dev.publish_avail_event(&mut mem).unwrap();
        drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
            .unwrap();
        assert!(
            drv.should_notify_device(&mem).unwrap(),
            "first submission kicks"
        );
        // More submissions while the device hasn't re-armed: suppressed.
        drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
            .unwrap();
        drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
            .unwrap();
        assert!(!drv.should_notify_device(&mem).unwrap(), "batched: no kick");
        // The device drains everything and re-arms at its new position.
        while dev.pop_avail(&mem).unwrap().is_some() {}
        dev.publish_avail_event(&mut mem).unwrap();
        drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
            .unwrap();
        assert!(
            drv.should_notify_device(&mem).unwrap(),
            "re-armed: kick again"
        );
    }

    #[test]
    fn event_idx_suppresses_redundant_interrupts() {
        let (mut mem, mut drv, mut dev) = setup(8);
        let mut heads = Vec::new();
        for _ in 0..4 {
            heads.push(
                drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
                    .unwrap(),
            );
        }
        // Driver arms: "interrupt me past what I've seen (nothing yet)".
        drv.publish_used_event(&mut mem).unwrap();
        let c = dev.pop_avail(&mem).unwrap().unwrap();
        dev.push_used(&mut mem, c.head, 0).unwrap();
        assert!(
            dev.should_signal_driver(&mem).unwrap(),
            "first completion signals"
        );
        // Further completions before the driver re-arms are suppressed.
        for _ in 0..3 {
            let c = dev.pop_avail(&mem).unwrap().unwrap();
            dev.push_used(&mut mem, c.head, 0).unwrap();
        }
        assert!(
            !dev.should_signal_driver(&mem).unwrap(),
            "batch completes silently"
        );
        // Driver reaps everything and re-arms.
        while drv.poll_used(&mem).unwrap().is_some() {}
        drv.publish_used_event(&mut mem).unwrap();
        let h = drv
            .add_chain(&mut mem, &[(GuestAddr(0x4000), 4)], &[])
            .unwrap();
        let c = dev.pop_avail(&mem).unwrap().unwrap();
        assert_eq!(c.head, h);
        dev.push_used(&mut mem, c.head, 0).unwrap();
        assert!(dev.should_signal_driver(&mem).unwrap());
    }

    #[test]
    fn ring_ops_count_operations() {
        let (mut mem, mut drv, mut dev) = setup(8);
        for _ in 0..3 {
            drv.add_chain(
                &mut mem,
                &[(GuestAddr(0x4000), 4)],
                &[(GuestAddr(0x5000), 4)],
            )
            .unwrap();
        }
        while let Some(c) = dev.pop_avail(&mem).unwrap() {
            dev.push_used(&mut mem, c.head, 4).unwrap();
        }
        while drv.poll_used(&mem).unwrap().is_some() {}
        let mut total = drv.ops();
        total.add(&dev.ops());
        assert_eq!(total.chains_published, 3);
        assert_eq!(total.chains_popped, 3);
        assert_eq!(total.used_pushed, 3);
        assert_eq!(total.used_reaped, 3);
    }

    #[test]
    fn vring_need_event_wraps_correctly() {
        // Near the u16 wrap boundary.
        assert!(vring_need_event(u16::MAX, 0, u16::MAX));
        assert!(!vring_need_event(2, 1, 0));
        assert!(vring_need_event(0, 1, 0));
        // A huge batch crossing the event point.
        assert!(vring_need_event(10, 500, 5));
    }

    #[test]
    fn indirect_chain_costs_one_slot_and_roundtrips() {
        let (mut mem, mut drv, mut dev) = setup(4);
        mem.write(GuestAddr(0x4000), b"abcdef").unwrap();
        let table = GuestAddr(0x8000);
        let head = drv
            .add_chain_indirect(
                &mut mem,
                table,
                &[(GuestAddr(0x4000), 3), (GuestAddr(0x4003), 3)],
                &[(GuestAddr(0x5000), 8)],
            )
            .unwrap();
        // Three segments, one main-ring descriptor.
        assert_eq!(drv.free_descriptors(), 3);
        assert_eq!(drv.pinned_descriptors(), 1);

        let chain = dev.pop_avail(&mem).unwrap().unwrap();
        assert_eq!(chain.head, head);
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
        assert_eq!(used, UsedElem { head, written: 8 });
        assert_eq!(drv.free_descriptors(), 4);
        assert_eq!(drv.pinned_descriptors(), 0);
        let mut resp = [0; 8];
        mem.read_into(GuestAddr(0x5000), &mut resp).unwrap();
        assert_eq!(&resp, b"RESPONSE");
    }

    #[test]
    fn nested_indirect_table_rejected() {
        let (mut mem, mut drv, mut dev) = setup(4);
        let table = GuestAddr(0x8000);
        drv.add_chain_indirect(&mut mem, table, &[(GuestAddr(0x4000), 4)], &[])
            .unwrap();
        // Corrupt the single table entry into another indirect descriptor.
        mem.write_u16_le(table.offset(12), DESC_F_INDIRECT).unwrap();
        let err = dev.pop_avail(&mem).unwrap_err();
        assert!(matches!(err, QueueError::BadChain(_)));
    }

    #[test]
    fn pinned_tracks_free_list_exactly() {
        let (mut mem, mut drv, mut dev) = setup(8);
        for _ in 0..3 {
            drv.add_chain(
                &mut mem,
                &[(GuestAddr(0x4000), 4)],
                &[(GuestAddr(0x5000), 4)],
            )
            .unwrap();
            assert_eq!(
                usize::from(drv.pinned_descriptors()) + drv.free_descriptors(),
                8
            );
        }
        while let Some(c) = dev.pop_avail(&mem).unwrap() {
            dev.push_used(&mut mem, c.head, 0).unwrap();
        }
        while drv.poll_used(&mem).unwrap().is_some() {}
        assert_eq!(drv.pinned_descriptors(), 0);
    }

    #[test]
    fn writable_parts_scatter_as_their_concatenation() {
        let (mut mem, mut drv, mut dev) = setup(8);
        let bufs = [
            (GuestAddr(0x5000), 3),
            (GuestAddr(0x6000), 0),
            (GuestAddr(0x7000), 3),
        ];
        drv.add_chain(&mut mem, &[(GuestAddr(0x4000), 1)], &bufs)
            .unwrap();
        let chain = dev.pop_avail(&mem).unwrap().unwrap();
        let read = |mem: &GuestMemory| {
            let (mut first, mut second) = ([0; 3], [0; 3]);
            mem.read_into(GuestAddr(0x5000), &mut first).unwrap();
            mem.read_into(GuestAddr(0x7000), &mut second).unwrap();
            (first, second)
        };
        for parts in [
            &[&b"ab"[..], b"", b"cde", b"fgh"][..],
            &[b"", b"abcdefgh"],
            &[b"abcd"],
            &[],
        ] {
            let whole = parts.concat();
            let mut by_parts = mem.clone();
            let n = chain.write_writable_parts(&mut mem, &[&whole]).unwrap();
            assert_eq!(chain.write_writable_parts(&mut by_parts, parts).unwrap(), n);
            assert_eq!(n as usize, whole.len().min(6));
            assert_eq!(read(&by_parts), read(&mem), "{parts:?}");
        }
    }

    #[test]
    fn readable_bytes_come_out_from_any_offset() {
        let (mut mem, mut drv, mut dev) = setup(8);
        mem.write(GuestAddr(0x4000), b"hdr!").unwrap();
        mem.write(GuestAddr(0x5000), b"data").unwrap();
        drv.add_chain(
            &mut mem,
            &[(GuestAddr(0x4000), 4), (GuestAddr(0x5000), 4)],
            &[],
        )
        .unwrap();
        let chain = dev.pop_avail(&mem).unwrap().unwrap();
        let mut hdr = [0; 6];
        chain.read_readable(&mem, 1, &mut hdr).unwrap();
        assert_eq!(&hdr, b"dr!dat");
        assert!(chain.read_readable(&mem, 3, &mut hdr).is_err());
        let from = |offset| {
            let mut out = b"kept".to_vec();
            chain.readable_append(&mem, offset, &mut out).unwrap();
            out
        };
        assert_eq!(from(4), b"keptdata");
        assert_eq!(from(2), b"keptr!data");
        assert_eq!(from(8), b"kept");
        assert_eq!(from(0), b"kepthdr!data");
    }

    #[test]
    fn write_writable_scatters_across_buffers() {
        let (mut mem, mut drv, mut dev) = setup(8);
        drv.add_chain(
            &mut mem,
            &[(GuestAddr(0x4000), 1)],
            &[(GuestAddr(0x5000), 3), (GuestAddr(0x6000), 3)],
        )
        .unwrap();
        let chain = dev.pop_avail(&mem).unwrap().unwrap();
        let n = chain.write_writable_parts(&mut mem, &[b"abcde"]).unwrap();
        assert_eq!(n, 5);
        let (mut first, mut second) = ([0; 3], [0; 2]);
        mem.read_into(GuestAddr(0x5000), &mut first).unwrap();
        mem.read_into(GuestAddr(0x6000), &mut second).unwrap();
        assert_eq!(&first, b"abc");
        assert_eq!(&second, b"de");
    }
}
