//! Virtual machines: guest memory with a fixed device layout, a [`GuestCpu`],
//! and paravirtual net/blk devices whose *both* halves (guest driver and
//! host device) operate over the shared memory — exactly the structure of
//! Figure 4 in the paper. The back-end half is what a vhost thread
//! (baseline), an Elvis sidecore, or the vRIO transport drives.

use bytes::Bytes;
use vrio_block::{BlockKind, BlockRequest, RequestId};
use vrio_virtio::{
    ring_pair, BlkHdr, BlkReqKind, DescChain, DeviceRing, DriverRing, GuestAddr, GuestMemory,
    IndirectAudit, MemError, NetHdr, QueueError, RingConfig, RingOps, BLK_HDR_SIZE, BLK_S_OK,
    NET_HDR_SIZE, PAGE_SIZE,
};

use crate::guest::GuestCpu;

/// Identifies a VM within the testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub usize);

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// Errors from device front-/back-end operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The virtqueue rejected the operation.
    Queue(QueueError),
    /// No free buffer slots in the pool.
    NoBuffers,
    /// The payload exceeds the buffer slot size.
    PayloadTooLarge {
        /// Payload length.
        len: usize,
        /// Slot capacity.
        slot: usize,
    },
    /// The rx ring has no posted buffers (guest fell behind).
    RxStarved,
    /// A completion referenced an unknown request.
    UnknownHead(u16),
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Queue(e) => write!(f, "virtqueue error: {e}"),
            DeviceError::NoBuffers => write!(f, "no free buffer slots"),
            DeviceError::PayloadTooLarge { len, slot } => {
                write!(f, "payload of {len} bytes exceeds {slot}-byte slot")
            }
            DeviceError::RxStarved => write!(f, "receive ring has no posted buffers"),
            DeviceError::UnknownHead(h) => write!(f, "completion for unknown head {h}"),
        }
    }
}

impl std::error::Error for DeviceError {}

impl From<QueueError> for DeviceError {
    fn from(e: QueueError) -> Self {
        DeviceError::Queue(e)
    }
}

/// A pool of fixed-size buffer slots in guest memory.
#[derive(Debug, Clone)]
struct BufferPool {
    base: u64,
    slot_size: usize,
    free: Vec<u16>,
}

impl BufferPool {
    fn new(base: u64, slot_size: usize, slots: u16) -> Self {
        BufferPool {
            base,
            slot_size,
            free: (0..slots).rev().collect(),
        }
    }

    fn alloc(&mut self) -> Option<u16> {
        self.free.pop()
    }

    fn release(&mut self, slot: u16) {
        debug_assert!(!self.free.contains(&slot), "double free of slot {slot}");
        self.free.push(slot);
    }

    fn addr(&self, slot: u16) -> GuestAddr {
        GuestAddr(self.base + u64::from(slot) * self.slot_size as u64)
    }
}

/// Takes the entry that a completion's `head` names out of a table indexed
/// by head.
fn take_head<T>(by_head: &mut [Option<T>], head: u16) -> Result<T, DeviceError> {
    by_head
        .get_mut(usize::from(head))
        .and_then(Option::take)
        .ok_or(DeviceError::UnknownHead(head))
}

/// A table indexed by head with room for every head of a `qsize` ring.
fn head_table<T>(qsize: u16) -> Vec<Option<T>> {
    (0..qsize).map(|_| None).collect()
}

// ---- virtio-net ----------------------------------------------------------

const NET_QSIZE: u16 = 256;
/// Net buffer slots hold a full TSO message plus the virtio header.
const NET_SLOT: usize = 65_536 + NET_HDR_SIZE;
const NET_SLOTS: u16 = 64;

/// A paravirtual network device: guest driver half plus host device half
/// over shared guest memory.
///
/// # Examples
///
/// ```
/// use vrio_hv::Vm;
/// use bytes::Bytes;
///
/// let mut vm = Vm::new(vrio_hv::VmId(0));
/// vm.net_refill_rx().unwrap();
///
/// // Guest transmits; the back-end (vhost/sidecore/transport) fetches.
/// vm.net_send(b"ping").unwrap();
/// let (head, _hdr, payload) = vm.net_fetch_tx().unwrap().unwrap();
/// assert_eq!(&payload[..], b"ping");
/// vm.net_complete_tx(head).unwrap();
///
/// // The back-end delivers a packet; the guest receives it.
/// vm.net_deliver_rx(b"pong").unwrap();
/// let rx = vm.net_recv().unwrap().unwrap();
/// assert_eq!(&rx[..], b"pong");
/// ```
#[derive(Debug, Clone)]
pub struct VirtioNetDevice {
    tx_drv: DriverRing,
    tx_dev: DeviceRing,
    rx_drv: DriverRing,
    rx_dev: DeviceRing,
    tx_pool: BufferPool,
    rx_pool: BufferPool,
    /// Buffer slot of each published tx/rx chain, indexed by head.
    tx_slot_of_head: Vec<Option<u16>>,
    rx_slot_of_head: Vec<Option<u16>>,
    /// Messages transmitted by the guest.
    pub tx_count: u64,
    /// Messages delivered to the guest.
    pub rx_count: u64,
    /// Scratch chain + buffers recycled across back-end fetch/deliver calls
    /// (struct-of-arrays hot path: steady state allocates nothing).
    scratch_chain: DescChain,
    scratch_buf: Vec<u8>,
}

impl VirtioNetDevice {
    fn new(ring: RingConfig, mem_base: u64) -> (Self, u64) {
        let (tx_drv, tx_dev, tx_end) = ring_pair(ring, NET_QSIZE, GuestAddr(mem_base));
        let (rx_drv, rx_dev, rx_end) = ring_pair(ring, NET_QSIZE, tx_end);
        let pool_base = rx_end.0.div_ceil(64) * 64;
        let tx_pool = BufferPool::new(pool_base, NET_SLOT, NET_SLOTS);
        let rx_base = pool_base + NET_SLOT as u64 * u64::from(NET_SLOTS);
        let rx_pool = BufferPool::new(rx_base, NET_SLOT, NET_SLOTS);
        let end = rx_base + NET_SLOT as u64 * u64::from(NET_SLOTS);
        (
            VirtioNetDevice {
                tx_drv,
                tx_dev,
                rx_drv,
                rx_dev,
                tx_pool,
                rx_pool,
                tx_slot_of_head: head_table(NET_QSIZE),
                rx_slot_of_head: head_table(NET_QSIZE),
                tx_count: 0,
                rx_count: 0,
                scratch_chain: DescChain::default(),
                scratch_buf: Vec::new(),
            },
            end,
        )
    }
}

// ---- virtio-blk -----------------------------------------------------------

const BLK_QSIZE: u16 = 128;
/// Largest data buffer of one block request.
const BLK_DATA_MAX: usize = 65_536;
/// Block slots: header, up to 64 KB of data and status byte, back to back,
/// placed so the data starts on the slot's second page and a page-sized
/// data buffer lies inside one guest page. Slots are page-aligned; the
/// status byte after a full 64 KB of data needs a page of its own. The
/// status must stay right after the data: a read completed with a device
/// error and no data puts its status in the first data byte, and the guest
/// then reads the stale byte after the data as the status.
const BLK_SLOT: usize = PAGE_SIZE + BLK_DATA_MAX + PAGE_SIZE;
const BLK_SLOTS: u16 = 32;

/// Header, data and status addresses of a request with `data_len` bytes of
/// data in the block slot at `base`.
fn blk_slot_layout(base: GuestAddr, data_len: usize) -> (GuestAddr, GuestAddr, GuestAddr) {
    let data = base.offset(PAGE_SIZE as u64);
    (
        GuestAddr(data.0 - BLK_HDR_SIZE as u64),
        data,
        data.offset(data_len as u64),
    )
}

#[derive(Clone)]
struct PendingBlk {
    id: RequestId,
    kind: BlockKind,
    slot: u16,
    data_len: u32,
}

/// A paravirtual block device (driver + device halves).
#[derive(Clone)]
pub struct VirtioBlkDevice {
    drv: DriverRing,
    dev: DeviceRing,
    pool: BufferPool,
    /// Submitted requests, indexed by head.
    pending: Vec<Option<PendingBlk>>,
    /// Chains popped by the back-end, awaiting completion, indexed by head.
    inflight_chains: Vec<Option<DescChain>>,
    /// Completed chains kept for reuse, so fetching allocates nothing.
    spare_chains: Vec<DescChain>,
    /// Requests submitted.
    pub submitted: u64,
    /// Requests completed back to the guest.
    pub completed: u64,
}

impl VirtioBlkDevice {
    fn new(ring: RingConfig, mem_base: u64) -> (Self, u64) {
        let (drv, dev, ring_end) = ring_pair(ring, BLK_QSIZE, GuestAddr(mem_base));
        let pool_base = ring_end.0.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64;
        let pool = BufferPool::new(pool_base, BLK_SLOT, BLK_SLOTS);
        let end = pool_base + BLK_SLOT as u64 * u64::from(BLK_SLOTS);
        (
            VirtioBlkDevice {
                drv,
                dev,
                pool,
                pending: head_table(BLK_QSIZE),
                inflight_chains: head_table(BLK_QSIZE),
                spare_chains: Vec::new(),
                submitted: 0,
                completed: 0,
            },
            end,
        )
    }
}

/// A point-in-time snapshot of one virtqueue (driver half plus device
/// half), produced by [`Vm::ring_audit`] for external invariant checkers.
///
/// The snapshot is pure observation: taking it reads counters only and
/// cannot perturb the queue. Note that `in_flight_chains` counts *chains*
/// (publish-to-reap units) while `free_descriptors` counts *descriptors*;
/// a chain may span several descriptors, so the two are related by
/// inequalities, not an exact sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueAudit {
    /// Which queue this is (`"net-tx"`, `"net-rx"`, `"blk"`).
    pub name: &'static str,
    /// Negotiated ring layout (`"split"`, `"split-eventidx"`, `"packed"`).
    pub layout: &'static str,
    /// Ring size in descriptors.
    pub capacity: u16,
    /// Descriptors currently on the driver's free list.
    pub free_descriptors: usize,
    /// Main-ring descriptors currently allocated to published chains,
    /// tracked incrementally by the driver. The conservation law
    /// `free_descriptors + pinned_descriptors == capacity` holds for every
    /// layout: an indirect chain pins exactly one main-ring slot, a direct
    /// chain one per segment.
    pub pinned_descriptors: u16,
    /// Chains published but not yet reaped by the driver.
    pub in_flight_chains: u16,
    /// Indirect-table books, when `INDIRECT_DESC` is negotiated.
    pub indirect: Option<IndirectAudit>,
    /// Operation counters of the driver half.
    pub driver: RingOps,
    /// Operation counters of the device half.
    pub device: RingOps,
}

fn audit_queue(name: &'static str, drv: &DriverRing, dev: &DeviceRing) -> QueueAudit {
    QueueAudit {
        name,
        layout: drv.config().name(),
        capacity: drv.capacity(),
        free_descriptors: drv.free_descriptors(),
        pinned_descriptors: drv.pinned_descriptors(),
        in_flight_chains: drv.in_flight(),
        indirect: drv.indirect_audit(),
        driver: drv.ops(),
        device: dev.ops(),
    }
}

/// A completed block request as the guest sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlkCompletion {
    /// The request's id.
    pub id: RequestId,
    /// The virtio status byte.
    pub status: u8,
    /// Data read (for reads), empty otherwise.
    pub data: Bytes,
}

/// A virtual machine: guest memory, one VCPU, a net device, and a block
/// device. See [`VirtioNetDevice`] for a front/back-end example.
#[derive(Clone)]
pub struct Vm {
    /// The VM's identity.
    pub id: VmId,
    /// Guest-physical memory (rings and buffers live here).
    pub mem: GuestMemory,
    /// The VCPU with context-switch accounting.
    pub cpu: GuestCpu,
    ring: RingConfig,
    net: VirtioNetDevice,
    blk: VirtioBlkDevice,
    /// One epoch per virtqueue, in [`Vm::ring_audit`] order.
    ring_epochs: [u64; Vm::QUEUES],
}

impl Vm {
    /// The virtqueues of a VM, numbered as [`Vm::ring_audit`] lists them.
    pub const QUEUES: usize = 3;
    /// The net transmit queue.
    pub const NET_TX: usize = 0;
    /// The net receive queue.
    pub const NET_RX: usize = 1;
    /// The block queue.
    pub const BLK: usize = 2;

    /// Creates a VM with the standard device layout and the seed ring
    /// configuration (split, no indirect tables, no event suppression).
    pub fn new(id: VmId) -> Self {
        Self::with_rings(id, RingConfig::split_basic())
    }

    /// Creates a VM whose virtqueues use the negotiated `ring`
    /// configuration. Guest memory is sized to fit whatever the layout
    /// needs (packed event structs, indirect table regions).
    pub fn with_rings(id: VmId, ring: RingConfig) -> Self {
        let (net, net_end) = VirtioNetDevice::new(ring, 0x1000);
        let (blk, blk_end) = VirtioBlkDevice::new(ring, net_end.div_ceil(4096) * 4096);
        let mem_size = (blk_end.div_ceil(4096) * 4096) as usize;
        Vm {
            id,
            mem: GuestMemory::new(mem_size),
            cpu: GuestCpu::new(),
            ring,
            net,
            blk,
            ring_epochs: [0; Self::QUEUES],
        }
    }

    /// The negotiated ring configuration shared by all of this VM's queues.
    pub fn ring_config(&self) -> RingConfig {
        self.ring
    }

    /// Switches all device halves between polling mode (kicks suppressed —
    /// the back-end spins on the avail state) and interrupt mode (kick
    /// suppression re-armed), publishing the state to the rings' event
    /// suppression structs. A no-op for split-basic rings, which have no
    /// suppression machinery.
    pub fn set_device_polling(&mut self, polling: bool) -> Result<(), DeviceError> {
        for epoch in &mut self.ring_epochs {
            *epoch += 1;
        }
        self.net.tx_dev.set_polling(&mut self.mem, polling)?;
        self.net.rx_dev.set_polling(&mut self.mem, polling)?;
        self.blk.dev.set_polling(&mut self.mem, polling)?;
        Ok(())
    }

    /// One counter per virtqueue (net-tx, net-rx, blk: the order of
    /// [`Vm::ring_audit`]) that every method able to change that queue
    /// advances (the guest driver and host device halves alike). The rings
    /// are private to this type, so an unchanged epoch guarantees an
    /// unchanged [`Vm::queue_audit`] of its queue: invariant checkers
    /// re-audit only the queues whose epoch moved.
    pub fn ring_epochs(&self) -> [u64; Self::QUEUES] {
        self.ring_epochs
    }

    /// The net device's transmit/receive counters.
    pub fn net_counters(&self) -> (u64, u64) {
        (self.net.tx_count, self.net.rx_count)
    }

    /// The blk device's submit/complete counters.
    pub fn blk_counters(&self) -> (u64, u64) {
        (self.blk.submitted, self.blk.completed)
    }

    /// Aggregated virtqueue operation counters across all of this VM's
    /// queues (net tx/rx and blk, driver and device halves), for the
    /// observability layer's `virtio.*` metrics.
    pub fn ring_ops(&self) -> RingOps {
        let mut ops = self.net.tx_drv.ops();
        ops.add(&self.net.tx_dev.ops());
        ops.add(&self.net.rx_drv.ops());
        ops.add(&self.net.rx_dev.ops());
        ops.add(&self.blk.drv.ops());
        ops.add(&self.blk.dev.ops());
        ops
    }

    /// Snapshots every virtqueue of this VM for descriptor-conservation
    /// checking (net tx, net rx, blk). Observation only — reads counters,
    /// never touches ring state.
    pub fn ring_audit(&self) -> [QueueAudit; Self::QUEUES] {
        [Self::NET_TX, Self::NET_RX, Self::BLK].map(|q| self.queue_audit(q))
    }

    /// Snapshots virtqueue `q` ([`Vm::NET_TX`], [`Vm::NET_RX`] or
    /// [`Vm::BLK`]) as [`Vm::ring_audit`] does.
    pub fn queue_audit(&self, q: usize) -> QueueAudit {
        match q {
            Self::NET_TX => audit_queue("net-tx", &self.net.tx_drv, &self.net.tx_dev),
            Self::NET_RX => audit_queue("net-rx", &self.net.rx_drv, &self.net.rx_dev),
            Self::BLK => audit_queue("blk", &self.blk.drv, &self.blk.dev),
            _ => panic!("a VM has {} virtqueues, not queue {q}", Self::QUEUES),
        }
    }

    // ---- net front-end (guest side) -------------------------------------

    /// Guest transmits a message: writes header + payload into a tx buffer
    /// and publishes the chain.
    pub fn net_send(&mut self, payload: &[u8]) -> Result<u16, DeviceError> {
        self.net_send_hdr(NetHdr::plain(), payload)
    }

    /// Guest transmits with an explicit virtio-net header (e.g. GSO).
    pub fn net_send_hdr(&mut self, hdr: NetHdr, payload: &[u8]) -> Result<u16, DeviceError> {
        self.ring_epochs[Self::NET_TX] += 1;
        if payload.len() + NET_HDR_SIZE > NET_SLOT {
            return Err(DeviceError::PayloadTooLarge {
                len: payload.len(),
                slot: NET_SLOT,
            });
        }
        let slot = self.net.tx_pool.alloc().ok_or(DeviceError::NoBuffers)?;
        let addr = self.net.tx_pool.addr(slot);
        self.mem
            .write(addr, &hdr.encode())
            .map_err(QueueError::from)?;
        self.mem
            .write(addr.offset(NET_HDR_SIZE as u64), payload)
            .map_err(QueueError::from)?;
        let head = match self.net.tx_drv.add_chain(
            &mut self.mem,
            &[(addr, (NET_HDR_SIZE + payload.len()) as u32)],
            &[],
        ) {
            Ok(h) => h,
            Err(e) => {
                self.net.tx_pool.release(slot);
                return Err(e.into());
            }
        };
        self.net.tx_slot_of_head[usize::from(head)] = Some(slot);
        self.net.tx_count += 1;
        self.net.tx_drv.should_kick(&self.mem)?;
        Ok(head)
    }

    /// Guest reaps transmit completions, freeing buffers. Returns how many.
    pub fn net_reap_tx(&mut self) -> Result<usize, DeviceError> {
        self.ring_epochs[Self::NET_TX] += 1;
        let mut n = 0;
        while let Some(used) = self.net.tx_drv.poll_used(&self.mem)? {
            let slot = take_head(&mut self.net.tx_slot_of_head, used.head)?;
            self.net.tx_pool.release(slot);
            n += 1;
        }
        self.net.tx_drv.arm(&mut self.mem)?;
        Ok(n)
    }

    /// Guest posts receive buffers until the ring or pool is exhausted.
    pub fn net_refill_rx(&mut self) -> Result<usize, DeviceError> {
        self.ring_epochs[Self::NET_RX] += 1;
        let mut n = 0;
        loop {
            if self.net.rx_drv.free_descriptors() == 0 {
                break;
            }
            let Some(slot) = self.net.rx_pool.alloc() else {
                break;
            };
            let addr = self.net.rx_pool.addr(slot);
            match self
                .net
                .rx_drv
                .add_chain(&mut self.mem, &[], &[(addr, NET_SLOT as u32)])
            {
                Ok(head) => {
                    self.net.rx_slot_of_head[usize::from(head)] = Some(slot);
                    n += 1;
                }
                Err(_) => {
                    self.net.rx_pool.release(slot);
                    break;
                }
            }
        }
        if n > 0 {
            self.net.rx_drv.should_kick(&self.mem)?;
        }
        Ok(n)
    }

    /// Guest receives one message if available: parses the virtio header
    /// and returns the payload.
    pub fn net_recv(&mut self) -> Result<Option<Bytes>, DeviceError> {
        self.net_recv_with(GuestMemory::read_bytes)
    }

    /// Guest receives one message if available, as [`Vm::net_recv`] does,
    /// but reads the payload into `buf` (cleared first), so a reused
    /// buffer makes the receive allocation-free. Returns whether a
    /// message was received.
    pub fn net_recv_into(&mut self, buf: &mut Vec<u8>) -> Result<bool, DeviceError> {
        buf.clear();
        let read = |mem: &GuestMemory, addr, len| mem.read_append(addr, len, buf);
        Ok(self.net_recv_with(read)?.is_some())
    }

    /// Takes one message off the rx used ring, if there is one, hands
    /// `read` the address and length of its payload (past the virtio
    /// header), and releases its buffer.
    fn net_recv_with<T>(
        &mut self,
        read: impl FnOnce(&GuestMemory, GuestAddr, u64) -> Result<T, MemError>,
    ) -> Result<Option<T>, DeviceError> {
        self.ring_epochs[Self::NET_RX] += 1;
        let Some(used) = self.net.rx_drv.poll_used(&self.mem)? else {
            return Ok(None);
        };
        let slot = take_head(&mut self.net.rx_slot_of_head, used.head)?;
        let hdr_len = (NET_HDR_SIZE as u64).min(u64::from(used.written));
        let payload = read(
            &self.mem,
            self.net.rx_pool.addr(slot).offset(hdr_len),
            u64::from(used.written) - hdr_len,
        )
        .map_err(QueueError::from)?;
        self.net.rx_pool.release(slot);
        self.net.rx_count += 1;
        self.net.rx_drv.arm(&mut self.mem)?;
        Ok(Some(payload))
    }

    // ---- net back-end (host/sidecore/transport side) ---------------------

    /// Whether the guest has published unserved tx chains — the condition
    /// an Elvis sidecore polls for.
    pub fn net_tx_pending(&self) -> Result<bool, DeviceError> {
        Ok(self.net.tx_dev.has_avail(&self.mem)?)
    }

    /// Back-end fetches one transmitted message: `(head, hdr, payload)`.
    pub fn net_fetch_tx(&mut self) -> Result<Option<(u16, NetHdr, Bytes)>, DeviceError> {
        self.ring_epochs[Self::NET_TX] += 1;
        let chain = &mut self.net.scratch_chain;
        if !self.net.tx_dev.pop_avail_into(&self.mem, chain)? {
            self.net.tx_dev.arm(&mut self.mem)?;
            return Ok(None);
        }
        self.net.scratch_buf.clear();
        chain.readable_append(&self.mem, 0, &mut self.net.scratch_buf)?;
        let bytes = &self.net.scratch_buf;
        let hdr = NetHdr::decode(bytes).unwrap_or_default();
        let payload = Bytes::copy_from_slice(&bytes[NET_HDR_SIZE.min(bytes.len())..]);
        Ok(Some((chain.head, hdr, payload)))
    }

    /// Back-end completes a transmitted chain.
    pub fn net_complete_tx(&mut self, head: u16) -> Result<(), DeviceError> {
        self.ring_epochs[Self::NET_TX] += 1;
        self.net.tx_dev.push_used(&mut self.mem, head, 0)?;
        self.net.tx_dev.should_signal(&self.mem)?;
        Ok(())
    }

    /// Back-end delivers a received packet into a posted rx buffer.
    pub fn net_deliver_rx(&mut self, payload: &[u8]) -> Result<(), DeviceError> {
        self.ring_epochs[Self::NET_RX] += 1;
        let chain = &mut self.net.scratch_chain;
        if !self.net.rx_dev.pop_avail_into(&self.mem, chain)? {
            self.net.rx_dev.arm(&mut self.mem)?;
            return Err(DeviceError::RxStarved);
        }
        let hdr = NetHdr::plain().encode();
        let written = chain.write_writable_parts(&mut self.mem, &[&hdr, payload])?;
        self.net
            .rx_dev
            .push_used(&mut self.mem, chain.head, written)?;
        self.net.rx_dev.should_signal(&self.mem)?;
        Ok(())
    }

    // ---- blk front-end ----------------------------------------------------

    /// Guest submits a block request. The data of writes is copied into a
    /// guest buffer; reads reserve buffer space for the device to fill.
    pub fn blk_submit(&mut self, req: &BlockRequest) -> Result<u16, DeviceError> {
        self.ring_epochs[Self::BLK] += 1;
        let data_len = match req.kind {
            BlockKind::Write => req.data.len(),
            BlockKind::Read => req.len as usize,
            BlockKind::Flush => 0,
        };
        if data_len > BLK_DATA_MAX {
            return Err(DeviceError::PayloadTooLarge {
                len: data_len,
                slot: BLK_DATA_MAX,
            });
        }
        let slot = self.blk.pool.alloc().ok_or(DeviceError::NoBuffers)?;
        let (hdr_addr, data_addr, status_addr) =
            blk_slot_layout(self.blk.pool.addr(slot), data_len);
        let wire_kind = match req.kind {
            BlockKind::Read => BlkReqKind::In,
            BlockKind::Write => BlkReqKind::Out,
            BlockKind::Flush => BlkReqKind::Flush,
        };
        let hdr = BlkHdr::new(wire_kind, req.sector);
        self.mem
            .write(hdr_addr, &hdr.encode())
            .map_err(QueueError::from)?;
        let result = match req.kind {
            BlockKind::Write => {
                self.mem
                    .write(data_addr, &req.data)
                    .map_err(QueueError::from)?;
                self.blk.drv.add_chain(
                    &mut self.mem,
                    &[
                        (hdr_addr, BLK_HDR_SIZE as u32),
                        (data_addr, data_len as u32),
                    ],
                    &[(status_addr, 1)],
                )
            }
            BlockKind::Read => self.blk.drv.add_chain(
                &mut self.mem,
                &[(hdr_addr, BLK_HDR_SIZE as u32)],
                &[(data_addr, data_len as u32), (status_addr, 1)],
            ),
            BlockKind::Flush => self.blk.drv.add_chain(
                &mut self.mem,
                &[(hdr_addr, BLK_HDR_SIZE as u32)],
                &[(status_addr, 1)],
            ),
        };
        let head = match result {
            Ok(h) => h,
            Err(e) => {
                self.blk.pool.release(slot);
                return Err(e.into());
            }
        };
        self.blk.pending[usize::from(head)] = Some(PendingBlk {
            id: req.id,
            kind: req.kind,
            slot,
            data_len: data_len as u32,
        });
        self.blk.submitted += 1;
        self.blk.drv.should_kick(&self.mem)?;
        Ok(head)
    }

    /// Guest reaps block completions.
    pub fn blk_reap(&mut self) -> Result<Vec<BlkCompletion>, DeviceError> {
        let mut done = Vec::new();
        self.blk_reap_into(&mut done)?;
        Ok(done)
    }

    /// [`Vm::blk_reap`] appending to `done`, whose capacity a caller can
    /// keep across calls.
    pub fn blk_reap_into(&mut self, done: &mut Vec<BlkCompletion>) -> Result<(), DeviceError> {
        self.ring_epochs[Self::BLK] += 1;
        while let Some(used) = self.blk.drv.poll_used(&self.mem)? {
            let p = take_head(&mut self.blk.pending, used.head)?;
            let (_, data_addr, status_addr) =
                blk_slot_layout(self.blk.pool.addr(p.slot), p.data_len as usize);
            let mut status = [0];
            self.mem
                .read_into(status_addr, &mut status)
                .map_err(QueueError::from)?;
            let [status] = status;
            let data = if p.kind == BlockKind::Read && status == BLK_S_OK {
                self.mem
                    .read_bytes(data_addr, u64::from(p.data_len))
                    .map_err(QueueError::from)?
            } else {
                Bytes::new()
            };
            self.blk.pool.release(p.slot);
            self.blk.completed += 1;
            done.push(BlkCompletion {
                id: p.id,
                status,
                data,
            });
        }
        self.blk.drv.arm(&mut self.mem)?;
        Ok(())
    }

    // ---- blk back-end -------------------------------------------------------

    /// Whether the guest has unserved block chains.
    pub fn blk_pending(&self) -> Result<bool, DeviceError> {
        Ok(self.blk.dev.has_avail(&self.mem)?)
    }

    /// Back-end fetches one block request: `(head, hdr, write payload)`,
    /// reading the header and the payload out of the chain once each.
    pub fn blk_fetch(&mut self) -> Result<Option<(u16, BlkHdr, Bytes)>, DeviceError> {
        let mut payload = Vec::new();
        let fetched = self.blk_fetch_into(&mut payload)?;
        Ok(fetched.map(|(head, hdr)| (head, hdr, Bytes::from(payload))))
    }

    /// [`Vm::blk_fetch`] appending the write payload to `payload`, so a
    /// caller can fetch it straight into a buffer that already holds what
    /// goes before it (a vRIO message's headers).
    pub fn blk_fetch_into(
        &mut self,
        payload: &mut Vec<u8>,
    ) -> Result<Option<(u16, BlkHdr)>, DeviceError> {
        self.ring_epochs[Self::BLK] += 1;
        let mut chain = self.blk.spare_chains.pop().unwrap_or_default();
        if !self.blk.dev.pop_avail_into(&self.mem, &mut chain)? {
            self.blk.spare_chains.push(chain);
            self.blk.dev.arm(&mut self.mem)?;
            return Ok(None);
        }
        let bad = || DeviceError::Queue(QueueError::BadChain("bad blk header".into()));
        if chain.readable_len() < BLK_HDR_SIZE as u64 {
            return Err(bad());
        }
        let mut hdr = [0; BLK_HDR_SIZE];
        chain.read_readable(&self.mem, 0, &mut hdr)?;
        let hdr = BlkHdr::decode(&hdr).ok_or_else(bad)?;
        chain.readable_append(&self.mem, BLK_HDR_SIZE as u64, payload)?;
        let head = chain.head;
        self.blk.inflight_chains[usize::from(head)] = Some(chain);
        Ok(Some((head, hdr)))
    }

    /// Back-end completes a block request: writes read data (if any) and
    /// the status byte straight into the chain's writable buffers, then
    /// publishes the used element.
    pub fn blk_complete(
        &mut self,
        head: u16,
        status: u8,
        read_data: &[u8],
    ) -> Result<(), DeviceError> {
        self.ring_epochs[Self::BLK] += 1;
        let chain = take_head(&mut self.blk.inflight_chains, head)?;
        let written = chain.write_writable_parts(&mut self.mem, &[read_data, &[status]])?;
        self.blk.spare_chains.push(chain);
        self.blk.dev.push_used(&mut self.mem, head, written)?;
        self.blk.dev.should_signal(&self.mem)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_roundtrip_guest_to_backend_and_back() {
        let mut vm = Vm::new(VmId(1));
        vm.net_refill_rx().unwrap();
        vm.net_send(b"hello backend").unwrap();
        let (head, hdr, payload) = vm.net_fetch_tx().unwrap().unwrap();
        assert_eq!(hdr, NetHdr::plain());
        assert_eq!(&payload[..], b"hello backend");
        vm.net_complete_tx(head).unwrap();
        assert_eq!(vm.net_reap_tx().unwrap(), 1);

        vm.net_deliver_rx(b"hello guest").unwrap();
        let rx = vm.net_recv().unwrap().unwrap();
        assert_eq!(&rx[..], b"hello guest");
        assert_eq!(vm.net_counters(), (1, 1));

        // Reading into a reused buffer replaces what it held.
        let mut buf = b"stale bytes, longer than the next message".to_vec();
        vm.net_deliver_rx(b"again").unwrap();
        assert!(vm.net_recv_into(&mut buf).unwrap());
        assert_eq!(buf, b"again");
        assert!(!vm.net_recv_into(&mut buf).unwrap());
        assert_eq!(vm.net_counters(), (1, 2));
    }

    #[test]
    fn net_buffer_exhaustion_and_recovery() {
        let mut vm = Vm::new(VmId(0));
        let mut heads = Vec::new();
        loop {
            match vm.net_send(b"x") {
                Ok(h) => heads.push(h),
                Err(DeviceError::NoBuffers) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert_eq!(heads.len(), usize::from(NET_SLOTS));
        // Back-end serves everything; buffers recover.
        while let Some((head, _, _)) = vm.net_fetch_tx().unwrap() {
            vm.net_complete_tx(head).unwrap();
        }
        assert_eq!(vm.net_reap_tx().unwrap(), heads.len());
        assert!(vm.net_send(b"again").is_ok());
    }

    #[test]
    fn rx_starved_without_posted_buffers() {
        let mut vm = Vm::new(VmId(0));
        assert_eq!(
            vm.net_deliver_rx(b"nope").unwrap_err(),
            DeviceError::RxStarved
        );
        vm.net_refill_rx().unwrap();
        assert!(vm.net_deliver_rx(b"yes").is_ok());
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut vm = Vm::new(VmId(0));
        let big = vec![0u8; NET_SLOT];
        assert!(matches!(
            vm.net_send(&big).unwrap_err(),
            DeviceError::PayloadTooLarge { .. }
        ));
    }

    #[test]
    fn blk_write_roundtrip() {
        let mut vm = Vm::new(VmId(0));
        let req = BlockRequest::write(RequestId(5), 8, Bytes::from(vec![0xCD; 1024]));
        vm.blk_submit(&req).unwrap();
        let (head, hdr, payload) = vm.blk_fetch().unwrap().unwrap();
        assert_eq!(hdr.sector, 8);
        assert_eq!(hdr.kind, BlkReqKind::Out);
        assert_eq!(payload.len(), 1024);
        assert!(payload.iter().all(|&b| b == 0xCD));
        vm.blk_complete(head, BLK_S_OK, &[]).unwrap();
        let done = vm.blk_reap().unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, RequestId(5));
        assert_eq!(done[0].status, BLK_S_OK);
    }

    #[test]
    fn every_ring_config_roundtrips_net_and_blk() {
        for config in [
            RingConfig::split_basic(),
            RingConfig::split_event_idx(),
            RingConfig::packed(),
        ] {
            let mut vm = Vm::with_rings(VmId(3), config);
            assert_eq!(vm.ring_config(), config);
            vm.net_refill_rx().unwrap();
            vm.net_send(b"over any ring").unwrap();
            let (head, _, payload) = vm.net_fetch_tx().unwrap().unwrap();
            assert_eq!(&payload[..], b"over any ring", "{config}");
            vm.net_complete_tx(head).unwrap();
            assert_eq!(vm.net_reap_tx().unwrap(), 1, "{config}");
            vm.net_deliver_rx(b"and back").unwrap();
            assert_eq!(&vm.net_recv().unwrap().unwrap()[..], b"and back");

            let req = BlockRequest::write(RequestId(1), 4, Bytes::from(vec![0x5A; 2048]));
            vm.blk_submit(&req).unwrap();
            let (head, _, data) = vm.blk_fetch().unwrap().unwrap();
            assert_eq!(data.len(), 2048, "{config}");
            vm.blk_complete(head, BLK_S_OK, &[]).unwrap();
            assert_eq!(vm.blk_reap().unwrap().len(), 1, "{config}");

            for audit in vm.ring_audit() {
                assert_eq!(audit.layout, config.name());
                assert_eq!(
                    usize::from(audit.pinned_descriptors) + audit.free_descriptors,
                    usize::from(audit.capacity),
                    "{config}/{}",
                    audit.name
                );
                if let Some(ind) = audit.indirect {
                    assert_eq!(
                        ind.free + ind.in_use,
                        ind.capacity,
                        "{config}/{}",
                        audit.name
                    );
                }
            }
        }
    }

    #[test]
    fn polling_mode_suppresses_kicks_on_suppression_layouts() {
        let mut vm = Vm::with_rings(VmId(0), RingConfig::packed());
        vm.set_device_polling(true).unwrap();
        // First send may kick (reset state); subsequent sends must not.
        vm.net_send(b"a").unwrap();
        let before = vm.ring_ops().driver_kicks;
        for _ in 0..4 {
            vm.net_send(b"b").unwrap();
        }
        assert_eq!(vm.ring_ops().driver_kicks, before);
        assert!(vm.ring_ops().kicks_suppressed >= 4);
    }

    #[test]
    fn ring_epoch_advances_on_every_ring_method_and_only_there() {
        // Run in this order, every ring method succeeds on a fresh VM;
        // the scratch `u16` carries a fetched head to its completion. Each
        // names the queues it may change.
        type RingOp = fn(&mut Vm, &mut u16);
        const ALL: &[usize] = &[Vm::NET_TX, Vm::NET_RX, Vm::BLK];
        const TX: &[usize] = &[Vm::NET_TX];
        const RX: &[usize] = &[Vm::NET_RX];
        const BLK: &[usize] = &[Vm::BLK];
        let mutating: [(&str, &[usize], RingOp); 15] = [
            ("set_device_polling", ALL, |vm, _| {
                vm.set_device_polling(true).unwrap()
            }),
            ("net_refill_rx", RX, |vm, _| {
                vm.net_refill_rx().unwrap();
            }),
            ("net_send", TX, |vm, _| {
                vm.net_send(b"ping").unwrap();
            }),
            ("net_send_hdr", TX, |vm, _| {
                vm.net_send_hdr(NetHdr::plain(), b"ping").unwrap();
            }),
            ("net_fetch_tx", TX, |vm, head| {
                *head = vm.net_fetch_tx().unwrap().unwrap().0;
            }),
            ("net_complete_tx", TX, |vm, head| {
                vm.net_complete_tx(*head).unwrap()
            }),
            ("net_reap_tx", TX, |vm, _| {
                vm.net_reap_tx().unwrap();
            }),
            ("net_deliver_rx", RX, |vm, _| {
                vm.net_deliver_rx(b"pong").unwrap()
            }),
            ("net_recv", RX, |vm, _| {
                vm.net_recv().unwrap().unwrap();
            }),
            ("net_deliver_rx", RX, |vm, _| {
                vm.net_deliver_rx(b"pong").unwrap()
            }),
            ("net_recv_into", RX, |vm, _| {
                assert!(vm.net_recv_into(&mut Vec::new()).unwrap());
            }),
            ("blk_submit", BLK, |vm, _| {
                vm.blk_submit(&BlockRequest::read(RequestId(1), 0, 512))
                    .unwrap();
            }),
            ("blk_fetch", BLK, |vm, head| {
                *head = vm.blk_fetch().unwrap().unwrap().0;
            }),
            ("blk_complete", BLK, |vm, head| {
                vm.blk_complete(*head, BLK_S_OK, &[0; 512]).unwrap()
            }),
            ("blk_reap", BLK, |vm, _| {
                vm.blk_reap().unwrap();
            }),
        ];
        type ReadOp = fn(&mut Vm);
        let observing: [(&str, ReadOp); 8] = [
            ("ring_audit", |vm| {
                vm.ring_audit();
            }),
            ("queue_audit", |vm| {
                vm.queue_audit(Vm::BLK);
            }),
            ("ring_ops", |vm| {
                vm.ring_ops();
            }),
            ("net_tx_pending", |vm| {
                vm.net_tx_pending().unwrap();
            }),
            ("blk_pending", |vm| {
                vm.blk_pending().unwrap();
            }),
            ("net_counters", |vm| {
                vm.net_counters();
            }),
            ("blk_counters", |vm| {
                vm.blk_counters();
            }),
            ("cpu", |vm| {
                vm.cpu
                    .run(vrio_sim::SimTime::ZERO, vrio_sim::SimDuration::micros(1));
            }),
        ];
        for config in [RingConfig::split_basic(), RingConfig::packed()] {
            let mut vm = Vm::with_rings(VmId(0), config);
            let mut head = 0;
            for (name, queues, op) in mutating {
                let (before, audit) = (vm.ring_epochs(), vm.ring_audit());
                op(&mut vm, &mut head);
                let (after, changed) = (vm.ring_epochs(), vm.ring_audit());
                for q in 0..Vm::QUEUES {
                    let queue = audit[q].name;
                    if queues.contains(&q) {
                        assert!(
                            after[q] > before[q],
                            "{config}: {name} left {queue}'s epoch"
                        );
                    } else {
                        assert_eq!(
                            after[q], before[q],
                            "{config}: {name} moved {queue}'s epoch"
                        );
                        assert_eq!(changed[q], audit[q], "{config}: {name} changed {queue}");
                    }
                }
                for (observer, read) in observing {
                    let epochs = vm.ring_epochs();
                    read(&mut vm);
                    assert_eq!(vm.ring_epochs(), epochs, "{config}: {observer} moved one");
                }
            }
        }
    }

    #[test]
    fn fresh_vm_touches_few_pages() {
        for config in [
            RingConfig::split_basic(),
            RingConfig::split_event_idx(),
            RingConfig::packed(),
        ] {
            let mut vm = Vm::with_rings(VmId(0), config);
            assert_eq!(vm.mem.resident_pages(), 0, "{config}");
            vm.net_refill_rx().unwrap();
            // The rx ring's descriptor table and driver area only: the
            // posted buffers stay unallocated until the device writes them.
            let pages = vm.mem.resident_pages();
            assert!(pages <= 2, "{config}: {pages} pages after refill");
        }
    }

    #[test]
    fn blk_data_buffers_lie_inside_one_page() {
        let vm = Vm::new(VmId(0));
        let page = |a: GuestAddr| a.0 / PAGE_SIZE as u64;
        for slot in 0..BLK_SLOTS {
            let base = vm.blk.pool.addr(slot);
            let (hdr, data, status) = blk_slot_layout(base, 4096);
            assert_eq!(data.0 % PAGE_SIZE as u64, 0, "slot {slot}");
            assert_eq!(page(data), page(data.offset(4095)), "slot {slot}");
            assert_eq!(hdr.offset(BLK_HDR_SIZE as u64), data, "slot {slot}");
            assert_eq!(status, data.offset(4096), "slot {slot}");
            // A full 64 KB request's status byte stays inside the slot.
            let (first, _, last) = blk_slot_layout(base, BLK_DATA_MAX);
            assert!(base <= first, "slot {slot}");
            let end = last.offset(1);
            assert!(end.0 <= vm.mem.size(), "slot {slot}");
            assert!(slot + 1 == BLK_SLOTS || end <= vm.blk.pool.addr(slot + 1));
        }
    }

    #[test]
    fn unknown_heads_are_rejected() {
        let mut vm = Vm::new(VmId(0));
        assert_eq!(
            vm.blk_complete(7, BLK_S_OK, &[]).unwrap_err(),
            DeviceError::UnknownHead(7)
        );
        assert_eq!(
            vm.blk_complete(u16::MAX, BLK_S_OK, &[]).unwrap_err(),
            DeviceError::UnknownHead(u16::MAX)
        );
    }

    #[test]
    fn blk_read_returns_data() {
        let mut vm = Vm::new(VmId(0));
        let req = BlockRequest::read(RequestId(9), 0, 512);
        vm.blk_submit(&req).unwrap();
        let (head, hdr, _) = vm.blk_fetch().unwrap().unwrap();
        assert_eq!(hdr.kind, BlkReqKind::In);
        vm.blk_complete(head, BLK_S_OK, &[0xEE; 512]).unwrap();
        let done = vm.blk_reap().unwrap();
        assert_eq!(done[0].data.len(), 512);
        assert!(done[0].data.iter().all(|&b| b == 0xEE));
    }
}
